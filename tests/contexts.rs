//! Paper Fig. 2 / §IV: hierarchical execution contexts — creation with a
//! parent, context-aware constructors, the shared-context requirement,
//! and `GrB_Context_switch`.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use graphblas::operations::{
    ewise_add, mxm, reduce_scalar, reduce_scalar_binop, reduce_scalar_binop_v, reduce_scalar_v,
    reduce_to_value, reduce_to_value_v,
};
use graphblas::{
    global_context, no_mask, BinaryOp, Context, ContextOptions, Descriptor, Matrix, Mode, Monoid,
    Scalar, Semiring, Vector,
};

fn ctx(parent: &Context, mode: Mode, nthreads: Option<usize>) -> Context {
    Context::new(
        parent,
        mode,
        ContextOptions {
            nthreads,
            ..Default::default()
        },
    )
}

#[test]
fn nested_contexts_clamp_resources() {
    let root = global_context();
    let outer = ctx(&root, Mode::Blocking, Some(4));
    let inner = ctx(&outer, Mode::Blocking, Some(16));
    // A child can never exceed its parent's budget (§IV hierarchy).
    assert!(inner.effective_threads() <= outer.effective_threads());
    assert!(inner.is_within(&outer));
    assert!(inner.is_within(&root));
    assert!(!outer.is_within(&inner));
}

#[test]
fn results_identical_across_thread_budgets() {
    // The context controls resources, never results.
    let root = global_context();
    let a = Matrix::<i64>::new(64, 64).unwrap();
    let rows: Vec<usize> = (0..64).collect();
    let vals: Vec<i64> = (0..64).map(|i| i as i64 + 1).collect();
    a.build(&rows, &rows, &vals, None).unwrap();

    let mut reference: Option<Vec<(usize, usize, i64)>> = None;
    for threads in [1usize, 2, 8] {
        let c = ctx(&root, Mode::Blocking, Some(threads));
        let a2 = a.dup().unwrap();
        a2.switch_context(&c).unwrap();
        let out = Matrix::<i64>::new_in(&c, 64, 64).unwrap();
        mxm(
            &out,
            no_mask(),
            None,
            &Semiring::plus_times(),
            &a2,
            &a2,
            &Descriptor::default(),
        )
        .unwrap();
        let (r, cc, v) = out.extract_tuples().unwrap();
        let tuples: Vec<_> = r.into_iter().zip(cc).zip(v).map(|((i, j), x)| (i, j, x)).collect();
        match &reference {
            None => reference = Some(tuples),
            Some(expect) => assert_eq!(&tuples, expect, "budget {threads} diverged"),
        }
    }
}

#[test]
fn mixed_contexts_are_rejected() {
    let root = global_context();
    let c1 = ctx(&root, Mode::Blocking, Some(2));
    let c2 = ctx(&root, Mode::Blocking, Some(2));
    let a = Matrix::<i64>::new_in(&c1, 4, 4).unwrap();
    let b = Matrix::<i64>::new_in(&c2, 4, 4).unwrap();
    let out = Matrix::<i64>::new_in(&c1, 4, 4).unwrap();
    let err = mxm(
        &out,
        no_mask(),
        None,
        &Semiring::plus_times(),
        &a,
        &b,
        &Descriptor::default(),
    )
    .unwrap_err();
    assert!(err.is_api());
    assert_eq!(err.code(), -9); // ContextMismatch extension code
}

#[test]
fn context_switch_heals_the_mismatch() {
    let root = global_context();
    let c1 = ctx(&root, Mode::Blocking, Some(2));
    let c2 = ctx(&root, Mode::Blocking, Some(2));
    let a = Matrix::<i64>::new_in(&c1, 2, 2).unwrap();
    a.set_element(3, 0, 0).unwrap();
    let b = Matrix::<i64>::new_in(&c2, 2, 2).unwrap();
    b.set_element(4, 0, 0).unwrap();
    let out = Matrix::<i64>::new_in(&c1, 2, 2).unwrap();
    // GrB_Context_switch(B, c1)
    b.switch_context(&c1).unwrap();
    assert!(b.context().same(&c1));
    ewise_add(
        &out,
        no_mask(),
        None,
        &BinaryOp::plus(),
        &a,
        &b,
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(out.extract_element(0, 0).unwrap(), Some(7));
}

#[test]
fn vectors_and_scalars_carry_contexts_too() {
    let root = global_context();
    let c1 = ctx(&root, Mode::NonBlocking, None);
    let v = Vector::<f64>::new_in(&c1, 8).unwrap();
    assert!(v.context().same(&c1));
    let s = graphblas::Scalar::<f64>::new_in(&c1).unwrap();
    assert!(s.context().same(&c1));
    // Default constructors land in the global context.
    let w = Vector::<f64>::new(8).unwrap();
    assert!(w.context().same(&root));
}

#[test]
fn nonblocking_context_defers_blocking_context_does_not() {
    let root = global_context();
    let nb = ctx(&root, Mode::NonBlocking, None);
    let bl = ctx(&root, Mode::Blocking, None);

    let m_nb = Matrix::<i64>::new_in(&nb, 4, 4).unwrap();
    m_nb.build(&[0], &[0], &[1], None).unwrap();
    assert!(m_nb.pending_len() > 0, "nonblocking build should defer");

    let m_bl = Matrix::<i64>::new_in(&bl, 4, 4).unwrap();
    m_bl.build(&[0], &[0], &[1], None).unwrap();
    assert_eq!(m_bl.pending_len(), 0, "blocking build must execute now");
}

#[test]
fn contexts_report_identity_and_mode() {
    let root = global_context();
    let a = ctx(&root, Mode::NonBlocking, Some(3));
    assert_eq!(a.mode(), Mode::NonBlocking);
    assert!(a.parent().unwrap().same(&root));
    let b = a.clone();
    assert!(a.same(&b));
    assert_ne!(a.id(), root.id());
}

#[test]
fn scalar_reductions_run_under_the_output_scalars_thread_budget() {
    // A one-thread context with a tiny chunk size: a kernel that honours
    // it runs every task on the calling thread; one that falls back to the
    // global context fans 4096 rows out over the pool.
    let one = Context::new(
        &global_context(),
        Mode::Blocking,
        ContextOptions {
            nthreads: Some(1),
            chunk_size: Some(8),
            ..Default::default()
        },
    );
    let n = 4096;
    let idx: Vec<usize> = (0..n).collect();
    let a = Matrix::<i64>::new_in(&one, n, n).unwrap();
    a.build(&idx, &idx, &vec![1; n], None).unwrap();
    let u = Vector::<i64>::new_in(&one, n).unwrap();
    u.build(&idx, &vec![1; n], None).unwrap();
    let s = Scalar::<i64>::new_in(&one).unwrap();

    // A user-defined (unregistered) operator that records who calls it.
    let seen: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
    let record = seen.clone();
    let plus = BinaryOp::<i64, i64, i64>::new("recording_plus", move |x, y| {
        record.lock().unwrap().insert(thread::current().id());
        x + y
    });
    let monoid = Monoid::new(plus.clone(), 0);

    let cases: [(&str, &dyn Fn() -> i64); 6] = [
        ("reduce_scalar", &|| {
            reduce_scalar(&s, None, &monoid, &a).unwrap();
            s.extract_element().unwrap().unwrap()
        }),
        ("reduce_scalar_binop", &|| {
            reduce_scalar_binop(&s, None, &plus, &a).unwrap();
            s.extract_element().unwrap().unwrap()
        }),
        ("reduce_scalar_v", &|| {
            reduce_scalar_v(&s, None, &monoid, &u).unwrap();
            s.extract_element().unwrap().unwrap()
        }),
        ("reduce_scalar_binop_v", &|| {
            reduce_scalar_binop_v(&s, None, &plus, &u).unwrap();
            s.extract_element().unwrap().unwrap()
        }),
        ("reduce_to_value", &|| reduce_to_value(&monoid, &a).unwrap()),
        ("reduce_to_value_v", &|| {
            reduce_to_value_v(&monoid, &u).unwrap()
        }),
    ];
    for (name, run) in cases {
        seen.lock().unwrap().clear();
        assert_eq!(run(), n as i64, "{name}: wrong sum");
        let threads = seen.lock().unwrap().clone();
        assert_eq!(
            threads,
            HashSet::from([thread::current().id()]),
            "{name} left its context's one-thread budget"
        );
    }
}
