//! Paper §III: completion semantics and the fusion latitude.
//!
//! Nonblocking sequences accumulate; `wait(Complete)` finishes them;
//! consecutive unmasked in-place apply/select stages fuse into one
//! traversal; reads force completion implicitly; completed objects can be
//! handed across threads with an acquire/release edge. A sequence runs
//! only on a thread that asked for it, and a stage that panics there
//! poisons the object (§V) instead of losing the sequence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use graphblas::operations::{apply, apply_v, mxv, select};
use graphblas::{
    global_context, no_mask, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, Error,
    IndexUnaryOp, Info, Matrix, Mode, Semiring, UnaryOp, Vector, WaitMode,
};

fn nonblocking() -> Context {
    Context::new(
        &global_context(),
        Mode::NonBlocking,
        ContextOptions::default(),
    )
}

fn seeded(ctx: &Context) -> Matrix<i64> {
    let m = Matrix::<i64>::new_in(ctx, 4, 4).unwrap();
    m.build(
        &[0, 1, 2, 3, 0],
        &[0, 1, 2, 3, 3],
        &[1, 2, 3, 4, 5],
        None,
    )
    .unwrap();
    m
}

#[test]
fn sequences_accumulate_and_drain() {
    let ctx = nonblocking();
    let m = seeded(&ctx);
    assert!(m.pending_len() >= 1); // the build itself is deferred
    for _ in 0..4 {
        apply(
            &m,
            no_mask(),
            None,
            &UnaryOp::new("inc", |x: &i64| x + 1),
            &m,
            &Descriptor::default(),
        )
        .unwrap();
    }
    assert!(m.pending_len() >= 5);
    m.wait(WaitMode::Complete).unwrap();
    assert_eq!(m.pending_len(), 0);
    assert_eq!(m.extract_element(0, 0).unwrap(), Some(5));
}

#[test]
fn fused_pipeline_equals_eager_pipeline() {
    // The same apply→select→apply chain in a blocking and a nonblocking
    // context must produce identical results (§III: fusion must be
    // mathematically invisible).
    let run = |ctx: &Context| {
        let m = seeded(ctx);
        apply(
            &m,
            no_mask(),
            None,
            &UnaryOp::new("x10", |x: &i64| x * 10),
            &m,
            &Descriptor::default(),
        )
        .unwrap();
        select(
            &m,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &m,
            15i64,
            &Descriptor::default(),
        )
        .unwrap();
        apply(
            &m,
            no_mask(),
            None,
            &UnaryOp::new("dec", |x: &i64| x - 1),
            &m,
            &Descriptor::default(),
        )
        .unwrap();
        m.wait(WaitMode::Materialize).unwrap();
        m.extract_tuples().unwrap()
    };
    let blocking = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    assert_eq!(run(&nonblocking()), run(&blocking));
}

#[test]
fn reads_force_completion_implicitly() {
    let ctx = nonblocking();
    let m = seeded(&ctx);
    apply(
        &m,
        no_mask(),
        None,
        &UnaryOp::new("neg", |x: &i64| -x),
        &m,
        &Descriptor::default(),
    )
    .unwrap();
    assert!(m.pending_len() > 0);
    // nvals is a read: the sequence must complete first.
    assert_eq!(m.nvals().unwrap(), 5);
    assert_eq!(m.pending_len(), 0);
    assert_eq!(m.extract_element(1, 1).unwrap(), Some(-2));
}

#[test]
fn reading_another_object_forces_only_that_operand() {
    use graphblas::operations::ewise_add;
    use graphblas::BinaryOp;
    let ctx = nonblocking();
    let a = seeded(&ctx);
    let b = seeded(&ctx);
    let c = Matrix::<i64>::new_in(&ctx, 4, 4).unwrap();
    // Enqueuing C = A ⊕ B snapshots (and therefore completes) A and B,
    // but C's own computation stays pending.
    ewise_add(
        &c,
        no_mask(),
        None,
        &BinaryOp::plus(),
        &a,
        &b,
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(a.pending_len(), 0);
    assert_eq!(b.pending_len(), 0);
    assert!(c.pending_len() > 0);
    assert_eq!(c.extract_element(0, 3).unwrap(), Some(10));
}

#[test]
fn snapshot_fixes_input_values_at_call_time() {
    // Sequence order: C = apply(A) enqueued, then A mutated. The deferred
    // C must still see A's value from the call point.
    let ctx = nonblocking();
    let a = seeded(&ctx);
    let c = Matrix::<i64>::new_in(&ctx, 4, 4).unwrap();
    apply(
        &c,
        no_mask(),
        None,
        &UnaryOp::identity(),
        &a,
        &Descriptor::default(),
    )
    .unwrap();
    a.set_element(999, 0, 0).unwrap();
    assert_eq!(c.extract_element(0, 0).unwrap(), Some(1));
    assert_eq!(a.extract_element(0, 0).unwrap(), Some(999));
}

#[test]
fn completed_object_crosses_threads_with_acquire_release() {
    let ctx = nonblocking();
    let shared = seeded(&ctx);
    let flag = Arc::new(AtomicBool::new(false));
    let expected = {
        let d = shared.dup().unwrap();
        d.extract_tuples().unwrap()
    };
    std::thread::scope(|scope| {
        {
            let shared = shared.clone();
            let flag = flag.clone();
            scope.spawn(move || {
                apply(
                    &shared,
                    no_mask(),
                    None,
                    &UnaryOp::identity(),
                    &shared,
                    &Descriptor::default(),
                )
                .unwrap();
                shared.wait(WaitMode::Complete).unwrap();
                flag.store(true, Ordering::Release);
            });
        }
        {
            let shared = shared.clone();
            let flag = flag.clone();
            scope.spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert_eq!(shared.extract_tuples().unwrap(), expected);
            });
        }
    });
}

#[test]
fn materialize_canonicalizes_storage() {
    let ctx = nonblocking();
    let m = seeded(&ctx);
    m.wait(WaitMode::Materialize).unwrap();
    // After materialization the hint must be the canonical CSR format.
    assert_eq!(m.export_hint(), Some(graphblas::Format::Csr));
}

#[test]
fn vector_wait_mirrors_matrix() {
    let ctx = nonblocking();
    let v = Vector::<i64>::new_in(&ctx, 5).unwrap();
    v.build(&[0, 4], &[1, 2], None).unwrap();
    assert!(v.pending_len() > 0);
    v.wait(WaitMode::Complete).unwrap();
    assert_eq!(v.pending_len(), 0);
    assert_eq!(v.nvals().unwrap(), 2);
}

/// `w ⊙= op(u)` with a PLUS accumulator: a DAG node, not a fusible map.
fn accumulate(w: &Vector<i64>, op: &UnaryOp<i64, i64>, u: &Vector<i64>) -> Result<(), Error> {
    let plus = BinaryOp::plus();
    apply_v(w, no_mask_v(), Some(&plus), op, u, &Descriptor::default())
}

fn ones(ctx: &Context, n: usize) -> Vector<i64> {
    let u = Vector::<i64>::new_in(ctx, n).unwrap();
    u.build(&(0..n).collect::<Vec<_>>(), &vec![1; n], None)
        .unwrap();
    u.wait(WaitMode::Materialize).unwrap();
    u
}

fn exploding() -> UnaryOp<i64, i64> {
    UnaryOp::new("boom", |_: &i64| -> i64 {
        panic!("user operator exploded")
    })
}

/// Every pool worker is still there: a two-thread product completes.
fn assert_a_two_thread_mxv_completes() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let two = Context::new(
            &global_context(),
            Mode::Blocking,
            ContextOptions {
                nthreads: Some(2),
                chunk_size: Some(64),
                ..Default::default()
            },
        );
        let n = 4096;
        let idx: Vec<usize> = (0..n).collect();
        let a = Matrix::<i64>::new_in(&two, n, n).unwrap();
        a.build(&idx, &idx, &vec![2; n], None).unwrap();
        let y = Vector::<i64>::new_in(&two, n).unwrap();
        let sr = Semiring::plus_times();
        let d = Descriptor::default();
        mxv(&y, no_mask_v(), None, &sr, &a, &ones(&two, n), &d).unwrap();
        done_tx.send(y.extract_tuples().unwrap().1).unwrap();
    });
    let y = done_rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("a 2-thread mxv must not wait on dead workers");
    assert_eq!(y, vec![2; 4096]);
}

fn assert_poisoned_by_panic(w: &Vector<i64>, err: &Error) {
    assert_eq!(err.code(), Info::Panic as i32);
    let st = w.stats();
    assert!(st.failed && st.pending == 0, "poisoned, nothing deferred");
    assert!(w.error_string().contains("user operator exploded"));
}

#[test]
fn a_panicking_stage_poisons_the_object_and_runs_on_no_other_thread() {
    let ctx = nonblocking();
    let inc = UnaryOp::new("inc", |x: &i64| x + 1);
    // One round per pool worker: were a deep queue still handed to the
    // pool, each round would take a worker down with it.
    let rounds = std::thread::available_parallelism().map_or(4, |n| n.get());
    for _ in 0..rounds {
        let u = ones(&ctx, 64);
        let w = u.dup().unwrap();
        accumulate(&w, &exploding(), &u).unwrap();
        for _ in 1..12 {
            accumulate(&w, &inc, &u).unwrap();
        }
        // A stage that is never read is never executed, however deep the
        // queue gets.
        assert_eq!(w.stats().pending, 12);
        let err = w.wait(WaitMode::Complete).unwrap_err();
        assert_poisoned_by_panic(&w, &err);
        assert_eq!(accumulate(&w, &inc, &u).unwrap_err(), err, "sticky");
        w.clear().unwrap();
        assert_eq!((w.nvals().unwrap(), w.stats().failed), (0, false));
        assert_eq!(w.error_string(), "");
    }

    assert_a_two_thread_mxv_completes();
}

#[test]
fn a_panicking_stage_in_a_blocking_context_fails_the_call_itself() {
    let ctx = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    let u = ones(&ctx, 64);
    let w = u.dup().unwrap();
    let err = accumulate(&w, &exploding(), &u).unwrap_err();
    assert_poisoned_by_panic(&w, &err);
    assert_eq!(w.nvals().unwrap_err(), err);
}

#[test]
fn a_panicking_dup_in_build_poisons_the_matrix() {
    let two = ContextOptions {
        nthreads: Some(2),
        chunk_size: Some(64),
        ..Default::default()
    };
    let exploding_dup = BinaryOp::new("boom", |_: &i64, _: &i64| -> i64 {
        panic!("user dup exploded")
    });
    let n = 512;
    // Every coordinate twice, so the dup runs on every budget's path.
    let idx: Vec<usize> = (0..2 * n).map(|k| k % n).collect();
    for mode in [Mode::Blocking, Mode::NonBlocking] {
        for opts in [ContextOptions::default(), two.clone()] {
            let ctx = Context::new(&global_context(), mode, opts);
            let a = Matrix::<i64>::new_in(&ctx, n, n).unwrap();
            let built = a.build(&idx, &idx, &vec![1; 2 * n], Some(&exploding_dup));
            let err = match mode {
                Mode::Blocking => built.unwrap_err(),
                Mode::NonBlocking => {
                    built.unwrap();
                    a.wait(WaitMode::Complete).unwrap_err()
                }
            };
            assert_eq!(err.code(), Info::Panic as i32);
            let st = a.stats();
            assert!(st.failed && st.pending == 0, "poisoned, nothing deferred");
            assert!(a.error_string().contains("user dup exploded"));
            assert_eq!(a.nvals().unwrap_err(), err, "sticky");
        }
    }
    assert_a_two_thread_mxv_completes();
}
