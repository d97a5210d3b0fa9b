//! The two Table III vector formats as the API shows them: which results
//! land full, that a mid-density product stays an index list, and that
//! reading a full-stored vector never rewrites its store.
//!
//! The format counters are process-global: the tests take turns.

use std::sync::{Mutex, MutexGuard};

use graphblas::operations::{
    all_indices, apply_v, assign_scalar_v, ewise_add_v, ewise_mult_v, force_direction, mxv,
    select_v, vxm, Direction, ALL,
};
use graphblas::{
    global_context, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, IndexUnaryOp, Matrix,
    Mode, Semiring, UnaryOp, Vector, VectorFormat, WaitMode,
};
use graphblas_obs::Reason;

const N: usize = 12;

fn serialize() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn constant(value: i64) -> Vector<i64> {
    let v = Vector::<i64>::new(N).unwrap();
    let d = Descriptor::default();
    assign_scalar_v(&v, no_mask_v(), None, value, &all_indices(N), &d).unwrap();
    v
}

#[test]
fn reads_never_rewrite_a_full_store() {
    let _turn = serialize();
    graphblas_obs::set_enabled(true);
    let full = constant(5);
    assert_eq!(full.stats().format, "full");
    let conversions = || graphblas_obs::snapshot().format.conversions;
    let before = conversions();

    assert_eq!(full.extract_element(3).unwrap(), Some(5));
    assert_eq!(full.nvals().unwrap(), N);
    assert_eq!(full.extract_tuples().unwrap(), (all_indices(N), vec![5; N]));
    assert_eq!(full.export_size(VectorFormat::Sparse).unwrap(), (N, N));
    assert_eq!(
        full.export(VectorFormat::Sparse).unwrap(),
        (all_indices(N), vec![5; N])
    );
    assert_eq!(
        full.export(VectorFormat::Dense).unwrap(),
        (Vec::new(), vec![5; N])
    );
    assert_eq!(full.export_hint(), Some(VectorFormat::Dense));
    full.wait(WaitMode::Materialize).unwrap();
    assert_eq!(full.dup().unwrap().stats().format, "full");
    assert_eq!(full.stats().format, "full");

    // Being consulted as a mask is a read like any other: the mask's bits
    // are taken from the store as it stands, by value or by structure.
    let by_structure_complemented = Descriptor::new().structure_mask().complement_mask();
    for (desc, admitted) in [(Descriptor::new(), N), (by_structure_complemented, 0)] {
        let w = Vector::<i64>::new(N).unwrap();
        assign_scalar_v(&w, Some(&full), None, 1, ALL, &desc).unwrap();
        assert_eq!(w.nvals().unwrap(), admitted);
    }
    assert_eq!(full.stats().format, "full");

    assert_eq!(conversions(), before, "a read converted a store");

    // A write has no full path: it converts, once, and the conversion is
    // counted.
    full.set_element(9, 0).unwrap();
    assert_eq!(full.stats().format, "sparse");
    assert_eq!(full.extract_element(0).unwrap(), Some(9));
    assert_eq!(full.nvals().unwrap(), N);
    assert_eq!(conversions(), before + 1);
    graphblas_obs::set_enabled(false);
}

#[test]
fn a_mid_density_product_is_stored_sparse_and_pulled_as_it_is() {
    let _turn = serialize();
    graphblas_obs::set_enabled(true);
    // A private context: its explain log holds this test's events only.
    let ctx = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    // `uᵀ · A` over the ring i → i + 1 (mod N) moves every entry one step:
    // a frontier on half the vertices gives a result on half of them.
    let ring = Matrix::<i64>::new_in(&ctx, N, N).unwrap();
    let next: Vec<usize> = (0..N).map(|i| (i + 1) % N).collect();
    ring.build(&all_indices(N), &next, &[1; N], None).unwrap();
    let u = Vector::<i64>::new_in(&ctx, N).unwrap();
    let half: Vec<usize> = (0..N).step_by(2).collect();
    u.build(&half, &vec![3; half.len()], None).unwrap();
    let sr = Semiring::plus_times();
    let d = Descriptor::default();
    let w = Vector::<i64>::new_in(&ctx, N).unwrap();
    vxm(&w, no_mask_v(), None, &sr, &u, &ring, &d).unwrap();
    assert_eq!(w.stats().format, "sparse");
    assert_eq!(w.nvals().unwrap(), N / 2);
    // The next product pulls it through the position table as it is.
    let w2 = Vector::<i64>::new_in(&ctx, N).unwrap();
    force_direction(Some(Direction::Pull));
    let pulled = mxv(&w2, no_mask_v(), None, &sr, &ring, &w, &d);
    force_direction(None);
    pulled.unwrap();
    graphblas_obs::set_enabled(false);
    assert_eq!(w2.extract_tuples().unwrap(), u.extract_tuples().unwrap());
    let events = ctx.explain(usize::MAX).events;
    let paths: Vec<_> = events
        .iter()
        .filter(|e| e.reason == Reason::KernelPath)
        .collect();
    assert_eq!(
        paths.last().map(|e| (e.op, e.detail)),
        Some(("spmv", "sparse-frontier"))
    );
    assert!(
        !events.iter().any(|e| e.reason == Reason::ConvertSparse),
        "a mid-density frontier was converted: {events:?}"
    );
}

#[test]
fn a_result_holding_every_position_is_stored_full() {
    let _turn = serialize();
    let d = Descriptor::default();
    let (a, b) = (constant(6), constant(3));
    let w = Vector::<i64>::new(N).unwrap();

    ewise_mult_v(&w, no_mask_v(), None, &BinaryOp::times(), &a, &b, &d).unwrap();
    assert_eq!(w.stats().format, "full");
    assert_eq!(w.extract_tuples().unwrap().1, vec![18; N]);

    ewise_add_v(&w, no_mask_v(), None, &BinaryOp::minus(), &a, &b, &d).unwrap();
    assert_eq!(w.stats().format, "full");
    assert_eq!(w.extract_tuples().unwrap().1, vec![3; N]);

    apply_v(&w, no_mask_v(), None, &UnaryOp::ainv(), &a, &d).unwrap();
    assert_eq!(w.stats().format, "full");

    // Accumulating a partial vector into a full one leaves it full …
    let few = Vector::<i64>::new(N).unwrap();
    few.build(&[1, 7], &[100, 200], None).unwrap();
    let id = UnaryOp::identity();
    apply_v(&w, no_mask_v(), Some(&BinaryOp::plus()), &id, &few, &d).unwrap();
    assert_eq!(w.stats().format, "full");
    assert_eq!(w.extract_element(7).unwrap(), Some(194));
    assert_eq!(w.extract_element(8).unwrap(), Some(-6));

    // … and a union with a full operand is full even when the other one
    // is not.
    ewise_add_v(&w, no_mask_v(), None, &BinaryOp::plus(), &few, &b, &d).unwrap();
    assert_eq!(w.stats().format, "full");
    assert_eq!(w.extract_element(1).unwrap(), Some(103));

    // A sparse result that happens to store every position is full too,
    // whichever kernel produced it …
    let keep_all = IndexUnaryOp::valuegt();
    select_v(&w, no_mask_v(), None, &keep_all, &a, 0, &d).unwrap();
    assert_eq!(w.stats().format, "full");
    // … and one that does not is not.
    ewise_mult_v(&w, no_mask_v(), None, &BinaryOp::times(), &a, &few, &d).unwrap();
    assert_eq!(w.stats().format, "sparse");
    assert_eq!(w.extract_tuples().unwrap(), (vec![1, 7], vec![600, 1200]));
    select_v(&w, no_mask_v(), None, &keep_all, &a, 6, &d).unwrap();
    assert_eq!((w.stats().format, w.nvals().unwrap()), ("sparse", 0));
}
