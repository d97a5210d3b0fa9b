//! The three Table III vector formats as the API shows them: which results
//! land full, and that reading a bitmap- or full-stored vector never
//! rewrites its store.
//!
//! The format counters are process-global: the tests take turns.

use std::sync::{Mutex, MutexGuard};

use graphblas::operations::{
    all_indices, apply_v, assign_scalar_v, ewise_add_v, ewise_mult_v, mxv, select_v, ALL,
};
use graphblas::{
    no_mask_v, BinaryOp, Descriptor, IndexUnaryOp, Matrix, Semiring, UnaryOp, Vector, VectorFormat,
    WaitMode,
};

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

/// `I · u`: the product stores a result between a quarter occupied and full
/// as a bitmap.
fn bitmap_of(entries: &[(usize, i64)]) -> Vector<i64> {
    let eye = Matrix::<i64>::new(N, N).unwrap();
    let diag: Vec<usize> = (0..N).collect();
    eye.build(&diag, &diag, &[1; N], None).unwrap();
    let u = Vector::<i64>::new(N).unwrap();
    let (idx, vals): (Vec<_>, Vec<_>) = entries.iter().copied().unzip();
    u.build(&idx, &vals, None).unwrap();
    let w = Vector::<i64>::new(N).unwrap();
    let sr = Semiring::plus_times();
    mxv(&w, no_mask_v(), None, &sr, &eye, &u, &Descriptor::default()).unwrap();
    assert_eq!(w.stats().format, "bitmap");
    w
}

#[test]
fn reads_never_rewrite_a_bitmap_or_full_store() {
    let _turn = serialize();
    graphblas_obs::set_enabled(true);
    let full = constant(5);
    let half: Vec<(usize, i64)> = (0..N).step_by(2).map(|i| (i, i as i64)).collect();
    let bitmap = bitmap_of(&half);
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

    assert_eq!(bitmap.extract_element(4).unwrap(), Some(4));
    assert_eq!(bitmap.extract_element(5).unwrap(), None);
    assert_eq!(bitmap.nvals().unwrap(), half.len());
    assert_eq!(bitmap.stats().format, "bitmap");

    // Being consulted as a mask is a read like any other: the mask's bits
    // are taken from the store as it stands, by value or by structure.
    let by_structure_complemented = Descriptor::new().structure_mask().complement_mask();
    // `bitmap` stores a 0 at position 0, which a value mask reads as false.
    let cases = [
        (&full, Descriptor::new(), N),
        (&bitmap, Descriptor::new(), half.len() - 1),
        (&full, by_structure_complemented, 0),
        (&bitmap, by_structure_complemented, N - half.len()),
    ];
    for (mask, desc, admitted) in cases {
        let w = Vector::<i64>::new(N).unwrap();
        assign_scalar_v(&w, Some(mask), None, 1, ALL, &desc).unwrap();
        assert_eq!(w.nvals().unwrap(), admitted);
    }
    assert_eq!((full.stats().format, bitmap.stats().format), ("full", "bitmap"));

    assert_eq!(conversions(), before, "a read converted a store");

    // A write has no full or bitmap path: it converts, once, and the
    // conversion is counted.
    full.set_element(9, 0).unwrap();
    assert_eq!(full.stats().format, "sparse");
    assert_eq!(full.extract_element(0).unwrap(), Some(9));
    assert_eq!(full.nvals().unwrap(), N);
    bitmap.remove_element(4).unwrap();
    assert_eq!(bitmap.stats().format, "sparse");
    assert_eq!(conversions(), before + 2);
    graphblas_obs::set_enabled(false);
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
