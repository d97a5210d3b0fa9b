//! Result recycling: a CSR store that no other handle holds gives its
//! arrays to the thread's result shelf (`exec::workspace`) when it is
//! dropped or replaced, and the next kernel result of about its size is
//! built in them. These tests pin that a warm shelf never changes an
//! answer, that a store another handle still reads is never shelved, and
//! that the shelf stays bounded, reconciles with the obs workspace gauge
//! and is freed by `finalize`.
//!
//! The shelf's bytes are visible only through that process-global gauge,
//! so this is a binary of its own and its tests serialize on one mutex.

use std::sync::{Mutex, MutexGuard};

use graphblas_core::operations::{apply, mxm, transpose};
use graphblas_core::{
    global_context, no_mask, Context, ContextOptions, Descriptor, Format, Matrix, Mode, Semiring,
    UnaryOp, WaitMode,
};
use graphblas_exec::rng::prelude::*;
use graphblas_exec::workspace;

static OBS: Mutex<()> = Mutex::new(());

/// Holds the tests' mutex; on drop, after the test's own locals, empties
/// the thread's shelf, so no test's buffers leave the gauge mid-way through
/// the next one when its thread exits.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        workspace::trim();
    }
}

/// Serializes the test and turns the workspace gauge on.
fn serial() -> Serial {
    let g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_obs::set_enabled(true);
    Serial { _lock: g }
}

/// Bytes on the obs workspace gauge: every thread's cached scratch and
/// shelved buffers.
fn gauge() -> u64 {
    graphblas_obs::mem::workspace().live()
}

type Tuples = (Vec<usize>, Vec<usize>, Vec<f64>);

/// Side of every square matrix here. A product of two `PER_ROW`-entry-a-row
/// operands has ≈ 0.86 N² entries (1.8 MB an array), a matrix with N / 2
/// entries a row 1 MiB an array: all at or above the shelf's floor.
const N: usize = 512;
const PER_ROW: usize = 32;

fn context(mode: Mode, nthreads: usize) -> Context {
    let opts = ContextOptions {
        nthreads: Some(nthreads),
        ..ContextOptions::default()
    };
    Context::new(&global_context(), mode, opts)
}

/// Distinct random coordinates, `per_row` a row, with values from `seed`.
fn random_tuples(per_row: usize, seed: u64) -> Tuples {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..N {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < per_row {
            picked.insert(rng.gen_range(0..N));
        }
        for j in picked {
            rows.push(i);
            cols.push(j);
            vals.push(rng.gen_range(1..9) as f64);
        }
    }
    (rows, cols, vals)
}

fn built(ctx: &Context, (rows, cols, vals): &Tuples) -> Matrix<f64> {
    let m = Matrix::new_in(ctx, N, N).unwrap();
    m.build(rows, cols, vals, None).unwrap();
    m.wait(WaitMode::Materialize).unwrap();
    m
}

fn product(c: &Matrix<f64>, mask: Option<&Matrix<f64>>, desc: &Descriptor, a: &Matrix<f64>) {
    let sr = Semiring::<f64, f64, f64>::plus_times();
    mxm(c, mask, None, &sr, a, a, desc).unwrap();
}

/// Runs `op` into a fresh output on a cold shelf, then again on a shelf
/// holding junk-filled buffers twice the result's size; both runs must
/// read the same tuples. Where every kernel runs on this thread, the warm
/// run must have drawn from the shelf.
fn cold_and_warm(ctx: &Context, what: &str, op: impl Fn(&Matrix<f64>)) {
    let run = |before: Option<u64>| {
        let c = Matrix::<f64>::new_in(ctx, N, N).unwrap();
        op(&c);
        c.wait(WaitMode::Complete).unwrap();
        if let Some(before) = before {
            if ctx.effective_threads() == 1 {
                assert!(gauge() < before, "{what}: the warm run took nothing");
            }
        }
        c.extract_tuples().unwrap()
    };
    workspace::trim();
    let cold = run(None);
    let nnz = cold.2.len();
    workspace::trim();
    workspace::shelve_vec(vec![usize::MAX; 2 * nnz]);
    workspace::shelve_vec(vec![f64::NAN; 2 * nnz]);
    let warm = run(Some(gauge()));
    assert!(cold == warm, "{what}: a warm shelf changed the answer");
}

#[test]
fn a_warm_shelf_never_changes_an_answer() {
    let _g = serial();
    let (a_t, m_t) = (random_tuples(PER_ROW, 1), random_tuples(N / 2, 2));
    for mode in [Mode::Blocking, Mode::NonBlocking] {
        for nthreads in [1, 2, 4] {
            let ctx = context(mode, nthreads);
            let at = format!("{mode:?}, {nthreads} threads");
            let (a, m) = (built(&ctx, &a_t), built(&ctx, &m_t));
            let plain = Descriptor::default();
            let comp = Descriptor::new().complement_mask();
            cold_and_warm(&ctx, &format!("mxm, {at}"), |c| product(c, None, &plain, &a));
            cold_and_warm(&ctx, &format!("masked mxm, {at}"), |c| {
                product(c, Some(&m), &plain, &a)
            });
            cold_and_warm(&ctx, &format!("complemented mxm, {at}"), |c| {
                product(c, Some(&m), &comp, &a)
            });
            // A `dup` has no transpose memo yet: each run builds one.
            cold_and_warm(&ctx, &format!("transpose, {at}"), |c| {
                transpose(c, no_mask(), None, &m.dup().unwrap(), &plain).unwrap()
            });
            cold_and_warm(&ctx, &format!("build, {at}"), |c| {
                c.build(&m_t.0, &m_t.1, &m_t.2, None).unwrap()
            });
        }
    }
}

/// Whether `handle`, run on an empty shelf, grew the gauge: shelved
/// something.
fn shelves(handle: impl FnOnce()) -> bool {
    workspace::trim();
    let before = gauge();
    handle();
    gauge() > before
}

/// A product of the same type and size as the stores below, to take any
/// buffer that was wrongly shelved.
fn churn(ctx: &Context, a: &Matrix<f64>) {
    let c = Matrix::<f64>::new_in(ctx, N, N).unwrap();
    product(&c, None, &Descriptor::default(), a);
    c.wait(WaitMode::Complete).unwrap();
}

#[test]
fn a_store_another_handle_holds_is_never_shelved() {
    let _g = serial();
    let ctx = context(Mode::Blocking, 1);
    let big_t = random_tuples(N / 2, 4);
    let a = built(&ctx, &random_tuples(PER_ROW, 5));
    let expect = built(&ctx, &big_t).extract_tuples().unwrap();

    // `dup` shares the store: the first drop leaves it to the copy.
    let (x, y) = (built(&ctx, &big_t), built(&ctx, &big_t));
    let (x_dup, y_dup) = (x.dup().unwrap(), y.dup().unwrap());
    assert!(!shelves(|| drop(x)), "dropped a store its dup holds");
    assert!(!shelves(|| y.clear().unwrap()), "replaced a store its dup holds");
    churn(&ctx, &a);
    assert_eq!(x_dup.extract_tuples().unwrap(), expect);
    assert_eq!(y_dup.extract_tuples().unwrap(), expect);
    assert!(shelves(|| drop(x_dup)), "the last handle's store was not shelved");

    // A deferred operation holds a snapshot of its input.
    let lazy = context(Mode::NonBlocking, 1);
    let src = built(&lazy, &big_t);
    let out = Matrix::<f64>::new_in(&lazy, N, N).unwrap();
    let copy = UnaryOp::<f64, f64>::new("copy", |v| *v);
    apply(&out, no_mask(), None, &copy, &src, &Descriptor::default()).unwrap();
    assert_eq!(out.pending_len(), 1, "the apply ran eagerly");
    assert!(!shelves(|| src.clear().unwrap()), "replaced a store a snapshot holds");
    churn(&ctx, &a);
    assert_eq!(out.extract_tuples().unwrap(), expect);

    // The transpose memo holds its source store and the transpose, which
    // `transpose` also installs as its output's store.
    let expect_t = transposed(&expect);
    let (src, t) = (built(&ctx, &big_t), Matrix::<f64>::new_in(&ctx, N, N).unwrap());
    transpose(&t, no_mask(), None, &src, &Descriptor::default()).unwrap();
    assert!(!shelves(|| src.clear().unwrap()), "replaced a store the memo holds");
    let (src, t2) = (built(&ctx, &big_t), Matrix::<f64>::new_in(&ctx, N, N).unwrap());
    transpose(&t2, no_mask(), None, &src, &Descriptor::default()).unwrap();
    assert!(!shelves(|| drop(t2)), "dropped a transpose the memo holds");
    churn(&ctx, &a);
    assert_eq!(t.extract_tuples().unwrap(), expect_t);
    let u = Matrix::<f64>::new_in(&ctx, N, N).unwrap();
    transpose(&u, no_mask(), None, &src, &Descriptor::default()).unwrap();
    assert_eq!(u.extract_tuples().unwrap(), expect_t);
}

/// The tuples of the transpose, in `(row, col)` order.
fn transposed((rows, cols, vals): &Tuples) -> Tuples {
    let mut t: Vec<_> = cols.iter().zip(rows).zip(vals).collect();
    t.sort_by_key(|&(ij, _)| ij);
    (
        t.iter().map(|((&i, _), _)| i).collect(),
        t.iter().map(|((_, &j), _)| j).collect(),
        t.iter().map(|(_, &v)| v).collect(),
    )
}

#[test]
fn the_shelf_holds_one_buffer_per_type_and_trims_to_its_baseline() {
    let _g = serial();
    workspace::trim();
    let baseline = gauge();
    let floor = (1 << 20) / 8;
    let mut largest = 0;
    for k in 0..1000 {
        // Sizes grow geometrically from 1 to 4 × the shelf's floor, so the
        // last ~100 matrices are above it.
        let nnz = (4.0 * floor as f64).powf(k as f64 / 999.0) as usize;
        let m = Matrix::<f64>::import(
            1,
            nnz,
            Format::Csr,
            Some(vec![0, nnz]),
            Some((0..nnz).collect()),
            vec![1.0; nnz],
        )
        .unwrap();
        drop(m);
        if nnz >= floor {
            largest = nnz;
        }
        // One `usize` index array and one `f64` value array, the largest
        // dropped so far.
        assert_eq!(gauge() - baseline, (2 * largest * 8) as u64, "matrix {k}");
    }
    assert!(largest > floor);
    workspace::trim();
    assert_eq!(gauge(), baseline, "a trim left shelved bytes on the gauge");
}

#[test]
fn finalize_frees_the_shelf() {
    let _g = serial();
    workspace::trim();
    let baseline = gauge();
    let ctx = context(Mode::Blocking, 1);
    drop(built(&ctx, &random_tuples(N / 2, 6)));
    assert!(gauge() > baseline, "the dropped store was not shelved");
    graphblas_core::finalize();
    assert_eq!(gauge(), baseline, "finalize left shelved bytes on the gauge");
}
