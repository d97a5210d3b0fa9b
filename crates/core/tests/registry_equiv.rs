//! Static-vs-dyn dispatch equivalence for the kernel registry
//! (`core::ops::registry`), pair by pair: every registered semiring ×
//! type row is run through `mxv` (pull over both frontier lookups: a
//! position table and a direct index), `vxm` (push), and `mxm`
//! (unmasked and masked), once with the registry forced on and once
//! forced down the `Arc<dyn Fn>` fallback, and the results must match
//! exactly. The registered element-wise binops, unary ops, and reduce
//! monoids get the same treatment through `ewise_add_v`/`ewise_mult_v`,
//! `apply_v`, and `reduce_to_value_v`.
//!
//! The value-blind rows — SECOND/FIRST selecting the *vector's* value, and
//! PAIR, under every (add, type) pair of the table, over a matrix of any
//! element type — are additionally pinned to the dispatch counters: the
//! registry must claim them, must agree with the dyn path in both
//! directions and on every frontier format, must read the matrix by
//! structure alone, and must *not* claim the mirror-image multiplies that
//! select the matrix's value.
//!
//! Both dispatch modes run the same kernel algorithm over the same
//! partitioning, so even float results must agree to the last bit; the
//! seeded inputs avoid NaN and negative zero, making `==` equality
//! equivalent to byte equality.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Mutex;

use graphblas_core::operations::{
    apply_v, ewise_add_v, ewise_mult_v, force_direction, mxm, mxv, reduce_to_value_v, vxm,
    Direction,
};
use graphblas_core::ops::registry;
use graphblas_core::types::One;
use graphblas_core::{
    global_context, no_mask, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, Format,
    Index, Matrix, Mode, Monoid, Semiring, UnaryOp, ValueType, Vector,
};
use graphblas_exec::rng::prelude::*;

const N: usize = 48;

/// `force_dispatch` is process-global state; every equivalence check
/// holds this lock across its static and dyn runs so the test binary's
/// parallel test threads cannot interleave dispatch modes.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once under forced-static and once under forced-dyn dispatch,
/// restoring the environment default before returning both results.
fn run_both<R>(f: impl Fn() -> R) -> (R, R) {
    let _g = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    registry::force_dispatch(Some(true));
    let s = f();
    registry::force_dispatch(Some(false));
    let d = f();
    registry::force_dispatch(None);
    (s, d)
}

fn mat_from<T: ValueType>(seed: u64, gen: &mut impl FnMut(&mut StdRng) -> T) -> Matrix<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e: BTreeMap<(usize, usize), T> = BTreeMap::new();
    for _ in 0..N * 6 {
        let (i, j) = (rng.gen_range(0..N), rng.gen_range(0..N));
        e.insert((i, j), gen(&mut rng));
    }
    let m = Matrix::<T>::new(N, N).unwrap();
    m.build(
        &e.keys().map(|k| k.0).collect::<Vec<_>>(),
        &e.keys().map(|k| k.1).collect::<Vec<_>>(),
        &e.values().cloned().collect::<Vec<_>>(),
        None,
    )
    .unwrap();
    m
}

fn vec_from<T: ValueType>(
    nnz: usize,
    seed: u64,
    gen: &mut impl FnMut(&mut StdRng) -> T,
) -> Vector<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..N).collect();
    idx.shuffle(&mut rng);
    idx.truncate(nnz);
    idx.sort_unstable();
    let vals: Vec<T> = idx.iter().map(|_| gen(&mut rng)).collect();
    let v = Vector::<T>::new(N).unwrap();
    v.build(&idx, &vals, None).unwrap();
    v
}

fn bool_mask(seed: u64) -> Matrix<bool> {
    mat_from(seed, &mut |_rng: &mut StdRng| true)
}

/// One registered semiring × type row through every matrix-vector and
/// matrix-matrix kernel the registry claims.
fn check_semiring<T>(
    name: &str,
    sr: &Semiring<T, T, T>,
    seed: u64,
    gen: &mut impl FnMut(&mut StdRng) -> T,
) where
    T: ValueType + PartialEq + Debug,
{
    let a = mat_from(seed, gen);
    let b = mat_from(seed ^ 0xB, gen);
    // Dense-ish input drives the pull (spmv) kernel. The second hop pulls
    // the first one's result through the position table, and the full
    // vector beside it by direct index: both pull lookups, chained.
    let xd = vec_from(N * 4 / 5, seed ^ 1, gen);
    let xf = vec_from(N, seed ^ 4, gen);
    // A few entries drive the push (vxm) kernel.
    let xs = vec_from(4, seed ^ 2, gen);
    let mask = bool_mask(seed ^ 3);

    let (s, d) = run_both(|| {
        let y = Vector::<T>::new(N).unwrap();
        mxv(&y, no_mask_v(), None, sr, &a, &xd, &Descriptor::default()).unwrap();
        force_direction(Some(Direction::Pull));
        let hop = |u: &Vector<T>| {
            let z = Vector::<T>::new(N).unwrap();
            mxv(&z, no_mask_v(), None, sr, &a, u, &Descriptor::default()).unwrap();
            z.extract_tuples().unwrap()
        };
        let (z, zf) = (hop(&y), hop(&xf));
        force_direction(None);
        (y.extract_tuples().unwrap(), z, zf)
    });
    assert_eq!(s, d, "mxv pull chain disagrees: {name}");

    let (s, d) = run_both(|| {
        let y = Vector::<T>::new(N).unwrap();
        vxm(&y, no_mask_v(), None, sr, &xs, &a, &Descriptor::default()).unwrap();
        y.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "vxm push disagrees: {name}");

    let (s, d) = run_both(|| {
        let c = Matrix::<T>::new(N, N).unwrap();
        mxm(&c, no_mask(), None, sr, &a, &b, &Descriptor::default()).unwrap();
        c.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "mxm disagrees: {name}");

    let (s, d) = run_both(|| {
        let c = Matrix::<T>::new(N, N).unwrap();
        mxm(&c, Some(&mask), None, sr, &a, &b, &Descriptor::default()).unwrap();
        c.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "masked mxm disagrees: {name}");
}

fn gen_f64(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.25..4.0)
}
fn gen_f32(rng: &mut StdRng) -> f32 {
    rng.gen_range(0.25f32..4.0)
}
fn gen_i64(rng: &mut StdRng) -> i64 {
    rng.gen_range(-9..10)
}
fn gen_u64(rng: &mut StdRng) -> u64 {
    rng.gen_range(0..10)
}
fn gen_bool(rng: &mut StdRng) -> bool {
    rng.gen_bool(0.5)
}

#[test]
fn plus_times_every_registered_type() {
    check_semiring(
        "plus_times f64",
        &Semiring::<f64, f64, f64>::plus_times(),
        0xA0,
        &mut gen_f64,
    );
    check_semiring(
        "plus_times f32",
        &Semiring::<f32, f32, f32>::plus_times(),
        0xA1,
        &mut gen_f32,
    );
    check_semiring(
        "plus_times i64",
        &Semiring::<i64, i64, i64>::plus_times(),
        0xA2,
        &mut gen_i64,
    );
    check_semiring(
        "plus_times u64",
        &Semiring::<u64, u64, u64>::plus_times(),
        0xA3,
        &mut gen_u64,
    );
}

#[test]
fn min_plus_every_registered_type() {
    check_semiring(
        "min_plus f64",
        &Semiring::<f64, f64, f64>::min_plus(),
        0xB0,
        &mut gen_f64,
    );
    check_semiring(
        "min_plus f32",
        &Semiring::<f32, f32, f32>::min_plus(),
        0xB1,
        &mut gen_f32,
    );
    check_semiring(
        "min_plus i64",
        &Semiring::<i64, i64, i64>::min_plus(),
        0xB2,
        &mut gen_i64,
    );
    check_semiring(
        "min_plus u64",
        &Semiring::<u64, u64, u64>::min_plus(),
        0xB3,
        &mut gen_u64,
    );
}

#[test]
fn max_plus_every_registered_type() {
    check_semiring(
        "max_plus f64",
        &Semiring::<f64, f64, f64>::max_plus(),
        0xC0,
        &mut gen_f64,
    );
    check_semiring(
        "max_plus f32",
        &Semiring::<f32, f32, f32>::max_plus(),
        0xC1,
        &mut gen_f32,
    );
    check_semiring(
        "max_plus i64",
        &Semiring::<i64, i64, i64>::max_plus(),
        0xC2,
        &mut gen_i64,
    );
    check_semiring(
        "max_plus u64",
        &Semiring::<u64, u64, u64>::max_plus(),
        0xC3,
        &mut gen_u64,
    );
}

#[test]
fn boolean_semirings() {
    check_semiring(
        "lor_land bool",
        &Semiring::<bool, bool, bool>::lor_land(),
        0xD0,
        &mut gen_bool,
    );
    // ANY is only deterministic because OneB yields the same witness value
    // for every match — which is exactly why the pair is registrable.
    check_semiring(
        "any_pair bool",
        &Semiring::<bool, bool, bool>::any_pair(),
        0xD1,
        &mut gen_bool,
    );
}

/// One registered element-wise binop × type row through union and
/// intersection semantics.
fn check_binop<T>(
    name: &str,
    op: &BinaryOp<T, T, T>,
    seed: u64,
    gen: &mut impl FnMut(&mut StdRng) -> T,
) where
    T: ValueType + PartialEq + Debug,
{
    let u = vec_from(N / 2, seed, gen);
    let v = vec_from(N / 2, seed ^ 1, gen);

    let (s, d) = run_both(|| {
        let w = Vector::<T>::new(N).unwrap();
        ewise_add_v(&w, no_mask_v(), None, op, &u, &v, &Descriptor::default()).unwrap();
        w.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "ewise_add disagrees: {name}");

    let (s, d) = run_both(|| {
        let w = Vector::<T>::new(N).unwrap();
        ewise_mult_v(&w, no_mask_v(), None, op, &u, &v, &Descriptor::default()).unwrap();
        w.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "ewise_mult disagrees: {name}");
}

#[test]
fn ewise_binops_every_registered_pair() {
    check_binop(
        "plus f64",
        &BinaryOp::<f64, f64, f64>::plus(),
        0x10,
        &mut gen_f64,
    );
    check_binop(
        "plus f32",
        &BinaryOp::<f32, f32, f32>::plus(),
        0x11,
        &mut gen_f32,
    );
    check_binop(
        "plus i64",
        &BinaryOp::<i64, i64, i64>::plus(),
        0x12,
        &mut gen_i64,
    );
    check_binop(
        "plus u64",
        &BinaryOp::<u64, u64, u64>::plus(),
        0x13,
        &mut gen_u64,
    );
    check_binop(
        "times f64",
        &BinaryOp::<f64, f64, f64>::times(),
        0x14,
        &mut gen_f64,
    );
    check_binop(
        "times f32",
        &BinaryOp::<f32, f32, f32>::times(),
        0x15,
        &mut gen_f32,
    );
    check_binop(
        "times i64",
        &BinaryOp::<i64, i64, i64>::times(),
        0x16,
        &mut gen_i64,
    );
    check_binop(
        "times u64",
        &BinaryOp::<u64, u64, u64>::times(),
        0x17,
        &mut gen_u64,
    );
    check_binop(
        "min f64",
        &BinaryOp::<f64, f64, f64>::min(),
        0x18,
        &mut gen_f64,
    );
    check_binop(
        "min f32",
        &BinaryOp::<f32, f32, f32>::min(),
        0x19,
        &mut gen_f32,
    );
    check_binop(
        "min i64",
        &BinaryOp::<i64, i64, i64>::min(),
        0x1A,
        &mut gen_i64,
    );
    check_binop(
        "min u64",
        &BinaryOp::<u64, u64, u64>::min(),
        0x1B,
        &mut gen_u64,
    );
    check_binop(
        "max f64",
        &BinaryOp::<f64, f64, f64>::max(),
        0x1C,
        &mut gen_f64,
    );
    check_binop(
        "max f32",
        &BinaryOp::<f32, f32, f32>::max(),
        0x1D,
        &mut gen_f32,
    );
    check_binop(
        "max i64",
        &BinaryOp::<i64, i64, i64>::max(),
        0x1E,
        &mut gen_i64,
    );
    check_binop(
        "max u64",
        &BinaryOp::<u64, u64, u64>::max(),
        0x1F,
        &mut gen_u64,
    );
    check_binop(
        "lor bool",
        &BinaryOp::<bool, bool, bool>::lor(),
        0x20,
        &mut gen_bool,
    );
    check_binop(
        "land bool",
        &BinaryOp::<bool, bool, bool>::land(),
        0x21,
        &mut gen_bool,
    );
}

/// One registered unary op × type row through `apply_v` (distinct output
/// container, so the apply kernel — not the in-place map fast path —
/// runs).
fn check_unop<T>(name: &str, op: &UnaryOp<T, T>, seed: u64, gen: &mut impl FnMut(&mut StdRng) -> T)
where
    T: ValueType + PartialEq + Debug,
{
    let u = vec_from(N * 2 / 3, seed, gen);
    let (s, d) = run_both(|| {
        let w = Vector::<T>::new(N).unwrap();
        apply_v(&w, no_mask_v(), None, op, &u, &Descriptor::default()).unwrap();
        w.extract_tuples().unwrap()
    });
    assert_eq!(s, d, "apply disagrees: {name}");
}

#[test]
fn apply_unops_every_registered_pair() {
    check_unop(
        "identity f64",
        &UnaryOp::<f64, f64>::identity(),
        0x30,
        &mut gen_f64,
    );
    check_unop(
        "identity f32",
        &UnaryOp::<f32, f32>::identity(),
        0x31,
        &mut gen_f32,
    );
    check_unop(
        "identity i64",
        &UnaryOp::<i64, i64>::identity(),
        0x32,
        &mut gen_i64,
    );
    check_unop(
        "identity u64",
        &UnaryOp::<u64, u64>::identity(),
        0x33,
        &mut gen_u64,
    );
    check_unop(
        "identity bool",
        &UnaryOp::<bool, bool>::identity(),
        0x34,
        &mut gen_bool,
    );
    check_unop("ainv f64", &UnaryOp::<f64, f64>::ainv(), 0x35, &mut gen_f64);
    check_unop("ainv f32", &UnaryOp::<f32, f32>::ainv(), 0x36, &mut gen_f32);
    check_unop("ainv i64", &UnaryOp::<i64, i64>::ainv(), 0x37, &mut gen_i64);
    check_unop("abs f64", &UnaryOp::<f64, f64>::abs(), 0x38, &mut gen_f64);
    check_unop("abs f32", &UnaryOp::<f32, f32>::abs(), 0x39, &mut gen_f32);
    check_unop("abs i64", &UnaryOp::<i64, i64>::abs(), 0x3A, &mut gen_i64);
    check_unop(
        "lnot bool",
        &UnaryOp::<bool, bool>::lnot(),
        0x3B,
        &mut gen_bool,
    );
}

/// One registered reduce monoid × type row through `reduce_to_value_v`.
fn check_reduce<T>(name: &str, m: &Monoid<T>, seed: u64, gen: &mut impl FnMut(&mut StdRng) -> T)
where
    T: ValueType + PartialEq + Debug,
{
    let u = vec_from(N * 3 / 4, seed, gen);
    let (s, d) = run_both(|| reduce_to_value_v(m, &u).unwrap());
    assert_eq!(s, d, "reduce disagrees: {name}");
}

#[test]
fn reduce_monoids_every_registered_pair() {
    check_reduce("plus f64", &Monoid::<f64>::plus(), 0x40, &mut gen_f64);
    check_reduce("plus f32", &Monoid::<f32>::plus(), 0x41, &mut gen_f32);
    check_reduce("plus i64", &Monoid::<i64>::plus(), 0x42, &mut gen_i64);
    check_reduce("plus u64", &Monoid::<u64>::plus(), 0x43, &mut gen_u64);
    check_reduce("min f64", &Monoid::<f64>::min(), 0x44, &mut gen_f64);
    check_reduce("min f32", &Monoid::<f32>::min(), 0x45, &mut gen_f32);
    check_reduce("min i64", &Monoid::<i64>::min(), 0x46, &mut gen_i64);
    check_reduce("min u64", &Monoid::<u64>::min(), 0x47, &mut gen_u64);
    check_reduce("max f64", &Monoid::<f64>::max(), 0x48, &mut gen_f64);
    check_reduce("max f32", &Monoid::<f32>::max(), 0x49, &mut gen_f32);
    check_reduce("max i64", &Monoid::<i64>::max(), 0x4A, &mut gen_i64);
    check_reduce("max u64", &Monoid::<u64>::max(), 0x4B, &mut gen_u64);
    check_reduce("lor bool", &Monoid::<bool>::lor(), 0x4C, &mut gen_bool);
    // ANY may legitimately return any element, so the equivalence only
    // holds over a uniform vector — which still proves both paths run.
    check_reduce(
        "any bool",
        &Monoid::<bool>::any(),
        0x4D,
        &mut |_rng: &mut StdRng| true,
    );
}

// ---------------------------------------------------------------------
// Value-blind rows
// ---------------------------------------------------------------------

/// Runs `f` with the registry forced on (`true`) or off, and returns its
/// result with the (static hits, dyn fallbacks) it recorded. The caller
/// holds [`DISPATCH_LOCK`], so nothing else moves the counters.
fn dispatched<R>(registry_on: bool, f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    registry::force_dispatch(Some(registry_on));
    let before = graphblas_obs::snapshot().dispatch;
    let r = f();
    let after = graphblas_obs::snapshot().dispatch;
    registry::force_dispatch(None);
    (
        r,
        (
            after.static_hits - before.static_hits,
            after.dyn_fallbacks - before.dyn_fallbacks,
        ),
    )
}

/// [`mat_from`] with values that alternate between the type's `false`/`0`
/// and `other` without drawing from the generator: one seed gives every
/// element type the same pattern, and a structure-only product must not
/// tell the two values apart.
fn alternating<A: ValueType>(seed: u64, zero: A, other: A) -> Matrix<A> {
    let mut k = 0usize;
    mat_from(seed, &mut |_rng: &mut StdRng| {
        k += 1;
        [&zero, &other][k % 2].clone()
    })
}

type Tuples<T> = (Vec<Index>, Vec<T>);

/// A named product writing into the vector it is given.
type Product<'a, T> = (&'a str, &'a dyn Fn(&Vector<T>));

/// Every value-blind product of one (add, type) row through `am`: `mxv`
/// SECOND, `vxm` FIRST and PAIR in both entry points × forced direction ×
/// frontier × mask. Each must be claimed by the registry, fall back when it
/// is off, and agree between the two. Returns the results in a fixed order
/// so the caller can compare matrix types.
fn blind_products<A, T>(
    name: &str,
    add: &Monoid<T>,
    am: &Matrix<A>,
    frontiers: &[(&str, Vector<T>)],
    mask: &Vector<bool>,
) -> Vec<Tuples<T>>
where
    A: ValueType,
    T: ValueType + PartialEq + Debug + One,
{
    let mxv_second = Semiring::<A, T, T>::new(add.clone(), BinaryOp::second());
    let mxv_pair = Semiring::<A, T, T>::new(add.clone(), BinaryOp::oneb());
    let vxm_first = Semiring::<T, A, T>::new(add.clone(), BinaryOp::first());
    let vxm_pair = Semiring::<T, A, T>::new(add.clone(), BinaryOp::oneb());
    let masked = Descriptor::new().structure_mask().complement_mask();
    let mut results = Vec::new();
    for (shape, u) in frontiers {
        for (m, desc) in [(None, Descriptor::default()), (Some(mask), masked)] {
            for dir in [Direction::Push, Direction::Pull] {
                let products: [Product<'_, T>; 4] = [
                    ("mxv SECOND", &|w| {
                        mxv(w, m, None, &mxv_second, am, u, &desc).unwrap()
                    }),
                    ("mxv PAIR", &|w| {
                        mxv(w, m, None, &mxv_pair, am, u, &desc).unwrap()
                    }),
                    ("vxm FIRST", &|w| {
                        vxm(w, m, None, &vxm_first, u, am, &desc).unwrap()
                    }),
                    ("vxm PAIR", &|w| {
                        vxm(w, m, None, &vxm_pair, u, am, &desc).unwrap()
                    }),
                ];
                for (product, run) in products {
                    let case = format!(
                        "{name} {product} over {} frontier={shape} masked={} {dir:?}",
                        std::any::type_name::<A>(),
                        m.is_some()
                    );
                    force_direction(Some(dir));
                    let run = || {
                        let w = Vector::<T>::new(N).unwrap();
                        run(&w);
                        w.extract_tuples().unwrap()
                    };
                    let (s, s_picks) = dispatched(true, run);
                    let (d, d_picks) = dispatched(false, run);
                    force_direction(None);
                    assert_eq!(s_picks, (1, 0), "not claimed: {case}");
                    assert_eq!(d_picks, (0, 1), "claimed with the registry off: {case}");
                    assert_eq!(s, d, "static and dyn disagree: {case}");
                    results.push(s);
                }
            }
        }
    }
    results
}

/// One (add, type) pair of the semiring table through the value-blind
/// multiplies, over `bool`, `f64` and `i64` matrices of one pattern.
fn check_blind_row<T>(
    name: &str,
    add: &Monoid<T>,
    seed: u64,
    gen: &mut impl FnMut(&mut StdRng) -> T,
) where
    T: ValueType + PartialEq + Debug + One,
{
    let _g = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_obs::set_enabled(true);
    // The three frontier shapes: one entry (push's home ground), half the
    // vertices (the pull kernel's position table), and full (its
    // direct-indexing path).
    let frontiers = [
        ("single", vec_from(1, seed ^ 2, gen)),
        ("half", vec_from(N / 2, seed ^ 1, gen)),
        ("full", vec_from(N, seed ^ 3, gen)),
    ];
    let mask = vec_from(N / 2, seed ^ 4, &mut |rng: &mut StdRng| rng.gen_bool(0.5));

    let over_bool = blind_products(
        name,
        add,
        &alternating(seed, false, true),
        &frontiers,
        &mask,
    );
    let over_f64 = blind_products(name, add, &alternating(seed, 0.0, 2.5), &frontiers, &mask);
    let over_i64 = blind_products(name, add, &alternating(seed, 0i64, -7), &frontiers, &mask);
    graphblas_obs::set_enabled(false);
    // Structure semantics: what the matrix stores — `false`, `0`, anything
    // — never reaches the result.
    assert_eq!(over_bool, over_f64, "{name}: bool vs f64 matrix");
    assert_eq!(over_bool, over_i64, "{name}: bool vs i64 matrix");
    assert!(over_bool.iter().any(|t| !t.0.is_empty()), "{name}: vacuous");
}

#[test]
fn value_blind_plus_rows() {
    check_blind_row("plus f64", &Monoid::<f64>::plus(), 0x50, &mut gen_f64);
    check_blind_row("plus f32", &Monoid::<f32>::plus(), 0x51, &mut gen_f32);
    check_blind_row("plus i64", &Monoid::<i64>::plus(), 0x52, &mut gen_i64);
    check_blind_row("plus u64", &Monoid::<u64>::plus(), 0x53, &mut gen_u64);
}

#[test]
fn value_blind_min_rows() {
    check_blind_row("min f64", &Monoid::<f64>::min(), 0x54, &mut gen_f64);
    check_blind_row("min f32", &Monoid::<f32>::min(), 0x55, &mut gen_f32);
    check_blind_row("min i64", &Monoid::<i64>::min(), 0x56, &mut gen_i64);
    check_blind_row("min u64", &Monoid::<u64>::min(), 0x57, &mut gen_u64);
}

#[test]
fn value_blind_max_rows() {
    check_blind_row("max f64", &Monoid::<f64>::max(), 0x58, &mut gen_f64);
    check_blind_row("max f32", &Monoid::<f32>::max(), 0x59, &mut gen_f32);
    check_blind_row("max i64", &Monoid::<i64>::max(), 0x5A, &mut gen_i64);
    check_blind_row("max u64", &Monoid::<u64>::max(), 0x5B, &mut gen_u64);
}

#[test]
fn value_blind_boolean_rows() {
    check_blind_row("lor bool", &Monoid::<bool>::lor(), 0x5C, &mut gen_bool);
    // ANY keeps the first witness, so only a uniform frontier gives one
    // answer in both directions — which still proves the row is claimed.
    check_blind_row(
        "any bool",
        &Monoid::<bool>::any(),
        0x5D,
        &mut |_rng: &mut StdRng| true,
    );
}

/// The mirror images select the *matrix's* value and are nobody's row:
/// `mxv` FIRST and `vxm` SECOND must fall to dyn even with the registry on
/// and every type matching a table row, and must return the matrix values.
#[test]
fn multiplies_that_select_the_matrix_value_are_never_claimed() {
    let _g = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_obs::set_enabled(true);
    // Matrix values > 100, vector values < 10: a blind row that claimed
    // one of these would return a vector value.
    let mut next = 100i64;
    let am = mat_from(0x5E, &mut |_rng: &mut StdRng| {
        next += 1;
        next
    });
    let u = vec_from(N, 0x5F, &mut |rng: &mut StdRng| rng.gen_range(0..10i64));
    // The frontier is full, so every stored entry takes part.
    let (rows, cols, vals) = am.extract_tuples().unwrap();
    let min_by = |out: &[Index]| {
        let mut want: BTreeMap<Index, i64> = BTreeMap::new();
        for (&o, &v) in out.iter().zip(&vals) {
            let w = want.entry(o).or_insert(i64::MAX);
            *w = (*w).min(v);
        }
        want.into_iter().unzip::<Index, i64, Vec<_>, Vec<_>>()
    };
    for dir in [Direction::Push, Direction::Pull] {
        force_direction(Some(dir));
        let (got, picks) = dispatched(true, || {
            let w = Vector::<i64>::new(N).unwrap();
            let sr = Semiring::<i64, i64, i64>::min_first();
            mxv(&w, no_mask_v(), None, &sr, &am, &u, &Descriptor::default()).unwrap();
            w.extract_tuples().unwrap()
        });
        assert_eq!(picks, (0, 1), "mxv MIN.FIRST was claimed ({dir:?})");
        assert_eq!(got, min_by(&rows), "mxv MIN.FIRST ({dir:?})");

        let (got, picks) = dispatched(true, || {
            let w = Vector::<i64>::new(N).unwrap();
            let sr = Semiring::<i64, i64, i64>::min_second();
            vxm(&w, no_mask_v(), None, &sr, &u, &am, &Descriptor::default()).unwrap();
            w.extract_tuples().unwrap()
        });
        assert_eq!(picks, (0, 1), "vxm MIN.SECOND was claimed ({dir:?})");
        assert_eq!(got, min_by(&cols), "vxm MIN.SECOND ({dir:?})");
        force_direction(None);
    }
    graphblas_obs::set_enabled(false);
}

// ---------------------------------------------------------------------
// PLUS.PAIR under a mask: the triangle-counting product
// ---------------------------------------------------------------------

/// A seeded `shape` matrix in `ctx` whose `k`-th stored entry is
/// `value(k)`; `empty_even_rows` leaves every even row without entries.
fn rect_in<T: ValueType>(
    ctx: &Context,
    seed: u64,
    shape: (usize, usize),
    empty_even_rows: bool,
    value: impl Fn(usize) -> T,
) -> Matrix<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = std::collections::BTreeSet::new();
    for _ in 0..shape.0 * shape.1 / 4 {
        let (i, j) = (rng.gen_range(0..shape.0), rng.gen_range(0..shape.1));
        if !(empty_even_rows && i % 2 == 0) {
            keys.insert((i, j));
        }
    }
    let m = Matrix::<T>::new_in(ctx, shape.0, shape.1).unwrap();
    let vals: Vec<T> = (0..keys.len()).map(value).collect();
    m.build(
        &keys.iter().map(|k| k.0).collect::<Vec<_>>(),
        &keys.iter().map(|k| k.1).collect::<Vec<_>>(),
        &vals,
        None,
    )
    .unwrap();
    m
}

type CsrArrays<T> = (Vec<Index>, Vec<Index>, Vec<T>);

/// `C⟨M⟩ = A PLUS.PAIR B` over a rectangular `M`/`A`/`B` in `ctx`, under
/// each mask shape: a structure mask, a value mask with stored `false`
/// entries, a mask with empty rows (plain: the counting kernel), and the
/// value mask complemented (the semiring kernel). Returns each case's
/// CSR arrays with its (static hits, dyn fallbacks).
fn plus_pair_products<T>(
    ctx: &Context,
    sr: &Semiring<bool, f64, T>,
    registry_on: bool,
) -> Vec<(CsrArrays<T>, (u64, u64))>
where
    T: ValueType + One,
{
    let (m, k, n) = (30, 20, 40);
    let a = rect_in(ctx, 0x61, (m, k), false, |_| true);
    let b = rect_in(ctx, 0x62, (k, n), false, |x| x as f64);
    let mask = rect_in(ctx, 0x63, (m, n), false, |x| x % 3 != 0);
    let holed = rect_in(ctx, 0x64, (m, n), true, |_| true);
    let cases = [
        (&mask, Descriptor::new().structure_mask()),
        (&mask, Descriptor::default()),
        (&holed, Descriptor::default()),
        (&mask, Descriptor::new().complement_mask()),
    ];
    cases
        .iter()
        .map(|(mm, desc)| {
            dispatched(registry_on, || {
                let c = Matrix::<T>::new_in(ctx, m, n).unwrap();
                mxm(&c, Some(*mm), None, sr, &a, &b, desc).unwrap();
                c.export(Format::Csr).unwrap()
            })
        })
        .collect()
}

/// One PLUS type: the registry claims every case and matches the dyn
/// path byte for byte, on one, two and four threads alike.
fn check_plus_pair<T>(name: &str, sr: &Semiring<bool, f64, T>)
where
    T: ValueType + One + PartialEq + Debug,
{
    let _g = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_obs::set_enabled(true);
    let mut runs = Vec::new();
    for nthreads in [1, 2, 4] {
        let opts = ContextOptions {
            nthreads: Some(nthreads),
            chunk_size: Some(1),
            ..ContextOptions::default()
        };
        let ctx = Context::new(&global_context(), Mode::Blocking, opts);
        let (s, d) = (
            plus_pair_products(&ctx, sr, true),
            plus_pair_products(&ctx, sr, false),
        );
        for (case, ((s, s_picks), (d, d_picks))) in s.iter().zip(&d).enumerate() {
            assert_eq!(*s_picks, (1, 0), "{name} case {case}: not claimed");
            assert_eq!(*d_picks, (0, 1), "{name} case {case}: claimed when off");
            assert_eq!(s, d, "{name} case {case} on {nthreads} threads");
            assert!(!s.2.is_empty(), "{name} case {case}: vacuous");
        }
        runs.push(s);
    }
    graphblas_obs::set_enabled(false);
    assert_eq!(runs[0], runs[1], "{name}: one vs two threads");
    assert_eq!(runs[0], runs[2], "{name}: one vs four threads");
}

#[test]
fn plus_pair_masked_mxm_every_plus_type() {
    check_plus_pair("plus_pair f64", &Semiring::<bool, f64, f64>::plus_pair());
    check_plus_pair("plus_pair f32", &Semiring::<bool, f64, f32>::plus_pair());
    check_plus_pair("plus_pair i64", &Semiring::<bool, f64, i64>::plus_pair());
    check_plus_pair("plus_pair u64", &Semiring::<bool, f64, u64>::plus_pair());
}
