//! Differential test for the mask-first kernels: `mxv`, `vxm`, `mxm` and
//! `assign_scalar_v` — and, over a storage axis (operands and output each
//! stored sparse or full), every vector operation with a full-format
//! path — against a naive `BTreeMap` model of the four-step write rule
//! `w⟨m, r⟩ = w ⊙ T`.
//!
//! The engine hands the output mask to the kernels (the pull kernel skips
//! forbidden rows, the push kernel forbidden columns, the scalar assign
//! builds `T` from the mask alone) and still runs the full write-back
//! afterwards. Every mask kind × complement × replace × accumulator ×
//! forced direction × frontier density × dispatch path is pinned here to
//! one reference, so a prefilter that drops an entry the write rule keeps
//! — or a fast path that diverges from the general one — fails loudly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use graphblas::operations::{
    all_indices, apply, apply_binop1st_v, apply_binop2nd_v, apply_indexop, apply_indexop_v,
    apply_v, assign_col, assign_scalar, assign_scalar_v, assign_v, ewise_add, ewise_add_v,
    ewise_mult, ewise_mult_v, extract, extract_v, force_direction, mxm, mxv, reduce_to_value_v,
    reduce_to_vector, select, select_v, vxm, Direction, ALL,
};
use graphblas::ops::registry;
use graphblas::{
    global_context, no_mask, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, GrbResult,
    Index, IndexUnaryOp, Matrix, Mode, Monoid, Semiring, UnaryOp, ValueType, Vector, VectorFormat,
};
use graphblas_exec::rng::prelude::*;

type Entries<T> = BTreeMap<Index, T>;

/// How the mask operand is read.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MaskKind {
    None,
    /// By value: stored `false` entries forbid their position.
    Value,
    /// By structure: every stored entry allows its position.
    Structure,
}

/// One point of the descriptor grid.
#[derive(Debug, Clone, Copy)]
struct Write {
    mask: MaskKind,
    complement: bool,
    replace: bool,
    accum: bool,
}

fn write_grid() -> Vec<Write> {
    let mut grid = Vec::new();
    for mask in [MaskKind::None, MaskKind::Value, MaskKind::Structure] {
        for complement in [false, true] {
            // A complement flag without a mask has nothing to complement.
            if mask == MaskKind::None && complement {
                continue;
            }
            for replace in [false, true] {
                for accum in [false, true] {
                    grid.push(Write {
                        mask,
                        complement,
                        replace,
                        accum,
                    });
                }
            }
        }
    }
    grid
}

impl Write {
    fn descriptor(&self) -> Descriptor {
        let mut d = Descriptor::new();
        if self.mask == MaskKind::Structure {
            d = d.structure_mask();
        }
        if self.complement {
            d = d.complement_mask();
        }
        if self.replace {
            d = d.replace();
        }
        d
    }

    fn allows(&self, mask: &Entries<bool>, i: Index) -> bool {
        let truthy = match self.mask {
            MaskKind::None => return true,
            MaskKind::Value => mask.get(&i).copied().unwrap_or(false),
            MaskKind::Structure => mask.contains_key(&i),
        };
        truthy != self.complement
    }

    /// The four-step write rule, position by position: `z = old ⊙ t`
    /// lands where the mask allows; elsewhere `old` survives unless
    /// `replace` clears it.
    fn apply<T: Clone>(
        &self,
        n: usize,
        old: &Entries<T>,
        t: &Entries<T>,
        mask: &Entries<bool>,
        accum: impl Fn(&T, &T) -> T,
    ) -> Entries<T> {
        let mut out = Entries::new();
        for i in 0..n {
            let z = match (old.get(&i), t.get(&i)) {
                (Some(o), Some(t)) if self.accum => Some(accum(o, t)),
                (Some(o), None) if self.accum => Some(o.clone()),
                (_, t) => t.cloned(),
            };
            let kept = if self.allows(mask, i) {
                z
            } else if self.replace {
                None
            } else {
                old.get(&i).cloned()
            };
            if let Some(v) = kept {
                out.insert(i, v);
            }
        }
        out
    }
}

fn vector<T: ValueType>(n: usize, e: &Entries<T>) -> Vector<T> {
    vector_in(&global_context(), n, e)
}

fn vector_in<T: ValueType>(ctx: &Context, n: usize, e: &Entries<T>) -> Vector<T> {
    let v = Vector::<T>::new_in(ctx, n).unwrap();
    let idx: Vec<Index> = e.keys().copied().collect();
    let vals: Vec<T> = e.values().cloned().collect();
    v.build(&idx, &vals, None).unwrap();
    v
}

fn entries<T: ValueType>(v: &Vector<T>) -> Entries<T> {
    let (i, x) = v.extract_tuples().unwrap();
    i.into_iter().zip(x).collect()
}

fn random_entries<T>(
    rng: &mut StdRng,
    n: usize,
    density: f64,
    gen: fn(&mut StdRng) -> T,
) -> Entries<T> {
    let mut e = Entries::new();
    for i in 0..n {
        if rng.gen_range(0.0..1.0) < density {
            e.insert(i, gen(rng));
        }
    }
    e
}

/// A semiring over one value type with its reference functions.
struct Algebra<T> {
    name: &'static str,
    semiring: Semiring<T, T, T>,
    mul: fn(&T, &T) -> T,
    add: fn(T, T) -> T,
    accum: BinaryOp<T, T, T>,
    accum_fn: fn(&T, &T) -> T,
    gen: fn(&mut StdRng) -> T,
}

const ROWS: usize = 20;
const COLS: usize = 28;

/// The three frontier shapes: one entry (push's home ground), half the
/// positions (an index list behind the pull kernel's position table), and
/// full (the pull kernel's direct-indexing path).
fn frontiers<T: ValueType + PartialEq>(
    rng: &mut StdRng,
    n: usize,
    alg: &Algebra<T>,
) -> Vec<(&'static str, Entries<T>, Vector<T>)> {
    let single: Entries<T> = [(rng.gen_range(0..n), (alg.gen)(rng))]
        .into_iter()
        .collect();
    let half = random_entries(rng, n, 0.5, alg.gen);
    let full = random_entries(rng, n, 1.0, alg.gen);
    vec![
        ("single", single.clone(), vector(n, &single)),
        ("half", half.clone(), vector(n, &half)),
        ("full", full.clone(), vector(n, &full)),
    ]
}

/// `force_direction` and `force_dispatch` are process-global: the product
/// tests take turns.
static DIRECTION: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `registry_on` forces the kernel registry on or off for the whole grid;
/// `None` leaves the default (on).
fn check_products<T: ValueType + PartialEq + Debug>(
    seed: u64,
    registry_on: Option<bool>,
    alg: Algebra<T>,
) {
    let _turn = DIRECTION.lock().unwrap_or_else(|e| e.into_inner());
    registry::force_dispatch(registry_on);
    let mut rng = StdRng::seed_from_u64(seed);
    let a: BTreeMap<(Index, Index), T> = (0..ROWS * COLS / 4)
        .map(|_| {
            (
                (rng.gen_range(0..ROWS), rng.gen_range(0..COLS)),
                (alg.gen)(&mut rng),
            )
        })
        .collect();
    let am = Matrix::<T>::new(ROWS, COLS).unwrap();
    am.build(
        &a.keys().map(|k| k.0).collect::<Vec<_>>(),
        &a.keys().map(|k| k.1).collect::<Vec<_>>(),
        &a.values().cloned().collect::<Vec<_>>(),
        None,
    )
    .unwrap();
    // (is_mxv, input length, output length)
    for (is_mxv, n_in, n_out) in [(true, COLS, ROWS), (false, ROWS, COLS)] {
        for (shape, u, uv) in frontiers(&mut rng, n_in, &alg) {
            let mut t = Entries::<T>::new();
            for (&(i, j), av) in &a {
                let (out, prod) = if is_mxv {
                    (i, u.get(&j).map(|xv| (alg.mul)(av, xv)))
                } else {
                    (j, u.get(&i).map(|xv| (alg.mul)(xv, av)))
                };
                if let Some(p) = prod {
                    let cur = t.remove(&out);
                    t.insert(out, cur.map_or(p.clone(), |c| (alg.add)(c, p)));
                }
            }
            for write in write_grid() {
                let old = random_entries(&mut rng, n_out, 0.4, alg.gen);
                let mask = random_entries(&mut rng, n_out, 0.5, |r| r.gen_range(0..3) > 0);
                let expect = write.apply(n_out, &old, &t, &mask, alg.accum_fn);
                let mv = vector(n_out, &mask);
                let m = (write.mask != MaskKind::None).then_some(&mv);
                let acc = write.accum.then_some(&alg.accum);
                for dir in [Direction::Push, Direction::Pull] {
                    force_direction(Some(dir));
                    let w = vector(n_out, &old);
                    let desc = write.descriptor();
                    if is_mxv {
                        mxv(&w, m, acc, &alg.semiring, &am, &uv, &desc).unwrap();
                    } else {
                        vxm(&w, m, acc, &alg.semiring, &uv, &am, &desc).unwrap();
                    }
                    force_direction(None);
                    assert_eq!(
                        entries(&w),
                        expect,
                        "{} {} frontier={shape} {dir:?} {write:?} (seed {seed})",
                        alg.name,
                        if is_mxv { "mxv" } else { "vxm" },
                    );
                }
            }
        }
    }
    registry::force_dispatch(None);
}

#[test]
fn registered_plus_times_products_match_the_write_rule() {
    for seed in [1, 2] {
        check_products::<i64>(
            seed,
            None,
            Algebra {
                name: "PLUS.TIMES",
                semiring: Semiring::plus_times(),
                mul: |a, b| a * b,
                add: |p, q| p + q,
                accum: BinaryOp::plus(),
                accum_fn: |o, t| o + t,
                gen: |r| r.gen_range(-9..10i64),
            },
        );
    }
}

#[test]
fn terminal_lor_land_products_match_the_write_rule() {
    for seed in [3, 4] {
        check_products::<bool>(
            seed,
            None,
            Algebra {
                name: "LOR.LAND",
                semiring: Semiring::lor_land(),
                mul: |a, b| *a && *b,
                add: |p, q| p || q,
                accum: BinaryOp::lor(),
                accum_fn: |o, t| *o || *t,
                gen: |r| r.gen_range(0..3) > 0,
            },
        );
    }
}

#[test]
fn user_built_min_first_products_match_the_write_rule() {
    let min_first = |name, semiring| Algebra::<i64> {
        name,
        semiring,
        mul: |a, _| *a,
        add: |p, q| p.min(q),
        accum: BinaryOp::plus(),
        accum_fn: |o, t| o + t,
        gen: |r| r.gen_range(-9..10i64),
    };
    // Built from the predefined MIN and FIRST, the semiring is one the
    // registry half claims: `vxm` hands FIRST the vector's value (a
    // value-blind row), `mxv` the matrix's (no row, dyn). Both halves must
    // obey the write rule with the registry on and with it off.
    for (seed, registry_on) in [(5, true), (6, true), (5, false), (6, false)] {
        let tagged = Semiring::new(Monoid::min(), BinaryOp::first());
        check_products(seed, Some(registry_on), min_first("MIN.FIRST", tagged));
    }
    // The same algebra from closures carries no tag: every product runs
    // the dyn-operator kernels whatever the dispatch mode.
    let untagged = Semiring::new(
        Monoid::new(
            BinaryOp::new("user_min", |p: &i64, q: &i64| *p.min(q)),
            i64::MAX,
        ),
        BinaryOp::new("user_first", |a: &i64, _: &i64| *a),
    );
    check_products(5, None, min_first("user MIN.FIRST", untagged));
}

/// Matrix entries keyed by flattened position `i * ncols + j`, so the
/// vector model of the write rule applies to them as it stands.
fn matrix_in<T: ValueType>(ctx: &Context, (m, n): (usize, usize), e: &Entries<T>) -> Matrix<T> {
    let a = Matrix::<T>::new_in(ctx, m, n).unwrap();
    let rows: Vec<Index> = e.keys().map(|p| p / n).collect();
    let cols: Vec<Index> = e.keys().map(|p| p % n).collect();
    let vals: Vec<T> = e.values().cloned().collect();
    a.build(&rows, &cols, &vals, None).unwrap();
    a
}

fn matrix_entries<T: ValueType>(a: &Matrix<T>) -> Entries<T> {
    let n = a.ncols();
    let (r, c, v) = a.extract_tuples().unwrap();
    r.into_iter()
        .zip(c)
        .zip(v)
        .map(|((i, j), x)| (i * n + j, x))
        .collect()
}

/// `mxm` over the whole descriptor grid — mask kind (a value mask stores
/// `false`s) × complement × replace × accumulator × `transpose_a` ×
/// `transpose_b` × empty or pre-filled output — in one execution mode. The
/// kernel sees the mask only when there is no accumulator, and emits in
/// mask order only under a plain one; every combination must still land
/// what the write rule says. Runs a registered semiring (static kernels)
/// and the same algebra built from closures (the dyn fallback).
fn check_mxm(mode: Mode) {
    const M: usize = 9;
    const K: usize = 7;
    const N: usize = 11;
    let ctx = Context::new(&global_context(), mode, ContextOptions::default());
    let mut rng = StdRng::seed_from_u64(29);
    let small = |r: &mut StdRng| r.gen_range(-4..5i64);
    let user_plus_times = Semiring::new(
        Monoid::new(BinaryOp::new("user_plus", |p: &i64, q: &i64| p + q), 0),
        BinaryOp::new("user_times", |a: &i64, b: &i64| a * b),
    );
    for (name, semiring) in [
        ("PLUS.TIMES", Semiring::plus_times()),
        ("user PLUS.TIMES", user_plus_times),
    ] {
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            // Operands as they are stored; `at`/`bt` read them as used.
            let a_shape = if ta { (K, M) } else { (M, K) };
            let b_shape = if tb { (N, K) } else { (K, N) };
            let a = random_entries(&mut rng, M * K, 0.3, small);
            let b = random_entries(&mut rng, K * N, 0.3, small);
            let at = |i: usize, k: usize| a.get(&if ta { k * M + i } else { i * K + k });
            let bt = |k: usize, j: usize| b.get(&if tb { j * K + k } else { k * N + j });
            let mut t = Entries::<i64>::new();
            for i in 0..M {
                for j in 0..N {
                    let terms = (0..K).filter_map(|k| Some(at(i, k)? * bt(k, j)?));
                    if let Some(sum) = terms.reduce(|p, q| p + q) {
                        t.insert(i * N + j, sum);
                    }
                }
            }
            let am = matrix_in(&ctx, a_shape, &a);
            let bm = matrix_in(&ctx, b_shape, &b);
            for write in write_grid() {
                for prefilled in [false, true] {
                    let old = if prefilled {
                        random_entries(&mut rng, M * N, 0.4, small)
                    } else {
                        Entries::new()
                    };
                    let mask = random_entries(&mut rng, M * N, 0.5, |r| r.gen_range(0..3) > 0);
                    let expect = write.apply(M * N, &old, &t, &mask, |o, t| o + t);
                    let c = matrix_in(&ctx, (M, N), &old);
                    let mm = matrix_in(&ctx, (M, N), &mask);
                    let mut desc = write.descriptor();
                    if ta {
                        desc = desc.transpose_a();
                    }
                    if tb {
                        desc = desc.transpose_b();
                    }
                    mxm(
                        &c,
                        (write.mask != MaskKind::None).then_some(&mm),
                        write.accum.then(BinaryOp::plus).as_ref(),
                        &semiring,
                        &am,
                        &bm,
                        &desc,
                    )
                    .unwrap();
                    assert_eq!(
                        matrix_entries(&c),
                        expect,
                        "{name} {mode:?} ta={ta} tb={tb} prefilled={prefilled} {write:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn mxm_matches_the_write_rule_over_the_descriptor_grid() {
    check_mxm(Mode::Blocking);
    check_mxm(Mode::NonBlocking);
}

#[test]
fn masked_scalar_assign_matches_the_write_rule_for_every_selector_shape() {
    let n = 26;
    let mut rng = StdRng::seed_from_u64(7);
    let identity: Vec<Index> = (0..n).collect();
    let mut permuted = identity.clone();
    for k in (1..n).rev() {
        permuted.swap(k, rng.gen_range(0..=k));
    }
    let subset: Vec<Index> = (0..n).filter(|i| i % 3 != 0).collect();
    let duplicated: Vec<Index> = (0..n).map(|i| (i * 5) % (n / 2)).collect();
    for (shape, selectors) in [
        ("identity", &identity),
        ("permuted", &permuted),
        ("subset", &subset),
        ("duplicated", &duplicated),
    ] {
        // GrB_assign: the scalar fills the selected region, the mask then
        // governs the whole vector — so outside the region `T` is `old`.
        let region: BTreeSet<Index> = selectors.iter().copied().collect();
        for write in write_grid() {
            for _ in 0..3 {
                let old = random_entries(&mut rng, n, 0.4, |r| r.gen_range(-9..10i64));
                let mask = random_entries(&mut rng, n, 0.4, |r| r.gen_range(0..3) > 0);
                let scalar = rng.gen_range(10..20i64);
                let z: Entries<i64> = (0..n)
                    .filter_map(|i| match (region.contains(&i), old.get(&i)) {
                        (true, Some(o)) if write.accum => Some((i, o + scalar)),
                        (true, _) => Some((i, scalar)),
                        (false, o) => o.map(|o| (i, *o)),
                    })
                    .collect();
                let region_done = Write {
                    accum: false,
                    ..write
                };
                let expect = region_done.apply(n, &old, &z, &mask, |_, t| *t);
                let w = vector(n, &old);
                let mv = vector(n, &mask);
                assign_scalar_v(
                    &w,
                    (write.mask != MaskKind::None).then_some(&mv),
                    write.accum.then_some(&BinaryOp::plus()),
                    scalar,
                    selectors,
                    &write.descriptor(),
                )
                .unwrap();
                assert_eq!(entries(&w), expect, "selectors={shape} {write:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Element-wise families: every `w⟨m, r⟩ = w ⊙ T` operation whose `T` is a
// function of the operands alone goes through the same write rule, in both
// execution modes, and its matrix twin on n×1 operands agrees with it.
// ---------------------------------------------------------------------

/// Output length, and the length of the short operand `assign_v` spreads
/// over `sel`.
const N: usize = 24;
const SHORT: usize = 9;
/// Columns of the matrix `reduce_to_vector` folds.
const WIDE: usize = 5;

/// The n×1 matrix holding `e` in column 0 — a vector's matrix twin.
fn column_in<T: ValueType>(ctx: &Context, n: usize, e: &Entries<T>) -> Matrix<T> {
    let m = Matrix::<T>::new_in(ctx, n, 1).unwrap();
    let rows: Vec<Index> = e.keys().copied().collect();
    let vals: Vec<T> = e.values().cloned().collect();
    m.build(&rows, &vec![0; rows.len()], &vals, None).unwrap();
    m
}

fn column_entries<T: ValueType>(m: &Matrix<T>) -> Entries<T> {
    let (r, c, v) = m.extract_tuples().unwrap();
    assert!(c.iter().all(|&j| j == 0));
    r.into_iter().zip(v).collect()
}

/// The operands of one call, as model entries.
struct Operands {
    u: Entries<i64>,
    v: Entries<i64>,
    short: Entries<i64>,
    wide: BTreeMap<(Index, Index), i64>,
    /// `SHORT` distinct positions of the output (`assign_v`'s region).
    sel: Vec<Index>,
    /// `N` positions of `u`, with repeats (`extract_v`'s selector).
    gather: Vec<Index>,
}

/// The same call as engine objects: outputs, mask and operands in both
/// the vector and the n×1 matrix form.
struct Call {
    w: Vector<i64>,
    c: Matrix<i64>,
    mask_v: Option<Vector<bool>>,
    mask_m: Option<Matrix<bool>>,
    accum: Option<BinaryOp<i64, i64, i64>>,
    desc: Descriptor,
    u: (Vector<i64>, Matrix<i64>),
    v: (Vector<i64>, Matrix<i64>),
    short: Vector<i64>,
    wide: Matrix<i64>,
    sel: Vec<Index>,
    gather: Vec<Index>,
}

struct Family {
    name: &'static str,
    /// `T`, from the operands — and, for `assign`, the old output and
    /// whether an accumulator folds the assigned region.
    t: fn(&Operands, &Entries<i64>, bool) -> Entries<i64>,
    /// `GrB_assign` consumes the accumulator inside the region while
    /// building `T`; the write rule then runs without one.
    accum_in_t: bool,
    vector: fn(&Call) -> GrbResult,
    twin: Option<fn(&Call) -> GrbResult>,
}

const SHIFT: i64 = 100;
const THRESHOLD: i64 = 0;

fn triple() -> UnaryOp<i64, i64> {
    UnaryOp::new("triple", |x: &i64| x * 3)
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "apply_v",
            t: |o, _, _| o.u.iter().map(|(&i, x)| (i, x * 3)).collect(),
            accum_in_t: false,
            vector: |k| {
                apply_v(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &triple(),
                    &k.u.0,
                    &k.desc,
                )
            },
            twin: Some(|k| {
                apply(
                    &k.c,
                    k.mask_m.as_ref(),
                    k.accum.as_ref(),
                    &triple(),
                    &k.u.1,
                    &k.desc,
                )
            }),
        },
        Family {
            name: "apply_indexop_v",
            t: |o, _, _| o.u.keys().map(|&i| (i, i as i64 + SHIFT)).collect(),
            accum_in_t: false,
            vector: |k| {
                let f = IndexUnaryOp::rowindex();
                apply_indexop_v(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &f,
                    &k.u.0,
                    SHIFT,
                    &k.desc,
                )
            },
            twin: Some(|k| {
                let f = IndexUnaryOp::rowindex();
                apply_indexop(
                    &k.c,
                    k.mask_m.as_ref(),
                    k.accum.as_ref(),
                    &f,
                    &k.u.1,
                    SHIFT,
                    &k.desc,
                )
            }),
        },
        Family {
            name: "select_v",
            t: |o, _, _| {
                o.u.iter()
                    .filter(|(_, &x)| x > THRESHOLD)
                    .map(|(&i, &x)| (i, x))
                    .collect()
            },
            accum_in_t: false,
            vector: |k| {
                let f = IndexUnaryOp::valuegt();
                select_v(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &f,
                    &k.u.0,
                    THRESHOLD,
                    &k.desc,
                )
            },
            twin: Some(|k| {
                let f = IndexUnaryOp::valuegt();
                select(
                    &k.c,
                    k.mask_m.as_ref(),
                    k.accum.as_ref(),
                    &f,
                    &k.u.1,
                    THRESHOLD,
                    &k.desc,
                )
            }),
        },
        Family {
            name: "ewise_add_v",
            t: |o, _, _| {
                // Singletons pass through unchanged: only overlaps see MINUS.
                let mut t = o.u.clone();
                for (&i, y) in &o.v {
                    t.entry(i).and_modify(|x| *x -= y).or_insert(*y);
                }
                t
            },
            accum_in_t: false,
            vector: |k| {
                let op = BinaryOp::minus();
                ewise_add_v(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &op,
                    &k.u.0,
                    &k.v.0,
                    &k.desc,
                )
            },
            twin: Some(|k| {
                let op = BinaryOp::minus();
                ewise_add(
                    &k.c,
                    k.mask_m.as_ref(),
                    k.accum.as_ref(),
                    &op,
                    &k.u.1,
                    &k.v.1,
                    &k.desc,
                )
            }),
        },
        Family {
            name: "ewise_mult_v",
            t: |o, _, _| {
                let both =
                    o.u.iter()
                        .filter_map(|(&i, x)| o.v.get(&i).map(|y| (i, x - y)));
                both.collect()
            },
            accum_in_t: false,
            vector: |k| {
                let op = BinaryOp::minus();
                ewise_mult_v(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &op,
                    &k.u.0,
                    &k.v.0,
                    &k.desc,
                )
            },
            twin: Some(|k| {
                let op = BinaryOp::minus();
                ewise_mult(
                    &k.c,
                    k.mask_m.as_ref(),
                    k.accum.as_ref(),
                    &op,
                    &k.u.1,
                    &k.v.1,
                    &k.desc,
                )
            }),
        },
        Family {
            name: "extract_v",
            t: |o, _, _| {
                let picked = o.gather.iter().enumerate();
                picked
                    .filter_map(|(k, i)| o.u.get(i).map(|x| (k, *x)))
                    .collect()
            },
            accum_in_t: false,
            vector: |k| {
                extract_v(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &k.u.0,
                    &k.gather,
                    &k.desc,
                )
            },
            twin: Some(|k| {
                extract(
                    &k.c,
                    k.mask_m.as_ref(),
                    k.accum.as_ref(),
                    &k.u.1,
                    &k.gather,
                    &[0],
                    &k.desc,
                )
            }),
        },
        Family {
            name: "assign_v",
            // Outside the region `T` is the old output; inside it is the
            // short operand (folded into the old value under an accumulator,
            // deleted where the operand stores nothing).
            t: |o, old, accum| {
                let mut t = old.clone();
                for (k, &i) in o.sel.iter().enumerate() {
                    match (o.short.get(&k), old.get(&i)) {
                        (Some(x), Some(w)) if accum => t.insert(i, w + x),
                        (Some(x), _) => t.insert(i, *x),
                        (None, Some(_)) if accum => None,
                        (None, _) => t.remove(&i),
                    };
                }
                t
            },
            accum_in_t: true,
            vector: |k| {
                assign_v(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &k.short,
                    &k.sel,
                    &k.desc,
                )
            },
            twin: Some(|k| {
                assign_col(
                    &k.c,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &k.short,
                    &k.sel,
                    0,
                    &k.desc,
                )
            }),
        },
        Family {
            name: "reduce_to_vector",
            t: |o, _, _| {
                let mut t = Entries::new();
                for (&(i, _), x) in &o.wide {
                    *t.entry(i).or_insert(0) += x;
                }
                t
            },
            accum_in_t: false,
            vector: |k| {
                let plus = Monoid::plus();
                reduce_to_vector(
                    &k.w,
                    k.mask_v.as_ref(),
                    k.accum.as_ref(),
                    &plus,
                    &k.wide,
                    &k.desc,
                )
            },
            twin: None,
        },
    ]
}

fn check_families(mode: Mode) {
    let ctx = Context::new(&global_context(), mode, ContextOptions::default());
    let mut rng = StdRng::seed_from_u64(11);
    let small = |r: &mut StdRng| r.gen_range(-9..10i64);
    let inc = UnaryOp::new("inc", |x: &i64| x + 1);
    for family in families() {
        for write in write_grid() {
            let mut sel: Vec<Index> = (0..N).collect();
            for k in (1..N).rev() {
                sel.swap(k, rng.gen_range(0..=k));
            }
            sel.truncate(SHORT);
            let ops = Operands {
                u: random_entries(&mut rng, N, 0.5, small),
                v: random_entries(&mut rng, N, 0.5, small),
                short: random_entries(&mut rng, SHORT, 0.6, small),
                wide: (0..N * WIDE / 3)
                    .map(|_| {
                        (
                            (rng.gen_range(0..N), rng.gen_range(0..WIDE)),
                            small(&mut rng),
                        )
                    })
                    .collect(),
                sel,
                gather: (0..N).map(|_| rng.gen_range(0..N)).collect(),
            };
            let old = random_entries(&mut rng, N, 0.4, small);
            let mask = random_entries(&mut rng, N, 0.5, |r| r.gen_range(0..3) > 0);
            let t = (family.t)(&ops, &old, write.accum);
            let rule = Write {
                accum: write.accum && !family.accum_in_t,
                ..write
            };
            let expect = rule.apply(N, &old, &t, &mask, |o, t| o + t);
            let masked = write.mask != MaskKind::None;
            let wide = Matrix::<i64>::new_in(&ctx, N, WIDE).unwrap();
            wide.build(
                &ops.wide.keys().map(|k| k.0).collect::<Vec<_>>(),
                &ops.wide.keys().map(|k| k.1).collect::<Vec<_>>(),
                &ops.wide.values().copied().collect::<Vec<_>>(),
                None,
            )
            .unwrap();
            let call = Call {
                w: vector_in(&ctx, N, &old),
                c: column_in(&ctx, N, &old),
                mask_v: masked.then(|| vector_in(&ctx, N, &mask)),
                mask_m: masked.then(|| column_in(&ctx, N, &mask)),
                accum: write.accum.then(BinaryOp::plus),
                desc: write.descriptor(),
                u: (vector_in(&ctx, N, &ops.u), column_in(&ctx, N, &ops.u)),
                v: (vector_in(&ctx, N, &ops.v), column_in(&ctx, N, &ops.v)),
                short: vector_in(&ctx, SHORT, &ops.short),
                wide,
                sel: ops.sel.clone(),
                gather: ops.gather.clone(),
            };
            let label = format!("{} {mode:?} {write:?}", family.name);
            (family.vector)(&call).unwrap();
            assert_eq!(entries(&call.w), expect, "{label}");
            if let Some(twin) = family.twin {
                twin(&call).unwrap();
                assert_eq!(column_entries(&call.c), expect, "{label}: matrix twin");
            }
            // Once more with an in-place map right behind the operation: in
            // a nonblocking context it queues as the node's trailing stage
            // and must transform the written result, not `T`.
            let bumped: Entries<i64> = expect.iter().map(|(&i, x)| (i, x + 1)).collect();
            let again = Call {
                w: vector_in(&ctx, N, &old),
                c: column_in(&ctx, N, &old),
                ..call
            };
            (family.vector)(&again).unwrap();
            apply_v(
                &again.w,
                no_mask_v(),
                None,
                &inc,
                &again.w,
                &Descriptor::default(),
            )
            .unwrap();
            assert_eq!(entries(&again.w), bumped, "{label}: trailing map");
            if let Some(twin) = family.twin {
                twin(&again).unwrap();
                apply(
                    &again.c,
                    no_mask(),
                    None,
                    &inc,
                    &again.c,
                    &Descriptor::default(),
                )
                .unwrap();
                assert_eq!(
                    column_entries(&again.c),
                    bumped,
                    "{label}: twin trailing map"
                );
            }
        }
    }
}

#[test]
fn elementwise_families_match_the_write_rule_in_a_blocking_context() {
    check_families(Mode::Blocking);
}

#[test]
fn elementwise_families_match_the_write_rule_in_a_nonblocking_context() {
    check_families(Mode::NonBlocking);
}

/// `w⟨w⟩ = …`: the mask may be the output object itself. It is read at
/// call time, as every input is, so the write rule sees the old `w` as its
/// mask.
fn check_self_masked(mode: Mode) {
    let ctx = Context::new(&global_context(), mode, ContextOptions::default());
    let mut rng = StdRng::seed_from_u64(23);
    // Zeros are stored entries that a value mask reads as `false`.
    let small = |r: &mut StdRng| r.gen_range(-2..3i64);
    for write in write_grid() {
        if write.mask == MaskKind::None {
            continue;
        }
        let old = random_entries(&mut rng, N, 0.6, small);
        let u = random_entries(&mut rng, N, 0.6, small);
        let mask: Entries<bool> = old.iter().map(|(&i, &x)| (i, x != 0)).collect();
        let accum = write.accum.then(BinaryOp::plus);
        let label = format!("{mode:?} {write:?}");

        let t: Entries<i64> = u.iter().map(|(&i, x)| (i, x * 3)).collect();
        let w = vector_in(&ctx, N, &old);
        apply_v(
            &w,
            Some(&w),
            accum.as_ref(),
            &triple(),
            &vector_in(&ctx, N, &u),
            &write.descriptor(),
        )
        .unwrap();
        let expect = write.apply(N, &old, &t, &mask, |o, t| o + t);
        assert_eq!(entries(&w), expect, "apply_v {label}");

        // The accumulator folds inside the region — here all of `c` —
        // while `T` is built; the write rule then runs without one.
        let t: Entries<i64> = (0..N)
            .map(|i| (i, old.get(&i).filter(|_| write.accum).map_or(7, |o| o + 7)))
            .collect();
        let c = column_in(&ctx, N, &old);
        let all: Vec<Index> = (0..N).collect();
        assign_scalar(
            &c,
            Some(&c),
            accum.as_ref(),
            7,
            &all,
            &[0],
            &write.descriptor(),
        )
        .unwrap();
        let rule = Write {
            accum: false,
            ..write
        };
        let expect = rule.apply(N, &old, &t, &mask, |o, t| o + t);
        assert_eq!(column_entries(&c), expect, "assign_scalar {label}");
    }
}

#[test]
fn the_mask_may_be_the_output_itself() {
    check_self_masked(Mode::Blocking);
    check_self_masked(Mode::NonBlocking);
}

// ---------------------------------------------------------------------
// Storage axis: the same write rule whatever Table III format holds the
// operands and the pre-filled output. A full operand takes the slice
// kernels, and every combination must land the entries the all-sparse run
// lands.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Storage {
    Sparse,
    Full,
}

const STORAGES: [Storage; 2] = [Storage::Sparse, Storage::Full];

impl Storage {
    fn name(self) -> &'static str {
        match self {
            Storage::Sparse => "sparse",
            Storage::Full => "full",
        }
    }
}

/// Side length of the storage-axis operands (and of their square matrix).
const SIDE: usize = 24;

/// One execution context of the storage-axis grid.
struct Bench {
    ctx: Context,
    rng: StdRng,
}

impl Bench {
    fn new(mode: Mode, seed: u64) -> Self {
        let ctx = Context::new(&global_context(), mode, ContextOptions::default());
        Bench {
            ctx,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Random entries at a density `storage` can hold, and a vector holding
    /// them in that format. Zeros are stored entries a value mask reads as
    /// `false`.
    fn stored(&mut self, storage: Storage) -> (Entries<i64>, Vector<i64>) {
        let small = |r: &mut StdRng| r.gen_range(-2..3i64);
        let (e, v) = match storage {
            Storage::Sparse => {
                let e = random_entries(&mut self.rng, SIDE, 0.2, small);
                let v = vector_in(&self.ctx, SIDE, &e);
                (e, v)
            }
            Storage::Full => {
                let e = random_entries(&mut self.rng, SIDE, 1.0, small);
                let values = e.values().copied().collect();
                let v = Vector::import_in(&self.ctx, SIDE, VectorFormat::Dense, None, values);
                (e, v.unwrap())
            }
        };
        assert_eq!(v.stats().format, storage.name(), "stored() format");
        (e, v)
    }
}

/// What a storage-axis operation's model reads.
struct Model<'a> {
    /// Length of the operands and the output.
    n: usize,
    u: &'a Entries<i64>,
    v: &'a Entries<i64>,
    a: &'a BTreeMap<(Index, Index), i64>,
    old: &'a Entries<i64>,
    accum: bool,
}

/// The same call as engine objects. The mask is an `i64` vector (a stored
/// 0 is a stored `false`) so that it can be the output itself.
struct Engine<'a> {
    w: &'a Vector<i64>,
    mask: Option<&'a Vector<i64>>,
    accum: Option<&'a BinaryOp<i64, i64, i64>>,
    desc: &'a Descriptor,
    u: &'a Vector<i64>,
    v: &'a Vector<i64>,
    a: &'a Matrix<i64>,
}

struct StoredOp {
    name: &'static str,
    /// How many of `u`, `v` the operation reads.
    operands: usize,
    t: fn(&Model) -> Entries<i64>,
    /// `GrB_assign` folds the accumulator into `T` (see [`Family`]).
    accum_in_t: bool,
    run: fn(&Engine) -> GrbResult,
}

const BOUND: i64 = 100;
const FILL: i64 = 7;

fn union_with(m: &Model, both: fn(i64, i64) -> i64) -> Entries<i64> {
    let mut t = m.u.clone();
    for (&i, &y) in m.v {
        t.entry(i).and_modify(|x| *x = both(*x, y)).or_insert(y);
    }
    t
}

fn overlap_with(m: &Model, both: fn(i64, i64) -> i64) -> Entries<i64> {
    let both =
        m.u.iter()
            .filter_map(|(&i, &x)| Some((i, both(x, *m.v.get(&i)?))));
    both.collect()
}

fn mapped(m: &Model, f: fn(Index, i64) -> i64) -> Entries<i64> {
    m.u.iter().map(|(&i, &x)| (i, f(i, x))).collect()
}

/// `GrB_assign` of [`FILL`] into `region`: outside it `T` is the old
/// output, inside it the scalar, folded into the old value under an
/// accumulator.
fn filled(m: &Model, region: &[Index]) -> Entries<i64> {
    let mut t = m.old.clone();
    for &i in region {
        let folded = m.old.get(&i).filter(|_| m.accum).map_or(FILL, |o| o + FILL);
        t.insert(i, folded);
    }
    t
}

fn subset() -> Vec<Index> {
    (0..SIDE).filter(|i| i % 3 != 0).collect()
}

/// Every index once, out of order: the whole vector, but not `GrB_ALL`.
fn permuted() -> Vec<Index> {
    (0..SIDE).map(|i| (i * 7 + 3) % SIDE).collect()
}

fn all() -> Vec<Index> {
    (0..SIDE).collect()
}

fn product(m: &Model, out: fn((Index, Index)) -> (Index, Index)) -> Entries<i64> {
    let mut t = Entries::new();
    for (&at, av) in m.a {
        let (to, from) = out(at);
        if let Some(x) = m.u.get(&from) {
            *t.entry(to).or_insert(0) += av * x;
        }
    }
    t
}

fn fill(k: &Engine, region: &[Index]) -> GrbResult {
    assign_scalar_v(k.w, k.mask, k.accum, FILL, region, k.desc)
}

fn stored_ops() -> Vec<StoredOp> {
    vec![
        StoredOp {
            name: "ewise_add_v PLUS",
            operands: 2,
            t: |m| union_with(m, |x, y| x + y),
            accum_in_t: false,
            run: |k| ewise_add_v(k.w, k.mask, k.accum, &BinaryOp::plus(), k.u, k.v, k.desc),
        },
        // MINUS has no registry row and does not commute: an operand swap
        // in a mixed-format kernel shows here.
        StoredOp {
            name: "ewise_add_v MINUS",
            operands: 2,
            t: |m| union_with(m, |x, y| x - y),
            accum_in_t: false,
            run: |k| ewise_add_v(k.w, k.mask, k.accum, &BinaryOp::minus(), k.u, k.v, k.desc),
        },
        StoredOp {
            name: "ewise_mult_v TIMES",
            operands: 2,
            t: |m| overlap_with(m, |x, y| x * y),
            accum_in_t: false,
            run: |k| ewise_mult_v(k.w, k.mask, k.accum, &BinaryOp::times(), k.u, k.v, k.desc),
        },
        StoredOp {
            name: "ewise_mult_v MINUS",
            operands: 2,
            t: |m| overlap_with(m, |x, y| x - y),
            accum_in_t: false,
            run: |k| ewise_mult_v(k.w, k.mask, k.accum, &BinaryOp::minus(), k.u, k.v, k.desc),
        },
        StoredOp {
            name: "apply_v AINV",
            operands: 1,
            t: |m| mapped(m, |_, x| -x),
            accum_in_t: false,
            run: |k| apply_v(k.w, k.mask, k.accum, &UnaryOp::ainv(), k.u, k.desc),
        },
        StoredOp {
            name: "apply_v user",
            operands: 1,
            t: |m| mapped(m, |_, x| x * 3),
            accum_in_t: false,
            run: |k| apply_v(k.w, k.mask, k.accum, &triple(), k.u, k.desc),
        },
        StoredOp {
            name: "apply_binop1st_v",
            operands: 1,
            t: |m| mapped(m, |_, x| BOUND - x),
            accum_in_t: false,
            run: |k| {
                let op = BinaryOp::minus();
                apply_binop1st_v(k.w, k.mask, k.accum, &op, BOUND, k.u, k.desc)
            },
        },
        StoredOp {
            name: "apply_binop2nd_v",
            operands: 1,
            t: |m| mapped(m, |_, x| x - BOUND),
            accum_in_t: false,
            run: |k| {
                let op = BinaryOp::minus();
                apply_binop2nd_v(k.w, k.mask, k.accum, &op, k.u, BOUND, k.desc)
            },
        },
        StoredOp {
            name: "apply_indexop_v",
            operands: 1,
            t: |m| mapped(m, |i, _| i as i64 + SHIFT),
            accum_in_t: false,
            run: |k| {
                let f = IndexUnaryOp::rowindex();
                apply_indexop_v(k.w, k.mask, k.accum, &f, k.u, SHIFT, k.desc)
            },
        },
        StoredOp {
            name: "assign_scalar_v GrB_ALL",
            operands: 0,
            t: |m| filled(m, &all()),
            accum_in_t: true,
            run: |k| fill(k, &all()),
        },
        StoredOp {
            name: "assign_scalar_v subset",
            operands: 0,
            t: |m| filled(m, &subset()),
            accum_in_t: true,
            run: |k| fill(k, &subset()),
        },
        StoredOp {
            name: "assign_scalar_v permuted",
            operands: 0,
            t: |m| filled(m, &permuted()),
            accum_in_t: true,
            run: |k| fill(k, &permuted()),
        },
        StoredOp {
            name: "mxv",
            operands: 1,
            t: |m| product(m, |(i, j)| (i, j)),
            accum_in_t: false,
            run: |k| {
                mxv(
                    k.w,
                    k.mask,
                    k.accum,
                    &Semiring::plus_times(),
                    k.a,
                    k.u,
                    k.desc,
                )
            },
        },
        StoredOp {
            name: "vxm",
            operands: 1,
            t: |m| product(m, |(i, j)| (j, i)),
            accum_in_t: false,
            run: |k| {
                vxm(
                    k.w,
                    k.mask,
                    k.accum,
                    &Semiring::plus_times(),
                    k.u,
                    k.a,
                    k.desc,
                )
            },
        },
    ]
}

/// Every [`StoredOp`] × operand storage × output storage × the descriptor
/// grid × {a separate mask, the output itself as mask}, in one execution
/// mode and one dispatch mode.
fn check_storage_axis(mode: Mode, registry_on: bool) {
    let _turn = DIRECTION.lock().unwrap_or_else(|e| e.into_inner());
    registry::force_dispatch(Some(registry_on));
    let mut bench = Bench::new(mode, 31);
    let a: BTreeMap<(Index, Index), i64> = (0..SIDE * SIDE / 4)
        .map(|_| {
            let at = (bench.rng.gen_range(0..SIDE), bench.rng.gen_range(0..SIDE));
            (at, bench.rng.gen_range(-3..4i64))
        })
        .collect();
    let am = Matrix::<i64>::new_in(&bench.ctx, SIDE, SIDE).unwrap();
    am.build(
        &a.keys().map(|k| k.0).collect::<Vec<_>>(),
        &a.keys().map(|k| k.1).collect::<Vec<_>>(),
        &a.values().copied().collect::<Vec<_>>(),
        None,
    )
    .unwrap();
    let plus = BinaryOp::plus();
    let storages = |used: bool| if used { &STORAGES[..] } else { &STORAGES[..1] };
    for op in stored_ops() {
        for &su in storages(op.operands >= 1) {
            for &sv in storages(op.operands >= 2) {
                for sw in STORAGES {
                    for write in write_grid() {
                        // `w⟨w⟩ = …`: the mask may be the output itself.
                        for own_mask in [false, true] {
                            if own_mask && write.mask == MaskKind::None {
                                continue;
                            }
                            let (u, uv) = bench.stored(su);
                            let (v, vv) = bench.stored(sv);
                            let (old, w) = bench.stored(sw);
                            let (mask, mv) = bench.stored(Storage::Sparse);
                            let mask = if own_mask { &old } else { &mask };
                            let truthy = mask.iter().map(|(&i, &x)| (i, x != 0)).collect();
                            let model = Model {
                                n: SIDE,
                                u: &u,
                                v: &v,
                                a: &a,
                                old: &old,
                                accum: write.accum,
                            };
                            let rule = Write {
                                accum: write.accum && !op.accum_in_t,
                                ..write
                            };
                            let t = (op.t)(&model);
                            let expect = rule.apply(SIDE, &old, &t, &truthy, |o, t| o + t);
                            let desc = write.descriptor();
                            let call = Engine {
                                w: &w,
                                mask: match write.mask {
                                    MaskKind::None => None,
                                    _ if own_mask => Some(&w),
                                    _ => Some(&mv),
                                },
                                accum: write.accum.then_some(&plus),
                                desc: &desc,
                                u: &uv,
                                v: &vv,
                                a: &am,
                            };
                            (op.run)(&call).unwrap();
                            assert_eq!(
                                entries(&w),
                                expect,
                                "{} {mode:?} registry={registry_on} u={su:?} v={sv:?} \
                                 w={sw:?} own_mask={own_mask} {write:?}",
                                op.name
                            );
                        }
                    }
                }
            }
        }
    }
    // `reduce_to_value_v` writes nothing: the storage axis alone. PLUS has
    // a registry row; MIN is a terminal monoid; the closure-built one is
    // always dyn.
    let user_plus = Monoid::new(BinaryOp::new("user_plus", |p: &i64, q: &i64| p + q), 0);
    for su in STORAGES {
        for _ in 0..4 {
            let (u, uv) = bench.stored(su);
            let sum: i64 = u.values().sum();
            let min = u.values().copied().min().unwrap_or(i64::MAX);
            assert_eq!(
                reduce_to_value_v(&Monoid::plus(), &uv).unwrap(),
                sum,
                "{su:?}"
            );
            assert_eq!(reduce_to_value_v(&user_plus, &uv).unwrap(), sum, "{su:?}");
            assert_eq!(
                reduce_to_value_v(&Monoid::min(), &uv).unwrap(),
                min,
                "{su:?}"
            );
        }
    }
    registry::force_dispatch(None);
}

#[test]
fn every_storage_format_matches_the_write_rule_in_a_blocking_context() {
    check_storage_axis(Mode::Blocking, true);
    check_storage_axis(Mode::Blocking, false);
}

#[test]
fn every_storage_format_matches_the_write_rule_in_a_nonblocking_context() {
    check_storage_axis(Mode::NonBlocking, true);
    check_storage_axis(Mode::NonBlocking, false);
}

// ---------------------------------------------------------------------
// The mask's own storage: every operation that consults a vector mask
// reads one bitset built from whichever Table III format holds the mask —
// index list or full — so each format, at a low and a middling density
// for the index list, by value (with stored falsy entries) and by
// structure, must admit exactly what the model's mask admits, at lengths
// on, under and over a word boundary.
// ---------------------------------------------------------------------

/// A mask vector of length `n` holding `e` in `storage`.
fn stored_mask(ctx: &Context, n: usize, storage: Storage, e: &Entries<i64>) -> Vector<i64> {
    let v = match storage {
        Storage::Sparse => vector_in(ctx, n, e),
        Storage::Full => {
            let values = e.values().copied().collect();
            Vector::import_in(ctx, n, VectorFormat::Dense, None, values).unwrap()
        }
    };
    assert_eq!(v.stats().format, storage.name(), "stored_mask format");
    v
}

/// One masked vector operation over operands of length `n`: its model `T`
/// and the engine call.
struct MaskedOp {
    name: &'static str,
    /// Forced for the call, for the two product kernels.
    dir: Option<Direction>,
    accum_in_t: bool,
    t: fn(&Model) -> Entries<i64>,
    run: fn(&Engine) -> GrbResult,
}

fn masked_ops() -> Vec<MaskedOp> {
    let product_ops = [Direction::Push, Direction::Pull].into_iter().flat_map(|dir| {
        [
            MaskedOp {
                name: "mxv",
                dir: Some(dir),
                accum_in_t: false,
                t: |m| product(m, |(i, j)| (i, j)),
                run: |k| mxv(k.w, k.mask, k.accum, &Semiring::plus_times(), k.a, k.u, k.desc),
            },
            MaskedOp {
                name: "vxm",
                dir: Some(dir),
                accum_in_t: false,
                t: |m| product(m, |(i, j)| (j, i)),
                run: |k| vxm(k.w, k.mask, k.accum, &Semiring::plus_times(), k.u, k.a, k.desc),
            },
        ]
    });
    let mut ops: Vec<MaskedOp> = product_ops.collect();
    ops.extend([
        MaskedOp {
            name: "assign_scalar_v ALL",
            dir: None,
            accum_in_t: true,
            t: |m| {
                let fold = |i| m.old.get(&i).filter(|_| m.accum).map_or(FILL, |o| o + FILL);
                (0..m.n).map(|i| (i, fold(i))).collect()
            },
            run: |k| assign_scalar_v(k.w, k.mask, k.accum, FILL, ALL, k.desc),
        },
        MaskedOp {
            name: "apply_v",
            dir: None,
            accum_in_t: false,
            t: |m| mapped(m, |_, x| x * 3),
            run: |k| apply_v(k.w, k.mask, k.accum, &triple(), k.u, k.desc),
        },
        MaskedOp {
            name: "ewise_add_v",
            dir: None,
            accum_in_t: false,
            t: |m| union_with(m, |x, y| x - y),
            run: |k| ewise_add_v(k.w, k.mask, k.accum, &BinaryOp::minus(), k.u, k.v, k.desc),
        },
        MaskedOp {
            name: "reduce_to_vector",
            dir: None,
            accum_in_t: false,
            t: |m| {
                let mut t = Entries::new();
                m.a.iter().for_each(|(&(i, _), av)| *t.entry(i).or_insert(0) += av);
                t
            },
            run: |k| reduce_to_vector(k.w, k.mask, k.accum, &Monoid::plus(), k.a, k.desc),
        },
    ]);
    ops
}

/// The masks worth a case of their own beside the random ones.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MaskShape {
    /// Stored entries of which a fifth are falsy zeros.
    Random,
    /// Every stored entry truthy.
    AllTruthy,
    /// Nothing stored (an index list only: the other formats hold entries).
    Empty,
    /// The output itself, `w⟨w⟩ = …` — the mask is read while the output's
    /// own write is about to be queued.
    Output,
}

fn check_mask_storage(mode: Mode) {
    let _turn = DIRECTION.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = Context::new(&global_context(), mode, ContextOptions::default());
    let mut rng = StdRng::seed_from_u64(0x3A5C);
    let small = |r: &mut StdRng| r.gen_range(-2..3i64);
    let nonzero = |r: &mut StdRng| r.gen_range(1..4i64);
    let plus = BinaryOp::plus();
    // One word, under two, exactly two, over two.
    for n in [24usize, 70, 128, 130] {
        let a: BTreeMap<(Index, Index), i64> = (0..n * 3)
            .map(|_| ((rng.gen_range(0..n), rng.gen_range(0..n)), rng.gen_range(-3..4i64)))
            .collect();
        let am = Matrix::<i64>::new_in(&ctx, n, n).unwrap();
        let (rows, cols): (Vec<Index>, Vec<Index>) = a.keys().copied().unzip();
        am.build(&rows, &cols, &a.values().copied().collect::<Vec<_>>(), None).unwrap();
        for op in masked_ops() {
            let stores = [(Storage::Sparse, 0.2), (Storage::Sparse, 0.6), (Storage::Full, 1.0)];
            for (storage, density) in stores {
                use MaskShape::{AllTruthy, Empty, Output, Random};
                for shape in [Random, AllTruthy, Empty, Output] {
                    if shape == MaskShape::Empty && density != 0.2 {
                        continue;
                    }
                    for write in write_grid().into_iter().filter(|w| w.mask != MaskKind::None) {
                        let mask = match shape {
                            MaskShape::Empty => Entries::new(),
                            MaskShape::AllTruthy => random_entries(&mut rng, n, density, nonzero),
                            _ => random_entries(&mut rng, n, density, small),
                        };
                        let u = random_entries(&mut rng, n, 0.5, small);
                        let v = random_entries(&mut rng, n, 0.5, small);
                        // As its own mask the output is stored in the
                        // mask's format and holds the mask's entries.
                        let own = shape == MaskShape::Output;
                        let other = random_entries(&mut rng, n, 0.5, small);
                        let old = if own { mask.clone() } else { other };
                        let mv = stored_mask(&ctx, n, storage, &mask);
                        let w = if own { mv.clone() } else { vector_in(&ctx, n, &old) };
                        let truthy = mask.iter().map(|(&i, &x)| (i, x != 0)).collect();
                        let model = Model { n, u: &u, v: &v, a: &a, old: &old, accum: write.accum };
                        let rule = Write { accum: write.accum && !op.accum_in_t, ..write };
                        let expect = rule.apply(n, &old, &(op.t)(&model), &truthy, |o, t| o + t);
                        let desc = write.descriptor();
                        let (uv, vv) = (vector_in(&ctx, n, &u), vector_in(&ctx, n, &v));
                        let call = Engine {
                            w: &w,
                            mask: Some(&mv),
                            accum: write.accum.then_some(&plus),
                            desc: &desc,
                            u: &uv,
                            v: &vv,
                            a: &am,
                        };
                        force_direction(op.dir);
                        (op.run)(&call).unwrap();
                        force_direction(None);
                        assert_eq!(
                            entries(&w),
                            expect,
                            "{} {:?} {mode:?} n={n} mask stored {storage:?} at {density} {shape:?} {write:?}",
                            op.name,
                            op.dir
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_vector_mask_is_read_from_every_store() {
    check_mask_storage(Mode::Blocking);
    check_mask_storage(Mode::NonBlocking);
}

/// `GrB_ALL` is a sentinel known by its address: assigning through it is
/// assigning through the explicit list `0..n`, whatever the write rule,
/// and a slice that merely has its contents is an ordinary index list.
#[test]
fn assigning_through_all_is_assigning_through_every_index() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0xA11);
    let small = |r: &mut StdRng| r.gen_range(-2..3i64);
    let plus = BinaryOp::plus();
    for n in [1usize, 24, 130] {
        let every: Vec<Index> = all_indices(n);
        for write in write_grid() {
            let old = random_entries(&mut rng, n, 0.5, small);
            let mask = vector_in(&ctx, n, &random_entries(&mut rng, n, 0.4, small));
            let mask = (write.mask != MaskKind::None).then_some(&mask);
            let accum = write.accum.then_some(&plus);
            let desc = write.descriptor();
            let (by_all, by_list) = (vector_in(&ctx, n, &old), vector_in(&ctx, n, &old));
            assign_scalar_v(&by_all, mask, accum, FILL, ALL, &desc).unwrap();
            assign_scalar_v(&by_list, mask, accum, FILL, &every, &desc).unwrap();
            assert_eq!(entries(&by_all), entries(&by_list), "n={n} {write:?}");
            assert_eq!(by_all.stats().format, by_list.stats().format, "n={n} {write:?}");
        }
        // The matrix form: `ALL` on either axis is that axis's `0..dim`.
        let d = Descriptor::default();
        let column = |rows: &[Index]| {
            let c = Matrix::<i64>::new(n, 3).unwrap();
            assign_scalar(&c, no_mask(), None, FILL, rows, &[1], &d).unwrap();
            matrix_entries(&c)
        };
        assert_eq!(column(ALL), column(&every), "n={n}");
        let row = |cols: &[Index]| {
            let c = Matrix::<i64>::new(2, n).unwrap();
            assign_scalar(&c, no_mask(), None, FILL, &[0], cols, &d).unwrap();
            matrix_entries(&c)
        };
        assert_eq!(row(ALL), row(&every), "n={n}");
    }
    // Identity, not contents: a copy of the sentinel's one element is the
    // index `usize::MAX`, which no vector has.
    let lookalike = ALL.to_vec();
    let w = Vector::<i64>::new(4).unwrap();
    let err = assign_scalar_v(&w, no_mask_v(), None, FILL, &lookalike, &Descriptor::default());
    assert!(err.unwrap_err().is_execution());
}
