//! Differential test for the mask-first kernels: `mxv`, `vxm` and
//! `assign_scalar_v` against a naive `BTreeMap` model of the four-step
//! write rule `w⟨m, r⟩ = w ⊙ T`.
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

use graphblas::operations::{assign_scalar_v, force_direction, mxv, vxm, Direction};
use graphblas::{
    no_mask_v, BinaryOp, Descriptor, Index, Matrix, Monoid, Semiring, ValueType, Vector,
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
    let v = Vector::<T>::new(n).unwrap();
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
    /// A builtin semiring and matrix value under which `I · u = u`, used
    /// to obtain a bitmap-stored copy of a frontier.
    copy: (Semiring<T, T, T>, T),
}

const ROWS: usize = 20;
const COLS: usize = 28;

/// The three frontier shapes: one entry (push's home ground), inside the
/// bitmap density window and stored as a bitmap, and full (the pull
/// kernel's direct-indexing path).
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
    // Products store mid-density results as bitmaps; copying through the
    // identity matrix yields the same entries in that format.
    let eye = Matrix::<T>::new(n, n).unwrap();
    let diag: Vec<Index> = (0..n).collect();
    eye.build(&diag, &diag, &vec![alg.copy.1.clone(); n], None)
        .unwrap();
    let bitmap = Vector::<T>::new(n).unwrap();
    mxv(
        &bitmap,
        no_mask_v(),
        None,
        &alg.copy.0,
        &eye,
        &vector(n, &half),
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(
        bitmap.stats().format,
        "bitmap",
        "{}: frontier format",
        alg.name
    );
    assert_eq!(entries(&bitmap), half, "{}: bitmap copy", alg.name);
    vec![
        ("single", single.clone(), vector(n, &single)),
        ("bitmap", half, bitmap),
        ("full", full.clone(), vector(n, &full)),
    ]
}

/// `force_direction` is process-global: the product tests take turns.
static DIRECTION: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn check_products<T: ValueType + PartialEq + Debug>(seed: u64, alg: Algebra<T>) {
    let _turn = DIRECTION.lock().unwrap_or_else(|e| e.into_inner());
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
}

#[test]
fn registered_plus_times_products_match_the_write_rule() {
    for seed in [1, 2] {
        check_products::<i64>(
            seed,
            Algebra {
                name: "PLUS.TIMES",
                semiring: Semiring::plus_times(),
                mul: |a, b| a * b,
                add: |p, q| p + q,
                accum: BinaryOp::plus(),
                accum_fn: |o, t| o + t,
                gen: |r| r.gen_range(-9..10i64),
                copy: (Semiring::plus_times(), 1),
            },
        );
    }
}

#[test]
fn terminal_lor_land_products_match_the_write_rule() {
    for seed in [3, 4] {
        check_products::<bool>(
            seed,
            Algebra {
                name: "LOR.LAND",
                semiring: Semiring::lor_land(),
                mul: |a, b| *a && *b,
                add: |p, q| p || q,
                accum: BinaryOp::lor(),
                accum_fn: |o, t| *o || *t,
                gen: |r| r.gen_range(0..3) > 0,
                copy: (Semiring::lor_land(), true),
            },
        );
    }
}

#[test]
fn user_built_min_first_products_match_the_write_rule() {
    for seed in [5, 6] {
        check_products::<i64>(
            seed,
            Algebra {
                name: "MIN.FIRST",
                // No registered instantiation: the dyn-operator kernels run.
                semiring: Semiring::new(Monoid::min(), BinaryOp::first()),
                mul: |a, _| *a,
                add: |p, q| p.min(q),
                accum: BinaryOp::plus(),
                accum_fn: |o, t| o + t,
                gen: |r| r.gen_range(-9..10i64),
                copy: (Semiring::plus_times(), 1),
            },
        );
    }
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
