//! Randomized property tests for the sparse kernels against naive
//! references — structure-level guarantees every higher layer depends on.
//! Inputs come from the deterministic `graphblas_exec::rng` generator, so
//! every run exercises the same (broad) case set.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use graphblas_exec::rng::prelude::*;
use graphblas_exec::workspace::{BitSet, Reusable};
use graphblas_exec::{global_context, Context, ContextOptions, Mode};
use graphblas_sparse::{
    ewise, kron, spgemm, spmv, transpose, BitmapVec, Coo, Csr, DenseVec, FormatError, SparseVec,
    VecOut, VecView,
};

const CASES: usize = 64;

type Entries = BTreeMap<(usize, usize), i64>;

fn csr(shape: (usize, usize), entries: &Entries) -> Csr<i64> {
    Coo::from_parts(
        shape.0,
        shape.1,
        entries.keys().map(|k| k.0).collect(),
        entries.keys().map(|k| k.1).collect(),
        entries.values().copied().collect(),
    )
    .unwrap()
    .to_csr(&global_context(), None)
    .unwrap()
}

fn entries(m: &Csr<i64>) -> Entries {
    m.to_sorted_tuples()
        .into_iter()
        .map(|(i, j, v)| ((i, j), v))
        .collect()
}

fn random_entries(rng: &mut StdRng, rows: usize, cols: usize) -> Entries {
    (0..rng.gen_range(0..50usize))
        .map(|_| {
            (
                (rng.gen_range(0..rows), rng.gen_range(0..cols)),
                rng.gen_range(-20..20i64),
            )
        })
        .collect()
}

#[test]
fn spgemm_matches_reference() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0x5139);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 14, 10);
        let b = random_entries(&mut rng, 10, 12);
        let am = csr((14, 10), &a);
        let bm = csr((10, 12), &b);
        let c = spgemm::spgemm(&ctx, &am, &bm, |x, y| x * y, |acc, z| *acc += z);
        c.check().unwrap();
        let mut expect: Entries = BTreeMap::new();
        for (&(i, k), &av) in &a {
            for (&(k2, j), &bv) in &b {
                if k == k2 {
                    *expect.entry((i, j)).or_insert(0) += av * bv;
                }
            }
        }
        assert_eq!(entries(&c), expect);
    }
}

/// `m` with every row's entries stored back to front: the same matrix,
/// but `rows_sorted` is false wherever a row holds two entries.
fn rows_reversed(m: &Csr<i64>) -> Csr<i64> {
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for i in 0..m.nrows() {
        let (cols, vals) = m.row(i);
        indices.extend(cols.iter().rev());
        values.extend(vals.iter().rev());
    }
    Csr::from_parts(m.nrows(), m.ncols(), m.indptr().to_vec(), indices, values).unwrap()
}

fn plus_times_masked(
    ctx: &Context,
    mask: &Csr<i64>,
    complement: bool,
    a: &Csr<i64>,
    b: &Csr<i64>,
) -> Csr<i64> {
    // A value mask: stored entries ≤ 0 are its stored `false`.
    let truthy = |v: &i64| *v > 0;
    let mul = |x: &i64, y: &i64| x * y;
    spgemm::spgemm_masked(ctx, mask, complement, truthy, a, b, mul, |acc, z| *acc += z)
}

#[test]
fn spgemm_masked_is_restricted_spgemm() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0x5140);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 10, 10);
        let b = random_entries(&mut rng, 10, 10);
        let m = random_entries(&mut rng, 10, 10);
        let complement = rng.gen_bool(0.5);
        let am = csr((10, 10), &a);
        let bm = csr((10, 10), &b);
        let mm = csr((10, 10), &m);
        let mut full = spgemm::spgemm(&ctx, &am, &bm, |x, y| x * y, |acc, z| *acc += z);
        full.sort_rows(&ctx);
        let expect = ewise::ewise_restrict(&ctx, &full, &mm, complement, |v| *v > 0);
        let masked = plus_times_masked(&ctx, &mm, complement, &am, &bm);
        // `check` holds the `rows_sorted` flag to the rows themselves.
        masked.check().unwrap();
        assert!(
            complement || masked.is_rows_sorted(),
            "a sorted plain mask sorts the result"
        );
        assert_eq!(entries(&masked), entries(&expect));
        // A mask with unsorted rows promises nothing about order, and
        // must not claim to.
        let unsorted = plus_times_masked(&ctx, &rows_reversed(&mm), complement, &am, &bm);
        unsorted.check().unwrap();
        assert_eq!(entries(&unsorted), entries(&expect));
    }
}

#[test]
fn spgemm_masked_degenerate_masks_and_rows() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0x5141);
    let full_mask: Entries = (0..8)
        .flat_map(|i| (0..8).map(move |j| ((i, j), 1)))
        .collect();
    for _ in 0..CASES {
        // A and the mask each lose a few whole rows.
        let mut a = random_entries(&mut rng, 8, 8);
        let mut m = random_entries(&mut rng, 8, 8);
        let (gone_a, gone_m) = (rng.gen_range(0..8usize), rng.gen_range(0..8usize));
        a.retain(|k, _| k.0 != gone_a && k.0 != 0);
        m.retain(|k, _| k.0 != gone_m && k.0 != 7);
        let b = random_entries(&mut rng, 8, 8);
        let (am, bm, mm) = (csr((8, 8), &a), csr((8, 8), &b), csr((8, 8), &m));
        let mut full = spgemm::spgemm(&ctx, &am, &bm, |x, y| x * y, |acc, z| *acc += z);
        full.sort_rows(&ctx);
        for complement in [false, true] {
            let got = plus_times_masked(&ctx, &mm, complement, &am, &bm);
            got.check().unwrap();
            let expect = ewise::ewise_restrict(&ctx, &full, &mm, complement, |v| *v > 0);
            assert_eq!(entries(&got), entries(&expect));
        }
        // Masks that forbid everything: no stored entry, only stored
        // `false`, and the complement of a full one.
        let nothing = [
            (Csr::empty(8, 8), false),
            (csr((8, 8), &m).map(&ctx, |_| 0i64), false),
            (csr((8, 8), &full_mask), true),
        ];
        for (mask, complement) in &nothing {
            let got = plus_times_masked(&ctx, mask, *complement, &am, &bm);
            got.check().unwrap();
            assert_eq!(got.nnz(), 0);
        }
        // And one that forbids nothing.
        let all = plus_times_masked(&ctx, &csr((8, 8), &full_mask), false, &am, &bm);
        assert_eq!(entries(&all), entries(&full));
    }
}

/// Both kernels under plain and complemented masks, as `(indptr, indices,
/// values)`.
fn products(
    ctx: &Context,
    a: &Csr<i64>,
    b: &Csr<i64>,
    m: &Csr<i64>,
) -> Vec<(Vec<usize>, Vec<usize>, Vec<i64>)> {
    vec![
        spgemm::spgemm(ctx, a, b, |x, y| x * y, |acc, z| *acc += z).into_parts(),
        plus_times_masked(ctx, m, false, a, b).into_parts(),
        plus_times_masked(ctx, m, true, a, b).into_parts(),
    ]
}

#[test]
fn spgemm_is_the_same_on_two_threads_and_keeps_no_slack() {
    let budget = |nthreads| {
        let opts = ContextOptions {
            nthreads: Some(nthreads),
            chunk_size: Some(1),
            ..ContextOptions::default()
        };
        Context::new(&global_context(), Mode::Blocking, opts)
    };
    let (one, two) = (budget(1), budget(2));
    let mut rng = StdRng::seed_from_u64(0x5142);
    for _ in 0..CASES {
        let am = csr((14, 10), &random_entries(&mut rng, 14, 10));
        let bm = csr((10, 12), &random_entries(&mut rng, 10, 12));
        let mm = csr((14, 12), &random_entries(&mut rng, 14, 12));
        let (single, double) = (products(&one, &am, &bm, &mm), products(&two, &am, &bm, &mm));
        // Entry for entry, in stored order: a row is one task's work
        // however the rows are dealt out.
        assert_eq!(single, double);
        for (_, indices, values) in single.iter().chain(&double) {
            assert_eq!(indices.capacity(), indices.len());
            assert_eq!(values.capacity(), values.len());
        }
    }
}

#[test]
fn transpose_is_involutive_and_entrywise() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0x7149);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 9, 17);
        let am = csr((9, 17), &a);
        let t = transpose::transpose(&ctx, &am);
        t.check().unwrap();
        for (&(i, j), &v) in &a {
            assert_eq!(t.get(j, i), Some(&v));
        }
        let tt = transpose::transpose(&ctx, &t);
        assert_eq!(entries(&tt), a);
    }
}

#[test]
fn union_intersect_difference_partition() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0x0412);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 12, 12);
        let b = random_entries(&mut rng, 12, 12);
        let am = csr((12, 12), &a);
        let bm = csr((12, 12), &b);
        // |A ∪ B| = |A| + |B| - |A ∩ B|
        let u = ewise::ewise_union(&ctx, &am, &bm, |x, y| x + y);
        let i = ewise::ewise_intersect(&ctx, &am, &bm, |x: &i64, y: &i64| x * y);
        assert_eq!(u.nnz() + i.nnz(), am.nnz() + bm.nnz());
        // restrict(A, B) ⊎ restrict(A, ¬B) = A
        let inb = ewise::ewise_restrict(&ctx, &am, &bm, false, |_| true);
        let notb = ewise::ewise_restrict(&ctx, &am, &bm, true, |_| true);
        assert_eq!(inb.nnz() + notb.nnz(), am.nnz());
        let mut merged = entries(&inb);
        merged.extend(entries(&notb));
        assert_eq!(merged, a);
    }
}

#[test]
fn union_is_commutative_for_commutative_ops() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0xC033);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 8, 8);
        let b = random_entries(&mut rng, 8, 8);
        let am = csr((8, 8), &a);
        let bm = csr((8, 8), &b);
        let ab = ewise::ewise_union(&ctx, &am, &bm, |x, y| x + y);
        let ba = ewise::ewise_union(&ctx, &bm, &am, |x, y| x + y);
        assert_eq!(entries(&ab), entries(&ba));
    }
}

#[test]
fn spmv_and_vxm_agree_via_transpose() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0x593D);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 11, 8);
        let x: BTreeMap<usize, i64> = (0..rng.gen_range(0..11usize))
            .map(|_| (rng.gen_range(0..11usize), rng.gen_range(-9..9i64)))
            .collect();
        let am = csr((11, 8), &a);
        let xv = SparseVec::from_parts(
            11,
            x.keys().copied().collect(),
            x.values().copied().collect(),
        )
        .unwrap();
        let push = spmv::vxm(&ctx, &xv, &am, |x, a| x * a, |p, q| p + q);
        let at = transpose::transpose(&ctx, &am);
        let pull = spmv::spmv(&ctx, &at, &xv, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        assert_eq!(push.to_sorted_tuples(), pull.to_sorted_tuples());
    }
}

#[test]
fn kron_entry_count_and_values() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0x1209);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 4, 5);
        let b = random_entries(&mut rng, 3, 4);
        let am = csr((4, 5), &a);
        let bm = csr((3, 4), &b);
        let c = kron::kronecker(&ctx, &am, &bm, |x, y| x * y).unwrap();
        assert_eq!(c.nnz(), am.nnz() * bm.nnz());
        for (&(ia, ja), &av) in &a {
            for (&(ib, jb), &bv) in &b {
                assert_eq!(c.get(ia * 3 + ib, ja * 4 + jb), Some(&(av * bv)));
            }
        }
    }
}

#[test]
fn extract_submatrix_agrees_with_pointwise() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0xE874);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 10, 10);
        let rows: Vec<usize> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..10))
            .collect();
        let cols: Vec<usize> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..10))
            .collect();
        let am = csr((10, 10), &a);
        let sub = am.extract_submatrix(&ctx, &rows, &cols).unwrap();
        sub.check().unwrap();
        for (oi, &si) in rows.iter().enumerate() {
            for (oj, &sj) in cols.iter().enumerate() {
                assert_eq!(sub.get(oi, oj), a.get(&(si, sj)));
            }
        }
    }
}

#[test]
fn filter_map_conserves_selected_entries() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0xF117);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 10, 10);
        let threshold = rng.gen_range(-10..10i64);
        let am = csr((10, 10), &a);
        let kept = am.filter_map_with_index(&ctx, |_, _, v| (*v > threshold).then_some(*v));
        kept.check().unwrap();
        let expect: Entries = a
            .iter()
            .filter(|(_, &v)| v > threshold)
            .map(|(&k, &v)| (k, v))
            .collect();
        assert_eq!(entries(&kept), expect);
    }
}

#[test]
fn coo_roundtrip_with_duplicate_summing() {
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(0xC002);
    for _ in 0..CASES {
        let triples: Vec<(usize, usize, i64)> = (0..rng.gen_range(0..40usize))
            .map(|_| {
                (
                    rng.gen_range(0..6usize),
                    rng.gen_range(0..6usize),
                    rng.gen_range(-9..9i64),
                )
            })
            .collect();
        let coo = Coo::from_parts(
            6,
            6,
            triples.iter().map(|t| t.0).collect(),
            triples.iter().map(|t| t.1).collect(),
            triples.iter().map(|t| t.2).collect(),
        )
        .unwrap();
        let m = coo.to_csr(&ctx, Some(&|a: &i64, b: &i64| a + b)).unwrap();
        let mut expect: Entries = BTreeMap::new();
        for &(i, j, v) in &triples {
            *expect.entry((i, j)).or_insert(0) += v;
        }
        assert_eq!(entries(&m), expect);
    }
}

// ---------------------------------------------------------------------
// The set-up scatter: `Coo::to_csr` and `transpose` against a `BTreeMap`
// oracle, over degenerate shapes, input orders, duplicate folds and thread
// budgets. Every result is `check()`ed explicitly: release builds take a
// kernel's `rows_sorted` on trust.
// ---------------------------------------------------------------------

type Triplet = (usize, usize, i64);

fn random_triplets(rng: &mut StdRng, (m, n): (usize, usize), len: usize) -> Vec<Triplet> {
    (0..len)
        .map(|_| (rng.gen_range(0..m), rng.gen_range(0..n), rng.gen_range(-9..9i64)))
        .collect()
}

/// Seeded triplet lists: empty dimensions, random shapes each in arrival,
/// sorted and reverse-sorted order, `nrows ≫ nnz` and `ncols ≫ nnz`, and
/// everything in one row or one column (long duplicate runs).
fn scatter_cases(seed: u64) -> Vec<((usize, usize), Vec<Triplet>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = vec![((0, 7), vec![]), ((7, 0), vec![]), ((0, 0), vec![])];
    for _ in 0..CASES {
        let shape = (rng.gen_range(1..40usize), rng.gen_range(1..40usize));
        let len = rng.gen_range(0..300usize);
        let arrival = random_triplets(&mut rng, shape, len);
        let mut sorted = arrival.clone();
        sorted.sort_by_key(|&(i, j, _)| (i, j));
        let reversed = sorted.iter().rev().copied().collect();
        cases.extend([(shape, arrival), (shape, sorted), (shape, reversed)]);
    }
    for shape in [(5000, 30), (30, 5000), (1, 50), (50, 1)] {
        let len = if shape.0 * shape.1 > 1000 { 70 } else { 400 };
        cases.push((shape, random_triplets(&mut rng, shape, len)));
    }
    cases
}

fn coo_of(shape: (usize, usize), t: &[Triplet]) -> Coo<i64> {
    Coo::from_parts(
        shape.0,
        shape.1,
        t.iter().map(|e| e.0).collect(),
        t.iter().map(|e| e.1).collect(),
        t.iter().map(|e| e.2).collect(),
    )
    .unwrap()
}

/// Each coordinate's values folded from the left in arrival order.
fn folded(t: &[Triplet], dup: impl Fn(&i64, &i64) -> i64) -> Entries {
    let mut out = Entries::new();
    for &(i, j, v) in t {
        out.entry((i, j)).and_modify(|acc| *acc = dup(acc, &v)).or_insert(v);
    }
    out
}

/// The first duplicated coordinate in row-major order.
fn first_duplicate(t: &[Triplet]) -> Option<(usize, usize)> {
    let mut seen = BTreeMap::new();
    for &(i, j, _) in t {
        *seen.entry((i, j)).or_insert(0usize) += 1;
    }
    seen.into_iter().find(|&(_, n)| n > 1).map(|(k, _)| k)
}

/// One-, two- and four-thread budgets with 64-entry chunks.
fn scatter_budgets() -> [Context; 3] {
    [1, 2, 4].map(|nthreads| {
        let opts = ContextOptions {
            nthreads: Some(nthreads),
            chunk_size: Some(64),
            ..ContextOptions::default()
        };
        Context::new(&global_context(), Mode::Blocking, opts)
    })
}

fn arrays(m: &Csr<i64>) -> (Vec<usize>, Vec<usize>, Vec<i64>) {
    m.check().unwrap();
    assert!(m.is_rows_sorted());
    (m.indptr().to_vec(), m.indices().to_vec(), m.values().to_vec())
}

#[test]
fn coo_to_csr_folds_duplicates_in_arrival_order_on_every_budget() {
    let second = |_: &i64, b: &i64| *b;
    let base_ten = |a: &i64, b: &i64| a.wrapping_mul(10).wrapping_add(*b);
    let budgets = scatter_budgets();
    for (shape, t) in scatter_cases(0x5CA7) {
        let coo = coo_of(shape, &t);
        for dup in [&second as &(dyn Fn(&i64, &i64) -> i64 + Sync), &base_ten] {
            let one = coo.to_csr(&budgets[0], Some(dup)).unwrap();
            assert_eq!((one.nrows(), one.ncols()), shape);
            assert_eq!(entries(&one), folded(&t, dup));
            let one = arrays(&one);
            for ctx in &budgets[1..] {
                assert_eq!(arrays(&coo.to_csr(ctx, Some(dup)).unwrap()), one);
            }
            assert_eq!(arrays(&coo.clone().into_csr(&budgets[1], Some(dup)).unwrap()), one);
        }
        for ctx in &budgets {
            match (coo.to_csr(ctx, None), first_duplicate(&t)) {
                (Ok(m), None) => assert_eq!(entries(&m), folded(&t, second)),
                (Err(FormatError::Duplicate { row, col }), Some(at)) => {
                    assert_eq!((row, col), at)
                }
                (got, want) => panic!("to_csr without dup: {got:?}, expected {want:?}"),
            }
        }
    }
}

#[test]
fn to_csr_combines_or_rejects_a_duplicated_coordinate() {
    let ctx = global_context();
    let coo = Coo::from_parts(1, 3, vec![0, 0, 0], vec![2, 1, 1], vec![9, 5, 7]).unwrap();
    let a = coo.to_csr(&ctx, Some(&|x: &i32, y: &i32| x + y)).unwrap();
    a.check().unwrap();
    assert_eq!(a.get(0, 1), Some(&12));
    assert_eq!(a.nnz(), 2);
    let err = coo.to_csr(&ctx, None).unwrap_err();
    assert!(matches!(err, FormatError::Duplicate { row: 0, col: 1 }));
}

#[test]
fn transpose_matches_the_oracle_on_every_budget_and_row_order() {
    let budgets = scatter_budgets();
    for (shape, t) in scatter_cases(0x7A45) {
        let a = coo_of(shape, &t).to_csr(&budgets[0], Some(&|_, b| *b)).unwrap();
        let want: Entries = entries(&a).into_iter().map(|((i, j), v)| ((j, i), v)).collect();
        let one = transpose::transpose(&budgets[0], &a);
        assert_eq!((one.nrows(), one.ncols()), (shape.1, shape.0));
        assert_eq!(entries(&one), want);
        let one = arrays(&one);
        // A source with unsorted rows transposes to the same arrays.
        for source in [a.clone(), rows_reversed(&a)] {
            for ctx in &budgets {
                assert_eq!(arrays(&transpose::transpose(ctx, &source)), one);
            }
        }
    }
}

#[test]
fn map_with_index_writes_the_same_arrays_on_every_budget() {
    let budgets = scatter_budgets();
    let f = |i: usize, j: usize, v: &i64| (i * 1000 + j) as i64 * 3 - v;
    let parts = |m: Csr<i64>| {
        m.check().unwrap();
        m.into_parts()
    };
    for (shape, t) in scatter_cases(0x3A9) {
        let a = coo_of(shape, &t).to_csr(&budgets[0], Some(&|_, b| *b)).unwrap();
        let want: Entries = a.iter().map(|(i, j, v)| ((i, j), f(i, j, v))).collect();
        for source in [a.clone(), rows_reversed(&a)] {
            let one = source.map_with_index(&budgets[0], f);
            assert_eq!(entries(&one), want);
            assert_eq!(one.is_rows_sorted(), source.is_rows_sorted());
            let one = parts(one);
            assert_eq!((&one.0[..], &one.1[..]), (source.indptr(), source.indices()));
            for ctx in &budgets[1..] {
                assert_eq!(parts(source.map_with_index(ctx, f)), one);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The vector kernels read an operand as a `VecView`: `Full(v)` and the
// `SparseVec` storing the same `n` entries must be the same operand.
// ---------------------------------------------------------------------

/// One operand of a view-taking kernel: a full value array and the same
/// entries as an index list.
struct Twin<T> {
    full: DenseVec<T>,
    sparse: SparseVec<T>,
}

impl<T: Clone> Twin<T> {
    fn new(values: Vec<T>) -> Self {
        let n = values.len();
        Twin {
            sparse: SparseVec::from_parts(n, (0..n).collect(), values.clone()).unwrap(),
            full: DenseVec::from_values(values),
        }
    }

    /// The operand in both formats, the full one first.
    fn views(&self) -> [VecView<'_, T>; 2] {
        [VecView::Full(&self.full), VecView::Sparse(&self.sparse)]
    }
}

/// A partial operand over `n` positions (sorted, possibly empty).
fn partial<T>(rng: &mut StdRng, n: usize, gen: &impl Fn(&mut StdRng) -> T) -> SparseVec<T> {
    let idx: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..3) == 0).collect();
    let vals = idx.iter().map(|_| gen(rng)).collect();
    SparseVec::from_parts(n, idx, vals).unwrap()
}

/// Every view-taking kernel over every format pair of `(a, b)`, a partial
/// third operand and a value mask: all runs must produce the entries of the
/// all-sparse run, and any full operand must make a union full.
fn full_is_the_dense_corner_of_sparse<T>(
    seed: u64,
    lengths: &[usize],
    gen: impl Fn(&mut StdRng) -> T,
    both: impl Fn(&T, &T) -> T + Copy,
) where
    T: Clone + PartialEq + std::fmt::Debug,
{
    let ctx = global_context();
    let mut rng = StdRng::seed_from_u64(seed);
    for &n in lengths {
        let a = Twin::new((0..n).map(|_| gen(&mut rng)).collect());
        let b = Twin::new((0..n).map(|_| gen(&mut rng)).collect());
        let p = partial(&mut rng, n, &gen);
        // A value mask's truthy set: a third of the positions stored, a
        // third of those falsy.
        let stored = partial(&mut rng, n, &|r: &mut StdRng| r.gen_range(0..3) > 0);
        let mut mask = BitSet::fresh();
        mask.prepare(n);
        stored.iter().filter(|(_, &t)| t).for_each(|(i, _)| mask.insert(i));
        let pv = VecView::Sparse(&p);
        let left = |x: &T| both(x, x);
        let right = |y: &T| y.clone();

        // Two-operand kernels: (full|sparse) × (full|sparse|partial).
        let reference = |x: VecView<'_, T>, y: VecView<'_, T>| {
            (
                ewise::svec_union_general(&ctx, x, y, both, left, right).to_sorted_tuples(),
                ewise::svec_intersect(&ctx, x, y, both).to_sorted_tuples(),
            )
        };
        for (y_sparse, ys) in [(b.views()[1], b.views().to_vec()), (pv, vec![pv])] {
            let (union, overlap) = reference(a.views()[1], y_sparse);
            let (union_rev, overlap_rev) = reference(y_sparse, a.views()[1]);
            for x in a.views() {
                for &y in &ys {
                    let u = ewise::svec_union_general(&ctx, x, y, both, left, right);
                    assert_eq!(u.to_sorted_tuples(), union, "union n={n}");
                    let full_in = matches!(x, VecView::Full(_)) || matches!(y, VecView::Full(_));
                    assert_eq!(matches!(u, VecOut::Full(_)), full_in, "union format n={n}");
                    let i = ewise::svec_intersect(&ctx, x, y, both);
                    assert_eq!(i.to_sorted_tuples(), overlap, "intersect n={n}");
                    // Operand order is the caller's: swap the views, not
                    // the operator's arguments.
                    let u = ewise::svec_union_general(&ctx, y, x, both, left, right);
                    assert_eq!(u.to_sorted_tuples(), union_rev, "union swapped n={n}");
                    let i = ewise::svec_intersect(&ctx, y, x, both);
                    assert_eq!(i.to_sorted_tuples(), overlap_rev, "intersect swapped n={n}");
                    // In place: a full accumulator absorbs either format.
                    if let VecView::Full(d) = x {
                        let mut acc = d.clone();
                        ewise::svec_accumulate(&ctx, &mut acc, y, both);
                        let folded = ewise::svec_union(&ctx, x, y, both);
                        assert_eq!(
                            VecOut::Full(acc).to_sorted_tuples(),
                            folded.to_sorted_tuples(),
                            "accumulate n={n}"
                        );
                    }
                }
            }
        }

        // One-operand kernels and the mask restriction.
        let [full, sparse] = a.views();
        let tag = |i: usize, x: &T| (i, x.clone());
        assert_eq!(
            full.map_with_index(&ctx, tag).to_sorted_tuples(),
            sparse.map_with_index(&ctx, tag).to_sorted_tuples(),
            "map n={n}"
        );
        let odd = |i: usize, x: &T| (i % 2 == 1).then(|| x.clone());
        assert_eq!(
            full.filter_map_with_index(&ctx, odd).to_sorted_tuples(),
            sparse.filter_map_with_index(&ctx, odd).to_sorted_tuples(),
            "filter_map n={n}"
        );
        let fold = |p: T, q: T| both(&p, &q);
        assert_eq!(
            full.reduce(&ctx, T::clone, fold, spmv::Never),
            sparse.reduce(&ctx, T::clone, fold, spmv::Never),
            "reduce n={n}"
        );
        for complement in [false, true] {
            let gathered = ewise::svec_restrict(&ctx, full, &mask, complement);
            let walked = ewise::svec_restrict(&ctx, sparse, &mask, complement);
            gathered.check().unwrap();
            assert_eq!(
                gathered.to_sorted_tuples(),
                walked.to_sorted_tuples(),
                "restrict n={n} complement={complement}"
            );
            let admitted = (0..n).filter(|&i| mask.contains(i) != complement);
            assert!(gathered.indices().iter().copied().eq(admitted), "restrict set n={n}");
            // A partial operand keeps exactly its admitted entries.
            let kept = ewise::svec_restrict(&ctx, pv, &mask, complement);
            let expect = p.iter().filter(|(i, _)| mask.contains(*i) != complement);
            assert!(kept.iter().eq(expect), "restrict partial n={n} complement={complement}");
            // Sized before it is written: no capacity slack in either walk.
            let exact = gathered.nnz() * (size_of::<usize>() + size_of::<T>());
            assert_eq!(gathered.bytes(), exact as u64, "restrict slack n={n}");
            assert_eq!(walked.bytes(), exact as u64, "restrict slack n={n}");
        }
    }
}

#[test]
fn full_view_equals_sparse_view_over_integers() {
    full_is_the_dense_corner_of_sparse(
        0xF011,
        &[1, 2, 7, 64, 65, 200],
        |r| r.gen_range(-20..20i64),
        |x, y| x - 2 * y,
    );
}

#[test]
fn full_view_equals_sparse_view_over_a_heap_allocated_type() {
    // Not `Copy`, not cheap to clone, and concatenation does not commute.
    full_is_the_dense_corner_of_sparse(
        0xF012,
        &[1, 3, 40],
        |r| format!("<{}>", r.gen_range(0..100)),
        |x: &String, y: &String| format!("{x}{y}"),
    );
}

#[test]
fn terminal_reduce_stops_early_in_both_formats() {
    use std::cell::Cell;
    let ctx = global_context();
    for n in [1usize, 9, 130] {
        // `true` at position 0 annihilates LOR: both formats must stop
        // there, having mapped exactly one element.
        let mut values = vec![false; n];
        values[0] = true;
        let twin = Twin::new(values);
        for view in twin.views() {
            let seen = Cell::new(0usize);
            let map = |b: &bool| {
                seen.set(seen.get() + 1);
                *b
            };
            let is_true = |z: &bool| *z;
            let r = view.reduce(&ctx, map, |p, q| p || q, Some(is_true));
            assert_eq!(r, Some(true));
            assert_eq!(seen.get(), 1, "n={n}: early exit");
        }
        // And without a terminal hit the whole vector is folded.
        let twin = Twin::new(vec![false; n]);
        for view in twin.views() {
            let is_true = |z: &bool| *z;
            assert_eq!(
                view.reduce(&ctx, |b| *b, |p, q| p || q, Some(is_true)),
                Some(false)
            );
        }
    }
}

// ---------------------------------------------------------------------
// The pull kernel: one row loop instantiated per frontier format, an early
// exit that is a type. Every format must pull alike, and only a terminal
// that fires may cut a row short.
// ---------------------------------------------------------------------

/// The values the pull property draws from, and the least product two of
/// them make: MIN's annihilator on that domain, so a MIN row that reaches
/// it is done.
const VALUES: [i64; 5] = [-5, -1, 0, 1, 5];
const LEAST: i64 = -25;

fn is_least(z: &i64) -> bool {
    *z == LEAST
}

/// A pull kernel's input vector, in the format the kernel reads it.
enum Frontier<'a> {
    Sparse(&'a SparseVec<i64>),
    Bitmap(&'a BitmapVec<i64>),
    Full(&'a DenseVec<i64>),
}

impl Frontier<'_> {
    fn dense(&self) -> Vec<Option<i64>> {
        match self {
            Frontier::Sparse(s) => {
                let mut d = vec![None; s.len()];
                s.iter().for_each(|(j, &v)| d[j] = Some(v));
                d
            }
            Frontier::Bitmap(b) => (0..b.len()).map(|j| b.get(j).copied()).collect(),
            Frontier::Full(d) => d.values().iter().copied().map(Some).collect(),
        }
    }
}

/// MIN.TIMES pulled by hand over a dense copy of the frontier: the entries,
/// the products a loop makes over every present entry, and the products it
/// makes when it stops each row at `LEAST`.
fn naive_pull(
    a: &Csr<i64>,
    x: &[Option<i64>],
    keep: impl Fn(usize) -> bool,
    post: Option<spmv::FusedMap<'_, i64>>,
) -> (Vec<(usize, i64)>, usize, usize) {
    let (mut out, mut every, mut until_least) = (Vec::new(), 0, 0);
    for i in (0..a.nrows()).filter(|&i| keep(i)) {
        let (cols, vals) = a.row(i);
        let mut acc: Option<i64> = None;
        for (&j, av) in cols.iter().zip(vals) {
            if let Some(xv) = x[j] {
                every += 1;
                until_least += usize::from(acc != Some(LEAST));
                acc = Some(acc.map_or(av * xv, |c| c.min(av * xv)));
            }
        }
        if let Some(v) = acc.and_then(|v| post.map_or(Some(v), |p| p(i, &v))) {
            out.push((i, v));
        }
    }
    (out, every, until_least)
}

/// One pull of `x` under `term` and `keep` with no hooks, a `pre` map and a
/// `post` map in turn, each against [`naive_pull`]. The kernel must make
/// exactly the products the naive loop makes — every one under `Never`,
/// those up to each row's `LEAST` under a terminal. Returns how many
/// products the early exit saved.
fn pull_matches_naive<FT, K>(
    ctx: &Context,
    a: &Csr<i64>,
    x: &Frontier<'_>,
    term: FT,
    keep: K,
) -> usize
where
    FT: spmv::Terminal<i64>,
    K: spmv::OutputFilter,
{
    let calls = AtomicUsize::new(0);
    let mul = |a: &i64, x: &i64| {
        calls.fetch_add(1, Ordering::SeqCst);
        a * x
    };
    let min = |p: i64, q: i64| p.min(q);
    let pre = |j: usize, v: &i64| (j % 3 != 1).then_some(-v);
    let post = |i: usize, v: &i64| (i % 4 != 3).then_some(v + 100);
    let (pre, post): (spmv::FusedMap<'_, i64>, spmv::FusedMap<'_, i64>) = (&pre, &post);
    let maps = [(None, None), (Some(pre), None), (None, Some(post))];
    let mut saved = 0;
    for (pre, post) in maps {
        calls.store(0, Ordering::SeqCst);
        let hooks = spmv::Hooks { pre, post, keep };
        let got = match *x {
            Frontier::Sparse(s) => spmv::spmv_fused(ctx, a, s, mul, min, term, hooks),
            Frontier::Bitmap(b) => spmv::spmv_bitmap_fused(ctx, a, b, mul, min, term, hooks),
            Frontier::Full(d) => spmv::spmv_full_fused(ctx, a, d, mul, min, term, hooks),
        };
        let input: Vec<Option<i64>> = x
            .dense()
            .into_iter()
            .enumerate()
            .map(|(j, v)| v.and_then(|v| pre.map_or(Some(v), |f| f(j, &v))))
            .collect();
        let (expect, every, until_least) = naive_pull(a, &input, |i| keep.allows(i), post);
        assert_eq!(got.to_sorted_tuples(), expect);
        let made = calls.load(Ordering::SeqCst);
        assert_eq!(made, if FT::NEVER { every } else { until_least });
        saved += every - made;
    }
    saved
}

#[test]
fn every_frontier_format_pulls_alike_and_stops_where_it_should() {
    let budget = |nthreads| {
        let opts = ContextOptions {
            nthreads: Some(nthreads),
            chunk_size: Some(1),
            ..ContextOptions::default()
        };
        Context::new(&global_context(), Mode::Blocking, opts)
    };
    let contexts = [budget(1), budget(2)];
    let mut rng = StdRng::seed_from_u64(0xF013);
    let value = |rng: &mut StdRng| VALUES[rng.gen_range(0..VALUES.len())];
    let (m, n) = (13, 9);
    let mut saved = 0;
    for _ in 0..CASES / 4 {
        let a: Entries = (0..rng.gen_range(0..60usize))
            .map(|_| ((rng.gen_range(0..m), rng.gen_range(0..n)), value(&mut rng)))
            .collect();
        let a = csr((m, n), &a);
        let full = Twin::new((0..n).map(|_| value(&mut rng)).collect());
        let part = partial(&mut rng, n, &value);
        let bitmaps = [
            BitmapVec::from_svec(&part),
            BitmapVec::from_svec(&full.sparse),
        ];
        let frontiers = [
            Frontier::Sparse(&part),
            Frontier::Bitmap(&bitmaps[0]),
            Frontier::Full(&full.full),
            // A sparse-format vector storing every position is read as full.
            Frontier::Sparse(&full.sparse),
            Frontier::Bitmap(&bitmaps[1]),
        ];
        let rows = |i: usize| !i.is_multiple_of(3);
        for ctx in &contexts {
            for x in &frontiers {
                pull_matches_naive(ctx, &a, x, spmv::Never, spmv::Unmasked);
                pull_matches_naive(ctx, &a, x, spmv::Never, rows);
                saved += pull_matches_naive(ctx, &a, x, Some(is_least), spmv::Unmasked);
                saved += pull_matches_naive(ctx, &a, x, Some(is_least), rows);
            }
        }
    }
    assert!(
        saved > 0,
        "the terminal never fired: the early exit went untested"
    );
}
