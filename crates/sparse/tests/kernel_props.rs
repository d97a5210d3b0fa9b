//! Randomized property tests for the sparse kernels against naive
//! references — structure-level guarantees every higher layer depends on.
//! Inputs come from the deterministic `graphblas_exec::rng` generator, so
//! every run exercises the same (broad) case set.

use std::collections::BTreeMap;

use graphblas_exec::rng::prelude::*;
use graphblas_exec::{global_context, Context, ContextOptions, Mode};
use graphblas_sparse::{ewise, kron, spgemm, spmv, transpose, Coo, Csr, SparseVec};

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
