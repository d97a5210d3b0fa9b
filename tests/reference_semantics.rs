//! Randomized cross-validation: GraphBLAS operations against naive
//! reference implementations over `BTreeMap`, through the public API
//! only. These are the "does the algebra hold" tests; inputs come from
//! the deterministic `graphblas_exec::rng` generator.

use std::collections::BTreeMap;

use graphblas::operations::{ewise_add, ewise_mult, mxm, mxv, reduce_to_value, transpose};
use graphblas::{
    no_mask, no_mask_v, BinaryOp, Descriptor, Index, Matrix, Monoid, Semiring, Vector,
};
use graphblas_exec::rng::prelude::*;

const CASES: usize = 48;

type Entries = BTreeMap<(Index, Index), i64>;

fn to_matrix(shape: (usize, usize), entries: &Entries) -> Matrix<i64> {
    let m = Matrix::<i64>::new(shape.0, shape.1).unwrap();
    let rows: Vec<_> = entries.keys().map(|k| k.0).collect();
    let cols: Vec<_> = entries.keys().map(|k| k.1).collect();
    let vals: Vec<_> = entries.values().copied().collect();
    m.build(&rows, &cols, &vals, None).unwrap();
    m
}

fn to_entries(m: &Matrix<i64>) -> Entries {
    let (r, c, v) = m.extract_tuples().unwrap();
    r.into_iter().zip(c).zip(v).collect()
}

fn random_entries(rng: &mut StdRng, rows: usize, cols: usize) -> Entries {
    (0..rng.gen_range(0..40usize))
        .map(|_| {
            (
                (rng.gen_range(0..rows), rng.gen_range(0..cols)),
                rng.gen_range(-50..50i64),
            )
        })
        .collect()
}

#[test]
fn mxm_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x3A71);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 12, 9);
        let b = random_entries(&mut rng, 9, 11);
        let am = to_matrix((12, 9), &a);
        let bm = to_matrix((9, 11), &b);
        let cm = Matrix::<i64>::new(12, 11).unwrap();
        mxm(
            &cm,
            no_mask(),
            None,
            &Semiring::plus_times(),
            &am,
            &bm,
            &Descriptor::default(),
        )
        .unwrap();
        let mut expect: Entries = BTreeMap::new();
        for (&(i, k), &av) in &a {
            for (&(k2, j), &bv) in &b {
                if k == k2 {
                    *expect.entry((i, j)).or_insert(0) += av * bv;
                }
            }
        }
        assert_eq!(to_entries(&cm), expect);
    }
}

#[test]
fn mxm_transpose_flags_match_explicit_transpose() {
    let mut rng = StdRng::seed_from_u64(0x7F1A);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 8, 8);
        let b = random_entries(&mut rng, 8, 8);
        let am = to_matrix((8, 8), &a);
        let bm = to_matrix((8, 8), &b);
        // C1 = Aᵀ·B via descriptor.
        let c1 = Matrix::<i64>::new(8, 8).unwrap();
        mxm(
            &c1,
            no_mask(),
            None,
            &Semiring::plus_times(),
            &am,
            &bm,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        // C2 = T·B with T = transpose(A) materialized.
        let t = Matrix::<i64>::new(8, 8).unwrap();
        transpose(&t, no_mask(), None, &am, &Descriptor::default()).unwrap();
        let c2 = Matrix::<i64>::new(8, 8).unwrap();
        mxm(
            &c2,
            no_mask(),
            None,
            &Semiring::plus_times(),
            &t,
            &bm,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(to_entries(&c1), to_entries(&c2));
    }
}

#[test]
fn ewise_add_is_union_with_op_on_overlap() {
    let mut rng = StdRng::seed_from_u64(0xEA0D);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 10, 10);
        let b = random_entries(&mut rng, 10, 10);
        let am = to_matrix((10, 10), &a);
        let bm = to_matrix((10, 10), &b);
        let cm = Matrix::<i64>::new(10, 10).unwrap();
        ewise_add(
            &cm,
            no_mask(),
            None,
            &BinaryOp::plus(),
            &am,
            &bm,
            &Descriptor::default(),
        )
        .unwrap();
        let mut expect = a.clone();
        for (k, v) in &b {
            *expect.entry(*k).or_insert(0) += v;
        }
        assert_eq!(to_entries(&cm), expect);
    }
}

#[test]
fn ewise_mult_is_intersection() {
    let mut rng = StdRng::seed_from_u64(0xE301);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 10, 10);
        let b = random_entries(&mut rng, 10, 10);
        let am = to_matrix((10, 10), &a);
        let bm = to_matrix((10, 10), &b);
        let cm = Matrix::<i64>::new(10, 10).unwrap();
        ewise_mult(
            &cm,
            no_mask(),
            None,
            &BinaryOp::times(),
            &am,
            &bm,
            &Descriptor::default(),
        )
        .unwrap();
        let expect: Entries = a
            .iter()
            .filter_map(|(k, va)| b.get(k).map(|vb| (*k, va * vb)))
            .collect();
        assert_eq!(to_entries(&cm), expect);
    }
}

#[test]
fn masked_write_semantics() {
    let mut rng = StdRng::seed_from_u64(0x3A5C);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 8, 8);
        let b = random_entries(&mut rng, 8, 8);
        let mask = random_entries(&mut rng, 8, 8);
        let complement = rng.gen_bool(0.5);
        let replace = rng.gen_bool(0.5);
        // C⟨M, r⟩ = A ⊕ B against a hand-rolled reference of the
        // four-step write rule (structure mask).
        let am = to_matrix((8, 8), &a);
        let bm = to_matrix((8, 8), &b);
        let maskm = to_matrix((8, 8), &mask);
        let old: Entries = b.clone(); // prime C with b's entries
        let cm = to_matrix((8, 8), &old);
        let mut desc = Descriptor::new().structure_mask();
        if complement {
            desc = desc.complement_mask();
        }
        if replace {
            desc = desc.replace();
        }
        ewise_add(&cm, Some(&maskm), None, &BinaryOp::plus(), &am, &bm, &desc).unwrap();

        let mut t: Entries = a.clone();
        for (k, v) in &b {
            *t.entry(*k).or_insert(0) += v;
        }
        let in_mask = |k: &(Index, Index)| mask.contains_key(k) != complement;
        let mut expect: Entries = BTreeMap::new();
        for (k, v) in &t {
            if in_mask(k) {
                expect.insert(*k, *v);
            }
        }
        if !replace {
            for (k, v) in &old {
                if !in_mask(k) {
                    expect.insert(*k, *v);
                }
            }
        }
        assert_eq!(to_entries(&cm), expect);
    }
}

#[test]
fn accum_folds_old_and_new() {
    let mut rng = StdRng::seed_from_u64(0xACC0);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 8, 8);
        let c0 = random_entries(&mut rng, 8, 8);
        let am = to_matrix((8, 8), &a);
        let cm = to_matrix((8, 8), &c0);
        // C += A (identity apply with PLUS accumulator).
        graphblas::operations::apply(
            &cm,
            no_mask(),
            Some(&BinaryOp::plus()),
            &graphblas::UnaryOp::identity(),
            &am,
            &Descriptor::default(),
        )
        .unwrap();
        let mut expect = c0.clone();
        for (k, v) in &a {
            *expect.entry(*k).or_insert(0) += v;
        }
        assert_eq!(to_entries(&cm), expect);
    }
}

#[test]
fn reduce_total_matches_sum() {
    let mut rng = StdRng::seed_from_u64(0x12ED);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 15, 15);
        let am = to_matrix((15, 15), &a);
        let total = reduce_to_value(&Monoid::plus(), &am).unwrap();
        assert_eq!(total, a.values().sum::<i64>());
    }
}

#[test]
fn mxv_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x33C5);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 10, 7);
        let x: BTreeMap<usize, i64> = (0..rng.gen_range(0..7usize))
            .map(|_| (rng.gen_range(0..7usize), rng.gen_range(-20..20i64)))
            .collect();
        let am = to_matrix((10, 7), &a);
        let xv = Vector::<i64>::new(7).unwrap();
        let idx: Vec<_> = x.keys().copied().collect();
        let vals: Vec<_> = x.values().copied().collect();
        xv.build(&idx, &vals, None).unwrap();
        let w = Vector::<i64>::new(10).unwrap();
        mxv(
            &w,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &am,
            &xv,
            &Descriptor::default(),
        )
        .unwrap();
        let mut expect: BTreeMap<Index, i64> = BTreeMap::new();
        for (&(i, j), &av) in &a {
            if let Some(&xj) = x.get(&j) {
                *expect.entry(i).or_insert(0) += av * xj;
            }
        }
        let (wi, wv) = w.extract_tuples().unwrap();
        let got: BTreeMap<Index, i64> = wi.into_iter().zip(wv).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn serialization_roundtrip_property() {
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 9, 13);
        let am = to_matrix((9, 13), &a);
        let back = Matrix::<i64>::deserialize(&am.serialize().unwrap()).unwrap();
        assert_eq!(to_entries(&back), a);
    }
}

#[test]
fn import_export_roundtrip_all_formats() {
    use graphblas::Format;
    let mut rng = StdRng::seed_from_u64(0x13F0);
    for _ in 0..CASES {
        let a = random_entries(&mut rng, 6, 6);
        let am = to_matrix((6, 6), &a);
        for fmt in [Format::Csr, Format::Csc, Format::Coo] {
            let (p, i, v) = am.export(fmt).unwrap();
            let back =
                Matrix::<i64>::import(6, 6, fmt, Some(p.clone()), Some(i.clone()), v.clone())
                    .unwrap();
            assert_eq!(to_entries(&back), a.clone());
            if fmt != Format::Coo {
                // The same matrix with every row (CSR) or column (CSC)
                // stored in reverse order.
                let (mut i, mut v) = (i, v);
                for w in p.windows(2) {
                    i[w[0]..w[1]].reverse();
                    v[w[0]..w[1]].reverse();
                }
                let back = Matrix::<i64>::import(6, 6, fmt, Some(p), Some(i), v).unwrap();
                assert_eq!(to_entries(&back), a.clone(), "{fmt:?}, unsorted");
            }
        }
        // The dense formats, on `a` with every missing entry filled in.
        let full: Entries = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|k| {
                (
                    k,
                    a.get(&k)
                        .copied()
                        .unwrap_or(100 + 6 * k.0 as i64 + k.1 as i64),
                )
            })
            .collect();
        let fm = to_matrix((6, 6), &full);
        for fmt in [Format::DenseRow, Format::DenseCol] {
            let (_, _, v) = fm.export(fmt).unwrap();
            let back = Matrix::<i64>::import(6, 6, fmt, None, None, v).unwrap();
            assert_eq!(to_entries(&back), full, "{fmt:?}");
        }
    }
}
