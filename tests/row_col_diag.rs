//! Coverage for the remaining C-API method families: `GrB_Row_assign`,
//! `GrB_Col_assign`, `GrB_Matrix_diag`, and the vector forms of the
//! bound-binary `apply` variants (Table II).

use graphblas::operations::{
    all_indices, apply_binop1st_v, apply_binop1st_v_scalar, apply_binop2nd_v,
    apply_binop2nd_v_scalar, assign_col, assign_row, assign_v,
};
use graphblas::{
    no_mask_v, BinaryOp, Descriptor, Index, Matrix, Scalar, Vector,
};

fn matrix(shape: (usize, usize), t: &[(usize, usize, i64)]) -> Matrix<i64> {
    let m = Matrix::<i64>::new(shape.0, shape.1).unwrap();
    m.build(
        &t.iter().map(|x| x.0).collect::<Vec<_>>(),
        &t.iter().map(|x| x.1).collect::<Vec<_>>(),
        &t.iter().map(|x| x.2).collect::<Vec<_>>(),
        None,
    )
    .unwrap();
    m
}

fn tuples(m: &Matrix<i64>) -> Vec<(Index, Index, i64)> {
    let (r, c, v) = m.extract_tuples().unwrap();
    r.into_iter().zip(c).zip(v).map(|((i, j), x)| (i, j, x)).collect()
}

#[test]
fn row_assign_replaces_the_row_segment() {
    let c = matrix((3, 3), &[(1, 0, 1), (1, 2, 2), (0, 0, 9)]);
    let u = Vector::<i64>::new(3).unwrap();
    u.build(&[1], &[50], None).unwrap();
    // Row 1, all columns: u has only index 1 → (1,0) and (1,2) deleted,
    // (1,1) becomes 50. Row 0 untouched.
    assign_row(&c, no_mask_v(), None, &u, 1, &all_indices(3), &Descriptor::default()).unwrap();
    assert_eq!(tuples(&c), vec![(0, 0, 9), (1, 1, 50)]);
}

#[test]
fn row_assign_with_accum_and_column_subset() {
    let c = matrix((2, 4), &[(0, 1, 10), (0, 3, 30)]);
    let u = Vector::<i64>::new(2).unwrap();
    u.build(&[0, 1], &[1, 3], None).unwrap();
    // Columns {1, 3} of row 0, accumulated.
    assign_row(
        &c,
        no_mask_v(),
        Some(&BinaryOp::plus()),
        &u,
        0,
        &[1, 3],
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(tuples(&c), vec![(0, 1, 11), (0, 3, 33)]);
}

#[test]
fn row_assign_masked_only_touches_masked_columns() {
    let c = matrix((2, 3), &[(0, 0, 1), (0, 1, 2), (1, 1, 7)]);
    let u = Vector::<i64>::new(3).unwrap();
    u.build(&[0, 1, 2], &[100, 200, 300], None).unwrap();
    let mask = Vector::<bool>::new(3).unwrap();
    mask.set_element(true, 1).unwrap();
    assign_row(
        &c,
        Some(&mask),
        None,
        &u,
        0,
        &all_indices(3),
        &Descriptor::default(),
    )
    .unwrap();
    // Only column 1 of row 0 writable; column 0 keeps old; other rows
    // untouched.
    assert_eq!(tuples(&c), vec![(0, 0, 1), (0, 1, 200), (1, 1, 7)]);
}

/// The mask and `replace` of a row/column assign are scoped to the line:
/// under every descriptor the line ends up as `assign_v` leaves the same
/// vector, and no position off the line changes.
#[test]
fn line_assign_is_a_vector_assign_on_the_line_and_leaves_the_rest_alone() {
    let (nrows, ncols) = (4, 5);
    // Holes at (i + j) % 4 == 3, so the line has entries to keep and gaps.
    let old: Vec<(Index, Index, i64)> = (0..nrows)
        .flat_map(|i| (0..ncols).map(move |j| (i, j, (10 * i + j + 1) as i64)))
        .filter(|&(i, j, _)| (i + j) % 4 != 3)
        .collect();
    for row in [true, false] {
        let (line, len) = if row { (2, ncols) } else { (3, nrows) };
        let on_line = |i: Index, j: Index| line == if row { i } else { j };
        let sel: Vec<Index> = vec![len - 1, 0, 2];
        let u = Vector::<i64>::new(sel.len()).unwrap();
        u.build(&[0, 2], &[500, 700], None).unwrap();
        // Position 0 is stored `false`, 1 absent, 2 and the last `true`.
        let mask = Vector::<bool>::new(len).unwrap();
        mask.build(&[0, 2, len - 1], &[false, true, true], None)
            .unwrap();
        for bits in 0..32 {
            let flag = |b: u32| bits >> b & 1 == 1;
            let mut desc = Descriptor::new();
            if flag(0) {
                desc = desc.structure_mask();
            }
            if flag(1) {
                desc = desc.complement_mask();
            }
            if flag(2) {
                desc = desc.replace();
            }
            let accum = flag(3).then(BinaryOp::plus);
            let mask = flag(4).then_some(&mask);
            let label = format!("row={row} bits={bits:05b}");

            let w = Vector::<i64>::new(len).unwrap();
            for &(i, j, x) in old.iter().filter(|t| on_line(t.0, t.1)) {
                w.set_element(x, if row { j } else { i }).unwrap();
            }
            assign_v(&w, mask, accum.as_ref(), &u, &sel, &desc).unwrap();
            let (at, vals) = w.extract_tuples().unwrap();
            let mut expect: Vec<_> = old
                .iter()
                .copied()
                .filter(|t| !on_line(t.0, t.1))
                .chain(at.into_iter().zip(vals).map(|(k, x)| {
                    let (i, j) = if row { (line, k) } else { (k, line) };
                    (i, j, x)
                }))
                .collect();
            expect.sort();

            let c = matrix((nrows, ncols), &old);
            if row {
                assign_row(&c, mask, accum.as_ref(), &u, line, &sel, &desc).unwrap();
            } else {
                assign_col(&c, mask, accum.as_ref(), &u, &sel, line, &desc).unwrap();
            }
            assert_eq!(tuples(&c), expect, "{label}");
        }
    }
}

#[test]
fn col_assign_mirrors_row_assign() {
    let c = matrix((3, 3), &[(0, 1, 1), (2, 1, 3), (0, 0, 9)]);
    let u = Vector::<i64>::new(3).unwrap();
    u.build(&[2], &[70], None).unwrap();
    assign_col(&c, no_mask_v(), None, &u, &all_indices(3), 1, &Descriptor::default()).unwrap();
    assert_eq!(tuples(&c), vec![(0, 0, 9), (2, 1, 70)]);
}

#[test]
fn col_assign_bounds_and_shape_checks() {
    let c = Matrix::<i64>::new(2, 2).unwrap();
    let u = Vector::<i64>::new(2).unwrap();
    assert!(assign_col(&c, no_mask_v(), None, &u, &[0, 1], 5, &Descriptor::default()).is_err());
    let short = Vector::<i64>::new(1).unwrap();
    assert!(
        assign_col(&c, no_mask_v(), None, &short, &[0, 1], 0, &Descriptor::default()).is_err()
    );
    assert!(assign_row(&c, no_mask_v(), None, &u, 9, &[0, 1], &Descriptor::default()).is_err());
}

#[test]
fn diag_constructs_shifted_diagonals() {
    let v = Vector::<i64>::new(3).unwrap();
    v.build(&[0, 2], &[5, 7], None).unwrap();
    let main = Matrix::diag(&v, 0).unwrap();
    assert_eq!((main.nrows(), main.ncols()), (3, 3));
    assert_eq!(tuples(&main), vec![(0, 0, 5), (2, 2, 7)]);
    let upper = Matrix::diag(&v, 2).unwrap();
    assert_eq!((upper.nrows(), upper.ncols()), (5, 5));
    assert_eq!(tuples(&upper), vec![(0, 2, 5), (2, 4, 7)]);
    let lower = Matrix::diag(&v, -1).unwrap();
    assert_eq!((lower.nrows(), lower.ncols()), (4, 4));
    assert_eq!(tuples(&lower), vec![(1, 0, 5), (3, 2, 7)]);
}

#[test]
fn vector_bound_binop_apply_variants() {
    let u = Vector::<i64>::new(3).unwrap();
    u.build(&[0, 2], &[10, 20], None).unwrap();
    let w = Vector::<i64>::new(3).unwrap();
    apply_binop1st_v(&w, no_mask_v(), None, &BinaryOp::minus(), 100, &u, &Descriptor::default())
        .unwrap();
    let (idx, vals) = w.extract_tuples().unwrap();
    assert_eq!((idx, vals), (vec![0, 2], vec![90, 80]));
    apply_binop2nd_v(&w, no_mask_v(), None, &BinaryOp::minus(), &u, 1, &Descriptor::default())
        .unwrap();
    let (_, vals) = w.extract_tuples().unwrap();
    assert_eq!(vals, vec![9, 19]);
    // Scalar variants, including the empty-scalar error.
    let s = Scalar::<i64>::new().unwrap();
    assert_eq!(
        apply_binop1st_v_scalar(
            &w,
            no_mask_v(),
            None,
            &BinaryOp::plus(),
            &s,
            &u,
            &Descriptor::default()
        )
        .unwrap_err()
        .code(),
        -106
    );
    s.set_element(3).unwrap();
    apply_binop1st_v_scalar(&w, no_mask_v(), None, &BinaryOp::plus(), &s, &u, &Descriptor::default())
        .unwrap();
    let (_, vals) = w.extract_tuples().unwrap();
    assert_eq!(vals, vec![13, 23]);
    apply_binop2nd_v_scalar(&w, no_mask_v(), None, &BinaryOp::times(), &u, &s, &Descriptor::default())
        .unwrap();
    let (_, vals) = w.extract_tuples().unwrap();
    assert_eq!(vals, vec![30, 60]);
}
