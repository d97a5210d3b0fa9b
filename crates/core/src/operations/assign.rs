//! `GrB_assign`: writes a matrix/vector/scalar into a region `C(I, J)` of
//! a larger container, under the usual mask/accumulator/replace semantics
//! (the mask has the shape of the *whole* output, as in `GrB_assign`, not
//! the subassign variant).
//!
//! `T` here is "the old `C` with the region spliced in": the accumulator
//! folds old values *inside the region* while `T` is built, and the write
//! rule then applies the mask over all of `C` without one.
//!
//! Table II adds the `GrB_Scalar` forms (`assign_scalar_grb` /
//! `assign_scalar_v_grb`); per the 2.0 uniformity rules an *empty* scalar
//! argument is a `GrB_EMPTY_OBJECT` execution error.

use std::sync::Arc;

use graphblas_exec::Context;
use graphblas_sparse::{ewise, Coo, Csr, DenseVec, SparseVec, VecOut};

use crate::descriptor::Descriptor;
use crate::error::{ApiError, Error, ExecErrorKind, GrbResult};
use crate::matrix::{Matrix, MatrixState};
use crate::operations::{all_indices, eff_shape, is_all, snapshot_operand, Accum, Exec, Op};
use crate::ops::BinaryOp;
use crate::pending::NodeKind;
use crate::scalar::Scalar;
use crate::types::{Index, MaskValue, ValueType};
use crate::vector::{Vector, VectorState};
use crate::write::{MaskSource, MatMask};

/// Validates selector arrays against a bound; OOB entries are data, hence
/// execution errors.
fn check_selectors(sel: &[Index], bound: usize, axis: &str) -> GrbResult {
    if let Some(&bad) = sel.iter().find(|&&i| i >= bound) {
        return Err(Error::exec(
            ExecErrorKind::IndexOutOfBounds,
            format!("assign: {axis} selector {bad} out of bounds ({bound})"),
        ));
    }
    Ok(())
}

/// Membership flags over `0..n` of a (checked) selector list.
fn flags(sel: &[Index], n: usize) -> Vec<bool> {
    let mut inside = vec![false; n];
    for &i in sel {
        inside[i] = true;
    }
    inside
}

/// The matrix region step: the old `C` with region `rows × cols` replaced
/// by `tuples`, which are already in `C` coordinates (duplicate targets
/// resolve last-wins; the spec leaves duplicates undefined). `accum` folds
/// the region's old values into them.
fn splice_m<T: ValueType>(
    x: &mut Exec<'_, MatrixState<T>>,
    (rows, cols): (&[Index], &[Index]),
    (tr, tc, tv): (Vec<Index>, Vec<Index>, Vec<T>),
    accum: Accum<'_, T>,
) -> GrbResult<Csr<T>> {
    let (ctx, nrows, ncols) = (x.ctx, x.st.nrows, x.st.ncols);
    check_selectors(rows, nrows, "row")?;
    check_selectors(cols, ncols, "column")?;
    let (row_in, col_in) = (flags(rows, nrows), flags(cols, ncols));
    let second = |_: &T, b: &T| b.clone();
    let mapped = Coo::from_parts(nrows, ncols, tr, tc, tv)
        .map_err(Error::from)?
        .to_csr(ctx, Some(&second))
        .map_err(Error::from)?;
    x.st.ensure_csr(ctx, true)?;
    let old = x.st.csr();
    let part = |inside: bool| {
        old.filter_map_with_index(ctx, |i, j, v| {
            ((row_in[i] && col_in[j]) == inside).then(|| v.clone())
        })
    };
    let region = match accum {
        None => mapped,
        Some(op) => ewise::ewise_union(ctx, &part(true), &mapped, |x, y| op.apply(x, y)),
    };
    Ok(ewise::ewise_union(ctx, &part(false), &region, |x, _| {
        x.clone()
    }))
}

/// Vector form of [`splice_m`]: the old `w` with region `sel` replaced by
/// the entries `(at, values)`.
fn splice_v<T: ValueType>(
    x: &mut Exec<'_, VectorState<T>>,
    sel: &[Index],
    (at, values): (Vec<Index>, Vec<T>),
    accum: Accum<'_, T>,
) -> GrbResult<VecOut<T>> {
    let (ctx, n) = (x.ctx, x.st.n);
    check_selectors(sel, n, "index")?;
    let in_region = flags(sel, n);
    let mut mapped = SparseVec::from_parts(n, at, values).map_err(Error::from)?;
    mapped
        .sort_dedup(Some(&|_: &T, b: &T| b.clone()))
        .map_err(Error::from)?;
    x.st.ensure_sparse()?;
    let old = x.st.sparse();
    let part = |inside: bool| {
        old.filter_map_with_index(|i, v| (in_region[i] == inside).then(|| v.clone()))
    };
    let region = match accum {
        None => mapped.into(),
        Some(op) => {
            let folded = |x: &T, y: &T| op.apply(x, y);
            ewise::svec_union(ctx, (&part(true)).into(), (&mapped).into(), folded)
        }
    };
    let outside = part(false);
    let keep = |x: &T, _: &T| x.clone();
    Ok(ewise::svec_union(
        ctx,
        (&outside).into(),
        region.view(),
        keep,
    ))
}

/// `C⟨M, r⟩(I, J) = C(I, J) ⊙ A`.
pub fn assign<T, M>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    a: &Matrix<T>,
    rows: &[Index],
    cols: &[Index],
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.assign", &c.core, mask, desc)?;
    a.check_context(&call.ctx)?;
    if eff_shape(a, desc.transpose_a) != (rows.len(), cols.len()) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, desc.transpose_a, true)?;
    let (rows, cols, accum) = (rows.to_vec(), cols.to_vec(), accum.cloned());
    call.run(NodeKind::Assign, None, a_s.nnz(), move |x| {
        let (ar, ac, av) = a_s.tuples();
        let tr = ar.into_iter().map(|i| rows[i]).collect();
        let tc = ac.into_iter().map(|j| cols[j]).collect();
        splice_m(x, (&rows, &cols), (tr, tc, av), accum.as_ref())
    })
}

/// `w⟨m, r⟩(I) = w(I) ⊙ u`.
pub fn assign_v<T, M>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    u: &Vector<T>,
    indices: &[Index],
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.assign_v", &w.core, mask, desc)?;
    u.check_context(&call.ctx)?;
    if u.size() != indices.len() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let (sel, accum) = (indices.to_vec(), accum.cloned());
    call.run(NodeKind::Assign, None, u_s.nnz(), move |x| {
        let at = u_s.iter().map(|(k, _)| sel[k]).collect();
        splice_v(x, &sel, (at, u_s.values().to_vec()), accum.as_ref())
    })
}

/// Both scalar-into-matrix-region entries.
fn assign_scalar_m<T: ValueType>(
    call: Op<'_, MatrixState<T>>,
    accum: Accum<'_, T>,
    value: T,
    rows: &[Index],
    cols: &[Index],
) -> GrbResult {
    let (nrows, ncols) = call.shape();
    let list = |sel: &[Index], n: usize| if is_all(sel) { all_indices(n) } else { sel.to_vec() };
    let (rows, cols, accum) = (list(rows, nrows), list(cols, ncols), accum.cloned());
    call.run(NodeKind::Assign, None, rows.len() * cols.len(), move |x| {
        let cells = rows.iter().flat_map(|&i| cols.iter().map(move |&j| (i, j)));
        let (tr, tc): (Vec<_>, Vec<_>) = cells.unzip();
        let tv = vec![value; tr.len()];
        splice_m(x, (&rows, &cols), (tr, tc, tv), accum.as_ref())
    })
}

/// Both scalar-into-vector-region entries.
///
/// With the identity selector — [`ALL`](crate::operations::ALL), known by
/// its address, or an explicit `0..n`, proved entry by entry — the region
/// is all of `w`, so `T` is the scalar wherever the mask can admit it and
/// goes through the whole write rule, accumulator included; the general
/// path's selector copy and n-long region vectors are never built. Under a
/// non-complemented mask — the `levels⟨frontier⟩ = depth` idiom of every
/// BFS level — the mask alone bounds the write and `T` is the scalar on its
/// set bits; otherwise `T` is the constant *full* vector, written over a
/// full `w`'s own buffer when nothing else reads the old values.
fn assign_scalar_vec<T: ValueType>(
    call: Op<'_, VectorState<T>>,
    accum: Accum<'_, T>,
    value: T,
    indices: &[Index],
) -> GrbResult {
    let n = call.shape();
    let whole = is_all(indices)
        || (indices.len() == n && indices.iter().enumerate().all(|(k, &i)| k == i));
    let mask_bounded = whole && call.masked() && !call.desc.mask_complement;
    let overwrite = whole && !call.masked() && accum.is_none();
    // The whole-vector paths never read the selectors.
    let sel = if whole { Vec::new() } else { indices.to_vec() };
    let region_accum = accum.cloned();
    let rule_accum = accum.filter(|_| whole);
    let nnz_in = if whole { n } else { indices.len() };
    call.run(NodeKind::Assign, rule_accum, nnz_in, move |x| {
        if !whole {
            let values = vec![value; sel.len()];
            return splice_v(x, &sel, (sel.clone(), values), region_accum.as_ref());
        }
        if let Some(m) = x.mask.filter(|_| mask_bounded) {
            let (at, values) = (m.bits.iter().collect(), vec![value; m.truthy]);
            let t = SparseVec::from_parts(x.st.n, at, values).map_err(Error::from)?;
            return Ok(t.into());
        }
        let reused = if overwrite { x.st.take_full() } else { None };
        Ok(VecOut::Full(match reused {
            Some(mut old) => {
                old.values_mut().fill(value);
                old
            }
            None => DenseVec::from_values(vec![value; x.st.n]),
        }))
    })
}

/// `C⟨M, r⟩(I, J) = C(I, J) ⊙ s` — fills *every* position of the region
/// with the scalar value.
pub fn assign_scalar<T, M>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    value: T,
    rows: &[Index],
    cols: &[Index],
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.assign_scalar", &c.core, mask, desc)?;
    assign_scalar_m(call, accum, value, rows, cols)
}

/// Table II form of [`assign_scalar`] with a `GrB_Scalar` argument.
pub fn assign_scalar_grb<T, M>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    s: &Scalar<T>,
    rows: &[Index],
    cols: &[Index],
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.assign_scalar_grb", &c.core, mask, desc)?;
    assign_scalar_m(call, accum, s.value()?, rows, cols)
}

/// `w⟨m, r⟩(I) = w(I) ⊙ s`.
pub fn assign_scalar_v<T, M>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    value: T,
    indices: &[Index],
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.assign_scalar_v", &w.core, mask, desc)?;
    assign_scalar_vec(call, accum, value, indices)
}

/// Table II form of [`assign_scalar_v`] with a `GrB_Scalar` argument.
pub fn assign_scalar_v_grb<T, M>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    s: &Scalar<T>,
    indices: &[Index],
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.assign_scalar_v_grb", &w.core, mask, desc)?;
    assign_scalar_vec(call, accum, s.value()?, indices)
}

/// The vector mask of `GrB_Row_assign` (`row`) / `GrB_Col_assign`, as a mask
/// over the whole matrix. The C spec scopes the mask — and `replace` — to
/// row/column `line`: positions off it are untouched whatever the
/// descriptor says.
struct LineMask<'a, M: MaskValue> {
    mask: &'a Vector<M>,
    row: bool,
    line: Index,
}

impl<M: MaskValue> LineMask<'_, M> {
    /// Position `k` along the line, in matrix coordinates.
    fn at(&self, k: Index) -> (Index, Index) {
        if self.row {
            (self.line, k)
        } else {
            (k, self.line)
        }
    }
}

impl<T: ValueType, M: MaskValue> MaskSource<MatrixState<T>> for LineMask<'_, M> {
    fn check(&self, ctx: &Context, &(nrows, ncols): &(Index, Index)) -> GrbResult {
        let len = if self.row { ncols } else { nrows };
        MaskSource::<VectorState<T>>::check(self.mask, ctx, &len)
    }

    /// The snapshot holds the line's *forbidden* positions and is always
    /// complemented, so every position off the line is admitted. There `T`
    /// equals the old `C`, and writing it back is the identity under
    /// either value of `replace`.
    fn snapshot(
        &self,
        ctx: &Context,
        &(nrows, ncols): &(Index, Index),
        desc: &Descriptor,
    ) -> GrbResult<MatMask> {
        let len = if self.row { ncols } else { nrows };
        let vm = MaskSource::<VectorState<T>>::snapshot(self.mask, ctx, &len, desc)?;
        let forbidden: Vec<Index> = if vm.complement {
            vm.bits.iter().collect()
        } else {
            (0..len).filter(|&k| !vm.bits.contains(k)).collect()
        };
        let (r, c) = forbidden.iter().map(|&k| self.at(k)).unzip();
        let lifted = Coo::from_parts(nrows, ncols, r, c, vec![true; forbidden.len()])
            .map_err(Error::from)?
            .to_csr(ctx, None)
            .map_err(Error::from)?;
        Ok(MatMask {
            mask: Arc::new(lifted),
            complement: true,
        })
    }
}

/// `GrB_Row_assign` (`row`) and `GrB_Col_assign`: assigns `u` into the
/// positions `sel` of row/column `line`, under the [`LineMask`] that `call`
/// carries.
fn assign_line<T: ValueType>(
    call: Op<'_, MatrixState<T>>,
    accum: Accum<'_, T>,
    u: &Vector<T>,
    row: bool,
    line: Index,
    sel: &[Index],
) -> GrbResult {
    u.check_context(&call.ctx)?;
    let (nrows, ncols) = call.shape();
    if line >= if row { nrows } else { ncols } {
        return Err(ApiError::InvalidIndex.into());
    }
    if u.size() != sel.len() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let (sel, accum) = (sel.to_vec(), accum.cloned());
    call.run(NodeKind::Assign, None, u_s.nnz(), move |x| {
        let at = |k: Index| if row { (line, k) } else { (k, line) };
        let (tr, tc) = u_s.iter().map(|(k, _)| at(sel[k])).unzip();
        let (rows, cols): (&[Index], &[Index]) = if row {
            (&[line], &sel)
        } else {
            (&sel, &[line])
        };
        let tuples = (tr, tc, u_s.values().to_vec());
        splice_m(x, (rows, cols), tuples, accum.as_ref())
    })
}

/// `GrB_Row_assign`: `C⟨m', r⟩(i, J) = C(i, J) ⊙ uᵀ` — assigns a vector
/// into (part of) row `i`; the mask is a *vector* over the row.
pub fn assign_row<T, M>(
    c: &Matrix<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    u: &Vector<T>,
    i: Index,
    cols: &[Index],
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let (row, line) = (true, i);
    let mask = mask.map(|mask| LineMask { mask, row, line });
    let call = Op::begin("op.assign_row", &c.core, mask.as_ref(), desc)?;
    assign_line(call, accum, u, row, line, cols)
}

/// `GrB_Col_assign`: `C⟨m', r⟩(I, j) = C(I, j) ⊙ u` — assigns a vector
/// into (part of) column `j`.
pub fn assign_col<T, M>(
    c: &Matrix<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    u: &Vector<T>,
    rows: &[Index],
    j: Index,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let (row, line) = (false, j);
    let mask = mask.map(|mask| LineMask { mask, row, line });
    let call = Op::begin("op.assign_col", &c.core, mask.as_ref(), desc)?;
    assign_line(call, accum, u, row, line, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::testutil::{mat, mat_tuples, vec, vec_tuples};
    use crate::{no_mask, no_mask_v};

    #[test]
    fn assign_replaces_region_exactly() {
        // C has entries inside and outside the region.
        let c = mat((3, 3), &[(0, 0, 1i64), (1, 1, 2), (2, 2, 3)]);
        let a = mat((2, 2), &[(0, 0, 10i64)]);
        // Region rows {0,1} × cols {0,1}: (0,0) → 10; (1,1) is in the
        // region but not in A → deleted. (2,2) untouched.
        assign(
            &c,
            no_mask(),
            None,
            &a,
            &[0, 1],
            &[0, 1],
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 10), (2, 2, 3)]);
    }

    #[test]
    fn assign_with_accum_folds_region() {
        let c = mat((2, 2), &[(0, 0, 1i64), (1, 1, 5)]);
        let a = mat((2, 2), &[(0, 0, 10i64), (0, 1, 20)]);
        assign(
            &c,
            no_mask(),
            Some(&BinaryOp::plus()),
            &a,
            &[0, 1],
            &[0, 1],
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 11), (0, 1, 20), (1, 1, 5)]);
    }

    #[test]
    fn assign_with_permuted_selectors() {
        let c = Matrix::<i64>::new(3, 3).unwrap();
        let a = mat((2, 2), &[(0, 1, 7i64)]);
        // rows [2,0], cols [1,0]: A(0,1) lands at C(2,0).
        assign(
            &c,
            no_mask(),
            None,
            &a,
            &[2, 0],
            &[1, 0],
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(2, 0, 7)]);
    }

    #[test]
    fn assign_scalar_fills_region_densely() {
        let c = Matrix::<i64>::new(3, 3).unwrap();
        assign_scalar(
            &c,
            no_mask(),
            None,
            9i64,
            &[0, 2],
            &[1, 2],
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            mat_tuples(&c),
            vec![(0, 1, 9), (0, 2, 9), (2, 1, 9), (2, 2, 9)]
        );
    }

    #[test]
    fn assign_scalar_grb_empty_is_error() {
        let c = Matrix::<i64>::new(2, 2).unwrap();
        let s = Scalar::<i64>::new().unwrap();
        let err = assign_scalar_grb(&c, no_mask(), None, &s, &[0], &[0], &Descriptor::default())
            .unwrap_err();
        assert_eq!(err.code(), -106);
        s.set_element(4).unwrap();
        assign_scalar_grb(&c, no_mask(), None, &s, &[0], &[0], &Descriptor::default()).unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 4)]);
    }

    #[test]
    fn vector_assign() {
        let w = vec(5, &[(0, 1i64), (2, 3), (4, 5)]);
        let u = vec(2, &[(0, 30i64)]);
        // Region {2, 4}: w(2) ← u(0) = 30; w(4) in region, absent in u →
        // deleted; w(0) untouched.
        assign_v(&w, no_mask_v(), None, &u, &[2, 4], &Descriptor::default()).unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 1), (2, 30)]);
    }

    #[test]
    fn vector_assign_scalar_and_oob() {
        let w = Vector::<i64>::new(4).unwrap();
        assign_scalar_v(&w, no_mask_v(), None, 8i64, &[1, 3], &Descriptor::default()).unwrap();
        assert_eq!(vec_tuples(&w), vec![(1, 8), (3, 8)]);
        let err =
            assign_scalar_v(&w, no_mask_v(), None, 8i64, &[9], &Descriptor::default()).unwrap_err();
        assert!(err.is_execution());
        assert_eq!(err.code(), -105);
    }

    #[test]
    fn masked_assign_respects_full_size_mask() {
        let c = mat((2, 2), &[(1, 1, 5i64)]);
        let mask = mat((2, 2), &[(0, 0, true)]);
        // Assign 7 over the whole matrix, but the mask only admits (0,0).
        assign_scalar(
            &c,
            Some(&mask),
            None,
            7i64,
            &[0, 1],
            &[0, 1],
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 7), (1, 1, 5)]);
    }
}
