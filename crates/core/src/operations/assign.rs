//! `GrB_assign`: writes a matrix/vector/scalar into a region `C(I, J)` of
//! a larger container, under the usual mask/accumulator/replace semantics
//! (the mask has the shape of the *whole* output, as in `GrB_assign`, not
//! the subassign variant).
//!
//! Table II adds the `GrB_Scalar` forms (`assign_scalar_grb` /
//! `assign_scalar_v_grb`); per the 2.0 uniformity rules an *empty* scalar
//! argument is a `GrB_EMPTY_OBJECT` execution error.

use std::sync::Arc;

use graphblas_sparse::{ewise, Coo, Csr, SparseVec};

use crate::descriptor::Descriptor;
use crate::error::{ApiError, Error, ExecErrorKind, GrbResult};
use crate::matrix::{MatStore, Matrix};
use crate::operations::{note_dag_fusion, snapshot_matmask, snapshot_operand, snapshot_vecmask};
use crate::ops::BinaryOp;
use crate::pending::NodeKind;
use crate::scalar::Scalar;
use crate::types::{Index, MaskValue, ValueType};
use crate::vector::{VecStore, Vector};
use crate::write;

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

/// Computes "C with region (I×J) replaced by `mapped`" where `mapped` is
/// already in C-coordinates; `accum` folds old region values.
fn splice_region<T: ValueType>(
    ctx: &graphblas_exec::Context,
    old: &Csr<T>,
    mapped: Csr<T>,
    row_in: &[bool],
    col_in: &[bool],
    accum: Option<&BinaryOp<T, T, T>>,
) -> Csr<T> {
    let outside = old.filter_map_with_index(ctx, |i, j, v| {
        (!(row_in[i] && col_in[j])).then(|| v.clone())
    });
    let inside = match accum {
        None => mapped,
        Some(op) => {
            let old_inside = old
                .filter_map_with_index(ctx, |i, j, v| (row_in[i] && col_in[j]).then(|| v.clone()));
            ewise::ewise_union(ctx, &old_inside, &mapped, |x, y| op.apply(x, y))
        }
    };
    ewise::ewise_union(ctx, &outside, &inside, |x, _| x.clone())
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
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.assign", ctx.id());
    a.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if crate::operations::eff_shape(a, desc.transpose_a) != (rows.len(), cols.len()) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, &ctx, desc.transpose_a, true)?;
    let mask_s = snapshot_matmask(mask, desc)?;
    let rows = rows.to_vec();
    let cols = cols.to_vec();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Assign,
        Box::new(move |st, post| {
            check_selectors(&rows, st.nrows, "row")?;
            check_selectors(&cols, st.ncols, "column")?;
            let mut row_in = vec![false; st.nrows];
            let mut col_in = vec![false; st.ncols];
            for &i in &rows {
                row_in[i] = true;
            }
            for &j in &cols {
                col_in[j] = true;
            }
            // Map A into C coordinates (duplicate selector targets resolve
            // last-wins; the spec leaves duplicates undefined).
            let (ar, ac, av) = a_s.tuples();
            let mapped_coo = Coo::from_parts(
                st.nrows,
                st.ncols,
                ar.into_iter().map(|i| rows[i]).collect(),
                ac.into_iter().map(|j| cols[j]).collect(),
                av,
            )
            .map_err(Error::from)?;
            let second = |_: &T, b: &T| b.clone();
            let mapped = mapped_coo
                .to_csr(&ctx2, Some(&second))
                .map_err(Error::from)?;
            st.ensure_csr(&ctx2, true)?;
            let spliced = splice_region(&ctx2, st.csr(), mapped, &row_in, &col_in, accum.as_ref());
            // The mask applies over all of C; accumulation already happened.
            let merged =
                write::merge_matrix(&ctx2, st.csr(), spliced, mask_s.as_ref(), None, replace);
            st.store = MatStore::Csr(Arc::new(merged));
            note_dag_fusion(
                "assign",
                ctx2.id(),
                NodeKind::Assign,
                0,
                post.len(),
                a_s.nnz(),
            );
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.assign_v", ctx.id());
    u.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if u.size() != indices.len() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let indices = indices.to_vec();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    w.core.apply_node(
        NodeKind::Assign,
        Box::new(move |st, post| {
            check_selectors(&indices, st.n, "index")?;
            let mut in_region = vec![false; st.n];
            for &i in &indices {
                in_region[i] = true;
            }
            let mut mapped = SparseVec::from_parts(
                st.n,
                u_s.iter().map(|(i, _)| indices[i]).collect(),
                u_s.values().to_vec(),
            )
            .map_err(Error::from)?;
            mapped
                .sort_dedup(Some(&|_: &T, b: &T| b.clone()))
                .map_err(Error::from)?;
            st.ensure_sparse()?;
            let old = st.sparse().clone();
            let outside = old.filter_map_with_index(|i, v| (!in_region[i]).then(|| v.clone()));
            let inside = match &accum {
                None => mapped,
                Some(op) => {
                    let old_inside =
                        old.filter_map_with_index(|i, v| in_region[i].then(|| v.clone()));
                    ewise::svec_union(&old_inside, &mapped, |x, y| op.apply(x, y))
                }
            };
            let spliced = ewise::svec_union(&outside, &inside, |x, _| x.clone());
            let merged = write::merge_vector(&old, spliced, mask_s.as_ref(), None, replace);
            st.store = VecStore::Sparse(Arc::new(merged));
            note_dag_fusion(
                "assign_v",
                ctx2.id(),
                NodeKind::Assign,
                0,
                post.len(),
                u_s.nnz(),
            );
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.assign_scalar", ctx.id());
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    let mask_s = snapshot_matmask(mask, desc)?;
    let rows = rows.to_vec();
    let cols = cols.to_vec();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Assign,
        Box::new(move |st, post| {
            check_selectors(&rows, st.nrows, "row")?;
            check_selectors(&cols, st.ncols, "column")?;
            let mut row_in = vec![false; st.nrows];
            let mut col_in = vec![false; st.ncols];
            for &i in &rows {
                row_in[i] = true;
            }
            for &j in &cols {
                col_in[j] = true;
            }
            let mut rr = Vec::with_capacity(rows.len() * cols.len());
            let mut cc = Vec::with_capacity(rows.len() * cols.len());
            let mut vv = Vec::with_capacity(rows.len() * cols.len());
            for &i in &rows {
                for &j in &cols {
                    rr.push(i);
                    cc.push(j);
                    vv.push(value.clone());
                }
            }
            let second = |_: &T, b: &T| b.clone();
            let mapped = Coo::from_parts(st.nrows, st.ncols, rr, cc, vv)
                .map_err(Error::from)?
                .to_csr(&ctx2, Some(&second))
                .map_err(Error::from)?;
            st.ensure_csr(&ctx2, true)?;
            let spliced = splice_region(&ctx2, st.csr(), mapped, &row_in, &col_in, accum.as_ref());
            let merged =
                write::merge_matrix(&ctx2, st.csr(), spliced, mask_s.as_ref(), None, replace);
            st.store = MatStore::Csr(Arc::new(merged));
            note_dag_fusion(
                "assign_scalar",
                ctx2.id(),
                NodeKind::Assign,
                0,
                post.len(),
                rows.len() * cols.len(),
            );
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    let _op = graphblas_obs::span_ctx("op.assign_scalar_grb", 0);
    let v = s.extract_element()?.ok_or_else(|| {
        Error::exec(
            ExecErrorKind::EmptyObject,
            "assign requires a non-empty GrB_Scalar",
        )
    })?;
    assign_scalar(c, mask, accum, v, rows, cols, desc)
}

/// `w⟨m, r⟩(I) = w(I) ⊙ s`.
///
/// With the identity selector (`GrB_ALL`) under a non-complemented mask —
/// the `levels⟨frontier⟩ = depth` idiom of every BFS level — the region is
/// all of `w` and the mask alone bounds the write, so `T` is the scalar on
/// the mask's truthy positions and goes straight to the write rule; the
/// general path's n-long region vectors are never built.
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
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.assign_scalar_v", ctx.id());
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    let mask_s = snapshot_vecmask(mask, desc)?;
    let nnz_in = indices.len();
    let mask_bounded = mask_s.as_ref().is_some_and(|m| !m.complement)
        && nnz_in == w.size()
        && indices.iter().enumerate().all(|(k, &i)| k == i);
    // The mask-bounded path never reads the selectors.
    let indices = if mask_bounded {
        Vec::new()
    } else {
        indices.to_vec()
    };
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    w.core.apply_node(
        NodeKind::Assign,
        Box::new(move |st, post| {
            let merged = match &mask_s {
                Some(m) if mask_bounded => {
                    let t = m
                        .mask
                        .filter_map_with_index(|_, &truthy| truthy.then(|| value.clone()));
                    st.ensure_sparse()?;
                    write::merge_vector(st.sparse(), t, Some(m), accum.as_ref(), replace)
                }
                _ => {
                    check_selectors(&indices, st.n, "index")?;
                    let mut in_region = vec![false; st.n];
                    for &i in &indices {
                        in_region[i] = true;
                    }
                    let mut mapped = SparseVec::from_parts(
                        st.n,
                        indices.clone(),
                        indices.iter().map(|_| value.clone()).collect(),
                    )
                    .map_err(Error::from)?;
                    mapped
                        .sort_dedup(Some(&|_: &T, b: &T| b.clone()))
                        .map_err(Error::from)?;
                    st.ensure_sparse()?;
                    let old = st.sparse().clone();
                    let outside =
                        old.filter_map_with_index(|i, v| (!in_region[i]).then(|| v.clone()));
                    let inside = match &accum {
                        None => mapped,
                        Some(op) => {
                            let old_inside =
                                old.filter_map_with_index(|i, v| in_region[i].then(|| v.clone()));
                            ewise::svec_union(&old_inside, &mapped, |x, y| op.apply(x, y))
                        }
                    };
                    let spliced = ewise::svec_union(&outside, &inside, |x, _| x.clone());
                    write::merge_vector(&old, spliced, mask_s.as_ref(), None, replace)
                }
            };
            st.store = VecStore::Sparse(Arc::new(merged));
            note_dag_fusion(
                "assign_scalar_v",
                ctx2.id(),
                NodeKind::Assign,
                0,
                post.len(),
                nnz_in,
            );
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.assign_row", ctx.id());
    u.check_context(&ctx)?;
    if i >= c.shape().0 {
        return Err(ApiError::InvalidIndex.into());
    }
    if u.size() != cols.len() {
        return Err(ApiError::DimensionMismatch.into());
    }
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != c.shape().1 {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    // Express as a 1×ncols matrix assign over row {i} with a row-shaped
    // matrix mask derived from the vector mask.
    let u_s = u.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let cols = cols.to_vec();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Assign,
        Box::new(move |st, post| {
            check_selectors(&cols, st.ncols, "column")?;
            let mut col_in = vec![false; st.ncols];
            for &j in &cols {
                col_in[j] = true;
            }
            // Map u into row-i coordinates.
            let second = |_: &T, b: &T| b.clone();
            let mapped = Coo::from_parts(
                st.nrows,
                st.ncols,
                u_s.iter().map(|_| i).collect(),
                u_s.iter().map(|(k, _)| cols[k]).collect(),
                u_s.values().to_vec(),
            )
            .map_err(Error::from)?
            .to_csr(&ctx2, Some(&second))
            .map_err(Error::from)?;
            st.ensure_csr(&ctx2, true)?;
            let row_in: Vec<bool> = (0..st.nrows).map(|r| r == i).collect();
            let spliced = splice_region(&ctx2, st.csr(), mapped, &row_in, &col_in, accum.as_ref());
            // Vector mask lifted to a matrix mask over row i only; positions
            // outside row i are untouched regardless of replace (the C spec
            // scopes Row_assign's mask and replace to the row).
            let merged = match &mask_s {
                None => spliced,
                Some(vm) => {
                    let lifted_rows: Vec<usize> = vm.mask.iter().map(|_| i).collect();
                    let lifted_cols: Vec<usize> = vm.mask.indices().to_vec();
                    let lifted_vals: Vec<bool> = vm.mask.values().to_vec();
                    let lifted =
                        Coo::from_parts(st.nrows, st.ncols, lifted_rows, lifted_cols, lifted_vals)
                            .map_err(Error::from)?
                            .to_csr(&ctx2, None)
                            .map_err(Error::from)?;
                    let spec = crate::write::MatMask {
                        mask: std::sync::Arc::new(lifted),
                        complement: vm.complement,
                    };
                    // Restrict the masked merge to row i: splice the merged
                    // row back into the untouched remainder.
                    let merged_all = crate::write::merge_matrix(
                        &ctx2,
                        st.csr(),
                        spliced,
                        Some(&spec),
                        None,
                        replace,
                    );
                    let merged_row = merged_all
                        .filter_map_with_index(&ctx2, |r, _, v| (r == i).then(|| v.clone()));
                    let others = st
                        .csr()
                        .filter_map_with_index(&ctx2, |r, _, v| (r != i).then(|| v.clone()));
                    graphblas_sparse::ewise::ewise_union(&ctx2, &others, &merged_row, |x, _| {
                        x.clone()
                    })
                }
            };
            st.store = MatStore::Csr(Arc::new(merged));
            note_dag_fusion(
                "assign_row",
                ctx2.id(),
                NodeKind::Assign,
                0,
                post.len(),
                u_s.nnz(),
            );
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.assign_col", ctx.id());
    u.check_context(&ctx)?;
    if j >= c.shape().1 {
        return Err(ApiError::InvalidIndex.into());
    }
    if u.size() != rows.len() {
        return Err(ApiError::DimensionMismatch.into());
    }
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != c.shape().0 {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    let u_s = u.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let rows = rows.to_vec();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Assign,
        Box::new(move |st, post| {
            check_selectors(&rows, st.nrows, "row")?;
            let mut row_in = vec![false; st.nrows];
            for &i in &rows {
                row_in[i] = true;
            }
            let second = |_: &T, b: &T| b.clone();
            let mapped = Coo::from_parts(
                st.nrows,
                st.ncols,
                u_s.iter().map(|(k, _)| rows[k]).collect(),
                u_s.iter().map(|_| j).collect(),
                u_s.values().to_vec(),
            )
            .map_err(Error::from)?
            .to_csr(&ctx2, Some(&second))
            .map_err(Error::from)?;
            st.ensure_csr(&ctx2, true)?;
            let col_in: Vec<bool> = (0..st.ncols).map(|cc| cc == j).collect();
            let spliced = splice_region(&ctx2, st.csr(), mapped, &row_in, &col_in, accum.as_ref());
            let merged = match &mask_s {
                None => spliced,
                Some(vm) => {
                    let lifted = Coo::from_parts(
                        st.nrows,
                        st.ncols,
                        vm.mask.indices().to_vec(),
                        vm.mask.iter().map(|_| j).collect(),
                        vm.mask.values().to_vec(),
                    )
                    .map_err(Error::from)?
                    .to_csr(&ctx2, None)
                    .map_err(Error::from)?;
                    let spec = crate::write::MatMask {
                        mask: std::sync::Arc::new(lifted),
                        complement: vm.complement,
                    };
                    let merged_all = crate::write::merge_matrix(
                        &ctx2,
                        st.csr(),
                        spliced,
                        Some(&spec),
                        None,
                        replace,
                    );
                    let merged_col = merged_all
                        .filter_map_with_index(&ctx2, |_, cc, v| (cc == j).then(|| v.clone()));
                    let others = st
                        .csr()
                        .filter_map_with_index(&ctx2, |_, cc, v| (cc != j).then(|| v.clone()));
                    graphblas_sparse::ewise::ewise_union(&ctx2, &others, &merged_col, |x, _| {
                        x.clone()
                    })
                }
            };
            st.store = MatStore::Csr(Arc::new(merged));
            note_dag_fusion(
                "assign_col",
                ctx2.id(),
                NodeKind::Assign,
                0,
                post.len(),
                u_s.nnz(),
            );
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    let _op = graphblas_obs::span_ctx("op.assign_scalar_v_grb", 0);
    let v = s.extract_element()?.ok_or_else(|| {
        Error::exec(
            ExecErrorKind::EmptyObject,
            "assign requires a non-empty GrB_Scalar",
        )
    })?;
    assign_scalar_v(w, mask, accum, v, indices, desc)
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
