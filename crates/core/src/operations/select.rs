//! `GrB_select` (§VIII.C) — new in GraphBLAS 2.0: a *functional input
//! mask*. A boolean index-unary operator decides, per stored element,
//! whether it is kept (unchanged) or annihilated:
//!
//! ```text
//! C⟨M, r⟩ = C ⊙ A⟨f(A, ind(A), 2, s)⟩
//! ```
//!
//! Like `apply`, the unmasked/unaccumulated in-place form enqueues a
//! fusible `Map` stage.

use std::sync::Arc;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, Error, ExecErrorKind, GrbResult};
use crate::matrix::{MatStore, Matrix};
use crate::operations::{
    eff_shape, note_dag_fusion, snapshot_matmask, snapshot_operand, snapshot_vecmask,
};
use crate::ops::{BinaryOp, IndexUnaryOp};
use crate::pending::{MapFn, NodeKind};
use crate::scalar::Scalar;
use crate::types::{MaskValue, ValueType};
use crate::vector::{VecStore, Vector};
use crate::write;

fn scalar_value<S: ValueType>(s: &Scalar<S>) -> GrbResult<S> {
    s.extract_element()?.ok_or_else(|| {
        Error::exec(
            ExecErrorKind::EmptyObject,
            "select requires a non-empty GrB_Scalar argument",
        )
    })
}

/// Matrix select: keep elements where `f` returns `true`.
pub fn select<T, M, S>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    a: &Matrix<T>,
    s: S,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    if mask.is_none()
        && accum.is_none()
        && !desc.transpose_a
        && !desc.replace
        && c.addr() == a.addr()
    {
        // Same object, same domain by construction (both are T).
        let f2 = f.clone();
        let s2 = s.clone();
        let g: MapFn<T> = Arc::new(move |idx, v| f2.apply(v, idx, &s2).then(|| v.clone()));
        return c.core.apply_map(g);
    }
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.select", ctx.id());
    a.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if c.shape() != eff_shape(a, desc.transpose_a) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, &ctx, desc.transpose_a, false)?;
    let mask_s = snapshot_matmask(mask, desc)?;
    let f = f.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Select,
        Box::new(move |st, post| {
            let nnz_in = a_s.nnz();
            let t = a_s
                .filter_map_with_index(&ctx2, |i, j, v| f.apply(v, &[i, j], &s).then(|| v.clone()));
            note_dag_fusion("select", ctx2.id(), NodeKind::Select, 0, post.len(), nnz_in);
            if mask_s.is_none() && accum.is_none() {
                st.store = MatStore::Csr(Arc::new(t));
            } else {
                st.ensure_csr(&ctx2, true)?;
                let merged = write::merge_matrix(
                    &ctx2,
                    st.csr(),
                    t,
                    mask_s.as_ref(),
                    accum.as_ref(),
                    replace,
                );
                st.store = MatStore::Csr(Arc::new(merged));
            }
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
}

/// Table II variant with `s` as a `GrB_Scalar` (must be non-empty).
pub fn select_scalar<T, M, S>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    a: &Matrix<T>,
    s: &Scalar<S>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    let _op = graphblas_obs::span_ctx("op.select_scalar", 0);
    select(c, mask, accum, f, a, scalar_value(s)?, desc)
}

/// Vector select: `w⟨m, r⟩ = w ⊙ u⟨f(u, ind(u), 1, s)⟩`.
pub fn select_v<T, M, S>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    u: &Vector<T>,
    s: S,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    if mask.is_none() && accum.is_none() && !desc.replace && w.addr() == u.addr() {
        let f2 = f.clone();
        let s2 = s.clone();
        let g: MapFn<T> = Arc::new(move |idx, v| f2.apply(v, idx, &s2).then(|| v.clone()));
        return w.core.apply_map(g);
    }
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.select_v", ctx.id());
    u.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if w.size() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let f = f.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    w.core.apply_node(
        NodeKind::Select,
        Box::new(move |st, post| {
            let nnz_in = u_s.nnz();
            let t = u_s.filter_map_with_index(|i, v| f.apply(v, &[i], &s).then(|| v.clone()));
            note_dag_fusion(
                "select_v",
                ctx2.id(),
                NodeKind::Select,
                0,
                post.len(),
                nnz_in,
            );
            if mask_s.is_none() && accum.is_none() {
                st.store = VecStore::Sparse(Arc::new(t));
            } else {
                st.ensure_sparse()?;
                let merged =
                    write::merge_vector(st.sparse(), t, mask_s.as_ref(), accum.as_ref(), replace);
                st.store = VecStore::Sparse(Arc::new(merged));
            }
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
}

/// Table II variant with `s` as a `GrB_Scalar`.
pub fn select_v_scalar<T, M, S>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    u: &Vector<T>,
    s: &Scalar<S>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    let _op = graphblas_obs::span_ctx("op.select_v_scalar", 0);
    select_v(w, mask, accum, f, u, scalar_value(s)?, desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::testutil::{mat, mat_tuples, vec, vec_tuples};
    use crate::{no_mask, no_mask_v};

    #[test]
    fn tril_triu_partition_the_matrix() {
        let a = mat(
            (3, 3),
            &[(0, 0, 1i64), (0, 2, 2), (1, 1, 3), (2, 0, 4), (2, 2, 5)],
        );
        let lower = Matrix::<i64>::new(3, 3).unwrap();
        select(
            &lower,
            no_mask(),
            None,
            &IndexUnaryOp::tril(),
            &a,
            0i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            mat_tuples(&lower),
            vec![(0, 0, 1), (1, 1, 3), (2, 0, 4), (2, 2, 5)]
        );
        let strict_upper = Matrix::<i64>::new(3, 3).unwrap();
        select(
            &strict_upper,
            no_mask(),
            None,
            &IndexUnaryOp::triu(),
            &a,
            1i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&strict_upper), vec![(0, 2, 2)]);
    }

    #[test]
    fn value_selectors() {
        let a = mat((1, 4), &[(0, 0, 5i64), (0, 1, 7), (0, 2, 5), (0, 3, 9)]);
        let c = Matrix::<i64>::new(1, 4).unwrap();
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valueeq(),
            &a,
            5i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 5), (0, 2, 5)]);
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &a,
            6i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 1, 7), (0, 3, 9)]);
    }

    #[test]
    fn paper_fig3_select_example() {
        // §VIII.A/C: keep upper-triangular elements with value > s (s = 0).
        let my_triu_gt =
            IndexUnaryOp::<i64, i64, bool>::new("triu_gt", |v, idx, s| idx[1] > idx[0] && v > s);
        let a = mat(
            (3, 3),
            &[(0, 1, 4i64), (0, 2, -1), (1, 0, 2), (1, 2, 3), (2, 2, 9)],
        );
        let c = Matrix::<i64>::new(3, 3).unwrap();
        select(
            &c,
            no_mask(),
            None,
            &my_triu_gt,
            &a,
            0i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 1, 4), (1, 2, 3)]);
    }

    #[test]
    fn vector_select_rowle_rowgt() {
        let u = vec(6, &[(0, 1i64), (2, 2), (4, 3), (5, 4)]);
        let w = Vector::<i64>::new(6).unwrap();
        select_v(
            &w,
            no_mask_v(),
            None,
            &IndexUnaryOp::rowle(),
            &u,
            2i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 1), (2, 2)]);
        select_v(
            &w,
            no_mask_v(),
            None,
            &IndexUnaryOp::rowgt(),
            &u,
            2i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(4, 3), (5, 4)]);
    }

    #[test]
    fn select_scalar_variant_and_empty_error() {
        let a = mat((1, 2), &[(0, 0, 1i64), (0, 1, 5)]);
        let c = Matrix::<i64>::new(1, 2).unwrap();
        let s = Scalar::<i64>::new().unwrap();
        assert_eq!(
            select_scalar(
                &c,
                no_mask(),
                None,
                &IndexUnaryOp::valuegt(),
                &a,
                &s,
                &Descriptor::default()
            )
            .unwrap_err()
            .code(),
            -106
        );
        s.set_element(2).unwrap();
        select_scalar(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &a,
            &s,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 1, 5)]);
    }

    #[test]
    fn in_place_select_fuses() {
        use graphblas_exec::{Context, ContextOptions, Mode};
        let ctx = Context::new(
            &crate::global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let c = Matrix::<i64>::new_in(&ctx, 1, 4).unwrap();
        c.build(&[0, 0, 0, 0], &[0, 1, 2, 3], &[1, 2, 3, 4], None)
            .unwrap();
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &c,
            1i64,
            &Descriptor::default(),
        )
        .unwrap();
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &c,
            2i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert!(c.pending_len() >= 2);
        assert_eq!(mat_tuples(&c), vec![(0, 2, 3), (0, 3, 4)]);
    }

    #[test]
    fn masked_select_merges() {
        let a = mat((1, 3), &[(0, 0, 1i64), (0, 1, 2), (0, 2, 3)]);
        let c = mat((1, 3), &[(0, 0, 100i64)]);
        let mask = mat((1, 3), &[(0, 1, true), (0, 2, true)]);
        // Select everything (valuegt -inf) but only inside the mask; old
        // (0,0) survives because it is outside the mask and replace is off.
        select(
            &c,
            Some(&mask),
            None,
            &IndexUnaryOp::valuegt(),
            &a,
            i64::MIN,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 100), (0, 1, 2), (0, 2, 3)]);
    }
}
