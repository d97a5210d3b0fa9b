//! `GrB_eWiseAdd` / `GrB_eWiseMult`: element-wise union and intersection.
//!
//! Following the mathematical spec: *add* operates on the union of
//! structures (the operator only fires where both operands are present;
//! singletons pass through), *mult* on the intersection. `eWiseAdd`
//! therefore requires one common domain `T`, while `eWiseMult` is fully
//! heterogeneous (`A × B → C`).

use std::sync::Arc;

use graphblas_sparse::ewise as kernels;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::{MatStore, Matrix};
use crate::operations::{
    eff_shape, note_dag_fusion, snapshot_matmask, snapshot_operand, snapshot_vecmask,
};
use crate::ops::{registry, BinaryOp};
use crate::pending::NodeKind;
use crate::types::{MaskValue, ValueType};
use crate::vector::{VecStore, Vector};
use crate::write;

/// `C⟨M, r⟩ = C ⊙ (A ⊕ B)` — union structure.
pub fn ewise_add<T, M>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    op: &BinaryOp<T, T, T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.ewise_add", ctx.id());
    a.check_context(&ctx)?;
    b.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    let sa = eff_shape(a, desc.transpose_a);
    let sb = eff_shape(b, desc.transpose_b);
    if sa != sb || c.shape() != sa {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, &ctx, desc.transpose_a, true)?;
    let b_s = snapshot_operand(b, &ctx, desc.transpose_b, true)?;
    let mask_s = snapshot_matmask(mask, desc)?;
    let op = op.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::EWise,
        Box::new(move |st, post| {
            let nnz_in = a_s.nnz() + b_s.nnz();
            let t = match registry::try_ewise_union(&ctx2, &a_s, &b_s, op.builtin()) {
                Some(t) => t,
                None => {
                    registry::record_pick("ewise_add", ctx2.id(), false);
                    kernels::ewise_union(&ctx2, &a_s, &b_s, |x, y| op.apply(x, y))
                }
            };
            note_dag_fusion(
                "ewise_add",
                ctx2.id(),
                NodeKind::EWise,
                0,
                post.len(),
                nnz_in,
            );
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

/// `C⟨M, r⟩ = C ⊙ (A ⊗ B)` — intersection structure, heterogeneous
/// domains.
pub fn ewise_mult<C, M, A, B>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.ewise_mult", ctx.id());
    a.check_context(&ctx)?;
    b.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    let sa = eff_shape(a, desc.transpose_a);
    let sb = eff_shape(b, desc.transpose_b);
    if sa != sb || c.shape() != sa {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, &ctx, desc.transpose_a, true)?;
    let b_s = snapshot_operand(b, &ctx, desc.transpose_b, true)?;
    let mask_s = snapshot_matmask(mask, desc)?;
    let op = op.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::EWise,
        Box::new(move |st, post| {
            let nnz_in = a_s.nnz() + b_s.nnz();
            let t = match registry::try_ewise_intersect(&ctx2, &a_s, &b_s, op.builtin()) {
                Some(t) => t,
                None => {
                    registry::record_pick("ewise_mult", ctx2.id(), false);
                    kernels::ewise_intersect(&ctx2, &a_s, &b_s, |x, y| op.apply(x, y))
                }
            };
            note_dag_fusion(
                "ewise_mult",
                ctx2.id(),
                NodeKind::EWise,
                0,
                post.len(),
                nnz_in,
            );
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

/// `eWiseAdd` with a monoid (the C API's `GrB_Monoid` overload): the
/// monoid's operator combines overlaps.
pub fn ewise_add_monoid<T, M>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    monoid: &crate::ops::Monoid<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let _op = graphblas_obs::span_ctx("op.ewise_add_monoid", 0);
    ewise_add(c, mask, accum, monoid.op(), a, b, desc)
}

/// `eWiseAdd` with a semiring (the C API's `GrB_Semiring` overload): the
/// semiring's *add* monoid combines overlaps, per the spec.
pub fn ewise_add_semiring<T, M, A, B>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    semiring: &crate::ops::Semiring<A, B, T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let _op = graphblas_obs::span_ctx("op.ewise_add_semiring", 0);
    ewise_add(c, mask, accum, semiring.add().op(), a, b, desc)
}

/// `eWiseMult` with a semiring (the spec uses the semiring's *multiply*
/// operator on the intersection).
pub fn ewise_mult_semiring<C, M, A, B>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    semiring: &crate::ops::Semiring<A, B, C>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let _op = graphblas_obs::span_ctx("op.ewise_mult_semiring", 0);
    ewise_mult(c, mask, accum, semiring.mul(), a, b, desc)
}

/// Vector `eWiseAdd`.
pub fn ewise_add_v<T, M>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    op: &BinaryOp<T, T, T>,
    u: &Vector<T>,
    v: &Vector<T>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.ewise_add_v", ctx.id());
    u.check_context(&ctx)?;
    v.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if u.size() != v.size() || w.size() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let v_s = v.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let op = op.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx_id = ctx.id();
    w.core.apply_node(
        NodeKind::EWise,
        Box::new(move |st, post| {
            let nnz_in = u_s.nnz() + v_s.nnz();
            let t = match registry::try_svec_union(&u_s, &v_s, op.builtin(), ctx_id) {
                Some(t) => t,
                None => {
                    registry::record_pick("ewise_add_v", ctx_id, false);
                    kernels::svec_union(&u_s, &v_s, |x, y| op.apply(x, y))
                }
            };
            note_dag_fusion(
                "ewise_add_v",
                ctx_id,
                NodeKind::EWise,
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
            st.apply_post_maps(&ctx, &post)?;
            Ok(())
        }),
    )
}

/// Vector `eWiseMult`.
pub fn ewise_mult_v<C, M, A, B>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    u: &Vector<A>,
    v: &Vector<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.ewise_mult_v", ctx.id());
    u.check_context(&ctx)?;
    v.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if u.size() != v.size() || w.size() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let v_s = v.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let op = op.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx_id = ctx.id();
    w.core.apply_node(
        NodeKind::EWise,
        Box::new(move |st, post| {
            let nnz_in = u_s.nnz() + v_s.nnz();
            let t = match registry::try_svec_intersect(&u_s, &v_s, op.builtin(), ctx_id) {
                Some(t) => t,
                None => {
                    registry::record_pick("ewise_mult_v", ctx_id, false);
                    kernels::svec_intersect(&u_s, &v_s, |x, y| op.apply(x, y))
                }
            };
            note_dag_fusion(
                "ewise_mult_v",
                ctx_id,
                NodeKind::EWise,
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
            st.apply_post_maps(&ctx, &post)?;
            Ok(())
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::testutil::{mat, mat_tuples, vec, vec_tuples};
    use crate::{no_mask, no_mask_v};

    #[test]
    fn add_unions_mult_intersects() {
        let a = mat((2, 2), &[(0, 0, 1i64), (0, 1, 2)]);
        let b = mat((2, 2), &[(0, 1, 10i64), (1, 0, 20)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        ewise_add(
            &c,
            no_mask(),
            None,
            &BinaryOp::plus(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 1), (0, 1, 12), (1, 0, 20)]);
        let d = Matrix::<i64>::new(2, 2).unwrap();
        ewise_mult(
            &d,
            no_mask(),
            None,
            &BinaryOp::times(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&d), vec![(0, 1, 20)]);
    }

    #[test]
    fn mult_with_domain_change() {
        let a = mat((1, 2), &[(0, 0, 2.5f64), (0, 1, 3.0)]);
        let b = mat((1, 2), &[(0, 0, 4i64)]);
        let c = Matrix::<bool>::new(1, 2).unwrap();
        let gt = BinaryOp::<f64, i64, bool>::new("gt_mixed", |x, y| *x > *y as f64);
        ewise_mult(&c, no_mask(), None, &gt, &a, &b, &Descriptor::default()).unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, false)]);
    }

    #[test]
    fn vector_variants() {
        let u = vec(4, &[(0, 1i64), (2, 3)]);
        let v = vec(4, &[(2, 10i64), (3, 4)]);
        let w = Vector::<i64>::new(4).unwrap();
        ewise_add_v(
            &w,
            no_mask_v(),
            None,
            &BinaryOp::plus(),
            &u,
            &v,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 1), (2, 13), (3, 4)]);
        let x = Vector::<i64>::new(4).unwrap();
        ewise_mult_v(
            &x,
            no_mask_v(),
            None,
            &BinaryOp::times(),
            &u,
            &v,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&x), vec![(2, 30)]);
    }

    #[test]
    fn masked_add_with_value_mask() {
        let a = mat((1, 3), &[(0, 0, 1i64), (0, 1, 1), (0, 2, 1)]);
        let b = mat((1, 3), &[(0, 0, 1i64), (0, 1, 1), (0, 2, 1)]);
        // Value mask: 0 at (0,1) is falsy, so position 1 is NOT in the mask.
        let mask = mat((1, 3), &[(0, 0, 1i32), (0, 1, 0), (0, 2, 7)]);
        let c = Matrix::<i64>::new(1, 3).unwrap();
        ewise_add(
            &c,
            Some(&mask),
            None,
            &BinaryOp::plus(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 2), (0, 2, 2)]);
        // Structure mask treats the falsy element as present.
        let c2 = Matrix::<i64>::new(1, 3).unwrap();
        ewise_add(
            &c2,
            Some(&mask),
            None,
            &BinaryOp::plus(),
            &a,
            &b,
            &Descriptor::new().structure_mask(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c2).len(), 3);
    }

    #[test]
    fn transposed_operand() {
        let a = mat((2, 3), &[(0, 2, 5i64)]);
        let b = mat((3, 2), &[(2, 0, 7i64)]);
        let c = Matrix::<i64>::new(3, 2).unwrap();
        ewise_add(
            &c,
            no_mask(),
            None,
            &BinaryOp::plus(),
            &a,
            &b,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(2, 0, 12)]);
    }

    #[test]
    fn shape_mismatch() {
        let a = Matrix::<i64>::new(2, 2).unwrap();
        let b = Matrix::<i64>::new(2, 3).unwrap();
        let c = Matrix::<i64>::new(2, 2).unwrap();
        assert!(ewise_add(
            &c,
            no_mask(),
            None,
            &BinaryOp::plus(),
            &a,
            &b,
            &Descriptor::default()
        )
        .is_err());
    }
}
