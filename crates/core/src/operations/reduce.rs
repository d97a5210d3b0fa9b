//! `GrB_reduce`: matrix → vector (row-wise monoid reduction) and
//! matrix/vector → scalar.
//!
//! GraphBLAS 2.0 (§VI) reworks the scalar-output forms around
//! `GrB_Scalar`: reducing an empty container yields an **empty scalar**
//! instead of the monoid identity, and a plain associative `BinaryOp` is
//! now accepted as the reduction operator (no identity needed when the
//! output may be empty). The 1.X typed-value forms (returning the identity
//! for empty inputs) are kept as `reduce_to_value*`.

use std::sync::Arc;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, note_dag_fusion, snapshot_operand, snapshot_vecmask};
use crate::ops::{registry, BinaryOp, Monoid};
use crate::pending::NodeKind;
use crate::scalar::Scalar;
use crate::types::{MaskValue, ValueType};
use crate::vector::{VecStore, Vector};
use crate::write;

/// `w⟨m, r⟩ = w ⊙ [⊕ⱼ A(:, j)]` — row-wise reduction to a vector
/// (`desc.transpose_a` reduces columns instead).
pub fn reduce_to_vector<T, M>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    monoid: &Monoid<T>,
    a: &Matrix<T>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.reduce_to_vector", ctx.id());
    a.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    let (am, _) = eff_shape(a, desc.transpose_a);
    if w.size() != am {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, &ctx, desc.transpose_a, false)?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let monoid = monoid.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    w.core.apply_node(
        NodeKind::Reduce,
        Box::new(move |st, post| {
            let nnz_in = a_s.nnz();
            let rows = a_s.reduce_rows(&ctx2, |v| v.clone(), |x, y| monoid.apply(&x, &y));
            let mut indices = Vec::new();
            let mut values = Vec::new();
            for (i, r) in rows.into_iter().enumerate() {
                if let Some(v) = r {
                    indices.push(i);
                    values.push(v);
                }
            }
            // grblint: allow(no-unwrap) — indices are enumerate() positions:
            // strictly increasing and < nrows by construction.
            let t = graphblas_sparse::SparseVec::from_parts(a_s.nrows(), indices, values)
                .expect("reduce produces valid vector");
            note_dag_fusion(
                "reduce_to_vector",
                ctx2.id(),
                NodeKind::Reduce,
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

fn fold_scalar<T: ValueType>(
    old: Option<T>,
    t: Option<T>,
    accum: Option<&BinaryOp<T, T, T>>,
) -> Option<T> {
    match (accum, old, t) {
        (Some(op), Some(o), Some(t)) => Some(op.apply(&o, &t)),
        (Some(_), None, t) => t,
        (Some(_), o, None) => o,
        (None, _, t) => t,
    }
}

/// Table II: `GrB_reduce(GrB_Scalar, accum, monoid, A, desc)` — an empty
/// matrix yields an empty scalar (§VI).
pub fn reduce_scalar<T>(
    s: &Scalar<T>,
    accum: Option<&BinaryOp<T, T, T>>,
    monoid: &Monoid<T>,
    a: &Matrix<T>,
) -> GrbResult
where
    T: ValueType,
{
    let ctx = s.context();
    let _op = graphblas_obs::span_ctx("op.reduce_scalar", ctx.id());
    a.check_context(&ctx)?;
    let a_s = a.snapshot_csr(false)?;
    let monoid = monoid.clone();
    let accum = accum.cloned();
    s.core.apply_write(Box::new(move |slot| {
        let gctx = graphblas_exec::global_context();
        let t = match registry::try_reduce_csr(&gctx, &a_s, monoid.builtin()) {
            Some(t) => t,
            None => {
                registry::record_pick("reduce", gctx.id(), false);
                a_s.reduce_all(
                    &gctx,
                    |v| v.clone(),
                    |x, y| monoid.apply(&x, &y),
                    monoid.terminal().map(|t| t as &(dyn Fn(&T) -> bool + Sync)),
                )
            }
        };
        **slot = fold_scalar(slot.take(), t, accum.as_ref());
        Ok(())
    }))
}

/// §VI: reduction to scalar with a plain associative `BinaryOp` — newly
/// legal in 2.0 because an empty result is representable.
pub fn reduce_scalar_binop<T>(
    s: &Scalar<T>,
    accum: Option<&BinaryOp<T, T, T>>,
    op: &BinaryOp<T, T, T>,
    a: &Matrix<T>,
) -> GrbResult
where
    T: ValueType,
{
    let ctx = s.context();
    let _op = graphblas_obs::span_ctx("op.reduce_scalar_binop", ctx.id());
    a.check_context(&ctx)?;
    let a_s = a.snapshot_csr(false)?;
    let op = op.clone();
    let accum = accum.cloned();
    s.core.apply_write(Box::new(move |slot| {
        let t = a_s.reduce_all(
            &graphblas_exec::global_context(),
            |v| v.clone(),
            |x, y| op.apply(&x, &y),
            None,
        );
        **slot = fold_scalar(slot.take(), t, accum.as_ref());
        Ok(())
    }))
}

/// Vector form of [`reduce_scalar`].
pub fn reduce_scalar_v<T>(
    s: &Scalar<T>,
    accum: Option<&BinaryOp<T, T, T>>,
    monoid: &Monoid<T>,
    u: &Vector<T>,
) -> GrbResult
where
    T: ValueType,
{
    let ctx = s.context();
    let _op = graphblas_obs::span_ctx("op.reduce_scalar_v", ctx.id());
    u.check_context(&ctx)?;
    let u_s = u.snapshot_sparse()?;
    let monoid = monoid.clone();
    let accum = accum.cloned();
    let ctx_id = ctx.id();
    s.core.apply_write(Box::new(move |slot| {
        let t = match registry::try_reduce_svec(&u_s, monoid.builtin(), ctx_id) {
            Some(t) => t,
            None => {
                registry::record_pick("reduce_v", ctx_id, false);
                u_s.reduce(
                    |v| v.clone(),
                    |x, y| monoid.apply(&x, &y),
                    monoid.terminal().map(|t| t as &dyn Fn(&T) -> bool),
                )
            }
        };
        **slot = fold_scalar(slot.take(), t, accum.as_ref());
        Ok(())
    }))
}

/// Vector form of [`reduce_scalar_binop`].
pub fn reduce_scalar_binop_v<T>(
    s: &Scalar<T>,
    accum: Option<&BinaryOp<T, T, T>>,
    op: &BinaryOp<T, T, T>,
    u: &Vector<T>,
) -> GrbResult
where
    T: ValueType,
{
    let ctx = s.context();
    let _op = graphblas_obs::span_ctx("op.reduce_scalar_binop_v", ctx.id());
    u.check_context(&ctx)?;
    let u_s = u.snapshot_sparse()?;
    let op = op.clone();
    let accum = accum.cloned();
    s.core.apply_write(Box::new(move |slot| {
        let t = u_s.reduce(|v| v.clone(), |x, y| op.apply(&x, &y), None);
        **slot = fold_scalar(slot.take(), t, accum.as_ref());
        Ok(())
    }))
}

/// The GraphBLAS 1.X typed form: reduces to a plain value, returning the
/// monoid identity when the matrix stores nothing.
pub fn reduce_to_value<T>(monoid: &Monoid<T>, a: &Matrix<T>) -> GrbResult<T>
where
    T: ValueType,
{
    let a_s = a.snapshot_csr(false)?;
    let ctx = a.context();
    let t = match registry::try_reduce_csr(&ctx, &a_s, monoid.builtin()) {
        Some(t) => t,
        None => {
            registry::record_pick("reduce", ctx.id(), false);
            a_s.reduce_all(
                &ctx,
                |v| v.clone(),
                |x, y| monoid.apply(&x, &y),
                monoid.terminal().map(|t| t as &(dyn Fn(&T) -> bool + Sync)),
            )
        }
    };
    Ok(t.unwrap_or_else(|| monoid.identity().clone()))
}

/// Vector form of [`reduce_to_value`].
pub fn reduce_to_value_v<T>(monoid: &Monoid<T>, u: &Vector<T>) -> GrbResult<T>
where
    T: ValueType,
{
    let u_s = u.snapshot_sparse()?;
    let t = match registry::try_reduce_svec(&u_s, monoid.builtin(), u.context().id()) {
        Some(t) => t,
        None => {
            registry::record_pick("reduce_v", u.context().id(), false);
            u_s.reduce(
                |v| v.clone(),
                |x, y| monoid.apply(&x, &y),
                monoid.terminal().map(|t| t as &dyn Fn(&T) -> bool),
            )
        }
    };
    Ok(t.unwrap_or_else(|| monoid.identity().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_mask_v;
    use crate::operations::testutil::{mat, vec, vec_tuples};

    #[test]
    fn row_reduction() {
        let a = mat((3, 3), &[(0, 0, 1i64), (0, 2, 2), (2, 1, 5)]);
        let w = Vector::<i64>::new(3).unwrap();
        reduce_to_vector(
            &w,
            no_mask_v(),
            None,
            &Monoid::plus(),
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 3), (2, 5)]);
    }

    #[test]
    fn column_reduction_via_transpose() {
        let a = mat((3, 3), &[(0, 0, 1i64), (0, 2, 2), (2, 0, 5)]);
        let w = Vector::<i64>::new(3).unwrap();
        reduce_to_vector(
            &w,
            no_mask_v(),
            None,
            &Monoid::plus(),
            &a,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 6), (2, 2)]);
    }

    #[test]
    fn scalar_reduction_empty_yields_empty_scalar() {
        let a = Matrix::<i64>::new(3, 3).unwrap();
        let s = Scalar::<i64>::new().unwrap();
        s.set_element(99).unwrap();
        reduce_scalar(&s, None, &Monoid::plus(), &a).unwrap();
        // No accumulator: the empty reduction clears the scalar (§VI —
        // "return an empty container", unlike 1.X's identity).
        assert_eq!(s.nvals().unwrap(), 0);
    }

    #[test]
    fn scalar_reduction_with_accum_keeps_old_on_empty() {
        let a = Matrix::<i64>::new(2, 2).unwrap();
        let s = Scalar::<i64>::new().unwrap();
        s.set_element(10).unwrap();
        reduce_scalar(&s, Some(&BinaryOp::plus()), &Monoid::plus(), &a).unwrap();
        assert_eq!(s.extract_element().unwrap(), Some(10));
        let b = mat((2, 2), &[(0, 0, 5i64)]);
        reduce_scalar(&s, Some(&BinaryOp::plus()), &Monoid::plus(), &b).unwrap();
        assert_eq!(s.extract_element().unwrap(), Some(15));
    }

    #[test]
    fn binop_reduction_to_scalar() {
        let u = vec(4, &[(0, 3i64), (2, 9), (3, 1)]);
        let s = Scalar::<i64>::new().unwrap();
        reduce_scalar_binop_v(&s, None, &BinaryOp::max(), &u).unwrap();
        assert_eq!(s.extract_element().unwrap(), Some(9));
        let empty = Vector::<i64>::new(4).unwrap();
        reduce_scalar_binop_v(&s, None, &BinaryOp::max(), &empty).unwrap();
        assert_eq!(s.nvals().unwrap(), 0);
    }

    #[test]
    fn typed_value_reduction_uses_identity_for_empty() {
        let a = Matrix::<i64>::new(2, 2).unwrap();
        assert_eq!(reduce_to_value(&Monoid::plus(), &a).unwrap(), 0);
        assert_eq!(
            reduce_to_value(&Monoid::<i64>::min(), &a).unwrap(),
            i64::MAX
        );
        let b = mat((2, 2), &[(0, 0, 5i64), (1, 1, -2)]);
        assert_eq!(reduce_to_value(&Monoid::plus(), &b).unwrap(), 3);
        assert_eq!(reduce_to_value(&Monoid::<i64>::min(), &b).unwrap(), -2);
        let u = vec(3, &[(1, 4i64)]);
        assert_eq!(reduce_to_value_v(&Monoid::plus(), &u).unwrap(), 4);
    }

    #[test]
    fn masked_reduce_to_vector() {
        let a = mat((2, 2), &[(0, 0, 1i64), (1, 0, 2), (1, 1, 3)]);
        let mask = vec(2, &[(1, true)]);
        let w = vec(2, &[(0, 100i64)]);
        reduce_to_vector(
            &w,
            Some(&mask),
            None,
            &Monoid::plus(),
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        // Row 1 reduced inside mask; row 0's old value kept outside mask.
        assert_eq!(vec_tuples(&w), vec![(0, 100), (1, 5)]);
    }
}
