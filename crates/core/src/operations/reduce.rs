//! `GrB_reduce`: matrix → vector (row-wise monoid reduction) and
//! matrix/vector → scalar.
//!
//! GraphBLAS 2.0 (§VI) reworks the scalar-output forms around
//! `GrB_Scalar`: reducing an empty container yields an **empty scalar**
//! instead of the monoid identity, and a plain associative `BinaryOp` is
//! now accepted as the reduction operator (no identity needed when the
//! output may be empty). The 1.X typed-value forms (returning the identity
//! for empty inputs) are kept as `reduce_to_value*`.

use graphblas_exec::Context;
use graphblas_sparse::spmv::Never;
use graphblas_sparse::{Csr, SparseVec, VecView};

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, snapshot_operand, Accum, Op};
use crate::ops::{registry, BinaryOp, Monoid};
use crate::pending::NodeKind;
use crate::scalar::Scalar;
use crate::types::{MaskValue, ValueType};
use crate::vector::Vector;

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
    let call = Op::begin("op.reduce_to_vector", &w.core, mask, desc)?;
    a.check_context(&call.ctx)?;
    if call.shape() != eff_shape(a, desc.transpose_a).0 {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, desc.transpose_a, false)?;
    let monoid = monoid.clone();
    call.run(NodeKind::Reduce, accum, a_s.nnz(), move |x| {
        let rows = a_s.reduce_rows(x.ctx, |v| v.clone(), |x, y| monoid.apply(&x, &y));
        let stored = rows.into_iter().enumerate();
        let (indices, values) = stored.filter_map(|(i, r)| Some((i, r?))).unzip();
        // grblint: allow(no-unwrap) — indices are enumerate() positions:
        // strictly increasing and < nrows by construction.
        Ok(SparseVec::from_parts(a_s.nrows(), indices, values)
            .expect("reduce produces valid vector"))
    })
}

/// The deferred write shared by every reduction into a `GrB_Scalar`:
/// `s = s ⊙ reduce(ctx)`, computed under the scalar's own context `ctx`
/// when the scalar's sequence reaches it. Without an accumulator an empty
/// reduction empties the scalar (§VI).
fn write_scalar<T: ValueType>(
    s: &Scalar<T>,
    ctx: Context,
    accum: Accum<'_, T>,
    reduce: impl FnOnce(&Context) -> Option<T> + Send + 'static,
) -> GrbResult {
    let accum = accum.cloned();
    s.core.apply_write(Box::new(move |slot| {
        **slot = match (accum, slot.take(), reduce(&ctx)) {
            (Some(op), Some(old), Some(t)) => Some(op.apply(&old, &t)),
            (Some(_), old, None) => old,
            (_, _, t) => t,
        };
        Ok(())
    }))
}

/// All of `a` under `monoid`: the registered kernel when there is one,
/// the dyn-operator kernel (with the monoid's terminal early exit)
/// otherwise. `None` when `a` stores nothing.
fn reduce_csr<T: ValueType>(ctx: &Context, a: &Csr<T>, monoid: &Monoid<T>) -> Option<T> {
    registry::try_reduce_csr(ctx, a, monoid.builtin()).unwrap_or_else(|| {
        registry::record_pick("reduce", ctx.id(), false);
        a.reduce_all(ctx, |v| v.clone(), |x, y| monoid.apply(&x, &y), monoid.terminal())
    })
}

/// Vector form of [`reduce_csr`]: a loop over the stored values, whichever
/// format holds them.
fn reduce_svec<T: ValueType>(ctx: &Context, u: VecView<'_, T>, monoid: &Monoid<T>) -> Option<T> {
    registry::try_reduce_svec(ctx, u, monoid.builtin()).unwrap_or_else(|| {
        registry::record_pick("reduce_v", ctx.id(), false);
        u.reduce(ctx, |v| v.clone(), |x, y| monoid.apply(&x, &y), monoid.terminal())
    })
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
    write_scalar(s, ctx, accum, move |ctx| reduce_csr(ctx, &a_s, &monoid))
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
    write_scalar(s, ctx, accum, move |ctx| {
        a_s.reduce_all(ctx, |v| v.clone(), |x, y| op.apply(&x, &y), Never)
    })
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
    let u_s = u.snapshot_view()?;
    let monoid = monoid.clone();
    write_scalar(s, ctx, accum, move |ctx| reduce_svec(ctx, u_s.view(), &monoid))
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
    let u_s = u.snapshot_view()?;
    let op = op.clone();
    write_scalar(s, ctx, accum, move |ctx| {
        let u = u_s.view();
        u.reduce(ctx, |v| v.clone(), |x, y| op.apply(&x, &y), Never)
    })
}

/// The GraphBLAS 1.X typed form: reduces to a plain value, returning the
/// monoid identity when the matrix stores nothing.
pub fn reduce_to_value<T>(monoid: &Monoid<T>, a: &Matrix<T>) -> GrbResult<T>
where
    T: ValueType,
{
    let a_s = a.snapshot_csr(false)?;
    let t = reduce_csr(&a.context(), &a_s, monoid);
    Ok(t.unwrap_or_else(|| monoid.identity().clone()))
}

/// Vector form of [`reduce_to_value`].
pub fn reduce_to_value_v<T>(monoid: &Monoid<T>, u: &Vector<T>) -> GrbResult<T>
where
    T: ValueType,
{
    let u_s = u.snapshot_view()?;
    let t = reduce_svec(&u.context(), u_s.view(), monoid);
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
