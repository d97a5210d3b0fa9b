//! `GrB_eWiseAdd` / `GrB_eWiseMult`: element-wise union and intersection.
//!
//! Following the mathematical spec: *add* operates on the union of
//! structures (the operator only fires where both operands are present;
//! singletons pass through), *mult* on the intersection. `eWiseAdd`
//! therefore requires one common domain `T`, while `eWiseMult` is fully
//! heterogeneous (`A × B → C`). The two differ only in the kernel that
//! combines the operand snapshots; one body per container kind runs it.

use graphblas_exec::Context;
use graphblas_sparse::{ewise as kernels, Csr, VecOut, VecView};

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::{Matrix, MatrixState};
use crate::operations::{eff_shape, snapshot_operand, Accum, Op};
use crate::ops::{registry, BinaryOp};
use crate::pending::NodeKind;
use crate::types::{MaskValue, ValueType};
use crate::vector::{Vector, VectorState};

/// `C⟨M, r⟩ = C ⊙ kernel(A, B)`: every matrix element-wise entry.
fn ewise_m<C, A, B>(
    call: Op<'_, MatrixState<C>>,
    accum: Accum<'_, C>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    kernel: impl FnOnce(&Context, &Csr<A>, &Csr<B>) -> Csr<C> + Send + 'static,
) -> GrbResult
where
    C: ValueType,
    A: ValueType,
    B: ValueType,
{
    a.check_context(&call.ctx)?;
    b.check_context(&call.ctx)?;
    let sa = eff_shape(a, call.desc.transpose_a);
    if sa != eff_shape(b, call.desc.transpose_b) || call.shape() != sa {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, call.desc.transpose_a, true)?;
    let b_s = snapshot_operand(b, call.desc.transpose_b, true)?;
    let nnz_in = a_s.nnz() + b_s.nnz();
    call.run(NodeKind::EWise, accum, nnz_in, move |x| {
        Ok(kernel(x.ctx, &a_s, &b_s))
    })
}

/// `w⟨m, r⟩ = w ⊙ kernel(u, v)`: both vector element-wise entries. Each
/// operand reaches the kernel full or sparse, as it is stored.
fn ewise_vec<C, A, B>(
    call: Op<'_, VectorState<C>>,
    accum: Accum<'_, C>,
    u: &Vector<A>,
    v: &Vector<B>,
    kernel: impl FnOnce(&Context, VecView<'_, A>, VecView<'_, B>) -> VecOut<C> + Send + 'static,
) -> GrbResult
where
    C: ValueType,
    A: ValueType,
    B: ValueType,
{
    u.check_context(&call.ctx)?;
    v.check_context(&call.ctx)?;
    if u.size() != v.size() || call.shape() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_view()?;
    let v_s = v.snapshot_view()?;
    let nnz_in = u_s.nnz() + v_s.nnz();
    call.run(NodeKind::EWise, accum, nnz_in, move |x| {
        Ok(kernel(x.ctx, u_s.view(), v_s.view()))
    })
}

/// The union kernel under `op`: the registered instantiation when there
/// is one, the dyn-operator kernel otherwise.
fn union_m<T: ValueType>(
    op: &BinaryOp<T, T, T>,
) -> impl FnOnce(&Context, &Csr<T>, &Csr<T>) -> Csr<T> + Send + 'static {
    let op = op.clone();
    move |ctx, a, b| {
        registry::try_ewise_union(ctx, a, b, op.builtin()).unwrap_or_else(|| {
            registry::record_pick("ewise_add", ctx.id(), false);
            kernels::ewise_union(ctx, a, b, |x, y| op.apply(x, y))
        })
    }
}

/// The intersection kernel under `op` (see [`union_m`]).
fn intersect_m<A: ValueType, B: ValueType, C: ValueType>(
    op: &BinaryOp<A, B, C>,
) -> impl FnOnce(&Context, &Csr<A>, &Csr<B>) -> Csr<C> + Send + 'static {
    let op = op.clone();
    move |ctx, a, b| {
        registry::try_ewise_intersect(ctx, a, b, op.builtin()).unwrap_or_else(|| {
            registry::record_pick("ewise_mult", ctx.id(), false);
            kernels::ewise_intersect(ctx, a, b, |x, y| op.apply(x, y))
        })
    }
}

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
    let call = Op::begin("op.ewise_add", &c.core, mask, desc)?;
    ewise_m(call, accum, a, b, union_m(op))
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
    let call = Op::begin("op.ewise_mult", &c.core, mask, desc)?;
    ewise_m(call, accum, a, b, intersect_m(op))
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
    let call = Op::begin("op.ewise_add_monoid", &c.core, mask, desc)?;
    ewise_m(call, accum, a, b, union_m(monoid.op()))
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
    let call = Op::begin("op.ewise_add_semiring", &c.core, mask, desc)?;
    ewise_m(call, accum, a, b, union_m(semiring.add().op()))
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
    let call = Op::begin("op.ewise_mult_semiring", &c.core, mask, desc)?;
    ewise_m(call, accum, a, b, intersect_m(semiring.mul()))
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
    let op = op.clone();
    let call = Op::begin("op.ewise_add_v", &w.core, mask, desc)?;
    ewise_vec(call, accum, u, v, move |ctx, u, v| {
        registry::try_svec_union(ctx, u, v, op.builtin()).unwrap_or_else(|| {
            registry::record_pick("ewise_add_v", ctx.id(), false);
            kernels::svec_union(ctx, u, v, |x, y| op.apply(x, y))
        })
    })
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
    let op = op.clone();
    let call = Op::begin("op.ewise_mult_v", &w.core, mask, desc)?;
    ewise_vec(call, accum, u, v, move |ctx, u, v| {
        registry::try_svec_intersect(ctx, u, v, op.builtin()).unwrap_or_else(|| {
            registry::record_pick("ewise_mult_v", ctx.id(), false);
            kernels::svec_intersect(ctx, u, v, |x, y| op.apply(x, y))
        })
    })
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
