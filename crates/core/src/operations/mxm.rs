//! `GrB_mxm`: masked, accumulated matrix-matrix multiply over a semiring.

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, snapshot_operand, Op};
use crate::ops::{registry, BinaryOp, Semiring};
use crate::pending::NodeKind;
use crate::types::{MaskValue, ValueType};

/// `C⟨M, r⟩ = C ⊙ (A ⊕.⊗ B)`.
///
/// When a mask, plain or complemented, is present without an accumulator
/// the kernel runs in masked form (`spgemm_masked`, or `spgemm_count` for
/// PLUS.PAIR under a plain mask): it still forms the products, Σ |B(k,:)|
/// over the entries `A(i,k)` (a plain mask skips only the rows it admits
/// nothing in), but stores none outside the mask, and the write rule takes
/// its `T` without restricting it again.
pub fn mxm<C, M, A, B>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    semiring: &Semiring<A, B, C>,
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
    let call = Op::begin("op.mxm", &c.core, mask, desc)?;
    a.check_context(&call.ctx)?;
    b.check_context(&call.ctx)?;
    let (am, an) = eff_shape(a, desc.transpose_a);
    let (bm, bn) = eff_shape(b, desc.transpose_b);
    if an != bm || call.shape() != (am, bn) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, desc.transpose_a, false)?;
    let b_s = snapshot_operand(b, desc.transpose_b, false)?;
    let sr = semiring.clone();
    // Masked kernel: only valid when the merge wants exactly the
    // mask-restricted product (no accumulator folding old values in).
    let unaccumulated = accum.is_none();
    call.run(NodeKind::MxM, accum, a_s.nnz() + b_s.nnz(), move |x| {
        let ctx = x.ctx;
        let mask = x
            .mask
            .filter(|_| unaccumulated)
            .map(|m| (&*m.mask, m.complement));
        x.premasked = mask.is_some();
        let (add_tag, mul_tag) = (sr.add().builtin(), sr.mul().builtin());
        Ok(
            registry::try_spgemm(ctx, mask, &a_s, &b_s, add_tag, mul_tag).unwrap_or_else(|| {
                registry::record_pick("mxm", ctx.id(), false);
                let mul = |x: &A, y: &B| sr.multiply(x, y);
                let add = |acc: &mut C, z: C| *acc = sr.combine(acc, &z);
                registry::matmat(ctx, mask, &a_s, &b_s, mul, add)
            }),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::testutil::{mat, mat_tuples};
    use crate::{no_mask, Descriptor};

    #[test]
    fn plus_times_basic() {
        let a = mat((2, 3), &[(0, 0, 1i64), (0, 1, 2), (1, 2, 3)]);
        let b = mat((3, 2), &[(0, 0, 4i64), (1, 0, 5), (1, 1, 6), (2, 1, 7)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        mxm(
            &c,
            no_mask(),
            None,
            &Semiring::plus_times(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 14), (0, 1, 12), (1, 1, 21)]);
    }

    #[test]
    fn dimension_mismatch_is_api_error() {
        let a = Matrix::<i64>::new(2, 3).unwrap();
        let b = Matrix::<i64>::new(4, 2).unwrap();
        let c = Matrix::<i64>::new(2, 2).unwrap();
        let err = mxm(
            &c,
            no_mask(),
            None,
            &Semiring::plus_times(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(err, crate::Error::Api(ApiError::DimensionMismatch));
    }

    #[test]
    fn transpose_descriptors() {
        // A is 3x2; with INP0 transposed it acts as 2x3.
        let a = mat((3, 2), &[(0, 0, 1i64), (1, 0, 2), (2, 1, 3)]);
        let b = mat((3, 2), &[(0, 1, 10i64), (2, 0, 20)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        mxm(
            &c,
            no_mask(),
            None,
            &Semiring::plus_times(),
            &a,
            &b,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        // Aᵀ = [[1,2,0],[0,0,3]]; AᵀB = [[0,10],[60,0]]
        assert_eq!(mat_tuples(&c), vec![(0, 1, 10), (1, 0, 60)]);
    }

    #[test]
    fn masked_mxm_restricts_output() {
        let a = mat((2, 2), &[(0, 0, 1i64), (0, 1, 1), (1, 0, 1), (1, 1, 1)]);
        let mask = mat((2, 2), &[(0, 0, true), (1, 1, true)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        mxm(
            &c,
            Some(&mask),
            None,
            &Semiring::plus_times(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 2), (1, 1, 2)]);
    }

    #[test]
    fn accum_merges_with_old_contents() {
        let a = mat((1, 1), &[(0, 0, 3i64)]);
        let c = mat((1, 1), &[(0, 0, 100i64)]);
        mxm(
            &c,
            no_mask(),
            Some(&BinaryOp::plus()),
            &Semiring::plus_times(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 109)]);
    }

    #[test]
    fn complemented_mask_with_replace() {
        let a = mat((2, 2), &[(0, 0, 1i64), (1, 1, 1)]);
        let mask = mat((2, 2), &[(0, 0, true)]);
        let c = mat((2, 2), &[(0, 1, 42i64)]);
        // Complement: only (0,1),(1,0),(1,1) writable; replace clears rest.
        mxm(
            &c,
            Some(&mask),
            None,
            &Semiring::plus_times(),
            &a,
            &a,
            &Descriptor::new().complement_mask().replace(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(1, 1, 1)]);
    }

    #[test]
    fn boolean_reachability_squared() {
        // Path 0→1→2; A² over LOR.LAND gives the 2-hop reachability 0→2.
        let a = mat((3, 3), &[(0, 1, true), (1, 2, true)]);
        let c = Matrix::<bool>::new(3, 3).unwrap();
        mxm(
            &c,
            no_mask(),
            None,
            &Semiring::lor_land(),
            &a,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 2, true)]);
    }
}
