//! `GrB_kronecker`: `C⟨M, r⟩ = C ⊙ kron(A, B)` with a binary operator.

use graphblas_sparse::kron;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, Error, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, snapshot_operand, Op};
use crate::ops::BinaryOp;
use crate::pending::NodeKind;
use crate::types::{MaskValue, ValueType};

/// `C⟨M, r⟩ = C ⊙ (A ⊗_op B)`.
pub fn kronecker<C, M, A, B>(
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
    let call = Op::begin("op.kronecker", &c.core, mask, desc)?;
    a.check_context(&call.ctx)?;
    b.check_context(&call.ctx)?;
    let (am, an) = eff_shape(a, desc.transpose_a);
    let (bm, bn) = eff_shape(b, desc.transpose_b);
    let expected = (
        am.checked_mul(bm).ok_or(ApiError::InvalidValue)?,
        an.checked_mul(bn).ok_or(ApiError::InvalidValue)?,
    );
    if call.shape() != expected {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, desc.transpose_a, true)?;
    let b_s = snapshot_operand(b, desc.transpose_b, true)?;
    let op = op.clone();
    call.run(NodeKind::MxM, accum, a_s.nnz() + b_s.nnz(), move |x| {
        kron::kronecker(x.ctx, &a_s, &b_s, |x, y| op.apply(x, y)).map_err(Error::from)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_mask;
    use crate::operations::testutil::{mat, mat_tuples};

    #[test]
    fn kron_scales_blocks() {
        let a = mat((1, 2), &[(0, 0, 2i64), (0, 1, 3)]);
        let b = mat((2, 1), &[(0, 0, 10i64), (1, 0, 100)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        kronecker(
            &c,
            no_mask(),
            None,
            &BinaryOp::times(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            mat_tuples(&c),
            vec![(0, 0, 20), (0, 1, 30), (1, 0, 200), (1, 1, 300)]
        );
    }

    #[test]
    fn kron_shape_validation() {
        let a = Matrix::<i64>::new(2, 2).unwrap();
        let b = Matrix::<i64>::new(2, 2).unwrap();
        let c = Matrix::<i64>::new(3, 4).unwrap();
        assert!(kronecker(
            &c,
            no_mask(),
            None,
            &BinaryOp::times(),
            &a,
            &b,
            &Descriptor::default()
        )
        .is_err());
    }

    #[test]
    fn kron_graph_expansion() {
        // kron of a 2-cycle with itself over PAIR counts: a 4-node graph.
        let ring = mat((2, 2), &[(0, 1, true), (1, 0, true)]);
        let c = Matrix::<u64>::new(4, 4).unwrap();
        kronecker(
            &c,
            no_mask(),
            None,
            &BinaryOp::<bool, bool, u64>::oneb(),
            &ring,
            &ring,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(c.nvals().unwrap(), 4);
        assert_eq!(c.extract_element(0, 3).unwrap(), Some(1));
    }
}
