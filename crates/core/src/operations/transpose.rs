//! `GrB_transpose`: `C⟨M, r⟩ = C ⊙ Aᵀ`. With `desc.transpose_a` the two
//! transposes cancel and the operation degenerates to a (masked,
//! accumulated) copy — the spec's idiom for formatted assignment.

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, snapshot_operand, Op};
use crate::ops::BinaryOp;
use crate::pending::NodeKind;
use crate::types::{MaskValue, ValueType};

/// `C⟨M, r⟩ = C ⊙ Aᵀ`.
pub fn transpose<T, M>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    a: &Matrix<T>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.transpose", &c.core, mask, desc)?;
    a.check_context(&call.ctx)?;
    // The operation transposes once; the descriptor flag transposes again.
    let effective_transpose = !desc.transpose_a;
    if call.shape() != eff_shape(a, effective_transpose) {
        return Err(ApiError::DimensionMismatch.into());
    }
    // The snapshot is already `T`: the write-back shares it instead of
    // copying whenever no merge needs to own it.
    let t_s = snapshot_operand(a, effective_transpose, true)?;
    call.run(NodeKind::Structure, accum, t_s.nnz(), move |_| Ok(t_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_mask;
    use crate::operations::testutil::{mat, mat_tuples};

    #[test]
    fn plain_transpose() {
        let a = mat((2, 3), &[(0, 1, 1i64), (1, 2, 2)]);
        let c = Matrix::<i64>::new(3, 2).unwrap();
        transpose(&c, no_mask(), None, &a, &Descriptor::default()).unwrap();
        assert_eq!(mat_tuples(&c), vec![(1, 0, 1), (2, 1, 2)]);
    }

    #[test]
    fn double_transpose_is_copy() {
        let a = mat((2, 3), &[(0, 1, 1i64), (1, 2, 2)]);
        let c = Matrix::<i64>::new(2, 3).unwrap();
        transpose(&c, no_mask(), None, &a, &Descriptor::new().transpose_a()).unwrap();
        assert_eq!(mat_tuples(&c), mat_tuples(&a));
    }

    #[test]
    fn transpose_with_accum() {
        let a = mat((2, 2), &[(0, 1, 1i64)]);
        let c = mat((2, 2), &[(1, 0, 10i64)]);
        transpose(
            &c,
            no_mask(),
            Some(&BinaryOp::plus()),
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(1, 0, 11)]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::<i64>::new(2, 3).unwrap();
        let c = Matrix::<i64>::new(2, 3).unwrap();
        assert!(transpose(&c, no_mask(), None, &a, &Descriptor::default()).is_err());
    }
}
