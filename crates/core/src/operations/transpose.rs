//! `GrB_transpose`: `C⟨M, r⟩ = C ⊙ Aᵀ`. With `desc.transpose_a` the two
//! transposes cancel and the operation degenerates to a (masked,
//! accumulated) copy — the spec's idiom for formatted assignment.

use std::sync::Arc;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::{MatStore, Matrix};
use crate::operations::{eff_shape, note_dag_fusion, snapshot_matmask, snapshot_operand};
use crate::ops::BinaryOp;
use crate::pending::NodeKind;
use crate::types::{MaskValue, ValueType};
use crate::write;

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
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.transpose", ctx.id());
    a.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    // The operation transposes once; the descriptor flag transposes again.
    let effective_transpose = !desc.transpose_a;
    if c.shape() != eff_shape(a, effective_transpose) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let t_s = snapshot_operand(a, &ctx, effective_transpose, true)?;
    let mask_s = snapshot_matmask(mask, desc)?;
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Structure,
        Box::new(move |st, post| {
            let nnz_in = t_s.nnz();
            note_dag_fusion(
                "transpose",
                ctx2.id(),
                NodeKind::Structure,
                0,
                post.len(),
                nnz_in,
            );
            if mask_s.is_none() && accum.is_none() {
                // The snapshot is already the transposed CSR; share it
                // instead of cloning when it has no other owner.
                st.store = MatStore::Csr(t_s.clone());
            } else {
                let t = (*t_s).clone();
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
