//! `GrB_extract`: sub-matrix / sub-vector extraction with arbitrary
//! (possibly repeating) index selectors. Out-of-range values *inside the
//! selector arrays* are data, hence execution errors (deferrable);
//! output-shape disagreement is an immediate API error.

use graphblas_sparse::SparseVec;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, Error, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, snapshot_operand, Op};
use crate::ops::BinaryOp;
use crate::pending::NodeKind;
use crate::types::{Index, MaskValue, ValueType};
use crate::vector::Vector;

/// `C⟨M, r⟩ = C ⊙ A(I, J)`.
pub fn extract<T, M>(
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
    let call = Op::begin("op.extract", &c.core, mask, desc)?;
    a.check_context(&call.ctx)?;
    if call.shape() != (rows.len(), cols.len()) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, desc.transpose_a, true)?;
    let (rows, cols) = (rows.to_vec(), cols.to_vec());
    call.run(NodeKind::Extract, accum, a_s.nnz(), move |x| {
        a_s.extract_submatrix(x.ctx, &rows, &cols)
            .map_err(Error::from)
    })
}

/// `w⟨m, r⟩ = w ⊙ u(I)`.
pub fn extract_v<T, M>(
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
    let call = Op::begin("op.extract_v", &w.core, mask, desc)?;
    u.check_context(&call.ctx)?;
    if call.shape() != indices.len() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let indices = indices.to_vec();
    call.run(NodeKind::Extract, accum, u_s.nnz(), move |_| {
        u_s.extract(&indices).map_err(Error::from)
    })
}

/// `GrB_Col_extract`: `w⟨m, r⟩ = w ⊙ A(I, j)` (`desc.transpose_a` extracts
/// a row instead).
pub fn extract_col<T, M>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    a: &Matrix<T>,
    rows: &[Index],
    j: Index,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
{
    let call = Op::begin("op.extract_col", &w.core, mask, desc)?;
    a.check_context(&call.ctx)?;
    if j >= eff_shape(a, desc.transpose_a).1 {
        return Err(ApiError::InvalidIndex.into());
    }
    if call.shape() != rows.len() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, desc.transpose_a, true)?;
    let rows = rows.to_vec();
    call.run(NodeKind::Extract, accum, a_s.nnz(), move |x| {
        let sub = a_s
            .extract_submatrix(x.ctx, &rows, &[j])
            .map_err(Error::from)?;
        let (indices, values) = sub.iter().map(|(i, _, v)| (i, v.clone())).unzip();
        SparseVec::from_parts(rows.len(), indices, values).map_err(Error::from)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::all_indices;
    use crate::operations::testutil::{mat, mat_tuples, vec, vec_tuples};
    use crate::{no_mask, no_mask_v};

    #[test]
    fn extract_submatrix_with_permutation() {
        let a = mat((3, 3), &[(0, 0, 1i64), (1, 1, 2), (2, 2, 3)]);
        let c = Matrix::<i64>::new(2, 3).unwrap();
        extract(
            &c,
            no_mask(),
            None,
            &a,
            &[2, 0],
            &all_indices(3),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 2, 3), (1, 0, 1)]);
    }

    #[test]
    fn extract_with_repeated_selectors() {
        let a = mat((2, 2), &[(0, 1, 7i64)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        extract(
            &c,
            no_mask(),
            None,
            &a,
            &[0, 0],
            &[1, 1],
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            mat_tuples(&c),
            vec![(0, 0, 7), (0, 1, 7), (1, 0, 7), (1, 1, 7)]
        );
    }

    #[test]
    fn oob_selector_is_execution_error() {
        let a = mat((2, 2), &[(0, 0, 1i64)]);
        let c = Matrix::<i64>::new(1, 1).unwrap();
        let err = extract(&c, no_mask(), None, &a, &[5], &[0], &Descriptor::default()).unwrap_err();
        assert!(err.is_execution());
        assert_eq!(err.code(), -105);
    }

    #[test]
    fn output_shape_is_api_checked() {
        let a = mat((2, 2), &[(0, 0, 1i64)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        let err = extract(&c, no_mask(), None, &a, &[0], &[0], &Descriptor::default()).unwrap_err();
        assert!(err.is_api());
    }

    #[test]
    fn vector_extract() {
        let u = vec(5, &[(0, 10i64), (3, 40)]);
        let w = Vector::<i64>::new(3).unwrap();
        extract_v(
            &w,
            no_mask_v(),
            None,
            &u,
            &[3, 1, 0],
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 40), (2, 10)]);
    }

    #[test]
    fn column_extract() {
        let a = mat((3, 2), &[(0, 1, 5i64), (2, 1, 7)]);
        let w = Vector::<i64>::new(3).unwrap();
        extract_col(
            &w,
            no_mask_v(),
            None,
            &a,
            &all_indices(3),
            1,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 5), (2, 7)]);
        // Row extraction via transpose flag.
        let r = Vector::<i64>::new(2).unwrap();
        extract_col(
            &r,
            no_mask_v(),
            None,
            &a,
            &all_indices(2),
            2,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&r), vec![(1, 7)]);
    }
}
