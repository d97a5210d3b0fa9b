//! Compressed Sparse Column storage (`GrB_CSC_MATRIX`, Table III).
//!
//! A CSC matrix is stored as the CSR representation of its transpose, so
//! every CSR kernel is reusable; only the import/export surface differs.

use graphblas_exec::Context;

use crate::csr::Csr;
use crate::error::FormatError;
use crate::transpose::transpose;

/// A CSC matrix of logical shape `nrows × ncols`, held internally as the
/// CSR of the transpose.
#[derive(Debug, Clone)]
pub struct Csc<T> {
    /// CSR of shape `ncols × nrows`: row `j` of `t` is column `j` of `self`.
    t: Csr<T>,
}

impl<T> Csc<T> {
    /// An empty matrix of the given logical shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csc {
            t: Csr::empty(ncols, nrows),
        }
    }

    /// Builds from Table III CSC arrays: `indptr` of length `ncols + 1`,
    /// `indices` holding *row* indices per column, `values` the elements.
    /// Columns may be unsorted.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, FormatError> {
        Ok(Csc {
            t: Csr::from_parts(ncols, nrows, indptr, indices, values)?,
        })
    }

    /// Consumes the matrix, returning CSC arrays `(indptr, indices, values)`.
    pub fn into_parts(self) -> (Vec<usize>, Vec<usize>, Vec<T>) {
        self.t.into_parts()
    }

    /// Logical number of rows.
    pub fn nrows(&self) -> usize {
        self.t.ncols()
    }

    /// Logical number of columns.
    pub fn ncols(&self) -> usize {
        self.t.nrows()
    }

    /// Number of stored elements.
    pub fn nnz(&self) -> usize {
        self.t.nnz()
    }

    /// Allocated buffer bytes of this store (see [`Csr::bytes`]).
    pub fn bytes(&self) -> u64 {
        self.t.bytes()
    }

    /// Row indices and values of logical column `j`.
    pub fn col(&self, j: usize) -> (&[usize], &[T]) {
        self.t.row(j)
    }

    /// Looks up element `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        if j >= self.ncols() {
            return None;
        }
        self.t.get(j, i)
    }

    /// Full invariant validation, with [`Csr::check`]'s rigor: validates
    /// the internal transpose-CSR (whose rows are this matrix's columns, so
    /// a reported "column" bound violation is a CSC *row* bound violation).
    pub fn check(&self) -> Result<(), FormatError> {
        self.t.check().map_err(|e| match e {
            FormatError::IndexOutOfBounds { index, bound, .. } => {
                FormatError::IndexOutOfBounds {
                    index,
                    bound,
                    axis: "row",
                }
            }
            other => other,
        })
    }
}

impl<T: Clone + Send + Sync> Csc<T> {
    /// Converts to CSR (a transpose pass).
    pub fn to_csr(&self, ctx: &Context) -> Csr<T> {
        transpose(ctx, &self.t)
    }

    /// Converts from CSR (a transpose pass).
    pub fn from_csr(ctx: &Context, a: &Csr<T>) -> Self {
        Csc {
            t: transpose(ctx, a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    #[test]
    fn csc_from_parts_and_get() {
        // [[1, _],
        //  [2, 3]]  in CSC: col0 = {0:1, 1:2}, col1 = {1:3}
        let c = Csc::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1, 2, 3]).unwrap();
        assert_eq!(c.get(0, 0), Some(&1));
        assert_eq!(c.get(1, 0), Some(&2));
        assert_eq!(c.get(1, 1), Some(&3));
        assert_eq!(c.get(0, 1), None);
        assert_eq!(c.nrows(), 2);
        assert_eq!(c.ncols(), 2);
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.col(0).0, &[0, 1]);
    }

    #[test]
    fn csr_csc_roundtrip() {
        let ctx = global_context();
        let a =
            Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1, 2, 3, 4]).unwrap();
        let c = Csc::from_csr(&ctx, &a);
        for (i, j, v) in a.iter() {
            assert_eq!(c.get(i, j), Some(v));
        }
        let back = c.to_csr(&ctx);
        assert_eq!(a.to_sorted_tuples(), back.to_sorted_tuples());
    }

    #[test]
    fn csc_validation_errors() {
        // Row index out of bounds (nrows = 2).
        assert!(Csc::<i32>::from_parts(2, 2, vec![0, 1, 1], vec![5], vec![1]).is_err());
        // Wrong indptr length for ncols = 2.
        assert!(Csc::<i32>::from_parts(2, 2, vec![0, 1], vec![0], vec![1]).is_err());
    }
}
