//! Coordinate (triplet) storage (`GrB_COO_MATRIX`, Table III).
//!
//! Entries carry explicit `(row, col)` coordinates and — per Table III —
//! "are not required to be sorted in any order". COO is the natural input
//! of `GrB_Matrix_build` and the import format closest to edge lists.

use graphblas_exec::Context;

use crate::csr::Csr;
use crate::error::FormatError;
use crate::util;

/// An unordered triplet matrix.
#[derive(Debug, Clone)]
pub struct Coo<T> {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<T>,
}

impl<T> Coo<T> {
    /// Builds from triplet arrays, validating lengths and bounds.
    /// Duplicate coordinates are allowed here; they are resolved (or
    /// rejected) during [`Coo::to_csr`].
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rows: Vec<usize>,
        cols: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, FormatError> {
        let coo = Coo {
            nrows,
            ncols,
            rows,
            cols,
            values,
        };
        coo.check()?;
        Ok(coo)
    }

    /// Logical number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Logical number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of triplets (before any duplicate resolution).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Allocated buffer bytes of this store (capacity, not length).
    pub fn bytes(&self) -> u64 {
        (self.rows.capacity() * std::mem::size_of::<usize>()
            + self.cols.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<T>()) as u64
    }

    /// Row index of each triplet.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Column index of each triplet.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Value of each triplet.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Consumes into `(rows, cols, values)`.
    pub fn into_parts(self) -> (Vec<usize>, Vec<usize>, Vec<T>) {
        (self.rows, self.cols, self.values)
    }

    /// Full invariant validation, with [`crate::csr::Csr::check`]'s rigor:
    /// the three triplet arrays agree in length and every coordinate is in
    /// bounds. (Duplicates are legal in COO — Table III imposes no order —
    /// so they are *not* an invariant violation here; they are resolved or
    /// rejected at [`Coo::to_csr`] time.)
    pub fn check(&self) -> Result<(), FormatError> {
        if self.rows.len() != self.values.len() {
            return Err(FormatError::LengthMismatch {
                expected: self.values.len(),
                actual: self.rows.len(),
                what: "row indices",
            });
        }
        if self.cols.len() != self.values.len() {
            return Err(FormatError::LengthMismatch {
                expected: self.values.len(),
                actual: self.cols.len(),
                what: "column indices",
            });
        }
        if let Some(&bad) = self.rows.iter().find(|&&i| i >= self.nrows) {
            return Err(FormatError::IndexOutOfBounds {
                index: bad,
                bound: self.nrows,
                axis: "row",
            });
        }
        if let Some(&bad) = self.cols.iter().find(|&&j| j >= self.ncols) {
            return Err(FormatError::IndexOutOfBounds {
                index: bad,
                bound: self.ncols,
                axis: "column",
            });
        }
        Ok(())
    }
}

impl<T: Clone + Send + Sync> Coo<T> {
    /// Converts to CSR. Duplicate coordinates are combined with `dup`, or
    /// rejected with [`FormatError::Duplicate`] when `dup` is `None` —
    /// GraphBLAS 2.0's optional-dup `build` semantics (§IX).
    pub fn to_csr(
        &self,
        ctx: &Context,
        dup: Option<&(dyn Fn(&T, &T) -> T + Sync)>,
    ) -> Result<Csr<T>, FormatError> {
        let nnz = self.nnz();
        // Counting sort by row.
        let mut counts = vec![0usize; self.nrows + 1];
        for &i in &self.rows {
            counts[i] += 1;
        }
        let total = util::exclusive_prefix_sum(&mut counts[..]);
        debug_assert_eq!(total, nnz);
        let mut indptr = counts; // now exclusive offsets, length nrows + 1
        indptr[self.nrows] = nnz;
        // Rebuild: counts currently holds start offsets shifted; recompute a
        // proper indptr and an independent cursor.
        let mut cursor: Vec<usize> = indptr[..self.nrows].to_vec();
        let mut indices = vec![0usize; nnz];
        let mut values: Vec<Option<T>> = vec![None; nnz];
        for k in 0..nnz {
            let i = self.rows[k];
            let p = cursor[i];
            cursor[i] += 1;
            indices[p] = self.cols[k];
            values[p] = Some(self.values[k].clone());
        }
        let values: Vec<T> = values
            .into_iter()
            // grblint: allow(no-unwrap) — the counting-sort cursor writes
            // each of the nnz slots exactly once.
            .map(|v| v.expect("every slot written"))
            .collect();
        let mut csr = Csr::from_kernel_parts(self.nrows, self.ncols, indptr, indices, values, false);
        let had_dups = csr.sort_rows(ctx);
        if had_dups {
            csr.dedup_sorted_rows(dup)?;
        }
        Ok(csr)
    }

    /// Converts from CSR (storage order, hence sorted by `(row, col)` when
    /// the CSR's rows are sorted).
    pub fn from_csr(a: &Csr<T>) -> Self {
        let (rows, cols, values) = a.tuples();
        let coo = Coo {
            nrows: a.nrows(),
            ncols: a.ncols(),
            rows,
            cols,
            values,
        };
        debug_assert!(
            coo.check().is_ok(),
            "CSR→COO conversion produced an invalid triplet store: {:?}",
            coo.check().err()
        );
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    #[test]
    fn unsorted_coo_to_csr() {
        let ctx = global_context();
        let coo = Coo::from_parts(
            3,
            3,
            vec![2, 0, 2, 0],
            vec![1, 2, 0, 0],
            vec![4, 2, 3, 1],
        )
        .unwrap();
        let csr = coo.to_csr(&ctx, None).unwrap();
        assert_eq!(
            csr.to_sorted_tuples(),
            vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)]
        );
        assert!(csr.is_rows_sorted());
    }

    #[test]
    fn duplicates_combined_with_dup() {
        let ctx = global_context();
        let coo =
            Coo::from_parts(2, 2, vec![0, 0, 0], vec![1, 1, 0], vec![5, 6, 1]).unwrap();
        let csr = coo.to_csr(&ctx, Some(&|a: &i32, b: &i32| a + b)).unwrap();
        assert_eq!(csr.get(0, 1), Some(&11));
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn duplicates_error_without_dup() {
        let ctx = global_context();
        let coo = Coo::from_parts(2, 2, vec![1, 1], vec![0, 0], vec![5, 6]).unwrap();
        let err = coo.to_csr(&ctx, None).unwrap_err();
        assert!(matches!(err, FormatError::Duplicate { row: 1, col: 0 }));
    }

    #[test]
    fn bounds_validated() {
        assert!(Coo::from_parts(2, 2, vec![2], vec![0], vec![1]).is_err());
        assert!(Coo::from_parts(2, 2, vec![0], vec![2], vec![1]).is_err());
        assert!(Coo::from_parts(2, 2, vec![0, 1], vec![0], vec![1, 2]).is_err());
        assert!(Coo::from_parts(2, 2, vec![0], vec![0, 1], vec![1]).is_err());
    }

    #[test]
    fn csr_coo_roundtrip() {
        let ctx = global_context();
        let a =
            Csr::from_parts(3, 4, vec![0, 2, 2, 3], vec![1, 3, 0], vec![7, 8, 9]).unwrap();
        let coo = Coo::from_csr(&a);
        assert_eq!(coo.nnz(), 3);
        let back = coo.to_csr(&ctx, None).unwrap();
        assert_eq!(a.to_sorted_tuples(), back.to_sorted_tuples());
    }

    #[test]
    fn empty_coo() {
        let ctx = global_context();
        let coo = Coo::<f32>::from_parts(4, 4, vec![], vec![], vec![]).unwrap();
        let csr = coo.to_csr(&ctx, None).unwrap();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 4);
    }
}
