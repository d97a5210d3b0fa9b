//! Coordinate (triplet) storage (`GrB_COO_MATRIX`, Table III).
//!
//! Entries carry explicit `(row, col)` coordinates and — per Table III —
//! "are not required to be sorted in any order". COO is the natural input
//! of `GrB_Matrix_build` and the import format closest to edge lists.

use graphblas_exec::Context;

use crate::csr::Csr;
use crate::error::FormatError;
use crate::scatter;
use crate::transpose::transpose_parts;

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

    /// Number of triplets (before any duplicate resolution).
    pub fn nnz(&self) -> usize {
        self.values.len()
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
    /// Converts to CSR with sorted rows — GraphBLAS 2.0's `build` with an
    /// optional `dup` (§IX). One pass of the stable counting scatter
    /// (`scatter.rs`) orders the triplets by column, and the transpose
    /// of that (a second pass) by row, so the triplets of one coordinate end
    /// up adjacent in arrival order. `dup` then folds each such run from the
    /// left in that order (`dup(dup(t₀, t₁), t₂)`: SECOND keeps the last
    /// one). With `dup` `None`, the first duplicated coordinate in
    /// row-major order is reported as [`FormatError::Duplicate`].
    pub fn to_csr(
        &self,
        ctx: &Context,
        dup: Option<&(dyn Fn(&T, &T) -> T + Sync)>,
    ) -> Result<Csr<T>, FormatError> {
        from_columns(ctx, self.by_column(ctx), dup)
    }

    /// [`Coo::to_csr`] of an owned store, which frees the triplets after
    /// the first pass, before the second allocates the result.
    pub fn into_csr(
        self,
        ctx: &Context,
        dup: Option<&(dyn Fn(&T, &T) -> T + Sync)>,
    ) -> Result<Csr<T>, FormatError> {
        let by_column = self.by_column(ctx);
        drop(self);
        from_columns(ctx, by_column, dup)
    }

    /// The first pass: the transpose as CSR, each of its rows (a column)
    /// in arrival order, duplicates included.
    fn by_column(&self, ctx: &Context) -> Csr<T> {
        let colptr = scatter::offsets(self.ncols, &self.cols);
        let triplets = (&self.cols[..], &self.rows[..], &self.values[..]);
        let (rows, values) = scatter::scatter(ctx, &colptr, &triplets, self.values.first());
        Csr::from_kernel_parts(self.ncols, self.nrows, colptr, rows, values, false)
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

/// The second pass of [`Coo::to_csr`]: transposing `by_column` leaves
/// every row sorted by column, and `dup` then folds the duplicates.
fn from_columns<T: Clone + Send + Sync>(
    ctx: &Context,
    by_column: Csr<T>,
    dup: Option<&(dyn Fn(&T, &T) -> T + Sync)>,
) -> Result<Csr<T>, FormatError> {
    let (mut indptr, mut indices, mut values) = transpose_parts(ctx, &by_column);
    combine_duplicates(&mut indptr, &mut indices, &mut values, dup)?;
    let (nrows, ncols) = (by_column.ncols(), by_column.nrows());
    Ok(Csr::from_kernel_parts(
        nrows, ncols, indptr, indices, values, true,
    ))
}

/// Folds every run of equal column indices in the rows of
/// `(indptr, indices, values)` — rows sorted, runs in arrival order — into
/// the run's first slot with `dup`, in place, and shrinks the arrays to the
/// result. Without `dup`, the first run reports [`FormatError::Duplicate`].
fn combine_duplicates<T>(
    indptr: &mut [usize],
    indices: &mut Vec<usize>,
    values: &mut Vec<T>,
    dup: Option<&(dyn Fn(&T, &T) -> T + Sync)>,
) -> Result<(), FormatError> {
    let (mut w, mut start) = (0usize, 0usize);
    for i in 0..indptr.len() - 1 {
        let (row_start, end) = (w, indptr[i + 1]);
        for r in start..end {
            let j = indices[r];
            if w > row_start && indices[w - 1] == j {
                let Some(op) = dup else {
                    return Err(FormatError::Duplicate { row: i, col: j });
                };
                values[w - 1] = op(&values[w - 1], &values[r]);
            } else {
                indices[w] = j;
                // A move, not a clone: slot `r` is not read again.
                values.swap(w, r);
                w += 1;
            }
        }
        indptr[i + 1] = w;
        start = end;
    }
    indices.truncate(w);
    values.truncate(w);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    #[test]
    fn unsorted_coo_to_csr() {
        let ctx = global_context();
        let coo =
            Coo::from_parts(3, 3, vec![2, 0, 2, 0], vec![1, 2, 0, 0], vec![4, 2, 3, 1]).unwrap();
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
        let coo = Coo::from_parts(2, 2, vec![0, 0, 0], vec![1, 1, 0], vec![5, 6, 1]).unwrap();
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
        let a = Csr::from_parts(3, 4, vec![0, 2, 2, 3], vec![1, 3, 0], vec![7, 8, 9]).unwrap();
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
