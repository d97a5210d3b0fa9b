//! Dense matrix storage (`GrB_DENSE_ROW_MATRIX` / `GrB_DENSE_COL_MATRIX`,
//! Table III): every element present, `indptr`/`indices` unused.

use graphblas_exec::{parallel_map_ranges, partition, Context};

use crate::csr::Csr;
use crate::error::FormatError;
use crate::transpose::transpose_parts;

/// Element ordering of a dense matrix buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Element `(i, j)` lives at `i * ncols + j`.
    RowMajor,
    /// Element `(i, j)` lives at `i + j * nrows`.
    ColMajor,
}

/// A fully-populated matrix.
#[derive(Debug, Clone)]
pub struct Dense<T> {
    nrows: usize,
    ncols: usize,
    layout: Layout,
    values: Vec<T>,
}

impl<T> Dense<T> {
    /// Builds from a value buffer of exactly `nrows * ncols` elements.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        layout: Layout,
        values: Vec<T>,
    ) -> Result<Self, FormatError> {
        let dense = Dense {
            nrows,
            ncols,
            layout,
            values,
        };
        dense.check()?;
        Ok(dense)
    }

    /// Full invariant validation, with [`crate::csr::Csr::check`]'s rigor:
    /// a dense store is valid iff its buffer holds exactly
    /// `nrows * ncols` elements (Table III: every element present,
    /// `indptr`/`indices` unused) and that product does not overflow.
    pub fn check(&self) -> Result<(), FormatError> {
        let expected = self
            .nrows
            .checked_mul(self.ncols)
            .ok_or(FormatError::Overflow)?;
        if self.values.len() != expected {
            return Err(FormatError::LengthMismatch {
                expected,
                actual: self.values.len(),
                what: "dense values",
            });
        }
        Ok(())
    }

    /// Consumes into the raw value buffer.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }

    fn offset(&self, i: usize, j: usize) -> usize {
        match self.layout {
            Layout::RowMajor => i * self.ncols + j,
            Layout::ColMajor => i + j * self.nrows,
        }
    }

    /// Looks up element `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        if i >= self.nrows || j >= self.ncols {
            return None;
        }
        Some(&self.values[self.offset(i, j)])
    }
}

impl<T: Clone + Send + Sync> Dense<T> {
    /// Converts to CSR; every dense element becomes a stored element
    /// (GraphBLAS has no implicit zero to elide).
    pub fn to_csr(&self, ctx: &Context) -> Csr<T> {
        let (m, n) = (self.nrows, self.ncols);
        if m == 0 || n == 0 {
            return Csr::empty(m, n);
        }
        let k = ctx
            .effective_threads()
            .min((m * n).div_ceil(ctx.chunk_size()).max(1))
            .min(m);
        let ranges = partition::balanced_ranges(m, k.max(1));
        let chunks = parallel_map_ranges(ranges, |rows: std::ops::Range<usize>| {
            let mut idx = Vec::with_capacity(rows.len() * n);
            let mut vals = Vec::with_capacity(rows.len() * n);
            let lens = vec![n; rows.len()];
            for i in rows.clone() {
                for j in 0..n {
                    idx.push(j);
                    vals.push(self.values[self.offset(i, j)].clone());
                }
            }
            (rows, (lens, idx, vals))
        });
        let (indptr, indices, values) = crate::util::stitch_row_chunks(m, chunks);
        Csr::from_kernel_parts(m, n, indptr, indices, values, true)
    }

    /// Converts a *fully populated* CSR into dense storage; errors when any
    /// element is missing (exporting a partial matrix to a dense format is
    /// ill-defined because GraphBLAS types have no implicit zero).
    pub fn from_csr_full(ctx: &Context, a: &Csr<T>, layout: Layout) -> Result<Self, FormatError> {
        let expected = a
            .nrows()
            .checked_mul(a.ncols())
            .ok_or(FormatError::Overflow)?;
        if a.nnz() != expected {
            return Err(FormatError::LengthMismatch {
                expected,
                actual: a.nnz(),
                what: "dense export requires every element present; stored-element count",
            });
        }
        let (m, n) = (a.nrows(), a.ncols());
        // With every position stored once, the layout's order is that of the
        // sorted rows of `a` (row-major) or of `Aᵀ` (column-major).
        let (shape, (indptr, indices, values)) = match layout {
            Layout::RowMajor => ((m, n), a.clone().into_parts()),
            Layout::ColMajor => ((n, m), transpose_parts(ctx, a)),
        };
        let mut rows = Csr::from_parts(shape.0, shape.1, indptr, indices, values)?;
        // A row that repeats a column leaves another position empty.
        if let Some((i, j)) = rows.sort_rows(ctx) {
            let (row, col) = match layout {
                Layout::RowMajor => (i, j),
                Layout::ColMajor => (j, i),
            };
            return Err(FormatError::Duplicate { row, col });
        }
        let (_, _, values) = rows.into_parts();
        Dense::from_parts(m, n, layout, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    #[test]
    fn row_and_col_major_agree() {
        let rm = Dense::from_parts(2, 3, Layout::RowMajor, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let cm = Dense::from_parts(2, 3, Layout::ColMajor, vec![1, 4, 2, 5, 3, 6]).unwrap();
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(rm.get(i, j), cm.get(i, j));
            }
        }
        assert_eq!(rm.get(1, 2), Some(&6));
        assert_eq!(rm.get(2, 0), None);
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(Dense::from_parts(2, 3, Layout::RowMajor, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn dense_to_csr_and_back() {
        let ctx = global_context();
        let d = Dense::from_parts(3, 2, Layout::RowMajor, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let csr = d.to_csr(&ctx);
        assert_eq!(csr.nnz(), 6);
        assert_eq!(csr.get(2, 1), Some(&6));
        let back = Dense::from_csr_full(&ctx, &csr, Layout::ColMajor).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(back.get(i, j), d.get(i, j));
            }
        }
    }

    #[test]
    fn partial_matrix_cannot_export_dense() {
        let ctx = global_context();
        let a = Csr::from_parts(2, 2, vec![0, 1, 1], vec![0], vec![9]).unwrap();
        assert!(Dense::from_csr_full(&ctx, &a, Layout::RowMajor).is_err());
    }

    #[test]
    fn unsorted_rows_export_in_layout_order_and_a_repeated_column_is_rejected() {
        let ctx = global_context();
        let a = Csr::from_parts(2, 2, vec![0, 2, 4], vec![1, 0, 0, 1], vec![2, 1, 3, 4]).unwrap();
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let d = Dense::from_csr_full(&ctx, &a, layout).unwrap();
            assert_eq!(d.get(0, 1), Some(&2));
            assert_eq!(d.get(1, 0), Some(&3));
        }
        let col_major = Dense::from_csr_full(&ctx, &a, Layout::ColMajor).unwrap();
        assert_eq!(col_major.into_values(), [1, 3, 2, 4]);
        let b = Csr::from_parts(2, 2, vec![0, 2, 4], vec![1, 0, 1, 1], vec![2, 1, 3, 4]).unwrap();
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let err = Dense::from_csr_full(&ctx, &b, layout).unwrap_err();
            assert!(matches!(err, FormatError::Duplicate { row: 1, col: 1 }));
        }
    }

    #[test]
    fn zero_sized_dense() {
        let ctx = global_context();
        let d = Dense::<u8>::from_parts(0, 5, Layout::RowMajor, vec![]).unwrap();
        let csr = d.to_csr(&ctx);
        assert_eq!(csr.nrows(), 0);
        assert_eq!(csr.ncols(), 5);
    }
}
