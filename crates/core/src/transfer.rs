//! Import/export between GraphBLAS containers and the non-opaque formats
//! of the paper's Table III (§VII.A).
//!
//! * **Import** validates the user's arrays at the call and converts them
//!   to the one matrix store, a CSR that holds no coordinate twice. A CSR
//!   with sorted rows is adopted as it is; any other import is one queued
//!   stage, as [`Matrix::build`]'s is, so a repeated coordinate is
//!   `build`'s execution error. [`Matrix::export_hint`] therefore answers
//!   CSR: `GrB_Matrix_exportHint` is only a hint.
//! * **Export** follows the two-step C protocol: `export_size` tells the
//!   caller how much to allocate; `export_into` fills caller-provided
//!   buffers **without growing them** (a too-small buffer is the
//!   `GrB_INSUFFICIENT_SPACE` execution error). The one-step
//!   [`Matrix::export`] convenience allocates internally.
//!
//! §IX pins enumeration values; [`Format`] and [`VectorFormat`] carry
//! explicit discriminants for ABI parity.

use std::sync::Arc;

use graphblas_exec::Context;
use graphblas_sparse::transpose::transpose;
use graphblas_sparse::{Coo, Csr, Dense, DenseVec, FormatError, Layout, SparseVec};

use crate::error::{ApiError, Error, ExecErrorKind, GrbResult};
use crate::matrix::{MatStore, Matrix, MatrixState};
use crate::types::{Index, ValueType};
use crate::vector::{VecSnap, VecStore, Vector, VectorState};

/// `GrB_Format` for matrices, with pinned values (§IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum Format {
    /// `GrB_CSR_MATRIX`
    Csr = 0,
    /// `GrB_CSC_MATRIX`
    Csc = 1,
    /// `GrB_COO_MATRIX`
    Coo = 2,
    /// `GrB_DENSE_ROW_MATRIX`
    DenseRow = 3,
    /// `GrB_DENSE_COL_MATRIX`
    DenseCol = 4,
}

/// `GrB_Format` for vectors, with pinned values (§IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum VectorFormat {
    /// `GrB_SPARSE_VECTOR`
    Sparse = 5,
    /// `GrB_DENSE_VECTOR`
    Dense = 6,
}

fn api_invalid<E>(_: E) -> Error {
    ApiError::InvalidValue.into()
}

impl<T: ValueType> Matrix<T> {
    /// `GrB_Matrix_import` into the global context; see
    /// [`Matrix::import_in`].
    pub fn import(
        nrows: Index,
        ncols: Index,
        format: Format,
        indptr: Option<Vec<Index>>,
        indices: Option<Vec<Index>>,
        values: Vec<T>,
    ) -> GrbResult<Self> {
        Self::import_in(
            &graphblas_exec::global_context(),
            nrows,
            ncols,
            format,
            indptr,
            indices,
            values,
        )
    }

    /// `GrB_Matrix_import`: constructs a matrix from Table III arrays.
    /// Array-shape violations are API errors (`GrB_INVALID_VALUE` /
    /// `GrB_NULL_POINTER`), reported at the call. A repeated coordinate is
    /// [`Matrix::build`]'s execution error, reported as `build` reports it:
    /// at the call in a Blocking context, at the first read in a
    /// NonBlocking one.
    pub fn import_in(
        ctx: &Context,
        nrows: Index,
        ncols: Index,
        format: Format,
        indptr: Option<Vec<Index>>,
        indices: Option<Vec<Index>>,
        values: Vec<T>,
    ) -> GrbResult<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        let to_csr: Box<dyn FnOnce(&Context) -> Result<Csr<T>, FormatError> + Send> = match format {
            Format::Csr => {
                let indptr = indptr.ok_or(ApiError::NullPointer)?;
                let indices = indices.ok_or(ApiError::NullPointer)?;
                let a =
                    Csr::from_parts(nrows, ncols, indptr, indices, values).map_err(api_invalid)?;
                if a.is_rows_sorted() {
                    let state = MatrixState::fresh(nrows, ncols, MatStore(Arc::new(a)));
                    return Ok(Matrix::from_state(ctx, state));
                }
                Box::new(move |ctx| sorted_distinct(ctx, a, false))
            }
            Format::Csc => {
                let indptr = indptr.ok_or(ApiError::NullPointer)?;
                let indices = indices.ok_or(ApiError::NullPointer)?;
                // A CSC matrix is the CSR of its transpose.
                let t =
                    Csr::from_parts(ncols, nrows, indptr, indices, values).map_err(api_invalid)?;
                Box::new(move |ctx| Ok(transpose(ctx, &sorted_distinct(ctx, t, true)?)))
            }
            Format::Coo => {
                // Table III: indptr holds column indices, indices holds row
                // indices for COO.
                let cols = indptr.ok_or(ApiError::NullPointer)?;
                let rows = indices.ok_or(ApiError::NullPointer)?;
                let coo = Coo::from_parts(nrows, ncols, rows, cols, values).map_err(api_invalid)?;
                Box::new(move |ctx| coo.into_csr(ctx, None))
            }
            Format::DenseRow | Format::DenseCol => {
                let layout = match format {
                    Format::DenseRow => Layout::RowMajor,
                    _ => Layout::ColMajor,
                };
                let d = Dense::from_parts(nrows, ncols, layout, values).map_err(api_invalid)?;
                Box::new(move |ctx| Ok(d.to_csr(ctx)))
            }
        };
        let m = Matrix::new_in(ctx, nrows, ncols)?;
        let ctx = ctx.clone();
        m.core.apply_write(Box::new(move |st| {
            st.store = MatStore(Arc::new(to_csr(&ctx)?));
            Ok(())
        }))?;
        Ok(m)
    }

    /// `GrB_Matrix_exportSize`: `(indptr_len, indices_len, values_len)`
    /// the caller must allocate for `format`.
    pub fn export_size(&self, format: Format) -> GrbResult<(usize, usize, usize)> {
        let nnz = self.nvals()?;
        let (nrows, ncols) = self.shape();
        Ok(match format {
            Format::Csr => (nrows + 1, nnz, nnz),
            Format::Csc => (ncols + 1, nnz, nnz),
            Format::Coo => (nnz, nnz, nnz),
            Format::DenseRow | Format::DenseCol => {
                let dense = nrows.checked_mul(ncols).ok_or(ApiError::InvalidValue)?;
                (0, 0, dense)
            }
        })
    }

    /// `GrB_Matrix_export` into caller-allocated buffers. The buffers'
    /// *capacities* must cover [`Matrix::export_size`]; the call clears and
    /// fills them without reallocating, returning
    /// `GrB_INSUFFICIENT_SPACE` otherwise.
    pub fn export_into(
        &self,
        format: Format,
        indptr: &mut Vec<Index>,
        indices: &mut Vec<Index>,
        values: &mut Vec<T>,
    ) -> GrbResult {
        let (np, ni, nv) = self.export_size(format)?;
        if indptr.capacity() < np || indices.capacity() < ni || values.capacity() < nv {
            return Err(Error::exec(
                ExecErrorKind::InsufficientSpace,
                format!(
                    "export requires capacities ({np}, {ni}, {nv}); got ({}, {}, {})",
                    indptr.capacity(),
                    indices.capacity(),
                    values.capacity()
                ),
            ));
        }
        let (p, i, v) = self.export(format)?;
        indptr.clear();
        indptr.extend(p);
        indices.clear();
        indices.extend(i);
        values.clear();
        values.extend(v);
        Ok(())
    }

    /// One-step export: `(indptr, indices, values)` in `format` (empty
    /// vectors where Table III marks arrays unused).
    pub fn export(&self, format: Format) -> GrbResult<(Vec<Index>, Vec<Index>, Vec<T>)> {
        let ctx = self.context();
        let csr = self.snapshot_csr(true)?;
        Ok(match format {
            Format::Csr => {
                let (p, i, v) = (*csr).clone().into_parts();
                (p, i, v)
            }
            Format::Csc => transpose(&ctx, &csr).into_parts(),
            Format::Coo => {
                let (rows, cols, vals) = csr.tuples();
                // Table III: indptr ← column indices, indices ← row indices.
                (cols, rows, vals)
            }
            Format::DenseRow => {
                let d = Dense::from_csr_full(&ctx, &csr, Layout::RowMajor).map_err(api_invalid)?;
                (Vec::new(), Vec::new(), d.into_values())
            }
            Format::DenseCol => {
                let d = Dense::from_csr_full(&ctx, &csr, Layout::ColMajor).map_err(api_invalid)?;
                (Vec::new(), Vec::new(), d.into_values())
            }
        })
    }

    /// `GrB_Matrix_exportHint`: the format the implementation believes is
    /// cheapest to export — CSR, the one store. Returns `None` (the C API's
    /// `GrB_NO_VALUE`) while work is still pending.
    pub fn export_hint(&self) -> Option<Format> {
        // Queued stages and un-folded element updates both count.
        (self.stats().pending == 0).then_some(Format::Csr)
    }
}

/// `a` with its rows sorted, or `build`'s duplicate error at its first
/// repeated coordinate (`a` holds `Aᵀ` when `transposed`).
fn sorted_distinct<T: ValueType>(
    ctx: &Context,
    mut a: Csr<T>,
    transposed: bool,
) -> Result<Csr<T>, FormatError> {
    match a.sort_rows(ctx) {
        None => Ok(a),
        Some((i, j)) if transposed => Err(FormatError::Duplicate { row: j, col: i }),
        Some((i, j)) => Err(FormatError::Duplicate { row: i, col: j }),
    }
}

impl<T: ValueType> Vector<T> {
    /// `GrB_Vector_import` into the global context.
    pub fn import(
        n: Index,
        format: VectorFormat,
        indices: Option<Vec<Index>>,
        values: Vec<T>,
    ) -> GrbResult<Self> {
        Self::import_in(
            &graphblas_exec::global_context(),
            n,
            format,
            indices,
            values,
        )
    }

    /// `GrB_Vector_import`: constructs a vector from Table III arrays. A
    /// repeated index is [`Vector::build`]'s execution error, reported as
    /// [`Matrix::import_in`] reports a repeated coordinate.
    pub fn import_in(
        ctx: &Context,
        n: Index,
        format: VectorFormat,
        indices: Option<Vec<Index>>,
        values: Vec<T>,
    ) -> GrbResult<Self> {
        if n == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        let store = match format {
            VectorFormat::Sparse => {
                let indices = indices.ok_or(ApiError::NullPointer)?;
                let mut sv = SparseVec::from_parts(n, indices, values).map_err(api_invalid)?;
                if !sv.is_sorted() {
                    let v = Vector::new_in(ctx, n)?;
                    v.core.apply_write(Box::new(move |st| {
                        sv.sort_dedup(None).map_err(Error::from)?;
                        st.store = VecStore::Sparse(Arc::new(sv));
                        Ok(())
                    }))?;
                    return Ok(v);
                }
                VecStore::Sparse(Arc::new(sv))
            }
            VectorFormat::Dense => {
                if values.len() != n {
                    return Err(ApiError::InvalidValue.into());
                }
                VecStore::Dense(Arc::new(DenseVec::from_values(values)))
            }
        };
        Ok(Vector::from_state(ctx, VectorState { n, store }))
    }

    /// `GrB_Vector_exportSize`: `(indices_len, values_len)`.
    pub fn export_size(&self, format: VectorFormat) -> GrbResult<(usize, usize)> {
        let nnz = self.nvals()?;
        Ok(match format {
            VectorFormat::Sparse => (nnz, nnz),
            VectorFormat::Dense => (0, self.size()),
        })
    }

    /// `GrB_Vector_export` into caller-allocated buffers (capacity
    /// protocol as in [`Matrix::export_into`]).
    pub fn export_into(
        &self,
        format: VectorFormat,
        indices: &mut Vec<Index>,
        values: &mut Vec<T>,
    ) -> GrbResult {
        let (ni, nv) = self.export_size(format)?;
        if indices.capacity() < ni || values.capacity() < nv {
            return Err(Error::exec(
                ExecErrorKind::InsufficientSpace,
                format!(
                    "export requires capacities ({ni}, {nv}); got ({}, {})",
                    indices.capacity(),
                    values.capacity()
                ),
            ));
        }
        let (i, v) = self.export(format)?;
        indices.clear();
        indices.extend(i);
        values.clear();
        values.extend(v);
        Ok(())
    }

    /// One-step export. A full store is read as it stands, in either
    /// format, and stays full.
    pub fn export(&self, format: VectorFormat) -> GrbResult<(Vec<Index>, Vec<T>)> {
        Ok(match format {
            VectorFormat::Sparse => self.extract_tuples()?,
            VectorFormat::Dense => {
                let values = match self.snapshot_view()? {
                    VecSnap::Full(d) => d.values().to_vec(),
                    VecSnap::Sparse(sv) => DenseVec::from_sparse_full(&sv)
                        .map_err(api_invalid)?
                        .into_values(),
                };
                (Vec::new(), values)
            }
        })
    }

    /// `GrB_Vector_exportHint` (see [`Matrix::export_hint`]).
    pub fn export_hint(&self) -> Option<VectorFormat> {
        if self.pending_len() > 0 {
            return None;
        }
        Some(match &self.core.lock_raw().store {
            VecStore::Sparse(_) => VectorFormat::Sparse,
            VecStore::Dense(_) => VectorFormat::Dense,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::Mode;

    #[test]
    fn format_codes_are_pinned() {
        assert_eq!(Format::Csr as i32, 0);
        assert_eq!(Format::Csc as i32, 1);
        assert_eq!(Format::Coo as i32, 2);
        assert_eq!(Format::DenseRow as i32, 3);
        assert_eq!(Format::DenseCol as i32, 4);
        assert_eq!(VectorFormat::Sparse as i32, 5);
        assert_eq!(VectorFormat::Dense as i32, 6);
    }

    #[test]
    fn csr_import_export_roundtrip() {
        let m = Matrix::<i64>::import(
            2,
            3,
            Format::Csr,
            Some(vec![0, 2, 3]),
            Some(vec![0, 2, 1]),
            vec![1, 2, 3],
        )
        .unwrap();
        assert_eq!(m.extract_element(0, 2).unwrap(), Some(2));
        assert_eq!(m.export_hint(), Some(Format::Csr));
        let (p, i, v) = m.export(Format::Csr).unwrap();
        assert_eq!(p, vec![0, 2, 3]);
        assert_eq!(i, vec![0, 2, 1]);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn all_formats_roundtrip_through_each_other() {
        let src =
            Matrix::<i32>::import(2, 2, Format::DenseRow, None, None, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(src.export_hint(), Some(Format::Csr));
        for fmt in [
            Format::Csr,
            Format::Csc,
            Format::Coo,
            Format::DenseRow,
            Format::DenseCol,
        ] {
            let (p, i, v) = src.export(fmt).unwrap();
            let m = Matrix::<i32>::import(
                2,
                2,
                fmt,
                (!p.is_empty()).then_some(p),
                (!i.is_empty()).then_some(i),
                v,
            )
            .unwrap();
            // Every import converts on arrival: the hint is the one store.
            assert_eq!(m.export_hint(), Some(Format::Csr));
            for r in 0..2 {
                for c in 0..2 {
                    assert_eq!(
                        m.extract_element(r, c).unwrap(),
                        src.extract_element(r, c).unwrap(),
                        "format {fmt:?} mismatch at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn export_size_and_capacity_protocol() {
        let m = Matrix::<i64>::import(
            2,
            2,
            Format::Coo,
            Some(vec![0, 1]),
            Some(vec![0, 1]),
            vec![5, 6],
        )
        .unwrap();
        let (np, ni, nv) = m.export_size(Format::Csr).unwrap();
        assert_eq!((np, ni, nv), (3, 2, 2));
        let mut p = Vec::with_capacity(np);
        let mut i = Vec::with_capacity(ni);
        let mut v = Vec::with_capacity(nv);
        m.export_into(Format::Csr, &mut p, &mut i, &mut v).unwrap();
        assert_eq!(p, vec![0, 1, 2]);
        // Undersized buffers → GrB_INSUFFICIENT_SPACE.
        let mut small: Vec<Index> = Vec::new();
        let mut i2 = Vec::with_capacity(ni);
        let mut v2 = Vec::with_capacity(nv);
        let err = m
            .export_into(Format::Csr, &mut small, &mut i2, &mut v2)
            .unwrap_err();
        assert_eq!(err.code(), -103);
    }

    fn contexts() -> [(Mode, Context); 2] {
        [Mode::Blocking, Mode::NonBlocking].map(|mode| {
            (
                mode,
                Context::new(&crate::global_context(), mode, Default::default()),
            )
        })
    }

    /// Asserts that `import` reports `build`'s duplicate error in `mode`:
    /// from the call in Blocking, from the first read in NonBlocking.
    fn assert_duplicate_error<X>(
        mode: Mode,
        import: GrbResult<X>,
        read: impl FnOnce(&X) -> GrbResult<usize>,
        at: (Index, Index),
    ) {
        let err = match mode {
            Mode::Blocking => import
                .err()
                .expect("a Blocking import reports the duplicate"),
            Mode::NonBlocking => {
                read(&import.expect("a NonBlocking import defers the duplicate")).unwrap_err()
            }
        };
        assert!(err.is_execution(), "{mode:?}: {err:?}");
        assert_eq!(err.code(), -104, "{mode:?}: {err:?}");
        let expect = FormatError::Duplicate {
            row: at.0,
            col: at.1,
        }
        .to_string();
        assert!(err.to_string().contains(&expect), "{mode:?}: {err}");
    }

    #[test]
    fn csr_and_csc_imports_reject_a_repeated_coordinate() {
        for (mode, ctx) in contexts() {
            // (0, 0) twice, as CSR (row 0 repeats column 0) and as CSC
            // (column 0 repeats row 0).
            for (format, indptr) in [(Format::Csr, vec![0, 2]), (Format::Csc, vec![0, 2, 2])] {
                let import = Matrix::<i64>::import_in(
                    &ctx,
                    1,
                    2,
                    format,
                    Some(indptr),
                    Some(vec![0, 0]),
                    vec![1, 2],
                );
                assert_duplicate_error(mode, import, |m| m.nvals(), (0, 0));
            }
            // Unsorted rows without a repeat convert to the same matrix.
            let m = Matrix::<i64>::import_in(
                &ctx,
                1,
                3,
                Format::Csr,
                Some(vec![0, 2]),
                Some(vec![2, 0]),
                vec![5, 6],
            )
            .unwrap();
            assert_eq!(
                m.extract_tuples().unwrap(),
                (vec![0, 0], vec![0, 2], vec![6, 5])
            );
        }
    }

    /// Reported as `build` reports a duplicate: from the call in Blocking,
    /// deferred to the first read in NonBlocking.
    #[test]
    fn coo_import_defers_duplicate_error() {
        for (mode, ctx) in contexts() {
            let coo = Matrix::<i64>::import_in(
                &ctx,
                2,
                2,
                Format::Coo,
                Some(vec![0, 0]), // column indices
                Some(vec![1, 1]), // row indices
                vec![7, 8],
            );
            assert_duplicate_error(mode, coo, |m| m.nvals(), (1, 0));
        }
    }

    #[test]
    fn repeated_vector_index_is_builds_error() {
        for (mode, ctx) in contexts() {
            let import = Vector::<i64>::import_in(
                &ctx,
                3,
                VectorFormat::Sparse,
                Some(vec![1, 1]),
                vec![5, 6],
            );
            assert_duplicate_error(mode, import, |v| v.nvals(), (1, 0));
            let v = Vector::<i64>::import_in(
                &ctx,
                3,
                VectorFormat::Sparse,
                Some(vec![2, 0]),
                vec![5, 6],
            )
            .unwrap();
            assert_eq!(v.extract_tuples().unwrap(), (vec![0, 2], vec![6, 5]));
        }
    }

    #[test]
    fn dense_export_requires_full_matrix() {
        let m = Matrix::<i64>::new(2, 2).unwrap();
        m.set_element(1, 0, 0).unwrap();
        assert!(m.export(Format::DenseRow).is_err());
    }

    #[test]
    fn missing_arrays_are_null_pointer_errors() {
        let err = Matrix::<i64>::import(2, 2, Format::Csr, None, Some(vec![]), vec![]).unwrap_err();
        assert_eq!(err, Error::Api(ApiError::NullPointer));
    }

    #[test]
    fn vector_import_export() {
        let v = Vector::<f64>::import(4, VectorFormat::Sparse, Some(vec![1, 3]), vec![1.5, 3.5])
            .unwrap();
        assert_eq!(v.export_hint(), Some(VectorFormat::Sparse));
        assert_eq!(v.extract_element(3).unwrap(), Some(3.5));
        let d = Vector::<f64>::import(3, VectorFormat::Dense, None, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.export_hint(), Some(VectorFormat::Dense));
        let (i, vals) = d.export(VectorFormat::Sparse).unwrap();
        assert_eq!(i, vec![0, 1, 2]);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        // Dense export of a partial vector fails.
        assert!(v.export(VectorFormat::Dense).is_err());
        // Capacity protocol.
        let (ni, nv) = v.export_size(VectorFormat::Sparse).unwrap();
        let mut ib = Vec::with_capacity(ni);
        let mut vb = Vec::with_capacity(nv);
        v.export_into(VectorFormat::Sparse, &mut ib, &mut vb)
            .unwrap();
        assert_eq!(ib, vec![1, 3]);
        let mut too_small: Vec<Index> = Vec::new();
        let mut vb2 = Vec::with_capacity(nv);
        assert_eq!(
            v.export_into(VectorFormat::Sparse, &mut too_small, &mut vb2)
                .unwrap_err()
                .code(),
            -103
        );
    }

    #[test]
    fn export_hint_is_none_while_pending() {
        use graphblas_exec::ContextOptions;
        let ctx = Context::new(
            &crate::global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let m = Matrix::<i64>::new_in(&ctx, 2, 2).unwrap();
        m.build(&[0], &[0], &[1], None).unwrap();
        assert_eq!(m.export_hint(), None);
        m.wait(crate::WaitMode::Complete).unwrap();
        assert!(m.export_hint().is_some());
    }
}
