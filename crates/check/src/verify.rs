//! Deep container verification — the `grb_check` surface, re-exported
//! from `graphblas-core` plus raw-store helpers for the Table III formats.
//!
//! The container-level verifier lives in `graphblas_core::introspect`
//! (next to `ObjectStats`, per the GrB_get-style design): `grb_check`
//! validates a `Matrix` / `Vector` / `Scalar` without forcing completion —
//! Table III store invariants, store-vs-logical shape agreement, and the
//! §V rule that a poisoned object holds no pending stages. Debug builds
//! run the same checks automatically at every kernel boundary (after
//! `drain` and the `ensure_*` canonicalizations).
//!
//! This module adds the *raw store* entry points so tools (and the model
//! tests) can validate a bare `Csr`/`Coo`/… without wrapping it in a
//! container.

pub use graphblas_core::introspect::{grb_check, Check, CheckError};
use graphblas_sparse::{Coo, Csr, Dense, DenseVec, FormatError, SparseVec};

/// Validates a bare CSR store (Table III `GrB_CSR_MATRIX` invariants).
pub fn check_csr<T>(a: &Csr<T>) -> Result<(), FormatError> {
    a.check()
}

/// Validates a bare COO store (`GrB_COO_MATRIX`).
pub fn check_coo<T>(a: &Coo<T>) -> Result<(), FormatError> {
    a.check()
}

/// Validates a bare dense store (`GrB_DENSE_ROW_MATRIX` /
/// `GrB_DENSE_COL_MATRIX`).
pub fn check_dense<T>(a: &Dense<T>) -> Result<(), FormatError> {
    a.check()
}

/// Validates a bare sparse vector (`GrB_SPARSE_VECTOR`).
pub fn check_svec<T>(a: &SparseVec<T>) -> Result<(), FormatError> {
    a.check()
}

/// Validates a bare dense vector (`GrB_DENSE_VECTOR`).
pub fn check_dvec<T>(a: &DenseVec<T>) -> Result<(), FormatError> {
    a.check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_core::{Matrix, Vector};

    #[test]
    fn raw_store_checks() {
        let csr = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1i64, 2]).unwrap();
        check_csr(&csr).unwrap();
        let coo = Coo::from_parts(2, 2, vec![0], vec![1], vec![5i64]).unwrap();
        check_coo(&coo).unwrap();
        let sv = SparseVec::from_parts(4, vec![1, 3], vec![1i64, 2]).unwrap();
        check_svec(&sv).unwrap();
        let dv = DenseVec::from_values(vec![1i64, 2, 3]);
        check_dvec(&dv).unwrap();
    }

    #[test]
    fn container_checks_via_reexport() {
        let m = Matrix::<i64>::new(3, 3).unwrap();
        m.set_element(1, 0, 2).unwrap();
        grb_check(&m).unwrap();
        let v = Vector::<f64>::new(5).unwrap();
        v.set_element(2.5, 1).unwrap();
        grb_check(&v).unwrap();
    }
}
