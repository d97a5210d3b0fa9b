//! Deep container verification — the `grb_check` surface, re-exported
//! from `graphblas-core`.
//!
//! The container-level verifier lives in `graphblas_core::introspect`
//! (next to `ObjectStats`, per the GrB_get-style design): `grb_check`
//! validates a `Matrix` / `Vector` / `Scalar` without forcing completion —
//! Table III store invariants, store-vs-logical shape agreement, and the
//! §V rule that a poisoned object holds no pending stages. Debug builds
//! run the same checks automatically at every kernel boundary (after
//! `drain` and the `ensure_*` canonicalizations). A bare `Csr`/`Coo`/…
//! store is validated by its own `check()`.

pub use graphblas_core::introspect::{grb_check, Check, CheckError};

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_core::{Matrix, Vector};
    use graphblas_sparse::{Coo, Csr, DenseVec, SparseVec};

    #[test]
    fn raw_store_checks() {
        let csr = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1i64, 2]).unwrap();
        csr.check().unwrap();
        let coo = Coo::from_parts(2, 2, vec![0], vec![1], vec![5i64]).unwrap();
        coo.check().unwrap();
        let sv = SparseVec::from_parts(4, vec![1, 3], vec![1i64, 2]).unwrap();
        sv.check().unwrap();
        let dv = DenseVec::from_values(vec![1i64, 2, 3]);
        dv.check().unwrap();
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
