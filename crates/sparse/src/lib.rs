//! Sparse storage formats and parallel kernels for `graphblas-rs`.
//!
//! The GraphBLAS 2.0 specification deliberately leaves storage opaque; this
//! crate is the implementation-defined substrate behind the opaque
//! `GrB_Matrix` / `GrB_Vector` handles in `graphblas-core`:
//!
//! * [`csr`] / [`coo`] / [`dense`] — the matrix formats of the paper's
//!   Table III (import/export), each self-validating; a CSC matrix is the
//!   CSR of its transpose;
//! * [`svec`] / [`dvec`] — sparse and dense vector formats (Table III),
//!   and the two-format operand view the vector kernels read;
//! * [`convert`] — the spanned COO → CSR canonicalization (the other
//!   conversions are methods on the stores);
//! * [`transpose`] — the transpose, one pass of the stable counting
//!   scatter that also turns COO into CSR;
//! * [`spmv`] — row-parallel matrix-vector products over arbitrary
//!   (mul, add) closures, with optional early-exit terminal detection;
//! * [`spgemm`] — Gustavson row-parallel matrix-matrix product with
//!   per-task sparse accumulators, plus a structure-masked variant;
//! * [`ewise`] — union (eWiseAdd) and intersection (eWiseMult) merges;
//! * [`kron`] — Kronecker products.
//!
//! All kernels accept a [`graphblas_exec::Context`] and honour its thread
//! budget. Kernels are generic over plain `Fn` closures: calling them with
//! boxed operator objects reproduces the per-scalar indirect-call cost the
//! paper discusses in §II, while calling them with inline closures yields
//! monomorphized code — `core::ops::registry` pre-instantiates the hot
//! builtin-semiring combinations, and the `kernels` bench measures the
//! static-vs-dyn gap in its in-harness ablation.

// `dyn Fn` operator fields and stage closures are the domain model here;
// aliasing every signature would hide more than it reveals.
#![allow(clippy::type_complexity)]

pub mod convert;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod dvec;
pub mod error;
pub mod ewise;
pub mod kron;
mod scatter;
pub mod spgemm;
pub mod spmv;
pub mod svec;
pub mod transpose;
pub mod util;

pub use coo::Coo;
pub use csr::{Csr, ElementUpdate};
pub use dense::{Dense, Layout};
pub use dvec::DenseVec;
pub use error::FormatError;
pub use svec::{SparseVec, VecOut, VecView};
