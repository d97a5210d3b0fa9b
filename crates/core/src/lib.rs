//! # graphblas-core — the GraphBLAS 2.0 API for Rust
//!
//! A complete realization of the GraphBLAS 2.0 specification introduced in
//! *Brock, Buluç, Mattson, McMillan, Moreira — "Introduction to GraphBLAS
//! 2.0", IPDPSW (GrAPL) 2021*: graph algorithms expressed as sparse linear
//! algebra over arbitrary semirings, with the 2.0 additions —
//! multithreading semantics and completion (`wait`), hierarchical execution
//! contexts, the two-tier error model, the `Scalar` object, non-opaque
//! import/export, opaque serialization, and index-aware operators
//! (`select` and the index-unary `apply` variants).
//!
//! ## Quick start
//!
//! ```
//! use graphblas_core as grb;
//! use grb::{Matrix, Vector, Semiring, Descriptor, no_mask_v};
//!
//! // A tiny directed graph as a boolean adjacency matrix.
//! let a = Matrix::<bool>::new(3, 3).unwrap();
//! a.build(&[0, 1, 2], &[1, 2, 0], &[true, true, true], None).unwrap();
//!
//! // One step of frontier expansion: y = frontier ⊕.⊗ A over LOR.LAND.
//! let frontier = Vector::<bool>::new(3).unwrap();
//! frontier.set_element(true, 0).unwrap();
//! let next = Vector::<bool>::new(3).unwrap();
//! grb::operations::vxm(
//!     &next, no_mask_v(), None,
//!     &Semiring::lor_land(), &frontier, &a, &Descriptor::default(),
//! ).unwrap();
//! assert_eq!(next.extract_element(1).unwrap(), Some(true));
//! ```

// `dyn Fn` operator fields and stage closures are the domain model here;
// aliasing every signature would hide more than it reveals.
#![allow(clippy::type_complexity)]

pub(crate) mod bytesio;
pub(crate) mod container;
pub mod descriptor;
pub mod error;
pub mod introspect;
pub mod matrix;
pub mod operations;
pub mod ops;
pub mod pending;
pub mod scalar;
pub mod serialize;
pub mod transfer;
pub mod types;
pub mod vector;
pub(crate) mod write;

pub use descriptor::Descriptor;
pub use error::{ApiError, Error, ExecErrorKind, ExecutionError, GrbResult, Info};
pub use introspect::{grb_check, Check, CheckError, ObjectStats};
pub use matrix::Matrix;
pub use ops::{BinaryOp, IndexUnaryOp, Monoid, Semiring, UnaryOp};
pub use pending::WaitMode;
pub use scalar::Scalar;
pub use transfer::{Format, VectorFormat};
pub use types::{Index, MaskValue, ValueType};
pub use vector::Vector;

// Execution-context surface (§III, §IV) re-exported from the substrate.
pub use graphblas_exec::{global_context, Context, ContextOptions, Mode};

/// `GrB_init`: establishes the top-level context. Returns `false` (no-op)
/// when the library was already initialized.
pub fn init(mode: Mode) -> bool {
    graphblas_exec::init(mode)
}

/// `GrB_finalize`: tears down the top-level context. Outstanding object
/// handles keep their contexts alive; new objects after a later [`init`]
/// join the fresh tree, and the calling thread's cached workspaces and
/// shelved result buffers are freed. On the way out the telemetry exports
/// whose variables are set are written: the per-thread timeline as
/// Chrome-trace JSON to `GRB_TRACE=<path>` and the decision history as
/// explain/v1 JSON to `GRB_EXPLAIN=<path>` (programs that never finalize
/// can write them explicitly via `graphblas_obs::write_exports`).
pub fn finalize() {
    graphblas_obs::write_exports();
    graphblas_exec::finalize()
}

/// The idiomatic spelling of "no mask" (`GrB_NULL` mask in C): fixes the
/// mask's type parameter so call sites don't need a turbofish.
pub fn no_mask<'a>() -> Option<&'a Matrix<bool>> {
    None
}

/// The vector form of [`no_mask`].
pub fn no_mask_v<'a>() -> Option<&'a Vector<bool>> {
    None
}
