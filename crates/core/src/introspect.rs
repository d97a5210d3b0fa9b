//! `GrB_get`-style object introspection.
//!
//! GraphBLAS 2.0 objects are opaque, and under nonblocking execution (§III)
//! even their *contents* are in flux — operations may sit in the pending
//! sequence, a matrix's rows may be unsorted, a vector may be sparse or
//! full, and an execution error may be latent (§V). [`ObjectStats`] reports all of that without forcing
//! completion: querying never drains the sequence, converts storage, or
//! otherwise perturbs what it observes.

use graphblas_obs::JsonWriter;
use graphblas_sparse::FormatError;

/// A point-in-time description of one container's observable state.
///
/// Produced by `Matrix::stats()` / `Vector::stats()` / `Scalar::stats()`.
/// All fields describe the object *as stored right now*: `nvals` counts
/// elements in the current store and ignores everything `pending` counts,
/// so it can differ from what `nvals()` reports after completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectStats {
    /// Object kind: `"matrix"`, `"vector"`, or `"scalar"`.
    pub kind: &'static str,
    /// Logical row count (vector length for vectors; 1 for scalars).
    pub nrows: u64,
    /// Logical column count (1 for vectors and scalars).
    pub ncols: u64,
    /// Stored elements in the current store (pre-completion).
    pub nvals: u64,
    /// Deferred work: queued, not-yet-executed stages in the pending
    /// sequence plus (matrices) element updates not yet merged into the
    /// store.
    pub pending: u64,
    /// Current storage format: `"csr"` for every matrix, `"sparse"` or
    /// `"full"` for a vector.
    pub format: &'static str,
    /// Whether a sticky execution error poisons the object (§V).
    pub failed: bool,
    /// Id of the context the object belongs to (§IV).
    pub ctx: u64,
}

impl ObjectStats {
    /// Serializes to a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("kind");
        w.string(self.kind);
        w.key("nrows");
        w.number(self.nrows);
        w.key("ncols");
        w.number(self.ncols);
        w.key("nvals");
        w.number(self.nvals);
        w.key("pending");
        w.number(self.pending);
        w.key("format");
        w.string(self.format);
        w.key("failed");
        w.boolean(self.failed);
        w.key("ctx");
        w.number(self.ctx);
        w.end_object();
        w.finish()
    }
}

/// Why a container failed deep validation ([`grb_check`]).
///
/// Unlike [`ObjectStats`] — which *reports* state — `grb_check` *verifies*
/// it: every Table III format invariant of the current store, the agreement
/// between the store's shape and the container's logical dimensions, and
/// the §V deferred-error bookkeeping (a poisoned object's pending sequence
/// must be empty, because `drain` discards the sequence when it records the
/// sticky error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The store violates its Table III format invariants.
    Format {
        /// The store's format (`"csr"`, `"sparse"`, `"full"`) or the
        /// matrix update log.
        format: &'static str,
        /// The underlying violation.
        source: FormatError,
    },
    /// The store's shape disagrees with the container's logical dimensions.
    ShapeMismatch {
        /// Logical `(nrows, ncols)` of the container.
        logical: (u64, u64),
        /// `(nrows, ncols)` of the current store.
        store: (u64, u64),
    },
    /// §V violation: a sticky execution error coexists with queued stages.
    PendingAfterError {
        /// Number of stages still queued.
        pending: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Format { format, source } => {
                write!(f, "{format} store violates its format invariants: {source}")
            }
            CheckError::ShapeMismatch { logical, store } => write!(
                f,
                "store shape {}x{} disagrees with logical shape {}x{}",
                store.0, store.1, logical.0, logical.1
            ),
            CheckError::PendingAfterError { pending } => write!(
                f,
                "poisoned object still holds {pending} pending stage(s); \
                 drain must clear the sequence when it records the sticky error"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Deep container validation, implemented by `Matrix`, `Vector`, and
/// `Scalar`. Like [`ObjectStats`], checking never forces completion: it
/// validates the object *as stored right now*, pending stages and all.
pub trait Check {
    /// Verifies every internal invariant of the container.
    fn grb_check(&self) -> Result<(), CheckError>;
}

/// Free-function spelling of [`Check::grb_check`], mirroring how the C API
/// exposes `GxB_*_check`-style debug verifiers next to `GrB_get`.
// grblint: allow(grb-error-type) — diagnostic verifier: CheckError
// describes *why* a container is malformed, which no GrB_Info code can.
pub fn grb_check<O: Check>(obj: &O) -> Result<(), CheckError> {
    obj.grb_check()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_error_messages() {
        let e = CheckError::ShapeMismatch {
            logical: (3, 4),
            store: (4, 3),
        };
        assert!(e.to_string().contains("4x3"));
        assert!(e.to_string().contains("3x4"));
        let p = CheckError::PendingAfterError { pending: 2 };
        assert!(p.to_string().contains("2 pending"));
    }

    #[test]
    fn json_shape() {
        let s = ObjectStats {
            kind: "matrix",
            nrows: 3,
            ncols: 4,
            nvals: 2,
            pending: 1,
            format: "csr",
            failed: false,
            ctx: 7,
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"kind\":\"matrix\""));
        assert!(j.contains("\"pending\":1"));
        assert!(j.contains("\"failed\":false"));
    }
}
