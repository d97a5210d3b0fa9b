//! The GraphBLAS 2.0 error model (paper §V, §IX).
//!
//! Two kinds of errors, with very different contracts:
//!
//! * **API errors** — the method call itself was malformed. Deterministic,
//!   identical across implementations, *never deferred* even in
//!   nonblocking mode, and guaranteed to have modified nothing.
//! * **Execution errors** — a well-formed call went wrong while running
//!   (out of bounds, out of memory, duplicate without dup, …). In
//!   nonblocking mode these may surface later: at any subsequent method
//!   involving the object, or at the latest at
//!   `wait(Materialize)`. After an execution error the output object's
//!   contents are undefined; we mark it *poisoned* and keep the error
//!   sticky until the object is cleared or rebuilt.
//!
//! §IX of the paper pins the numeric values of `GrB_Info`; [`Info`] and
//! the `code()` methods reproduce the C ABI values exactly so an FFI
//! binding can link-match.

use std::fmt;

use graphblas_sparse::FormatError;

/// The spec's `GrB_Info` result codes with their pinned numeric values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum Info {
    /// `GrB_SUCCESS`.
    Success = 0,
    /// `GrB_NO_VALUE` — the element requested does not exist.
    NoValue = 1,
    // API errors.
    /// `GrB_UNINITIALIZED_OBJECT`.
    UninitializedObject = -1,
    /// `GrB_NULL_POINTER`.
    NullPointer = -2,
    /// `GrB_INVALID_VALUE`.
    InvalidValue = -3,
    /// `GrB_INVALID_INDEX`.
    InvalidIndex = -4,
    /// `GrB_DOMAIN_MISMATCH`.
    DomainMismatch = -5,
    /// `GrB_DIMENSION_MISMATCH`.
    DimensionMismatch = -6,
    /// `GrB_OUTPUT_NOT_EMPTY`.
    OutputNotEmpty = -7,
    /// `GrB_NOT_IMPLEMENTED`.
    NotImplemented = -8,
    /// Extension (not in the C enum): operands belong to different
    /// execution contexts, violating §IV's shared-context requirement.
    ContextMismatch = -9,
    // Execution errors.
    /// `GrB_PANIC`.
    Panic = -101,
    /// `GrB_OUT_OF_MEMORY`.
    OutOfMemory = -102,
    /// `GrB_INSUFFICIENT_SPACE`.
    InsufficientSpace = -103,
    /// `GrB_INVALID_OBJECT`.
    InvalidObject = -104,
    /// `GrB_INDEX_OUT_OF_BOUNDS`.
    IndexOutOfBounds = -105,
    /// `GrB_EMPTY_OBJECT`.
    EmptyObject = -106,
}

/// A malformed method call. Returned immediately; the spec guarantees no
/// arguments or program data were modified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiError {
    /// An object handle was used before being initialized.
    UninitializedObject,
    /// A required reference was absent (C's NULL-pointer class).
    NullPointer,
    /// A flag or size argument is outside its legal set.
    InvalidValue,
    /// An index argument is outside the object's dimensions.
    InvalidIndex,
    /// Operator/container domains are incompatible.
    DomainMismatch,
    /// Container shapes are incompatible.
    DimensionMismatch,
    /// `build` requires an empty output object.
    OutputNotEmpty,
    /// The requested variant is not provided by this implementation.
    NotImplemented,
    /// Operands belong to different execution contexts (§IV).
    ContextMismatch,
}

impl ApiError {
    /// The corresponding `GrB_Info` classification.
    pub fn info(self) -> Info {
        match self {
            ApiError::UninitializedObject => Info::UninitializedObject,
            ApiError::NullPointer => Info::NullPointer,
            ApiError::InvalidValue => Info::InvalidValue,
            ApiError::InvalidIndex => Info::InvalidIndex,
            ApiError::DomainMismatch => Info::DomainMismatch,
            ApiError::DimensionMismatch => Info::DimensionMismatch,
            ApiError::OutputNotEmpty => Info::OutputNotEmpty,
            ApiError::NotImplemented => Info::NotImplemented,
            ApiError::ContextMismatch => Info::ContextMismatch,
        }
    }

    /// The pinned `GrB_Info` integer value (§IX).
    pub fn code(self) -> i32 {
        self.info() as i32
    }
}

/// The category of an execution error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecErrorKind {
    /// Unrecoverable internal failure.
    Panic,
    /// Allocation failure.
    OutOfMemory,
    /// A caller-provided output buffer is too small (import/export paths).
    InsufficientSpace,
    /// An opaque object failed internal consistency checks (e.g. duplicate
    /// coordinates with no dup combiner).
    InvalidObject,
    /// A computed index went out of bounds during execution.
    IndexOutOfBounds,
    /// An object that must hold a value is empty (e.g. the `Scalar`
    /// identity passed to `Monoid::new_scalar`).
    EmptyObject,
}

impl ExecErrorKind {
    pub fn info(self) -> Info {
        match self {
            ExecErrorKind::Panic => Info::Panic,
            ExecErrorKind::OutOfMemory => Info::OutOfMemory,
            ExecErrorKind::InsufficientSpace => Info::InsufficientSpace,
            ExecErrorKind::InvalidObject => Info::InvalidObject,
            ExecErrorKind::IndexOutOfBounds => Info::IndexOutOfBounds,
            ExecErrorKind::EmptyObject => Info::EmptyObject,
        }
    }

    /// Stable kebab-case name, used as the detail string of
    /// `error-raised` provenance events.
    pub fn name(self) -> &'static str {
        match self {
            ExecErrorKind::Panic => "panic",
            ExecErrorKind::OutOfMemory => "out-of-memory",
            ExecErrorKind::InsufficientSpace => "insufficient-space",
            ExecErrorKind::InvalidObject => "invalid-object",
            ExecErrorKind::IndexOutOfBounds => "index-out-of-bounds",
            ExecErrorKind::EmptyObject => "empty-object",
        }
    }
}

/// An execution error with its implementation-defined description — the
/// string `GrB_error` hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionError {
    pub kind: ExecErrorKind,
    pub message: String,
}

impl ExecutionError {
    pub fn new(kind: ExecErrorKind, message: impl Into<String>) -> Self {
        if graphblas_obs::enabled() {
            // grblint: allow(relaxed-ordering) — monotonic obs counter.
            graphblas_obs::counters::pending()
                .errors_raised
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            graphblas_obs::events::decision_error_raised(
                kind.name(),
                (-(kind.info() as i32)) as u64,
            );
        }
        ExecutionError {
            kind,
            message: message.into(),
        }
    }

    /// The pinned `GrB_Info` integer value (§IX).
    pub fn code(&self) -> i32 {
        self.kind.info() as i32
    }
}

/// Any GraphBLAS failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    Api(ApiError),
    Execution(ExecutionError),
}

impl Error {
    pub fn code(&self) -> i32 {
        match self {
            Error::Api(e) => e.code(),
            Error::Execution(e) => e.code(),
        }
    }

    pub fn is_api(&self) -> bool {
        matches!(self, Error::Api(_))
    }

    pub fn is_execution(&self) -> bool {
        matches!(self, Error::Execution(_))
    }

    pub(crate) fn exec(kind: ExecErrorKind, message: impl Into<String>) -> Self {
        Error::Execution(ExecutionError::new(kind, message))
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ApiError::UninitializedObject => "uninitialized object",
            ApiError::NullPointer => "null pointer",
            ApiError::InvalidValue => "invalid value",
            ApiError::InvalidIndex => "invalid index",
            ApiError::DomainMismatch => "domain mismatch",
            ApiError::DimensionMismatch => "dimension mismatch",
            ApiError::OutputNotEmpty => "output not empty",
            ApiError::NotImplemented => "not implemented",
            ApiError::ContextMismatch => "operands belong to different contexts",
        };
        write!(f, "GraphBLAS API error ({}): {name}", self.code())
    }
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GraphBLAS execution error ({}): {}",
            self.code(),
            self.message
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Api(e) => e.fmt(f),
            Error::Execution(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<ApiError> for Error {
    fn from(e: ApiError) -> Self {
        Error::Api(e)
    }
}

impl From<ExecutionError> for Error {
    fn from(e: ExecutionError) -> Self {
        Error::Execution(e)
    }
}

/// Storage-format validation failures become execution errors: the call was
/// well-formed, the *data* was not. (Import argument-shape problems are
/// caught as API errors before conversion.)
impl From<FormatError> for Error {
    fn from(e: FormatError) -> Self {
        let kind = match &e {
            FormatError::IndexOutOfBounds { .. } => ExecErrorKind::IndexOutOfBounds,
            FormatError::Duplicate { .. } => ExecErrorKind::InvalidObject,
            _ => ExecErrorKind::InvalidObject,
        };
        Error::exec(kind, e.to_string())
    }
}

/// Shorthand used throughout the crate.
pub type GrbResult<T = ()> = Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_the_pinned_spec_values() {
        assert_eq!(Info::Success as i32, 0);
        assert_eq!(Info::NoValue as i32, 1);
        assert_eq!(ApiError::UninitializedObject.code(), -1);
        assert_eq!(ApiError::NullPointer.code(), -2);
        assert_eq!(ApiError::InvalidValue.code(), -3);
        assert_eq!(ApiError::InvalidIndex.code(), -4);
        assert_eq!(ApiError::DomainMismatch.code(), -5);
        assert_eq!(ApiError::DimensionMismatch.code(), -6);
        assert_eq!(ApiError::OutputNotEmpty.code(), -7);
        assert_eq!(ApiError::NotImplemented.code(), -8);
        assert_eq!(ExecutionError::new(ExecErrorKind::Panic, "x").code(), -101);
        assert_eq!(
            ExecutionError::new(ExecErrorKind::OutOfMemory, "x").code(),
            -102
        );
        assert_eq!(
            ExecutionError::new(ExecErrorKind::InsufficientSpace, "x").code(),
            -103
        );
        assert_eq!(
            ExecutionError::new(ExecErrorKind::InvalidObject, "x").code(),
            -104
        );
        assert_eq!(
            ExecutionError::new(ExecErrorKind::IndexOutOfBounds, "x").code(),
            -105
        );
        assert_eq!(
            ExecutionError::new(ExecErrorKind::EmptyObject, "x").code(),
            -106
        );
    }

    #[test]
    fn classification() {
        let api: Error = ApiError::DimensionMismatch.into();
        assert!(api.is_api() && !api.is_execution());
        let exec = Error::exec(ExecErrorKind::IndexOutOfBounds, "row 9 of 4");
        assert!(exec.is_execution());
        assert!(exec.to_string().contains("row 9 of 4"));
    }

    #[test]
    fn format_error_mapping() {
        let e: Error = FormatError::IndexOutOfBounds {
            index: 7,
            bound: 3,
            axis: "row",
        }
        .into();
        assert_eq!(e.code(), -105);
        let d: Error = FormatError::Duplicate { row: 1, col: 2 }.into();
        assert_eq!(d.code(), -104);
    }
}
