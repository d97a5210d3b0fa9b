//! Validation errors for non-opaque storage formats.

use std::fmt;

/// Why a set of user-supplied arrays does not form a valid sparse object.
///
/// `graphblas-core` maps these onto the spec's error codes (mostly
/// `GrB_INVALID_VALUE` / `GrB_INDEX_OUT_OF_BOUNDS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// `indptr` is not a monotone array of the required length.
    BadPointers {
        /// The `indptr` length the format requires.
        expected_len: usize,
        /// Which invariant failed.
        detail: &'static str,
    },
    /// `indices`/`values` lengths disagree with each other or with `indptr`.
    LengthMismatch {
        /// The length the format requires.
        expected: usize,
        /// The length actually supplied.
        actual: usize,
        /// Which array (or concept) mismatched.
        what: &'static str,
    },
    /// An index is outside the object's dimensions.
    IndexOutOfBounds {
        /// The offending index value.
        index: usize,
        /// The (exclusive) dimension bound it violated.
        bound: usize,
        /// Which axis: "row", "column", or "vector".
        axis: &'static str,
    },
    /// The same coordinate appears twice and no combiner was supplied
    /// (GraphBLAS 2.0 §IX: a `NULL` dup makes duplicates an error).
    Duplicate {
        /// Row of the duplicated coordinate.
        row: usize,
        /// Column of the duplicated coordinate (0 for vectors).
        col: usize,
    },
    /// The object's dimensions overflow `usize` arithmetic.
    Overflow,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadPointers {
                expected_len,
                detail,
            } => write!(
                f,
                "invalid indptr array (expected length {expected_len}): {detail}"
            ),
            FormatError::LengthMismatch {
                expected,
                actual,
                what,
            } => {
                write!(
                    f,
                    "{what} length mismatch: expected {expected}, got {actual}"
                )
            }
            FormatError::IndexOutOfBounds { index, bound, axis } => {
                write!(f, "{axis} index {index} out of bounds (dimension {bound})")
            }
            FormatError::Duplicate { row, col } => {
                write!(f, "duplicate entry at ({row}, {col}) with no dup combiner")
            }
            FormatError::Overflow => write!(f, "dimension arithmetic overflow"),
        }
    }
}

impl std::error::Error for FormatError {}
