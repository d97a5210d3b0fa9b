//! Dense vector storage (`GrB_DENSE_VECTOR`, Table III): every element
//! present, `indices` unused.

use crate::error::FormatError;
use crate::svec::SparseVec;

/// A fully-populated vector.
#[derive(Debug, Clone)]
pub struct DenseVec<T> {
    values: Vec<T>,
}

impl<T> DenseVec<T> {
    /// Wraps a value buffer; element `i` of the vector is `values[i]`.
    pub fn from_values(values: Vec<T>) -> Self {
        DenseVec { values }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw value buffer (element `i` at position `i`).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the values (a dense vector has no structure to
    /// change), for kernels that accumulate in place.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Consumes into the raw value buffer.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }

    /// Allocated buffer bytes of this store (capacity, not length).
    pub fn bytes(&self) -> u64 {
        (self.values.capacity() * std::mem::size_of::<T>()) as u64
    }

    /// Looks up element `i`.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.values.get(i)
    }

    /// Full invariant validation, for parity with the other Table III
    /// formats. A dense vector is structurally valid for any buffer (its
    /// length *is* the vector's logical length and `indices` is unused), so
    /// this always succeeds — the method exists so generic verifiers can
    /// treat every format uniformly.
    pub fn check(&self) -> Result<(), FormatError> {
        Ok(())
    }
}

impl<T: Clone> DenseVec<T> {
    /// Converts to sparse form (all indices stored).
    pub fn to_sparse(&self) -> SparseVec<T> {
        SparseVec::from_kernel_parts(
            self.values.len(),
            (0..self.values.len()).collect(),
            self.values.clone(),
            true,
        )
    }

    /// Converts a *fully populated* sparse vector; errors when any element
    /// is missing (same rationale as dense matrix export).
    pub fn from_sparse_full(v: &SparseVec<T>) -> Result<Self, FormatError> {
        if v.nnz() != v.len() {
            return Err(FormatError::LengthMismatch {
                expected: v.len(),
                actual: v.nnz(),
                what: "dense vector export requires every element present; stored-element count",
            });
        }
        let table = v.to_option_table();
        let values = table
            .into_iter()
            // grblint: allow(no-unwrap) — nnz == len was verified above; a
            // valid sparse vector has no duplicate indices.
            .map(|x| x.expect("nnz == len implies all present"))
            .collect();
        Ok(DenseVec { values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = DenseVec::from_values(vec![1, 2, 3]);
        let s = d.to_sparse();
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.get(1), Some(&2));
        let back = DenseVec::from_sparse_full(&s).unwrap();
        assert_eq!(back.values(), &[1, 2, 3]);
    }

    #[test]
    fn partial_vector_cannot_export_dense() {
        let s = SparseVec::from_parts(3, vec![0, 2], vec![1, 3]).unwrap();
        assert!(DenseVec::from_sparse_full(&s).is_err());
    }

    #[test]
    fn empty_vector() {
        let d = DenseVec::<u8>::from_values(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.to_sparse().nnz(), 0);
    }
}
