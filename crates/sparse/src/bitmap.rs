//! Bitmap vector storage (`GxB_BITMAP`, Table III): a presence bitmap
//! plus a value slot per logical position.
//!
//! The bitmap format is the middle ground between the sparse index list
//! and a full dense array: O(1) membership tests and updates with no
//! index arrays to merge, at the cost of O(n) storage. Table III
//! prescribes an unordered byte/bit map over *uninitialized* value slots;
//! safe Rust cannot leave slots uninitialized, so values live in
//! `Vec<Option<T>>` — the `None` slots stand in for the paper's
//! uninitialized entries and the invariant "slot is `Some` exactly where
//! the bit is set" is what [`BitmapVec::check`] enforces.
//!
//! The direction-optimizing `mxv`/`vxm` path stores mid-density frontiers
//! (at least 1/4 occupied but not full — see `core`'s format heuristic) in
//! this format: the pull kernel (`spmv_bitmap`) reads them natively with
//! a word-indexed lookup instead of building a densification table, and
//! BFS-style workloads skip the sort/merge cost of sparse assembly.

use crate::dvec::DenseVec;
use crate::error::FormatError;
use crate::svec::SparseVec;

/// Bits per bitmap word.
const WORD_BITS: usize = 64;

/// A bitmap vector of logical length `n`: `words` holds one presence bit
/// per position, `values[i]` is `Some` exactly when bit `i` is set.
#[derive(Debug, Clone)]
pub struct BitmapVec<T> {
    n: usize,
    words: Vec<u64>,
    values: Vec<Option<T>>,
    nnz: usize,
}

impl<T> BitmapVec<T> {
    /// An empty bitmap vector of logical length `n`.
    pub fn empty(n: usize) -> Self {
        BitmapVec {
            n,
            words: vec![0; n.div_ceil(WORD_BITS)],
            values: std::iter::repeat_with(|| None).take(n).collect(),
            nnz: 0,
        }
    }

    /// Logical length (`GrB_Vector_size`).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored elements (`GrB_Vector_nvals`).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Allocated buffer bytes of this store (capacity, not length).
    pub fn bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()
            + self.values.capacity() * std::mem::size_of::<Option<T>>()) as u64
    }

    /// The presence bits: bit `i % 64` of word `i / 64` is position `i`,
    /// and no bit at or past the logical length is set.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether position `i` holds a stored element.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.n && self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// The stored value at position `i`, if present.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.n {
            return None;
        }
        self.values[i].as_ref()
    }

    /// Stores `v` at position `i` (insert or overwrite).
    pub fn set(&mut self, i: usize, v: T) {
        let word = i / WORD_BITS;
        let bit = 1u64 << (i % WORD_BITS);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.nnz += 1;
        }
        self.values[i] = Some(v);
    }

    /// Removes the element at position `i`, returning it if present.
    pub fn remove(&mut self, i: usize) -> Option<T> {
        let word = i / WORD_BITS;
        let bit = 1u64 << (i % WORD_BITS);
        if self.words[word] & bit == 0 {
            return None;
        }
        self.words[word] &= !bit;
        self.nnz -= 1;
        self.values[i].take()
    }

    /// Stored elements in ascending index order (word-skipping walk:
    /// empty words cost one load each).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(w, &bits)| {
                let base = w * WORD_BITS;
                BitIter { bits }.map(move |b| base + b)
            })
            .filter_map(move |i| self.values[i].as_ref().map(|v| (i, v)))
    }

    /// Validates every format invariant: word-array length, the nnz/
    /// popcount agreement, value slots `Some` exactly at set bits, and no
    /// stray bits past the logical length.
    pub fn check(&self) -> Result<(), FormatError> {
        if self.words.len() != self.n.div_ceil(WORD_BITS) {
            return Err(FormatError::LengthMismatch {
                expected: self.n.div_ceil(WORD_BITS),
                actual: self.words.len(),
                what: "bitmap words",
            });
        }
        if self.values.len() != self.n {
            return Err(FormatError::LengthMismatch {
                expected: self.n,
                actual: self.values.len(),
                what: "bitmap values",
            });
        }
        let pop: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        if pop != self.nnz {
            return Err(FormatError::LengthMismatch {
                expected: self.nnz,
                actual: pop,
                what: "bitmap nnz vs popcount",
            });
        }
        // Bits past the logical length must be clear (they would corrupt
        // popcounts and iteration otherwise).
        if !self.n.is_multiple_of(WORD_BITS) {
            if let Some(&last) = self.words.last() {
                let valid = (1u64 << (self.n % WORD_BITS)) - 1;
                if last & !valid != 0 {
                    return Err(FormatError::IndexOutOfBounds {
                        index: self.n,
                        bound: self.n,
                        axis: "vector",
                    });
                }
            }
        }
        for (i, v) in self.values.iter().enumerate() {
            if v.is_some() != self.contains(i) {
                return Err(FormatError::LengthMismatch {
                    expected: usize::from(self.contains(i)),
                    actual: usize::from(v.is_some()),
                    what: "bitmap bit/value slot agreement",
                });
            }
        }
        Ok(())
    }
}

/// Yields the set-bit offsets of one word, low to high.
struct BitIter {
    bits: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(b)
    }
}

impl<T: Clone> BitmapVec<T> {
    /// Sparse → bitmap (`GxB_SPARSE` → `GxB_BITMAP`). One scatter pass;
    /// accepts unsorted input (last write wins on duplicates, matching
    /// sparse-store semantics after dedup).
    pub fn from_svec(s: &SparseVec<T>) -> Self {
        let mut b = BitmapVec::empty(s.len());
        for (i, v) in s.iter() {
            b.set(i, v.clone());
        }
        b
    }

    /// Bitmap → sparse (`GxB_BITMAP` → `GxB_SPARSE`), sorted output.
    pub fn to_svec(&self) -> SparseVec<T> {
        let mut indices = Vec::with_capacity(self.nnz);
        let mut values = Vec::with_capacity(self.nnz);
        for (i, v) in self.iter() {
            indices.push(i);
            values.push(v.clone());
        }
        // grblint: allow(no-unwrap) — iteration yields strictly
        // increasing in-bounds indices by construction.
        SparseVec::from_parts(self.n, indices, values).expect("bitmap iteration is valid")
    }

    /// Full dense vector → bitmap (every bit set).
    pub fn from_dvec(d: &DenseVec<T>) -> Self {
        let mut b = BitmapVec::empty(d.len());
        for (i, v) in d.values().iter().enumerate() {
            b.set(i, v.clone());
        }
        b
    }

    /// Bitmap → dense; requires every element present.
    pub fn to_dvec(&self) -> Result<DenseVec<T>, FormatError> {
        if self.nnz != self.n {
            return Err(FormatError::LengthMismatch {
                expected: self.n,
                actual: self.nnz,
                what: "bitmap to dense requires a full vector",
            });
        }
        let values: Vec<T> = self
            .values
            .iter()
            .filter_map(|v| v.as_ref().cloned())
            .collect();
        Ok(DenseVec::from_values(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut b = BitmapVec::<i64>::empty(100);
        assert_eq!(b.nnz(), 0);
        b.set(3, 30);
        b.set(64, 640);
        b.set(99, 990);
        assert_eq!(b.nnz(), 3);
        assert!(b.contains(64));
        assert_eq!(b.get(64), Some(&640));
        assert_eq!(b.get(4), None);
        // Overwrite does not change nnz.
        b.set(3, 31);
        assert_eq!(b.nnz(), 3);
        assert_eq!(b.get(3), Some(&31));
        assert_eq!(b.remove(3), Some(31));
        assert_eq!(b.remove(3), None);
        assert_eq!(b.nnz(), 2);
        b.check().unwrap();
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut b = BitmapVec::<i64>::empty(130);
        for &i in &[129usize, 0, 63, 64, 65, 127, 128] {
            b.set(i, i as i64);
        }
        let got: Vec<(usize, i64)> = b.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(
            got,
            vec![(0, 0), (63, 63), (64, 64), (65, 65), (127, 127), (128, 128), (129, 129)]
        );
    }

    #[test]
    fn svec_roundtrip() {
        let s = SparseVec::from_parts(70, vec![1, 63, 64, 69], vec![10i64, 20, 30, 40]).unwrap();
        let b = BitmapVec::from_svec(&s);
        b.check().unwrap();
        assert_eq!(b.nnz(), 4);
        let back = b.to_svec();
        assert_eq!(back.indices(), s.indices());
        assert_eq!(back.values(), s.values());
    }

    #[test]
    fn dvec_roundtrip_and_partial_rejection() {
        let d = DenseVec::from_values(vec![1i64, 2, 3]);
        let b = BitmapVec::from_dvec(&d);
        b.check().unwrap();
        assert_eq!(b.nnz(), 3);
        assert_eq!(b.to_dvec().unwrap().values(), &[1, 2, 3]);
        let mut partial = b.clone();
        partial.remove(1);
        assert!(partial.to_dvec().is_err());
    }

    #[test]
    fn check_catches_corruption() {
        let mut b = BitmapVec::<i64>::empty(10);
        b.set(2, 5);
        b.check().unwrap();
        // Stray bit past the logical length.
        let mut stray = b.clone();
        stray.words[0] |= 1 << 12;
        assert!(stray.check().is_err());
        // nnz out of sync with popcount.
        let mut bad_nnz = b.clone();
        bad_nnz.nnz = 2;
        assert!(bad_nnz.check().is_err());
        // Value slot without its bit.
        let mut orphan = b;
        orphan.values[5] = Some(7);
        assert!(orphan.check().is_err());
    }

    #[test]
    fn empty_and_word_boundary_lengths() {
        for n in [0usize, 1, 63, 64, 65, 128] {
            let b = BitmapVec::<bool>::empty(n);
            b.check().unwrap();
            assert_eq!(b.len(), n);
            assert_eq!(b.nnz(), 0);
            assert_eq!(b.iter().count(), 0);
        }
    }
}
