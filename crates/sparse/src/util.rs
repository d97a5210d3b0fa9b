//! Shared helpers: row-segment sorting, prefix sums, chunk stitching.

use std::ops::Range;

/// In-place exclusive prefix sum; returns the total.
///
/// `counts[i]` becomes the sum of the original `counts[..i]`.
pub fn exclusive_prefix_sum(counts: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for c in counts.iter_mut() {
        let v = *c;
        *c = acc;
        acc += v;
    }
    acc
}

/// Sorts `indices[range]` and `values[range]` jointly by index, ascending.
/// Small segments use insertion sort; larger ones an argsort + permute.
pub fn sort_segment<T>(indices: &mut [usize], values: &mut [T]) {
    debug_assert_eq!(indices.len(), values.len());
    let n = indices.len();
    if n <= 1 {
        return;
    }
    if n <= 24 {
        // Insertion sort, moving both arrays together.
        for i in 1..n {
            let mut j = i;
            while j > 0 && indices[j - 1] > indices[j] {
                indices.swap(j - 1, j);
                values.swap(j - 1, j);
                j -= 1;
            }
        }
        return;
    }
    let mut perm: Vec<usize> = (0..n).collect();
    // Stable: callers rely on equal keys keeping arrival order so that
    // "last write wins" duplicate resolution is well-defined.
    perm.sort_by_key(|&i| indices[i]);
    apply_permutation(&perm, indices, values);
}

/// Applies permutation `perm` (new position `i` takes old `perm[i]`) to both
/// slices in O(n) time and O(1) extra space per cycle.
pub fn apply_permutation<T>(perm: &[usize], indices: &mut [usize], values: &mut [T]) {
    let n = perm.len();
    debug_assert_eq!(indices.len(), n);
    debug_assert_eq!(values.len(), n);
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Follow the cycle containing `start`: after `swap(j, perm[j])` the
        // element destined for position `j` is in place and the displaced
        // element continues at `perm[j]`.
        let mut j = start;
        loop {
            visited[j] = true;
            let k = perm[j];
            if k == start {
                break;
            }
            indices.swap(j, k);
            values.swap(j, k);
            j = k;
        }
    }
}

/// Returns true when the slice is strictly increasing.
pub fn is_strictly_increasing(s: &[usize]) -> bool {
    s.windows(2).all(|w| w[0] < w[1])
}

/// Returns true when the slice is non-decreasing.
pub fn is_non_decreasing(s: &[usize]) -> bool {
    s.windows(2).all(|w| w[0] <= w[1])
}

/// Per-chunk output rows produced by a parallel kernel: the lengths of each
/// produced row, plus the concatenated indices and values for the chunk.
pub type RowChunk<T> = (Vec<usize>, Vec<usize>, Vec<T>);

/// Turns per-chunk row outputs (covering `0..nrows` in order) into CSR
/// arrays `(indptr, indices, values)`. A single chunk — every one-thread
/// kernel call — already *is* the result: its `indices`/`values` buffers
/// are handed through as they are, and only several chunks are
/// concatenated (one copy, into exactly-sized arrays).
pub fn stitch_row_chunks<T>(
    nrows: usize,
    mut chunks: Vec<(Range<usize>, RowChunk<T>)>,
) -> (Vec<usize>, Vec<usize>, Vec<T>) {
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0usize);
    let mut acc = 0usize;
    for (range, (lens, _, _)) in &chunks {
        debug_assert_eq!(range.len(), lens.len());
        for len in lens {
            acc += len;
            indptr.push(acc);
        }
    }
    debug_assert_eq!(indptr.len(), nrows + 1);
    let (indices, values) = if chunks.len() == 1 {
        let (_, (_, idx, vals)) = chunks.remove(0);
        (idx, vals)
    } else {
        let mut indices = Vec::with_capacity(acc);
        let mut values: Vec<T> = Vec::with_capacity(acc);
        for (_, (_, idx, vals)) in chunks {
            indices.extend(idx);
            values.extend(vals);
        }
        (indices, values)
    };
    debug_assert_eq!(acc, indices.len());
    (indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_basic() {
        let mut c = vec![3, 0, 2, 5];
        let total = exclusive_prefix_sum(&mut c);
        assert_eq!(total, 10);
        assert_eq!(c, vec![0, 3, 3, 5]);
    }

    #[test]
    fn prefix_sum_empty() {
        let mut c: Vec<usize> = vec![];
        assert_eq!(exclusive_prefix_sum(&mut c), 0);
    }

    #[test]
    fn sort_segment_small() {
        let mut idx = vec![3, 1, 2];
        let mut val = vec!["c", "a", "b"];
        sort_segment(&mut idx, &mut val);
        assert_eq!(idx, vec![1, 2, 3]);
        assert_eq!(val, vec!["a", "b", "c"]);
    }

    #[test]
    fn sort_segment_large_random() {
        use graphblas_exec::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.gen_range(0..200);
            let mut idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            // Make keys unique so the value pairing is checkable.
            idx.sort_unstable();
            idx.dedup();
            let mut idx_shuffled = idx.clone();
            idx_shuffled.shuffle(&mut rng);
            let mut vals: Vec<usize> = idx_shuffled.iter().map(|&k| k * 10).collect();
            let mut keys = idx_shuffled.clone();
            sort_segment(&mut keys, &mut vals);
            assert_eq!(keys, idx);
            for (k, v) in keys.iter().zip(&vals) {
                assert_eq!(*v, k * 10);
            }
        }
    }

    #[test]
    fn monotonicity_checks() {
        assert!(is_strictly_increasing(&[1, 2, 5]));
        assert!(!is_strictly_increasing(&[1, 1, 5]));
        assert!(is_non_decreasing(&[1, 1, 5]));
        assert!(!is_non_decreasing(&[2, 1]));
        assert!(is_strictly_increasing(&[]));
        assert!(is_strictly_increasing(&[9]));
    }

    #[test]
    fn stitch_concatenates() {
        let chunks = vec![
            (0..2, (vec![1, 0], vec![4], vec![40])),
            (2..3, (vec![2], vec![1, 2], vec![10, 20])),
        ];
        let (indptr, indices, values) = stitch_row_chunks(3, chunks);
        assert_eq!(indptr, vec![0, 1, 1, 3]);
        assert_eq!(indices, vec![4, 1, 2]);
        assert_eq!(values, vec![40, 10, 20]);
    }

    #[test]
    fn stitch_hands_a_single_chunk_through() {
        let (idx, vals) = (vec![4usize, 1, 2], vec![40, 10, 20]);
        let (idx_at, vals_at) = (idx.as_ptr(), vals.as_ptr());
        let (indptr, indices, values) =
            stitch_row_chunks(3, vec![(0..3, (vec![1, 0, 2], idx, vals))]);
        assert_eq!(indptr, vec![0, 1, 1, 3]);
        assert_eq!(indices, vec![4, 1, 2]);
        assert_eq!(values, vec![40, 10, 20]);
        // Moved, not copied: the result owns the chunk's allocations.
        assert_eq!((indices.as_ptr(), values.as_ptr()), (idx_at, vals_at));
    }
}
