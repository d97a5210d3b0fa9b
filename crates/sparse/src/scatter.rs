//! The stable counting scatter behind every re-keying of stored entries:
//! COO → CSR (two passes) and the transpose, with CSC ↔ CSR and the
//! column-major dense export through it.
//!
//! A scatter counts entries by destination key ([`offsets`]), takes an
//! exclusive prefix sum, and places every entry at its key's cursor in
//! source order ([`scatter`]). Entries with equal keys therefore keep their
//! arrival order. The output arrays are pre-filled with a value already in
//! hand and overwritten in place: there is no `Option` and no `unsafe`.
//!
//! With more than one task the destination key range is split into
//! contiguous, entry-balanced slices of the final arrays. Each task scans
//! the whole source and places only its own keys, so the result is
//! byte-identical to one thread's and nothing is stitched afterwards.

use std::ops::Range;

use graphblas_exec::{global_pool, partition, Context};

use crate::csr::Csr;
use crate::util;

/// A source of entries `(key, payload, value)`, enumerated in source order.
pub(crate) trait Entries<T>: Sync {
    /// Calls `place` on every entry, in source order. Entries whose key
    /// lies outside `keys` may be skipped (but need not be).
    fn for_each_in(&self, keys: Range<usize>, place: impl FnMut(usize, usize, &T));
}

/// Unordered triplets `(keys, payloads, values)`.
impl<T: Sync> Entries<T> for (&[usize], &[usize], &[T]) {
    fn for_each_in(&self, _: Range<usize>, mut place: impl FnMut(usize, usize, &T)) {
        for ((&key, &at), v) in self.0.iter().zip(self.1).zip(self.2) {
            place(key, at, v);
        }
    }
}

/// A CSR's entries: key the column, payload the row. A task finds its part
/// of each sorted row by binary search.
impl<T: Sync> Entries<T> for Csr<T> {
    fn for_each_in(&self, keys: Range<usize>, mut place: impl FnMut(usize, usize, &T)) {
        let narrow = self.is_rows_sorted() && keys != (0..self.ncols());
        for i in 0..self.nrows() {
            let (mut cols, mut vals) = self.row(i);
            if narrow {
                let lo = cols.partition_point(|&j| j < keys.start);
                let hi = cols.partition_point(|&j| j < keys.end);
                (cols, vals) = (&cols[lo..hi], &vals[lo..hi]);
            }
            for (&j, v) in cols.iter().zip(vals) {
                place(j, i, v);
            }
        }
    }
}

/// Exclusive prefix offsets of the key histogram: `nkeys + 1` entries, the
/// last one `keys.len()`. Every key must be below `nkeys`.
pub(crate) fn offsets(nkeys: usize, keys: &[usize]) -> Vec<usize> {
    let mut ptr = vec![0usize; nkeys + 1];
    for &k in keys {
        ptr[k] += 1;
    }
    util::exclusive_prefix_sum(&mut ptr);
    ptr
}

/// Places every entry of `src` at its key's cursor, where `ptr` holds the
/// [`offsets`] of `src`'s keys: returns the payloads and values in key
/// order, equal keys in source order. `fill` (any value of `src`, `None`
/// when it is empty) pre-fills the value array; every slot is overwritten.
pub(crate) fn scatter<T, S>(
    ctx: &Context,
    ptr: &[usize],
    src: &S,
    fill: Option<&T>,
) -> (Vec<usize>, Vec<T>)
where
    T: Clone + Send + Sync,
    S: Entries<T>,
{
    let Some(fill) = fill else {
        return (Vec::new(), Vec::new());
    };
    let (nkeys, nnz) = (ptr.len() - 1, ptr[ptr.len() - 1]);
    let mut payload = vec![0usize; nnz];
    let mut values = vec![fill.clone(); nnz];
    // Places the entries of the keys in `keys` into `payload`/`values`,
    // which are the output slices of exactly those keys.
    let place = |keys: Range<usize>, payload: &mut [usize], values: &mut [T]| {
        let base = ptr[keys.start];
        let mut cursor: Vec<usize> = ptr[keys.clone()].iter().map(|&p| p - base).collect();
        src.for_each_in(keys.clone(), |key, at, v| {
            // A key outside `keys` wraps past the cursor table's end.
            if let Some(c) = cursor.get_mut(key.wrapping_sub(keys.start)) {
                payload[*c] = at;
                values[*c] = v.clone();
                *c += 1;
            }
        });
    };
    let k = ctx.effective_threads().min(nnz.div_ceil(ctx.chunk_size()));
    if k == 1 {
        place(0..nkeys, &mut payload, &mut values);
        return (payload, values);
    }
    global_pool().scope(|scope| {
        let (mut payload_rest, mut values_rest) = (&mut payload[..], &mut values[..]);
        for keys in partition::prefix_balanced_ranges(ptr, k) {
            let len = ptr[keys.end] - ptr[keys.start];
            let (p, v);
            (p, payload_rest) = std::mem::take(&mut payload_rest).split_at_mut(len);
            (v, values_rest) = std::mem::take(&mut values_rest).split_at_mut(len);
            let place = &place;
            scope.spawn(move || place(keys, p, v));
        }
    });
    (payload, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::{global_context, ContextOptions, Mode};

    #[test]
    fn offsets_count_and_prefix() {
        assert_eq!(offsets(4, &[2, 0, 2, 3]), vec![0, 1, 1, 3, 4]);
        assert_eq!(offsets(0, &[]), vec![0]);
    }

    #[test]
    fn triplets_scatter_stably_and_identically_in_parallel() {
        let keys = [3, 1, 3, 0, 1, 3];
        let payload = [10, 11, 12, 13, 14, 15];
        let values = ['a', 'b', 'c', 'd', 'e', 'f'];
        let src = (&keys[..], &payload[..], &values[..]);
        let ptr = offsets(4, &keys);
        let one = scatter(&global_context(), &ptr, &src, Some(&'?'));
        assert_eq!(one.0, vec![13, 11, 14, 10, 12, 15]);
        assert_eq!(one.1, vec!['d', 'b', 'e', 'a', 'c', 'f']);
        let opts = ContextOptions {
            nthreads: Some(3),
            chunk_size: Some(1),
            ..Default::default()
        };
        let ctx = Context::new(&global_context(), Mode::Blocking, opts);
        assert_eq!(scatter(&ctx, &ptr, &src, Some(&'?')), one);
    }
}
