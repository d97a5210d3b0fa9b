//! Compressed Sparse Row storage — the workhorse format.
//!
//! `GrB_CSR_MATRIX` in the paper's Table III: `indptr` of length
//! `nrows + 1`, and per-row segments of `indices`/`values`. As the table
//! notes, *"the elements of each row are not required to be sorted by
//! column index"* — so [`Csr`] tracks sortedness explicitly and kernels
//! that need ordered rows sort lazily (the `GrB_wait(MATERIALIZE)` path in
//! `graphblas-core` also forces a sort, making materialization observable).

use std::ops::Range;

use graphblas_exec::{parallel_map_ranges, partition, workspace, Context};

use crate::error::FormatError;
use crate::spmv::Terminal;
use crate::util;

/// A CSR matrix. `T` is the stored element type; missing elements are
/// simply absent (GraphBLAS has no implicit zero).
#[derive(Debug, Clone)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<T>,
    rows_sorted: bool,
}

impl<T> Csr<T> {
    /// An empty matrix of the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            rows_sorted: true,
        }
    }

    /// Builds from raw arrays, validating every Table III invariant.
    /// Rows may be unsorted; sortedness is detected, not required.
    /// Duplicate column indices within a row are accepted here (import
    /// semantics); [`crate::Coo::to_csr`] is where duplicates are resolved
    /// or rejected.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, FormatError> {
        if indptr.len() != nrows + 1 {
            return Err(FormatError::BadPointers {
                expected_len: nrows + 1,
                detail: "wrong indptr length",
            });
        }
        if indptr[0] != 0 {
            return Err(FormatError::BadPointers {
                expected_len: nrows + 1,
                detail: "indptr must start at 0",
            });
        }
        if !util::is_non_decreasing(&indptr) {
            return Err(FormatError::BadPointers {
                expected_len: nrows + 1,
                detail: "indptr must be non-decreasing",
            });
        }
        // grblint: allow(no-unwrap) — length nrows + 1 was verified above.
        let nnz = *indptr.last().expect("indptr non-empty");
        if indices.len() != nnz {
            return Err(FormatError::LengthMismatch {
                expected: nnz,
                actual: indices.len(),
                what: "indices",
            });
        }
        if values.len() != nnz {
            return Err(FormatError::LengthMismatch {
                expected: nnz,
                actual: values.len(),
                what: "values",
            });
        }
        if let Some(&bad) = indices.iter().find(|&&j| j >= ncols) {
            return Err(FormatError::IndexOutOfBounds {
                index: bad,
                bound: ncols,
                axis: "column",
            });
        }
        let rows_sorted =
            (0..nrows).all(|i| util::is_strictly_increasing(&indices[indptr[i]..indptr[i + 1]]));
        Ok(Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
            rows_sorted,
        })
    }

    /// Builds from arrays a kernel just produced. The full Table III
    /// invariant set ([`Csr::check`]) is asserted in debug builds only;
    /// `rows_sorted` is taken on trust in release builds.
    pub(crate) fn from_kernel_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<T>,
        rows_sorted: bool,
    ) -> Self {
        let csr = Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
            rows_sorted,
        };
        debug_assert!(
            csr.check().is_ok(),
            "kernel produced an invalid CSR: {:?}",
            csr.check().err()
        );
        csr
    }

    /// Consumes the matrix, returning `(indptr, indices, values)`.
    pub fn into_parts(self) -> (Vec<usize>, Vec<usize>, Vec<T>) {
        (self.indptr, self.indices, self.values)
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored elements.
    pub fn nnz(&self) -> usize {
        // grblint: allow(no-unwrap) — structural invariant: every
        // constructor allocates indptr with length nrows + 1 ≥ 1.
        *self.indptr.last().expect("indptr non-empty")
    }

    /// Allocated buffer bytes of this store (capacity, not just length —
    /// the memory-accounting figure `obs::mem` gauges aggregate).
    pub fn bytes(&self) -> u64 {
        (self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<T>()) as u64
    }

    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    pub fn values(&self) -> &[T] {
        &self.values
    }

    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let r = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[r.clone()], &self.values[r])
    }

    /// Whether every row's column indices are strictly increasing (which
    /// also implies the absence of duplicates).
    pub fn is_rows_sorted(&self) -> bool {
        self.rows_sorted
    }

    /// Number of stored elements in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Looks up element `(i, j)`; binary search when the row is sorted.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        if i >= self.nrows || j >= self.ncols {
            return None;
        }
        let (cols, vals) = self.row(i);
        if self.rows_sorted {
            cols.binary_search(&j).ok().map(|k| &vals[k])
        } else {
            cols.iter().position(|&c| c == j).map(|k| &vals[k])
        }
    }

    /// Iterates `(row, col, &value)` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals.iter()).map(move |(&j, v)| (i, j, v))
        })
    }

    /// Full invariant validation (used by tests and `debug_assert`s).
    pub fn check(&self) -> Result<(), FormatError> {
        if self.indptr.len() != self.nrows + 1
            || self.indptr[0] != 0
            || !util::is_non_decreasing(&self.indptr)
        {
            return Err(FormatError::BadPointers {
                expected_len: self.nrows + 1,
                detail: "corrupt indptr",
            });
        }
        let nnz = self.nnz();
        if self.indices.len() != nnz {
            return Err(FormatError::LengthMismatch {
                expected: nnz,
                actual: self.indices.len(),
                what: "indices",
            });
        }
        if self.values.len() != nnz {
            return Err(FormatError::LengthMismatch {
                expected: nnz,
                actual: self.values.len(),
                what: "values",
            });
        }
        if let Some(&bad) = self.indices.iter().find(|&&j| j >= self.ncols) {
            return Err(FormatError::IndexOutOfBounds {
                index: bad,
                bound: self.ncols,
                axis: "column",
            });
        }
        if self.rows_sorted {
            for i in 0..self.nrows {
                let (cols, _) = self.row(i);
                if !util::is_strictly_increasing(cols) {
                    return Err(FormatError::BadPointers {
                        expected_len: self.nrows + 1,
                        detail: "rows_sorted flag set but a row is unsorted",
                    });
                }
            }
        }
        Ok(())
    }

    /// nnz-balanced row ranges for `ctx`'s thread budget.
    fn row_chunks(&self, ctx: &Context) -> Vec<Range<usize>> {
        if self.nrows == 0 {
            return Vec::new();
        }
        let by_grain = self.nnz().max(self.nrows).div_ceil(ctx.chunk_size()).max(1);
        let k = ctx.effective_threads().min(by_grain);
        partition::prefix_balanced_ranges(&self.indptr, k)
    }
}

impl<T: 'static> Csr<T> {
    /// Frees the matrix, offering its index and value arrays to the current
    /// thread's result shelf (`exec::workspace::shelve_vec`): the next
    /// kernel result of about their size is built in them.
    pub fn recycle(self) {
        workspace::shelve_vec(self.indices);
        workspace::shelve_vec(self.values);
    }
}

impl<T: Send> Csr<T> {
    /// Sorts every row's column indices ascending, in parallel. Duplicates
    /// (if any) become adjacent; they are *not* combined here. Returns the
    /// first repeated coordinate `(i, j)` in row-major order, if any (in
    /// which case the matrix is left non-decreasing but not strictly
    /// sorted).
    pub fn sort_rows(&mut self, ctx: &Context) -> Option<(usize, usize)> {
        if self.rows_sorted {
            return None;
        }
        let found_dup = std::sync::atomic::AtomicBool::new(false);
        let indptr = &self.indptr;
        // Split the flat arrays into disjoint per-chunk slices so tasks can
        // mutate them without locking.
        let ranges = {
            let by_grain = self.nnz().max(1).div_ceil(ctx.chunk_size()).max(1);
            let k = ctx.effective_threads().min(by_grain);
            partition::prefix_balanced_ranges(indptr, k)
        };
        let mut idx_rest: &mut [usize] = &mut self.indices;
        let mut val_rest: &mut [T] = &mut self.values;
        let mut offset = 0usize;
        let mut jobs: Vec<(Range<usize>, &mut [usize], &mut [T])> = Vec::new();
        for r in ranges {
            let end = indptr[r.end];
            let (idx_a, idx_b) = idx_rest.split_at_mut(end - offset);
            let (val_a, val_b) = val_rest.split_at_mut(end - offset);
            idx_rest = idx_b;
            val_rest = val_b;
            jobs.push((r, idx_a, val_a));
            offset = end;
        }
        graphblas_exec::global_pool().scope(|scope| {
            for (rows, idx, vals) in jobs {
                let indptr = &self.indptr;
                let found_dup = &found_dup;
                scope.spawn(move || {
                    let mut local_dup = false;
                    let base = indptr[rows.start];
                    for i in rows {
                        let lo = indptr[i] - base;
                        let hi = indptr[i + 1] - base;
                        util::sort_segment(&mut idx[lo..hi], &mut vals[lo..hi]);
                        local_dup |= idx[lo..hi].windows(2).any(|w| w[0] == w[1]);
                    }
                    if local_dup {
                        // grblint: allow(relaxed-ordering) — the scope join
                        // below is the happens-before edge; the flag is
                        // only read after every task has completed.
                        found_dup.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        // grblint: allow(relaxed-ordering) — read after the scope join;
        // see the store above.
        let dups = found_dup.load(std::sync::atomic::Ordering::Relaxed);
        // `rows_sorted` means *strictly* increasing; duplicates invalidate it.
        self.rows_sorted = !dups;
        if !dups {
            return None;
        }
        (0..self.nrows).find_map(|i| {
            let cols = self.row(i).0;
            cols.windows(2).find(|w| w[0] == w[1]).map(|w| (i, w[0]))
        })
    }
}

impl<T: Clone + Send + Sync> Csr<T> {
    /// Structure-preserving value map (the `apply` kernel).
    pub fn map<Z, F>(&self, ctx: &Context, f: F) -> Csr<Z>
    where
        Z: Clone + Send + Sync,
        F: Fn(&T) -> Z + Sync,
    {
        self.map_with_index(ctx, |_, _, v| f(v))
    }

    /// Value map with access to the element's `(row, col)` — the kernel
    /// behind index-unary `apply` (paper §VIII.B).
    pub fn map_with_index<Z, F>(&self, ctx: &Context, f: F) -> Csr<Z>
    where
        Z: Clone + Send + Sync,
        F: Fn(usize, usize, &T) -> Z + Sync,
    {
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Apply, ctx.id());
        let nnz = self.nnz();
        if sp.active() {
            let nnz = nnz as u64;
            sp.io(
                0,
                nnz,
                nnz,
                nnz * (size_of::<usize>() + size_of::<T>()) as u64,
            );
        }
        // Pre-filled with the first mapped value and overwritten in place:
        // each task owns the slice of `values` under its rows.
        let first = self.iter().next().map(|(i, j, v)| f(i, j, v));
        let mut values = first.map_or_else(Vec::new, |z| vec![z; nnz]);
        let mut rest: &mut [Z] = &mut values;
        graphblas_exec::global_pool().scope(|scope| {
            for rows in self.row_chunks(ctx) {
                let out;
                let len = self.indptr[rows.end] - self.indptr[rows.start];
                (out, rest) = std::mem::take(&mut rest).split_at_mut(len);
                let f = &f;
                scope.spawn(move || {
                    let base = self.indptr[rows.start];
                    for i in rows {
                        let (cols, vals) = self.row(i);
                        let slots = &mut out[self.indptr[i] - base..];
                        for ((&j, v), slot) in cols.iter().zip(vals).zip(slots) {
                            *slot = f(i, j, v);
                        }
                    }
                });
            }
        });
        Csr::from_kernel_parts(
            self.nrows,
            self.ncols,
            self.indptr.clone(),
            self.indices.clone(),
            values,
            self.rows_sorted,
        )
    }

    /// Combined select + apply: keeps elements where `f` returns `Some`,
    /// storing the mapped value. This is the fused kernel behind the
    /// nonblocking pipeline (paper §III's "fuse operations" latitude).
    pub fn filter_map_with_index<Z, F>(&self, ctx: &Context, f: F) -> Csr<Z>
    where
        Z: Clone + Send + Sync,
        F: Fn(usize, usize, &T) -> Option<Z> + Sync,
    {
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Select, ctx.id());
        if sp.active() {
            let nnz = self.nnz() as u64;
            sp.io(
                0,
                nnz,
                0,
                nnz * (size_of::<usize>() + size_of::<T>()) as u64,
            );
        }
        let ranges = self.row_chunks(ctx);
        let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
            let mut lens = Vec::with_capacity(rows.len());
            let mut idx = Vec::new();
            let mut vals = Vec::new();
            for i in rows.clone() {
                let before = idx.len();
                let (cols, vs) = self.row(i);
                for (&j, v) in cols.iter().zip(vs) {
                    if let Some(z) = f(i, j, v) {
                        idx.push(j);
                        vals.push(z);
                    }
                }
                lens.push(idx.len() - before);
            }
            (rows, (lens, idx, vals))
        });
        let (indptr, indices, values) = util::stitch_row_chunks(self.nrows, chunks);
        if sp.active() {
            sp.io(0, 0, values.len() as u64, 0);
        }
        Csr::from_kernel_parts(
            self.nrows,
            self.ncols,
            indptr,
            indices,
            values,
            self.rows_sorted,
        )
    }

    /// Per-row reduction: returns one `Option<Z>` per row (`None` for empty
    /// rows) — the kernel behind `reduce` to a vector.
    pub fn reduce_rows<Z, M, A>(&self, ctx: &Context, map: M, add: A) -> Vec<Option<Z>>
    where
        Z: Clone + Send + Sync,
        M: Fn(&T) -> Z + Sync,
        A: Fn(Z, Z) -> Z + Sync,
    {
        let mut out: Vec<Option<Z>> = vec![None; self.nrows];
        let mut rest: &mut [Option<Z>] = &mut out;
        let ranges = self.row_chunks(ctx);
        let mut jobs = Vec::new();
        let mut offset = 0usize;
        for r in ranges {
            let (a, b) = rest.split_at_mut(r.end - offset);
            rest = b;
            jobs.push((r.clone(), a));
            offset = r.end;
        }
        graphblas_exec::global_pool().scope(|scope| {
            for (rows, slots) in jobs {
                let map = &map;
                let add = &add;
                let this = &*self;
                scope.spawn(move || {
                    for i in rows.clone() {
                        let (_, vals) = this.row(i);
                        let mut acc: Option<Z> = None;
                        for v in vals {
                            let z = map(v);
                            acc = Some(match acc {
                                None => z,
                                Some(a) => add(a, z),
                            });
                        }
                        slots[i - rows.start] = acc;
                    }
                });
            }
        });
        out
    }

    /// Whole-matrix reduction; `None` when the matrix stores nothing.
    /// `is_terminal` enables early exit once the accumulator reaches the
    /// monoid's annihilator (e.g. `true` for LOR); [`Never`](crate::spmv::Never)
    /// when the monoid has none.
    pub fn reduce_all<Z, M, A, FT>(
        &self,
        ctx: &Context,
        map: M,
        add: A,
        is_terminal: FT,
    ) -> Option<Z>
    where
        Z: Clone + Send + Sync,
        M: Fn(&T) -> Z + Sync,
        A: Fn(Z, Z) -> Z + Sync,
        FT: Terminal<Z>,
    {
        let ranges = self.row_chunks(ctx);
        let partials = parallel_map_ranges(ranges, |rows: Range<usize>| {
            let lo = self.indptr[rows.start];
            let hi = self.indptr[rows.end];
            crate::svec::reduce_values(&self.values[lo..hi], &map, &add, is_terminal)
        });
        partials.into_iter().flatten().reduce(add)
    }

    /// Extracts `(rows, cols, values)` tuples in storage order — the
    /// `extractTuples` kernel.
    pub fn tuples(&self) -> (Vec<usize>, Vec<usize>, Vec<T>) {
        let mut rows = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            rows.extend(std::iter::repeat_n(i, self.row_nnz(i)));
        }
        (rows, self.indices.clone(), self.values.clone())
    }

    /// Sorted `(row, col, value)` tuples — canonical form for comparisons.
    pub fn to_sorted_tuples(&self) -> Vec<(usize, usize, T)> {
        let mut t: Vec<(usize, usize, T)> =
            self.iter().map(|(i, j, v)| (i, j, v.clone())).collect();
        t.sort_by_key(|&(i, j, _)| (i, j));
        t
    }

    /// Submatrix extraction `A(I, J)` with arbitrary (possibly repeating)
    /// row and column selectors — the `extract` kernel.
    pub fn extract_submatrix(
        &self,
        ctx: &Context,
        sel_rows: &[usize],
        sel_cols: &[usize],
    ) -> Result<Csr<T>, FormatError> {
        for &i in sel_rows {
            if i >= self.nrows {
                return Err(FormatError::IndexOutOfBounds {
                    index: i,
                    bound: self.nrows,
                    axis: "row",
                });
            }
        }
        for &j in sel_cols {
            if j >= self.ncols {
                return Err(FormatError::IndexOutOfBounds {
                    index: j,
                    bound: self.ncols,
                    axis: "column",
                });
            }
        }
        // Map each source column to the (possibly several) output columns
        // that select it.
        let mut col_map: Vec<Vec<usize>> = vec![Vec::new(); self.ncols];
        for (out_j, &j) in sel_cols.iter().enumerate() {
            col_map[j].push(out_j);
        }
        let out_rows = sel_rows.len();
        let ranges =
            partition::balanced_ranges(out_rows, ctx.effective_threads().min(out_rows.max(1)));
        let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
            let mut lens = Vec::with_capacity(rows.len());
            let mut idx = Vec::new();
            let mut vals: Vec<T> = Vec::new();
            for out_i in rows.clone() {
                let before = idx.len();
                let (cols, vs) = self.row(sel_rows[out_i]);
                for (&j, v) in cols.iter().zip(vs) {
                    for &out_j in &col_map[j] {
                        idx.push(out_j);
                        vals.push(v.clone());
                    }
                }
                let len = idx.len() - before;
                util::sort_segment(&mut idx[before..], &mut vals[before..]);
                lens.push(len);
            }
            (rows, (lens, idx, vals))
        });
        let (indptr, indices, values) = util::stitch_row_chunks(out_rows, chunks);
        Ok(Csr::from_kernel_parts(
            out_rows,
            sel_cols.len(),
            indptr,
            indices,
            values,
            true,
        ))
    }
}

/// One deferred element update for [`Csr::merge_updates`]: `(row, col,
/// Some(v))` stores `v` at the coordinate (`setElement`), `(row, col, None)`
/// is a zombie that deletes whatever is stored there (`removeElement`).
pub type ElementUpdate<T> = (usize, usize, Option<T>);

impl<T: Clone> Csr<T> {
    /// Folds a log of element updates, given in arrival order, into a new
    /// matrix — the kernel behind deferred `setElement`/`removeElement`.
    /// The last update of a coordinate wins; a zombie for an absent element
    /// is a no-op. One stable sort of the log and one merge pass over the
    /// rows, O(nnz + p log p); runs of rows the log does not touch are
    /// copied slice-wise.
    ///
    /// # Panics
    ///
    /// When the rows are not sorted (callers canonicalize first).
    pub fn merge_updates(&self, mut log: Vec<ElementUpdate<T>>) -> Result<Csr<T>, FormatError> {
        assert!(self.rows_sorted, "merge_updates requires sorted rows");
        for &(i, j, _) in &log {
            if i >= self.nrows {
                return Err(FormatError::IndexOutOfBounds {
                    index: i,
                    bound: self.nrows,
                    axis: "row",
                });
            }
            if j >= self.ncols {
                return Err(FormatError::IndexOutOfBounds {
                    index: j,
                    bound: self.ncols,
                    axis: "column",
                });
            }
        }
        // Stable, so updates of one coordinate stay in arrival order and
        // the last of each run is the survivor.
        log.sort_by_key(|&(i, j, _)| (i, j));
        let cap = self.nnz() + log.iter().filter(|u| u.2.is_some()).count();
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(cap);
        let mut values = Vec::with_capacity(cap);
        let mut next_row = 0usize;
        let mut log = log.into_iter().peekable();
        while let Some(&(i, _, _)) = log.peek() {
            self.copy_rows(next_row..i, &mut indptr, &mut indices, &mut values);
            let (cols, vals) = self.row(i);
            let mut k = 0usize;
            while let Some((_, j, v)) = log.next_if(|u| u.0 == i) {
                if log.peek().is_some_and(|next| (next.0, next.1) == (i, j)) {
                    continue;
                }
                let upto = k + cols[k..].partition_point(|&c| c < j);
                indices.extend_from_slice(&cols[k..upto]);
                values.extend_from_slice(&vals[k..upto]);
                // A stored (i, j) is replaced or deleted either way.
                k = upto + usize::from(cols.get(upto) == Some(&j));
                if let Some(v) = v {
                    indices.push(j);
                    values.push(v);
                }
            }
            indices.extend_from_slice(&cols[k..]);
            values.extend_from_slice(&vals[k..]);
            indptr.push(indices.len());
            next_row = i + 1;
        }
        self.copy_rows(next_row..self.nrows, &mut indptr, &mut indices, &mut values);
        Ok(Csr::from_kernel_parts(
            self.nrows, self.ncols, indptr, indices, values, true,
        ))
    }

    /// Appends whole rows `rows` to CSR arrays under construction.
    fn copy_rows(
        &self,
        rows: Range<usize>,
        indptr: &mut Vec<usize>,
        indices: &mut Vec<usize>,
        values: &mut Vec<T>,
    ) {
        let src = self.indptr[rows.start]..self.indptr[rows.end];
        let shift = indices.len();
        indptr.extend(
            self.indptr[rows.start + 1..rows.end + 1]
                .iter()
                .map(|&p| shift + (p - src.start)),
        );
        indices.extend_from_slice(&self.indices[src.clone()]);
        values.extend_from_slice(&self.values[src]);
    }
}

impl<T> Csr<T> {
    /// Row degrees as a plain vector (used by generators and algorithms).
    pub fn row_degrees(&self) -> Vec<usize> {
        self.indptr.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    fn small() -> Csr<i64> {
        // [[1, _, 2],
        //  [_, _, _],
        //  [3, 4, _]]
        Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1, 2, 3, 4]).unwrap()
    }

    #[test]
    fn from_parts_validates() {
        assert!(Csr::<i64>::from_parts(2, 2, vec![0, 1], vec![0], vec![1]).is_err());
        assert!(Csr::<i64>::from_parts(2, 2, vec![1, 1, 1], vec![0], vec![1]).is_err());
        assert!(Csr::<i64>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1, 2]).is_err());
        assert!(Csr::<i64>::from_parts(2, 2, vec![0, 1, 2], vec![0, 5], vec![1, 2]).is_err());
        assert!(Csr::<i64>::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1]).is_err());
        assert!(small().check().is_ok());
    }

    #[test]
    fn get_and_iter() {
        let a = small();
        assert_eq!(a.get(0, 0), Some(&1));
        assert_eq!(a.get(0, 1), None);
        assert_eq!(a.get(2, 1), Some(&4));
        assert_eq!(a.get(9, 9), None);
        let tuples: Vec<_> = a.iter().map(|(i, j, v)| (i, j, *v)).collect();
        assert_eq!(tuples, vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)]);
        assert_eq!(a.nnz(), 4);
    }

    #[test]
    fn unsorted_detected_and_sortable() {
        let mut a =
            Csr::from_parts(2, 4, vec![0, 3, 4], vec![2, 0, 1, 3], vec![20, 0, 10, 30]).unwrap();
        assert!(!a.is_rows_sorted());
        assert_eq!(a.get(0, 1), Some(&10));
        assert_eq!(a.sort_rows(&global_context()), None);
        assert!(a.is_rows_sorted());
        assert_eq!(a.row(0).0, &[0, 1, 2]);
        assert_eq!(a.row(0).1, &[0, 10, 20]);
        a.check().unwrap();
        // The first repeated coordinate in row-major order is reported.
        let mut d =
            Csr::from_parts(3, 3, vec![0, 1, 3, 5], vec![0, 1, 1, 2, 2], vec![0; 5]).unwrap();
        assert_eq!(d.sort_rows(&global_context()), Some((1, 1)));
        assert!(!d.is_rows_sorted());
    }

    #[test]
    fn map_preserves_structure() {
        let a = small();
        let b = a.map(&global_context(), |v| v * 10);
        assert_eq!(
            b.to_sorted_tuples(),
            vec![(0, 0, 10), (0, 2, 20), (2, 0, 30), (2, 1, 40)]
        );
    }

    #[test]
    fn map_with_index_sees_coordinates() {
        let a = small();
        let b = a.map_with_index(&global_context(), |i, j, _| (i * 10 + j) as i64);
        assert_eq!(b.get(2, 1), Some(&21));
        assert_eq!(b.get(0, 2), Some(&2));
    }

    #[test]
    fn filter_map_drops_and_maps() {
        let a = small();
        // Keep strictly-upper-triangular entries, negated (a tiny Fig. 3).
        let b = a.filter_map_with_index(&global_context(), |i, j, v| (j > i).then(|| -*v));
        assert_eq!(b.to_sorted_tuples(), vec![(0, 2, -2)]);
        b.check().unwrap();
    }

    /// `merge_updates` against a `BTreeMap` replay, plus the Table III
    /// invariants of the result.
    fn check_merge(a: &Csr<i64>, log: Vec<ElementUpdate<i64>>) -> Csr<i64> {
        let mut want: std::collections::BTreeMap<(usize, usize), i64> =
            a.iter().map(|(i, j, v)| ((i, j), *v)).collect();
        for &(i, j, v) in &log {
            match v {
                Some(v) => want.insert((i, j), v),
                None => want.remove(&(i, j)),
            };
        }
        let got = a.merge_updates(log).unwrap();
        got.check().unwrap();
        assert!(got.is_rows_sorted());
        assert_eq!((got.nrows(), got.ncols()), (a.nrows(), a.ncols()));
        let want: Vec<_> = want.into_iter().map(|((i, j), v)| (i, j, v)).collect();
        let flat: Vec<_> = got.iter().map(|(i, j, v)| (i, j, *v)).collect();
        assert_eq!(flat, want);
        got
    }

    #[test]
    fn merge_updates_edge_cases() {
        let a = small();
        // Empty log: an identical copy.
        check_merge(&a, vec![]);
        // Empty matrix: the log alone, duplicates resolved last-wins.
        let e = Csr::<i64>::empty(3, 3);
        check_merge(&e, vec![(2, 2, Some(1)), (0, 1, Some(2)), (2, 2, Some(3))]);
        check_merge(&e, vec![(1, 1, None)]);
        // A row of nothing but zombies empties it; the rows around it survive.
        let g = check_merge(&a, vec![(2, 1, None), (2, 0, None)]);
        assert_eq!(g.row_nnz(2), 0);
        // Append past the last stored column, insert before the first,
        // and into a row that was empty.
        check_merge(&a, vec![(2, 2, Some(9)), (1, 0, Some(8)), (1, 2, Some(7))]);
        // Overwrite in place; zombie for an absent element is a no-op.
        check_merge(&a, vec![(0, 2, Some(-2)), (0, 1, None), (1, 1, None)]);
    }

    #[test]
    fn merge_updates_orders_within_one_coordinate() {
        let a = small();
        // set → remove leaves nothing; remove → set leaves the new value;
        // the last of several sets wins — for stored and absent elements.
        let g = check_merge(
            &a,
            vec![
                (0, 0, Some(5)),
                (1, 1, Some(6)),
                (0, 0, None),
                (1, 1, None),
                (2, 0, None),
                (0, 1, None),
                (2, 0, Some(7)),
                (0, 1, Some(8)),
                (2, 2, Some(1)),
                (2, 2, Some(2)),
                (2, 2, Some(3)),
            ],
        );
        assert_eq!(g.get(0, 0), None);
        assert_eq!(g.get(1, 1), None);
        assert_eq!(g.get(2, 0), Some(&7));
        assert_eq!(g.get(0, 1), Some(&8));
        assert_eq!(g.get(2, 2), Some(&3));
    }

    #[test]
    fn merge_updates_rejects_out_of_bounds() {
        let a = small();
        assert!(matches!(
            a.merge_updates(vec![(3, 0, Some(1))]),
            Err(FormatError::IndexOutOfBounds { axis: "row", .. })
        ));
        assert!(matches!(
            a.merge_updates(vec![(0, 3, None)]),
            Err(FormatError::IndexOutOfBounds { axis: "column", .. })
        ));
    }

    #[test]
    fn merge_updates_matches_replay_on_random_logs() {
        use graphblas_exec::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let (nrows, ncols) = (rng.gen_range(1..12), rng.gen_range(1..12));
            let mut a = Csr::<i64>::empty(nrows, ncols);
            // Two generations: the second merges into a populated matrix.
            for _ in 0..2 {
                let log = (0..rng.gen_range(0..40))
                    .map(|_| {
                        let v = (rng.gen_range(0..3) != 0).then(|| rng.gen_range(-9i64..9));
                        (rng.gen_range(0..nrows), rng.gen_range(0..ncols), v)
                    })
                    .collect();
                a = check_merge(&a, log);
            }
        }
    }

    #[test]
    fn reduce_rows_and_all() {
        let a = small();
        let ctx = global_context();
        let sums = a.reduce_rows(&ctx, |v| *v, |x, y| x + y);
        assert_eq!(sums, vec![Some(3), None, Some(7)]);
        use crate::spmv::Never;
        assert_eq!(a.reduce_all(&ctx, |v| *v, |x, y| x + y, Never), Some(10));
        let empty = Csr::<i64>::empty(4, 4);
        assert_eq!(empty.reduce_all(&ctx, |v| *v, |x, y| x + y, Never), None);
    }

    #[test]
    fn reduce_all_terminal_short_circuits() {
        let ctx = global_context();
        let n = 10_000usize;
        let a = Csr::from_parts(1, n, vec![0, n], (0..n).collect(), vec![false; n]).unwrap();
        // LOR over all-false is false; with a true in front, terminal fires.
        let mut vals = vec![false; n];
        vals[1] = true;
        let b = Csr::from_parts(1, n, vec![0, n], (0..n).collect(), vals).unwrap();
        let lor = |x: bool, y: bool| x || y;
        assert_eq!(
            a.reduce_all(&ctx, |v| *v, lor, Some(&|z: &bool| *z)),
            Some(false)
        );
        assert_eq!(
            b.reduce_all(&ctx, |v| *v, lor, Some(&|z: &bool| *z)),
            Some(true)
        );
    }

    #[test]
    fn tuples_roundtrip() {
        let a = small();
        let (r, c, v) = a.tuples();
        assert_eq!(r, vec![0, 0, 2, 2]);
        assert_eq!(c, vec![0, 2, 0, 1]);
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    #[test]
    fn extract_submatrix_basic() {
        let a = small();
        let b = a
            .extract_submatrix(&global_context(), &[2, 0], &[0, 1])
            .unwrap();
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 2);
        assert_eq!(b.to_sorted_tuples(), vec![(0, 0, 3), (0, 1, 4), (1, 0, 1)]);
    }

    #[test]
    fn extract_submatrix_repeats_and_bounds() {
        let a = small();
        let b = a
            .extract_submatrix(&global_context(), &[0, 0], &[2, 2])
            .unwrap();
        assert_eq!(
            b.to_sorted_tuples(),
            vec![(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2)]
        );
        assert!(a.extract_submatrix(&global_context(), &[5], &[0]).is_err());
        assert!(a.extract_submatrix(&global_context(), &[0], &[5]).is_err());
    }

    #[test]
    fn empty_matrix_operations() {
        let ctx = global_context();
        let a = Csr::<f64>::empty(0, 0);
        assert_eq!(a.nnz(), 0);
        a.check().unwrap();
        let b = a.map(&ctx, |v| v + 1.0);
        assert_eq!(b.nnz(), 0);
        let c = Csr::<f64>::empty(5, 7);
        assert_eq!(c.filter_map_with_index(&ctx, |_, _, v| Some(*v)).nnz(), 0);
    }

    #[test]
    fn large_parallel_map_matches_sequential() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(42);
        let nrows = 500;
        let ncols = 300;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for _ in 0..nrows {
            let deg = rng.gen_range(0..20);
            let mut cols: Vec<usize> = (0..deg).map(|_| rng.gen_range(0..ncols)).collect();
            cols.sort_unstable();
            cols.dedup();
            for &c in &cols {
                indices.push(c);
                values.push(rng.gen_range(-100i64..100));
            }
            indptr.push(indices.len());
        }
        let a = Csr::from_parts(nrows, ncols, indptr, indices, values).unwrap();
        let b = a.map_with_index(&ctx, |i, j, v| v * 2 + (i + j) as i64);
        for (i, j, v) in a.iter() {
            assert_eq!(b.get(i, j), Some(&(v * 2 + (i + j) as i64)));
        }
        assert_eq!(a.nnz(), b.nnz());
    }
}
