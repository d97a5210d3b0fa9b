//! The `GrB_Matrix` container: an opaque, thread-safe handle over sparse
//! storage with a deferred-operation sequence (paper §III).
//!
//! A `Matrix<T>` is a typed façade over the shared container core (see
//! `container.rs` for the handle, queue, poison and locking design): this
//! file holds what is matrix-specific — the store, its update log and
//! transpose memo — and the `GrB_Matrix_*` methods. For *shared* objects
//! the user still provides the happens-before edge — `wait(Complete)` plus
//! an acquire/release flag, as in the paper's Fig. 1 — because completion,
//! not locking, is what makes a sequence's results visible.
//!
//! Internally a matrix has one store, CSR, whose rows may be unsorted until
//! a reader needs them ordered. A Table III import converts to it on
//! arrival (`transfer.rs`), so `export_hint` answers CSR. Element-wise
//! writes are lazy: `set_element`/`remove_element` append to an update log
//! that the next read, `wait` or queued operation merges into the store in
//! one pass.

use std::sync::Arc;

use graphblas_exec::Context;
use graphblas_sparse::{Coo, Csr, ElementUpdate};

use crate::container::{Container, State, Store};
use crate::error::{ApiError, Error, GrbResult};
use crate::introspect::{CheckError, ObjectStats};
use crate::ops::BinaryOp;
use crate::pending::{fuse_maps, MapFn, WaitMode};
use crate::scalar::Scalar;
use crate::types::{Index, MaskValue, ValueType};

/// The store of a matrix: a CSR that never holds a coordinate twice, its
/// rows sorted or not ([`Csr::is_rows_sorted`]).
#[derive(Clone)]
pub(crate) struct MatStore<T: ValueType>(pub(crate) Arc<Csr<T>>);

/// A store that no snapshot, `dup` or transpose memo still holds gives its
/// arrays to the thread's result shelf when it is dropped or replaced
/// (`C = op(C, …)`), so the next result of its size is not faulted in from
/// a fresh mapping. A shared store is left to its other holders.
impl<T: ValueType> Drop for MatStore<T> {
    fn drop(&mut self) {
        if let Some(csr) = Arc::get_mut(&mut self.0) {
            std::mem::replace(csr, Csr::empty(0, 0)).recycle();
        }
    }
}

pub(crate) struct MatrixState<T: ValueType> {
    pub nrows: usize,
    pub ncols: usize,
    pub store: MatStore<T>,
    /// Update log: `set_element`/`remove_element` calls (a `None` value is
    /// a zombie) not yet folded into `store`, in arrival order. Both
    /// methods complete the stage queue before appending, so every entry
    /// here precedes every queued stage; [`Self::fold_updates`] is the one
    /// place the log is applied.
    pub updates: Vec<ElementUpdate<T>>,
    /// Memoized transpose, keyed by the identity of the CSR `Arc` it was
    /// computed from. Every mutation installs a new store `Arc`, so a
    /// pointer-equality check is a complete validity test (and holding the
    /// source `Arc` here rules out ABA reuse of the allocation). Guarded by
    /// the state mutex like everything else, which is what lets
    /// `check::sched` model the population race.
    pub transpose_cache: Option<(Arc<Csr<T>>, Arc<Csr<T>>)>,
    /// What the products on this version of the store have so far given up
    /// by running without the transpose, in stored entries' worth of
    /// building it (see [`Matrix::snapshot_oriented`]); keyed by the store
    /// `Arc`'s address, which is only ever compared.
    transpose_forgone: (usize, u64),
}

impl<T: ValueType> MatrixState<T> {
    /// A store with an empty update log and no memoized transpose.
    pub(crate) fn fresh(nrows: usize, ncols: usize, store: MatStore<T>) -> Self {
        MatrixState {
            nrows,
            ncols,
            store,
            updates: Vec::new(),
            transpose_cache: None,
            transpose_forgone: (0, 0),
        }
    }

    /// Folds the update log, then sorts the store's rows when `sorted`.
    pub(crate) fn ensure_csr(&mut self, ctx: &Context, sorted: bool) -> GrbResult {
        self.fold_updates(ctx)?;
        if sorted {
            self.sort_rows(ctx);
        }
        Ok(())
    }

    /// Applies the update log to the store as one sorted merge
    /// (`Csr::merge_updates`) and empties it. Called at the top of
    /// [`Self::ensure_csr`] and of every drain, which every reader and
    /// every writer that replaces the store passes through.
    fn fold_updates(&mut self, ctx: &Context) -> GrbResult {
        if self.updates.is_empty() {
            return Ok(());
        }
        self.sort_rows(ctx);
        let log = std::mem::take(&mut self.updates);
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Convert, ctx.id());
        let (nnz_in, p) = (self.csr().nnz() as u64, log.len() as u64);
        let merged = self.csr().merge_updates(log).map_err(Error::from)?;
        if sp.active() {
            let elem = (std::mem::size_of::<usize>() + std::mem::size_of::<T>()) as u64;
            sp.io(0, nnz_in + p, merged.nnz() as u64, (nnz_in + p) * elem);
        }
        self.store = MatStore(Arc::new(merged));
        // Stale by pointer identity already; dropped to free it promptly.
        self.transpose_cache = None;
        self.debug_check();
        Ok(())
    }

    /// Sorts the store's rows if they are not; the update log is not
    /// consulted. A store shared with a snapshot is copied first.
    fn sort_rows(&mut self, ctx: &Context) {
        if self.csr().is_rows_sorted() {
            return;
        }
        let csr = Arc::make_mut(&mut self.store.0);
        let dup = csr.sort_rows(ctx);
        debug_assert!(dup.is_none(), "a matrix store holds no coordinate twice");
        if graphblas_obs::enabled() {
            let nnz = csr.nnz() as u64;
            graphblas_obs::events::decision_convert_csr("matrix", ctx.id(), "unsorted", nnz);
        }
        self.debug_check();
    }

    /// Borrows the CSR store (call [`Self::ensure_csr`] first to fold the
    /// update log).
    pub(crate) fn csr(&self) -> &Arc<Csr<T>> {
        &self.store.0
    }

    /// The transpose of the current CSR store (must call
    /// [`Self::ensure_csr`] first), memoized on the store `Arc`'s identity.
    /// A cache hit is O(1); a miss computes, records, and caches.
    pub(crate) fn transposed_csr(&mut self, ctx: &Context) -> Arc<Csr<T>> {
        let src = self.csr().clone();
        if let Some((key, t)) = &self.transpose_cache {
            if Arc::ptr_eq(key, &src) {
                if graphblas_obs::enabled() {
                    graphblas_obs::counters::record_transpose_cache(true);
                    graphblas_obs::events::decision_transpose(
                        ctx.id(),
                        true,
                        "memoized",
                        src.nnz() as u64,
                    );
                }
                return t.clone();
            }
        }
        let _ph = graphblas_obs::timeline::phase("mxv.transpose_build");
        let t = Arc::new(graphblas_sparse::transpose::transpose(ctx, &src));
        if graphblas_obs::enabled() {
            graphblas_obs::counters::record_transpose_cache(false);
            // A rebuild over a present-but-stale memo is the cache
            // invalidation path (the store Arc changed underneath it).
            let detail = if self.transpose_cache.is_some() {
                "invalidated"
            } else {
                "cold"
            };
            graphblas_obs::events::decision_transpose(ctx.id(), false, detail, src.nnz() as u64);
        }
        self.transpose_cache = Some((src, t.clone()));
        t
    }
}

impl<T: ValueType> Store for MatrixState<T> {
    type Elem = T;
    const KIND: &'static str = "matrix";
    const DRAIN_SITE: &'static str = "matrix.drain";

    /// Store bytes plus the update log's: un-folded updates are container
    /// bytes too. A shared (copy-on-write) store is counted by every handle
    /// that reaches it, so the container gauges report *reachable* bytes —
    /// an upper bound on unique allocation.
    fn bytes(&self) -> u64 {
        let log = self.updates.capacity() * std::mem::size_of::<ElementUpdate<T>>();
        self.csr().bytes() + log as u64
    }

    fn unfolded(&self) -> usize {
        self.updates.len()
    }

    fn fold(st: &mut State<Self>, ctx: &Context) -> GrbResult {
        st.fold_updates(ctx)
    }

    fn map_run(st: &mut State<Self>, ctx: &Context, run: &[MapFn<T>]) -> GrbResult<(u64, u64)> {
        st.ensure_csr(ctx, false)?;
        let out = st
            .csr()
            .filter_map_with_index(ctx, |i, j, v| fuse_maps(run, &[i, j], v));
        let counts = (st.csr().nnz() as u64, out.nnz() as u64);
        st.store = MatStore(Arc::new(out));
        Ok(counts)
    }

    /// Table III invariants of the current store, store-vs-logical shape
    /// agreement, and update-log bounds.
    fn check(&self) -> Result<(), CheckError> {
        let a = self.csr();
        a.check().map_err(|source| CheckError::Format {
            format: "csr",
            source,
        })?;
        let shape = (a.nrows(), a.ncols());
        if shape != (self.nrows, self.ncols) {
            return Err(CheckError::ShapeMismatch {
                logical: (self.nrows as u64, self.ncols as u64),
                store: (shape.0 as u64, shape.1 as u64),
            });
        }
        let out_of_bounds = self.updates.iter().find_map(|&(i, j, _)| {
            if i >= self.nrows {
                Some((i, self.nrows, "row"))
            } else if j >= self.ncols {
                Some((j, self.ncols, "column"))
            } else {
                None
            }
        });
        if let Some((index, bound, axis)) = out_of_bounds {
            return Err(CheckError::Format {
                format: "update log",
                source: graphblas_sparse::FormatError::IndexOutOfBounds { index, bound, axis },
            });
        }
        Ok(())
    }
}

/// An opaque handle to a GraphBLAS matrix over domain `T`.
#[derive(Clone)]
pub struct Matrix<T: ValueType> {
    pub(crate) core: Arc<Container<MatrixState<T>>>,
}

impl<T: ValueType> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.core.lock_raw();
        write!(
            f,
            "Matrix<{}>({}x{}, pending: {})",
            std::any::type_name::<T>(),
            st.nrows,
            st.ncols,
            st.queued()
        )
    }
}

impl<T: ValueType> Matrix<T> {
    /// `GrB_Matrix_new`: an empty `nrows × ncols` matrix in the global
    /// context. Dimensions must be positive (`GrB_INVALID_VALUE`).
    ///
    /// # Examples
    ///
    /// ```
    /// use graphblas_core::Matrix;
    /// let a = Matrix::<f64>::new(4, 4)?;
    /// a.set_element(2.5, 1, 2)?;
    /// assert_eq!(a.nvals()?, 1);
    /// assert_eq!(a.extract_element(1, 2)?, Some(2.5));
    /// # Ok::<(), graphblas_core::Error>(())
    /// ```
    pub fn new(nrows: Index, ncols: Index) -> GrbResult<Self> {
        Self::new_in(&graphblas_exec::global_context(), nrows, ncols)
    }

    /// §IV context-aware constructor (Fig. 2's extra `GrB_Context` arg).
    pub fn new_in(ctx: &Context, nrows: Index, ncols: Index) -> GrbResult<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        Ok(Self::from_state(
            ctx,
            MatrixState::fresh(nrows, ncols, MatStore(Arc::new(Csr::empty(nrows, ncols)))),
        ))
    }

    pub(crate) fn from_state(ctx: &Context, state: MatrixState<T>) -> Self {
        Matrix {
            core: Container::new(ctx, state),
        }
    }

    /// `GrB_Matrix_dup`: deep-copies (cheaply — storage is shared
    /// copy-on-write) after completing this matrix.
    pub fn dup(&self) -> GrbResult<Self> {
        let ctx = self.context();
        let st = self.core.lock_completed()?;
        let state = MatrixState::fresh(st.nrows, st.ncols, st.store.clone());
        drop(st);
        Ok(Self::from_state(&ctx, state))
    }

    /// The context this matrix belongs to (§IV).
    pub fn context(&self) -> Context {
        self.core.context()
    }

    /// `GrB_Context_switch`: moves the object to another context.
    pub fn switch_context(&self, ctx: &Context) -> GrbResult {
        self.core.switch_context(ctx)
    }

    /// Number of rows (shape is immutable except through [`Self::resize`]).
    pub fn nrows(&self) -> Index {
        self.core.lock_raw().nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.core.lock_raw().ncols
    }

    /// `GrB_Matrix_nvals`: number of stored elements. Forces completion.
    pub fn nvals(&self) -> GrbResult<usize> {
        let ctx = self.context();
        let mut st = self.core.lock_completed()?;
        st.ensure_csr(&ctx, false)?;
        Ok(st.csr().nnz())
    }

    /// `GrB_Matrix_clear`: removes all elements. Also clears pending
    /// operations and any sticky error (the object is rebuilt from empty).
    pub fn clear(&self) -> GrbResult {
        let mut st = self.core.lock_raw();
        st.reset();
        st.updates.clear();
        st.store = MatStore(Arc::new(Csr::empty(st.nrows, st.ncols)));
        // Pointer identity already invalidates the cache; dropping it here
        // just frees the memory promptly.
        st.transpose_cache = None;
        Ok(())
    }

    /// `GrB_Matrix_resize`: grows or shrinks dimensions; elements outside
    /// the new shape are dropped. Executes immediately (shape queries must
    /// stay cheap).
    pub fn resize(&self, nrows: Index, ncols: Index) -> GrbResult {
        if nrows == 0 || ncols == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        let ctx = self.context();
        let mut st = self.core.lock_completed()?;
        st.ensure_csr(&ctx, false)?;
        let kept = st
            .csr()
            .filter_map_with_index(&ctx, |i, j, v| (i < nrows && j < ncols).then(|| v.clone()));
        // Rows past the new count are empty now and new rows start empty,
        // so either way the tail of `indptr` repeats the element count.
        let (mut indptr, indices, values) = kept.into_parts();
        indptr.resize(nrows + 1, values.len());
        let resized =
            Csr::from_parts(nrows, ncols, indptr, indices, values).map_err(Error::from)?;
        st.nrows = nrows;
        st.ncols = ncols;
        st.store = MatStore(Arc::new(resized));
        st.transpose_cache = None;
        Ok(())
    }

    /// `GrB_Matrix_setElement`. A scalar index outside the dimensions is
    /// an *API* error (`GrB_INVALID_INDEX`), reported immediately. O(1):
    /// the element is appended to the update log and merged into the store
    /// at the next read or `wait`.
    pub fn set_element(&self, v: T, i: Index, j: Index) -> GrbResult {
        self.push_update(i, j, Some(v))
    }

    /// Table II scalar variant of `setElement`: an **empty** scalar removes
    /// the element (making the method total over scalar states).
    pub fn set_element_scalar(&self, s: &Scalar<T>, i: Index, j: Index) -> GrbResult {
        match s.extract_element()? {
            Some(v) => self.set_element(v, i, j),
            None => self.remove_element(i, j),
        }
    }

    /// `GrB_Matrix_removeElement`. O(1): logged as a zombie, like
    /// [`Self::set_element`]; removing an absent element is a no-op.
    pub fn remove_element(&self, i: Index, j: Index) -> GrbResult {
        self.push_update(i, j, None)
    }

    /// Completes the queued stages (which fold the log they follow), then
    /// appends one entry to the update log without folding it.
    fn push_update(&self, i: Index, j: Index, v: Option<T>) -> GrbResult {
        let ctx = self.context();
        let mut st = self.core.lock_raw();
        st.poisoned()?;
        if st.queued() != 0 {
            st.drain_as(&ctx, "read")?;
        }
        if i >= st.nrows || j >= st.ncols {
            return Err(ApiError::InvalidIndex.into());
        }
        st.updates.push((i, j, v));
        Ok(())
    }

    /// `GrB_Matrix_extractElement`: `Ok(None)` is the C API's
    /// `GrB_NO_VALUE`. Forces completion (the paper's §VI motivation for
    /// the scalar variant below).
    pub fn extract_element(&self, i: Index, j: Index) -> GrbResult<Option<T>> {
        let ctx = self.context();
        let mut st = self.core.lock_completed()?;
        if i >= st.nrows || j >= st.ncols {
            return Err(ApiError::InvalidIndex.into());
        }
        st.ensure_csr(&ctx, true)?;
        Ok(st.csr().get(i, j).cloned())
    }

    /// Table II scalar variant of `extractElement`: a missing element
    /// yields an *empty* scalar rather than an error-like code (§VI). The
    /// element is read now, as every deferred operation snapshots its
    /// operands at the call; in a nonblocking context only the write into
    /// the scalar is deferred into its sequence.
    pub fn extract_element_scalar(&self, s: &Scalar<T>, i: Index, j: Index) -> GrbResult {
        s.check_context(&self.context())?;
        let (nrows, ncols) = self.shape();
        if i >= nrows || j >= ncols {
            return Err(ApiError::InvalidIndex.into());
        }
        let value = self.extract_element(i, j)?;
        s.core.apply_write(Box::new(move |slot| {
            **slot = value;
            Ok(())
        }))
    }

    /// `GrB_Matrix_build` with GraphBLAS 2.0's optional `dup` (§IX): when
    /// `dup` is `None`, duplicate coordinates are an **execution** error —
    /// deferred in nonblocking mode, like all execution errors.
    pub fn build(
        &self,
        rows: &[Index],
        cols: &[Index],
        values: &[T],
        dup: Option<&BinaryOp<T, T, T>>,
    ) -> GrbResult {
        if rows.len() != values.len() || cols.len() != values.len() {
            return Err(ApiError::InvalidValue.into());
        }
        if self.nvals()? != 0 {
            return Err(ApiError::OutputNotEmpty.into());
        }
        let rows = rows.to_vec();
        let cols = cols.to_vec();
        let values = values.to_vec();
        let dup = dup.cloned();
        let ctx = self.context();
        self.core.apply_write(Box::new(move |st| {
            let coo =
                Coo::from_parts(st.nrows, st.ncols, rows, cols, values).map_err(Error::from)?;
            let csr = match &dup {
                Some(op) => coo.into_csr(&ctx, Some(&|a: &T, b: &T| op.apply(a, b))),
                None => coo.into_csr(&ctx, None),
            }
            .map_err(Error::from)?;
            st.store = MatStore(Arc::new(csr));
            Ok(())
        }))
    }

    /// `GrB_Matrix_diag`: builds the square matrix holding vector `v` on
    /// its `k`-th diagonal (positive `k` above the main diagonal). The
    /// result has dimension `v.size() + |k|`.
    pub fn diag(v: &crate::vector::Vector<T>, k: i64) -> GrbResult<Self> {
        let ctx = v.context();
        let n = v
            .size()
            .checked_add(k.unsigned_abs() as usize)
            .ok_or(ApiError::InvalidValue)?;
        let sv = v.snapshot_sparse()?;
        let out = Matrix::new_in(&ctx, n, n)?;
        let mut rows = Vec::with_capacity(sv.nnz());
        let mut cols = Vec::with_capacity(sv.nnz());
        let mut vals = Vec::with_capacity(sv.nnz());
        for (i, value) in sv.iter() {
            let (r, c) = if k >= 0 {
                (i, i + k as usize)
            } else {
                (i + (-k) as usize, i)
            };
            rows.push(r);
            cols.push(c);
            vals.push(value.clone());
        }
        out.build(&rows, &cols, &vals, None)?;
        Ok(out)
    }

    /// Extracts the `k`-th diagonal into a vector (the inverse of
    /// [`Matrix::diag`]): entry `i` of the result is `A(i, i + k)` for
    /// `k ≥ 0`, `A(i − k, i)` for `k < 0`.
    pub fn extract_diag(&self, k: i64) -> GrbResult<crate::vector::Vector<T>> {
        let ctx = self.context();
        let (nrows, ncols) = self.shape();
        let len = if k >= 0 {
            ncols.saturating_sub(k as usize).min(nrows)
        } else {
            nrows.saturating_sub((-k) as usize).min(ncols)
        };
        if len == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        let csr = self.snapshot_csr(true)?;
        let out = crate::vector::Vector::new_in(&ctx, len)?;
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, j, v) in csr.iter() {
            let on_diag = j as i64 - i as i64 == k;
            if on_diag {
                let pos = if k >= 0 { i } else { j };
                idx.push(pos);
                vals.push(v.clone());
            }
        }
        out.build(&idx, &vals, None)?;
        Ok(out)
    }

    /// `GrB_Matrix_extractTuples`: `(rows, cols, values)` of every stored
    /// element, ordered by `(row, col)`.
    pub fn extract_tuples(&self) -> GrbResult<(Vec<Index>, Vec<Index>, Vec<T>)> {
        Ok(self.snapshot_csr(true)?.tuples())
    }

    /// `GrB_wait` (§III, §V): `Complete` drains the sequence; `Materialize`
    /// additionally canonicalizes storage (CSR, sorted rows) and finalizes
    /// error reporting for the drained sequence.
    pub fn wait(&self, mode: WaitMode) -> GrbResult {
        let ctx = self.context();
        let _sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Wait, ctx.id());
        let mut st = self.core.lock_completed_as("wait")?;
        if mode == WaitMode::Materialize {
            st.ensure_csr(&ctx, true)?;
        }
        Ok(())
    }

    /// `GrB_get`-style introspection: the object's current dimensions,
    /// stored-element count, pending-sequence depth, storage format, error
    /// state, and context — **without** forcing completion. Under
    /// nonblocking execution `stats().nvals` describes the store as it is
    /// now, which may lag the sequence.
    pub fn stats(&self) -> ObjectStats {
        let st = self.core.lock_raw();
        st.stats((st.nrows, st.ncols), st.csr().nnz(), "csr")
    }

    /// `GrB_explain`-style decision provenance scoped to this matrix's
    /// context subtree (decisions are attributed per context, not per
    /// container). Does not force completion.
    pub fn explain(&self, last_n: usize) -> graphblas_obs::Explain {
        self.context().explain(last_n)
    }

    /// `GrB_error`: the implementation-defined description of this
    /// object's error state; empty when healthy. Thread safe.
    pub fn error_string(&self) -> String {
        self.core.error_string()
    }

    /// Whether two handles denote the same object.
    pub fn same_object(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Number of queued (not yet executed) stages — observability hook for
    /// tests and the fusion bench.
    pub fn pending_len(&self) -> usize {
        self.core.lock_raw().queued()
    }

    // --- crate-internal plumbing ------------------------------------------

    /// Completes and returns a cheap CSR snapshot (optionally row-sorted) —
    /// the value of this object *at this point in the sequence*.
    pub(crate) fn snapshot_csr(&self, sorted: bool) -> GrbResult<Arc<Csr<T>>> {
        let ctx = self.context();
        let mut st = self.core.lock_completed()?;
        st.ensure_csr(&ctx, sorted)?;
        Ok(st.csr().clone())
    }

    /// Completes and returns the transpose of this matrix's CSR snapshot,
    /// memoized across calls (see [`MatrixState::transpose_cache`]): a
    /// BFS that runs `vxm` on `A` twenty times pays for the transpose
    /// once, and any mutation between calls invalidates it automatically
    /// through the store `Arc`'s identity.
    pub(crate) fn snapshot_transposed(&self) -> GrbResult<Arc<Csr<T>>> {
        let ctx = self.context();
        let mut st = self.core.lock_completed()?;
        st.ensure_csr(&ctx, false)?;
        Ok(st.transposed_csr(&ctx))
    }

    /// Completes and snapshots the CSR store or its transpose (`true`),
    /// for a caller that can work with either and prefers one. `prefer` is
    /// shown the store, and the transpose only where one is memoised for
    /// this version of the store — nothing is built to be shown — and
    /// answers whether it would rather have the transpose and, if so, how
    /// many stored entries' worth of building one that saves it; what else
    /// it worked out (`R`) is handed back beside the snapshot.
    ///
    /// A memoised transpose is handed over for the asking. One that would
    /// have to be built is built once the savings forgone on this version
    /// of the store add up to the build itself — every stored entry paid
    /// for, the break-even rule of rent-or-buy — and until then the caller
    /// gets the store. So a matrix that is rewritten between a few products
    /// never pays for a transpose, and a traversal that keeps wanting one
    /// loses at most one build's worth of time before it has it.
    pub(crate) fn snapshot_oriented<R>(
        &self,
        prefer: impl FnOnce(&Csr<T>, Option<&Csr<T>>) -> (Option<u64>, R),
    ) -> GrbResult<(Arc<Csr<T>>, bool, R)> {
        let ctx = self.context();
        let mut st = self.core.lock_completed()?;
        st.ensure_csr(&ctx, false)?;
        let memo = st.transpose_cache.as_ref();
        let memo = memo.filter(|(src, _)| Arc::ptr_eq(src, st.csr()));
        let memoised = memo.is_some();
        let (preference, worked_out) = prefer(st.csr(), memo.map(|(_, t)| &**t));
        let transposed = match preference {
            None => false,
            Some(_) if memoised => true,
            Some(saved) => {
                let version = Arc::as_ptr(st.csr()) as usize;
                let before = match st.transpose_forgone {
                    (v, forgone) if v == version => forgone,
                    _ => 0,
                };
                let forgone = before.saturating_add(saved);
                st.transpose_forgone = (version, forgone);
                forgone >= st.csr().nnz() as u64
            }
        };
        let snapshot = if transposed {
            st.transposed_csr(&ctx)
        } else {
            st.csr().clone()
        };
        Ok((snapshot, transposed, worked_out))
    }

    /// Current logical shape.
    pub(crate) fn shape(&self) -> (Index, Index) {
        let st = self.core.lock_raw();
        (st.nrows, st.ncols)
    }

    /// Type-erased object identity (see `Container::addr`).
    pub(crate) fn addr(&self) -> usize {
        self.core.addr()
    }

    /// Validates the §IV same-context rule against `ctx`.
    pub(crate) fn check_context(&self, ctx: &Context) -> GrbResult {
        self.core.check_context(ctx)
    }
}

impl<T: ValueType> crate::introspect::Check for Matrix<T> {
    /// Deep validation (`grb_check`): verifies the current store's Table III
    /// invariants, the store-vs-logical shape agreement, and the §V rule
    /// that a poisoned object holds no pending stages. Never forces
    /// completion — like [`Matrix::stats`], it observes without perturbing.
    fn grb_check(&self) -> Result<(), CheckError> {
        self.core.lock_raw().check()
    }
}

impl<T: ValueType + MaskValue> Matrix<T> {
    /// Completes and snapshots this matrix as a boolean mask: present
    /// elements map to their truthiness (or to `true` under structure-only
    /// semantics). Rows come out sorted, ready for merge kernels.
    pub(crate) fn snapshot_mask(&self, structure: bool) -> GrbResult<Arc<Csr<bool>>> {
        let csr = self.snapshot_csr(true)?;
        let ctx = self.context();
        let boolified = if structure {
            csr.map(&ctx, |_| true)
        } else {
            csr.map(&ctx, |v| v.is_truthy())
        };
        Ok(Arc::new(boolified))
    }
}

impl<T: ValueType + std::fmt::Display> Matrix<T> {
    /// Renders the matrix as an ASCII grid with `.` for missing elements —
    /// used by the examples to reprint the paper's Fig. 3.
    pub fn to_display_string(&self) -> GrbResult<String> {
        let csr = self.snapshot_csr(true)?;
        let mut out = String::new();
        for i in 0..csr.nrows() {
            for j in 0..csr.ncols() {
                match csr.get(i, j) {
                    Some(v) => out.push_str(&format!("{v:>4} ")),
                    None => out.push_str("   . "),
                }
            }
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::{global_context, ContextOptions, Mode};

    #[test]
    fn new_validates_dimensions() {
        assert!(Matrix::<f64>::new(0, 3).is_err());
        assert!(Matrix::<f64>::new(3, 0).is_err());
        let m = Matrix::<f64>::new(3, 4).unwrap();
        assert_eq!((m.nrows(), m.ncols()), (3, 4));
        assert_eq!(m.nvals().unwrap(), 0);
    }

    #[test]
    fn set_extract_remove_element() {
        let m = Matrix::<i64>::new(3, 3).unwrap();
        m.set_element(7, 1, 2).unwrap();
        assert_eq!(m.extract_element(1, 2).unwrap(), Some(7));
        assert_eq!(m.extract_element(0, 0).unwrap(), None);
        m.set_element(9, 1, 2).unwrap(); // overwrite: last wins
        assert_eq!(m.extract_element(1, 2).unwrap(), Some(9));
        assert_eq!(m.nvals().unwrap(), 1);
        m.remove_element(1, 2).unwrap();
        assert_eq!(m.extract_element(1, 2).unwrap(), None);
        assert_eq!(m.nvals().unwrap(), 0);
        // Scalar index OOB is an immediate API error.
        let err = m.set_element(1, 5, 0).unwrap_err();
        assert!(err.is_api());
        assert!(m.extract_element(0, 5).is_err());
    }

    #[test]
    fn many_set_elements_stay_fast_and_correct() {
        let m = Matrix::<u32>::new(100, 100).unwrap();
        for k in 0..1000u32 {
            m.set_element(k, (k as usize * 7) % 100, (k as usize * 13) % 100)
                .unwrap();
        }
        // Spot-check last-wins on a known collision: the map (7k, 13k) mod
        // 100 repeats with period 100, so key 5 and 105... use direct check:
        m.set_element(1, 3, 3).unwrap();
        m.set_element(2, 3, 3).unwrap();
        assert_eq!(m.extract_element(3, 3).unwrap(), Some(2));
    }

    #[test]
    fn build_and_tuples_roundtrip() {
        let m = Matrix::<f64>::new(4, 4).unwrap();
        m.build(&[0, 2, 2], &[1, 0, 3], &[1.5, 2.5, 3.5], None)
            .unwrap();
        let (r, c, v) = m.extract_tuples().unwrap();
        assert_eq!(r, vec![0, 2, 2]);
        assert_eq!(c, vec![1, 0, 3]);
        assert_eq!(v, vec![1.5, 2.5, 3.5]);
        // Output not empty → API error.
        let err = m.build(&[0], &[0], &[1.0], None).unwrap_err();
        assert_eq!(err, Error::Api(ApiError::OutputNotEmpty));
    }

    #[test]
    fn build_duplicates_combined_or_rejected() {
        let m = Matrix::<i64>::new(2, 2).unwrap();
        m.build(&[0, 0], &[1, 1], &[3, 4], Some(&BinaryOp::plus()))
            .unwrap();
        assert_eq!(m.extract_element(0, 1).unwrap(), Some(7));
        let m2 = Matrix::<i64>::new(2, 2).unwrap();
        let err = m2.build(&[0, 0], &[1, 1], &[3, 4], None).unwrap_err();
        assert!(err.is_execution());
        assert_eq!(err.code(), -104);
    }

    #[test]
    fn build_oob_is_execution_error() {
        let m = Matrix::<i64>::new(2, 2).unwrap();
        let err = m.build(&[5], &[0], &[1], None).unwrap_err();
        assert!(err.is_execution());
        assert_eq!(err.code(), -105);
    }

    #[test]
    fn deferred_build_error_surfaces_at_wait() {
        let ctx = Context::new(
            &global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let m = Matrix::<i64>::new_in(&ctx, 2, 2).unwrap();
        // Enqueued, not executed: the bad index is data, hence an execution
        // error, hence deferrable (§V).
        m.build(&[5], &[0], &[1], None).unwrap();
        assert_eq!(m.pending_len(), 1);
        let err = m.wait(WaitMode::Materialize).unwrap_err();
        assert!(err.is_execution());
        // Sticky until cleared.
        assert!(m.nvals().is_err());
        assert!(!m.error_string().is_empty());
        m.clear().unwrap();
        assert_eq!(m.nvals().unwrap(), 0);
        assert_eq!(m.error_string(), "");
    }

    #[test]
    fn dup_is_independent() {
        let m = Matrix::<i32>::new(2, 2).unwrap();
        m.set_element(5, 0, 0).unwrap();
        let d = m.dup().unwrap();
        m.set_element(9, 0, 0).unwrap();
        assert_eq!(d.extract_element(0, 0).unwrap(), Some(5));
        assert!(!d.same_object(&m));
    }

    #[test]
    fn resize_drops_out_of_range() {
        let m = Matrix::<i32>::new(4, 4).unwrap();
        m.set_element(1, 0, 0).unwrap();
        m.set_element(2, 3, 3).unwrap();
        m.resize(2, 2).unwrap();
        assert_eq!((m.nrows(), m.ncols()), (2, 2));
        assert_eq!(m.nvals().unwrap(), 1);
        m.resize(8, 8).unwrap();
        assert_eq!(m.nvals().unwrap(), 1);
        assert_eq!(m.extract_element(0, 0).unwrap(), Some(1));
    }

    #[test]
    fn scalar_variants_of_set_and_extract() {
        let m = Matrix::<i64>::new(2, 2).unwrap();
        let s = Scalar::<i64>::new().unwrap();
        s.set_element(11).unwrap();
        m.set_element_scalar(&s, 0, 1).unwrap();
        assert_eq!(m.extract_element(0, 1).unwrap(), Some(11));
        // Extract a present element into a scalar.
        let out = Scalar::<i64>::new().unwrap();
        m.extract_element_scalar(&out, 0, 1).unwrap();
        assert_eq!(out.extract_element().unwrap(), Some(11));
        // Extract a missing element: empty scalar, NOT an error (§VI).
        let empty = Scalar::<i64>::new().unwrap();
        m.extract_element_scalar(&empty, 1, 1).unwrap();
        assert_eq!(empty.nvals().unwrap(), 0);
        // Empty scalar setElement removes.
        let hole = Scalar::<i64>::new().unwrap();
        m.set_element_scalar(&hole, 0, 1).unwrap();
        assert_eq!(m.extract_element(0, 1).unwrap(), None);
    }

    #[test]
    fn clear_resets_everything() {
        let m = Matrix::<u8>::new(2, 2).unwrap();
        m.set_element(1, 0, 0).unwrap();
        m.clear().unwrap();
        assert_eq!(m.nvals().unwrap(), 0);
        assert_eq!((m.nrows(), m.ncols()), (2, 2));
    }

    #[test]
    fn stats_reflect_store_without_completing() {
        let ctx = Context::new(
            &global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let m = Matrix::<i64>::new_in(&ctx, 3, 3).unwrap();
        m.build(&[0, 1], &[1, 2], &[1, 2], None).unwrap();
        let s = m.stats();
        assert_eq!(s.kind, "matrix");
        assert_eq!((s.nrows, s.ncols), (3, 3));
        // The build is still queued: stats must not have drained it.
        assert_eq!(s.pending, 1);
        assert_eq!(s.nvals, 0);
        assert_eq!(s.ctx, ctx.id());
        assert!(!s.failed);
        m.wait(WaitMode::Materialize).unwrap();
        let s = m.stats();
        assert_eq!((s.pending, s.nvals), (0, 2));
        assert_eq!(s.format, "csr");
        assert!(s.to_json().contains("\"nvals\":2"));
    }

    #[test]
    fn grb_check_validates_state() {
        use crate::introspect::{grb_check, CheckError};
        // A healthy object passes.
        let m = Matrix::<i64>::new(3, 3).unwrap();
        m.set_element(1, 0, 0).unwrap();
        grb_check(&m).unwrap();
        // §V: a poisoned object has its pending sequence cleared, so the
        // deep check still passes — error state and queue stay consistent.
        let ctx = Context::new(
            &global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let m2 = Matrix::<i64>::new_in(&ctx, 2, 2).unwrap();
        m2.build(&[5], &[0], &[1], None).unwrap();
        assert!(m2.wait(WaitMode::Complete).is_err());
        grb_check(&m2).unwrap();
        // A store whose shape disagrees with the logical dimensions fails.
        let bad = Matrix::from_state(
            &global_context(),
            MatrixState::fresh(2, 2, MatStore(Arc::new(Csr::<i64>::empty(3, 3)))),
        );
        assert!(matches!(
            grb_check(&bad),
            Err(CheckError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn display_rendering() {
        let m = Matrix::<i32>::new(2, 2).unwrap();
        m.set_element(3, 0, 1).unwrap();
        let s = m.to_display_string().unwrap();
        assert!(s.contains('3'));
        assert!(s.contains('.'));
    }
}
