//! The `GrB_Vector` container — the one-dimensional sibling of
//! [`Matrix`](crate::matrix::Matrix), with the same opaque-handle,
//! deferred-sequence design (see `matrix.rs` for the architecture notes).

use std::sync::Arc;

use graphblas_exec::sync::{Mutex, RwLock};
use graphblas_exec::{Context, Mode};
use graphblas_sparse::{BitmapVec, DenseVec, SparseVec};

use crate::error::{ApiError, Error, ExecutionError, GrbResult};
use crate::introspect::ObjectStats;
use crate::ops::BinaryOp;
use crate::pending::{fuse_maps, MapFn, NodeKind, Stage, WaitMode};
use crate::scalar::Scalar;
use crate::types::{Index, MaskValue, ValueType};

/// The lazy internal storage of a vector.
pub(crate) enum VecStore<T: ValueType> {
    /// Possibly unsorted / duplicated (fast `setElement` appends resolve
    /// last-wins at canonicalization).
    Sparse(Arc<SparseVec<T>>),
    Dense(Arc<DenseVec<T>>),
    /// Table III bitmap format: mid-density frontiers produced by
    /// `mxv`/`vxm` land here (see the format heuristic in `operations`).
    Bitmap(Arc<BitmapVec<T>>),
}

impl<T: ValueType> Clone for VecStore<T> {
    fn clone(&self) -> Self {
        match self {
            VecStore::Sparse(a) => VecStore::Sparse(a.clone()),
            VecStore::Dense(a) => VecStore::Dense(a.clone()),
            VecStore::Bitmap(a) => VecStore::Bitmap(a.clone()),
        }
    }
}

impl<T: ValueType> VecStore<T> {
    /// Allocated buffer bytes of the current store (see
    /// `MatStore::bytes` for the shared-storage caveat).
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            VecStore::Sparse(a) => a.bytes(),
            VecStore::Dense(a) => a.bytes(),
            VecStore::Bitmap(a) => a.bytes(),
        }
    }
}

/// A completed `mxv`/`vxm` input frontier in whichever Table III format
/// the producing operation chose to store it.
pub(crate) enum Frontier<T: ValueType> {
    Sparse(Arc<SparseVec<T>>),
    Bitmap(Arc<BitmapVec<T>>),
}

impl<T: ValueType> Frontier<T> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Frontier::Sparse(s) => s.len(),
            Frontier::Bitmap(b) => b.len(),
        }
    }

    pub(crate) fn nnz(&self) -> usize {
        match self {
            Frontier::Sparse(s) => s.nnz(),
            Frontier::Bitmap(b) => b.nnz(),
        }
    }
}

pub(crate) struct VectorState<T: ValueType> {
    pub n: usize,
    pub store: VecStore<T>,
    pub pending: Vec<Stage<VectorState<T>, T>>,
    pub err: Option<ExecutionError>,
    /// Store bytes last reported to the `obs::mem` container gauge.
    pub mem_bytes: u64,
    /// Context id the bytes above were charged to.
    pub mem_ctx: u64,
}

impl<T: ValueType> Drop for VectorState<T> {
    fn drop(&mut self) {
        if self.mem_bytes != 0 {
            graphblas_obs::mem::adjust_container(self.mem_ctx, self.mem_bytes, 0);
        }
    }
}

impl<T: ValueType> VectorState<T> {
    /// A clean state (no pending stages, no error) over `store`.
    pub(crate) fn fresh(n: usize, store: VecStore<T>) -> Self {
        VectorState {
            n,
            store,
            pending: Vec::new(),
            err: None,
            mem_bytes: 0,
            mem_ctx: 0,
        }
    }

    /// Reconciles this container's allocated-store bytes with the
    /// `obs::mem` container gauge and the owning context's memory ledger
    /// (see `MatrixState::note_mem`).
    pub(crate) fn note_mem(&mut self, ctx_id: u64) {
        let enabled = graphblas_obs::enabled();
        if !enabled && self.mem_bytes == 0 {
            return;
        }
        if ctx_id != self.mem_ctx && self.mem_bytes != 0 {
            graphblas_obs::mem::adjust_container(self.mem_ctx, self.mem_bytes, 0);
            self.mem_bytes = 0;
        }
        self.mem_ctx = ctx_id;
        let new = if enabled { self.store.bytes() } else { 0 };
        if new != self.mem_bytes {
            graphblas_obs::mem::adjust_container(ctx_id, self.mem_bytes, new);
            self.mem_bytes = new;
        }
    }
    /// Canonicalizes to a sorted, duplicate-free sparse store.
    pub(crate) fn ensure_sparse(&mut self) -> GrbResult {
        // Which real work the canonicalization did, for the provenance
        // log (vectors carry no Context at this layer, hence ctx 0).
        let mut src_format: Option<&'static str> = None;
        let sv: Arc<SparseVec<T>> = match &self.store {
            VecStore::Sparse(a) => {
                if a.is_sorted() {
                    a.clone()
                } else {
                    src_format = Some("unsorted");
                    let mut owned = (**a).clone();
                    owned
                        .sort_dedup(Some(&|_: &T, b: &T| b.clone()))
                        .map_err(Error::from)?;
                    Arc::new(owned)
                }
            }
            VecStore::Dense(d) => {
                src_format = Some("dense");
                Arc::new(d.to_sparse())
            }
            VecStore::Bitmap(b) => {
                src_format = Some("bitmap");
                Arc::new(b.to_svec())
            }
        };
        if let Some(src) = src_format {
            if src == "bitmap" && graphblas_obs::enabled() {
                graphblas_obs::counters::record_format_conversion();
            }
            if graphblas_obs::events::on() {
                graphblas_obs::events::decision_convert_sparse("vector", 0, src, sv.nnz() as u64);
            }
        }
        self.store = VecStore::Sparse(sv);
        self.debug_check();
        Ok(())
    }

    /// Deep validation of this state: Table III invariants of the current
    /// store, store-vs-logical length agreement, and §V error bookkeeping.
    pub(crate) fn check(&self) -> Result<(), crate::introspect::CheckError> {
        use crate::introspect::CheckError;
        let len = match &self.store {
            VecStore::Sparse(a) => {
                a.check().map_err(|source| CheckError::Format {
                    format: "sparse",
                    source,
                })?;
                a.len()
            }
            VecStore::Dense(a) => {
                a.check().map_err(|source| CheckError::Format {
                    format: "full",
                    source,
                })?;
                a.len()
            }
            VecStore::Bitmap(a) => {
                a.check().map_err(|source| CheckError::Format {
                    format: "bitmap",
                    source,
                })?;
                a.len()
            }
        };
        if len != self.n {
            return Err(CheckError::ShapeMismatch {
                logical: (self.n as u64, 1),
                store: (len as u64, 1),
            });
        }
        if self.err.is_some() && !self.pending.is_empty() {
            return Err(CheckError::PendingAfterError {
                pending: self.pending.len(),
            });
        }
        Ok(())
    }

    /// Debug-build invariant gate, called at kernel boundaries (after
    /// `drain` and `ensure_sparse`). Compiles to nothing in release builds.
    #[inline]
    pub(crate) fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check() {
            panic!("vector container invariant violated: {e}");
        }
    }

    /// Borrows the sparse store (call [`Self::ensure_sparse`] first).
    pub(crate) fn sparse(&self) -> &Arc<SparseVec<T>> {
        match &self.store {
            VecStore::Sparse(a) => a,
            _ => unreachable!("ensure_sparse must precede sparse()"),
        }
    }

    pub(crate) fn drain(&mut self, ctx: &Context) -> GrbResult {
        self.drain_as(ctx, "read")
    }

    /// [`Self::drain`] with an explicit force cause for the `DagForce`
    /// decision event ("read", "wait", "async", "self-input").
    pub(crate) fn drain_as(&mut self, ctx: &Context, cause: &'static str) -> GrbResult {
        if let Some(e) = &self.err {
            return Err(Error::Execution(e.clone()));
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        let obs_on = graphblas_obs::enabled();
        let _sp = obs_on.then(|| graphblas_obs::span_ctx("drain", ctx.id()));
        if obs_on {
            // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
            graphblas_obs::counters::pending()
                .drains
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let pending = std::mem::take(&mut self.pending);
        if pending.iter().any(|s| matches!(s, Stage::Node { .. })) {
            if obs_on {
                // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
                graphblas_obs::counters::dag()
                    .forces
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            if graphblas_obs::events::on() {
                graphblas_obs::events::decision_dag_force(
                    "vector.drain",
                    ctx.id(),
                    cause,
                    pending.len() as u64,
                );
            }
        }
        let mut stages = pending.into_iter().peekable();
        let mut run: Vec<MapFn<T>> = Vec::new();
        let result = (|| {
            while let Some(stage) = stages.next() {
                match stage {
                    Stage::Map(f) => run.push(f),
                    Stage::Opaque(f) => {
                        self.flush_map_run(ctx, &mut run, "opaque-barrier")?;
                        if obs_on {
                            // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
                            graphblas_obs::counters::pending()
                                .opaque_drains
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            graphblas_obs::events::decision_opaque_drain("vector.drain", ctx.id());
                        }
                        let _ph = graphblas_obs::timeline::phase("drain.opaque");
                        f(self)?;
                    }
                    Stage::Node { kind: _, exec } => {
                        // Maps *before* a node transform this container's
                        // pre-node value: they must land first.
                        self.flush_map_run(ctx, &mut run, "node-barrier")?;
                        // Maps *after* the node transform its output: hand
                        // the whole trailing run to the node so it fuses
                        // them into its kernel (or one result pass).
                        let mut post: Vec<MapFn<T>> = Vec::new();
                        while matches!(stages.peek(), Some(Stage::Map(_))) {
                            if let Some(Stage::Map(f)) = stages.next() {
                                post.push(f);
                            }
                        }
                        let _ph = graphblas_obs::timeline::phase("drain.node");
                        exec(self, post)?;
                    }
                }
            }
            self.flush_map_run(ctx, &mut run, "queue-end")
        })();
        if let Err(e) = &result {
            if let Error::Execution(exec) = e {
                self.err = Some(exec.clone());
                if obs_on {
                    // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
                    graphblas_obs::counters::pending()
                        .errors_deferred
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    graphblas_obs::events::decision_error_deferred("vector.drain", ctx.id());
                }
            }
            self.pending.clear();
        }
        self.note_mem(ctx.id());
        self.debug_check();
        result
    }

    fn flush_map_run(
        &mut self,
        ctx: &Context,
        run: &mut Vec<MapFn<T>>,
        trigger: &'static str,
    ) -> GrbResult {
        if run.is_empty() {
            return Ok(());
        }
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::MapFuse, ctx.id());
        if sp.active() {
            let p = graphblas_obs::counters::pending();
            // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
            p.map_traversals
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
            p.fusion_hits
                .fetch_add(run.len() as u64 - 1, std::sync::atomic::Ordering::Relaxed);
        }
        self.ensure_sparse()?;
        let nnz_in = if sp.active() {
            self.sparse().nnz() as u64
        } else {
            0
        };
        if graphblas_obs::events::on() {
            graphblas_obs::events::decision_fuse_flush(
                "vector.drain",
                ctx.id(),
                run.len() as u64,
                nnz_in,
                trigger,
            );
        }
        let fused = self
            .sparse()
            .filter_map_with_index(|i, v| fuse_maps(run, &[i], v));
        if sp.active() {
            sp.io(
                nnz_in * run.len() as u64,
                nnz_in,
                fused.nnz() as u64,
                nnz_in * std::mem::size_of::<T>() as u64,
            );
        }
        self.store = VecStore::Sparse(Arc::new(fused));
        run.clear();
        Ok(())
    }

    /// Applies a node's trailing (post) map run to the container's final
    /// state as one pass. The masked/accumulated node paths use this: the
    /// post maps semantically transform the *merged* output, so they
    /// cannot thread through the kernel write.
    pub(crate) fn apply_post_maps(&mut self, post: &[MapFn<T>]) -> GrbResult {
        if post.is_empty() {
            return Ok(());
        }
        self.ensure_sparse()?;
        let out = self
            .sparse()
            .filter_map_with_index(|i, v| fuse_maps(post, &[i], v));
        self.store = VecStore::Sparse(Arc::new(out));
        Ok(())
    }
}

struct VectorHandle<T: ValueType> {
    ctx: RwLock<Context>,
    state: Mutex<VectorState<T>>,
}

/// An opaque handle to a GraphBLAS vector over domain `T`.
#[derive(Clone)]
pub struct Vector<T: ValueType> {
    inner: Arc<VectorHandle<T>>,
}

impl<T: ValueType> std::fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        write!(
            f,
            "Vector<{}>({}, pending: {})",
            std::any::type_name::<T>(),
            st.n,
            st.pending.len()
        )
    }
}

impl<T: ValueType> Vector<T> {
    /// `GrB_Vector_new`: an empty vector of positive length.
    pub fn new(n: Index) -> GrbResult<Self> {
        Self::new_in(&graphblas_exec::global_context(), n)
    }

    /// §IV context-aware constructor.
    pub fn new_in(ctx: &Context, n: Index) -> GrbResult<Self> {
        if n == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        Ok(Self::from_state(
            ctx,
            VectorState::fresh(n, VecStore::Sparse(Arc::new(SparseVec::empty(n)))),
        ))
    }

    pub(crate) fn from_state(ctx: &Context, mut state: VectorState<T>) -> Self {
        state.note_mem(ctx.id());
        Vector {
            inner: Arc::new(VectorHandle {
                ctx: RwLock::new(ctx.clone()),
                state: Mutex::new(state),
            }),
        }
    }

    /// `GrB_Vector_dup`.
    pub fn dup(&self) -> GrbResult<Self> {
        let ctx = self.context();
        let st = self.lock_completed()?;
        let state = VectorState::fresh(st.n, st.store.clone());
        drop(st);
        Ok(Self::from_state(&ctx, state))
    }

    pub fn context(&self) -> Context {
        self.inner.ctx.read().clone()
    }

    /// `GrB_Context_switch`.
    pub fn switch_context(&self, ctx: &Context) -> GrbResult {
        *self.inner.ctx.write() = ctx.clone();
        Ok(())
    }

    /// `GrB_Vector_size`.
    pub fn size(&self) -> Index {
        self.inner.state.lock().n
    }

    /// `GrB_Vector_nvals`. Forces completion but not canonicalization —
    /// bitmap and dense stores report their counts in place.
    pub fn nvals(&self) -> GrbResult<usize> {
        let mut st = self.lock_completed()?;
        match &st.store {
            VecStore::Bitmap(b) => return Ok(b.nnz()),
            VecStore::Dense(d) => return Ok(d.len()),
            VecStore::Sparse(_) => {}
        }
        st.ensure_sparse()?;
        Ok(st.sparse().nnz())
    }

    /// `GrB_Vector_clear`: removes all elements, pending stages, and any
    /// sticky error.
    pub fn clear(&self) -> GrbResult {
        let ctx_id = self.context().id();
        let mut st = self.inner.state.lock();
        st.pending.clear();
        st.err = None;
        st.store = VecStore::Sparse(Arc::new(SparseVec::empty(st.n)));
        st.note_mem(ctx_id);
        Ok(())
    }

    /// `GrB_Vector_resize`.
    pub fn resize(&self, n: Index) -> GrbResult {
        if n == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        let mut st = self.lock_completed()?;
        st.ensure_sparse()?;
        let old = st.sparse().clone();
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, v) in old.iter() {
            if i < n {
                indices.push(i);
                values.push(v.clone());
            }
        }
        st.n = n;
        st.store = VecStore::Sparse(Arc::new(
            SparseVec::from_parts(n, indices, values).map_err(Error::from)?,
        ));
        Ok(())
    }

    /// `GrB_Vector_setElement`; scalar-index OOB is an immediate API error.
    pub fn set_element(&self, v: T, i: Index) -> GrbResult {
        let mut st = self.lock_completed()?;
        if i >= st.n {
            return Err(ApiError::InvalidIndex.into());
        }
        if !matches!(st.store, VecStore::Sparse(_)) {
            st.ensure_sparse()?;
        }
        if let VecStore::Sparse(sv) = &mut st.store {
            Arc::make_mut(sv).append(i, v).map_err(Error::from)?;
        }
        let ctx_id = self.context().id();
        st.note_mem(ctx_id);
        Ok(())
    }

    /// Table II scalar variant: empty scalar removes the element.
    pub fn set_element_scalar(&self, s: &Scalar<T>, i: Index) -> GrbResult {
        match s.extract_element()? {
            Some(v) => self.set_element(v, i),
            None => self.remove_element(i),
        }
    }

    /// `GrB_Vector_removeElement`.
    pub fn remove_element(&self, i: Index) -> GrbResult {
        let mut st = self.lock_completed()?;
        if i >= st.n {
            return Err(ApiError::InvalidIndex.into());
        }
        st.ensure_sparse()?;
        if let VecStore::Sparse(sv) = &mut st.store {
            // A uniquely owned store is edited in place; only a shared
            // (copy-on-write) one is cloned, and only when `i` is stored.
            if sv.get(i).is_some() {
                Arc::make_mut(sv).remove(i);
            }
        }
        let ctx_id = self.context().id();
        st.note_mem(ctx_id);
        Ok(())
    }

    /// `GrB_Vector_extractElement`: `Ok(None)` ≡ `GrB_NO_VALUE`.
    pub fn extract_element(&self, i: Index) -> GrbResult<Option<T>> {
        let mut st = self.lock_completed()?;
        if i >= st.n {
            return Err(ApiError::InvalidIndex.into());
        }
        st.ensure_sparse()?;
        Ok(st.sparse().get(i).cloned())
    }

    /// Table II scalar variant: missing element → empty scalar; deferred
    /// into the scalar's sequence in nonblocking mode (§VI).
    pub fn extract_element_scalar(&self, s: &Scalar<T>, i: Index) -> GrbResult {
        s.check_context(&self.context())?;
        if i >= self.size() {
            return Err(ApiError::InvalidIndex.into());
        }
        let this = self.clone();
        s.apply_write(Box::new(move |slot: &mut Option<T>| {
            *slot = this.extract_element(i)?;
            Ok(())
        }))
    }

    /// `GrB_Vector_build` with optional `dup` (§IX).
    pub fn build(
        &self,
        indices: &[Index],
        values: &[T],
        dup: Option<&BinaryOp<T, T, T>>,
    ) -> GrbResult {
        if indices.len() != values.len() {
            return Err(ApiError::InvalidValue.into());
        }
        {
            let mut st = self.lock_completed()?;
            st.ensure_sparse()?;
            if st.sparse().nnz() != 0 {
                return Err(ApiError::OutputNotEmpty.into());
            }
        }
        let indices = indices.to_vec();
        let values = values.to_vec();
        let dup = dup.cloned();
        self.apply_write(Box::new(move |st: &mut VectorState<T>| {
            let mut sv = SparseVec::from_parts(st.n, indices, values).map_err(Error::from)?;
            match &dup {
                Some(op) => sv
                    .sort_dedup(Some(&|a: &T, b: &T| op.apply(a, b)))
                    .map_err(Error::from)?,
                None => sv.sort_dedup(None).map_err(Error::from)?,
            }
            st.store = VecStore::Sparse(Arc::new(sv));
            Ok(())
        }))
    }

    /// `GrB_Vector_extractTuples`, ordered by index.
    pub fn extract_tuples(&self) -> GrbResult<(Vec<Index>, Vec<T>)> {
        let mut st = self.lock_completed()?;
        st.ensure_sparse()?;
        let sv = st.sparse();
        Ok((sv.indices().to_vec(), sv.values().to_vec()))
    }

    /// `GrB_wait` (§III, §V): the real barrier on the op DAG — forces the
    /// whole queued subgraph, after which the object can participate in a
    /// cross-thread happens-before edge.
    pub fn wait(&self, mode: WaitMode) -> GrbResult {
        let _sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Wait, self.context().id());
        let mut st = self.lock_completed_as("wait")?;
        if mode == WaitMode::Materialize {
            st.ensure_sparse()?;
        }
        Ok(())
    }

    /// `GrB_get`-style introspection without forcing completion (see
    /// [`Matrix::stats`](crate::matrix::Matrix::stats)).
    pub fn stats(&self) -> ObjectStats {
        let ctx_id = self.context().id();
        let st = self.inner.state.lock();
        let (format, nvals) = match &st.store {
            VecStore::Sparse(a) => ("sparse", a.nnz()),
            VecStore::Dense(a) => ("full", a.len()),
            VecStore::Bitmap(a) => ("bitmap", a.nnz()),
        };
        ObjectStats {
            kind: "vector",
            nrows: st.n as u64,
            ncols: 1,
            nvals: nvals as u64,
            pending: st.pending.len() as u64,
            format,
            failed: st.err.is_some(),
            ctx: ctx_id,
        }
    }

    /// `GrB_explain`-style decision provenance scoped to this vector's
    /// context subtree (see [`Matrix::explain`](crate::matrix::Matrix::explain)).
    pub fn explain(&self, last_n: usize) -> graphblas_obs::Explain {
        self.context().explain(last_n)
    }

    /// `GrB_error`.
    pub fn error_string(&self) -> String {
        self.inner
            .state
            .lock()
            .err
            .as_ref()
            .map(|e| e.to_string())
            .unwrap_or_default()
    }

    pub fn same_object(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of queued stages (observability for tests/benches).
    pub fn pending_len(&self) -> usize {
        self.inner.state.lock().pending.len()
    }

    // --- crate-internal plumbing ------------------------------------------

    /// Locks state without draining (format inspection only).
    pub(crate) fn lock_raw(&self) -> graphblas_exec::sync::MutexGuard<'_, VectorState<T>> {
        self.inner.state.lock()
    }

    pub(crate) fn lock_completed(
        &self,
    ) -> GrbResult<graphblas_exec::sync::MutexGuard<'_, VectorState<T>>> {
        self.lock_completed_as("read")
    }

    /// [`Self::lock_completed`] with an explicit force cause for the
    /// `DagForce` decision event.
    pub(crate) fn lock_completed_as(
        &self,
        cause: &'static str,
    ) -> GrbResult<graphblas_exec::sync::MutexGuard<'_, VectorState<T>>> {
        let ctx = self.context();
        let mut st = self.inner.state.lock();
        st.drain_as(&ctx, cause)?;
        Ok(st)
    }

    /// Completes and snapshots as a canonical sparse vector.
    pub(crate) fn snapshot_sparse(&self) -> GrbResult<Arc<SparseVec<T>>> {
        let mut st = self.lock_completed()?;
        st.ensure_sparse()?;
        Ok(st.sparse().clone())
    }

    /// Completes and snapshots in the store's current frontier format —
    /// bitmap stays bitmap (the pull kernel consumes it natively), every
    /// other format canonicalizes to sparse. When this vector's queue is pure
    /// map stages the maps are *cloned* (cheap `Arc` bumps) and returned
    /// alongside the base frontier instead of being materialized — the
    /// consumer folds them into its kernel's operand lookup, so the
    /// intermediate traversal and allocation never happen. The queue is
    /// left intact: this vector's own later readers still see the maps
    /// (sequence order fixed the input values at call time either way).
    /// Any non-map stage forces a full drain (fallback: empty pre run).
    pub(crate) fn snapshot_frontier_fused(&self) -> GrbResult<(Frontier<T>, Vec<MapFn<T>>)> {
        let ctx = self.context();
        let mut st = self.inner.state.lock();
        if let Some(e) = &st.err {
            return Err(Error::Execution(e.clone()));
        }
        if crate::dag::dag_enabled()
            && !st.pending.is_empty()
            && st.pending.iter().all(|s| s.is_map())
        {
            let pre: Vec<MapFn<T>> = st
                .pending
                .iter()
                .map(|s| match s {
                    Stage::Map(f) => f.clone(),
                    _ => unreachable!("queue checked all-map above"),
                })
                .collect();
            if let VecStore::Bitmap(b) = &st.store {
                return Ok((Frontier::Bitmap(b.clone()), pre));
            }
            st.ensure_sparse()?;
            return Ok((Frontier::Sparse(st.sparse().clone()), pre));
        }
        st.drain_as(&ctx, "self-input")?;
        if let VecStore::Bitmap(b) = &st.store {
            return Ok((Frontier::Bitmap(b.clone()), Vec::new()));
        }
        st.ensure_sparse()?;
        Ok((Frontier::Sparse(st.sparse().clone()), Vec::new()))
    }

    pub(crate) fn apply_write(
        &self,
        stage: Box<dyn FnOnce(&mut VectorState<T>) -> GrbResult + Send>,
    ) -> GrbResult {
        let ctx = self.context();
        let mut st = self.inner.state.lock();
        if let Some(e) = &st.err {
            return Err(Error::Execution(e.clone()));
        }
        match ctx.mode() {
            Mode::NonBlocking => {
                st.pending.push(Stage::Opaque(stage));
                if graphblas_obs::enabled() {
                    // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
                    graphblas_obs::counters::pending()
                        .opaques_enqueued
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    graphblas_obs::counters::note_pending_depth(st.pending.len());
                }
                Ok(())
            }
            Mode::Blocking => {
                st.drain(&ctx)?;
                let r = stage(&mut st);
                if let Err(Error::Execution(exec)) = &r {
                    st.err = Some(exec.clone());
                }
                st.note_mem(ctx.id());
                r
            }
        }
    }

    /// Enqueues a lazy op-DAG node (§III). In nonblocking mode with the
    /// DAG on, `exec` defers as a [`Stage::Node`] and receives the run of
    /// trailing map stages at drain time (it must apply them — via its
    /// fused kernel or [`VectorState::apply_post_maps`]). With the DAG off
    /// (`GRB_NONBLOCKING=0`) it degrades to exactly the pre-DAG opaque
    /// stage; in blocking mode it runs eagerly.
    pub(crate) fn apply_node(
        &self,
        kind: NodeKind,
        exec: Box<dyn FnOnce(&mut VectorState<T>, Vec<MapFn<T>>) -> GrbResult + Send>,
    ) -> GrbResult {
        let ctx = self.context();
        let mut st = self.inner.state.lock();
        if let Some(e) = &st.err {
            return Err(Error::Execution(e.clone()));
        }
        match ctx.mode() {
            Mode::NonBlocking if crate::dag::dag_enabled() => {
                st.pending.push(Stage::Node { kind, exec });
                let depth = st.pending.len();
                if graphblas_obs::enabled() {
                    // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
                    graphblas_obs::counters::dag()
                        .nodes_enqueued
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    graphblas_obs::counters::note_pending_depth(depth);
                }
                drop(st);
                self.maybe_async_drain(depth);
                Ok(())
            }
            Mode::NonBlocking => {
                st.pending
                    .push(Stage::Opaque(Box::new(move |st| exec(st, Vec::new()))));
                if graphblas_obs::enabled() {
                    // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
                    graphblas_obs::counters::pending()
                        .opaques_enqueued
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    graphblas_obs::counters::note_pending_depth(st.pending.len());
                }
                Ok(())
            }
            Mode::Blocking => {
                st.drain(&ctx)?;
                let r = exec(&mut st, Vec::new());
                if let Err(Error::Execution(exec_err)) = &r {
                    st.err = Some(exec_err.clone());
                }
                st.note_mem(ctx.id());
                r
            }
        }
    }

    /// Hands this container's backlog to the worker pool once its queue
    /// depth crosses the `GRB_ASYNC_DRAIN_DEPTH` threshold. The threshold
    /// keeps short op chains intact (so node drains still find trailing
    /// maps to fuse); the per-container mutex serializes the background
    /// drain against readers, and a drain of an already-empty queue is a
    /// no-op — so racing forces cannot double-drain.
    fn maybe_async_drain(&self, depth: usize) {
        if !crate::dag::async_drain_enabled() || depth < crate::dag::async_drain_depth() {
            return;
        }
        if graphblas_obs::enabled() {
            // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
            graphblas_obs::counters::dag()
                .async_drains
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let this = self.clone();
        let ctx = self.context();
        graphblas_exec::pool::global_pool().spawn_static(Box::new(move || {
            let mut st = this.inner.state.lock();
            // A failed drain leaves the §V sticky error in place for the
            // next reader to surface; the background task has no caller
            // to report to.
            let _ = st.drain_as(&ctx, "async");
        }));
    }

    pub(crate) fn apply_map(&self, f: MapFn<T>) -> GrbResult {
        let ctx = self.context();
        let mut st = self.inner.state.lock();
        if let Some(e) = &st.err {
            return Err(Error::Execution(e.clone()));
        }
        match ctx.mode() {
            Mode::NonBlocking => {
                st.pending.push(Stage::Map(f));
                if graphblas_obs::enabled() {
                    // grblint: allow(relaxed-ordering); grbsa: protocol(counter) — monotonic obs counter.
                    graphblas_obs::counters::pending()
                        .maps_enqueued
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    graphblas_obs::counters::note_pending_depth(st.pending.len());
                }
                Ok(())
            }
            Mode::Blocking => {
                st.drain(&ctx)?;
                st.ensure_sparse()?;
                let out = st.sparse().filter_map_with_index(|i, v| f(&[i], v));
                st.store = VecStore::Sparse(Arc::new(out));
                st.note_mem(ctx.id());
                Ok(())
            }
        }
    }

    /// Type-erased object identity (see `Matrix::addr`).
    pub(crate) fn addr(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    pub(crate) fn check_context(&self, ctx: &Context) -> GrbResult {
        if self.context().same(ctx) {
            Ok(())
        } else {
            Err(ApiError::ContextMismatch.into())
        }
    }
}

impl<T: ValueType> crate::introspect::Check for Vector<T> {
    /// Deep validation (`grb_check`): the current store's Table III
    /// invariants, store-vs-logical length agreement, and §V error
    /// bookkeeping — without forcing completion.
    fn grb_check(&self) -> Result<(), crate::introspect::CheckError> {
        self.inner.state.lock().check()
    }
}

impl<T: ValueType + std::fmt::Display> Vector<T> {
    /// Renders the vector as a one-line list with `.` for missing elements.
    pub fn to_display_string(&self) -> GrbResult<String> {
        let sv = self.snapshot_sparse()?;
        let table = sv.to_option_table();
        let mut out = String::from("[");
        for (i, slot) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match slot {
                Some(v) => out.push_str(&format!("{v}")),
                None => out.push('.'),
            }
        }
        out.push(']');
        Ok(out)
    }
}

impl<T: ValueType + MaskValue> Vector<T> {
    /// Snapshot as a boolean mask (see `Matrix::snapshot_mask`).
    pub(crate) fn snapshot_mask(&self, structure: bool) -> GrbResult<Arc<SparseVec<bool>>> {
        let sv = self.snapshot_sparse()?;
        let boolified = if structure {
            sv.map_with_index(|_, _| true)
        } else {
            sv.map_with_index(|_, v| v.is_truthy())
        };
        Ok(Arc::new(boolified))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::{global_context, ContextOptions};

    #[test]
    fn new_validates_length() {
        assert!(Vector::<i32>::new(0).is_err());
        let v = Vector::<i32>::new(5).unwrap();
        assert_eq!(v.size(), 5);
        assert_eq!(v.nvals().unwrap(), 0);
    }

    #[test]
    fn element_lifecycle() {
        let v = Vector::<f64>::new(4).unwrap();
        v.set_element(1.5, 2).unwrap();
        assert_eq!(v.extract_element(2).unwrap(), Some(1.5));
        v.set_element(2.5, 2).unwrap();
        assert_eq!(v.extract_element(2).unwrap(), Some(2.5));
        assert_eq!(v.nvals().unwrap(), 1);
        v.remove_element(2).unwrap();
        assert_eq!(v.extract_element(2).unwrap(), None);
        assert!(v.set_element(0.0, 4).is_err());
        assert!(v.extract_element(4).is_err());
    }

    #[test]
    fn build_with_and_without_dup() {
        let v = Vector::<i64>::new(6).unwrap();
        v.build(&[1, 1, 4], &[10, 20, 40], Some(&BinaryOp::plus()))
            .unwrap();
        assert_eq!(v.extract_element(1).unwrap(), Some(30));
        assert_eq!(v.nvals().unwrap(), 2);
        let w = Vector::<i64>::new(6).unwrap();
        let err = w.build(&[1, 1], &[10, 20], None).unwrap_err();
        assert!(err.is_execution());
        let full = Vector::<i64>::new(6).unwrap();
        full.set_element(1, 0).unwrap();
        assert_eq!(
            full.build(&[1], &[1], None).unwrap_err(),
            Error::Api(ApiError::OutputNotEmpty)
        );
    }

    #[test]
    fn deferred_build_error_in_nonblocking() {
        let ctx = Context::new(
            &global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let v = Vector::<i64>::new_in(&ctx, 3).unwrap();
        v.build(&[9], &[1], None).unwrap(); // deferred; index is data
        assert_eq!(v.pending_len(), 1);
        assert!(v.wait(WaitMode::Materialize).is_err());
        assert!(!v.error_string().is_empty());
        v.clear().unwrap();
        assert!(v.wait(WaitMode::Complete).is_ok());
    }

    #[test]
    fn tuples_and_resize() {
        let v = Vector::<u8>::new(5).unwrap();
        v.build(&[0, 3], &[7, 9], None).unwrap();
        let (idx, vals) = v.extract_tuples().unwrap();
        assert_eq!(idx, vec![0, 3]);
        assert_eq!(vals, vec![7, 9]);
        v.resize(2).unwrap();
        assert_eq!(v.size(), 2);
        assert_eq!(v.nvals().unwrap(), 1);
    }

    #[test]
    fn scalar_variants() {
        let v = Vector::<i32>::new(3).unwrap();
        let s = Scalar::<i32>::new().unwrap();
        s.set_element(5).unwrap();
        v.set_element_scalar(&s, 1).unwrap();
        assert_eq!(v.extract_element(1).unwrap(), Some(5));
        let out = Scalar::<i32>::new().unwrap();
        v.extract_element_scalar(&out, 1).unwrap();
        assert_eq!(out.extract_element().unwrap(), Some(5));
        let missing = Scalar::<i32>::new().unwrap();
        v.extract_element_scalar(&missing, 0).unwrap();
        assert_eq!(missing.nvals().unwrap(), 0);
        let empty = Scalar::<i32>::new().unwrap();
        v.set_element_scalar(&empty, 1).unwrap();
        assert_eq!(v.extract_element(1).unwrap(), None);
    }

    #[test]
    fn dup_independence() {
        let v = Vector::<i32>::new(2).unwrap();
        v.set_element(1, 0).unwrap();
        let d = v.dup().unwrap();
        v.set_element(2, 0).unwrap();
        assert_eq!(d.extract_element(0).unwrap(), Some(1));
    }
}
