//! The one container core behind `GrB_Matrix`, `GrB_Vector` and
//! `GrB_Scalar` (paper §III, §V, §VI).
//!
//! The paper gives all three opaque objects the same contract: an object is
//! defined by its *sequence* of method calls, `GrB_wait` completes the
//! sequence, and an execution error inside it poisons the object until it
//! is cleared. `Container` is that contract, once: a context handle plus
//! a mutex-guarded `State` that owns the stage queue, the sticky error
//! and the memory-ledger entry. What differs per object — the Table III
//! store and how to traverse it — sits behind the small `Store` trait,
//! implemented by `MatrixState`, `VectorState` and the scalar's
//! `Option<T>`.
//!
//! **One execution path.** Every deferred method goes through
//! `Container::enqueue`: check poison, push the stage, and then either
//! leave it queued (a `NonBlocking` context) or force the queue on the spot
//! (`Blocking`: "every method completes before it returns" is nothing more
//! than *enqueue, then force*). Both run stages through
//! `State::run_queue`, so poison-on-error, map fusion and the invariant
//! check exist once. Only work that actually sat in the queue is counted
//! and narrated as deferred; a `Blocking` workload reports no `dag.*` /
//! `pending.*` activity.
//!
//! **One reconciliation point.** Every access to a state goes through a
//! `StateGuard`; releasing it reconciles the store's bytes with the
//! `obs::mem` container gauge and the owning context's ledger, whatever the
//! access did (resize, conversion, drain, clear, …).
//!
//! **Invariant: every log entry precedes every stage.** A store may keep
//! deferred element writes of its own (the matrix update log). Writers to
//! that log complete the queue first, and `State::drain_as` folds the log
//! before the first stage runs, so folding first is always sequence order.
//!
//! **Locks.** A container's mutex is held while its own stages run, and
//! they run only on the thread whose read, `wait` or `Blocking` method
//! forced them — nothing drains in the background. Stages never lock
//! their inputs: operations snapshot every input *before* taking the
//! output's lock, so no stage holds two container locks.

use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphblas_exec::sync::{Mutex, MutexGuard, RwLock};
use graphblas_exec::{Context, Mode};
use graphblas_obs::{counters, events};

use crate::error::{ApiError, Error, ExecErrorKind, ExecutionError, GrbResult};
use crate::introspect::{CheckError, ObjectStats};
use crate::pending::{MapFn, Stage};
use crate::types::ValueType;

/// Adds to a monotonic obs counter.
fn bump(counter: &AtomicU64, by: u64) {
    // grblint: allow(relaxed-ordering) — monotonic obs counter.
    counter.fetch_add(by, Ordering::Relaxed);
}

/// What a container stores: the format-specific part of an opaque object.
/// The functions that need the surrounding [`State`] (to canonicalize
/// through its helpers) take it instead of `self`.
pub(crate) trait Store: Sized + Send + 'static {
    /// The element domain.
    type Elem: ValueType;
    /// Object kind, as `ObjectStats::kind` and invariant panics name it.
    const KIND: &'static str;
    /// Site name the drain's decision events carry.
    const DRAIN_SITE: &'static str;

    /// Allocated buffer bytes, as reported to the memory ledger.
    fn bytes(&self) -> u64;

    /// Deferred element writes the store holds outside the stage queue.
    fn unfolded(&self) -> usize {
        0
    }

    /// Applies those deferred writes to the store.
    fn fold(_st: &mut State<Self>, _ctx: &Context) -> GrbResult {
        Ok(())
    }

    /// Applies a run of maps to every stored element as **one** traversal;
    /// returns the element counts `(in, out)`.
    fn map_run(
        st: &mut State<Self>,
        ctx: &Context,
        run: &[MapFn<Self::Elem>],
    ) -> GrbResult<(u64, u64)>;

    /// Deep validation of the store alone: Table III invariants and
    /// store-vs-logical shape agreement.
    fn check(&self) -> Result<(), CheckError>;

    /// Debug-build invariant gate, called at kernel boundaries (after a
    /// drain and after canonicalization). Compiles to nothing in release.
    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check() {
            panic!("{} container invariant violated: {e}", Self::KIND);
        }
    }
}

/// Everything a container guards with its mutex. Dereferences to the
/// [`Store`], which is the surface operation stages work against
/// (`st.store`, `st.ensure_csr(..)`, `st.csr()`, …); the queue, the error
/// and the ledger entry stay private to this module.
pub(crate) struct State<S: Store> {
    data: S,
    pending: Vec<Stage<State<S>, S::Elem>>,
    /// §V: the execution error that poisoned this object, sticky until
    /// [`Self::reset`]. Set ⇒ `pending` is empty.
    err: Option<ExecutionError>,
    /// Bytes last reported to the `obs::mem` container gauge (0 when
    /// telemetry was off at the last reconciliation).
    mem_bytes: u64,
    /// Id of the owning context: the ledger entry `mem_bytes` is charged
    /// to, and the context this object's conversion events belong to.
    ctx_id: u64,
}

impl<S: Store> Deref for State<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.data
    }
}

impl<S: Store> DerefMut for State<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.data
    }
}

impl<S: Store> Drop for State<S> {
    fn drop(&mut self) {
        if self.mem_bytes != 0 {
            graphblas_obs::mem::adjust_container(self.ctx_id, self.mem_bytes, 0);
        }
    }
}

impl<S: Store> State<S> {
    /// Id of the context this object belongs to.
    pub(crate) fn ctx_id(&self) -> u64 {
        self.ctx_id
    }

    /// The §V sticky error, if this object is poisoned.
    pub(crate) fn poisoned(&self) -> GrbResult {
        match &self.err {
            Some(e) => Err(Error::Execution(e.clone())),
            None => Ok(()),
        }
    }

    /// Drops the queued sequence and any sticky error (`GrB_*_clear`; the
    /// caller rebuilds the store).
    pub(crate) fn reset(&mut self) {
        self.pending.clear();
        self.err = None;
    }

    /// Number of queued (not yet executed) stages.
    pub(crate) fn queued(&self) -> usize {
        self.pending.len()
    }

    /// The queued maps (cheap `Arc` clones) when the queue is non-empty and
    /// holds nothing else — a consumer can then fold them into its kernel
    /// instead of forcing this container.
    pub(crate) fn queued_maps(&self) -> Option<Vec<MapFn<S::Elem>>> {
        if self.pending.is_empty() {
            return None;
        }
        self.pending
            .iter()
            .map(|s| match s {
                Stage::Map(f) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }

    /// `GrB_get`-style introspection record; the store supplies its shape,
    /// stored-element count and format name.
    pub(crate) fn stats(
        &self,
        (nrows, ncols): (usize, usize),
        nvals: usize,
        format: &'static str,
    ) -> ObjectStats {
        ObjectStats {
            kind: S::KIND,
            nrows: nrows as u64,
            ncols: ncols as u64,
            nvals: nvals as u64,
            pending: (self.pending.len() + self.data.unfolded()) as u64,
            format,
            failed: self.err.is_some(),
            ctx: self.ctx_id,
        }
    }

    /// Deep validation: the store's own invariants plus the §V rule that a
    /// poisoned object holds nothing deferred (the drain folds the log
    /// before the first stage runs, and a poisoned object accepts no new
    /// work).
    pub(crate) fn check(&self) -> Result<(), CheckError> {
        self.data.check()?;
        let deferred = self.pending.len() + self.data.unfolded();
        if self.err.is_some() && deferred != 0 {
            return Err(CheckError::PendingAfterError { pending: deferred });
        }
        Ok(())
    }

    /// Reconciles the store's bytes with the `obs::mem` container gauge and
    /// the owning context's ledger. Cheap when telemetry is off (one
    /// relaxed load, nothing recorded) and self-correcting across toggles:
    /// it always releases exactly what it previously recorded before
    /// charging the new figure.
    fn note_mem(&mut self) {
        let enabled = graphblas_obs::enabled();
        if !enabled && self.mem_bytes == 0 {
            return;
        }
        let new = if enabled { self.data.bytes() } else { 0 };
        if new != self.mem_bytes {
            graphblas_obs::mem::adjust_container(self.ctx_id, self.mem_bytes, new);
            self.mem_bytes = new;
        }
    }

    /// Completes the queued sequence, fusing runs of map stages into single
    /// traversals. `cause` is what forced it ("read", "wait",
    /// "self-input"), recorded with the `dag-force` decision event.
    pub(crate) fn drain_as(&mut self, ctx: &Context, cause: &'static str) -> GrbResult {
        self.poisoned()?;
        // Every log entry precedes every queued stage (module docs).
        S::fold(self, ctx)?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let tell = graphblas_obs::enabled();
        let _sp = tell.then(|| graphblas_obs::span_ctx("drain", ctx.id()));
        if tell {
            bump(&counters::pending().drains, 1);
            if self.pending.iter().any(|s| matches!(s, Stage::Node(_))) {
                bump(&counters::dag().forces, 1);
                let depth = self.pending.len() as u64;
                events::decision_dag_force(S::DRAIN_SITE, ctx.id(), cause, depth);
            }
        }
        self.run_queue(ctx, true)
    }

    /// The stage runner: executes the queue in sequence order. On an
    /// execution error the object is poisoned (§V: the output's contents
    /// become undefined; the error is recorded and stays sticky) and the
    /// rest of the sequence is dropped. A stage that panics (a user-defined
    /// operator, typically) is such an error, of kind `GrB_PANIC`.
    /// `deferred` says whether the stages waited in the queue — a drain —
    /// or were pushed a moment ago by a `Blocking` enqueue; only deferred
    /// work is counted and narrated.
    fn run_queue(&mut self, ctx: &Context, deferred: bool) -> GrbResult {
        let tell = deferred && graphblas_obs::enabled();
        let mut stages = std::mem::take(&mut self.pending).into_iter().peekable();
        let mut run: Vec<MapFn<S::Elem>> = Vec::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            while let Some(stage) = stages.next() {
                match stage {
                    Stage::Map(f) => run.push(f),
                    Stage::Opaque(f) => {
                        self.flush_map_run(ctx, &mut run, "opaque-barrier", tell)?;
                        if tell {
                            bump(&counters::pending().opaque_drains, 1);
                            events::decision_opaque_drain(S::DRAIN_SITE, ctx.id());
                        }
                        let _ph = tell.then(|| graphblas_obs::timeline::phase("drain.opaque"));
                        f(self)?;
                    }
                    Stage::Node(exec) => {
                        // Maps before a node transform the pre-node value
                        // and must land first; trailing maps transform the
                        // node's output and are handed to the node to fuse
                        // into its kernel (or one result pass).
                        self.flush_map_run(ctx, &mut run, "node-barrier", tell)?;
                        let mut post: Vec<MapFn<S::Elem>> = Vec::new();
                        while let Some(Stage::Map(f)) =
                            stages.next_if(|s| matches!(s, Stage::Map(_)))
                        {
                            post.push(f);
                        }
                        let _ph = tell.then(|| graphblas_obs::timeline::phase("drain.node"));
                        exec(self, post)?;
                    }
                }
            }
            self.flush_map_run(ctx, &mut run, "queue-end", tell)
        }))
        .unwrap_or_else(|payload| {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a stage panicked".into());
            Err(Error::exec(ExecErrorKind::Panic, what))
        });
        if let Err(Error::Execution(exec)) = &result {
            self.err = Some(exec.clone());
            if tell {
                // The error surfaced at drain time, not at the call that
                // caused it — the §V deferral the paper promises.
                bump(&counters::pending().errors_deferred, 1);
                events::decision_error_deferred(S::DRAIN_SITE, ctx.id());
            }
        }
        self.debug_check();
        result
    }

    /// Executes a run of `n` maps as one traversal; the other `n − 1`
    /// stages were absorbed into it — each is a fusion hit. `trigger` names
    /// what closed the fusion window.
    fn flush_map_run(
        &mut self,
        ctx: &Context,
        run: &mut Vec<MapFn<S::Elem>>,
        trigger: &'static str,
        tell: bool,
    ) -> GrbResult {
        if run.is_empty() {
            return Ok(());
        }
        let mut sp =
            tell.then(|| graphblas_obs::kernel_span(graphblas_obs::Kernel::MapFuse, ctx.id()));
        let (nnz_in, nnz_out) = S::map_run(self, ctx, run)?;
        if let Some(sp) = &mut sp {
            let n = run.len() as u64;
            bump(&counters::pending().map_traversals, 1);
            bump(&counters::pending().fusion_hits, n - 1);
            events::decision_fuse_flush(S::DRAIN_SITE, ctx.id(), n, nnz_in, trigger);
            let bytes = nnz_in * std::mem::size_of::<S::Elem>() as u64;
            sp.io(nnz_in * n, nnz_in, nnz_out, bytes);
        }
        run.clear();
        Ok(())
    }

    /// Applies a node's trailing (post) map run to the container's final
    /// state as one pass. The masked/accumulated node paths use this: the
    /// post maps transform the *merged* output, so they cannot thread
    /// through the kernel write.
    pub(crate) fn apply_post_maps(&mut self, ctx: &Context, post: &[MapFn<S::Elem>]) -> GrbResult {
        if post.is_empty() {
            return Ok(());
        }
        S::map_run(self, ctx, post).map(drop)
    }
}

/// Exclusive access to a container's [`State`]. Releasing it is the one
/// point where the memory ledger is reconciled with the store.
pub(crate) struct StateGuard<'a, S: Store>(MutexGuard<'a, State<S>>);

impl<S: Store> Deref for StateGuard<'_, S> {
    type Target = State<S>;
    fn deref(&self) -> &State<S> {
        &self.0
    }
}

impl<S: Store> DerefMut for StateGuard<'_, S> {
    fn deref_mut(&mut self) -> &mut State<S> {
        &mut self.0
    }
}

impl<S: Store> Drop for StateGuard<'_, S> {
    fn drop(&mut self) {
        self.0.note_mem();
    }
}

/// The shared object behind an opaque handle: `Matrix`, `Vector` and
/// `Scalar` are `Arc`s of this, so cloning a handle aliases the object
/// exactly like copying a `GrB_*` handle in C. All state sits behind one
/// mutex, which gives the §III *thread-safety* guarantee (independent
/// method calls from different threads behave as some sequential
/// interleaving).
pub(crate) struct Container<S: Store> {
    ctx: RwLock<Context>,
    state: Mutex<State<S>>,
}

impl<S: Store> Container<S> {
    /// A healthy object over `store` (empty queue, no error) in `ctx`.
    pub(crate) fn new(ctx: &Context, store: S) -> Arc<Self> {
        let this = Arc::new(Container {
            ctx: RwLock::new(ctx.clone()),
            state: Mutex::new(State {
                data: store,
                pending: Vec::new(),
                err: None,
                mem_bytes: 0,
                ctx_id: ctx.id(),
            }),
        });
        drop(this.lock_raw()); // first ledger entry
        this
    }

    /// The context this object belongs to (§IV).
    pub(crate) fn context(&self) -> Context {
        self.ctx.read().clone()
    }

    /// `GrB_Context_switch`: moves the object — and its ledger entry — to
    /// another context.
    pub(crate) fn switch_context(&self, ctx: &Context) -> GrbResult {
        let mut st = self.lock_raw();
        *self.ctx.write() = ctx.clone();
        if st.mem_bytes != 0 {
            graphblas_obs::mem::adjust_container(st.ctx_id, st.mem_bytes, 0);
            st.mem_bytes = 0;
        }
        st.ctx_id = ctx.id();
        Ok(())
    }

    /// Validates the §IV same-context rule against `ctx`.
    pub(crate) fn check_context(&self, ctx: &Context) -> GrbResult {
        if self.context().same(ctx) {
            Ok(())
        } else {
            Err(ApiError::ContextMismatch.into())
        }
    }

    /// `GrB_error`: the implementation-defined description of this
    /// object's error state; empty when healthy. Thread safe.
    pub(crate) fn error_string(&self) -> String {
        let st = self.lock_raw();
        st.err.as_ref().map(|e| e.to_string()).unwrap_or_default()
    }

    /// Type-erased object identity, comparable across element types (used
    /// to detect in-place `apply`/`select` for stage fusion).
    pub(crate) fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Locks state without draining (inspection, `clear`).
    pub(crate) fn lock_raw(&self) -> StateGuard<'_, S> {
        StateGuard(self.state.lock())
    }

    /// Locks state and completes the queued sequence first.
    pub(crate) fn lock_completed(&self) -> GrbResult<StateGuard<'_, S>> {
        self.lock_completed_as("read")
    }

    /// [`Self::lock_completed`] with an explicit force cause for the
    /// `dag-force` decision event.
    pub(crate) fn lock_completed_as(&self, cause: &'static str) -> GrbResult<StateGuard<'_, S>> {
        let ctx = self.context();
        let mut st = self.lock_raw();
        st.drain_as(&ctx, cause)?;
        Ok(st)
    }

    /// Defers an arbitrary write to the state (`build`, scalar writes).
    pub(crate) fn apply_write(
        &self,
        stage: Box<dyn FnOnce(&mut State<S>) -> GrbResult + Send>,
    ) -> GrbResult {
        self.enqueue(Stage::Opaque(stage))
    }

    /// Defers a lazy op-DAG node (§III). At drain time `exec` receives the
    /// run of map stages that immediately followed it in the queue and must
    /// apply them — through its fused kernel or
    /// [`State::apply_post_maps`].
    pub(crate) fn apply_node(
        &self,
        exec: Box<dyn FnOnce(&mut State<S>, Vec<MapFn<S::Elem>>) -> GrbResult + Send>,
    ) -> GrbResult {
        self.enqueue(Stage::Node(exec))
    }

    /// Defers a fusible element-wise transform of the stored elements.
    pub(crate) fn apply_map(&self, f: MapFn<S::Elem>) -> GrbResult {
        self.enqueue(Stage::Map(f))
    }

    /// The one enqueue: check poison, push the stage, and in a `Blocking`
    /// context force the queue before returning (module docs).
    fn enqueue(&self, stage: Stage<State<S>, S::Elem>) -> GrbResult {
        let ctx = self.context();
        let mut st = self.lock_raw();
        st.poisoned()?;
        if ctx.mode() == Mode::Blocking {
            // A backlog here predates a switch out of a NonBlocking
            // context; it completes first, as the deferred work it is.
            st.drain_as(&ctx, "read")?;
            st.pending.push(stage);
            return st.run_queue(&ctx, false);
        }
        if graphblas_obs::enabled() {
            let counter = match &stage {
                Stage::Map(_) => &counters::pending().maps_enqueued,
                Stage::Opaque(_) => &counters::pending().opaques_enqueued,
                Stage::Node(_) => &counters::dag().nodes_enqueued,
            };
            bump(counter, 1);
            counters::note_pending_depth(st.pending.len() + 1);
        }
        st.pending.push(stage);
        Ok(())
    }
}

/// Serializes unit tests that flip the process-global obs flag or read
/// obs counter deltas (they would race under the parallel test runner).
#[cfg(test)]
pub(crate) fn obs_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::vxm;
    use crate::{no_mask_v, Descriptor, Matrix, Semiring, Vector, WaitMode};
    use graphblas_exec::{global_context, ContextOptions};
    use graphblas_obs::events::Reason;

    fn private_ctx(mode: Mode) -> Context {
        // A private context isolates a test's ledger entry, spans and
        // decision events from the other (parallel) tests.
        Context::new(&global_context(), mode, ContextOptions::default())
    }

    /// Bytes the context's own ledger entry currently holds.
    fn mem_live(ctx: &Context) -> u64 {
        graphblas_obs::ctxreg::context_stats(ctx.id())
            .unwrap()
            .own
            .mem_live
    }

    #[test]
    fn drain_is_spanned_counted_and_names_its_cause() {
        let _g = obs_test_guard();
        graphblas_obs::set_enabled(true);
        for cause in ["read", "wait", "self-input"] {
            let ctx = private_ctx(Mode::NonBlocking);
            let c = Container::new(&ctx, None::<i64>);
            c.apply_node(Box::new(|st, _post| {
                **st = Some(7);
                Ok(())
            }))
            .unwrap();
            assert_eq!(c.lock_raw().queued(), 1);
            let forces = counters::dag_totals().forces;
            c.lock_raw().drain_as(&ctx, cause).unwrap();
            assert_eq!(**c.lock_raw(), Some(7));
            // Unguarded tests may force drains of their own meanwhile, so
            // the global counter is a lower bound; the span and the event
            // are attributed to this test's context and are exact.
            assert!(counters::dag_totals().forces > forces);
            let spans = graphblas_obs::span::events().0;
            let drains = spans
                .iter()
                .filter(|e| e.name == "drain" && e.ctx == ctx.id());
            assert_eq!(drains.count(), 1, "the drain must open the `drain` span");
            let forced: Vec<_> = ctx
                .explain(64)
                .events
                .into_iter()
                .filter(|e| e.reason == Reason::DagForce)
                .collect();
            assert_eq!(forced.len(), 1, "one drain is one dag-force event");
            assert_eq!((forced[0].op, forced[0].detail), ("scalar.drain", cause));
        }
        graphblas_obs::set_enabled(false);
    }

    #[test]
    fn blocking_enqueue_is_not_counted_as_deferred_work() {
        let _g = obs_test_guard();
        graphblas_obs::set_enabled(true);
        let ctx = private_ctx(Mode::Blocking);
        let c = Container::new(&ctx, None::<i64>);
        c.apply_write(Box::new(|st| {
            **st = Some(1);
            Ok(())
        }))
        .unwrap();
        assert_eq!(**c.lock_raw(), Some(1), "Blocking: enqueue, then force");
        assert!(ctx.explain(64).events.is_empty(), "nothing was deferred");
        let spans = graphblas_obs::span::events().0;
        assert!(!spans.iter().any(|e| e.ctx == ctx.id()));
        graphblas_obs::set_enabled(false);
    }

    /// Fill a container, shrink it, drop it: the owning context's ledger
    /// must follow at every step.
    fn ledger_follows_the_store<C>(ctx: &Context, c: C, fill: &dyn Fn(&C), shrink: &dyn Fn(&C)) {
        let live = || mem_live(ctx);
        fill(&c);
        let full = live();
        assert!(full > 0, "a populated store must charge the ledger");
        shrink(&c);
        assert!(live() < full, "a shrinking resize must lower the gauge");
        drop(c);
        assert_eq!(live(), 0, "dropping the handle must release its bytes");
    }

    #[test]
    fn container_mem_reports_to_ctx_ledger() {
        let _g = obs_test_guard();
        graphblas_obs::set_enabled(true);
        let ctx = private_ctx(Mode::Blocking);
        ledger_follows_the_store(
            &ctx,
            Matrix::<i64>::new_in(&ctx, 64, 64).unwrap(),
            &|m| {
                (0..64).for_each(|k| m.set_element(k as i64, k, k).unwrap());
                m.wait(WaitMode::Materialize).unwrap();
            },
            &|m| m.resize(1, 1).unwrap(),
        );
        ledger_follows_the_store(
            &ctx,
            Vector::<i64>::new_in(&ctx, 64).unwrap(),
            &|v| {
                (0..64).for_each(|k| v.set_element(k as i64, k).unwrap());
                v.wait(WaitMode::Materialize).unwrap();
            },
            &|v| v.resize(1).unwrap(),
        );
        graphblas_obs::set_enabled(false);
    }

    #[test]
    fn unfolded_updates_are_container_bytes() {
        let _g = obs_test_guard();
        graphblas_obs::set_enabled(true);
        let ctx = private_ctx(Mode::Blocking);
        let m = Matrix::<i64>::new_in(&ctx, 4, 4).unwrap();
        let live = || mem_live(&ctx);
        let empty = live();
        for _ in 0..100 {
            m.remove_element(0, 0).unwrap();
        }
        assert!(
            live() > empty,
            "the update log counts while it holds entries"
        );
        m.wait(WaitMode::Materialize).unwrap();
        assert!(live() <= empty, "the fold releases the log");
        graphblas_obs::set_enabled(false);
    }

    #[test]
    fn vector_conversions_are_attributed_to_the_owning_context() {
        let _g = obs_test_guard();
        graphblas_obs::set_enabled(true);
        let ctx = private_ctx(Mode::Blocking);
        // One entry among 8 × 64 positions: pushing the whole frontier
        // through it is cheaper than opening 64 rows, so the full frontier
        // is listed for the push kernel.
        let a = Matrix::<i64>::new_in(&ctx, 8, 64).unwrap();
        a.build(&[3], &[5], &[7], None).unwrap();
        let u = Vector::import_in(&ctx, 8, crate::VectorFormat::Dense, None, vec![2i64; 8]);
        let u = u.unwrap();
        assert_eq!(u.stats().format, "full");
        let w = Vector::<i64>::new_in(&ctx, 64).unwrap();
        let sr = Semiring::plus_times();
        vxm(&w, no_mask_v(), None, &sr, &u, &a, &Descriptor::default()).unwrap();
        assert_eq!(w.extract_tuples().unwrap(), (vec![5], vec![14]));
        let converted = w
            .explain(64)
            .events
            .into_iter()
            .any(|e| e.reason == Reason::ConvertSparse && (e.op, e.detail) == ("vxm", "dense"));
        assert!(
            converted,
            "w.explain() must show the full frontier listed for the push"
        );
        graphblas_obs::set_enabled(false);
    }
}
