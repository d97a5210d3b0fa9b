//! Hierarchical execution contexts (`GrB_Context`, paper §IV).
//!
//! GraphBLAS 1.X had a single program-wide context fixed by `GrB_init`.
//! GraphBLAS 2.0 generalizes it: contexts form a tree rooted at the
//! `GrB_init` context, every container belongs to a context, and each
//! context carries the execution mode plus implementation-defined resource
//! information. Here the resource information is a **thread budget**: the
//! number of pool workers a kernel running in the context may use, clamped
//! by every ancestor so a nested context can never exceed its parent —
//! the hierarchical resource discipline the paper motivates with
//! MPI × OpenMP nesting.
//!
//! The contents of the C API's `void *exec` argument are
//! implementation-defined; our definition is [`ContextOptions`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::RwLock;

/// Execution mode established by `GrB_init` / `GrB_Context_new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Every method call returns with its computation complete.
    Blocking,
    /// Method calls may return early; computations on an output object can
    /// be deferred until the object is read or forced with `wait`.
    NonBlocking,
}

/// Implementation-defined context configuration (the paper's `void *exec`).
#[derive(Debug, Clone, Default)]
pub struct ContextOptions {
    /// Maximum number of worker threads kernels may use in this context.
    /// `None` inherits the parent's (ultimately the pool size).
    pub nthreads: Option<usize>,
    /// Minimum number of work items per parallel task; guards against
    /// oversubscribing tiny problems. `None` inherits.
    pub chunk_size: Option<usize>,
    /// Optional human-readable label used in diagnostics.
    pub name: Option<String>,
}

struct ContextInner {
    id: u64,
    parent: Option<Context>,
    mode: Mode,
    nthreads: Option<usize>,
    chunk_size: Option<usize>,
    name: Option<String>,
}

static NEXT_CONTEXT_ID: AtomicU64 = AtomicU64::new(1);

/// An opaque handle to an execution context. Cheap to clone; clones share
/// identity (as `GrB_Context` handles do in C).
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Context");
        d.field("id", &self.inner.id);
        if let Some(name) = &self.inner.name {
            d.field("name", name);
        }
        d.field("mode", &self.inner.mode)
            .field("parent", &self.inner.parent.as_ref().map(|p| p.id()))
            .field("nthreads", &self.inner.nthreads)
            .field("chunk_size", &self.inner.chunk_size)
            .finish()
    }
}

impl Context {
    fn make(parent: Option<Context>, mode: Mode, opts: ContextOptions) -> Context {
        let ctx = Context {
            inner: Arc::new(ContextInner {
                // grblint: allow(relaxed-ordering); grbsa: protocol(id-alloc)
                // — unique-id allocation; only atomicity matters, no
                // ordering is inferred.
                id: NEXT_CONTEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent,
                mode,
                nthreads: opts.nthreads,
                chunk_size: opts.chunk_size,
                name: opts.name,
            }),
        };
        if graphblas_obs::enabled() {
            ctx.register_with_obs();
        }
        ctx
    }

    /// Makes this context visible to the telemetry registry so spans can be
    /// attributed to it by id and burble lines can print its name.
    /// Idempotent; a no-op cost-wise beyond one mutex acquisition.
    fn register_with_obs(&self) {
        graphblas_obs::register_context(
            self.inner.id,
            self.inner.parent.as_ref().map_or(0, |p| p.id()),
            self.inner.name.as_deref(),
        );
    }

    /// Creates a context nested in `parent` (the analogue of
    /// `GrB_Context_new(&ctx, mode, parent, exec)`). Pass the
    /// [`global_context`] to nest directly under the top level, mirroring
    /// the C API's `GrB_NULL` parent.
    pub fn new(parent: &Context, mode: Mode, opts: ContextOptions) -> Context {
        Context::make(Some(parent.clone()), mode, opts)
    }

    /// Stable identity for diagnostics.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The execution mode of this context.
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// The parent context, if any (`None` only for root contexts).
    pub fn parent(&self) -> Option<&Context> {
        self.inner.parent.as_ref()
    }

    /// Optional label supplied at creation.
    pub fn name(&self) -> Option<&str> {
        self.inner.name.as_deref()
    }

    /// The thread budget effective in this context: its own request clamped
    /// by every ancestor, defaulting to the global pool size. Always ≥ 1.
    pub fn effective_threads(&self) -> usize {
        let pool_size = crate::pool::global_pool().size();
        let mut limit = pool_size;
        let mut cur = Some(self);
        while let Some(ctx) = cur {
            if let Some(n) = ctx.inner.nthreads {
                limit = limit.min(n.max(1));
            }
            cur = ctx.inner.parent.as_ref();
        }
        limit.max(1)
    }

    /// Minimum items per parallel task; inherited from the nearest ancestor
    /// that sets it, defaulting to 1024.
    pub fn chunk_size(&self) -> usize {
        let mut cur = Some(self);
        while let Some(ctx) = cur {
            if let Some(c) = ctx.inner.chunk_size {
                return c.max(1);
            }
            cur = ctx.inner.parent.as_ref();
        }
        1024
    }

    /// Whether two handles denote the same context object.
    pub fn same(&self, other: &Context) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Whether `self` is `other` or a descendant of it.
    pub fn is_within(&self, other: &Context) -> bool {
        let mut cur = Some(self);
        while let Some(ctx) = cur {
            if ctx.same(other) {
                return true;
            }
            cur = ctx.inner.parent.as_ref();
        }
        false
    }

    /// `GrB_get`-style introspection: the telemetry attributed to this
    /// context — its own spans plus the rollup over all descendants.
    ///
    /// Contexts created while telemetry was off are registered here on
    /// demand (with their ancestry chain), so `stats()` always returns
    /// `Some` for a live handle; the totals are simply zero until spans
    /// run under the context with telemetry enabled.
    pub fn stats(&self) -> Option<graphblas_obs::ContextStats> {
        // Register ancestors first so parent links resolve in the registry.
        let mut chain: Vec<&Context> = Vec::new();
        let mut cur = Some(self);
        while let Some(ctx) = cur {
            chain.push(ctx);
            cur = ctx.inner.parent.as_ref();
        }
        for ctx in chain.into_iter().rev() {
            ctx.register_with_obs();
        }
        graphblas_obs::ctxreg::context_stats(self.inner.id)
    }

    /// `GrB_explain`-style decision provenance: the last `last_n` reason-
    /// coded runtime decisions attributed to this context or any
    /// descendant, plus per-reason counts over that scope. Registers the
    /// ancestry chain on demand (like [`Context::stats`]) so subtree
    /// membership resolves even for contexts created with telemetry off.
    pub fn explain(&self, last_n: usize) -> graphblas_obs::Explain {
        let mut chain: Vec<&Context> = Vec::new();
        let mut cur = Some(self);
        while let Some(ctx) = cur {
            chain.push(ctx);
            cur = ctx.inner.parent.as_ref();
        }
        for ctx in chain.into_iter().rev() {
            ctx.register_with_obs();
        }
        graphblas_obs::events::explain_for_subtree(self.inner.id, last_n)
    }
}

static GLOBAL_CONTEXT: RwLock<Option<Context>> = RwLock::new(None);

/// Establishes the top-level context (`GrB_init`). Returns `false` when the
/// library was already initialized — the call is then a no-op, matching the
/// spec's "call `GrB_init` exactly once" rule without aborting the process.
pub fn init(mode: Mode) -> bool {
    let mut slot = GLOBAL_CONTEXT.write();
    if slot.is_some() {
        return false;
    }
    *slot = Some(Context::make(
        None,
        mode,
        ContextOptions {
            name: Some("GrB_GLOBAL".to_string()),
            ..ContextOptions::default()
        },
    ));
    true
}

/// Whether [`init`] (or the lazy path of [`global_context`]) has run.
pub fn is_initialized() -> bool {
    GLOBAL_CONTEXT.read().is_some()
}

/// Returns the top-level context, lazily initializing in blocking mode when
/// the program never called [`init`] explicitly.
pub fn global_context() -> Context {
    if let Some(ctx) = GLOBAL_CONTEXT.read().as_ref() {
        return ctx.clone();
    }
    init(Mode::Blocking);
    GLOBAL_CONTEXT
        .read()
        .as_ref()
        .expect("global context must exist after init")
        .clone()
}

/// Tears down the top-level context (`GrB_finalize`). Existing object
/// handles keep their context alive via `Arc`, but new objects created after
/// a subsequent [`init`] join the fresh tree. The calling thread's cached
/// workspaces and shelved result buffers are released
/// ([`crate::workspace::trim`]).
pub fn finalize() {
    *GLOBAL_CONTEXT.write() = None;
    crate::workspace::trim();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_clamps_thread_budget() {
        let root = global_context();
        let wide = Context::new(
            &root,
            Mode::Blocking,
            ContextOptions {
                nthreads: Some(64),
                ..Default::default()
            },
        );
        let narrow = Context::new(
            &wide,
            Mode::Blocking,
            ContextOptions {
                nthreads: Some(2),
                ..Default::default()
            },
        );
        let inner = Context::new(&narrow, Mode::Blocking, ContextOptions::default());
        assert!(wide.effective_threads() <= 64);
        assert_eq!(narrow.effective_threads().min(2), narrow.effective_threads());
        // A child without its own budget inherits the clamp.
        assert!(inner.effective_threads() <= 2);
    }

    #[test]
    fn child_cannot_exceed_parent() {
        let root = global_context();
        let narrow = Context::new(
            &root,
            Mode::Blocking,
            ContextOptions {
                nthreads: Some(1),
                ..Default::default()
            },
        );
        let greedy = Context::new(
            &narrow,
            Mode::Blocking,
            ContextOptions {
                nthreads: Some(1000),
                ..Default::default()
            },
        );
        assert_eq!(greedy.effective_threads(), 1);
    }

    #[test]
    fn identity_and_ancestry() {
        let root = global_context();
        let a = Context::new(&root, Mode::NonBlocking, ContextOptions::default());
        let b = Context::new(&a, Mode::Blocking, ContextOptions::default());
        assert!(a.same(&a.clone()));
        assert!(!a.same(&b));
        assert!(b.is_within(&a));
        assert!(b.is_within(&root));
        assert!(!a.is_within(&b));
        assert_eq!(b.parent().unwrap().id(), a.id());
    }

    #[test]
    fn modes_are_carried() {
        let root = global_context();
        let nb = Context::new(&root, Mode::NonBlocking, ContextOptions::default());
        assert_eq!(nb.mode(), Mode::NonBlocking);
    }

    #[test]
    fn chunk_size_inherits() {
        let root = global_context();
        let a = Context::new(
            &root,
            Mode::Blocking,
            ContextOptions {
                chunk_size: Some(7),
                ..Default::default()
            },
        );
        let b = Context::new(&a, Mode::Blocking, ContextOptions::default());
        assert_eq!(b.chunk_size(), 7);
        assert_eq!(root.chunk_size(), 1024);
    }

    #[test]
    fn global_context_is_lazy_and_stable() {
        let a = global_context();
        let b = global_context();
        assert!(a.same(&b));
        assert!(is_initialized());
    }

    #[test]
    fn debug_includes_name() {
        let root = global_context();
        let named = Context::new(
            &root,
            Mode::Blocking,
            ContextOptions {
                name: Some("solver-phase".to_string()),
                ..Default::default()
            },
        );
        let dbg = format!("{named:?}");
        assert!(dbg.contains("solver-phase"), "Debug output was: {dbg}");
        let anon = Context::new(&root, Mode::Blocking, ContextOptions::default());
        assert!(!format!("{anon:?}").contains("name"));
    }

    #[test]
    fn stats_registers_lazily_and_attributes_spans() {
        let _g = crate::obs_test_guard();
        let root = global_context();
        let ctx = Context::new(
            &root,
            Mode::Blocking,
            ContextOptions {
                name: Some("stats-test".to_string()),
                ..Default::default()
            },
        );
        // Registration may have been skipped at creation (telemetry off);
        // stats() must self-register and return a (possibly zero) row.
        let before = ctx.stats().expect("stats row after lazy registration");
        assert_eq!(before.name.as_deref(), Some("stats-test"));

        graphblas_obs::set_enabled(true);
        drop(graphblas_obs::span_ctx("unit-work", ctx.id()));
        graphblas_obs::set_enabled(false);

        let after = ctx.stats().unwrap();
        assert_eq!(after.own.spans, before.own.spans + 1);
        // The span must also roll up into the root context.
        let root_stats = root.stats().unwrap();
        assert!(root_stats.rolled.spans >= after.own.spans);
    }
}
