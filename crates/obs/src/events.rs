//! Reason-coded decision provenance — the *why* layer of the telemetry
//! stack.
//!
//! The counters answer *how often* the runtime pushed instead of pulled,
//! hit the workspace cache, or fused a map run; the timeline answers
//! *when*. Neither answers *why a particular operation* took the path it
//! did. This module does: every choice point in the runtime — the Beamer
//! push/pull dispatch (paper §II's static-dispatch motivation applied at
//! runtime), workspace checkout hit/miss, pending-op fuse vs flush (§III
//! completion latitude), format conversions, and §V poisoning/error
//! deferral — emits one [`DecisionEvent`] carrying a [`Reason`] code and
//! the numbers that decided it (observed frontier density and the
//! threshold, chain length and trigger, source format and nnz, …).
//!
//! Each event is one record in the calling thread's ring, the ring spans
//! and phases share (see `recorder`), so recording locks only the calling
//! thread's own ring. Lifetime per-reason aggregates are plain relaxed
//! counters and survive ring truncation.
//!
//! Recording requires [`crate::enabled`] and nothing else: with telemetry
//! off a decision site costs one relaxed load. Setting
//! `GRB_EXPLAIN=<path>` implies telemetry the same way `GRB_TRACE` does,
//! and [`crate::write_exports`] writes the retained history there as
//! hand-written JSON (`graphblas-obs/explain/v1`), the file `grbexplain`
//! reads.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::JsonWriter;
use crate::recorder::{self, Record};
use crate::span;

/// Number of [`Reason`] codes (array sizing).
pub const REASON_COUNT: usize = 18;

/// Why the runtime did what it did: one code per choice point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// mxv/vxm dispatched the push (scatter) kernel: frontier density
    /// below the Beamer threshold.
    DirectionPush,
    /// mxv/vxm dispatched the pull (dot-product) kernel: frontier density
    /// at or above the Beamer threshold.
    DirectionPull,
    /// A workspace checkout was served from the thread's cache.
    WorkspaceHit,
    /// A workspace checkout allocated fresh (nothing cached for the type).
    WorkspaceMiss,
    /// A thread's workspace cache was released (drop or explicit clear).
    WorkspaceTrim,
    /// A run of pending map stages flushed as one fused traversal.
    FuseFlush,
    /// An opaque pending stage executed (the fusion barrier).
    OpaqueDrain,
    /// A container store converted to CSR (source format in `detail`).
    ConvertCsr,
    /// A vector store canonicalized to sorted sparse (source in `detail`).
    ConvertSparse,
    /// The memoized transpose was (re)computed for the current store.
    TransposeBuild,
    /// The memoized transpose was served from cache (O(1)).
    TransposeHit,
    /// A sparse kernel chose an internal execution path (e.g. the spmv
    /// dense-frontier fast path); which one is in `detail`.
    KernelPath,
    /// An execution error was constructed (§V; kind in `detail`).
    ErrorRaised,
    /// A drain failed and poisoned its container (§V deferred error).
    ErrorDeferred,
    /// An operation resolved its semiring/operator dispatch: `detail` is
    /// "static" (pre-monomorphized registry kernel, paper §II) or "dyn"
    /// (erased-closure fallback).
    DispatchPick,
    /// The write-back picked a vector storage format for a result:
    /// `detail` is "sparse" or "full" (Table III).
    FormatPick,
    /// An op-DAG node drained with neighbouring map stages fused into its
    /// kernel (§III cross-operation fusion): `detail` is the node kind,
    /// payload counts the pre-maps (input side) and post-maps (output
    /// side) absorbed.
    DagFuse,
    /// A lazy op DAG was forced to drain; `detail` says what forced it
    /// ("read", "wait", "self-input").
    DagForce,
}

impl Reason {
    /// The stable kebab-case code used in JSON exports, `grbexplain`
    /// assertions, and DESIGN.md §4a.
    pub fn code(self) -> &'static str {
        match self {
            Reason::DirectionPush => "direction-push",
            Reason::DirectionPull => "direction-pull",
            Reason::WorkspaceHit => "workspace-hit",
            Reason::WorkspaceMiss => "workspace-miss",
            Reason::WorkspaceTrim => "workspace-trim",
            Reason::FuseFlush => "fuse-flush",
            Reason::OpaqueDrain => "opaque-drain",
            Reason::ConvertCsr => "convert-csr",
            Reason::ConvertSparse => "convert-sparse",
            Reason::TransposeBuild => "transpose-build",
            Reason::TransposeHit => "transpose-hit",
            Reason::KernelPath => "kernel-path",
            Reason::ErrorRaised => "error-raised",
            Reason::ErrorDeferred => "error-deferred",
            Reason::DispatchPick => "dispatch-pick",
            Reason::FormatPick => "format-pick",
            Reason::DagFuse => "dag-fuse",
            Reason::DagForce => "dag-force",
        }
    }

    /// Every reason code, in a stable order (JSON key order).
    pub fn all() -> [Reason; REASON_COUNT] {
        [
            Reason::DirectionPush,
            Reason::DirectionPull,
            Reason::WorkspaceHit,
            Reason::WorkspaceMiss,
            Reason::WorkspaceTrim,
            Reason::FuseFlush,
            Reason::OpaqueDrain,
            Reason::ConvertCsr,
            Reason::ConvertSparse,
            Reason::TransposeBuild,
            Reason::TransposeHit,
            Reason::KernelPath,
            Reason::ErrorRaised,
            Reason::ErrorDeferred,
            Reason::DispatchPick,
            Reason::FormatPick,
            Reason::DagFuse,
            Reason::DagForce,
        ]
    }

    fn index(self) -> usize {
        match self {
            Reason::DirectionPush => 0,
            Reason::DirectionPull => 1,
            Reason::WorkspaceHit => 2,
            Reason::WorkspaceMiss => 3,
            Reason::WorkspaceTrim => 4,
            Reason::FuseFlush => 5,
            Reason::OpaqueDrain => 6,
            Reason::ConvertCsr => 7,
            Reason::ConvertSparse => 8,
            Reason::TransposeBuild => 9,
            Reason::TransposeHit => 10,
            Reason::KernelPath => 11,
            Reason::ErrorRaised => 12,
            Reason::ErrorDeferred => 13,
            Reason::DispatchPick => 14,
            Reason::FormatPick => 15,
            Reason::DagFuse => 16,
            Reason::DagForce => 17,
        }
    }

    /// Names for the three numeric payload slots (`""` = slot unused).
    /// These become the per-event JSON keys, so the export is
    /// self-describing.
    pub fn arg_names(self) -> [&'static str; 3] {
        match self {
            Reason::DirectionPush | Reason::DirectionPull => {
                ["frontier_nnz", "frontier_edges", "admitted_edges"]
            }
            Reason::WorkspaceHit | Reason::WorkspaceMiss => ["bytes", "n", "generation"],
            Reason::WorkspaceTrim => ["bytes", "entries", ""],
            Reason::FuseFlush => ["chain_len", "nnz_in", ""],
            Reason::OpaqueDrain => ["", "", ""],
            Reason::ConvertCsr | Reason::ConvertSparse => ["nnz", "", ""],
            Reason::TransposeBuild | Reason::TransposeHit => ["nnz", "", ""],
            Reason::KernelPath => ["nnz", "len", ""],
            Reason::ErrorRaised => ["code", "", ""],
            Reason::ErrorDeferred => ["", "", ""],
            Reason::DispatchPick => ["", "", ""],
            Reason::FormatPick => ["nnz", "len", ""],
            Reason::DagFuse => ["pre_maps", "post_maps", "nnz_in"],
            Reason::DagForce => ["depth", "", ""],
        }
    }
}

/// One runtime decision: what was chosen, where, and the numbers that
/// drove the choice (slot meanings per reason in [`Reason::arg_names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Process-global sequence number (total order across threads).
    pub seq: u64,
    pub reason: Reason,
    /// The deciding site ("mxv", "vxm", "workspace", "matrix.drain", …).
    pub op: &'static str,
    /// Reason-specific text payload (source format, workspace type,
    /// fuse trigger, error kind); `""` when unused.
    pub detail: &'static str,
    /// Owning context id (0 when the site has no context in scope).
    pub ctx: u64,
    /// Thread tag, resolvable via [`span::thread_name`].
    pub thread: u32,
    /// Microseconds since the telemetry epoch.
    pub t_us: u64,
    /// Numeric payload, named by [`Reason::arg_names`].
    pub args: [u64; 3],
}

// --- lifetime aggregates -------------------------------------------------

/// Global sequence source: `SEQ - 1` events have ever been recorded.
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Lifetime per-reason counts (monotonic; survive ring truncation).
static REASON_COUNTS: [AtomicU64; REASON_COUNT] = [const { AtomicU64::new(0) }; REASON_COUNT];

/// Total decision events ever recorded (including overwritten ones).
pub fn total() -> u64 {
    SEQ.load(Ordering::Relaxed) - 1
}

/// Lifetime count for one reason code.
pub fn count(reason: Reason) -> u64 {
    REASON_COUNTS[reason.index()].load(Ordering::Relaxed)
}

/// Lifetime counts for every reason code, in [`Reason::all`] order.
pub fn reason_counts() -> Vec<(Reason, u64)> {
    Reason::all().iter().map(|&r| (r, count(r))).collect()
}

/// Records one decision. Callers that compute its arguments guard on
/// [`crate::enabled`] first; `record` re-checks, so an unguarded call is
/// safe.
pub fn record(reason: Reason, op: &'static str, detail: &'static str, ctx: u64, args: [u64; 3]) {
    if !crate::enabled() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    REASON_COUNTS[reason.index()].fetch_add(1, Ordering::Relaxed);
    recorder::push(Record::Decision(DecisionEvent {
        seq,
        reason,
        op,
        detail,
        ctx,
        thread: 0,
        t_us: recorder::now_ns() / 1_000,
        args,
    }));
}

// --- site helpers ---------------------------------------------------------
//
// Each decision site calls one of these (the `decision-without-event`
// grblint rule looks for `events::decision` next to the counter calls).

/// Direction pick in mxv/vxm, with what decided it. `why` is `"estimate"`
/// (the cheaper side of the two costs), `"under-row-scan"` (walking the
/// frontier's edges costs no more than opening the admitted rows, so
/// `admitted_edges` was never counted and reads 0), `"build-unpaid"` (the
/// stored orientation, because the cheaper side's is not memoised and the
/// savings forgone so far do not pay for building it), `"empty-frontier"`
/// or `"forced"` (both edge counts 0).
/// `args` = `[frontier_nnz, frontier_edges, admitted_edges]`: the frontier's
/// entries, the matrix entries a push of them scatters, and the matrix
/// entries in the rows the output mask admits to a pull.
#[inline]
pub fn decision_direction(
    op: &'static str,
    ctx: u64,
    pull: bool,
    why: &'static str,
    args: [u64; 3],
) {
    let reason = if pull {
        Reason::DirectionPull
    } else {
        Reason::DirectionPush
    };
    record(reason, op, why, ctx, args);
}

/// Workspace checkout: `ty` is the workspace's type name, `generation`
/// the thread's checkout ordinal, `bytes` the reused buffer bytes (0 on
/// a miss).
#[inline]
pub fn decision_workspace(ty: &'static str, hit: bool, n: u64, bytes: u64, generation: u64) {
    let reason = if hit {
        Reason::WorkspaceHit
    } else {
        Reason::WorkspaceMiss
    };
    record(reason, "workspace", ty, 0, [bytes, n, generation]);
}

/// A thread's workspace cache released `entries` cached buffers holding
/// `bytes` recorded bytes.
#[inline]
pub fn decision_workspace_trim(entries: u64, bytes: u64) {
    record(
        Reason::WorkspaceTrim,
        "workspace",
        "",
        0,
        [bytes, entries, 0],
    );
}

/// A pending map run of `chain_len` stages flushed as one traversal over
/// `nnz_in` entries; `trigger` says what forced it ("opaque-barrier" or
/// "queue-end").
#[inline]
pub fn decision_fuse_flush(
    op: &'static str,
    ctx: u64,
    chain_len: u64,
    nnz_in: u64,
    trigger: &'static str,
) {
    record(Reason::FuseFlush, op, trigger, ctx, [chain_len, nnz_in, 0]);
}

/// An opaque pending stage executed (fusion barrier).
#[inline]
pub fn decision_opaque_drain(op: &'static str, ctx: u64) {
    record(Reason::OpaqueDrain, op, "", ctx, [0, 0, 0]);
}

/// A matrix store's unsorted rows sorted in place (`src` is "unsorted":
/// every Table III import is CSR by the time it is stored), holding `nnz`
/// entries.
#[inline]
pub fn decision_convert_csr(op: &'static str, ctx: u64, src: &'static str, nnz: u64) {
    record(Reason::ConvertCsr, op, src, ctx, [nnz, 0, 0]);
}

/// A vector store canonicalized to sorted sparse from `src` ("dense",
/// "unsorted"), now holding `nnz` entries.
#[inline]
pub fn decision_convert_sparse(op: &'static str, ctx: u64, src: &'static str, nnz: u64) {
    record(Reason::ConvertSparse, op, src, ctx, [nnz, 0, 0]);
}

/// Transpose-cache consult: a hit serves the memo, a build computes (and
/// `detail` distinguishes a cold build from one invalidating a stale
/// entry).
#[inline]
pub fn decision_transpose(ctx: u64, hit: bool, detail: &'static str, nnz: u64) {
    let reason = if hit {
        Reason::TransposeHit
    } else {
        Reason::TransposeBuild
    };
    record(reason, "transpose-cache", detail, ctx, [nnz, 0, 0]);
}

/// A sparse kernel picked internal path `path` (e.g. spmv
/// "dense-frontier" vs "sparse-frontier") for an input of `nnz`/`len`.
#[inline]
pub fn decision_kernel_path(op: &'static str, ctx: u64, path: &'static str, nnz: u64, len: u64) {
    record(Reason::KernelPath, op, path, ctx, [nnz, len, 0]);
}

/// An execution error was constructed (`kind` is the §V error kind,
/// `code` the magnitude of its negative `GrB_Info` value, e.g. 105 for
/// `GrB_INDEX_OUT_OF_BOUNDS` = -105).
#[inline]
pub fn decision_error_raised(kind: &'static str, code: u64) {
    record(Reason::ErrorRaised, "error", kind, 0, [code, 0, 0]);
}

/// A drain failed and poisoned its container (§V deferral surfaced).
#[inline]
pub fn decision_error_deferred(op: &'static str, ctx: u64) {
    record(Reason::ErrorDeferred, op, "poisoned", ctx, [0, 0, 0]);
}

/// An operation resolved its kernel dispatch: `is_static` means a
/// pre-monomorphized registry kernel ran (paper §II static dispatch);
/// otherwise the erased-closure fallback did.
#[inline]
pub fn decision_dispatch(op: &'static str, ctx: u64, is_static: bool) {
    let detail = if is_static { "static" } else { "dyn" };
    record(Reason::DispatchPick, op, detail, ctx, [0, 0, 0]);
}

/// The write-back picked storage format `format` for a vector result of
/// `nnz`/`len` (Table III); `detail` carries the format's name.
#[inline]
pub fn decision_format(op: &'static str, ctx: u64, format: crate::VecFormat, nnz: u64, len: u64) {
    record(Reason::FormatPick, op, format.name(), ctx, [nnz, len, 0]);
}

/// An op-DAG node of kind `kind` drained absorbing `pre_maps` input-side
/// and `post_maps` output-side map stages over `nnz_in` input entries
/// (§III cross-operation fusion actually firing).
#[inline]
pub fn decision_dag_fuse(
    op: &'static str,
    ctx: u64,
    kind: &'static str,
    pre_maps: u64,
    post_maps: u64,
    nnz_in: u64,
) {
    record(
        Reason::DagFuse,
        op,
        kind,
        ctx,
        [pre_maps, post_maps, nnz_in],
    );
}

/// A lazy op DAG was forced to drain `depth` queued stages; `cause` says
/// what forced it ("read", "wait", "self-input").
#[inline]
pub fn decision_dag_force(op: &'static str, ctx: u64, cause: &'static str, depth: u64) {
    record(Reason::DagForce, op, cause, ctx, [depth, 0, 0]);
}

// --- reading / explain ----------------------------------------------------

/// Every retained decision, in seq order.
fn all_events() -> Vec<DecisionEvent> {
    let mut out: Vec<DecisionEvent> = recorder::threads()
        .into_iter()
        .flat_map(|(tag, _, recs)| {
            recs.into_iter().filter_map(move |rec| match rec {
                Record::Decision(d) => Some(DecisionEvent { thread: tag, ..d }),
                Record::Region(_) => None,
            })
        })
        .collect();
    out.sort_by_key(|e| e.seq);
    out
}

/// The retained decision history, oldest first, at most `last_n` events
/// (the newest ones).
pub fn recent(last_n: usize) -> Vec<DecisionEvent> {
    let mut evs = all_events();
    if evs.len() > last_n {
        evs.drain(..evs.len() - last_n);
    }
    evs
}

/// A `GrB_explain`-style view: the retained decision history plus
/// per-reason aggregates, serializable to JSON.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Decision events ever recorded process-wide (≥ `events.len()`; the
    /// excess was overwritten in the rings or filtered out).
    pub total: u64,
    /// Per-reason counts backing the JSON `reasons` block. For the global
    /// [`explain`] these are the lifetime aggregates (authoritative even
    /// after ring truncation); for [`explain_for_subtree`] they count the
    /// returned events only.
    pub counts: Vec<(Reason, u64)>,
    /// The retained events, oldest first.
    pub events: Vec<DecisionEvent>,
}

impl Explain {
    /// The aggregate count for one reason code.
    pub fn count(&self, reason: Reason) -> u64 {
        self.counts
            .iter()
            .find(|(r, _)| *r == reason)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Serializes as `graphblas-obs/explain/v1` JSON (the `GRB_EXPLAIN`
    /// export format `grbexplain` reads): schema, totals, a `reasons`
    /// object with every code, and the event array with per-reason named
    /// payload keys.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("graphblas-obs/explain/v1");
        w.key("total");
        w.number(self.total);
        w.key("retained");
        w.number(self.events.len() as u64);
        w.key("reasons");
        w.begin_object();
        for (r, c) in &self.counts {
            w.key(r.code());
            w.number(*c);
        }
        w.end_object();
        w.key("events");
        w.begin_array();
        for ev in &self.events {
            w.begin_object();
            w.key("seq");
            w.number(ev.seq);
            w.key("reason");
            w.string(ev.reason.code());
            w.key("op");
            w.string(ev.op);
            w.key("ctx");
            w.number(ev.ctx);
            w.key("thread");
            match span::thread_name(ev.thread) {
                Some(n) => w.string(&n),
                None => w.string(&format!("thread-{}", ev.thread)),
            }
            w.key("t_us");
            w.number(ev.t_us);
            if !ev.detail.is_empty() {
                w.key("detail");
                w.string(ev.detail);
            }
            for (name, val) in ev.reason.arg_names().iter().zip(ev.args.iter()) {
                if !name.is_empty() {
                    w.key(name);
                    w.number(*val);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// The global decision history: the last `last_n` retained events plus
/// lifetime per-reason aggregates.
pub fn explain(last_n: usize) -> Explain {
    Explain {
        total: total(),
        counts: reason_counts(),
        events: recent(last_n),
    }
}

/// The decision history attributed to context `root_ctx` or any of its
/// registered descendants (per [`crate::ctxreg`] parent links). Events
/// with no context in scope (ctx 0, e.g. workspace checkouts inside
/// kernels) are excluded; aggregates count the returned events.
pub fn explain_for_subtree(root_ctx: u64, last_n: usize) -> Explain {
    let ids = crate::ctxreg::subtree_ids(root_ctx);
    let mut events: Vec<DecisionEvent> = all_events()
        .into_iter()
        .filter(|e| ids.contains(&e.ctx))
        .collect();
    if events.len() > last_n {
        events.drain(..events.len() - last_n);
    }
    let counts = Reason::all()
        .iter()
        .map(|&r| (r, events.iter().filter(|e| e.reason == r).count() as u64))
        .collect();
    Explain {
        total: total(),
        counts,
        events,
    }
}

/// Zeroes the lifetime aggregates and sequence (part of
/// [`crate::reset`]).
pub(crate) fn reset() {
    // Test-isolation zeroing: reset points are single-threaded harness
    // boundaries.
    for c in &REASON_COUNTS {
        c.store(0, Ordering::Relaxed);
    }
    SEQ.store(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_respects_gates() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        crate::reset();
        record(Reason::DirectionPush, "t", "", 0, [1, 2, 3]);
        assert_eq!(total(), 0, "disabled telemetry must record nothing");
        assert!(recent(usize::MAX).is_empty());
        crate::set_enabled(true);
        record(Reason::DirectionPush, "t", "", 0, [1, 2, 3]);
        assert_eq!(total(), 1);
        assert_eq!(count(Reason::DirectionPush), 1);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn explain_orders_and_serializes() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        decision_direction("mxv", 7, false, "under-row-scan", [1, 7, 0]);
        decision_direction("mxv", 7, true, "estimate", [16, 300, 420]);
        decision_workspace("acc", true, 64, 512, 3);
        decision_fuse_flush("vector.drain", 7, 4, 100, "queue-end");
        let ex = explain(usize::MAX);
        assert_eq!(ex.total, 4);
        assert_eq!(ex.events.len(), 4);
        assert!(ex.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(ex.count(Reason::DirectionPush), 1);
        assert_eq!(ex.count(Reason::DirectionPull), 1);
        assert_eq!(ex.count(Reason::WorkspaceHit), 1);
        assert_eq!(ex.count(Reason::FuseFlush), 1);
        let json = ex.to_json();
        assert!(json.contains("\"schema\":\"graphblas-obs/explain/v1\""));
        assert!(json.contains("\"direction-pull\":1"));
        assert!(json.contains("\"frontier_nnz\":16"));
        assert!(json.contains("\"chain_len\":4"));
        assert!(json.contains("\"detail\":\"queue-end\""));
        // Unused payload slots are not serialized.
        assert!(!json.contains("\"\":"));
        // last_n trims from the front (oldest dropped).
        let ex2 = explain(2);
        assert_eq!(ex2.events.len(), 2);
        assert_eq!(ex2.events[1].reason, Reason::FuseFlush);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn subtree_filter_scopes_by_context() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        let base = 3_000_000_000;
        crate::ctxreg::register_context(base + 1, 0, Some("root"));
        crate::ctxreg::register_context(base + 2, base + 1, None);
        decision_direction("mxv", base + 2, true, "estimate", [8, 64, 64]);
        decision_direction("mxv", 999_999_999, false, "forced", [1, 0, 0]); // other tree
        decision_workspace("acc", false, 8, 0, 1); // ctx 0
        let ex = explain_for_subtree(base + 1, usize::MAX);
        assert_eq!(ex.events.len(), 1);
        assert_eq!(ex.events[0].ctx, base + 2);
        assert_eq!(ex.count(Reason::DirectionPull), 1);
        assert_eq!(ex.count(Reason::WorkspaceMiss), 0);
        crate::set_enabled(false);
        crate::reset();
    }
}
