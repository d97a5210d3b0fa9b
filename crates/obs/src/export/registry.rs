//! The metric registry: the single authoritative table of every metric
//! this crate exports, under stable dotted names.
//!
//! Counter blocks ([`crate::counters`]), memory gauges ([`crate::mem`]),
//! latency histograms ([`crate::hist`]), and per-Context rollups
//! ([`crate::ctxreg`]) all surface here — one row per family, with the
//! kind and help string the Prometheus exposition needs. grblint rule 9
//! (`counter-without-metric`) enforces the invariant in the other
//! direction: every `pub … : AtomicU64` field of an `obs::counters` block
//! must have a registry row whose dotted name ends in that field, so a
//! new counter cannot silently stay invisible to the telemetry plane.

/// What a metric family's value means over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative count (resets only with [`crate::reset`]).
    Counter,
    /// Point-in-time level; may go up and down.
    Gauge,
}

impl MetricKind {
    /// The exposition `# TYPE` keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One registered metric family.
#[derive(Debug, Clone, Copy)]
pub struct MetricDesc {
    /// Stable dotted name (`grb.<block>.<field>`); the exposition mangles
    /// dots to underscores.
    pub name: &'static str,
    pub kind: MetricKind,
    /// One-line help string for the `# HELP` exposition line.
    pub help: &'static str,
}

const C: MetricKind = MetricKind::Counter;
const G: MetricKind = MetricKind::Gauge;

const fn m(name: &'static str, kind: MetricKind, help: &'static str) -> MetricDesc {
    MetricDesc { name, kind, help }
}

/// Every exported metric family, in exposition order. Labeled families
/// (`kernel`, `worker`, `ctx`, `reason`) fan out to one sample per label
/// value at collection time.
static REGISTRY: &[MetricDesc] = &[
    // Per-kernel work accounting (label: kernel).
    m("grb.kernel.calls", C, "Finished invocations per kernel family."),
    m("grb.kernel.nanos", C, "Cumulative kernel wall time in nanoseconds."),
    m("grb.kernel.flops", C, "Cumulative semiring operations performed."),
    m("grb.kernel.nnz_in", C, "Cumulative input nonzeros consumed."),
    m("grb.kernel.nnz_out", C, "Cumulative output nonzeros produced."),
    m("grb.kernel.bytes_moved", C, "Cumulative bytes read and written by kernels."),
    m("grb.kernel.p50_ns", G, "Median kernel latency over the process lifetime."),
    m("grb.kernel.p99_ns", G, "99th-percentile kernel latency over the process lifetime."),
    m("grb.kernel.max_ns", G, "Largest kernel latency observed."),
    m("grb.kernel.rate", G, "Kernel invocations per second over the sampler window."),
    m("grb.kernel.rolling_p99_ns", G, "99th-percentile kernel latency over the sampler window."),
    // Pending-queue / fusion machinery.
    m("grb.pending.maps_enqueued", C, "Fusible map stages enqueued."),
    m("grb.pending.opaques_enqueued", C, "Opaque stages enqueued."),
    m("grb.pending.fusion_hits", C, "Map stages absorbed into a preceding traversal."),
    m("grb.pending.map_traversals", C, "Fused map traversals executed."),
    m("grb.pending.opaque_drains", C, "Opaque stages executed at drain time."),
    m("grb.pending.drains", C, "Queue-drain events that found work."),
    m("grb.pending.max_depth", G, "High-water pending-queue depth."),
    m("grb.pending.errors_raised", C, "Execution errors constructed."),
    m("grb.pending.errors_deferred", C, "Errors surfaced from a drained deferred sequence."),
    m("grb.pending.drain_rate", G, "Queue drains per second over the sampler window."),
    // Nonblocking op-DAG engine.
    m("grb.dag.nodes_enqueued", C, "Lazy op nodes enqueued on container DAGs."),
    m("grb.dag.pre_fused", C, "Input-side map stages folded into node kernels."),
    m("grb.dag.post_fused", C, "Trailing map stages drained with their node."),
    m("grb.dag.fused_chains", C, "Node drains that fused at least one stage."),
    m("grb.dag.async_drains", C, "DAG drains handed to the worker pool."),
    m("grb.dag.forces", C, "Forced DAG drains (read/wait/self-input barriers)."),
    // Kernel-workspace reuse.
    m("grb.workspace.checkouts", C, "Scratch checkouts requested by kernels."),
    m("grb.workspace.hits", C, "Checkouts served from the per-thread cache."),
    m("grb.workspace.misses", C, "Checkouts that allocated a fresh workspace."),
    m("grb.workspace.bytes_reused", C, "Buffer capacity handed back on cache hits."),
    // Direction-optimizing dispatch.
    m("grb.direction.push_picks", C, "mxv/vxm dispatches resolved to the push kernel."),
    m("grb.direction.pull_picks", C, "mxv/vxm dispatches resolved to the pull kernel."),
    m("grb.direction.transpose_builds", C, "Transposes computed into the memo cache."),
    m("grb.direction.transpose_hits", C, "Transpose requests served from the memo cache."),
    // Static-vs-dyn kernel registry dispatch.
    m("grb.dispatch.static_hits", C, "Dispatches served by a monomorphized kernel."),
    m("grb.dispatch.dyn_fallbacks", C, "Dispatches on the erased-closure fallback path."),
    // Vector storage-format picks.
    m("grb.format.bitmap_picks", C, "Results stored in bitmap format."),
    m("grb.format.svec_picks", C, "Results kept in sparse index/value format."),
    m("grb.format.full_picks", C, "Results stored full (every position present)."),
    m("grb.format.conversions", C, "Bitmap- or full-to-sparse conversions forced downstream."),
    // Thread-pool scheduler.
    m("grb.pool.tasks_spawned", C, "Tasks submitted to pool workers."),
    m("grb.pool.tasks_inline", C, "Tasks executed inline in nested parallel regions."),
    m("grb.pool.parks", C, "Workers blocked waiting for work."),
    m("grb.pool.wakes", C, "Parked workers woken by a new job."),
    m("grb.pool.scopes", C, "ThreadPool::scope entries."),
    m("grb.pool.jobs_queued", C, "Jobs pushed onto the shared pool queue."),
    m("grb.pool.jobs_dequeued", C, "Jobs taken off the queue by workers."),
    m("grb.pool.queue_depth", G, "Jobs currently waiting in the pool queue."),
    m("grb.pool.queue_depth_max", G, "High-water pool queue depth."),
    m("grb.pool.tasks_completed", C, "Offloaded tasks that ran to completion."),
    m("grb.pool.task_wait_ns", C, "Cumulative nanoseconds tasks sat queued."),
    m("grb.pool.task_run_ns", C, "Cumulative nanoseconds tasks spent executing."),
    m("grb.pool.workers", G, "Worker busy-table slots in use."),
    m("grb.pool.worker_busy_ns", C, "Cumulative busy nanoseconds per worker."),
    m("grb.pool.utilization", G, "Mean worker busy fraction over the sampler window."),
    // Memory gauges.
    m("grb.mem.container_live_bytes", G, "Live bytes held by container stores."),
    m("grb.mem.container_high_bytes", G, "High-water container-store bytes."),
    m("grb.mem.workspace_live_bytes", G, "Live bytes held by the workspace cache."),
    m("grb.mem.workspace_high_bytes", G, "High-water workspace-cache bytes."),
    // Per-Context rollups (label: ctx).
    m("grb.ctx.spans", C, "Spans recorded against each context."),
    m("grb.ctx.nanos", C, "Span wall time attributed to each context."),
    m("grb.ctx.mem_live_bytes", G, "Live bytes attributed to each context."),
    m("grb.ctx.mem_high_bytes", G, "High-water bytes attributed to each context."),
    // Decision provenance and the event ring.
    m("grb.decisions.by_reason", C, "Decision events per reason code."),
    m("grb.decisions.total", C, "Decision events recorded in total."),
    m("grb.events.total", C, "Span events ever recorded (ring may have dropped some)."),
    // Aggregate window rates.
    m("grb.rate.bytes", G, "Bytes moved per second over the sampler window."),
    // Telemetry-plane self-accounting.
    m("grb.sampler.samples", C, "Periodic snapshots taken by the sampler thread."),
    m("grb.sampler.scrapes", C, "Scrape requests served by the metrics endpoint."),
    m("grb.sampler.dump_writes", C, "GRB_METRICS_DUMP exposition files written."),
];

/// The full metric registry, in exposition order.
pub fn registry() -> &'static [MetricDesc] {
    REGISTRY
}

/// Looks up a family by dotted name.
pub fn find(name: &str) -> Option<&'static MetricDesc> {
    REGISTRY.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<_> = registry().iter().map(|d| d.name).collect();
        assert!(names.iter().all(|n| n.starts_with("grb.")), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate registry names");
    }

    #[test]
    fn every_name_resolves() {
        assert!(find("grb.kernel.calls").is_some());
        assert!(find("grb.pool.queue_depth").is_some());
        assert!(find("no.such.metric").is_none());
    }

    #[test]
    fn help_strings_are_exposition_safe() {
        for d in registry() {
            assert!(!d.help.contains('\n'), "{}: multi-line help", d.name);
            assert!(!d.help.is_empty(), "{}: empty help", d.name);
        }
    }
}
