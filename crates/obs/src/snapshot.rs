//! The `GrB_get`-style introspection surface: a consistent point-in-time
//! copy of every statistic this crate collects, serializable to JSON for
//! the bench harness (`BENCH_obs.json`).

use crate::counters::{
    self, DagTotals, DirectionTotals, DispatchTotals, FormatTotals, KernelTotals, PendingTotals,
    PoolTotals, SamplerTotals, WorkspaceTotals,
};
use crate::ctxreg::{self, ContextStats};
use crate::events::{self, Reason};
use crate::hist::{self, HistTotals, KernelHist};
use crate::json::JsonWriter;
use crate::mem::{self, MemTotals};
use crate::span::{self, Event};

/// A point-in-time copy of all telemetry. Obtain through [`snapshot`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Whether collection was enabled at snapshot time.
    pub enabled: bool,
    /// Per-kernel totals (every kernel family, including zero rows).
    pub kernels: Vec<KernelTotals>,
    /// Pending-queue / fusion statistics.
    pub pending: PendingTotals,
    /// Op-DAG statistics (§III nonblocking fused execution).
    pub dag: DagTotals,
    /// Thread-pool activity (including the scheduler metrics: queue
    /// depth, wait-vs-run split, worker busy time).
    pub pool: PoolTotals,
    /// Per-worker cumulative busy nanoseconds (`pool.workers` entries).
    pub pool_workers: Vec<u64>,
    /// Telemetry-plane self-accounting (`obs::export`).
    pub sampler: SamplerTotals,
    /// Kernel-workspace reuse statistics (`exec::workspace`).
    pub workspace: WorkspaceTotals,
    /// Direction-optimizing `mxv`/`vxm` dispatch statistics.
    pub direction: DirectionTotals,
    /// Kernel-registry static-vs-dyn dispatch statistics.
    pub dispatch: DispatchTotals,
    /// Vector storage-format (bitmap vs sparse) statistics.
    pub format: FormatTotals,
    /// Per-kernel latency histograms, in the same order as `kernels`.
    pub hists: Vec<KernelHist>,
    /// Container-store and workspace-cache memory gauges.
    pub mem: MemTotals,
    /// Per-context rollups, ordered by context id.
    pub contexts: Vec<ContextStats>,
    /// The event ring's contents, chronological.
    pub events: Vec<Event>,
    /// Total events ever recorded (≥ `events.len()`; the excess was
    /// overwritten in the ring).
    pub events_total: u64,
    /// Lifetime decision counts per reason code (`obs::events`), in
    /// [`Reason::all`] order.
    pub decisions: Vec<(Reason, u64)>,
    /// Total decision events ever recorded.
    pub decisions_total: u64,
}

/// Captures the current telemetry state. Counter families are read
/// independently (each is internally consistent; the families are not
/// mutually atomic, which is fine for statistics).
pub fn snapshot() -> Snapshot {
    let (events, events_total) = span::events();
    Snapshot {
        enabled: crate::enabled(),
        kernels: counters::kernel_totals(),
        pending: counters::pending_totals(),
        dag: counters::dag_totals(),
        pool: counters::pool_totals(),
        pool_workers: counters::worker_busy_totals(),
        sampler: counters::sampler_totals(),
        workspace: counters::workspace_totals(),
        direction: counters::direction_totals(),
        dispatch: counters::dispatch_totals(),
        format: counters::format_totals(),
        hists: hist::kernel_hists(),
        mem: mem::totals(),
        contexts: ctxreg::all_context_stats(),
        events,
        events_total,
        decisions: events::reason_counts(),
        decisions_total: events::total(),
    }
}

impl Snapshot {
    /// Sum of span wall time over all kernels, in nanoseconds.
    pub fn total_kernel_nanos(&self) -> u64 {
        self.kernels.iter().map(|k| k.nanos).sum()
    }

    /// The totals row for one kernel family.
    pub fn kernel(&self, k: counters::Kernel) -> &KernelTotals {
        self.kernels
            .iter()
            .find(|t| t.kernel == k)
            .expect("snapshot holds every kernel family")
    }

    /// The latency histogram for one kernel family.
    pub fn hist(&self, k: counters::Kernel) -> &HistTotals {
        &self
            .hists
            .iter()
            .find(|h| h.kernel == k)
            .expect("snapshot holds every kernel family")
            .hist
    }

    /// Serializes the snapshot. `include_events` controls whether the
    /// (potentially large) event log is embedded.
    pub fn to_json_with(&self, include_events: bool) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("enabled");
        w.boolean(self.enabled);

        w.key("kernels");
        w.begin_object();
        for k in &self.kernels {
            w.key(k.kernel.name());
            w.begin_object();
            w.key("calls");
            w.number(k.calls);
            w.key("nanos");
            w.number(k.nanos);
            w.key("flops");
            w.number(k.flops);
            w.key("nnz_in");
            w.number(k.nnz_in);
            w.key("nnz_out");
            w.number(k.nnz_out);
            w.key("bytes_moved");
            w.number(k.bytes_moved);
            let h = self.hist(k.kernel);
            w.key("p50_ns");
            w.number(h.p50());
            w.key("p90_ns");
            w.number(h.p90());
            w.key("p99_ns");
            w.number(h.p99());
            w.key("max_ns");
            w.number(h.max);
            w.end_object();
        }
        w.end_object();

        w.key("pending");
        w.begin_object();
        w.key("maps_enqueued");
        w.number(self.pending.maps_enqueued);
        w.key("opaques_enqueued");
        w.number(self.pending.opaques_enqueued);
        w.key("fusion_hits");
        w.number(self.pending.fusion_hits);
        w.key("map_traversals");
        w.number(self.pending.map_traversals);
        w.key("opaque_drains");
        w.number(self.pending.opaque_drains);
        w.key("drains");
        w.number(self.pending.drains);
        w.key("max_depth");
        w.number(self.pending.max_depth);
        w.key("errors_raised");
        w.number(self.pending.errors_raised);
        w.key("errors_deferred");
        w.number(self.pending.errors_deferred);
        w.end_object();

        w.key("dag");
        w.begin_object();
        w.key("nodes_enqueued");
        w.number(self.dag.nodes_enqueued);
        w.key("pre_fused");
        w.number(self.dag.pre_fused);
        w.key("post_fused");
        w.number(self.dag.post_fused);
        w.key("fused_chains");
        w.number(self.dag.fused_chains);
        w.key("async_drains");
        w.number(self.dag.async_drains);
        w.key("forces");
        w.number(self.dag.forces);
        w.end_object();

        w.key("pool");
        w.begin_object();
        w.key("tasks_spawned");
        w.number(self.pool.tasks_spawned);
        w.key("tasks_inline");
        w.number(self.pool.tasks_inline);
        w.key("parks");
        w.number(self.pool.parks);
        w.key("wakes");
        w.number(self.pool.wakes);
        w.key("scopes");
        w.number(self.pool.scopes);
        w.key("jobs_queued");
        w.number(self.pool.jobs_queued);
        w.key("jobs_dequeued");
        w.number(self.pool.jobs_dequeued);
        w.key("queue_depth_max");
        w.number(self.pool.queue_depth_max);
        w.key("tasks_completed");
        w.number(self.pool.tasks_completed);
        w.key("task_wait_ns");
        w.number(self.pool.task_wait_ns);
        w.key("task_run_ns");
        w.number(self.pool.task_run_ns);
        w.key("workers");
        w.number(self.pool.workers);
        w.key("worker_busy_ns");
        w.begin_array();
        for b in &self.pool_workers {
            w.number(*b);
        }
        w.end_array();
        w.end_object();

        w.key("sampler");
        w.begin_object();
        w.key("samples");
        w.number(self.sampler.samples);
        w.key("scrapes");
        w.number(self.sampler.scrapes);
        w.key("dump_writes");
        w.number(self.sampler.dump_writes);
        w.end_object();

        w.key("workspace");
        w.begin_object();
        w.key("checkouts");
        w.number(self.workspace.checkouts);
        w.key("hits");
        w.number(self.workspace.hits);
        w.key("misses");
        w.number(self.workspace.misses);
        w.key("bytes_reused");
        w.number(self.workspace.bytes_reused);
        w.end_object();

        w.key("direction");
        w.begin_object();
        w.key("push_picks");
        w.number(self.direction.push_picks);
        w.key("pull_picks");
        w.number(self.direction.pull_picks);
        w.key("transpose_builds");
        w.number(self.direction.transpose_builds);
        w.key("transpose_hits");
        w.number(self.direction.transpose_hits);
        w.end_object();

        w.key("dispatch");
        w.begin_object();
        w.key("static_hits");
        w.number(self.dispatch.static_hits);
        w.key("dyn_fallbacks");
        w.number(self.dispatch.dyn_fallbacks);
        w.end_object();

        w.key("format");
        w.begin_object();
        w.key("bitmap_picks");
        w.number(self.format.bitmap_picks);
        w.key("svec_picks");
        w.number(self.format.svec_picks);
        w.key("full_picks");
        w.number(self.format.full_picks);
        w.key("conversions");
        w.number(self.format.conversions);
        w.end_object();

        w.key("mem");
        w.begin_object();
        w.key("container_live_bytes");
        w.number(self.mem.container_live);
        w.key("container_high_bytes");
        w.number(self.mem.container_high);
        w.key("workspace_live_bytes");
        w.number(self.mem.workspace_live);
        w.key("workspace_high_bytes");
        w.number(self.mem.workspace_high);
        w.end_object();

        w.key("contexts");
        w.begin_array();
        for c in &self.contexts {
            w.begin_object();
            w.key("id");
            w.number(c.id);
            w.key("parent");
            w.number(c.parent);
            w.key("name");
            match &c.name {
                Some(n) => w.string(n),
                None => w.null(),
            }
            w.key("own");
            write_totals(&mut w, &c.own);
            w.key("rolled");
            write_totals(&mut w, &c.rolled);
            w.end_object();
        }
        w.end_array();

        // Reason-coded decision aggregates (`obs::events`): lifetime
        // counts per choice point, the summary `grbexplain` cross-checks
        // against the full GRB_EXPLAIN export.
        w.key("decisions");
        w.begin_object();
        for (r, c) in &self.decisions {
            w.key(r.code());
            w.number(*c);
        }
        w.end_object();
        w.key("decisions_total");
        w.number(self.decisions_total);

        w.key("events_total");
        w.number(self.events_total);
        if include_events {
            w.key("events");
            w.begin_array();
            for ev in &self.events {
                w.begin_object();
                w.key("name");
                w.string(ev.name);
                w.key("ctx");
                w.number(ev.ctx);
                w.key("thread");
                match span::thread_name(ev.thread) {
                    Some(n) => w.string(&n),
                    None => w.number(ev.thread as u64),
                }
                w.key("start_us");
                w.number(ev.start_us);
                w.key("dur_ns");
                w.number(ev.dur_ns);
                w.end_object();
            }
            w.end_array();
        }
        w.end_object();
        w.finish()
    }

    /// Serializes the snapshot including the event log.
    pub fn to_json(&self) -> String {
        self.to_json_with(true)
    }
}

fn write_totals(w: &mut JsonWriter, t: &crate::ctxreg::CtxTotals) {
    w.begin_object();
    w.key("spans");
    w.number(t.spans);
    w.key("nanos");
    w.number(t.nanos);
    w.key("flops");
    w.number(t.flops);
    w.key("mem_live_bytes");
    w.number(t.mem_live);
    w.key("mem_high_bytes");
    w.number(t.mem_high);
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Kernel;

    #[test]
    fn snapshot_serializes() {
        let snap = snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"kernels\""));
        assert!(json.contains("\"spgemm\""));
        assert!(json.contains("\"pending\""));
        assert!(json.contains("\"dag\""));
        assert!(json.contains("\"fused_chains\""));
        assert!(json.contains("\"pool\""));
        assert!(json.contains("\"queue_depth_max\""));
        assert!(json.contains("\"task_wait_ns\""));
        assert!(json.contains("\"sampler\""));
        assert!(json.contains("\"dump_writes\""));
        assert!(json.contains("\"workspace\""));
        assert!(json.contains("\"direction\""));
        assert!(json.contains("\"dispatch\""));
        assert!(json.contains("\"static_hits\""));
        assert!(json.contains("\"format\""));
        assert!(json.contains("\"bitmap_picks\""));
        assert!(json.contains("\"mem\""));
        assert!(json.contains("\"container_live_bytes\""));
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"contexts\""));
        assert!(json.contains("\"decisions\""));
        assert!(json.contains("\"direction-pull\""));
        assert!(json.contains("\"fuse-flush\""));
        assert!(json.contains("\"decisions_total\""));
        let brief = snap.to_json_with(false);
        assert!(!brief.contains("\"events\":["));
        assert!(brief.contains("\"decisions\""));
    }

    #[test]
    fn kernel_lookup() {
        let snap = snapshot();
        assert_eq!(snap.kernel(Kernel::Wait).kernel, Kernel::Wait);
    }
}
