//! The `GrB_get`-style introspection surface: a consistent point-in-time
//! copy of every statistic this crate collects, serializable to JSON for
//! the bench harness (`BENCH_obs.json`). [`Snapshot`] and [`snapshot`] are
//! generated with the counter blocks in [`counters`]; this module reads
//! and serializes them.

pub use crate::counters::{snapshot, Snapshot};

use crate::counters::{self, KernelTotals};
use crate::hist::HistTotals;
use crate::json::JsonWriter;
use crate::span;

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
            for row in counters::KERNEL_ROWS {
                w.key(row.field);
                w.number((row.get)(k));
            }
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

        for rows in counters::COUNTER_ROWS.chunk_by(|a, b| a.block == b.block) {
            w.key(rows[0].block);
            w.begin_object();
            for row in rows {
                w.key(row.field);
                w.number((row.get)(self));
            }
            w.end_object();
        }

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

    // Every key and value is pinned by `tests/golden.rs`; this only checks
    // the event log's switch.
    #[test]
    fn snapshot_serializes() {
        let snap = snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"events\":["));
        assert!(!snap.to_json_with(false).contains("\"events\":["));
    }

    #[test]
    fn kernel_lookup() {
        let snap = snapshot();
        assert_eq!(snap.kernel(Kernel::Wait).kernel, Kernel::Wait);
    }
}
