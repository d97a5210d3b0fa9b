//! `obs::export` — the live telemetry plane.
//!
//! Everything the crate collects post-mortem (counters, gauges,
//! histograms, per-Context rollups) becomes scrapeable while the process
//! runs:
//!
//! * [`registry`] — a family's row: stable dotted name
//!   (`grb.pool.queue_depth`, …), kind and help string. Counter families
//!   are the rows of the [`crate::counters`] table; [`collect`] declares
//!   the derived ones beside the code that computes them;
//! * [`sampler`] — a background thread keeping a bounded ring of periodic
//!   counter snapshots, so rates (kernels/sec, drains/sec, bytes/sec) and
//!   rolling p99s are deltas over a real window instead of lifetime
//!   averages;
//! * [`server`] — a hand-rolled TCP endpoint (`GRB_METRICS_ADDR`)
//!   answering every request with the Prometheus text exposition
//!   (v0.0.4), plus a `GRB_METRICS_DUMP=<path>` one-shot for headless CI;
//! * per-Context labels — the paper's Fig. 2 context hierarchy shows up
//!   as a `ctx` label, so per-tenant load is visible live.
//!
//! Nothing here touches a kernel hot path: hot paths feed the existing
//! relaxed counters, and the plane reads them a few times per second.
//! When neither environment variable is set, [`init`] is a pair of
//! missing-env lookups and [`write_dump_if_requested`] allocates nothing.

pub mod registry;
pub mod sampler;
pub mod server;

use std::net::SocketAddr;
use std::sync::atomic::Ordering;

use crate::counters;
use crate::hist::HistTotals;
use registry::{derived, MetricDesc};

/// One labeled sample of a metric family.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label pairs (possibly empty for scalar families).
    pub labels: Vec<(&'static str, String)>,
    pub value: f64,
}

impl Sample {
    fn scalar(value: f64) -> Self {
        Sample {
            labels: Vec::new(),
            value,
        }
    }

    fn labeled(key: &'static str, val: String, value: f64) -> Self {
        Sample {
            labels: vec![(key, val)],
            value,
        }
    }
}

/// A metric family ready for exposition: its registry row plus the
/// samples collected this scrape.
#[derive(Debug, Clone)]
pub struct Family {
    pub desc: &'static MetricDesc,
    pub samples: Vec<Sample>,
}

/// Starts whatever the environment asks for: binds the scrape endpoint
/// when `GRB_METRICS_ADDR` is set, and runs the background sampler when
/// either the endpoint or `GRB_METRICS_DUMP` wants window rates.
/// Idempotent; returns the endpoint's bound address, if any.
pub fn init() -> Option<SocketAddr> {
    let addr = server::start_if_requested();
    if addr.is_some() || dump_path().is_some() {
        sampler::start();
    }
    addr
}

/// The scrape endpoint's bound address (see [`server::bound_addr`]).
pub fn bound_addr() -> Option<SocketAddr> {
    server::bound_addr()
}

fn dump_path() -> Option<String> {
    std::env::var("GRB_METRICS_DUMP").ok().filter(|p| !p.is_empty())
}

/// If `GRB_METRICS_DUMP=<path>` is set, takes a fresh sample, writes the
/// exposition there, and returns the path. Mirrors
/// [`crate::timeline::write_trace_if_requested`]: write failures go to
/// stderr, not panics. With the variable unset this returns immediately
/// without allocating.
pub fn write_dump_if_requested() -> Option<String> {
    let path = dump_path()?;
    sampler::sample_now();
    let text = render();
    match std::fs::write(&path, &text) {
        Ok(()) => {
            counters::sampler().dump_writes.fetch_add(1, Ordering::Relaxed);
            Some(path)
        }
        Err(e) => {
            eprintln!("[grb-obs] failed to write GRB_METRICS_DUMP file {path}: {e}");
            None
        }
    }
}

/// Per-bucket histogram difference `new - old` (saturating), for rolling
/// percentiles over a sampler window. The delta's `max` is taken from
/// `new` — the true window max is unknowable from cumulative histograms,
/// and percentile clamping only needs an upper bound.
fn hist_delta(new: &HistTotals, old: &HistTotals) -> HistTotals {
    let mut d = HistTotals::new();
    for i in 0..d.buckets.len() {
        d.buckets[i] = new.buckets[i].saturating_sub(old.buckets[i]);
    }
    d.count = new.count.saturating_sub(old.count);
    d.sum = new.sum.saturating_sub(old.sum);
    d.max = new.max;
    d
}

fn rate(new: u64, old: u64, dt: f64) -> f64 {
    if dt <= 0.0 {
        0.0
    } else {
        new.saturating_sub(old) as f64 / dt
    }
}

/// Collects every metric family's current samples: cumulative values
/// from a fresh [`crate::snapshot`], window rates and rolling percentiles
/// from the sampler ring. Every kernel and counter-table family comes
/// first, then the derived ones; label-fanned families may be empty when
/// their label domain is (no contexts registered, no pool tasks completed
/// yet).
pub fn collect() -> Vec<Family> {
    let snap = crate::snapshot();
    let (old, new) = sampler::window();
    let dt = new.t_ns.saturating_sub(old.t_ns) as f64 / 1e9;
    let mut out = Vec::new();
    let mut push = |desc: &'static MetricDesc, samples: Vec<Sample>| {
        out.push(Family { desc, samples });
    };

    // Per-kernel families: one row per kernel, every kernel always
    // emitted so the families exist from the first scrape on.
    let per_kernel = |f: &dyn Fn(&counters::KernelTotals) -> f64| -> Vec<Sample> {
        snap.kernels
            .iter()
            .map(|k| Sample::labeled("kernel", k.kernel.name().to_string(), f(k)))
            .collect()
    };
    for row in counters::KERNEL_ROWS {
        push(&row.desc, per_kernel(&|k| (row.get)(k) as f64));
    }
    push(
        derived!(
            "grb.kernel.p50_ns",
            Gauge,
            "Median kernel latency over the process lifetime."
        ),
        per_kernel(&|k| snap.hist(k.kernel).p50() as f64),
    );
    push(
        derived!(
            "grb.kernel.p99_ns",
            Gauge,
            "99th-percentile kernel latency over the process lifetime."
        ),
        per_kernel(&|k| snap.hist(k.kernel).p99() as f64),
    );
    push(
        derived!(
            "grb.kernel.max_ns",
            Gauge,
            "Largest kernel latency observed."
        ),
        per_kernel(&|k| snap.hist(k.kernel).max as f64),
    );
    push(
        derived!(
            "grb.kernel.rate",
            Gauge,
            "Kernel invocations per second over the sampler window."
        ),
        per_kernel(&|k| rate(new.calls(k.kernel), old.calls(k.kernel), dt)),
    );
    push(
        derived!(
            "grb.kernel.rolling_p99_ns",
            Gauge,
            "99th-percentile kernel latency over the sampler window."
        ),
        per_kernel(&|k| hist_delta(&new.hist(k.kernel), &old.hist(k.kernel)).p99() as f64),
    );

    for row in counters::COUNTER_ROWS {
        push(&row.desc, vec![Sample::scalar((row.get)(&snap) as f64)]);
    }
    push(
        derived!(
            "grb.pending.drain_rate",
            Gauge,
            "Queue drains per second over the sampler window."
        ),
        vec![Sample::scalar(rate(new.drains, old.drains, dt))],
    );
    push(
        derived!(
            "grb.pool.queue_depth",
            Gauge,
            "Jobs currently waiting in the pool queue."
        ),
        vec![Sample::scalar(snap.pool.queue_depth() as f64)],
    );
    push(
        derived!(
            "grb.pool.worker_busy_ns",
            Counter,
            "Cumulative busy nanoseconds per worker."
        ),
        snap.pool_workers
            .iter()
            .enumerate()
            .map(|(i, &b)| Sample::labeled("worker", i.to_string(), b as f64))
            .collect(),
    );
    // Mean busy fraction across the busy table over the window: the sum
    // of per-worker busy deltas spread over `workers × dt` of wall time.
    let utilization = {
        let workers = new.pool.workers.max(old.pool.workers);
        if workers == 0 || dt <= 0.0 {
            0.0
        } else {
            let busy_new: u64 = new.worker_busy.iter().sum();
            let busy_old: u64 = old.worker_busy.iter().sum();
            let busy = busy_new.saturating_sub(busy_old) as f64 / 1e9;
            (busy / (workers as f64 * dt)).min(1.0)
        }
    };
    push(
        derived!(
            "grb.pool.utilization",
            Gauge,
            "Mean worker busy fraction over the sampler window."
        ),
        vec![Sample::scalar(utilization)],
    );

    let m = &snap.mem;
    push(
        derived!(
            "grb.mem.container_live_bytes",
            Gauge,
            "Live bytes held by container stores."
        ),
        vec![Sample::scalar(m.container_live as f64)],
    );
    push(
        derived!(
            "grb.mem.container_high_bytes",
            Gauge,
            "High-water container-store bytes."
        ),
        vec![Sample::scalar(m.container_high as f64)],
    );
    push(
        derived!(
            "grb.mem.workspace_live_bytes",
            Gauge,
            "Live bytes held by the workspace cache."
        ),
        vec![Sample::scalar(m.workspace_live as f64)],
    );
    push(
        derived!(
            "grb.mem.workspace_high_bytes",
            Gauge,
            "High-water workspace-cache bytes."
        ),
        vec![Sample::scalar(m.workspace_high as f64)],
    );

    // Per-context rollups (Fig. 2): label by context name when one was
    // registered, falling back to the numeric id. A name shared by several
    // contexts gets an `#id` suffix so no two samples of a family ever
    // repeat a label set (the exposition forbids it).
    let mut name_counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for c in &snap.contexts {
        if let Some(n) = &c.name {
            *name_counts.entry(n.as_str()).or_insert(0) += 1;
        }
    }
    let per_ctx = |f: &dyn Fn(&crate::ctxreg::ContextStats) -> f64| -> Vec<Sample> {
        snap.contexts
            .iter()
            .map(|c| {
                let label = match &c.name {
                    Some(n) if name_counts[n.as_str()] > 1 => format!("{n}#{}", c.id),
                    Some(n) => n.clone(),
                    None => c.id.to_string(),
                };
                Sample::labeled("ctx", label, f(c))
            })
            .collect()
    };
    push(
        derived!(
            "grb.ctx.spans",
            Counter,
            "Spans recorded against each context."
        ),
        per_ctx(&|c| c.rolled.spans as f64),
    );
    push(
        derived!(
            "grb.ctx.nanos",
            Counter,
            "Span wall time attributed to each context."
        ),
        per_ctx(&|c| c.rolled.nanos as f64),
    );
    push(
        derived!(
            "grb.ctx.mem_live_bytes",
            Gauge,
            "Live bytes attributed to each context."
        ),
        per_ctx(&|c| c.rolled.mem_live as f64),
    );
    push(
        derived!(
            "grb.ctx.mem_high_bytes",
            Gauge,
            "High-water bytes attributed to each context."
        ),
        per_ctx(&|c| c.rolled.mem_high as f64),
    );

    push(
        derived!(
            "grb.decisions.by_reason",
            Counter,
            "Decision events per reason code."
        ),
        snap.decisions
            .iter()
            .map(|(r, c)| Sample::labeled("reason", r.code().to_string(), *c as f64))
            .collect(),
    );
    push(
        derived!(
            "grb.decisions.total",
            Counter,
            "Decision events recorded in total."
        ),
        vec![Sample::scalar(snap.decisions_total as f64)],
    );
    push(
        derived!(
            "grb.events.total",
            Counter,
            "Span events ever recorded (ring may have dropped some)."
        ),
        vec![Sample::scalar(snap.events_total as f64)],
    );
    push(
        derived!(
            "grb.rate.bytes",
            Gauge,
            "Bytes moved per second over the sampler window."
        ),
        vec![Sample::scalar(rate(
            new.bytes_moved(),
            old.bytes_moved(),
            dt,
        ))],
    );

    out
}

/// Dotted registry name → exposition metric name.
pub fn mangle(name: &str) -> String {
    name.replace('.', "_")
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the full Prometheus text exposition (v0.0.4): `# HELP` and
/// `# TYPE` per family, then one line per sample. Families whose label
/// domain is currently empty are omitted entirely.
pub fn render() -> String {
    let mut out = String::with_capacity(8 * 1024);
    for fam in collect() {
        if fam.samples.is_empty() {
            continue;
        }
        let name = mangle(fam.desc.name);
        out.push_str("# HELP ");
        out.push_str(&name);
        out.push(' ');
        out.push_str(&escape_help(fam.desc.help));
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(&name);
        out.push(' ');
        out.push_str(fam.desc.kind.keyword());
        out.push('\n');
        for s in &fam.samples {
            out.push_str(&name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push_str("=\"");
                    out.push_str(&escape_label(v));
                    out.push('"');
                }
                out.push('}');
            }
            out.push(' ');
            out.push_str(&fmt_value(s.value));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_are_unique_and_dotted() {
        let mut names: Vec<_> = collect().iter().map(|f| f.desc.name).collect();
        assert!(names.iter().all(|n| n.starts_with("grb.")), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate family names");
    }

    #[test]
    fn help_strings_are_exposition_safe() {
        for f in collect() {
            assert!(
                !f.desc.help.contains('\n'),
                "{}: multi-line help",
                f.desc.name
            );
            assert!(!f.desc.help.is_empty(), "{}: empty help", f.desc.name);
        }
    }

    #[test]
    fn render_emits_help_type_and_samples() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::counters::record_kernel(crate::Kernel::SpMv, 1000, 10, 5, 5, 128);
        let text = render();
        crate::set_enabled(false);
        assert!(text.contains("# HELP grb_kernel_calls "));
        assert!(text.contains("# TYPE grb_kernel_calls counter"));
        assert!(text.contains("grb_kernel_calls{kernel=\"spmv\"} "));
        assert!(text.contains("# TYPE grb_pool_queue_depth gauge"));
        assert!(text.contains("grb_pool_utilization "));
        assert!(text.contains("grb_sampler_samples "));
        // Every non-comment line parses as `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (head, val) = line.rsplit_once(' ').expect("line has a value");
            assert!(!head.is_empty());
            assert!(val.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
    }

    #[test]
    fn window_rates_reflect_recorded_work() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        sampler::reset_ring();
        sampler::sample_now();
        for _ in 0..50 {
            crate::counters::record_kernel(crate::Kernel::SpGemm, 2048, 1, 1, 1, 64);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        sampler::sample_now();
        let fams = collect();
        let rate_fam = fams
            .iter()
            .find(|f| f.desc.name == "grb.kernel.rate")
            .unwrap();
        let spgemm = rate_fam
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "spgemm"))
            .unwrap();
        assert!(spgemm.value > 0.0, "50 calls in the window must yield a rate");
        let p99_fam = fams
            .iter()
            .find(|f| f.desc.name == "grb.kernel.rolling_p99_ns")
            .unwrap();
        let spgemm_p99 = p99_fam
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "spgemm"))
            .unwrap();
        assert!(
            spgemm_p99.value >= 1024.0 && spgemm_p99.value <= 4096.0,
            "rolling p99 {} escaped the sample bucket",
            spgemm_p99.value
        );
        crate::set_enabled(false);
        sampler::reset_ring();
        crate::reset();
    }

    #[test]
    fn dump_is_a_noop_without_the_env_var() {
        // The harness never sets GRB_METRICS_DUMP for unit tests.
        if std::env::var("GRB_METRICS_DUMP").is_ok() {
            return;
        }
        assert!(write_dump_if_requested().is_none());
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(42.0), "42");
        assert_eq!(fmt_value(0.25), "0.25");
        assert_eq!(fmt_value(-3.0), "-3");
    }

    #[test]
    fn hist_delta_windows() {
        let mut old = HistTotals::new();
        let mut new = HistTotals::new();
        old.add_sample(100);
        new.add_sample(100);
        new.add_sample(5000);
        let d = hist_delta(&new, &old);
        assert_eq!(d.count, 1);
        assert!(d.p99() >= 4096, "window holds only the slow sample");
    }
}
