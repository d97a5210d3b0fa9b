//! Metric registry rows: a family's stable dotted name, kind and help
//! string, which the Prometheus exposition prints as `# HELP` / `# TYPE`.
//!
//! A counter is one table row in [`crate::counters`], and that row is also
//! its registry row (`grb.<block>.<field>`), so no counter can exist
//! without a metric. The families that are derived rather than counted —
//! window rates, latency percentiles, the live queue depth, memory gauges,
//! per-Context rollups, decision totals — declare their rows with
//! `derived!` where [`super::collect`] computes their samples.

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

/// The `&'static` registry row of a derived family.
macro_rules! derived {
    ($name:literal, $kind:ident, $help:literal) => {
        &$crate::export::registry::MetricDesc {
            name: $name,
            kind: $crate::export::registry::MetricKind::$kind,
            help: $help,
        }
    };
}
pub(crate) use derived;
