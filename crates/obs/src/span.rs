//! RAII spans, the span view of the recorder, and burble narration.
//!
//! A [`Span`] measures one region of work (usually one kernel invocation).
//! On drop — when telemetry is enabled — it records the elapsed wall time
//! into the kernel counter table, attributes it to the active context, and
//! pushes one region into the calling thread's ring (the recorder's, which
//! phases and decisions share). [`events`] lists the newest
//! [`EVENT_CAPACITY`] of those regions. With burble on, each span additionally narrates one
//! human-readable line to stderr, in the spirit of SuiteSparse's
//! `GxB_BURBLE`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::counters::{self, Kernel};
use crate::ctxreg;
use crate::recorder::{self, Record, Region};

pub use crate::recorder::thread_name;

/// How many of the newest span regions [`events`] lists.
pub const EVENT_CAPACITY: usize = 4096;

/// Spans ever recorded (the snapshot's `events_total`).
static SPANS: AtomicU64 = AtomicU64::new(0);

/// One completed span, as [`events`] lists it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span label (kernel name for kernel spans).
    pub name: &'static str,
    /// Kernel family, when the span wrapped a counted kernel.
    pub kernel: Option<Kernel>,
    /// Id of the context the work ran under (`0` = unattributed).
    pub ctx: u64,
    /// Tag resolvable through [`thread_name`].
    pub thread: u32,
    /// Start time in microseconds since the first telemetry event.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The newest [`EVENT_CAPACITY`] span regions still held by the threads'
/// rings, in completion order, plus the total number of spans ever
/// recorded (the excess was overwritten).
pub fn events() -> (Vec<Event>, u64) {
    let mut spans: Vec<(u64, Event)> = recorder::threads()
        .into_iter()
        .flat_map(|(tag, _, recs)| {
            recs.into_iter().filter_map(move |rec| match rec {
                Record::Region(r) if r.span => Some((
                    r.end_ns,
                    Event {
                        name: r.name,
                        kernel: r.kernel,
                        ctx: r.ctx,
                        thread: tag,
                        start_us: r.start_ns / 1_000,
                        dur_ns: r.end_ns - r.start_ns,
                    },
                )),
                _ => None,
            })
        })
        .collect();
    spans.sort_by_key(|(end_ns, _)| *end_ns);
    let skip = spans.len().saturating_sub(EVENT_CAPACITY);
    let events = spans.into_iter().skip(skip).map(|(_, e)| e).collect();
    (events, SPANS.load(Ordering::Relaxed))
}

pub(crate) fn reset() {
    // Test-isolation zeroing: reset points are single-threaded harness
    // boundaries.
    SPANS.store(0, Ordering::Relaxed);
}

// --- spans ----------------------------------------------------------------

/// An RAII measurement of one region of work. Construct through [`span`],
/// [`span_ctx`], or [`kernel_span`]; the measurement is recorded when the
/// guard drops. When telemetry is disabled the guard holds no timestamp
/// and its drop does nothing.
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    kernel: Option<Kernel>,
    ctx: u64,
    flops: u64,
    nnz_in: u64,
    nnz_out: u64,
    bytes: u64,
}

impl Span {
    fn new(name: &'static str, kernel: Option<Kernel>, ctx: u64) -> Span {
        Span {
            start: crate::enabled().then(Instant::now),
            name,
            kernel,
            ctx,
            flops: 0,
            nnz_in: 0,
            nnz_out: 0,
            bytes: 0,
        }
    }

    /// Whether this span is live (telemetry was enabled at construction).
    /// Lets callers skip computing work estimates for dead spans.
    pub fn active(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches work figures reported with the span at drop: floating (or
    /// semiring) operations, input/output stored elements, bytes moved.
    pub fn io(&mut self, flops: u64, nnz_in: u64, nnz_out: u64, bytes: u64) {
        self.flops += flops;
        self.nnz_in += nnz_in;
        self.nnz_out += nnz_out;
        self.bytes += bytes;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let start_ns = recorder::since_epoch(t0);
        let dur_ns = t0.elapsed().as_nanos() as u64;
        if let Some(k) = self.kernel {
            counters::record_kernel(k, dur_ns, self.flops, self.nnz_in, self.nnz_out, self.bytes);
        }
        ctxreg::add_span(self.ctx, dur_ns, self.flops);
        SPANS.fetch_add(1, Ordering::Relaxed);
        recorder::push(Record::Region(Region {
            name: self.name,
            kernel: self.kernel,
            ctx: self.ctx,
            start_ns,
            end_ns: start_ns + dur_ns,
            span: true,
        }));
        if crate::burble() {
            let ctx_label = if self.ctx == 0 {
                String::new()
            } else {
                match ctxreg::context_name(self.ctx) {
                    Some(name) => format!(" ctx={}({name})", self.ctx),
                    None => format!(" ctx={}", self.ctx),
                }
            };
            let work = if self.flops | self.nnz_in | self.nnz_out != 0 {
                format!(
                    " flops={} nnz_in={} nnz_out={}",
                    self.flops, self.nnz_in, self.nnz_out
                )
            } else {
                String::new()
            };
            eprintln!(
                "[grb-obs] {} {}{ctx_label}{work}",
                self.name,
                fmt_ns(dur_ns)
            );
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Starts an unattributed span.
pub fn span(name: &'static str) -> Span {
    Span::new(name, None, 0)
}

/// Starts a span attributed to context `ctx_id`.
pub fn span_ctx(name: &'static str, ctx_id: u64) -> Span {
    Span::new(name, None, ctx_id)
}

/// Starts a span that records into kernel `k`'s counters on drop.
pub fn kernel_span(k: Kernel, ctx_id: u64) -> Span {
    Span::new(k.name(), Some(k), ctx_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        crate::reset();
        {
            let mut s = kernel_span(Kernel::Transpose, 0);
            assert!(!s.active());
            s.io(10, 10, 10, 10);
        }
        assert_eq!(events().1, 0);
    }

    #[test]
    fn enabled_span_lands_in_ring_and_counters() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        {
            let mut s = kernel_span(Kernel::Convert, 0);
            assert!(s.active());
            s.io(3, 2, 1, 8);
        }
        let (evs, total) = events();
        assert_eq!(total, 1);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kernel, Some(Kernel::Convert));
        assert_eq!(evs[0].name, "convert");
        assert!(thread_name(evs[0].thread).is_some());
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(5), "5ns");
        assert!(fmt_ns(1_500).contains("us"));
        assert!(fmt_ns(2_000_000).contains("ms"));
        assert!(fmt_ns(3_000_000_000).ends_with('s'));
    }
}
