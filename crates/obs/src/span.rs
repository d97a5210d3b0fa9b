//! RAII spans, the bounded event ring, and burble narration.
//!
//! A [`Span`] measures one region of work (usually one kernel invocation).
//! On drop — when telemetry is enabled — it records the elapsed wall time
//! into the kernel counter table, attributes it to the active context, and
//! appends an [`Event`] to a fixed-capacity ring buffer (oldest events are
//! overwritten; capacity [`EVENT_CAPACITY`]). With burble
//! on, each span additionally narrates one human-readable line to stderr,
//! in the spirit of SuiteSparse's `GxB_BURBLE`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::counters::{self, Kernel};
use crate::ctxreg;

/// Event-ring capacity (events, not bytes).
pub const EVENT_CAPACITY: usize = 4096;

pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// --- thread identity ------------------------------------------------------

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static THREAD_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_TAG: u32 = {
        let tag = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tag}"));
        let mut names = THREAD_NAMES.lock().unwrap_or_else(|e| e.into_inner());
        names.push((tag, name));
        tag
    };
}

pub(crate) fn thread_tag() -> u32 {
    THREAD_TAG.with(|t| *t)
}

/// Resolves a thread tag recorded in an [`Event`] back to its name.
pub fn thread_name(tag: u32) -> Option<String> {
    let names = THREAD_NAMES.lock().unwrap_or_else(|e| e.into_inner());
    names
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, n)| n.clone())
}

// --- event ring -----------------------------------------------------------

/// One completed span, as stored in the ring buffer.
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

struct Ring {
    buf: Vec<Event>,
    capacity: usize,
    /// Next write slot; total events ever seen is `written`.
    written: u64,
}

static RING: Mutex<Option<Ring>> = Mutex::new(None);

fn with_ring<R>(f: impl FnOnce(&mut Ring) -> R) -> R {
    let mut guard = RING.lock().unwrap_or_else(|e| e.into_inner());
    let ring = guard.get_or_insert_with(|| Ring {
        buf: Vec::with_capacity(1024),
        capacity: EVENT_CAPACITY,
        written: 0,
    });
    f(ring)
}

fn push_event(ev: Event) {
    with_ring(|ring| {
        let slot = (ring.written % ring.capacity as u64) as usize;
        if slot < ring.buf.len() {
            ring.buf[slot] = ev;
        } else {
            ring.buf.push(ev);
        }
        ring.written += 1;
    });
}

/// Copies the ring's events in chronological order, plus the total number
/// of events ever recorded (events beyond the capacity were overwritten).
pub fn events() -> (Vec<Event>, u64) {
    with_ring(|ring| {
        let mut out = Vec::with_capacity(ring.buf.len());
        let start = ring.written.saturating_sub(ring.buf.len() as u64);
        for i in start..ring.written {
            out.push(ring.buf[(i % ring.capacity as u64) as usize].clone());
        }
        (out, ring.written)
    })
}

pub(crate) fn reset_events() {
    with_ring(|ring| {
        ring.buf.clear();
        ring.written = 0;
    });
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
        let start_ns = t0.duration_since(epoch()).as_nanos() as u64;
        let start_us = start_ns / 1_000;
        let dur_ns = t0.elapsed().as_nanos() as u64;
        if let Some(k) = self.kernel {
            counters::record_kernel(k, dur_ns, self.flops, self.nnz_in, self.nnz_out, self.bytes);
        }
        ctxreg::add_span(self.ctx, dur_ns, self.flops);
        if crate::timeline::timeline_requested() {
            crate::timeline::record(self.name, start_ns, start_ns + dur_ns);
        }
        push_event(Event {
            name: self.name,
            kernel: self.kernel,
            ctx: self.ctx,
            thread: thread_tag(),
            start_us,
            dur_ns,
        });
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
        reset_events();
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
        reset_events();
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
        reset_events();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(5), "5ns");
        assert!(fmt_ns(1_500).contains("us"));
        assert!(fmt_ns(2_000_000).contains("ms"));
        assert!(fmt_ns(3_000_000_000).ends_with('s'));
    }
}
