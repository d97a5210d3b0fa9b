//! Per-thread timeline tracing with Chrome-trace export.
//!
//! While the event ring in [`crate::span`] answers *what ran recently*,
//! the timeline answers *when and on which thread*: every completed span
//! and every nested [`phase`] lands in a bounded per-thread ring of
//! `(name, start_ns, end_ns)` records, and [`to_chrome_trace`] serializes
//! the rings as Chrome-trace / Perfetto `trace_event` JSON — load the file
//! at `ui.perfetto.dev` (or `chrome://tracing`) to see pending-queue
//! drains, transpose builds, and push-vs-pull flips laid out on a real
//! time axis, the §III completion latitude made visible.
//!
//! Recording is off unless `GRB_TRACE` (an output path) or
//! `GRB_TIMELINE=1` is set, or [`set_timeline`] is called; it additionally
//! requires [`crate::enabled`]. Rings are bounded ([`TIMELINE_CAPACITY`]
//! records per thread, oldest overwritten) so always-on cost is
//! fixed. Because each thread's spans nest by RAII construction, export
//! emits begin/end pairs through an explicit stack — the output is
//! balanced per thread even when the ring has dropped old records.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonWriter;
use crate::span;

/// Per-thread timeline ring capacity (records, not bytes).
pub const TIMELINE_CAPACITY: usize = 8192;

/// One completed region on one thread's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlEvent {
    /// Region label (kernel name, phase name, …).
    pub name: &'static str,
    /// Thread tag, resolvable via [`span::thread_name`].
    pub thread: u32,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the telemetry epoch (`>= start_ns`).
    pub end_ns: u64,
}

// --- on/off knob ----------------------------------------------------------

static TIMELINE_ON: OnceLock<AtomicBool> = OnceLock::new();

fn timeline_flag() -> &'static AtomicBool {
    TIMELINE_ON.get_or_init(|| {
        let via_trace = std::env::var("GRB_TRACE").map(|v| !v.is_empty()).unwrap_or(false);
        AtomicBool::new(via_trace || crate::env_truthy("GRB_TIMELINE"))
    })
}

/// Whether timeline recording is requested. Recording also requires
/// [`crate::enabled`]; sites check [`on`] which combines both.
#[inline]
pub fn timeline_requested() -> bool {
    timeline_flag().load(Ordering::Relaxed)
}

/// Whether timeline records are being collected right now (telemetry on
/// *and* timeline requested). This is the guard every timeline site
/// checks; when collection is off it costs the two relaxed loads only.
#[inline]
pub fn on() -> bool {
    crate::enabled() && timeline_requested()
}

/// Turns timeline recording on or off at runtime. Turning it on does not
/// by itself enable telemetry (`set_enabled(true)` still gates).
pub fn set_timeline(on: bool) {
    // Advisory toggle: acting on a stale value loses at most one slice,
    // never correctness.
    timeline_flag().store(on, Ordering::Relaxed);
}

// --- per-thread rings -----------------------------------------------------

struct TlRing {
    buf: Vec<TlEvent>,
    capacity: usize,
    written: u64,
}

impl TlRing {
    fn push(&mut self, ev: TlEvent) {
        let slot = (self.written % self.capacity as u64) as usize;
        if slot < self.buf.len() {
            self.buf[slot] = ev;
        } else {
            self.buf.push(ev);
        }
        self.written += 1;
    }

    /// Retained records in chronological (write) order.
    fn chronological(&self) -> Vec<TlEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        let start = self.written.saturating_sub(self.buf.len() as u64);
        for i in start..self.written {
            out.push(self.buf[(i % self.capacity as u64) as usize]);
        }
        out
    }
}

/// All threads' rings. A thread registers once (lazily on first record,
/// or eagerly via [`register_thread`]) and keeps an `Arc` in TLS so the
/// hot path locks only its own ring.
static RINGS: Mutex<Vec<(u32, Arc<Mutex<TlRing>>)>> = Mutex::new(Vec::new());

thread_local! {
    static MY_RING: Arc<Mutex<TlRing>> = {
        let tag = span::thread_tag();
        let ring = Arc::new(Mutex::new(TlRing {
            buf: Vec::new(),
            capacity: TIMELINE_CAPACITY,
            written: 0,
        }));
        let mut rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        rings.push((tag, ring.clone()));
        ring
    };
}

/// Registers the calling thread with the timeline: assigns its thread tag
/// (capturing the OS thread name) and creates its ring, so worker threads
/// appear in trace metadata even before their first recorded region.
/// Called by `exec::pool` workers at startup; idempotent and cheap.
pub fn register_thread() {
    MY_RING.with(|_| {});
}

/// Appends one completed region to the calling thread's timeline. Callers
/// must guard on [`on`].
pub fn record(name: &'static str, start_ns: u64, end_ns: u64) {
    let thread = span::thread_tag();
    MY_RING.with(|ring| {
        let mut r = ring.lock().unwrap_or_else(|e| e.into_inner());
        r.push(TlEvent {
            name,
            thread,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    });
}

/// Copies every thread's retained records: `(thread tag, chronological
/// events)` per registered thread, ordered by tag.
pub fn events_by_thread() -> Vec<(u32, Vec<TlEvent>)> {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<(u32, Vec<TlEvent>)> = rings
        .iter()
        .map(|(tag, ring)| {
            let r = ring.lock().unwrap_or_else(|e| e.into_inner());
            (*tag, r.chronological())
        })
        .collect();
    out.sort_by_key(|(tag, _)| *tag);
    out
}

pub(crate) fn reset() {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    for (_, ring) in rings.iter() {
        let mut r = ring.lock().unwrap_or_else(|e| e.into_inner());
        r.buf.clear();
        r.written = 0;
    }
}

// --- phases ---------------------------------------------------------------

/// An RAII timeline region for a *phase inside* a kernel (spgemm
/// symbolic/numeric, mxv transpose-build, drain sub-steps, …). Unlike
/// [`span::Span`] it touches no counters — it exists purely to show up on
/// the timeline, so its disabled cost is the [`on`] check.
pub struct Phase {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a phase region; recorded on drop when the timeline is [`on`].
#[inline]
pub fn phase(name: &'static str) -> Phase {
    Phase {
        name,
        start: on().then(Instant::now),
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let epoch = span::epoch();
        let start_ns = t0.duration_since(epoch).as_nanos() as u64;
        let end_ns = epoch.elapsed().as_nanos() as u64;
        record(self.name, start_ns, end_ns);
    }
}

// --- Chrome-trace export --------------------------------------------------

/// Serializes every thread's timeline as Chrome-trace `trace_event` JSON
/// (the object form: `{"traceEvents": [...]}`), suitable for
/// `ui.perfetto.dev` and `chrome://tracing`.
///
/// Per thread, records are sorted by start ascending (end descending on
/// ties, so enclosing regions open first) and emitted as `B`/`E` pairs
/// through an explicit stack: an open region's `E` is emitted as soon as
/// a later region starts at or after its end. The stack guarantees the
/// output is balanced and properly nested per thread regardless of ring
/// truncation. A `M`etadata `thread_name` record labels each tid, and a
/// `thread_sort_index` record pins the track order (main thread first,
/// pool workers by index) so Perfetto lays threads out deterministically
/// instead of by registration arrival.
pub fn to_chrome_trace() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ns");
    w.key("traceEvents");
    w.begin_array();
    for (tag, mut evs) in events_by_thread() {
        let name = span::thread_name(tag).unwrap_or_else(|| format!("thread-{tag}"));
        w.begin_object();
        w.key("name");
        w.string("thread_name");
        w.key("ph");
        w.string("M");
        w.key("pid");
        w.number(1);
        w.key("tid");
        w.number(tag as u64);
        w.key("args");
        w.begin_object();
        w.key("name");
        w.string(&name);
        w.end_object();
        w.end_object();

        w.begin_object();
        w.key("name");
        w.string("thread_sort_index");
        w.key("ph");
        w.string("M");
        w.key("pid");
        w.number(1);
        w.key("tid");
        w.number(tag as u64);
        w.key("args");
        w.begin_object();
        w.key("sort_index");
        w.number(thread_sort_index(&name));
        w.end_object();
        w.end_object();

        evs.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.end_ns.cmp(&a.end_ns))
        });
        let mut stack: Vec<TlEvent> = Vec::new();
        for ev in evs {
            while let Some(top) = stack.last() {
                if top.end_ns <= ev.start_ns {
                    write_pair(&mut w, tag, *top, false);
                    stack.pop();
                } else {
                    break;
                }
            }
            write_pair(&mut w, tag, ev, true);
            stack.push(ev);
        }
        while let Some(top) = stack.pop() {
            write_pair(&mut w, tag, top, false);
        }
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The deterministic track order for a thread name: the main thread
/// first, `grb-worker-<i>` tracks by worker index, then everything else
/// (other named threads, unnamed tags) in one trailing bucket where
/// Perfetto falls back to tid order.
pub fn thread_sort_index(name: &str) -> u64 {
    if name == "main" {
        return 0;
    }
    match name
        .strip_prefix("grb-worker-")
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(i) => i + 1,
        None => 1_000_000,
    }
}

fn write_pair(w: &mut JsonWriter, tag: u32, ev: TlEvent, begin: bool) {
    w.begin_object();
    w.key("name");
    w.string(ev.name);
    w.key("cat");
    w.string("grb");
    w.key("ph");
    w.string(if begin { "B" } else { "E" });
    w.key("pid");
    w.number(1);
    w.key("tid");
    w.number(tag as u64);
    w.key("ts");
    let ns = if begin { ev.start_ns } else { ev.end_ns };
    w.number_f64(ns as f64 / 1000.0);
    w.end_object();
}

/// If `GRB_TRACE=<path>` is set, writes the Chrome trace there and
/// returns the path. Write failures are reported to stderr, not fatal.
pub fn write_trace_if_requested() -> Option<String> {
    let path = std::env::var("GRB_TRACE").ok().filter(|p| !p.is_empty())?;
    let json = to_chrome_trace();
    match std::fs::write(&path, &json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("[grb-obs] failed to write GRB_TRACE file {path}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_records_only_when_on() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        set_timeline(false);
        reset();
        {
            let p = phase("dead");
            assert!(p.start.is_none());
        }
        crate::set_enabled(true);
        set_timeline(true);
        {
            let _p = phase("live");
        }
        let evs = events_by_thread();
        let mine: Vec<_> = evs
            .iter()
            .flat_map(|(_, v)| v.iter())
            .filter(|e| e.name == "live" || e.name == "dead")
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "live");
        assert!(mine[0].end_ns >= mine[0].start_ns);
        crate::set_enabled(false);
        set_timeline(false);
        reset();
    }

    #[test]
    fn nested_phases_export_balanced() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_timeline(true);
        reset();
        {
            let _outer = phase("outer");
            let _inner = phase("inner");
        }
        let json = to_chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "unbalanced B/E pairs: {json}");
        assert!(b >= 2);
        // Inner opens after outer and closes before it.
        let outer_b = json.find("\"name\":\"outer\",\"cat\":\"grb\",\"ph\":\"B\"").unwrap();
        let inner_b = json.find("\"name\":\"inner\",\"cat\":\"grb\",\"ph\":\"B\"").unwrap();
        assert!(outer_b < inner_b, "outer must begin before inner: {json}");
        crate::set_enabled(false);
        set_timeline(false);
        reset();
    }

    #[test]
    fn sort_index_orders_main_then_workers() {
        assert_eq!(thread_sort_index("main"), 0);
        assert_eq!(thread_sort_index("grb-worker-0"), 1);
        assert_eq!(thread_sort_index("grb-worker-7"), 8);
        assert!(thread_sort_index("thread-3") > thread_sort_index("grb-worker-63"));
        assert!(thread_sort_index("grb-worker-nonnumeric") > 1000);
    }

    #[test]
    fn trace_carries_sort_index_metadata() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_timeline(true);
        reset();
        {
            let _p = phase("indexed");
        }
        let json = to_chrome_trace();
        assert!(
            json.contains("\"name\":\"thread_sort_index\",\"ph\":\"M\""),
            "missing sort-index metadata: {json}"
        );
        assert!(json.contains("\"sort_index\":"));
        let names = json.matches("\"name\":\"thread_name\"").count();
        let sorts = json.matches("\"name\":\"thread_sort_index\"").count();
        assert_eq!(names, sorts, "one sort-index record per thread track");
        crate::set_enabled(false);
        set_timeline(false);
        reset();
    }

    #[test]
    fn ring_truncation_keeps_newest() {
        let mut r = TlRing {
            buf: Vec::new(),
            capacity: 4,
            written: 0,
        };
        for i in 0..10u64 {
            r.push(TlEvent {
                name: "x",
                thread: 1,
                start_ns: i,
                end_ns: i + 1,
            });
        }
        let kept = r.chronological();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].start_ns, 6);
        assert_eq!(kept[3].start_ns, 9);
    }
}
