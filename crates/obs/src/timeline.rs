//! Per-thread timelines with Chrome-trace export.
//!
//! While [`crate::span::events`] answers *what ran recently*, the timeline
//! answers *when and on which thread*: every completed span and every
//! nested [`phase`] is a region in its thread's ring, and
//! [`to_chrome_trace`] serializes the regions as Chrome-trace / Perfetto
//! `trace_event` JSON — load the file at `ui.perfetto.dev` (or
//! `chrome://tracing`) to see pending-queue drains, transpose builds, and
//! push-vs-pull flips laid out on a real time axis, the §III completion
//! latitude made visible.
//!
//! Phases record whenever [`crate::enabled`] is on; `GRB_TRACE=<path>`
//! turns telemetry on and names the file [`crate::write_exports`] writes.
//! Each thread's ring keeps its newest records, so a long run's trace
//! shows its end. Because each thread's regions nest by RAII
//! construction, export emits begin/end pairs through an explicit stack —
//! the output is balanced per thread even when the ring has dropped old
//! records.

use std::time::Instant;

use crate::json::JsonWriter;
use crate::recorder::{self, Record, Region};

/// Registers the calling thread with the recorder: assigns its thread tag
/// (capturing the OS thread name) and creates its ring, so worker threads
/// appear in trace metadata even before their first recorded region.
/// Called by `exec::pool` workers at startup; idempotent and cheap.
pub fn register_thread() {
    recorder::register_thread();
}

// --- phases ---------------------------------------------------------------

/// An RAII timeline region for a *phase inside* a kernel (spgemm
/// symbolic/numeric, mxv transpose-build, drain sub-steps, …). Unlike
/// [`crate::span::Span`] it touches no counters — it exists purely to show
/// up on the timeline, so its disabled cost is the [`crate::enabled`]
/// check.
pub struct Phase {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a phase region; recorded on drop when telemetry is enabled.
#[inline]
pub fn phase(name: &'static str) -> Phase {
    Phase {
        name,
        start: crate::enabled().then(Instant::now),
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let start_ns = recorder::since_epoch(t0);
        recorder::push(Record::Region(Region {
            name: self.name,
            kernel: None,
            ctx: 0,
            start_ns,
            end_ns: recorder::now_ns().max(start_ns),
            span: false,
        }));
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
    for (tag, name, recs) in recorder::threads() {
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

        let mut evs: Vec<Region> = recs
            .into_iter()
            .filter_map(|rec| match rec {
                Record::Region(r) => Some(r),
                Record::Decision(_) => None,
            })
            .collect();
        evs.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        let mut stack: Vec<Region> = Vec::new();
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

fn write_pair(w: &mut JsonWriter, tag: u32, ev: Region, begin: bool) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_records_only_when_on() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        crate::reset();
        {
            let p = phase("dead");
            assert!(p.start.is_none());
        }
        crate::set_enabled(true);
        {
            let _p = phase("live");
        }
        let mine: Vec<Region> = recorder::threads()
            .into_iter()
            .flat_map(|(_, _, recs)| recs)
            .filter_map(|rec| match rec {
                Record::Region(r) if r.name == "live" || r.name == "dead" => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "live");
        assert!(mine[0].end_ns >= mine[0].start_ns);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn nested_phases_export_balanced() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
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
        let outer_b = json
            .find("\"name\":\"outer\",\"cat\":\"grb\",\"ph\":\"B\"")
            .unwrap();
        let inner_b = json
            .find("\"name\":\"inner\",\"cat\":\"grb\",\"ph\":\"B\"")
            .unwrap();
        assert!(outer_b < inner_b, "outer must begin before inner: {json}");
        crate::set_enabled(false);
        crate::reset();
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
        crate::reset();
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
        crate::reset();
    }
}
