//! The one recorder behind spans, phases and decisions: a bounded ring of
//! typed records per thread, and the registry that holds each thread's
//! tag, name and ring.
//!
//! A thread registers on its first record (or up front, through
//! [`crate::timeline::register_thread`]) and keeps an `Arc` to its entry
//! in TLS, so a push locks only the calling thread's own ring, which no
//! other thread touches until an export reads it. Each ring keeps the
//! newest [`RING_CAPACITY`] records, oldest overwritten, so memory is
//! fixed however long the program runs. The outputs are views over the
//! rings, built when they are read: [`crate::span::events`] (the span
//! regions), [`crate::timeline::to_chrome_trace`] (every region, per
//! thread) and [`crate::events::explain`] (the decisions, in seq order).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::counters::Kernel;
use crate::events::DecisionEvent;

/// Records kept per thread (regions and decisions together).
pub const RING_CAPACITY: usize = 16_384;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the telemetry epoch to `t`.
pub(crate) fn since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Nanoseconds from the telemetry epoch to now.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed region of work: a [`crate::Span`] (`span` set) or a
/// [`crate::Phase`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    pub name: &'static str,
    pub kernel: Option<Kernel>,
    pub ctx: u64,
    /// Nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Nanoseconds since the telemetry epoch (`>= start_ns`).
    pub end_ns: u64,
    pub span: bool,
}

/// One entry of a thread's ring. A decision's `thread` is filled in from
/// the ring's owner when it is read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Record {
    Region(Region),
    Decision(DecisionEvent),
}

struct Ring {
    buf: Vec<Record>,
    capacity: usize,
    /// Records ever pushed; the next write slot is `written % capacity`.
    written: u64,
}

impl Ring {
    fn push(&mut self, rec: Record) {
        let slot = (self.written % self.capacity as u64) as usize;
        if slot < self.buf.len() {
            self.buf[slot] = rec;
        } else {
            self.buf.push(rec);
        }
        self.written += 1;
    }

    /// Retained records in write order.
    fn chronological(&self) -> Vec<Record> {
        let start = self.written.saturating_sub(self.buf.len() as u64);
        (start..self.written)
            .map(|i| self.buf[(i % self.capacity as u64) as usize])
            .collect()
    }
}

struct Thread {
    tag: u32,
    name: String,
    ring: Mutex<Ring>,
}

static NEXT_TAG: AtomicU32 = AtomicU32::new(1);
static THREADS: Mutex<Vec<Arc<Thread>>> = Mutex::new(Vec::new());

thread_local! {
    static ME: Arc<Thread> = {
        let tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tag}"));
        let me = Arc::new(Thread {
            tag,
            name,
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                capacity: RING_CAPACITY,
                written: 0,
            }),
        });
        THREADS.lock().unwrap_or_else(|e| e.into_inner()).push(me.clone());
        me
    };
}

/// Registers the calling thread (tag, OS thread name, ring) if it is not
/// yet registered.
pub(crate) fn register_thread() {
    let _ = ME.try_with(|_| {});
}

/// Appends `rec` to the calling thread's ring. A thread-local destructor
/// may record after this thread's entry is gone (the workspace cache trims
/// itself at thread exit); that record is dropped, and the lifetime totals
/// kept beside the rings still count it.
pub(crate) fn push(rec: Record) {
    let _ = ME.try_with(|me| me.ring.lock().unwrap_or_else(|e| e.into_inner()).push(rec));
}

/// Every registered thread's `(tag, name, retained records oldest
/// first)`, ordered by tag.
pub(crate) fn threads() -> Vec<(u32, String, Vec<Record>)> {
    let threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<_> = threads
        .iter()
        .map(|t| {
            let ring = t.ring.lock().unwrap_or_else(|e| e.into_inner());
            (t.tag, t.name.clone(), ring.chronological())
        })
        .collect();
    out.sort_by_key(|(tag, _, _)| *tag);
    out
}

/// Resolves a thread tag recorded in a [`crate::Event`] or
/// [`DecisionEvent`] back to its name.
pub fn thread_name(tag: u32) -> Option<String> {
    let threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    threads
        .iter()
        .find(|t| t.tag == tag)
        .map(|t| t.name.clone())
}

/// Empties every ring (part of [`crate::reset`]); registrations survive.
pub(crate) fn reset() {
    for t in THREADS.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let mut ring = t.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.buf.clear();
        ring.written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{self, Reason};
    use crate::{kernel_span, span, timeline};

    fn region(i: u64) -> Record {
        Record::Region(Region {
            name: "x",
            kernel: None,
            ctx: 0,
            start_ns: i,
            end_ns: i + 1,
            span: false,
        })
    }

    fn decision(seq: u64) -> Record {
        Record::Decision(DecisionEvent {
            seq,
            reason: Reason::KernelPath,
            op: "x",
            detail: "",
            ctx: 0,
            thread: 0,
            t_us: seq,
            args: [0; 3],
        })
    }

    /// The key a record is written under in the tests below.
    fn key(rec: &Record) -> u64 {
        match rec {
            Record::Region(r) => r.start_ns,
            Record::Decision(d) => d.seq,
        }
    }

    #[test]
    fn ring_truncation_keeps_newest() {
        let mut r = Ring {
            buf: Vec::new(),
            capacity: 4,
            written: 0,
        };
        for i in 0..10u64 {
            r.push(if i % 2 == 0 { region(i) } else { decision(i) });
        }
        let kept: Vec<u64> = r.chronological().iter().map(key).collect();
        assert_eq!(kept, [6, 7, 8, 9]);
    }

    /// A worker as `exec::pool` starts one: named `grb-worker-<i>`,
    /// registered before its first record.
    #[test]
    fn a_pool_worker_records_span_phase_and_decision_in_one_ring() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        let tag = std::thread::Builder::new()
            .name("grb-worker-0".into())
            .spawn(|| {
                timeline::register_thread();
                let _s = kernel_span(Kernel::SpGemm, 0);
                std::thread::sleep(std::time::Duration::from_millis(1));
                events::decision_kernel_path("spgemm", 0, "worker-path", 3, 4);
                let _p = timeline::phase("spgemm.numeric");
                std::thread::sleep(std::time::Duration::from_millis(1));
                ME.with(|me| me.tag)
            })
            .unwrap()
            .join()
            .unwrap();
        crate::set_enabled(false);

        let spans: Vec<_> = crate::snapshot()
            .events
            .into_iter()
            .filter(|e| e.thread == tag)
            .collect();
        assert_eq!(spans.len(), 1, "the span once, the phase not: {spans:?}");
        assert_eq!(spans[0].kernel, Some(Kernel::SpGemm));
        assert_eq!(span::thread_name(tag).as_deref(), Some("grb-worker-0"));

        let json = timeline::to_chrome_trace();
        let at = |name: &str, ph: &str| {
            let pat = format!(
                "\"name\":\"{name}\",\"cat\":\"grb\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tag},"
            );
            json.find(&pat)
                .unwrap_or_else(|| panic!("no {ph} of {name} on tid {tag}: {json}"))
        };
        let (span_b, phase_b) = (at("spgemm", "B"), at("spgemm.numeric", "B"));
        let (phase_e, span_e) = (at("spgemm.numeric", "E"), at("spgemm", "E"));
        assert!(
            span_b < phase_b && phase_b < phase_e && phase_e < span_e,
            "{json}"
        );
        assert!(json.contains(&format!(
            "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tag},\"args\":{{\"name\":\"grb-worker-0\"}}"
        )));

        let ex = events::explain(usize::MAX);
        let mine: Vec<_> = ex
            .events
            .iter()
            .filter(|e| e.detail == "worker-path")
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].thread, tag);
        assert!(ex.to_json().contains(
            "\"reason\":\"kernel-path\",\"op\":\"spgemm\",\"ctx\":0,\"thread\":\"grb-worker-0\""
        ));
        crate::reset();
    }

    #[test]
    fn a_full_ring_keeps_the_newest_records_and_the_totals_count_all() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        // One thread of its own, so the ring holds this test's records only.
        let per_kind = RING_CAPACITY as u64;
        let tag = std::thread::spawn(move || {
            for i in 0..per_kind {
                let _s = span("fill.span");
                events::decision_kernel_path("fill", 0, "fill", i, 0);
            }
            ME.with(|me| me.tag)
        })
        .join()
        .unwrap();
        crate::set_enabled(false);

        let snap = crate::snapshot();
        assert_eq!(snap.events_total, per_kind);
        assert_eq!(snap.decisions_total, per_kind);
        assert_eq!(events::count(Reason::KernelPath), per_kind);
        let (_, _, kept) = threads().into_iter().find(|t| t.0 == tag).unwrap();
        assert_eq!(kept.len(), RING_CAPACITY);
        // Span and decision alternate, so the newest half of each kind is
        // retained, the last decision last.
        let decisions: Vec<u64> = kept
            .iter()
            .filter_map(|r| match r {
                Record::Decision(d) => Some(d.args[0]),
                Record::Region(_) => None,
            })
            .collect();
        assert_eq!(decisions.len(), RING_CAPACITY / 2);
        assert_eq!(decisions[0], per_kind - RING_CAPACITY as u64 / 2);
        assert_eq!(*decisions.last().unwrap(), per_kind - 1);
        let spans = snap.events.iter().filter(|e| e.thread == tag).count();
        assert_eq!(spans, crate::span::EVENT_CAPACITY.min(RING_CAPACITY / 2));
        assert_eq!(events::recent(usize::MAX).len(), RING_CAPACITY / 2);
        crate::reset();
    }
}
