//! # graphblas-obs — runtime telemetry for `graphblas-rs`
//!
//! The GraphBLAS 2.0 nonblocking execution model (paper §III) lets the
//! implementation defer, reorder, and fuse operations, and the §V error
//! model defers execution errors until `wait` — so the *actual* work a
//! program performs is invisible at the call site. This crate makes it
//! visible without any external dependencies:
//!
//! * [`span`] / [`kernel_span`] — lightweight RAII spans recording
//!   wall-time, thread, and the active [`Context`](crate::ctxreg) id, with
//!   an opt-in `GRB_BURBLE`-style human-readable stderr narration
//!   (SuiteSparse's `GxB_BURBLE` analogue).
//! * [`counters`] — per-kernel invocation counts, flops, input/output nnz,
//!   and bytes moved; pending-queue depth, `Stage::Map` fusion hits vs.
//!   opaque drains; pool task spawns and park/wake counts.
//! * [`ctxreg`] — per-`Context` aggregation so the hierarchical thread
//!   budget story of §IV becomes inspectable: each context exposes its
//!   descendants' rolled-up statistics.
//! * [`hist`] — lock-free log₂-bucketed latency histograms per kernel
//!   family, surfacing interpolated p50/p90/p99/max tail latency.
//! * [`timeline`] — nested kernel phases, and the Chrome-trace/Perfetto
//!   export of every span and phase per thread (`GRB_TRACE=out.json`).
//! * [`mem`] — live-bytes / high-water gauges for container stores and
//!   the kernel workspace cache, attributed to the owning context.
//! * [`snapshot`] — a `GrB_get`-style introspection surface serializing to
//!   JSON through the hand-written writer in [`json`] (no serde).
//! * [`events`] — reason-coded decision provenance at every runtime
//!   choice point, exported for `grbexplain` (`GRB_EXPLAIN=out.json`).
//!
//! Spans, phases and decisions are records in one recorder: a bounded
//! ring per thread ([`RING_CAPACITY`] records, oldest overwritten). The
//! snapshot's span list, the Chrome trace and the explain history are
//! views over those rings, built when they are read; [`write_exports`]
//! writes the two files.
//!
//! Everything is read after the fact, per object or per process, the way
//! the paper's `GrB_error` and `GrB_get` are.
//!
//! ## Cost model
//!
//! Telemetry is **disabled by default**. Every instrumentation site in the
//! hot paths guards on [`enabled`], a single relaxed atomic load plus a
//! predictable branch, so the disabled fast path compiles to near-zero
//! cost. Enable at startup with `GRB_OBS=1` (counters + spans) or
//! `GRB_BURBLE=1` (additionally narrate every span to stderr), or at
//! runtime with [`set_enabled`] / [`set_burble`].
//!
//! ```
//! graphblas_obs::set_enabled(true);
//! {
//!     let mut s = graphblas_obs::kernel_span(graphblas_obs::Kernel::SpMv, 0);
//!     s.io(100, 50, 10, 1200); // flops, nnz_in, nnz_out, bytes
//! }
//! let snap = graphblas_obs::snapshot();
//! assert!(snap.kernels.iter().any(|k| k.kernel == graphblas_obs::Kernel::SpMv));
//! let _json = snap.to_json();
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub mod counters;
pub mod ctxreg;
pub mod events;
pub mod hist;
pub mod json;
pub mod mem;
mod recorder;
pub mod snapshot;
pub mod span;
pub mod timeline;

pub use counters::{
    DagTotals, DispatchTotals, FormatTotals, Kernel, KernelTotals, PendingTotals, PoolTotals,
    VecFormat, KERNEL_COUNT,
};
pub use ctxreg::{register_context, ContextStats, CtxTotals};
pub use events::{DecisionEvent, Explain, Reason, REASON_COUNT};
pub use hist::{HistTotals, KernelHist};
pub use json::JsonWriter;
pub use mem::MemTotals;
pub use recorder::RING_CAPACITY;
pub use snapshot::{snapshot, Snapshot};
pub use span::{kernel_span, span, span_ctx, Event, Span};
pub use timeline::{phase, Phase};

struct Flags {
    enabled: AtomicBool,
    burble: AtomicBool,
}

static FLAGS: OnceLock<Flags> = OnceLock::new();

fn env_truthy(var: &str) -> bool {
    std::env::var(var)
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false)
}

/// The path an export variable names, if it is set and not empty.
fn env_path(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|p| !p.is_empty())
}

fn flags() -> &'static Flags {
    FLAGS.get_or_init(|| {
        let burble = env_truthy("GRB_BURBLE");
        // An export request implies telemetry: the recorder only fills
        // while it is on, as does burble narration.
        let export = env_path("GRB_TRACE").is_some() || env_path("GRB_EXPLAIN").is_some();
        Flags {
            enabled: AtomicBool::new(burble || export || env_truthy("GRB_OBS")),
            burble: AtomicBool::new(burble),
        }
    })
}

/// Whether telemetry collection is on. This is the guard every
/// instrumentation site checks first; when `false` the instrumented code
/// paths do no other work.
#[inline]
pub fn enabled() -> bool {
    flags().enabled.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off at runtime. Turning it off does
/// not clear already-collected statistics (see [`reset`]).
pub fn set_enabled(on: bool) {
    // Advisory toggle: a racing reader may record or skip one extra span,
    // never corrupt state.
    flags().enabled.store(on, Ordering::Relaxed);
}

/// Whether burble narration (per-span stderr lines) is on.
#[inline]
pub fn burble() -> bool {
    flags().burble.load(Ordering::Relaxed)
}

/// Turns burble narration on or off. Enabling burble also enables
/// telemetry collection.
pub fn set_burble(on: bool) {
    if on {
        set_enabled(true);
    }
    // Advisory toggle, same contract as `set_enabled` above.
    flags().burble.store(on, Ordering::Relaxed);
}

/// Writes the exports whose variables are set: the Chrome trace of every
/// thread's regions to `GRB_TRACE=<path>` and the explain/v1 decision
/// history to `GRB_EXPLAIN=<path>`. Returns the paths written; a failed
/// write is reported to stderr, not fatal.
pub fn write_exports() -> Vec<String> {
    fn write(var: &str, render: fn() -> String) -> Option<String> {
        let path = env_path(var)?;
        match std::fs::write(&path, render()) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("[grb-obs] failed to write {var} file {path}: {e}");
                None
            }
        }
    }
    [
        write("GRB_TRACE", timeline::to_chrome_trace),
        write("GRB_EXPLAIN", || events::explain(usize::MAX).to_json()),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Zeroes every counter and histogram, empties every thread's ring and
/// zeroes the span and decision totals, resets per-context totals
/// (context registrations survive so names stay resolvable), and re-arms
/// the memory high-water marks at the current live figures (live bytes
/// are real state and are kept). Intended for tests and for bracketing a
/// measurement region.
pub fn reset() {
    counters::reset();
    hist::reset();
    span::reset();
    events::reset();
    recorder::reset();
    ctxreg::reset_totals();
    mem::reset_high_water();
}

/// Serializes tests that flip the global flags (they would race under the
/// parallel test runner otherwise).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_toggle() {
        let _g = crate::test_guard();
        set_enabled(true);
        assert!(enabled());
        set_burble(false);
        assert!(!burble());
        set_enabled(false);
        assert!(!enabled());
        // Burble implies enabled.
        set_burble(true);
        assert!(enabled() && burble());
        set_burble(false);
        set_enabled(false);
    }
}
