//! Disabled-path overhead guard: running a real workload with telemetry
//! on must not be catastrophically slower than with telemetry off.
//!
//! This is a smoke bound, not a microbenchmark — CI machines are noisy,
//! so the budget is deliberately generous (obs-on may take several times
//! obs-off plus a fixed allowance). What it actually protects against is
//! the failure mode where an instrumentation change accidentally puts a
//! lock, a syscall, or an allocation on the hot path: those blow the
//! bound immediately, while honest counter/histogram updates stay well
//! inside it.
//!
//! The decision-provenance layer (`obs::events`) gets the same treatment:
//! one bound for the full events-on configuration, and a fast-path check
//! proving that with events opted out not a single event is recorded even
//! while the rest of telemetry runs.

use std::sync::Mutex;

use graphblas_bench::{median_secs, rmat_bool};
use graphblas_core::Mode;

/// The timing tests share process-global obs state (enabled flag, events
/// flag); serialize them so a parallel test run cannot interleave toggles.
static SERIALIZE: Mutex<()> = Mutex::new(());

#[test]
fn obs_on_overhead_is_bounded() {
    let _g = SERIALIZE.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_core::init(Mode::Blocking);
    let a = rmat_bool(7, 8, 7);

    let run = || {
        std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 25).expect("pagerank"));
    };

    // Warm caches and the workspace pool before either measurement.
    graphblas_obs::set_enabled(false);
    run();
    let t_off = median_secs(5, run);

    graphblas_obs::set_enabled(true);
    run();
    let t_on = median_secs(5, run);
    graphblas_obs::set_enabled(false);

    let budget = t_off * 5.0 + 0.050;
    assert!(
        t_on <= budget,
        "telemetry overhead out of bounds: obs-off {:.6}s, obs-on {:.6}s, budget {:.6}s",
        t_off,
        t_on,
        budget
    );
}

#[test]
fn events_on_overhead_is_bounded() {
    let _g = SERIALIZE.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_core::init(Mode::Blocking);
    let a = rmat_bool(7, 8, 7);

    let run = || {
        std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 25).expect("pagerank"));
    };

    graphblas_obs::set_enabled(false);
    run();
    let t_off = median_secs(5, run);

    // Full provenance configuration: telemetry + the decision event ring.
    graphblas_obs::set_enabled(true);
    graphblas_obs::events::set_events(true);
    run();
    let t_events = median_secs(5, run);
    assert!(
        graphblas_obs::events::total() > 0,
        "the workload must actually have recorded decision events"
    );
    graphblas_obs::set_enabled(false);

    // Same shape of bound as the base telemetry test: events are a few
    // relaxed atomics plus a push into the thread's own ring, so they
    // must fit the same generous envelope.
    let budget = t_off * 5.0 + 0.050;
    assert!(
        t_events <= budget,
        "decision-event overhead out of bounds: obs-off {:.6}s, events-on {:.6}s, budget {:.6}s",
        t_off,
        t_events,
        budget
    );
}

#[test]
fn events_off_fast_path_records_nothing() {
    let _g = SERIALIZE.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_core::init(Mode::Blocking);
    let a = rmat_bool(6, 8, 6);

    // Telemetry on, events opted out: counters and histograms still
    // collect, but the decision layer takes its two-relaxed-load fast
    // path and the ring must stay untouched.
    graphblas_obs::set_enabled(true);
    graphblas_obs::events::set_events(false);
    let before = graphblas_obs::events::total();
    std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 25).expect("pagerank"));
    let after = graphblas_obs::events::total();
    graphblas_obs::events::set_events(true);
    graphblas_obs::set_enabled(false);

    assert_eq!(
        after - before,
        0,
        "events-off run must not record any decision events"
    );
}
