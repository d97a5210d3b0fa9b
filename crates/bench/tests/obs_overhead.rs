//! Disabled-path overhead guard: running a real workload with telemetry
//! on must not be catastrophically slower than with telemetry off.
//!
//! This is a smoke bound, not a microbenchmark — CI machines are noisy,
//! so the budget is deliberately generous (obs-on may take several times
//! obs-off plus a fixed allowance). What it actually protects against is
//! the failure mode where an instrumentation change accidentally puts a
//! lock, a syscall, or an allocation on the hot path: those blow the
//! bound immediately, while honest counter/histogram updates and pushes
//! into the thread's own ring stay well inside it.
//!
//! The off side gets a check of its own: with telemetry off, a run
//! records nothing at all — no span, no decision, no ring record.

use std::sync::Mutex;

use graphblas_bench::{median_secs, rmat_bool};
use graphblas_core::Mode;

/// The tests share process-global obs state (the enabled flag);
/// serialize them so a parallel test run cannot interleave toggles.
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

    // Telemetry on records everything: counters, histograms, and spans,
    // phases and decisions in the threads' rings.
    graphblas_obs::set_enabled(true);
    run();
    let t_on = median_secs(5, run);
    assert!(
        graphblas_obs::events::total() > 0,
        "the workload must actually have recorded decision events"
    );
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
fn obs_off_records_nothing() {
    let _g = SERIALIZE.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_core::init(Mode::Blocking);
    let a = rmat_bool(6, 8, 6);

    // Something in the rings first, so "unchanged" is not "still empty".
    graphblas_obs::set_enabled(true);
    std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 2).expect("pagerank"));
    graphblas_obs::set_enabled(false);

    let recorded = || {
        let snap = graphblas_obs::snapshot();
        (
            snap.events_total,
            snap.decisions_total,
            snap.events,
            graphblas_obs::events::recent(usize::MAX),
            graphblas_obs::timeline::to_chrome_trace(),
        )
    };
    let before = recorded();
    assert!(before.0 > 0 && before.1 > 0, "the warm-up must record");
    std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 25).expect("pagerank"));
    let after = recorded();

    assert_eq!(after.0, before.0, "obs-off run must not count a span");
    assert_eq!(after.1, before.1, "obs-off run must not count a decision");
    assert_eq!(after.2, before.2, "obs-off run must not add a span region");
    assert_eq!(after.3, before.3, "obs-off run must not add a decision");
    assert_eq!(after.4, before.4, "obs-off run must not add a region");
}
