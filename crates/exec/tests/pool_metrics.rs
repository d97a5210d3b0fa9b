//! The pool's telemetry: what a scope records when collection is on, and
//! that it records nothing when it is off.
//!
//! The counters are process-global, so these tests live in their own
//! binary, where nothing else spawns tasks, and run one at a time on one
//! lock. A delta read around a scope is then exactly that scope's.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use graphblas_exec::ThreadPool;
use graphblas_obs::{snapshot, PoolTotals};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `work` with collection on; returns the pool counters before and
/// after it.
fn enabled_delta(work: impl FnOnce()) -> (PoolTotals, PoolTotals) {
    let before = snapshot().pool;
    graphblas_obs::set_enabled(true);
    work();
    let after = snapshot().pool;
    graphblas_obs::set_enabled(false);
    (before, after)
}

#[test]
fn pool_activity_is_counted_when_enabled() {
    let _g = serial();
    let pool = ThreadPool::new(2);
    let (before, after) = enabled_delta(|| {
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| std::hint::black_box(()));
            }
        })
    });
    assert_eq!(after.scopes - before.scopes, 1);
    assert_eq!(after.tasks_spawned - before.tasks_spawned, 8);
}

#[test]
fn scheduler_metrics_are_recorded_when_enabled() {
    let _g = serial();
    let pool = ThreadPool::new(2);
    let (before, after) = enabled_delta(|| {
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| std::thread::sleep(Duration::from_micros(200)));
            }
        })
    });
    assert_eq!(after.jobs_queued - before.jobs_queued, 16);
    assert_eq!(after.jobs_dequeued - before.jobs_dequeued, 16);
    assert_eq!(after.tasks_completed - before.tasks_completed, 16);
    assert!(
        after.task_wait_ns > before.task_wait_ns,
        "wait time must accrue"
    );
    assert!(
        after.task_run_ns - before.task_run_ns >= 16 * 200_000,
        "every task's sleep must be in the run time"
    );
    assert!(after.queue_depth_max >= 1, "16 pushes must register depth");
}

#[test]
fn a_finished_scope_has_recorded_its_task() {
    let _g = serial();
    let pool = ThreadPool::new(2);
    for _ in 0..200 {
        let (before, after) = enabled_delta(|| pool.scope(|s| s.spawn(|| {})));
        assert_eq!(after.tasks_completed - before.tasks_completed, 1);
    }
}

#[test]
fn scheduler_metrics_silent_when_disabled() {
    let _g = serial();
    graphblas_obs::set_enabled(false);
    let before = snapshot().pool;
    let pool = ThreadPool::new(2);
    pool.scope(|s| {
        for _ in 0..8 {
            s.spawn(|| std::hint::black_box(()));
        }
    });
    let after = snapshot().pool;
    assert_eq!(after.jobs_queued, before.jobs_queued);
    assert_eq!(after.tasks_completed, before.tasks_completed);
    assert_eq!(after.task_run_ns, before.task_run_ns);
}
