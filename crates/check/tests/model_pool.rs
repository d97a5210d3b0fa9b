//! Model-checks the thread pool's park/wake protocol (§III: the runtime
//! must be thread-safe; the pool is what runs every parallel kernel).
//!
//! `ModelQueue` mirrors `graphblas_exec::pool::JobQueue` line for line —
//! same `QueueState { jobs, closed, parked }` under one mutex, same
//! push/pop/close bodies — but over the instrumented primitives in
//! `graphblas_check::sync`, so [`sched::explore`] can drive every
//! sequentially-consistent interleaving of producers, consumers, and
//! shutdown.
//!
//! The `buggy_*` test seeds the historical failure mode the production
//! refactor forecloses (checking emptiness, releasing the lock, then
//! re-acquiring and waiting *without re-checking*): the checker finds the
//! lost-wakeup deadlock within the smoke budget and replays it from the
//! reported seed — the determinism acceptance criterion.

use std::collections::VecDeque;
use std::sync::Arc;

use graphblas_check::sched::{self, Config, Policy};
use graphblas_check::sync::{thread, Condvar, Mutex};

/// Guarded queue state — the model twin of `pool::QueueState`.
struct QState {
    jobs: VecDeque<u32>,
    closed: bool,
    parked: usize,
}

/// The model twin of `pool::JobQueue`. Keep the method bodies textually
/// parallel to the production ones: that parallelism is what makes a pass
/// here evidence about the shipped protocol.
struct ModelQueue {
    state: Mutex<QState>,
    available: Condvar,
}

impl ModelQueue {
    fn new() -> Self {
        ModelQueue {
            state: Mutex::named(
                QState {
                    jobs: VecDeque::new(),
                    closed: false,
                    parked: 0,
                },
                "job-queue",
            ),
            available: Condvar::new(),
        }
    }

    fn push(&self, job: u32) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.jobs.push_back(job);
        let _would_wake = st.parked > 0; // the obs "wake" decision point
        drop(st);
        self.available.notify_one();
    }

    fn pop(&self) -> Option<u32> {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st.parked += 1;
            st = self.available.wait(st);
            st.parked -= 1;
        }
    }

    /// The seeded bug: re-check-free waiting. Between `drop(st)` and the
    /// re-acquired `wait`, a producer can push *and* notify into an empty
    /// waiter set; this consumer then sleeps on a wakeup that already
    /// happened. The production `pop` above forecloses this by re-checking
    /// under the same critical section it waits in.
    fn buggy_pop(&self) -> Option<u32> {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            drop(st);
            let reacquired = self.state.lock();
            st = self.available.wait(reacquired);
        }
    }

    fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.available.notify_all();
    }
}

/// Every produced job is consumed exactly once and shutdown terminates all
/// workers, across the full smoke budget of schedules.
#[test]
fn park_wake_protocol_delivers_all_jobs() {
    let cfg = Config::default().schedules_from_env(1000);
    let stats = sched::explore(&cfg, || {
        let q = Arc::new(ModelQueue::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(j) = q.pop() {
                        got.push(j);
                    }
                    got
                })
            })
            .collect();
        for j in 0..3 {
            q.push(j);
        }
        q.close();
        let mut all: Vec<u32> = workers.into_iter().flat_map(|w| w.join()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "every job exactly once");
    })
    .unwrap_or_else(|f| panic!("pool protocol failed: {f}"));
    assert!(stats.schedules >= 1);
}

/// The same protocol under PCT scheduling (priority-based preemption
/// bounding), which reaches orderings a uniform random walk visits rarely.
#[test]
fn park_wake_protocol_survives_pct() {
    let mut cfg = Config::default().schedules_from_env(500);
    cfg.policy = Policy::Pct { depth: 3 };
    sched::explore(&cfg, || {
        let q = Arc::new(ModelQueue::new());
        let w = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut n = 0u32;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            })
        };
        q.push(7);
        q.push(8);
        q.close();
        assert_eq!(w.join(), 2);
    })
    .unwrap_or_else(|f| panic!("pool protocol failed under PCT: {f}"));
}

/// The checker finds the seeded lost-wakeup bug and reproduces it
/// deterministically from the reported seed.
#[test]
fn buggy_unlocked_park_check_loses_wakeups() {
    let body = || {
        let q = Arc::new(ModelQueue::new());
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.buggy_pop())
        };
        // One job, one notify, no close: a correct consumer always gets the
        // job; the buggy one can sleep through the only wakeup.
        q.push(42);
        assert_eq!(consumer.join(), Some(42));
    };
    let cfg = Config::default().schedules_from_env(1000);
    let failure =
        sched::explore(&cfg, body).expect_err("exploration must find the lost-wakeup interleaving");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {}",
        failure.message
    );
    // Replay-from-seed: the exact interleaving, hence the exact report.
    let replayed = sched::replay(failure.seed, cfg.policy, cfg.max_steps, body)
        .expect_err("replaying the failing seed must fail again");
    assert_eq!(replayed, failure.message, "replay is deterministic");
}
