//! Model-checks the §V pending-queue protocol: staged updates are drained
//! at read time under the container lock, applied exactly once, and a
//! deferred failure poisons the object (error recorded, queue cleared,
//! every later drain reports it without applying anything).
//!
//! `ModelState` mirrors the `State::drain_as` structure in
//! `graphblas_core::container` — take the queue, apply stages, on failure
//! record the error and drop the *rest* of the queue — with writers and
//! readers racing on the instrumented mutex so the checker can interleave
//! stage/drain/stage/drain arbitrarily.

use std::sync::Arc;

use graphblas_check::sched::{self, Config};
use graphblas_check::sync::{thread, Mutex};

/// A staged update: add `delta`, or fail (the model's singular value).
#[derive(Clone, Copy)]
enum Stage {
    Add(u64),
    Poison,
}

/// The model twin of the state a container's lock guards.
struct ModelState {
    pending: Vec<Stage>,
    materialized: u64,
    /// Count of drained stages — applied-exactly-once accounting.
    applied: usize,
    err: Option<&'static str>,
}

impl ModelState {
    fn new() -> Self {
        ModelState {
            pending: Vec::new(),
            materialized: 0,
            applied: 0,
            err: None,
        }
    }

    fn stage(&mut self, s: Stage) -> Result<(), &'static str> {
        if let Some(e) = self.err {
            return Err(e); // poisoned: §V says surface the deferred error
        }
        self.pending.push(s);
        Ok(())
    }

    /// Mirrors `container::State::drain_as`: drain everything or poison;
    /// never leave a partially-applied queue behind.
    fn drain(&mut self) -> Result<u64, &'static str> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let pending = std::mem::take(&mut self.pending);
        for s in pending {
            match s {
                Stage::Add(d) => {
                    self.materialized += d;
                    self.applied += 1;
                }
                Stage::Poison => {
                    self.err = Some("deferred failure");
                    // Queue already taken: remaining stages are dropped,
                    // which is exactly the §V "pending cleared" rule.
                    return Err("deferred failure");
                }
            }
        }
        Ok(self.materialized)
    }
}

/// Two writers stage, two readers drain-and-read concurrently: every
/// staged delta lands exactly once no matter the interleaving.
#[test]
fn concurrent_drains_apply_each_stage_exactly_once() {
    let cfg = Config::default().schedules_from_env(1000);
    sched::explore(&cfg, || {
        let st = Arc::new(Mutex::named(ModelState::new(), "matrix-state"));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let st = Arc::clone(&st);
                thread::spawn(move || {
                    st.lock().stage(Stage::Add(1 + w)).unwrap();
                    st.lock().stage(Stage::Add(10)).unwrap();
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let st = Arc::clone(&st);
                thread::spawn(move || st.lock().drain().unwrap())
            })
            .collect();
        for w in writers {
            w.join();
        }
        for r in readers {
            r.join();
        }
        let mut final_state = st.lock();
        let total = final_state.drain().unwrap();
        // 1 + 2 + 10 + 10, regardless of stage/drain interleaving.
        assert_eq!(total, 23, "a staged update was lost or double-applied");
        assert_eq!(final_state.applied, 4);
        assert!(final_state.pending.is_empty(), "drain left stages behind");
    })
    .unwrap_or_else(|f| panic!("pending-drain protocol failed: {f}"));
}

/// A poisoned drain clears the queue and every subsequent operation
/// surfaces the deferred error — no stage applied after the failure.
#[test]
fn deferred_error_poisons_across_threads() {
    let cfg = Config::default().schedules_from_env(1000);
    sched::explore(&cfg, || {
        let st = Arc::new(Mutex::named(ModelState::new(), "matrix-state"));
        {
            let mut g = st.lock();
            g.stage(Stage::Add(5)).unwrap();
            g.stage(Stage::Poison).unwrap();
            g.stage(Stage::Add(7)).unwrap(); // must never materialize
        }
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let st = Arc::clone(&st);
                thread::spawn(move || st.lock().drain())
            })
            .collect();
        let results: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
        assert!(
            results.iter().all(|r| r.is_err()),
            "every drain after the failure must report it: {results:?}"
        );
        let g = st.lock();
        assert_eq!(g.err, Some("deferred failure"));
        assert!(g.pending.is_empty(), "§V: poisoned object holds no pending");
        assert_eq!(g.materialized, 5, "stages after the failure leaked");
    })
    .unwrap_or_else(|f| panic!("deferred-error protocol failed: {f}"));
}
