//! Model-checks the `exec::sync` `WaitGroup` protocol via its
//! instrumented twin in `graphblas_check::sync` (kept in textual lockstep
//! with the production body — see the module docs on both sides).
//!
//! The `WaitGroup` is what `ThreadPool::scope` blocks on
//! (`ScopeState::wait`), so a lost `done()` here is a hung kernel there.

use std::sync::Arc;

use graphblas_check::sched::{self, Config};
use graphblas_check::sync::{thread, WaitGroup};

/// The scope protocol: `wait` returns only after every `done`, with
/// add/done racing the waiter — exactly how `ThreadPool::scope` uses it.
#[test]
fn waitgroup_scope_protocol_holds() {
    let cfg = Config::default().schedules_from_env(1000);
    sched::explore(&cfg, || {
        let wg = Arc::new(WaitGroup::new());
        let done = Arc::new(graphblas_check::sync::AtomicUsize::new(0));
        // Mirror scope: tasks are registered before the waiter can block.
        let workers: Vec<_> = (0..2)
            .map(|_| {
                wg.add(1);
                let wg = Arc::clone(&wg);
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    wg.done();
                })
            })
            .collect();
        wg.wait();
        // The invariant scope soundness rests on (§III): after wait()
        // every task body has fully executed.
        assert_eq!(
            done.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "wait returned before all tasks finished"
        );
        assert_eq!(wg.outstanding(), 0);
        for w in workers {
            w.join();
        }
    })
    .unwrap_or_else(|f| panic!("waitgroup protocol failed: {f}"));
}
