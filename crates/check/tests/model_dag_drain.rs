//! Model-checks the nonblocking op-DAG drain protocol (paper §III):
//! background drains handed to the pool race `wait` barriers and readers
//! on the per-container mutex, and no interleaving may lose a stage,
//! apply one twice, or let `wait` return with work still queued.
//!
//! `DagState` mirrors the `Stage::Node` drain in
//! `graphblas_core::container` (`State::run_queue`) — a node flushes the
//! map run queued before it (node-barrier), then greedily consumes the
//! maps queued *after* it as its fused `post` run —
//! and `maybe_async_drain` is modeled by writers offering a drain task
//! once the queue depth crosses a threshold, exactly like the depth gate
//! in `Container::maybe_async_drain`.

use std::sync::Arc;

use graphblas_check::sched::{self, Config};
use graphblas_check::sync::{thread, Mutex};

/// A deferred stage: a fusible element map or an opaque op node.
#[derive(Clone, Copy)]
enum ModelStage {
    Map(u64),
    Node(u64),
}

/// Model twin of the state a container's lock guards, instrumented with
/// applied-exactly-once accounting.
struct DagState {
    pending: Vec<ModelStage>,
    materialized: u64,
    maps_applied: usize,
    nodes_applied: usize,
    /// Maps consumed as a node's fused post run (never re-applied).
    post_fused: usize,
    drains: usize,
}

impl DagState {
    fn new() -> Self {
        DagState {
            pending: Vec::new(),
            materialized: 0,
            maps_applied: 0,
            nodes_applied: 0,
            post_fused: 0,
            drains: 0,
        }
    }

    fn stage(&mut self, s: ModelStage) -> usize {
        self.pending.push(s);
        self.pending.len()
    }

    /// Mirrors `PendingQueue` drain with the node arm: the queue is taken
    /// whole under the lock, so a racing drain sees an empty queue, never
    /// a half-applied one.
    fn drain(&mut self) -> u64 {
        let pending = std::mem::take(&mut self.pending);
        if !pending.is_empty() {
            self.drains += 1;
        }
        let mut i = 0;
        while i < pending.len() {
            match pending[i] {
                ModelStage::Map(d) => {
                    self.materialized += d;
                    self.maps_applied += 1;
                    i += 1;
                }
                ModelStage::Node(d) => {
                    self.materialized += d;
                    self.nodes_applied += 1;
                    i += 1;
                    // The node's fused post run: trailing maps apply with
                    // the node, once, and are not revisited by the loop.
                    while let Some(ModelStage::Map(p)) = pending.get(i) {
                        self.materialized += p;
                        self.maps_applied += 1;
                        self.post_fused += 1;
                        i += 1;
                    }
                }
            }
        }
        self.materialized
    }
}

/// Two writers stage map/node chains while async drains (offered at the
/// depth threshold, like `maybe_async_drain`) race a reader and a final
/// `wait`: every stage lands exactly once and `wait` leaves nothing
/// queued.
#[test]
fn async_drains_race_wait_without_lost_or_double_applied_stages() {
    const DEPTH: usize = 2;
    let cfg = Config::default().schedules_from_env(1000);
    sched::explore(&cfg, || {
        let st = Arc::new(Mutex::named(DagState::new(), "vector-state"));
        let mut handles = Vec::new();
        for w in 0..2u64 {
            let st = Arc::clone(&st);
            handles.push(thread::spawn(move || {
                let chain = [
                    ModelStage::Map(1 + w),
                    ModelStage::Node(10),
                    ModelStage::Map(100),
                ];
                for s in chain {
                    let depth = st.lock().stage(s);
                    if depth >= DEPTH {
                        // maybe_async_drain: offer the backlog to the pool.
                        let bg = Arc::clone(&st);
                        thread::spawn(move || {
                            bg.lock().drain();
                        })
                        .join();
                    }
                }
            }));
        }
        // A reader forces the subgraph it needs mid-stream.
        {
            let st = Arc::clone(&st);
            handles.push(thread::spawn(move || {
                st.lock().drain();
            }));
        }
        for h in handles {
            h.join();
        }
        // wait(COMPLETE): a real barrier — drains whatever is left and
        // must observe a fully-applied, empty queue.
        let mut g = st.lock();
        let total = g.drain();
        assert_eq!(
            total, 223,
            "a stage was lost or double-applied across async drains"
        );
        assert_eq!(g.maps_applied, 4, "map stages must apply exactly once");
        assert_eq!(g.nodes_applied, 2, "node stages must apply exactly once");
        assert!(g.pending.is_empty(), "wait returned with stages queued");
    })
    .unwrap_or_else(|f| panic!("dag drain protocol failed: {f}"));
}

/// The fused-post invariant under racing drains: however the drains
/// interleave with the writer, a map is consumed either by its own map
/// run or as some node's post run — never both, and maps queued behind a
/// node in the same drain pass always ride that node.
#[test]
fn post_fusion_is_exactly_once_under_racing_drains() {
    let cfg = Config::default().schedules_from_env(1000);
    sched::explore(&cfg, || {
        let st = Arc::new(Mutex::named(DagState::new(), "vector-state"));
        let writer = {
            let st = Arc::clone(&st);
            thread::spawn(move || {
                st.lock().stage(ModelStage::Node(10));
                st.lock().stage(ModelStage::Map(100));
                st.lock().stage(ModelStage::Map(1000));
            })
        };
        let drainer = {
            let st = Arc::clone(&st);
            thread::spawn(move || {
                st.lock().drain();
            })
        };
        writer.join();
        drainer.join();
        let mut g = st.lock();
        g.drain();
        assert_eq!(g.materialized, 1110, "fused post run lost or re-applied a map");
        assert_eq!(g.nodes_applied, 1);
        assert_eq!(g.maps_applied, 2);
        // Whatever the interleaving, a map that drained in the same pass
        // as the node was fused behind it, and one drained later was not;
        // both paths apply it exactly once (checked by the totals above).
        assert!(g.post_fused <= 2);
        assert!(g.drains <= 2, "the queue is taken whole; at most one drain per backlog");
    })
    .unwrap_or_else(|f| panic!("post-fusion protocol failed: {f}"));
}
