//! Schedule-instrumented synchronization primitives — the model-world
//! mirror of `graphblas_exec::sync`.
//!
//! Every type here exposes the same API shape as its `exec::sync`
//! counterpart (`Mutex` returns a guard from `lock()`, `Condvar::wait`
//! consumes and returns the guard, `WaitGroup` is a line-for-line
//! re-implementation of the production algorithm), but every acquire,
//! wait, notify, and atomic access is a *yield point* of the
//! [`crate::sched`] scheduler. Running a protocol against these primitives
//! under [`crate::sched::explore`] therefore explores its sequentially-
//! consistent interleavings deterministically.
//!
//! **Keep `exec::sync` and this module in lockstep.** When a primitive
//! gains an operation in one place it must gain it in the other, and the
//! `WaitGroup` body must stay textually parallel to the production one so
//! that model-checking it actually checks the shipped algorithm. (The
//! model checker cannot instrument `exec::sync` directly — those
//! primitives wrap `std::sync`, whose blocking the scheduler cannot see —
//! so fidelity is by construction, enforced by review and by this comment
//! on both sides.)
//!
//! Differences from real primitives, by design:
//!
//! * no spurious condvar wakeups (the model only wakes on notify), so a
//!   protocol that *requires* spurious-wakeup tolerance must be tested
//!   natively too;
//! * no poisoning — a model-thread panic aborts the whole schedule and is
//!   reported by the scheduler instead;
//! * atomic *interleavings* are sequentially consistent regardless of the
//!   requested ordering (the checker explores interleavings, not weak
//!   memory) — but the **happens-before edges** recorded for the
//!   vector-clock race detector honor the ordering the call site actually
//!   requested: a release-or-stronger store publishes the writer's clock,
//!   an acquire-or-stronger load joins it, and a relaxed access transfers
//!   nothing. [`RaceCell`] uses those clocks to flag unordered conflicting
//!   accesses to plain shared memory, so an "unsynchronized publish"
//!   protocol bug surfaces as a deterministic, seed-replayable data-race
//!   report even though every explored interleaving is SC.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

use crate::sched;

/// A mutual-exclusion lock whose acquire is a scheduling point and whose
/// contention is visible to the deadlock detector.
pub struct Mutex<T> {
    id: usize,
    /// Whether a model thread currently holds the lock.
    held: StdMutex<bool>,
    data: StdMutex<T>,
}

/// RAII guard for [`Mutex`]; releasing wakes blocked acquirers.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new model mutex. `name` labels deadlock reports.
    pub fn new(value: T) -> Self {
        Mutex {
            id: sched::new_resource_id(),
            held: StdMutex::new(false),
            data: StdMutex::new(value),
        }
    }

    /// Names this mutex in deadlock reports.
    pub fn named(value: T, name: &str) -> Self {
        let m = Mutex::new(value);
        let (k, _) = sched::current();
        k.name_resource(m.id, name);
        m
    }

    /// Acquires the lock, blocking (in model time) while another thread
    /// holds it. A scheduling point.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (k, me) = sched::current();
        loop {
            k.yield_point(me);
            {
                let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
                if !*held {
                    *held = true;
                    break;
                }
            }
            k.block_on(me, self.id);
        }
        k.vc_acquire(me, self.id);
        MutexGuard {
            lock: self,
            inner: Some(self.data.lock().unwrap_or_else(|p| p.into_inner())),
        }
    }

    /// Releases the lock and marks blocked acquirers runnable. NOT a
    /// scheduling point — release-then-block sequences (condvar wait) must
    /// be atomic in model time, exactly as `pthread_cond_wait` is.
    fn release(&self) {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        *held = false;
        drop(held);
        let (k, me) = sched::current();
        k.vc_release(me, self.id);
        k.wake_all_on(self.id);
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds data until drop")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds data until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.lock.release();
        }
    }
}

/// A condition variable over [`Mutex`]; `notify_one` picks its waiter with
/// the schedule's seeded PRNG, so *which* thread wins a wakeup is part of
/// the explored interleaving.
pub struct Condvar {
    id: usize,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Self {
        Condvar {
            id: sched::new_resource_id(),
        }
    }

    /// Atomically (in model time) releases the guard's mutex and blocks
    /// until notified; reacquires before returning. Never wakes spuriously.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let (k, me) = sched::current();
        let mutex = guard.lock;
        // Release without a scheduling point: nothing may interleave
        // between "release the mutex" and "become a waiter", or the model
        // itself would invent lost wakeups that real condvars exclude.
        drop(guard.inner.take());
        mutex.release();
        k.block_on(me, self.id);
        // Waking implies a notifier released its clock into this condvar;
        // join it so notify → wakeup is a happens-before edge.
        k.vc_acquire(me, self.id);
        mutex.lock()
    }

    /// Wakes one waiter (chosen by the schedule's PRNG); a no-op when no
    /// thread is waiting — which is exactly how wakeups get lost.
    pub fn notify_one(&self) {
        let (k, me) = sched::current();
        k.yield_point(me);
        k.vc_release(me, self.id);
        k.wake_one_on(self.id);
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        let (k, me) = sched::current();
        k.yield_point(me);
        k.vc_release(me, self.id);
        k.wake_all_on(self.id);
    }
}

// ---------------------------------------------------------------------------
// Model atomics
// ---------------------------------------------------------------------------

/// Whether `order` carries a release edge (publishes the writer's clock).
/// Spelled as a positive match so the weakest ordering's literal token
/// never appears in non-test code.
fn transfers_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Whether `order` carries an acquire edge (joins prior releasers' clocks).
fn transfers_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Model atomic; every access is a scheduling point. Interleavings are
/// sequentially consistent regardless of the requested `Ordering`, but the
/// happens-before edges recorded for [`RaceCell`] honor it: only
/// release-or-stronger writes publish, only acquire-or-stronger reads
/// observe. A relaxed publish therefore leaves the reader's clock behind
/// and any dependent plain access is reported as a data race.
pub struct AtomicUsize {
    id: usize,
    v: StdMutex<usize>,
}

impl AtomicUsize {
    pub fn new(v: usize) -> Self {
        AtomicUsize {
            id: sched::new_resource_id(),
            v: StdMutex::new(v),
        }
    }

    fn cell(&self) -> StdMutexGuard<'_, usize> {
        self.v.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn load(&self, order: Ordering) -> usize {
        let (k, me) = sched::current();
        k.yield_point(me);
        if transfers_acquire(order) {
            k.vc_acquire(me, self.id);
        }
        *self.cell()
    }

    pub fn store(&self, val: usize, order: Ordering) {
        let (k, me) = sched::current();
        k.yield_point(me);
        if transfers_release(order) {
            k.vc_release(me, self.id);
        }
        *self.cell() = val;
    }

    pub fn fetch_add(&self, val: usize, order: Ordering) -> usize {
        let (k, me) = sched::current();
        k.yield_point(me);
        if transfers_acquire(order) {
            k.vc_acquire(me, self.id);
        }
        if transfers_release(order) {
            k.vc_release(me, self.id);
        }
        let mut c = self.cell();
        let old = *c;
        *c = old.wrapping_add(val);
        old
    }
}

/// Model boolean atomic (see [`AtomicUsize`] for the ordering contract).
pub struct AtomicBool {
    id: usize,
    v: StdMutex<bool>,
}

impl AtomicBool {
    pub fn new(v: bool) -> Self {
        AtomicBool {
            id: sched::new_resource_id(),
            v: StdMutex::new(v),
        }
    }

    pub fn load(&self, order: Ordering) -> bool {
        let (k, me) = sched::current();
        k.yield_point(me);
        if transfers_acquire(order) {
            k.vc_acquire(me, self.id);
        }
        *self.v.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn store(&self, val: bool, order: Ordering) {
        let (k, me) = sched::current();
        k.yield_point(me);
        if transfers_release(order) {
            k.vc_release(me, self.id);
        }
        *self.v.lock().unwrap_or_else(|p| p.into_inner()) = val;
    }
}

// ---------------------------------------------------------------------------
// RaceCell — vector-clock data-race detection on plain shared memory
// ---------------------------------------------------------------------------

/// Epoch bookkeeping of one [`RaceCell`]: the last write and the reads
/// since it, each stamped `(thread, that thread's clock component)`.
struct RaceState<T> {
    value: T,
    /// Last write epoch, if any write happened yet.
    write: Option<(usize, u64)>,
    /// Read epochs since the last write; at most one entry per thread.
    reads: Vec<(usize, u64)>,
}

/// A plain (unlocked, non-atomic) shared-memory cell watched by the
/// vector-clock race detector.
///
/// Model a `T` that production code shares *without* synchronization — a
/// payload published through a flag, a field guarded "by convention" — as
/// a `RaceCell<T>`. Every [`read`](RaceCell::read) and
/// [`write`](RaceCell::write) is a scheduling point that is checked
/// against the schedule's happens-before relation ([FastTrack]-style
/// epochs over the kernel's vector clocks): two conflicting accesses with
/// no connecting fork/join/lock/acquire-release path fail the schedule
/// with a deterministic `data race` report, reproducible byte-for-byte by
/// replaying the seed.
///
/// The cell's own internal mutex only makes the *metadata* update atomic;
/// it deliberately creates no model-visible happens-before edge, so it
/// never masks the race it exists to detect.
///
/// [FastTrack]: https://doi.org/10.1145/1543135.1542490
pub struct RaceCell<T> {
    name: String,
    state: StdMutex<RaceState<T>>,
}

impl<T: Clone> RaceCell<T> {
    /// Creates a cell holding `value`; `name` labels race reports.
    pub fn new(value: T, name: &str) -> Self {
        RaceCell {
            name: name.to_string(),
            state: StdMutex::new(RaceState {
                value,
                write: None,
                reads: Vec::new(),
            }),
        }
    }

    fn lock_state(&self) -> StdMutexGuard<'_, RaceState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reads the value. Fails the schedule if the last write is not
    /// ordered before this read by happens-before.
    pub fn read(&self) -> T {
        let (k, me) = sched::current();
        k.yield_point(me);
        let mut st = self.lock_state();
        if let Some((w, when)) = st.write {
            if w != me && !k.vc_hb(me, w, when) {
                drop(st);
                k.detector_fail(format!(
                    "data race on `{}`: read by thread {me} is unordered \
                     with write by thread {w} (no happens-before edge)",
                    self.name
                ));
            }
        }
        let epoch = k.vc_epoch(me);
        match st.reads.iter_mut().find(|(t, _)| *t == me) {
            Some(r) => r.1 = epoch,
            None => st.reads.push((me, epoch)),
        }
        st.value.clone()
    }

    /// Writes the value. Fails the schedule if the last write, or any read
    /// since it, is not ordered before this write by happens-before.
    pub fn write(&self, value: T) {
        let (k, me) = sched::current();
        k.yield_point(me);
        let mut st = self.lock_state();
        if let Some((w, when)) = st.write {
            if w != me && !k.vc_hb(me, w, when) {
                drop(st);
                k.detector_fail(format!(
                    "data race on `{}`: write by thread {me} is unordered \
                     with write by thread {w} (no happens-before edge)",
                    self.name
                ));
            }
        }
        let racy_read = st
            .reads
            .iter()
            .copied()
            .find(|&(r, when)| r != me && !k.vc_hb(me, r, when));
        if let Some((r, _)) = racy_read {
            drop(st);
            k.detector_fail(format!(
                "data race on `{}`: write by thread {me} is unordered \
                 with read by thread {r} (no happens-before edge)",
                self.name
            ));
        }
        st.write = Some((me, k.vc_epoch(me)));
        st.reads.clear();
        st.value = value;
    }
}

// ---------------------------------------------------------------------------
// WaitGroup — line-for-line mirror of `graphblas_exec::sync::WaitGroup`
// ---------------------------------------------------------------------------

/// Model mirror of `exec::sync::WaitGroup` (kept textually parallel so
/// that model-checking this type checks the shipped algorithm): counts
/// outstanding tasks; `wait` blocks until zero.
pub struct WaitGroup {
    count: Mutex<usize>,
    all_done: Condvar,
}

impl WaitGroup {
    pub fn new() -> Self {
        WaitGroup {
            count: Mutex::new(0),
            all_done: Condvar::new(),
        }
    }

    /// Registers `n` outstanding tasks.
    pub fn add(&self, n: usize) {
        let mut c = self.count.lock();
        *c += n;
    }

    /// Marks one task complete; wakes waiters when the count hits zero.
    pub fn done(&self) {
        let mut c = self.count.lock();
        match c.checked_sub(1) {
            Some(next) => *c = next,
            None => panic!("WaitGroup::done called more times than add"),
        }
        let zero = *c == 0;
        drop(c);
        if zero {
            self.all_done.notify_all();
        }
    }

    /// Blocks until the outstanding count is zero.
    pub fn wait(&self) {
        let mut c = self.count.lock();
        while *c != 0 {
            c = self.all_done.wait(c);
        }
    }

    /// Current outstanding count (racy by nature; for introspection).
    pub fn outstanding(&self) -> usize {
        *self.count.lock()
    }
}

impl Default for WaitGroup {
    fn default() -> Self {
        WaitGroup::new()
    }
}

// ---------------------------------------------------------------------------
// Model threads
// ---------------------------------------------------------------------------

/// Model-thread spawning, mirroring `std::thread` far enough for the
/// checked protocols.
pub mod thread {
    use std::sync::{Arc, Mutex as StdMutex};

    use crate::sched;

    /// Handle to a spawned model thread.
    pub struct JoinHandle<T> {
        idx: usize,
        result: Arc<StdMutex<Option<T>>>,
    }

    /// Spawns `f` as a new model thread. The spawner yields immediately
    /// after, giving the scheduler the chance to run the child first.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (k, me) = sched::current();
        let result = Arc::new(StdMutex::new(None));
        let slot = result.clone();
        let idx = sched::spawn_model_thread(&k, format!("spawned-by-{me}"), move || {
            let out = f();
            *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
        });
        k.yield_point(me);
        JoinHandle { idx, result }
    }

    impl<T> JoinHandle<T> {
        /// Blocks (in model time) until the thread finishes; returns its
        /// result.
        pub fn join(self) -> T {
            let (k, me) = sched::current();
            // No scheduling point between the finished-check and the
            // block: we hold the token throughout, so the target cannot
            // finish in between (which would lose the wakeup).
            while !k.is_finished(self.idx) {
                k.block_on(me, sched::join_resource(self.idx));
            }
            // Everything the joined thread did happens-before this return.
            k.vc_join_with(me, self.idx);
            self.result
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
                .expect("joined model thread produced no result (it panicked)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore, replay, Config, Policy};
    use std::sync::Arc;

    #[test]
    fn mutex_provides_mutual_exclusion() {
        let cfg = Config {
            schedules: 50,
            ..Config::default()
        };
        explore(&cfg, || {
            let m = Arc::new(Mutex::new(0u32));
            let mut hs = Vec::new();
            for _ in 0..3 {
                let m = m.clone();
                hs.push(thread::spawn(move || {
                    let mut g = m.lock();
                    let v = *g;
                    // A yield inside the critical section tempts the
                    // scheduler to interleave; mutual exclusion must hold.
                    let (k, me) = sched::current();
                    k.yield_point(me);
                    *g = v + 1;
                }));
            }
            for h in hs {
                h.join();
            }
            assert_eq!(*m.lock(), 3);
        })
        .unwrap();
    }

    #[test]
    fn waitgroup_synchronizes() {
        let cfg = Config {
            schedules: 50,
            ..Config::default()
        };
        explore(&cfg, || {
            let wg = Arc::new(WaitGroup::new());
            let flag = Arc::new(AtomicBool::new(false));
            wg.add(1);
            let (wg2, flag2) = (wg.clone(), flag.clone());
            let h = thread::spawn(move || {
                flag2.store(true, Ordering::Release);
                wg2.done();
            });
            wg.wait();
            // wait() returning means done() ran, so the store is visible.
            assert!(flag.load(Ordering::Acquire));
            h.join();
        })
        .unwrap();
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        // Two threads each wait on a condvar nobody signals.
        let err = replay(11, Policy::RandomWalk, 5_000, || {
            let m = Arc::new(Mutex::new(()));
            let cv = Arc::new(Condvar::new());
            let (m2, cv2) = (m.clone(), cv.clone());
            let h = thread::spawn(move || {
                let g = m2.lock();
                let _g = cv2.wait(g);
            });
            let g = m.lock();
            let _g = cv.wait(g);
            h.join();
        })
        .unwrap_err();
        assert!(err.contains("deadlock"), "got: {err}");
    }

    #[test]
    fn racecell_unordered_writes_are_a_race() {
        let cfg = Config {
            schedules: 10,
            ..Config::default()
        };
        let failure = explore(&cfg, || {
            let c = Arc::new(RaceCell::new(0u32, "cell"));
            let c2 = c.clone();
            let h = thread::spawn(move || c2.write(1));
            c.write(2);
            h.join();
        })
        .unwrap_err();
        assert!(
            failure.message.contains("data race on `cell`"),
            "got: {}",
            failure.message
        );
    }

    #[test]
    fn racecell_mutex_ordered_accesses_do_not_race() {
        let cfg = Config {
            schedules: 100,
            ..Config::default()
        };
        explore(&cfg, || {
            let m = Arc::new(Mutex::new(()));
            let c = Arc::new(RaceCell::new(0u32, "guarded"));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let (m2, c2) = (m.clone(), c.clone());
                hs.push(thread::spawn(move || {
                    let _g = m2.lock();
                    let v = c2.read();
                    c2.write(v + 1);
                }));
            }
            for h in hs {
                h.join();
            }
            assert_eq!(c.read(), 2, "main is ordered after both via join");
        })
        .unwrap();
    }

    #[test]
    fn racecell_join_orders_child_accesses() {
        let cfg = Config {
            schedules: 50,
            ..Config::default()
        };
        explore(&cfg, || {
            let c = Arc::new(RaceCell::new(0u32, "joined"));
            let c2 = c.clone();
            let h = thread::spawn(move || c2.write(7));
            h.join();
            assert_eq!(c.read(), 7);
        })
        .unwrap();
    }

    #[test]
    fn release_acquire_publish_is_race_free() {
        let cfg = Config {
            schedules: 100,
            ..Config::default()
        };
        explore(&cfg, || {
            let data = Arc::new(RaceCell::new(0u32, "payload"));
            let flag = Arc::new(AtomicBool::new(false));
            let (d2, f2) = (data.clone(), flag.clone());
            let h = thread::spawn(move || {
                d2.write(42);
                f2.store(true, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) {
                assert_eq!(data.read(), 42);
            }
            h.join();
        })
        .unwrap();
    }

    #[test]
    fn atomics_are_scheduling_points() {
        let cfg = Config {
            schedules: 30,
            ..Config::default()
        };
        explore(&cfg, || {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = a.clone();
            let h = thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            a.fetch_add(1, Ordering::SeqCst);
            h.join();
            assert_eq!(a.load(Ordering::SeqCst), 2);
        })
        .unwrap();
    }
}
