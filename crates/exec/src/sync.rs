//! Thin wrappers over `std::sync` locks with a `parking_lot`-style API
//! (guard-returning `lock()` / `read()` / `write()`, no poison plumbing),
//! plus the blocking-coordination primitive the pool's scope needs: a
//! [`WaitGroup`].
//!
//! The workspace builds offline with no external crates; these shims keep
//! call sites as terse as the `parking_lot` API they replace. Poisoning is
//! deliberately ignored: a panic inside a GraphBLAS kernel already
//! propagates through the pool's scope machinery, and the §V error model —
//! not lock poisoning — is how object state is invalidated.
//!
//! Everything in this module is model-checked: `graphblas-check` provides
//! a schedule-controlled mirror of this exact API (`check::sync`), and its
//! test suite explores thousands of interleavings of the wait-group and
//! pool park/wake protocols. Keep the algorithms here in lockstep with the
//! models in `crates/check/tests/`.
//!
//! This module contains **no atomics**: earlier revisions tracked the
//! pool's parked count with a relaxed counter, but it now lives under the
//! job queue's mutex, so every cross-thread protocol here is lock/condvar
//! based.

use std::sync;

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock` returns the guard directly, recovering from
/// poisoning (the protected data is handed back as-is).
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// A readers-writer lock with guard-returning `read` / `write`.
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A condition variable whose `wait` recovers from poisoning, pairing with
/// this module's [`Mutex`].
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Atomically releases `guard` and blocks until notified. Spurious
    /// wakeups are possible — always re-check the predicate in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Counts outstanding tasks and blocks waiters until the count returns to
/// zero — the completion protocol behind [`crate::pool::ThreadPool::scope`].
///
/// `add` before handing work out, `done` when each unit finishes, `wait`
/// to block until all are done. Unlike Go's WaitGroup, `add` after the
/// count has reached zero is allowed (the scope may spawn in waves).
#[derive(Default)]
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

    /// Registers `n` more outstanding units of work.
    pub fn add(&self, n: usize) {
        *self.count.lock() += n;
    }

    /// Marks one unit of work finished, waking waiters when the count hits
    /// zero. Panics if the count would go negative (a protocol violation).
    pub fn done(&self) {
        let mut count = self.count.lock();
        assert!(*count > 0, "WaitGroup::done called more times than add");
        *count -= 1;
        if *count == 0 {
            drop(count);
            self.all_done.notify_all();
        }
    }

    /// Blocks until the outstanding count is zero. Returns immediately when
    /// nothing is outstanding.
    pub fn wait(&self) {
        let mut count = self.count.lock();
        while *count > 0 {
            count = self.all_done.wait(count);
        }
    }

    /// The current outstanding count (racy; diagnostic use only).
    pub fn outstanding(&self) -> usize {
        *self.count.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn waitgroup_blocks_until_done() {
        let wg = std::sync::Arc::new(WaitGroup::new());
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        wg.add(8);
        for _ in 0..8 {
            let (wg, hits) = (wg.clone(), hits.clone());
            std::thread::spawn(move || {
                hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                wg.done();
            });
        }
        wg.wait();
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 8);
        assert_eq!(wg.outstanding(), 0);
        wg.wait(); // idempotent on an idle group
    }

    #[test]
    #[should_panic(expected = "WaitGroup::done")]
    fn waitgroup_underflow_panics() {
        WaitGroup::new().done();
    }

    #[test]
    fn poison_is_recovered() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
