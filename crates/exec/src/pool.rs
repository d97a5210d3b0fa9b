//! A persistent worker-thread pool with scoped task spawning.
//!
//! GraphBLAS kernels are short relative to thread-spawn cost, so a
//! conformant multithreaded implementation wants long-lived workers. The
//! pool here is intentionally small and auditable:
//!
//! * workers block on a hand-rolled MPMC queue (`Mutex<VecDeque>` +
//!   `Condvar` — the workspace builds offline with no external crates);
//! * [`ThreadPool::scope`] lets callers spawn closures that borrow stack
//!   data — the scope does not return until every spawned task has run, so
//!   the (single, documented) lifetime-erasing `unsafe` block is sound;
//! * a scope is the only way onto the queue, so every job runs under
//!   `catch_unwind` and its scope's `WaitGroup`: panics inside tasks are
//!   captured and resumed on the scope owner's thread, and a panicking
//!   user-defined operator cannot kill a worker.
//!
//! Nested parallelism is handled by detecting re-entry: a task running *on*
//! a pool worker that opens another scope executes its sub-tasks inline
//! (see [`in_worker`]), which cannot deadlock.
//!
//! When telemetry is enabled (`graphblas-obs`), the pool counts task
//! spawns, inline executions, scope entries, and worker park/wake events,
//! and records the queue depth at every push and each task's queued-wait
//! versus execution time (the `pool` block of the obs snapshot).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::sync::{Condvar, Mutex, WaitGroup};

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Returns `true` when the calling thread is one of a pool's workers.
///
/// Used to serialize nested parallel regions instead of deadlocking.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// The mutex-protected portion of the job queue. `parked` lives *inside*
/// the lock on purpose: it is read by `push` to decide whether a submission
/// counts as a wake, and written by `pop` around `Condvar::wait`. An
/// earlier revision kept it as a separate `AtomicUsize` touched with
/// `Ordering::Relaxed`; every access already happened under the mutex, so
/// the atomic bought nothing and invited exactly the unsynchronized
/// read-outside-the-lock drift that loses wakeups (the
/// `model_pool::buggy_unlocked_park_check_loses_wakeups` test in
/// `graphblas-check` demonstrates that failure mode on this protocol).
/// Folding it into the guarded state makes the synchronization structural.
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Workers currently blocked in `available.wait` (so senders know
    /// whether a push actually wakes someone — the obs "wake" count).
    parked: usize,
}

/// MPMC job queue: every worker shares one deque behind a mutex. Jobs are
/// short-lived boxed closures; contention on the lock is dwarfed by the
/// kernels the jobs run. The park/wake protocol is model-checked in
/// `crates/check/tests/model_pool.rs`.
struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Queues `job`; `obs` is whether telemetry counts it (decided once,
    /// at spawn, for every counter the job touches).
    fn push(&self, job: Job, obs: bool) {
        let mut st = self.state.lock();
        if st.closed {
            return; // teardown in progress: drop the job
        }
        st.jobs.push_back(job);
        if obs {
            // The lock is held, so the depth is exact (not sampled) and
            // the high-water mark in the metrics is trustworthy.
            graphblas_obs::counters::record_pool_enqueue(st.jobs.len());
            if st.parked > 0 {
                // grblint: allow(relaxed-ordering) — monotonic obs counter;
                // no reader infers cross-thread state from it.
                graphblas_obs::counters::pool()
                    .wakes
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(st);
        self.available.notify_one();
    }

    /// Blocks until a job is available or the queue is closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            if graphblas_obs::enabled() {
                // grblint: allow(relaxed-ordering) — monotonic obs counter.
                graphblas_obs::counters::pool()
                    .parks
                    .fetch_add(1, Ordering::Relaxed);
            }
            st.parked += 1;
            st = self.available.wait(st);
            st.parked -= 1;
        }
    }

    fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.available.notify_all();
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct ThreadPool {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Creates a pool with `size` workers (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let queue = Arc::new(JobQueue::new());
        let workers = (0..size)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("grb-worker-{i}"))
                    .spawn(move || {
                        IN_WORKER.with(|w| w.set(true));
                        // Register with the obs timeline up front so the
                        // worker's tid and name appear in trace metadata
                        // even before its first recorded region.
                        graphblas_obs::timeline::register_thread();
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("failed to spawn GraphBLAS worker thread")
            })
            .collect();
        ThreadPool {
            queue,
            workers,
            size,
        }
    }

    /// Number of worker threads in the pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing the environment can
    /// be spawned. Returns only after every spawned task has finished.
    ///
    /// Panics raised by any task are re-raised here (first one wins).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env, '_>) -> R,
    {
        if graphblas_obs::enabled() {
            // grblint: allow(relaxed-ordering) — monotonic obs counter.
            graphblas_obs::counters::pool()
                .scopes
                .fetch_add(1, Ordering::Relaxed);
        }
        let state = Arc::new(ScopeState::default());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = f(&scope);
        state.wait();
        if let Some(payload) = state.take_panic() {
            std::panic::resume_unwind(payload);
        }
        result
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the queue lets workers drain remaining jobs and exit.
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Scope bookkeeping: a [`WaitGroup`] counts in-flight tasks (the protocol
/// is model-checked in `crates/check/tests/model_channels.rs`) and a slot
/// captures the first panic for re-raising on the scope owner's thread.
#[derive(Default)]
struct ScopeState {
    tasks: WaitGroup,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn task_started(&self) {
        self.tasks.add(1);
    }

    fn task_finished(&self) {
        self.tasks.done();
    }

    fn wait(&self) {
        self.tasks.wait();
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().take()
    }
}

/// A spawn handle tied to a [`ThreadPool::scope`] invocation.
///
/// Tasks may borrow from the enclosing environment (`'env`); the scope
/// guarantees they complete before `scope` returns.
pub struct Scope<'env, 'pool> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env, 'pool> Scope<'env, 'pool> {
    /// Spawns `f` onto the pool. If called from within a pool worker the
    /// task runs inline, which keeps nested parallel regions deadlock-free.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if in_worker() {
            if graphblas_obs::enabled() {
                // grblint: allow(relaxed-ordering) — monotonic obs counter.
                graphblas_obs::counters::pool()
                    .tasks_inline
                    .fetch_add(1, Ordering::Relaxed);
            }
            f();
            return;
        }
        let obs = graphblas_obs::enabled();
        if obs {
            // grblint: allow(relaxed-ordering) — monotonic obs counter.
            graphblas_obs::counters::pool()
                .tasks_spawned
                .fetch_add(1, Ordering::Relaxed);
        }
        // The clock is read only while telemetry is on.
        let enqueued_at = obs.then(Instant::now);
        self.state.task_started();
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `ScopeState::wait` is called before `ThreadPool::scope`
        // returns, and `Scope` cannot escape the closure passed to `scope`
        // (its lifetime parameters are invariant), so every borrow captured
        // by `task` strictly outlives the task's execution. Erasing the
        // lifetime to satisfy the queue's `'static` bound is therefore
        // sound.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        let job = move || {
            let started = enqueued_at.map(|enqueued| {
                graphblas_obs::counters::record_pool_dequeue();
                (enqueued, Instant::now())
            });
            // Worker-side timeline region: makes every offloaded task
            // visible on its worker's track in GRB_TRACE output, even for
            // tasks whose kernel records no phases of its own.
            let ph = graphblas_obs::timeline::phase("pool.task");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            drop(ph);
            if let Some((enqueued, started)) = started {
                // The wait-vs-run split. It lands before `task_finished`
                // releases the scope, so a snapshot taken after `scope`
                // returns holds every task of it.
                graphblas_obs::counters::record_pool_task(
                    started.duration_since(enqueued).as_nanos() as u64,
                    started.elapsed().as_nanos() as u64,
                );
            }
            if let Err(payload) = outcome {
                state.record_panic(payload);
            }
            state.task_finished();
        };
        self.pool.queue.push(Box::new(job), obs);
    }
}

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

/// Returns the process-wide pool, creating it on first use with one worker
/// per available hardware thread. The `GRB_POOL_THREADS` environment
/// variable overrides the autodetected size (useful where cgroup limits
/// under-report the machine, or to pin experiments to a fixed width).
pub fn global_pool() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| {
        let n = std::env::var("GRB_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
        ThreadPool::new(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_can_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u64; 64];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(16).collect();
        pool.scope(|s| {
            for chunk in chunks {
                s.spawn(move || {
                    for x in chunk.iter_mut() {
                        *x = 7;
                    }
                });
            }
        });
        assert!(data.iter().all(|&x| x == 7));
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn panic_in_task_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Runs on a worker; the inner scope must execute inline.
                    global_pool().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pool_size_is_at_least_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = global_pool() as *const ThreadPool;
        let b = global_pool() as *const ThreadPool;
        assert_eq!(a, b);
    }
}
