//! The mini-shuttle scheduler: deterministic exploration of thread
//! interleavings.
//!
//! The design is the classic schedule-controlled testing loop (shuttle,
//! loom's `--fuzz` mode, PCT from Burckhardt et al., "A Randomized
//! Scheduler with Probabilistic Guarantees of Finding Bugs"): the program
//! under test runs on real OS threads, but **only one model thread is ever
//! runnable at a time**. Every instrumented synchronization operation
//! ([`crate::sync`]) is a *yield point* where the running thread hands a
//! token to the scheduler, which picks the next thread from a seeded PRNG
//! ([`graphblas_exec::rng::StdRng`] — xoshiro256++, deterministic across
//! platforms). The schedule is therefore a pure function of the seed:
//! re-running with the same seed replays the identical interleaving, which
//! turns any discovered failure into a deterministic regression test.
//!
//! Two scheduling policies are provided:
//!
//! * [`Policy::RandomWalk`] — uniform choice among runnable threads at
//!   every yield point. Simple, surprisingly effective for small state
//!   spaces (the protocols checked here have 2–4 threads).
//! * [`Policy::Pct`] — probabilistic concurrency testing: threads get
//!   random priorities, the highest-priority runnable thread always runs,
//!   and at `depth − 1` pre-chosen steps the running thread's priority is
//!   demoted below everyone else's. PCT finds bugs of preemption depth `d`
//!   with provable probability; `depth = 3` catches most real-world
//!   ordering bugs.
//!
//! The checker explores **sequentially consistent** interleavings only: it
//! finds ordering bugs (lost wakeups, deadlocks, atomicity violations),
//! not weak-memory reorderings. That matches the repo's needs — all
//! cross-thread protocols in `graphblas-exec` are mutex/condvar based, and
//! the few atomics are either SC or mutex-subsumed.
//!
//! On top of the interleaving exploration the kernel maintains **vector
//! clocks** (one per model thread, one per synchronization resource) that
//! track the happens-before relation of the executed schedule: fork and
//! join edges, mutex release→acquire edges, condvar notify→wakeup edges,
//! and atomic release→acquire edges *for the ordering the call site
//! actually requested* — a relaxed store transfers nothing. The clocks
//! power [`crate::sync::RaceCell`], which flags two unordered conflicting
//! accesses to plain shared memory as a data race. Because thread indices,
//! resource ids, and clock updates are pure functions of the schedule, a
//! race report replays byte-for-byte from its seed like every other
//! failure.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use graphblas_exec::rng::StdRng;

/// Scheduling policy for one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Uniform random choice among runnable threads at every yield point.
    RandomWalk,
    /// Probabilistic concurrency testing with the given preemption depth
    /// (number of forced priority demotions is `depth - 1`).
    Pct {
        /// Target preemption depth (`>= 1`).
        depth: u32,
    },
}

/// What one schedule execution produced.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The per-schedule seed that reproduces this failure via [`replay`].
    pub seed: u64,
    /// Index of the failing schedule within the exploration.
    pub schedule: u64,
    /// Human-readable description (deadlock report or panic message).
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule {} (seed {:#x}) failed: {}",
            self.schedule, self.seed, self.message
        )
    }
}

/// Aggregate statistics of a successful exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Number of schedules executed.
    pub schedules: u64,
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Base seed; per-schedule seeds are derived from it deterministically.
    pub seed: u64,
    /// How many schedules to run.
    pub schedules: u64,
    /// Per-schedule scheduling-decision budget; exceeding it is reported as
    /// a failure (livelock or unbounded spin under this interleaving).
    pub max_steps: u64,
    /// The scheduling policy.
    pub policy: Policy,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 0x6772_625f_6368_6563, // "grb_chec"
            schedules: 1000,
            max_steps: 20_000,
            policy: Policy::RandomWalk,
        }
    }
}

impl Config {
    /// Reads the schedule count from `GRB_CHECK_SCHEDULES` when set,
    /// otherwise keeps `default_schedules`. Lets CI bound the smoke pass
    /// without recompiling.
    pub fn schedules_from_env(mut self, default_schedules: u64) -> Self {
        self.schedules = std::env::var("GRB_CHECK_SCHEDULES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_schedules);
        self
    }
}

// ---------------------------------------------------------------------------
// Kernel internals
// ---------------------------------------------------------------------------

/// Run state of one model thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Eligible to be scheduled.
    Runnable,
    /// Waiting on a resource (mutex id, condvar id, or join id).
    Blocked(usize),
    /// Returned (or unwound); never scheduled again.
    Finished,
}

struct ThreadInfo {
    status: Status,
    /// PCT priority; higher runs first. Unused under `RandomWalk`.
    priority: u64,
    /// Human label for deadlock reports.
    name: String,
}

struct KState {
    threads: Vec<ThreadInfo>,
    /// Index of the thread holding the run token.
    current: usize,
    rng: StdRng,
    policy: Policy,
    steps: u64,
    max_steps: u64,
    /// Pre-drawn step numbers at which PCT demotes the running thread.
    change_points: Vec<u64>,
    failure: Option<String>,
    /// Labels of resources, for readable deadlock reports.
    resource_names: HashMap<usize, String>,
    /// Next resource id for primitives created during this schedule.
    /// Per-kernel (not global) so ids — and hence deadlock-report text —
    /// are identical when a seed is replayed.
    next_resource: usize,
    /// Per-thread vector clocks (indexed like `threads`); component `i`
    /// counts thread `i`'s release-side synchronization operations.
    clocks: Vec<Vec<u64>>,
    /// Per-resource clocks: the join of every clock released into the
    /// resource (mutex unlock, condvar notify, atomic release-store).
    resource_clocks: HashMap<usize, Vec<u64>>,
}

/// Grows `clock` so component `i` exists.
fn vc_ensure(clock: &mut Vec<u64>, i: usize) {
    if clock.len() <= i {
        clock.resize(i + 1, 0);
    }
}

/// Element-wise maximum: `dst := dst ⊔ src`.
fn vc_join_into(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl KState {
    fn runnable_indices(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    /// One scheduling decision: pick the next thread to hold the token.
    /// Returns `None` when no thread is runnable.
    fn choose_next(&mut self) -> Option<usize> {
        self.steps += 1;
        if self.steps > self.max_steps && self.failure.is_none() {
            self.failure = Some(format!(
                "scheduling budget exceeded ({} steps): livelock or unbounded \
                 spin under this interleaving",
                self.max_steps
            ));
        }
        let runnable = self.runnable_indices();
        if runnable.is_empty() {
            return None;
        }
        let pick = match self.policy {
            Policy::RandomWalk => {
                let k = self.rng.gen_range(0..runnable.len());
                runnable[k]
            }
            Policy::Pct { .. } => {
                if self.change_points.contains(&self.steps) {
                    // Demote the running thread below every other priority.
                    let min = self.threads.iter().map(|t| t.priority).min().unwrap_or(0);
                    let cur = self.current;
                    if cur < self.threads.len() {
                        self.threads[cur].priority = min.saturating_sub(1);
                    }
                }
                *runnable
                    .iter()
                    .max_by_key(|&&i| self.threads[i].priority)
                    .expect("runnable is non-empty")
            }
        };
        Some(pick)
    }

    fn deadlock_report(&self) -> String {
        let mut blocked = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            if let Status::Blocked(r) = t.status {
                let rname = self
                    .resource_names
                    .get(&r)
                    .cloned()
                    .unwrap_or_else(|| format!("resource {r}"));
                blocked.push(format!("thread {i} ({}) blocked on {rname}", t.name));
            }
        }
        format!("deadlock: no runnable threads [{}]", blocked.join("; "))
    }
}

/// The shared scheduler kernel for one schedule execution.
pub(crate) struct Kernel {
    state: StdMutex<KState>,
    cv: StdCondvar,
    /// OS join handles of spawned model threads, joined at teardown.
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Panic payload used to unwind model threads when the schedule aborts
/// (deadlock, budget overrun, or a panic on another thread). Swallowed by
/// the thread wrappers; never reaches user code.
pub(crate) struct SchedAbort;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Kernel>, usize)>> = const { RefCell::new(None) };
}

/// Fallback id source for primitives constructed *outside* a model run.
/// Starts in a high range disjoint from per-kernel ids (which count up
/// from 1) and from join resources (which count down from `usize::MAX`).
static NEXT_RESOURCE: AtomicUsize = AtomicUsize::new(1 << 32);

/// Allocates a fresh resource id (mutex, condvar, or join target).
///
/// Inside a model run the id comes from the kernel's own counter, so a
/// replayed seed allocates identical ids and deadlock reports are
/// byte-for-byte reproducible — which the replay-determinism tests assert.
pub(crate) fn new_resource_id() -> usize {
    if let Some((kernel, _)) = CURRENT.with(|c| c.borrow().clone()) {
        let mut st = kernel.lock();
        let id = st.next_resource;
        st.next_resource += 1;
        return id;
    }
    // grblint: allow(relaxed-ordering) — monotonic id allocator; only
    // uniqueness matters, no cross-thread ordering is inferred.
    NEXT_RESOURCE.fetch_add(1, Ordering::Relaxed)
}

/// The kernel and model-thread index of the calling thread. Panics when
/// called outside a model run — `check::sync` primitives only function
/// under the scheduler.
pub(crate) fn current() -> (Arc<Kernel>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("check::sync primitive used outside a model run; wrap the test body in sched::explore or sched::replay")
    })
}

/// Whether the calling thread is inside a model run.
pub fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

impl Kernel {
    fn new(seed: u64, policy: Policy, max_steps: u64) -> Arc<Kernel> {
        let mut rng = StdRng::seed_from_u64(seed);
        let change_points = match policy {
            Policy::RandomWalk => Vec::new(),
            Policy::Pct { depth } => (1..depth)
                .map(|_| rng.gen_range(1..max_steps.max(2)))
                .collect(),
        };
        Arc::new(Kernel {
            state: StdMutex::new(KState {
                threads: Vec::new(),
                current: 0,
                rng,
                policy,
                steps: 0,
                max_steps,
                change_points,
                failure: None,
                resource_names: HashMap::new(),
                next_resource: 1,
                clocks: Vec::new(),
                resource_clocks: HashMap::new(),
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, KState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers a new model thread; returns its index.
    fn register(&self, name: String) -> usize {
        let mut st = self.lock();
        let priority = st.rng.next_u64() >> 1; // headroom below u64::MAX
        st.threads.push(ThreadInfo {
            status: Status::Runnable,
            priority,
            name,
        });
        st.clocks.push(Vec::new());
        st.threads.len() - 1
    }

    pub(crate) fn name_resource(&self, id: usize, name: &str) {
        self.lock().resource_names.insert(id, name.to_string());
    }

    // -- vector clocks (happens-before tracking for the race detector) ------

    /// Fork edge: joins the parent's clock into the freshly registered
    /// `child` and ticks the parent, so everything the parent did *before*
    /// the spawn happens-before the child, and nothing after does.
    pub(crate) fn vc_fork(&self, parent: Option<usize>, child: usize) {
        let mut st = self.lock();
        if let Some(p) = parent {
            let pc = st.clocks[p].clone();
            vc_join_into(&mut st.clocks[child], &pc);
            vc_ensure(&mut st.clocks[p], p);
            st.clocks[p][p] += 1;
        }
        vc_ensure(&mut st.clocks[child], child);
        st.clocks[child][child] += 1;
    }

    /// Join edge: joins a finished thread's final clock into the joiner,
    /// so everything the target did happens-before the join's return.
    pub(crate) fn vc_join_with(&self, me: usize, target: usize) {
        let mut st = self.lock();
        let tc = st.clocks[target].clone();
        vc_join_into(&mut st.clocks[me], &tc);
    }

    /// Release edge: copies `me`'s clock into the resource's clock and
    /// ticks `me`, so later events of `me` are not dragged along.
    pub(crate) fn vc_release(&self, me: usize, resource: usize) {
        let mut st = self.lock();
        let mine = st.clocks[me].clone();
        vc_join_into(st.resource_clocks.entry(resource).or_default(), &mine);
        vc_ensure(&mut st.clocks[me], me);
        st.clocks[me][me] += 1;
    }

    /// Acquire edge: joins the resource's clock into `me`, completing the
    /// happens-before edge from every prior releaser.
    pub(crate) fn vc_acquire(&self, me: usize, resource: usize) {
        let mut st = self.lock();
        if let Some(rc) = st.resource_clocks.get(&resource).cloned() {
            vc_join_into(&mut st.clocks[me], &rc);
        }
    }

    /// `me`'s current epoch (its own vector-clock component). Accesses
    /// stamped with the same epoch are same-thread program-order events.
    pub(crate) fn vc_epoch(&self, me: usize) -> u64 {
        let mut st = self.lock();
        vc_ensure(&mut st.clocks[me], me);
        st.clocks[me][me]
    }

    /// Whether the event `(who, when)` happens-before `me`'s current
    /// point: `me`'s clock has caught up to `who`'s component `when`.
    pub(crate) fn vc_hb(&self, me: usize, who: usize, when: u64) -> bool {
        let st = self.lock();
        st.clocks[me].get(who).copied().unwrap_or(0) >= when
    }

    /// Records a detector failure (data race) and unwinds the calling
    /// model thread. The message must be a pure function of the schedule
    /// so replaying the seed reproduces it byte-for-byte.
    pub(crate) fn detector_fail(&self, message: String) -> ! {
        self.fail(message);
        self.abort_current_thread()
    }

    /// Records a failure and wakes every parked thread so the schedule can
    /// unwind.
    fn fail(&self, message: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        // Every thread must get out of its wait loop.
        for t in st.threads.iter_mut() {
            if t.status != Status::Finished {
                t.status = Status::Runnable;
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    fn abort_current_thread(&self) -> ! {
        panic::panic_any(SchedAbort)
    }

    /// Parks the calling thread until it holds the token (or the schedule
    /// aborted, in which case this unwinds).
    fn wait_for_token(&self, me: usize) {
        let mut st = self.lock();
        loop {
            if st.failure.is_some() {
                drop(st);
                self.abort_current_thread();
            }
            if st.current == me && st.threads[me].status == Status::Runnable {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The universal scheduling point: hand the token to a (possibly
    /// different) thread and wait until it comes back to `me`.
    pub(crate) fn yield_point(&self, me: usize) {
        let mut st = self.lock();
        if st.failure.is_some() {
            drop(st);
            self.abort_current_thread();
        }
        match st.choose_next() {
            Some(next) => st.current = next,
            // `me` is runnable, so this cannot happen.
            None => unreachable!("yield with no runnable threads"),
        }
        let fail_now = st.failure.is_some();
        drop(st);
        self.cv.notify_all();
        if fail_now {
            // Budget overrun detected inside choose_next.
            self.fail(String::new()); // message already set; just wake all
            self.abort_current_thread();
        }
        self.wait_for_token(me);
    }

    /// Blocks the calling thread on `resource` and schedules someone else.
    /// Returns when the thread has been woken *and* granted the token.
    /// Detects deadlock (no runnable threads while blocked ones remain).
    pub(crate) fn block_on(&self, me: usize, resource: usize) {
        let mut st = self.lock();
        if st.failure.is_some() {
            drop(st);
            self.abort_current_thread();
        }
        st.threads[me].status = Status::Blocked(resource);
        match st.choose_next() {
            Some(next) => {
                st.current = next;
                let fail_now = st.failure.is_some();
                drop(st);
                self.cv.notify_all();
                if fail_now {
                    self.fail(String::new());
                    self.abort_current_thread();
                }
            }
            None => {
                let report = st.deadlock_report();
                drop(st);
                self.fail(report);
                self.abort_current_thread();
            }
        }
        self.wait_for_token(me);
    }

    /// Marks every thread blocked on `resource` runnable (they still wait
    /// for the token). Returns how many were woken.
    pub(crate) fn wake_all_on(&self, resource: usize) -> usize {
        let mut st = self.lock();
        let mut n = 0;
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(resource) {
                t.status = Status::Runnable;
                n += 1;
            }
        }
        n
    }

    /// Marks *one* seeded-randomly-chosen thread blocked on `resource`
    /// runnable. Returns whether any thread was woken.
    pub(crate) fn wake_one_on(&self, resource: usize) -> bool {
        let mut st = self.lock();
        let waiting: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Blocked(resource))
            .map(|(i, _)| i)
            .collect();
        if waiting.is_empty() {
            return false;
        }
        let k = st.rng.gen_range(0..waiting.len());
        st.threads[waiting[k]].status = Status::Runnable;
        true
    }

    /// Whether the given model thread has finished.
    pub(crate) fn is_finished(&self, idx: usize) -> bool {
        self.lock().threads[idx].status == Status::Finished
    }

    /// Thread-exit protocol: mark finished and hand the token onward. A
    /// non-[`SchedAbort`] panic payload is recorded as the schedule's
    /// failure.
    fn finish_thread(&self, me: usize, panic_payload: Option<Box<dyn Any + Send>>) {
        if let Some(p) = panic_payload {
            if !p.is::<SchedAbort>() {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "model thread panicked".to_string());
                self.fail(format!("panic in model thread {me}: {msg}"));
                return;
            }
            // SchedAbort: the failure is already recorded; just finish.
            let mut st = self.lock();
            st.threads[me].status = Status::Finished;
            drop(st);
            self.cv.notify_all();
            return;
        }
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        // Wake joiners.
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(join_resource(me)) {
                t.status = Status::Runnable;
            }
        }
        match st.choose_next() {
            Some(next) => {
                st.current = next;
                drop(st);
                self.cv.notify_all();
            }
            None => {
                // Either everyone is done (fine) or the rest are blocked
                // forever (deadlock).
                let any_blocked = st
                    .threads
                    .iter()
                    .any(|t| matches!(t.status, Status::Blocked(_)));
                if any_blocked {
                    let report = st.deadlock_report();
                    drop(st);
                    self.fail(report);
                } else {
                    drop(st);
                    self.cv.notify_all();
                }
            }
        }
    }
}

/// The join resource id of model thread `idx` (disjoint from allocated
/// resource ids, which start at 1 and grow; join ids count down from MAX).
pub(crate) fn join_resource(idx: usize) -> usize {
    usize::MAX - idx
}

// ---------------------------------------------------------------------------
// Model thread spawning (used by `check::thread`)
// ---------------------------------------------------------------------------

/// Spawns a model thread running `f`; returns its model index. The OS
/// thread parks until the scheduler grants it the token.
pub(crate) fn spawn_model_thread<F>(kernel: &Arc<Kernel>, name: String, f: F) -> usize
where
    F: FnOnce() + Send + 'static,
{
    let idx = kernel.register(name);
    let parent = CURRENT.with(|c| c.borrow().as_ref().map(|(_, i)| *i));
    kernel.vc_fork(parent, idx);
    let k = kernel.clone();
    let handle = std::thread::spawn(move || {
        CURRENT.with(|c| *c.borrow_mut() = Some((k.clone(), idx)));
        k.wait_for_token_entry(idx);
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        k.finish_thread(idx, result.err());
        CURRENT.with(|c| *c.borrow_mut() = None);
    });
    kernel
        .handles
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(handle);
    idx
}

impl Kernel {
    /// First park of a freshly spawned thread. Unlike [`Self::wait_for_token`],
    /// an abort here must not panic-unwind into `catch_unwind`-less code, so
    /// it returns normally and the subsequent yield point aborts — except the
    /// wrapper *does* catch unwinds, so delegate directly.
    fn wait_for_token_entry(&self, me: usize) {
        // A panic here unwinds into catch_unwind inside the wrapper? No —
        // this runs *before* catch_unwind. Park without aborting; if the
        // schedule has already failed, fall through and let the body's
        // first yield point (or the catch_unwind) handle it.
        let mut st = self.lock();
        loop {
            if st.failure.is_some() {
                return; // body will abort at its first sync op
            }
            if st.current == me && st.threads[me].status == Status::Runnable {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Runs `body` once under the scheduler with the given seed. Returns the
/// failure message if the schedule deadlocked, overran its budget, or a
/// model thread panicked. Deterministic: same seed, same interleaving.
pub fn replay<F>(seed: u64, policy: Policy, max_steps: u64, body: F) -> Result<(), String>
where
    F: FnOnce() + Send + 'static,
{
    let kernel = Kernel::new(seed, policy, max_steps);
    // The body is model thread 0.
    spawn_model_thread(&kernel, "main".to_string(), body);
    // Thread 0 starts with the token (current == 0, registered runnable).
    kernel.cv.notify_all();
    // Join every OS thread the schedule spawned (the list can grow while
    // we join, so drain repeatedly).
    loop {
        let h = {
            let mut hs = kernel.handles.lock().unwrap_or_else(|p| p.into_inner());
            hs.pop()
        };
        match h {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    let st = kernel.lock();
    match &st.failure {
        Some(msg) => Err(msg.clone()),
        None => Ok(()),
    }
}

/// Derives the per-schedule seed for schedule `i` of an exploration.
pub fn schedule_seed(base: u64, i: u64) -> u64 {
    // SplitMix64 over (base ^ golden-ratio * i) — decorrelates schedules.
    let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Explores `cfg.schedules` seeded interleavings of `body`. Stops at the
/// first failure, returning the seed that [`replay`] can reproduce it with.
pub fn explore<F>(cfg: &Config, body: F) -> Result<ExploreStats, Failure>
where
    F: Fn() + Send + Sync + 'static + Clone,
{
    let mut stats = ExploreStats::default();
    for i in 0..cfg.schedules {
        let seed = schedule_seed(cfg.seed, i);
        let b = body.clone();
        match replay(seed, cfg.policy, cfg.max_steps, b) {
            Ok(()) => {
                stats.schedules += 1;
            }
            Err(message) => {
                return Err(Failure {
                    seed,
                    schedule: i,
                    message,
                })
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_body_runs_clean() {
        replay(1, Policy::RandomWalk, 1000, || {}).unwrap();
    }

    #[test]
    fn replay_is_deterministic_for_panics() {
        let body = || {
            panic!("intentional");
        };
        let e1 = replay(7, Policy::RandomWalk, 1000, body).unwrap_err();
        let e2 = replay(7, Policy::RandomWalk, 1000, body).unwrap_err();
        assert_eq!(e1, e2);
        assert!(e1.contains("intentional"));
    }

    #[test]
    fn explore_counts_schedules() {
        let cfg = Config {
            schedules: 25,
            ..Config::default()
        };
        let stats = explore(&cfg, || {}).unwrap();
        assert_eq!(stats.schedules, 25);
    }

    #[test]
    fn schedule_seeds_are_distinct() {
        let a = schedule_seed(42, 0);
        let b = schedule_seed(42, 1);
        let c = schedule_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
