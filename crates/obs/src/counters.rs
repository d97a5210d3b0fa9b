//! Global atomic counters: per-kernel work accounting, pending-queue /
//! fusion statistics, and thread-pool activity.
//!
//! Everything here is a plain `AtomicU64` updated with relaxed ordering —
//! the counters are monotone statistics, not synchronization points. Sites
//! must guard updates on [`crate::enabled`] so the disabled build does no
//! atomic traffic at all.

use std::sync::atomic::{AtomicU64, Ordering};

/// The instrumented kernel families. The set mirrors the hot paths of
/// `graphblas-sparse` (storage-level kernels) plus the container-level
/// operations of `graphblas-core` whose cost the paper's §III latitude
/// makes otherwise invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Kernel {
    /// Sparse matrix × sparse matrix (`mxm`).
    SpGemm = 0,
    /// Sparse matrix × vector (`mxv`, push direction).
    SpMv = 1,
    /// Vector × sparse matrix (`vxm`, pull direction).
    VxM = 2,
    /// Element-wise union (`eWiseAdd`).
    EwiseAdd = 3,
    /// Element-wise intersection (`eWiseMult`).
    EwiseMult = 4,
    /// Explicit or descriptor-driven transpose.
    Transpose = 5,
    /// `apply` (unary / bound-scalar / index-unary).
    Apply = 6,
    /// `select` (index-unary filter).
    Select = 7,
    /// `reduce` to vector, scalar, or value.
    Reduce = 8,
    /// Deferred-sequence drain: one fused traversal of a map run.
    MapFuse = 9,
    /// COO/CSC/dense → CSR canonicalization and row sorting.
    Convert = 10,
    /// `wait(Complete|Materialize)`.
    Wait = 11,
    /// Kronecker product (`GrB_kronecker`).
    Kron = 12,
}

/// Number of [`Kernel`] variants (size of the static counter table).
pub const KERNEL_COUNT: usize = 13;

pub(crate) const KERNEL_LIST: [Kernel; KERNEL_COUNT] = [
    Kernel::SpGemm,
    Kernel::SpMv,
    Kernel::VxM,
    Kernel::EwiseAdd,
    Kernel::EwiseMult,
    Kernel::Transpose,
    Kernel::Apply,
    Kernel::Select,
    Kernel::Reduce,
    Kernel::MapFuse,
    Kernel::Convert,
    Kernel::Wait,
    Kernel::Kron,
];

impl Kernel {
    /// Stable lower-case name used in burble output and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::SpGemm => "spgemm",
            Kernel::SpMv => "spmv",
            Kernel::VxM => "vxm",
            Kernel::EwiseAdd => "ewise_add",
            Kernel::EwiseMult => "ewise_mult",
            Kernel::Transpose => "transpose",
            Kernel::Apply => "apply",
            Kernel::Select => "select",
            Kernel::Reduce => "reduce",
            Kernel::MapFuse => "map_fuse",
            Kernel::Convert => "convert",
            Kernel::Wait => "wait",
            Kernel::Kron => "kron",
        }
    }
}

/// One kernel's accumulated work. All fields are relaxed atomics.
pub struct KernelCounters {
    pub calls: AtomicU64,
    pub nanos: AtomicU64,
    pub flops: AtomicU64,
    pub nnz_in: AtomicU64,
    pub nnz_out: AtomicU64,
    pub bytes_moved: AtomicU64,
}

impl KernelCounters {
    // The const is only ever used to seed the static table below; each
    // array slot gets its own atomics (no shared-state surprise).
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: KernelCounters = KernelCounters {
        calls: AtomicU64::new(0),
        nanos: AtomicU64::new(0),
        flops: AtomicU64::new(0),
        nnz_in: AtomicU64::new(0),
        nnz_out: AtomicU64::new(0),
        bytes_moved: AtomicU64::new(0),
    };

    fn reset(&self) {
        // grbsa: protocol(counter-reset) — test-isolation zeroing; reset
        // points are single-threaded harness boundaries.
        self.calls.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
        self.flops.store(0, Ordering::Relaxed);
        self.nnz_in.store(0, Ordering::Relaxed);
        self.nnz_out.store(0, Ordering::Relaxed);
        self.bytes_moved.store(0, Ordering::Relaxed);
    }
}

static KERNELS: [KernelCounters; KERNEL_COUNT] = [KernelCounters::ZERO; KERNEL_COUNT];

/// The live counter block for `k` (for instrumentation sites that add to
/// individual fields between span start and end).
pub fn kernel(k: Kernel) -> &'static KernelCounters {
    &KERNELS[k as usize]
}

/// Adds one finished invocation of `k` with its measured wall time and
/// work figures. The single entry point span drops funnel through; the
/// wall time also lands in `k`'s latency histogram.
pub fn record_kernel(k: Kernel, nanos: u64, flops: u64, nnz_in: u64, nnz_out: u64, bytes: u64) {
    crate::hist::record(k, nanos);
    let c = kernel(k);
    c.calls.fetch_add(1, Ordering::Relaxed);
    c.nanos.fetch_add(nanos, Ordering::Relaxed);
    c.flops.fetch_add(flops, Ordering::Relaxed);
    c.nnz_in.fetch_add(nnz_in, Ordering::Relaxed);
    c.nnz_out.fetch_add(nnz_out, Ordering::Relaxed);
    c.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
}

/// A point-in-time copy of one kernel's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTotals {
    pub kernel: Kernel,
    pub calls: u64,
    pub nanos: u64,
    pub flops: u64,
    pub nnz_in: u64,
    pub nnz_out: u64,
    pub bytes_moved: u64,
}

pub(crate) fn kernel_totals() -> Vec<KernelTotals> {
    KERNEL_LIST
        .iter()
        .map(|&k| {
            let c = kernel(k);
            KernelTotals {
                kernel: k,
                calls: c.calls.load(Ordering::Relaxed),
                nanos: c.nanos.load(Ordering::Relaxed),
                flops: c.flops.load(Ordering::Relaxed),
                nnz_in: c.nnz_in.load(Ordering::Relaxed),
                nnz_out: c.nnz_out.load(Ordering::Relaxed),
                bytes_moved: c.bytes_moved.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Pending-queue statistics for the §III deferred-execution machinery.
pub struct PendingCounters {
    /// Fusible `Stage::Map` stages enqueued.
    pub maps_enqueued: AtomicU64,
    /// `Stage::Opaque` stages enqueued.
    pub opaques_enqueued: AtomicU64,
    /// Map stages that were absorbed into a preceding map's traversal: a
    /// run of `n` consecutive maps drains as one pass and scores `n - 1`.
    pub fusion_hits: AtomicU64,
    /// Fused map traversals executed (one per flushed map run).
    pub map_traversals: AtomicU64,
    /// Opaque stages executed at drain time.
    pub opaque_drains: AtomicU64,
    /// Queue-drain events that found work to do.
    pub drains: AtomicU64,
    /// High-water mark of any container's pending-queue depth.
    pub max_depth: AtomicU64,
    /// Execution errors raised (constructed) anywhere.
    pub errors_raised: AtomicU64,
    /// Execution errors that surfaced from a drained deferred sequence —
    /// the §V "reported later" case.
    pub errors_deferred: AtomicU64,
}

static PENDING: PendingCounters = PendingCounters {
    maps_enqueued: AtomicU64::new(0),
    opaques_enqueued: AtomicU64::new(0),
    fusion_hits: AtomicU64::new(0),
    map_traversals: AtomicU64::new(0),
    opaque_drains: AtomicU64::new(0),
    drains: AtomicU64::new(0),
    max_depth: AtomicU64::new(0),
    errors_raised: AtomicU64::new(0),
    errors_deferred: AtomicU64::new(0),
};

/// The global pending-queue counter block.
pub fn pending() -> &'static PendingCounters {
    &PENDING
}

/// Records a new pending-queue depth, keeping the high-water mark.
pub fn note_pending_depth(depth: usize) {
    PENDING.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
}

/// Point-in-time copy of the pending-queue statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PendingTotals {
    pub maps_enqueued: u64,
    pub opaques_enqueued: u64,
    pub fusion_hits: u64,
    pub map_traversals: u64,
    pub opaque_drains: u64,
    pub drains: u64,
    pub max_depth: u64,
    pub errors_raised: u64,
    pub errors_deferred: u64,
}

pub(crate) fn pending_totals() -> PendingTotals {
    PendingTotals {
        maps_enqueued: PENDING.maps_enqueued.load(Ordering::Relaxed),
        opaques_enqueued: PENDING.opaques_enqueued.load(Ordering::Relaxed),
        fusion_hits: PENDING.fusion_hits.load(Ordering::Relaxed),
        map_traversals: PENDING.map_traversals.load(Ordering::Relaxed),
        opaque_drains: PENDING.opaque_drains.load(Ordering::Relaxed),
        drains: PENDING.drains.load(Ordering::Relaxed),
        max_depth: PENDING.max_depth.load(Ordering::Relaxed),
        errors_raised: PENDING.errors_raised.load(Ordering::Relaxed),
        errors_deferred: PENDING.errors_deferred.load(Ordering::Relaxed),
    }
}

/// Op-DAG statistics for the §III nonblocking fused-execution engine:
/// how many lazy op nodes were enqueued, how many neighbouring map stages
/// the node kernels absorbed (input side and output side), and what
/// forced drains.
pub struct DagCounters {
    /// Lazy `Stage::Node` op nodes enqueued.
    pub nodes_enqueued: AtomicU64,
    /// Input-side map stages folded into a node's operand lookup
    /// (the intermediate traversal they would have cost never ran).
    pub pre_fused: AtomicU64,
    /// Output-side (trailing) map stages folded into a node's kernel
    /// write or result pass.
    pub post_fused: AtomicU64,
    /// Node drains that fused at least one neighbouring stage.
    pub fused_chains: AtomicU64,
    /// Drains handed to the worker pool by the depth heuristic.
    pub async_drains: AtomicU64,
    /// Forced drains (read/wait/self-input barriers) on DAG queues.
    pub forces: AtomicU64,
}

static DAG: DagCounters = DagCounters {
    nodes_enqueued: AtomicU64::new(0),
    pre_fused: AtomicU64::new(0),
    post_fused: AtomicU64::new(0),
    fused_chains: AtomicU64::new(0),
    async_drains: AtomicU64::new(0),
    forces: AtomicU64::new(0),
};

/// The global op-DAG counter block.
pub fn dag() -> &'static DagCounters {
    &DAG
}

/// Records one op-DAG node drain that absorbed `pre` input-side and
/// `post` output-side map stages.
pub fn record_dag_fusion(pre: u64, post: u64) {
    DAG.pre_fused.fetch_add(pre, Ordering::Relaxed);
    DAG.post_fused.fetch_add(post, Ordering::Relaxed);
    if pre + post > 0 {
        DAG.fused_chains.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the op-DAG statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DagTotals {
    pub nodes_enqueued: u64,
    pub pre_fused: u64,
    pub post_fused: u64,
    pub fused_chains: u64,
    pub async_drains: u64,
    pub forces: u64,
}

pub fn dag_totals() -> DagTotals {
    DagTotals {
        nodes_enqueued: DAG.nodes_enqueued.load(Ordering::Relaxed),
        pre_fused: DAG.pre_fused.load(Ordering::Relaxed),
        post_fused: DAG.post_fused.load(Ordering::Relaxed),
        fused_chains: DAG.fused_chains.load(Ordering::Relaxed),
        async_drains: DAG.async_drains.load(Ordering::Relaxed),
        forces: DAG.forces.load(Ordering::Relaxed),
    }
}

/// Kernel-workspace reuse statistics (`exec::workspace`): how often hot
/// kernels checked scratch buffers out of the per-thread cache instead of
/// allocating, and how many buffer bytes that reuse avoided reallocating.
pub struct WorkspaceCounters {
    /// Scratch checkouts requested by kernels.
    pub checkouts: AtomicU64,
    /// Checkouts served from the per-thread cache (no allocation).
    pub hits: AtomicU64,
    /// Checkouts that had to allocate a fresh workspace.
    pub misses: AtomicU64,
    /// Bytes of already-allocated buffer capacity handed back on hits.
    pub bytes_reused: AtomicU64,
}

static WORKSPACE: WorkspaceCounters = WorkspaceCounters {
    checkouts: AtomicU64::new(0),
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    bytes_reused: AtomicU64::new(0),
};

/// The global workspace counter block.
pub fn workspace() -> &'static WorkspaceCounters {
    &WORKSPACE
}

/// Records one workspace checkout. `bytes_reused` is the capacity of the
/// cached buffers on a hit (0 on a miss).
pub fn record_workspace_checkout(hit: bool, bytes_reused: u64) {
    WORKSPACE.checkouts.fetch_add(1, Ordering::Relaxed);
    if hit {
        WORKSPACE.hits.fetch_add(1, Ordering::Relaxed);
        WORKSPACE.bytes_reused.fetch_add(bytes_reused, Ordering::Relaxed);
    } else {
        WORKSPACE.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the workspace statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceTotals {
    pub checkouts: u64,
    pub hits: u64,
    pub misses: u64,
    pub bytes_reused: u64,
}

pub(crate) fn workspace_totals() -> WorkspaceTotals {
    WorkspaceTotals {
        checkouts: WORKSPACE.checkouts.load(Ordering::Relaxed),
        hits: WORKSPACE.hits.load(Ordering::Relaxed),
        misses: WORKSPACE.misses.load(Ordering::Relaxed),
        bytes_reused: WORKSPACE.bytes_reused.load(Ordering::Relaxed),
    }
}

/// Direction-optimizing `mxv`/`vxm` dispatch statistics: which kernel the
/// Beamer-style frontier-density heuristic picked, and how the memoized
/// transpose cache behaved while serving the pull direction.
pub struct DirectionCounters {
    /// Dispatches resolved to the push (scatter) kernel.
    pub push_picks: AtomicU64,
    /// Dispatches resolved to the pull (dot-product) kernel.
    pub pull_picks: AtomicU64,
    /// Transposes computed and installed in a matrix's memo cache.
    pub transpose_builds: AtomicU64,
    /// Transpose requests served from the memo cache.
    pub transpose_hits: AtomicU64,
}

static DIRECTION: DirectionCounters = DirectionCounters {
    push_picks: AtomicU64::new(0),
    pull_picks: AtomicU64::new(0),
    transpose_builds: AtomicU64::new(0),
    transpose_hits: AtomicU64::new(0),
};

/// The global direction-dispatch counter block.
pub fn direction() -> &'static DirectionCounters {
    &DIRECTION
}

/// Records one direction decision for a matrix-vector product.
pub fn record_direction_pick(pull: bool) {
    if pull {
        DIRECTION.pull_picks.fetch_add(1, Ordering::Relaxed);
    } else {
        DIRECTION.push_picks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one memoized-transpose request (`hit` = served from cache).
pub fn record_transpose_cache(hit: bool) {
    if hit {
        DIRECTION.transpose_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        DIRECTION.transpose_builds.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the direction-dispatch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectionTotals {
    pub push_picks: u64,
    pub pull_picks: u64,
    pub transpose_builds: u64,
    pub transpose_hits: u64,
}

pub(crate) fn direction_totals() -> DirectionTotals {
    DirectionTotals {
        push_picks: DIRECTION.push_picks.load(Ordering::Relaxed),
        pull_picks: DIRECTION.pull_picks.load(Ordering::Relaxed),
        transpose_builds: DIRECTION.transpose_builds.load(Ordering::Relaxed),
        transpose_hits: DIRECTION.transpose_hits.load(Ordering::Relaxed),
    }
}

/// Kernel-registry dispatch statistics: how often an operation ran a
/// pre-monomorphized static kernel from `core::ops::registry` (paper §II
/// static dispatch) versus falling back to the universal `dyn Fn` path
/// (user-defined operators, unregistered semiring/type combinations, or
/// `GRB_DISPATCH=dyn`).
pub struct DispatchCounters {
    /// Dispatches served by a registered monomorphized kernel.
    pub static_hits: AtomicU64,
    /// Dispatches that fell back to the erased-closure path.
    pub dyn_fallbacks: AtomicU64,
}

static DISPATCH: DispatchCounters = DispatchCounters {
    static_hits: AtomicU64::new(0),
    dyn_fallbacks: AtomicU64::new(0),
};

/// The global kernel-registry dispatch counter block.
pub fn dispatch() -> &'static DispatchCounters {
    &DISPATCH
}

/// Records one kernel dispatch decision (`is_static` = registry hit).
pub fn record_dispatch_pick(is_static: bool) {
    if is_static {
        DISPATCH.static_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        DISPATCH.dyn_fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the dispatch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchTotals {
    pub static_hits: u64,
    pub dyn_fallbacks: u64,
}

pub(crate) fn dispatch_totals() -> DispatchTotals {
    DispatchTotals {
        static_hits: DISPATCH.static_hits.load(Ordering::Relaxed),
        dyn_fallbacks: DISPATCH.dyn_fallbacks.load(Ordering::Relaxed),
    }
}

/// The three Table III storage formats a vector result can land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecFormat {
    /// Index/value lists.
    Sparse,
    /// Presence bits + a value slot per position.
    Bitmap,
    /// Every position present: the value array alone.
    Full,
}

impl VecFormat {
    /// The name decision events, `grbexplain` and `stats().format` use.
    pub fn name(self) -> &'static str {
        match self {
            VecFormat::Sparse => "sparse",
            VecFormat::Bitmap => "bitmap",
            VecFormat::Full => "full",
        }
    }
}

/// Vector storage-format statistics (Table III): how often a result was
/// kept in the sparse (index/value) representation, stored as a bitmap
/// (presence bits + dense slots; mid-density mxv/vxm frontiers) or stored
/// full (every position present), and how many conversions back to sparse
/// later consumers forced.
pub struct FormatCounters {
    /// Results stored in bitmap format (density qualified).
    pub bitmap_picks: AtomicU64,
    /// Results kept in sparse index/value format.
    pub svec_picks: AtomicU64,
    /// Results stored full (`nnz == n`).
    pub full_picks: AtomicU64,
    /// Bitmap→sparse and full→sparse conversions forced by a downstream
    /// consumer.
    pub conversions: AtomicU64,
}

static FORMAT: FormatCounters = FormatCounters {
    bitmap_picks: AtomicU64::new(0),
    svec_picks: AtomicU64::new(0),
    full_picks: AtomicU64::new(0),
    conversions: AtomicU64::new(0),
};

/// The global vector-format counter block.
pub fn format() -> &'static FormatCounters {
    &FORMAT
}

/// Records one output-format decision.
pub fn record_format_pick(format: VecFormat) {
    let counter = match format {
        VecFormat::Sparse => &FORMAT.svec_picks,
        VecFormat::Bitmap => &FORMAT.bitmap_picks,
        VecFormat::Full => &FORMAT.full_picks,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Records one bitmap→sparse or full→sparse conversion forced by a
/// consumer.
pub fn record_format_conversion() {
    FORMAT.conversions.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time copy of the format statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FormatTotals {
    pub bitmap_picks: u64,
    pub svec_picks: u64,
    pub full_picks: u64,
    pub conversions: u64,
}

pub(crate) fn format_totals() -> FormatTotals {
    FormatTotals {
        bitmap_picks: FORMAT.bitmap_picks.load(Ordering::Relaxed),
        svec_picks: FORMAT.svec_picks.load(Ordering::Relaxed),
        full_picks: FORMAT.full_picks.load(Ordering::Relaxed),
        conversions: FORMAT.conversions.load(Ordering::Relaxed),
    }
}

/// Thread-pool activity counters. The pool has no work stealing; the
/// park/wake pair is the closest observable analogue — a park is a worker
/// blocking on an empty queue, a wake is a job arriving for a parked
/// worker. The scheduler-facing fields (queue depth, wait-vs-run split,
/// per-worker busy time) are the signals the nonblocking drain engine and
/// admission control tune against; `exec::pool` feeds them through
/// [`record_pool_enqueue`] / [`record_pool_dequeue`] / [`record_pool_task`].
pub struct PoolCounters {
    /// Tasks submitted to pool workers via a scope.
    pub tasks_spawned: AtomicU64,
    /// Tasks executed inline because the spawner was itself a pool worker
    /// (nested parallel region).
    pub tasks_inline: AtomicU64,
    /// Times a worker blocked waiting for work.
    pub parks: AtomicU64,
    /// Times a parked worker was woken by a new job.
    pub wakes: AtomicU64,
    /// Scopes opened (`ThreadPool::scope` entries).
    pub scopes: AtomicU64,
    /// Jobs pushed onto the shared queue (monotone; live queue depth is
    /// `jobs_queued - jobs_dequeued`, which avoids a non-monotone gauge).
    pub jobs_queued: AtomicU64,
    /// Jobs taken off the queue by workers.
    pub jobs_dequeued: AtomicU64,
    /// High-water mark of the queue depth observed at push time.
    pub queue_depth_max: AtomicU64,
    /// Offloaded tasks that ran to completion on a worker.
    pub tasks_completed: AtomicU64,
    /// Total nanoseconds tasks spent queued (enqueue → dequeue).
    pub task_wait_ns: AtomicU64,
    /// Total nanoseconds tasks spent executing on a worker.
    pub task_run_ns: AtomicU64,
    /// Highest worker index seen + 1 (the busy-table prefix in use).
    pub workers: AtomicU64,
}

/// Size of the static per-worker busy table. Workers beyond this fold into
/// the last slot (`GRB_POOL_THREADS` on real deployments is far smaller).
pub const MAX_POOL_WORKERS: usize = 64;

// Seeds the static table only; each slot gets fresh atomics.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);

/// Per-worker cumulative busy nanoseconds (task execution time attributed
/// to the worker that ran it). Utilization over a window is the busy delta
/// divided by the window length.
static WORKER_BUSY: [AtomicU64; MAX_POOL_WORKERS] = [ZERO_U64; MAX_POOL_WORKERS];

static POOL: PoolCounters = PoolCounters {
    tasks_spawned: AtomicU64::new(0),
    tasks_inline: AtomicU64::new(0),
    parks: AtomicU64::new(0),
    wakes: AtomicU64::new(0),
    scopes: AtomicU64::new(0),
    jobs_queued: AtomicU64::new(0),
    jobs_dequeued: AtomicU64::new(0),
    queue_depth_max: AtomicU64::new(0),
    tasks_completed: AtomicU64::new(0),
    task_wait_ns: AtomicU64::new(0),
    task_run_ns: AtomicU64::new(0),
    workers: AtomicU64::new(0),
};

/// The global thread-pool counter block.
pub fn pool() -> &'static PoolCounters {
    &POOL
}

/// Records one job landing on the pool queue; `depth` is the queue depth
/// right after the push (the pool reads it under its queue lock, so the
/// high-water mark is exact, not sampled).
pub fn record_pool_enqueue(depth: usize) {
    POOL.jobs_queued.fetch_add(1, Ordering::Relaxed);
    POOL.queue_depth_max.fetch_max(depth as u64, Ordering::Relaxed);
}

/// Records one job leaving the pool queue for a worker.
pub fn record_pool_dequeue() {
    POOL.jobs_dequeued.fetch_add(1, Ordering::Relaxed);
}

/// Records one completed offloaded task: which worker ran it, how long it
/// sat queued, and how long it executed. Worker indices at or beyond
/// [`MAX_POOL_WORKERS`] share the last busy slot.
pub fn record_pool_task(worker: usize, wait_ns: u64, run_ns: u64) {
    POOL.tasks_completed.fetch_add(1, Ordering::Relaxed);
    POOL.task_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
    POOL.task_run_ns.fetch_add(run_ns, Ordering::Relaxed);
    let slot = worker.min(MAX_POOL_WORKERS - 1);
    WORKER_BUSY[slot].fetch_add(run_ns, Ordering::Relaxed);
    POOL.workers.fetch_max(slot as u64 + 1, Ordering::Relaxed);
}

/// Point-in-time copy of the pool statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolTotals {
    pub tasks_spawned: u64,
    pub tasks_inline: u64,
    pub parks: u64,
    pub wakes: u64,
    pub scopes: u64,
    pub jobs_queued: u64,
    pub jobs_dequeued: u64,
    pub queue_depth_max: u64,
    pub tasks_completed: u64,
    pub task_wait_ns: u64,
    pub task_run_ns: u64,
    pub workers: u64,
}

impl PoolTotals {
    /// Live queue depth implied by the monotone push/pop counters (clamped
    /// at zero: the two loads are not mutually atomic).
    pub fn queue_depth(&self) -> u64 {
        self.jobs_queued.saturating_sub(self.jobs_dequeued)
    }
}

pub(crate) fn pool_totals() -> PoolTotals {
    PoolTotals {
        tasks_spawned: POOL.tasks_spawned.load(Ordering::Relaxed),
        tasks_inline: POOL.tasks_inline.load(Ordering::Relaxed),
        parks: POOL.parks.load(Ordering::Relaxed),
        wakes: POOL.wakes.load(Ordering::Relaxed),
        scopes: POOL.scopes.load(Ordering::Relaxed),
        jobs_queued: POOL.jobs_queued.load(Ordering::Relaxed),
        jobs_dequeued: POOL.jobs_dequeued.load(Ordering::Relaxed),
        queue_depth_max: POOL.queue_depth_max.load(Ordering::Relaxed),
        tasks_completed: POOL.tasks_completed.load(Ordering::Relaxed),
        task_wait_ns: POOL.task_wait_ns.load(Ordering::Relaxed),
        task_run_ns: POOL.task_run_ns.load(Ordering::Relaxed),
        workers: POOL.workers.load(Ordering::Relaxed),
    }
}

/// Per-worker cumulative busy nanoseconds: the in-use prefix of the busy
/// table (indices `0..workers`).
pub fn worker_busy_totals() -> Vec<u64> {
    let n = POOL.workers.load(Ordering::Relaxed) as usize;
    WORKER_BUSY[..n.min(MAX_POOL_WORKERS)]
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .collect()
}

/// Telemetry-plane self-accounting (`obs::export`): sampler ticks taken,
/// scrape requests served, and one-shot dump files written. Keeping the
/// exporter's own activity in a counter block makes its cost auditable
/// with the same machinery it exports.
pub struct SamplerCounters {
    /// Periodic snapshots taken by the background sampler thread.
    pub samples: AtomicU64,
    /// HTTP scrape requests served by the metrics endpoint.
    pub scrapes: AtomicU64,
    /// `GRB_METRICS_DUMP` one-shot exposition files written.
    pub dump_writes: AtomicU64,
}

static SAMPLER: SamplerCounters = SamplerCounters {
    samples: AtomicU64::new(0),
    scrapes: AtomicU64::new(0),
    dump_writes: AtomicU64::new(0),
};

/// The global telemetry-plane counter block.
pub fn sampler() -> &'static SamplerCounters {
    &SAMPLER
}

/// Point-in-time copy of the telemetry-plane statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplerTotals {
    pub samples: u64,
    pub scrapes: u64,
    pub dump_writes: u64,
}

pub(crate) fn sampler_totals() -> SamplerTotals {
    SamplerTotals {
        samples: SAMPLER.samples.load(Ordering::Relaxed),
        scrapes: SAMPLER.scrapes.load(Ordering::Relaxed),
        dump_writes: SAMPLER.dump_writes.load(Ordering::Relaxed),
    }
}

pub(crate) fn reset() {
    // grbsa: protocol(counter-reset) — test-isolation zeroing; reset
    // points are single-threaded harness boundaries.
    for k in &KERNELS {
        k.reset();
    }
    PENDING.maps_enqueued.store(0, Ordering::Relaxed);
    PENDING.opaques_enqueued.store(0, Ordering::Relaxed);
    PENDING.fusion_hits.store(0, Ordering::Relaxed);
    PENDING.map_traversals.store(0, Ordering::Relaxed);
    PENDING.opaque_drains.store(0, Ordering::Relaxed);
    PENDING.drains.store(0, Ordering::Relaxed);
    PENDING.max_depth.store(0, Ordering::Relaxed);
    PENDING.errors_raised.store(0, Ordering::Relaxed);
    PENDING.errors_deferred.store(0, Ordering::Relaxed);
    DAG.nodes_enqueued.store(0, Ordering::Relaxed);
    DAG.pre_fused.store(0, Ordering::Relaxed);
    DAG.post_fused.store(0, Ordering::Relaxed);
    DAG.fused_chains.store(0, Ordering::Relaxed);
    DAG.async_drains.store(0, Ordering::Relaxed);
    DAG.forces.store(0, Ordering::Relaxed);
    POOL.tasks_spawned.store(0, Ordering::Relaxed);
    POOL.tasks_inline.store(0, Ordering::Relaxed);
    POOL.parks.store(0, Ordering::Relaxed);
    POOL.wakes.store(0, Ordering::Relaxed);
    POOL.scopes.store(0, Ordering::Relaxed);
    POOL.jobs_queued.store(0, Ordering::Relaxed);
    POOL.jobs_dequeued.store(0, Ordering::Relaxed);
    POOL.queue_depth_max.store(0, Ordering::Relaxed);
    POOL.tasks_completed.store(0, Ordering::Relaxed);
    POOL.task_wait_ns.store(0, Ordering::Relaxed);
    POOL.task_run_ns.store(0, Ordering::Relaxed);
    // The worker count survives reset (it describes topology, not load);
    // the busy table zeroes so utilization windows start clean.
    for b in &WORKER_BUSY {
        b.store(0, Ordering::Relaxed);
    }
    SAMPLER.samples.store(0, Ordering::Relaxed);
    SAMPLER.scrapes.store(0, Ordering::Relaxed);
    SAMPLER.dump_writes.store(0, Ordering::Relaxed);
    WORKSPACE.checkouts.store(0, Ordering::Relaxed);
    WORKSPACE.hits.store(0, Ordering::Relaxed);
    WORKSPACE.misses.store(0, Ordering::Relaxed);
    WORKSPACE.bytes_reused.store(0, Ordering::Relaxed);
    DIRECTION.push_picks.store(0, Ordering::Relaxed);
    DIRECTION.pull_picks.store(0, Ordering::Relaxed);
    DIRECTION.transpose_builds.store(0, Ordering::Relaxed);
    DIRECTION.transpose_hits.store(0, Ordering::Relaxed);
    DISPATCH.static_hits.store(0, Ordering::Relaxed);
    DISPATCH.dyn_fallbacks.store(0, Ordering::Relaxed);
    FORMAT.bitmap_picks.store(0, Ordering::Relaxed);
    FORMAT.svec_picks.store(0, Ordering::Relaxed);
    FORMAT.full_picks.store(0, Ordering::Relaxed);
    FORMAT.conversions.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that reset or delta-read the global counters.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn kernel_recording_accumulates() {
        let _g = serialize();
        reset();
        record_kernel(Kernel::SpGemm, 100, 7, 3, 2, 64);
        record_kernel(Kernel::SpGemm, 50, 3, 1, 1, 16);
        let t = kernel_totals();
        let g = t.iter().find(|k| k.kernel == Kernel::SpGemm).unwrap();
        assert_eq!(g.calls, 2);
        assert_eq!(g.nanos, 150);
        assert_eq!(g.flops, 10);
        assert_eq!(g.bytes_moved, 80);
        reset();
        let g2 = kernel_totals()
            .into_iter()
            .find(|k| k.kernel == Kernel::SpGemm)
            .unwrap();
        assert_eq!(g2.calls, 0);
    }

    #[test]
    fn depth_high_water_mark() {
        let _g = serialize();
        reset();
        note_pending_depth(3);
        note_pending_depth(9);
        note_pending_depth(5);
        assert_eq!(pending_totals().max_depth, 9);
        reset();
    }

    #[test]
    fn workspace_and_direction_recording_accumulates() {
        let _g = serialize();
        let w0 = workspace_totals();
        record_workspace_checkout(false, 0);
        record_workspace_checkout(true, 4096);
        record_workspace_checkout(true, 1024);
        let w1 = workspace_totals();
        assert_eq!(w1.checkouts - w0.checkouts, 3);
        assert_eq!(w1.hits - w0.hits, 2);
        assert_eq!(w1.misses - w0.misses, 1);
        assert_eq!(w1.bytes_reused - w0.bytes_reused, 5120);

        let d0 = direction_totals();
        record_direction_pick(true);
        record_direction_pick(true);
        record_direction_pick(false);
        record_transpose_cache(false);
        record_transpose_cache(true);
        let d1 = direction_totals();
        assert_eq!(d1.pull_picks - d0.pull_picks, 2);
        assert_eq!(d1.push_picks - d0.push_picks, 1);
        assert_eq!(d1.transpose_builds - d0.transpose_builds, 1);
        assert_eq!(d1.transpose_hits - d0.transpose_hits, 1);
    }

    #[test]
    fn dispatch_and_format_recording_accumulates() {
        let _g = serialize();
        let s0 = dispatch_totals();
        record_dispatch_pick(true);
        record_dispatch_pick(true);
        record_dispatch_pick(false);
        let s1 = dispatch_totals();
        assert_eq!(s1.static_hits - s0.static_hits, 2);
        assert_eq!(s1.dyn_fallbacks - s0.dyn_fallbacks, 1);

        let f0 = format_totals();
        record_format_pick(VecFormat::Bitmap);
        record_format_pick(VecFormat::Sparse);
        record_format_pick(VecFormat::Sparse);
        record_format_pick(VecFormat::Full);
        record_format_conversion();
        let f1 = format_totals();
        assert_eq!(f1.bitmap_picks - f0.bitmap_picks, 1);
        assert_eq!(f1.svec_picks - f0.svec_picks, 2);
        assert_eq!(f1.full_picks - f0.full_picks, 1);
        assert_eq!(f1.conversions - f0.conversions, 1);
    }

    #[test]
    fn pool_scheduler_recording_accumulates() {
        let _g = serialize();
        reset();
        record_pool_enqueue(1);
        record_pool_enqueue(2);
        record_pool_enqueue(1);
        record_pool_dequeue();
        let p = pool_totals();
        assert_eq!(p.jobs_queued, 3);
        assert_eq!(p.jobs_dequeued, 1);
        assert_eq!(p.queue_depth(), 2);
        assert_eq!(p.queue_depth_max, 2);

        record_pool_task(0, 100, 1000);
        record_pool_task(1, 50, 500);
        record_pool_task(0, 10, 200);
        let p = pool_totals();
        assert_eq!(p.tasks_completed, 3);
        assert_eq!(p.task_wait_ns, 160);
        assert_eq!(p.task_run_ns, 1700);
        assert_eq!(p.workers, 2);
        let busy = worker_busy_totals();
        assert_eq!(busy, vec![1200, 500]);

        // Out-of-range worker indices fold into the last slot.
        record_pool_task(MAX_POOL_WORKERS + 7, 0, 42);
        assert_eq!(pool_totals().workers, MAX_POOL_WORKERS as u64);
        assert_eq!(*worker_busy_totals().last().unwrap(), 42);
        reset();
    }

    #[test]
    fn sampler_recording_accumulates() {
        let _g = serialize();
        reset();
        SAMPLER.samples.fetch_add(2, Ordering::Relaxed);
        SAMPLER.scrapes.fetch_add(1, Ordering::Relaxed);
        SAMPLER.dump_writes.fetch_add(1, Ordering::Relaxed);
        let s = sampler_totals();
        assert_eq!((s.samples, s.scrapes, s.dump_writes), (2, 1, 1));
        reset();
        assert_eq!(sampler_totals(), SamplerTotals::default());
    }

    #[test]
    fn dag_recording_accumulates() {
        let _g = serialize();
        reset();
        dag().nodes_enqueued.fetch_add(3, Ordering::Relaxed);
        record_dag_fusion(2, 1);
        record_dag_fusion(0, 0); // no-fusion drain: no chain scored
        record_dag_fusion(0, 4);
        dag().async_drains.fetch_add(1, Ordering::Relaxed);
        dag().forces.fetch_add(2, Ordering::Relaxed);
        let t = dag_totals();
        assert_eq!(t.nodes_enqueued, 3);
        assert_eq!(t.pre_fused, 2);
        assert_eq!(t.post_fused, 5);
        assert_eq!(t.fused_chains, 2);
        assert_eq!(t.async_drains, 1);
        assert_eq!(t.forces, 2);
        reset();
        assert_eq!(dag_totals(), DagTotals::default());
    }

    #[test]
    fn kernel_names_are_unique() {
        let mut names: Vec<_> = KERNEL_LIST.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KERNEL_COUNT);
    }
}
