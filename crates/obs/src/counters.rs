//! Global atomic counters: per-kernel work accounting, pending-queue /
//! fusion statistics, thread-pool activity, and the other scalar counter
//! blocks.
//!
//! Every counter is one row of the `counter_table!` invocation below:
//! block, field, help string (the field's doc comment). The macro
//! generates everything else from it: the `AtomicU64` blocks the engine
//! bumps (`counters::pending().drains`), the `*Totals` copies, the
//! `*_totals()` readers, the [`Snapshot`] that holds one copy per block,
//! [`reset`] and the block's keys in the snapshot JSON. A counter cannot
//! exist without its JSON key.
//!
//! Everything here is a plain `AtomicU64` updated with relaxed ordering —
//! the counters are monotone statistics, not synchronization points. Sites
//! must guard updates on [`crate::enabled`] so the disabled build does no
//! atomic traffic at all.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ctxreg::{self, ContextStats};
use crate::events::{self, Reason};
use crate::hist::{self, KernelHist};
use crate::mem::{self, MemTotals};
use crate::span::{self, Event};

/// One counter-table row: the snapshot block it belongs to (`kernel` for
/// the per-kernel fields), its JSON key, and how to read its value from a
/// `T` ([`KernelTotals`] for the per-kernel rows, [`Snapshot`] for the
/// others).
pub(crate) struct CounterRow<T> {
    pub block: &'static str,
    pub field: &'static str,
    pub get: fn(&T) -> u64,
}

macro_rules! row {
    ($block:ident, $field:ident, $get:expr) => {
        CounterRow {
            block: stringify!($block),
            field: stringify!($field),
            get: $get,
        }
    };
}

/// Generates the counters and the [`Snapshot`] from the table below. A
/// scalar block's totals sit in the snapshot field named after the block,
/// and blocks appear in the snapshot JSON in table order.
macro_rules! counter_table {
    (
        kernels { $( $(#[$kdoc:meta])* $Kernel:ident = $kname:literal, )* }
        kernel { $( $kfield:ident, $khelp:literal; )* }
        $(
            $(#[$bdoc:meta])*
            $block:ident: $Counters:ident, $Totals:ident, $totals:ident {
                $( $field:ident, $help:literal; )*
            }
        )*
    ) => {
        /// The instrumented kernel families. The set mirrors the hot paths
        /// of `graphblas-sparse` (storage-level kernels) plus the
        /// container-level operations of `graphblas-core` whose cost the
        /// paper's §III latitude makes otherwise invisible.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Kernel {
            $( $(#[$kdoc])* $Kernel, )*
        }

        /// Number of [`Kernel`] variants (size of the static counter table).
        pub const KERNEL_COUNT: usize = [$($kname),*].len();

        pub(crate) const KERNEL_LIST: [Kernel; KERNEL_COUNT] = [$(Kernel::$Kernel),*];

        impl Kernel {
            /// Stable lower-case name used in burble output and JSON keys.
            pub fn name(self) -> &'static str {
                match self {
                    $( Kernel::$Kernel => $kname, )*
                }
            }
        }

        /// One kernel's accumulated work. All fields are relaxed atomics.
        pub struct KernelCounters {
            $( #[doc = $khelp] pub $kfield: AtomicU64, )*
        }

        static KERNELS: [KernelCounters; KERNEL_COUNT] = [const {
            KernelCounters { $( $kfield: AtomicU64::new(0), )* }
        }; KERNEL_COUNT];

        /// A point-in-time copy of one kernel's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct KernelTotals {
            pub kernel: Kernel,
            $( pub $kfield: u64, )*
        }

        /// The per-kernel rows.
        pub(crate) static KERNEL_ROWS: &[CounterRow<KernelTotals>] = &[$(
            row!(kernel, $kfield, |k: &KernelTotals| k.$kfield)
        ),*];

        /// Every kernel's counters, in declaration order.
        pub fn kernel_totals() -> Vec<KernelTotals> {
            KERNEL_LIST
                .iter()
                .map(|&k| {
                    let c = kernel(k);
                    KernelTotals { kernel: k, $( $kfield: c.$kfield.load(Ordering::Relaxed), )* }
                })
                .collect()
        }

        $(
            $(#[$bdoc])*
            pub struct $Counters {
                $( #[doc = $help] pub $field: AtomicU64, )*
            }

            #[doc = concat!("The global `", stringify!($block), "` counter block.")]
            pub fn $block() -> &'static $Counters {
                static BLOCK: $Counters = $Counters { $( $field: AtomicU64::new(0), )* };
                &BLOCK
            }

            #[doc = concat!("Point-in-time copy of the `", stringify!($block), "` block.")]
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
            pub struct $Totals {
                $( pub $field: u64, )*
            }

            #[doc = concat!("Reads the `", stringify!($block), "` block.")]
            pub fn $totals() -> $Totals {
                let b = $block();
                $Totals { $( $field: b.$field.load(Ordering::Relaxed), )* }
            }
        )*

        /// Every scalar counter row, block by block in table order.
        pub(crate) static COUNTER_ROWS: &[CounterRow<Snapshot>] = &[$( $(
            row!($block, $field, |s: &Snapshot| s.$block.$field),
        )* )*];

        /// A point-in-time copy of all telemetry: the kernel rows, one
        /// field per counter block, and the telemetry that is not a
        /// counter. Obtain through [`snapshot`]; [`crate::snapshot`]
        /// serializes it.
        #[derive(Debug, Clone)]
        pub struct Snapshot {
            /// Whether collection was enabled at snapshot time.
            pub enabled: bool,
            /// Per-kernel totals (every kernel family, including zero rows).
            pub kernels: Vec<KernelTotals>,
            $( $(#[$bdoc])* pub $block: $Totals, )*
            /// Per-kernel latency histograms, in the same order as `kernels`.
            pub hists: Vec<KernelHist>,
            /// Container-store and workspace-cache memory gauges.
            pub mem: MemTotals,
            /// Per-context rollups, ordered by context id.
            pub contexts: Vec<ContextStats>,
            /// The newest span regions in the threads' rings, in completion
            /// order ([`span::events`]).
            pub events: Vec<Event>,
            /// Total spans ever recorded (≥ `events.len()`; the excess was
            /// overwritten or is past the list's length).
            pub events_total: u64,
            /// Lifetime decision counts per reason code (`obs::events`), in
            /// [`Reason::all`] order.
            pub decisions: Vec<(Reason, u64)>,
            /// Total decision events ever recorded.
            pub decisions_total: u64,
        }

        /// Captures the current telemetry state. Counter families are read
        /// independently (each is internally consistent; the families are
        /// not mutually atomic, which is fine for statistics).
        pub fn snapshot() -> Snapshot {
            let (events, events_total) = span::events();
            Snapshot {
                enabled: crate::enabled(),
                kernels: kernel_totals(),
                $( $block: $totals(), )*
                hists: hist::kernel_hists(),
                mem: mem::totals(),
                contexts: ctxreg::all_context_stats(),
                events,
                events_total,
                decisions: events::reason_counts(),
                decisions_total: events::total(),
            }
        }

        /// Zeroes every counter.
        pub(crate) fn reset() {
            // Test-isolation zeroing: reset points are single-threaded
            // harness boundaries.
            for c in &KERNELS {
                $( c.$kfield.store(0, Ordering::Relaxed); )*
            }
            $( $( $block().$field.store(0, Ordering::Relaxed); )* )*
        }
    };
}

counter_table! {
    kernels {
        /// Sparse matrix × sparse matrix (`mxm`).
        SpGemm = "spgemm",
        /// Sparse matrix × vector (`mxv`, push direction).
        SpMv = "spmv",
        /// Vector × sparse matrix (`vxm`, pull direction).
        VxM = "vxm",
        /// Element-wise union (`eWiseAdd`).
        EwiseAdd = "ewise_add",
        /// Element-wise intersection (`eWiseMult`).
        EwiseMult = "ewise_mult",
        /// Explicit or descriptor-driven transpose.
        Transpose = "transpose",
        /// `apply` (unary / bound-scalar / index-unary).
        Apply = "apply",
        /// `select` (index-unary filter).
        Select = "select",
        /// `reduce` to vector, scalar, or value.
        Reduce = "reduce",
        /// Deferred-sequence drain: one fused traversal of a map run.
        MapFuse = "map_fuse",
        /// COO → CSR (`convert::coo_to_csr`) and the matrix update-log merge.
        Convert = "convert",
        /// `wait(Complete|Materialize)`.
        Wait = "wait",
        /// Kronecker product (`GrB_kronecker`).
        Kron = "kron",
    }
    kernel {
        calls, "Finished invocations per kernel family.";
        nanos, "Cumulative kernel wall time in nanoseconds.";
        flops, "Cumulative semiring operations performed.";
        nnz_in, "Cumulative input nonzeros consumed.";
        nnz_out, "Cumulative output nonzeros produced.";
        bytes_moved, "Cumulative bytes read and written by kernels.";
    }
    /// Pending-queue statistics for the §III deferred-execution machinery.
    pending: PendingCounters, PendingTotals, pending_totals {
        maps_enqueued, "Fusible map stages enqueued.";
        opaques_enqueued, "Opaque stages enqueued.";
        // A run of `n` consecutive maps drains as one pass and scores `n - 1`.
        fusion_hits, "Map stages absorbed into a preceding traversal.";
        map_traversals, "Fused map traversals executed.";
        opaque_drains, "Opaque stages executed at drain time.";
        drains, "Queue-drain events that found work.";
        max_depth, "High-water pending-queue depth.";
        errors_raised, "Execution errors constructed.";
        // The §V "reported later" case.
        errors_deferred, "Errors surfaced from a drained deferred sequence.";
    }
    /// Op-DAG statistics for the §III nonblocking fused-execution engine:
    /// how many lazy op nodes were enqueued, how many neighbouring map
    /// stages the node kernels absorbed (input side and output side), and
    /// what forced drains.
    dag: DagCounters, DagTotals, dag_totals {
        nodes_enqueued, "Lazy op nodes enqueued on container DAGs.";
        // The intermediate traversal they would have cost never ran.
        pre_fused, "Input-side map stages folded into node kernels.";
        post_fused, "Trailing map stages drained with their node.";
        fused_chains, "Node drains that fused at least one stage.";
        async_drains, "DAG drains handed to the worker pool.";
        forces, "Forced DAG drains (read/wait/self-input barriers).";
    }
    /// Thread-pool activity counters. The pool has no work stealing; the
    /// park/wake pair is the closest observable analogue — a park is a
    /// worker blocking on an empty queue, a wake is a job arriving for a
    /// parked worker. The queue fields (depth high-water, wait-vs-run
    /// split) say how long offloaded work waited for a worker; `exec::pool`
    /// feeds them through [`record_pool_enqueue`] /
    /// [`record_pool_dequeue`] / [`record_pool_task`].
    pool: PoolCounters, PoolTotals, pool_totals {
        tasks_spawned, "Tasks submitted to pool workers.";
        tasks_inline, "Tasks executed inline in nested parallel regions.";
        parks, "Workers blocked waiting for work.";
        wakes, "Parked workers woken by a new job.";
        scopes, "ThreadPool::scope entries.";
        jobs_queued, "Jobs pushed onto the shared pool queue.";
        jobs_dequeued, "Jobs taken off the queue by workers.";
        queue_depth_max, "High-water pool queue depth.";
        tasks_completed, "Offloaded tasks that ran to completion.";
        task_wait_ns, "Cumulative nanoseconds tasks sat queued.";
        task_run_ns, "Cumulative nanoseconds tasks spent executing.";
    }
    /// Kernel-workspace reuse statistics (`exec::workspace`): how often hot
    /// kernels checked scratch buffers out of the per-thread cache instead
    /// of allocating, and how many buffer bytes that reuse avoided
    /// reallocating.
    workspace: WorkspaceCounters, WorkspaceTotals, workspace_totals {
        checkouts, "Scratch checkouts requested by kernels.";
        hits, "Checkouts served from the per-thread cache.";
        misses, "Checkouts that allocated a fresh workspace.";
        bytes_reused, "Buffer capacity handed back on cache hits.";
    }
    /// Direction-optimizing `mxv`/`vxm` dispatch statistics: which kernel
    /// the frontier-density heuristic picked, and how the memoized
    /// transpose cache behaved while serving the pull direction.
    direction: DirectionCounters, DirectionTotals, direction_totals {
        push_picks, "mxv/vxm dispatches resolved to the push kernel.";
        pull_picks, "mxv/vxm dispatches resolved to the pull kernel.";
        transpose_builds, "Transposes computed into the memo cache.";
        transpose_hits, "Transpose requests served from the memo cache.";
    }
    /// Kernel-registry dispatch statistics: how often an operation ran a
    /// pre-monomorphized static kernel from `core::ops::registry` (paper
    /// §II static dispatch) versus falling back to the universal `dyn Fn`
    /// path (user-defined operators, unregistered semiring/type
    /// combinations, or `GRB_DISPATCH=dyn`).
    dispatch: DispatchCounters, DispatchTotals, dispatch_totals {
        static_hits, "Dispatches served by a monomorphized kernel.";
        dyn_fallbacks, "Dispatches on the erased-closure fallback path.";
    }
    /// Vector storage-format statistics (Table III): how often a result was
    /// kept in the sparse (index/value) representation or stored full
    /// (every position present), and how many conversions back to sparse
    /// later consumers forced.
    format: FormatCounters, FormatTotals, format_totals {
        bitmap_picks, "Always 0: no vector format is a bitmap; dropped with ROADMAP item 8.";
        svec_picks, "Results kept in sparse index/value format.";
        full_picks, "Results stored full (every position present).";
        conversions, "Full-to-sparse conversions forced downstream.";
    }
}

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

/// Records a new pending-queue depth, keeping the high-water mark.
pub fn note_pending_depth(depth: usize) {
    pending()
        .max_depth
        .fetch_max(depth as u64, Ordering::Relaxed);
}

/// Records one op-DAG node drain that absorbed `pre` input-side and
/// `post` output-side map stages.
pub fn record_dag_fusion(pre: u64, post: u64) {
    let d = dag();
    d.pre_fused.fetch_add(pre, Ordering::Relaxed);
    d.post_fused.fetch_add(post, Ordering::Relaxed);
    if pre + post > 0 {
        d.fused_chains.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one workspace checkout. `bytes_reused` is the capacity of the
/// cached buffers on a hit (0 on a miss).
pub fn record_workspace_checkout(hit: bool, bytes_reused: u64) {
    let w = workspace();
    w.checkouts.fetch_add(1, Ordering::Relaxed);
    if hit {
        w.hits.fetch_add(1, Ordering::Relaxed);
        w.bytes_reused.fetch_add(bytes_reused, Ordering::Relaxed);
    } else {
        w.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one direction decision for a matrix-vector product.
pub fn record_direction_pick(pull: bool) {
    let d = direction();
    let counter = if pull { &d.pull_picks } else { &d.push_picks };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Records one memoized-transpose request (`hit` = served from cache).
pub fn record_transpose_cache(hit: bool) {
    let d = direction();
    let counter = if hit {
        &d.transpose_hits
    } else {
        &d.transpose_builds
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Records one kernel dispatch decision (`is_static` = registry hit).
pub fn record_dispatch_pick(is_static: bool) {
    let d = dispatch();
    let counter = if is_static {
        &d.static_hits
    } else {
        &d.dyn_fallbacks
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The two Table III storage formats a vector result can land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecFormat {
    /// Index/value lists.
    Sparse,
    /// Every position present: the value array alone.
    Full,
}

impl VecFormat {
    /// The name decision events, `grbexplain` and `stats().format` use.
    pub fn name(self) -> &'static str {
        match self {
            VecFormat::Sparse => "sparse",
            VecFormat::Full => "full",
        }
    }
}

/// Records one output-format decision.
pub fn record_format_pick(format: VecFormat) {
    let f = self::format();
    let counter = match format {
        VecFormat::Sparse => &f.svec_picks,
        VecFormat::Full => &f.full_picks,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Records one full→sparse conversion forced by a consumer.
pub fn record_format_conversion() {
    format().conversions.fetch_add(1, Ordering::Relaxed);
}

/// Records one job landing on the pool queue; `depth` is the queue depth
/// right after the push (the pool reads it under its queue lock, so the
/// high-water mark is exact, not sampled).
pub fn record_pool_enqueue(depth: usize) {
    let p = pool();
    p.jobs_queued.fetch_add(1, Ordering::Relaxed);
    p.queue_depth_max.fetch_max(depth as u64, Ordering::Relaxed);
}

/// Records one job leaving the pool queue for a worker.
pub fn record_pool_dequeue() {
    pool().jobs_dequeued.fetch_add(1, Ordering::Relaxed);
}

/// Records one completed offloaded task: how long it sat queued and how
/// long it executed.
pub fn record_pool_task(wait_ns: u64, run_ns: u64) {
    let p = pool();
    p.tasks_completed.fetch_add(1, Ordering::Relaxed);
    p.task_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
    p.task_run_ns.fetch_add(run_ns, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_recording_accumulates() {
        let _g = crate::test_guard();
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
        let _g = crate::test_guard();
        reset();
        note_pending_depth(3);
        note_pending_depth(9);
        note_pending_depth(5);
        assert_eq!(pending_totals().max_depth, 9);
        reset();
    }

    #[test]
    fn workspace_and_direction_recording_accumulates() {
        let _g = crate::test_guard();
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
        let _g = crate::test_guard();
        let s0 = dispatch_totals();
        record_dispatch_pick(true);
        record_dispatch_pick(true);
        record_dispatch_pick(false);
        let s1 = dispatch_totals();
        assert_eq!(s1.static_hits - s0.static_hits, 2);
        assert_eq!(s1.dyn_fallbacks - s0.dyn_fallbacks, 1);

        let f0 = format_totals();
        record_format_pick(VecFormat::Sparse);
        record_format_pick(VecFormat::Sparse);
        record_format_pick(VecFormat::Full);
        record_format_conversion();
        let f1 = format_totals();
        assert_eq!(f1.bitmap_picks - f0.bitmap_picks, 0);
        assert_eq!(f1.svec_picks - f0.svec_picks, 2);
        assert_eq!(f1.full_picks - f0.full_picks, 1);
        assert_eq!(f1.conversions - f0.conversions, 1);
    }

    #[test]
    fn pool_scheduler_recording_accumulates() {
        let _g = crate::test_guard();
        reset();
        record_pool_enqueue(1);
        record_pool_enqueue(2);
        record_pool_enqueue(1);
        record_pool_dequeue();
        let p = pool_totals();
        assert_eq!(p.jobs_queued, 3);
        assert_eq!(p.jobs_dequeued, 1);
        assert_eq!(p.queue_depth_max, 2);

        record_pool_task(100, 1000);
        record_pool_task(50, 500);
        record_pool_task(10, 200);
        let p = pool_totals();
        assert_eq!(p.tasks_completed, 3);
        assert_eq!(p.task_wait_ns, 160);
        assert_eq!(p.task_run_ns, 1700);
        reset();
        assert_eq!(pool_totals(), PoolTotals::default());
    }

    #[test]
    fn dag_recording_accumulates() {
        let _g = crate::test_guard();
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
