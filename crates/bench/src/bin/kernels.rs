//! `kernels` — persistent kernel benchmark baseline.
//!
//! Runs the kernel-level workloads the perf work targets — PageRank
//! (adaptive push/pull `vxm` + workspace reuse), BFS (masked
//! direction-optimizing traversal), SpGEMM (workspace-backed SPA, both
//! as a raw sparse-layer kernel and as a registry-dispatched `mxm`), and
//! a nonblocking fused apply chain (§III map fusion), and a
//! blocking-vs-nonblocking fused-pipeline ablation
//! (apply→select→mxv→apply through the op DAG, with per-mode `mem_high`
//! peak-memory growth) — and writes their
//! median wall times plus the workspace, direction, dispatch (kernel
//! registry static-vs-dyn), format (sparse vs full store picks),
//! per-kernel latency (p50/p99), and memory-gauge blocks to
//! `BENCH_kernels.json` (full run) or `BENCH_kernels_smoke.json`
//! (`--smoke`; the two scales are numerically incomparable, so they keep
//! separate baselines for `benchcmp`). The full telemetry snapshot of
//! the same run is written alongside as `BENCH_obs.json`, so one
//! invocation refreshes both baselines.
//!
//! The §II motivation-B dispatch ablation (formerly the standalone
//! `ablation_dispatch` Criterion bench) now runs in-harness: each
//! builtin-semiring workload is timed twice, once with the monomorphized
//! kernel registry claiming dispatch ([`registry::force_dispatch`]
//! `(Some(true))`) and once forced down the type-erased `Arc<dyn Fn>`
//! path (`Some(false)`), so the static-vs-dyn medians land in the same
//! baseline file the regression protocol already diffs.
//!
//! Run with: `cargo run --release -p graphblas-bench --bin kernels`
//! (`--smoke` bounds the graph scale and run count for CI). Set
//! `GRB_TRACE=trace.json` to also export the run's per-thread timeline
//! as Chrome-trace JSON for `ui.perfetto.dev`, and `GRB_EXPLAIN=...json`
//! to export the reason-coded decision history for `grbexplain`.
//!
//! The JSON file is the baseline `scripts/bench.sh` refreshes and
//! `scripts/check.sh` validates; comparing two baselines across commits is
//! the regression protocol documented in EXPERIMENTS.md.

use graphblas_bench::{fmt_time, median_secs, random_csr, random_matrix, rmat_bool};
use graphblas_core::operations::{apply_v, mxm, mxv, select_v};
use graphblas_core::ops::registry;
use graphblas_core::{
    global_context, no_mask, no_mask_v, Context, ContextOptions, Descriptor, IndexUnaryOp, Matrix,
    Mode, Semiring, UnaryOp, Vector, WaitMode,
};
use graphblas_obs::{JsonWriter, Reason};

struct Params {
    smoke: bool,
    scale: u32,
    runs: usize,
    spgemm_n: usize,
    spgemm_nnz_per_row: usize,
    mxm_n: usize,
    mxm_nnz_per_row: usize,
    pipe_n: usize,
}

fn params() -> Params {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The mxm ablation operand is denser than the spgemm floor workload
    // (~64 nnz/row at full scale, the EXPERIMENTS.md §II shape): dispatch
    // cost is per multiply-add, so the ablation needs flops — not SPA
    // assembly — to dominate before the static-vs-dyn gap is visible.
    if smoke {
        Params {
            smoke,
            scale: 9,
            runs: 3,
            spgemm_n: 512,
            spgemm_nnz_per_row: 8,
            mxm_n: 256,
            mxm_nnz_per_row: 64,
            pipe_n: 1024,
        }
    } else {
        Params {
            smoke,
            scale: 13,
            runs: 5,
            spgemm_n: 2048,
            spgemm_nnz_per_row: 16,
            mxm_n: 512,
            mxm_nnz_per_row: 128,
            pipe_n: 4096,
        }
    }
}

/// Registry static-hit count so far (reads the same dispatch block the
/// baseline JSON emits).
fn static_hits() -> u64 {
    graphblas_obs::snapshot().dispatch.static_hits
}

/// Times `work` twice — registry static dispatch, then the forced dyn
/// fallback — and returns `(static_median, dyn_median)`. Each phase gets
/// one warm-up call so both medians see warm caches and a populated
/// workspace cache. Restores the environment-default dispatch mode
/// before returning.
fn ablate<F: FnMut()>(runs: usize, mut work: F) -> (f64, f64) {
    registry::force_dispatch(Some(true));
    work();
    let t_static = median_secs(runs, &mut work);
    registry::force_dispatch(Some(false));
    work();
    let t_dyn = median_secs(runs, &mut work);
    registry::force_dispatch(None);
    (t_static, t_dyn)
}

fn main() {
    graphblas_core::init(Mode::Blocking);
    let p = params();
    println!(
        "kernel baseline: rmat scale {} ({} runs/workload){}",
        p.scale,
        p.runs,
        if p.smoke { " [smoke]" } else { "" }
    );

    graphblas_obs::set_enabled(true);
    graphblas_obs::reset();

    let a = rmat_bool(p.scale, 8, p.scale as u64);
    let n = a.nrows();
    let edges = a.nvals().expect("rmat graph nvals");

    // PageRank (plus/first f64 over the bool graph) and BFS (lor/land +
    // any/pair bool) run on builtin semirings, so the registry must claim
    // their kernels: the static-hit counter is checkpointed around each
    // static phase.
    let hits0 = static_hits();
    let (t_pagerank, t_pagerank_dyn) = ablate(p.runs, || {
        std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 50).expect("pagerank"));
    });
    assert!(
        static_hits() > hits0,
        "pagerank (plus/first f64) recorded no registry static hits"
    );

    let hits1 = static_hits();
    let (t_bfs, t_bfs_dyn) = ablate(p.runs, || {
        std::hint::black_box(graphblas_algo::bfs_levels(&a, 0).expect("bfs"));
    });
    assert!(
        static_hits() > hits1,
        "bfs (boolean semirings) recorded no registry static hits"
    );

    // Raw sparse-layer SpGEMM with hand-monomorphized closures: the
    // registry-independent floor the strict benchcmp gate tracks across
    // commits (kept identical to the v2 workload).
    let ctx = global_context();
    let c = random_csr(p.spgemm_n, p.spgemm_n * p.spgemm_nnz_per_row, 17);
    std::hint::black_box(graphblas_sparse::spgemm::spgemm(
        &ctx,
        &c,
        &c,
        |x: &f64, y: &f64| x * y,
        |acc: &mut f64, z: f64| *acc += z,
    ));
    let t_spgemm = median_secs(p.runs, || {
        std::hint::black_box(graphblas_sparse::spgemm::spgemm(
            &ctx,
            &c,
            &c,
            |x: &f64, y: &f64| x * y,
            |acc: &mut f64, z: f64| *acc += z,
        ));
    });

    // SpGEMM dispatch ablation through the container layer: `mxm` over
    // plus/times f64 routes through `registry::try_spgemm`, so the same
    // multiply measures the registry's monomorphized instantiation
    // against the `Arc<dyn Fn>` fallback.
    let am = random_matrix(p.mxm_n, p.mxm_n * p.mxm_nnz_per_row, 17);
    let cm = Matrix::<f64>::new(p.mxm_n, p.mxm_n).expect("mxm output");
    let sr = Semiring::<f64, f64, f64>::plus_times();
    let hits2 = static_hits();
    let (t_mxm, t_mxm_dyn) = ablate(p.runs, || {
        mxm(&cm, no_mask(), None, &sr, &am, &am, &Descriptor::default()).expect("mxm");
    });
    assert!(
        static_hits() > hits2,
        "mxm (plus/times f64) recorded no registry static hits"
    );

    // Blocking-vs-nonblocking fused-pipeline ablation (§III): the same
    // apply→select→mxv→apply pipeline per iteration, once under a
    // blocking context and once under the nonblocking op DAG. Blocking
    // executes every stage eagerly — each map is a full store traversal —
    // and the look-ahead stage at the end of each iteration is computed
    // and materialized even though nothing reads it inside the loop.
    // Nonblocking leaves the maps pending (the next mxv folds them into
    // its numeric phase over the frontier as it is stored) and leaves the
    // look-ahead node queued: a read forces only the subgraph it needs,
    // so that store never exists inside the loop. `mem_high` is the
    // growth of the container + workspace high-water marks over the
    // timed phase (re-armed at the phase boundary without disturbing the
    // run's counters or the recorder's rings).
    let (ap_rows, ap_cols, ap_vals) = random_matrix(p.pipe_n, p.pipe_n * 8, 23)
        .extract_tuples()
        .expect("pipeline operand tuples");
    let up_idx: Vec<usize> = (0..p.pipe_n).collect();
    let up_vals: Vec<f64> = (0..p.pipe_n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let run_pipeline_phase = |mode: Mode| -> (f64, u64) {
        let pctx = Context::new(&ctx, mode, ContextOptions::default());
        // Operands live in the phase's own context (and are materialized
        // before anything is timed or the high-water marks re-arm).
        let ap = Matrix::<f64>::new_in(&pctx, p.pipe_n, p.pipe_n).expect("pipeline operand");
        ap.build(&ap_rows, &ap_cols, &ap_vals, None).expect("pipeline operand build");
        ap.wait(WaitMode::Materialize).expect("pipeline operand materialize");
        let up = Vector::<f64>::new_in(&pctx, p.pipe_n).expect("pipeline input");
        up.build(&up_idx, &up_vals, None).expect("pipeline input build");
        up.wait(WaitMode::Materialize).expect("pipeline input materialize");
        let sr = Semiring::<f64, f64, f64>::plus_times();
        let d = Descriptor::default();
        let pinc = UnaryOp::new("inc", |x: &f64| x + 1.0);
        let phalve = UnaryOp::new("halve", |x: &f64| x * 0.5);
        let mut iter = || {
            let w = Vector::<f64>::new_in(&pctx, p.pipe_n).expect("pipeline w");
            mxv(&w, no_mask_v(), None, &sr, &ap, &up, &d).expect("pipeline mxv");
            w.wait(WaitMode::Complete).expect("pipeline barrier");
            apply_v(&w, no_mask_v(), None, &pinc, &w, &d).expect("pipeline apply");
            select_v(&w, no_mask_v(), None, &IndexUnaryOp::valuegt(), &w, 3.0, &d)
                .expect("pipeline select");
            let y = Vector::<f64>::new_in(&pctx, p.pipe_n).expect("pipeline y");
            mxv(&y, no_mask_v(), None, &sr, &ap, &w, &d).expect("pipeline mxv2");
            apply_v(&y, no_mask_v(), None, &phalve, &y, &d).expect("pipeline apply2");
            y.wait(WaitMode::Complete).expect("pipeline read");
            // Look-ahead stage: produced every iteration, never read
            // inside the loop. Blocking mode pays the mxv and the store
            // here; the DAG leaves both on the queue.
            let z = Vector::<f64>::new_in(&pctx, p.pipe_n).expect("pipeline z");
            mxv(&z, no_mask_v(), None, &sr, &ap, &y, &d).expect("pipeline mxv3");
            apply_v(&z, no_mask_v(), None, &pinc, &z, &d).expect("pipeline apply3");
            std::hint::black_box(&z);
        };
        iter(); // warm the kernel caches and park the shared spmv scratch
        graphblas_obs::mem::rearm_high_water();
        let m0 = graphblas_obs::mem::totals();
        let t = median_secs(p.runs, &mut iter);
        let m1 = graphblas_obs::mem::totals();
        let mem_high = (m1.container_high - m0.container_live)
            + (m1.workspace_high - m0.workspace_live);
        // The deferred look-ahead must still be consumable: repeat the
        // stage and read it, which forces the queued subgraph in
        // nonblocking mode (and is an ordinary re-read in blocking).
        let z = Vector::<f64>::new_in(&pctx, p.pipe_n).expect("pipeline z tail");
        mxv(&z, no_mask_v(), None, &sr, &ap, &up, &d).expect("pipeline tail mxv");
        apply_v(&z, no_mask_v(), None, &pinc, &z, &d).expect("pipeline tail apply");
        assert!(
            z.nvals().expect("pipeline tail read") > 0,
            "pipeline look-ahead stage produced an empty result"
        );
        (t, mem_high)
    };
    let (t_pipe_blocking, mem_pipe_blocking) = run_pipeline_phase(Mode::Blocking);
    let (t_pipe, mem_pipe) = run_pipeline_phase(Mode::NonBlocking);

    // Fused apply chain (§III): a nonblocking child context queues
    // FUSE_CHAIN maps that `wait` flushes as one traversal — the workload
    // that exercises the pending-op fusion path (and, with decision
    // provenance on, emits `fuse-flush` events the explain gate asserts).
    const FUSE_CHAIN: usize = 6;
    let fuse_n = 1usize << (p.scale + 3);
    let fuse_ctx = Context::new(&ctx, Mode::NonBlocking, ContextOptions::default());
    let v = Vector::<f64>::new_in(&fuse_ctx, fuse_n).expect("fuse vector");
    let idx: Vec<usize> = (0..fuse_n).collect();
    let vals: Vec<f64> = (0..fuse_n).map(|i| i as f64).collect();
    v.build(&idx, &vals, None).expect("fuse build");
    v.wait(WaitMode::Materialize).expect("fuse materialize");
    let inc = UnaryOp::new("inc", |x: &f64| x + 1.0);
    let run_chain = |v: &Vector<f64>| {
        for _ in 0..FUSE_CHAIN {
            apply_v(v, no_mask_v(), None, &inc, v, &Descriptor::default()).expect("fused apply");
        }
        v.wait(WaitMode::Complete).expect("fuse wait");
    };
    run_chain(&v);
    let t_fused = median_secs(p.runs, || run_chain(&v));

    let snap = graphblas_obs::snapshot();
    // GRB_TRACE=<path> exports the per-thread timeline of everything above
    // as Chrome-trace JSON (validated by `tracecheck` in scripts/check.sh),
    // GRB_EXPLAIN=<path> the reason-coded decision history of the same run
    // as explain/v1 JSON (gated by `grbexplain` in check.sh).
    for path in graphblas_obs::write_exports() {
        println!("obs export written: {path}");
    }
    graphblas_obs::set_enabled(false);

    let speedup = |stat: f64, dynm: f64| {
        if stat > 0.0 { dynm / stat } else { 0.0 }
    };
    println!("| workload | static | dyn | dyn/static | graph |");
    println!("|----------|--------|-----|------------|-------|");
    println!(
        "| pagerank | {} | {} | {:.2}x | n={n}, {edges} edges |",
        fmt_time(t_pagerank),
        fmt_time(t_pagerank_dyn),
        speedup(t_pagerank, t_pagerank_dyn)
    );
    println!(
        "| bfs      | {} | {} | {:.2}x | n={n}, {edges} edges |",
        fmt_time(t_bfs),
        fmt_time(t_bfs_dyn),
        speedup(t_bfs, t_bfs_dyn)
    );
    println!(
        "| spgemm   | {} | (raw kernel) | | {}², {} nnz |",
        fmt_time(t_spgemm),
        p.spgemm_n,
        c.nnz()
    );
    println!(
        "| mxm      | {} | {} | {:.2}x | {}², {} nnz |",
        fmt_time(t_mxm),
        fmt_time(t_mxm_dyn),
        speedup(t_mxm, t_mxm_dyn),
        p.mxm_n,
        am.nvals().expect("mxm operand nvals")
    );
    println!(
        "| fused    | {} | | | {FUSE_CHAIN}-map chain, n={fuse_n} |",
        fmt_time(t_fused)
    );
    println!(
        "| pipeline | {} | {} | {:.2}x | apply→select→mxv→apply, n={} (nonblocking vs blocking) |",
        fmt_time(t_pipe),
        fmt_time(t_pipe_blocking),
        speedup(t_pipe, t_pipe_blocking),
        p.pipe_n
    );
    println!(
        "pipeline mem high-water growth: {} bytes nonblocking vs {} bytes blocking",
        mem_pipe, mem_pipe_blocking
    );
    println!(
        "workspace: {} checkouts, {} hits, {} misses, {} bytes reused",
        snap.workspace.checkouts, snap.workspace.hits, snap.workspace.misses, snap.workspace.bytes_reused
    );
    println!(
        "direction: {} push picks, {} pull picks, {} transpose builds, {} transpose hits",
        snap.direction.push_picks,
        snap.direction.pull_picks,
        snap.direction.transpose_builds,
        snap.direction.transpose_hits
    );
    let dispatched = snap.dispatch.static_hits + snap.dispatch.dyn_fallbacks;
    let hit_ratio = if dispatched > 0 {
        snap.dispatch.static_hits as f64 / dispatched as f64
    } else {
        0.0
    };
    println!(
        "dispatch: {} static hits, {} dyn fallbacks ({:.0}% registry hit ratio)",
        snap.dispatch.static_hits,
        snap.dispatch.dyn_fallbacks,
        hit_ratio * 100.0
    );
    println!(
        "format: {} sparse picks, {} full picks, {} conversions",
        snap.format.svec_picks, snap.format.full_picks, snap.format.conversions
    );
    println!("| kernel | calls | p50 | p99 | max |");
    println!("|--------|-------|-----|-----|-----|");
    for k in snap.kernels.iter().filter(|k| k.calls > 0) {
        let h = snap.hist(k.kernel);
        println!(
            "| {} | {} | {} | {} | {} |",
            k.kernel.name(),
            k.calls,
            fmt_time(h.p50() as f64 / 1e9),
            fmt_time(h.p99() as f64 / 1e9),
            fmt_time(h.max as f64 / 1e9)
        );
    }
    println!(
        "memory: containers {} live / {} high, workspace {} live / {} high (bytes)",
        snap.mem.container_live,
        snap.mem.container_high,
        snap.mem.workspace_live,
        snap.mem.workspace_high
    );

    // The acceptance bar for the workspace cache: a steady-state iterative
    // workload must be reusing scratch, not reallocating per call.
    assert!(
        snap.workspace.hits > 0,
        "workspace cache recorded no hits across pagerank/bfs/spgemm"
    );
    assert!(
        snap.workspace.hits >= snap.workspace.misses,
        "steady-state runs should mostly hit the workspace cache \
         ({} hits vs {} misses)",
        snap.workspace.hits,
        snap.workspace.misses
    );
    assert!(
        snap.direction.push_picks + snap.direction.pull_picks > 0,
        "direction dispatch recorded no picks"
    );
    // The registry ablation must have exercised both paths, and the store
    // layer must have made format picks (sparse or full) for the
    // frontier-producing workloads above.
    assert!(
        snap.dispatch.static_hits > 0 && snap.dispatch.dyn_fallbacks > 0,
        "dispatch ablation did not record both static hits ({}) and dyn \
         fallbacks ({})",
        snap.dispatch.static_hits,
        snap.dispatch.dyn_fallbacks
    );
    assert!(
        snap.format.svec_picks + snap.format.full_picks > 0,
        "vector store layer recorded no format picks"
    );
    // The histogram and memory layers must have seen this run: every kernel
    // that was called has latency samples, and the Table III stores the
    // workloads materialized were charged to the container gauge.
    for k in snap.kernels.iter().filter(|k| k.calls > 0) {
        let h = snap.hist(k.kernel);
        assert!(
            h.count == k.calls && h.p50() <= h.p99() && h.p99() <= h.max,
            "latency histogram inconsistent for {}: {} samples vs {} calls",
            k.kernel.name(),
            h.count,
            k.calls
        );
    }
    assert!(
        snap.mem.container_high > 0,
        "memory accounting recorded no container bytes"
    );
    // Decision provenance must have seen this run: the dispatcher, the
    // workspace cache, the fusion engine, the kernel registry, and the
    // format picker each made choices above, so each must have left
    // reason-coded events behind.
    let decided = |r: Reason| {
        snap.decisions
            .iter()
            .find(|(dr, _)| *dr == r)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    assert!(
        decided(Reason::DirectionPush) + decided(Reason::DirectionPull) > 0,
        "no direction-pick decision events recorded"
    );
    assert!(
        decided(Reason::WorkspaceHit) + decided(Reason::WorkspaceMiss) > 0,
        "no workspace-checkout decision events recorded"
    );
    assert!(
        decided(Reason::FuseFlush) > 0,
        "no fuse-flush decision events recorded"
    );
    assert!(
        decided(Reason::DispatchPick) > 0,
        "no dispatch-pick decision events recorded"
    );
    assert!(
        decided(Reason::FormatPick) > 0,
        "no format-pick decision events recorded"
    );
    assert_eq!(
        snap.decisions_total,
        snap.decisions.iter().map(|(_, n)| n).sum::<u64>(),
        "decision aggregates disagree with the total"
    );
    // The §III ablation acceptance bar: the fused nonblocking pipeline
    // must beat eager blocking execution on median latency AND peak
    // memory growth (the eliminated traversals and the never-built
    // look-ahead store are the whole point), and the DAG engine must
    // have left its accounting behind — enqueued nodes, input- and
    // output-side fusions, forced drains, and the matching reason-coded
    // decision events.
    assert!(
        t_pipe < t_pipe_blocking,
        "nonblocking fused pipeline ({}) is not faster than blocking ({})",
        fmt_time(t_pipe),
        fmt_time(t_pipe_blocking)
    );
    assert!(
        mem_pipe < mem_pipe_blocking,
        "nonblocking pipeline mem high-water growth ({mem_pipe} bytes) is not \
         strictly below blocking ({mem_pipe_blocking} bytes)"
    );
    assert!(snap.dag.nodes_enqueued > 0, "DAG recorded no enqueued op nodes");
    assert!(
        snap.dag.pre_fused > 0 && snap.dag.post_fused > 0,
        "DAG recorded no cross-operation fusion (pre {} / post {})",
        snap.dag.pre_fused,
        snap.dag.post_fused
    );
    assert!(snap.dag.forces > 0, "DAG recorded no forced drains");
    assert!(
        decided(Reason::DagFuse) > 0,
        "no dag-fuse decision events recorded"
    );
    assert!(
        decided(Reason::DagForce) > 0,
        "no dag-force decision events recorded"
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("graphblas-bench/kernels/v4");
    w.key("smoke");
    w.boolean(p.smoke);
    w.key("scale");
    w.number(p.scale as u64);
    w.key("runs");
    w.number(p.runs as u64);
    w.key("graph");
    w.begin_object();
    w.key("n");
    w.number(n as u64);
    w.key("edges");
    w.number(edges as u64);
    w.key("spgemm_n");
    w.number(p.spgemm_n as u64);
    w.key("spgemm_nnz");
    w.number(c.nnz() as u64);
    w.key("mxm_n");
    w.number(p.mxm_n as u64);
    w.key("mxm_nnz");
    w.number(am.nvals().expect("mxm operand nvals") as u64);
    w.end_object();
    // Registry-on medians under the workload's own name (so benchcmp
    // diffs them against older baselines), dyn-forced medians under the
    // `_dyn` suffix — the in-baseline form of the §II dispatch ablation.
    w.key("median_secs");
    w.begin_object();
    w.key("pagerank");
    w.number_f64(t_pagerank);
    w.key("pagerank_dyn");
    w.number_f64(t_pagerank_dyn);
    w.key("bfs");
    w.number_f64(t_bfs);
    w.key("bfs_dyn");
    w.number_f64(t_bfs_dyn);
    w.key("spgemm");
    w.number_f64(t_spgemm);
    w.key("mxm");
    w.number_f64(t_mxm);
    w.key("mxm_dyn");
    w.number_f64(t_mxm_dyn);
    w.key("fused_apply");
    w.number_f64(t_fused);
    w.key("fused_pipeline");
    w.number_f64(t_pipe);
    w.key("fused_pipeline_blocking");
    w.number_f64(t_pipe_blocking);
    w.end_object();
    // The §III blocking-vs-nonblocking ablation, with the per-mode peak
    // memory growth (`mem_high`) alongside the medians benchcmp diffs.
    w.key("fused_pipeline");
    w.begin_object();
    w.key("chain");
    w.string("apply-select-mxv-apply");
    w.key("n");
    w.number(p.pipe_n as u64);
    w.key("nnz");
    w.number(ap_rows.len() as u64);
    w.key("nonblocking");
    w.begin_object();
    w.key("median_secs");
    w.number_f64(t_pipe);
    w.key("mem_high");
    w.number(mem_pipe);
    w.end_object();
    w.key("blocking");
    w.begin_object();
    w.key("median_secs");
    w.number_f64(t_pipe_blocking);
    w.key("mem_high");
    w.number(mem_pipe_blocking);
    w.end_object();
    w.end_object();
    w.key("workspace");
    w.begin_object();
    w.key("checkouts");
    w.number(snap.workspace.checkouts);
    w.key("hits");
    w.number(snap.workspace.hits);
    w.key("misses");
    w.number(snap.workspace.misses);
    w.key("bytes_reused");
    w.number(snap.workspace.bytes_reused);
    w.end_object();
    w.key("direction");
    w.begin_object();
    w.key("push_picks");
    w.number(snap.direction.push_picks);
    w.key("pull_picks");
    w.number(snap.direction.pull_picks);
    w.key("transpose_builds");
    w.number(snap.direction.transpose_builds);
    w.key("transpose_hits");
    w.number(snap.direction.transpose_hits);
    w.end_object();
    // Kernel-registry dispatch statistics for the whole run. The hit
    // ratio is diluted by the forced-dyn ablation phases by design — it
    // still proves the registry claimed every builtin-semiring kernel the
    // static phases dispatched.
    w.key("dispatch");
    w.begin_object();
    w.key("static_hits");
    w.number(snap.dispatch.static_hits);
    w.key("dyn_fallbacks");
    w.number(snap.dispatch.dyn_fallbacks);
    w.key("hit_ratio");
    w.number_f64(hit_ratio);
    w.end_object();
    w.key("format");
    w.begin_object();
    w.key("bitmap_picks");
    w.number(snap.format.bitmap_picks);
    w.key("svec_picks");
    w.number(snap.format.svec_picks);
    w.key("conversions");
    w.number(snap.format.conversions);
    w.end_object();
    // Per-kernel latency distribution (log₂-bucket histograms, kernels that
    // actually ran). Medians above answer "how fast overall"; these answer
    // "where did the time go and how heavy is the tail".
    w.key("kernels");
    w.begin_object();
    for k in snap.kernels.iter().filter(|k| k.calls > 0) {
        let h = snap.hist(k.kernel);
        w.key(k.kernel.name());
        w.begin_object();
        w.key("calls");
        w.number(k.calls);
        w.key("nanos");
        w.number(k.nanos);
        w.key("p50_ns");
        w.number(h.p50());
        w.key("p99_ns");
        w.number(h.p99());
        w.key("max_ns");
        w.number(h.max);
        w.end_object();
    }
    w.end_object();
    w.key("mem");
    w.begin_object();
    w.key("container_live_bytes");
    w.number(snap.mem.container_live);
    w.key("container_high_bytes");
    w.number(snap.mem.container_high);
    w.key("workspace_live_bytes");
    w.number(snap.mem.workspace_live);
    w.key("workspace_high_bytes");
    w.number(snap.mem.workspace_high);
    w.end_object();
    w.end_object();
    let json = w.finish();
    // Smoke runs (scale 9) and full runs (scale 13) are numerically
    // incomparable, so they keep separate baseline files — benchcmp then
    // always diffs like against like.
    let kernels_file = if p.smoke {
        "BENCH_kernels_smoke.json"
    } else {
        "BENCH_kernels.json"
    };
    std::fs::write(kernels_file, &json).expect("write kernels baseline");
    println!("baseline written: {kernels_file} ({} bytes)", json.len());

    // The same run's full telemetry snapshot (histograms, per-context
    // rollups, memory gauges — everything `graphblas_obs::snapshot`
    // collects, minus the span list) as the second baseline file.
    let obs_json = snap.to_json_with(false);
    std::fs::write("BENCH_obs.json", &obs_json).expect("write BENCH_obs.json");
    println!("obs snapshot written: BENCH_obs.json ({} bytes)", obs_json.len());
}
