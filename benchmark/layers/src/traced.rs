//! The traced phase: telemetry on, harness spans around every call into
//! `io`, `core` and `algo`, a fixed number of reps, engine counters read
//! once at the end and divided by the rep count.

use std::collections::BTreeMap;

use graphblas_obs::{Kernel, Snapshot};
use grb_harness::pass::{self, Plan};
use grb_harness::spans::{self, Span, Tracer};
use grb_harness::stats::p10;
use grb_harness::workloads::{Workload, UPDATE_REMOVES, UPDATE_SETS};
use grb_harness::{metric, print_metrics, ratio, Args, Metric, SETUPS};

/// The kernel families reported per rep. `Wait` is a container-level span
/// that encloses the drains it forces, so it is reported but never summed
/// into kernel busy time.
const KERNELS: [Kernel; 12] = [
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
];

/// Per rep: (seconds inside spans called `name`, number of such spans),
/// over timed reps only (rep id ≥ 1).
fn per_rep(spans: &[Span], name: &str) -> Vec<(f64, u32)> {
    let mut reps: BTreeMap<u32, (f64, u32)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name && s.rep >= 1) {
        let e = reps.entry(s.rep).or_default();
        e.0 += s.duration_ns() as f64 * 1e-9;
        e.1 += 1;
    }
    reps.into_values().collect()
}

/// p10 over reps of the time one call named `name` takes, where each span
/// wraps `calls_per_span` engine calls.
fn call_s(spans: &[Span], name: &str, calls_per_span: usize) -> f64 {
    let per_call: Vec<f64> = per_rep(spans, name)
        .into_iter()
        .map(|(total, count)| total / (count as usize * calls_per_span) as f64)
        .collect();
    p10(&per_call)
}

/// Like [`call_s`] for calls that happen in the rep on some workloads and
/// only at set-up (rep id 0) on others: timed reps when they have the
/// span, otherwise the p10 over the set-up spans.
fn call_or_setup_s(spans: &[Span], name: &str) -> f64 {
    let in_reps = call_s(spans, name, 1);
    if in_reps > 0.0 {
        return in_reps;
    }
    let at_setup: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    p10(&at_setup)
}

fn span_metrics(spans: &[Span]) -> Vec<Metric> {
    let algo_total: Vec<f64> = {
        let mut reps: BTreeMap<u32, f64> = BTreeMap::new();
        for s in spans
            .iter()
            .filter(|s| s.name.starts_with("algo.") && s.rep >= 1)
        {
            *reps.entry(s.rep).or_default() += s.duration_ns() as f64 * 1e-9;
        }
        reps.into_values().collect()
    };
    let rep_ids: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "rep" && spans[i].rep >= 1)
        .collect();
    let rep_ns: u64 = rep_ids.iter().map(|&i| spans[i].duration_ns()).sum();
    let rep_self_ns: u64 = rep_ids.iter().map(|&i| spans::self_time_ns(spans, i)).sum();
    vec![
        metric("algo.call_s", p10(&algo_total), "s"),
        metric(
            "algo.bfs_levels_s",
            call_s(spans, "algo.bfs_levels", 1),
            "s",
        ),
        metric(
            "algo.bfs_parents_s",
            call_s(spans, "algo.bfs_parents", 1),
            "s",
        ),
        metric("core.build_s", call_or_setup_s(spans, "core.build"), "s"),
        metric("core.wait_s", call_s(spans, "core.wait", 1), "s"),
        metric(
            "core.set_element_ns",
            call_s(spans, "core.set_element", UPDATE_SETS) * 1e9,
            "ns",
        ),
        metric(
            "core.remove_element_us",
            call_s(spans, "core.remove_element", UPDATE_REMOVES) * 1e6,
            "us",
        ),
        metric("core.chain_s", call_s(spans, "core.chain", 1), "s"),
        metric(
            "core.extract_tuples_s",
            call_s(spans, "core.extract_tuples", 1),
            "s",
        ),
        metric("core.serialize_s", call_s(spans, "core.serialize", 1), "s"),
        metric(
            "core.deserialize_s",
            call_s(spans, "core.deserialize", 1),
            "s",
        ),
        metric("core.mxm_s", call_s(spans, "core.mxm", 1), "s"),
        metric(
            "harness.unattributed_share",
            ratio(rep_self_ns as f64, rep_ns as f64),
            "ratio",
        ),
    ]
}

/// Engine counters over `reps` reps, per rep. `rep_s` is the summed wall
/// time of those reps.
fn counter_metrics(snap: &Snapshot, reps: f64, rep_s: f64) -> Vec<Metric> {
    let per = |x: u64| x as f64 / reps;
    let mut m = Vec::new();
    let (mut busy_ns, mut calls, mut flops, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for k in KERNELS {
        let t = snap.kernel(k);
        if k != Kernel::Wait {
            busy_ns += t.nanos;
            calls += t.calls;
            flops += t.flops;
            bytes += t.bytes_moved;
        }
        m.push(metric(
            format!("sparse.{}.calls", k.name()),
            per(t.calls),
            "count",
        ));
        m.push(metric(
            format!("sparse.{}.busy_s", k.name()),
            per(t.nanos) * 1e-9,
            "s",
        ));
    }
    let count = |name: &str, x: u64| metric(name, per(x), "count");
    m.extend([
        metric("sparse.kernel_busy_s", per(busy_ns) * 1e-9, "s"),
        // Computed by the engine from operand sizes, not measured traffic.
        count("sparse.flops_per_rep", flops),
        metric("sparse.bytes_moved_per_rep", per(bytes), "B"),
        metric(
            "sparse.flops_per_byte",
            ratio(flops as f64, bytes as f64),
            "ratio",
        ),
        metric(
            "core.self_share",
            1.0 - ratio(busy_ns as f64 * 1e-9, rep_s),
            "ratio",
        ),
        count("core.kernel_calls", calls),
        count("core.dispatch_static_hits", snap.dispatch.static_hits),
        count("core.dispatch_dyn_fallbacks", snap.dispatch.dyn_fallbacks),
        metric(
            "core.dispatch_hit_ratio",
            ratio(
                snap.dispatch.static_hits as f64,
                (snap.dispatch.static_hits + snap.dispatch.dyn_fallbacks) as f64,
            ),
            "ratio",
        ),
        count("core.direction_push_picks", snap.direction.push_picks),
        count("core.direction_pull_picks", snap.direction.pull_picks),
        count("core.transpose_builds", snap.direction.transpose_builds),
        count("core.transpose_hits", snap.direction.transpose_hits),
        count("core.format_bitmap_picks", snap.format.bitmap_picks),
        count("core.format_conversions", snap.format.conversions),
        count("core.dag_nodes", snap.dag.nodes_enqueued),
        count("core.dag_pre_fused", snap.dag.pre_fused),
        count("core.dag_post_fused", snap.dag.post_fused),
        count("core.dag_forces", snap.dag.forces),
        count("core.dag_async_drains", snap.dag.async_drains),
        count("core.pending_fusion_hits", snap.pending.fusion_hits),
        count("core.pending_drains", snap.pending.drains),
        count("exec.workspace_checkouts", snap.workspace.checkouts),
        metric(
            "exec.workspace_hit_ratio",
            ratio(snap.workspace.hits as f64, snap.workspace.checkouts as f64),
            "ratio",
        ),
        metric(
            "exec.workspace_bytes_reused",
            per(snap.workspace.bytes_reused),
            "B",
        ),
        metric(
            "obs.container_high_bytes",
            snap.mem.container_high as f64,
            "B",
        ),
        metric(
            "obs.workspace_high_bytes",
            snap.mem.workspace_high as f64,
            "B",
        ),
    ]);
    m
}

/// The n-thread traced run reports only what the pool did per rep.
fn pool_metrics(snap: &Snapshot, reps: f64) -> Vec<Metric> {
    let per = |x: u64| x as f64 / reps;
    vec![
        metric("exec.pool_tasks", per(snap.pool.tasks_spawned), "count"),
        metric(
            "exec.pool_task_wait_s",
            per(snap.pool.task_wait_ns) * 1e-9,
            "s",
        ),
        metric(
            "exec.pool_task_run_s",
            per(snap.pool.task_run_ns) * 1e-9,
            "s",
        ),
        metric(
            "exec.pool_queue_depth_max",
            snap.pool.queue_depth_max as f64,
            "count",
        ),
    ]
}

pub fn run<W: Workload>(args: &Args) -> u8 {
    // On before the context exists, so the context registers with telemetry.
    graphblas_obs::set_enabled(true);
    let ctx = pass::context_for::<W>(!args.nt);
    let plan = Plan {
        seconds: 0.0,
        min_reps: match (args.quick, args.nt) {
            (true, _) => 5,
            (false, true) => 10,
            (false, false) => 30,
        },
        setups: SETUPS,
        force_wrong_answer: false,
    };
    let mut tr = Tracer::on();
    let prep = pass::prepare::<W>(args.seed, args.quick, &ctx, &plan, &mut tr);
    graphblas_obs::set_enabled(false);
    graphblas_obs::reset();
    // Telemetry is on only while a rep's clock runs: the checksums' own
    // engine calls (nvals, reduce, extract) and the verification at the
    // end stay out of the counters.
    let toggle = &mut graphblas_obs::set_enabled;
    let p = match prep.and_then(|prep| pass::measure(prep, &ctx, &plan, &mut tr, toggle)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: verification failed: {e}", W::NAME);
            return 1;
        }
    };
    let snap = graphblas_obs::snapshot();

    let reps = p.rep_s.len() as f64;
    let metrics = if args.nt {
        pool_metrics(&snap, reps)
    } else {
        let mut m = span_metrics(tr.spans());
        m.extend(counter_metrics(&snap, reps, p.rep_s.iter().sum()));
        m.push(metric("obs.traced_rep_s_p10_1t", p.summary().p10, "s"));
        let path = format!("benchmark/out/{}.spans.json", W::NAME);
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, spans::to_json(tr.spans())));
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        m
    };
    print_metrics(W::NAME, &metrics);
    if let Some(e) = &p.tally.first_error {
        eprintln!(
            "{}: traced run: {} operations failed; first: {e}",
            W::NAME,
            p.tally.failed
        );
    }
    p.tally.exit_code()
}
