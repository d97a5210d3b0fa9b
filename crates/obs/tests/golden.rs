//! Every counter at a distinct value, and the two outputs that carry them
//! pinned: `Snapshot::to_json_with(false)` byte for byte, and the
//! Prometheus exposition of `export::render()` as a sorted list of lines
//! (family order is free; the lines are not). A change to how the counters
//! are declared must leave both as they are.
//!
//! One test in its own binary: the counters are process-global, so nothing
//! else may record between the writes and the reads. The test prints both
//! outputs, which the harness shows when it fails: after a deliberate
//! change to either, those are the new values to pin.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

use graphblas_obs::counters::{self, Kernel};

const KERNELS: [Kernel; 13] = [
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

/// Families whose value is a rate over the sampler window: it depends on
/// when the test runs, so only the line's name and labels are compared.
const WINDOW_FAMILIES: [&str; 3] = [
    "grb_kernel_rate",
    "grb_pending_drain_rate",
    "grb_rate_bytes",
];

/// Adds the next distinct value to `c`.
fn set(c: &AtomicU64, next: &mut u64) {
    *next += 1;
    c.fetch_add(*next, Relaxed);
}

fn fill_counters() {
    let mut next = 0;
    for (i, &k) in KERNELS.iter().enumerate() {
        // One recorded call puts a latency sample in the histogram.
        counters::record_kernel(k, 1000 * (i as u64 + 1), 0, 0, 0, 0);
        let c = counters::kernel(k);
        for f in [
            &c.calls,
            &c.nanos,
            &c.flops,
            &c.nnz_in,
            &c.nnz_out,
            &c.bytes_moved,
        ] {
            set(f, &mut next);
        }
    }
    let p = counters::pending();
    for f in [
        &p.maps_enqueued,
        &p.opaques_enqueued,
        &p.fusion_hits,
        &p.map_traversals,
        &p.opaque_drains,
        &p.drains,
        &p.errors_raised,
        &p.errors_deferred,
    ] {
        set(f, &mut next);
    }
    counters::note_pending_depth(417);
    let d = counters::dag();
    for f in [
        &d.nodes_enqueued,
        &d.pre_fused,
        &d.post_fused,
        &d.fused_chains,
        &d.async_drains,
        &d.forces,
    ] {
        set(f, &mut next);
    }
    let w = counters::workspace();
    for f in [&w.checkouts, &w.hits, &w.misses, &w.bytes_reused] {
        set(f, &mut next);
    }
    let d = counters::direction();
    for f in [
        &d.push_picks,
        &d.pull_picks,
        &d.transpose_builds,
        &d.transpose_hits,
    ] {
        set(f, &mut next);
    }
    let d = counters::dispatch();
    for f in [&d.static_hits, &d.dyn_fallbacks] {
        set(f, &mut next);
    }
    let f = counters::format();
    for c in [
        &f.bitmap_picks,
        &f.svec_picks,
        &f.full_picks,
        &f.conversions,
    ] {
        set(c, &mut next);
    }
    // Workers 0 and 2 ran a task each (so `workers` is 3); the run times
    // are long enough that window utilization clamps at 1.
    counters::record_pool_task(0, 7, 1 << 50);
    counters::record_pool_task(2, 11, 1 << 51);
    // Two pushes ahead of the adds below leave one job queued.
    counters::record_pool_enqueue(23);
    counters::record_pool_enqueue(5);
    let p = counters::pool();
    for f in [
        &p.tasks_spawned,
        &p.tasks_inline,
        &p.parks,
        &p.wakes,
        &p.scopes,
        &p.jobs_queued,
        &p.jobs_dequeued,
        &p.tasks_completed,
        &p.task_wait_ns,
        &p.task_run_ns,
    ] {
        set(f, &mut next);
    }
    let s = counters::sampler();
    for f in [&s.samples, &s.scrapes, &s.dump_writes] {
        set(f, &mut next);
    }
}

/// The exposition's lines, sorted, with window-rate values masked.
fn exposition_lines() -> Vec<String> {
    let mut lines: Vec<String> = graphblas_obs::export::render()
        .lines()
        .map(|l| {
            let name = l.split(['{', ' ']).next().unwrap_or("");
            match l.rsplit_once(' ') {
                Some((head, _)) if WINDOW_FAMILIES.contains(&name) => format!("{head} ~"),
                _ => l.to_string(),
            }
        })
        .collect();
    lines.sort();
    lines
}

#[test]
fn every_counter_keeps_its_json_key_and_its_metric() {
    graphblas_obs::reset();
    fill_counters();
    let json = graphblas_obs::snapshot().to_json_with(false);
    let lines = exposition_lines();
    println!("{json}");
    for l in &lines {
        println!("{l}");
    }
    assert_eq!(json, GOLDEN_JSON);
    for (got, want) in lines.iter().zip(GOLDEN_EXPOSITION) {
        assert_eq!(got, want);
    }
    assert_eq!(lines.len(), GOLDEN_EXPOSITION.len());
}

const GOLDEN_JSON: &str = concat!(
    r#"{"enabled":false,"kernels":{"spgemm":{"calls":2,"nanos":1002,"flops":3,"nnz_in":4,"#,
    r#""nnz_out":5,"bytes_moved":6,"p50_ns":1000,"p90_ns":1000,"p99_ns":1000,"max_ns":1000},"#,
    r#""spmv":{"calls":8,"nanos":2008,"flops":9,"nnz_in":10,"nnz_out":11,"bytes_moved":12,"#,
    r#""p50_ns":2000,"p90_ns":2000,"p99_ns":2000,"max_ns":2000},"vxm":{"calls":14,"nanos":3014,"#,
    r#""flops":15,"nnz_in":16,"nnz_out":17,"bytes_moved":18,"p50_ns":3000,"p90_ns":3000,"#,
    r#""p99_ns":3000,"max_ns":3000},"ewise_add":{"calls":20,"nanos":4020,"flops":21,"#,
    r#""nnz_in":22,"nnz_out":23,"bytes_moved":24,"p50_ns":4000,"p90_ns":4000,"p99_ns":4000,"#,
    r#""max_ns":4000},"ewise_mult":{"calls":26,"nanos":5026,"flops":27,"nnz_in":28,"#,
    r#""nnz_out":29,"bytes_moved":30,"p50_ns":5000,"p90_ns":5000,"p99_ns":5000,"max_ns":5000},"#,
    r#""transpose":{"calls":32,"nanos":6032,"flops":33,"nnz_in":34,"nnz_out":35,"#,
    r#""bytes_moved":36,"p50_ns":6000,"p90_ns":6000,"p99_ns":6000,"max_ns":6000},"#,
    r#""apply":{"calls":38,"nanos":7038,"flops":39,"nnz_in":40,"nnz_out":41,"bytes_moved":42,"#,
    r#""p50_ns":7000,"p90_ns":7000,"p99_ns":7000,"max_ns":7000},"select":{"calls":44,"#,
    r#""nanos":8044,"flops":45,"nnz_in":46,"nnz_out":47,"bytes_moved":48,"p50_ns":8000,"#,
    r#""p90_ns":8000,"p99_ns":8000,"max_ns":8000},"reduce":{"calls":50,"nanos":9050,"flops":51,"#,
    r#""nnz_in":52,"nnz_out":53,"bytes_moved":54,"p50_ns":9000,"p90_ns":9000,"p99_ns":9000,"#,
    r#""max_ns":9000},"map_fuse":{"calls":56,"nanos":10056,"flops":57,"nnz_in":58,"nnz_out":59,"#,
    r#""bytes_moved":60,"p50_ns":10000,"p90_ns":10000,"p99_ns":10000,"max_ns":10000},"#,
    r#""convert":{"calls":62,"nanos":11062,"flops":63,"nnz_in":64,"nnz_out":65,"#,
    r#""bytes_moved":66,"p50_ns":11000,"p90_ns":11000,"p99_ns":11000,"max_ns":11000},"#,
    r#""wait":{"calls":68,"nanos":12068,"flops":69,"nnz_in":70,"nnz_out":71,"bytes_moved":72,"#,
    r#""p50_ns":12000,"p90_ns":12000,"p99_ns":12000,"max_ns":12000},"kron":{"calls":74,"#,
    r#""nanos":13074,"flops":75,"nnz_in":76,"nnz_out":77,"bytes_moved":78,"p50_ns":13000,"#,
    r#""p90_ns":13000,"p99_ns":13000,"max_ns":13000}},"pending":{"maps_enqueued":79,"#,
    r#""opaques_enqueued":80,"fusion_hits":81,"map_traversals":82,"opaque_drains":83,"#,
    r#""drains":84,"max_depth":417,"errors_raised":85,"errors_deferred":86},"#,
    r#""dag":{"nodes_enqueued":87,"pre_fused":88,"post_fused":89,"fused_chains":90,"#,
    r#""async_drains":91,"forces":92},"pool":{"tasks_spawned":107,"tasks_inline":108,"#,
    r#""parks":109,"wakes":110,"scopes":111,"jobs_queued":114,"jobs_dequeued":113,"#,
    r#""queue_depth_max":23,"tasks_completed":116,"task_wait_ns":133,"#,
    r#""task_run_ns":3377699720527988,"workers":3,"#,
    r#""worker_busy_ns":[1125899906842624,0,2251799813685248]},"sampler":{"samples":117,"#,
    r#""scrapes":118,"dump_writes":119},"workspace":{"checkouts":93,"hits":94,"misses":95,"#,
    r#""bytes_reused":96},"direction":{"push_picks":97,"pull_picks":98,"transpose_builds":99,"#,
    r#""transpose_hits":100},"dispatch":{"static_hits":101,"dyn_fallbacks":102},"#,
    r#""format":{"bitmap_picks":103,"svec_picks":104,"full_picks":105,"conversions":106},"#,
    r#""mem":{"container_live_bytes":0,"container_high_bytes":0,"workspace_live_bytes":0,"#,
    r#""workspace_high_bytes":0},"contexts":[],"decisions":{"direction-push":0,"#,
    r#""direction-pull":0,"workspace-hit":0,"workspace-miss":0,"workspace-trim":0,"#,
    r#""fuse-flush":0,"opaque-drain":0,"convert-csr":0,"convert-sparse":0,"transpose-build":0,"#,
    r#""transpose-hit":0,"kernel-path":0,"error-raised":0,"error-deferred":0,"dispatch-pick":0,"#,
    r#""format-pick":0,"dag-fuse":0,"dag-force":0},"decisions_total":0,"events_total":0}"#,
);

const GOLDEN_EXPOSITION: &[&str] = &[
    r#"# HELP grb_dag_async_drains DAG drains handed to the worker pool."#,
    r#"# HELP grb_dag_forces Forced DAG drains (read/wait/self-input barriers)."#,
    r#"# HELP grb_dag_fused_chains Node drains that fused at least one stage."#,
    r#"# HELP grb_dag_nodes_enqueued Lazy op nodes enqueued on container DAGs."#,
    r#"# HELP grb_dag_post_fused Trailing map stages drained with their node."#,
    r#"# HELP grb_dag_pre_fused Input-side map stages folded into node kernels."#,
    r#"# HELP grb_decisions_by_reason Decision events per reason code."#,
    r#"# HELP grb_decisions_total Decision events recorded in total."#,
    r#"# HELP grb_direction_pull_picks mxv/vxm dispatches resolved to the pull kernel."#,
    r#"# HELP grb_direction_push_picks mxv/vxm dispatches resolved to the push kernel."#,
    r#"# HELP grb_direction_transpose_builds Transposes computed into the memo cache."#,
    r#"# HELP grb_direction_transpose_hits Transpose requests served from the memo cache."#,
    r#"# HELP grb_dispatch_dyn_fallbacks Dispatches on the erased-closure fallback path."#,
    r#"# HELP grb_dispatch_static_hits Dispatches served by a monomorphized kernel."#,
    r#"# HELP grb_events_total Span events ever recorded (ring may have dropped some)."#,
    r#"# HELP grb_format_bitmap_picks Results stored in bitmap format."#,
    r#"# HELP grb_format_conversions Bitmap- or full-to-sparse conversions forced downstream."#,
    r#"# HELP grb_format_full_picks Results stored full (every position present)."#,
    r#"# HELP grb_format_svec_picks Results kept in sparse index/value format."#,
    r#"# HELP grb_kernel_bytes_moved Cumulative bytes read and written by kernels."#,
    r#"# HELP grb_kernel_calls Finished invocations per kernel family."#,
    r#"# HELP grb_kernel_flops Cumulative semiring operations performed."#,
    r#"# HELP grb_kernel_max_ns Largest kernel latency observed."#,
    r#"# HELP grb_kernel_nanos Cumulative kernel wall time in nanoseconds."#,
    r#"# HELP grb_kernel_nnz_in Cumulative input nonzeros consumed."#,
    r#"# HELP grb_kernel_nnz_out Cumulative output nonzeros produced."#,
    r#"# HELP grb_kernel_p50_ns Median kernel latency over the process lifetime."#,
    r#"# HELP grb_kernel_p99_ns 99th-percentile kernel latency over the process lifetime."#,
    r#"# HELP grb_kernel_rate Kernel invocations per second over the sampler window."#,
    r#"# HELP grb_kernel_rolling_p99_ns 99th-percentile kernel latency over the sampler window."#,
    r#"# HELP grb_mem_container_high_bytes High-water container-store bytes."#,
    r#"# HELP grb_mem_container_live_bytes Live bytes held by container stores."#,
    r#"# HELP grb_mem_workspace_high_bytes High-water workspace-cache bytes."#,
    r#"# HELP grb_mem_workspace_live_bytes Live bytes held by the workspace cache."#,
    r#"# HELP grb_pending_drain_rate Queue drains per second over the sampler window."#,
    r#"# HELP grb_pending_drains Queue-drain events that found work."#,
    r#"# HELP grb_pending_errors_deferred Errors surfaced from a drained deferred sequence."#,
    r#"# HELP grb_pending_errors_raised Execution errors constructed."#,
    r#"# HELP grb_pending_fusion_hits Map stages absorbed into a preceding traversal."#,
    r#"# HELP grb_pending_map_traversals Fused map traversals executed."#,
    r#"# HELP grb_pending_maps_enqueued Fusible map stages enqueued."#,
    r#"# HELP grb_pending_max_depth High-water pending-queue depth."#,
    r#"# HELP grb_pending_opaque_drains Opaque stages executed at drain time."#,
    r#"# HELP grb_pending_opaques_enqueued Opaque stages enqueued."#,
    r#"# HELP grb_pool_jobs_dequeued Jobs taken off the queue by workers."#,
    r#"# HELP grb_pool_jobs_queued Jobs pushed onto the shared pool queue."#,
    r#"# HELP grb_pool_parks Workers blocked waiting for work."#,
    r#"# HELP grb_pool_queue_depth Jobs currently waiting in the pool queue."#,
    r#"# HELP grb_pool_queue_depth_max High-water pool queue depth."#,
    r#"# HELP grb_pool_scopes ThreadPool::scope entries."#,
    r#"# HELP grb_pool_task_run_ns Cumulative nanoseconds tasks spent executing."#,
    r#"# HELP grb_pool_task_wait_ns Cumulative nanoseconds tasks sat queued."#,
    r#"# HELP grb_pool_tasks_completed Offloaded tasks that ran to completion."#,
    r#"# HELP grb_pool_tasks_inline Tasks executed inline in nested parallel regions."#,
    r#"# HELP grb_pool_tasks_spawned Tasks submitted to pool workers."#,
    r#"# HELP grb_pool_utilization Mean worker busy fraction over the sampler window."#,
    r#"# HELP grb_pool_wakes Parked workers woken by a new job."#,
    r#"# HELP grb_pool_worker_busy_ns Cumulative busy nanoseconds per worker."#,
    r#"# HELP grb_pool_workers Worker busy-table slots in use."#,
    r#"# HELP grb_rate_bytes Bytes moved per second over the sampler window."#,
    r#"# HELP grb_sampler_dump_writes GRB_METRICS_DUMP exposition files written."#,
    r#"# HELP grb_sampler_samples Periodic snapshots taken by the sampler thread."#,
    r#"# HELP grb_sampler_scrapes Scrape requests served by the metrics endpoint."#,
    r#"# HELP grb_workspace_bytes_reused Buffer capacity handed back on cache hits."#,
    r#"# HELP grb_workspace_checkouts Scratch checkouts requested by kernels."#,
    r#"# HELP grb_workspace_hits Checkouts served from the per-thread cache."#,
    r#"# HELP grb_workspace_misses Checkouts that allocated a fresh workspace."#,
    r#"# TYPE grb_dag_async_drains counter"#,
    r#"# TYPE grb_dag_forces counter"#,
    r#"# TYPE grb_dag_fused_chains counter"#,
    r#"# TYPE grb_dag_nodes_enqueued counter"#,
    r#"# TYPE grb_dag_post_fused counter"#,
    r#"# TYPE grb_dag_pre_fused counter"#,
    r#"# TYPE grb_decisions_by_reason counter"#,
    r#"# TYPE grb_decisions_total counter"#,
    r#"# TYPE grb_direction_pull_picks counter"#,
    r#"# TYPE grb_direction_push_picks counter"#,
    r#"# TYPE grb_direction_transpose_builds counter"#,
    r#"# TYPE grb_direction_transpose_hits counter"#,
    r#"# TYPE grb_dispatch_dyn_fallbacks counter"#,
    r#"# TYPE grb_dispatch_static_hits counter"#,
    r#"# TYPE grb_events_total counter"#,
    r#"# TYPE grb_format_bitmap_picks counter"#,
    r#"# TYPE grb_format_conversions counter"#,
    r#"# TYPE grb_format_full_picks counter"#,
    r#"# TYPE grb_format_svec_picks counter"#,
    r#"# TYPE grb_kernel_bytes_moved counter"#,
    r#"# TYPE grb_kernel_calls counter"#,
    r#"# TYPE grb_kernel_flops counter"#,
    r#"# TYPE grb_kernel_max_ns gauge"#,
    r#"# TYPE grb_kernel_nanos counter"#,
    r#"# TYPE grb_kernel_nnz_in counter"#,
    r#"# TYPE grb_kernel_nnz_out counter"#,
    r#"# TYPE grb_kernel_p50_ns gauge"#,
    r#"# TYPE grb_kernel_p99_ns gauge"#,
    r#"# TYPE grb_kernel_rate gauge"#,
    r#"# TYPE grb_kernel_rolling_p99_ns gauge"#,
    r#"# TYPE grb_mem_container_high_bytes gauge"#,
    r#"# TYPE grb_mem_container_live_bytes gauge"#,
    r#"# TYPE grb_mem_workspace_high_bytes gauge"#,
    r#"# TYPE grb_mem_workspace_live_bytes gauge"#,
    r#"# TYPE grb_pending_drain_rate gauge"#,
    r#"# TYPE grb_pending_drains counter"#,
    r#"# TYPE grb_pending_errors_deferred counter"#,
    r#"# TYPE grb_pending_errors_raised counter"#,
    r#"# TYPE grb_pending_fusion_hits counter"#,
    r#"# TYPE grb_pending_map_traversals counter"#,
    r#"# TYPE grb_pending_maps_enqueued counter"#,
    r#"# TYPE grb_pending_max_depth gauge"#,
    r#"# TYPE grb_pending_opaque_drains counter"#,
    r#"# TYPE grb_pending_opaques_enqueued counter"#,
    r#"# TYPE grb_pool_jobs_dequeued counter"#,
    r#"# TYPE grb_pool_jobs_queued counter"#,
    r#"# TYPE grb_pool_parks counter"#,
    r#"# TYPE grb_pool_queue_depth gauge"#,
    r#"# TYPE grb_pool_queue_depth_max gauge"#,
    r#"# TYPE grb_pool_scopes counter"#,
    r#"# TYPE grb_pool_task_run_ns counter"#,
    r#"# TYPE grb_pool_task_wait_ns counter"#,
    r#"# TYPE grb_pool_tasks_completed counter"#,
    r#"# TYPE grb_pool_tasks_inline counter"#,
    r#"# TYPE grb_pool_tasks_spawned counter"#,
    r#"# TYPE grb_pool_utilization gauge"#,
    r#"# TYPE grb_pool_wakes counter"#,
    r#"# TYPE grb_pool_worker_busy_ns counter"#,
    r#"# TYPE grb_pool_workers gauge"#,
    r#"# TYPE grb_rate_bytes gauge"#,
    r#"# TYPE grb_sampler_dump_writes counter"#,
    r#"# TYPE grb_sampler_samples counter"#,
    r#"# TYPE grb_sampler_scrapes counter"#,
    r#"# TYPE grb_workspace_bytes_reused counter"#,
    r#"# TYPE grb_workspace_checkouts counter"#,
    r#"# TYPE grb_workspace_hits counter"#,
    r#"# TYPE grb_workspace_misses counter"#,
    r#"grb_dag_async_drains 91"#,
    r#"grb_dag_forces 92"#,
    r#"grb_dag_fused_chains 90"#,
    r#"grb_dag_nodes_enqueued 87"#,
    r#"grb_dag_post_fused 89"#,
    r#"grb_dag_pre_fused 88"#,
    r#"grb_decisions_by_reason{reason="convert-csr"} 0"#,
    r#"grb_decisions_by_reason{reason="convert-sparse"} 0"#,
    r#"grb_decisions_by_reason{reason="dag-force"} 0"#,
    r#"grb_decisions_by_reason{reason="dag-fuse"} 0"#,
    r#"grb_decisions_by_reason{reason="direction-pull"} 0"#,
    r#"grb_decisions_by_reason{reason="direction-push"} 0"#,
    r#"grb_decisions_by_reason{reason="dispatch-pick"} 0"#,
    r#"grb_decisions_by_reason{reason="error-deferred"} 0"#,
    r#"grb_decisions_by_reason{reason="error-raised"} 0"#,
    r#"grb_decisions_by_reason{reason="format-pick"} 0"#,
    r#"grb_decisions_by_reason{reason="fuse-flush"} 0"#,
    r#"grb_decisions_by_reason{reason="kernel-path"} 0"#,
    r#"grb_decisions_by_reason{reason="opaque-drain"} 0"#,
    r#"grb_decisions_by_reason{reason="transpose-build"} 0"#,
    r#"grb_decisions_by_reason{reason="transpose-hit"} 0"#,
    r#"grb_decisions_by_reason{reason="workspace-hit"} 0"#,
    r#"grb_decisions_by_reason{reason="workspace-miss"} 0"#,
    r#"grb_decisions_by_reason{reason="workspace-trim"} 0"#,
    r#"grb_decisions_total 0"#,
    r#"grb_direction_pull_picks 98"#,
    r#"grb_direction_push_picks 97"#,
    r#"grb_direction_transpose_builds 99"#,
    r#"grb_direction_transpose_hits 100"#,
    r#"grb_dispatch_dyn_fallbacks 102"#,
    r#"grb_dispatch_static_hits 101"#,
    r#"grb_events_total 0"#,
    r#"grb_format_bitmap_picks 103"#,
    r#"grb_format_conversions 106"#,
    r#"grb_format_full_picks 105"#,
    r#"grb_format_svec_picks 104"#,
    r#"grb_kernel_bytes_moved{kernel="apply"} 42"#,
    r#"grb_kernel_bytes_moved{kernel="convert"} 66"#,
    r#"grb_kernel_bytes_moved{kernel="ewise_add"} 24"#,
    r#"grb_kernel_bytes_moved{kernel="ewise_mult"} 30"#,
    r#"grb_kernel_bytes_moved{kernel="kron"} 78"#,
    r#"grb_kernel_bytes_moved{kernel="map_fuse"} 60"#,
    r#"grb_kernel_bytes_moved{kernel="reduce"} 54"#,
    r#"grb_kernel_bytes_moved{kernel="select"} 48"#,
    r#"grb_kernel_bytes_moved{kernel="spgemm"} 6"#,
    r#"grb_kernel_bytes_moved{kernel="spmv"} 12"#,
    r#"grb_kernel_bytes_moved{kernel="transpose"} 36"#,
    r#"grb_kernel_bytes_moved{kernel="vxm"} 18"#,
    r#"grb_kernel_bytes_moved{kernel="wait"} 72"#,
    r#"grb_kernel_calls{kernel="apply"} 38"#,
    r#"grb_kernel_calls{kernel="convert"} 62"#,
    r#"grb_kernel_calls{kernel="ewise_add"} 20"#,
    r#"grb_kernel_calls{kernel="ewise_mult"} 26"#,
    r#"grb_kernel_calls{kernel="kron"} 74"#,
    r#"grb_kernel_calls{kernel="map_fuse"} 56"#,
    r#"grb_kernel_calls{kernel="reduce"} 50"#,
    r#"grb_kernel_calls{kernel="select"} 44"#,
    r#"grb_kernel_calls{kernel="spgemm"} 2"#,
    r#"grb_kernel_calls{kernel="spmv"} 8"#,
    r#"grb_kernel_calls{kernel="transpose"} 32"#,
    r#"grb_kernel_calls{kernel="vxm"} 14"#,
    r#"grb_kernel_calls{kernel="wait"} 68"#,
    r#"grb_kernel_flops{kernel="apply"} 39"#,
    r#"grb_kernel_flops{kernel="convert"} 63"#,
    r#"grb_kernel_flops{kernel="ewise_add"} 21"#,
    r#"grb_kernel_flops{kernel="ewise_mult"} 27"#,
    r#"grb_kernel_flops{kernel="kron"} 75"#,
    r#"grb_kernel_flops{kernel="map_fuse"} 57"#,
    r#"grb_kernel_flops{kernel="reduce"} 51"#,
    r#"grb_kernel_flops{kernel="select"} 45"#,
    r#"grb_kernel_flops{kernel="spgemm"} 3"#,
    r#"grb_kernel_flops{kernel="spmv"} 9"#,
    r#"grb_kernel_flops{kernel="transpose"} 33"#,
    r#"grb_kernel_flops{kernel="vxm"} 15"#,
    r#"grb_kernel_flops{kernel="wait"} 69"#,
    r#"grb_kernel_max_ns{kernel="apply"} 7000"#,
    r#"grb_kernel_max_ns{kernel="convert"} 11000"#,
    r#"grb_kernel_max_ns{kernel="ewise_add"} 4000"#,
    r#"grb_kernel_max_ns{kernel="ewise_mult"} 5000"#,
    r#"grb_kernel_max_ns{kernel="kron"} 13000"#,
    r#"grb_kernel_max_ns{kernel="map_fuse"} 10000"#,
    r#"grb_kernel_max_ns{kernel="reduce"} 9000"#,
    r#"grb_kernel_max_ns{kernel="select"} 8000"#,
    r#"grb_kernel_max_ns{kernel="spgemm"} 1000"#,
    r#"grb_kernel_max_ns{kernel="spmv"} 2000"#,
    r#"grb_kernel_max_ns{kernel="transpose"} 6000"#,
    r#"grb_kernel_max_ns{kernel="vxm"} 3000"#,
    r#"grb_kernel_max_ns{kernel="wait"} 12000"#,
    r#"grb_kernel_nanos{kernel="apply"} 7038"#,
    r#"grb_kernel_nanos{kernel="convert"} 11062"#,
    r#"grb_kernel_nanos{kernel="ewise_add"} 4020"#,
    r#"grb_kernel_nanos{kernel="ewise_mult"} 5026"#,
    r#"grb_kernel_nanos{kernel="kron"} 13074"#,
    r#"grb_kernel_nanos{kernel="map_fuse"} 10056"#,
    r#"grb_kernel_nanos{kernel="reduce"} 9050"#,
    r#"grb_kernel_nanos{kernel="select"} 8044"#,
    r#"grb_kernel_nanos{kernel="spgemm"} 1002"#,
    r#"grb_kernel_nanos{kernel="spmv"} 2008"#,
    r#"grb_kernel_nanos{kernel="transpose"} 6032"#,
    r#"grb_kernel_nanos{kernel="vxm"} 3014"#,
    r#"grb_kernel_nanos{kernel="wait"} 12068"#,
    r#"grb_kernel_nnz_in{kernel="apply"} 40"#,
    r#"grb_kernel_nnz_in{kernel="convert"} 64"#,
    r#"grb_kernel_nnz_in{kernel="ewise_add"} 22"#,
    r#"grb_kernel_nnz_in{kernel="ewise_mult"} 28"#,
    r#"grb_kernel_nnz_in{kernel="kron"} 76"#,
    r#"grb_kernel_nnz_in{kernel="map_fuse"} 58"#,
    r#"grb_kernel_nnz_in{kernel="reduce"} 52"#,
    r#"grb_kernel_nnz_in{kernel="select"} 46"#,
    r#"grb_kernel_nnz_in{kernel="spgemm"} 4"#,
    r#"grb_kernel_nnz_in{kernel="spmv"} 10"#,
    r#"grb_kernel_nnz_in{kernel="transpose"} 34"#,
    r#"grb_kernel_nnz_in{kernel="vxm"} 16"#,
    r#"grb_kernel_nnz_in{kernel="wait"} 70"#,
    r#"grb_kernel_nnz_out{kernel="apply"} 41"#,
    r#"grb_kernel_nnz_out{kernel="convert"} 65"#,
    r#"grb_kernel_nnz_out{kernel="ewise_add"} 23"#,
    r#"grb_kernel_nnz_out{kernel="ewise_mult"} 29"#,
    r#"grb_kernel_nnz_out{kernel="kron"} 77"#,
    r#"grb_kernel_nnz_out{kernel="map_fuse"} 59"#,
    r#"grb_kernel_nnz_out{kernel="reduce"} 53"#,
    r#"grb_kernel_nnz_out{kernel="select"} 47"#,
    r#"grb_kernel_nnz_out{kernel="spgemm"} 5"#,
    r#"grb_kernel_nnz_out{kernel="spmv"} 11"#,
    r#"grb_kernel_nnz_out{kernel="transpose"} 35"#,
    r#"grb_kernel_nnz_out{kernel="vxm"} 17"#,
    r#"grb_kernel_nnz_out{kernel="wait"} 71"#,
    r#"grb_kernel_p50_ns{kernel="apply"} 7000"#,
    r#"grb_kernel_p50_ns{kernel="convert"} 11000"#,
    r#"grb_kernel_p50_ns{kernel="ewise_add"} 4000"#,
    r#"grb_kernel_p50_ns{kernel="ewise_mult"} 5000"#,
    r#"grb_kernel_p50_ns{kernel="kron"} 13000"#,
    r#"grb_kernel_p50_ns{kernel="map_fuse"} 10000"#,
    r#"grb_kernel_p50_ns{kernel="reduce"} 9000"#,
    r#"grb_kernel_p50_ns{kernel="select"} 8000"#,
    r#"grb_kernel_p50_ns{kernel="spgemm"} 1000"#,
    r#"grb_kernel_p50_ns{kernel="spmv"} 2000"#,
    r#"grb_kernel_p50_ns{kernel="transpose"} 6000"#,
    r#"grb_kernel_p50_ns{kernel="vxm"} 3000"#,
    r#"grb_kernel_p50_ns{kernel="wait"} 12000"#,
    r#"grb_kernel_p99_ns{kernel="apply"} 7000"#,
    r#"grb_kernel_p99_ns{kernel="convert"} 11000"#,
    r#"grb_kernel_p99_ns{kernel="ewise_add"} 4000"#,
    r#"grb_kernel_p99_ns{kernel="ewise_mult"} 5000"#,
    r#"grb_kernel_p99_ns{kernel="kron"} 13000"#,
    r#"grb_kernel_p99_ns{kernel="map_fuse"} 10000"#,
    r#"grb_kernel_p99_ns{kernel="reduce"} 9000"#,
    r#"grb_kernel_p99_ns{kernel="select"} 8000"#,
    r#"grb_kernel_p99_ns{kernel="spgemm"} 1000"#,
    r#"grb_kernel_p99_ns{kernel="spmv"} 2000"#,
    r#"grb_kernel_p99_ns{kernel="transpose"} 6000"#,
    r#"grb_kernel_p99_ns{kernel="vxm"} 3000"#,
    r#"grb_kernel_p99_ns{kernel="wait"} 12000"#,
    r#"grb_kernel_rate{kernel="apply"} ~"#,
    r#"grb_kernel_rate{kernel="convert"} ~"#,
    r#"grb_kernel_rate{kernel="ewise_add"} ~"#,
    r#"grb_kernel_rate{kernel="ewise_mult"} ~"#,
    r#"grb_kernel_rate{kernel="kron"} ~"#,
    r#"grb_kernel_rate{kernel="map_fuse"} ~"#,
    r#"grb_kernel_rate{kernel="reduce"} ~"#,
    r#"grb_kernel_rate{kernel="select"} ~"#,
    r#"grb_kernel_rate{kernel="spgemm"} ~"#,
    r#"grb_kernel_rate{kernel="spmv"} ~"#,
    r#"grb_kernel_rate{kernel="transpose"} ~"#,
    r#"grb_kernel_rate{kernel="vxm"} ~"#,
    r#"grb_kernel_rate{kernel="wait"} ~"#,
    r#"grb_kernel_rolling_p99_ns{kernel="apply"} 7000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="convert"} 11000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="ewise_add"} 4000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="ewise_mult"} 5000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="kron"} 13000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="map_fuse"} 10000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="reduce"} 9000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="select"} 8000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="spgemm"} 1000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="spmv"} 2000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="transpose"} 6000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="vxm"} 3000"#,
    r#"grb_kernel_rolling_p99_ns{kernel="wait"} 12000"#,
    r#"grb_mem_container_high_bytes 0"#,
    r#"grb_mem_container_live_bytes 0"#,
    r#"grb_mem_workspace_high_bytes 0"#,
    r#"grb_mem_workspace_live_bytes 0"#,
    r#"grb_pending_drain_rate ~"#,
    r#"grb_pending_drains 84"#,
    r#"grb_pending_errors_deferred 86"#,
    r#"grb_pending_errors_raised 85"#,
    r#"grb_pending_fusion_hits 81"#,
    r#"grb_pending_map_traversals 82"#,
    r#"grb_pending_maps_enqueued 79"#,
    r#"grb_pending_max_depth 417"#,
    r#"grb_pending_opaque_drains 83"#,
    r#"grb_pending_opaques_enqueued 80"#,
    r#"grb_pool_jobs_dequeued 113"#,
    r#"grb_pool_jobs_queued 114"#,
    r#"grb_pool_parks 109"#,
    r#"grb_pool_queue_depth 1"#,
    r#"grb_pool_queue_depth_max 23"#,
    r#"grb_pool_scopes 111"#,
    r#"grb_pool_task_run_ns 3377699720527988"#,
    r#"grb_pool_task_wait_ns 133"#,
    r#"grb_pool_tasks_completed 116"#,
    r#"grb_pool_tasks_inline 108"#,
    r#"grb_pool_tasks_spawned 107"#,
    r#"grb_pool_utilization 1"#,
    r#"grb_pool_wakes 110"#,
    r#"grb_pool_worker_busy_ns{worker="0"} 1125899906842624"#,
    r#"grb_pool_worker_busy_ns{worker="1"} 0"#,
    r#"grb_pool_worker_busy_ns{worker="2"} 2251799813685248"#,
    r#"grb_pool_workers 3"#,
    r#"grb_rate_bytes ~"#,
    r#"grb_sampler_dump_writes 119"#,
    r#"grb_sampler_samples 117"#,
    r#"grb_sampler_scrapes 118"#,
    r#"grb_workspace_bytes_reused 96"#,
    r#"grb_workspace_checkouts 93"#,
    r#"grb_workspace_hits 94"#,
    r#"grb_workspace_misses 95"#,
];
