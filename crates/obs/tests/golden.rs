//! Every counter at a distinct value, and the output that carries them
//! pinned: `Snapshot::to_json_with(false)` byte for byte. A change to how
//! the counters are declared must leave it as it is.
//!
//! One test in its own binary: the counters are process-global, so nothing
//! else may record between the writes and the reads. The test prints the
//! JSON, which the harness shows when it fails: after a deliberate change
//! to it, that is the new value to pin.

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
    counters::record_pool_task(7, 1 << 50);
    counters::record_pool_task(11, 1 << 51);
    // The deeper push is the high-water mark.
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
}

#[test]
fn every_counter_keeps_its_json_key() {
    graphblas_obs::reset();
    fill_counters();
    let json = graphblas_obs::snapshot().to_json_with(false);
    println!("{json}");
    assert_eq!(json, GOLDEN_JSON);
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
    r#""task_run_ns":3377699720527988},"workspace":{"checkouts":93,"hits":94,"misses":95,"#,
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
