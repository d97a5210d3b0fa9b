//! End-to-end checks that the decision-provenance layer (`obs::events`)
//! records what the runtime actually did, with the arguments an explain
//! log needs to be self-justifying.
//!
//! Two seeded scenarios from the ISSUE acceptance list:
//!
//! 1. A star graph sized so BFS crosses the documented Beamer threshold
//!    (`frontier_nnz * PULL_THRESHOLD_DEN >= frontier_len`) between the
//!    first and second level: the explain log must show the push→pull
//!    switch, and every direction event must be *consistent* — the
//!    recorded frontier density must imply the recorded direction. The
//!    pull runs under BFS's complemented mask, so the log must also show
//!    the `masked-pull` kernel path bounded by the unvisited vertices.
//!
//! 2. A nonblocking fused map chain: N queued `apply_v` calls must drain
//!    as exactly one `fuse-flush` event whose `chain_len` argument is N.
//!
//! Both tests scope their assertions with the subtree-filtered
//! `Context::explain` / `Vector::explain` API, so they never see events
//! from each other or from unrelated global-context activity.

use std::sync::Mutex;

use graphblas_core::operations::mxv::PULL_THRESHOLD_DEN;
use graphblas_core::operations::apply_v;
use graphblas_core::{
    global_context, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, Matrix, Mode,
    UnaryOp, Vector, WaitMode,
};
use graphblas_obs::Reason;

/// The tests toggle process-global obs state; serialize them.
static SERIALIZE: Mutex<()> = Mutex::new(());

fn obs_on() {
    graphblas_core::init(Mode::Blocking);
    graphblas_obs::set_enabled(true);
    graphblas_obs::events::set_events(true);
}

fn obs_off() {
    graphblas_obs::set_enabled(false);
}

#[test]
fn bfs_explain_shows_push_pull_switch_at_threshold() {
    let _g = SERIALIZE.lock().unwrap_or_else(|e| e.into_inner());
    obs_on();

    // Star graph on 64 vertices: 0 → 1..=8. The level-0 frontier has
    // nnz 1 (1 * 8 < 64 → push); the level-1 frontier has nnz 8
    // (8 * 8 >= 64 → pull). Third iteration never runs: the star has no
    // second hop, so the frontier empties and the loop exits.
    let n: usize = 64;
    let fanout: usize = 8;
    assert_eq!(PULL_THRESHOLD_DEN as usize, fanout, "test is seeded to the documented threshold");
    let ctx = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    let a = Matrix::<bool>::new_in(&ctx, n, n).expect("matrix");
    let rows = vec![0usize; fanout];
    let cols: Vec<usize> = (1..=fanout).collect();
    a.build(&rows, &cols, &vec![true; fanout], Some(&BinaryOp::lor()))
        .expect("build");

    let levels = graphblas_algo::bfs_levels(&a, 0).expect("bfs");
    assert_eq!(levels.nvals().expect("nvals"), 1 + fanout);

    let ex = ctx.explain(usize::MAX);
    obs_off();

    let dirs: Vec<_> = ex
        .events
        .iter()
        .filter(|e| matches!(e.reason, Reason::DirectionPush | Reason::DirectionPull))
        .collect();
    assert_eq!(
        dirs.len(),
        2,
        "one direction pick per BFS level, got: {dirs:?}"
    );

    // Every recorded pick must be justified by its own recorded inputs:
    // pull iff nnz * threshold_den >= len, with the documented constant.
    for e in &dirs {
        let [nnz, len, den] = e.args;
        assert_eq!(e.op, "vxm");
        assert_eq!(den, PULL_THRESHOLD_DEN, "threshold constant in event: {e:?}");
        let implied_pull = nnz * den >= len;
        assert_eq!(
            e.reason == Reason::DirectionPull,
            implied_pull,
            "direction inconsistent with recorded density: {e:?}"
        );
    }

    // The switch itself: sparse seed frontier pushed, dense second
    // frontier pulled, in that order.
    assert_eq!(dirs[0].reason, Reason::DirectionPush);
    assert_eq!(dirs[0].args[..2], [1, n as u64]);
    assert_eq!(dirs[1].reason, Reason::DirectionPull);
    assert_eq!(dirs[1].args[..2], [fanout as u64, n as u64]);
    assert!(dirs[0].seq < dirs[1].seq, "push must precede pull");

    // The pull runs under the complemented `levels` mask, and the mask
    // bounds its work: the kernel reports the masked row loop, entered
    // for exactly the still-unvisited vertices.
    let masked: Vec<_> = ex
        .events
        .iter()
        .filter(|e| e.reason == Reason::KernelPath && e.detail == "masked-pull")
        .collect();
    assert_eq!(masked.len(), 1, "one masked pull, got: {masked:?}");
    assert_eq!(masked[0].op, "spmv");
    let unvisited = (n - (1 + fanout)) as u64;
    assert_eq!(masked[0].args[..2], [unvisited, n as u64]);
    assert!(
        dirs[1].seq < masked[0].seq,
        "the pull pick precedes its kernel"
    );
}

#[test]
fn fused_map_chain_drains_as_one_flush_event() {
    let _g = SERIALIZE.lock().unwrap_or_else(|e| e.into_inner());
    obs_on();

    const CHAIN: usize = 5;
    let n: usize = 256;
    let ctx = Context::new(&global_context(), Mode::NonBlocking, ContextOptions::default());
    let v = Vector::<f64>::new_in(&ctx, n).expect("vector");
    let idx: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
    v.build(&idx, &vals, None).expect("build");
    v.wait(WaitMode::Materialize).expect("materialize");

    let inc = UnaryOp::new("inc", |x: &f64| x + 1.0);
    for _ in 0..CHAIN {
        apply_v(&v, no_mask_v(), None, &inc, &v, &Descriptor::default()).expect("apply");
    }
    v.wait(WaitMode::Complete).expect("drain");
    assert_eq!(v.extract_element(3).expect("read"), Some(3.0 + CHAIN as f64));

    let ex = v.explain(usize::MAX);
    obs_off();

    let flushes: Vec<_> = ex
        .events
        .iter()
        .filter(|e| e.reason == Reason::FuseFlush)
        .collect();
    assert_eq!(
        flushes.len(),
        1,
        "{CHAIN} queued maps must fuse into exactly one flush: {flushes:?}"
    );
    let f = flushes[0];
    assert_eq!(f.op, "vector.drain");
    assert_eq!(f.args[0], CHAIN as u64, "chain_len must be {CHAIN}: {f:?}");
    assert_eq!(f.args[1], n as u64, "flush saw the full dense input");
    assert_eq!(f.detail, "queue-end", "drain-terminated chain: {f:?}");
}
