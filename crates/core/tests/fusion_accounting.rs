//! Fusion accounting (paper §III): a run of `n` consecutive deferred
//! `Stage::Map` entries must drain as **one** element traversal with
//! `n - 1` fusion hits, and the `graphblas-obs` counters must say so.
//! Runs as its own integration-test binary so flipping the global
//! telemetry flag cannot race other suites; within it, the tests share the
//! process-global flag and counters, so they serialize on one mutex.

use std::sync::atomic::Ordering;
use std::sync::Mutex;

use graphblas_core::operations::apply_v;
use graphblas_core::{
    global_context, no_mask_v, Context, ContextOptions, Descriptor, Mode, UnaryOp, Vector, WaitMode,
};

static OBS: Mutex<()> = Mutex::new(());

fn fusion_counts_for_chain(n: usize) -> (u64, u64, u64) {
    let ctx = Context::new(
        &global_context(),
        Mode::NonBlocking,
        ContextOptions::default(),
    );
    let v = Vector::<f64>::new_in(&ctx, 512).unwrap();
    let idx: Vec<usize> = (0..512).collect();
    let vals: Vec<f64> = (0..512).map(|i| i as f64).collect();
    v.build(&idx, &vals, None).unwrap();
    v.wait(WaitMode::Materialize).unwrap();

    graphblas_obs::reset();
    for _ in 0..n {
        apply_v(
            &v,
            no_mask_v(),
            None,
            &UnaryOp::new("inc", |x: &f64| x + 1.0),
            &v,
            &Descriptor::default(),
        )
        .unwrap();
    }
    v.wait(WaitMode::Complete).unwrap();

    let pending = graphblas_obs::counters::pending();
    (
        pending.map_traversals.load(Ordering::Relaxed),
        pending.fusion_hits.load(Ordering::Relaxed),
        pending.maps_enqueued.load(Ordering::Relaxed),
    )
}

#[test]
fn n_consecutive_maps_fuse_into_one_traversal() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_obs::set_enabled(true);
    for n in [1usize, 2, 3, 8, 17] {
        let (traversals, hits, enqueued) = fusion_counts_for_chain(n);
        assert_eq!(
            traversals, 1,
            "a chain of {n} maps must drain as exactly one traversal"
        );
        assert_eq!(
            hits,
            (n - 1) as u64,
            "a chain of {n} maps must report n - 1 fusion hits"
        );
        assert_eq!(enqueued, n as u64, "every deferred map is counted");
    }
    graphblas_obs::set_enabled(false);
}

#[test]
fn fused_chain_result_matches_eager_chain() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    // The accounting test above means nothing if fusion changed the
    // answer: run the same chain eagerly and compare.
    let n = 5usize;
    let run = |mode: Mode| {
        let ctx = Context::new(&global_context(), mode, ContextOptions::default());
        let v = Vector::<f64>::new_in(&ctx, 64).unwrap();
        let idx: Vec<usize> = (0..64).collect();
        let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
        v.build(&idx, &vals, None).unwrap();
        for _ in 0..n {
            apply_v(
                &v,
                no_mask_v(),
                None,
                &UnaryOp::new("double", |x: &f64| x * 2.0),
                &v,
                &Descriptor::default(),
            )
            .unwrap();
        }
        v.wait(WaitMode::Materialize).unwrap();
        v.extract_tuples().unwrap()
    };
    assert_eq!(run(Mode::NonBlocking), run(Mode::Blocking));
}

#[test]
fn dag_nodes_fuse_neighbouring_maps() {
    // Cross-operation fusion (paper §III): a map chain feeding mxv rides
    // its input snapshot (pre side); an in-place apply trailing the node
    // is consumed at drain (post side). The DagCounters must see both.
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    graphblas_obs::set_enabled(true);

    let ctx = Context::new(
        &global_context(),
        Mode::NonBlocking,
        ContextOptions::default(),
    );
    let a = graphblas_core::Matrix::<f64>::new_in(&ctx, 32, 32).unwrap();
    let rows: Vec<usize> = (0..32).collect();
    let cols: Vec<usize> = (0..32).map(|i| (i * 7 + 1) % 32).collect();
    let vals: Vec<f64> = (0..32).map(|i| i as f64 + 1.0).collect();
    a.build(&rows, &cols, &vals, None).unwrap();
    let u = Vector::<f64>::new_in(&ctx, 32).unwrap();
    let idx: Vec<usize> = (0..32).collect();
    u.build(&idx, &vals, None).unwrap();
    u.wait(WaitMode::Materialize).unwrap();

    graphblas_obs::reset();
    // Pre side: two pending maps on the mxv input.
    let inc = UnaryOp::new("inc", |x: &f64| x + 1.0);
    apply_v(&u, no_mask_v(), None, &inc, &u, &Descriptor::default()).unwrap();
    apply_v(&u, no_mask_v(), None, &inc, &u, &Descriptor::default()).unwrap();
    let w = Vector::<f64>::new_in(&ctx, 32).unwrap();
    graphblas_core::operations::mxv(
        &w,
        no_mask_v(),
        None,
        &graphblas_core::Semiring::<f64, f64, f64>::plus_times(),
        &a,
        &u,
        &Descriptor::default(),
    )
    .unwrap();
    // Post side: an in-place apply queued behind the node.
    apply_v(&w, no_mask_v(), None, &inc, &w, &Descriptor::default()).unwrap();
    w.wait(WaitMode::Complete).unwrap();

    let dag = graphblas_obs::counters::dag_totals();
    assert!(dag.nodes_enqueued >= 1, "mxv must enqueue a DAG node");
    assert_eq!(dag.pre_fused, 2, "both input maps fold into the kernel");
    assert_eq!(dag.post_fused, 1, "the trailing map drains with the node");
    assert!(dag.fused_chains >= 1, "a fused chain is scored once");

    graphblas_obs::set_enabled(false);
}
