//! End-to-end checks that the decision-provenance layer (`obs::events`)
//! records what the runtime actually did, with the arguments an explain
//! log needs to be self-justifying.
//!
//! Two seeded scenarios from the ISSUE acceptance list:
//!
//! 1. A hub graph on which BFS pushes, then pulls: the level-1 frontier is
//!    a quarter of the vertices but carries six sevenths of the edges. The
//!    explain log must show the switch, and every direction event must be
//!    *consistent* — re-pricing the two directions from the event's
//!    own numbers with the documented rule (DESIGN.md §4) must name the
//!    direction that was recorded. The pull runs under BFS's complemented
//!    mask, so the log must also show the `masked-pull` kernel path bounded
//!    by the unvisited vertices.
//!
//! 2. A nonblocking fused map chain: N queued `apply_v` calls must drain
//!    as exactly one `fuse-flush` event whose `chain_len` argument is N.
//!
//! Both tests scope their assertions with the subtree-filtered
//! `Context::explain` / `Vector::explain` API, so they never see events
//! from each other or from unrelated global-context activity.

use std::sync::Mutex;

use graphblas_core::operations::{apply_v, transpose};
use graphblas_core::{
    global_context, no_mask, no_mask_v, Context, ContextOptions, Descriptor, Matrix, Mode,
    UnaryOp, Vector, WaitMode,
};
use graphblas_obs::Reason;

/// The tests toggle process-global obs state; serialize them.
static SERIALIZE: Mutex<()> = Mutex::new(());

fn obs_on() {
    graphblas_core::init(Mode::Blocking);
    graphblas_obs::set_enabled(true);
}

fn obs_off() {
    graphblas_obs::set_enabled(false);
}

/// The documented direction rule (DESIGN.md §4, "direction by edges") for
/// the product of one `bfs_levels` step: LOR ends a pulled row at its first
/// hit and both orientations exist. `indexed` is `Some(entries)` for a
/// frontier stored full (looked up by index, converted to be pushed).
/// `true` = pull.
fn documented_rule_pulls(
    edges: u64,
    admitted: u64,
    rows: u64,
    nnz: u64,
    indexed: Option<u64>,
) -> bool {
    const PUSH_EDGE: u64 = 3;
    const FLOP: u64 = 12;
    let products = edges * admitted / nnz;
    let push = PUSH_EDGE * (edges + indexed.unwrap_or(0)) + FLOP * products;
    let read = admitted.min(rows * nnz / edges.max(1));
    let fold = if indexed.is_some() { PUSH_EDGE } else { FLOP };
    let pull = FLOP * rows + read + fold * products.min(rows);
    pull < push
}

#[test]
fn bfs_explain_shows_each_pick_as_the_cheaper_side_of_its_own_numbers() {
    let _g = SERIALIZE.lock().unwrap_or_else(|e| e.into_inner());
    obs_on();

    // 64 vertices, undirected: vertex 0 — 16 hubs that form a clique — two
    // leaves per hub; 15 vertices isolated. From 0 the frontiers hold 1, 16
    // and 32 vertices and carry 16, 288 and 32 of the 336 stored entries.
    let (n, hubs): (usize, usize) = (64, 16);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for h in 1..=hubs {
        edges.push((0, h));
        edges.extend((h + 1..=hubs).map(|g| (h, g)));
        edges.extend([(h, hubs + 2 * h - 1), (h, hubs + 2 * h)]);
    }
    let (mut rows, mut cols): (Vec<usize>, Vec<usize>) = edges.iter().copied().unzip();
    rows.extend(edges.iter().map(|e| e.1));
    cols.extend(edges.iter().map(|e| e.0));
    let nnz = rows.len() as u64;
    assert_eq!(nnz, 336);
    let ctx = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    let a = Matrix::<bool>::new_in(&ctx, n, n).expect("matrix");
    a.build(&rows, &cols, &vec![true; rows.len()], None).expect("build");
    // Asking for the transpose once memoises it: the estimate is then free
    // to pick either direction (it never builds one to price it).
    let at = Matrix::<bool>::new_in(&ctx, n, n).expect("matrix");
    transpose(&at, no_mask(), None, &a, &Descriptor::default()).expect("transpose");

    let levels = graphblas_algo::bfs_levels(&a, 0).expect("bfs");
    assert_eq!(levels.nvals().expect("nvals"), 1 + hubs + 2 * hubs);

    let ex = ctx.explain(usize::MAX);
    obs_off();

    let dirs: Vec<_> = ex
        .events
        .iter()
        .filter(|e| matches!(e.reason, Reason::DirectionPush | Reason::DirectionPull))
        .collect();
    assert_eq!(
        dirs.len(),
        3,
        "one direction pick per BFS level, got: {dirs:?}"
    );

    // Every recorded pick must be justified by its own recorded numbers.
    // The mask of level `d`'s product is the vertices visited so far, so
    // the admitted rows are the rest.
    let visited_before = [1u64, 17, 49];
    for (e, visited) in dirs.iter().zip(visited_before) {
        let [frontier, frontier_edges, admitted_edges] = e.args;
        assert_eq!(e.op, "vxm");
        let rows = n as u64 - visited;
        let pulled = e.reason == Reason::DirectionPull;
        match e.detail {
            "estimate" => {
                // No BFS frontier here holds every vertex: each one is an
                // index list.
                let (edges, admitted) = (frontier_edges, admitted_edges);
                let rule = documented_rule_pulls(edges, admitted, rows, nnz, None);
                assert_eq!(pulled, rule, "not the cheaper side of its own numbers: {e:?}");
            }
            // Walking every edge and landing a product on each still costs
            // less than opening the admitted rows: nothing else was counted.
            "under-row-scan" => {
                assert!(!pulled && admitted_edges == 0, "{e:?}");
                assert!((3 + 12) * frontier_edges <= 12 * rows, "{e:?}");
            }
            other => panic!("unexpected ground {other:?} for {e:?} ({frontier} entries)"),
        }
    }

    // The switch itself: the seed pushed; the hubs pulled (16 of 64
    // vertices, 288 of 336 entries, against the 32 entries the leaves'
    // rows hold); the leaves, an index list, pushed back: walking their 32
    // edges (3 · 32) costs less than opening the 15 empty rows left
    // (12 · 15), and no edge lands a product either way.
    assert_eq!(dirs[0].reason, Reason::DirectionPush);
    assert_eq!((dirs[0].detail, dirs[0].args), ("under-row-scan", [1, 16, 0]));
    assert_eq!(dirs[1].reason, Reason::DirectionPull);
    assert_eq!((dirs[1].detail, dirs[1].args), ("estimate", [16, 288, 32]));
    assert_eq!(dirs[2].reason, Reason::DirectionPush);
    assert_eq!((dirs[2].detail, dirs[2].args), ("estimate", [32, 32, 0]));
    assert!(dirs.windows(2).all(|w| w[0].seq < w[1].seq));

    // The pull runs under the complemented `levels` mask, and the mask
    // bounds its work: the kernel reports the masked row loop, entered
    // for exactly the still-unvisited vertices.
    let masked: Vec<_> = ex
        .events
        .iter()
        .filter(|e| e.reason == Reason::KernelPath && e.detail == "masked-pull")
        .collect();
    assert_eq!(masked.len(), 1, "one masked pull per pull pick, got: {masked:?}");
    assert_eq!(masked[0].op, "spmv");
    let unvisited = (n - (1 + hubs)) as u64;
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
