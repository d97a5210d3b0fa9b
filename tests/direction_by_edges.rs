//! The push/pull choice is made by edges, not by vertices: a frontier that
//! is a sliver of the vertex set but carries half the graph is pulled, and
//! whichever way a level goes the traversal's result is the same.
//!
//! `force_direction` and the telemetry switches are process-global: the
//! tests take turns.

use std::sync::{Mutex, MutexGuard};

use graphblas::algo::{bfs_levels, bfs_parents};
use graphblas::operations::{force_direction, Direction};
use graphblas::{global_context, BinaryOp, Context, ContextOptions, Matrix, Mode};
use graphblas_obs::Reason;

fn serialize() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

const N: usize = 600;
const HUBS: usize = 8;

/// Undirected, 600 vertices: source 0 — connector 1 — eight hubs (2..=9,
/// a clique) — each hub adjacent to all 588 leaves (10..=597) — one vertex
/// (598) hanging off leaf 10; 599 is isolated. Distances from 0 run 0..=4.
fn hub_graph(ctx: &Context) -> (Matrix<bool>, usize) {
    let hubs = 2..2 + HUBS;
    let leaves = 2 + HUBS..N - 2;
    let mut edges = vec![(0, 1), (leaves.start, N - 2)];
    for h in hubs.clone() {
        edges.push((1, h));
        edges.extend((h + 1..hubs.end).map(|g| (h, g)));
        edges.extend(leaves.clone().map(|l| (h, l)));
    }
    let (mut rows, mut cols): (Vec<usize>, Vec<usize>) = edges.iter().copied().unzip();
    rows.extend(edges.iter().map(|e| e.1));
    cols.extend(edges.iter().map(|e| e.0));
    let a = Matrix::<bool>::new_in(ctx, N, N).unwrap();
    a.build(
        &rows,
        &cols,
        &vec![true; rows.len()],
        Some(&BinaryOp::lor()),
    )
    .unwrap();
    (a, rows.len())
}

#[test]
fn a_frontier_of_few_vertices_and_most_edges_is_pulled() {
    let _turn = serialize();
    let ctx = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    let (a, nnz) = hub_graph(&ctx);
    let tuples = |d: Option<Direction>| {
        force_direction(d);
        let levels = bfs_levels(&a, 0).unwrap().extract_tuples().unwrap();
        let parents = bfs_parents(&a, 0).unwrap().extract_tuples().unwrap();
        force_direction(None);
        (levels, parents)
    };
    // Forcing the pull also asks for `Aᵀ`, which memoises it: from here on
    // the estimate is free to go either way.
    let pulled = tuples(Some(Direction::Pull));
    let pushed = tuples(Some(Direction::Push));
    assert_eq!(pulled, pushed);
    assert_eq!(
        pulled.0 .0.len(),
        N - 1,
        "every vertex but the isolated one"
    );
    assert_eq!(pulled.0 .1.iter().max(), Some(&4));

    graphblas_obs::set_enabled(true);
    let before = graphblas_obs::snapshot().direction;
    let levels = bfs_levels(&a, 0).unwrap();
    let after = graphblas_obs::snapshot().direction;
    graphblas_obs::set_enabled(false);
    assert_eq!(levels.extract_tuples().unwrap(), pulled.0);
    assert_eq!(
        tuples(None),
        pulled,
        "the estimate's own picks change no result"
    );

    // One pick per level. The level-2 frontier is the hubs: 8 of 600
    // vertices — a density rule pushes anything under 1 in 8 — carrying
    // more than half of all stored entries.
    let events = ctx.explain(usize::MAX).events;
    let picks: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.reason, Reason::DirectionPush | Reason::DirectionPull))
        .filter(|e| e.detail != "forced")
        .take(5)
        .collect();
    assert_eq!(picks.len(), 5, "{picks:?}");
    let [frontier, frontier_edges, _] = picks[2].args;
    assert!(
        frontier as usize * 8 < N && frontier_edges as usize * 2 > nnz,
        "{:?}",
        picks[2]
    );
    assert_eq!(
        (picks[2].reason, picks[2].detail),
        (Reason::DirectionPull, "estimate")
    );
    assert_eq!(picks[0].reason, Reason::DirectionPush);
    assert_eq!(picks[1].reason, Reason::DirectionPush);
    assert!(after.pull_picks > before.pull_picks, "no pull was counted");
    assert!(after.push_picks >= before.push_picks + 2);
}
