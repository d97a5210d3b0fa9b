//! Differential test for `algo::pagerank` against a naive dense power
//! iteration, plus the two properties of running on the caller's
//! `Matrix<bool>` as stored: the input is left exactly as it was, and the
//! transpose the pull products need is memoised on it, so a second call
//! builds nothing. The rank vectors are full and stay in the full format:
//! the iteration loop never turns one back into an index list.
//!
//! The graphs are directed and deliberately awkward: dangling vertices (no
//! out-edges, so their rank is spread over everyone), isolated vertices,
//! self-loops, and stored `false` entries — PageRank reads the matrix by
//! structure, so a stored `false` is an edge like any other.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use graphblas::algo::pagerank;
use graphblas::{global_context, Context, ContextOptions, Index, Matrix, Mode};
use graphblas_exec::rng::prelude::*;
use graphblas_obs::{DecisionEvent, Reason};

/// The transpose counters are process-global and every `pagerank` call
/// moves them: the tests of this binary take turns.
fn serialize() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

type Edges = BTreeMap<(Index, Index), bool>;

/// A random directed graph on `n` vertices: roughly a fifth of the
/// vertices get no out-edges, a tenth no edges at all, a few get
/// self-loops, and a third of the stored values are `false`.
fn random_graph(rng: &mut StdRng, n: usize) -> Edges {
    let isolated: Vec<bool> = (0..n).map(|_| rng.gen_range(0..10) == 0).collect();
    let dangling: Vec<bool> = (0..n).map(|_| rng.gen_range(0..5) == 0).collect();
    let mut edges = Edges::new();
    for u in (0..n).filter(|&u| !isolated[u] && !dangling[u]) {
        for _ in 0..rng.gen_range(1..6) {
            let v = rng.gen_range(0..n);
            if !isolated[v] {
                edges.insert((u, v), rng.gen_range(0..3) > 0);
            }
        }
        if rng.gen_range(0..8) == 0 {
            edges.insert((u, u), rng.gen_range(0..3) > 0);
        }
    }
    edges
}

fn matrix(n: usize, edges: &Edges) -> Matrix<bool> {
    matrix_in(&global_context(), n, edges)
}

fn matrix_in(ctx: &Context, n: usize, edges: &Edges) -> Matrix<bool> {
    let a = Matrix::<bool>::new_in(ctx, n, n).unwrap();
    a.build(
        &edges.keys().map(|k| k.0).collect::<Vec<_>>(),
        &edges.keys().map(|k| k.1).collect::<Vec<_>>(),
        &edges.values().copied().collect::<Vec<_>>(),
        None,
    )
    .unwrap();
    a
}

/// Dense power iteration over the edge list; returns the ranks and how
/// many iterations ran.
fn reference(
    n: usize,
    edges: &Edges,
    damping: f64,
    tol: f64,
    max_iter: usize,
) -> (Vec<f64>, usize) {
    let nf = n as f64;
    let mut deg = vec![0usize; n];
    for &(u, _) in edges.keys() {
        deg[u] += 1;
    }
    let mut rank = vec![1.0 / nf; n];
    for iter in 0..max_iter {
        let dangling: f64 = (0..n).filter(|&u| deg[u] == 0).map(|u| rank[u]).sum();
        let mut next = vec![(1.0 - damping) / nf + damping * dangling / nf; n];
        for &(u, v) in edges.keys() {
            next[v] += damping * rank[u] / deg[u] as f64;
        }
        let l1: f64 = next.iter().zip(&rank).map(|(x, y)| (x - y).abs()).sum();
        rank = next;
        if l1 < tol {
            return (rank, iter + 1);
        }
    }
    (rank, max_iter)
}

fn l1_distance(a: &Matrix<bool>, want: &[f64], damping: f64, tol: f64, max_iter: usize) -> f64 {
    let got = pagerank(a, damping, tol, max_iter).unwrap();
    let (idx, vals) = got.extract_tuples().unwrap();
    assert_eq!(
        idx,
        (0..want.len()).collect::<Vec<_>>(),
        "rank vector is full"
    );
    vals.iter().zip(want).map(|(g, w)| (g - w).abs()).sum()
}

#[test]
fn matches_dense_power_iteration_on_awkward_directed_graphs() {
    let _turn = serialize();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(12..90);
        let edges = random_graph(&mut rng, n);
        let a = matrix(n, &edges);
        let damping = [0.85, 0.5, 0.99][seed as usize % 3];
        let iters = [1, 7, 25][(seed as usize / 3) % 3];
        let (want, _) = reference(n, &edges, damping, 0.0, iters);
        let l1 = l1_distance(&a, &want, damping, 0.0, iters);
        assert!(
            l1 <= 1e-12,
            "seed {seed}: L1 {l1:e} after {iters} iterations"
        );
        let total: f64 = want.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "seed {seed}: ranks sum to {total}"
        );
    }
}

#[test]
fn tolerance_stops_early_and_zero_iterations_return_the_uniform_start() {
    let _turn = serialize();
    for seed in 100..108u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(20..70);
        let edges = random_graph(&mut rng, n);
        let a = matrix(n, &edges);

        let (tol, cap) = (1e-6, 500);
        let (want, ran) = reference(n, &edges, 0.85, tol, cap);
        assert!(ran < cap, "seed {seed}: the reference never converged");
        let l1 = l1_distance(&a, &want, 0.85, tol, cap);
        assert!(
            l1 <= 1e-12,
            "seed {seed}: L1 {l1:e}, reference stopped after {ran}"
        );
        // One iteration more or fewer would be off by about `tol`.
        let (longer, _) = reference(n, &edges, 0.85, 0.0, ran + 1);
        let gap: f64 = longer.iter().zip(&want).map(|(x, y)| (x - y).abs()).sum();
        assert!(
            gap > 1e-10,
            "seed {seed}: early exit is not observable ({gap:e})"
        );

        let uniform = vec![1.0 / n as f64; n];
        assert_eq!(l1_distance(&a, &uniform, 0.85, tol, 0), 0.0, "seed {seed}");
    }
}

#[test]
fn the_input_is_untouched_and_keeps_the_transpose_for_the_next_call() {
    let _turn = serialize();
    let mut rng = StdRng::seed_from_u64(7);
    let n = 64;
    let edges = random_graph(&mut rng, n);
    let a = matrix(n, &edges);
    let (stats, tuples) = (a.stats(), a.extract_tuples().unwrap());
    assert_eq!((stats.format, stats.pending), ("csr", 0));

    graphblas_obs::set_enabled(true);
    let before = graphblas_obs::snapshot().direction;
    let first = pagerank(&a, 0.85, 0.0, 5).unwrap();
    let between = graphblas_obs::snapshot().direction;
    let second = pagerank(&a, 0.85, 0.0, 5).unwrap();
    let after = graphblas_obs::snapshot().direction;
    graphblas_obs::set_enabled(false);

    // The first call builds Aᵀ once, on `a`; the second finds it there.
    assert_eq!(between.transpose_builds - before.transpose_builds, 1);
    assert_eq!(after.transpose_builds - between.transpose_builds, 0);
    assert!(after.transpose_hits > between.transpose_hits);
    assert_eq!(
        first.extract_tuples().unwrap(),
        second.extract_tuples().unwrap()
    );

    // Same entries, stored `false` values included, in the same store.
    assert_eq!(a.nvals().unwrap(), edges.len());
    assert_eq!(a.extract_tuples().unwrap(), tuples);
    assert_eq!(a.stats(), stats);
    assert!(tuples.2.contains(&false) && tuples.2.contains(&true));
}

#[test]
fn the_loop_keeps_every_rank_vector_full() {
    let _turn = serialize();
    let mut rng = StdRng::seed_from_u64(9);
    let n = 64;
    let edges = random_graph(&mut rng, n);
    // Decision events of `iterations` iterations, in a context of their own
    // (the other tests of this binary run in the global one).
    let run = |iterations: usize| -> Vec<DecisionEvent> {
        let ctx = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
        let a = matrix_in(&ctx, n, &edges);
        graphblas_obs::set_enabled(true);
        let rank = pagerank(&a, 0.85, 0.0, iterations).unwrap();
        graphblas_obs::set_enabled(false);
        assert_eq!(rank.stats().format, "full", "{iterations} iterations");
        assert_eq!(rank.nvals().unwrap(), n);
        // A few hundred events: far below the ring's capacity.
        ctx.explain(usize::MAX).events
    };
    let count = |events: &[DecisionEvent], reason: Reason, detail: &str| {
        let hit = |e: &&DecisionEvent| e.reason == reason && e.detail == detail;
        events.iter().filter(hit).count()
    };
    let (one, six) = (run(1), run(6));
    // Whatever the set-up converts, five more iterations convert nothing:
    // no full vector is canonicalized back to sparse.
    for source in ["dense", "unsorted"] {
        assert_eq!(
            count(&six, Reason::ConvertSparse, source),
            count(&one, Reason::ConvertSparse, source),
            "convert-sparse from {source} inside the loop"
        );
    }
    assert_eq!(count(&six, Reason::ConvertSparse, "dense"), 0);
    // Not vacuously: each iteration lands `scaled`, `new_rank` (twice: the
    // teleport base, then the accumulated product) and `delta` full, and
    // every product indexes its full frontier directly.
    let per_iteration =
        |reason, detail| (count(&six, reason, detail) - count(&one, reason, detail)) / 5;
    assert_eq!(per_iteration(Reason::FormatPick, "full"), 4);
    assert_eq!(per_iteration(Reason::KernelPath, "dense-frontier"), 1);
    assert_eq!(per_iteration(Reason::KernelPath, "sparse-frontier"), 0);
}
