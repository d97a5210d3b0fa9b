//! Betweenness centrality (Brandes' algorithm in linear-algebraic form —
//! the flagship LAGraph workload).
//!
//! For each source, a forward BFS sweep counts shortest paths per depth
//! level (`sigma`), then a backward sweep accumulates dependencies
//! (`delta`). Both sweeps are masked `mxv`/`vxm` products; the per-level
//! frontiers are retained as a stack of vectors.

use graphblas_core::operations::{apply_v, ewise_add_v, ewise_mult_v, mxv, vxm};
use graphblas_core::{
    ApiError, BinaryOp, Descriptor, GrbResult, Index, Matrix, Semiring, UnaryOp,
    Vector,
};

use crate::square_dim;

/// Betweenness centrality contributions from the given `sources`
/// (exact when `sources` is every vertex; a sampled approximation
/// otherwise). The graph is a directed boolean adjacency matrix; for
/// undirected centrality pass a symmetric matrix and halve the result.
pub fn betweenness_centrality(
    a: &Matrix<bool>,
    sources: &[Index],
) -> GrbResult<Vector<f64>> {
    let n = square_dim(a)?;
    for &s in sources {
        if s >= n {
            return Err(ApiError::InvalidIndex.into());
        }
    }
    let ctx = a.context();
    let bc = Vector::<f64>::new_in(&ctx, n)?;
    // Path-count propagation: new_sigma[w] = Σ_{v ∈ frontier} sigma[v]·A(v,w).
    let plus_first = Semiring::<f64, bool, f64>::plus_first();
    // Dependency pull: t[v] = Σ_w A(v,w)·t1[w].
    let plus_second = Semiring::<bool, f64, f64>::plus_second();

    for &s in sources {
        // ---- forward sweep -------------------------------------------
        // sigma: cumulative shortest-path counts; levels: frontier stack.
        let sigma = Vector::<f64>::new_in(&ctx, n)?;
        sigma.set_element(1.0, s)?;
        let mut levels: Vec<Vector<f64>> = Vec::new();
        let frontier = Vector::<f64>::new_in(&ctx, n)?;
        frontier.set_element(1.0, s)?;
        loop {
            levels.push(frontier.dup()?);
            // frontier⟨¬sigma, replace⟩ = frontier ⊕.first A
            vxm(
                &frontier,
                Some(&sigma),
                None,
                &plus_first,
                &frontier,
                a,
                &Descriptor::new()
                    .structure_mask()
                    .complement_mask()
                    .replace(),
            )?;
            if frontier.nvals()? == 0 {
                break;
            }
            // sigma ∪= frontier (position-disjoint).
            ewise_add_v(
                &sigma,
                graphblas_core::no_mask_v(),
                None,
                &BinaryOp::plus(),
                &sigma,
                &frontier,
                &Descriptor::default(),
            )?;
        }

        // ---- backward sweep ------------------------------------------
        let delta = Vector::<f64>::new_in(&ctx, n)?;
        for d in (1..levels.len()).rev() {
            // t1⟨S_d⟩ = (1 + delta) / sigma    (only on level-d vertices)
            let t1 = Vector::<f64>::new_in(&ctx, n)?;
            // Start from sigma restricted to S_d, then map with delta.
            let level = &levels[d];
            // inv[w] = (1 + delta[w]) / sigma[w] for w in S_d.
            let one_plus_delta = Vector::<f64>::new_in(&ctx, n)?;
            apply_v(
                &one_plus_delta,
                Some(level),
                None,
                &UnaryOp::new("inc", |x: &f64| x + 1.0),
                &delta,
                &Descriptor::new().structure_mask().replace(),
            )?;
            // Vertices in S_d with delta absent get (1 + 0): union with
            // the level's own 1-contribution where delta had no entry.
            let ones = Vector::<f64>::new_in(&ctx, n)?;
            apply_v(
                &ones,
                graphblas_core::no_mask_v(),
                None,
                &UnaryOp::new("one", |_: &f64| 1.0),
                level,
                &Descriptor::default(),
            )?;
            ewise_add_v(
                &one_plus_delta,
                graphblas_core::no_mask_v(),
                None,
                &BinaryOp::max(),
                &one_plus_delta,
                &ones,
                &Descriptor::default(),
            )?;
            ewise_mult_v(
                &t1,
                graphblas_core::no_mask_v(),
                None,
                &BinaryOp::div(),
                &one_plus_delta,
                &sigma,
                &Descriptor::default(),
            )?;
            // t2⟨S_{d-1}, replace⟩ = A ⊕.second t1   (pull from children)
            let t2 = Vector::<f64>::new_in(&ctx, n)?;
            mxv(
                &t2,
                Some(&levels[d - 1]),
                None,
                &plus_second,
                a,
                &t1,
                &Descriptor::new().structure_mask().replace(),
            )?;
            // delta⟨S_{d-1}⟩ += t2 · sigma
            let contrib = Vector::<f64>::new_in(&ctx, n)?;
            ewise_mult_v(
                &contrib,
                graphblas_core::no_mask_v(),
                None,
                &BinaryOp::times(),
                &t2,
                &sigma,
                &Descriptor::default(),
            )?;
            ewise_add_v(
                &delta,
                graphblas_core::no_mask_v(),
                None,
                &BinaryOp::plus(),
                &delta,
                &contrib,
                &Descriptor::default(),
            )?;
        }
        // bc += delta (source excluded by construction: delta[s] counts
        // only if s appears in later levels, which it cannot).
        let delta_no_source = Vector::<f64>::new_in(&ctx, n)?;
        apply_v(
            &delta_no_source,
            graphblas_core::no_mask_v(),
            None,
            &UnaryOp::identity(),
            &delta,
            &Descriptor::default(),
        )?;
        delta_no_source.remove_element(s)?;
        ewise_add_v(
            &bc,
            graphblas_core::no_mask_v(),
            None,
            &BinaryOp::plus(),
            &bc,
            &delta_no_source,
            &Descriptor::default(),
        )?;
    }
    Ok(bc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_core::operations::all_indices;

    fn digraph(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
        let a = Matrix::<bool>::new(n, n).unwrap();
        a.build(
            &edges.iter().map(|e| e.0).collect::<Vec<_>>(),
            &edges.iter().map(|e| e.1).collect::<Vec<_>>(),
            &vec![true; edges.len()],
            Some(&BinaryOp::lor()),
        )
        .unwrap();
        a
    }

    /// Reference Brandes on a tiny directed graph (BFS shortest paths).
    fn brute_force(n: usize, edges: &[(usize, usize)], sources: &[usize]) -> Vec<f64> {
        let mut adj = vec![Vec::new(); n];
        let mut radj = vec![Vec::new(); n];
        for &(u, v) in edges {
            if !adj[u].contains(&v) {
                adj[u].push(v);
                radj[v].push(u);
            }
        }
        let mut bc = vec![0.0f64; n];
        for &s in sources {
            let mut dist = vec![usize::MAX; n];
            let mut sigma = vec![0.0f64; n];
            let mut order = Vec::new();
            dist[s] = 0;
            sigma[s] = 1.0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                for &w in &adj[v] {
                    if dist[w] == usize::MAX {
                        dist[w] = dist[v] + 1;
                        queue.push_back(w);
                    }
                    if dist[w] == dist[v] + 1 {
                        sigma[w] += sigma[v];
                    }
                }
            }
            let mut delta = vec![0.0f64; n];
            for &w in order.iter().rev() {
                for &v in &radj[w] {
                    if dist[v] != usize::MAX && dist[w] == dist[v] + 1 {
                        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                    }
                }
                if w != s {
                    bc[w] += delta[w];
                }
            }
        }
        bc
    }

    fn run(n: usize, edges: &[(usize, usize)], sources: &[usize]) {
        let a = digraph(n, edges);
        let bc = betweenness_centrality(&a, sources).unwrap();
        let expect = brute_force(n, edges, sources);
        for (v, &exp) in expect.iter().enumerate() {
            let got = bc.extract_element(v).unwrap().unwrap_or(0.0);
            assert!(
                (got - exp).abs() < 1e-9,
                "vertex {v}: got {got}, expected {exp} (graph {edges:?})"
            );
        }
    }

    #[test]
    fn path_graph_center_dominates() {
        // 0→1→2: vertex 1 lies on the single 0→2 path.
        run(3, &[(0, 1), (1, 2)], &[0, 1, 2]);
    }

    #[test]
    fn diamond_splits_dependency() {
        // 0→{1,2}→3: two equal shortest paths.
        run(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], &[0, 1, 2, 3]);
    }

    #[test]
    fn star_and_cycle() {
        run(5, &[(0, 1), (0, 2), (0, 3), (0, 4)], &[0, 1, 2, 3, 4]);
        run(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], &[0, 1, 2, 3]);
    }

    #[test]
    fn random_digraphs_match_reference() {
        use graphblas_exec::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = 12;
            let mut edges = Vec::new();
            for _ in 0..30 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    edges.push((u, v));
                }
            }
            edges.sort_unstable();
            edges.dedup();
            let sources = all_indices(n);
            let a = digraph(n, &edges);
            let bc = betweenness_centrality(&a, &sources).unwrap();
            let expect = brute_force(n, &edges, &sources);
            for (v, &exp) in expect.iter().enumerate() {
                let got = bc.extract_element(v).unwrap().unwrap_or(0.0);
                assert!(
                    (got - exp).abs() < 1e-9,
                    "trial {trial} vertex {v}: got {got}, expected {exp}"
                );
            }
        }
    }

    #[test]
    fn sampled_sources_subset() {
        let edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)];
        run(5, &edges, &[0, 2]);
    }

    #[test]
    fn bad_source_rejected() {
        let a = digraph(2, &[]);
        assert!(betweenness_centrality(&a, &[7]).is_err());
    }
}
