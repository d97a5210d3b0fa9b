//! Graph analytics on a synthetic power-law graph: the LAGraph-style
//! workload layer running end-to-end on the GraphBLAS 2.0 API.
//!
//! Generates an RMAT graph, symmetrizes it, and runs BFS, connected
//! components, PageRank, triangle counting, k-core, and a maximal
//! independent set — printing summary statistics for each.
//!
//! Run with: `cargo run --release --example graph_analytics`

use graphblas::algo::{
    betweenness_centrality, bfs_levels, connected_components, k_core,
    maximal_independent_set, pagerank, triangle_count,
};
use graphblas::io::rmat;
use graphblas::{Matrix, Vector};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = 10u32;
    let edge_factor = 8;
    println!("generating RMAT graph: scale {scale} (n = {}), {}x edges", 1 << scale, edge_factor);

    let edges = rmat(scale, edge_factor, 42)
        .without_self_loops()
        .undirected();
    let a: Matrix<bool> = edges.to_bool_matrix()?;
    let n = a.nrows();
    println!("adjacency: {} vertices, {} stored edges\n", n, a.nvals()?);

    // BFS from the highest-degree-ish vertex 0.
    let levels: Vector<i64> = bfs_levels(&a, 0)?;
    let reached = levels.nvals()?;
    let max_level = (0..n)
        .filter_map(|i| levels.extract_element(i).ok().flatten())
        .max()
        .unwrap_or(0);
    println!("BFS from 0: reached {reached}/{n} vertices, eccentricity {max_level}");

    // Connected components.
    let comps = connected_components(&a)?;
    let mut labels: Vec<u64> = (0..n)
        .map(|i| comps.extract_element(i).unwrap().unwrap())
        .collect();
    labels.sort_unstable();
    labels.dedup();
    println!("connected components: {}", labels.len());

    // PageRank.
    let ranks = pagerank(&a, 0.85, 1e-8, 100)?;
    let mut top: Vec<(usize, f64)> = (0..n)
        .map(|i| (i, ranks.extract_element(i).unwrap().unwrap_or(0.0)))
        .collect();
    top.sort_by(|x, y| y.1.total_cmp(&x.1));
    println!("PageRank top 5:");
    for (v, r) in top.iter().take(5) {
        println!("  vertex {v:5}: {r:.6}");
    }

    // Triangles.
    let triangles = triangle_count(&a)?;
    println!("triangles: {triangles}");

    // k-core.
    for k in [2u64, 4, 8] {
        let core = k_core(&a, k)?;
        println!("{k}-core size: {}", core.nvals()?);
    }

    // Maximal independent set (verified independent below).
    let mis = maximal_independent_set(&a, 7)?;
    let mis_size = mis.nvals()?;
    let (members, _) = mis.extract_tuples()?;
    for w in members.windows(2) {
        // Cheap spot-check of independence between consecutive members.
        assert_eq!(a.extract_element(w[0], w[1])?, None);
    }
    println!("maximal independent set: {mis_size} vertices");

    // Betweenness centrality from a handful of sampled sources.
    let bc = betweenness_centrality(&a, &[0, 1, 2, 3])?;
    let mut central: Vec<(usize, f64)> = (0..n)
        .filter_map(|v| bc.extract_element(v).ok().flatten().map(|x| (v, x)))
        .collect();
    central.sort_by(|x, y| y.1.total_cmp(&x.1));
    println!("betweenness (4 sampled sources) top 3:");
    for (v, score) in central.iter().take(3) {
        println!("  vertex {v:5}: {score:.1}");
    }

    println!("\ngraph analytics OK");
    // GrB_finalize: also writes the GRB_TRACE / GRB_EXPLAIN exports, if set.
    graphblas::finalize();
    Ok(())
}
