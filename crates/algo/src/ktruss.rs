//! k-truss decomposition: the maximal subgraph in which every edge
//! participates in at least `k − 2` triangles.
//!
//! The linear-algebraic form iterates two GraphBLAS 2.0 primitives until a
//! fixpoint: a structure-masked `mxm` over PLUS.PAIR computes per-edge
//! triangle support, and the new `select` operation (§VIII.C) prunes edges
//! below the support threshold.

use graphblas_core::operations::{apply, mxm, select};
use graphblas_core::{
    ApiError, Descriptor, GrbResult, IndexUnaryOp, Matrix, Semiring, UnaryOp,
};

use crate::square_dim;

/// Returns the k-truss of an undirected simple graph (symmetric boolean
/// adjacency, no self-loops) as a boolean adjacency matrix. `k` must be
/// at least 3 (`GrB_INVALID_VALUE` otherwise).
pub fn k_truss(a: &Matrix<bool>, k: u64) -> GrbResult<Matrix<bool>> {
    let n = square_dim(a)?;
    if k < 3 {
        return Err(ApiError::InvalidValue.into());
    }
    let ctx = a.context();
    let threshold = k - 2;
    let plus_pair: Semiring<bool, bool, u64> = Semiring::plus_pair();

    // Working copy of the surviving edge set.
    let mut edges = a.dup()?;
    let support = Matrix::<u64>::new_in(&ctx, n, n)?;
    loop {
        let before = edges.nvals()?;
        if before == 0 {
            return Ok(edges);
        }
        // support⟨E⟩ = E ⊕.pair E : per-edge triangle counts.
        mxm(
            &support,
            Some(&edges),
            None,
            &plus_pair,
            &edges,
            &edges,
            &Descriptor::new().structure_mask().replace(),
        )?;
        // Keep edges with enough support.
        select(
            &support,
            graphblas_core::no_mask(),
            None,
            &IndexUnaryOp::valuege(),
            &support,
            threshold,
            &Descriptor::default(),
        )?;
        let after = support.nvals()?;
        // Rebuild the boolean edge set from the survivors.
        let next = Matrix::<bool>::new_in(&ctx, n, n)?;
        apply(
            &next,
            graphblas_core::no_mask(),
            None,
            &UnaryOp::<u64, bool>::new("edge", |_| true),
            &support,
            &Descriptor::default(),
        )?;
        edges = next;
        if after == before {
            return Ok(edges);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_core::BinaryOp;

    fn undirected(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
        let a = Matrix::<bool>::new(n, n).unwrap();
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for &(u, v) in edges {
            rows.push(u);
            cols.push(v);
            rows.push(v);
            cols.push(u);
        }
        a.build(&rows, &cols, &vec![true; rows.len()], Some(&BinaryOp::lor()))
            .unwrap();
        a
    }

    fn k4_edges(base: usize) -> Vec<(usize, usize)> {
        let mut e = Vec::new();
        for i in 0..4 {
            for j in (i + 1)..4 {
                e.push((base + i, base + j));
            }
        }
        e
    }

    #[test]
    fn triangle_is_a_3_truss() {
        let a = undirected(3, &[(0, 1), (1, 2), (0, 2)]);
        let t3 = k_truss(&a, 3).unwrap();
        assert_eq!(t3.nvals().unwrap(), 6); // all 3 undirected edges survive
        let t4 = k_truss(&a, 4).unwrap();
        assert_eq!(t4.nvals().unwrap(), 0); // no edge is in 2 triangles
    }

    #[test]
    fn path_has_no_truss() {
        let a = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(k_truss(&a, 3).unwrap().nvals().unwrap(), 0);
    }

    #[test]
    fn k4_with_pendant_triangle() {
        // K4 on {0..3}; triangle {3,4,5} hanging off vertex 3.
        let mut edges = k4_edges(0);
        edges.extend([(3, 4), (4, 5), (3, 5)]);
        let a = undirected(6, &edges);
        // 3-truss keeps everything (every edge is in ≥1 triangle).
        let t3 = k_truss(&a, 3).unwrap();
        assert_eq!(t3.nvals().unwrap(), 2 * 9);
        // 4-truss keeps only the K4 (its edges are each in 2 triangles).
        let t4 = k_truss(&a, 4).unwrap();
        assert_eq!(t4.nvals().unwrap(), 2 * 6);
        assert_eq!(t4.extract_element(0, 1).unwrap(), Some(true));
        assert_eq!(t4.extract_element(3, 4).unwrap(), None);
    }

    #[test]
    fn cascading_peel_converges() {
        // Two K4s sharing one edge: removing weak edges must cascade.
        let mut edges = k4_edges(0);
        // Second K4 on {2,3,4,5} shares edge (2,3).
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((2 + i, 2 + j));
            }
        }
        let a = undirected(6, &edges);
        let t4 = k_truss(&a, 4).unwrap();
        // Each K4 is still a 4-truss; the union survives.
        assert!(t4.nvals().unwrap() >= 2 * 6);
        let t5 = k_truss(&a, 5).unwrap();
        // No edge is in 3 triangles within a K4; 5-truss is empty.
        assert_eq!(t5.nvals().unwrap(), 0);
    }

    #[test]
    fn truss_is_nested_in_lower_truss() {
        use graphblas_exec::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        let n = 24;
        let mut edges = Vec::new();
        for _ in 0..90 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                edges.push((u, v));
            }
        }
        let a = undirected(n, &edges);
        let t3 = k_truss(&a, 3).unwrap();
        let t4 = k_truss(&a, 4).unwrap();
        // Every 4-truss edge is also a 3-truss edge.
        let (r4, c4, _) = t4.extract_tuples().unwrap();
        for (i, j) in r4.into_iter().zip(c4) {
            assert_eq!(t3.extract_element(i, j).unwrap(), Some(true));
        }
    }

    /// The k-truss by brute force: drop every edge in fewer than `k − 2`
    /// triangles, counted from the neighbour sets, until none is dropped.
    fn peeled(
        n: usize,
        edges: &[(usize, usize)],
        k: usize,
    ) -> std::collections::BTreeSet<(usize, usize)> {
        use std::collections::BTreeSet;
        let mut adj = vec![BTreeSet::new(); n];
        for &(u, v) in edges {
            adj[u].insert(v);
            adj[v].insert(u);
        }
        loop {
            let weak: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| adj[u].iter().map(move |&v| (u, v)))
                .filter(|&(u, v)| adj[u].intersection(&adj[v]).count() < k - 2)
                .collect();
            if weak.is_empty() {
                return (0..n)
                    .flat_map(|u| adj[u].iter().map(move |&v| (u, v)))
                    .collect();
            }
            for (u, v) in weak {
                adj[u].remove(&v);
            }
        }
    }

    #[test]
    fn seeded_truss_matches_brute_force() {
        use graphblas_exec::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x7255);
        let mut kept = 0;
        for _ in 0..8 {
            let n = rng.gen_range(8..40);
            let edges: Vec<(usize, usize)> = (0..n * 4)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|(u, v)| u != v)
                .collect();
            let a = undirected(n, &edges);
            for k in 3..7 {
                let (rows, cols, _) = k_truss(&a, k as u64).unwrap().extract_tuples().unwrap();
                let got: std::collections::BTreeSet<_> = rows.into_iter().zip(cols).collect();
                assert_eq!(got, peeled(n, &edges, k), "n={n} k={k}");
                kept += got.len();
            }
        }
        assert!(kept > 0, "vacuous");
    }

    #[test]
    fn invalid_k_rejected() {
        let a = undirected(2, &[(0, 1)]);
        assert!(k_truss(&a, 2).is_err());
    }
}
