//! Maximal independent set, Luby-style: each round, every remaining
//! candidate draws a deterministic hashed priority; candidates beating
//! every remaining neighbour join the set, and their neighbourhoods leave
//! the candidate pool. Priorities are a pure hash of `(vertex, round,
//! seed)`, so the algorithm needs no RNG dependency and is reproducible.

use graphblas_core::operations::{apply_indexop_v, apply_v, assign_scalar_v, ewise_add_v, ewise_mult_v, mxv};
use graphblas_core::{
    BinaryOp, Descriptor, GrbResult, IndexUnaryOp, Matrix, Monoid, Semiring, UnaryOp, Vector,
};

use crate::square_dim;

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: good avalanche, cheap, dependency-free.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// Computes a maximal independent set of an undirected graph (symmetric
/// adjacency, no self-loops). Returns a vector with `true` at members.
pub fn maximal_independent_set(a: &Matrix<bool>, seed: u64) -> GrbResult<Vector<bool>> {
    let n = square_dim(a)?;
    let mis = Vector::<bool>::new_in(&a.context(), n)?;
    // Candidate pool: initially every vertex.
    let candidates = Vector::<bool>::new_in(&a.context(), n)?;
    assign_scalar_v(
        &candidates,
        graphblas_core::no_mask_v(),
        None,
        true,
        graphblas_core::operations::ALL,
        &Descriptor::default(),
    )?;

    let max_second: Semiring<bool, u64, u64> =
        Semiring::new(Monoid::max(), BinaryOp::second());
    let prio = Vector::<u64>::new_in(&a.context(), n)?;
    let neighbour_best = Vector::<u64>::new_in(&a.context(), n)?;
    let winners = Vector::<bool>::new_in(&a.context(), n)?;
    let removed = Vector::<bool>::new_in(&a.context(), n)?;

    let mut round = 0u64;
    while candidates.nvals()? > 0 {
        // Hashed priorities ≥ 1 for every candidate.
        let salt = mix(seed ^ round.wrapping_mul(0x9e3779b97f4a7c15));
        let hash_op = IndexUnaryOp::<bool, u64, u64>::new("prio", move |_, idx, s| {
            mix(idx[0] as u64 ^ s) | 1
        });
        apply_indexop_v(
            &prio,
            graphblas_core::no_mask_v(),
            None,
            &hash_op,
            &candidates,
            salt,
            &Descriptor::default(),
        )?;
        // Best priority among *candidate* neighbours; vertices whose
        // neighbours all left the pool get no entry.
        mxv(
            &neighbour_best,
            Some(&candidates),
            None,
            &max_second,
            a,
            &prio,
            &Descriptor::new().structure_mask().replace(),
        )?;
        // winners = candidates whose priority beats every neighbour:
        // strict winners on the intersection, plus candidates with no
        // remaining neighbour (absent from neighbour_best).
        let beats = Vector::<bool>::new_in(&a.context(), n)?;
        ewise_mult_v(
            &beats,
            graphblas_core::no_mask_v(),
            None,
            &BinaryOp::gt(),
            &prio,
            &neighbour_best,
            &Descriptor::default(),
        )?;
        // Keep only `true` comparisons.
        graphblas_core::operations::select_v(
            &beats,
            graphblas_core::no_mask_v(),
            None,
            &IndexUnaryOp::valueeq(),
            &beats,
            true,
            &Descriptor::default(),
        )?;
        // Isolated-in-pool candidates: prio entries without neighbour_best.
        apply_v(
            &winners,
            Some(&neighbour_best),
            None,
            &UnaryOp::<u64, bool>::new("won", |_| true),
            &prio,
            &Descriptor::new()
                .structure_mask()
                .complement_mask()
                .replace(),
        )?;
        ewise_add_v(
            &winners,
            graphblas_core::no_mask_v(),
            None,
            &BinaryOp::lor(),
            &winners,
            &beats,
            &Descriptor::default(),
        )?;
        if winners.nvals()? == 0 {
            // Extremely unlikely (requires a hash tie); resalt and retry.
            round += 1;
            continue;
        }
        // mis ∪= winners
        ewise_add_v(
            &mis,
            graphblas_core::no_mask_v(),
            None,
            &BinaryOp::lor(),
            &mis,
            &winners,
            &Descriptor::default(),
        )?;
        // removed = winners ∪ neighbours(winners)
        mxv(
            &removed,
            graphblas_core::no_mask_v(),
            None,
            &Semiring::lor_land(),
            a,
            &winners,
            &Descriptor::default(),
        )?;
        ewise_add_v(
            &removed,
            graphblas_core::no_mask_v(),
            None,
            &BinaryOp::lor(),
            &removed,
            &winners,
            &Descriptor::default(),
        )?;
        // candidates = candidates \ removed
        apply_v(
            &candidates,
            Some(&removed),
            None,
            &UnaryOp::identity(),
            &candidates,
            &Descriptor::new()
                .structure_mask()
                .complement_mask()
                .replace(),
        )?;
        round += 1;
    }
    Ok(mis)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn verify_mis(a: &Matrix<bool>, mis: &Vector<bool>) {
        let n = a.nrows();
        let member: Vec<bool> = (0..n)
            .map(|i| mis.extract_element(i).unwrap().unwrap_or(false))
            .collect();
        // Independence: no two members adjacent.
        for i in 0..n {
            for j in 0..n {
                if member[i] && member[j] && a.extract_element(i, j).unwrap().is_some() {
                    panic!("members {i} and {j} are adjacent");
                }
            }
        }
        // Maximality: every non-member has a member neighbour.
        for v in 0..n {
            if member[v] {
                continue;
            }
            let has_member_neighbour = (0..n).any(|u| {
                member[u] && a.extract_element(v, u).unwrap().is_some()
            });
            assert!(
                has_member_neighbour,
                "vertex {v} could be added — not maximal"
            );
        }
    }

    #[test]
    fn path_graph() {
        let a = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mis = maximal_independent_set(&a, 1).unwrap();
        verify_mis(&a, &mis);
    }

    #[test]
    fn star_graph_picks_leaves_or_center() {
        let a = undirected(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mis = maximal_independent_set(&a, 2).unwrap();
        verify_mis(&a, &mis);
    }

    #[test]
    fn edgeless_graph_takes_everything() {
        let a = Matrix::<bool>::new(4, 4).unwrap();
        let mis = maximal_independent_set(&a, 3).unwrap();
        assert_eq!(mis.nvals().unwrap(), 4);
    }

    #[test]
    fn random_graphs_with_multiple_seeds() {
        use graphblas_exec::rng::prelude::*;
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let n = 40;
            let mut edges = Vec::new();
            for _ in 0..120 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    edges.push((u, v));
                }
            }
            let a = undirected(n, &edges);
            let mis = maximal_independent_set(&a, seed).unwrap();
            verify_mis(&a, &mis);
        }
    }
}
