//! Damped PageRank with dangling-vertex mass redistribution, run on the
//! caller's boolean adjacency matrix as stored: the matrix contributes
//! structure only (PLUS.SECOND / PLUS.FIRST), so no weighted copy is made
//! and the transpose the pull products need is memoised on `a` itself,
//! where the next call finds it.

use graphblas_core::operations::{
    apply_binop1st_v, apply_v, assign_scalar_v, ewise_add_v, ewise_mult_v, mxv,
    reduce_to_value_v, vxm, ALL,
};
use graphblas_core::{
    no_mask_v, BinaryOp, Descriptor, GrbResult, Matrix, Monoid, Semiring, UnaryOp, Vector,
};

use crate::square_dim;

/// PageRank over a boolean adjacency matrix. Returns a dense rank vector
/// summing to ~1. `damping` is typically 0.85.
pub fn pagerank(
    a: &Matrix<bool>,
    damping: f64,
    tol: f64,
    max_iter: usize,
) -> GrbResult<Vector<f64>> {
    let n = square_dim(a)?;
    let nf = n as f64;
    let ctx = a.context();
    let desc = Descriptor::default();
    let full = |value: f64| -> GrbResult<Vector<f64>> {
        let v = Vector::<f64>::new_in(&ctx, n)?;
        assign_scalar_v(&v, no_mask_v(), None, value, ALL, &desc)?;
        Ok(v)
    };

    // Out-degrees: deg = A ⊕.second 1 — one entry per vertex with out-edges.
    let deg = Vector::<f64>::new_in(&ctx, n)?;
    mxv(
        &deg,
        no_mask_v(),
        None,
        &Semiring::<bool, f64, f64>::plus_second(),
        a,
        &full(1.0)?,
        &desc,
    )?;
    // dinv = damping / deg, and 0 at dangling vertices (no product ever
    // reads their entry): a *full* vector, so `scaled` below stays full and
    // the pull kernel indexes it directly.
    let dinv = full(0.0)?;
    apply_binop1st_v(
        &dinv,
        Some(&deg),
        None,
        &BinaryOp::div(),
        damping,
        &deg,
        &Descriptor::new().structure_mask(),
    )?;

    let mut rank = full(1.0 / nf)?;
    let mut new_rank = Vector::<f64>::new_in(&ctx, n)?;
    let plus_first = Semiring::<f64, bool, f64>::plus_first();
    let absdiff = BinaryOp::<f64, f64, f64>::new("absdiff", |x, y| (x - y).abs());
    let scaled = Vector::<f64>::new_in(&ctx, n)?;
    let dangling = Vector::<f64>::new_in(&ctx, n)?;
    let delta = Vector::<f64>::new_in(&ctx, n)?;

    for _ in 0..max_iter {
        // scaled = damping · rank / deg.
        ewise_mult_v(
            &scaled,
            no_mask_v(),
            None,
            &BinaryOp::times(),
            &rank,
            &dinv,
            &desc,
        )?;
        // Dangling mass: rank of vertices with no out-edges.
        apply_v(
            &dangling,
            Some(&deg),
            None,
            &UnaryOp::identity(),
            &rank,
            &Descriptor::new()
                .structure_mask()
                .complement_mask()
                .replace(),
        )?;
        let dangling_mass = reduce_to_value_v(&Monoid::plus(), &dangling)?;

        // new_rank = teleport + damping · dangling/n + scaledᵀ A
        let base = (1.0 - damping) / nf + damping * dangling_mass / nf;
        assign_scalar_v(&new_rank, no_mask_v(), None, base, ALL, &desc)?;
        vxm(
            &new_rank,
            no_mask_v(),
            Some(&BinaryOp::plus()),
            &plus_first,
            &scaled,
            a,
            &desc,
        )?;

        // Convergence: L1 distance between iterations.
        ewise_add_v(&delta, no_mask_v(), None, &absdiff, &new_rank, &rank, &desc)?;
        let l1 = reduce_to_value_v(&Monoid::plus(), &delta)?;

        std::mem::swap(&mut rank, &mut new_rank);
        if l1 < tol {
            break;
        }
    }
    Ok(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
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

    fn ranks(v: &Vector<f64>) -> Vec<f64> {
        let n = v.size();
        (0..n)
            .map(|i| v.extract_element(i).unwrap().unwrap_or(0.0))
            .collect()
    }

    #[test]
    fn ranks_sum_to_one() {
        let a = adjacency(5, &[(0, 1), (1, 2), (2, 0), (3, 2), (4, 2)]);
        let r = pagerank(&a, 0.85, 1e-10, 200).unwrap();
        let total: f64 = ranks(&r).iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let a = adjacency(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = pagerank(&a, 0.85, 1e-12, 500).unwrap();
        let rs = ranks(&r);
        for x in &rs {
            assert!((x - 0.25).abs() < 1e-8, "expected uniform, got {rs:?}");
        }
    }

    #[test]
    fn hub_attracts_rank() {
        // Everyone points at vertex 0.
        let a = adjacency(4, &[(1, 0), (2, 0), (3, 0), (0, 1)]);
        let r = pagerank(&a, 0.85, 1e-10, 200).unwrap();
        let rs = ranks(&r);
        assert!(rs[0] > rs[2] && rs[0] > rs[3]);
    }

    #[test]
    fn dangling_vertices_handled() {
        // Vertex 2 has no out-edges; mass must not leak.
        let a = adjacency(3, &[(0, 1), (1, 2)]);
        let r = pagerank(&a, 0.85, 1e-10, 300).unwrap();
        let total: f64 = ranks(&r).iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
    }
}
