//! Local clustering coefficients: for each vertex `v`,
//! `lcc(v) = closed wedges at v / (deg(v) · (deg(v) − 1))`.
//!
//! Closed wedges come from the structure-masked product `C⟨A⟩ = A ⊕.pair
//! A` (each triangle contributes two closed wedges at each corner of the
//! symmetric adjacency matrix).

use graphblas_core::operations::{ewise_mult_v, mxm, mxv, reduce_to_vector};
use graphblas_core::{
    BinaryOp, Descriptor, GrbResult, Matrix, Monoid, Semiring, UnaryOp, Vector,
};

use crate::square_dim;

/// Per-vertex clustering coefficients for an undirected simple graph.
/// Vertices of degree < 2 have no entry (their coefficient is undefined).
pub fn local_clustering_coefficient(a: &Matrix<bool>) -> GrbResult<Vector<f64>> {
    let n = square_dim(a)?;
    // Degrees.
    let ones = Vector::<bool>::new_in(&a.context(), n)?;
    graphblas_core::operations::assign_scalar_v(
        &ones,
        graphblas_core::no_mask_v(),
        None,
        true,
        graphblas_core::operations::ALL,
        &Descriptor::default(),
    )?;
    let plus_pair: Semiring<bool, bool, u64> = Semiring::plus_pair();
    let deg = Vector::<u64>::new_in(&a.context(), n)?;
    mxv(
        &deg,
        graphblas_core::no_mask_v(),
        None,
        &plus_pair,
        a,
        &ones,
        &Descriptor::default(),
    )?;
    // Closed-wedge counts: row sums of C⟨A⟩ = A ⊕.pair A.
    let c = Matrix::<u64>::new_in(&a.context(), n, n)?;
    mxm(
        &c,
        Some(a),
        None,
        &Semiring::<bool, bool, u64>::plus_pair(),
        a,
        a,
        &Descriptor::new().structure_mask(),
    )?;
    let closed = Vector::<u64>::new_in(&a.context(), n)?;
    reduce_to_vector(
        &closed,
        graphblas_core::no_mask_v(),
        None,
        &Monoid::plus(),
        &c,
        &Descriptor::default(),
    )?;
    // Possible wedges per vertex: deg · (deg − 1), only where deg ≥ 2.
    let wedges = Vector::<f64>::new_in(&a.context(), n)?;
    graphblas_core::operations::apply_v(
        &wedges,
        graphblas_core::no_mask_v(),
        None,
        &UnaryOp::<u64, f64>::new("wedge_count", |d| (d * d.saturating_sub(1)) as f64),
        &deg,
        &Descriptor::default(),
    )?;
    // lcc = closed / wedges on the intersection (deg < 2 ⇒ wedges = 0 ⇒
    // filtered below).
    let lcc = Vector::<f64>::new_in(&a.context(), n)?;
    ewise_mult_v(
        &lcc,
        graphblas_core::no_mask_v(),
        None,
        &BinaryOp::<u64, f64, f64>::new("ratio", |c, w| {
            if *w > 0.0 {
                *c as f64 / *w
            } else {
                f64::NAN
            }
        }),
        &closed,
        &wedges,
        &Descriptor::default(),
    )?;
    // Drop NaNs (degree-<2 vertices that happened to have closed entries —
    // cannot actually occur, but keep the output clean regardless).
    graphblas_core::operations::select_v(
        &lcc,
        graphblas_core::no_mask_v(),
        None,
        &graphblas_core::IndexUnaryOp::<f64, f64, bool>::new("finite", |v, _, _| v.is_finite()),
        &lcc,
        0.0f64,
        &Descriptor::default(),
    )?;
    Ok(lcc)
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

    #[test]
    fn triangle_has_coefficient_one() {
        let a = undirected(3, &[(0, 1), (1, 2), (0, 2)]);
        let lcc = local_clustering_coefficient(&a).unwrap();
        for i in 0..3 {
            assert_eq!(lcc.extract_element(i).unwrap(), Some(1.0));
        }
    }

    #[test]
    fn path_center_is_open() {
        let a = undirected(3, &[(0, 1), (1, 2)]);
        let lcc = local_clustering_coefficient(&a).unwrap();
        // Vertex 1 has degree 2 but no closed wedge.
        assert_eq!(lcc.extract_element(1).unwrap(), None);
        // Endpoints have degree 1: undefined, no entry.
        assert_eq!(lcc.extract_element(0).unwrap(), None);
    }

    #[test]
    fn half_closed_square_with_diagonal() {
        // Square 0-1-2-3 plus diagonal 0-2.
        let a = undirected(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let lcc = local_clustering_coefficient(&a).unwrap();
        // Vertices 1 and 3 (degree 2, their two neighbours adjacent): 1.0.
        assert_eq!(lcc.extract_element(1).unwrap(), Some(1.0));
        assert_eq!(lcc.extract_element(3).unwrap(), Some(1.0));
        // Vertices 0 and 2 (degree 3, 2 of 6 ordered wedges closed): 2/3.
        let v0 = lcc.extract_element(0).unwrap().unwrap();
        assert!((v0 - 2.0 / 3.0).abs() < 1e-12);
    }
}
