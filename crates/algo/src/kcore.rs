//! k-core membership by iterative peeling: repeatedly delete vertices
//! whose degree *within the surviving subgraph* is below `k`.

use graphblas_core::operations::{
    apply_v, assign_scalar_v, ewise_mult_v, mxv, select_v, ALL,
};
use graphblas_core::{
    BinaryOp, Descriptor, GrbResult, IndexUnaryOp, Matrix, Semiring, UnaryOp, Vector,
};

use crate::square_dim;

/// Returns the membership vector of the k-core (maximal subgraph where
/// every vertex has degree ≥ k), for an undirected symmetric adjacency
/// matrix.
pub fn k_core(a: &Matrix<bool>, k: u64) -> GrbResult<Vector<bool>> {
    let n = square_dim(a)?;
    let alive = Vector::<bool>::new_in(&a.context(), n)?;
    assign_scalar_v(
        &alive,
        graphblas_core::no_mask_v(),
        None,
        true,
        ALL,
        &Descriptor::default(),
    )?;
    let plus_pair: Semiring<bool, bool, u64> = Semiring::plus_pair();
    let deg = Vector::<u64>::new_in(&a.context(), n)?;
    let ones = Vector::<bool>::new_in(&a.context(), n)?;
    loop {
        // ones = indicator of surviving vertices.
        apply_v(
            &ones,
            graphblas_core::no_mask_v(),
            None,
            &UnaryOp::identity(),
            &alive,
            &Descriptor::default(),
        )?;
        // deg⟨alive⟩ = #surviving neighbours.
        mxv(
            &deg,
            Some(&alive),
            None,
            &plus_pair,
            a,
            &ones,
            &Descriptor::new().structure_mask().replace(),
        )?;
        // Survivors: degree ≥ k.
        let before = alive.nvals()?;
        select_v(
            &deg,
            graphblas_core::no_mask_v(),
            None,
            &IndexUnaryOp::valuege(),
            &deg,
            k,
            &Descriptor::default(),
        )?;
        // alive = structure of surviving deg (vertices with no surviving
        // neighbours have no deg entry → they leave unless k == 0).
        ewise_mult_v(
            &alive,
            graphblas_core::no_mask_v(),
            None,
            &BinaryOp::<bool, u64, bool>::first(),
            &alive,
            &deg,
            &Descriptor::default(),
        )?;
        let after = alive.nvals()?;
        if after == before || after == 0 {
            return Ok(alive);
        }
    }
}

/// Core number of every vertex: the largest `k` such that the vertex
/// belongs to the k-core. Dense output (0 for isolated vertices).
pub fn core_numbers(a: &Matrix<bool>) -> GrbResult<Vector<u64>> {
    let n = square_dim(a)?;
    let out = Vector::<u64>::new_in(&a.context(), n)?;
    assign_scalar_v(
        &out,
        graphblas_core::no_mask_v(),
        None,
        0u64,
        ALL,
        &Descriptor::default(),
    )?;
    let mut k = 1u64;
    loop {
        let members = k_core(a, k)?;
        if members.nvals()? == 0 {
            return Ok(out);
        }
        // out⟨members⟩ = k
        assign_scalar_v(
            &out,
            Some(&members),
            None,
            k,
            ALL,
            &Descriptor::new().structure_mask(),
        )?;
        k += 1;
        if k > n as u64 {
            return Ok(out);
        }
    }
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

    fn members(v: &Vector<bool>) -> Vec<usize> {
        let (i, _) = v.extract_tuples().unwrap();
        i
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle {0,1,2} plus tail 2-3: 2-core is the triangle.
        let a = undirected(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let core2 = k_core(&a, 2).unwrap();
        assert_eq!(members(&core2), vec![0, 1, 2]);
        let core1 = k_core(&a, 1).unwrap();
        assert_eq!(members(&core1), vec![0, 1, 2, 3]);
        let core3 = k_core(&a, 3).unwrap();
        assert_eq!(core3.nvals().unwrap(), 0);
    }

    #[test]
    fn cascading_peel() {
        // Path 0-1-2-3: removing the endpoints drops everyone from 2-core.
        let a = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let core2 = k_core(&a, 2).unwrap();
        assert_eq!(core2.nvals().unwrap(), 0);
    }

    #[test]
    fn core_numbers_on_mixed_graph() {
        // K4 on {0..3} plus pendant 4.
        let mut edges = vec![(0, 4)];
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push((i, j));
            }
        }
        let a = undirected(5, &edges);
        let cn = core_numbers(&a).unwrap();
        let vals: Vec<u64> = (0..5)
            .map(|i| cn.extract_element(i).unwrap().unwrap())
            .collect();
        assert_eq!(vals, vec![3, 3, 3, 3, 1]);
    }
}
