//! Breadth-first search: levels and parents.
//!
//! The level variant is the canonical masked `vxm` loop over LOR.LAND.
//! The parent variant demonstrates the paper's §II motivation: the
//! frontier must carry *vertex indices* as values. GraphBLAS 1.X forced
//! packing the index into the value array by hand; with 2.0 the frontier
//! is re-indexed with the predefined `ROWINDEX` operator via `apply`.

use graphblas_core::operations::{apply_indexop_v, assign_scalar_v, vxm, ALL};
use graphblas_core::{
    ApiError, BinaryOp, Descriptor, GrbResult, Index, IndexUnaryOp, Matrix, Monoid, Semiring,
    Vector,
};

use crate::square_dim;

/// BFS levels from `source`: `levels[v]` = hop distance (source = 0).
/// Unreached vertices have no entry.
pub fn bfs_levels(a: &Matrix<bool>, source: Index) -> GrbResult<Vector<i64>> {
    let n = square_dim(a)?;
    if source >= n {
        return Err(ApiError::InvalidIndex.into());
    }
    let levels = Vector::<i64>::new_in(&a.context(), n)?;
    let frontier = Vector::<bool>::new_in(&a.context(), n)?;
    frontier.set_element(true, source)?;
    let mut depth = 0i64;
    while frontier.nvals()? > 0 {
        // levels⟨frontier (structure)⟩ = depth
        assign_scalar_v(
            &levels,
            Some(&frontier),
            None,
            depth,
            ALL,
            &Descriptor::new().structure_mask(),
        )?;
        // frontier⟨¬levels (structure), replace⟩ = frontier ∨.∧ A
        vxm(
            &frontier,
            Some(&levels),
            None,
            &Semiring::lor_land(),
            &frontier,
            a,
            &Descriptor::new()
                .structure_mask()
                .complement_mask()
                .replace(),
        )?;
        depth += 1;
    }
    Ok(levels)
}

/// BFS parents from `source`: `parents[v]` = the vertex that discovered
/// `v` (`parents[source] = source`). Unreached vertices have no entry.
pub fn bfs_parents(a: &Matrix<bool>, source: Index) -> GrbResult<Vector<i64>> {
    let n = square_dim(a)?;
    if source >= n {
        return Err(ApiError::InvalidIndex.into());
    }
    let parents = Vector::<i64>::new_in(&a.context(), n)?;
    parents.set_element(source as i64, source)?;
    // Frontier values carry the *discovering vertex's index*.
    let frontier = Vector::<i64>::new_in(&a.context(), n)?;
    frontier.set_element(source as i64, source)?;
    // MIN.FIRST over (frontier value, edge): ties broken toward the
    // smallest parent id, deterministically.
    let min_first: Semiring<i64, bool, i64> =
        Semiring::new(Monoid::min(), BinaryOp::first());
    let next = Vector::<i64>::new_in(&a.context(), n)?;
    loop {
        // next⟨¬parents (structure), replace⟩ = frontier MIN.FIRST A
        vxm(
            &next,
            Some(&parents),
            None,
            &min_first,
            &frontier,
            a,
            &Descriptor::new()
                .structure_mask()
                .complement_mask()
                .replace(),
        )?;
        if next.nvals()? == 0 {
            break;
        }
        // Record the discovered parents (position-disjoint union).
        graphblas_core::operations::ewise_add_v(
            &parents,
            graphblas_core::no_mask_v(),
            None,
            &BinaryOp::first(),
            &parents,
            &next,
            &Descriptor::default(),
        )?;
        // Re-index the new frontier with its own vertex ids — the 2.0
        // one-liner replacing 1.X's hand-rolled index packing (§II).
        apply_indexop_v(
            &frontier,
            graphblas_core::no_mask_v(),
            None,
            &IndexUnaryOp::rowindex(),
            &next,
            0i64,
            &Descriptor::default(),
        )?;
    }
    Ok(parents)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
        let a = Matrix::<bool>::new(n, n).unwrap();
        let rows: Vec<_> = edges.iter().map(|e| e.0).collect();
        let cols: Vec<_> = edges.iter().map(|e| e.1).collect();
        a.build(&rows, &cols, &vec![true; edges.len()], Some(&BinaryOp::lor()))
            .unwrap();
        a
    }

    fn tuples(v: &Vector<i64>) -> Vec<(usize, i64)> {
        let (i, x) = v.extract_tuples().unwrap();
        i.into_iter().zip(x).collect()
    }

    #[test]
    fn levels_on_a_path() {
        let a = adjacency(4, &[(0, 1), (1, 2), (2, 3)]);
        let l = bfs_levels(&a, 0).unwrap();
        assert_eq!(tuples(&l), vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn levels_with_unreachable_component() {
        let a = adjacency(5, &[(0, 1), (1, 2), (3, 4)]);
        let l = bfs_levels(&a, 0).unwrap();
        assert_eq!(tuples(&l), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn levels_pick_shortest_route() {
        // 0→1→2→3 and the shortcut 0→3.
        let a = adjacency(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let l = bfs_levels(&a, 0).unwrap();
        assert_eq!(l.extract_element(3).unwrap(), Some(1));
    }

    #[test]
    fn parents_form_a_valid_bfs_tree() {
        let a = adjacency(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let p = bfs_parents(&a, 0).unwrap();
        let l = bfs_levels(&a, 0).unwrap();
        assert_eq!(p.extract_element(0).unwrap(), Some(0));
        // Every parent edge must exist and descend exactly one level.
        for (v, parent) in tuples(&p) {
            if v == 0 {
                continue;
            }
            let parent = parent as usize;
            assert_eq!(a.extract_element(parent, v).unwrap(), Some(true));
            let lv = l.extract_element(v).unwrap().unwrap();
            let lp = l.extract_element(parent).unwrap().unwrap();
            assert_eq!(lv, lp + 1);
        }
        // Vertex 5 unreachable.
        assert_eq!(p.extract_element(5).unwrap(), None);
    }

    #[test]
    fn parents_tie_break_to_minimum() {
        // Both 0 and 1 reach 2 in one hop from a 2-vertex frontier.
        let a = adjacency(3, &[(0, 2), (1, 2), (0, 1)]);
        let p = bfs_parents(&a, 0).unwrap();
        // 2 discovered at depth 1 from 0 (0 < would-be parent 1 later).
        assert_eq!(p.extract_element(2).unwrap(), Some(0));
    }

    #[test]
    fn bad_source_rejected() {
        let a = adjacency(2, &[]);
        assert!(bfs_levels(&a, 5).is_err());
        let rect = Matrix::<bool>::new(2, 3).unwrap();
        assert!(bfs_levels(&rect, 0).is_err());
    }
}
