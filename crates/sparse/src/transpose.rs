//! Matrix transpose: one pass of the stable counting scatter
//! (`scatter.rs`), keyed by column.
//!
//! Entries are placed in source-row order, so every output row comes out
//! strictly sorted whether or not the source rows are. With more than one
//! task each task owns a contiguous range of output rows (source columns)
//! and, on a row-sorted source, finds its part of every source row by
//! binary search.

use graphblas_exec::Context;

use crate::csr::Csr;
use crate::scatter;

/// Returns `B = Aᵀ` as CSR (with `B.nrows == A.ncols`). Output rows are
/// strictly sorted.
pub fn transpose<T: Clone + Send + Sync>(ctx: &Context, a: &Csr<T>) -> Csr<T> {
    let nnz = a.nnz();
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Transpose, ctx.id());
    if sp.active() {
        sp.io(
            0,
            nnz as u64,
            nnz as u64,
            (nnz * (std::mem::size_of::<usize>() * 2 + std::mem::size_of::<T>())) as u64,
        );
    }
    let (indptr, indices, values) = transpose_parts(ctx, a);
    Csr::from_kernel_parts(a.ncols(), a.nrows(), indptr, indices, values, true)
}

/// `Aᵀ`'s CSR arrays, without [`transpose`]'s span: each row lists its
/// entries in `a`'s row order, so a column that repeats within a row of
/// `a` repeats, adjacent and in storage order, in the result's row.
pub(crate) fn transpose_parts<T: Clone + Send + Sync>(
    ctx: &Context,
    a: &Csr<T>,
) -> (Vec<usize>, Vec<usize>, Vec<T>) {
    let indptr = scatter::offsets(a.ncols(), a.indices());
    let (indices, values) = scatter::scatter(ctx, &indptr, a, a.values().first());
    (indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    #[test]
    fn transpose_small() {
        // [[1, _, 2],
        //  [_, _, _],
        //  [3, 4, _]]
        let a =
            Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1, 2, 3, 4]).unwrap();
        let t = transpose(&global_context(), &a);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 3);
        assert_eq!(
            t.to_sorted_tuples(),
            vec![(0, 0, 1), (0, 2, 3), (1, 2, 4), (2, 0, 2)]
        );
        assert!(t.is_rows_sorted());
        t.check().unwrap();
    }

    #[test]
    fn transpose_rectangular() {
        // 2x4 matrix
        let a = Csr::from_parts(2, 4, vec![0, 2, 4], vec![1, 3, 0, 2], vec![10, 30, 1, 3]).unwrap();
        let t = transpose(&global_context(), &a);
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 2);
        for (i, j, v) in a.iter() {
            assert_eq!(t.get(j, i), Some(v));
        }
        assert_eq!(t.nnz(), a.nnz());
    }

    #[test]
    fn transpose_empty_and_degenerate() {
        let ctx = global_context();
        let a = Csr::<i32>::empty(0, 5);
        let t = transpose(&ctx, &a);
        assert_eq!((t.nrows(), t.ncols()), (5, 0));
        let b = Csr::<i32>::empty(7, 0);
        let tb = transpose(&ctx, &b);
        assert_eq!((tb.nrows(), tb.ncols()), (0, 7));
    }

    #[test]
    fn double_transpose_is_identity() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(3);
        let (m, n) = (83, 131);
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for _ in 0..m {
            let mut cols: Vec<usize> = (0..rng.gen_range(0..16))
                .map(|_| rng.gen_range(0..n))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                indices.push(c);
                values.push(rng.gen_range(0..1000u32));
            }
            indptr.push(indices.len());
        }
        let a = Csr::from_parts(m, n, indptr, indices, values).unwrap();
        let tt = transpose(&ctx, &transpose(&ctx, &a));
        assert_eq!(a.to_sorted_tuples(), tt.to_sorted_tuples());
    }
}
