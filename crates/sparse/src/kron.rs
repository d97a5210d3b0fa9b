//! Kronecker product kernel (`GrB_kronecker`).
//!
//! `C = A ⊗ B` has shape `(ma·mb) × (na·nb)`; entry
//! `C(ia·mb + ib, ja·nb + jb) = mul(A(ia,ja), B(ib,jb))`. Work is
//! parallelized over `A`'s rows, weighted by `row_nnz(A) · nnz(B)`.

use std::ops::Range;

use graphblas_exec::{parallel_map_ranges, partition, Context};

use crate::csr::Csr;
use crate::error::FormatError;
use crate::util;

/// Computes the Kronecker product with an arbitrary multiply closure.
pub fn kronecker<A, B, Z, FM>(
    ctx: &Context,
    a: &Csr<A>,
    b: &Csr<B>,
    mul: FM,
) -> Result<Csr<Z>, FormatError>
where
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FM: Fn(&A, &B) -> Z + Sync,
{
    let (ma, na) = (a.nrows(), a.ncols());
    let (mb, nb) = (b.nrows(), b.ncols());
    let m = ma.checked_mul(mb).ok_or(FormatError::Overflow)?;
    let n = na.checked_mul(nb).ok_or(FormatError::Overflow)?;
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Kron, ctx.id());
    if m == 0 || n == 0 || a.nnz() == 0 || b.nnz() == 0 {
        return Ok(Csr::empty(m, n));
    }
    if sp.active() {
        let out = (a.nnz() * b.nnz()) as u64;
        sp.io(
            out,
            (a.nnz() + b.nnz()) as u64,
            out,
            out * std::mem::size_of::<Z>() as u64,
        );
    }
    // Weight per a-row: its nnz times nnz(B) (each a-entry replicates B).
    let weights: Vec<usize> = {
        let mut w = Vec::with_capacity(ma + 1);
        w.push(0usize);
        let mut acc = 0usize;
        for ia in 0..ma {
            acc += a.row_nnz(ia) * b.nnz() + 1;
            w.push(acc);
        }
        w
    };
    let k = ctx
        .effective_threads()
        .min(weights[ma].div_ceil(ctx.chunk_size()).max(1))
        .min(ma)
        .max(1);
    let ranges = partition::prefix_balanced_ranges(&weights, k);
    let sorted = a.is_rows_sorted() && b.is_rows_sorted();
    let chunks = parallel_map_ranges(ranges, |arows: Range<usize>| {
        // Output rows covered by this chunk: arows.start*mb .. arows.end*mb.
        let mut lens = Vec::with_capacity(arows.len() * mb);
        let mut idx = Vec::new();
        let mut vals: Vec<Z> = Vec::new();
        for ia in arows.clone() {
            let (acols, avals) = a.row(ia);
            for ib in 0..mb {
                let before = idx.len();
                let (bcols, bvals) = b.row(ib);
                for (&ja, av) in acols.iter().zip(avals) {
                    for (&jb, bv) in bcols.iter().zip(bvals) {
                        idx.push(ja * nb + jb);
                        vals.push(mul(av, bv));
                    }
                }
                lens.push(idx.len() - before);
            }
        }
        (arows.start * mb..arows.end * mb, (lens, idx, vals))
    });
    let (indptr, indices, values) = util::stitch_row_chunks(m, chunks);
    Ok(Csr::from_kernel_parts(
        m, n, indptr, indices, values, sorted,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    #[test]
    fn kron_2x2_identity_like() {
        let ctx = global_context();
        // A = [[1, 2]], B = I2
        let a = Csr::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1i64, 2]).unwrap();
        let b = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1i64, 1]).unwrap();
        let c = kronecker(&ctx, &a, &b, |x, y| x * y).unwrap();
        assert_eq!((c.nrows(), c.ncols()), (2, 4));
        assert_eq!(
            c.to_sorted_tuples(),
            vec![(0, 0, 1), (0, 2, 2), (1, 1, 1), (1, 3, 2)]
        );
        assert!(c.is_rows_sorted());
        c.check().unwrap();
    }

    #[test]
    fn kron_against_reference() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(17);
        let mk = |rows: usize, cols: usize, rng: &mut StdRng| {
            let mut seen = std::collections::HashSet::new();
            let mut r = Vec::new();
            let mut c = Vec::new();
            let mut v = Vec::new();
            for _ in 0..rows * cols / 3 {
                let i = rng.gen_range(0..rows);
                let j = rng.gen_range(0..cols);
                if seen.insert((i, j)) {
                    r.push(i);
                    c.push(j);
                    v.push(rng.gen_range(1..9i64));
                }
            }
            crate::coo::Coo::from_parts(rows, cols, r, c, v)
                .unwrap()
                .to_csr(&global_context(), None)
                .unwrap()
        };
        let a = mk(5, 7, &mut rng);
        let b = mk(4, 3, &mut rng);
        let c = kronecker(&ctx, &a, &b, |x, y| x * y).unwrap();
        assert_eq!(c.nnz(), a.nnz() * b.nnz());
        for (ia, ja, av) in a.iter() {
            for (ib, jb, bv) in b.iter() {
                assert_eq!(c.get(ia * 4 + ib, ja * 3 + jb), Some(&(av * bv)));
            }
        }
    }

    #[test]
    fn kron_with_empty_operand() {
        let ctx = global_context();
        let a = Csr::<i64>::empty(2, 2);
        let b = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![5i64]).unwrap();
        let c = kronecker(&ctx, &a, &b, |x, y| x * y).unwrap();
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (2, 2, 0));
    }
}
