//! The spanned COO → CSR canonicalization, plus randomized round-trip
//! tests of the Table III formats with CSR as the pivot.
//!
//! The pairwise conversions themselves are methods on the stores
//! (`Dense::to_csr`, `DenseVec::to_sparse`, …; CSC is a [`transpose`]);
//! `graphblas-core` calls those directly under its own `Convert` span.
//!
//! [`transpose`]: crate::transpose::transpose

use graphblas_exec::Context;

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::FormatError;

/// Runs `work` under a [`graphblas_obs::Kernel::Convert`] span, charging
/// `nnz_in` entries and a byte estimate at entry and the result's nnz via
/// `nnz_out` on completion.
fn with_convert_span<R>(
    ctx: &Context,
    nnz_in: usize,
    elem_bytes: usize,
    nnz_out: impl Fn(&R) -> usize,
    work: impl FnOnce() -> R,
) -> R {
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Convert, ctx.id());
    if sp.active() {
        sp.io(
            0,
            nnz_in as u64,
            0,
            (nnz_in * (std::mem::size_of::<usize>() + elem_bytes)) as u64,
        );
    }
    let r = work();
    if sp.active() {
        sp.io(0, 0, nnz_out(&r) as u64, 0);
    }
    r
}

/// COO → CSR; duplicates combined with `dup` or rejected when `None`.
pub fn coo_to_csr<T: Clone + Send + Sync>(
    ctx: &Context,
    coo: &Coo<T>,
    // grblint: allow(dyn-semiring-in-hot-kernel) — the dedup callback
    // runs once per duplicate during canonicalization, not in a semiring
    // flop loop; type erasure costs nothing here.
    dup: Option<&(dyn Fn(&T, &T) -> T + Sync)>,
) -> Result<Csr<T>, FormatError> {
    with_convert_span(
        ctx,
        coo.nnz(),
        std::mem::size_of::<T>(),
        |r: &Result<Csr<T>, FormatError>| r.as_ref().map_or(0, |c| c.nnz()),
        || coo.to_csr(ctx, dup),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Dense, Layout};
    use crate::dvec::DenseVec;
    use crate::transpose::transpose;
    use graphblas_exec::global_context;
    use graphblas_exec::rng::prelude::*;

    fn random_matrix(rng: &mut StdRng) -> Csr<i64> {
        let (m, n) = (rng.gen_range(1..20usize), rng.gen_range(1..20usize));
        let mut t: Vec<(usize, usize, i64)> = (0..rng.gen_range(0..60usize))
            .map(|_| {
                (
                    rng.gen_range(0..m),
                    rng.gen_range(0..n),
                    rng.gen_range(-100..100i64),
                )
            })
            .collect();
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|&mut (i, j, _)| (i, j));
        let rows = t.iter().map(|x| x.0).collect();
        let cols = t.iter().map(|x| x.1).collect();
        let vals = t.iter().map(|x| x.2).collect();
        Coo::from_parts(m, n, rows, cols, vals)
            .unwrap()
            .to_csr(&global_context(), None)
            .unwrap()
    }

    #[test]
    fn coo_roundtrip() {
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(0xC00);
        for _ in 0..32 {
            let a = random_matrix(&mut rng);
            let back = coo_to_csr(&ctx, &Coo::from_csr(&a), None).unwrap();
            assert_eq!(a.to_sorted_tuples(), back.to_sorted_tuples());
        }
    }

    #[test]
    fn transpose_involution() {
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(0x7A);
        for _ in 0..32 {
            let a = random_matrix(&mut rng);
            let tt = transpose(&ctx, &transpose(&ctx, &a));
            assert_eq!(a.to_sorted_tuples(), tt.to_sorted_tuples());
        }
    }

    #[test]
    fn dense_roundtrip_full_matrices() {
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(0xDE);
        for _ in 0..16 {
            let (m, n) = (rng.gen_range(1..8usize), rng.gen_range(1..8usize));
            let values: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-50..50)).collect();
            let d = Dense::from_parts(m, n, Layout::RowMajor, values).unwrap();
            let csr = d.to_csr(&ctx);
            assert_eq!(csr.nnz(), m * n);
            let back = Dense::from_csr_full(&ctx, &csr, Layout::ColMajor).unwrap();
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(d.get(i, j), back.get(i, j));
                }
            }
        }
    }

    #[test]
    fn vector_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0xEC);
        for _ in 0..16 {
            let values: Vec<i64> = (0..rng.gen_range(0..50usize))
                .map(|_| rng.gen_range(-100..100))
                .collect();
            let d = DenseVec::from_values(values.clone());
            let s = d.to_sparse();
            assert_eq!(s.nnz(), values.len());
            let back = DenseVec::from_sparse_full(&s).unwrap();
            assert_eq!(back.values(), &values[..]);
        }
    }
}
