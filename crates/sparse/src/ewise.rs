//! Element-wise merge kernels: union (eWiseAdd), intersection (eWiseMult),
//! and mask restriction.
//!
//! These are sorted-merge walks over row segments; matrix variants are
//! row-parallel with nnz-balanced chunks. The mask-restriction kernel is
//! the engine behind GraphBLAS write semantics (mask / complement /
//! replace, paper Fig. 3's angle-bracket notation) and the new `select`
//! operation's "functional input mask".
//!
//! All matrix kernels require both inputs to have sorted rows; callers
//! (graphblas-core) sort lazily beforehand.

use std::ops::Range;

use graphblas_exec::workspace::BitSet;
use graphblas_exec::{parallel_map_ranges, partition, Context};

use crate::csr::Csr;
use crate::dvec::DenseVec;
use crate::svec::{SparseVec, VecOut, VecView};
use crate::util;

fn combined_chunks<A, B>(ctx: &Context, a: &Csr<A>, b: &Csr<B>) -> Vec<Range<usize>> {
    debug_assert_eq!(a.nrows(), b.nrows());
    let nrows = a.nrows();
    if nrows == 0 {
        return Vec::new();
    }
    let combined: Vec<usize> = (0..=nrows).map(|i| a.indptr()[i] + b.indptr()[i]).collect();
    let total = combined[nrows];
    let k = ctx
        .effective_threads()
        .min(total.max(1).div_ceil(ctx.chunk_size()).max(1))
        .min(nrows)
        .max(1);
    partition::prefix_balanced_ranges(&combined, k)
}

/// Union merge with distinct handlers for "both present", "only left",
/// "only right" — the fully general eWiseAdd kernel (also used for
/// accumulator application in write semantics).
pub fn ewise_union_general<A, B, Z, FB, FL, FR>(
    ctx: &Context,
    a: &Csr<A>,
    b: &Csr<B>,
    both: FB,
    left: FL,
    right: FR,
) -> Csr<Z>
where
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FB: Fn(&A, &B) -> Z + Sync,
    FL: Fn(&A) -> Z + Sync,
    FR: Fn(&B) -> Z + Sync,
{
    assert_eq!(a.nrows(), b.nrows(), "ewise: row count mismatch");
    assert_eq!(a.ncols(), b.ncols(), "ewise: column count mismatch");
    assert!(
        a.is_rows_sorted() && b.is_rows_sorted(),
        "ewise requires sorted rows"
    );
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::EwiseAdd, ctx.id());
    if sp.active() {
        let nnz_in = (a.nnz() + b.nnz()) as u64;
        sp.io(
            nnz_in,
            nnz_in,
            0,
            nnz_in * std::mem::size_of::<usize>() as u64,
        );
    }
    let ranges = combined_chunks(ctx, a, b);
    let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let mut lens = Vec::with_capacity(rows.len());
        let mut idx = Vec::new();
        let mut vals: Vec<Z> = Vec::new();
        for i in rows.clone() {
            let before = idx.len();
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => {
                        idx.push(ac[p]);
                        vals.push(left(&av[p]));
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        idx.push(bc[q]);
                        vals.push(right(&bv[q]));
                        q += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        idx.push(ac[p]);
                        vals.push(both(&av[p], &bv[q]));
                        p += 1;
                        q += 1;
                    }
                }
            }
            for k in p..ac.len() {
                idx.push(ac[k]);
                vals.push(left(&av[k]));
            }
            for k in q..bc.len() {
                idx.push(bc[k]);
                vals.push(right(&bv[k]));
            }
            lens.push(idx.len() - before);
        }
        (rows, (lens, idx, vals))
    });
    let (indptr, indices, values) = util::stitch_row_chunks(a.nrows(), chunks);
    let c = Csr::from_kernel_parts(a.nrows(), a.ncols(), indptr, indices, values, true);
    if sp.active() {
        sp.io(0, 0, c.nnz() as u64, 0);
    }
    c
}

/// Same-domain union (`eWiseAdd` with an operator on `T`): pass-through
/// where only one operand is present.
pub fn ewise_union<T, F>(ctx: &Context, a: &Csr<T>, b: &Csr<T>, op: F) -> Csr<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let _ph = graphblas_obs::timeline::phase("ewise.union");
    ewise_union_general(ctx, a, b, op, |x: &T| x.clone(), |y: &T| y.clone())
}

/// Intersection merge (`eWiseMult`): output only where both are present.
pub fn ewise_intersect<A, B, Z, F>(ctx: &Context, a: &Csr<A>, b: &Csr<B>, op: F) -> Csr<Z>
where
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    F: Fn(&A, &B) -> Z + Sync,
{
    assert_eq!(a.nrows(), b.nrows(), "ewise: row count mismatch");
    assert_eq!(a.ncols(), b.ncols(), "ewise: column count mismatch");
    assert!(
        a.is_rows_sorted() && b.is_rows_sorted(),
        "ewise requires sorted rows"
    );
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::EwiseMult, ctx.id());
    if sp.active() {
        let nnz_in = (a.nnz() + b.nnz()) as u64;
        sp.io(
            nnz_in,
            nnz_in,
            0,
            nnz_in * std::mem::size_of::<usize>() as u64,
        );
    }
    let ranges = combined_chunks(ctx, a, b);
    let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let mut lens = Vec::with_capacity(rows.len());
        let mut idx = Vec::new();
        let mut vals: Vec<Z> = Vec::new();
        for i in rows.clone() {
            let before = idx.len();
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        idx.push(ac[p]);
                        vals.push(op(&av[p], &bv[q]));
                        p += 1;
                        q += 1;
                    }
                }
            }
            lens.push(idx.len() - before);
        }
        (rows, (lens, idx, vals))
    });
    let (indptr, indices, values) = util::stitch_row_chunks(a.nrows(), chunks);
    let c = Csr::from_kernel_parts(a.nrows(), a.ncols(), indptr, indices, values, true);
    if sp.active() {
        sp.io(0, 0, c.nnz() as u64, 0);
    }
    c
}

/// Keeps entries of `a` at positions where the mask predicate holds
/// (`complement = false`) or where it does not hold / the mask is absent
/// (`complement = true`). `pred` evaluates a present mask element's
/// truthiness (always `true` for structure-only masks).
pub fn ewise_restrict<A, M, P>(
    ctx: &Context,
    a: &Csr<A>,
    m: &Csr<M>,
    complement: bool,
    pred: P,
) -> Csr<A>
where
    A: Clone + Send + Sync,
    M: Clone + Send + Sync,
    P: Fn(&M) -> bool + Sync,
{
    assert_eq!(a.nrows(), m.nrows(), "mask: row count mismatch");
    assert_eq!(a.ncols(), m.ncols(), "mask: column count mismatch");
    assert!(
        a.is_rows_sorted() && m.is_rows_sorted(),
        "mask requires sorted rows"
    );
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Select, ctx.id());
    if sp.active() {
        let nnz_in = (a.nnz() + m.nnz()) as u64;
        sp.io(
            nnz_in,
            nnz_in,
            0,
            nnz_in * std::mem::size_of::<usize>() as u64,
        );
    }
    let ranges = combined_chunks(ctx, a, m);
    let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let mut lens = Vec::with_capacity(rows.len());
        let mut idx = Vec::new();
        let mut vals: Vec<A> = Vec::new();
        for i in rows.clone() {
            let before = idx.len();
            let (ac, av) = a.row(i);
            let (mc, mv) = m.row(i);
            let mut q = 0usize;
            for (p, &j) in ac.iter().enumerate() {
                while q < mc.len() && mc[q] < j {
                    q += 1;
                }
                let masked_in = q < mc.len() && mc[q] == j && pred(&mv[q]);
                if masked_in != complement {
                    idx.push(j);
                    vals.push(av[p].clone());
                }
            }
            lens.push(idx.len() - before);
        }
        (rows, (lens, idx, vals))
    });
    let (indptr, indices, values) = util::stitch_row_chunks(a.nrows(), chunks);
    let c = Csr::from_kernel_parts(a.nrows(), a.ncols(), indptr, indices, values, true);
    if sp.active() {
        sp.io(0, 0, c.nnz() as u64, 0);
    }
    c
}

// ---------------------------------------------------------------------------
// Vector variants: sequential. Each takes its operands as [`VecView`]s and
// branches on the format pair once, at the top — two sparse operands are a
// merge walk, a full one turns its side of the walk into a slice loop — and
// opens the same kernel span as its matrix counterpart.
// ---------------------------------------------------------------------------

/// Records a two-operand vector kernel's input sizes on its span.
fn note_operands<A, B>(sp: &mut graphblas_obs::Span, a: VecView<'_, A>, b: VecView<'_, B>) {
    if sp.active() {
        let nnz_in = (a.nnz() + b.nnz()) as u64;
        sp.io(nnz_in, nnz_in, 0, a.bytes() + b.bytes());
    }
}

/// Union of a full operand with a sorted sparse one: every position of
/// `full` is kept, those `sparse` also stores are combined.
fn union_full_sparse<F, S, Z>(
    full: &[F],
    sparse: &SparseVec<S>,
    both: impl Fn(&F, &S) -> Z,
    only: impl Fn(&F) -> Z,
) -> DenseVec<Z> {
    let (si, sv) = (sparse.indices(), sparse.values());
    let mut q = 0usize;
    let values = full.iter().enumerate().map(|(i, x)| {
        if q < si.len() && si[q] == i {
            q += 1;
            both(x, &sv[q - 1])
        } else {
            only(x)
        }
    });
    DenseVec::from_values(values.collect())
}

/// Vector union with distinct handlers (see [`ewise_union_general`]). The
/// result is full as soon as one operand is.
pub fn svec_union_general<A, B, Z, FB, FL, FR>(
    ctx: &Context,
    a: VecView<'_, A>,
    b: VecView<'_, B>,
    both: FB,
    left: FL,
    right: FR,
) -> VecOut<Z>
where
    A: Clone,
    B: Clone,
    Z: Clone,
    FB: Fn(&A, &B) -> Z,
    FL: Fn(&A) -> Z,
    FR: Fn(&B) -> Z,
{
    assert_eq!(a.len(), b.len(), "vector ewise: length mismatch");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::EwiseAdd, ctx.id());
    note_operands(&mut sp, a, b);
    let out = match (a, b) {
        (VecView::Full(a), VecView::Full(b)) => {
            let values = a.values().iter().zip(b.values()).map(|(x, y)| both(x, y));
            VecOut::Full(DenseVec::from_values(values.collect()))
        }
        (VecView::Full(a), VecView::Sparse(b)) => {
            assert!(b.is_sorted(), "vector ewise requires sorted input");
            VecOut::Full(union_full_sparse(a.values(), b, both, left))
        }
        (VecView::Sparse(a), VecView::Full(b)) => {
            assert!(a.is_sorted(), "vector ewise requires sorted input");
            VecOut::Full(union_full_sparse(b.values(), a, |y, x| both(x, y), right))
        }
        (VecView::Sparse(a), VecView::Sparse(b)) => {
            assert!(
                a.is_sorted() && b.is_sorted(),
                "vector ewise requires sorted input"
            );
            let (ai, av) = (a.indices(), a.values());
            let (bi, bv) = (b.indices(), b.values());
            let mut idx = Vec::with_capacity(ai.len() + bi.len());
            let mut vals = Vec::with_capacity(ai.len() + bi.len());
            let (mut p, mut q) = (0usize, 0usize);
            while p < ai.len() && q < bi.len() {
                match ai[p].cmp(&bi[q]) {
                    std::cmp::Ordering::Less => {
                        idx.push(ai[p]);
                        vals.push(left(&av[p]));
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        idx.push(bi[q]);
                        vals.push(right(&bv[q]));
                        q += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        idx.push(ai[p]);
                        vals.push(both(&av[p], &bv[q]));
                        p += 1;
                        q += 1;
                    }
                }
            }
            for k in p..ai.len() {
                idx.push(ai[k]);
                vals.push(left(&av[k]));
            }
            for k in q..bi.len() {
                idx.push(bi[k]);
                vals.push(right(&bv[k]));
            }
            VecOut::Sparse(SparseVec::from_kernel_parts(a.len(), idx, vals, true))
        }
    };
    if sp.active() {
        sp.io(0, 0, out.nnz() as u64, 0);
    }
    out
}

/// Same-domain vector union.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `svec_union_general`.
pub fn svec_union<T, F>(ctx: &Context, a: VecView<'_, T>, b: VecView<'_, T>, op: F) -> VecOut<T>
where
    T: Clone,
    F: Fn(&T, &T) -> T,
{
    svec_union_general(ctx, a, b, op, |x: &T| x.clone(), |y: &T| y.clone())
}

/// `old ⊙= t` in place: a full vector absorbs `t` wherever `t` stores an
/// element — the union of a full operand with anything, without a fresh
/// output. `t` needs no particular order.
pub fn svec_accumulate<T, F>(ctx: &Context, old: &mut DenseVec<T>, t: VecView<'_, T>, op: F)
where
    F: Fn(&T, &T) -> T,
{
    assert_eq!(old.len(), t.len(), "vector ewise: length mismatch");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::EwiseAdd, ctx.id());
    if sp.active() {
        let touched = t.nnz() as u64;
        let bytes = t.bytes() + touched * std::mem::size_of::<T>() as u64;
        sp.io(touched, touched + old.len() as u64, old.len() as u64, bytes);
    }
    let acc = old.values_mut();
    match t {
        VecView::Full(t) => {
            for (o, x) in acc.iter_mut().zip(t.values()) {
                *o = op(o, x);
            }
        }
        VecView::Sparse(t) => {
            for (i, x) in t.iter() {
                acc[i] = op(&acc[i], x);
            }
        }
    }
}

/// k-way union merge of sorted sparse vectors over one index space — the
/// fan-in for `vxm`'s per-task partials. The index range is split into
/// balanced chunks (each part's segment located by binary search) and each
/// chunk is heap-merged independently, so the whole fan-in is one parallel
/// pass of O(total nnz · log k) work instead of the O(k·n) of a sequential
/// pairwise reduce.
pub fn svec_kmerge<T, F>(ctx: &Context, parts: Vec<SparseVec<T>>, add: F) -> SparseVec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    assert!(!parts.is_empty(), "svec_kmerge: need at least one part");
    let _ph = graphblas_obs::timeline::phase("ewise.kmerge");
    let n = parts[0].len();
    for p in &parts {
        assert_eq!(p.len(), n, "svec_kmerge: length mismatch");
        assert!(p.is_sorted(), "svec_kmerge requires sorted parts");
    }
    let mut parts: Vec<SparseVec<T>> = parts.into_iter().filter(|p| p.nnz() > 0).collect();
    match parts.len() {
        0 => return SparseVec::empty(n),
        1 => return parts.swap_remove(0),
        _ => {}
    }
    let total: usize = parts.iter().map(|p| p.nnz()).sum();
    let k = ctx
        .effective_threads()
        .min(total.div_ceil(ctx.chunk_size()).max(1))
        .min(n.max(1))
        .max(1);
    let ranges = partition::balanced_ranges(n, k);
    let chunks: Vec<(Vec<usize>, Vec<T>)> = parallel_map_ranges(ranges, |r: Range<usize>| {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Locate each part's segment for this index range, then heap-merge
        // the segments; equal indices are ⊕-combined as they surface.
        let mut cursor: Vec<(usize, usize)> = Vec::with_capacity(parts.len());
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(parts.len());
        for (p, part) in parts.iter().enumerate() {
            let ai = part.indices();
            let lo = ai.partition_point(|&i| i < r.start);
            let hi = ai.partition_point(|&i| i < r.end);
            cursor.push((lo, hi));
            if lo < hi {
                heap.push(Reverse((ai[lo], p)));
            }
        }
        let mut idx = Vec::new();
        let mut vals: Vec<T> = Vec::new();
        while let Some(Reverse((i, p))) = heap.pop() {
            let part = &parts[p];
            let v = &part.values()[cursor[p].0];
            if idx.last() == Some(&i) {
                if let Some(cur) = vals.last_mut() {
                    let merged = add(&*cur, v);
                    *cur = merged;
                }
            } else {
                idx.push(i);
                vals.push(v.clone());
            }
            cursor[p].0 += 1;
            if cursor[p].0 < cursor[p].1 {
                heap.push(Reverse((part.indices()[cursor[p].0], p)));
            }
        }
        (idx, vals)
    });
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (idx, vals) in chunks {
        indices.extend(idx);
        values.extend(vals);
    }
    SparseVec::from_kernel_parts(n, indices, values, true)
}

/// Vector intersection: full only when both operands are, otherwise the
/// sparse operand's structure (or the overlap of two).
pub fn svec_intersect<A, B, Z, F>(
    ctx: &Context,
    a: VecView<'_, A>,
    b: VecView<'_, B>,
    op: F,
) -> VecOut<Z>
where
    A: Clone,
    B: Clone,
    Z: Clone,
    F: Fn(&A, &B) -> Z,
{
    assert_eq!(a.len(), b.len(), "vector ewise: length mismatch");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::EwiseMult, ctx.id());
    note_operands(&mut sp, a, b);
    let out = match (a, b) {
        (VecView::Full(a), VecView::Full(b)) => {
            let values = a.values().iter().zip(b.values()).map(|(x, y)| op(x, y));
            VecOut::Full(DenseVec::from_values(values.collect()))
        }
        (VecView::Full(a), VecView::Sparse(b)) => {
            let av = a.values();
            VecOut::Sparse(b.map_with_index(|i, y| op(&av[i], y)))
        }
        (VecView::Sparse(a), VecView::Full(b)) => {
            let bv = b.values();
            VecOut::Sparse(a.map_with_index(|i, x| op(x, &bv[i])))
        }
        (VecView::Sparse(a), VecView::Sparse(b)) => {
            assert!(
                a.is_sorted() && b.is_sorted(),
                "vector ewise requires sorted input"
            );
            let (ai, av) = (a.indices(), a.values());
            let (bi, bv) = (b.indices(), b.values());
            // The overlap is at most the shorter operand; trimmed below.
            let bound = ai.len().min(bi.len());
            let mut idx = Vec::with_capacity(bound);
            let mut vals = Vec::with_capacity(bound);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ai.len() && q < bi.len() {
                match ai[p].cmp(&bi[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        idx.push(ai[p]);
                        vals.push(op(&av[p], &bv[q]));
                        p += 1;
                        q += 1;
                    }
                }
            }
            idx.shrink_to_fit();
            vals.shrink_to_fit();
            VecOut::Sparse(SparseVec::from_kernel_parts(a.len(), idx, vals, true))
        }
    };
    if sp.active() {
        sp.io(0, 0, out.nnz() as u64, 0);
    }
    out
}

/// Vector mask restriction (see [`ewise_restrict`]): the entries of `a` at
/// the positions `mask` admits, where `mask` is the truthy set of the mask
/// vector as a bitset (consulted as `member != complement`). A sparse `a`
/// is filtered by one bit test per stored entry — O(nnz(a)), whatever the
/// mask holds; a full `a` is gathered word by word at the admitted
/// positions, sized by one popcount pass.
pub fn svec_restrict<A: Clone>(
    ctx: &Context,
    a: VecView<'_, A>,
    mask: &BitSet,
    complement: bool,
) -> SparseVec<A> {
    let n = a.len();
    let words = &mask.words()[..n.div_ceil(64)];
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Select, ctx.id());
    if sp.active() {
        let nnz_in = a.nnz() as u64;
        sp.io(
            nnz_in,
            nnz_in,
            0,
            a.bytes() + std::mem::size_of_val(words) as u64,
        );
    }
    let (idx, vals) = match a {
        VecView::Full(a) => {
            let av = a.values();
            // The admitted positions of word `w`; the last word's are cut
            // at the vector's length.
            let admitted = |w: usize| {
                let valid = if (w + 1) * 64 > n {
                    (1u64 << (n % 64)) - 1
                } else {
                    u64::MAX
                };
                (if complement { !words[w] } else { words[w] }) & valid
            };
            let count: usize = (0..words.len())
                .map(|w| admitted(w).count_ones() as usize)
                .sum();
            let mut idx = Vec::with_capacity(count);
            let mut vals = Vec::with_capacity(count);
            for w in 0..words.len() {
                let mut bits = admitted(w);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    idx.push(i);
                    vals.push(av[i].clone());
                }
            }
            (idx, vals)
        }
        VecView::Sparse(a) => {
            assert!(a.is_sorted(), "vector mask requires sorted input");
            let mut idx = Vec::with_capacity(a.nnz());
            let mut vals = Vec::with_capacity(a.nnz());
            for (i, v) in a.iter() {
                if mask.contains(i) != complement {
                    idx.push(i);
                    vals.push(v.clone());
                }
            }
            idx.shrink_to_fit();
            vals.shrink_to_fit();
            (idx, vals)
        }
    };
    if sp.active() {
        sp.io(0, 0, idx.len() as u64, 0);
    }
    SparseVec::from_kernel_parts(n, idx, vals, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    fn m(rows: &[(usize, usize, i64)], shape: (usize, usize)) -> Csr<i64> {
        let coo = crate::coo::Coo::from_parts(
            shape.0,
            shape.1,
            rows.iter().map(|t| t.0).collect(),
            rows.iter().map(|t| t.1).collect(),
            rows.iter().map(|t| t.2).collect(),
        )
        .unwrap();
        coo.to_csr(&global_context(), None).unwrap()
    }

    #[test]
    fn union_is_set_union_with_op_on_overlap() {
        let ctx = global_context();
        let a = m(&[(0, 0, 1), (0, 2, 2), (1, 1, 3)], (2, 3));
        let b = m(&[(0, 2, 10), (1, 0, 20)], (2, 3));
        let c = ewise_union(&ctx, &a, &b, |x, y| x + y);
        assert_eq!(
            c.to_sorted_tuples(),
            vec![(0, 0, 1), (0, 2, 12), (1, 0, 20), (1, 1, 3)]
        );
        c.check().unwrap();
    }

    #[test]
    fn union_general_type_change() {
        let ctx = global_context();
        let a = m(&[(0, 0, 5)], (1, 2));
        let b = m(&[(0, 1, 7)], (1, 2));
        let c: Csr<String> = ewise_union_general(
            &ctx,
            &a,
            &b,
            |x, y| format!("{x}+{y}"),
            |x| format!("L{x}"),
            |y| format!("R{y}"),
        );
        assert_eq!(
            c.to_sorted_tuples(),
            vec![(0, 0, "L5".to_string()), (0, 1, "R7".to_string())]
        );
    }

    #[test]
    fn intersect_is_set_intersection() {
        let ctx = global_context();
        let a = m(&[(0, 0, 1), (0, 2, 2), (1, 1, 3)], (2, 3));
        let b = m(&[(0, 2, 10), (1, 0, 20), (1, 1, 4)], (2, 3));
        let c = ewise_intersect(&ctx, &a, &b, |x, y| x * y);
        assert_eq!(c.to_sorted_tuples(), vec![(0, 2, 20), (1, 1, 12)]);
    }

    #[test]
    fn restrict_structure_and_complement() {
        let ctx = global_context();
        let a = m(&[(0, 0, 1), (0, 1, 2), (1, 1, 3)], (2, 2));
        let mask = m(&[(0, 1, 1), (1, 0, 1)], (2, 2));
        let kept = ewise_restrict(&ctx, &a, &mask, false, |_| true);
        assert_eq!(kept.to_sorted_tuples(), vec![(0, 1, 2)]);
        let comp = ewise_restrict(&ctx, &a, &mask, true, |_| true);
        assert_eq!(comp.to_sorted_tuples(), vec![(0, 0, 1), (1, 1, 3)]);
    }

    #[test]
    fn restrict_value_mask() {
        let ctx = global_context();
        let a = m(&[(0, 0, 1), (0, 1, 2)], (1, 2));
        let mask = m(&[(0, 0, 0), (0, 1, 9)], (1, 2)); // 0 is falsy
        let kept = ewise_restrict(&ctx, &a, &mask, false, |v| *v != 0);
        assert_eq!(kept.to_sorted_tuples(), vec![(0, 1, 2)]);
    }

    /// The set `members` as a mask over `0..n`.
    fn bits(n: usize, members: &[usize]) -> BitSet {
        use graphblas_exec::workspace::Reusable;
        let mut set = BitSet::fresh();
        set.prepare(n);
        members.iter().for_each(|&i| set.insert(i));
        set
    }

    #[test]
    fn svec_merges() {
        let ctx = global_context();
        let a = SparseVec::from_parts(5, vec![0, 2, 4], vec![1, 2, 3]).unwrap();
        let b = SparseVec::from_parts(5, vec![2, 3], vec![10, 20]).unwrap();
        let u = svec_union(&ctx, (&a).into(), (&b).into(), |x, y| x + y);
        assert_eq!(u.to_sorted_tuples(), vec![(0, 1), (2, 12), (3, 20), (4, 3)]);
        let i = svec_intersect(&ctx, (&a).into(), (&b).into(), |x, y| x * y);
        assert_eq!(i.to_sorted_tuples(), vec![(2, 20)]);
        let mask = bits(5, &[0, 3]);
        let r = svec_restrict(&ctx, (&a).into(), &mask, false);
        assert_eq!(r.to_sorted_tuples(), vec![(0, 1)]);
        let rc = svec_restrict(&ctx, (&a).into(), &mask, true);
        assert_eq!(rc.to_sorted_tuples(), vec![(2, 2), (4, 3)]);
    }

    #[test]
    fn a_full_operand_makes_the_union_full_and_is_gathered_under_a_mask() {
        let ctx = global_context();
        let full = DenseVec::from_values(vec![1, 2, 3, 4, 5]);
        let b = SparseVec::from_parts(5, vec![2, 3], vec![10, 20]).unwrap();
        let u = svec_union(&ctx, (&full).into(), (&b).into(), |x, y| x + y);
        assert!(matches!(u, VecOut::Full(_)));
        assert_eq!(
            u.to_sorted_tuples(),
            vec![(0, 1), (1, 2), (2, 13), (3, 24), (4, 5)]
        );
        let i = svec_intersect(&ctx, (&b).into(), (&full).into(), |x, y| x - y);
        assert_eq!(i.to_sorted_tuples(), vec![(2, 7), (3, 16)]);
        let mask = bits(5, &[0, 4]);
        let r = svec_restrict(&ctx, (&full).into(), &mask, false);
        assert_eq!(r.to_sorted_tuples(), vec![(0, 1), (4, 5)]);
        let rc = svec_restrict(&ctx, (&full).into(), &mask, true);
        assert_eq!(rc.to_sorted_tuples(), vec![(1, 2), (2, 3), (3, 4)]);
        let mut acc = full.clone();
        svec_accumulate(&ctx, &mut acc, (&b).into(), |x, y| x + y);
        assert_eq!(acc.values(), &[1, 2, 13, 24, 5]);
        svec_accumulate(&ctx, &mut acc, (&full).into(), |x, y| x * y);
        assert_eq!(acc.values(), &[1, 4, 39, 96, 25]);
    }

    #[test]
    fn empty_operands() {
        let ctx = global_context();
        let a = Csr::<i64>::empty(3, 3);
        let b = m(&[(1, 1, 5)], (3, 3));
        assert_eq!(ewise_union(&ctx, &a, &b, |x, y| x + y).nnz(), 1);
        assert_eq!(ewise_intersect(&ctx, &a, &b, |x, y| x + y).nnz(), 0);
        let ev = SparseVec::<i64>::empty(4);
        let bv = SparseVec::from_parts(4, vec![1], vec![9]).unwrap();
        assert_eq!(
            svec_union(&ctx, (&ev).into(), (&bv).into(), |x, y| x + y).nnz(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn shape_mismatch_panics() {
        let ctx = global_context();
        let a = Csr::<i64>::empty(2, 3);
        let b = Csr::<i64>::empty(2, 4);
        let _ = ewise_union(&ctx, &a, &b, |x, y| x + y);
    }

    #[test]
    fn kmerge_matches_pairwise_reduce() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(41);
        let n = 500;
        for parts_count in [1usize, 2, 3, 7, 16] {
            let parts: Vec<SparseVec<i64>> = (0..parts_count)
                .map(|_| {
                    let idx: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..4) == 0).collect();
                    let vals: Vec<i64> = idx.iter().map(|_| rng.gen_range(-9..10)).collect();
                    SparseVec::from_parts(n, idx, vals).unwrap()
                })
                .collect();
            let union = |u: SparseVec<i64>, v: SparseVec<i64>| match svec_union(
                &ctx,
                (&u).into(),
                (&v).into(),
                |a, b| a + b,
            ) {
                VecOut::Sparse(s) => s,
                VecOut::Full(_) => unreachable!("two sparse operands merge sparse"),
            };
            let expect = parts.iter().cloned().reduce(union).unwrap();
            let got = svec_kmerge(&ctx, parts, |a, b| a + b);
            assert_eq!(got.to_sorted_tuples(), expect.to_sorted_tuples());
        }
    }

    #[test]
    fn kmerge_empty_and_disjoint_parts() {
        let ctx = global_context();
        let all_empty = vec![SparseVec::<i64>::empty(6), SparseVec::empty(6)];
        let merged = svec_kmerge(&ctx, all_empty, |a, b| a + b);
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.nnz(), 0);
        let disjoint = vec![
            SparseVec::from_parts(6, vec![0, 4], vec![1i64, 2]).unwrap(),
            SparseVec::empty(6),
            SparseVec::from_parts(6, vec![1, 5], vec![3, 4]).unwrap(),
        ];
        let merged = svec_kmerge(&ctx, disjoint, |a, b| a + b);
        assert_eq!(
            merged.to_sorted_tuples(),
            vec![(0, 1), (1, 3), (4, 2), (5, 4)]
        );
    }
}
