//! Sparse matrix-matrix multiplication (Gustavson's algorithm).
//!
//! Row-parallel: row `i` of `C = A ⊕.⊗ B` is the ⊕-combination of rows of
//! `B` selected and ⊗-scaled by row `i` of `A`, accumulated in a per-task
//! accumulator checked out of the thread's workspace cache (iterative
//! callers reuse the allocation across kernel invocations).
//!
//! Work is partitioned by *flops* (Σ over a-entries of the touched b-row
//! lengths), not row count — essential for power-law graphs.
//!
//! Three paths share one row loop, `walk_rows`, generic over its mask
//! policy and its accumulator:
//!
//! - [`spgemm`] and [`spgemm_masked`] accumulate any semiring in
//!   `exec::workspace::Spa` — one stamped table whose cells say
//!   "untouched", "marked by the mask" or "holds slot k", so clearing is
//!   O(1) and a flop is one table load and a branch on it. A mask is
//!   scattered into the table row by row, as "allowed" (`C⟨M⟩`) or
//!   "forbidden" (`C⟨¬M⟩`), so products outside it are never stored.
//! - [`spgemm_count`] is `C⟨M⟩ = A PLUS.PAIR B` under a plain mask, the
//!   product of triangle counting. Every product is `one`, so it needs no
//!   first-touch test: the row's mask goes into a bitset, and each product
//!   adds `one` or zero (its bit) to a dense count row, without a branch.
//!   An entry is present exactly when its count is above zero. It reads
//!   only the operands' structure, so it is instantiated per output type
//!   alone.
//!
//! The work is Σ |B(k,:)| products over the entries `A(i,k)` (a plain
//! mask skips only the rows it admits nothing in): a mask saves stores,
//! not products.
//!
//! The result is written once. Each task learns its output size before it
//! allocates — a symbolic pass counts the distinct columns per row; under
//! a plain mask the mask rows themselves bound it — and a single task's
//! buffers become the result's arrays without a copy
//! ([`util::stitch_row_chunks`]). Those buffers come from the thread's
//! result shelf (`exec::workspace::take_vec`) when a dropped result left
//! one that fits, so a rep that rebuilds its product does not fault it in
//! afresh. Rows come out in first-touch order
//! (`rows_sorted == false`; `wait(MATERIALIZE)` carries the sort), except
//! under a plain mask with sorted rows, where they are emitted by walking
//! the mask row and so come out sorted too.

use std::ops::{Add, Range};

use graphblas_exec::workspace::{self, BitSet, Marks, Reusable, Spa};
use graphblas_exec::{parallel_map_chunks, parallel_map_ranges, partition, Context};

use crate::csr::Csr;
use crate::util::{self, RowChunk};

/// A matrix's structure without its values: what the flop count, and the
/// row loop of a value-blind product, read of an operand.
#[derive(Clone, Copy)]
struct Pattern<'a> {
    ncols: usize,
    indptr: &'a [usize],
    indices: &'a [usize],
}

impl<'a> Pattern<'a> {
    fn of<T>(m: &'a Csr<T>) -> Self {
        Pattern {
            ncols: m.ncols(),
            indptr: m.indptr(),
            indices: m.indices(),
        }
    }

    fn nrows(&self) -> usize {
        self.indptr.len() - 1
    }

    fn nnz(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    fn row(&self, i: usize) -> &'a [usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }
}

/// An operand as the row loop reads it: a row's column indices, each
/// beside what the flop is handed — the stored value of a [`Csr`], or
/// nothing from a [`Pattern`].
trait Factor: Sync {
    type Entry<'e>: Copy
    where
        Self: 'e;

    fn entries(&self, i: usize) -> impl Iterator<Item = (usize, Self::Entry<'_>)>;
}

impl<T: Sync> Factor for Csr<T> {
    type Entry<'e>
        = &'e T
    where
        T: 'e;

    #[inline]
    fn entries(&self, i: usize) -> impl Iterator<Item = (usize, &T)> {
        let (cols, vals) = self.row(i);
        cols.iter().copied().zip(vals)
    }
}

impl Factor for Pattern<'_> {
    type Entry<'e>
        = ()
    where
        Self: 'e;

    #[inline]
    fn entries(&self, i: usize) -> impl Iterator<Item = (usize, ())> {
        self.row(i).iter().map(|&j| (j, ()))
    }
}

/// What the row loop accumulates a row in: a new pass per row, with the
/// row's mask marks in it.
trait Accumulator {
    /// Starts a row: every entry and mark of the last one is gone.
    fn begin_pass(&mut self);

    /// Marks position `j` for this pass.
    fn mark(&mut self, j: usize);
}

impl<Z> Accumulator for Spa<Z> {
    #[inline]
    fn begin_pass(&mut self) {
        Spa::begin_pass(self);
    }

    #[inline]
    fn mark(&mut self, j: usize) {
        Spa::mark(self, j);
    }
}

/// The accumulator of [`spgemm_count`]: the row's admitted positions as
/// bits, and a dense count row that holds `Z::default()` (zero) wherever
/// the current row has no entry. A row's emit puts its counts back to
/// zero and the next row's pass clears its bits, so only a checkout pays
/// an O(n) clear — which also wipes a row that a panic left half done.
struct Counts<Z> {
    admitted: BitSet,
    count: Vec<Z>,
}

impl<Z: Copy + Default + Add<Output = Z> + PartialEq> Counts<Z> {
    /// Adds `inc[1]` at `j` if `j` is admitted, else `inc[0]` (zero): a
    /// bit test and an add, no branch.
    #[inline(always)]
    fn add(&mut self, j: usize, inc: &[Z; 2]) {
        let c = &mut self.count[j];
        *c = *c + inc[usize::from(self.admitted.contains(j))];
    }

    /// Appends the nonzero counts at `order`'s positions onto
    /// `idx`/`vals`, in that order, and zeroes them; returns how many.
    fn drain_in_order(
        &mut self,
        order: &[usize],
        idx: &mut Vec<usize>,
        vals: &mut Vec<Z>,
    ) -> usize {
        let before = idx.len();
        for &j in order {
            let c = std::mem::take(&mut self.count[j]);
            if c != Z::default() {
                idx.push(j);
                vals.push(c);
            }
        }
        idx.len() - before
    }
}

impl<Z> Accumulator for Counts<Z> {
    #[inline]
    fn begin_pass(&mut self) {
        self.admitted.begin_pass();
    }

    #[inline]
    fn mark(&mut self, j: usize) {
        self.admitted.insert(j);
    }
}

impl<Z: Copy + Default + 'static> Reusable for Counts<Z> {
    fn fresh() -> Self {
        Counts {
            admitted: BitSet::fresh(),
            count: Vec::new(),
        }
    }

    fn prepare(&mut self, n: usize) {
        self.admitted.prepare(n);
        self.count.clear();
        self.count.resize(n, Z::default());
    }

    fn reusable_bytes(&self) -> u64 {
        self.admitted.reusable_bytes() + (self.count.capacity() * std::mem::size_of::<Z>()) as u64
    }
}

/// The output mask as the row loop sees it: what the accumulator's marks
/// mean, how a row's marks go in, and how a finished row comes out. A
/// type parameter in the `OutputFilter` idiom of `spmv.rs`, so the
/// unmasked product compiles to a loop with no mask test in it.
trait MaskPolicy: Sync {
    const MARKS: Marks;

    /// Stored mask entries (telemetry).
    fn nnz(&self) -> usize;

    /// Marks row `i`'s truthy mask entries in `acc`; returns how many.
    fn mark_row(&self, i: usize, acc: &mut impl Accumulator) -> usize;

    /// A bound on the entries `rows` can produce that costs no pass over
    /// the products — or `None`, and the symbolic pass counts them.
    fn bound(&self, rows: &Range<usize>) -> Option<usize>;

    /// Moves row `i` out of `spa` onto `idx`/`vals`; returns its length.
    fn emit<Z: Clone>(
        &self,
        i: usize,
        spa: &mut Spa<Z>,
        idx: &mut Vec<usize>,
        vals: &mut Vec<Z>,
    ) -> usize;

    /// Whether every emitted row is sorted.
    fn emits_sorted(&self) -> bool;
}

/// `C = A ⊕.⊗ B`.
struct NoMask;

impl MaskPolicy for NoMask {
    const MARKS: Marks = Marks::Ignore;

    fn nnz(&self) -> usize {
        0
    }

    #[inline(always)]
    fn mark_row(&self, _: usize, _: &mut impl Accumulator) -> usize {
        0
    }

    fn bound(&self, _: &Range<usize>) -> Option<usize> {
        None
    }

    fn emit<Z: Clone>(
        &self,
        _: usize,
        spa: &mut Spa<Z>,
        idx: &mut Vec<usize>,
        vals: &mut Vec<Z>,
    ) -> usize {
        spa.append_to(idx, vals)
    }

    fn emits_sorted(&self) -> bool {
        false
    }
}

/// `C⟨M⟩ = A ⊕.⊗ B`, or `C⟨¬M⟩` when `COMPLEMENT`: the entries of `mask`
/// that `pred` holds for are the allowed (forbidden) positions.
struct Masked<'a, M, FP, const COMPLEMENT: bool> {
    mask: &'a Csr<M>,
    pred: FP,
}

impl<M, FP, const COMPLEMENT: bool> MaskPolicy for Masked<'_, M, FP, COMPLEMENT>
where
    M: Sync,
    FP: Fn(&M) -> bool + Sync,
{
    const MARKS: Marks = if COMPLEMENT {
        Marks::Reject
    } else {
        Marks::Admit
    };

    fn nnz(&self) -> usize {
        self.mask.nnz()
    }

    #[inline]
    fn mark_row(&self, i: usize, acc: &mut impl Accumulator) -> usize {
        let (mcols, mvals) = self.mask.row(i);
        let mut marked = 0;
        for (&j, mv) in mcols.iter().zip(mvals) {
            if (self.pred)(mv) {
                acc.mark(j);
                marked += 1;
            }
        }
        marked
    }

    fn bound(&self, rows: &Range<usize>) -> Option<usize> {
        let indptr = self.mask.indptr();
        (!COMPLEMENT).then(|| indptr[rows.end] - indptr[rows.start])
    }

    fn emit<Z: Clone>(
        &self,
        i: usize,
        spa: &mut Spa<Z>,
        idx: &mut Vec<usize>,
        vals: &mut Vec<Z>,
    ) -> usize {
        if self.emits_sorted() {
            // In mask order, which is ascending and free of duplicates.
            spa.append_in_order(self.mask.row(i).0.iter().copied(), idx, vals)
        } else {
            spa.append_to(idx, vals)
        }
    }

    fn emits_sorted(&self) -> bool {
        !COMPLEMENT && self.mask.is_rows_sorted()
    }
}

/// Flop-weighted row ranges for `A · B`, and the prefix sum they were cut
/// from: `flops[i + 1] - flops[i]` is row `i`'s multiply count plus one
/// (which keeps ranges nonempty even for all-empty rows). The per-row
/// counts are gathered in parallel chunks; only the prefix sum is
/// sequential.
fn flop_ranges(ctx: &Context, a: Pattern<'_>, b: Pattern<'_>) -> (Vec<usize>, Vec<Range<usize>>) {
    let nrows = a.nrows();
    let chunks = parallel_map_chunks(ctx, nrows, |rows: Range<usize>| {
        rows.map(|i| {
            let row_flops: usize = a
                .row(i)
                .iter()
                .map(|&k| b.indptr[k + 1] - b.indptr[k])
                .sum();
            row_flops + 1
        })
        .collect::<Vec<usize>>()
    });
    let mut flops = Vec::with_capacity(nrows + 1);
    flops.push(0usize);
    let mut acc = 0usize;
    for (_, counts) in chunks {
        for c in counts {
            acc += c;
            flops.push(acc);
        }
    }
    let total = flops[nrows];
    let k = ctx
        .effective_threads()
        .min(total.div_ceil(ctx.chunk_size()).max(1))
        .min(nrows)
        .max(1);
    let ranges = partition::prefix_balanced_ranges(&flops, k);
    (flops, ranges)
}

/// The Gustavson row loop: for each of `rows`, a fresh accumulator pass
/// with the row's mask marks in it, `flop` on every product position
/// `(j, A(i,k), B(k,j))`, then `row_done`. Every walk of every path — the
/// symbolic count, the numeric fill, the structure count — is this loop.
fn walk_rows<'f, P, FA, FB, S>(
    policy: &P,
    a: &'f FA,
    b: &'f FB,
    rows: Range<usize>,
    acc: &mut S,
    mut flop: impl FnMut(&mut S, usize, FA::Entry<'f>, FB::Entry<'f>),
    mut row_done: impl FnMut(&mut S, usize),
) where
    P: MaskPolicy,
    FA: Factor,
    FB: Factor,
    S: Accumulator,
{
    for i in rows {
        acc.begin_pass();
        // A plain mask with no truthy entry in the row admits nothing.
        if policy.mark_row(i, acc) > 0 || P::MARKS != Marks::Admit {
            for (k, ae) in a.entries(i) {
                for (j, be) in b.entries(k) {
                    flop(acc, j, ae, be);
                }
            }
        }
        row_done(acc, i);
    }
}

/// The driver behind every path: opens the kernel span, cuts `A · B` into
/// flop-balanced row ranges, runs `task(rows, flops)` on each — `flops`
/// is the range's product count, a bound on the entries it can produce —
/// and stitches the rows the tasks emit into `C` (`sorted`: whether every
/// task emits sorted rows).
fn drive<Z, T>(
    ctx: &Context,
    a: Pattern<'_>,
    b: Pattern<'_>,
    mask_nnz: usize,
    sorted: bool,
    task: T,
) -> Csr<Z>
where
    Z: Send,
    T: Fn(Range<usize>, usize) -> RowChunk<Z> + Sync,
{
    assert_eq!(a.ncols, b.nrows(), "spgemm: inner dimension mismatch");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::SpGemm, ctx.id());
    let (m, n) = (a.nrows(), b.ncols);
    if m == 0 || n == 0 || a.nnz() == 0 || b.nnz() == 0 {
        return Csr::empty(m, n);
    }
    let (flops, ranges) = {
        let _ph = graphblas_obs::timeline::phase("spgemm.symbolic");
        flop_ranges(ctx, a, b)
    };
    // Semiring multiplies in `rows`, mask or no mask.
    let flops_in = |rows: &Range<usize>| flops[rows.end] - flops[rows.start] - rows.len();
    if sp.active() {
        let read = a.nnz() + b.nnz() + mask_nnz;
        sp.io(
            flops_in(&(0..m)) as u64,
            read as u64,
            0,
            (read * (std::mem::size_of::<usize>() * 2)) as u64,
        );
    }
    let numeric = graphblas_obs::timeline::phase("spgemm.numeric");
    let chunks = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let flops = flops_in(&rows);
        (rows.clone(), task(rows, flops))
    });
    drop(numeric);
    let (indptr, indices, values) = util::stitch_row_chunks(m, chunks);
    let c = Csr::from_kernel_parts(m, n, indptr, indices, values, sorted);
    if sp.active() {
        sp.io(0, 0, c.nnz() as u64, 0);
    }
    c
}

/// The semiring product of [`spgemm`] and [`spgemm_masked`].
fn multiply<P, A, B, Z, FM, FA>(
    ctx: &Context,
    policy: P,
    a: &Csr<A>,
    b: &Csr<B>,
    mul: FM,
    add: FA,
) -> Csr<Z>
where
    P: MaskPolicy,
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync + 'static,
    FM: Fn(&A, &B) -> Z + Sync,
    FA: Fn(&mut Z, Z) + Sync,
{
    let (mask_nnz, sorted) = (policy.nnz(), policy.emits_sorted());
    let n = b.ncols();
    drive(
        ctx,
        Pattern::of(a),
        Pattern::of(b),
        mask_nnz,
        sorted,
        |rows, flops| {
            let mut spa = workspace::checkout::<Spa<Z>>(n);
            let bound = policy.bound(&rows).map(|by_mask| by_mask.min(flops));
            let entries = bound.unwrap_or_else(|| {
                let _task = graphblas_obs::timeline::phase("spgemm.symbolic.task");
                let mut entries = 0usize;
                let count = |spa: &mut Spa<Z>, j, _: &A, _: &B| {
                    entries += usize::from(spa.visit(j, P::MARKS));
                };
                walk_rows(&policy, a, b, rows.clone(), &mut *spa, count, |_, _| {});
                entries
            });
            let _task = graphblas_obs::timeline::phase("spgemm.numeric.task");
            let mut lens = Vec::with_capacity(rows.len());
            let mut idx = workspace::take_vec(entries);
            let mut vals: Vec<Z> = workspace::take_vec(entries);
            let flop = |spa: &mut Spa<Z>, j, av: &A, bv: &B| {
                spa.upsert(j, P::MARKS, || mul(av, bv), &add);
            };
            let emit = |spa: &mut Spa<Z>, i| lens.push(policy.emit(i, spa, &mut idx, &mut vals));
            walk_rows(&policy, a, b, rows, &mut *spa, flop, emit);
            if bound.is_some() {
                // A bound, not a count: give the slack back.
                idx.shrink_to_fit();
                vals.shrink_to_fit();
            }
            (lens, idx, vals)
        },
    )
}

/// The structure count behind [`spgemm_count`]: generic in `Z` alone.
fn count<Z>(ctx: &Context, mask: &Csr<bool>, a: Pattern<'_>, b: Pattern<'_>, one: Z) -> Csr<Z>
where
    Z: Copy + Default + Add<Output = Z> + PartialEq + Send + Sync + 'static,
{
    let policy = Masked::<_, _, false> {
        mask,
        pred: |&v: &bool| v,
    };
    let inc = [Z::default(), one];
    let sorted = mask.is_rows_sorted();
    drive(ctx, a, b, mask.nnz(), sorted, |rows, flops| {
        let _task = graphblas_obs::timeline::phase("spgemm.numeric.task");
        let mut acc = workspace::checkout::<Counts<Z>>(b.ncols);
        let entries = policy
            .bound(&rows)
            .map_or(flops, |by_mask| by_mask.min(flops));
        let mut lens = Vec::with_capacity(rows.len());
        let mut idx = workspace::take_vec(entries);
        let mut vals: Vec<Z> = workspace::take_vec(entries);
        let flop = |acc: &mut Counts<Z>, j, (), ()| acc.add(j, &inc);
        let emit = |acc: &mut Counts<Z>, i| {
            lens.push(acc.drain_in_order(mask.row(i).0, &mut idx, &mut vals));
        };
        walk_rows(&policy, &a, &b, rows, &mut *acc, flop, emit);
        // A bound, not a count: give the slack back.
        idx.shrink_to_fit();
        vals.shrink_to_fit();
        (lens, idx, vals)
    })
}

/// `C = A ⊕.⊗ B`. `add` accumulates in place (`acc ⊕= z`). Output rows are
/// produced unsorted (`rows_sorted == false`), matching the latitude the
/// import/export spec gives and letting `wait(MATERIALIZE)` carry the cost.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `drive`.
pub fn spgemm<A, B, Z, FM, FA>(ctx: &Context, a: &Csr<A>, b: &Csr<B>, mul: FM, add: FA) -> Csr<Z>
where
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync + 'static,
    FM: Fn(&A, &B) -> Z + Sync,
    FA: Fn(&mut Z, Z) + Sync,
{
    multiply(ctx, NoMask, a, b, mul, add)
}

/// Masked SpGEMM: only positions permitted by the structure of `mask`
/// (filtered by `pred`, complemented when `complement`) are accumulated.
/// Without `complement`, a mask with sorted rows gives a result with
/// sorted rows.
#[allow(clippy::too_many_arguments)] // mirrors the GrB_mxm masked signature
                                     // grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
                                     // opens in `drive`.
pub fn spgemm_masked<M, A, B, Z, FP, FM, FA>(
    ctx: &Context,
    mask: &Csr<M>,
    complement: bool,
    pred: FP,
    a: &Csr<A>,
    b: &Csr<B>,
    mul: FM,
    add: FA,
) -> Csr<Z>
where
    M: Clone + Send + Sync,
    A: Clone + Send + Sync,
    B: Clone + Send + Sync,
    Z: Clone + Send + Sync + 'static,
    FP: Fn(&M) -> bool + Sync,
    FM: Fn(&A, &B) -> Z + Sync,
    FA: Fn(&mut Z, Z) + Sync,
{
    assert_eq!(mask.nrows(), a.nrows(), "spgemm: mask row mismatch");
    assert_eq!(mask.ncols(), b.ncols(), "spgemm: mask column mismatch");
    if complement {
        multiply(ctx, Masked::<_, _, true> { mask, pred }, a, b, mul, add)
    } else {
        multiply(ctx, Masked::<_, _, false> { mask, pred }, a, b, mul, add)
    }
}

/// `C⟨M⟩ = A PLUS.PAIR B` under a plain mask whose `true` entries admit
/// their position: `C(i,j)` counts the `k` with `A(i,k)` and `B(k,j)`
/// stored, where that count is above zero and `M(i,j)` is `true`. The
/// count adds `one` once per product in row-loop order, so it is
/// byte-identical to [`spgemm_masked`] with a PAIR multiply and a PLUS
/// add, floating-point saturation included. `Z::default()` must be zero,
/// as it is for every primitive number type. The operands' values are
/// never read. A mask with sorted rows gives a result with sorted rows.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `drive`.
pub fn spgemm_count<A, B, Z>(
    ctx: &Context,
    mask: &Csr<bool>,
    a: &Csr<A>,
    b: &Csr<B>,
    one: Z,
) -> Csr<Z>
where
    Z: Copy + Default + Add<Output = Z> + PartialEq + Send + Sync + 'static,
{
    assert_eq!(mask.nrows(), a.nrows(), "spgemm: mask row mismatch");
    assert_eq!(mask.ncols(), b.ncols(), "spgemm: mask column mismatch");
    count(ctx, mask, Pattern::of(a), Pattern::of(b), one)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    fn from_tuples(shape: (usize, usize), t: &[(usize, usize, i64)]) -> Csr<i64> {
        crate::coo::Coo::from_parts(
            shape.0,
            shape.1,
            t.iter().map(|x| x.0).collect(),
            t.iter().map(|x| x.1).collect(),
            t.iter().map(|x| x.2).collect(),
        )
        .unwrap()
        .to_csr(&global_context(), None)
        .unwrap()
    }

    fn dense_mm(a: &Csr<i64>, b: &Csr<i64>) -> Vec<(usize, usize, i64)> {
        let mut out = std::collections::BTreeMap::new();
        for (i, k, av) in a.iter() {
            let (bc, bv) = b.row(k);
            for (&j, bvv) in bc.iter().zip(bv) {
                *out.entry((i, j)).or_insert(0) += av * bvv;
            }
        }
        out.into_iter().map(|((i, j), v)| (i, j, v)).collect()
    }

    #[test]
    fn small_known_product() {
        let ctx = global_context();
        let a = from_tuples((2, 3), &[(0, 0, 1), (0, 1, 2), (1, 2, 3)]);
        let b = from_tuples((3, 2), &[(0, 0, 4), (1, 0, 5), (1, 1, 6), (2, 1, 7)]);
        let c = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
        // C = [[1*4 + 2*5, 2*6], [_, 3*7]]
        assert_eq!(
            c.to_sorted_tuples(),
            vec![(0, 0, 14), (0, 1, 12), (1, 1, 21)]
        );
    }

    #[test]
    fn random_against_reference() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..5 {
            let (m, k, n) = (
                rng.gen_range(1..40),
                rng.gen_range(1..40),
                rng.gen_range(1..40),
            );
            let mk = |rows: usize, cols: usize, rng: &mut StdRng| {
                let nnz = rng.gen_range(0..rows * cols / 2 + 1);
                let mut seen = std::collections::HashSet::new();
                let mut t = Vec::new();
                for _ in 0..nnz {
                    let i = rng.gen_range(0..rows);
                    let j = rng.gen_range(0..cols);
                    if seen.insert((i, j)) {
                        t.push((i, j, rng.gen_range(-5..6)));
                    }
                }
                from_tuples((rows, cols), &t)
            };
            let a = mk(m, k, &mut rng);
            let b = mk(k, n, &mut rng);
            let c = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
            c.check().unwrap();
            let reference: Vec<_> = dense_mm(&a, &b);
            assert_eq!(c.to_sorted_tuples(), reference);
        }
    }

    #[test]
    fn masked_equals_filtered_unmasked() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 30;
        let mk = |rng: &mut StdRng| {
            let mut seen = std::collections::HashSet::new();
            let mut t = Vec::new();
            for _ in 0..200 {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                if seen.insert((i, j)) {
                    t.push((i, j, rng.gen_range(1..5)));
                }
            }
            from_tuples((n, n), &t)
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let mask = mk(&mut rng);
        let full = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
        let masked = spgemm_masked(
            &ctx,
            &mask,
            false,
            |_| true,
            &a,
            &b,
            |x, y| x * y,
            |acc, z| *acc += z,
        );
        // Reference: restrict the full product to mask structure.
        let mut sorted_full = full.clone();
        sorted_full.sort_rows(&ctx);
        let expect = crate::ewise::ewise_restrict(&ctx, &sorted_full, &mask, false, |_| true);
        assert_eq!(masked.to_sorted_tuples(), expect.to_sorted_tuples());

        // Complemented mask keeps the rest.
        let masked_c = spgemm_masked(
            &ctx,
            &mask,
            true,
            |_| true,
            &a,
            &b,
            |x, y| x * y,
            |acc, z| *acc += z,
        );
        let expect_c = crate::ewise::ewise_restrict(&ctx, &sorted_full, &mask, true, |_| true);
        assert_eq!(masked_c.to_sorted_tuples(), expect_c.to_sorted_tuples());
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let ctx = global_context();
        let a = Csr::<i64>::empty(0, 3);
        let b = Csr::<i64>::empty(3, 4);
        let c = spgemm(&ctx, &a, &b, |x, y| x * y, |acc, z| *acc += z);
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (0, 4, 0));
        let a2 = from_tuples((2, 2), &[(0, 0, 1)]);
        let b2 = Csr::<i64>::empty(2, 2);
        let c2 = spgemm(&ctx, &a2, &b2, |x, y| x * y, |acc, z| *acc += z);
        assert_eq!(c2.nnz(), 0);
    }

    #[test]
    fn min_plus_semiring_product() {
        let ctx = global_context();
        // Shortest two-hop paths.
        let a = from_tuples((3, 3), &[(0, 1, 2), (0, 2, 10), (1, 2, 3)]);
        let c = spgemm(
            &ctx,
            &a,
            &a,
            |x, y| x + y,
            |acc, z| {
                if z < *acc {
                    *acc = z;
                }
            },
        );
        // 0 -> 1 -> 2 costs 5.
        assert_eq!(c.get(0, 2), Some(&5));
    }
}
