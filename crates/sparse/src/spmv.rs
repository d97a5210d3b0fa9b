//! Sparse matrix-vector products over arbitrary (mul, add) closures.
//!
//! [`spmv`] is the row-parallel *pull* kernel (`GrB_mxv`): each output row
//! is an independent dot product of a CSR row with the (densified) input
//! vector. [`vxm`] is the *push* kernel (`GrB_vxm`): input nonzeros scatter
//! their row of the matrix into per-task accumulators that are then merged
//! — the natural shape for frontier expansion in BFS-like algorithms.
//!
//! The `*_fused` variants take a [`Hooks`] bundle so the caller can fold
//! work into the numeric phase. `pre` transforms (or drops) each *input*
//! entry exactly once as it enters the kernel and `post` transforms each
//! *output* entry as it is emitted — the nonblocking execution DAG folds
//! whole apply/select chains this way, and no intermediate vector is ever
//! materialized. `keep` is the output mask as a kernel *input*: an
//! [`OutputFilter`] over output positions, so a masked product computes
//! only what the write-back will keep — the pull kernel skips forbidden
//! rows before touching them (the bottom-up half of a direction-optimized
//! traversal), the push kernel never scatters into forbidden columns.
//!
//! The pull row loop is written to compile to the loop a user would write
//! by hand for one semiring and one frontier format. Nothing in it is
//! decided per entry at run time: `pull` matches the frontier's format
//! once and instantiates the row loop over that format's lookup; each row's
//! reduction is its own non-inlined function ([`row_dot`]), so the running
//! sum lives in a register instead of in a stack slot the output push
//! clobbers; and the add monoid's early exit is a type ([`Terminal`]) —
//! [`Never`] for the monoids that have none — not an `Option` tested per
//! entry.

use std::ops::Range;

use graphblas_exec::workspace::{self, MarkTable, Marks, Spa};
use graphblas_exec::{parallel_map_ranges, partition, Context};

use crate::bitmap::BitmapVec;
use crate::csr::Csr;
use crate::dvec::DenseVec;
use crate::svec::SparseVec;

/// An element map fused into a kernel's numeric phase:
/// `(index, &value) -> Option<value>`, where `None` drops the entry
/// (select semantics). These are the drained composition of a container's
/// pending `Stage::Map` chain, applied exactly once per touched element.
// grblint: allow(dyn-semiring-in-hot-kernel) — fused maps arrive from the
// type-erased pending queue and run once per touched element (build or
// merge pass), never inside the semiring flop loop.
pub type FusedMap<'a, T> = &'a (dyn Fn(usize, &T) -> Option<T> + Sync);

/// Which output positions — rows for the pull kernel, columns for the
/// push kernel — the caller's write-back will keep. A generic parameter,
/// not an `Option<&dyn Fn>` tested per position: the unmasked instance
/// ([`Unmasked`]) is zero-sized and always true, so an unmasked product
/// compiles to the same loop as a kernel that has no filter at all.
///
/// Filtering is a pure optimization. The caller still applies its full
/// mask × complement × accumulator × replace rule to the result; a filter
/// only has to admit every position that rule can keep.
pub trait OutputFilter: Copy + Sync {
    /// `false` only for [`Unmasked`]; lets a kernel drop the filter's
    /// bookkeeping (telemetry, allowed-position count) at compile time.
    const MASKED: bool = true;

    /// Whether output position `i` may receive an entry.
    fn allows(&self, i: usize) -> bool;

    /// How many of the positions `0..n` are allowed.
    fn allowed(&self, n: usize) -> usize {
        (0..n).filter(|&i| self.allows(i)).count()
    }

    /// The matrix entries in the allowed rows of the pull this filter was
    /// made for, if its maker counted them. Telemetry only: saves the pull
    /// kernel's span a pass over every row.
    fn allowed_entries(&self) -> Option<usize> {
        None
    }
}

/// The [`OutputFilter`] of an unmasked product: every position is kept.
#[derive(Clone, Copy)]
pub struct Unmasked;

impl OutputFilter for Unmasked {
    const MASKED: bool = false;

    #[inline(always)]
    fn allows(&self, _: usize) -> bool {
        true
    }

    fn allowed(&self, n: usize) -> usize {
        n
    }
}

impl<F: Fn(usize) -> bool + Copy + Sync> OutputFilter for F {
    #[inline(always)]
    fn allows(&self, i: usize) -> bool {
        self(i)
    }
}

/// The add monoid's early exit: once a reduction's running value is
/// terminal (the monoid's annihilator) no further operand can change it,
/// so the loop may stop. A generic parameter, like [`OutputFilter`]: a
/// monoid with no terminal passes the zero-sized [`Never`] and its loop has
/// no test in it at all; a terminal given as `Option<F>` (a registry row's
/// fn item, or the dyn path's `&dyn Fn`) is tested per reduced element.
pub trait Terminal<Z>: Copy + Sync {
    /// `true` only for [`Never`]: lets a loop drop the test at compile time.
    const NEVER: bool = false;

    /// Whether `z` is terminal.
    fn reached(&self, z: &Z) -> bool;
}

/// The [`Terminal`] of a monoid with no annihilator: nothing is terminal.
#[derive(Clone, Copy)]
pub struct Never;

impl<Z> Terminal<Z> for Never {
    const NEVER: bool = true;

    #[inline(always)]
    fn reached(&self, _: &Z) -> bool {
        false
    }
}

impl<Z, F: Fn(&Z) -> bool + Copy + Sync> Terminal<Z> for Option<F> {
    #[inline(always)]
    fn reached(&self, z: &Z) -> bool {
        self.as_ref().is_some_and(|t| t(z))
    }
}

/// What a caller fuses into a product kernel's numeric phase (see the
/// module docs): the input-side map, the output-side map, and the output
/// filter. [`Hooks::none`] is the plain kernel.
pub struct Hooks<'a, X, Z, K = Unmasked> {
    /// Rewrites or drops each input-vector entry as it enters the kernel.
    pub pre: Option<FusedMap<'a, X>>,
    /// Rewrites or drops each output entry as it is emitted.
    pub post: Option<FusedMap<'a, Z>>,
    /// The output positions worth computing.
    pub keep: K,
}

impl<X, Z, K: Copy> Clone for Hooks<'_, X, Z, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<X, Z, K: Copy> Copy for Hooks<'_, X, Z, K> {}

impl<X, Z> Hooks<'_, X, Z> {
    /// No fused maps, no filter.
    pub fn none() -> Self {
        Hooks {
            pre: None,
            post: None,
            keep: Unmasked,
        }
    }
}

/// The pull kernel's input vector, in any storage format.
enum PullFrontier<'a, X> {
    Sparse(&'a SparseVec<X>),
    Bitmap(&'a BitmapVec<X>),
    /// Every position present: entry `j` is `values[j]`.
    Full(&'a [X]),
}

/// `y = A ⊕.⊗ x` (pull). Each row's accumulation stops early once
/// `is_terminal` reports the add monoid's annihilator ([`Never`] or
/// `None` when the monoid has none).
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `pull`.
pub fn spmv<A, X, Z, FM, FA, FT>(
    ctx: &Context,
    a: &Csr<A>,
    x: &SparseVec<X>,
    mul: FM,
    add: FA,
    is_terminal: FT,
) -> SparseVec<Z>
where
    A: Clone + Send + Sync,
    X: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
{
    spmv_fused(ctx, a, x, mul, add, is_terminal, Hooks::none())
}

/// [`spmv`] with [`Hooks`]. A sparse frontier is resolved through a
/// position table checked out of the workspace cache; `pre` runs as that
/// table is built (a dropped entry is simply never scattered, so
/// annihilated inputs cost nothing in the row loop). This is the one place
/// that recognises a *sparse-format* vector storing every position as full
/// — callers that know their vector is full hand it to
/// [`spmv_full_fused`] — and indexes it directly.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `pull`.
pub fn spmv_fused<A, X, Z, FM, FA, FT, K>(
    ctx: &Context,
    a: &Csr<A>,
    x: &SparseVec<X>,
    mul: FM,
    add: FA,
    is_terminal: FT,
    hooks: Hooks<'_, X, Z, K>,
) -> SparseVec<Z>
where
    A: Clone + Send + Sync,
    X: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
    K: OutputFilter,
{
    let x = if x.is_full() {
        PullFrontier::Full(x.values())
    } else {
        PullFrontier::Sparse(x)
    };
    pull(ctx, a, x, mul, add, is_terminal, hooks)
}

/// `y = A ⊕.⊗ x` (pull) over a full vector, with [`Hooks`]: the row loop
/// indexes the value array directly — no position table, no bit test. A
/// `pre` chain may drop entries, so with one the rewritten values go
/// through a position table like a sparse frontier's.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `pull`.
pub fn spmv_full_fused<A, X, Z, FM, FA, FT, K>(
    ctx: &Context,
    a: &Csr<A>,
    x: &DenseVec<X>,
    mul: FM,
    add: FA,
    is_terminal: FT,
    hooks: Hooks<'_, X, Z, K>,
) -> SparseVec<Z>
where
    A: Clone + Send + Sync,
    X: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
    K: OutputFilter,
{
    let x = PullFrontier::Full(x.values());
    pull(ctx, a, x, mul, add, is_terminal, hooks)
}

/// `y = A ⊕.⊗ x` (pull) over a bitmap-format frontier. Identical row loop
/// to [`spmv`], but entry lookup is a word-indexed bit test — no
/// densification table needs to be built or checked out.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `pull`.
pub fn spmv_bitmap<A, X, Z, FM, FA, FT>(
    ctx: &Context,
    a: &Csr<A>,
    x: &BitmapVec<X>,
    mul: FM,
    add: FA,
    is_terminal: FT,
) -> SparseVec<Z>
where
    A: Clone + Send + Sync,
    X: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
{
    spmv_bitmap_fused(ctx, a, x, mul, add, is_terminal, Hooks::none())
}

/// [`spmv_bitmap`] with [`Hooks`]. With a `pre` chain the bit-test lookup
/// is replaced by a position table holding the rewritten values (built in
/// one pass over the bitmap, still without materializing an intermediate
/// vector); without one the bitmap is probed directly.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `pull`.
pub fn spmv_bitmap_fused<A, X, Z, FM, FA, FT, K>(
    ctx: &Context,
    a: &Csr<A>,
    x: &BitmapVec<X>,
    mul: FM,
    add: FA,
    is_terminal: FT,
    hooks: Hooks<'_, X, Z, K>,
) -> SparseVec<Z>
where
    A: Clone + Send + Sync,
    X: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
    K: OutputFilter,
{
    pull(
        ctx,
        a,
        PullFrontier::Bitmap(x),
        mul,
        add,
        is_terminal,
        hooks,
    )
}

/// The pull kernel behind every frontier format: opens the span, builds
/// the position table a sparse frontier (or a `pre` chain) needs, and
/// runs the row loop instantiated over the one lookup `x`'s format calls
/// for — a table probe, a bit test, or a direct index.
fn pull<A, X, Z, FM, FA, FT, K>(
    ctx: &Context,
    a: &Csr<A>,
    x: PullFrontier<'_, X>,
    mul: FM,
    add: FA,
    is_terminal: FT,
    hooks: Hooks<'_, X, Z, K>,
) -> SparseVec<Z>
where
    A: Clone + Send + Sync,
    X: Clone + Send + Sync,
    Z: Clone + Send + Sync,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
    K: OutputFilter,
{
    let (n, nnz) = match x {
        PullFrontier::Sparse(s) => (s.len(), s.nnz()),
        PullFrontier::Bitmap(b) => (b.len(), b.nnz()),
        PullFrontier::Full(v) => (v.len(), v.len()),
    };
    assert_eq!(a.ncols(), n, "spmv: dimension mismatch");
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::SpMv, ctx.id());
    let nrows = a.nrows();
    if sp.active() {
        // Under a row filter only the allowed rows' entries are read.
        let visited: usize = if K::MASKED {
            hooks.keep.allowed_entries().unwrap_or_else(|| {
                let allowed = (0..nrows).filter(|&i| hooks.keep.allows(i));
                allowed.map(|i| a.row_nnz(i)).sum()
            })
        } else {
            a.nnz()
        };
        sp.io(
            visited as u64,
            (visited + nnz) as u64,
            0,
            ((visited + nnz) * std::mem::size_of::<usize>()) as u64,
        );
    }
    if nrows == 0 {
        return SparseVec::empty(0);
    }
    let pre = hooks.pre;
    if graphblas_obs::events::on() {
        let path = match x {
            PullFrontier::Bitmap(_) => "bitmap-frontier",
            PullFrontier::Full(_) if pre.is_none() => "dense-frontier",
            _ => "sparse-frontier",
        };
        graphblas_obs::events::decision_kernel_path("spmv", ctx.id(), path, nnz as u64, n as u64);
    }
    // The position table is a generation-stamped checkout from the
    // thread's workspace cache, not a `vec![None; n]` per call. A fused pre
    // map always goes through it, whatever the format: the map may drop or
    // rewrite entries, so it is applied once per entry at scatter time and
    // entries it drops are never marked — the row loop skips them for free.
    let mut fused_vals: Vec<X> = Vec::new();
    let table: Option<(workspace::Checkout<MarkTable>, &[X])> = match (pre, &x) {
        (Some(f), _) => {
            let mut t = workspace::checkout::<MarkTable>(n);
            fused_vals.reserve(nnz);
            let mut scatter = |(j, v): (usize, &X)| {
                if let Some(fv) = f(j, v) {
                    t.set(j, fused_vals.len());
                    fused_vals.push(fv);
                }
            };
            match x {
                PullFrontier::Sparse(s) => s.iter().for_each(&mut scatter),
                PullFrontier::Bitmap(b) => b.iter().for_each(&mut scatter),
                PullFrontier::Full(v) => v.iter().enumerate().for_each(&mut scatter),
            }
            Some((t, &fused_vals[..]))
        }
        (None, PullFrontier::Sparse(s)) => {
            let mut t = workspace::checkout::<MarkTable>(n);
            for (p, &j) in s.indices().iter().enumerate() {
                t.set(j, p);
            }
            Some((t, s.values()))
        }
        (None, _) => None,
    };
    // One instantiation of the row loop per lookup, chosen here once per
    // call rather than per entry inside it.
    let (mul, add) = (&mul, &add);
    let y = match (&table, x) {
        (Some((t, vals)), _) => {
            let (t, vals): (&MarkTable, &[X]) = (t, vals);
            spmv_rows(
                ctx,
                a,
                |j| t.get(j).map(|p| &vals[p]),
                mul,
                add,
                is_terminal,
                hooks,
            )
        }
        (None, PullFrontier::Bitmap(b)) => {
            spmv_rows(ctx, a, |j| b.get(j), mul, add, is_terminal, hooks)
        }
        (None, PullFrontier::Full(v)) => {
            spmv_rows(ctx, a, |j| Some(&v[j]), mul, add, is_terminal, hooks)
        }
        (None, PullFrontier::Sparse(_)) => unreachable!("a sparse frontier always gets a table"),
    };
    if sp.active() {
        sp.io(0, 0, y.nnz() as u64, 0);
    }
    y
}

/// The one pull row loop: nnz-balanced row ranges, per-row dot product
/// ([`row_dot`]), concatenated sorted assembly. Rows `hooks.keep` forbids
/// are skipped before their matrix row is touched; `hooks.post` rewrites
/// (or drops) each row's accumulated value before it is pushed into the
/// output chunk.
fn spmv_rows<'x, A, X, Z, L, FM, FA, FT, K>(
    ctx: &Context,
    a: &Csr<A>,
    lookup: L,
    mul: &FM,
    add: &FA,
    is_terminal: FT,
    hooks: Hooks<'_, X, Z, K>,
) -> SparseVec<Z>
where
    A: Clone + Send + Sync,
    X: Clone + Send + Sync + 'x,
    Z: Clone + Send + Sync,
    L: Fn(usize) -> Option<&'x X> + Sync,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
    K: OutputFilter,
{
    let nrows = a.nrows();
    let Hooks { post, keep, .. } = hooks;
    let allowed = keep.allowed(nrows);
    if K::MASKED && graphblas_obs::events::on() {
        graphblas_obs::events::decision_kernel_path(
            "spmv",
            ctx.id(),
            "masked-pull",
            allowed as u64,
            nrows as u64,
        );
    }
    let k = ctx
        .effective_threads()
        .min(a.nnz().max(1).div_ceil(ctx.chunk_size()).max(1))
        .min(nrows)
        .max(1);
    let ranges = partition::prefix_balanced_ranges(a.indptr(), k);
    let pull = graphblas_obs::timeline::phase("mxv.pull");
    let chunks: Vec<(Vec<usize>, Vec<Z>)> = parallel_map_ranges(ranges, |rows: Range<usize>| {
        let _task = graphblas_obs::timeline::phase("mxv.pull.task");
        // A task emits at most one entry per allowed row it owns.
        let cap = rows.len().min(allowed);
        let mut idx = Vec::with_capacity(cap);
        let mut vals = Vec::with_capacity(cap);
        for i in rows {
            if !keep.allows(i) {
                continue;
            }
            let (cols, avs) = a.row(i);
            let acc = row_dot(cols, avs, &lookup, mul, add, is_terminal);
            let acc = match (acc, post) {
                (Some(v), Some(p)) => p(i, &v),
                (acc, _) => acc,
            };
            if let Some(v) = acc {
                idx.push(i);
                vals.push(v);
            }
        }
        (idx, vals)
    });
    drop(pull);
    // The first chunk becomes the result in place; the reserve above must
    // not outlive the call as slack capacity in a stored vector.
    let mut chunks = chunks.into_iter();
    let (mut indices, mut values) = chunks.next().unwrap_or_default();
    for (idx, vals) in chunks {
        indices.extend(idx);
        values.extend(vals);
    }
    indices.shrink_to_fit();
    values.shrink_to_fit();
    SparseVec::from_kernel_parts(nrows, indices, values, true)
}

/// One row's `⊕` over `mul(a_ij, x_j)` for the columns `lookup` finds in
/// `x`; `None` when it finds none. Stops at the first terminal value.
///
/// Never inlined: in its own frame the running sum is a local the
/// optimizer keeps in a register. Inlined into the row loop it had to
/// survive the output `Vec::push`'s grow call and was spilled to the stack
/// and reloaded on every entry, which cost more than the loop's loads.
#[inline(never)]
fn row_dot<'x, A, X, Z, L, FM, FA, FT>(
    cols: &[usize],
    avs: &[A],
    lookup: &L,
    mul: &FM,
    add: &FA,
    is_terminal: FT,
) -> Option<Z>
where
    X: 'x,
    L: Fn(usize) -> Option<&'x X>,
    FM: Fn(&A, &X) -> Z,
    FA: Fn(Z, Z) -> Z,
    FT: Terminal<Z>,
{
    let mut entries = cols.iter().zip(avs);
    // The first product found seeds the sum, so the fold below carries a
    // plain `Z`, not an `Option<Z>` re-tested per entry.
    let mut acc = entries.find_map(|(&j, av)| lookup(j).map(|xv| mul(av, xv)))?;
    if FT::NEVER || !is_terminal.reached(&acc) {
        for (&j, av) in entries {
            if let Some(xv) = lookup(j) {
                acc = add(acc, mul(av, xv));
                if !FT::NEVER && is_terminal.reached(&acc) {
                    break;
                }
            }
        }
    }
    Some(acc)
}

/// `yᵀ = xᵀ ⊕.⊗ A` (push). Each task scatters a chunk of `x`'s nonzeros
/// through their matrix rows into a dense accumulator; per-task partial
/// results are then union-merged with the add operator.
// grblint: allow(span-at-kernel-boundary) — thin forwarder; the span
// opens in `vxm_fused`.
pub fn vxm<X, A, Z, FM, FA>(
    ctx: &Context,
    x: &SparseVec<X>,
    a: &Csr<A>,
    mul: FM,
    add: FA,
) -> SparseVec<Z>
where
    X: Clone + Send + Sync,
    A: Clone + Send + Sync,
    Z: Clone + Send + Sync + 'static,
    FM: Fn(&X, &A) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
{
    vxm_fused(ctx, x, a, mul, add, Hooks::none())
}

/// [`vxm`] with [`Hooks`]. `pre` rewrites each frontier entry once as it
/// is read (a dropped entry never scatters its matrix row); `post`
/// rewrites each merged output entry; `keep` — typically a mask bitset
/// test — stops forbidden columns from ever entering the accumulators, so
/// a masked `vxm` does not pay for entries the merge would discard.
pub fn vxm_fused<X, A, Z, FM, FA, K>(
    ctx: &Context,
    x: &SparseVec<X>,
    a: &Csr<A>,
    mul: FM,
    add: FA,
    hooks: Hooks<'_, X, Z, K>,
) -> SparseVec<Z>
where
    X: Clone + Send + Sync,
    A: Clone + Send + Sync,
    Z: Clone + Send + Sync + 'static,
    FM: Fn(&X, &A) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    K: OutputFilter,
{
    assert_eq!(a.nrows(), x.len(), "vxm: dimension mismatch");
    let Hooks { pre, post, keep } = hooks;
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::VxM, ctx.id());
    let ncols = a.ncols();
    let nnz = x.nnz();
    if nnz == 0 || ncols == 0 {
        return SparseVec::empty(ncols);
    }
    if sp.active() {
        let flops: u64 = x.iter().map(|(i, _)| a.row_nnz(i) as u64).sum();
        sp.io(
            flops,
            (a.nnz() + nnz) as u64,
            0,
            ((a.nnz() + nnz) * std::mem::size_of::<usize>()) as u64,
        );
    }
    if K::MASKED && graphblas_obs::events::on() {
        graphblas_obs::events::decision_kernel_path(
            "vxm",
            ctx.id(),
            "masked-scatter",
            nnz as u64,
            ncols as u64,
        );
    }
    // Weight chunks of x's nonzeros by the matrix rows they touch.
    let weights: Vec<usize> = {
        let mut w = Vec::with_capacity(nnz + 1);
        w.push(0usize);
        let mut acc = 0usize;
        for (i, _) in x.iter() {
            acc += a.row_nnz(i).max(1);
            w.push(acc);
        }
        w
    };
    let k = ctx
        .effective_threads()
        .min(weights[nnz].div_ceil(ctx.chunk_size()).max(1))
        .min(nnz)
        .max(1);
    let ranges = partition::prefix_balanced_ranges(&weights, k);
    let xi = x.indices();
    let xv = x.values();
    let push = graphblas_obs::timeline::phase("mxv.push");
    let partials: Vec<SparseVec<Z>> = parallel_map_ranges(ranges, |entries: Range<usize>| {
        let _task = graphblas_obs::timeline::phase("mxv.push.task");
        let mut acc = workspace::checkout::<Spa<Z>>(ncols);
        for e in entries {
            let i = xi[e];
            let owned;
            let xval: &X = match pre {
                Some(f) => match f(i, &xv[e]) {
                    Some(v) => {
                        owned = v;
                        &owned
                    }
                    None => continue,
                },
                None => &xv[e],
            };
            let (cols, avs) = a.row(i);
            for (&j, av) in cols.iter().zip(avs) {
                if !keep.allows(j) {
                    continue;
                }
                acc.upsert(
                    j,
                    Marks::Ignore,
                    || mul(xval, av),
                    |cur, z| *cur = add(cur.clone(), z),
                );
            }
        }
        let mut idx = Vec::with_capacity(acc.len());
        let mut values = Vec::with_capacity(acc.len());
        acc.append_sorted(&mut idx, &mut values);
        SparseVec::from_kernel_parts(ncols, idx, values, true)
    });
    drop(push);
    let _merge = graphblas_obs::timeline::phase("mxv.merge");
    let merged = crate::ewise::svec_kmerge(ctx, partials, |a, b| add(a.clone(), b.clone()));
    let y = match post {
        Some(p) => merged.filter_map_with_index(|j, v| p(j, v)),
        None => merged,
    };
    if sp.active() {
        sp.io(0, 0, y.nnz() as u64, 0);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    fn matrix() -> Csr<i64> {
        // [[1, _, 2],
        //  [_, 3, _],
        //  [4, _, 5]]
        Csr::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1, 2, 3, 4, 5],
        )
        .unwrap()
    }

    #[test]
    fn spmv_dense_input() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![0, 1, 2], vec![1i64, 1, 1]).unwrap();
        let y = spmv(&ctx, &a, &x, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        assert_eq!(y.to_sorted_tuples(), vec![(0, 3), (1, 3), (2, 9)]);
    }

    #[test]
    fn spmv_sparse_input_skips_missing() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![2], vec![10i64]).unwrap();
        let y = spmv(&ctx, &a, &x, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        assert_eq!(y.to_sorted_tuples(), vec![(0, 20), (2, 50)]);
    }

    #[test]
    fn spmv_empty_vector_gives_empty_result() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::<i64>::empty(3);
        let y = spmv(&ctx, &a, &x, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        assert_eq!(y.nnz(), 0);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn spmv_bitmap_matches_sparse_frontier() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![0, 2], vec![10i64, 20]).unwrap();
        let xb = BitmapVec::from_svec(&x);
        let sparse = spmv(&ctx, &a, &x, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        let bitmap =
            spmv_bitmap(&ctx, &a, &xb, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        assert_eq!(bitmap.to_sorted_tuples(), sparse.to_sorted_tuples());
    }

    #[test]
    fn vxm_matches_transposed_spmv() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![0, 2], vec![1i64, 2]).unwrap();
        let push = vxm(&ctx, &x, &a, |x, a| x * a, |p, q| p + q);
        let at = crate::transpose::transpose(&ctx, &a);
        let pull = spmv(&ctx, &at, &x, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        assert_eq!(push.to_sorted_tuples(), pull.to_sorted_tuples());
    }

    #[test]
    fn vxm_min_plus_semiring() {
        let ctx = global_context();
        // Path graph weights: 0 -> 1 (7), 1 -> 2 (2)
        let a = Csr::from_parts(3, 3, vec![0, 1, 2, 2], vec![1, 2], vec![7i64, 2]).unwrap();
        let x = SparseVec::from_parts(3, vec![0], vec![0i64]).unwrap();
        let step1 = vxm(&ctx, &x, &a, |d, w| d + w, |p, q| p.min(q));
        assert_eq!(step1.to_sorted_tuples(), vec![(1, 7)]);
        let step2 = vxm(&ctx, &step1, &a, |d, w| d + w, |p, q| p.min(q));
        assert_eq!(step2.to_sorted_tuples(), vec![(2, 9)]);
    }

    #[test]
    fn spmv_terminal_early_exit_is_correct() {
        let ctx = global_context();
        // Boolean OR.AND semiring: once a row's accumulator is true it
        // cannot change; results must match the non-terminal run.
        let a = Csr::from_parts(
            2,
            4,
            vec![0, 4, 6],
            vec![0, 1, 2, 3, 1, 3],
            vec![true, true, true, true, false, false],
        )
        .unwrap();
        let x = SparseVec::from_parts(4, vec![0, 1, 2, 3], vec![true; 4]).unwrap();
        let and = |a: &bool, b: &bool| *a && *b;
        let or = |p: bool, q: bool| p || q;
        let with_t = spmv(&ctx, &a, &x, and, or, Some(&|z: &bool| *z));
        let without = spmv(&ctx, &a, &x, and, or, None::<fn(&bool) -> bool>);
        assert_eq!(with_t.to_sorted_tuples(), without.to_sorted_tuples());
        assert_eq!(with_t.get(0), Some(&true));
        assert_eq!(with_t.get(1), Some(&false));
    }

    #[test]
    fn spmv_fused_pre_post_match_materialized() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![0, 1, 2], vec![1i64, 2, 3]).unwrap();
        // pre: double and drop entries > 4; post: +1 and drop odd rows.
        let pre = |_j: usize, v: &i64| -> Option<i64> {
            let d = v * 2;
            (d <= 4).then_some(d)
        };
        let post = |i: usize, v: &i64| -> Option<i64> { i.is_multiple_of(2).then_some(v + 1) };
        let xm = x.filter_map_with_index(pre);
        let expect = spmv(&ctx, &a, &xm, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>)
            .filter_map_with_index(post);
        let fused = spmv_fused(
            &ctx,
            &a,
            &x,
            |a, x| a * x,
            |p, q| p + q,
            None::<fn(&i64) -> bool>,
            Hooks {
                pre: Some(&pre),
                post: Some(&post),
                ..Hooks::none()
            },
        );
        assert_eq!(fused.to_sorted_tuples(), expect.to_sorted_tuples());
    }

    #[test]
    fn spmv_bitmap_fused_matches_sparse_fused() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![0, 2], vec![10i64, 20]).unwrap();
        let xb = BitmapVec::from_svec(&x);
        let pre = |_j: usize, v: &i64| -> Option<i64> { (*v < 15).then_some(v + 1) };
        let sparse = spmv_fused(
            &ctx,
            &a,
            &x,
            |a, x| a * x,
            |p, q| p + q,
            None::<fn(&i64) -> bool>,
            Hooks {
                pre: Some(&pre),
                ..Hooks::none()
            },
        );
        let bitmap = spmv_bitmap_fused(
            &ctx,
            &a,
            &xb,
            |a, x| a * x,
            |p, q| p + q,
            None::<fn(&i64) -> bool>,
            Hooks {
                pre: Some(&pre),
                ..Hooks::none()
            },
        );
        assert_eq!(bitmap.to_sorted_tuples(), sparse.to_sorted_tuples());
    }

    #[test]
    fn vxm_fused_pre_post_match_materialized() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![0, 1, 2], vec![1i64, 2, 3]).unwrap();
        let pre = |_j: usize, v: &i64| -> Option<i64> { (*v != 2).then_some(v * 10) };
        let post = |_j: usize, v: &i64| -> Option<i64> { (*v > 40).then_some(*v) };
        let xm = x.filter_map_with_index(pre);
        let expect = vxm(&ctx, &xm, &a, |x, a| x * a, |p, q| p + q)
            .filter_map_with_index(post);
        let fused = vxm_fused(
            &ctx,
            &x,
            &a,
            |x, a| x * a,
            |p, q| p + q,
            Hooks {
                pre: Some(&pre),
                post: Some(&post),
                ..Hooks::none()
            },
        );
        assert_eq!(fused.to_sorted_tuples(), expect.to_sorted_tuples());
    }

    #[test]
    fn vxm_masked_scatter_prefilters_columns() {
        let ctx = global_context();
        let a = matrix();
        let x = SparseVec::from_parts(3, vec![0, 2], vec![1i64, 2]).unwrap();
        let full = vxm(&ctx, &x, &a, |x, a| x * a, |p, q| p + q);
        // Only even columns allowed: the masked run must equal the full
        // run restricted to those columns.
        let masked = vxm_fused(
            &ctx,
            &x,
            &a,
            |x, a| x * a,
            |p, q| p + q,
            Hooks {
                pre: None,
                post: None,
                keep: |j: usize| j.is_multiple_of(2),
            },
        );
        let expect: Vec<(usize, i64)> = full
            .to_sorted_tuples()
            .into_iter()
            .filter(|(j, _)| j % 2 == 0)
            .collect();
        assert_eq!(masked.to_sorted_tuples(), expect);
    }

    #[test]
    fn filtered_pull_is_unfiltered_pull_restricted_to_allowed_rows() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(15);
        let (m, n) = (90, 70);
        let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..900 {
            rows.push(rng.gen_range(0..m));
            cols.push(rng.gen_range(0..n));
            vals.push(rng.gen_range(0..3i64) > 0);
        }
        let a = crate::coo::Coo::from_parts(m, n, rows, cols, vals)
            .unwrap()
            .to_csr(&ctx, Some(&|a: &bool, b: &bool| *a || *b))
            .unwrap();
        let keep = |i: usize| i % 3 != 1;
        let and = |a: &bool, x: &bool| *a && *x;
        let or = |p: bool, q: bool| p || q;
        let hooks = Hooks {
            pre: None,
            post: None,
            keep,
        };
        // Every third column (table lookup) and every column (dense lookup).
        for stride in [3, 1] {
            let xi: Vec<usize> = (0..n).step_by(stride).collect();
            let xv: Vec<bool> = xi.iter().map(|j| j % 5 != 0).collect();
            let x = SparseVec::from_parts(n, xi, xv).unwrap();
            let xb = BitmapVec::from_svec(&x);
            for terminal in [None, Some(|z: &bool| *z)] {
                let full = spmv(&ctx, &a, &x, and, or, terminal);
                let expect: Vec<(usize, bool)> = full
                    .to_sorted_tuples()
                    .into_iter()
                    .filter(|&(i, _)| keep(i))
                    .collect();
                assert!(expect.len() < full.nnz(), "the filter must drop something");
                let sparse = spmv_fused(&ctx, &a, &x, and, or, terminal, hooks);
                assert_eq!(sparse.to_sorted_tuples(), expect, "stride {stride}");
                let bitmap = spmv_bitmap_fused(&ctx, &a, &xb, and, or, terminal, hooks);
                assert_eq!(bitmap.to_sorted_tuples(), expect, "stride {stride} bitmap");
            }
        }
    }

    #[test]
    fn large_random_agreement_between_push_and_pull() {
        use graphblas_exec::rng::prelude::*;
        let ctx = global_context();
        let mut rng = StdRng::seed_from_u64(11);
        let (m, n) = (200, 150);
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..2000 {
            rows.push(rng.gen_range(0..m));
            cols.push(rng.gen_range(0..n));
            vals.push(rng.gen_range(1..10i64));
        }
        let a = crate::coo::Coo::from_parts(m, n, rows, cols, vals)
            .unwrap()
            .to_csr(&ctx, Some(&|a: &i64, b: &i64| a + b))
            .unwrap();
        let xi: Vec<usize> = (0..m).filter(|i| i % 3 == 0).collect();
        let xv: Vec<i64> = xi.iter().map(|&i| (i % 7 + 1) as i64).collect();
        let x = SparseVec::from_parts(m, xi, xv).unwrap();
        let push = vxm(&ctx, &x, &a, |x, a| x * a, |p, q| p + q);
        let at = crate::transpose::transpose(&ctx, &a);
        let pull = spmv(&ctx, &at, &x, |a, x| a * x, |p, q| p + q, None::<fn(&i64) -> bool>);
        assert_eq!(push.to_sorted_tuples(), pull.to_sorted_tuples());
    }
}
