//! `GrB_mxv` / `GrB_vxm`: matrix-vector products over a semiring, with
//! direction-optimizing dispatch.
//!
//! Both entry points choose between the *push* kernel (scatter the rows of
//! the input's nonzeros) and the row-parallel *pull* kernel (dot products
//! of the admitted rows against the whole frontier) by what each would
//! touch — direction by edges, Ligra's rule, with the output mask counted
//! on the pull side (`choose_direction`). The estimate reads three
//! things, all at call time and after the mask snapshot: the matrix entries
//! the frontier carries in the push orientation, the rows the mask admits
//! and their entries in the pull orientation (one pass over the mask's
//! bits), and whether one product can end a pulled row (the boolean
//! LOR/LAND and ANY monoids — `MIN` declares a terminal no product ever
//! is, and gets no discount). Its three weights (`PUSH_EDGE`, `FLOP`,
//! `BUILD_ENTRY`) were fitted to per-level forced-push / forced-pull
//! timings; EXPERIMENTS.md, "Direction by edges, masks as bitsets", has
//! the table.
//!
//! The kernel that needs the matrix in the "other" orientation runs on the
//! memoized transpose (`MatrixState::transpose_cache`), so iterative
//! algorithms pay for `Aᵀ` at most once per matrix version — the §III
//! completion latitude CombBLAS 2.0 identifies as the biggest lever for
//! frontier algorithms. Nothing is built to *estimate*: an orientation
//! that is neither stored nor memoised is priced from `nnz(A) / n` per
//! vertex. Whether it is built to be *used* is rent-or-buy
//! (`Matrix::snapshot_oriented`): the savings a matrix version's products
//! forgo by running on the stored orientation add up, and the transpose is
//! built when they reach what building it costs. A matrix rewritten between
//! a handful of products never pays for one; a traversal that keeps wanting
//! one loses at most one build's worth of time before it has it. (Doing
//! without must cost no more than time: a full frontier is never converted
//! to an index list for want of a transpose, so `vxm` over a full vector
//! builds `Aᵀ` at once.)
//!
//! The output mask is an input of the kernels, not only of the write-back
//! (*mask-first execution*): `C⟨M, r⟩ = C ⊙ T` only ever reads the part of
//! `T` the mask admits, and the spec's completion latitude lets an
//! implementation compute just that part. The mask's snapshot *is* a bitset
//! of its truthy positions (`write::VecMask`), built once per call from
//! whichever store holds the mask; the estimate, both kernels (through
//! `MaskFilter`) and the write rule read those same bits. Push never
//! scatters into a forbidden column, and pull skips a forbidden row before
//! touching it — under BFS's complemented `visited` mask that is the
//! bottom-up half of direction optimization, where only the unvisited
//! vertices look for a parent. The filter is deliberately coarse (truthy
//! set × complement only); the write-back's `merge_vector` still runs on
//! the result because it alone implements accumulate, replace and the
//! deletion of old entries inside the mask, and re-applying the mask there
//! is idempotent.

use std::sync::atomic::{AtomicU8, Ordering};

use graphblas_exec::Context;
use graphblas_sparse::spmv::{Hooks, OutputFilter, Unmasked};
use graphblas_sparse::{Csr, DenseVec, SparseVec};

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, Accum, Op};
use crate::ops::registry::{self, Operand};
use crate::ops::{BinaryOp, BuiltinOp, Monoid, Semiring};
use crate::pending::{fuse_maps, NodeKind};
use crate::types::{MaskValue, ValueType};
use crate::vector::{VecSnap, Vector, VectorState};
use crate::write::VecMask;

/// Which matrix-vector kernel a product dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Scatter the input's nonzeros through their matrix rows (good for
    /// frontiers that carry few edges).
    Push,
    /// Per-output-row dot products against the input (good for frontiers
    /// that carry many; supports the add monoid's terminal early exit).
    Pull,
}

// 0 = automatic estimate, 1 = forced push, 2 = forced pull.
static FORCE_DIRECTION: AtomicU8 = AtomicU8::new(0);

/// Overrides the push/pull estimate for every subsequent `mxv`/`vxm`
/// (`None` restores automatic selection). Both directions compute the
/// same result — this is the ablation/testing knob for exercising a
/// specific kernel on a given graph.
pub fn force_direction(d: Option<Direction>) {
    let v = match d {
        None => 0,
        Some(Direction::Push) => 1,
        Some(Direction::Pull) => 2,
    };
    FORCE_DIRECTION.store(v, Ordering::SeqCst);
}

// The estimate's three prices, in units of one matrix entry streamed past
// the pull kernel's frontier lookup (≈ 1.3 ns on the box that measured
// them). They are least-squares fits to the per-level forced-push and
// forced-pull times of 48 scale-16 RMAT traversals, tabulated in
// EXPERIMENTS.md, "Direction by edges, masks as bitsets".

/// One edge the push kernel walks, whatever the mask says of its column:
/// the entry read from a row that starts somewhere new, and the bit test.
const PUSH_EDGE: u64 = 3;
/// One unit of real work in either kernel: a product formed and folded
/// into an accumulator (a random upsert for push, an operator call for
/// pull), or one admitted row of a pull opened and its result emitted.
const FLOP: u64 = 12;
/// One stored entry of `A` transposed (≈ 16 ns): the exchange rate between
/// a saving and the build it would pay for.
const BUILD_ENTRY: u64 = 12;

/// What one product looks like to the direction estimate.
struct Shape<'a, A, X: ValueType> {
    u: &'a VecSnap<X>,
    mask: Option<&'a VecMask>,
    /// Length of the output — rows of the orientation pull reads.
    m: usize,
    /// Whether one product can be the add monoid's terminal value, so that
    /// a pulled row stops at the first frontier entry it meets.
    first_hit_ends_row: bool,
    /// The orientation each direction reads, where it exists without being
    /// built.
    push_a: Option<&'a Csr<A>>,
    pull_a: Option<&'a Csr<A>>,
    nnz_a: usize,
    /// The direction that reads the stored orientation.
    stored: Direction,
}

/// What the estimate decided and on what grounds.
struct Pick {
    dir: Direction,
    /// The decision event's detail: which rule decided.
    why: &'static str,
    /// The event's numbers: `[frontier_nnz, frontier_edges, admitted_edges]`.
    seen: [u64; 3],
    /// What `dir` saves over the other direction, as stored entries' worth
    /// of building a transpose — `u64::MAX` where doing without `dir` is
    /// not an option.
    worth: u64,
    /// Where the estimate counted them exactly: the entries of the rows the
    /// mask admits, for the pull kernel's span.
    admitted_entries: Option<usize>,
}

/// Direction by edges (Ligra's rule, with the output mask on both sides).
/// With `E` the edges the frontier carries in the push orientation, `R` and
/// `N` the rows the mask admits and their entries in the pull orientation,
/// and `F = E · N / nnz(A)` the products between the two sets:
///
/// * push walks `E` edges and lands `F` products;
/// * pull opens `R` rows, streams their `N` entries and folds `F` products
///   — or, where a row ends at its first hit, streams each row only until
///   it meets one (every `nnz(A) / E` entries) and folds at most one — a
///   fold costing as much as push's when the frontier is an index list
///   behind a position table, a quarter of that when it is indexed directly.
///
/// A direction whose orientation of `A` is neither stored nor memoised is
/// priced from `nnz(A) / n` per vertex — nothing is built to be priced;
/// whether it is built to be *used* is [`Matrix::snapshot_oriented`]'s
/// rent-or-buy rule, fed by [`Pick::worth`]. An empty frontier takes the
/// stored orientation.
fn choose_direction<A, X: ValueType>(p: &Shape<'_, A, X>) -> Pick {
    let (nnz_u, nnz_a) = (p.u.nnz() as u64, p.nnz_a as u64);
    let mut pick = Pick {
        dir: p.stored,
        why: "empty-frontier",
        seen: [nnz_u, 0, 0],
        worth: u64::MAX,
        admitted_entries: None,
    };
    match FORCE_DIRECTION.load(Ordering::SeqCst) {
        0 if nnz_u == 0 => return pick,
        0 => {}
        forced => {
            pick.dir = if forced == 1 { Direction::Push } else { Direction::Pull };
            pick.why = "forced";
            return pick;
        }
    }
    let listed = matches!(p.u, VecSnap::Sparse(_));
    // Doing without the cheaper direction must cost no more than time: a
    // push takes the frontier as an index list only, and a full one is not
    // turned into one for want of a transpose.
    let worth = |saving: u64| {
        if listed || p.stored == Direction::Pull {
            saving / BUILD_ENTRY
        } else {
            u64::MAX
        }
    };
    let edges = match p.push_a {
        Some(a) => frontier_entries(p.u, a) as u64,
        None => scaled(nnz_u, nnz_a, p.u.view().len() as u64),
    };
    pick.seen[1] = edges;
    // Push walks an index list: a full frontier is converted to one first,
    // an entry at a time.
    let convert = if listed { 0 } else { nnz_u };
    let walk = PUSH_EDGE * (edges + convert);
    let rows = p.mask.map_or(p.m, |k| k.admitted(p.m)) as u64;
    if walk + FLOP * edges <= FLOP * rows {
        // Every edge landing a product is still cheaper than opening the
        // admitted rows, whatever they hold.
        pick.dir = Direction::Push;
        pick.why = "under-row-scan";
        pick.worth = worth(FLOP * rows - (walk + FLOP * edges));
        return pick;
    }
    let admitted = match (p.mask, p.pull_a) {
        (None, _) => nnz_a,
        (Some(k), Some(a)) => {
            let under: usize = k.bits.iter().map(|i| a.row_nnz(i)).sum();
            let admitted = if k.complement { p.nnz_a - under } else { under };
            pick.admitted_entries = Some(admitted);
            admitted as u64
        }
        (Some(_), None) => scaled(rows, nnz_a, p.m as u64),
    };
    pick.seen[2] = admitted;
    let products = scaled(edges, admitted, nnz_a.max(1));
    let push = walk + FLOP * products;
    // A pulled product finds its frontier entry through the position table
    // (two dependent loads), or by indexing a full one directly.
    let fold = if listed { FLOP } else { PUSH_EDGE };
    let pull = if p.first_hit_ends_row {
        let read = admitted.min(scaled(rows, nnz_a, edges.max(1)));
        FLOP * rows + read + fold * products.min(rows)
    } else {
        FLOP * rows + admitted + fold * products
    };
    pick.why = "estimate";
    pick.dir = match pull.cmp(&push) {
        std::cmp::Ordering::Less => Direction::Pull,
        std::cmp::Ordering::Greater => Direction::Push,
        std::cmp::Ordering::Equal => p.stored,
    };
    pick.worth = worth(pull.abs_diff(push));
    pick
}

/// `count * num / den`, wide enough for any vertex count times any edge
/// count.
fn scaled(count: u64, num: u64, den: u64) -> u64 {
    (count as u128 * num as u128 / den as u128) as u64
}

/// The stored entries of `a` in the rows `u` holds: the edges a push of
/// `u` through `a` scatters.
fn frontier_entries<A, X: ValueType>(u: &VecSnap<X>, a: &Csr<A>) -> usize {
    match u {
        VecSnap::Sparse(s) => s.indices().iter().map(|&i| a.row_nnz(i)).sum(),
        VecSnap::Full(_) => a.nnz(),
    }
}

/// A full frontier as the index list the push kernel iterates, charging
/// the conversion to the format counters.
fn frontier_for<X: ValueType>(op: &'static str, ctx_id: u64, d: &DenseVec<X>) -> SparseVec<X> {
    let sparse = d.to_sparse();
    if graphblas_obs::enabled() {
        graphblas_obs::counters::record_format_conversion();
        graphblas_obs::events::decision_convert_sparse(op, ctx_id, "dense", sparse.nnz() as u64);
    }
    sparse
}

/// The output mask as the kernels' [`OutputFilter`]: the snapshot's bitset
/// of truthy positions, consulted as `truthy != complement`. The pull
/// kernel skips the rows it forbids, the push kernel the columns, so
/// neither direction computes entries the write-back would discard.
/// Prefiltering is a pure optimization — the write-back still applies the
/// mask (with accum and replace) afterwards and the intersection is
/// idempotent.
#[derive(Clone, Copy)]
struct MaskFilter<'a> {
    mask: &'a VecMask,
    /// The matrix entries in the rows this admits, where the direction
    /// estimate counted them.
    entries: Option<usize>,
}

impl OutputFilter for MaskFilter<'_> {
    #[inline]
    fn allows(&self, i: usize) -> bool {
        self.mask.bits.contains(i) != self.mask.complement
    }

    fn allowed(&self, n: usize) -> usize {
        self.mask.admitted(n)
    }

    fn allowed_entries(&self) -> Option<usize> {
        self.entries
    }
}

/// One matrix-vector product resolved to a direction, with `a` already in
/// the orientation that direction reads and the semiring seen matrix-first
/// (`mul(a_ij, u_j)`, and `mul_tag` names *that* function) — `mxv` and
/// `vxm` differ only in how they fill this in.
struct Product<'a, A, X: ValueType, C, FM, FA> {
    op: &'static str,
    ctx: &'a Context,
    dir: Direction,
    a: &'a Csr<A>,
    u: &'a VecSnap<X>,
    add_tag: Option<BuiltinOp>,
    mul_tag: Option<BuiltinOp>,
    mul: FM,
    add: FA,
    terminal: Option<&'a (dyn Fn(&C) -> bool + Sync)>,
    pre: Option<registry::FusedHook<'a, X>>,
    post: Option<registry::FusedHook<'a, C>>,
}

impl<A, X, C, FM, FA> Product<'_, A, X, C, FM, FA>
where
    A: ValueType,
    X: ValueType,
    C: ValueType,
    FM: Fn(&A, &X) -> C + Sync,
    FA: Fn(C, C) -> C + Sync,
{
    /// Computes `T`, keeping only the output positions `keep` allows.
    /// Operand order is explicit: `mul` and `mul_tag` both read the matrix
    /// element first, whichever entry point and direction the product came
    /// from, so the registry can tell a multiply that selects the vector's
    /// value (SECOND here, claimed over any matrix type) from one that
    /// selects the matrix's (FIRST, claimed never). A registered semiring
    /// takes its monomorphized kernel; everything else runs the same
    /// kernel over the dyn operators.
    fn run<K: OutputFilter>(&self, keep: K) -> SparseVec<C> {
        let (ctx, a) = (self.ctx, self.a);
        let hooks = Hooks {
            pre: self.pre,
            post: self.post,
            keep,
        };
        let listed;
        let u = match (self.dir, self.u) {
            (Direction::Pull, u) => Operand::Pull(u.view()),
            (Direction::Push, VecSnap::Sparse(u_s)) => Operand::Push(u_s),
            (Direction::Push, VecSnap::Full(u_d)) => {
                listed = frontier_for(self.op, ctx.id(), u_d);
                Operand::Push(&listed)
            }
        };
        registry::try_matvec(self.op, ctx, a, u, self.add_tag, self.mul_tag, hooks).unwrap_or_else(
            || {
                registry::record_pick(self.op, ctx.id(), false);
                registry::matvec(ctx, a, u, &self.mul, &self.add, self.terminal, hooks)
            },
        )
    }

    /// [`Product::run`] under the operation's mask, if any; `entries` is
    /// [`Pick::admitted_entries`].
    fn run_masked(&self, mask: Option<&VecMask>, entries: Option<usize>) -> SparseVec<C> {
        match mask {
            Some(mask) => self.run(MaskFilter { mask, entries }),
            None => self.run(Unmasked),
        }
    }
}

/// What tells `mxv` and `vxm` apart once both are read matrix-first as
/// `w = P ⊕.⊗ u`: `mxv` has `P = A` (`Aᵀ` under `desc.transpose_a`); `vxm`
/// computes `uᵀ ⊕.⊗ A = Aᵀ ⊕.⊗ u`, so it has `P = Aᵀ` (`A` under
/// `desc.transpose_b`) and a multiply that swaps its arguments back into
/// vector-first order. This is the one place that knows which semiring
/// argument is the matrix.
struct Multiply<F> {
    kind: NodeKind,
    /// Whether `P` — the orientation the *pull* kernel reads — is `Aᵀ`.
    pull_t: bool,
    /// The semiring's multiply, matrix element first.
    mul: F,
    /// The builtin `mul` is, if any — of the matrix-first function, so
    /// `vxm` hands over its semiring's tag flipped.
    mul_tag: Option<BuiltinOp>,
}

/// The one matrix-vector product behind `mxv` and `vxm`:
/// `w⟨m, r⟩ = w ⊙ (P ⊕.⊗ u)`.
fn product<C, A, X, F>(
    mut call: Op<'_, VectorState<C>>,
    accum: Accum<'_, C>,
    a: &Matrix<A>,
    u: &Vector<X>,
    add: &Monoid<C>,
    Multiply {
        kind,
        pull_t,
        mul,
        mul_tag,
    }: Multiply<F>,
) -> GrbResult
where
    C: ValueType,
    A: ValueType,
    X: ValueType,
    F: Fn(&A, &X) -> C + Send + Sync + 'static,
{
    let (op, ctx_id) = (call.name(), call.ctx.id());
    a.check_context(&call.ctx)?;
    u.check_context(&call.ctx)?;
    if eff_shape(a, pull_t) != (call.shape(), u.size()) {
        return Err(ApiError::DimensionMismatch.into());
    }

    // Eagerly captures the input's base store plus its pending map chain
    // (sequence-point semantics: later writes to `u` cannot leak in) —
    // the maps become the node's fused input side instead of forcing a
    // drain of `u`.
    let (u_f, pre_maps) = u.snapshot_frontier_fused()?;
    // The mask is snapshotted ahead of the choice: what it admits is half
    // of what the choice weighs.
    let m = call.shape();
    let mask = call.mask()?;
    // Pull runs on `P`, push on the other orientation; whichever of the
    // two is not the stored one is served by the memoized transpose.
    let stored = if pull_t {
        Direction::Push
    } else {
        Direction::Pull
    };
    let first_hit_ends_row = matches!(
        add.builtin(),
        Some(BuiltinOp::LOr | BuiltinOp::LAnd | BuiltinOp::Any)
    );
    let phase = graphblas_obs::timeline::phase("mxv.pick");
    let (a_s, transposed, mut pick) = a.snapshot_oriented(|a_csr, a_t| {
        let (push_a, pull_a) = if pull_t {
            (Some(a_csr), a_t)
        } else {
            (a_t, Some(a_csr))
        };
        let pick = choose_direction(&Shape {
            u: &u_f,
            mask,
            m,
            first_hit_ends_row,
            push_a,
            pull_a,
            nnz_a: a_csr.nnz(),
            stored,
        });
        ((pick.dir != stored).then_some(pick.worth), pick)
    })?;
    if !transposed && pick.dir != stored {
        // The other orientation is not there and this product alone does
        // not pay for building it.
        pick.dir = stored;
        pick.why = "build-unpaid";
    }
    let dir = pick.dir;
    if graphblas_obs::enabled() {
        let pull = dir == Direction::Pull;
        graphblas_obs::counters::record_direction_pick(pull);
        graphblas_obs::events::decision_direction(op, ctx_id, pull, pick.why, pick.seen);
    }
    let admitted_entries = pick.admitted_entries.filter(|_| dir == Direction::Pull);
    drop(phase);
    let add = add.clone();
    let call = call.fusing_input(pre_maps.len());
    // Unmasked and unaccumulated, `T` is the written result, so the
    // trailing output maps fold into the kernel's numeric phase along with
    // the input's pending maps; under a mask/accum they stay behind for
    // the write-back to run over the merged store.
    let unaccumulated = accum.is_none();
    call.run(kind, accum, u_f.nnz(), move |x| {
        let post = if x.mask.is_none() && unaccumulated {
            std::mem::take(x.post)
        } else {
            Vec::new()
        };
        let pre_hook = |j: usize, v: &X| fuse_maps(&pre_maps, &[j], v);
        let post_hook = |i: usize, v: &C| fuse_maps(&post, &[i], v);
        let product = Product {
            op,
            ctx: x.ctx,
            dir,
            a: &*a_s,
            u: &u_f,
            add_tag: add.builtin(),
            mul_tag,
            mul,
            add: |p: C, q: C| add.apply(&p, &q),
            terminal: add.terminal().map(|t| t as _),
            pre: (!pre_maps.is_empty()).then_some(&pre_hook as _),
            post: (!post.is_empty()).then_some(&post_hook as _),
        };
        Ok(product.run_masked(x.mask, admitted_entries))
    })
}

/// `w⟨m, r⟩ = w ⊙ (A ⊕.⊗ u)` (`desc.transpose_a` uses `Aᵀ`).
pub fn mxv<C, M, A, X>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    semiring: &Semiring<A, X, C>,
    a: &Matrix<A>,
    u: &Vector<X>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    X: ValueType,
{
    let call = Op::begin("op.mxv", &w.core, mask, desc)?;
    let sr = semiring.clone();
    let sides = Multiply {
        kind: NodeKind::MxV,
        pull_t: desc.transpose_a,
        mul: move |av: &A, xv: &X| sr.multiply(av, xv),
        mul_tag: semiring.mul().builtin(),
    };
    product(call, accum, a, u, semiring.add(), sides)
}

/// `wᵀ⟨mᵀ, r⟩ = wᵀ ⊙ (uᵀ ⊕.⊗ A)` (`desc.transpose_b` uses `Aᵀ`, turning
/// this into a pull product).
pub fn vxm<C, M, X, A>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    semiring: &Semiring<X, A, C>,
    u: &Vector<X>,
    a: &Matrix<A>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    X: ValueType,
    A: ValueType,
{
    let call = Op::begin("op.vxm", &w.core, mask, desc)?;
    let sr = semiring.clone();
    let sides = Multiply {
        kind: NodeKind::VxM,
        pull_t: !desc.transpose_b,
        mul: move |av: &A, xv: &X| sr.multiply(xv, av),
        mul_tag: semiring.mul().builtin().and_then(BuiltinOp::flipped),
    };
    product(call, accum, a, u, semiring.add(), sides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_mask_v;
    use crate::operations::testutil::{mat, vec, vec_tuples};

    /// Serializes tests that flip the process-global direction override
    /// or read obs counter deltas.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        crate::container::obs_test_guard()
    }

    fn graph() -> Matrix<i64> {
        // [[1, _, 2],
        //  [_, 3, _],
        //  [4, _, 5]]
        mat(
            (3, 3),
            &[(0, 0, 1), (0, 2, 2), (1, 1, 3), (2, 0, 4), (2, 2, 5)],
        )
    }

    #[test]
    fn mxv_plus_times() {
        let a = graph();
        let u = vec(3, &[(0, 1i64), (1, 1), (2, 1)]);
        let w = Vector::<i64>::new(3).unwrap();
        mxv(
            &w,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &a,
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 3), (1, 3), (2, 9)]);
    }

    #[test]
    fn vxm_equals_mxv_on_transpose() {
        let a = graph();
        let u = vec(3, &[(0, 2i64), (2, 3)]);
        let w1 = Vector::<i64>::new(3).unwrap();
        let w2 = Vector::<i64>::new(3).unwrap();
        vxm(
            &w1,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &u,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        mxv(
            &w2,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &a,
            &u,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w1), vec_tuples(&w2));
    }

    #[test]
    fn masked_complement_frontier_pattern() {
        // The BFS idiom: expand frontier, masked by unvisited vertices.
        let a = mat((3, 3), &[(0, 1, true), (1, 2, true), (2, 0, true)]);
        let visited = vec(3, &[(0, true)]);
        let frontier = vec(3, &[(0, true)]);
        let next = Vector::<bool>::new(3).unwrap();
        vxm(
            &next,
            Some(&visited),
            None,
            &Semiring::lor_land(),
            &frontier,
            &a,
            &Descriptor::new().complement_mask().replace(),
        )
        .unwrap();
        // 0 reaches 1; 1 is unvisited so it survives the complement mask.
        assert_eq!(vec_tuples(&next), vec![(1, true)]);
    }

    #[test]
    fn min_plus_relaxation() {
        let a = mat((3, 3), &[(0, 1, 7i64), (1, 2, 2)]);
        let dist = vec(3, &[(0, 0i64)]);
        let w = Vector::<i64>::new(3).unwrap();
        vxm(
            &w,
            no_mask_v(),
            None,
            &Semiring::min_plus(),
            &dist,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(1, 7)]);
    }

    #[test]
    fn dimension_checks() {
        let a = Matrix::<i64>::new(3, 3).unwrap();
        let u = Vector::<i64>::new(2).unwrap();
        let w = Vector::<i64>::new(3).unwrap();
        assert!(mxv(
            &w,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &a,
            &u,
            &Descriptor::default()
        )
        .is_err());
    }

    #[test]
    fn forced_directions_agree_and_are_counted() {
        let _g = serialize();
        // Moderately sized pseudo-random graph; both kernels must produce
        // identical results, and the direction counters must show both
        // paths actually ran.
        let n = 60usize;
        let tuples: Vec<(usize, usize, i64)> = (0..n * 6)
            .map(|k| (((k * 7 + 3) % n, (k * 13 + 5) % n), (k % 9 + 1) as i64))
            .collect::<std::collections::BTreeMap<(usize, usize), i64>>()
            .iter()
            .map(|(&(i, j), &v)| (i, j, v))
            .collect();
        let a = mat((n, n), &tuples);
        let u = vec(
            n,
            &(0..n)
                .filter(|i| i % 3 == 0)
                .map(|i| (i, (i % 5 + 1) as i64))
                .collect::<Vec<_>>(),
        );
        let before = graphblas_obs::snapshot().direction;
        graphblas_obs::set_enabled(true);
        let run_vxm = |dir: Option<Direction>| {
            force_direction(dir);
            let w = Vector::<i64>::new(n).unwrap();
            vxm(
                &w,
                no_mask_v(),
                None,
                &Semiring::plus_times(),
                &u,
                &a,
                &Descriptor::default(),
            )
            .unwrap();
            vec_tuples(&w)
        };
        let pushed = run_vxm(Some(Direction::Push));
        let pulled = run_vxm(Some(Direction::Pull));
        assert_eq!(pushed, pulled);
        let run_mxv = |dir: Option<Direction>| {
            force_direction(dir);
            let w = Vector::<i64>::new(n).unwrap();
            mxv(
                &w,
                no_mask_v(),
                None,
                &Semiring::plus_times(),
                &a,
                &u,
                &Descriptor::default(),
            )
            .unwrap();
            vec_tuples(&w)
        };
        let m_pushed = run_mxv(Some(Direction::Push));
        let m_pulled = run_mxv(Some(Direction::Pull));
        assert_eq!(m_pushed, m_pulled);
        // Same product through the transpose descriptor, both directions.
        force_direction(Some(Direction::Pull));
        let wt = Vector::<i64>::new(n).unwrap();
        mxv(
            &wt,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &a,
            &u,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        force_direction(Some(Direction::Push));
        let wt2 = Vector::<i64>::new(n).unwrap();
        mxv(
            &wt2,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &a,
            &u,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&wt), vec_tuples(&wt2));
        force_direction(None);
        graphblas_obs::set_enabled(false);
        let after = graphblas_obs::snapshot().direction;
        assert!(after.push_picks > before.push_picks, "push path never ran");
        assert!(after.pull_picks > before.pull_picks, "pull path never ran");
    }

    #[test]
    fn repeated_pull_vxm_hits_transpose_cache() {
        let _g = serialize();
        let a = graph();
        let u = vec(3, &[(0, 1i64), (1, 1), (2, 1)]);
        let before = graphblas_obs::snapshot().direction;
        graphblas_obs::set_enabled(true);
        force_direction(Some(Direction::Pull));
        for _ in 0..3 {
            let w = Vector::<i64>::new(3).unwrap();
            vxm(
                &w,
                no_mask_v(),
                None,
                &Semiring::plus_times(),
                &u,
                &a,
                &Descriptor::default(),
            )
            .unwrap();
        }
        force_direction(None);
        graphblas_obs::set_enabled(false);
        let after = graphblas_obs::snapshot().direction;
        // First pull builds Aᵀ; the two repeats reuse the memoized copy.
        assert!(after.transpose_builds > before.transpose_builds);
        assert!(
            after.transpose_hits >= before.transpose_hits + 2,
            "memoized transpose was not reused"
        );
    }

    #[test]
    fn mid_density_result_stored_sparse_and_pulled_without_a_conversion() {
        use graphblas_exec::{ContextOptions, Mode};
        use graphblas_obs::events::Reason;
        let _g = serialize();
        graphblas_obs::set_enabled(true);
        // A private context keeps other tests' decision events out.
        let ctx = Context::new(
            &crate::global_context(),
            Mode::Blocking,
            ContextOptions::default(),
        );
        // Rows 0..4 of an 8-vertex graph reach the frontier: the result
        // holds half the vertices, and anything short of all of them is an
        // index list.
        let n = 8;
        let a = Matrix::<i64>::new_in(&ctx, n, n).unwrap();
        a.build(&[0, 1, 2, 3], &[0; 4], &[1; 4], None).unwrap();
        let u = Vector::<i64>::new_in(&ctx, n).unwrap();
        u.build(&[0], &[2], None).unwrap();
        let sr = Semiring::plus_times();
        let d = Descriptor::default();
        let w = Vector::<i64>::new_in(&ctx, n).unwrap();
        mxv(&w, no_mask_v(), None, &sr, &a, &u, &d).unwrap();
        assert_eq!(w.stats().format, "sparse");
        assert_eq!(w.nvals().unwrap(), 4);
        // The sparse store feeds the next pull as it is, through the
        // position table, and produces the values it holds.
        let eye = Matrix::<i64>::new_in(&ctx, n, n).unwrap();
        let diag: Vec<usize> = (0..n).collect();
        eye.build(&diag, &diag, &[1; 8], None).unwrap();
        let w2 = Vector::<i64>::new_in(&ctx, n).unwrap();
        force_direction(Some(Direction::Pull));
        mxv(&w2, no_mask_v(), None, &sr, &eye, &w, &d).unwrap();
        force_direction(None);
        graphblas_obs::set_enabled(false);
        assert_eq!(vec_tuples(&w2), vec_tuples(&w));
        let events = ctx.explain(64).events;
        let paths = events.iter().filter(|e| e.reason == Reason::KernelPath);
        assert_eq!(paths.map(|e| e.detail).next_back(), Some("sparse-frontier"));
        let picks = events.iter().filter(|e| e.reason == Reason::FormatPick);
        assert!(picks.map(|e| e.detail).eq(["sparse", "sparse"]));
        assert!(!events.iter().any(|e| e.reason == Reason::ConvertSparse));
    }

    #[test]
    fn full_result_is_stored_full_and_pulled_by_direct_indexing() {
        use graphblas_exec::{ContextOptions, Mode};
        use graphblas_obs::events::Reason;
        let _g = serialize();
        graphblas_obs::set_enabled(true);
        // A private context keeps other tests' decision events out.
        let ctx = Context::new(
            &crate::global_context(),
            Mode::Blocking,
            ContextOptions::default(),
        );
        let n = 8;
        let all: Vec<usize> = (0..n).collect();
        let next: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        let ring = Matrix::<i64>::new_in(&ctx, n, n).unwrap();
        ring.build(&all, &next, &[1; 8], None).unwrap();
        let ones = Vector::<i64>::new_in(&ctx, n).unwrap();
        ones.build(&all, &[1; 8], None).unwrap();
        let product = |w: &Vector<i64>, u: &Vector<i64>| {
            let sr = Semiring::plus_times();
            mxv(w, no_mask_v(), None, &sr, &ring, u, &Descriptor::default()).unwrap();
        };
        // A result holding every position (nnz == len) is full, not a
        // sparse vector that happens to be dense.
        let wd = Vector::<i64>::new_in(&ctx, n).unwrap();
        product(&wd, &ones);
        assert_eq!(wd.stats().format, "full");
        // The full store feeds the next product as it is: the pull kernel
        // indexes it directly.
        let w2 = Vector::<i64>::new_in(&ctx, n).unwrap();
        product(&w2, &wd);
        assert_eq!(wd.stats().format, "full");
        assert_eq!(vec_tuples(&w2), vec_tuples(&wd));
        graphblas_obs::set_enabled(false);
        let events = ctx.explain(64).events;
        let paths = events.iter().filter(|e| e.reason == Reason::KernelPath);
        let paths: Vec<_> = paths.map(|e| e.detail).collect();
        assert_eq!(paths, ["dense-frontier", "dense-frontier"]);
        let picks = events.iter().filter(|e| e.reason == Reason::FormatPick);
        assert!(picks.map(|e| e.detail).eq(["full", "full"]));
        assert!(!events.iter().any(|e| e.reason == Reason::ConvertSparse));
    }

    /// A private context (its explain log holds only this test's events)
    /// and, in it, the undirected graph of `hubs` vertices each adjacent to
    /// all of `leaves` further ones, among `n` vertices in all.
    fn hub_graph(hubs: usize, leaves: usize, n: usize) -> (Context, Matrix<bool>) {
        use graphblas_exec::{ContextOptions, Mode};
        let ctx = Context::new(
            &crate::global_context(),
            Mode::Blocking,
            ContextOptions::default(),
        );
        let spokes = (0..hubs).flat_map(|h| (hubs..hubs + leaves).map(move |l| (h, l)));
        let (mut rows, mut cols): (Vec<usize>, Vec<usize>) = spokes.unzip();
        let one_way = rows.clone();
        rows.extend(&cols);
        cols.extend(one_way);
        let a = Matrix::<bool>::new_in(&ctx, n, n).unwrap();
        a.build(&rows, &cols, &vec![true; rows.len()], None).unwrap();
        (ctx, a)
    }

    /// The direction picks `ctx` has recorded: (pulled, on what grounds).
    fn picks(ctx: &Context) -> Vec<(bool, &'static str)> {
        use graphblas_obs::events::Reason;
        let events = ctx.explain(usize::MAX).events.into_iter();
        let picks = events.filter_map(|e| match e.reason {
            Reason::DirectionPull => Some((true, e.detail)),
            Reason::DirectionPush => Some((false, e.detail)),
            _ => None,
        });
        picks.collect()
    }

    #[test]
    fn nothing_is_built_to_estimate_and_a_build_is_made_once_it_is_paid_for() {
        let _g = serialize();
        let (ctx, a) = hub_graph(4, 56, 60);
        let seed = Vector::<bool>::new_in(&ctx, 60).unwrap();
        seed.set_element(true, 7).unwrap();
        let product = |by_mxv: bool| {
            let w = Vector::<bool>::new_in(&ctx, 60).unwrap();
            let (sr, d) = (Semiring::lor_land(), Descriptor::default());
            if by_mxv {
                mxv(&w, no_mask_v(), None, &sr, &a, &seed, &d).unwrap();
            } else {
                vxm(&w, no_mask_v(), None, &sr, &seed, &a, &d).unwrap();
            }
            assert_eq!(vec_tuples(&w), (0..4).map(|h| (h, true)).collect::<Vec<_>>());
        };
        graphblas_obs::set_enabled(true);
        let builds = || graphblas_obs::snapshot().direction.transpose_builds;
        let before = builds();
        // A one-entry frontier wants to be pushed. `vxm` pushes over the
        // stored rows; its pull orientation, which no one has asked for,
        // is priced without being built.
        product(false);
        assert_eq!(picks(&ctx), [(false, "under-row-scan")]);
        // `mxv` would have to build `Aᵀ` to push, and one product does not
        // pay for that: it pulls over the stored rows.
        product(true);
        assert_eq!(picks(&ctx)[1], (true, "build-unpaid"));
        assert_eq!(builds(), before, "an orientation was built for one small product");
        // A caller that keeps coming back has the build paid for within a
        // few products, and pushes over the memo from then on.
        let mut calls = 2;
        while builds() == before {
            product(true);
            calls += 1;
            assert!(calls < 16, "the savings forgone never bought the transpose");
        }
        assert!(calls > 3, "built after {calls} products");
        product(true);
        graphblas_obs::set_enabled(false);
        assert_eq!(builds(), before + 1);
        assert_eq!(picks(&ctx)[calls - 1..], [(false, "under-row-scan"); 2]);
    }

    #[test]
    fn only_a_monoid_that_one_product_can_end_gets_the_early_exit_discount() {
        let _g = serialize();
        // Four hubs visited, 60 leaves not, 56 further vertices visited
        // and edgeless: half the vertices are behind the mask. The frontier
        // is the hubs and carries every edge.
        let n = 120;
        let (ctx, a) = hub_graph(4, 60, n);
        a.snapshot_transposed().unwrap();
        let visited: Vec<usize> = (0..4).chain(64..n).collect();
        let mask = Vector::<bool>::new_in(&ctx, n).unwrap();
        mask.build(&visited, &vec![true; visited.len()], None).unwrap();
        let hubs: Vec<usize> = (0..4).collect();
        let desc = Descriptor::new().structure_mask().complement_mask().replace();
        graphblas_obs::set_enabled(true);
        // LOR: a pulled row ends at its first hub, one entry in.
        let reached = Vector::<bool>::new_in(&ctx, n).unwrap();
        let from = Vector::<bool>::new_in(&ctx, n).unwrap();
        from.build(&hubs, &[true; 4], None).unwrap();
        let lor = Semiring::lor_land();
        vxm(&reached, Some(&mask), None, &lor, &from, &a, &desc).unwrap();
        // MIN declares a terminal (`i64::MIN`) that no product ever is, so
        // its pulled rows are read to the end — exactly as under a MIN
        // that declares none.
        let ids = Vector::<i64>::new_in(&ctx, n).unwrap();
        ids.build(&hubs, &[0, 1, 2, 3], None).unwrap();
        let plain_min = Monoid::new(BinaryOp::min(), i64::MAX);
        assert!(Monoid::<i64>::min().terminal().is_some() && plain_min.terminal().is_none());
        for min in [Monoid::min(), plain_min] {
            let parent = Vector::<i64>::new_in(&ctx, n).unwrap();
            let min_first: Semiring<i64, bool, i64> = Semiring::new(min, BinaryOp::first());
            vxm(&parent, Some(&mask), None, &min_first, &ids, &a, &desc).unwrap();
            assert_eq!(vec_tuples(&parent), (4..64).map(|l| (l, 0)).collect::<Vec<_>>());
        }
        graphblas_obs::set_enabled(false);
        assert_eq!(reached.nvals().unwrap(), 60);
        assert_eq!(
            picks(&ctx),
            [(true, "estimate"), (false, "estimate"), (false, "estimate")]
        );
    }

    #[test]
    fn an_empty_frontier_takes_the_stored_orientation() {
        let _g = serialize();
        let (ctx, a) = hub_graph(2, 6, 8);
        let nothing = Vector::<bool>::new_in(&ctx, 8).unwrap();
        let w = Vector::<bool>::new_in(&ctx, 8).unwrap();
        let (sr, d) = (Semiring::lor_land(), Descriptor::default());
        graphblas_obs::set_enabled(true);
        let before = graphblas_obs::snapshot().direction.transpose_builds;
        vxm(&w, no_mask_v(), None, &sr, &nothing, &a, &d).unwrap();
        mxv(&w, no_mask_v(), None, &sr, &a, &nothing, &d).unwrap();
        graphblas_obs::set_enabled(false);
        let after = graphblas_obs::snapshot().direction.transpose_builds;
        assert_eq!(picks(&ctx), [(false, "empty-frontier"), (true, "empty-frontier")]);
        assert_eq!(after, before);
        assert_eq!(w.nvals().unwrap(), 0);
    }

    #[test]
    fn accum_into_existing_vector() {
        let a = graph();
        let u = vec(3, &[(1, 10i64)]);
        let w = vec(3, &[(1, 5i64), (2, 7)]);
        mxv(
            &w,
            no_mask_v(),
            Some(&BinaryOp::plus()),
            &Semiring::plus_times(),
            &a,
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        // A·u = [_, 30, _]; accum → w = [_, 35, 7].
        assert_eq!(vec_tuples(&w), vec![(1, 35), (2, 7)]);
    }
}
