//! `GrB_mxv` / `GrB_vxm`: matrix-vector products over a semiring, with
//! direction-optimizing dispatch.
//!
//! Both entry points choose between the frontier-friendly *push* kernel
//! (scatter rows of the input's nonzeros) and the row-parallel *pull*
//! kernel (dot products against the whole frontier) with a Beamer-style
//! density heuristic: sparse frontiers push, dense frontiers pull. The
//! kernel that needs the matrix in the "other" orientation runs on the
//! memoized transpose (`MatrixState::transpose_cache`), so iterative
//! algorithms pay for `Aᵀ` at most once per matrix version — the §III
//! completion latitude CombBLAS 2.0 identifies as the biggest lever for
//! frontier algorithms. The add monoid's terminal (annihilator) value,
//! when declared, short-circuits per-row accumulation in the pull kernel —
//! the `ablation_terminal` bench measures the payoff for LOR traversals.
//!
//! The output mask is an input of the kernels, not only of the write-back
//! (*mask-first execution*): `C⟨M, r⟩ = C ⊙ T` only ever reads the part of
//! `T` the mask admits, and the spec's completion latitude lets an
//! implementation compute just that part. Both directions therefore get
//! the mask's truthy set as a bitset (`MaskFilter`): push never scatters
//! into a forbidden column, and pull skips a forbidden row before touching
//! it — under BFS's complemented `visited` mask that is the bottom-up half
//! of direction optimization, where only the unvisited vertices look for a
//! parent. The filter is deliberately coarse (truthy set × complement
//! only); the write-back's `merge_vector` still runs on the result because
//! it alone implements accumulate, replace and the deletion of old entries
//! inside the mask, and re-applying the mask there is idempotent.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use graphblas_exec::workspace::{self, BitSet};
use graphblas_exec::Context;
use graphblas_sparse::spmv::{Hooks, OutputFilter, Unmasked};
use graphblas_sparse::{Csr, SparseVec};

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::Matrix;
use crate::operations::{eff_shape, snapshot_operand, Accum, Op};
use crate::ops::registry::{self, Operand};
use crate::ops::{BinaryOp, BuiltinOp, Monoid, Semiring};
use crate::pending::{fuse_maps, NodeKind};
use crate::types::{MaskValue, ValueType};
use crate::vector::{Frontier, Vector, VectorState};
use crate::write::{VecMask, VecResult};

/// The result's Table III format pick lives with the vector store; its
/// threshold stays importable from here, next to [`PULL_THRESHOLD_DEN`].
pub use crate::vector::BITMAP_THRESHOLD_DEN;

/// Which matrix-vector kernel a product dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Scatter the input's nonzeros through their matrix rows (good for
    /// sparse frontiers).
    Push,
    /// Per-output-row dot products against the input (good for dense
    /// frontiers; supports the add monoid's terminal early exit).
    Pull,
}

// 0 = automatic heuristic, 1 = forced push, 2 = forced pull.
static FORCE_DIRECTION: AtomicU8 = AtomicU8::new(0);

/// Overrides the push/pull heuristic for every subsequent `mxv`/`vxm`
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

/// The Beamer density threshold denominator: the heuristic pulls once
/// `frontier_nnz * PULL_THRESHOLD_DEN >= frontier_len`, i.e. once the
/// frontier holds at least `1 / PULL_THRESHOLD_DEN` of the vertices.
/// Decision events carry this value so an explain log is self-contained.
pub const PULL_THRESHOLD_DEN: u64 = 8;

/// Beamer-style direction choice: pull once the frontier holds at least
/// 1/[`PULL_THRESHOLD_DEN`] of the vertices, push below that. An empty
/// frontier takes `no_transpose` — whichever direction runs on the
/// matrix's stored orientation — so degenerate calls never build `Aᵀ`.
fn choose_direction(
    op: &'static str,
    ctx_id: u64,
    frontier_nnz: usize,
    frontier_len: usize,
    no_transpose: Direction,
) -> Direction {
    let d = match FORCE_DIRECTION.load(Ordering::SeqCst) {
        1 => Direction::Push,
        2 => Direction::Pull,
        _ if frontier_nnz == 0 => no_transpose,
        _ => {
            if frontier_nnz as u64 * PULL_THRESHOLD_DEN >= frontier_len as u64 {
                Direction::Pull
            } else {
                Direction::Push
            }
        }
    };
    if graphblas_obs::enabled() {
        graphblas_obs::counters::record_direction_pick(d == Direction::Pull);
        graphblas_obs::events::decision_direction(
            op,
            ctx_id,
            d == Direction::Pull,
            frontier_nnz as u64,
            frontier_len as u64,
            PULL_THRESHOLD_DEN,
        );
    }
    d
}

/// Normalizes a bitmap or full frontier to sparse when the chosen kernel
/// cannot consume it natively (the push kernel iterates an index list),
/// charging the conversion to the format counters.
fn frontier_for<X: ValueType>(
    op: &'static str,
    ctx_id: u64,
    dir: Direction,
    f: Frontier<X>,
) -> Frontier<X> {
    let (src, sparse) = match (dir, f) {
        (Direction::Push, Frontier::Bitmap(b)) => ("bitmap", b.to_svec()),
        (Direction::Push, Frontier::Full(d)) => ("dense", d.to_sparse()),
        (_, f) => return f,
    };
    if graphblas_obs::enabled() {
        graphblas_obs::counters::record_format_conversion();
    }
    if graphblas_obs::events::on() {
        graphblas_obs::events::decision_convert_sparse(op, ctx_id, src, sparse.nnz() as u64);
    }
    Frontier::Sparse(Arc::new(sparse))
}

/// The output mask as the kernels' [`OutputFilter`]: a dense bitset of the
/// mask's truthy positions, checked out of the workspace cache, consulted
/// as `truthy != complement`. The pull kernel skips the rows it forbids,
/// the push kernel the columns, so neither direction computes entries the
/// write-back would discard. Prefiltering is a pure optimization —
/// the write-back still applies the mask (with structure, accum and
/// replace) afterwards and the intersection is idempotent.
#[derive(Clone, Copy)]
struct MaskFilter<'a> {
    bits: &'a BitSet,
    complement: bool,
    truthy: usize,
}

impl OutputFilter for MaskFilter<'_> {
    #[inline]
    fn allows(&self, i: usize) -> bool {
        self.bits.contains(i) != self.complement
    }

    fn allowed(&self, n: usize) -> usize {
        if self.complement {
            n - self.truthy
        } else {
            self.truthy
        }
    }
}

/// Checks out the bitset behind a [`MaskFilter`] and counts its members.
fn mask_bits(m: &VecMask) -> (workspace::Checkout<BitSet>, usize) {
    let mut bits = workspace::checkout::<BitSet>(m.mask.len());
    let mut truthy = 0;
    for (j, &t) in m.mask.iter() {
        if t {
            bits.insert(j);
            truthy += 1;
        }
    }
    (bits, truthy)
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
    u: &'a Frontier<X>,
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
        let u = match (self.dir, self.u) {
            (Direction::Pull, Frontier::Sparse(u_s)) => Operand::Pull(u_s),
            (Direction::Pull, Frontier::Bitmap(u_b)) => Operand::PullBitmap(u_b),
            (Direction::Pull, Frontier::Full(u_d)) => Operand::PullFull(u_d),
            (Direction::Push, Frontier::Sparse(u_s)) => Operand::Push(u_s),
            (Direction::Push, Frontier::Bitmap(_) | Frontier::Full(_)) => {
                unreachable!("push frontiers are normalized to sparse")
            }
        };
        registry::try_matvec(self.op, ctx, a, u, self.add_tag, self.mul_tag, hooks).unwrap_or_else(
            || {
                registry::record_pick(self.op, ctx.id(), false);
                registry::matvec(ctx, a, u, &self.mul, &self.add, self.terminal, hooks)
            },
        )
    }

    /// [`Product::run`] under the operation's mask, if any.
    fn run_masked(&self, mask: Option<&VecMask>) -> SparseVec<C> {
        match mask {
            Some(m) => {
                let (bits, truthy) = mask_bits(m);
                self.run(MaskFilter {
                    bits: &bits,
                    complement: m.complement,
                    truthy,
                })
            }
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
    call: Op<'_, VectorState<C>>,
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
    // Pull runs on `P`, push on the other orientation; whichever of the
    // two is not the stored one is served by the memoized transpose.
    let natural = if pull_t {
        Direction::Push
    } else {
        Direction::Pull
    };
    let pick = graphblas_obs::timeline::phase("mxv.pick");
    let dir = choose_direction(op, ctx_id, u_f.nnz(), u_f.len(), natural);
    let u_f = frontier_for(op, ctx_id, dir, u_f);
    let a_s = snapshot_operand(
        a,
        if dir == Direction::Pull {
            pull_t
        } else {
            !pull_t
        },
        false,
    )?;
    drop(pick);
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
        Ok(VecResult {
            t: product.run_masked(x.mask).into(),
            bitmap_ok: true,
        })
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
    fn mid_density_result_stored_bitmap_and_consumed_natively() {
        let _g = serialize();
        // Rows 0..4 of an 8-vertex graph reach the frontier: the result
        // holds 4/8 of the vertices — inside the bitmap window (≥1/4,
        // not full).
        let n = 8;
        let a = mat((n, n), &(0..4).map(|i| (i, 0, 1i64)).collect::<Vec<_>>());
        let u = vec(n, &[(0, 2i64)]);
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
        assert_eq!(w.stats().format, "bitmap");
        assert_eq!(w.nvals().unwrap(), 4);
        // The bitmap store feeds the next product natively (pull path)
        // and produces the same values the canonical sparse form holds.
        let w2 = Vector::<i64>::new(n).unwrap();
        let eye = mat((n, n), &(0..n).map(|i| (i, i, 1i64)).collect::<Vec<_>>());
        mxv(
            &w2,
            no_mask_v(),
            None,
            &Semiring::plus_times(),
            &eye,
            &w,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w2), vec_tuples(&w));
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
