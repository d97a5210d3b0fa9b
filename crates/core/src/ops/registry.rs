//! The monomorphized kernel registry — static dispatch for builtin
//! semirings (paper §II).
//!
//! Every operation in `core::operations` is generic over user-supplied
//! operator *objects* (`Semiring`, `BinaryOp`, `UnaryOp`) whose apply
//! paths route through `Arc<dyn Fn>` — an indirect call per scalar, which
//! the GraphBLAS 2.0 paper's §II performance discussion identifies as the
//! gap between generic and specialized implementations. This module closes
//! that gap for the hot builtin algebra: each `try_*` entry point holds a
//! table of **pre-monomorphized kernel instantiations** — the generic
//! kernels in `graphblas-sparse` instantiated at compile time with plain
//! `fn` items for the registered (add ⊕, mul ⊗, type) combinations — and
//! selects one at dispatch time by operator identity
//! ([`BuiltinOp`]/[`BuiltinUnaryOp`] tags, set only by canonical
//! constructors) plus `TypeId` equality. Inside a claimed kernel the
//! operators are zero-sized fn items the optimizer inlines into the inner
//! loop; no virtual call, no closure environment.
//!
//! Registered semirings (⊕, ⊗) × element type:
//!
//! | add  | mul  | types                  | workloads                  |
//! |------|------|------------------------|----------------------------|
//! | PLUS | TIMES| f64, f32, i64, u64     | spgemm, counting           |
//! | MIN  | PLUS | f64, f32, i64, u64     | shortest paths             |
//! | MAX  | PLUS | f64, f32, i64, u64     | widest/critical paths      |
//! | LOR  | LAND | bool                   | reachability, BFS          |
//! | ANY  | PAIR | bool                   | structural BFS             |
//!
//! Those rows want every operand at the row's type. The *value-blind*
//! multiplies do not — one that never reads the matrix needs no guard on
//! what the matrix stores — so each (add, type) pair above is claimed a
//! second time with only the vector and output typed:
//!
//! | add              | mul (matrix first)         | matrix       | workloads                          |
//! |------------------|----------------------------|--------------|------------------------------------|
//! | any row's monoid | SECOND: the vector's value | any `A`      | pagerank, bc, bfs_parents, cc, mis |
//! | any row's monoid | ONEB/PAIR                  | any `A`      | structural counting                |
//! | PLUS, in `mxm`   | ONEB/PAIR                  | any `A`, `B` | triangle_count, lcc, ktruss        |
//!
//! (`vxm` multiplies vector first, so its FIRST is the SECOND of this
//! table.) The kernel is instantiated over the caller's `Csr<A>` as stored, so one
//! `Matrix<bool>` serves every algorithm with no typed copy. FIRST (matrix
//! first) selects the *matrix's* value and is nobody's row.
//!
//! Element-wise ops additionally register PLUS/TIMES/MIN/MAX over the four
//! numeric types and LOR/LAND over bool; apply registers IDENTITY, AINV,
//! ABS, and LNOT. Everything else — user-defined operators, unregistered
//! types, operators with customized terminals — returns `None` and the
//! caller transparently falls back to the existing `dyn Fn` path, so the
//! registry is a pure fast path with no semantic surface: every static fn
//! here is behaviorally identical (byte-exact, argument order included)
//! to the closure the dyn path would have used, which the equivalence
//! tests in `crates/core/tests/registry_equiv.rs` pin down pair by pair.
//!
//! Opt-out: `GRB_DISPATCH=dyn` in the environment (read once), or
//! [`force_dispatch`]`(Some(false))` at runtime (used by the bench
//! harness's ablation arm). Dispatch decisions are observable through
//! `obs::counters::dispatch()` and `dispatch-pick` decision events.

use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use graphblas_exec::Context;
use graphblas_sparse::spmv::{Hooks, OutputFilter, Terminal};
use graphblas_sparse::{ewise, spgemm, spmv, BitmapVec, Csr, DenseVec, SparseVec, VecOut, VecView};

use crate::ops::{BuiltinOp, BuiltinUnaryOp};
use crate::types::{BoundedValue, One, ValueType};

// ---------------------------------------------------------------------------
// Dispatch-mode knobs
// ---------------------------------------------------------------------------

/// 0 = follow `GRB_DISPATCH`, 1 = force registry on, 2 = force dyn.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Overrides the registry on/off decision at runtime, bypassing the
/// `GRB_DISPATCH` environment setting: `Some(true)` forces static
/// dispatch, `Some(false)` forces the dyn fallback everywhere, `None`
/// restores the environment default. The bench harness uses this for its
/// static-vs-dyn ablation; mirrors `operations::force_direction`.
pub fn force_dispatch(mode: Option<bool>) {
    let v = match mode {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    // SeqCst like FORCE_DIRECTION: a test/bench knob, not a hot path.
    FORCE.store(v, Ordering::SeqCst);
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("GRB_DISPATCH")
            .map(|v| !v.eq_ignore_ascii_case("dyn"))
            .unwrap_or(true)
    })
}

/// Whether the registry may claim kernels right now.
#[inline]
pub fn enabled() -> bool {
    match FORCE.load(Ordering::SeqCst) {
        1 => true,
        2 => false,
        _ => env_enabled(),
    }
}

/// Records one dispatch decision (counter + `dispatch-pick` event) when
/// telemetry is on. The `try_*` entry points record their own static
/// hits; call sites record `is_static = false` when a registry miss sends
/// them down the dyn path, so hits/fallbacks partition actual dispatches.
pub fn record_pick(op: &'static str, ctx_id: u64, is_static: bool) {
    if graphblas_obs::enabled() {
        graphblas_obs::counters::record_dispatch_pick(is_static);
        graphblas_obs::events::decision_dispatch(op, ctx_id, is_static);
    }
}

// ---------------------------------------------------------------------------
// Identity-preserving casts
// ---------------------------------------------------------------------------
//
// Once an arm's `TypeId` guards have passed, `A` *is* `$t`; these casts
// let the type system in on that fact. They return `Option` (an arm whose
// guard passed can't actually fail) so a surprise is a silent dyn
// fallback, never a panic in a hot kernel.

#[inline]
fn cast_ref<Src: Any, Dst: Any>(v: &Src) -> Option<&Dst> {
    (v as &dyn Any).downcast_ref::<Dst>()
}

/// A vector operand at the element type an arm's guard proved `Src` to be,
/// in whichever format it is stored.
#[inline]
fn cast_view<'a, Src: Any, Dst: Any>(v: VecView<'a, Src>) -> Option<VecView<'a, Dst>> {
    Some(match v {
        VecView::Sparse(s) => VecView::Sparse(cast_ref(s)?),
        VecView::Full(d) => VecView::Full(cast_ref(d)?),
    })
}

#[inline]
fn cast_val<Src: Any, Dst: Any>(v: Src) -> Option<Dst> {
    (Box::new(v) as Box<dyn Any>)
        .downcast::<Dst>()
        .ok()
        .map(|b| *b)
}

// ---------------------------------------------------------------------------
// The static operator set
// ---------------------------------------------------------------------------
//
// Plain generic `fn` items. Monomorphized at a registered type each is a
// zero-sized value kernels take by value — static dispatch the optimizer
// sees through. Bodies mirror the canonical constructor closures in
// `binary.rs` / `monoid.rs` / `unary.rs` exactly.

/// `GrB_TIMES` as multiply: `x ⊗ y = x * y`.
fn mul_times<T: Copy + std::ops::Mul<Output = T>>(x: &T, y: &T) -> T {
    *x * *y
}

/// `GrB_PLUS` as multiply or ewise op: `x + y`.
fn mul_plus<T: Copy + std::ops::Add<Output = T>>(x: &T, y: &T) -> T {
    *x + *y
}

/// `GrB_LAND` as multiply or ewise op.
fn mul_land(x: &bool, y: &bool) -> bool {
    *x && *y
}

/// `GrB_ONEB` (pair): 1 whenever both operands exist.
fn mul_oneb<T: One>(_x: &T, _y: &T) -> T {
    T::one()
}

/// `GrB_SECOND` over a matrix of any element type, matrix element first:
/// the vector's value. A fn item, not a closure in [`try_matvec`]: a
/// closure inherits every generic of the fn that defines it, so each
/// `try_matvec<A, X, Z, K>` instance would compile its own copy of every
/// kernel it is passed to; this one depends on `(A, T)` alone.
fn second_of<A, T: Copy>(_: &A, x: &T) -> T {
    *x
}

/// `GrB_MIN` as ewise op (same comparison shape as `BinaryOp::min`).
fn bin_min<T: Copy + PartialOrd>(x: &T, y: &T) -> T {
    if y < x {
        *y
    } else {
        *x
    }
}

/// `GrB_MAX` as ewise op.
fn bin_max<T: Copy + PartialOrd>(x: &T, y: &T) -> T {
    if y > x {
        *y
    } else {
        *x
    }
}

/// `GrB_LOR` as ewise op.
fn bin_lor(x: &bool, y: &bool) -> bool {
    *x || *y
}

/// PLUS monoid as a by-value fold (spmv/vxm/reduce accumulate shape).
fn fold_plus<T: Copy + std::ops::Add<Output = T>>(p: T, q: T) -> T {
    p + q
}

/// MIN monoid as a by-value fold.
fn fold_min<T: Copy + PartialOrd>(p: T, q: T) -> T {
    if q < p {
        q
    } else {
        p
    }
}

/// MAX monoid as a by-value fold.
fn fold_max<T: Copy + PartialOrd>(p: T, q: T) -> T {
    if q > p {
        q
    } else {
        p
    }
}

/// LOR monoid as a by-value fold.
fn fold_lor(p: bool, q: bool) -> bool {
    p || q
}

/// ANY monoid as a by-value fold: the first witness wins.
fn fold_any<T>(p: T, _q: T) -> T {
    p
}

/// PLUS monoid as an in-place accumulator (spgemm SPA shape).
fn acc_plus<T: Copy + std::ops::Add<Output = T>>(p: &mut T, q: T) {
    *p = *p + q;
}

/// MIN monoid as an in-place accumulator.
fn acc_min<T: Copy + PartialOrd>(p: &mut T, q: T) {
    if q < *p {
        *p = q;
    }
}

/// MAX monoid as an in-place accumulator.
fn acc_max<T: Copy + PartialOrd>(p: &mut T, q: T) {
    if q > *p {
        *p = q;
    }
}

/// LOR monoid as an in-place accumulator.
fn acc_lor(p: &mut bool, q: bool) {
    *p = *p || q;
}

/// ANY monoid as an in-place accumulator: keep the first witness.
fn acc_any<T>(_p: &mut T, _q: T) {}

/// MIN monoid terminal: the annihilator is the domain minimum.
fn term_min<T: BoundedValue + PartialEq>(x: &T) -> bool {
    *x == T::min_value()
}

/// MAX monoid terminal: the annihilator is the domain maximum.
fn term_max<T: BoundedValue + PartialEq>(x: &T) -> bool {
    *x == T::max_value()
}

/// LOR monoid terminal: `true` annihilates.
fn term_true(x: &bool) -> bool {
    *x
}

/// ANY monoid terminal: every value is terminal.
fn term_always<T>(_x: &T) -> bool {
    true
}

/// `GrB_IDENTITY` / structural mask predicate building block.
fn map_clone<T: Clone>(v: &T) -> T {
    v.clone()
}

/// The boolean mask predicate `mxm` passes to the masked kernel.
fn pred_bool(b: &bool) -> bool {
    *b
}

/// `GrB_AINV` for signed/float domains.
fn uop_ainv<T: Copy + std::ops::Neg<Output = T>>(x: &T) -> T {
    -*x
}

fn uop_abs_f64(x: &f64) -> f64 {
    x.abs()
}

fn uop_abs_f32(x: &f32) -> f32 {
    x.abs()
}

fn uop_abs_i64(x: &i64) -> i64 {
    x.abs()
}

/// `GrB_LNOT`.
fn uop_lnot(x: &bool) -> bool {
    !*x
}

// ---------------------------------------------------------------------------
// The registration tables
// ---------------------------------------------------------------------------

/// The semiring table. Expands `$arm!(add, mul, type, fold, acc, mulf,
/// term)` once per registered (⊕, ⊗, type) row; each `try_*` entry point
/// supplies a local `arm!` that turns one row into a guarded monomorphic
/// kernel call. Note each (add, type) pair appears at most once, so the
/// reduce entry points reuse this table keyed on the add tag alone.
macro_rules! with_registered_semirings {
    ($arm:ident) => {
        $arm!(Plus, Times, f64, fold_plus, acc_plus, mul_times, none_term);
        $arm!(Plus, Times, f32, fold_plus, acc_plus, mul_times, none_term);
        $arm!(Plus, Times, i64, fold_plus, acc_plus, mul_times, none_term);
        $arm!(Plus, Times, u64, fold_plus, acc_plus, mul_times, none_term);
        $arm!(Min, Plus, f64, fold_min, acc_min, mul_plus, some_term_min);
        $arm!(Min, Plus, f32, fold_min, acc_min, mul_plus, some_term_min);
        $arm!(Min, Plus, i64, fold_min, acc_min, mul_plus, some_term_min);
        $arm!(Min, Plus, u64, fold_min, acc_min, mul_plus, some_term_min);
        $arm!(Max, Plus, f64, fold_max, acc_max, mul_plus, some_term_max);
        $arm!(Max, Plus, f32, fold_max, acc_max, mul_plus, some_term_max);
        $arm!(Max, Plus, i64, fold_max, acc_max, mul_plus, some_term_max);
        $arm!(Max, Plus, u64, fold_max, acc_max, mul_plus, some_term_max);
        $arm!(LOr, LAnd, bool, fold_lor, acc_lor, mul_land, some_term_true);
        $arm!(
            Any,
            OneB,
            bool,
            fold_any,
            acc_any,
            mul_oneb,
            some_term_always
        );
    };
}

/// The element-wise binary-op table: `$arm!(tag, type, opf)`.
macro_rules! with_registered_binops {
    ($arm:ident) => {
        $arm!(Plus, f64, mul_plus);
        $arm!(Plus, f32, mul_plus);
        $arm!(Plus, i64, mul_plus);
        $arm!(Plus, u64, mul_plus);
        $arm!(Times, f64, mul_times);
        $arm!(Times, f32, mul_times);
        $arm!(Times, i64, mul_times);
        $arm!(Times, u64, mul_times);
        $arm!(Min, f64, bin_min);
        $arm!(Min, f32, bin_min);
        $arm!(Min, i64, bin_min);
        $arm!(Min, u64, bin_min);
        $arm!(Max, f64, bin_max);
        $arm!(Max, f32, bin_max);
        $arm!(Max, i64, bin_max);
        $arm!(Max, u64, bin_max);
        $arm!(LOr, bool, bin_lor);
        $arm!(LAnd, bool, mul_land);
    };
}

/// The unary-op table: `$arm!(tag, type, opf)`.
macro_rules! with_registered_unops {
    ($arm:ident) => {
        $arm!(Identity, f64, map_clone);
        $arm!(Identity, f32, map_clone);
        $arm!(Identity, i64, map_clone);
        $arm!(Identity, u64, map_clone);
        $arm!(Identity, bool, map_clone);
        $arm!(Ainv, f64, uop_ainv);
        $arm!(Ainv, f32, uop_ainv);
        $arm!(Ainv, i64, uop_ainv);
        $arm!(Abs, f64, uop_abs_f64);
        $arm!(Abs, f32, uop_abs_f32);
        $arm!(Abs, i64, uop_abs_i64);
        $arm!(Lnot, bool, uop_lnot);
    };
}

/// Resolves a semiring row's terminal selector to the concrete early-exit
/// test the monomorphic kernel takes: [`spmv::Never`] where the monoid has
/// none, so its loops carry no test; fn items otherwise, so the `Some`
/// variants stay zero-sized.
macro_rules! term_of {
    (none_term, $t:ty) => {
        spmv::Never
    };
    (some_term_min, $t:ty) => {
        Some(term_min::<$t>)
    };
    (some_term_max, $t:ty) => {
        Some(term_max::<$t>)
    };
    (some_term_true, $t:ty) => {
        Some(term_true)
    };
    (some_term_always, $t:ty) => {
        Some(term_always::<$t>)
    };
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------
//
// Tag arguments are `Option<BuiltinOp>` (from `Monoid::builtin()` /
// `BinaryOp::builtin()`) rather than operator objects, so one entry point
// serves a `Semiring` of either argument order (mxv's `Semiring<A, X, C>`
// vs. vxm's `Semiring<X, A, C>`). Operand order is the *caller's* to fix,
// because FIRST and SECOND are registered and not commutative:
// [`try_matvec`] takes its multiply tag **matrix element first** — `mxv`'s
// own order; `vxm` passes [`BuiltinOp::flipped`].

/// The element-map hook shape the fused entry points take: the DAG
/// drain's composed apply/select chain for one side of a kernel, typed at
/// the *caller's* generic element type.
pub type FusedHook<'a, T> = &'a (dyn Fn(usize, &T) -> Option<T> + Sync);

/// Builds the monomorphized adapter for a caller-typed fused hook inside
/// a registry arm whose `TypeId` guards have already passed: bridges
/// `Fn(usize, &X) -> Option<X>` to the `$t` the kernel instantiation
/// wants. The casts cannot fail post-guard; if one ever did the entry is
/// dropped, matching the registry's no-panic posture.
macro_rules! hook_adapter {
    ($hook:expr, $src:ty, $t:ty) => {
        $hook.map(|f| {
            move |j: usize, v: &$t| -> Option<$t> {
                let vs = cast_ref::<$t, $src>(v)?;
                f(j, vs).and_then(cast_val::<$src, $t>)
            }
        })
    };
}

/// The vector operand of one matrix-vector product, by the kernel that
/// consumes it. The matrix is already in the orientation that kernel reads.
pub enum Operand<'a, X> {
    /// Pull (`spmv`): each output row's dot product against a
    /// sparse-format vector.
    Pull(&'a SparseVec<X>),
    /// Pull against a bitmap-format vector (`spmv_bitmap`), consumed
    /// without a format conversion.
    PullBitmap(&'a BitmapVec<X>),
    /// Pull against a full vector: the row loop indexes its values
    /// directly.
    PullFull(&'a DenseVec<X>),
    /// Push (`vxm`): the vector's entries scattered through their matrix
    /// rows.
    Push(&'a SparseVec<X>),
}

impl<X> Clone for Operand<'_, X> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<X> Copy for Operand<'_, X> {}

impl<'a, X: Any> Operand<'a, X> {
    /// The same operand at the element type a registry arm's guard proved
    /// `X` to be.
    fn retyped<T: Any>(self) -> Option<Operand<'a, T>> {
        Some(match self {
            Operand::Pull(x) => Operand::Pull(cast_ref(x)?),
            Operand::PullBitmap(x) => Operand::PullBitmap(cast_ref(x)?),
            Operand::PullFull(x) => Operand::PullFull(cast_ref(x)?),
            Operand::Push(x) => Operand::Push(cast_ref(x)?),
        })
    }
}

/// Runs the kernel `u` selects: `w = A ⊕.⊗ u` with `mul` taking the matrix
/// element first in every direction (the push kernel's vector-first
/// multiply is adapted here). The one kernel call behind every
/// [`try_matvec`] arm and behind `mxv`/`vxm`'s dyn fallback.
pub(crate) fn matvec<A, X, Z, FM, FA, FT, K>(
    ctx: &Context,
    a: &Csr<A>,
    u: Operand<'_, X>,
    mul: FM,
    add: FA,
    is_terminal: FT,
    hooks: Hooks<'_, X, Z, K>,
) -> SparseVec<Z>
where
    A: ValueType,
    X: ValueType,
    Z: ValueType,
    FM: Fn(&A, &X) -> Z + Sync,
    FA: Fn(Z, Z) -> Z + Sync,
    FT: Terminal<Z>,
    K: OutputFilter,
{
    match u {
        Operand::Pull(x) => spmv::spmv_fused(ctx, a, x, mul, add, is_terminal, hooks),
        Operand::PullBitmap(x) => spmv::spmv_bitmap_fused(ctx, a, x, mul, add, is_terminal, hooks),
        Operand::PullFull(x) => spmv::spmv_full_fused(ctx, a, x, mul, add, is_terminal, hooks),
        // Scattering u's nonzeros through the rows of the other
        // orientation computes the same product.
        Operand::Push(x) => spmv::vxm_fused(ctx, x, a, |xv: &X, av: &A| mul(av, xv), add, hooks),
    }
}

/// `w = A ⊕.⊗ u` through a registered instantiation, in whichever
/// direction and vector format `u` names, with the caller-typed kernel
/// [`Hooks`]: fused pre/post element maps folded into the numeric phase
/// (nonblocking DAG cross-operation fusion, paper §III) and the output
/// mask's filter. `mul_tag` reads **matrix element first**. Each
/// (add, type) row of the table is claimed under three multiplies:
///
/// * the row's own (`A == X == Z == $t`);
/// * SECOND — the product is the *vector's* value — over a matrix of any
///   element type: a multiply that never reads the matrix needs no guard on
///   what the matrix stores, so the kernel is instantiated over the
///   caller's `Csr<A>` as it is (structure only; a stored `false` or `0`
///   counts like any other entry);
/// * ONEB/PAIR, value-blind on both sides, run as SECOND over the vector
///   with its values rewritten to 1 on the way in.
///
/// FIRST — the *matrix's* value — is never claimed here.
pub fn try_matvec<A, X, Z, K>(
    op: &'static str,
    ctx: &Context,
    a: &Csr<A>,
    u: Operand<'_, X>,
    add_tag: Option<BuiltinOp>,
    mul_tag: Option<BuiltinOp>,
    hooks: Hooks<'_, X, Z, K>,
) -> Option<SparseVec<Z>>
where
    A: ValueType,
    X: ValueType,
    Z: ValueType,
    K: OutputFilter,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($add:ident, $mul:ident, $t:ty, $fold:ident, $acc:ident, $mulf:ident, $term:ident) => {
            if add_tag == Some(BuiltinOp::$add)
                && TypeId::of::<X>() == TypeId::of::<$t>()
                && TypeId::of::<Z>() == TypeId::of::<$t>()
            {
                let ut = u.retyped::<$t>()?;
                let pre_t = hook_adapter!(hooks.pre, X, $t);
                let post_t = hook_adapter!(hooks.post, Z, $t);
                let hooks_t = Hooks {
                    pre: pre_t.as_ref().map(|f| f as FusedHook<'_, $t>),
                    post: post_t.as_ref().map(|f| f as FusedHook<'_, $t>),
                    // Index-typed: passes through untouched.
                    keep: hooks.keep,
                };
                let term = term_of!($term, $t);
                let y = if mul_tag == Some(BuiltinOp::$mul)
                    && TypeId::of::<A>() == TypeId::of::<$t>()
                {
                    let at = cast_ref::<Csr<A>, Csr<$t>>(a)?;
                    Some(matvec(ctx, at, ut, $mulf, $fold, term, hooks_t))
                } else if mul_tag == Some(BuiltinOp::Second) {
                    Some(matvec(ctx, a, ut, second_of::<A, $t>, $fold, term, hooks_t))
                } else if mul_tag == Some(BuiltinOp::OneB) {
                    // PAIR is SECOND over a vector of ones. Rewriting the
                    // values as they enter the kernel (once per vector
                    // entry, after the caller's own input maps) reuses the
                    // SECOND instantiation instead of doubling the number
                    // of kernels compiled per matrix type.
                    let ones = |j: usize, v: &$t| match hooks_t.pre {
                        Some(f) => f(j, v).map(|_| <$t as One>::one()),
                        None => Some(<$t as One>::one()),
                    };
                    let hooks_t = Hooks {
                        pre: Some(&ones as FusedHook<'_, $t>),
                        ..hooks_t
                    };
                    Some(matvec(ctx, a, ut, second_of::<A, $t>, $fold, term, hooks_t))
                } else {
                    None
                };
                if let Some(y) = y {
                    let y = cast_val::<SparseVec<$t>, SparseVec<Z>>(y)?;
                    record_pick(op, ctx.id(), true);
                    return Some(y);
                }
            }
        };
    }
    with_registered_semirings!(arm);
    None
}

/// Runs `C = A ⊕.⊗ B`, or `C⟨M⟩ = A ⊕.⊗ B` under a boolean `(mask,
/// complement)` whose stored `false` entries forbid their position. The one
/// kernel call behind every [`try_spgemm`] arm and behind `mxm`'s dyn
/// fallback.
pub(crate) fn matmat<A, B, Z, FM, FA>(
    ctx: &Context,
    mask: Option<(&Csr<bool>, bool)>,
    a: &Csr<A>,
    b: &Csr<B>,
    mul: FM,
    add: FA,
) -> Csr<Z>
where
    A: ValueType,
    B: ValueType,
    Z: ValueType,
    FM: Fn(&A, &B) -> Z + Sync,
    FA: Fn(&mut Z, Z) + Sync,
{
    match mask {
        Some((m, complement)) => {
            spgemm::spgemm_masked(ctx, m, complement, pred_bool, a, b, mul, add)
        }
        None => spgemm::spgemm(ctx, a, b, mul, add),
    }
}

/// `C = A ⊕.⊗ B`, optionally masked, through a registered instantiation:
/// a table row over `A == B == Z == $t`, or PLUS.PAIR into any PLUS row's
/// type over operands of *any* element types — the multiply reads neither
/// value, so the structure-counting products (`triangle_count`, `lcc`,
/// `ktruss` over a `Matrix<bool>`) need no guard on what the operands
/// store.
pub fn try_spgemm<A, B, Z>(
    ctx: &Context,
    mask: Option<(&Csr<bool>, bool)>,
    a: &Csr<A>,
    b: &Csr<B>,
    add_tag: Option<BuiltinOp>,
    mul_tag: Option<BuiltinOp>,
) -> Option<Csr<Z>>
where
    A: ValueType,
    B: ValueType,
    Z: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! claim {
        ($t:ty, $c:expr) => {{
            let c = cast_val::<Csr<$t>, Csr<Z>>($c)?;
            record_pick("mxm", ctx.id(), true);
            return Some(c);
        }};
    }
    macro_rules! arm {
        // Matched first: a PLUS row is its own semiring and PLUS.PAIR.
        (Plus, $mul:ident, $t:ty, $fold:ident, $acc:ident, $mulf:ident, $term:ident) => {
            arm!(@row Plus, $mul, $t, $acc, $mulf);
            if add_tag == Some(BuiltinOp::Plus)
                && mul_tag == Some(BuiltinOp::OneB)
                && TypeId::of::<Z>() == TypeId::of::<$t>()
            {
                let pair = |_: &A, _: &B| <$t as One>::one();
                claim!($t, matmat(ctx, mask, a, b, pair, $acc));
            }
        };
        ($add:ident, $mul:ident, $t:ty, $fold:ident, $acc:ident, $mulf:ident, $term:ident) => {
            arm!(@row $add, $mul, $t, $acc, $mulf);
        };
        (@row $add:ident, $mul:ident, $t:ty, $acc:ident, $mulf:ident) => {
            if add_tag == Some(BuiltinOp::$add)
                && mul_tag == Some(BuiltinOp::$mul)
                && TypeId::of::<A>() == TypeId::of::<$t>()
                && TypeId::of::<B>() == TypeId::of::<$t>()
                && TypeId::of::<Z>() == TypeId::of::<$t>()
            {
                let at = cast_ref::<Csr<A>, Csr<$t>>(a)?;
                let bt = cast_ref::<Csr<B>, Csr<$t>>(b)?;
                claim!($t, matmat(ctx, mask, at, bt, $mulf, $acc));
            }
        };
    }
    with_registered_semirings!(arm);
    None
}

/// Matrix element-wise union (`ewise_add`) through a registered binop.
pub fn try_ewise_union<T>(
    ctx: &Context,
    a: &Csr<T>,
    b: &Csr<T>,
    tag: Option<BuiltinOp>,
) -> Option<Csr<T>>
where
    T: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($op:ident, $t:ty, $opf:ident) => {
            if tag == Some(BuiltinOp::$op) && TypeId::of::<T>() == TypeId::of::<$t>() {
                let at = cast_ref::<Csr<T>, Csr<$t>>(a)?;
                let bt = cast_ref::<Csr<T>, Csr<$t>>(b)?;
                let c = ewise::ewise_union(ctx, at, bt, $opf);
                let c = cast_val::<Csr<$t>, Csr<T>>(c)?;
                record_pick("ewise_add", ctx.id(), true);
                return Some(c);
            }
        };
    }
    with_registered_binops!(arm);
    None
}

/// Matrix element-wise intersection (`ewise_mult`) through a registered
/// binop.
pub fn try_ewise_intersect<A, B, Z>(
    ctx: &Context,
    a: &Csr<A>,
    b: &Csr<B>,
    tag: Option<BuiltinOp>,
) -> Option<Csr<Z>>
where
    A: ValueType,
    B: ValueType,
    Z: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($op:ident, $t:ty, $opf:ident) => {
            if tag == Some(BuiltinOp::$op)
                && TypeId::of::<A>() == TypeId::of::<$t>()
                && TypeId::of::<B>() == TypeId::of::<$t>()
                && TypeId::of::<Z>() == TypeId::of::<$t>()
            {
                let at = cast_ref::<Csr<A>, Csr<$t>>(a)?;
                let bt = cast_ref::<Csr<B>, Csr<$t>>(b)?;
                let c = ewise::ewise_intersect(ctx, at, bt, $opf);
                let c = cast_val::<Csr<$t>, Csr<Z>>(c)?;
                record_pick("ewise_mult", ctx.id(), true);
                return Some(c);
            }
        };
    }
    with_registered_binops!(arm);
    None
}

/// Vector element-wise union through a registered binop, over operands in
/// either [`VecView`] format.
pub fn try_svec_union<T>(
    ctx: &Context,
    a: VecView<'_, T>,
    b: VecView<'_, T>,
    tag: Option<BuiltinOp>,
) -> Option<VecOut<T>>
where
    T: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($op:ident, $t:ty, $opf:ident) => {
            if tag == Some(BuiltinOp::$op) && TypeId::of::<T>() == TypeId::of::<$t>() {
                let at = cast_view::<T, $t>(a)?;
                let bt = cast_view::<T, $t>(b)?;
                let c = ewise::svec_union(ctx, at, bt, $opf);
                let c = cast_val::<VecOut<$t>, VecOut<T>>(c)?;
                record_pick("ewise_add_v", ctx.id(), true);
                return Some(c);
            }
        };
    }
    with_registered_binops!(arm);
    None
}

/// Vector element-wise intersection through a registered binop.
pub fn try_svec_intersect<A, B, Z>(
    ctx: &Context,
    a: VecView<'_, A>,
    b: VecView<'_, B>,
    tag: Option<BuiltinOp>,
) -> Option<VecOut<Z>>
where
    A: ValueType,
    B: ValueType,
    Z: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($op:ident, $t:ty, $opf:ident) => {
            if tag == Some(BuiltinOp::$op)
                && TypeId::of::<A>() == TypeId::of::<$t>()
                && TypeId::of::<B>() == TypeId::of::<$t>()
                && TypeId::of::<Z>() == TypeId::of::<$t>()
            {
                let at = cast_view::<A, $t>(a)?;
                let bt = cast_view::<B, $t>(b)?;
                let c = ewise::svec_intersect(ctx, at, bt, $opf);
                let c = cast_val::<VecOut<$t>, VecOut<Z>>(c)?;
                record_pick("ewise_mult_v", ctx.id(), true);
                return Some(c);
            }
        };
    }
    with_registered_binops!(arm);
    None
}

/// Full-matrix reduction through a registered monoid (keyed on the add
/// tag alone — each (add, type) pair appears at most once in the semiring
/// table). Outer `Option` = registry hit; inner = the reduction's result
/// (`None` for an empty matrix).
pub fn try_reduce_csr<T>(ctx: &Context, a: &Csr<T>, add_tag: Option<BuiltinOp>) -> Option<Option<T>>
where
    T: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($add:ident, $mul:ident, $t:ty, $fold:ident, $acc:ident, $mulf:ident, $term:ident) => {
            if add_tag == Some(BuiltinOp::$add) && TypeId::of::<T>() == TypeId::of::<$t>() {
                let at = cast_ref::<Csr<T>, Csr<$t>>(a)?;
                let r = at.reduce_all(ctx, map_clone, $fold, term_of!($term, $t));
                let r = match r {
                    Some(v) => Some(cast_val::<$t, T>(v)?),
                    None => None,
                };
                record_pick("reduce", ctx.id(), true);
                return Some(r);
            }
        };
    }
    with_registered_semirings!(arm);
    None
}

/// Full-vector reduction through a registered monoid.
pub fn try_reduce_svec<T>(
    ctx: &Context,
    u: VecView<'_, T>,
    add_tag: Option<BuiltinOp>,
) -> Option<Option<T>>
where
    T: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($add:ident, $mul:ident, $t:ty, $fold:ident, $acc:ident, $mulf:ident, $term:ident) => {
            if add_tag == Some(BuiltinOp::$add) && TypeId::of::<T>() == TypeId::of::<$t>() {
                let ut = cast_view::<T, $t>(u)?;
                let r = ut.reduce(ctx, map_clone, $fold, term_of!($term, $t));
                let r = match r {
                    Some(v) => Some(cast_val::<$t, T>(v)?),
                    None => None,
                };
                record_pick("reduce_v", ctx.id(), true);
                return Some(r);
            }
        };
    }
    with_registered_semirings!(arm);
    None
}

/// Matrix `apply` through a registered unary op.
pub fn try_apply_csr<A, Z>(ctx: &Context, a: &Csr<A>, tag: Option<BuiltinUnaryOp>) -> Option<Csr<Z>>
where
    A: ValueType,
    Z: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($op:ident, $t:ty, $opf:ident) => {
            if tag == Some(BuiltinUnaryOp::$op)
                && TypeId::of::<A>() == TypeId::of::<$t>()
                && TypeId::of::<Z>() == TypeId::of::<$t>()
            {
                let at = cast_ref::<Csr<A>, Csr<$t>>(a)?;
                let c: Csr<$t> = at.map(ctx, $opf);
                let c = cast_val::<Csr<$t>, Csr<Z>>(c)?;
                record_pick("apply", ctx.id(), true);
                return Some(c);
            }
        };
    }
    with_registered_unops!(arm);
    None
}

/// Vector `apply` through a registered unary op.
pub fn try_apply_svec<A, Z>(
    ctx: &Context,
    u: VecView<'_, A>,
    tag: Option<BuiltinUnaryOp>,
) -> Option<VecOut<Z>>
where
    A: ValueType,
    Z: ValueType,
{
    if !enabled() {
        return None;
    }
    macro_rules! arm {
        ($op:ident, $t:ty, $opf:ident) => {
            if tag == Some(BuiltinUnaryOp::$op)
                && TypeId::of::<A>() == TypeId::of::<$t>()
                && TypeId::of::<Z>() == TypeId::of::<$t>()
            {
                let ut = cast_view::<A, $t>(u)?;
                let c: VecOut<$t> = ut.map_with_index(ctx, |_, v| $opf(v));
                let c = cast_val::<VecOut<$t>, VecOut<Z>>(c)?;
                record_pick("apply_v", ctx.id(), true);
                return Some(c);
            }
        };
    }
    with_registered_unops!(arm);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Monoid, Semiring};

    /// Serializes tests that flip the global dispatch knob.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn small_csr() -> Csr<i64> {
        Csr::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1i64, 2, 3]).unwrap()
    }

    /// `try_matvec` over a pull operand with no hooks.
    fn pull<A: ValueType, X: ValueType, Z: ValueType>(
        a: &Csr<A>,
        x: &SparseVec<X>,
        add_tag: Option<BuiltinOp>,
        mul_tag: Option<BuiltinOp>,
    ) -> Option<SparseVec<Z>> {
        let ctx = graphblas_exec::global_context();
        try_matvec(
            "mxv",
            &ctx,
            a,
            Operand::Pull(x),
            add_tag,
            mul_tag,
            Hooks::none(),
        )
    }

    #[test]
    fn claims_registered_semiring_only() {
        let _g = serialize();
        force_dispatch(Some(true));
        let a = small_csr();
        let x = SparseVec::from_parts(2, vec![0, 1], vec![1i64, 1]).unwrap();
        let sr = Semiring::<i64, i64, i64>::plus_times();
        let y: Option<SparseVec<i64>> = pull(&a, &x, sr.add().builtin(), sr.mul().builtin());
        let y = y.expect("plus_times/i64 is registered");
        assert_eq!(y.get(0), Some(&3));
        assert_eq!(y.get(1), Some(&3));
        // An untagged user semiring is never claimed.
        let user = Semiring::<i64, i64, i64>::new(
            Monoid::new(
                crate::ops::BinaryOp::new("uadd", |p: &i64, q: &i64| p + q),
                0,
            ),
            crate::ops::BinaryOp::new("umul", |x: &i64, y: &i64| x * y),
        );
        let miss: Option<SparseVec<i64>> = pull(&a, &x, user.add().builtin(), user.mul().builtin());
        assert!(miss.is_none());
        // An unregistered type is never claimed.
        let a32 = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![5i32]).unwrap();
        let x32 = SparseVec::from_parts(1, vec![0], vec![2i32]).unwrap();
        let sr32 = Semiring::<i32, i32, i32>::plus_times();
        let miss32: Option<SparseVec<i32>> =
            pull(&a32, &x32, sr32.add().builtin(), sr32.mul().builtin());
        assert!(miss32.is_none());
        force_dispatch(None);
    }

    #[test]
    fn value_blind_multiplies_are_claimed_over_any_matrix_type() {
        let _g = serialize();
        force_dispatch(Some(true));
        // Stored `false` still counts: structure only.
        let a =
            Csr::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![true, false, false]).unwrap();
        let x = SparseVec::from_parts(2, vec![0, 1], vec![10i64, 4]).unwrap();
        let (plus, min) = (Some(BuiltinOp::Plus), Some(BuiltinOp::Min));
        // Matrix-first SECOND is the vector's value.
        let y: SparseVec<i64> = pull(&a, &x, plus, Some(BuiltinOp::Second)).unwrap();
        assert_eq!((y.get(0), y.get(1)), (Some(&14), Some(&4)));
        let y: SparseVec<i64> = pull(&a, &x, min, Some(BuiltinOp::Second)).unwrap();
        assert_eq!((y.get(0), y.get(1)), (Some(&4), Some(&4)));
        let y: SparseVec<i64> = pull(&a, &x, plus, Some(BuiltinOp::OneB)).unwrap();
        assert_eq!((y.get(0), y.get(1)), (Some(&2), Some(&1)));
        // Matrix-first FIRST is the matrix's value: never value-blind, not
        // even when every type matches a table row.
        let miss: Option<SparseVec<i64>> = pull(&a, &x, plus, Some(BuiltinOp::First));
        assert!(miss.is_none());
        let miss: Option<SparseVec<i64>> = pull(&small_csr(), &x, min, Some(BuiltinOp::First));
        assert!(miss.is_none());
        // The vector and output types still need a table row.
        let x32 = SparseVec::from_parts(2, vec![0], vec![2i32]).unwrap();
        let miss: Option<SparseVec<i32>> = pull(&a, &x32, plus, Some(BuiltinOp::Second));
        assert!(miss.is_none());
        force_dispatch(None);
    }

    #[test]
    fn force_dyn_disables_every_entry_point() {
        let _g = serialize();
        let ctx = graphblas_exec::global_context();
        force_dispatch(Some(false));
        assert!(!enabled());
        let a = small_csr();
        let sr = Semiring::<i64, i64, i64>::plus_times();
        let miss: Option<Csr<i64>> =
            try_spgemm(&ctx, None, &a, &a, sr.add().builtin(), sr.mul().builtin());
        assert!(miss.is_none());
        force_dispatch(Some(true));
        assert!(enabled());
        let hit: Option<Csr<i64>> =
            try_spgemm(&ctx, None, &a, &a, sr.add().builtin(), sr.mul().builtin());
        assert!(hit.is_some());
        force_dispatch(None);
    }

    #[test]
    fn reduce_reuses_semiring_table_by_add_tag() {
        let _g = serialize();
        let ctx = graphblas_exec::global_context();
        force_dispatch(Some(true));
        let a = small_csr();
        let m = Monoid::<i64>::plus();
        let r = try_reduce_csr(&ctx, &a, m.builtin());
        assert_eq!(r, Some(Some(6)));
        // TIMES is registered only as a multiply, never as an add monoid.
        let times = Monoid::<i64>::times();
        assert!(try_reduce_csr(&ctx, &a, times.builtin()).is_none());
        force_dispatch(None);
    }
}
