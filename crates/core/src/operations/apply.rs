//! `GrB_apply` in all its GraphBLAS 2.0 variants: unary operator,
//! binary operator with a bound scalar (first or second), and the new
//! index-unary form `C⟨M, r⟩ = C ⊙ f(A, ind(A), s)` of §VIII.B — plus the
//! Table II `GrB_Scalar` variants of each bound-scalar form. All of them
//! are one element function ([`ElemOp`]) in front of one body per
//! container kind.
//!
//! **Fusion fast path**: an unmasked, unaccumulated, untransposed apply
//! whose input *is* its output (`apply(C, …, C)`) enqueues a fusible `Map`
//! stage instead of an opaque one; in nonblocking mode consecutive such
//! stages run as a single traversal at `wait` (§III).

use std::any::Any;
use std::sync::Arc;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::{Matrix, MatrixState};
use crate::operations::{eff_shape, snapshot_operand, Accum, Op};
use crate::ops::{registry, BinaryOp, BuiltinUnaryOp, IndexUnaryOp, UnaryOp};
use crate::pending::NodeKind;
use crate::scalar::Scalar;
use crate::types::{Index, MaskValue, ValueType};
use crate::vector::{Vector, VectorState};

/// Moves a value between two types that are statically known to possibly
/// coincide; succeeds exactly when `Src == Dst`.
fn same_type_cast<Src: 'static, Dst: 'static>(v: Src) -> Option<Dst> {
    let boxed: Box<dyn Any> = Box::new(v);
    boxed.downcast::<Dst>().ok().map(|b| *b)
}

/// The element function of one `apply` call: `(ind(a), a) → c`.
trait ElemOp<A, C>: Clone + Send + Sync + 'static {
    /// The same operator read over the output's own domain — what the
    /// in-place form queues as a `Map` stage (it exists iff `A == C`).
    type InPlace: ElemOp<C, C>;

    fn eval(&self, ind: &[Index], v: &A) -> C;

    /// The registry tag of an operator that goes through dispatch (`None`
    /// inside: a user operator, recorded as a dyn fallback). Index-aware
    /// operators have no registered kernels and record nothing.
    fn dispatch(&self) -> Option<Option<BuiltinUnaryOp>> {
        None
    }
}

impl<A: ValueType, C: ValueType> ElemOp<A, C> for UnaryOp<A, C> {
    type InPlace = UnaryOp<C, C>;

    fn eval(&self, _: &[Index], v: &A) -> C {
        self.apply(v)
    }

    fn dispatch(&self) -> Option<Option<BuiltinUnaryOp>> {
        Some(self.builtin())
    }
}

/// §VIII.B: an index-unary operator with its scalar `s` bound.
impl<A: ValueType, S: ValueType, C: ValueType> ElemOp<A, C> for (IndexUnaryOp<A, S, C>, S) {
    type InPlace = (IndexUnaryOp<C, S, C>, S);

    fn eval(&self, ind: &[Index], v: &A) -> C {
        self.0.apply(v, ind, &self.1)
    }
}

fn bound1st<A: ValueType, B: ValueType, C: ValueType>(
    op: &BinaryOp<A, B, C>,
    x: A,
) -> UnaryOp<B, C> {
    let op = op.clone();
    UnaryOp::new("bound1st", move |v| op.apply(&x, v))
}

fn bound2nd<A: ValueType, B: ValueType, C: ValueType>(
    op: &BinaryOp<A, B, C>,
    y: B,
) -> UnaryOp<A, C> {
    let op = op.clone();
    UnaryOp::new("bound2nd", move |v| op.apply(v, &y))
}

/// The in-place form of `e`, when the call is one and the domains agree.
fn in_place<A, C, E: ElemOp<A, C>>(fusible: bool, e: &E) -> Option<E::InPlace> {
    fusible.then(|| same_type_cast(e.clone())).flatten()
}

/// `C⟨M, r⟩ = C ⊙ e(A)`: every matrix `apply` entry. With `A` transposed
/// the indices `e` sees are those *after* the transpose, as the paper
/// specifies.
fn apply_m<C, A, E>(
    call: Op<'_, MatrixState<C>>,
    accum: Accum<'_, C>,
    e: E,
    a: &Matrix<A>,
) -> GrbResult
where
    C: ValueType,
    A: ValueType,
    E: ElemOp<A, C>,
{
    let transpose = call.desc.transpose_a;
    if let Some(e) = in_place(!transpose && call.in_place(accum, a.addr()), &e) {
        return call.run_in_place(Arc::new(move |ind, v| Some(e.eval(ind, v))));
    }
    a.check_context(&call.ctx)?;
    if call.shape() != eff_shape(a, transpose) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, transpose, false)?;
    call.run(NodeKind::Apply, accum, a_s.nnz(), move |x| {
        let registered = e.dispatch().and_then(|tag| {
            let t = registry::try_apply_csr(x.ctx, &a_s, tag);
            if t.is_none() {
                registry::record_pick("apply", x.ctx.id(), false);
            }
            t
        });
        Ok(registered.unwrap_or_else(|| a_s.map_with_index(x.ctx, |i, j, v| e.eval(&[i, j], v))))
    })
}

/// `w⟨m, r⟩ = w ⊙ e(u)`: every vector `apply` entry.
fn apply_vec<C, A, E>(
    call: Op<'_, VectorState<C>>,
    accum: Accum<'_, C>,
    e: E,
    u: &Vector<A>,
) -> GrbResult
where
    C: ValueType,
    A: ValueType,
    E: ElemOp<A, C>,
{
    if let Some(e) = in_place(call.in_place(accum, u.addr()), &e) {
        return call.run_in_place(Arc::new(move |ind, v| Some(e.eval(ind, v))));
    }
    u.check_context(&call.ctx)?;
    if call.shape() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_view()?;
    call.run(NodeKind::Apply, accum, u_s.nnz(), move |x| {
        let u = u_s.view();
        let registered = e.dispatch().and_then(|tag| {
            let t = registry::try_apply_svec(x.ctx, u, tag);
            if t.is_none() {
                registry::record_pick("apply_v", x.ctx.id(), false);
            }
            t
        });
        Ok(registered.unwrap_or_else(|| u.map_with_index(x.ctx, |i, v| e.eval(&[i], v))))
    })
}

/// `C⟨M, r⟩ = C ⊙ f(A)` with a unary operator.
pub fn apply<C, M, A>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &UnaryOp<A, C>,
    a: &Matrix<A>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
{
    let call = Op::begin("op.apply", &c.core, mask, desc)?;
    apply_m(call, accum, op.clone(), a)
}

/// Vector unary apply.
pub fn apply_v<C, M, A>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &UnaryOp<A, C>,
    u: &Vector<A>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
{
    let call = Op::begin("op.apply_v", &w.core, mask, desc)?;
    apply_vec(call, accum, op.clone(), u)
}

/// `C = C ⊙ op(x, A)` — binary operator with the first argument bound.
pub fn apply_binop1st<C, M, A, B>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    x: A,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop1st", &c.core, mask, desc)?;
    apply_m(call, accum, bound1st(op, x), b)
}

/// `C = C ⊙ op(A, y)` — binary operator with the second argument bound.
pub fn apply_binop2nd<C, M, A, B>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    a: &Matrix<A>,
    y: B,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop2nd", &c.core, mask, desc)?;
    apply_m(call, accum, bound2nd(op, y), a)
}

/// `w = w ⊙ op(x, u)` — vector form of [`apply_binop1st`].
pub fn apply_binop1st_v<C, M, A, B>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    x: A,
    u: &Vector<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop1st_v", &w.core, mask, desc)?;
    apply_vec(call, accum, bound1st(op, x), u)
}

/// `w = w ⊙ op(u, y)` — vector form of [`apply_binop2nd`].
pub fn apply_binop2nd_v<C, M, A, B>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    u: &Vector<A>,
    y: B,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop2nd_v", &w.core, mask, desc)?;
    apply_vec(call, accum, bound2nd(op, y), u)
}

/// Table II vector variant: bound first argument as a `GrB_Scalar`.
pub fn apply_binop1st_v_scalar<C, M, A, B>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    x: &Scalar<A>,
    u: &Vector<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop1st_v_scalar", &w.core, mask, desc)?;
    apply_vec(call, accum, bound1st(op, x.value()?), u)
}

/// Table II vector variant: bound second argument as a `GrB_Scalar`.
pub fn apply_binop2nd_v_scalar<C, M, A, B>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    u: &Vector<A>,
    y: &Scalar<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop2nd_v_scalar", &w.core, mask, desc)?;
    apply_vec(call, accum, bound2nd(op, y.value()?), u)
}

/// Table II variant: bound first argument supplied as a `GrB_Scalar`
/// (which must be non-empty — `GrB_EMPTY_OBJECT` otherwise).
pub fn apply_binop1st_scalar<C, M, A, B>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    x: &Scalar<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop1st_scalar", &c.core, mask, desc)?;
    apply_m(call, accum, bound1st(op, x.value()?), b)
}

/// Table II variant: bound second argument as a `GrB_Scalar`.
pub fn apply_binop2nd_scalar<C, M, A, B>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    op: &BinaryOp<A, B, C>,
    a: &Matrix<A>,
    y: &Scalar<B>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    B: ValueType,
{
    let call = Op::begin("op.apply_binop2nd_scalar", &c.core, mask, desc)?;
    apply_m(call, accum, bound2nd(op, y.value()?), a)
}

/// §VIII.B: `C⟨M, r⟩ = C ⊙ f(A, ind(A), 2, s)` — the index-unary apply.
/// When `A` is transposed the indices are those *after* the transpose, as
/// the paper specifies.
pub fn apply_indexop<C, M, A, S>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    f: &IndexUnaryOp<A, S, C>,
    a: &Matrix<A>,
    s: S,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    S: ValueType,
{
    let call = Op::begin("op.apply_indexop", &c.core, mask, desc)?;
    apply_m(call, accum, (f.clone(), s), a)
}

/// Table II: index-unary apply with `s` as a `GrB_Scalar`.
pub fn apply_indexop_scalar<C, M, A, S>(
    c: &Matrix<C>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    f: &IndexUnaryOp<A, S, C>,
    a: &Matrix<A>,
    s: &Scalar<S>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    S: ValueType,
{
    let call = Op::begin("op.apply_indexop_scalar", &c.core, mask, desc)?;
    apply_m(call, accum, (f.clone(), s.value()?), a)
}

/// §VIII.B vector form: `w⟨m, r⟩ = w ⊙ f(u, ind(u), 1, s)`.
pub fn apply_indexop_v<C, M, A, S>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    f: &IndexUnaryOp<A, S, C>,
    u: &Vector<A>,
    s: S,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    S: ValueType,
{
    let call = Op::begin("op.apply_indexop_v", &w.core, mask, desc)?;
    apply_vec(call, accum, (f.clone(), s), u)
}

/// Table II: vector index-unary apply with `s` as a `GrB_Scalar`.
pub fn apply_indexop_v_scalar<C, M, A, S>(
    w: &Vector<C>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<C, C, C>>,
    f: &IndexUnaryOp<A, S, C>,
    u: &Vector<A>,
    s: &Scalar<S>,
    desc: &Descriptor,
) -> GrbResult
where
    C: ValueType,
    M: MaskValue,
    A: ValueType,
    S: ValueType,
{
    let call = Op::begin("op.apply_indexop_v_scalar", &w.core, mask, desc)?;
    apply_vec(call, accum, (f.clone(), s.value()?), u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::testutil::{mat, mat_tuples, vec, vec_tuples};
    use crate::{no_mask, no_mask_v};

    #[test]
    fn unary_apply_maps_values() {
        let a = mat((2, 2), &[(0, 0, 2i64), (1, 1, 3)]);
        let c = Matrix::<i64>::new(2, 2).unwrap();
        apply(
            &c,
            no_mask(),
            None,
            &UnaryOp::new("sq", |x: &i64| x * x),
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 4), (1, 1, 9)]);
    }

    #[test]
    fn apply_with_domain_change() {
        let a = mat((1, 2), &[(0, 0, 1.5f64), (0, 1, -2.5)]);
        let c = Matrix::<i64>::new(1, 2).unwrap();
        apply(
            &c,
            no_mask(),
            None,
            &UnaryOp::new("round", |x: &f64| x.round() as i64),
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 2), (0, 1, -3)]);
    }

    #[test]
    fn bound_binops() {
        let a = mat((1, 2), &[(0, 0, 10i64), (0, 1, 20)]);
        let c = Matrix::<i64>::new(1, 2).unwrap();
        apply_binop1st(
            &c,
            no_mask(),
            None,
            &BinaryOp::minus(),
            100,
            &a,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 90), (0, 1, 80)]);
        apply_binop2nd(
            &c,
            no_mask(),
            None,
            &BinaryOp::minus(),
            &a,
            1,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 9), (0, 1, 19)]);
    }

    #[test]
    fn scalar_variants_require_nonempty() {
        let a = mat((1, 1), &[(0, 0, 1i64)]);
        let c = Matrix::<i64>::new(1, 1).unwrap();
        let s = Scalar::<i64>::new().unwrap();
        let err = apply_binop2nd_scalar(
            &c,
            no_mask(),
            None,
            &BinaryOp::plus(),
            &a,
            &s,
            &Descriptor::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), -106);
        s.set_element(5).unwrap();
        apply_binop2nd_scalar(
            &c,
            no_mask(),
            None,
            &BinaryOp::plus(),
            &a,
            &s,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 6)]);
    }

    #[test]
    fn paper_colindex_apply_example() {
        // §VIII.B: GrB_apply(C, NULL, NULL, GrB_COLINDEX_..., A, 1, NULL)
        // replaces every stored value with its column index + 1.
        let a = mat((3, 3), &[(0, 1, 99i64), (2, 0, 99), (2, 2, 99)]);
        let c = Matrix::<i64>::new(3, 3).unwrap();
        apply_indexop(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::colindex(),
            &a,
            1i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 1, 2), (2, 0, 1), (2, 2, 3)]);
    }

    #[test]
    fn indexop_on_vector_uses_single_index() {
        let u = vec(5, &[(1, 0i64), (4, 0)]);
        let w = Vector::<i64>::new(5).unwrap();
        apply_indexop_v(
            &w,
            no_mask_v(),
            None,
            &IndexUnaryOp::rowindex(),
            &u,
            10i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(1, 11), (4, 14)]);
    }

    #[test]
    fn in_place_apply_uses_fusion_path_in_nonblocking() {
        use graphblas_exec::{Context, ContextOptions, Mode};
        let ctx = Context::new(
            &crate::global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let c = Matrix::<i64>::new_in(&ctx, 2, 2).unwrap();
        c.build(&[0, 1], &[0, 1], &[1, 2], None).unwrap();
        for _ in 0..3 {
            apply(
                &c,
                no_mask(),
                None,
                &UnaryOp::new("inc", |x: &i64| x + 1),
                &c,
                &Descriptor::default(),
            )
            .unwrap();
        }
        // Three map stages queued behind the build stage, not yet run.
        assert!(c.pending_len() >= 3);
        assert_eq!(c.extract_element(0, 0).unwrap(), Some(4));
        assert_eq!(c.extract_element(1, 1).unwrap(), Some(5));
    }

    #[test]
    fn transposed_indexop_sees_post_transpose_indices() {
        let a = mat((2, 3), &[(0, 2, 7i64)]);
        let c = Matrix::<i64>::new(3, 2).unwrap();
        apply_indexop(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::rowindex(),
            &a,
            0i64,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        // After transpose the element sits at (2, 0): ROWINDEX yields 2.
        assert_eq!(mat_tuples(&c), vec![(2, 0, 2)]);
    }
}
