//! `GrB_apply` in all its GraphBLAS 2.0 variants: unary operator,
//! binary operator with a bound scalar (first or second), and the new
//! index-unary form `C⟨M, r⟩ = C ⊙ f(A, ind(A), s)` of §VIII.B — plus the
//! Table II `GrB_Scalar` variants of each bound-scalar form.
//!
//! **Fusion fast path**: an unmasked, unaccumulated, untransposed apply
//! whose input *is* its output (`apply(C, …, C)`) enqueues a fusible `Map`
//! stage instead of an opaque one; in nonblocking mode consecutive such
//! stages run as a single traversal at `wait` (§III).

use std::any::Any;
use std::sync::Arc;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, Error, ExecErrorKind, GrbResult};
use crate::matrix::{MatStore, Matrix};
use crate::operations::{
    eff_shape, note_dag_fusion, snapshot_matmask, snapshot_operand, snapshot_vecmask,
};
use crate::ops::{registry, BinaryOp, IndexUnaryOp, UnaryOp};
use crate::pending::{MapFn, NodeKind};
use crate::scalar::Scalar;
use crate::types::{MaskValue, ValueType};
use crate::vector::{VecStore, Vector};
use crate::write;

/// Moves a value between two types that are statically known to possibly
/// coincide; succeeds exactly when `Src == Dst`.
fn same_type_cast<Src: 'static, Dst: 'static>(v: Src) -> Option<Dst> {
    let boxed: Box<dyn Any> = Box::new(v);
    boxed.downcast::<Dst>().ok().map(|b| *b)
}

fn plain_desc(desc: &Descriptor) -> bool {
    !desc.transpose_a && !desc.replace
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
    // Fusion fast path: in-place, unmasked, no accumulator.
    if mask.is_none() && accum.is_none() && plain_desc(desc) && c.addr() == a.addr() {
        if let Some(op2) = same_type_cast::<UnaryOp<A, C>, UnaryOp<C, C>>(op.clone()) {
            let f: MapFn<C> = Arc::new(move |_, v| Some(op2.apply(v)));
            return c.core.apply_map(f);
        }
    }
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.apply", ctx.id());
    a.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if c.shape() != eff_shape(a, desc.transpose_a) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, &ctx, desc.transpose_a, false)?;
    let mask_s = snapshot_matmask(mask, desc)?;
    let op = op.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Apply,
        Box::new(move |st, post| {
            let nnz_in = a_s.nnz();
            let t = match registry::try_apply_csr(&ctx2, &a_s, op.builtin()) {
                Some(t) => t,
                None => {
                    registry::record_pick("apply", ctx2.id(), false);
                    a_s.map(&ctx2, |v| op.apply(v))
                }
            };
            note_dag_fusion("apply", ctx2.id(), NodeKind::Apply, 0, post.len(), nnz_in);
            if mask_s.is_none() && accum.is_none() {
                st.store = MatStore::Csr(Arc::new(t));
            } else {
                st.ensure_csr(&ctx2, true)?;
                let merged = write::merge_matrix(
                    &ctx2,
                    st.csr(),
                    t,
                    mask_s.as_ref(),
                    accum.as_ref(),
                    replace,
                );
                st.store = MatStore::Csr(Arc::new(merged));
            }
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    if mask.is_none() && accum.is_none() && !desc.replace && w.addr() == u.addr() {
        if let Some(op2) = same_type_cast::<UnaryOp<A, C>, UnaryOp<C, C>>(op.clone()) {
            let f: MapFn<C> = Arc::new(move |_, v| Some(op2.apply(v)));
            return w.core.apply_map(f);
        }
    }
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.apply_v", ctx.id());
    u.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if w.size() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let op = op.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx_id = ctx.id();
    w.core.apply_node(
        NodeKind::Apply,
        Box::new(move |st, post| {
            let nnz_in = u_s.nnz();
            let t = match registry::try_apply_svec(&u_s, op.builtin(), ctx_id) {
                Some(t) => t,
                None => {
                    registry::record_pick("apply_v", ctx_id, false);
                    u_s.map_with_index(|_, v| op.apply(v))
                }
            };
            note_dag_fusion("apply_v", ctx_id, NodeKind::Apply, 0, post.len(), nnz_in);
            if mask_s.is_none() && accum.is_none() {
                st.store = VecStore::Sparse(Arc::new(t));
            } else {
                st.ensure_sparse()?;
                let merged =
                    write::merge_vector(st.sparse(), t, mask_s.as_ref(), accum.as_ref(), replace);
                st.store = VecStore::Sparse(Arc::new(merged));
            }
            st.apply_post_maps(&ctx, &post)?;
            Ok(())
        }),
    )
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
    let _op = graphblas_obs::span_ctx("op.apply_binop1st", 0);
    let op = op.clone();
    let bound = UnaryOp::<B, C>::new("bound1st", move |v| op.apply(&x, v));
    apply(c, mask, accum, &bound, b, desc)
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
    let _op = graphblas_obs::span_ctx("op.apply_binop2nd", 0);
    let op = op.clone();
    let bound = UnaryOp::<A, C>::new("bound2nd", move |v| op.apply(v, &y));
    apply(c, mask, accum, &bound, a, desc)
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
    let _op = graphblas_obs::span_ctx("op.apply_binop1st_v", 0);
    let op = op.clone();
    let bound = UnaryOp::<B, C>::new("bound1st", move |v| op.apply(&x, v));
    apply_v(w, mask, accum, &bound, u, desc)
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
    let _op = graphblas_obs::span_ctx("op.apply_binop2nd_v", 0);
    let op = op.clone();
    let bound = UnaryOp::<A, C>::new("bound2nd", move |v| op.apply(v, &y));
    apply_v(w, mask, accum, &bound, u, desc)
}

fn scalar_value<S: ValueType>(s: &Scalar<S>) -> GrbResult<S> {
    s.extract_element()?.ok_or_else(|| {
        Error::exec(
            ExecErrorKind::EmptyObject,
            "operation requires a non-empty GrB_Scalar argument",
        )
    })
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
    let _op = graphblas_obs::span_ctx("op.apply_binop1st_v_scalar", 0);
    apply_binop1st_v(w, mask, accum, op, scalar_value(x)?, u, desc)
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
    let _op = graphblas_obs::span_ctx("op.apply_binop2nd_v_scalar", 0);
    apply_binop2nd_v(w, mask, accum, op, u, scalar_value(y)?, desc)
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
    let _op = graphblas_obs::span_ctx("op.apply_binop1st_scalar", 0);
    apply_binop1st(c, mask, accum, op, scalar_value(x)?, b, desc)
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
    let _op = graphblas_obs::span_ctx("op.apply_binop2nd_scalar", 0);
    apply_binop2nd(c, mask, accum, op, a, scalar_value(y)?, desc)
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
    if mask.is_none() && accum.is_none() && plain_desc(desc) && c.addr() == a.addr() {
        if let Some(f2) = same_type_cast::<IndexUnaryOp<A, S, C>, IndexUnaryOp<C, S, C>>(f.clone())
        {
            let g: MapFn<C> = Arc::new(move |idx, v| Some(f2.apply(v, idx, &s)));
            return c.core.apply_map(g);
        }
    }
    let ctx = c.context();
    let _op = graphblas_obs::span_ctx("op.apply_indexop", ctx.id());
    a.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.shape() != c.shape() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if c.shape() != eff_shape(a, desc.transpose_a) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, &ctx, desc.transpose_a, false)?;
    let mask_s = snapshot_matmask(mask, desc)?;
    let f = f.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx2 = ctx.clone();
    c.core.apply_node(
        NodeKind::Apply,
        Box::new(move |st, post| {
            let nnz_in = a_s.nnz();
            let t = a_s.map_with_index(&ctx2, |i, j, v| f.apply(v, &[i, j], &s));
            note_dag_fusion(
                "apply_indexop",
                ctx2.id(),
                NodeKind::Apply,
                0,
                post.len(),
                nnz_in,
            );
            if mask_s.is_none() && accum.is_none() {
                st.store = MatStore::Csr(Arc::new(t));
            } else {
                st.ensure_csr(&ctx2, true)?;
                let merged = write::merge_matrix(
                    &ctx2,
                    st.csr(),
                    t,
                    mask_s.as_ref(),
                    accum.as_ref(),
                    replace,
                );
                st.store = MatStore::Csr(Arc::new(merged));
            }
            st.apply_post_maps(&ctx2, &post)?;
            Ok(())
        }),
    )
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
    let _op = graphblas_obs::span_ctx("op.apply_indexop_scalar", 0);
    apply_indexop(c, mask, accum, f, a, scalar_value(s)?, desc)
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
    if mask.is_none() && accum.is_none() && !desc.replace && w.addr() == u.addr() {
        if let Some(f2) = same_type_cast::<IndexUnaryOp<A, S, C>, IndexUnaryOp<C, S, C>>(f.clone())
        {
            let g: MapFn<C> = Arc::new(move |idx, v| Some(f2.apply(v, idx, &s)));
            return w.core.apply_map(g);
        }
    }
    let ctx = w.context();
    let _op = graphblas_obs::span_ctx("op.apply_indexop_v", ctx.id());
    u.check_context(&ctx)?;
    if let Some(m) = mask {
        m.check_context(&ctx)?;
        if m.size() != w.size() {
            return Err(ApiError::DimensionMismatch.into());
        }
    }
    if w.size() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_sparse()?;
    let mask_s = snapshot_vecmask(mask, desc)?;
    let f = f.clone();
    let accum = accum.cloned();
    let replace = desc.replace;
    let ctx_id = ctx.id();
    w.core.apply_node(
        NodeKind::Apply,
        Box::new(move |st, post| {
            let nnz_in = u_s.nnz();
            let t = u_s.map_with_index(|i, v| f.apply(v, &[i], &s));
            note_dag_fusion(
                "apply_indexop_v",
                ctx_id,
                NodeKind::Apply,
                0,
                post.len(),
                nnz_in,
            );
            if mask_s.is_none() && accum.is_none() {
                st.store = VecStore::Sparse(Arc::new(t));
            } else {
                st.ensure_sparse()?;
                let merged =
                    write::merge_vector(st.sparse(), t, mask_s.as_ref(), accum.as_ref(), replace);
                st.store = VecStore::Sparse(Arc::new(merged));
            }
            st.apply_post_maps(&ctx, &post)?;
            Ok(())
        }),
    )
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
    let _op = graphblas_obs::span_ctx("op.apply_indexop_v_scalar", 0);
    apply_indexop_v(w, mask, accum, f, u, scalar_value(s)?, desc)
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
