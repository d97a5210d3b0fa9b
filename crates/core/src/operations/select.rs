//! `GrB_select` (§VIII.C) — new in GraphBLAS 2.0: a *functional input
//! mask*. A boolean index-unary operator decides, per stored element,
//! whether it is kept (unchanged) or annihilated:
//!
//! ```text
//! C⟨M, r⟩ = C ⊙ A⟨f(A, ind(A), 2, s)⟩
//! ```
//!
//! Like `apply`, the unmasked/unaccumulated in-place form enqueues a
//! fusible `Map` stage.

use std::sync::Arc;

use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::{Matrix, MatrixState};
use crate::operations::{eff_shape, snapshot_operand, Accum, Op};
use crate::ops::{BinaryOp, IndexUnaryOp};
use crate::pending::NodeKind;
use crate::scalar::Scalar;
use crate::types::{MaskValue, ValueType};
use crate::vector::{Vector, VectorState};

/// Every matrix `select` entry.
fn select_m<T, S>(
    call: Op<'_, MatrixState<T>>,
    accum: Accum<'_, T>,
    f: &IndexUnaryOp<T, S, bool>,
    a: &Matrix<T>,
    s: S,
) -> GrbResult
where
    T: ValueType,
    S: ValueType,
{
    let transpose = call.desc.transpose_a;
    let f = f.clone();
    // Same object means same domain by construction (both are T).
    if !transpose && call.in_place(accum, a.addr()) {
        return call.run_in_place(Arc::new(move |ind, v| {
            f.apply(v, ind, &s).then(|| v.clone())
        }));
    }
    a.check_context(&call.ctx)?;
    if call.shape() != eff_shape(a, transpose) {
        return Err(ApiError::DimensionMismatch.into());
    }
    let a_s = snapshot_operand(a, transpose, false)?;
    call.run(NodeKind::Select, accum, a_s.nnz(), move |x| {
        let keep = |i, j, v: &T| f.apply(v, &[i, j], &s).then(|| v.clone());
        Ok(a_s.filter_map_with_index(x.ctx, keep))
    })
}

/// Every vector `select` entry.
fn select_vec<T, S>(
    call: Op<'_, VectorState<T>>,
    accum: Accum<'_, T>,
    f: &IndexUnaryOp<T, S, bool>,
    u: &Vector<T>,
    s: S,
) -> GrbResult
where
    T: ValueType,
    S: ValueType,
{
    let f = f.clone();
    if call.in_place(accum, u.addr()) {
        return call.run_in_place(Arc::new(move |ind, v| {
            f.apply(v, ind, &s).then(|| v.clone())
        }));
    }
    u.check_context(&call.ctx)?;
    if call.shape() != u.size() {
        return Err(ApiError::DimensionMismatch.into());
    }
    let u_s = u.snapshot_view()?;
    call.run(NodeKind::Select, accum, u_s.nnz(), move |x| {
        let keep = |i, v: &T| f.apply(v, &[i], &s).then(|| v.clone());
        Ok(u_s.view().filter_map_with_index(x.ctx, keep))
    })
}

/// Matrix select: keep elements where `f` returns `true`.
pub fn select<T, M, S>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    a: &Matrix<T>,
    s: S,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    let call = Op::begin("op.select", &c.core, mask, desc)?;
    select_m(call, accum, f, a, s)
}

/// Table II variant with `s` as a `GrB_Scalar` (must be non-empty).
pub fn select_scalar<T, M, S>(
    c: &Matrix<T>,
    mask: Option<&Matrix<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    a: &Matrix<T>,
    s: &Scalar<S>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    let call = Op::begin("op.select_scalar", &c.core, mask, desc)?;
    select_m(call, accum, f, a, s.value()?)
}

/// Vector select: `w⟨m, r⟩ = w ⊙ u⟨f(u, ind(u), 1, s)⟩`.
pub fn select_v<T, M, S>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    u: &Vector<T>,
    s: S,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    let call = Op::begin("op.select_v", &w.core, mask, desc)?;
    select_vec(call, accum, f, u, s)
}

/// Table II variant with `s` as a `GrB_Scalar`.
pub fn select_v_scalar<T, M, S>(
    w: &Vector<T>,
    mask: Option<&Vector<M>>,
    accum: Option<&BinaryOp<T, T, T>>,
    f: &IndexUnaryOp<T, S, bool>,
    u: &Vector<T>,
    s: &Scalar<S>,
    desc: &Descriptor,
) -> GrbResult
where
    T: ValueType,
    M: MaskValue,
    S: ValueType,
{
    let call = Op::begin("op.select_v_scalar", &w.core, mask, desc)?;
    select_vec(call, accum, f, u, s.value()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operations::testutil::{mat, mat_tuples, vec, vec_tuples};
    use crate::{no_mask, no_mask_v};

    #[test]
    fn tril_triu_partition_the_matrix() {
        let a = mat(
            (3, 3),
            &[(0, 0, 1i64), (0, 2, 2), (1, 1, 3), (2, 0, 4), (2, 2, 5)],
        );
        let lower = Matrix::<i64>::new(3, 3).unwrap();
        select(
            &lower,
            no_mask(),
            None,
            &IndexUnaryOp::tril(),
            &a,
            0i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            mat_tuples(&lower),
            vec![(0, 0, 1), (1, 1, 3), (2, 0, 4), (2, 2, 5)]
        );
        let strict_upper = Matrix::<i64>::new(3, 3).unwrap();
        select(
            &strict_upper,
            no_mask(),
            None,
            &IndexUnaryOp::triu(),
            &a,
            1i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&strict_upper), vec![(0, 2, 2)]);
    }

    #[test]
    fn value_selectors() {
        let a = mat((1, 4), &[(0, 0, 5i64), (0, 1, 7), (0, 2, 5), (0, 3, 9)]);
        let c = Matrix::<i64>::new(1, 4).unwrap();
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valueeq(),
            &a,
            5i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 5), (0, 2, 5)]);
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &a,
            6i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 1, 7), (0, 3, 9)]);
    }

    #[test]
    fn paper_fig3_select_example() {
        // §VIII.A/C: keep upper-triangular elements with value > s (s = 0).
        let my_triu_gt =
            IndexUnaryOp::<i64, i64, bool>::new("triu_gt", |v, idx, s| idx[1] > idx[0] && v > s);
        let a = mat(
            (3, 3),
            &[(0, 1, 4i64), (0, 2, -1), (1, 0, 2), (1, 2, 3), (2, 2, 9)],
        );
        let c = Matrix::<i64>::new(3, 3).unwrap();
        select(
            &c,
            no_mask(),
            None,
            &my_triu_gt,
            &a,
            0i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 1, 4), (1, 2, 3)]);
    }

    #[test]
    fn vector_select_rowle_rowgt() {
        let u = vec(6, &[(0, 1i64), (2, 2), (4, 3), (5, 4)]);
        let w = Vector::<i64>::new(6).unwrap();
        select_v(
            &w,
            no_mask_v(),
            None,
            &IndexUnaryOp::rowle(),
            &u,
            2i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(0, 1), (2, 2)]);
        select_v(
            &w,
            no_mask_v(),
            None,
            &IndexUnaryOp::rowgt(),
            &u,
            2i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(vec_tuples(&w), vec![(4, 3), (5, 4)]);
    }

    #[test]
    fn select_scalar_variant_and_empty_error() {
        let a = mat((1, 2), &[(0, 0, 1i64), (0, 1, 5)]);
        let c = Matrix::<i64>::new(1, 2).unwrap();
        let s = Scalar::<i64>::new().unwrap();
        assert_eq!(
            select_scalar(
                &c,
                no_mask(),
                None,
                &IndexUnaryOp::valuegt(),
                &a,
                &s,
                &Descriptor::default()
            )
            .unwrap_err()
            .code(),
            -106
        );
        s.set_element(2).unwrap();
        select_scalar(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &a,
            &s,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 1, 5)]);
    }

    #[test]
    fn in_place_select_fuses() {
        use graphblas_exec::{Context, ContextOptions, Mode};
        let ctx = Context::new(
            &crate::global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let c = Matrix::<i64>::new_in(&ctx, 1, 4).unwrap();
        c.build(&[0, 0, 0, 0], &[0, 1, 2, 3], &[1, 2, 3, 4], None)
            .unwrap();
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &c,
            1i64,
            &Descriptor::default(),
        )
        .unwrap();
        select(
            &c,
            no_mask(),
            None,
            &IndexUnaryOp::valuegt(),
            &c,
            2i64,
            &Descriptor::default(),
        )
        .unwrap();
        assert!(c.pending_len() >= 2);
        assert_eq!(mat_tuples(&c), vec![(0, 2, 3), (0, 3, 4)]);
    }

    #[test]
    fn masked_select_merges() {
        let a = mat((1, 3), &[(0, 0, 1i64), (0, 1, 2), (0, 2, 3)]);
        let c = mat((1, 3), &[(0, 0, 100i64)]);
        let mask = mat((1, 3), &[(0, 1, true), (0, 2, true)]);
        // Select everything (valuegt -inf) but only inside the mask; old
        // (0,0) survives because it is outside the mask and replace is off.
        select(
            &c,
            Some(&mask),
            None,
            &IndexUnaryOp::valuegt(),
            &a,
            i64::MIN,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(mat_tuples(&c), vec![(0, 0, 100), (0, 1, 2), (0, 2, 3)]);
    }
}
