//! Paper §VI — Table I (all `GrB_Scalar` manipulation methods) and
//! Table II (the method families extended with `GrB_Scalar` variants),
//! exercised end-to-end through the public API.

use graphblas::operations::{
    all_indices, apply_binop1st, apply_binop1st_scalar, apply_binop1st_v, apply_binop1st_v_scalar,
    apply_binop2nd, apply_binop2nd_scalar, apply_binop2nd_v, apply_binop2nd_v_scalar,
    apply_indexop, apply_indexop_scalar, apply_indexop_v, apply_indexop_v_scalar, assign_scalar,
    assign_scalar_grb, assign_scalar_v, assign_scalar_v_grb, reduce_scalar, reduce_scalar_binop,
    reduce_scalar_binop_v, reduce_scalar_v, select, select_scalar, select_v, select_v_scalar,
};
use graphblas::{
    global_context, no_mask, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, GrbResult,
    Index, IndexUnaryOp, Matrix, Mode, Monoid, Scalar, Vector,
};

fn matrix() -> Matrix<i64> {
    let m = Matrix::<i64>::new(3, 3).unwrap();
    m.build(&[0, 1, 2], &[1, 2, 0], &[4, -1, 9], None).unwrap();
    m
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

#[test]
fn table1_new_dup_clear_nvals_set_extract() {
    // GrB_Scalar_new
    let s = Scalar::<f64>::new().unwrap();
    // nvals on empty
    assert_eq!(s.nvals().unwrap(), 0);
    // setElement / extractElement
    s.set_element(2.5).unwrap();
    assert_eq!(s.nvals().unwrap(), 1);
    assert_eq!(s.extract_element().unwrap(), Some(2.5));
    // dup
    let d = s.dup().unwrap();
    s.set_element(9.0).unwrap();
    assert_eq!(d.extract_element().unwrap(), Some(2.5));
    // clear
    s.clear().unwrap();
    assert_eq!(s.nvals().unwrap(), 0);
    assert_eq!(s.extract_element().unwrap(), None);
}

#[test]
fn table1_user_defined_domain() {
    #[derive(Clone, Debug, PartialEq)]
    struct Weight {
        cost: f64,
        hops: u32,
    }
    let s = Scalar::<Weight>::new().unwrap();
    s.set_element(Weight { cost: 1.5, hops: 3 }).unwrap();
    assert_eq!(
        s.extract_element().unwrap(),
        Some(Weight { cost: 1.5, hops: 3 })
    );
}

// ---------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------

#[test]
fn monoid_new_with_scalar_identity() {
    let id = Scalar::<i64>::new().unwrap();
    assert_eq!(
        Monoid::new_scalar(BinaryOp::plus(), &id).unwrap_err().code(),
        -106
    );
    id.set_element(0).unwrap();
    let m = Monoid::new_scalar(BinaryOp::plus(), &id).unwrap();
    assert_eq!(m.apply(&3, &4), 7);
}

#[test]
fn matrix_set_and_extract_element_scalar_variants() {
    let m = matrix();
    let s = Scalar::<i64>::new().unwrap();
    s.set_element(42).unwrap();
    m.set_element_scalar(&s, 2, 2).unwrap();
    assert_eq!(m.extract_element(2, 2).unwrap(), Some(42));
    // Extract a missing element into a scalar → empty, not an error (§VI).
    let out = Scalar::<i64>::new().unwrap();
    m.extract_element_scalar(&out, 0, 0).unwrap();
    assert_eq!(out.nvals().unwrap(), 0);
    m.extract_element_scalar(&out, 0, 1).unwrap();
    assert_eq!(out.extract_element().unwrap(), Some(4));
    // Empty scalar set = remove.
    let empty = Scalar::<i64>::new().unwrap();
    m.set_element_scalar(&empty, 2, 2).unwrap();
    assert_eq!(m.extract_element(2, 2).unwrap(), None);
}

#[test]
fn vector_set_and_extract_element_scalar_variants() {
    let v = Vector::<i64>::new(4).unwrap();
    let s = Scalar::<i64>::new().unwrap();
    s.set_element(-3).unwrap();
    v.set_element_scalar(&s, 1).unwrap();
    assert_eq!(v.extract_element(1).unwrap(), Some(-3));
    let out = Scalar::<i64>::new().unwrap();
    v.extract_element_scalar(&out, 1).unwrap();
    assert_eq!(out.extract_element().unwrap(), Some(-3));
}

/// The scalar holds what the source held at the call, not at the scalar's
/// drain: a later write to the source does not show through.
#[test]
fn extract_element_scalar_reads_at_the_call_in_both_modes() {
    for mode in [Mode::Blocking, Mode::NonBlocking] {
        let ctx = Context::new(&global_context(), mode, ContextOptions::default());
        let m = Matrix::<i64>::new_in(&ctx, 1, 1).unwrap();
        let s = Scalar::<i64>::new_in(&ctx).unwrap();
        m.set_element(1, 0, 0).unwrap();
        m.extract_element_scalar(&s, 0, 0).unwrap();
        m.set_element(2, 0, 0).unwrap();
        assert_eq!(s.extract_element().unwrap(), Some(1), "Matrix, {mode:?}");

        let v = Vector::<i64>::new_in(&ctx, 1).unwrap();
        let s = Scalar::<i64>::new_in(&ctx).unwrap();
        v.set_element(1, 0).unwrap();
        v.extract_element_scalar(&s, 0).unwrap();
        v.set_element(2, 0).unwrap();
        assert_eq!(s.extract_element().unwrap(), Some(1), "Vector, {mode:?}");
    }
}

#[test]
fn assign_with_scalar_argument() {
    let m = Matrix::<i64>::new(2, 2).unwrap();
    let s = Scalar::<i64>::new().unwrap();
    s.set_element(5).unwrap();
    assign_scalar_grb(&m, no_mask(), None, &s, &[0, 1], &[0], &Descriptor::default())
        .unwrap();
    assert_eq!(m.nvals().unwrap(), 2);
    assert_eq!(m.extract_element(1, 0).unwrap(), Some(5));
    let v = Vector::<i64>::new(3).unwrap();
    assign_scalar_v_grb(&v, no_mask_v(), None, &s, &all_indices(3), &Descriptor::default())
        .unwrap();
    assert_eq!(v.nvals().unwrap(), 3);
}

#[test]
fn apply_with_scalar_bound_argument() {
    let a = matrix();
    let c = Matrix::<i64>::new(3, 3).unwrap();
    let s = Scalar::<i64>::new().unwrap();
    s.set_element(100).unwrap();
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
    assert_eq!(c.extract_element(0, 1).unwrap(), Some(104));
    // Index-unary apply with the s parameter in a scalar.
    let shift = Scalar::<i64>::new().unwrap();
    shift.set_element(10).unwrap();
    apply_indexop_scalar(
        &c,
        no_mask(),
        None,
        &IndexUnaryOp::rowindex(),
        &a,
        &shift,
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(c.extract_element(2, 0).unwrap(), Some(12));
}

#[test]
fn select_with_scalar_threshold() {
    let a = matrix();
    let c = Matrix::<i64>::new(3, 3).unwrap();
    let thresh = Scalar::<i64>::new().unwrap();
    thresh.set_element(0).unwrap();
    select_scalar(
        &c,
        no_mask(),
        None,
        &IndexUnaryOp::valuegt(),
        &a,
        &thresh,
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(c.nvals().unwrap(), 2); // 4 and 9
    let u = Vector::<i64>::new(3).unwrap();
    u.build(&[0, 1], &[5, -5], None).unwrap();
    let w = Vector::<i64>::new(3).unwrap();
    select_v_scalar(
        &w,
        no_mask_v(),
        None,
        &IndexUnaryOp::valuegt(),
        &u,
        &thresh,
        &Descriptor::default(),
    )
    .unwrap();
    assert_eq!(w.nvals().unwrap(), 1);
}

#[test]
fn reduce_into_scalars_monoid_and_binop() {
    let a = matrix();
    let s = Scalar::<i64>::new().unwrap();
    reduce_scalar(&s, None, &Monoid::plus(), &a).unwrap();
    assert_eq!(s.extract_element().unwrap(), Some(12));
    reduce_scalar_binop(&s, None, &BinaryOp::min(), &a).unwrap();
    assert_eq!(s.extract_element().unwrap(), Some(-1));
    // Accumulator folds into the previous scalar value.
    reduce_scalar(&s, Some(&BinaryOp::plus()), &Monoid::plus(), &a).unwrap();
    assert_eq!(s.extract_element().unwrap(), Some(11));
    // Vector forms.
    let v = Vector::<i64>::new(4).unwrap();
    v.build(&[0, 3], &[7, 8], None).unwrap();
    reduce_scalar_v(&s, None, &Monoid::plus(), &v).unwrap();
    assert_eq!(s.extract_element().unwrap(), Some(15));
    reduce_scalar_binop_v(&s, None, &BinaryOp::max(), &v).unwrap();
    assert_eq!(s.extract_element().unwrap(), Some(8));
    // §VI headline: reducing an empty container gives an EMPTY scalar.
    let empty = Matrix::<i64>::new(2, 2).unwrap();
    reduce_scalar(&s, None, &Monoid::plus(), &empty).unwrap();
    assert_eq!(s.nvals().unwrap(), 0);
}

#[test]
fn deferred_scalar_reduction_in_nonblocking_context() {
    use graphblas::{Context, ContextOptions, Mode, WaitMode};
    let ctx = Context::new(
        &graphblas::global_context(),
        Mode::NonBlocking,
        ContextOptions::default(),
    );
    let a = Matrix::<i64>::new_in(&ctx, 2, 2).unwrap();
    a.build(&[0, 1], &[0, 1], &[3, 4], None).unwrap();
    let s = Scalar::<i64>::new_in(&ctx).unwrap();
    reduce_scalar(&s, None, &Monoid::plus(), &a).unwrap();
    // The reduction is pending in the scalar's sequence (§VI: scalar
    // outputs make deferral possible); reading forces it.
    assert_eq!(s.extract_element().unwrap(), Some(7));
    s.wait(WaitMode::Materialize).unwrap();
}

/// One Table II operation variant: runs the `GrB_Scalar` form (or, given
/// `Err(value)`, the plain-`T` form it must agree with) into a fresh,
/// pre-populated output and returns the call's result with the output's
/// tuples (vector outputs report column 0).
type Variant = fn(Result<&Scalar<i64>, i64>) -> (GrbResult, Vec<(Index, Index, i64)>);

fn matrix_case(
    call: impl FnOnce(&Matrix<i64>, &Matrix<i64>) -> GrbResult,
) -> (GrbResult, Vec<(Index, Index, i64)>) {
    let c = Matrix::<i64>::new(3, 3).unwrap();
    c.build(&[0, 2], &[0, 2], &[70, 80], None).unwrap();
    let result = call(&c, &matrix());
    let (r, cc, v) = c.extract_tuples().unwrap();
    let tuples = r.into_iter().zip(cc).zip(v).map(|((i, j), x)| (i, j, x));
    (result, tuples.collect())
}

fn vector_case(
    call: impl FnOnce(&Vector<i64>, &Vector<i64>) -> GrbResult,
) -> (GrbResult, Vec<(Index, Index, i64)>) {
    let w = Vector::<i64>::new(4).unwrap();
    w.build(&[1, 3], &[70, 80], None).unwrap();
    let u = Vector::<i64>::new(4).unwrap();
    u.build(&[0, 1, 2], &[4, -1, 9], None).unwrap();
    let result = call(&w, &u);
    let (i, v) = w.extract_tuples().unwrap();
    (
        result,
        i.into_iter().zip(v).map(|(i, x)| (i, 0, x)).collect(),
    )
}

#[test]
fn table2_scalar_variants_agree_with_their_plain_forms_and_reject_empty_scalars() {
    fn d() -> Descriptor {
        Descriptor::default()
    }
    let variants: [(&str, Variant); 10] = [
        ("apply_binop1st_scalar", |s| {
            matrix_case(|c, a| match s {
                Ok(s) => apply_binop1st_scalar(c, no_mask(), None, &BinaryOp::minus(), s, a, &d()),
                Err(x) => apply_binop1st(c, no_mask(), None, &BinaryOp::minus(), x, a, &d()),
            })
        }),
        ("apply_binop2nd_scalar", |s| {
            matrix_case(|c, a| match s {
                Ok(s) => apply_binop2nd_scalar(c, no_mask(), None, &BinaryOp::minus(), a, s, &d()),
                Err(x) => apply_binop2nd(c, no_mask(), None, &BinaryOp::minus(), a, x, &d()),
            })
        }),
        ("apply_binop1st_v_scalar", |s| {
            vector_case(|w, u| match s {
                Ok(s) => {
                    apply_binop1st_v_scalar(w, no_mask_v(), None, &BinaryOp::minus(), s, u, &d())
                }
                Err(x) => apply_binop1st_v(w, no_mask_v(), None, &BinaryOp::minus(), x, u, &d()),
            })
        }),
        ("apply_binop2nd_v_scalar", |s| {
            vector_case(|w, u| match s {
                Ok(s) => {
                    apply_binop2nd_v_scalar(w, no_mask_v(), None, &BinaryOp::minus(), u, s, &d())
                }
                Err(x) => apply_binop2nd_v(w, no_mask_v(), None, &BinaryOp::minus(), u, x, &d()),
            })
        }),
        ("apply_indexop_scalar", |s| {
            matrix_case(|c, a| match s {
                Ok(s) => {
                    apply_indexop_scalar(c, no_mask(), None, &IndexUnaryOp::colindex(), a, s, &d())
                }
                Err(x) => apply_indexop(c, no_mask(), None, &IndexUnaryOp::colindex(), a, x, &d()),
            })
        }),
        ("apply_indexop_v_scalar", |s| {
            vector_case(|w, u| match s {
                Ok(s) => apply_indexop_v_scalar(
                    w,
                    no_mask_v(),
                    None,
                    &IndexUnaryOp::rowindex(),
                    u,
                    s,
                    &d(),
                ),
                Err(x) => {
                    apply_indexop_v(w, no_mask_v(), None, &IndexUnaryOp::rowindex(), u, x, &d())
                }
            })
        }),
        ("select_scalar", |s| {
            matrix_case(|c, a| match s {
                Ok(s) => select_scalar(c, no_mask(), None, &IndexUnaryOp::valuegt(), a, s, &d()),
                Err(x) => select(c, no_mask(), None, &IndexUnaryOp::valuegt(), a, x, &d()),
            })
        }),
        ("select_v_scalar", |s| {
            vector_case(|w, u| match s {
                Ok(s) => {
                    select_v_scalar(w, no_mask_v(), None, &IndexUnaryOp::valuegt(), u, s, &d())
                }
                Err(x) => select_v(w, no_mask_v(), None, &IndexUnaryOp::valuegt(), u, x, &d()),
            })
        }),
        ("assign_scalar_grb", |s| {
            matrix_case(|c, _| match s {
                Ok(s) => assign_scalar_grb(c, no_mask(), None, s, &[0, 1], &[1, 2], &d()),
                Err(x) => assign_scalar(c, no_mask(), None, x, &[0, 1], &[1, 2], &d()),
            })
        }),
        ("assign_scalar_v_grb", |s| {
            vector_case(|w, _| match s {
                Ok(s) => assign_scalar_v_grb(w, no_mask_v(), None, s, &[0, 1], &d()),
                Err(x) => assign_scalar_v(w, no_mask_v(), None, x, &[0, 1], &d()),
            })
        }),
    ];
    for (name, variant) in variants {
        let s = Scalar::<i64>::new().unwrap();
        let (_, untouched) = match name.contains("_v_") {
            true => vector_case(|_, _| Ok(())),
            false => matrix_case(|_, _| Ok(())),
        };
        let (result, tuples) = variant(Ok(&s));
        assert_eq!(result.unwrap_err().code(), -106, "{name}: empty scalar");
        assert_eq!(
            tuples, untouched,
            "{name}: a rejected call wrote its output"
        );
        s.set_element(3).unwrap();
        let (result, tuples) = variant(Ok(&s));
        result.unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let (plain, expect) = variant(Err(3));
        plain.unwrap();
        assert_ne!(expect, untouched, "{name}: the case must change the output");
        assert_eq!(
            tuples, expect,
            "{name}: scalar form differs from the plain form"
        );
    }
}

/// A call with several errors reports the first in validation order: mask
/// context, mask shape, an empty `GrB_Scalar`, then the operands.
#[test]
fn a_call_with_several_errors_reports_the_first_in_validation_order() {
    const CONTEXT_MISMATCH: i32 = -9;
    const DIMENSION_MISMATCH: i32 = -6;
    const EMPTY_OBJECT: i32 = -106;
    let elsewhere = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    let w = Vector::<i64>::new(3).unwrap();
    let u = Vector::<i64>::new(3).unwrap();
    let foreign_u = Vector::<i64>::new_in(&elsewhere, 3).unwrap();
    let mask = Vector::<bool>::new(3).unwrap();
    let long_mask = Vector::<bool>::new(4).unwrap();
    let foreign_mask = Vector::<bool>::new_in(&elsewhere, 4).unwrap();
    let empty = Scalar::<i64>::new().unwrap();
    let seven = Scalar::<i64>::new().unwrap();
    seven.set_element(7).unwrap();
    let call = |mask: &Vector<bool>, s: &Scalar<i64>, u: &Vector<i64>| {
        let plus = BinaryOp::plus();
        apply_binop2nd_v_scalar(&w, Some(mask), None, &plus, u, s, &Descriptor::default())
            .map_or_else(|e| e.code(), |()| 0)
    };
    assert_eq!(call(&foreign_mask, &empty, &foreign_u), CONTEXT_MISMATCH);
    assert_eq!(call(&long_mask, &empty, &foreign_u), DIMENSION_MISMATCH);
    assert_eq!(call(&mask, &empty, &foreign_u), EMPTY_OBJECT);
    assert_eq!(call(&mask, &seven, &foreign_u), CONTEXT_MISMATCH);
    assert_eq!(call(&mask, &seven, &u), 0);
}
