//! Deferred-vs-eager equivalence (paper §III): the fused op DAG has full
//! latitude to defer, reorder, and fuse — but a program must not be able
//! to tell. Blocking mode is "enqueue, then force" on the same stage
//! runner, so these tests run one operation sequence deferred+fused and
//! eager, and assert the extracted tuples agree bit-for-bit.

use graphblas_core::operations::{
    apply, apply_v, assign_scalar_v, ewise_add_v, ewise_mult_v, extract_v, mxm, mxv,
    reduce_scalar_v, reduce_to_vector, select_v, transpose, vxm,
};
use graphblas_core::{
    global_context, no_mask, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor,
    IndexUnaryOp, Matrix, Mode, Monoid, Scalar, Semiring, UnaryOp, Vector, WaitMode,
};

/// Deterministic pseudo-random stream (no external crates).
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn build_inputs(ctx: &Context, n: usize) -> (Matrix<f64>, Vector<f64>, Vector<bool>) {
    let a = Matrix::<f64>::new_in(ctx, n, n).unwrap();
    let mut seed = 0x5eed_1234u64;
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..n {
        for _ in 0..6 {
            rows.push(i);
            cols.push((lcg(&mut seed) as usize) % n);
            vals.push(((lcg(&mut seed) % 1000) as f64) / 100.0);
        }
    }
    a.build(&rows, &cols, &vals, Some(&BinaryOp::<f64, f64, f64>::plus()))
        .unwrap();

    let u = Vector::<f64>::new_in(ctx, n).unwrap();
    let idx: Vec<usize> = (0..n).step_by(2).collect();
    let uvals: Vec<f64> = idx.iter().map(|&i| (i % 17) as f64 + 0.5).collect();
    u.build(&idx, &uvals, None).unwrap();

    let m = Vector::<bool>::new_in(ctx, n).unwrap();
    let midx: Vec<usize> = (0..n).step_by(3).collect();
    let mvals: Vec<bool> = midx.iter().map(|&i| i % 2 == 0).collect();
    m.build(&midx, &mvals, None).unwrap();
    (a, u, m)
}

/// What a pipeline run leaves behind: the tuples of every vector it
/// produced, concatenated, and of its final matrix.
type Outputs = (Vec<(usize, f64)>, Vec<(usize, usize, f64)>);

/// One mixed pipeline covering every converted operation family: fusible
/// map chains feeding mxv/vxm (pre-side), in-place applies trailing a
/// node (post-side), masked vxm, accumulated merges, assign, extract,
/// reduce, mxm, and transpose.
fn run_pipeline(mode: Mode) -> Outputs {
    let n = 64;
    let ctx = Context::new(&global_context(), mode, ContextOptions::default());
    let (a, u, m) = build_inputs(&ctx, n);
    let sr = Semiring::<f64, f64, f64>::plus_times();
    let d = Descriptor::default();

    // Map chain on the input frontier (fuses into mxv's pre side).
    let inc = UnaryOp::new("inc", |x: &f64| x + 1.0);
    apply_v(&u, no_mask_v(), None, &inc, &u, &d).unwrap();
    apply_v(&u, no_mask_v(), None, &inc, &u, &d).unwrap();

    // mxv, then an in-place map trailing the node (fuses as post).
    let w = Vector::<f64>::new_in(&ctx, n).unwrap();
    mxv(&w, no_mask_v(), None, &sr, &a, &u, &d).unwrap();
    let halve = UnaryOp::new("halve", |x: &f64| x * 0.5);
    apply_v(&w, no_mask_v(), None, &halve, &w, &d).unwrap();

    // Masked vxm (push direction prefilters scatter columns).
    let y = Vector::<f64>::new_in(&ctx, n).unwrap();
    vxm(&y, Some(&m), None, &sr, &w, &a, &d).unwrap();
    // ... and the complemented mask with an accumulator.
    let yc = Vector::<f64>::new_in(&ctx, n).unwrap();
    vxm(
        &yc,
        Some(&m),
        Some(&BinaryOp::plus()),
        &sr,
        &u,
        &a,
        &Descriptor::new().complement_mask(),
    )
    .unwrap();

    // Select into a fresh output (Node), element-wise combine, assign.
    let big = Vector::<f64>::new_in(&ctx, n).unwrap();
    select_v(&big, no_mask_v(), None, &IndexUnaryOp::valuegt(), &y, 1.0, &d).unwrap();
    let z = Vector::<f64>::new_in(&ctx, n).unwrap();
    ewise_add_v(&z, no_mask_v(), None, &BinaryOp::plus(), &big, &yc, &d).unwrap();
    ewise_mult_v(&z, no_mask_v(), Some(&BinaryOp::plus()), &BinaryOp::times(), &z, &u, &d)
        .unwrap();
    assign_scalar_v(&z, no_mask_v(), None, 9.25, &[1, 3, 5], &d).unwrap();
    let ex = Vector::<f64>::new_in(&ctx, n / 2).unwrap();
    let sel: Vec<usize> = (0..n / 2).map(|i| n - 1 - i).collect();
    extract_v(&ex, no_mask_v(), None, &z, &sel, &d).unwrap();

    // A deep backlog of accumulating nodes on one container.
    let acc = Vector::<f64>::new_in(&ctx, n).unwrap();
    for _ in 0..12 {
        let plus = BinaryOp::plus();
        ewise_add_v(&acc, no_mask_v(), Some(&plus), &plus, &w, &yc, &d).unwrap();
    }

    // Matrix side: mxm with a trailing in-place apply, transpose, reduce.
    let c = Matrix::<f64>::new_in(&ctx, n, n).unwrap();
    mxm(&c, no_mask(), None, &sr, &a, &a, &d).unwrap();
    let ct = Matrix::<f64>::new_in(&ctx, n, n).unwrap();
    transpose(&ct, no_mask(), None, &c, &d).unwrap();
    let r = Vector::<f64>::new_in(&ctx, n).unwrap();
    reduce_to_vector(&r, no_mask_v(), None, &graphblas_core::Monoid::plus(), &ct, &d).unwrap();

    let mut vec_out = Vec::new();
    for v in [&u, &w, &y, &yc, &big, &z, &ex, &acc, &r] {
        v.wait(WaitMode::Complete).unwrap();
        let (i, x) = v.extract_tuples().unwrap();
        vec_out.extend(i.into_iter().zip(x));
    }
    let (cr, cc, cv) = ct.extract_tuples().unwrap();
    let mat_out = cr
        .into_iter()
        .zip(cc)
        .zip(cv)
        .map(|((i, j), x)| (i, j, x))
        .collect();
    (vec_out, mat_out)
}

#[test]
fn blocking_mode_matches_fused_nonblocking() {
    let fused = run_pipeline(Mode::NonBlocking);
    let blocking = run_pipeline(Mode::Blocking);
    assert_eq!(fused.0, blocking.0);
    assert_eq!(fused.1, blocking.1);
}

/// §III sequence order across `GrB_Context_switch`: `step(accum)` performs
/// `X ⊙= f(input)` on one container. The first step is deferred in a
/// NonBlocking context; after `switch` moves every operand to a Blocking
/// context the second step runs eagerly — and must see the first one's
/// result, not overtake it.
fn order_survives_switch(
    step: &dyn Fn(&BinaryOp<f64, f64, f64>),
    switch: &dyn Fn(&Context),
    pending: &dyn Fn() -> usize,
    read: &dyn Fn() -> Vec<f64>,
    want: &[f64],
) {
    step(&BinaryOp::plus());
    assert_eq!(pending(), 1, "the NonBlocking step must stay queued");
    switch(&Context::new(
        &global_context(),
        Mode::Blocking,
        ContextOptions::default(),
    ));
    step(&BinaryOp::times());
    assert_eq!(pending(), 0, "a Blocking step completes the whole sequence");
    assert_eq!(read(), want);
}

#[test]
fn blocking_step_after_context_switch_runs_behind_the_backlog() {
    let nb = Context::new(
        &global_context(),
        Mode::NonBlocking,
        ContextOptions::default(),
    );
    let d = Descriptor::default();
    let id = UnaryOp::new("id", |x: &f64| *x);

    // X starts as [1, 2, 3]; input is [1, 2, 3]: (X + in) × in = 2·in².
    let u = Vector::<f64>::new_in(&nb, 3).unwrap();
    u.build(&[0, 1, 2], &[1.0, 2.0, 3.0], None).unwrap();
    u.wait(WaitMode::Materialize).unwrap();
    let w = u.dup().unwrap();
    order_survives_switch(
        &|acc| apply_v(&w, no_mask_v(), Some(acc), &id, &u, &d).unwrap(),
        &|ctx| [&u, &w].iter().for_each(|v| v.switch_context(ctx).unwrap()),
        &|| w.pending_len(),
        &|| w.extract_tuples().unwrap().1,
        &[2.0, 8.0, 18.0],
    );

    let a = Matrix::<f64>::new_in(&nb, 3, 3).unwrap();
    a.build(&[0, 1, 2], &[0, 1, 2], &[1.0, 2.0, 3.0], None)
        .unwrap();
    a.wait(WaitMode::Materialize).unwrap();
    let c = a.dup().unwrap();
    order_survives_switch(
        &|acc| apply(&c, no_mask(), Some(acc), &id, &a, &d).unwrap(),
        &|ctx| [&a, &c].iter().for_each(|m| m.switch_context(ctx).unwrap()),
        &|| c.pending_len(),
        &|| c.extract_tuples().unwrap().2,
        &[2.0, 8.0, 18.0],
    );

    // Scalar: s = 1, input sums to 6: (1 + 6) × 6 = 42.
    u.switch_context(&nb).unwrap();
    let s = Scalar::<f64>::new_in(&nb).unwrap();
    s.set_element(1.0).unwrap();
    order_survives_switch(
        &|acc| reduce_scalar_v(&s, Some(acc), &Monoid::plus(), &u).unwrap(),
        &|ctx| {
            u.switch_context(ctx).unwrap();
            s.switch_context(ctx).unwrap();
        },
        &|| s.stats().pending as usize,
        &|| s.extract_element().unwrap().into_iter().collect(),
        &[42.0],
    );
}
