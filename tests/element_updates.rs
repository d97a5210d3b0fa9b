//! Paper §III/§V: `setElement`/`removeElement` are deferred into the
//! matrix's update log and merged at the next read, `wait`, or queued
//! operation — observably identical to eager execution.
//!
//! Differential test against a `BTreeMap`, in Blocking and NonBlocking
//! contexts: seeded random interleavings of writes and reads, then every
//! path that must see (or discard) a non-empty log.

use std::collections::BTreeMap;

use graphblas::operations::{apply, mxv};
use graphblas::{
    global_context, grb_check, no_mask, no_mask_v, ApiError, Context, ContextOptions, Descriptor,
    Error, Matrix, Mode, Scalar, Semiring, UnaryOp, Vector, WaitMode,
};
use graphblas_exec::rng::prelude::*;

type Model = BTreeMap<(usize, usize), i64>;
type Tuples = (Vec<usize>, Vec<usize>, Vec<i64>);

const NROWS: usize = 7;
const NCOLS: usize = 5;

fn both_modes() -> [Context; 2] {
    [Mode::Blocking, Mode::NonBlocking]
        .map(|mode| Context::new(&global_context(), mode, ContextOptions::default()))
}

fn tuples(model: &Model) -> Tuples {
    (
        model.keys().map(|k| k.0).collect(),
        model.keys().map(|k| k.1).collect(),
        model.values().copied().collect(),
    )
}

fn assert_matches(m: &Matrix<i64>, model: &Model, what: &str) {
    assert_eq!(m.extract_tuples().unwrap(), tuples(model), "{what}");
    assert_eq!(m.nvals().unwrap(), model.len(), "{what}");
    assert_eq!(
        m.stats().pending,
        0,
        "{what}: a read leaves nothing deferred"
    );
    grb_check(m).unwrap();
}

fn inc() -> UnaryOp<i64, i64> {
    UnaryOp::new("inc", |x: &i64| x + 1)
}

#[test]
fn random_interleavings_match_a_btreemap() {
    for ctx in both_modes() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(0xE1E0 + seed);
            let m = Matrix::<i64>::new_in(&ctx, NROWS, NCOLS).unwrap();
            let hole = Scalar::<i64>::new_in(&ctx).unwrap();
            let mut model = Model::new();
            for step in 0..300 {
                // A small coordinate space, so one batch revisits cells.
                let (i, j) = (rng.gen_range(0..NROWS), rng.gen_range(0..NCOLS));
                let what = format!("{:?} seed {seed} step {step}", ctx.mode());
                match rng.gen_range(0..14u32) {
                    0..=4 => {
                        let v = rng.gen_range(-99..100i64);
                        m.set_element(v, i, j).unwrap();
                        model.insert((i, j), v);
                    }
                    5..=6 => {
                        m.remove_element(i, j).unwrap();
                        model.remove(&(i, j));
                    }
                    7 => {
                        m.set_element_scalar(&hole, i, j).unwrap();
                        model.remove(&(i, j));
                    }
                    8..=9 => {
                        let got = m.extract_element(i, j).unwrap();
                        assert_eq!(got, model.get(&(i, j)).copied(), "{what}");
                    }
                    10 => assert_eq!(m.nvals().unwrap(), model.len(), "{what}"),
                    11 => {
                        let mode = [WaitMode::Complete, WaitMode::Materialize][step % 2];
                        m.wait(mode).unwrap();
                    }
                    12 => {
                        // A lazy stage queued behind un-folded updates.
                        apply(&m, no_mask(), None, &inc(), &m, &Descriptor::default()).unwrap();
                        model.values_mut().for_each(|v| *v += 1);
                    }
                    _ => {
                        // An API error is immediate and changes nothing.
                        let err = m.set_element(1, NROWS + i, j).unwrap_err();
                        assert_eq!(err, Error::Api(ApiError::InvalidIndex), "{what}");
                        let err = m.remove_element(i, NCOLS).unwrap_err();
                        assert_eq!(err, Error::Api(ApiError::InvalidIndex), "{what}");
                    }
                }
                grb_check(&m).unwrap();
            }
            assert_matches(&m, &model, &format!("{:?} seed {seed}", ctx.mode()));
        }
    }
}

#[test]
fn orderings_within_one_batch() {
    for ctx in both_modes() {
        let m = Matrix::<i64>::new_in(&ctx, NROWS, NCOLS).unwrap();
        m.build(&[0, 1, 2], &[0, 1, 2], &[10, 11, 12], None)
            .unwrap();
        m.wait(WaitMode::Materialize).unwrap();
        m.set_element(1, 3, 3).unwrap(); // set, then remove: gone
        m.remove_element(3, 3).unwrap();
        m.remove_element(0, 0).unwrap(); // remove a stored entry, then set
        m.set_element(2, 0, 0).unwrap();
        m.set_element(3, 4, 4).unwrap(); // duplicate sets: last wins
        m.set_element(4, 4, 4).unwrap();
        m.set_element(5, 1, 1).unwrap(); // overwrite a stored entry
        m.remove_element(6, 0).unwrap(); // remove an absent entry
        m.remove_element(2, 2).unwrap(); // remove a stored entry

        // Nothing above touched the store: nine entries wait in the log.
        let s = m.stats();
        assert_eq!((s.pending, s.nvals), (9, 3), "{:?}", ctx.mode());
        assert_eq!(m.export_hint(), None);
        let model: Model = [((0, 0), 2), ((1, 1), 5), ((4, 4), 4)].into();
        m.wait(WaitMode::Materialize).unwrap();
        assert_eq!(m.stats().pending, 0);
        assert_eq!(m.export_hint(), Some(graphblas::Format::Csr));
        assert_matches(&m, &model, "one batch");
    }
}

#[test]
fn operations_see_and_supersede_unfolded_updates() {
    for ctx in both_modes() {
        let what = format!("{:?}", ctx.mode());
        let a = Matrix::<i64>::new_in(&ctx, 3, 3).unwrap();
        a.build(&[0, 1], &[0, 1], &[1, 1], None).unwrap();
        a.wait(WaitMode::Materialize).unwrap();
        let u = Vector::<i64>::new_in(&ctx, 3).unwrap();
        u.build(&[0, 1, 2], &[1, 10, 100], None).unwrap();
        // A as an input: the lazy mxv node must read the updated matrix.
        a.set_element(7, 2, 2).unwrap();
        a.remove_element(0, 0).unwrap();
        let w = Vector::<i64>::new_in(&ctx, 3).unwrap();
        let plus_times = Semiring::<i64, i64, i64>::plus_times();
        mxv(
            &w,
            no_mask_v(),
            None,
            &plus_times,
            &a,
            &u,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            w.extract_tuples().unwrap(),
            (vec![1, 2], vec![10, 700]),
            "{what}"
        );
        // A as the output of an operation that replaces it: the older log
        // entries must not be replayed over the newer result.
        let src = Matrix::<i64>::new_in(&ctx, 3, 3).unwrap();
        src.build(&[1], &[2], &[40], None).unwrap();
        a.set_element(99, 0, 1).unwrap();
        apply(&a, no_mask(), None, &inc(), &src, &Descriptor::default()).unwrap();
        a.set_element(5, 2, 0).unwrap(); // …and a newer one lands on top
        let model: Model = [((1, 2), 41), ((2, 0), 5)].into();
        assert_matches(&a, &model, &what);
    }
}

#[test]
fn container_methods_with_a_non_empty_log() {
    for ctx in both_modes() {
        let what = format!("{:?}", ctx.mode());
        let m = Matrix::<i64>::new_in(&ctx, NROWS, NCOLS).unwrap();
        m.build(&[0, 6], &[0, 4], &[1, 2], None).unwrap();
        m.wait(WaitMode::Materialize).unwrap();
        let mut model: Model = [((0, 0), 1), ((6, 4), 2)].into();

        // dup: the copy holds the logged updates and is independent.
        m.set_element(3, 3, 3).unwrap();
        model.insert((3, 3), 3);
        let d = m.dup().unwrap();
        m.remove_element(0, 0).unwrap();
        assert_matches(&d, &model, &format!("{what} dup"));
        model.remove(&(0, 0));

        // serialize / deserialize round-trips the folded matrix.
        m.set_element(4, 1, 2).unwrap();
        model.insert((1, 2), 4);
        let back = Matrix::<i64>::deserialize(&m.serialize().unwrap()).unwrap();
        assert_matches(&back, &model, &format!("{what} serialize"));

        // transpose-cache invalidation: a transposed read, an update, and
        // a second transposed read that must not be served the stale memo.
        let t = Matrix::<i64>::new_in(&ctx, NCOLS, NROWS).unwrap();
        let t0 = Descriptor::new().transpose_a();
        let id = UnaryOp::<i64, i64>::identity();
        apply(&t, no_mask(), None, &id, &m, &t0).unwrap();
        t.wait(WaitMode::Complete).unwrap();
        m.set_element(8, 5, 1).unwrap();
        m.remove_element(6, 4).unwrap();
        model.insert((5, 1), 8);
        model.remove(&(6, 4));
        apply(&t, no_mask(), None, &id, &m, &t0).unwrap();
        let transposed: Model = model.iter().map(|(&(i, j), &v)| ((j, i), v)).collect();
        assert_matches(&t, &transposed, &format!("{what} transpose"));

        // resize: logged updates outside the new shape are dropped with
        // the stored ones; an index valid only before the resize is an
        // API error afterwards.
        m.set_element(9, 6, 0).unwrap();
        m.set_element(10, 2, 4).unwrap();
        m.resize(4, 4).unwrap();
        model.retain(|&(i, j), _| i < 4 && j < 4);
        assert_eq!(m.stats().pending, 0, "{what}: resize executes immediately");
        assert_eq!(
            m.set_element(1, 6, 0).unwrap_err(),
            Error::Api(ApiError::InvalidIndex)
        );
        assert_matches(&m, &model, &format!("{what} shrink"));
        m.set_element(11, 3, 0).unwrap();
        m.resize(9, 9).unwrap();
        model.insert((3, 0), 11);
        m.set_element(12, 8, 8).unwrap();
        model.insert((8, 8), 12);
        assert_matches(&m, &model, &format!("{what} grow"));

        // clear discards the log with everything else.
        m.set_element(13, 0, 0).unwrap();
        m.clear().unwrap();
        assert_eq!(m.stats().pending, 0);
        assert_matches(&m, &Model::new(), &format!("{what} clear"));
    }
}
