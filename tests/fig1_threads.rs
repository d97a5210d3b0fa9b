//! Paper Fig. 1: a properly synchronized two-thread GraphBLAS program.
//!
//! Thread 0 computes and publishes a shared matrix `Esh` (completing wait
//! + release store); thread 1 spins (acquire load) and consumes it. The
//!   test asserts the concurrent run produces byte-identical results to a
//!   sequential execution — the §III thread-safety contract.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use graphblas::operations::{
    apply_binop2nd_scalar, apply_binop2nd_v_scalar, assign_scalar_grb, assign_scalar_v_grb, mxm,
    reduce_scalar, reduce_scalar_v,
};
use graphblas::{
    global_context, no_mask, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, GrbResult,
    Index, Matrix, Mode, Monoid, Scalar, Semiring, Vector, WaitMode,
};

fn deterministic_matrix(n: usize, seed: u64) -> Matrix<i64> {
    // Simple LCG-driven sparse matrix; deterministic across runs/threads.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut rows: Vec<Index> = Vec::new();
    let mut cols: Vec<Index> = Vec::new();
    let mut vals: Vec<i64> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n * 4 {
        let i = next() % n;
        let j = next() % n;
        if seen.insert((i, j)) {
            rows.push(i);
            cols.push(j);
            vals.push((next() % 17) as i64 - 8);
        }
    }
    let m = Matrix::<i64>::new(n, n).unwrap();
    m.build(&rows, &cols, &vals, None).unwrap();
    m
}

type Tuples = Vec<(Index, Index, i64)>;

fn tuples(m: &Matrix<i64>) -> Tuples {
    let (r, c, v) = m.extract_tuples().unwrap();
    r.into_iter().zip(c).zip(v).map(|((i, j), x)| (i, j, x)).collect()
}

fn run_pipeline(ctx: &Context, n: usize) -> (Tuples, Tuples) {
    let sr = Semiring::<i64, i64, i64>::plus_times();
    let desc = Descriptor::default();

    let esh = Matrix::<i64>::new_in(ctx, n, n).unwrap();
    let dres = Matrix::<i64>::new_in(ctx, n, n).unwrap();
    let hres = Matrix::<i64>::new_in(ctx, n, n).unwrap();
    let flag = AtomicBool::new(false);

    std::thread::scope(|scope| {
        {
            let (esh, dres, ctx, sr) = (esh.clone(), dres.clone(), ctx.clone(), sr.clone());
            let flag = &flag;
            scope.spawn(move || {
                let a = deterministic_matrix(n, 1);
                let b = deterministic_matrix(n, 2);
                let d = deterministic_matrix(n, 3);
                for m in [&a, &b, &d] {
                    m.switch_context(&ctx).unwrap();
                }
                let c = Matrix::<i64>::new_in(&ctx, n, n).unwrap();
                mxm(&c, no_mask(), None, &sr, &a, &b, &desc).unwrap();
                mxm(&esh, no_mask(), None, &sr, &d, &c, &desc).unwrap();
                esh.wait(WaitMode::Complete).unwrap();
                flag.store(true, Ordering::Release);
                mxm(&dres, no_mask(), None, &sr, &a, &esh, &desc).unwrap();
                dres.wait(WaitMode::Complete).unwrap();
            });
        }
        {
            let (esh, hres, ctx, sr) = (esh.clone(), hres.clone(), ctx.clone(), sr.clone());
            let flag = &flag;
            scope.spawn(move || {
                let e = deterministic_matrix(n, 4);
                let f = deterministic_matrix(n, 5);
                for m in [&e, &f] {
                    m.switch_context(&ctx).unwrap();
                }
                let g = Matrix::<i64>::new_in(&ctx, n, n).unwrap();
                mxm(&g, no_mask(), None, &sr, &e, &f, &desc).unwrap();
                while !flag.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                mxm(&hres, no_mask(), None, &sr, &g, &esh, &desc).unwrap();
                hres.wait(WaitMode::Complete).unwrap();
            });
        }
    });

    (tuples(&dres), tuples(&hres))
}

fn run_sequential(n: usize) -> (Tuples, Tuples) {
    let sr = Semiring::<i64, i64, i64>::plus_times();
    let desc = Descriptor::default();
    let a = deterministic_matrix(n, 1);
    let b = deterministic_matrix(n, 2);
    let d = deterministic_matrix(n, 3);
    let e = deterministic_matrix(n, 4);
    let f = deterministic_matrix(n, 5);
    let c = Matrix::<i64>::new(n, n).unwrap();
    let esh = Matrix::<i64>::new(n, n).unwrap();
    let dres = Matrix::<i64>::new(n, n).unwrap();
    let g = Matrix::<i64>::new(n, n).unwrap();
    let hres = Matrix::<i64>::new(n, n).unwrap();
    mxm(&c, no_mask(), None, &sr, &a, &b, &desc).unwrap();
    mxm(&esh, no_mask(), None, &sr, &d, &c, &desc).unwrap();
    mxm(&dres, no_mask(), None, &sr, &a, &esh, &desc).unwrap();
    mxm(&g, no_mask(), None, &sr, &e, &f, &desc).unwrap();
    mxm(&hres, no_mask(), None, &sr, &g, &esh, &desc).unwrap();
    (tuples(&dres), tuples(&hres))
}

#[test]
fn fig1_nonblocking_concurrent_matches_sequential() {
    let n = 64;
    let ctx = Context::new(
        &global_context(),
        Mode::NonBlocking,
        ContextOptions::default(),
    );
    let expected = run_sequential(n);
    for _ in 0..5 {
        let got = run_pipeline(&ctx, n);
        assert_eq!(got, expected);
    }
}

#[test]
fn fig1_blocking_concurrent_matches_sequential() {
    let n = 48;
    let ctx = Context::new(&global_context(), Mode::Blocking, ContextOptions::default());
    let expected = run_sequential(n);
    let got = run_pipeline(&ctx, n);
    assert_eq!(got, expected);
}

#[test]
fn independent_objects_from_many_threads() {
    // §III thread safety: independent method calls from many threads.
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let a = deterministic_matrix(40, t);
                let b = deterministic_matrix(40, t + 100);
                let c = Matrix::<i64>::new(40, 40).unwrap();
                mxm(
                    &c,
                    no_mask(),
                    None,
                    &Semiring::plus_times(),
                    &a,
                    &b,
                    &Descriptor::default(),
                )
                .unwrap();
                c.nvals().unwrap()
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap() > 0);
    }
}

// --- no stage holds two container locks ---
//
// Every call that touches a scalar and a matrix or vector takes their locks
// one at a time: `extract_element_scalar` reads the container at the call
// and queues on the scalar a stage that writes a value it already holds.
// Three threads share a matrix, a vector and a scalar and mix that call
// with calls that reach the same objects from the container side; a call
// that held one lock while taking the other could deadlock against a call
// taking them in the other order, and the watchdog turns that into a
// failure naming each thread's call.

const NEST_N: usize = 96;
const NEST_ITERS: usize = 200;
const NEST_THREADS: usize = 3;
/// The largest value ever stored. `M(0, 0)` and `v(0)` hold it from the
/// start and every write stores it, so reading, reducing (MAX) and
/// clamping (MIN) leave the scalar at `TOP` and the final objects do not
/// depend on the interleaving.
const TOP: i64 = 9;

/// The call each nesting-test thread is in, for the watchdog's report.
type Doing = Arc<Mutex<Vec<&'static str>>>;

struct Shared {
    m: Matrix<i64>,
    v: Vector<i64>,
    s: Scalar<i64>,
}

fn nesting_objects(ctx: &Context) -> GrbResult<Shared> {
    let n = NEST_N;
    let m = Matrix::<i64>::new_in(ctx, n, n)?;
    // Four entries a row, none at (0, 0), values in -2..=2.
    let rows: Vec<Index> = (0..4 * n).map(|e| e / 4).collect();
    let cols: Vec<Index> = (0..4 * n).map(|e| (e / 4 * 7 + 3 + e % 4 * 11) % n).collect();
    let mut vals: Vec<i64> = (0..4 * n).map(|e| (e % 5) as i64 - 2).collect();
    m.build(&rows, &cols, &vals, None)?;
    m.set_element(TOP, 0, 0)?;
    let v = Vector::<i64>::new_in(ctx, n)?;
    let idx: Vec<Index> = (0..n / 2).collect();
    vals[0] = TOP;
    v.build(&idx, &vals[..n / 2], None)?;
    let s = Scalar::<i64>::new_in(ctx)?;
    s.set_element(TOP)?;
    Ok(Shared { m, v, s })
}

/// Thread `t`'s calls: thread 0 drains the scalar through the nesting;
/// threads 1 and 2 write the matrix and the vector from the scalar (which
/// locks them one at a time) and take the nesting now and then.
fn nesting_calls(t: usize, o: &Shared, doing: &Doing) -> GrbResult<()> {
    let (max, min) = (Monoid::<i64>::max(), BinaryOp::<i64, i64, i64>::min());
    let desc = Descriptor::default();
    let step = |call: &'static str| doing.lock().unwrap()[t] = call;
    for k in 0..NEST_ITERS {
        let (i, j) = (1 + k % (NEST_N - 1), (k * 5) % NEST_N);
        match t {
            0 => {
                step("Matrix::extract_element_scalar");
                o.m.extract_element_scalar(&o.s, 0, 0)?;
                step("reduce_scalar");
                reduce_scalar(&o.s, None, &max, &o.m)?;
                step("Vector::extract_element_scalar");
                o.v.extract_element_scalar(&o.s, 0)?;
                step("reduce_scalar_v");
                reduce_scalar_v(&o.s, None, &max, &o.v)?;
                step("Scalar::wait");
                o.s.wait(WaitMode::Complete)?;
                assert_eq!(o.s.extract_element()?, Some(TOP));
            }
            // A write from the scalar right after queueing a read of the
            // same container into it: in a NonBlocking context the write
            // drains that read, so it must not hold the container's lock
            // while it reads the scalar.
            1 => {
                step("apply_binop2nd_scalar");
                apply_binop2nd_scalar(&o.m, no_mask(), None, &min, &o.m, &o.s, &desc)?;
                step("Matrix::extract_element_scalar");
                o.m.extract_element_scalar(&o.s, 0, 0)?;
                step("Matrix::set_element_scalar");
                o.m.set_element_scalar(&o.s, i, j)?;
                step("assign_scalar_grb");
                assign_scalar_grb(&o.m, no_mask(), None, &o.s, &[i], &[j, (j + 1) % NEST_N], &desc)?;
                step("Matrix::wait");
                o.m.wait(WaitMode::Complete)?;
            }
            _ => {
                step("apply_binop2nd_v_scalar");
                apply_binop2nd_v_scalar(&o.v, no_mask_v(), None, &min, &o.v, &o.s, &desc)?;
                step("Vector::extract_element_scalar");
                o.v.extract_element_scalar(&o.s, 0)?;
                step("Vector::set_element_scalar");
                o.v.set_element_scalar(&o.s, i)?;
                step("assign_scalar_v_grb");
                assign_scalar_v_grb(&o.v, no_mask_v(), None, &o.s, &[j], &desc)?;
                step("Matrix::extract_element_scalar");
                o.m.extract_element_scalar(&o.s, 0, 0)?;
                step("Vector::wait");
                o.v.wait(WaitMode::Complete)?;
            }
        }
    }
    step("done");
    Ok(())
}

type Outcome = (Tuples, Vec<(Index, i64)>, Option<i64>);

/// Runs every thread's calls on fresh shared objects — concurrently, or
/// one thread's after another's on this thread — and returns the final
/// matrix, vector and scalar.
fn nesting_run(mode: Mode, concurrent: bool, doing: &Doing) -> Outcome {
    let ctx = Context::new(&global_context(), mode, ContextOptions::default());
    let o = nesting_objects(&ctx).unwrap();
    if concurrent {
        std::thread::scope(|scope| {
            for t in 0..NEST_THREADS {
                let o = &o;
                scope.spawn(move || nesting_calls(t, o, doing).unwrap());
            }
        });
    } else {
        for t in 0..NEST_THREADS {
            nesting_calls(t, &o, doing).unwrap();
        }
    }
    let (i, x) = o.v.extract_tuples().unwrap();
    (tuples(&o.m), i.into_iter().zip(x).collect(), o.s.extract_element().unwrap())
}

fn scalar_container_nesting(mode: Mode) {
    let doing: Doing = Arc::new(Mutex::new(vec!["not started"; NEST_THREADS]));
    let (tx, rx) = mpsc::channel();
    let watched = doing.clone();
    // Detached: a deadlocked run is left blocked and the test fails below.
    std::thread::spawn(move || {
        let expected = nesting_run(mode, false, &watched);
        let got = nesting_run(mode, true, &watched);
        let _ = tx.send((expected, got));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok((expected, got)) => {
            assert_eq!(got, expected, "{mode:?}: concurrent run differs from the sequential one");
            assert_eq!(expected.2, Some(TOP));
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "{mode:?}: deadlock: after 60 s the threads are still in {:?}",
            doing.lock().unwrap()
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{mode:?}: a nesting-test thread panicked (see its message above)")
        }
    }
}

#[test]
fn scalar_container_nesting_blocking() {
    scalar_container_nesting(Mode::Blocking);
}

#[test]
fn scalar_container_nesting_nonblocking() {
    scalar_container_nesting(Mode::NonBlocking);
}

#[test]
fn shared_object_concurrent_reads_after_completion() {
    let a = deterministic_matrix(64, 9);
    a.wait(WaitMode::Materialize).unwrap();
    let expected = a.nvals().unwrap();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let a = a.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    assert_eq!(a.nvals().unwrap(), expected);
                    assert!(a.extract_element(0, 0).is_ok());
                }
            });
        }
    });
}
