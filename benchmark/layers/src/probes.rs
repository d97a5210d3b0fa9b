//! Layer probes: direct calls into `graphblas-sparse` and `graphblas-exec`
//! public functions on the workload's own input, in a one-thread context,
//! telemetry off. Each probe reports the p10 of a handful of iterations.

use std::hint::black_box;
use std::time::Instant;

use graphblas::operations::{mxm, select};
use graphblas::{
    global_context, BinaryOp, Context, ContextOptions, Descriptor, GrbResult, IndexUnaryOp, Matrix,
    Mode, Semiring, WaitMode,
};
use graphblas_exec::global_pool;
use graphblas_sparse::{convert, spgemm, spmv, transpose, Coo, Csr, SparseVec};
use grb_harness::stats;
use grb_harness::workloads::{Bfs, PageRank, SpGemm, Update, Workload};
use grb_harness::{metric, print_metrics, Args, Metric};

const ITERS: usize = 5;

/// p10 (nearest rank) of `iters` timings of `f`, in seconds.
fn time_p10<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::p10(&samples)
}

fn coo_of<T>(n: usize, rows: &[usize], cols: &[usize], vals: Vec<T>) -> Coo<T> {
    Coo::from_parts(n, n, rows.to_vec(), cols.to_vec(), vals)
        .expect("generated tuples are in range")
}

/// COO → CSR; duplicates keep the smaller value, as the workloads' `build`
/// does (for `bool` inputs all values are `true`).
fn csr_of<T: Clone + Send + Sync + PartialOrd>(ctx: &Context, coo: &Coo<T>) -> Csr<T> {
    let dup = |a: &T, b: &T| if b < a { b.clone() } else { a.clone() };
    convert::coo_to_csr(ctx, coo, Some(&dup)).expect("duplicates are combined")
}

/// COO → CSR, transpose, pull SpMV with a dense vector and push VxM with a
/// 1-in-64 frontier on one matrix. Returns the metrics and the CSR.
fn matrix_probes<T: Clone + Send + Sync + PartialOrd>(
    ctx: &Context,
    coo: &Coo<T>,
    weight: impl Fn(&T) -> f64 + Sync,
) -> (Vec<Metric>, Csr<T>) {
    let n = coo.nrows();
    let coo_to_csr_s = time_p10(ITERS, || csr_of(ctx, coo));
    let a = csr_of(ctx, coo);

    let dense =
        SparseVec::from_parts(n, (0..n).collect(), vec![1.0 / n as f64; n]).expect("dense vector");
    let spmv_s = time_p10(2 * ITERS, || {
        spmv::spmv(
            ctx,
            &a,
            &dense,
            |a, x| weight(a) * x,
            |p, q| p + q,
            None::<fn(&f64) -> bool>,
        )
    });
    let frontier: Vec<usize> = (0..n).step_by(64).collect();
    let sparse =
        SparseVec::from_parts(n, frontier.clone(), vec![1.0; frontier.len()]).expect("frontier");
    let vxm_s = time_p10(2 * ITERS, || {
        spmv::vxm(ctx, &sparse, &a, |x, a| x * weight(a), |p, q| p + q)
    });
    // Computed traffic of one pull SpMV: the matrix once, x and y once each.
    let spmv_bytes = a.bytes() as f64 + 2.0 * (n * std::mem::size_of::<f64>()) as f64;
    let m = vec![
        metric("sparse.probe.coo_to_csr_s", coo_to_csr_s, "s"),
        metric(
            "sparse.probe.transpose_s",
            time_p10(ITERS, || transpose::transpose(ctx, &a)),
            "s",
        ),
        metric("sparse.probe.spmv_s", spmv_s, "s"),
        metric("sparse.probe.spmv_gbps", spmv_bytes / spmv_s * 1e-9, "GB/s"),
        metric("sparse.probe.vxm_s", vxm_s, "s"),
    ];
    (m, a)
}

/// The `spgemm` workload's two products at the sparse layer, and the masked
/// one again through `core::mxm` (inside `algo::triangle_count` the harness
/// cannot time it from outside).
fn spgemm_probes(ctx: &Context, w: &SpGemm, a: &Csr<bool>) -> GrbResult<Vec<Metric>> {
    let b = csr_of(ctx, &coo_of(w.n_b, &w.b_rows, &w.b_cols, w.b_vals.clone()));
    let products: u64 = b.indices().iter().map(|&k| b.row_nnz(k) as u64).sum();
    let spgemm_s = time_p10(ITERS, || {
        spgemm::spgemm(ctx, &b, &b, |x, y| x * y, |acc, z| *acc += z)
    });
    let l = a.filter_map_with_index(ctx, |r, c, v| (c < r).then_some(*v));
    let masked_s = time_p10(ITERS, || {
        spgemm::spgemm_masked(
            ctx,
            &l,
            false,
            |_| true,
            &l,
            &l,
            |_, _| 1u64,
            |acc, z| *acc += z,
        )
    });

    let am = Matrix::<bool>::new_in(ctx, w.n_a, w.n_a)?;
    am.build(
        &w.a_rows,
        &w.a_cols,
        &vec![true; w.a_rows.len()],
        Some(&BinaryOp::lor()),
    )?;
    let lm = Matrix::<bool>::new_in(ctx, w.n_a, w.n_a)?;
    select(
        &lm,
        graphblas::no_mask(),
        None,
        &IndexUnaryOp::tril(),
        &am,
        -1i64,
        &Descriptor::default(),
    )?;
    lm.wait(WaitMode::Materialize)?;
    let mut failed = None;
    let mxm_masked_s = time_p10(ITERS, || {
        let run = || -> GrbResult {
            let c = Matrix::<u64>::new_in(ctx, w.n_a, w.n_a)?;
            let pair = Semiring::<bool, bool, u64>::plus_pair();
            mxm(
                &c,
                Some(&lm),
                None,
                &pair,
                &lm,
                &lm,
                &Descriptor::new().structure_mask(),
            )?;
            c.wait(WaitMode::Complete)
        };
        if let Err(e) = run() {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(vec![
        metric("sparse.probe.spgemm_s", spgemm_s, "s"),
        metric(
            "sparse.probe.spgemm_mflops",
            2.0 * products as f64 / spgemm_s * 1e-6,
            "Mflop/s",
        ),
        metric("sparse.probe.spgemm_masked_s", masked_s, "s"),
        metric("core.mxm_masked_s", mxm_masked_s, "s"),
    ])
}

/// An empty scope with one no-op task per worker: what every parallel
/// kernel pays before it does any work.
fn scope_roundtrip_us() -> f64 {
    let pool = global_pool();
    time_p10(2000, || {
        pool.scope(|s| {
            for _ in 0..pool.size() {
                s.spawn(|| {});
            }
        })
    }) * 1e6
}

pub fn run(args: &Args) -> u8 {
    let ctx = Context::new(
        &global_context(),
        Mode::Blocking,
        ContextOptions {
            nthreads: Some(1),
            ..ContextOptions::default()
        },
    );
    let (seed, quick) = (args.seed, args.quick);
    let pattern = |n: usize, rows: &[usize], cols: &[usize]| {
        matrix_probes(&ctx, &coo_of(n, rows, cols, vec![true; rows.len()]), |_| {
            1.0
        })
    };
    let mut m = match args.workload.as_str() {
        "pagerank" => {
            let w = PageRank::generate(seed, quick);
            pattern(w.n, &w.rows, &w.cols).0
        }
        "bfs" => {
            let w = Bfs::generate(seed, quick);
            pattern(w.n, &w.rows, &w.cols).0
        }
        "spgemm" => {
            let w = SpGemm::generate(seed, quick);
            let (mut m, a) = pattern(w.n_a, &w.a_rows, &w.a_cols);
            match spgemm_probes(&ctx, &w, &a) {
                Ok(more) => m.extend(more),
                Err(e) => {
                    eprintln!("spgemm: core probe failed: {e}");
                    return 1;
                }
            }
            m
        }
        "update" => {
            let w = Update::generate(seed, quick);
            matrix_probes(&ctx, &coo_of(w.n, &w.rows, &w.cols, w.vals.clone()), |v| *v).0
        }
        other => unreachable!("workload name {other:?} passed argument parsing"),
    };
    m.push(metric(
        "exec.probe.scope_roundtrip_us",
        scope_roundtrip_us(),
        "us",
    ));
    print_metrics(&args.workload, &m);
    0
}
