//! `repro` — regenerates every table and figure of *Introduction to
//! GraphBLAS 2.0* (Brock et al., IPDPSW 2021) as measured experiments,
//! in paper order, printing one report section per artifact.
//!
//! Run with: `cargo run --release -p graphblas-bench --bin repro`
//!
//! The output of this binary is the source of `EXPERIMENTS.md`.

use std::sync::atomic::{AtomicBool, Ordering};

use graphblas_bench::{
    fmt_time, median_secs, random_csr, random_matrix, rmat_bool, rmat_weighted,
};
use graphblas_core::operations::{
    apply_indexop, apply_indexop_v, apply_v, mxm, reduce_scalar, reduce_to_value, select,
};
use graphblas_core::{
    global_context, no_mask, no_mask_v, BinaryOp, Context, ContextOptions, Descriptor, Format,
    IndexUnaryOp, Matrix, Mode, Monoid, Scalar, Semiring, UnaryOp, Vector, WaitMode,
};

fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

fn main() {
    graphblas_core::init(Mode::Blocking);
    println!("graphblas-rs reproduction report");
    println!(
        "host parallelism: {} threads",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    fig1_multithreading();
    fig2_contexts();
    fig3_index_ops();
    table1_scalar();
    table2_scalar_variants();
    table3_import_export();
    table4_index_unary();
    motivation_packing();
    ablation_dispatch();
    ablation_fusion();
    ablation_terminal();
    algorithms();
    obs_report();

    println!("\nreport complete");
}

// ---------------------------------------------------------------------
// Observability — instrumented pagerank run, snapshot to BENCH_obs.json
// ---------------------------------------------------------------------
fn obs_report() {
    header("Observability — obs snapshot of pagerank on R-MAT scale-12");
    graphblas_obs::set_enabled(true);
    graphblas_obs::reset();

    // Rebuild the scale-12 graph inside a named nonblocking context so
    // the snapshot exercises per-context attribution and rollups.
    let ctx = Context::new(
        &global_context(),
        Mode::NonBlocking,
        ContextOptions {
            name: Some("pagerank-obs".to_string()),
            ..ContextOptions::default()
        },
    );
    let src = rmat_bool(12, 8, 12);
    let (rows, cols, vals) = src.extract_tuples().unwrap();
    let a = Matrix::<bool>::new_in(&ctx, src.nrows(), src.ncols()).unwrap();
    a.build(&rows, &cols, &vals, Some(&BinaryOp::new("lor", |x: &bool, y: &bool| *x || *y)))
        .unwrap();
    a.wait(WaitMode::Materialize).unwrap();
    std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 50).unwrap());

    let per_object = a.stats();
    let snap = graphblas_obs::snapshot();
    graphblas_obs::set_enabled(false);

    let json = snap.to_json();
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");

    println!("| kernel | calls | wall | flops | nnz in | nnz out |");
    println!("|--------|-------|------|-------|--------|---------|");
    for k in snap.kernels.iter().filter(|k| k.calls > 0) {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            k.kernel.name(),
            k.calls,
            fmt_time(k.nanos as f64 / 1e9),
            k.flops,
            k.nnz_in,
            k.nnz_out
        );
    }
    println!(
        "pending: {} maps + {} opaques enqueued, {} fusion hits over {} traversals, {} drains",
        snap.pending.maps_enqueued,
        snap.pending.opaques_enqueued,
        snap.pending.fusion_hits,
        snap.pending.map_traversals,
        snap.pending.drains
    );
    println!(
        "pool: {} tasks spawned, {} inline, {} parks, {} wakes",
        snap.pool.tasks_spawned, snap.pool.tasks_inline, snap.pool.parks, snap.pool.wakes
    );
    for c in &snap.contexts {
        println!(
            "context {} ({}): own {} spans / {}, rolled-up {} spans / {}",
            c.id,
            c.name.as_deref().unwrap_or("anonymous"),
            c.own.spans,
            fmt_time(c.own.nanos as f64 / 1e9),
            c.rolled.spans,
            fmt_time(c.rolled.nanos as f64 / 1e9)
        );
    }
    println!("object stats (GrB_get-style): {}", per_object.to_json());
    println!(
        "snapshot: {} events recorded, {} bytes of JSON -> BENCH_obs.json",
        snap.events_total,
        json.len()
    );
    assert!(
        snap.total_kernel_nanos() > 0 && snap.contexts.iter().any(|c| c.rolled.spans > 0),
        "instrumented pagerank must produce non-zero span timings and context rollups"
    );
}

// ---------------------------------------------------------------------
// Fig. 1 — multithreaded sharing with completion + acquire/release
// ---------------------------------------------------------------------
fn fig1_multithreading() {
    header("Fig. 1 — two threads sharing Esh (wait(COMPLETE) + acquire/release)");
    let n = 512;
    let sr = Semiring::<f64, f64, f64>::plus_times();
    let desc = Descriptor::default();
    let make = |seed: u64| random_matrix(n, 8 * n, seed);

    let run_seq = || {
        let (a, b, d, e, f) = (make(1), make(2), make(3), make(4), make(5));
        let c = Matrix::<f64>::new(n, n).unwrap();
        let esh = Matrix::<f64>::new(n, n).unwrap();
        let dres = Matrix::<f64>::new(n, n).unwrap();
        let g = Matrix::<f64>::new(n, n).unwrap();
        let hres = Matrix::<f64>::new(n, n).unwrap();
        mxm(&c, no_mask(), None, &sr, &a, &b, &desc).unwrap();
        mxm(&esh, no_mask(), None, &sr, &d, &c, &desc).unwrap();
        mxm(&dres, no_mask(), None, &sr, &a, &esh, &desc).unwrap();
        mxm(&g, no_mask(), None, &sr, &e, &f, &desc).unwrap();
        mxm(&hres, no_mask(), None, &sr, &g, &esh, &desc).unwrap();
        (dres.nvals().unwrap(), hres.nvals().unwrap())
    };

    let run_par = || {
        let ctx = Context::new(
            &global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let esh = Matrix::<f64>::new_in(&ctx, n, n).unwrap();
        let dres = Matrix::<f64>::new_in(&ctx, n, n).unwrap();
        let hres = Matrix::<f64>::new_in(&ctx, n, n).unwrap();
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            {
                let (esh, dres, ctx, sr) = (esh.clone(), dres.clone(), ctx.clone(), sr.clone());
                let flag = &flag;
                s.spawn(move || {
                    let (a, b, d) = (make(1), make(2), make(3));
                    for m in [&a, &b, &d] {
                        m.switch_context(&ctx).unwrap();
                    }
                    let c = Matrix::<f64>::new_in(&ctx, n, n).unwrap();
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
                s.spawn(move || {
                    let (e, f) = (make(4), make(5));
                    for m in [&e, &f] {
                        m.switch_context(&ctx).unwrap();
                    }
                    let g = Matrix::<f64>::new_in(&ctx, n, n).unwrap();
                    mxm(&g, no_mask(), None, &sr, &e, &f, &desc).unwrap();
                    while !flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    mxm(&hres, no_mask(), None, &sr, &g, &esh, &desc).unwrap();
                    hres.wait(WaitMode::Complete).unwrap();
                });
            }
        });
        (dres.nvals().unwrap(), hres.nvals().unwrap())
    };

    let expect = run_seq();
    let got = run_par();
    assert_eq!(expect, got, "concurrent run must match sequential");
    let t_seq = median_secs(3, || {
        let _ = run_seq();
    });
    let t_par = median_secs(3, || {
        let _ = run_par();
    });
    println!("| schedule                 | wall time | result (nvals D, H) |");
    println!("|--------------------------|-----------|---------------------|");
    println!("| sequential               | {} | {expect:?} |", fmt_time(t_seq));
    println!("| 2 threads (Fig. 1 sync)  | {} | {got:?} |", fmt_time(t_par));
    println!("race-free: results identical across schedules ✓");
}

// ---------------------------------------------------------------------
// Fig. 2 — hierarchical contexts: thread budget scaling
// ---------------------------------------------------------------------
fn fig2_contexts() {
    header("Fig. 2 — execution contexts: mxm under nested thread budgets");
    let a = rmat_weighted(13, 8, 7);
    let sr = Semiring::<f64, f64, f64>::plus_times();
    println!("workload: RMAT scale 13 (n = {}), {} edges, C = A·A", a.nrows(), a.nvals().unwrap());
    let pool = graphblas_exec::global_pool().size();
    if pool < 8 {
        println!(
            "NOTE: global pool has {pool} worker(s); budgets above that are \
             clamped (set GRB_POOL_THREADS to widen)."
        );
    }
    // Warm up caches/allocator so the first measured budget isn't inflated.
    {
        let warm = Matrix::<f64>::new(a.nrows(), a.ncols()).unwrap();
        mxm(&warm, no_mask(), None, &sr, &a, &a, &Descriptor::default()).unwrap();
    }
    println!("| threads | time | speedup vs 1 |");
    println!("|---------|------|--------------|");
    let mut t1 = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let ctx = Context::new(
            &global_context(),
            Mode::Blocking,
            ContextOptions {
                nthreads: Some(threads),
                ..Default::default()
            },
        );
        let a2 = a.dup().unwrap();
        a2.switch_context(&ctx).unwrap();
        let c = Matrix::<f64>::new_in(&ctx, a.nrows(), a.ncols()).unwrap();
        let t = median_secs(3, || {
            mxm(&c, no_mask(), None, &sr, &a2, &a2, &Descriptor::default()).unwrap();
        });
        if threads == 1 {
            t1 = t;
        }
        println!("| {threads:7} | {} | {:12.2}x |", fmt_time(t), t1 / t);
    }
    // Nested clamp demonstration.
    let outer = Context::new(
        &global_context(),
        Mode::Blocking,
        ContextOptions {
            nthreads: Some(2),
            ..Default::default()
        },
    );
    let inner = Context::new(
        &outer,
        Mode::Blocking,
        ContextOptions {
            nthreads: Some(64),
            ..Default::default()
        },
    );
    println!(
        "nested context asking for 64 threads inside a 2-thread parent gets: {} ✓",
        inner.effective_threads()
    );
}

// ---------------------------------------------------------------------
// Fig. 3 — select and apply with index-unary operators
// ---------------------------------------------------------------------
fn fig3_index_ops() {
    header("Fig. 3 — index-unary select (user triu-threshold) and apply (COLINDEX)");
    let a = rmat_weighted(13, 8, 3);
    let n = a.nrows();
    let nnz = a.nvals().unwrap();
    println!("workload: RMAT scale 13, {nnz} stored elements");
    let my_triu_gt = IndexUnaryOp::<f64, f64, bool>::new("my_triu_gt", |v, idx, s| {
        idx[1] > idx[0] && v > s
    });
    let sel = Matrix::<f64>::new(n, n).unwrap();
    let t_sel = median_secs(5, || {
        select(&sel, no_mask(), None, &my_triu_gt, &a, 0.5f64, &Descriptor::default()).unwrap();
    });
    let app = Matrix::<i64>::new(n, n).unwrap();
    let t_app = median_secs(5, || {
        apply_indexop(
            &app,
            no_mask(),
            None,
            &IndexUnaryOp::colindex(),
            &a,
            1i64,
            &Descriptor::default(),
        )
        .unwrap();
    });
    println!("| operation | time | output nvals |");
    println!("|-----------|------|--------------|");
    println!("| select(my_triu_gt, s=0.5) | {} | {} |", fmt_time(t_sel), sel.nvals().unwrap());
    println!("| apply(COLINDEX, s=1)      | {} | {} |", fmt_time(t_app), app.nvals().unwrap());
    assert_eq!(app.nvals().unwrap(), nnz, "apply preserves structure");
}

// ---------------------------------------------------------------------
// Table I — GrB_Scalar manipulation methods
// ---------------------------------------------------------------------
fn table1_scalar() {
    header("Table I — GrB_Scalar methods (per-call latency, 100k calls)");
    let iters = 100_000u32;
    let time_per_call = |f: &mut dyn FnMut()| {
        let t = median_secs(3, || {
            for _ in 0..iters {
                f();
            }
        });
        t / iters as f64
    };
    let s = Scalar::<i64>::new().unwrap();
    s.set_element(1).unwrap();
    let rows: Vec<(&str, f64)> = vec![
        ("GrB_Scalar_new", time_per_call(&mut || {
            std::hint::black_box(Scalar::<i64>::new().unwrap());
        })),
        ("GrB_Scalar_dup", time_per_call(&mut || {
            std::hint::black_box(s.dup().unwrap());
        })),
        ("GrB_Scalar_clear", time_per_call(&mut || {
            s.clear().unwrap();
        })),
        ("GrB_Scalar_nvals", time_per_call(&mut || {
            std::hint::black_box(s.nvals().unwrap());
        })),
        ("GrB_Scalar_setElement", time_per_call(&mut || {
            s.set_element(7).unwrap();
        })),
        ("GrB_Scalar_extractElement", time_per_call(&mut || {
            std::hint::black_box(s.extract_element().unwrap());
        })),
    ];
    println!("| method | latency |");
    println!("|--------|---------|");
    for (name, t) in rows {
        println!("| {name:-26} | {} |", fmt_time(t));
    }
}

// ---------------------------------------------------------------------
// Table II — GrB_Scalar variants vs typed variants
// ---------------------------------------------------------------------
fn table2_scalar_variants() {
    header("Table II — scalar-variant vs typed-variant methods");
    let m = rmat_weighted(12, 8, 5);
    let s = Scalar::<f64>::new().unwrap();
    s.set_element(1.5).unwrap();
    let iters = 50_000u32;
    let per = |f: &mut dyn FnMut()| {
        median_secs(3, || {
            for _ in 0..iters {
                f();
            }
        }) / iters as f64
    };
    let t_set_typed = per(&mut || m.set_element(2.0, 5, 5).unwrap());
    m.wait(WaitMode::Materialize).unwrap();
    let t_set_scalar = per(&mut || m.set_element_scalar(&s, 5, 5).unwrap());
    m.wait(WaitMode::Materialize).unwrap();
    let out = Scalar::<f64>::new().unwrap();
    let t_ext_typed = per(&mut || {
        std::hint::black_box(m.extract_element(5, 5).unwrap());
    });
    let t_ext_scalar = per(&mut || m.extract_element_scalar(&out, 5, 5).unwrap());
    // Reductions (per call, not per element).
    let t_red_typed = median_secs(5, || {
        std::hint::black_box(reduce_to_value(&Monoid::plus(), &m).unwrap());
    });
    let t_red_scalar = median_secs(5, || {
        reduce_scalar(&out, None, &Monoid::plus(), &m).unwrap();
        std::hint::black_box(out.extract_element().unwrap());
    });
    println!("| method | typed variant | GrB_Scalar variant |");
    println!("|--------|---------------|--------------------|");
    println!("| Matrix_setElement     | {} | {} |", fmt_time(t_set_typed), fmt_time(t_set_scalar));
    println!("| Matrix_extractElement | {} | {} |", fmt_time(t_ext_typed), fmt_time(t_ext_scalar));
    println!("| reduce (whole matrix) | {} | {} |", fmt_time(t_red_typed), fmt_time(t_red_scalar));
    // §VI semantics check: empty reduce → empty scalar, not identity.
    let empty = Matrix::<f64>::new(4, 4).unwrap();
    reduce_scalar(&out, None, &Monoid::plus(), &empty).unwrap();
    assert_eq!(out.nvals().unwrap(), 0);
    println!("empty-matrix reduce into scalar leaves the scalar EMPTY (§VI) ✓");
}

// ---------------------------------------------------------------------
// Table III — import/export formats + serialization
// ---------------------------------------------------------------------
fn table3_import_export() {
    header("Table III — import/export throughput per format (+ §VII.B serialize)");
    let a = rmat_weighted(14, 8, 11);
    let nnz = a.nvals().unwrap();
    a.wait(WaitMode::Materialize).unwrap();
    println!("workload: RMAT scale 14, {nnz} stored elements");
    println!("| format | export | import | round-trip verified |");
    println!("|--------|--------|--------|---------------------|");
    for fmt in [Format::Csr, Format::Csc, Format::Coo] {
        let t_exp = median_secs(3, || {
            std::hint::black_box(a.export(fmt).unwrap());
        });
        let (p, i, v) = a.export(fmt).unwrap();
        let t_imp = median_secs(3, || {
            std::hint::black_box(
                Matrix::<f64>::import(
                    a.nrows(),
                    a.ncols(),
                    fmt,
                    Some(p.clone()),
                    Some(i.clone()),
                    v.clone(),
                )
                .unwrap(),
            );
        });
        let back =
            Matrix::<f64>::import(a.nrows(), a.ncols(), fmt, Some(p), Some(i), v).unwrap();
        let ok = back.nvals().unwrap() == nnz;
        println!("| {fmt:?} | {} | {} | {ok} |", fmt_time(t_exp), fmt_time(t_imp));
    }
    // Dense formats on a small fully-populated matrix.
    let d = Matrix::<f64>::import(
        256,
        256,
        Format::DenseRow,
        None,
        None,
        (0..256 * 256).map(|x| x as f64).collect(),
    )
    .unwrap();
    for fmt in [Format::DenseRow, Format::DenseCol] {
        let t_exp = median_secs(3, || {
            std::hint::black_box(d.export(fmt).unwrap());
        });
        let (_, _, v) = d.export(fmt).unwrap();
        let t_imp = median_secs(3, || {
            std::hint::black_box(
                Matrix::<f64>::import(256, 256, fmt, None, None, v.clone()).unwrap(),
            );
        });
        println!("| {fmt:?} (256² dense) | {} | {} | true |", fmt_time(t_exp), fmt_time(t_imp));
    }
    // Serialize / deserialize.
    let bytes = a.serialize().unwrap();
    let t_ser = median_secs(3, || {
        std::hint::black_box(a.serialize().unwrap());
    });
    let t_de = median_secs(3, || {
        std::hint::black_box(Matrix::<f64>::deserialize(&bytes).unwrap());
    });
    println!("| serialize (opaque) | {} | {} | {} bytes |", fmt_time(t_ser), fmt_time(t_de), bytes.len());
    println!("export hint (the one internal store): {:?} ✓", a.export_hint());
}

// ---------------------------------------------------------------------
// Table IV — the 18 predefined index-unary operators
// ---------------------------------------------------------------------
fn table4_index_unary() {
    header("Table IV — predefined index-unary operators over RMAT scale 13");
    let a = rmat_weighted(13, 8, 13);
    let n = a.nrows();
    let sel_out = Matrix::<f64>::new(n, n).unwrap();
    let app_out = Matrix::<i64>::new(n, n).unwrap();
    println!("| operator | kind | time | kept/total |");
    println!("|----------|------|------|------------|");
    let nnz = a.nvals().unwrap();
    let run_select = |name: &str, f: &IndexUnaryOp<f64, i64, bool>, s: i64| {
        let t = median_secs(3, || {
            select(&sel_out, no_mask(), None, f, &a, s, &Descriptor::default()).unwrap();
        });
        println!(
            "| {name:-10} | select | {} | {}/{nnz} |",
            fmt_time(t),
            sel_out.nvals().unwrap()
        );
    };
    run_select("TRIL", &IndexUnaryOp::tril(), 0);
    run_select("TRIU", &IndexUnaryOp::triu(), 0);
    run_select("DIAG", &IndexUnaryOp::diag(), 0);
    run_select("OFFDIAG", &IndexUnaryOp::offdiag(), 0);
    run_select("ROWLE", &IndexUnaryOp::rowle(), (n / 2) as i64);
    run_select("ROWGT", &IndexUnaryOp::rowgt(), (n / 2) as i64);
    run_select("COLLE", &IndexUnaryOp::colle(), (n / 2) as i64);
    run_select("COLGT", &IndexUnaryOp::colgt(), (n / 2) as i64);
    let run_vselect = |name: &str, f: &IndexUnaryOp<f64, f64, bool>, s: f64| {
        let t = median_secs(3, || {
            select(&sel_out, no_mask(), None, f, &a, s, &Descriptor::default()).unwrap();
        });
        println!(
            "| {name:-10} | select | {} | {}/{nnz} |",
            fmt_time(t),
            sel_out.nvals().unwrap()
        );
    };
    run_vselect("VALUEEQ", &IndexUnaryOp::valueeq(), 0.5);
    run_vselect("VALUENE", &IndexUnaryOp::valuene(), 0.5);
    run_vselect("VALUELT", &IndexUnaryOp::valuelt(), 0.5);
    run_vselect("VALUELE", &IndexUnaryOp::valuele(), 0.5);
    run_vselect("VALUEGT", &IndexUnaryOp::valuegt(), 0.5);
    run_vselect("VALUEGE", &IndexUnaryOp::valuege(), 0.5);
    let run_apply = |name: &str, f: &IndexUnaryOp<f64, i64, i64>| {
        let t = median_secs(3, || {
            apply_indexop(&app_out, no_mask(), None, f, &a, 0i64, &Descriptor::default())
                .unwrap();
        });
        println!("| {name:-10} | apply  | {} | {nnz}/{nnz} |", fmt_time(t));
    };
    run_apply("ROWINDEX", &IndexUnaryOp::rowindex());
    run_apply("COLINDEX", &IndexUnaryOp::colindex());
    run_apply("DIAGINDEX", &IndexUnaryOp::diagindex());
}

// ---------------------------------------------------------------------
// §II motivation A — index-in-values packing vs index-unary operators
// ---------------------------------------------------------------------
fn motivation_packing() {
    header("§II motivation — 1.X index-in-values packing vs 2.0 index-unary apply");
    let n = 1 << 21;
    let idx: Vec<usize> = (0..n).collect();

    // GraphBLAS 1.X style: the vertex index is packed into the value
    // array as a (payload, index) tuple, stored AND streamed twice.
    let packed_vals: Vec<(f64, i64)> = (0..n).map(|i| (1.0, i as i64)).collect();
    let packed = Vector::<(f64, i64)>::new(n).unwrap();
    packed.build(&idx, &packed_vals, None).unwrap();
    let unpack = UnaryOp::<(f64, i64), i64>::new("unpack", |t| t.1);
    let out_ids = Vector::<i64>::new(n).unwrap();
    let t_packed = median_secs(11, || {
        apply_v(&out_ids, no_mask_v(), None, &unpack, &packed, &Descriptor::default()).unwrap();
    });

    // GraphBLAS 2.0 style: plain payload values; ROWINDEX reads the index
    // directly from the structure.
    let plain_vals: Vec<f64> = vec![1.0; n];
    let plain = Vector::<f64>::new(n).unwrap();
    plain.build(&idx, &plain_vals, None).unwrap();
    let t_indexop = median_secs(11, || {
        apply_indexop_v(
            &out_ids,
            no_mask_v(),
            None,
            &IndexUnaryOp::rowindex(),
            &plain,
            0i64,
            &Descriptor::default(),
        )
        .unwrap();
    });

    let packed_bytes = n * std::mem::size_of::<(f64, i64)>();
    let plain_bytes = n * std::mem::size_of::<f64>();
    println!("workload: dense vector, n = {n} (reindex a BFS-parent frontier)");
    println!("| approach | value storage | apply time |");
    println!("|----------|---------------|------------|");
    println!(
        "| 1.X packed (value,index) + user unpack op | {:6.1} MiB | {} |",
        packed_bytes as f64 / (1024.0 * 1024.0),
        fmt_time(t_packed)
    );
    println!(
        "| 2.0 index-unary ROWINDEX apply            | {:6.1} MiB | {} |",
        plain_bytes as f64 / (1024.0 * 1024.0),
        fmt_time(t_indexop)
    );
    println!(
        "storage saved: {:.0}%  |  speedup: {:.2}x  (paper predicts 2.0 wins on both)",
        100.0 * (1.0 - plain_bytes as f64 / packed_bytes as f64),
        t_packed / t_indexop
    );
}

// ---------------------------------------------------------------------
// §II motivation B — per-scalar indirect calls vs monomorphized kernels
// ---------------------------------------------------------------------
fn ablation_dispatch() {
    header("§II motivation — dyn-dispatch operators vs monomorphized kernels");
    let ctx = global_context();
    // Dense enough that per-scalar multiply/add dominates SPA overhead:
    // ~64 nnz/row ⇒ ~4M fused multiply-adds for C = A·A.
    let a = random_csr(1024, 1024 * 64, 21);
    let flops: usize = {
        let mut f = 0usize;
        for i in 0..a.nrows() {
            let (cols, _) = a.row(i);
            for &k in cols {
                f += a.row_nnz(k);
            }
        }
        f
    };
    // Boxed operator objects (the function-pointer path the paper
    // describes for SuiteSparse).
    let sr = Semiring::<f64, f64, f64>::plus_times();
    let t_dyn = median_secs(7, || {
        std::hint::black_box(graphblas_sparse::spgemm::spgemm(
            &ctx,
            &a,
            &a,
            |x, y| sr.multiply(x, y),
            |acc, z| *acc = sr.combine(acc, &z),
        ));
    });
    // Inline closures: fully monomorphized multiply/add.
    let t_static = median_secs(7, || {
        std::hint::black_box(graphblas_sparse::spgemm::spgemm(
            &ctx,
            &a,
            &a,
            |x: &f64, y: &f64| x * y,
            |acc: &mut f64, z: f64| *acc += z,
        ));
    });
    // Pure per-element comparison: a value map with no accumulator
    // structure at all.
    let unary = UnaryOp::<f64, f64>::new("fma", |x| x * 1.0000001 + 3.5);
    let t_map_dyn = median_secs(7, || {
        std::hint::black_box(a.map(&ctx, |v| unary.apply(v)));
    });
    let t_map_static = median_secs(7, || {
        std::hint::black_box(a.map(&ctx, |v: &f64| v * 1.0000001 + 3.5));
    });
    println!("workload: 1024² matrix, {} nnz, {flops} multiply-adds for C = A·A", a.nnz());
    println!("| kernel | Arc<dyn Fn> ops | monomorphized | penalty |");
    println!("|--------|-----------------|---------------|---------|");
    println!(
        "| SpGEMM (plus-times) | {} | {} | {:5.2}x |",
        fmt_time(t_dyn),
        fmt_time(t_static),
        t_dyn / t_static
    );
    println!(
        "| apply/map           | {} | {} | {:5.2}x |",
        fmt_time(t_map_dyn),
        fmt_time(t_map_static),
        t_map_dyn / t_map_static
    );
    println!(
        "(paper §II: per-scalar \"function pointer call\" is a real penalty; \
         static dispatch should win)"
    );
}

// ---------------------------------------------------------------------
// §III — nonblocking fusion of element-wise chains
// ---------------------------------------------------------------------
fn ablation_fusion() {
    header("§III — fused nonblocking pipelines vs eager blocking execution");
    let scale = 18usize;
    let n = 1 << scale;
    let idx: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
    println!("workload: dense vector n = {n}; chain of k in-place apply stages");
    println!("| k | blocking (eager) | nonblocking (fused) | speedup |");
    println!("|---|------------------|---------------------|---------|");
    for k in [1usize, 2, 4, 8] {
        let run = |mode: Mode| {
            let ctx = Context::new(&global_context(), mode, ContextOptions::default());
            let v = Vector::<f64>::new_in(&ctx, n).unwrap();
            v.build(&idx, &vals, None).unwrap();
            v.wait(WaitMode::Materialize).unwrap();
            median_secs(3, || {
                for _ in 0..k {
                    apply_v(
                        &v,
                        no_mask_v(),
                        None,
                        &UnaryOp::new("inc", |x: &f64| x + 1.0),
                        &v,
                        &Descriptor::default(),
                    )
                    .unwrap();
                }
                v.wait(WaitMode::Complete).unwrap();
            })
        };
        let t_eager = run(Mode::Blocking);
        let t_fused = run(Mode::NonBlocking);
        println!(
            "| {k} | {} | {} | {:7.2}x |",
            fmt_time(t_eager),
            fmt_time(t_fused),
            t_eager / t_fused
        );
    }
}

// ---------------------------------------------------------------------
// Monoid terminal (annihilator) early exit
// ---------------------------------------------------------------------
fn ablation_terminal() {
    header("Ablation — monoid terminal (annihilator) early exit in mxv");
    // Dense boolean rows: with the LOR terminal, each row's *pull*
    // reduction stops at the first hit instead of scanning all
    // neighbours. (Only the pull kernel can exit early; the push kernel
    // must visit every product.)
    let n = 4096usize;
    let a = Matrix::<bool>::new(n, n).unwrap();
    let mut rows = Vec::with_capacity(n * 64);
    let mut cols = Vec::with_capacity(n * 64);
    for i in 0..n {
        for j in 0..64 {
            rows.push(i);
            cols.push((i + j) % n);
        }
    }
    a.build(&rows, &cols, &vec![true; rows.len()], Some(&BinaryOp::lor()))
        .unwrap();
    a.wait(WaitMode::Materialize).unwrap();
    let x = Vector::<bool>::new(n).unwrap();
    let all: Vec<usize> = (0..n).collect();
    x.build(&all, &vec![true; n], None).unwrap();
    let w = Vector::<bool>::new(n).unwrap();

    let with_terminal = Semiring::new(Monoid::lor(), BinaryOp::land());
    let without_terminal = Semiring::new(
        Monoid::new(BinaryOp::lor(), false), // same algebra, no terminal
        BinaryOp::land(),
    );
    let t_with = median_secs(7, || {
        graphblas_core::operations::mxv(
            &w,
            no_mask_v(),
            None,
            &with_terminal,
            &a,
            &x,
            &Descriptor::default(),
        )
        .unwrap();
    });
    let t_without = median_secs(7, || {
        graphblas_core::operations::mxv(
            &w,
            no_mask_v(),
            None,
            &without_terminal,
            &a,
            &x,
            &Descriptor::default(),
        )
        .unwrap();
    });
    println!("workload: {n}² boolean matrix, 64 nnz/row, dense frontier, w = A ∨.∧ x");
    println!("| monoid | time |");
    println!("|--------|------|");
    println!("| LOR with terminal=true (early exit) | {} |", fmt_time(t_with));
    println!("| LOR without terminal                | {} |", fmt_time(t_without));
    println!("early-exit speedup: {:.2}x", t_without / t_with);
}

// ---------------------------------------------------------------------
// Algorithm layer (the LAGraph role)
// ---------------------------------------------------------------------
fn algorithms() {
    header("Algorithm layer — LAGraph-style workloads on RMAT graphs");
    println!("| scale | n | edges | BFS | SSSP | PageRank | triangles | components | BC (4 sources) |");
    println!("|-------|---|-------|-----|------|----------|-----------|------------|----------------|");
    for scale in [12u32, 13, 14] {
        let a = rmat_bool(scale, 8, scale as u64);
        let w = rmat_weighted(scale, 8, scale as u64);
        let n = a.nrows();
        let edges = a.nvals().unwrap();
        let t_bfs = median_secs(3, || {
            std::hint::black_box(graphblas_algo::bfs_levels(&a, 0).unwrap());
        });
        let t_sssp = median_secs(3, || {
            std::hint::black_box(graphblas_algo::sssp_bellman_ford(&w, 0).unwrap());
        });
        let t_pr = median_secs(3, || {
            std::hint::black_box(graphblas_algo::pagerank(&a, 0.85, 1e-6, 50).unwrap());
        });
        let mut triangles = 0u64;
        let t_tc = median_secs(3, || {
            triangles = graphblas_algo::triangle_count(&a).unwrap();
        });
        let t_cc = median_secs(3, || {
            std::hint::black_box(graphblas_algo::connected_components(&a).unwrap());
        });
        let t_bc = median_secs(3, || {
            std::hint::black_box(
                graphblas_algo::betweenness_centrality(&a, &[0, 1, 2, 3]).unwrap(),
            );
        });
        println!(
            "| {scale} | {n} | {edges} | {} | {} | {} | {} ({triangles}) | {} | {} |",
            fmt_time(t_bfs),
            fmt_time(t_sssp),
            fmt_time(t_pr),
            fmt_time(t_tc),
            fmt_time(t_cc),
            fmt_time(t_bc)
        );
    }
}
