//! Benchmark harness for graphblas-rs: four closed-loop, single-client
//! workloads, each verified against an independent reference, timed in a
//! one-thread §IV context, and reported as low quantiles of ≥ 100 reps.
//!
//! This crate depends only on the `graphblas` facade, so the gate keeps
//! building whatever happens to the engine's internal crates. See
//! `benchmark/README.md` for the design and the measured repeatability.

pub mod pass;
pub mod procfs;
pub mod reference;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::fmt::Write as _;

use pass::{Pass, Plan};
use spans::Tracer;
use workloads::Workload;

/// The end-to-end metrics, as `BENCHMARK.json` lists them: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rep_s_p10_1t", "s"),
    ("rep_s_p50_1t", "s"),
    ("work_per_s_1t", "1/s"),
    ("peak_rss_bytes", "B"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them: `(name, unit)`.
/// Every workload reports every one; a metric that does not apply reads 0.
pub const PER_LAYER: [(&str, &str); 97] = [
    ("algo.call_s", "s"),
    ("algo.bfs_levels_s", "s"),
    ("algo.bfs_parents_s", "s"),
    ("algo.iterations", "count"),
    ("core.self_share", "ratio"),
    ("core.kernel_calls", "count"),
    ("core.dispatch_static_hits", "count"),
    ("core.dispatch_dyn_fallbacks", "count"),
    ("core.dispatch_hit_ratio", "ratio"),
    ("core.direction_push_picks", "count"),
    ("core.direction_pull_picks", "count"),
    ("core.transpose_builds", "count"),
    ("core.transpose_hits", "count"),
    ("core.format_bitmap_picks", "count"),
    ("core.format_conversions", "count"),
    ("core.dag_nodes", "count"),
    ("core.dag_pre_fused", "count"),
    ("core.dag_post_fused", "count"),
    ("core.dag_forces", "count"),
    ("core.dag_async_drains", "count"),
    ("core.pending_fusion_hits", "count"),
    ("core.pending_drains", "count"),
    ("core.build_s", "s"),
    ("core.set_element_ns", "ns"),
    ("core.remove_element_us", "us"),
    ("core.wait_s", "s"),
    ("core.chain_s", "s"),
    ("core.extract_tuples_s", "s"),
    ("core.serialize_s", "s"),
    ("core.deserialize_s", "s"),
    ("core.serialize_bytes", "B"),
    ("core.mxm_masked_s", "s"),
    ("core.mxm_s", "s"),
    ("sparse.kernel_busy_s", "s"),
    ("sparse.spgemm.calls", "count"),
    ("sparse.spgemm.busy_s", "s"),
    ("sparse.spmv.calls", "count"),
    ("sparse.spmv.busy_s", "s"),
    ("sparse.vxm.calls", "count"),
    ("sparse.vxm.busy_s", "s"),
    ("sparse.ewise_add.calls", "count"),
    ("sparse.ewise_add.busy_s", "s"),
    ("sparse.ewise_mult.calls", "count"),
    ("sparse.ewise_mult.busy_s", "s"),
    ("sparse.transpose.calls", "count"),
    ("sparse.transpose.busy_s", "s"),
    ("sparse.apply.calls", "count"),
    ("sparse.apply.busy_s", "s"),
    ("sparse.select.calls", "count"),
    ("sparse.select.busy_s", "s"),
    ("sparse.reduce.calls", "count"),
    ("sparse.reduce.busy_s", "s"),
    ("sparse.map_fuse.calls", "count"),
    ("sparse.map_fuse.busy_s", "s"),
    ("sparse.convert.calls", "count"),
    ("sparse.convert.busy_s", "s"),
    ("sparse.wait.calls", "count"),
    ("sparse.wait.busy_s", "s"),
    ("sparse.flops_per_rep", "count"),
    ("sparse.bytes_moved_per_rep", "B"),
    ("sparse.flops_per_byte", "ratio"),
    ("sparse.probe.spmv_s", "s"),
    ("sparse.probe.spmv_gbps", "GB/s"),
    ("sparse.probe.vxm_s", "s"),
    ("sparse.probe.spgemm_s", "s"),
    ("sparse.probe.spgemm_mflops", "Mflop/s"),
    ("sparse.probe.spgemm_masked_s", "s"),
    ("sparse.probe.transpose_s", "s"),
    ("sparse.probe.coo_to_csr_s", "s"),
    ("exec.workers", "count"),
    ("exec.rep_s_p10_nt", "s"),
    ("exec.rep_s_p50_nt", "s"),
    ("exec.speedup_nt", "ratio"),
    ("exec.cpu_s_per_rep_1t", "s"),
    ("exec.cpu_s_per_rep_nt", "s"),
    ("exec.pool_tasks", "count"),
    ("exec.pool_task_wait_s", "s"),
    ("exec.pool_task_run_s", "s"),
    ("exec.pool_queue_depth_max", "count"),
    ("exec.workspace_checkouts", "count"),
    ("exec.workspace_hit_ratio", "ratio"),
    ("exec.workspace_bytes_reused", "B"),
    ("exec.probe.scope_roundtrip_us", "us"),
    ("io.gen_s", "s"),
    ("io.edges", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.container_high_bytes", "B"),
    ("obs.workspace_high_bytes", "B"),
    ("harness.reps_1t", "count"),
    ("harness.base_rep_s_p10_1t", "s"),
    ("harness.rep_s_p90_1t", "s"),
    ("harness.rep_s_iqr_rel_1t", "ratio"),
    ("harness.halves_rel_1t", "ratio"),
    ("harness.minflt_per_rep_1t", "count"),
    ("harness.rss_growth_bytes", "B"),
    ("harness.unattributed_share", "ratio"),
    ("harness.verify_s", "s"),
];

/// Set-up repetitions before the timed phase, in every phase of either pass:
/// with a single one the allocator settled into one of two states from run
/// to run (`pagerank`: 14 k or ≈ 0 page faults per rep), after five it did not.
pub const SETUPS: usize = 5;

/// Runs `$body` with `$W` bound to the workload type named `$name`.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "pagerank" => {
                type $W = $crate::workloads::PageRank;
                $body
            }
            "bfs" => {
                type $W = $crate::workloads::Bfs;
                $body
            }
            "spgemm" => {
                type $W = $crate::workloads::SpGemm;
                $body
            }
            "update" => {
                type $W = $crate::workloads::Update;
                $body
            }
            other => unreachable!("workload name {other:?} passed argument parsing"),
        }
    };
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `a ÷ b`, reading 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Prints `workload/name value unit`, one metric per line.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload}/{} {} {}", m.name, m.value, m.unit);
    }
}

/// Parses the lines [`print_metrics`] wrote for `workload`.
pub fn parse_metrics(workload: &str, stdout: &str) -> Vec<Metric> {
    let prefix = format!("{workload}/");
    stdout
        .lines()
        .filter_map(|l| {
            let mut parts = l.strip_prefix(&prefix)?.split(' ');
            let (name, value, unit) = (parts.next()?, parts.next()?, parts.next()?);
            let unit = UNITS.iter().find(|u| **u == unit)?;
            Some(metric(name, value.parse().ok()?, unit))
        })
        .collect()
}

/// Every unit a metric may carry.
pub const UNITS: [&str; 9] = [
    "s", "1/s", "B", "count", "ratio", "ns", "us", "GB/s", "Mflop/s",
];

/// The machine-readable result: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics` (values with all their digits).
pub fn result_json(tally: &pass::Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Command-line arguments shared by the gated and the layers binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Default thread budget (pool = `nproc` workers) instead of one thread.
    pub nt: bool,
    pub quick: bool,
    pub allow_env: bool,
    pub force_wrong_answer: bool,
    /// Overrides the plan's 100-rep floor (the layers pass runs shorter).
    pub min_reps: Option<usize>,
    /// Layers binary only: which phase this child process runs.
    pub phase: Option<String>,
}

pub const USAGE: &str =
    "usage: --workload <pagerank|bfs|spgemm|update> [--seed <n>] [--seconds <s>] \
[--nt] [--quick] [--allow-env] [--min-reps <n>] [--force-wrong-answer]";

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 24.0,
            nt: false,
            quick: false,
            allow_env: false,
            force_wrong_answer: false,
            min_reps: None,
            phase: None,
        };
        let mut it = args;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--min-reps" => {
                    a.min_reps = Some(value()?.parse().map_err(|e| format!("--min-reps: {e}"))?)
                }
                "--phase" => a.phase = Some(value()?),
                "--nt" => a.nt = true,
                "--quick" => a.quick = true,
                "--allow-env" => a.allow_env = true,
                "--force-wrong-answer" => a.force_wrong_answer = true,
                other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
            }
        }
        if !workloads::NAMES.contains(&a.workload.as_str()) {
            return Err(format!("unknown workload {:?}\n{USAGE}", a.workload));
        }
        if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
            return Err(format!("--seconds {} out of range", a.seconds));
        }
        Ok(a)
    }

    /// The process's own arguments, refused under tuning variables (see
    /// [`check_env`]). Both binaries exit with code 2 on `Err`.
    pub fn from_env() -> Result<Args, String> {
        let args = Args::parse(std::env::args().skip(1))?;
        check_env(&args)?;
        Ok(args)
    }

    /// `--quick` shrinks the run to a plumbing smoke test: 1 s, 10 reps.
    pub fn plan(&self) -> Plan {
        Plan {
            seconds: if self.quick {
                self.seconds.min(1.0)
            } else {
                self.seconds
            },
            min_reps: self.min_reps.unwrap_or(if self.quick { 10 } else { 100 }),
            setups: SETUPS,
            force_wrong_answer: self.force_wrong_answer,
        }
    }
}

/// Engine and allocator tuning variables found in the environment. Two
/// commits are only comparable under the engine's defaults, so the harness
/// refuses to run when any is set.
pub fn tuning_env(vars: impl Iterator<Item = (String, String)>) -> Vec<(String, String)> {
    let mut found: Vec<_> = vars
        .filter(|(k, _)| k.starts_with("GRB_") || k.starts_with("MALLOC_"))
        .collect();
    found.sort();
    found
}

/// Refuses to run under `GRB_*`/`MALLOC_*` variables unless `--allow-env`,
/// which records them in the output instead.
pub fn check_env(args: &Args) -> Result<(), String> {
    let vars = std::env::vars_os().map(|(k, v)| {
        (
            k.to_string_lossy().into_owned(),
            v.to_string_lossy().into_owned(),
        )
    });
    let found = tuning_env(vars);
    if found.is_empty() {
        return Ok(());
    }
    let list: Vec<String> = found.iter().map(|(k, v)| format!("{k}={v}")).collect();
    if args.allow_env {
        println!("# not comparable: run under {}", list.join(" "));
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; the benchmark compares commits under the engine's \
             defaults (unset them, or pass --allow-env to run anyway and record them)",
            list.join(" ")
        ))
    }
}

/// The metrics one pass yields; the end-to-end names exist only for the
/// one-thread pass.
pub fn pass_metrics(p: &Pass, nt: bool) -> Vec<Metric> {
    let s = p.summary();
    let reps = metric(
        if nt {
            "harness.reps_nt"
        } else {
            "harness.reps_1t"
        },
        s.count as f64,
        "count",
    );
    let mut m = if nt {
        vec![
            metric("exec.rep_s_p10_nt", s.p10, "s"),
            metric("exec.rep_s_p50_nt", s.p50, "s"),
            metric("exec.cpu_s_per_rep_nt", p.cpu_s_per_rep, "s"),
            metric("exec.workers", p.workers as f64, "count"),
        ]
    } else {
        vec![
            metric(
                "setup_s",
                p.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
            metric("rep_s_p10_1t", s.p10, "s"),
            metric("rep_s_p50_1t", s.p50, "s"),
            metric("work_per_s_1t", p.work_units / s.p10, "1/s"),
            metric("peak_rss_bytes", p.peak_rss_bytes as f64, "B"),
            metric("harness.setup_s_median", stats::median(&p.setup_s), "s"),
            metric("harness.rep_s_p90_1t", s.p90, "s"),
            metric("harness.rep_s_iqr_rel_1t", s.iqr_rel, "ratio"),
            metric("harness.halves_rel_1t", s.halves_rel, "ratio"),
            metric("harness.minflt_per_rep_1t", p.minflt_per_rep, "count"),
            metric("harness.rss_growth_bytes", p.rss_growth_bytes as f64, "B"),
            metric("harness.verify_s", p.verify_s, "s"),
            metric("harness.timed_s", p.timed_s, "s"),
            metric("exec.cpu_s_per_rep_1t", p.cpu_s_per_rep, "s"),
            metric("algo.iterations", p.iterations, "count"),
            metric("core.serialize_bytes", p.serialized_bytes as f64, "B"),
            metric("io.gen_s", p.gen_s, "s"),
            metric("io.edges", p.edges as f64, "count"),
        ]
    };
    m.push(reps);
    m
}

/// The gated binary's whole job for workload `W`: run the pass, print every
/// metric, then the result line. Returns the process exit code.
pub fn gated_main<W: Workload>(args: &Args) -> u8 {
    if args.quick {
        println!("# quick mode: plumbing smoke test, numbers are not comparable");
    }
    let ctx = pass::context_for::<W>(!args.nt);
    let p = match pass::run::<W>(
        args.seed,
        args.quick,
        &ctx,
        &args.plan(),
        &mut Tracer::off(),
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: verification failed: {e}", W::NAME);
            return 1;
        }
    };
    let metrics = pass_metrics(&p, args.nt);
    print_metrics(W::NAME, &metrics);
    if let Some(e) = &p.tally.first_error {
        eprintln!(
            "{}: {} of {} operations failed; first: {e}",
            W::NAME,
            p.tally.failed,
            p.tally.attempted
        );
    }
    let gated: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| args.nt || END_TO_END.iter().any(|(n, _)| *n == m.name))
        .collect();
    println!("{}", result_json(&p.tally, &gated));
    p.tally.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload bfs --seed 7 --seconds 3 --quick").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.quick, a.nt),
            ("bfs", 7, 3.0, true, false)
        );
        assert_eq!(a.plan().min_reps, 10);
        assert_eq!(a.plan().seconds, 1.0);
        assert_eq!(args("--workload update").unwrap().plan().min_reps, 100);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload bfs --bogus").is_err());
        assert!(args("--workload bfs --seed").is_err());
        assert!(args("").is_err());
    }

    /// `BENCHMARK.json` is written one metric per line; the binaries print
    /// the metrics of these two lists, so the lists must agree with it.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../../BENCHMARK.json");
        let section = |from: &str, to: &str| {
            let start = json.find(from).expect("section start");
            &json[start..start + json[start..].find(to).expect("section end")]
        };
        let entries = |text: &str| text.matches("{\"name\": ").count();
        let end_to_end = section("\"end_to_end\"", "\"per_layer\"");
        assert_eq!(entries(end_to_end), END_TO_END.len());
        for (name, unit) in END_TO_END {
            assert!(
                end_to_end.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
                "{name}"
            );
        }
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer")..];
        assert_eq!(entries(per_layer), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(
                per_layer.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
                "{name}"
            );
            assert!(UNITS.contains(&unit), "{unit}");
        }
        let workloads = section("\"workloads\"", "\"end_to_end\"");
        assert_eq!(entries(workloads), workloads::NAMES.len());
        for name in workloads::NAMES {
            assert!(
                workloads.contains(&format!("{{\"name\": \"{name}\", ")),
                "{name}"
            );
        }
    }

    #[test]
    fn tuning_variables_are_found() {
        let env = [
            ("PATH", "/bin"),
            ("MALLOC_ARENA_MAX", "1"),
            ("GRB_OBS", "1"),
            ("GRBX", "1"),
        ];
        let found = tuning_env(env.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        assert_eq!(
            found,
            vec![
                ("GRB_OBS".to_string(), "1".to_string()),
                ("MALLOC_ARENA_MAX".to_string(), "1".to_string())
            ]
        );
    }

    #[test]
    fn metrics_round_trip_through_their_lines() {
        let m = vec![
            metric("rep_s_p10_1t", 0.123456789012, "s"),
            metric("io.edges", 955304.0, "count"),
        ];
        let text = "# comment\npagerank/rep_s_p10_1t 0.123456789012 s\nbfs/x 1 s\npagerank/io.edges 955304 count\n{\"correct\": true}";
        assert_eq!(parse_metrics("pagerank", text), m);
        let tally = pass::Tally {
            attempted: 120,
            failed: 0,
            first_error: None,
        };
        assert_eq!(
            result_json(&tally, &m[..1]),
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": {\"rep_s_p10_1t\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
    }
}
