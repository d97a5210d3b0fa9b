//! The layers pass: per-layer numbers measured from outside the engine.
//!
//! Without `--phase` this process only orchestrates. Each phase runs in a
//! process of its own, because one-thread and n-thread runs leave allocator
//! and pool state behind that the other would inherit:
//!
//! 1. `gated` (one thread, short) — the base every ratio is taken against;
//! 2. `gated --nt` — the same reps under the default thread budget;
//! 3. `--phase traced` — one thread, telemetry on, harness spans, 30 reps;
//! 4. `--phase traced --nt` — default budget, telemetry on: pool counters;
//! 5. `--phase probes` — direct calls into `sparse`/`exec` on the same input.

mod probes;
mod traced;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use grb_harness::pass::Tally;
use grb_harness::{
    metric, parse_metrics, print_metrics, ratio, result_json, with_workload, Args, Metric,
    PER_LAYER,
};

/// Shares of `--seconds` given to the two untraced phases; the traced
/// phases run a fixed rep count and the probes a fixed iteration count.
const BASE_SHARE: f64 = 0.25;
const NT_SHARE: f64 = 0.20;

fn main() -> ExitCode {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let code = match args.phase.as_deref() {
        None => orchestrate(&args),
        Some("traced") => with_workload!(args.workload.as_str(), W => traced::run::<W>(&args)),
        Some("probes") => probes::run(&args),
        Some(other) => {
            eprintln!("unknown phase {other:?}");
            2
        }
    };
    ExitCode::from(code)
}

/// Runs one child phase to completion and returns its metrics. A child that
/// fails verification or any operation makes the whole pass incorrect.
fn child(args: &Args, program: &str, extra: &[String], tally: &mut Tally) -> Vec<Metric> {
    let exe = std::env::current_exe().expect("own path");
    let path = exe.parent().expect("binary directory").join(program);
    let mut cmd = Command::new(&path);
    cmd.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ]);
    cmd.args(extra);
    if args.quick {
        cmd.arg("--quick");
    }
    if args.allow_env {
        cmd.arg("--allow-env");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", path.display()));
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    tally.record(if out.status.success() {
        Ok(())
    } else {
        Err(format!("{program} {extra:?} exited with {}", out.status))
    });
    parse_metrics(&args.workload, &stdout)
}

fn orchestrate(args: &Args) -> u8 {
    if args.quick {
        println!("# quick mode: plumbing smoke test, numbers are not comparable");
    }
    // The untraced phases run shorter than a gated pass: no 100-rep floor.
    let short = |share: f64, nt: bool| -> Vec<String> {
        let seconds = (args.seconds * share).to_string();
        let mut v = vec!["--seconds", &seconds, "--min-reps", "10"];
        if nt {
            v.push("--nt");
        }
        v.into_iter().map(String::from).collect()
    };
    let phase = |words: &[&str]| -> Vec<String> {
        ["--phase"]
            .iter()
            .chain(words)
            .map(|w| w.to_string())
            .collect()
    };

    // Each phase is one attempted operation of the layers pass.
    let mut tally = Tally::default();
    let mut found: BTreeMap<String, f64> = BTreeMap::new();
    let runs = [
        child(args, "gated", &short(BASE_SHARE, false), &mut tally),
        child(args, "gated", &short(NT_SHARE, true), &mut tally),
        child(args, "layers", &phase(&["traced"]), &mut tally),
        child(args, "layers", &phase(&["traced", "--nt"]), &mut tally),
        child(args, "layers", &phase(&["probes"]), &mut tally),
    ];
    for m in runs.into_iter().flatten() {
        found.insert(m.name, m.value);
    }

    // Ratios across phases, each with its base reported beside it.
    let get = |k: &str| found.get(k).copied().unwrap_or(0.0);
    let base = get("rep_s_p10_1t");
    let derived = [
        ("harness.base_rep_s_p10_1t", base),
        ("exec.speedup_nt", ratio(base, get("exec.rep_s_p10_nt"))),
        (
            "obs.overhead_ratio",
            ratio(get("obs.traced_rep_s_p10_1t"), base),
        ),
    ];
    found.extend(derived.map(|(k, v)| (k.to_string(), v)));

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| metric(*name, found.get(*name).copied().unwrap_or(0.0), unit))
        .collect();
    print_metrics(&args.workload, &metrics);
    if let Some(e) = &tally.first_error {
        eprintln!("{}: layers pass failed: {e}", args.workload);
    }
    println!("{}", result_json(&tally, &metrics));
    tally.exit_code()
}
