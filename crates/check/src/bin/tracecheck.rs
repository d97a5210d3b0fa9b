//! `tracecheck` — validate a `GRB_TRACE` Chrome-trace JSON file.
//!
//! Usage:
//!
//! ```text
//! tracecheck FILE [--require-kernels]
//! ```
//!
//! Parses FILE with the zero-dependency reader in `graphblas_check::trace`
//! and replays every thread's `B`/`E` stream to prove the pairs balance
//! and nest. With `--require-kernels` it additionally asserts the trace
//! came from a real multi-threaded kernel run: at least two distinct
//! thread ids, phase names under both `spgemm.` and `mxv.`, and a
//! `thread_sort_index` metadata record for every named thread track (the
//! deterministic Perfetto ordering, workers laid out by pool index).
//!
//! Exits 0 on a valid trace, 1 on a malformed or insufficient one, 2 on
//! usage or I/O errors. Run by `scripts/check.sh` against the smoke
//! bench's trace, or directly:
//!
//! ```text
//! GRB_TRACE=trace.json cargo run -p bench --bin kernels -- --smoke
//! cargo run -p graphblas-check --bin tracecheck -- trace.json --require-kernels
//! ```

use std::process::ExitCode;

use graphblas_check::trace;

fn main() -> ExitCode {
    let mut file = None;
    let mut require_kernels = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("usage: tracecheck FILE [--require-kernels]");
                return ExitCode::SUCCESS;
            }
            "--require-kernels" => require_kernels = true,
            _ if file.is_none() => file = Some(arg),
            _ => {
                eprintln!("usage: tracecheck FILE [--require-kernels]");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: tracecheck FILE [--require-kernels]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = match trace::validate(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracecheck: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "tracecheck: {file}: {} regions on {} thread(s), {} distinct names, max depth {}",
        summary.regions,
        summary.threads.len(),
        summary.names.len(),
        summary.max_depth
    );
    if require_kernels {
        let mut missing = Vec::new();
        if summary.threads.len() < 2 {
            missing.push("at least 2 distinct thread ids".to_string());
        }
        for prefix in ["spgemm.", "mxv."] {
            if !summary.has_name_prefix(prefix) {
                missing.push(format!("a \"{prefix}*\" phase"));
            }
        }
        for (tid, name) in &summary.thread_names {
            if !summary.thread_sort_indices.iter().any(|(t, _)| t == tid) {
                missing.push(format!(
                    "a thread_sort_index record for tid {tid} (\"{name}\")"
                ));
            }
        }
        // Worker tracks must be ordered by pool index: sort indices of
        // grb-worker-<i> tracks strictly increase with i.
        let mut workers: Vec<(u64, u64)> = summary
            .thread_names
            .iter()
            .filter_map(|(tid, name)| {
                let i = name.strip_prefix("grb-worker-")?.parse::<u64>().ok()?;
                let idx = summary
                    .thread_sort_indices
                    .iter()
                    .find(|(t, _)| t == tid)
                    .map(|(_, s)| *s)?;
                Some((i, idx))
            })
            .collect();
        workers.sort_unstable();
        if workers.windows(2).any(|w| w[0].1 >= w[1].1) {
            missing.push("monotone sort indices over grb-worker-* tracks".to_string());
        }
        if !missing.is_empty() {
            for m in &missing {
                eprintln!("tracecheck: {file}: missing {m}");
            }
            eprintln!("tracecheck: names seen: {}", summary.names.join(", "));
            return ExitCode::FAILURE;
        }
        println!("tracecheck: kernel coverage OK (spgemm.*, mxv.*, multi-thread)");
    }
    ExitCode::SUCCESS
}
