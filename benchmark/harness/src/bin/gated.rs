//! The gated pass: one workload, one process, one-thread context (or the
//! default budget with `--nt`), telemetry off. Depends only on the facade.

use std::process::ExitCode;

use grb_harness::{gated_main, with_workload, Args};

fn main() -> ExitCode {
    match Args::from_env() {
        Ok(args) => {
            ExitCode::from(with_workload!(args.workload.as_str(), W => gated_main::<W>(&args)))
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
