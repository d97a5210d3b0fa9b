//! `grbexplain` — render and gate a `GRB_EXPLAIN` decision-provenance
//! export.
//!
//! Usage:
//!
//! ```text
//! grbexplain FILE [--last N] [--assert reason=<code>,min=<k>]...
//! ```
//!
//! Parses FILE with the independent reader in `graphblas_check::explain`,
//! re-checks the explain/v1 structural invariants (schema, strictly
//! increasing `seq`, aggregate counts able to account for every retained
//! event), prints the per-reason aggregates, a per-operation rollup, and
//! a narrative of the last N decisions (default 20), then evaluates every
//! `--assert` gate. Reasons may be literal codes (`direction-pull`,
//! `fuse-flush`, …) or aliases summing a family (`direction-pick`,
//! `workspace-checkout`, `fuse`).
//!
//! Exits 0 on a valid document with all asserts holding, 1 on a malformed
//! document or failed assert, 2 on usage or I/O errors. Run by
//! `scripts/check.sh` against the smoke bench's export, or directly:
//!
//! ```text
//! GRB_EXPLAIN=explain.json cargo run -p bench --bin kernels -- --smoke
//! cargo run -p graphblas-check --bin grbexplain -- explain.json \
//!     --assert reason=direction-pick,min=1 --assert reason=fuse,min=1
//! ```

use std::process::ExitCode;

use graphblas_check::explain::{self, Assert};

fn usage() {
    eprintln!("usage: grbexplain FILE [--last N] [--assert reason=<code>[,detail=<d>],min=<k>]...");
}

fn main() -> ExitCode {
    let mut file = None;
    let mut last_n = 20usize;
    let mut asserts: Vec<Assert> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--last" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    usage();
                    return ExitCode::from(2);
                };
                last_n = n;
            }
            "--assert" => {
                let Some(spec) = args.next() else {
                    usage();
                    return ExitCode::from(2);
                };
                match Assert::parse(&spec) {
                    Ok(a) => asserts.push(a),
                    Err(e) => {
                        eprintln!("grbexplain: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            _ if file.is_none() => file = Some(arg),
            _ => {
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        usage();
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("grbexplain: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match explain::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("grbexplain: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", explain::render(&doc, last_n));
    let mut failed = false;
    for a in &asserts {
        match a.check(&doc) {
            Ok(got) => println!("assert ok: {} count {got} >= {}", a.subject(), a.min),
            Err(e) => {
                eprintln!("grbexplain: {file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
