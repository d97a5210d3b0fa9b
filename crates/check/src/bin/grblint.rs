//! `grblint` — the repo-specific lint pass for the graphblas workspace.
//!
//! Usage:
//!
//! ```text
//! grblint [ROOT]        lint the workspace at ROOT (default: .)
//! grblint --list-rules  print the rules and exit
//! ```
//!
//! Exits 0 when the tree is clean, 1 when violations were found, 2 on
//! usage or I/O errors. Run it via `scripts/check.sh` or directly with
//! `cargo run -p graphblas-check --bin grblint`.

use std::path::PathBuf;
use std::process::ExitCode;

use graphblas_check::lint::{lint_workspace, Rule};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: grblint [ROOT] | grblint --list-rules");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-rules") {
        for r in Rule::all() {
            println!("{}", r.slug());
        }
        return ExitCode::SUCCESS;
    }
    if args.len() > 1 {
        eprintln!("usage: grblint [ROOT] | grblint --list-rules");
        return ExitCode::from(2);
    }
    let root = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    match lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("grblint: clean ({} rules)", Rule::all().len());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("grblint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("grblint: error scanning {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
