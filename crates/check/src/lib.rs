//! `graphblas-check`: correctness tooling for the graphblas workspace.
//!
//! Its instruments:
//!
//! 1. **[`sched`] + [`sync`]** — a deterministic concurrency model checker
//!    ("mini-shuttle"). Protocols are re-expressed over the instrumented
//!    primitives in [`sync`] (a mirror of `graphblas_exec::sync`) and run
//!    under a seeded schedule-controlled executor: only one thread runs at
//!    a time, every sync operation is a scheduling point, and the whole
//!    interleaving is a pure function of a `u64` seed — so any failure
//!    found by [`sched::explore`] is replayed exactly by [`sched::replay`].
//!    Used by the `tests/model_*.rs` suites to check the §III thread-pool
//!    park/wake protocol, the scope's `WaitGroup`, pending-queue draining,
//!    and the paper's Fig. 1 two-thread scenario.
//!
//! 2. **[`verify`]** — deep container invariant verification: `grb_check`
//!    over every Table III storage format plus the §V deferred-error
//!    bookkeeping, re-exported from `graphblas_core::introspect` where it
//!    lives GrB_get-style next to `ObjectStats`.
//!
//! 3. **[`lint`]** — the repo-specific lint pass behind the `grblint`
//!    binary (`cargo run -p graphblas-check --bin grblint`), run by
//!    `scripts/check.sh`: forbids `Ordering::Relaxed` outside the obs
//!    counters, `unwrap`/`expect` in core/sparse non-test code, fallible
//!    public core APIs that bypass the `GrB_Info` error type, `unsafe`
//!    blocks without `// SAFETY:` comments, kernel/operation entry
//!    points without a telemetry span, and waivers that give no reason
//!    or no longer suppress anything.
//!
//! 4. **[`trace`]** — an independent reader for the Chrome-trace JSON
//!    that `GRB_TRACE` emits (`graphblas_obs::timeline`), behind the
//!    `tracecheck` binary: parses with its own zero-dependency JSON
//!    parser and replays per-thread `B`/`E` streams to prove balance
//!    and nesting.
//!
//! 5. **[`explain`]** — the matching reader for `GRB_EXPLAIN`
//!    decision-provenance exports (`graphblas_obs::events`), behind the
//!    `grbexplain` binary: re-checks the explain/v1 structural
//!    invariants, renders per-operation narratives with per-reason
//!    aggregates, and evaluates `--assert reason=<code>,min=<k>` gates.
//!
//! 6. **[`benchcmp`]** — baseline-vs-baseline kernel benchmark
//!    comparison behind the `benchcmp` binary: fails on median or p99
//!    regressions beyond a threshold (25% strict; `--smoke-tolerant`
//!    loosens it for noisy CI smoke runs and adds noise floors).

pub mod benchcmp;
pub mod explain;
pub mod lint;
pub mod sched;
pub mod sync;
pub mod trace;
pub mod verify;
