#!/usr/bin/env bash
# Repository gate: release build, full test suite, lint-clean clippy,
# the repo-specific grblint + grbsa static-analysis passes, and a bounded
# model-checker smoke run. Run from anywhere; operates on the workspace
# root.
#
#   --sanitize   additionally run the exec/check test suites under
#                ThreadSanitizer (requires a nightly toolchain with
#                rust-src; skipped with a notice otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."

sanitize=0
for arg in "$@"; do
    case "$arg" in
        --sanitize) sanitize=1 ;;
        *) echo "check: unknown argument: $arg" >&2; exit 2 ;;
    esac
done

cargo build --release
# Compile time is a budget. The registry instantiates the pull kernel's
# per-row reduction (`spmv::row_dot`) once per semiring row × operand type
# × frontier format × output filter in every crate that multiplies, so its
# symbol count in graphblas-algo is the build's fan-out in one number: 660
# when this gate was set, with a from-scratch `cargo build --release` of
# ≈ 60 s. A closure defined inside a generic registry fn inherits all of
# that fn's generics and multiplies the count (SECOND written as a closure
# in `try_matvec` read 996 row_dots and a 78–84 s build). The ceiling
# leaves room for a few new rows, not for a fan-out; raise it only with the
# build time beside the new count in CHANGES.md.
row_dot_ceiling=700
algo_rlib="$(ls -t target/release/deps/libgraphblas_algo-*.rlib | head -n 1)"
row_dots="$(nm -C "$algo_rlib" 2>/dev/null | grep -c 'spmv::row_dot' || true)"
echo "check: $row_dots spmv::row_dot instantiations in $(basename "$algo_rlib") (ceiling $row_dot_ceiling)"
if ((row_dots == 0 || row_dots > row_dot_ceiling)); then
    echo "check: spmv::row_dot count $row_dots is outside 1..$row_dot_ceiling" >&2
    exit 1
fi
# Every suite of every crate: the root package's tier-1 tests, the engine
# crates' unit tests and integration suites (the container core pinned by
# dag_equivalence, fusion_accounting, registry_equiv and algebra_props; the
# kernels by kernel_props; the telemetry crate, whose golden test pins
# every counter's snapshot JSON key), io, bench, and check's lint/grbsa
# fixtures and model-checker suites — every checked protocol (pool
# park/wake, WaitGroup, pending drain, Fig. 1, transpose cache) explored
# across the tests' default budget of 500-1000 seeded schedules each, plus
# the vector-clock race-detector regressions (model_race: seeded races
# must be found and must replay byte-exact). Set GRB_CHECK_SCHEDULES to
# raise (deep local run) or lower (constrained CI) the per-test schedule
# count without recompiling.
cargo test --workspace -q
# The kernel suites once more in release: that is the build in which
# `Csr::from_kernel_parts` takes a kernel's `rows_sorted` on trust instead
# of asserting `check()`, so only the suites' own `check()` calls stand
# between a mis-sorting kernel and a wrong answer there. The result-recycling
# suite runs there too: a kernel that builds its result in a recycled buffer
# must still write every slot it hands out.
cargo test --release -q -p graphblas-sparse
cargo test --release -q -p graphblas-core --test result_recycling
cargo clippy --workspace --all-targets -- -D warnings

# Benchmark plumbing smoke (numbers discarded: --quick is not comparable).
# The `update` workload replays its set_element/remove_element script
# against a BTreeMap and exits non-zero on any tuple mismatch, so together
# with tests/element_updates.rs (run by `cargo test -q` above) the matrix
# update log is verified end to end. The `pagerank` workload checks every
# rep against an independent power iteration (L1 ≤ 1e-9), which is what
# verifies `algo::pagerank` on the harness's own graphs. The `spgemm`
# workload checks the triangle count and every entry of the unmasked
# product against the harness's own references, which covers both SpGEMM
# kernels through `mxm`. The `bfs` workload checks levels and parents of
# all 16 traversals against a queue BFS — the frontier formats (sparse,
# bitmap, full) and both directions ride on the vector store's format
# choice. --allow-env: the harness otherwise refuses to start when a GRB_*
# knob such as GRB_CHECK_SCHEDULES is set.
benchmark/run.sh --quick --allow-env --workload update >/dev/null
benchmark/run.sh --quick --allow-env --workload pagerank >/dev/null
benchmark/run.sh --quick --allow-env --workload spgemm >/dev/null
benchmark/run.sh --quick --allow-env --workload bfs >/dev/null
# The pair driver behind every performance claim (benchmark/README.md,
# "Rule for claims"), once, against itself: build, alternate, parse,
# tabulate, compare with the BENCHMARK.json bounds.
scripts/pairs.sh --self --pairs 1 --quick --allow-env >/dev/null

# Repo-specific lints (crates/check/src/lint.rs): relaxed orderings outside
# obs, unwrap/expect in core/sparse, fallible core APIs bypassing GrbResult,
# undocumented unsafe, kernel/operation entry points that record no
# telemetry span — and stale `grblint: allow(...)` waivers that no longer
# suppress anything. Fails the gate on any violation.
cargo run -q -p graphblas-check --bin grblint -- .

# Source-model static analysis (crates/check/src/sa): lock-order cycles
# across the workspace's Mutex/Condvar acquisition nesting (direct and
# through call summaries), condvar waits while holding a second lock, and
# the atomics-ordering audit — every `Ordering::Relaxed` site must declare
# a protocol from the table (`grbsa --protocols`) and must satisfy it, and
# release/acquire sites must pair up. Stale `grbsa:` annotations fail the
# gate like stale waivers do.
cargo run -q -p graphblas-check --bin grbsa -- .

# Both tools must also emit parseable machine-readable findings with the
# stable schema marker (the contract CI dashboards consume).
for tool in grblint grbsa; do
    out="$(cargo run -q -p graphblas-check --bin "$tool" -- --json . )"
    case "$out" in
        "{"*) ;;
        *) echo "check: $tool --json did not emit a JSON object" >&2; exit 1 ;;
    esac
    printf '%s' "$out" | grep -q '"schema": *"graphblas-check/findings/v1"' \
        || { echo "check: $tool --json lacks the findings/v1 schema marker" >&2; exit 1; }
done

# Optional ThreadSanitizer pass (EXPERIMENTS.md "Sanitizer runs"): the
# model checker explores interleavings of *model* primitives; TSan
# validates the real `std::sync`-backed ones. Needs nightly + rust-src.
if [ "$sanitize" = 1 ]; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup toolchain list 2>/dev/null | grep -q '^nightly' \
        && rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src (installed)'; then
        echo "check: running exec/check tests under ThreadSanitizer ($host)"
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std --target "$host" \
            -p graphblas-exec -p graphblas-check
    else
        echo "check: --sanitize requested but no nightly toolchain with" \
             "rust-src is installed; skipping the TSan pass" >&2
    fi
fi

# Kernel benchmark baseline smoke: a bounded bench.sh run must succeed and
# leave well-formed BENCH_kernels_smoke.json and BENCH_obs.json behind
# (medians + workspace/direction counters + per-kernel latency percentiles
# + memory gauges + per-reason decision aggregates). Its timings are not
# compared with the committed smoke baseline, which was recorded on
# another machine; scripts/pairs.sh above is the performance gate, and
# `scripts/bench.sh --smoke --compare` runs benchcmp by hand. BENCH_obs.json is
# `Snapshot::to_json`, every key of which the obs golden test above pins,
# so only its shape is checked here. The run also exports its
# per-thread timeline via GRB_TRACE and its decision-provenance log via
# GRB_EXPLAIN; the tracecheck reader proves the Chrome trace is balanced,
# properly nested, multi-threaded, and covers the spgemm/mxv kernel
# phases, and the grbexplain reader proves the run actually recorded the
# paper's choice points: at least one direction pick, one workspace hit,
# one fused map flush, one kernel-internal path choice (frontier lookup,
# masked pull/scatter), one result stored in the full vector format, and —
# for the nonblocking op DAG — at least one
# cross-operation fusion and one forced drain.
trace_file="$(mktemp -t grb_trace.XXXXXX.json)"
explain_file="$(mktemp -t grb_explain.XXXXXX.json)"
trap 'rm -f "$trace_file" "$explain_file"' EXIT
GRB_TRACE="$trace_file" GRB_EXPLAIN="$explain_file" scripts/bench.sh --smoke
for f in BENCH_kernels_smoke.json BENCH_obs.json; do
    [ -s "$f" ] || { echo "check: $f missing or empty" >&2; exit 1; }
    case "$(head -c 1 "$f")" in
        "{") ;;
        *) echo "check: $f is not a JSON object" >&2; exit 1 ;;
    esac
done
for key in '"pagerank"' '"bfs"' '"spgemm"' '"fused_apply"' '"workspace"' '"direction"' \
           '"dispatch"' '"format"' '"static_hits"' '"bitmap_picks"' \
           '"median_secs"' '"kernels"' '"p50_ns"' '"p99_ns"' '"mem"' \
           '"container_high_bytes"' '"fused_pipeline"' \
           '"fused_pipeline_blocking"' '"mem_high"'; do
    grep -q "$key" BENCH_kernels_smoke.json \
        || { echo "check: BENCH_kernels_smoke.json lacks $key" >&2; exit 1; }
done
cargo run -q -p graphblas-check --bin tracecheck -- "$trace_file" --require-kernels
cargo run -q -p graphblas-check --bin grbexplain -- "$explain_file" \
    --assert reason=direction-pick,min=1 \
    --assert reason=workspace-hit,min=1 \
    --assert reason=fuse-flush,min=1 \
    --assert reason=dispatch-pick,min=1 \
    --assert reason=format-pick,min=1 \
    --assert reason=format-pick,detail=full,min=1 \
    --assert reason=kernel-path,min=1 \
    --assert reason=dag-fuse,min=1 \
    --assert reason=dag-force,min=1
