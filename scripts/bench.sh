#!/usr/bin/env bash
# Kernel benchmark baseline: builds the bench harness in release mode and
# regenerates, from one run, the baseline files at the repo root:
#
#   BENCH_kernels.json        pagerank / BFS / SpGEMM / fused-apply medians,
#                             workspace-reuse and push-pull direction
#                             counters, per-kernel latency percentiles
#                             (p50/p99), and memory high-water gauges
#   BENCH_kernels_smoke.json  the same shape from a --smoke run (smaller
#                             scale, fewer runs) — kept separate so
#                             comparisons are always like-for-like
#   BENCH_obs.json            the full telemetry snapshot of the same run
#
#   scripts/bench.sh           full baseline (rmat scale 13, 5 runs each)
#   scripts/bench.sh --smoke   bounded CI run (rmat scale 9, 3 runs each)
#
# --compare diffs the freshly written baseline against the committed one
# (the file's state in git HEAD) with the benchcmp gate: >25% median or
# p99 growth fails; with --smoke the tolerant profile is used instead
# (noise floors, wider ratios) since CI smoke runs are short and noisy.
#
# Set GRB_TRACE=<path> to additionally export the run's per-thread timeline
# as Chrome-trace JSON (open at ui.perfetto.dev), and GRB_EXPLAIN=<path>
# for the decision-provenance log (render with the grbexplain binary).
#
# Regression protocol (EXPERIMENTS.md): commit the baseline alongside perf
# changes and diff median_secs against the parent commit's file.
set -euo pipefail
cd "$(dirname "$0")/.."

compare=0
smoke=0
args=()
for arg in "$@"; do
    case "$arg" in
        --compare) compare=1 ;;
        *)
            [ "$arg" = "--smoke" ] && smoke=1
            args+=("$arg")
            ;;
    esac
done

if [ "$smoke" = 1 ]; then
    baseline=BENCH_kernels_smoke.json
    cmp_flags=(--smoke-tolerant)
else
    baseline=BENCH_kernels.json
    cmp_flags=()
fi

old_file=""
if [ "$compare" = 1 ]; then
    old_file="$(mktemp -t grb_bench_old.XXXXXX.json)"
    trap 'rm -f "$old_file"' EXIT
    # Compare against the committed baseline, not the working-tree file the
    # run is about to overwrite.
    if ! git show "HEAD:$baseline" > "$old_file" 2>/dev/null; then
        if [ -s "$baseline" ]; then
            cp "$baseline" "$old_file"
        else
            echo "bench.sh: no committed $baseline to compare against; skipping gate" >&2
            old_file=""
        fi
    fi
fi

cargo run --release -q -p graphblas-bench --bin kernels -- ${args[@]+"${args[@]}"}

if [ "$compare" = 1 ] && [ -n "$old_file" ]; then
    cargo run --release -q -p graphblas-check --bin benchcmp -- \
        "$old_file" "$baseline" ${cmp_flags[@]+"${cmp_flags[@]}"}
fi
