#!/usr/bin/env bash
# The one command: builds benchmark/ in release (build time is outside every
# metric), runs the gated pass — or, with --layers / --trace 1, the layers
# pass — for one workload or all four, prints every metric as
# `workload/name value unit`, ends each workload with one JSON result line,
# and exits non-zero if any verification or operation failed.
#
#   benchmark/run.sh [--workload <pagerank|bfs|spgemm|update>] [--seed <n>]
#                    [--seconds <s>] [--layers | --trace <0|1>]
#                    [--quick] [--allow-env]
#
# --quick (scale 10, 1 s, 10 reps) only smoke-tests the plumbing; its
# numbers are labelled not comparable. No GRB_* or MALLOC_* variable is set
# here, and the harness refuses to run if it finds one (see --allow-env).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

workloads=(pagerank bfs spgemm update)
program=gated
pass_through=()
while (($#)); do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --trace) [[ "$2" == 1 ]] && program=layers; shift 2 ;;
    --layers) program=layers; shift ;;
    --seed | --seconds) pass_through+=("$1" "$2"); shift 2 ;;
    --quick | --allow-env) pass_through+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
# The gate builds alone first: a signature change inside the engine's crates
# may break the layers binary but never the gated one.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" -p grb-harness >&2
if [[ $program == layers ]]; then
  cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" -p grb-layers >&2
fi

status=0
for w in "${workloads[@]}"; do
  "$CARGO_TARGET_DIR/release/$program" --workload "$w" ${pass_through[@]+"${pass_through[@]}"} || status=1
done
exit $status
