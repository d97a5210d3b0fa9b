#!/usr/bin/env bash
# Repeatability of the benchmark on this machine: two interleaved sets
# (A B A B …) of gated passes of the *same* tree. Run i of either set uses
# seed i, as the driver varies the seed between runs. For every workload and
# end-to-end metric it prints both set medians, their relative difference,
# and each set's spread ((Q3 − Q1) ÷ median, quartiles as Python's
# statistics.quantiles(n=4)), and fails if any difference exceeds the
# metric's bound in BENCHMARK.json.
#
#   benchmark/selfcheck.sh [--runs <n per set, default 5>] [--workload <name>] [--seconds <s>]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=5
workloads=(pagerank bfs spgemm update)
extra=()
while (($#)); do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --workload) workloads=("$2"); shift 2 ;;
    --seconds) extra+=(--seconds "$2"); shift 2 ;;
    *) echo "selfcheck.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
((runs >= 5)) || { echo "selfcheck.sh: a set needs at least 5 runs" >&2; exit 2; }

mkdir -p "$here/out"
samples="$here/out/selfcheck.samples"
: >"$samples"
for w in "${workloads[@]}"; do
  for ((i = 1; i <= runs; i++)); do
    for set in A B; do
      echo "selfcheck: $w run $i of $runs, set $set" >&2
      "$here/run.sh" --workload "$w" --seed "$i" ${extra[@]+"${extra[@]}"} |
        awk -v set="$set" 'NF == 3 && $1 ~ /^[a-z]+\// { sub("/", " ", $1); print set, $1, $2 }' >>"$samples"
    done
  done
done

# Bounds: one end-to-end metric per line in BENCHMARK.json.
awk '
  FNR == NR {
    if (match($0, /"name": "[^"]+", "unit": "[^"]+", "better": "[a-z]+", "bound": [0-9.]+/)) {
      split(substr($0, RSTART, RLENGTH), f, "\"")
      bound[f[4]] = substr(f[15], 3) + 0
      order[++n_metrics] = f[4]
    }
    next
  }
  { key = $1 SUBSEP $2 SUBSEP $3; v[key, ++cnt[key]] = $4; seen[$2] = 1 }
  function quantile(n, i,    m, j, delta) {   # statistics.quantiles, exclusive method
    m = n + 1; j = int(i * m / 4)
    if (j < 1) j = 1; if (j > n - 1) j = n - 1
    delta = i * m - j * 4
    return (s[j] * (4 - delta) + s[j + 1] * delta) / 4
  }
  function summarize(key,    n, i, j, t) {
    n = cnt[key]
    for (i = 1; i <= n; i++) s[i] = v[key, i]
    for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
    med = quantile(n, 2)
    spread = (quantile(n, 3) - quantile(n, 1)) / med
  }
  END {
    printf "| workload | metric | median A | median B | (B − A) ÷ A | spread A | spread B | bound |\n"
    printf "|---|---|---|---|---|---|---|---|\n"
    split("pagerank bfs spgemm update", names, " ")
    for (w = 1; w <= 4; w++) {
      if (!(names[w] in seen)) continue
      for (k = 1; k <= n_metrics; k++) {
        name = order[k]
        summarize("A" SUBSEP names[w] SUBSEP name); a = med; sa = spread
        summarize("B" SUBSEP names[w] SUBSEP name); b = med; sb = spread
        diff = (b - a) / a
        verdict = (diff > bound[name] || -diff > bound[name]) ? " **FAIL**" : ""
        if (verdict != "") failed = 1
        printf "| %s | %s | %.6g | %.6g | %+.2f %%%s | %.2f %% | %.2f %% | %.0f %% |\n", \
          names[w], name, a, b, 100 * diff, verdict, 100 * sa, 100 * sb, 100 * bound[name]
      }
    }
    exit failed
  }
' "$here/../BENCHMARK.json" "$samples"
