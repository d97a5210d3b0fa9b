#!/usr/bin/env bash
# benchmark/README.md's "Rule for claims", executed: builds the parent
# revision and the working tree once each (the parent from `git archive`
# into its own directory with its own CARGO_TARGET_DIR), runs `gated` for
# each workload in alternating P,C / C,P order — one seed per pair — and
# prints, in EXPERIMENTS.md's table format, the `rep_s_p10_1t` medians,
# quartiles and wins per workload, then all five end-to-end deltas against
# their BENCHMARK.json bounds, then every individual run.
#
#   scripts/pairs.sh <parent-rev> [--workload <w>]... [--pairs <n>]
#                    [--seeds <a>..<b>] [--quick] [--allow-env]
#                    [--dir <scratch>]
#   scripts/pairs.sh --self [...]     both sides are the working tree's
#                                     binary: plumbing only, no second build
#
# Defaults: all four workloads, 10 pairs, seeds 1..<pairs>. --quick and
# --allow-env are `gated`'s own (seconds, not minutes, numbers not
# comparable; run although a GRB_* or MALLOC_* variable is set).
# Scratch (the parent's sources and target directory, raw result lines) goes
# under target/pairs — ignored by git, skipped by grblint — unless
# --dir says otherwise. Exits non-zero if any run
# reported a failed operation or a wrong answer. Bash + awk only; no file
# benchmark/ tracks is written.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

parent_rev=""
self=0
pass_through=()
pairs=10
seeds=""
workloads=()
dir="$root/target/pairs"
while (($#)); do
  case "$1" in
    --self) self=1; shift ;;
    --quick | --allow-env) pass_through+=("$1"); shift ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seeds) seeds="$2"; shift 2 ;;
    --dir) dir="$2"; shift 2 ;;
    -*) echo "pairs.sh: unknown argument $1" >&2; exit 2 ;;
    *) parent_rev="$1"; shift ;;
  esac
done
((${#workloads[@]})) || workloads=(pagerank bfs spgemm update)
if [[ -n $seeds ]]; then
  first="${seeds%%..*}"
  last="${seeds##*..}"
  pairs=$((last - first + 1))
else
  first=1
fi
((pairs >= 1)) || { echo "pairs.sh: nothing to run (pairs = $pairs)" >&2; exit 2; }
if ((!self)) && [[ -z $parent_rev ]]; then
  echo "usage: scripts/pairs.sh <parent-rev> | --self  [options]" >&2
  exit 2
fi

mkdir -p "$dir"
build() { # <source root> <target dir>
  CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" -p grb-harness >&2
}
# The working tree builds where benchmark/run.sh builds it.
change_target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
build "$root" "$change_target"
change="$change_target/release/gated"
if ((self)); then
  parent="$change"
  parent_name="working tree"
else
  parent_name="$(git rev-parse --short "$parent_rev")"
  rm -rf "$dir/parent-src"
  mkdir -p "$dir/parent-src"
  git archive "$parent_rev" | tar -x -C "$dir/parent-src"
  build "$dir/parent-src" "$dir/parent-target"
  parent="$dir/parent-target/release/gated"
fi

# One line per run: side, workload, seed, then gated's closing JSON line.
runs="$dir/runs.txt"
: >"$runs"
one() { # <side> <binary> <workload> <seed>
  local json
  json="$("$2" --workload "$3" --seed "$4" ${pass_through[@]+"${pass_through[@]}"} | tail -n 1)" || true
  printf '%s %s %s %s\n' "$1" "$3" "$4" "$json" >>"$runs"
}
for w in "${workloads[@]}"; do
  for ((k = 0; k < pairs; k++)); do
    seed=$((first + k))
    echo "pairs.sh: $w pair $((k + 1))/$pairs (seed $seed)" >&2
    if ((k % 2 == 0)); then
      one P "$parent" "$w" "$seed"
      one C "$change" "$w" "$seed"
    else
      one C "$change" "$w" "$seed"
      one P "$parent" "$w" "$seed"
    fi
  done
done

awk -v parent="$parent_name" -v first="$first" -v last="$((first + pairs - 1))" '
function metric(line, name,    at, rest) {
  at = index(line, "\"" name "\": {\"value\": ")
  if (!at) return "nan"
  rest = substr(line, at + length(name) + 14)
  match(rest, /^-?[0-9.]+(e[-+]?[0-9]+)?/)
  return substr(rest, 1, RLENGTH) + 0
}
# Type-7 quantile of v[1..n] (sorted in place).
function quantile(v, n, q,    i, j, t, h, lo) {
  for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
  h = (n - 1) * q + 1; lo = int(h)
  return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function column(side, w, m, out,    k) {
  for (k = 1; k <= count[w]; k++) out[k] = val[side, w, k, m]
  return count[w]
}
function summary(side, w, m,    v, n) {
  n = column(side, w, m, v)
  return sprintf("%.6g [%.6g, %.6g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
}
function median(side, w, m,    v, n) { n = column(side, w, m, v); return quantile(v, n, 0.5) }
function iqr(side, w, m,    v, n) { n = column(side, w, m, v); return quantile(v, n, 0.75) - quantile(v, n, 0.25) }
function wins(w, m,    k, c, p, better) {
  better = 0
  for (k = 1; k <= count[w]; k++) {
    p = val["P", w, k, m]; c = val["C", w, k, m]
    if (higher[m] ? c > p : c < p) better++
  }
  return better
}
FILENAME ~ /BENCHMARK\.json$/ {
  if (match($0, /"name": "[a-z0-9_]+", "unit": "[^"]*", "better": "[a-z]+", "bound": [0-9.]+/)) {
    split(substr($0, RSTART, RLENGTH), f, "\"")
    names[++nm] = f[4]; higher[f[4]] = (f[12] == "higher")
    bound[f[4]] = substr(f[15], 3) + 0
  }
  next
}
{
  side = $1; w = $2; seed = $3
  line = $0; sub(/^[PC] [a-z]+ [0-9]+ /, "", line)
  if (!(w in count)) order[++nw] = w
  k = ++seen[side, w]; if (k > count[w]) count[w] = k
  for (i = 1; i <= nm; i++) val[side, w, k, names[i]] = metric(line, names[i])
  if (line !~ /"correct": true/ || line !~ /"failed": 0[,}]/) { bad++; print "pairs.sh: " side " " w " seed " seed " did not verify: " line > "/dev/stderr" }
  runs++
}
END {
  printf "Parent %s vs working tree, `gated`, alternating P,C / C,P, seeds %d–%d; %d runs, %d not verified.\n\n", parent, first, last, runs, bad
  print "| workload | pairs | `rep_s_p10_1t` parent med [q1, q3] | change med [q1, q3] | Δ | change better |"
  print "|---|---|---|---|---|---|"
  for (i = 1; i <= nw; i++) {
    w = order[i]; m = "rep_s_p10_1t"
    p = median("P", w, m); c = median("C", w, m)
    printf "| %s | %d | %s | %s | %+.1f %% | %d/%d |\n", w, count[w], summary("P", w, m), summary("C", w, m), 100 * (c - p) / p, wins(w, m), count[w]
  }
  print "\n| workload | metric | parent med | change med | Δ | bound | parent IQR | change better | verdict |"
  print "|---|---|---|---|---|---|---|---|---|"
  for (i = 1; i <= nw; i++) for (j = 1; j <= nm; j++) {
    w = order[i]; m = names[j]
    p = median("P", w, m); c = median("C", w, m)
    worse = higher[m] ? (p - c) / p : (c - p) / p
    verdict = worse > bound[m] ? "**beyond bound**" : "within bound"
    printf "| %s | `%s` | %.6g | %.6g | %+.1f %% | %.0f %% | %.3g | %d/%d | %s |\n", w, m, p, c, 100 * (c - p) / p, 100 * bound[m], iqr("P", w, m), wins(w, m), count[w], verdict
  }
  print "\nIndividual `rep_s_p10_1t` runs (s), in pair order:\n"
  for (i = 1; i <= nw; i++) {
    w = order[i]
    printf "- %s, parent:", w; for (k = 1; k <= count[w]; k++) printf " %.6f", val["P", w, k, "rep_s_p10_1t"]
    printf "; change:"; for (k = 1; k <= count[w]; k++) printf " %.6f", val["C", w, k, "rep_s_p10_1t"]
    print "."
  }
  exit bad > 0
}' "$root/BENCHMARK.json" "$runs"
