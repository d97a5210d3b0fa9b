#!/usr/bin/env bash
# Size of the operation layer, the number ROADMAP item 7 tracks: lines
# before the first `#[cfg(test)]`, excluding blank and `//` lines, summed
# over crates/core/src/operations/*.rs + write.rs + pending.rs.
#
#   scripts/opsize.sh [repo-root]     (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}/crates/core/src"
total=0
for f in operations/*.rs write.rs pending.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -vc '^\s*\(//.*\)\?$' || true)
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
echo "total $total"
