#!/usr/bin/env sh
# Non-test line count of each library crate's sources: every line of a
# `crates/*/src` file before its first `#[cfg(test)]` line, the count
# ROADMAP.md states its line budgets in. `pab_bench` (under
# crates/experiments/src/bin/) is left out. Prints one line per crate
# and the total.
set -eu

cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -not -path '*/bin/pab_bench/*' | sort | while read -r f; do
        awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f"
    done | awk '{s += $1} END {print s+0}')
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
