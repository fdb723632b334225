#!/usr/bin/env sh
# Run the Criterion DSP suite plus a fig7 wall-clock timing and the
# collision vs FDMA goodput, and emit a machine-readable JSON map (kernel
# name -> median ns, end-to-end figure time, goodput per concurrency arm)
# to stdout-visible file $1 (default: bench_run.json). Slot throughput
# and per-layer shares come from pab_bench (see BENCHMARK.json).
#
# Record a before/after pair across a perf change by running this once on
# each commit and diffing the JSONs; BENCH_PR3.json (fast-path PR),
# BENCH_PR8.json (slot-engine PR) and BENCH_PR10.json (decimating
# front-end PR) in the repo root are such pairs, assembled from two runs
# each.
set -eu

cd "$(dirname "$0")/.."
out="${1:-bench_run.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "==> cargo bench -p pab-bench --bench dsp"
cargo bench -p pab-bench --bench dsp | tee "$tmp"

echo "==> timing fig7_ber_snr (release wall-clock)"
cargo build --release -p pab-experiments --bin fig7_ber_snr >/dev/null 2>&1
t0=$(date +%s.%N)
./target/release/fig7_ber_snr >/dev/null
t1=$(date +%s.%N)
fig7_s=$(echo "$t0 $t1" | awk '{printf "%.3f", $2 - $1}')
echo "fig7_ber_snr wall-clock: ${fig7_s} s"

echo "==> collision vs fdma goodput (ext_collision_faultnet)"
cargo build --release -p pab-experiments --bin ext_collision_faultnet >/dev/null 2>&1
./target/release/ext_collision_faultnet >/dev/null
colcsv="results/ext_collision_faultnet.csv"

# Parse the criterion shim's report lines (the median is recorded):
#   <id>  <median> <unit>  [<min> – <max>, <w> windows, <n> iters]  (<rate>)
awk -v fig7="$fig7_s" -v colcsv="$colcsv" '
BEGIN { print "{"; print "  \"kernels_ns\": {"; first = 1 }
/ windows, [0-9]+ iters\]/ {
    id = $1; v = $2; u = $3
    if (u == "s")       f = 1e9
    else if (u == "ms") f = 1e6
    else if (u == "µs") f = 1e3
    else                f = 1
    if (!first) printf(",\n")
    first = 0
    printf("    \"%s\": %.1f", id, v * f)
}
END {
    print "\n  },"
    printf("  \"fig7_ber_snr_wall_s\": %s,\n", fig7)
    # Clean-channel goodput of the two concurrency arms (intensity 0 of
    # the ext_collision_faultnet sweep): the collision number must
    # stay above the fdma number or the §8 decoder stopped paying rent.
    printf("  \"collision_goodput_bps\": {")
    firstc = 1
    while ((getline cline < colcsv) > 0) {
        n = split(cline, cf, ",")
        if (cf[1] == "0" && (cf[2] == "fdma" || cf[2] == "collision")) {
            if (!firstc) printf(", ")
            firstc = 0
            printf("\"%s\": %s", cf[2], cf[4])
        }
    }
    close(colcsv)
    print "}"
    print "}"
}' "$tmp" > "$out"

echo "==> wrote $out"
