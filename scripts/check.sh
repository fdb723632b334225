#!/usr/bin/env sh
# One-command local gate: build, tests (including the pab-lint domain
# linter via crates/lint/tests/enforce.rs), and clippy when available
# (library warnings fail it).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The slot benchmark builds from its own manifest and lock file; a break
# in either fails here rather than in the benchmark run.
echo "==> pab_bench standalone build (crates/experiments/src/bin/pab_bench/Cargo.toml)"
cargo build --release --locked --manifest-path crates/experiments/src/bin/pab_bench/Cargo.toml --target-dir target/pab-bench

# The benchmark's own tests recompose slots from the library's public
# pieces and compare them with the simulators' own counters and
# verdicts, so a library change that drifts from the benchmark fails
# here.
echo "==> pab_bench tests (the benchmark's recomposed slots match the simulators)"
cargo test --release -q --locked --manifest-path crates/experiments/src/bin/pab_bench/Cargo.toml --target-dir target/pab-bench

# `--locked` passes a lock file that still lists a dependency the
# libraries dropped; the benchmark's own unlocked `cargo run` would
# rewrite it. Resolve without `--locked` and fail on any rewrite.
echo "==> pab_bench Cargo.lock matches an unlocked resolve"
bench_lock=crates/experiments/src/bin/pab_bench/Cargo.lock
cargo metadata --offline --format-version 1 \
    --manifest-path crates/experiments/src/bin/pab_bench/Cargo.toml > /dev/null
if ! git diff --quiet -- "$bench_lock"; then
    git diff -- "$bench_lock"
    git checkout -- "$bench_lock"
    echo "$bench_lock drifted from the workspace manifests (restored)"
    exit 1
fi

echo "==> cargo test -q  (includes pab-lint enforcement)"
cargo test -q

# Public docs build clean: a doc link to an item that went private or
# away (the dead-pub lint demotes and deletes public items) fails here.
echo "==> cargo doc --no-deps  (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p pab-analog -p pab-channel -p pab-core -p pab-dsp -p pab-mcu -p pab-net \
    -p pab-piezo -p pab-sensors -p pab-sweep -p pab-telemetry -p pab-lint

# Standalone linter pass: same findings the enforce test gates on, but
# emitted as JSON so CI (and editors) can consume them. Written to
# target/pab-lint.json; a non-empty findings set fails the gate here
# with the human-readable report.
echo "==> pab-lint --json  (domain linter, machine-readable findings)"
mkdir -p target
if cargo run --release -q -p pab-lint --bin pab-lint -- --json > target/pab-lint.json; then
    echo "    0 violations (target/pab-lint.json)"
else
    status=$?
    cat target/pab-lint.json
    cargo run --release -q -p pab-lint --bin pab-lint || true
    exit "$status"
fi

# The memory gate again, with its figures printed: the peak live heap of
# one faulted_n2 and one fdma_n4 round, counted by allocator, not RSS.
echo "==> peak live heap of a network round (tests/network_peak_heap.rs)"
cargo test -q -p pab-core --test network_peak_heap -- --nocapture

echo "==> fault-resilience integration tests (tests/fault_resilience.rs)"
cargo test -q -p pab-core --test fault_resilience

echo "==> ext_fault_resilience --trace  (full fault-injection sweep + telemetry trace)"
cargo run --release -q -p pab-experiments --bin ext_fault_resilience -- --trace
for f in results/fault_trace.csv results/fault_trace.jsonl results/fault_trace_summary.csv results/fault_trace.bin; do
    [ -s "$f" ] || { echo "missing telemetry export: $f"; exit 1; }
done

echo "==> fig10_concurrent + ext_three_channels + ext_collision_faultnet  (committed Fig. 10, §8, collision-slot and fault-resilience results must regenerate unchanged)"
cargo run --release -q -p pab-experiments --bin fig10_concurrent
cargo run --release -q -p pab-experiments --bin ext_three_channels
cargo run --release -q -p pab-experiments --bin ext_collision_faultnet

echo "==> fig2_waveform + fig7_ber_snr + fig8_snr_bitrate + app_sensing + ext_future_work + ext_mobility  (committed single-link results must regenerate unchanged)"
cargo run --release -q -p pab-experiments --bin fig2_waveform
cargo run --release -q -p pab-experiments --bin fig7_ber_snr
cargo run --release -q -p pab-experiments --bin fig8_snr_bitrate
cargo run --release -q -p pab-experiments --bin app_sensing
cargo run --release -q -p pab-experiments --bin ext_future_work
cargo run --release -q -p pab-experiments --bin ext_mobility

echo "==> fig3_rectopiezo + fig9_range + fig11_power + baseline_active  (committed analytic-figure results must regenerate unchanged)"
cargo run --release -q -p pab-experiments --bin fig3_rectopiezo
cargo run --release -q -p pab-experiments --bin fig9_range
cargo run --release -q -p pab-experiments --bin fig11_power
cargo run --release -q -p pab-experiments --bin baseline_active
git diff --exit-code -- results/fig10_concurrent.csv results/ext_three_channels.csv \
    results/ext_collision_faultnet.csv results/ext_fault_resilience.csv \
    results/fault_trace_summary.csv results/fault_trace.csv results/fault_trace.jsonl \
    results/fault_trace.bin \
    results/fig2_waveform.csv results/fig2_envelope.wav results/fig7_ber_snr.csv \
    results/fig8_snr_bitrate.csv results/app_sensing.csv results/ext_battery_assist.csv \
    results/ext_open_water.csv results/ext_mobility.csv \
    results/fig3_rectopiezo.csv results/fig9_range.csv results/fig11_power.csv \
    results/baseline_active.csv \
    || { echo "results/ drifted from the code: re-run the binaries and commit the CSVs on purpose"; exit 1; }

if cargo clippy --version >/dev/null 2>&1; then
    # Library code is clippy-clean: any warning fails the gate, except
    # unwrap_used/expect_used, which pab-lint's no-unwrap-in-lib already
    # owns (with its waivers) in the test run above.
    echo "==> cargo clippy --workspace --lib  (warnings are errors, unwrap/expect left to pab-lint)"
    cargo clippy --workspace --lib -- -D warnings -A clippy::unwrap_used -A clippy::expect_used
    echo "==> cargo clippy --workspace --all-targets"
    cargo clippy --workspace --all-targets
else
    echo "==> clippy not installed; skipping (build + tests still gate)"
fi

# Information only, not a gate: the non-test line counts ROADMAP.md
# states its line budgets in.
echo "==> non-test lines per crate (scripts/loc.sh)"
./scripts/loc.sh

echo "==> all checks passed"
