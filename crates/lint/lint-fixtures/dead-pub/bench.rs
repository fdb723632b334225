// path: crates/experiments/src/bin/pab_bench/main.rs
//! The benchmark package does not count as a caller.

fn main() {
    pab_dsp::fixture_items::bench_only();
    pab_dsp::fixture_items::bench_waived();
}
