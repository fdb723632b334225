// path: crates/experiments/src/bin/fixture_figure.rs
//! A figure binary naming this case's public items, so the case shows
//! its own lint rather than `dead-pub`.

fn main() {
    let _ = (CARRIER_HZ, period_s(1.0), energy(&[]));
}
