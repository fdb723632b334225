// path: crates/experiments/src/bin/fixture_figure.rs
//! A figure binary.

fn main() {
    pab_dsp::fixture_items::used_by_figure();
    let _ = pab_core::fixture_user::run;
}
