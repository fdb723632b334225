// path: examples/fixture_example.rs
//! An example.

fn main() {
    println!("{}", pab_dsp::fixture_items::USED_BY_EXAMPLE);
}
