// path: crates/dsp/tests/fixture_props.rs
//! Integration tests do not count as callers.

use pab_dsp::fixture_items::*;

#[test]
fn oracle_matches() {
    oracle();
    test_only();
}

#[test]
fn unrelated_test() {
    used_by_core();
}
