// path: crates/dsp/src/fixture_oracle.rs
//! A test-only module: the crate root declares it `#[cfg(test)] mod
//! fixture_oracle;`, so its code is compiled only into the tests and
//! calls nothing.

fn oracle_helper() {
    crate::fixture_items::test_module_only();
}
