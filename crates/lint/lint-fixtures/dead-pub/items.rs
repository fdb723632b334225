// path: crates/dsp/src/fixture_items.rs
//! Public items of one library file, each with a different kind of
//! caller (or none).

/// Named only inside this file: flagged.
pub fn own_module_only() -> u8 {
    1
}

/// The in-file caller of `own_module_only`.
fn uses_own() -> u8 {
    own_module_only()
}

/// Named only by `tests/` and `#[cfg(test)]` code: flagged.
pub fn test_only() {}

/// Named only by a module the crate root declares `#[cfg(test)]`:
/// flagged.
pub fn test_module_only() {}

/// Named only by the benchmark package: flagged.
pub fn bench_only() {}

/// Only re-exported by `pub use`: flagged.
pub fn reexported_only() {}

/// Named by another crate's `src/`: passes.
pub fn used_by_core() {}

/// Named by a figure binary: passes.
pub fn used_by_figure() {}

/// Named by an example: passes.
pub const USED_BY_EXAMPLE: u8 = 3;

/// A waiver without a role: flagged with the reason.
// lint: allow(dead-pub) kept for later
pub fn roleless() {}

/// A test-oracle waiver naming a test that does not mention the item:
/// flagged with the reason.
// lint: allow(dead-pub) test-oracle unrelated_test the oracle
pub fn wrong_test() {}

/// An api waiver naming a caller that does not mention the item:
/// flagged with the reason.
// lint: allow(dead-pub) api examples/fixture_example.rs the example
pub fn wrong_caller() {}

/// A test-oracle waiver whose test names the item: passes.
// lint: allow(dead-pub) test-oracle oracle_matches the reference
pub fn oracle() {}

/// An api waiver naming the benchmark, which calls the item: passes.
// lint: allow(dead-pub) api crates/experiments/src/bin/pab_bench/main.rs timed there
pub fn bench_waived() {}

/// A waiver on an item with a production caller suppresses nothing:
/// stale.
// lint: allow(dead-pub) test-oracle oracle_matches no longer needed
pub fn waived_but_used() {}
