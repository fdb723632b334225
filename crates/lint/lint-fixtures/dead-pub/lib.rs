// path: crates/dsp/src/lib.rs
//! The crate root: a re-export is not a caller.

pub mod fixture_items;
pub use fixture_items::reexported_only;

#[cfg(test)]
mod fixture_oracle;

#[cfg(test)]
mod tests {
    #[test]
    fn unit_test_calls() {
        super::fixture_items::test_only();
    }
}
