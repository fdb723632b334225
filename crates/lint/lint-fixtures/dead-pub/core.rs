// path: crates/core/src/fixture_user.rs
//! Another crate's library code.

use pab_dsp::fixture_items::{reexported_only, used_by_core};

pub fn run() {
    used_by_core();
    pab_dsp::fixture_items::waived_but_used();
}
