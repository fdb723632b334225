//! Golden-file tests over the `lint-fixtures/` corpus.
//!
//! Each case directory holds one or more `.rs` files whose first line
//! declares the workspace-relative path the linter should pretend they
//! live at (`// path: crates/<crate>/src/<file>.rs` — this is what puts
//! a fixture in or out of UNIT_SCOPE / CAST_SCOPE / PANIC_SCOPE), plus
//! an `expected.txt` with the exact violation lines the full nine-lint
//! pipeline must produce. Files within a case are linted *together*, so
//! cross-file findings (call-site unit-flow against another crate's
//! signature index, dead-pub's callers) are exercised for real. A file
//! outside a library crate's `src/` (a figure binary, an example, a
//! test) is read only as a caller; each case's `figure.rs` names the
//! case's public items so that it shows its own lint.
//!
//! To bless new output after an intentional change:
//! `UPDATE_FIXTURES=1 cargo test -p pab-lint --test fixtures`.

use pab_lint::{parse_str, run_parsed, workspace_root};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    workspace_root().join("crates/lint/lint-fixtures")
}

/// Lint one case directory and render its findings one per line.
fn run_case(dir: &Path) -> String {
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no .rs fixtures in {}", dir.display());
    for path in entries {
        let text = fs::read_to_string(&path).unwrap();
        let rel = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("// path: "))
            .unwrap_or_else(|| {
                panic!(
                    "{} must start with `// path: crates/<crate>/src/<file>.rs`",
                    path.display()
                )
            })
            .trim()
            .to_string();
        sources.push((rel, text));
    }
    let parsed: Vec<_> = sources
        .iter()
        .map(|(rel, text)| parse_str(rel, text))
        .collect();
    let mut out = String::new();
    for v in run_parsed(&parsed) {
        let _ = writeln!(out, "{v}");
    }
    out
}

fn check_case(name: &str) {
    let dir = fixtures_dir().join(name);
    let got = run_case(&dir);
    let golden = dir.join("expected.txt");
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        fs::write(&golden, &got).unwrap();
        return;
    }
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|_| panic!("missing {} (run with UPDATE_FIXTURES=1)", golden.display()));
    assert_eq!(
        got,
        expected,
        "fixture `{name}` diverged from its golden file\n--- got ---\n{got}\n--- expected ---\n{expected}"
    );
}

#[test]
fn clean_corpus_produces_no_findings() {
    check_case("clean");
    let expected = fs::read_to_string(fixtures_dir().join("clean/expected.txt")).unwrap();
    assert!(expected.is_empty(), "clean corpus must stay clean");
}

#[test]
fn cross_crate_unit_mismatch_is_caught() {
    check_case("unit-flow-cross-crate");
    let expected =
        fs::read_to_string(fixtures_dir().join("unit-flow-cross-crate/expected.txt")).unwrap();
    assert!(
        expected.contains("[unit-flow]") && expected.contains("gap_ms"),
        "the seeded ms-into-s mismatch must be flagged: {expected}"
    );
    assert!(
        !expected.contains("apply_converted"),
        "the unit-correct caller must NOT be flagged: {expected}"
    );
}

#[test]
fn unsuffixed_declarations_are_caught() {
    check_case("unit-flow-decls");
}

#[test]
fn hot_path_indexing_is_caught() {
    check_case("panic-path");
    let expected = fs::read_to_string(fixtures_dir().join("panic-path/expected.txt")).unwrap();
    assert!(
        !expected.contains("guarded") && !expected.contains("forward_sum"),
        "guarded/loop-variable indexing must stay clean"
    );
}

#[test]
fn orphaned_waivers_are_caught() {
    check_case("stale-waiver");
    let expected = fs::read_to_string(fixtures_dir().join("stale-waiver/expected.txt")).unwrap();
    assert!(
        expected.contains("[stale-waiver]"),
        "an orphaned waiver must fail the audit: {expected}"
    );
    let live_waiver_line = 8; // the waiver inside `live()` — must not be reported
    assert!(
        !expected.contains(&format!("fixture_waivers.rs:{live_waiver_line}")),
        "the live waiver must pass: {expected}"
    );
}

#[test]
fn five_original_lints_fire_on_fixture() {
    check_case("five-lints");
    let expected = fs::read_to_string(fixtures_dir().join("five-lints/expected.txt")).unwrap();
    for lint in [
        "no-unwrap-in-lib",
        "unit-suffix",
        "no-wallclock-no-threadrng",
        "lossy-cast",
        "no-unbounded-retry",
    ] {
        assert!(
            expected.contains(&format!("[{lint}]")),
            "expected a {lint} finding in:\n{expected}"
        );
    }
}

#[test]
fn dead_public_items_are_caught() {
    check_case("dead-pub");
    let expected = fs::read_to_string(fixtures_dir().join("dead-pub/expected.txt")).unwrap();
    for flagged in [
        "`pub fn own_module_only`",
        "`pub fn test_only`",
        "`pub fn test_module_only`",
        "`pub fn bench_only`",
        "`pub fn reexported_only`",
        "`pub fn roleless` has no production caller and its waiver has no role",
        "`pub fn wrong_test` has no production caller and its waiver names test `unrelated_test`",
        "`pub fn wrong_caller` has no production caller and its waiver names caller",
    ] {
        assert!(expected.contains(flagged), "expected {flagged} in:\n{expected}");
    }
    for passes in ["used_by_core", "used_by_figure", "USED_BY_EXAMPLE", "`pub fn oracle`", "bench_waived"] {
        assert!(!expected.contains(passes), "{passes} must pass:\n{expected}");
    }
    assert!(
        expected.contains("[stale-waiver] waiver for `dead-pub`"),
        "a dead-pub waiver on a used item is stale:\n{expected}"
    );
}
