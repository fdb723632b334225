//! # pab-lint — PAB domain linter
//!
//! Workspace-wide static analysis for invariants that `rustc` and
//! `clippy` cannot see because they are *domain* rules, not language
//! rules:
//!
//! | lint | rule |
//! |------|------|
//! | `no-unwrap-in-lib` | no `.unwrap()` / `.expect()` / `panic!` / `todo!` / `unimplemented!` in library `src/` code |
//! | `unit-suffix` | public `f64` parameters carry a unit suffix (`_hz`, `_pa`, `_volts`, `_secs`, `_db`, `_samples`, ...) |
//! | `no-wallclock-no-threadrng` | no `SystemTime::now` / `Instant::now` / `thread_rng` / `from_entropy` in library code |
//! | `lossy-cast` | `as f32` / `as usize` narrowing casts in `dsp`/`core` must be visibly bounded or waivered |
//! | `no-unbounded-retry` | `while`/`loop` headers that retry/resend/backoff must reference a budget, limit or timeout |
//! | `unit-flow` | unit suffixes must agree where values flow: call-site arguments vs declared parameters, and public `f64` fields / consts / return types must be unit-named |
//! | `panic-path` | demod hot paths: no unwrap-adjacent calls, no unchecked-arithmetic or foreign-cursor slice indexing inside loops |
//! | `stale-waiver` | a waiver that no longer suppresses a violation is itself a violation |
//! | `dead-pub` | every `pub fn` / `pub const` is named by production code in another file (any crate's `src/`, a figure binary, an example), or waived with its role: `test-oracle <test fn>` or `api <caller path>` |
//!
//! The linter is built on a small zero-dependency Rust tokenizer
//! ([`token`]) that understands strings, raw strings, nested block
//! comments, char literals vs lifetimes and raw identifiers. The five
//! original lints stay line-based — [`scan`] derives the per-line
//! code/comment channels from the token stream, so verdicts are
//! byte-identical to the pre-tokenizer linter (locked by
//! `tests/legacy_equiv.rs`) — while the newer passes ([`flow`],
//! [`panic_path`], [`waiver`], [`dead_pub`]) walk tokens and the
//! signature index ([`sig`]) directly. Zero dependencies means it can never be the
//! reason the workspace fails to build. It runs as an ordinary test
//! (`crates/lint/tests/enforce.rs`), so plain `cargo test -q` enforces
//! it; `cargo run -p pab-lint -- --json` emits the same findings as
//! machine-readable JSON for CI.
//!
//! ## Waivers
//!
//! A violation is silenced by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // lint: allow(<lint-name>) <reason — required, explain the invariant>
//! ```
//!
//! The `unit-suffix` lint also accepts `// lint: unitless <why>` next to
//! a genuinely dimensionless parameter. A `dead-pub` reason must start
//! with its role, `test-oracle <test fn>` or `api <caller path>`.

pub mod dead_pub;
pub mod flow;
pub mod lints;
pub mod panic_path;
pub mod scan;
pub mod sig;
pub mod token;
pub mod waiver;

pub use lints::{Violation, CAST_SCOPE, LIB_SCOPE, UNIT_SCOPE};
pub use panic_path::PANIC_SCOPE;
pub use scan::{parse_str, scan_str, Line, ParsedFile, ScannedFile};
pub use sig::{FileSigs, SigIndex};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Workspace root, assuming this crate lives at `<root>/crates/lint`.
pub fn workspace_root() -> PathBuf {
    // lint: allow(no-unwrap-in-lib) CARGO_MANIFEST_DIR is crates/lint, two parents always exist
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

/// All `.rs` files under `crates/<name>/src/` for the given crate names,
/// as workspace-relative paths, sorted for stable reports.
// lint: allow(dead-pub) test-oracle five_lints_byte_identical_verdicts_old_vs_new_scanner the library file list the legacy-scanner comparison walks
pub fn lib_sources(root: &Path, crate_names: &[&str]) -> io::Result<Vec<String>> {
    let dirs = crate_names.iter().map(|name| root.join("crates").join(name).join("src"));
    sources_under(root, dirs)
}

/// Every `.rs` file the linter reads: each crate's `src/`, `tests/` and
/// `benches/`, plus the root `examples/` and `tests/`. Only the library
/// files among them ([`lints::is_lib_file`]) are linted; the rest are
/// read as callers and tests of library items.
fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut dirs = vec![root.join("examples"), root.join("tests")];
    for entry in fs::read_dir(root.join("crates"))? {
        let krate = entry?.path();
        dirs.extend(["src", "tests", "benches"].map(|d| krate.join(d)));
    }
    sources_under(root, dirs)
}

fn sources_under(root: &Path, dirs: impl IntoIterator<Item = PathBuf>) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for dir in dirs {
        if dir.is_dir() {
            collect_rs(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // A package's own build directory (the benchmark's) holds no sources.
            if !path.ends_with("target") {
                collect_rs(&path, root, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Parse one workspace-relative file from disk (tokens + line channels).
fn parse_file(root: &Path, rel: &str) -> io::Result<ParsedFile> {
    let text = fs::read_to_string(root.join(rel))?;
    Ok(parse_str(rel, &text))
}

/// The raw (pre-waiver) violations of every lint on one file, under the
/// same scope gating as enforcement. This is what the stale-waiver audit
/// compares waiver sites against: a waiver is live iff a raw violation
/// of its lint sits at the line it covers.
fn raw_violations(pf: &ParsedFile, sigs: &FileSigs, index: &SigIndex) -> Vec<Violation> {
    let file = &pf.scanned;
    let crate_name = file.crate_name.as_str();
    let mut raw = Vec::new();
    raw.extend(lints::no_unwrap_in_lib_raw(file));
    raw.extend(lints::no_wallclock_no_threadrng_raw(file));
    raw.extend(lints::no_unbounded_retry_raw(file));
    if lints::UNIT_SCOPE.contains(&crate_name) {
        raw.extend(lints::unit_suffix_raw(file));
    }
    if lints::CAST_SCOPE.contains(&crate_name) {
        raw.extend(lints::lossy_cast_raw(file));
    }
    raw.extend(flow::unit_flow_raw(
        pf,
        sigs,
        index,
        lints::UNIT_SCOPE.contains(&crate_name),
    ));
    raw.extend(panic_path::panic_path_raw(pf));
    raw
}

/// Run every lint over its scope in the workspace rooted at `root`.
/// Returns all unwaivered violations, sorted by file then line.
///
/// Two passes: first every file is tokenized and every `LIB_SCOPE`
/// file's signatures indexed (so call-site unit-flow sees cross-crate
/// declarations and dead-pub sees every caller), then each library file
/// is linted against the global index.
pub fn run_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut parsed = Vec::new();
    for rel in workspace_sources(root)? {
        parsed.push(parse_file(root, &rel)?);
    }
    Ok(run_parsed(&parsed))
}

/// [`run_workspace`] on already-parsed files — also the entry point the
/// fixture tests use to lint an in-memory corpus.
// lint: allow(dead-pub) test-oracle linter_detects_a_fresh_unit_mismatch lints an in-memory corpus, as the fixture and self-check tests do
pub fn run_parsed(parsed: &[ParsedFile]) -> Vec<Violation> {
    let sigs: Vec<FileSigs> = parsed
        .iter()
        .map(|pf| {
            if lints::is_lib_file(&pf.scanned.rel_path) {
                sig::index_file(pf)
            } else {
                FileSigs::default()
            }
        })
        .collect();
    let index = SigIndex::build(&sigs);
    let (dead_raw, mut violations) = dead_pub::dead_pub(parsed, &sigs);

    for (pf, fsigs) in parsed.iter().zip(&sigs) {
        let file = &pf.scanned;
        if !lints::is_lib_file(&file.rel_path) {
            continue;
        }
        let crate_name = file.crate_name.as_str();
        violations.extend(lints::no_unwrap_in_lib(file));
        violations.extend(lints::no_wallclock_no_threadrng(file));
        violations.extend(lints::no_unbounded_retry(file));
        if lints::UNIT_SCOPE.contains(&crate_name) {
            violations.extend(lints::unit_suffix(file));
        }
        if lints::CAST_SCOPE.contains(&crate_name) {
            violations.extend(lints::lossy_cast(file));
        }
        violations.extend(flow::unit_flow(
            pf,
            fsigs,
            &index,
            lints::UNIT_SCOPE.contains(&crate_name),
        ));
        violations.extend(panic_path::panic_path(pf));

        let mut raw = raw_violations(pf, fsigs, &index);
        raw.extend(dead_raw.iter().filter(|v| v.file == file.rel_path).cloned());
        violations.extend(waiver::stale_waivers(file, &raw));
    }

    violations.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    violations
}

/// Render violations as a machine-readable report: one `file:line:
/// [lint] message` per finding, followed by waiver instructions.
pub fn render_report(violations: &[Violation]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    if violations.is_empty() {
        s.push_str("pab-lint: 0 violations\n");
        return s;
    }
    let _ = writeln!(s, "pab-lint: {} violation(s)", violations.len());
    for v in violations {
        let _ = writeln!(s, "  {v}");
    }
    s.push_str(
        "\nTo waive a finding, add on the same line or the line above:\n\
         \x20   // lint: allow(<lint-name>) <reason>\n\
         For dimensionless f64 parameters: // lint: unitless <why>\n\
         See README.md 'Static analysis & invariants' for the conventions.\n",
    );
    s
}

/// Minimal JSON string escaping: quotes, backslashes and control
/// characters. Everything else (including UTF-8) passes through, which
/// JSON permits.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render violations as machine-readable JSON for CI:
/// `{"tool":"pab-lint","count":N,"violations":[{file,line,lint,message},...]}`.
/// Hand-rolled — the crate is dependency-free by design.
pub fn render_json(violations: &[Violation]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{{\"tool\":\"pab-lint\",\"count\":{}", violations.len());
    s.push_str(",\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&v.file),
            v.line,
            json_escape(v.lint),
            json_escape(&v.message)
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_has_cargo_toml() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn lib_sources_finds_known_files() {
        let root = workspace_root();
        let files = lib_sources(&root, &["dsp"]).unwrap();
        assert!(files.iter().any(|f| f.ends_with("crates/dsp/src/lib.rs")));
        assert!(files.iter().all(|f| f.starts_with("crates/dsp/src/")));
    }

    #[test]
    fn report_lists_file_line_and_waiver_help() {
        let v = vec![Violation {
            file: "crates/core/src/node.rs".into(),
            line: 42,
            lint: "no-unwrap-in-lib",
            message: "msg".into(),
        }];
        let r = render_report(&v);
        assert!(r.contains("crates/core/src/node.rs:42"));
        assert!(r.contains("lint: allow("));
        let empty = render_report(&[]);
        assert!(empty.contains("0 violations"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let v = vec![Violation {
            file: "crates/core/src/node.rs".into(),
            line: 7,
            lint: "unit-flow",
            message: "`delay_ms` has a \"tab\there".into(),
        }];
        let j = render_json(&v);
        assert!(j.starts_with("{\"tool\":\"pab-lint\",\"count\":1"));
        assert!(j.contains("\\\"tab\\t"));
        assert!(j.contains("\"line\":7"));
        assert_eq!(render_json(&[]), "{\"tool\":\"pab-lint\",\"count\":0,\"violations\":[]}\n");
    }
}
