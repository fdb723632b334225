//! `stale-waiver`: waivers that suppress nothing are themselves
//! violations.
//!
//! Every `// lint: allow(<name>) <reason>` (and `// lint: unitless`)
//! waiver is located with a strict parser — the comment must *begin*
//! with the waiver, so prose that merely mentions the syntax (doc
//! comments, this file) is not a waiver — and checked for liveness
//! against the **raw** (waiver-ignored) violation sets: a same-line
//! waiver must have a raw violation of its lint on its own line; a
//! comment-only-line waiver must have one on the line below. A waiver
//! naming an unknown lint is flagged too, so typos (`allow(no-unwrap)`)
//! can't silently disable nothing.
//!
//! This is what keeps the waiver inventory honest: when a refactor
//! removes the `.unwrap()` a waiver was excusing, the next lint run
//! demands the waiver's removal as well.

use crate::lints::Violation;
use crate::scan::ScannedFile;
use std::collections::HashSet;

/// Every lint that can appear in `lint: allow(...)`.
const KNOWN_LINTS: &[&str] = &[
    "no-unwrap-in-lib",
    "unit-suffix",
    "no-wallclock-no-threadrng",
    "lossy-cast",
    "no-unbounded-retry",
    "unit-flow",
    "panic-path",
    "stale-waiver",
    "dead-pub",
];

/// One parsed waiver comment.
#[derive(Debug, Clone, PartialEq)]
pub struct WaiverSite {
    /// 0-based line of the waiver comment.
    pub line: usize,
    /// Lint names the waiver targets (`unitless` maps to the two unit
    /// lints).
    pub lints: Vec<String>,
    /// True when the waiver's line has no code, i.e. it covers the line
    /// *below*; false for a trailing same-line waiver.
    pub comment_only: bool,
}

/// Strictly parse the waiver on one comment, if any. The comment must
/// start (after `//`, `//!`, `///` markers and whitespace) with
/// `lint: allow(<name>)` or `lint: unitless`; the name must be a plain
/// `[a-z0-9-]` identifier. Returns `Some(Err(name))` for a well-formed
/// waiver naming an unknown lint.
fn parse_waiver(comment: &str) -> Option<Result<Vec<String>, String>> {
    let mut s = comment.trim_start();
    while let Some(rest) = s
        .strip_prefix('/')
        .or_else(|| s.strip_prefix('!'))
        .or_else(|| s.strip_prefix('*'))
    {
        s = rest.trim_start();
    }
    let s = s.strip_prefix("lint:")?.trim_start();
    if s.starts_with("unitless") {
        return Some(Ok(vec!["unit-suffix".into(), "unit-flow".into()]));
    }
    let s = s.strip_prefix("allow(")?;
    let name: String = s
        .chars()
        .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
        .collect();
    if name.is_empty() || !s[name.len()..].starts_with(')') {
        return None;
    }
    if KNOWN_LINTS.contains(&name.as_str()) {
        Some(Ok(vec![name]))
    } else {
        Some(Err(name))
    }
}

/// Find every waiver in a scanned file (test lines excluded — lints do
/// not run there, so waivers there are inert by construction and the
/// audit has nothing to say about them).
fn find_waivers(file: &ScannedFile) -> Vec<(WaiverSite, Option<String>)> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.comment.is_empty() {
            continue;
        }
        match parse_waiver(&line.comment) {
            Some(Ok(lints)) => out.push((
                WaiverSite {
                    line: idx,
                    lints,
                    comment_only: line.code.trim().is_empty(),
                },
                None,
            )),
            Some(Err(unknown)) => out.push((
                WaiverSite {
                    line: idx,
                    lints: Vec::new(),
                    comment_only: line.code.trim().is_empty(),
                },
                Some(unknown),
            )),
            None => {}
        }
    }
    out
}

/// Audit one file's waivers against the raw (pre-waiver) violations of
/// every lint, provided as `(line0, lint)` pairs.
pub fn stale_waivers(file: &ScannedFile, raw: &[Violation]) -> Vec<Violation> {
    let raw_set: HashSet<(usize, &str)> = raw.iter().map(|v| (v.line - 1, v.lint)).collect();
    let mut out = Vec::new();
    for (site, unknown) in find_waivers(file) {
        if let Some(unknown) = unknown {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: site.line + 1,
                lint: "stale-waiver",
                message: format!(
                    "waiver names unknown lint `{unknown}` (known: {}); fix the name \
                     or remove the waiver",
                    KNOWN_LINTS.join(", ")
                ),
            });
            continue;
        }
        let live = site.lints.iter().any(|l| {
            raw_set.contains(&(site.line, l.as_str()))
                || (site.comment_only && raw_set.contains(&(site.line + 1, l.as_str())))
        });
        if !live {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: site.line + 1,
                lint: "stale-waiver",
                message: format!(
                    "waiver for `{}` no longer suppresses any violation; the code it \
                     excused is gone — remove the waiver so it cannot rot",
                    site.lints.join("/")
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints;
    use crate::scan::scan_str;

    fn audit(src: &str) -> Vec<Violation> {
        let f = scan_str("crates/core/src/x.rs", src);
        let raw = lints::no_unwrap_in_lib_raw(&f);
        stale_waivers(&f, &raw)
    }

    #[test]
    fn live_same_line_waiver_passes() {
        let v = audit("let a = x.unwrap(); // lint: allow(no-unwrap-in-lib) len checked");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn live_line_above_waiver_passes() {
        let v = audit("// lint: allow(no-unwrap-in-lib) invariant: non-empty\nlet a = x.unwrap();");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn orphaned_waiver_flagged() {
        let v = audit("// lint: allow(no-unwrap-in-lib) used to excuse an unwrap\nlet a = safe();");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "stale-waiver");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn trailing_waiver_does_not_cover_next_line() {
        // A waiver at the end of a code line covers that line only; if
        // the unwrap is on the next line the waiver is dead weight.
        let v = audit("let a = safe(); // lint: allow(no-unwrap-in-lib) wrong place\nlet b = y.unwrap();");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn unknown_lint_name_flagged() {
        let v = audit("let a = x.unwrap(); // lint: allow(no-unwrap) typo");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unknown lint"));
    }

    #[test]
    fn prose_mentions_are_not_waivers() {
        let v = audit(
            "//! The waiver syntax is `// lint: allow(<lint-name>) <reason>`.\n//! Also mentions lint: allow(no-unwrap-in-lib) mid-sentence? No:\n//! this doc line starts with prose, not with the waiver.",
        );
        // Line 1's payload `<lint-name>` is not a valid lint ident and
        // line 2 starts with prose — neither parses as a waiver.
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unitless_waiver_maps_to_unit_lints() {
        let f = scan_str(
            "crates/dsp/src/x.rs",
            "pub fn f(gain: f64) {} // lint: unitless — linear scale",
        );
        let raw = lints::unit_suffix_raw(&f);
        assert_eq!(raw.len(), 1);
        let v = stale_waivers(&f, &raw);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn orphaned_unitless_waiver_flagged() {
        let f = scan_str(
            "crates/dsp/src/x.rs",
            "pub fn f(gain_db: f64) {} // lint: unitless — stale, param was renamed",
        );
        let raw = lints::unit_suffix_raw(&f);
        let v = stale_waivers(&f, &raw);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn waivers_in_test_code_ignored() {
        let v = audit("#[cfg(test)]\nmod t {\n    // lint: allow(no-unwrap-in-lib) inert in tests\n    fn g() {}\n}");
        assert!(v.is_empty(), "{v:?}");
    }
}
