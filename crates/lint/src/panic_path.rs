//! `panic-path`: audit of panic-capable operations in hot paths.
//!
//! The receive chain runs per-sample; a panic there doesn't just crash
//! a tool, it kills a simulated node mid-inventory-round. Three
//! patterns are policed:
//!
//! 1. **Unwrap-adjacent escapes** (all LIB_SCOPE files): the forms the
//!    `no-unwrap-in-lib` line patterns don't see — `unwrap_unchecked`
//!    (UB on miss), `unwrap_err`/`expect_err` (panic on the *success*
//!    path), and `unreachable!`.
//! 2. **Arithmetic index expressions** (PANIC_SCOPE demod loops):
//!    `x[i + 1]`, `x[n - k]`, `x[2 * i]` — the classic off-by-one /
//!    underflow panic sites. Flagged inside loop bodies unless the line
//!    visibly guards the arithmetic (`.min(`, `.clamp(`, `checked_`,
//!    `saturating_`, `%`, `.get(`) or carries a documented-invariant
//!    waiver.
//! 3. **Foreign-index reads** (PANIC_SCOPE demod loops): `x[i]` where
//!    `i` is *not* a variable bound by an enclosing `for` loop —
//!    a cursor mutated elsewhere, a computed offset. Range-`for` loop
//!    variables are bounds-correct by construction and never flagged.
//!
//! A waiver must state the invariant that makes the index in range:
//! `// lint: allow(panic-path) <invariant>`.

use crate::lints::{filter_waived, Violation};
use crate::scan::ParsedFile;
use crate::token::{Tok, TokKind};

/// Hot-path files where index expressions are policed. These are the
/// per-sample loops between the projected waveform and decoded bits:
/// the channel's propagation and noise kernels and the demod chain.
// lint: allow(dead-pub) test-oracle lint_scopes_match_workspace_layout
pub const PANIC_SCOPE: &[&str] = &[
    "crates/channel/src/noise.rs",
    "crates/channel/src/propagation.rs",
    "crates/dsp/src/correlate.rs",
    "crates/dsp/src/envelope.rs",
    "crates/dsp/src/fir.rs",
    "crates/dsp/src/goertzel.rs",
    "crates/dsp/src/iir.rs",
    "crates/dsp/src/mix.rs",
    "crates/dsp/src/polyphase.rs",
    "crates/dsp/src/resample.rs",
    "crates/core/src/collision.rs",
    "crates/core/src/collision_group.rs",
    "crates/core/src/faultnet.rs",
    "crates/core/src/firmware.rs",
    "crates/core/src/link.rs",
    "crates/core/src/medium.rs",
    "crates/core/src/node.rs",
    "crates/core/src/receiver.rs",
];

/// On-line patterns that visibly bound the index and exempt a site.
const GUARDS: &[&str] = &[
    ".get(",
    ".get_mut(",
    "checked_",
    "saturating_",
    "wrapping_",
    ".min(",
    ".max(",
    ".clamp(",
    "% ",
];

/// Full panic-path lint for one file, waivers applied.
pub fn panic_path(pf: &ParsedFile) -> Vec<Violation> {
    filter_waived(&pf.scanned, panic_path_raw(pf))
}

/// [`panic_path`] before waiver filtering.
pub fn panic_path_raw(pf: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    unwrap_adjacent(pf, &mut out);
    if PANIC_SCOPE.iter().any(|p| pf.scanned.rel_path.ends_with(p)) {
        index_exprs(pf, &mut out);
    }
    out.sort_by(|a, b| a.line.cmp(&b.line));
    out
}

fn unwrap_adjacent(pf: &ParsedFile, out: &mut Vec<Violation>) {
    let toks = &pf.toks;
    for (i, t) in toks.iter().enumerate() {
        if pf.tok_in_test(t) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let what = if prev_dot && t.is_ident("unwrap_unchecked") {
            Some("`unwrap_unchecked` (UB on a miss) in library code")
        } else if prev_dot && t.is_ident("unwrap_err") {
            Some("`unwrap_err` panics on the success path")
        } else if prev_dot && t.is_ident("expect_err") {
            Some("`expect_err` panics on the success path")
        } else if t.is_ident("unreachable") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            Some("`unreachable!` in library code")
        } else {
            None
        };
        if let Some(what) = what {
            out.push(Violation {
                file: pf.scanned.rel_path.clone(),
                line: t.line + 1,
                lint: "panic-path",
                message: format!(
                    "{what}; restructure to a Result/match or waive with \
                     `// lint: allow(panic-path) <invariant>`"
                ),
            });
        }
    }
}

/// Variables bound by `for` loops currently in scope at a token index,
/// maintained during a single forward walk.
struct LoopCtx {
    /// Brace depth of the loop body ( pops when depth drops below it).
    body_depth: i32,
    /// Pattern variables of a `for` loop; empty for `while`/`loop`.
    vars: Vec<String>,
}

fn index_exprs(pf: &ParsedFile, out: &mut Vec<Violation>) {
    let toks = &pf.toks;
    let mut depth = 0i32;
    let mut loops: Vec<LoopCtx> = Vec::new();
    // (token index of body '{', vars) for loop headers already seen.
    let mut pending: Vec<(usize, Vec<String>)> = Vec::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            if let Some(pos) = pending.iter().position(|(bi, _)| *bi == i) {
                let (_, vars) = pending.swap_remove(pos);
                loops.push(LoopCtx {
                    body_depth: depth,
                    vars,
                });
            }
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while loops.last().is_some_and(|l| depth < l.body_depth) {
                loops.pop();
            }
            continue;
        }

        // Loop headers: locate the body '{' and (for `for`) the bound
        // pattern variables.
        if t.is_ident("for") || t.is_ident("while") || t.is_ident("loop") {
            let mut vars = Vec::new();
            let mut j = i + 1;
            if t.is_ident("for") {
                while j < toks.len() && !toks[j].is_ident("in") {
                    if let Some(name) = toks[j].ident() {
                        if name != "mut" && name != "ref" {
                            vars.push(name.to_string());
                        }
                    }
                    j += 1;
                }
            }
            // Find the body '{' at nesting level 0 relative to here.
            let mut pd = 0i32;
            while j < toks.len() {
                let h = &toks[j];
                if h.is_punct('(') || h.is_punct('[') {
                    pd += 1;
                } else if h.is_punct(')') || h.is_punct(']') {
                    pd -= 1;
                } else if h.is_punct('{') && pd == 0 {
                    pending.push((j, vars));
                    break;
                } else if h.is_punct(';') && pd == 0 {
                    break; // not a loop after all (e.g. `for` in a macro)
                }
                j += 1;
            }
            continue;
        }

        // Index expressions: `expr[ ... ]` — the '[' must follow a
        // value (identifier, `)`, or `]`), not start a slice literal
        // or attribute.
        if !t.is_punct('[') {
            continue;
        }
        let indexes_value = i > 0
            && (matches!(toks[i - 1].kind, TokKind::Ident | TokKind::RawIdent)
                || toks[i - 1].is_punct(')')
                || toks[i - 1].is_punct(']'));
        if !indexes_value || pf.tok_in_test(t) || loops.is_empty() {
            continue;
        }
        let line = &pf.scanned.lines[t.line];
        if GUARDS.iter().any(|g| line.code.contains(g)) {
            continue;
        }
        let close = matching_bracket(toks, i);
        let inner = &toks[i + 1..close];

        // Classify.
        let mut pd = 0i32;
        let mut has_arith = false;
        let mut has_ident = false;
        for x in inner.iter() {
            if x.is_punct('(') || x.is_punct('[') {
                pd += 1;
            } else if x.is_punct(')') || x.is_punct(']') {
                pd -= 1;
            } else if pd == 0 && (x.is_punct('+') || x.is_punct('*') || x.is_punct('-')) {
                has_arith = true;
            } else if x.ident().is_some() {
                has_ident = true;
            }
        }

        if has_arith && has_ident {
            out.push(Violation {
                file: pf.scanned.rel_path.clone(),
                line: t.line + 1,
                lint: "panic-path",
                message: "unchecked arithmetic in index expression inside a demod loop; \
                          bound it visibly (checked_/saturating_/.min/.clamp/%) or waive \
                          with `// lint: allow(panic-path) <invariant>`"
                    .to_string(),
            });
        } else if inner.len() == 1 {
            if let Some(name) = inner[0].ident() {
                let is_loop_var = loops.iter().any(|l| l.vars.iter().any(|v| v == name));
                if !is_loop_var {
                    out.push(Violation {
                        file: pf.scanned.rel_path.clone(),
                        line: t.line + 1,
                        lint: "panic-path",
                        message: format!(
                            "`[{name}]` indexes with a variable not bound by an \
                             enclosing `for` loop; use a checked access or waive with \
                             `// lint: allow(panic-path) <invariant>`"
                        ),
                    });
                }
            }
        }
    }
}

/// Index of the matching `]` for the `[` at `i`.
fn matching_bracket(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_str;

    fn run(src: &str) -> Vec<Violation> {
        panic_path(&parse_str("crates/dsp/src/fir.rs", src))
    }

    #[test]
    fn arithmetic_index_in_loop_flagged() {
        let v = run("pub fn f(xs: &[f64]) { for i in 0..xs.len() { let y = xs[i + 1]; } }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("arithmetic"));
    }

    #[test]
    fn loop_var_index_not_flagged() {
        let v = run("pub fn f(xs: &[f64]) { for i in 0..xs.len() { let y = xs[i]; } }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn enumerate_tuple_vars_count_as_loop_vars() {
        let v = run("pub fn f(xs: &[f64], ys: &[f64]) { for (i, x) in xs.iter().enumerate() { let y = ys[i]; } }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn foreign_cursor_index_flagged() {
        let v = run(
            "pub fn f(xs: &[f64], mut cur: usize) -> f64 {\n    let mut acc = 0.0;\n    while cur > 0 {\n        acc += xs[cur];\n        cur -= 1;\n    }\n    acc\n}",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("cur"));
    }

    #[test]
    fn guards_and_waivers_exempt() {
        let v = run(
            "pub fn f(xs: &[f64]) {\n    for i in 0..xs.len() {\n        let a = xs[(i + 1).min(xs.len() - 1)];\n        // lint: allow(panic-path) i + 1 < len by loop bound above\n        let b = xs[i + 1];\n        let c = xs[(i + 1) % xs.len()];\n    }\n}",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn outside_loops_not_flagged() {
        let v = run("pub fn f(xs: &[f64], k: usize) -> f64 { xs[k] + xs[k + 1] }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn out_of_scope_file_only_checks_unwrap_adjacent() {
        let pf = parse_str(
            "crates/net/src/mac.rs",
            "pub fn f(xs: &[f64]) { for i in 0..4 { let y = xs[i + 1]; } }\npub fn g(r: Result<u8, E>) -> E { r.unwrap_err() }",
        );
        let v = panic_path(&pf);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unwrap_err"));
    }

    #[test]
    fn unreachable_and_unchecked_flagged() {
        let v = run("pub fn f(x: Option<u8>) -> u8 { match x { Some(v) => v, None => unreachable!() } }\npub unsafe fn g(x: Option<u8>) -> u8 { x.unwrap_unchecked() }");
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn test_code_exempt() {
        let v = run("#[cfg(test)]\nmod t {\n    fn f(xs: &[f64]) { for i in 0..4 { let y = xs[i + 1]; } }\n}");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn slice_literal_and_attr_brackets_not_indexing() {
        let v = run("#[derive(Clone)]\npub struct S;\npub fn f() { for i in 0..4 { let a = [1.0, 2.0]; let b = vec![0.0; 4]; } }");
        assert!(v.is_empty(), "{v:?}");
    }
}
