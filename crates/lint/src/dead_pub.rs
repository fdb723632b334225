//! `dead-pub`: every public item in library scope needs a production
//! caller in another file.
//!
//! A `pub fn` or `pub const` in a `LIB_SCOPE` crate's `src/` is public
//! API. If no production code outside its own file names it, it is
//! either dead or a helper that only its own module (or a test) uses,
//! and its `pub` widens the surface every refactor must keep alive.
//!
//! The analysis is name-based over the token stream: an item is live
//! when an identifier with its name appears in a production file other
//! than the one that declares it. Production files are any crate's
//! `src/` (including the figure binaries under `crates/experiments/src/
//! bin/`) and `examples/`. These never count:
//! - `use` / `pub use` items (a re-export is not a caller);
//! - `#[cfg(test)]` / `#[test]` code, `tests/` and `benches/`;
//! - a file that only a `#[cfg(test)] mod name;` declares (`pab_dsp`'s
//!   FFT oracle): it is compiled only into the crate's tests;
//! - the `pab_bench` benchmark package (it measures the library; it
//!   must not be the reason an item stays public);
//! - the identifier right after `fn` / `const` / `mod` (another item's
//!   declaration: `pub mod fft;` does not call `fft::fft`).
//!
//! A finding is waived only with its role, in one of two forms:
//!
//! - `lint: allow(dead-pub) test-oracle <test fn> <why>`
//! - `lint: allow(dead-pub) api <caller path> <why>`
//!
//! `test-oracle` names a test function (a bare name or a path whose
//! last segment is the name) whose body mentions the item; `api` names
//! a workspace-relative non-test file that mentions it. A waiver with
//! no role, or whose test or caller does not mention the item, leaves
//! the finding standing with the reason.

use crate::lints::{is_lib_file, waiver_reason, Violation};
use crate::scan::ParsedFile;
use crate::sig::FileSigs;
use crate::token::Tok;
use std::collections::{HashMap, HashSet};

/// True for a file whose non-test code counts as a production caller.
fn is_production_file(rel: &str) -> bool {
    let mut parts = rel.split('/');
    let in_src = parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src");
    (in_src && !rel.contains("/pab_bench/")) || rel.starts_with("examples/")
}

/// The directory a file's `mod name;` children live in: beside a crate
/// root (`lib.rs`, `main.rs`, a `src/bin/` file) or a `mod.rs`, in
/// `foo/` beside any other `foo.rs`.
fn child_module_dir(rel: &str) -> String {
    let (dir, file) = rel.rsplit_once('/').unwrap_or(("", rel));
    let dir = if dir.is_empty() { String::new() } else { format!("{dir}/") };
    if matches!(file, "lib.rs" | "main.rs" | "mod.rs") || dir.ends_with("/src/bin/") {
        dir
    } else {
        format!("{dir}{}/", file.trim_end_matches(".rs"))
    }
}

/// Files compiled only into tests: every `mod name;` that declares them
/// is test code (`#[cfg(test)] mod fft;`) or sits in such a file. Their
/// non-test-looking code is a test oracle, so it calls nothing.
fn test_only_files(parsed: &[ParsedFile]) -> HashSet<String> {
    let mut test_only = HashSet::new();
    loop {
        // Candidate child path → whether a production declaration names it.
        let mut declared: HashMap<String, bool> = HashMap::new();
        for pf in parsed {
            let rel = &pf.scanned.rel_path;
            let dir = child_module_dir(rel);
            for (i, t) in pf.toks.iter().enumerate() {
                let name = pf.toks.get(i + 1).and_then(|n| n.ident());
                let semi = pf.toks.get(i + 2).is_some_and(|n| n.is_punct(';'));
                let (true, Some(name), true) = (t.is_ident("mod"), name, semi) else {
                    continue;
                };
                let production = !pf.tok_in_test(t) && !test_only.contains(rel);
                for child in [format!("{dir}{name}.rs"), format!("{dir}{name}/mod.rs")] {
                    *declared.entry(child).or_default() |= production;
                }
            }
        }
        let next: HashSet<String> =
            declared.into_iter().filter(|(_, production)| !production).map(|(f, _)| f).collect();
        if next == test_only {
            return test_only;
        }
        test_only = next;
    }
}

/// True for a file that is test or bench code as a whole.
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/")
}

/// Identifiers a file's non-test code names, outside `use` items and
/// not counting the name being declared by `fn` / `const` / `mod`.
fn named_idents(pf: &ParsedFile) -> HashSet<&str> {
    let toks = &pf.toks;
    let mut names = HashSet::new();
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if pf.tok_in_test(t) {
            continue;
        }
        if in_use {
            in_use = !t.is_punct(';');
            continue;
        }
        if t.is_ident("use") {
            in_use = true;
            continue;
        }
        let declared = i > 0 && ["fn", "const", "mod"].iter().any(|kw| toks[i - 1].is_ident(kw));
        if let Some(name) = t.ident().filter(|_| !declared) {
            names.insert(name);
        }
    }
    names
}

/// The tokens of the function declared by the `fn` keyword at `fn_kw`,
/// signature and body: a proptest's strategies sit in its signature.
fn fn_tokens(toks: &[Tok], fn_kw: usize) -> &[Tok] {
    let mut parens = 0i32;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(fn_kw) {
        if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens -= 1;
        } else if t.is_punct(';') && parens == 0 && depth == 0 {
            return &toks[fn_kw..j];
        } else if t.is_punct('{') && parens == 0 {
            depth += 1;
        } else if t.is_punct('}') && parens == 0 {
            depth -= 1;
            if depth == 0 {
                return &toks[fn_kw..=j];
            }
        }
    }
    &toks[fn_kw..]
}

/// True when a test function called `test` (in a test file or a
/// `#[cfg(test)]` region) names `item`.
fn test_mentions(parsed: &[ParsedFile], test: &str, item: &str) -> bool {
    parsed.iter().any(|pf| {
        let whole = is_test_file(&pf.scanned.rel_path);
        pf.toks.iter().enumerate().any(|(i, t)| {
            t.is_ident("fn")
                && pf.toks.get(i + 1).is_some_and(|n| n.is_ident(test))
                && (whole || pf.tok_in_test(t))
                && fn_tokens(&pf.toks, i).iter().any(|b| b.is_ident(item))
        })
    })
}

/// Why a waiver's role does not hold for `item`, or `None` when it does.
fn role_problem(parsed: &[ParsedFile], reason: &str, item: &str) -> Option<String> {
    let mut words = reason.split_whitespace();
    match (words.next(), words.next()) {
        (Some("test-oracle"), Some(test)) => {
            let name = test.rsplit("::").next().unwrap_or(test);
            (!test_mentions(parsed, name, item))
                .then(|| format!("its waiver names test `{test}`, which does not mention `{item}`"))
        }
        (Some("api"), Some(path)) => {
            let mentions = parsed.iter().any(|pf| {
                pf.scanned.rel_path == path
                    && !is_test_file(path)
                    && named_idents(pf).contains(item)
            });
            (!mentions).then(|| {
                format!("its waiver names caller `{path}`, which is not a non-test file mentioning `{item}`")
            })
        }
        _ => Some(
            "its waiver has no role; start the reason with `test-oracle <test fn>` or \
             `api <caller path>`"
                .to_string(),
        ),
    }
}

/// Every public fn/const of a library file with no production caller in
/// another file. `sigs[i]` indexes `parsed[i]`. Returns the findings
/// before waivers (what the stale-waiver audit compares against) and
/// those left after role-checked waivers; a waiver whose role does not
/// hold leaves its finding standing with the reason.
pub fn dead_pub(parsed: &[ParsedFile], sigs: &[FileSigs]) -> (Vec<Violation>, Vec<Violation>) {
    let test_only = test_only_files(parsed);
    let callers: Vec<(usize, HashSet<&str>)> = parsed
        .iter()
        .enumerate()
        .filter(|(_, pf)| {
            let rel = &pf.scanned.rel_path;
            is_production_file(rel) && !test_only.contains(rel)
        })
        .map(|(i, pf)| (i, named_idents(pf)))
        .collect();
    let (mut raw, mut unwaived) = (Vec::new(), Vec::new());
    for (fi, (pf, fs)) in parsed.iter().zip(sigs).enumerate() {
        if !is_lib_file(&pf.scanned.rel_path) {
            continue;
        }
        let fns = fs.fns.iter().filter(|f| f.is_pub).map(|f| ("fn", &f.name, f.line));
        let consts = fs.consts.iter().filter(|c| c.is_pub).map(|c| ("const", &c.name, c.line));
        for (kind, name, line) in fns.chain(consts) {
            if callers.iter().any(|(ci, names)| *ci != fi && names.contains(name.as_str())) {
                continue;
            }
            let mut v = Violation {
                file: pf.scanned.rel_path.clone(),
                line: line + 1,
                lint: "dead-pub",
                message: format!(
                    "`pub {kind} {name}` has no production caller outside its own file; \
                     delete it, make it `pub(crate)` or private, or waive with \
                     `// lint: allow(dead-pub) test-oracle <test fn>` / `api <caller path>`"
                ),
            };
            raw.push(v.clone());
            match waiver_reason(&pf.scanned, line, "dead-pub").map(|r| role_problem(parsed, r, name)) {
                Some(None) => {}
                Some(Some(problem)) => {
                    v.message = format!("`pub {kind} {name}` has no production caller and {problem}");
                    unwaived.push(v);
                }
                None => unwaived.push(v),
            }
        }
    }
    (raw, unwaived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_str;
    use crate::sig::index_file;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_str(p, s)).collect();
        let sigs: Vec<FileSigs> = parsed.iter().map(index_file).collect();
        dead_pub(&parsed, &sigs).1
    }

    #[test]
    fn caller_in_another_crate_keeps_item_live() {
        let v = run(&[
            ("crates/dsp/src/a.rs", "pub fn gain() {}\npub const K: u8 = 1;"),
            ("crates/core/src/b.rs", "fn f() { gain(); let _ = K; }"),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn own_file_use_and_reexport_do_not_count() {
        let v = run(&[
            ("crates/dsp/src/a.rs", "pub fn gain() {}\nfn f() { gain(); }"),
            ("crates/dsp/src/lib.rs", "pub use a::gain;\nuse a::{gain as g};"),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn a_declaration_of_the_same_name_is_not_a_call() {
        let v = run(&[
            ("crates/dsp/src/a.rs", "pub fn gain() {}"),
            ("crates/core/src/b.rs", "fn gain() {}"),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn a_file_only_a_cfg_test_mod_declares_is_no_caller() {
        let files = |decl: &str| {
            run(&[
                ("crates/dsp/src/a.rs", "pub fn gain() {}"),
                ("crates/dsp/src/lib.rs", decl),
                ("crates/dsp/src/oracle.rs", "mod deep;\nfn f() { gain(); }"),
                ("crates/dsp/src/oracle/deep.rs", "fn g() { gain(); }"),
            ])
        };
        assert!(files("pub mod a;\nmod oracle;").is_empty());
        let v = files("pub mod a;\n#[cfg(test)]\nmod oracle;");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(child_module_dir("crates/dsp/src/oracle.rs"), "crates/dsp/src/oracle/");
        assert_eq!(child_module_dir("crates/x/src/bin/fig.rs"), "crates/x/src/bin/");
    }

    #[test]
    fn role_waivers_are_checked_against_their_target() {
        let lib = "// lint: allow(dead-pub) test-oracle checks_gain the oracle\npub fn gain() {}";
        let test = "#[test]\nfn checks_gain() { gain(); }";
        assert!(run(&[("crates/dsp/src/a.rs", lib), ("crates/dsp/tests/t.rs", test)]).is_empty());
        let wrong = "#[test]\nfn checks_gain() { other(); }";
        let v = run(&[("crates/dsp/src/a.rs", lib), ("crates/dsp/tests/t.rs", wrong)]);
        assert!(v[0].message.contains("does not mention"), "{v:?}");
        let bare = run(&[("crates/dsp/src/a.rs", "// lint: allow(dead-pub) kept\npub fn gain() {}")]);
        assert!(bare[0].message.contains("no role"), "{bare:?}");
    }
}
