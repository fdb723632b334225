//! The four PAB domain lints.
//!
//! Each lint is a pure function from a [`ScannedFile`] to a list of
//! [`Violation`]s. Scope (which crates a lint applies to) is decided by
//! the caller via the `*_SCOPE` constants so the enforcement test and
//! the unit tests share one source of truth.

use crate::scan::ScannedFile;

/// Crates whose `src/` trees are library code: no panicking shortcuts,
/// no ambient wall-clock or entropy. (`experiments` and `bench` are
/// binary/bench harnesses and exempt by design.)
// lint: allow(dead-pub) test-oracle lint_scopes_match_workspace_layout
pub const LIB_SCOPE: &[&str] = &[
    "analog", "channel", "core", "dsp", "lint", "mcu", "net", "piezo", "sensors", "sweep",
    "telemetry",
];

/// True for a file under `crates/<c>/src/` with `c` in [`LIB_SCOPE`]:
/// the files the lints police. Any other file in a corpus is read only
/// as a caller or test of library items.
pub fn is_lib_file(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some_and(|c| LIB_SCOPE.contains(&c))
        && parts.next() == Some("src")
}

/// Crates whose public `f64` parameters must carry a unit suffix.
/// `telemetry` is in scope because its whole point is labelled
/// observability: an event field or histogram bound without a unit is a
/// trace nobody can interpret later.
pub const UNIT_SCOPE: &[&str] = &["analog", "channel", "core", "dsp", "piezo", "telemetry"];

/// Crates where narrowing `as` casts must be bounded or waivered.
/// `mcu` is in scope because its register/timer emulation narrows to the
/// MSP430's `u32`/`u16`/`i16` widths constantly — exactly where a silent
/// truncation becomes a firmware-fidelity bug.
pub const CAST_SCOPE: &[&str] = &["core", "dsp", "mcu", "telemetry"];

/// Unit suffixes accepted on public `f64` parameters. The long forms
/// from the convention doc plus the SI shorthand the codebase already
/// uses (`_s`, `_m`, `_m_s`, `_ohms`, ...). `_frac` and `_ratio` mark
/// explicitly dimensionless quantities; anything else dimensionless
/// takes a `// lint: unitless` waiver.
const UNIT_SUFFIXES: &[&str] = &[
    // frequency
    "_hz", "_khz", "_mhz",
    // pressure / acoustics
    "_pa", "_upa", "_db", "_dbm",
    // voltage / current / power
    "_volts", "_v", "_mv", "_uv", "_a", "_ma", "_ua", "_w", "_mw", "_uw",
    // time
    "_secs", "_s", "_ms", "_us", "_ns",
    // sampling
    "_samples",
    // distance / speed
    "_m", "_mm", "_cm", "_km", "_m_s",
    // circuit elements
    "_ohms", "_kohms", "_f", "_uf", "_nf", "_pf", "_h", "_mh", "_uh",
    // energy / temperature / angle
    "_j", "_mj", "_uj", "_c", "_k", "_rad", "_deg",
    // rates and explicit dimensionless (`_ppt`: parts per thousand, the
    // oceanographic salinity unit)
    "_bps", "_kbps", "_baud", "_bits", "_bytes", "_pct", "_ppt", "_frac", "_ratio",
    // spelled-out forms
    "_amps", "_watts", "_farads", "_henries", "_joules", "_meters", "_pascals",
    "_seconds", "_hertz",
    // compound rates (PR 6): suffix matching is longest-first, so
    // `rate_hz_per_s` canonicalizes to Hz/s (a drift-ramp slope), not
    // to seconds, and `_db_per_m`/`_db_per_km` absorption slopes are
    // dB-per-distance rather than bare distance.
    "_hz_per_s", "_db_per_m", "_db_per_km",
    // geometry / material / acoustic-impedance units (PR 6): area,
    // volume, density and rayls, used by the piezo element geometry and
    // the water model.
    "_m2", "_m3", "_kg_m3", "_rayl",
];

/// Parameter names that *are* a unit word outright (`volts: f64`,
/// `pascals: f64`, `db: f64`). These are already unit-explicit; forcing
/// `volts_volts` would be noise.
pub const UNIT_WORDS: &[&str] = &[
    "hz", "pa", "pascals", "db", "volts", "amps", "watts", "ohms", "farads", "henries",
    "joules", "secs", "samples", "meters", "radians", "ratio", "frac", "pct", "baud", "bps",
];

/// One lint finding, reported as `file:line`.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint name, e.g. `no-unwrap-in-lib`.
    pub lint: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// True when line `idx` (0-based) carries a waiver for `lint`: a waiver
/// comment on the same line, or a comment-**only** line directly above
/// (a trailing waiver on a line of code covers that line, not the next).
/// Waiver syntax: `// lint: allow(<lint-name>) <reason>`; the
/// `unit-suffix` and `unit-flow` lints also accept the shorthand
/// `// lint: unitless`.
pub(crate) fn waived(file: &ScannedFile, idx: usize, lint: &str) -> bool {
    waiver_reason(file, idx, lint).is_some()
}

/// The reason text of the waiver for `lint` that covers line `idx`
/// (0-based), as [`waived`] finds it: what follows the marker.
pub(crate) fn waiver_reason<'a>(file: &'a ScannedFile, idx: usize, lint: &str) -> Option<&'a str> {
    let marker = format!("lint: allow({lint})");
    let unit_lint = lint == "unit-suffix" || lint == "unit-flow";
    let at = |i: usize| {
        let c = &file.lines[i].comment;
        let after = |m: &str| c.find(m).map(|p| c[p + m.len()..].trim());
        after(&marker).or_else(|| unit_lint.then(|| after("lint: unitless")).flatten())
    };
    at(idx).or_else(|| {
        (idx > 0 && file.lines[idx - 1].code.trim().is_empty())
            .then(|| at(idx - 1))
            .flatten()
    })
}

/// Drop every violation whose line carries a matching waiver. All lints
/// (line-level and token-level) share this single filtering step, so the
/// stale-waiver audit can reason about raw-vs-filtered sets uniformly.
pub fn filter_waived(file: &ScannedFile, raw: Vec<Violation>) -> Vec<Violation> {
    raw.into_iter()
        .filter(|v| !waived(file, v.line - 1, v.lint))
        .collect()
}

/// `no-unwrap-in-lib`: `.unwrap()`, `.expect(...)`, `panic!`, `todo!`
/// and `unimplemented!` are forbidden in library `src/` code. Tests,
/// benches and examples may panic freely; library code must return
/// `Result` or carry a waiver naming the invariant that makes the
/// branch impossible.
pub fn no_unwrap_in_lib(file: &ScannedFile) -> Vec<Violation> {
    filter_waived(file, no_unwrap_in_lib_raw(file))
}

/// [`no_unwrap_in_lib`] before waiver filtering (stale-waiver audit).
pub fn no_unwrap_in_lib_raw(file: &ScannedFile) -> Vec<Violation> {
    const PATTERNS: &[(&str, &str)] = &[
        (".unwrap()", "`.unwrap()` in library code"),
        (".expect(", "`.expect(...)` in library code"),
        ("panic!(", "`panic!` in library code"),
        ("todo!(", "`todo!` in library code"),
        ("unimplemented!(", "`unimplemented!` in library code"),
    ];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, what) in PATTERNS {
            if line.code.contains(pat) {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    lint: "no-unwrap-in-lib",
                    message: format!(
                        "{what}; return Result or waive with \
                         `// lint: allow(no-unwrap-in-lib) <invariant>`"
                    ),
                });
            }
        }
    }
    out
}

/// `no-wallclock-no-threadrng`: library code must be replayable, so
/// ambient time (`SystemTime::now`, `Instant::now`) and ambient entropy
/// (`thread_rng`, `from_entropy`) are forbidden. Time comes from the
/// simulation clock; randomness comes from a caller-seeded RNG.
pub fn no_wallclock_no_threadrng(file: &ScannedFile) -> Vec<Violation> {
    filter_waived(file, no_wallclock_no_threadrng_raw(file))
}

/// [`no_wallclock_no_threadrng`] before waiver filtering.
pub fn no_wallclock_no_threadrng_raw(file: &ScannedFile) -> Vec<Violation> {
    const PATTERNS: &[(&str, &str)] = &[
        ("SystemTime::now", "wall-clock read (`SystemTime::now`)"),
        ("Instant::now", "wall-clock read (`Instant::now`)"),
        ("thread_rng", "ambient entropy (`thread_rng`)"),
        ("from_entropy", "ambient entropy (`from_entropy`)"),
    ];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, what) in PATTERNS {
            if line.code.contains(pat) {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    lint: "no-wallclock-no-threadrng",
                    message: format!(
                        "{what} breaks determinism; take a simulation clock or \
                         seeded RNG parameter, or waive with \
                         `// lint: allow(no-wallclock-no-threadrng) <reason>`"
                    ),
                });
            }
        }
    }
    out
}

/// `lossy-cast`: narrowing `as f32` / `as usize` / `as u32` / `as i16`
/// casts silently truncate or lose precision (`as u32`/`as i16` are the
/// MCU emulation's register widths, where a float or wide counter
/// wrapping into a 16-bit timer compare register is a classic silent
/// firmware bug). A cast is accepted when the same line visibly bounds
/// or rounds the value (`.clamp(`, `.min(`, `.max(`, `.floor()`,
/// `.ceil()`, `.round()`) or carries a waiver.
pub fn lossy_cast(file: &ScannedFile) -> Vec<Violation> {
    filter_waived(file, lossy_cast_raw(file))
}

/// [`lossy_cast`] before waiver filtering (the visible-guard exemption
/// is part of the rule itself, so it stays in the raw pass).
pub fn lossy_cast_raw(file: &ScannedFile) -> Vec<Violation> {
    const GUARDS: &[&str] = &[".clamp(", ".min(", ".max(", ".floor()", ".ceil()", ".round()"];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in [" as f32", " as usize", " as u32", " as i16"] {
            if !line.code.contains(pat) {
                continue;
            }
            if GUARDS.iter().any(|g| line.code.contains(g)) {
                continue;
            }
            out.push(Violation {
                file: file.rel_path.clone(),
                line: idx + 1,
                lint: "lossy-cast",
                message: format!(
                    "narrowing `{}` without visible bound/round on the same line; \
                     clamp/round it or waive with `// lint: allow(lossy-cast) <reason>`",
                    pat.trim_start()
                ),
            });
        }
    }
    out
}

/// `no-unbounded-retry`: a retry loop in library code must name its
/// bound. Any `while`/`loop` header whose condition mentions retrying
/// (`retry`, `resend`, `reprobe`, `requery`, `backoff`, ...) without
/// also referencing a budget, limit, timeout or similar bound is an
/// unbounded-livelock hazard — exactly the class of bug behind the
/// inventory-round starvation this lint was added alongside. Bounded
/// `for` loops are inherently fine and never flagged. The check is
/// header-level: it inspects the loop's own line, so a bare `loop {`
/// with the retry logic inside the body is out of scope (and `for` is
/// the preferred idiom there anyway).
pub fn no_unbounded_retry(file: &ScannedFile) -> Vec<Violation> {
    filter_waived(file, no_unbounded_retry_raw(file))
}

/// [`no_unbounded_retry`] before waiver filtering.
pub fn no_unbounded_retry_raw(file: &ScannedFile) -> Vec<Violation> {
    const RETRY_TOKENS: &[&str] = &[
        "retry", "retries", "retrans", "resend", "re_send", "reprobe", "re_probe", "requery",
        "re_query", "backoff",
    ];
    const BOUND_TOKENS: &[&str] = &[
        "budget", "max", "limit", "timeout", "deadline", "cap", "attempt", "remaining", "quota",
    ];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.to_ascii_lowercase();
        let trimmed = code.trim_start();
        let is_loop_header = trimmed.starts_with("while ")
            || code.contains(" while ")
            || trimmed == "loop"
            || trimmed.starts_with("loop {");
        if !is_loop_header || !RETRY_TOKENS.iter().any(|t| code.contains(t)) {
            continue;
        }
        if BOUND_TOKENS.iter().any(|t| code.contains(t)) {
            continue;
        }
        out.push(Violation {
            file: file.rel_path.clone(),
            line: idx + 1,
            lint: "no-unbounded-retry",
            message: "retry loop with no visible bound; reference a budget/limit/timeout \
                      in the loop condition or waive with \
                      `// lint: allow(no-unbounded-retry) <why it terminates>`"
                .to_string(),
        });
    }
    out
}

/// `unit-suffix`: every `f64` parameter of a `pub fn` must say what unit
/// it is in (`_hz`, `_pa`, `_volts`, `_secs`, `_db`, `_samples`, ...).
/// Dimensionless parameters use `_frac`/`_ratio` or a
/// `// lint: unitless` waiver on the parameter's line.
pub fn unit_suffix(file: &ScannedFile) -> Vec<Violation> {
    filter_waived(file, unit_suffix_raw(file))
}

/// [`unit_suffix`] before waiver filtering.
pub fn unit_suffix_raw(file: &ScannedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut idx = 0usize;
    while idx < file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test || !is_pub_fn_decl(&line.code) {
            idx += 1;
            continue;
        }
        match collect_params(file, idx) {
            Some((params, end_idx)) => {
                for (pidx, param) in params {
                    check_param(file, pidx, &param, &mut out);
                }
                idx = end_idx + 1;
            }
            None => idx += 1,
        }
    }
    out
}

fn is_pub_fn_decl(code: &str) -> bool {
    // `pub fn` only: `pub(crate)`/`pub(super)` functions are not public
    // API surface and private helpers are free to use local shorthand.
    if let Some(pos) = code.find("pub fn ") {
        // Reject matches inside identifiers (e.g. `_pub fn` cannot occur,
        // but be safe about preceding alphanumerics).
        pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
    } else {
        false
    }
}

/// Starting at the `pub fn` on line `start`, find the parameter list and
/// split it into `(line_idx, param_text)` pairs. Returns the params and
/// the line index where the list closes. Handles multi-line signatures,
/// generic parameter lists, and nested parens/brackets in types.
fn collect_params(file: &ScannedFile, start: usize) -> Option<(Vec<(usize, String)>, usize)> {
    // Locate the '(' that opens the parameter list: the first '(' at
    // angle-bracket depth 0 after the `fn` keyword.
    let mut angle: i32 = 0;
    let mut open: Option<(usize, usize)> = None; // (line, char index)
    let fn_pos = file.lines[start].code.find("pub fn ")? + "pub fn ".len();
    'search: for li in start..file.lines.len().min(start + 8) {
        let code = &file.lines[li].code;
        let from = if li == start { fn_pos } else { 0 };
        for (ci, c) in code.char_indices().skip_while(|(i, _)| *i < from) {
            match c {
                '<' => angle += 1,
                '>' => angle -= 1,
                '(' if angle <= 0 => {
                    open = Some((li, ci));
                    break 'search;
                }
                '{' | ';' => return None,
                _ => {}
            }
        }
    }
    let (open_line, open_ci) = open?;

    // Walk to the matching ')', splitting on top-level commas.
    let mut depth = 0i32;
    angle = 0;
    let mut params: Vec<(usize, String)> = Vec::new();
    let mut cur = String::new();
    let mut cur_line = open_line;
    for li in open_line..file.lines.len() {
        let code = &file.lines[li].code;
        let from = if li == open_line { open_ci } else { 0 };
        for (_, c) in code.char_indices().skip_while(|(i, _)| *i < from) {
            match c {
                '(' | '[' => {
                    depth += 1;
                    if depth > 1 {
                        cur.push(c);
                    }
                }
                ')' | ']' => {
                    depth -= 1;
                    if depth == 0 {
                        if !cur.trim().is_empty() {
                            params.push((cur_line, cur.trim().to_string()));
                        }
                        return Some((params, li));
                    }
                    cur.push(c);
                }
                '<' => {
                    angle += 1;
                    cur.push(c);
                }
                '>' => {
                    angle -= 1;
                    cur.push(c);
                }
                ',' if depth == 1 && angle <= 0 => {
                    if !cur.trim().is_empty() {
                        params.push((cur_line, cur.trim().to_string()));
                    }
                    cur.clear();
                    cur_line = li; // next param starts here (or later)
                }
                _ => {
                    if cur.trim().is_empty() && !c.is_whitespace() {
                        cur_line = li;
                    }
                    cur.push(c);
                }
            }
        }
        cur.push(' ');
    }
    None
}

fn check_param(file: &ScannedFile, line_idx: usize, param: &str, out: &mut Vec<Violation>) {
    let param = param.trim().trim_start_matches("mut ").trim();
    if param == "self" || param.starts_with("&self") || param.starts_with("&mut self") {
        return;
    }
    let Some((name, ty)) = param.split_once(':') else {
        return;
    };
    let name = name.trim();
    let ty = ty.trim();
    if ty != "f64" {
        return;
    }
    if UNIT_SUFFIXES.iter().any(|s| name.ends_with(s)) || UNIT_WORDS.contains(&name) {
        return;
    }
    out.push(Violation {
        file: file.rel_path.clone(),
        line: line_idx + 1,
        lint: "unit-suffix",
        message: format!(
            "public f64 parameter `{name}` has no unit suffix \
             (_hz/_pa/_volts/_secs/_db/_samples/...); rename it or mark it \
             `// lint: unitless`"
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_str;

    fn lib(src: &str) -> ScannedFile {
        scan_str("crates/core/src/x.rs", src)
    }

    #[test]
    fn unwrap_flagged_in_lib_not_in_tests() {
        let f = lib("pub fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t {\n fn g() { y.unwrap(); }\n}");
        let v = no_unwrap_in_lib(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_waiver_on_same_or_previous_line() {
        let f = lib(
            "let a = x.unwrap(); // lint: allow(no-unwrap-in-lib) len checked above\n\
             // lint: allow(no-unwrap-in-lib) invariant: non-empty\n\
             let b = y.unwrap();\n\
             let c = z.unwrap();",
        );
        let v = no_unwrap_in_lib(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn expect_and_panic_flagged() {
        let f = lib("let a = x.expect(\"msg\");\npanic!(\"boom\");");
        assert_eq!(no_unwrap_in_lib(&f).len(), 2);
    }

    #[test]
    fn unwrap_in_string_not_flagged() {
        let f = lib("let s = \"call .unwrap() here\";");
        assert!(no_unwrap_in_lib(&f).is_empty());
    }

    #[test]
    fn wallclock_and_threadrng_flagged() {
        let f = lib("let t = std::time::Instant::now();\nlet mut r = rand::thread_rng();");
        let v = no_wallclock_no_threadrng(&f);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn lossy_cast_flagged_unless_guarded_or_waived() {
        let f = lib(
            "let a = x as usize;\n\
             let b = x.round() as usize;\n\
             let c = x.clamp(0.0, 1.0) as f32;\n\
             let d = x as f32; // lint: allow(lossy-cast) display only\n\
             let e = y as f32;",
        );
        let v = lossy_cast(&f);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 5);
    }

    #[test]
    fn lossy_cast_covers_mcu_register_widths() {
        let f = scan_str(
            "crates/mcu/src/x.rs",
            "let a = ticks as u32;\n\
             let b = sample as i16;\n\
             let c = v.clamp(-32768.0, 32767.0) as i16;\n\
             let d = n as u32; // lint: allow(lossy-cast) divider <= 2^16 by construction\n\
             let e = big as u64;",
        );
        let v = lossy_cast(&f);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn cast_scope_includes_mcu() {
        assert!(CAST_SCOPE.contains(&"mcu"));
    }

    #[test]
    fn unbounded_retry_while_flagged() {
        let f = lib("while needs_retry {\n    resend_packet();\n}");
        let v = no_unbounded_retry(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].lint, "no-unbounded-retry");
    }

    #[test]
    fn bounded_retry_loops_pass() {
        let f = lib(
            "while retries_used < retry_budget {\n\
             while should_resend && attempts < 4 {\n\
             while backoff_slots > 0 && now_s < deadline_s {\n\
             for retry in 0..max_retries {",
        );
        assert!(no_unbounded_retry(&f).is_empty());
    }

    #[test]
    fn unbounded_retry_waiver_and_test_code() {
        let f = lib(
            "// lint: allow(no-unbounded-retry) terminates: channel closes on drop\n\
             while rx.needs_retry() {}\n\
             #[cfg(test)]\n\
             mod t {\n\
             fn g() { while needs_retry {} }\n\
             }",
        );
        assert!(no_unbounded_retry(&f).is_empty());
    }

    #[test]
    fn non_retry_loops_never_flagged() {
        let f = lib("while i < n {\nloop {\nwhile !done {");
        assert!(no_unbounded_retry(&f).is_empty());
    }

    #[test]
    fn unit_suffix_accepts_suffixed_rejects_bare() {
        let f = lib("pub fn set(freq_hz: f64, level_db: f64, gain: f64) {}");
        let v = unit_suffix(&f);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`gain`"));
    }

    #[test]
    fn unit_suffix_multiline_signature_and_waiver() {
        let f = lib(
            "pub fn mix(\n\
            \x20   carrier_hz: f64,\n\
            \x20   depth: f64, // lint: unitless modulation index in [0,1]\n\
            \x20   span: f64,\n\
             ) -> f64 { 0.0 }",
        );
        let v = unit_suffix(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("`span`"));
    }

    #[test]
    fn unit_suffix_ignores_non_f64_generics_and_private_fns() {
        let f = lib(
            "pub fn g<R: Rng>(rng: &mut R, n: usize, xs: &[f64]) {}\n\
             fn private(gain: f64) {}\n\
             pub(crate) fn semi(gain: f64) {}",
        );
        assert!(unit_suffix(&f).is_empty());
    }

    #[test]
    fn unit_suffix_accepts_bare_unit_words() {
        let f = lib("pub fn v2p(volts: f64, pascals: f64, db: f64, vv: f64) {}");
        let v = unit_suffix(&f);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`vv`"));
    }

    #[test]
    fn unit_suffix_skips_test_code() {
        let f = lib("#[cfg(test)]\nmod t {\n pub fn helper(gain: f64) {}\n}");
        assert!(unit_suffix(&f).is_empty());
    }

    #[test]
    fn unit_suffix_tuple_and_fn_pointer_types_ignored() {
        let f = lib("pub fn h(pair: (f64, f64), cb: fn(f64) -> f64, rate_hz: f64) {}");
        assert!(unit_suffix(&f).is_empty());
    }

    #[test]
    fn violation_display_is_file_line_lint() {
        let f = lib("pub fn f() { x.unwrap(); }");
        let v = no_unwrap_in_lib(&f);
        let s = v[0].to_string();
        assert!(s.starts_with("crates/core/src/x.rs:1: [no-unwrap-in-lib]"));
    }
}
