//! `unit-flow`: dimensional-sanity analysis on the token stream.
//!
//! Two halves, one lint name:
//!
//! 1. **Declaration coverage** (UNIT_SCOPE crates): public `f64` struct
//!    fields, `f64` consts, and `pub fn`s returning bare `f64` must
//!    carry a unit suffix in their *name*, exactly like the PR 1 rule
//!    for `pub fn` parameters. A sample rate that leaves a struct field
//!    is just as dangerous as one that enters a function.
//!
//! 2. **Call-site unit flow** (all LIB_SCOPE crates): at every call
//!    site where the argument is a plain identifier (or field access)
//!    with a unit suffix *and* the declared parameter also carries a
//!    unit suffix, the two canonical units must agree. `delay_ms`
//!    flowing into a `_s` parameter is the kHz-into-Hz class of bug
//!    that silently wrecks an FM0 decoder; seconds-vs-`_secs` spelling
//!    differences are fine because comparison happens on *canonical*
//!    units.
//!
//! The call-site half is deliberately conservative: a site is only
//! flagged when **every** same-arity candidate signature for that
//! function name disagrees with the argument's unit. Ambiguous names,
//! compound expressions, and unsuffixed parameters are skipped —
//! a missed finding is acceptable, a false positive is not.

use crate::lints::{filter_waived, Violation, UNIT_WORDS};
use crate::scan::ParsedFile;
use crate::sig::{FileSigs, FnSig, SigIndex};
use crate::token::Tok;

/// Canonical-unit spellings for every accepted suffix. Matching is
/// longest-suffix-first, so `rate_hz_per_s` is Hz/s (not seconds) and
/// `speed_m_s` is m/s (not seconds).
const CANON: &[(&str, &str)] = &[
    // compound rates first only for readability; matching sorts by length.
    ("_hz_per_s", "Hz/s"),
    ("_db_per_m", "dB/m"),
    ("_db_per_km", "dB/km"),
    ("_m2", "m^2"),
    ("_m3", "m^3"),
    ("_kg_m3", "kg/m^3"),
    ("_rayl", "rayl"),
    ("_hz", "Hz"),
    ("_hertz", "Hz"),
    ("_khz", "kHz"),
    ("_mhz", "MHz"),
    ("_pa", "Pa"),
    ("_pascals", "Pa"),
    ("_upa", "uPa"),
    ("_db", "dB"),
    ("_dbm", "dBm"),
    ("_volts", "V"),
    ("_v", "V"),
    ("_mv", "mV"),
    ("_uv", "uV"),
    ("_a", "A"),
    ("_amps", "A"),
    ("_ma", "mA"),
    ("_ua", "uA"),
    ("_w", "W"),
    ("_watts", "W"),
    ("_mw", "mW"),
    ("_uw", "uW"),
    ("_secs", "s"),
    ("_seconds", "s"),
    ("_s", "s"),
    ("_ms", "ms"),
    ("_us", "us"),
    ("_ns", "ns"),
    ("_samples", "samples"),
    ("_m", "m"),
    ("_meters", "m"),
    ("_mm", "mm"),
    ("_cm", "cm"),
    ("_km", "km"),
    ("_m_s", "m/s"),
    ("_ohms", "ohm"),
    ("_kohms", "kohm"),
    ("_f", "F"),
    ("_farads", "F"),
    ("_uf", "uF"),
    ("_nf", "nF"),
    ("_pf", "pF"),
    ("_h", "H"),
    ("_henries", "H"),
    ("_mh", "mH"),
    ("_uh", "uH"),
    ("_j", "J"),
    ("_joules", "J"),
    ("_mj", "mJ"),
    ("_uj", "uJ"),
    ("_c", "degC"),
    ("_k", "K"),
    ("_rad", "rad"),
    ("_deg", "deg"),
    ("_bps", "bps"),
    ("_kbps", "kbps"),
    ("_baud", "baud"),
    ("_bits", "bits"),
    ("_bytes", "bytes"),
    ("_pct", "pct"),
    ("_ppt", "ppt"),
    ("_frac", "dimensionless"),
    ("_ratio", "dimensionless"),
];

/// Whole-word unit names (for identifiers that *are* the unit).
const WORD_CANON: &[(&str, &str)] = &[
    ("hz", "Hz"),
    ("pa", "Pa"),
    ("pascals", "Pa"),
    ("db", "dB"),
    ("volts", "V"),
    ("amps", "A"),
    ("watts", "W"),
    ("ohms", "ohm"),
    ("farads", "F"),
    ("henries", "H"),
    ("joules", "J"),
    ("secs", "s"),
    ("samples", "samples"),
    ("meters", "m"),
    ("radians", "rad"),
    ("ratio", "dimensionless"),
    ("frac", "dimensionless"),
    ("pct", "pct"),
    ("baud", "baud"),
    ("bps", "bps"),
];

/// Canonical unit of an identifier, from its longest matching unit
/// suffix or its whole name being a unit word. `None` = no declared
/// unit.
fn canonical_unit(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    if let Some((_, c)) = WORD_CANON.iter().find(|(w, _)| *w == lower) {
        return Some(c);
    }
    CANON
        .iter()
        .filter(|(s, _)| lower.ends_with(s))
        .max_by_key(|(s, _)| s.len())
        .map(|(_, c)| *c)
}

/// True when the identifier carries any unit information (suffix or
/// whole unit word), i.e. satisfies the naming convention.
fn has_unit_name(name: &str) -> bool {
    canonical_unit(name).is_some() || UNIT_WORDS.contains(&name.to_ascii_lowercase().as_str())
}

/// Declaration-coverage half, before waiver filtering.
fn unit_flow_decls_raw(pf: &ParsedFile, sigs: &FileSigs) -> Vec<Violation> {
    let file = &pf.scanned;
    let mut out = Vec::new();
    for f in &sigs.fields {
        if f.is_pub && f.is_f64 && !has_unit_name(&f.name) {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: f.line + 1,
                lint: "unit-flow",
                message: format!(
                    "public f64 field `{}.{}` has no unit suffix \
                     (_hz/_pa/_volts/_secs/_db/_samples/...); rename it or mark it \
                     `// lint: unitless`",
                    f.struct_name, f.name
                ),
            });
        }
    }
    for c in &sigs.consts {
        if c.is_f64 && !has_unit_name(&c.name) {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: c.line + 1,
                lint: "unit-flow",
                message: format!(
                    "f64 const `{}` has no unit suffix; rename it or mark it \
                     `// lint: unitless`",
                    c.name
                ),
            });
        }
    }
    for f in &sigs.fns {
        if f.is_pub && f.ret_bare_f64 && !has_unit_name(&f.name) {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: f.line + 1,
                lint: "unit-flow",
                message: format!(
                    "`pub fn {}` returns bare f64 but its name carries no unit \
                     suffix (_hz/_volts/_secs/_db/...); rename it or mark it \
                     `// lint: unitless`",
                    f.name
                ),
            });
        }
    }
    out
}

/// How a call site names its callee, which changes how arguments line
/// up with parameters.
enum CallForm {
    /// `foo(args)` — free function.
    Free,
    /// `recv.foo(args)` — method; receiver is not in the arg list.
    Method,
    /// `Path::foo(args)` — either an associated fn, or a method called
    /// with the receiver as the first argument.
    Path,
}

/// Call-site half, before waiver filtering.
fn unit_flow_calls_raw(pf: &ParsedFile, index: &SigIndex) -> Vec<Violation> {
    let toks = &pf.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let Some(name) = t.ident() else {
            i += 1;
            continue;
        };
        // Callee position: ident ( ... ) — possibly with a turbofish.
        let mut open = i + 1;
        if toks.get(open).is_some_and(|t| t.is_punct(':'))
            && toks.get(open + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(open + 2).is_some_and(|t| t.is_punct('<'))
        {
            open = skip_toks(toks, open + 2, '<', '>');
        }
        if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        // Not a declaration, not a macro.
        if i > 0 && toks[i - 1].is_ident("fn") {
            i += 1;
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            i += 1;
            continue;
        }
        if pf.tok_in_test(t) {
            i += 1;
            continue;
        }
        let form = match toks.get(i.wrapping_sub(1)) {
            Some(p) if p.is_punct('.') && i >= 1 => CallForm::Method,
            Some(p) if p.is_punct(':') && i >= 1 => CallForm::Path,
            _ => CallForm::Free,
        };
        let Some(cands) = index.fns.get(name) else {
            i = open + 1;
            continue;
        };
        let close = skip_toks(toks, open, '(', ')');
        let args = split_top_level(&toks[open + 1..close.saturating_sub(1)]);

        check_call(pf, t, &form, cands, &args, &mut out);
        // Step past the callee name; arguments may contain further calls.
        i += 1;
    }
    out
}

/// Match one call against the candidate set and push violations for
/// argument positions where every viable interpretation disagrees.
fn check_call(
    pf: &ParsedFile,
    callee: &Tok,
    form: &CallForm,
    cands: &[FnSig],
    args: &[&[Tok]],
    out: &mut Vec<Violation>,
) {
    // Interpretations: (candidate, arg offset of first parameter).
    let mut interps: Vec<(&FnSig, usize)> = Vec::new();
    for c in cands {
        match form {
            CallForm::Method if c.has_self && c.params.len() == args.len() => {
                interps.push((c, 0));
            }
            CallForm::Free if !c.has_self && c.params.len() == args.len() => {
                interps.push((c, 0));
            }
            CallForm::Path => {
                if !c.has_self && c.params.len() == args.len() {
                    interps.push((c, 0));
                }
                if c.has_self && c.params.len() + 1 == args.len() {
                    interps.push((c, 1));
                }
            }
            _ => {}
        }
    }
    if interps.is_empty() {
        return;
    }

    for (ai, arg) in args.iter().enumerate() {
        let Some(arg_name) = simple_arg_name(arg) else {
            continue;
        };
        let Some(arg_unit) = canonical_unit(arg_name) else {
            continue;
        };
        // Every interpretation must (a) cover this position and
        // (b) declare a conflicting unit, for the site to be flagged.
        let mut verdict: Option<(&FnSig, &str, &'static str)> = None;
        let mut all_conflict = true;
        for (c, offset) in &interps {
            let Some(p) = ai.checked_sub(*offset).and_then(|k| c.params.get(k)) else {
                all_conflict = false;
                break;
            };
            let Some(pname) = p.name.as_deref() else {
                all_conflict = false;
                break;
            };
            let Some(punit) = canonical_unit(pname) else {
                all_conflict = false;
                break;
            };
            if punit == arg_unit {
                all_conflict = false;
                break;
            }
            verdict = Some((c, pname, punit));
        }
        if let (true, Some((c, pname, punit))) = (all_conflict, verdict) {
            out.push(Violation {
                file: pf.scanned.rel_path.clone(),
                line: arg.first().map_or(callee.line, |t| t.line) + 1,
                lint: "unit-flow",
                message: format!(
                    "`{arg_name}` ({arg_unit}) flows into parameter `{pname}` \
                     ({punit}) of `{}` (declared at {}:{}); convert the value or \
                     rename one side",
                    c.name,
                    c.file,
                    c.line + 1
                ),
            });
        }
    }
}

/// `&`/`&mut`/`*`-stripped identifier-or-field-access argument; returns
/// the final path segment (`cfg.fs_hz` -> `fs_hz`). Anything else —
/// literals, calls, arithmetic — yields `None`.
fn simple_arg_name(arg: &[Tok]) -> Option<&str> {
    let mut toks = arg;
    while let Some(t) = toks.first() {
        if t.is_punct('&') || t.is_punct('*') || t.is_ident("mut") {
            toks = &toks[1..];
        } else {
            break;
        }
    }
    if toks.is_empty() {
        return None;
    }
    // Expect Ident (. Ident)* exactly.
    let mut expect_ident = true;
    let mut last: Option<&str> = None;
    for t in toks {
        if expect_ident {
            let name = t.ident()?;
            last = Some(name);
            expect_ident = false;
        } else {
            if !t.is_punct('.') {
                return None;
            }
            expect_ident = true;
        }
    }
    if expect_ident {
        return None; // trailing dot
    }
    last
}

/// Token-level balanced skip: `toks[i]` must be `open`; returns one past
/// the matching `close` (guarding `->` when scanning angle brackets).
fn skip_toks(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            let arrow = close == '>' && j > 0 && toks[j - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    toks.len()
}

/// Split an argument-list token slice on top-level commas. Closure
/// parameter pipes are opaque to this splitter; a missplit argument is
/// never a simple identifier, so it degrades to "skip", never to a
/// false positive.
fn split_top_level(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push(&toks[start..i]);
            start = i + 1;
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// Full unit-flow lint for one file: declaration coverage when the
/// crate is in `scope_decls`, call-site flow always (the index already
/// reflects the scanned scope). Waivers applied.
pub fn unit_flow(
    pf: &ParsedFile,
    sigs: &FileSigs,
    index: &SigIndex,
    check_decls: bool,
) -> Vec<Violation> {
    filter_waived(&pf.scanned, unit_flow_raw(pf, sigs, index, check_decls))
}

/// [`unit_flow`] before waiver filtering.
pub fn unit_flow_raw(
    pf: &ParsedFile,
    sigs: &FileSigs,
    index: &SigIndex,
    check_decls: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if check_decls {
        out.extend(unit_flow_decls_raw(pf, sigs));
    }
    out.extend(unit_flow_calls_raw(pf, index));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_str;
    use crate::sig::index_file;

    fn run(decl_src: &str, call_src: &str) -> Vec<Violation> {
        let decl = parse_str("crates/dsp/src/decl.rs", decl_src);
        let call = parse_str("crates/core/src/call.rs", call_src);
        let ds = index_file(&decl);
        let cs = index_file(&call);
        let ix = SigIndex::build([&ds, &cs]);
        unit_flow(&call, &cs, &ix, true)
    }

    #[test]
    fn canonical_units_longest_suffix_wins() {
        assert_eq!(canonical_unit("delay_ms"), Some("ms"));
        assert_eq!(canonical_unit("delay_s"), Some("s"));
        assert_eq!(canonical_unit("delay_secs"), Some("s"));
        assert_eq!(canonical_unit("rate_hz_per_s"), Some("Hz/s"));
        assert_eq!(canonical_unit("speed_m_s"), Some("m/s"));
        assert_eq!(canonical_unit("absorption_db_per_m"), Some("dB/m"));
        assert_eq!(canonical_unit("gain"), None);
        assert_eq!(canonical_unit("volts"), Some("V"));
        // Energy/power shorthands pinned for the telemetry vocabulary:
        // `harvested_j` is joules (not some bare `j`), `power_w` watts,
        // and the spelled-out aliases collapse to the same canon.
        assert_eq!(canonical_unit("harvested_j"), Some("J"));
        assert_eq!(canonical_unit("power_w"), Some("W"));
        assert_eq!(canonical_unit("energy_joules"), Some("J"));
        assert_eq!(canonical_unit("drain_watts"), Some("W"));
        assert_eq!(canonical_unit("energy_mj"), Some("mJ"));
        assert_eq!(canonical_unit("sleep_uw"), Some("uW"));
    }

    #[test]
    fn cross_crate_suffix_mismatch_flagged() {
        let v = run(
            "pub fn set_delay(delay_s: f64) {}",
            "pub fn go(delay_ms: f64) { set_delay(delay_ms); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "unit-flow");
        assert!(v[0].message.contains("delay_ms"));
        assert!(v[0].message.contains("delay_s"));
    }

    #[test]
    fn matching_units_and_alias_spellings_pass() {
        let v = run(
            "pub fn set_delay(delay_s: f64) {}\npub fn tune(freq_hz: f64) {}",
            "pub fn go(wait_secs: f64, carrier_hertz: f64) { set_delay(wait_secs); tune(carrier_hertz); }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn khz_into_hz_flagged() {
        let v = run(
            "pub fn tune(freq_hz: f64) {}",
            "pub fn go(fs_khz: f64) { tune(fs_khz); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn method_and_field_access_args() {
        let v = run(
            "pub struct S;\nimpl S {\n    pub fn delay(&self, wait_s: f64) {}\n}",
            "pub struct C { pub timeout_ms: f64 }\npub fn go(s: &S, c: &C) { s.delay(c.timeout_ms); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("timeout_ms"));
    }

    #[test]
    fn compound_expressions_and_unsuffixed_params_skipped() {
        let v = run(
            "pub fn set_delay(delay_s: f64) {}\npub fn raw(x: f64) {}",
            "pub fn go(t_ms: f64) { set_delay(t_ms * 1e-3); raw(t_ms); }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ambiguous_candidates_suppress_flagging() {
        let v = run(
            "pub fn f(delay_s: f64) {}\npub fn f(delay_ms: f64) {}",
            "pub fn go(t_ms: f64) { f(t_ms); }",
        );
        assert!(v.is_empty(), "one candidate agrees: {v:?}");
    }

    #[test]
    fn waiver_silences_call_site() {
        let v = run(
            "pub fn set_delay(delay_s: f64) {}",
            "pub fn go(delay_ms: f64) {\n    // lint: allow(unit-flow) legacy API, converted inside\n    set_delay(delay_ms);\n}",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn decl_coverage_fields_consts_returns() {
        let src = "pub struct P {\n    pub rate_hz: f64,\n    pub depth: f64,\n    scratch: f64,\n}\npub const REF_V: f64 = 1.0;\npub const BAD: f64 = 2.0;\npub fn level(x_hz: f64) -> f64 { x_hz }\npub fn level_db(x_hz: f64) -> f64 { x_hz }\npub fn many(x_hz: f64) -> (f64, f64) { (x_hz, x_hz) }";
        let pf = parse_str("crates/dsp/src/d.rs", src);
        let sigs = index_file(&pf);
        let ix = SigIndex::build([&sigs]);
        let v = unit_flow(&pf, &sigs, &ix, true);
        let msgs: Vec<_> = v.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(v.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("P.depth")));
        assert!(msgs.iter().any(|m| m.contains("`BAD`")));
        assert!(msgs.iter().any(|m| m.contains("pub fn level`")));
    }

    #[test]
    fn decl_coverage_respects_unitless_waiver() {
        let src = "pub struct P {\n    pub q: f64, // lint: unitless — quality factor\n}\npub fn variance(xs_v: f64) -> f64 { xs_v } // lint: unitless — statistical moment";
        let pf = parse_str("crates/dsp/src/d.rs", src);
        let sigs = index_file(&pf);
        let ix = SigIndex::build([&sigs]);
        assert!(unit_flow(&pf, &sigs, &ix, true).is_empty());
    }

    #[test]
    fn decl_coverage_gated_by_scope_flag() {
        let src = "pub struct P { pub depth: f64 }";
        let pf = parse_str("crates/net/src/d.rs", src);
        let sigs = index_file(&pf);
        let ix = SigIndex::build([&sigs]);
        assert!(unit_flow(&pf, &sigs, &ix, false).is_empty());
        assert_eq!(unit_flow(&pf, &sigs, &ix, true).len(), 1);
    }
}
