//! Lightweight signature index over the token stream.
//!
//! Extracts, for every scanned file, the declarations the token-level
//! analyses need: function signatures (name, parameter names/types,
//! `self`-ness, visibility, bare-`f64` return), public struct fields,
//! and consts. This is deliberately *not* a Rust parser — it recognizes
//! the declaration shapes that occur in this workspace (including
//! multi-line signatures, generics, `where` clauses, tuple patterns and
//! fn-pointer types in parameter position) and skips anything it does
//! not understand rather than guessing.

use crate::scan::ParsedFile;
use crate::token::{Tok, TokKind};
use std::collections::HashMap;

/// One function parameter (explicit `self` receivers are excluded).
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name; `None` for tuple/struct patterns.
    pub name: Option<String>,
    /// True when the declared type is exactly `f64`.
    pub is_f64: bool,
    /// 0-based line of the parameter's name (falls back to the type).
    pub line: usize,
}

/// One function signature.
#[derive(Debug, Clone)]
pub struct FnSig {
    pub name: String,
    /// Parameters after any `self` receiver.
    pub params: Vec<Param>,
    /// True for methods (`self`, `&self`, `&mut self`, `mut self`).
    pub has_self: bool,
    /// True only for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// True when the return type is exactly `-> f64`.
    pub ret_bare_f64: bool,
    /// 0-based line of the function name.
    pub line: usize,
    /// Workspace-relative path of the declaring file.
    pub file: String,
}

/// One struct field.
#[derive(Debug, Clone)]
pub struct FieldSig {
    pub struct_name: String,
    pub name: String,
    pub is_pub: bool,
    pub is_f64: bool,
    pub line: usize,
}

/// One `const` item.
#[derive(Debug, Clone)]
pub struct ConstSig {
    pub name: String,
    pub is_pub: bool,
    pub is_f64: bool,
    pub line: usize,
}

/// All declarations found in one file.
#[derive(Debug, Clone, Default)]
pub struct FileSigs {
    pub fns: Vec<FnSig>,
    pub fields: Vec<FieldSig>,
    pub consts: Vec<ConstSig>,
}

/// Workspace-wide function index for call-site analysis: every function
/// name maps to all signatures declared under that name anywhere in the
/// scanned scope. Call sites are only judged when the candidate set is
/// unambiguous about the unit in question.
#[derive(Debug, Default)]
pub struct SigIndex {
    pub fns: HashMap<String, Vec<FnSig>>,
}

impl SigIndex {
    pub fn build<'a>(files: impl IntoIterator<Item = &'a FileSigs>) -> Self {
        let mut fns: HashMap<String, Vec<FnSig>> = HashMap::new();
        for fs in files {
            for f in &fs.fns {
                fns.entry(f.name.clone()).or_default().push(f.clone());
            }
        }
        SigIndex { fns }
    }
}

/// Skip from an opening delimiter token at `i` to the index one past its
/// matching close. `toks[i]` must be the opening delimiter.
fn skip_delimited(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            // `->` must not close an angle-bracket context.
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

/// Parse the visibility that applies to the item keyword at `kw`:
/// walk back over modifier tokens (`unsafe`, `async`, `const`, `extern`
/// "abi") to find a `pub` (optionally restricted).
fn is_pub_item(toks: &[Tok], kw: usize) -> bool {
    let mut j = kw;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("const") || t.is_ident("extern")
        {
            continue;
        }
        if t.kind == TokKind::Str {
            // extern "C"
            continue;
        }
        if t.is_punct(')') {
            // pub(crate) / pub(super): restricted, not public API.
            return false;
        }
        return t.is_ident("pub");
    }
    false
}

/// True when the token slice is exactly the single identifier `f64`.
fn is_bare_f64(toks: &[Tok]) -> bool {
    toks.len() == 1 && toks[0].is_ident("f64")
}

/// Extract all declarations from a parsed file. Declarations on
/// `#[cfg(test)]` lines are skipped.
pub fn index_file(pf: &ParsedFile) -> FileSigs {
    let toks = &pf.toks;
    let mut out = FileSigs::default();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if pf.tok_in_test(t) {
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            if let Some((sig, next)) = parse_fn(pf, i) {
                out.fns.push(sig);
                i = next;
                continue;
            }
        } else if t.is_ident("struct") {
            if let Some(next) = parse_struct(pf, i, &mut out) {
                i = next;
                continue;
            }
        } else if t.is_ident("const")
            && i + 1 < toks.len()
            && !(i > 0 && toks[i - 1].is_punct('*'))
            && toks[i + 1].ident().is_some()
            && !toks[i + 1].is_ident("fn")
        {
            if let Some((c, next)) = parse_const(pf, i) {
                out.consts.push(c);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parse `fn name <generics>? ( params ) -> ret?` starting at the `fn`
/// keyword. Returns the signature and the index just past the parameter
/// list's `)` (the body is left for the caller to walk).
fn parse_fn(pf: &ParsedFile, fn_kw: usize) -> Option<(FnSig, usize)> {
    let toks = &pf.toks;
    let name_tok = toks.get(fn_kw + 1)?;
    let name = name_tok.ident()?.to_string();
    let mut j = fn_kw + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_delimited(toks, j, '<', '>');
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_end = skip_delimited(toks, j, '(', ')');
    let raw_params = split_params(&toks[j + 1..params_end.saturating_sub(1)]);

    let mut has_self = false;
    let mut params = Vec::new();
    for (pi, ptoks) in raw_params.iter().enumerate() {
        if pi == 0 && ptoks.iter().any(|t| t.is_ident("self")) {
            has_self = true;
            continue;
        }
        params.push(parse_param(ptoks));
    }

    // Return type.
    let mut ret_bare_f64 = false;
    let mut k = params_end;
    if toks.get(k).is_some_and(|t| t.is_punct('-'))
        && toks.get(k + 1).is_some_and(|t| t.is_punct('>'))
    {
        k += 2;
        let ret_start = k;
        let mut depth = 0i32;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where")) {
                break;
            }
            k += 1;
        }
        ret_bare_f64 = is_bare_f64(&toks[ret_start..k]);
    }

    Some((
        FnSig {
            name,
            params,
            has_self,
            is_pub: is_pub_item(toks, fn_kw),
            ret_bare_f64,
            line: name_tok.line,
            file: pf.scanned.rel_path.clone(),
        },
        params_end,
    ))
}

/// Split a parameter-list token slice on top-level commas.
fn split_params(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
            angle -= 1;
        } else if t.is_punct(',') && depth == 0 && angle <= 0 {
            if start < i {
                out.push(&toks[start..i]);
            }
            start = i + 1;
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// Parse one non-`self` parameter: `mut? name : type`.
fn parse_param(ptoks: &[Tok]) -> Param {
    // Find the top-level ':' separating pattern from type. A leading
    // tuple/struct pattern makes the name `None`.
    let mut depth = 0i32;
    let mut colon = None;
    for (i, t) in ptoks.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(':') && depth == 0 {
            // `::` is a path separator, not the pattern/type split.
            let part_of_path = (i > 0 && ptoks[i - 1].is_punct(':'))
                || ptoks.get(i + 1).is_some_and(|t| t.is_punct(':'));
            if !part_of_path {
                colon = Some(i);
                break;
            }
        }
    }
    let Some(ci) = colon else {
        return Param {
            name: None,
            is_f64: false,
            line: ptoks.first().map_or(0, |t| t.line),
        };
    };
    let (pat, ty) = (&ptoks[..ci], &ptoks[ci + 1..]);
    let name = if pat.iter().any(|t| t.is_punct('(') || t.is_punct('[')) {
        None
    } else {
        pat.iter()
            .rev()
            .find_map(|t| t.ident())
            .filter(|n| *n != "mut" && *n != "ref")
            .map(str::to_string)
    };
    Param {
        name,
        is_f64: is_bare_f64(ty),
        line: ptoks.first().map_or(0, |t| t.line),
    }
}

/// Parse a struct declaration, pushing any named fields. Returns the
/// index one past the declaration.
fn parse_struct(pf: &ParsedFile, struct_kw: usize, out: &mut FileSigs) -> Option<usize> {
    let toks = &pf.toks;
    let name = toks.get(struct_kw + 1)?.ident()?.to_string();
    let mut j = struct_kw + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_delimited(toks, j, '<', '>');
    }
    // Skip a `where` clause: everything up to `{`, `;` or `(`.
    while j < toks.len()
        && !toks[j].is_punct('{')
        && !toks[j].is_punct(';')
        && !toks[j].is_punct('(')
    {
        j += 1;
    }
    match toks.get(j) {
        Some(t) if t.is_punct('(') => return Some(skip_delimited(toks, j, '(', ')')),
        Some(t) if t.is_punct(';') => return Some(j + 1),
        Some(t) if t.is_punct('{') => {}
        _ => return None,
    }
    let body_end = skip_delimited(toks, j, '{', '}');
    let mut fields = &toks[j + 1..body_end.saturating_sub(1)];

    // Field grammar: `#[attr]* (pub (restriction)?)? name : type ,`
    while !fields.is_empty() {
        // Attributes.
        while fields.first().is_some_and(|t| t.is_punct('#')) {
            if fields.get(1).is_some_and(|t| t.is_punct('[')) {
                let end = skip_delimited(fields, 1, '[', ']');
                fields = &fields[end..];
            } else {
                fields = &fields[1..];
            }
        }
        let mut is_pub = false;
        if fields.first().is_some_and(|t| t.is_ident("pub")) {
            if fields.get(1).is_some_and(|t| t.is_punct('(')) {
                let end = skip_delimited(fields, 1, '(', ')');
                fields = &fields[end..];
            } else {
                is_pub = true;
                fields = &fields[1..];
            }
        }
        let Some(name_tok) = fields.first() else { break };
        let Some(fname) = name_tok.ident() else { break };
        if !fields.get(1).is_some_and(|t| t.is_punct(':')) {
            break;
        }
        // Type: up to the next top-level comma.
        let rest = &fields[2..];
        let parts = split_params(rest);
        let ty = parts.first().copied().unwrap_or(&[]);
        if !pf.tok_in_test(name_tok) {
            out.fields.push(FieldSig {
                struct_name: name.clone(),
                name: fname.to_string(),
                is_pub,
                is_f64: is_bare_f64(ty),
                line: name_tok.line,
            });
        }
        let consumed = 2 + ty.len() + 1; // name : type ,
        if consumed >= fields.len() {
            break;
        }
        fields = &fields[consumed..];
    }
    Some(body_end)
}

/// Parse `const NAME : type = ...;` starting at the `const` keyword.
fn parse_const(pf: &ParsedFile, const_kw: usize) -> Option<(ConstSig, usize)> {
    let toks = &pf.toks;
    let name_tok = toks.get(const_kw + 1)?;
    let name = name_tok.ident()?.to_string();
    if !toks.get(const_kw + 2).is_some_and(|t| t.is_punct(':')) {
        return None;
    }
    let mut j = const_kw + 3;
    let ty_start = j;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']')
            || (t.is_punct('>') && !(j > 0 && toks[j - 1].is_punct('-')))
        {
            depth -= 1;
            // A closing `>` past depth 0 means we were inside a
            // generics list (`<const N: usize>`), not a const item.
            if depth < 0 {
                return None;
            }
        } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
            break;
        }
        j += 1;
    }
    let ty = &toks[ty_start..j.min(toks.len())];
    Some((
        ConstSig {
            name,
            is_pub: is_pub_item(toks, const_kw),
            is_f64: is_bare_f64(ty),
            line: name_tok.line,
        },
        j,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_str;

    fn idx(src: &str) -> FileSigs {
        index_file(&parse_str("crates/core/src/x.rs", src))
    }

    #[test]
    fn simple_fn_signature() {
        let s = idx("pub fn set(freq_hz: f64, n: usize) -> f64 { 0.0 }");
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert_eq!(f.name, "set");
        assert!(f.is_pub && !f.has_self && f.ret_bare_f64);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("freq_hz"));
        assert!(f.params[0].is_f64);
        assert!(!f.params[1].is_f64);
    }

    #[test]
    fn multiline_signature_with_generics_and_self() {
        let s = idx(
            "impl T {\n    pub fn mix<R: Rng>(\n        &mut self,\n        carrier_hz: f64,\n        depth: f64,\n    ) -> Result<f64, E> {\n    }\n}",
        );
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert!(f.has_self);
        assert!(!f.ret_bare_f64);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("carrier_hz"));
        assert_eq!(f.params[1].line, 4);
    }

    #[test]
    fn fn_pointer_param_and_tuple_pattern() {
        let s = idx("pub fn h(cb: fn(f64) -> f64, (a, b): (f64, f64), rate_hz: f64) {}");
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert_eq!(f.params.len(), 3);
        assert!(!f.params[0].is_f64);
        assert_eq!(f.params[1].name, None);
        assert_eq!(f.params[2].name.as_deref(), Some("rate_hz"));
    }

    #[test]
    fn struct_fields_pub_and_private() {
        let s = idx(
            "pub struct Ramp {\n    pub rate_hz_per_s: f64,\n    pub max_abs_hz: f64,\n    seed: u64,\n    pub(crate) scratch: f64,\n}",
        );
        assert_eq!(s.fields.len(), 4);
        assert!(s.fields[0].is_pub && s.fields[0].is_f64);
        assert_eq!(s.fields[0].struct_name, "Ramp");
        assert!(!s.fields[2].is_pub);
        assert!(!s.fields[3].is_pub, "pub(crate) is not public API");
    }

    #[test]
    fn tuple_and_unit_structs_skipped() {
        let s = idx("pub struct Wrapper(pub f64);\npub struct Marker;\npub struct N { pub x_m: f64 }");
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.fields[0].name, "x_m");
    }

    #[test]
    fn consts_and_const_fn_and_raw_pointers() {
        let s = idx(
            "pub const SOUND_SPEED_M_S: f64 = 1500.0;\nconst SEED: u64 = 1;\npub const fn c_fn(x_hz: f64) -> f64 { x_hz }\nfn takes(p: *const f64) {}",
        );
        assert_eq!(s.consts.len(), 2, "{:?}", s.consts);
        assert!(s.consts[0].is_pub && s.consts[0].is_f64);
        assert!(!s.consts[1].is_pub);
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "c_fn");
        assert!(s.fns[0].ret_bare_f64);
    }

    #[test]
    fn generic_const_params_not_misparsed_as_items() {
        let s = idx("pub struct Buf<const N: usize> { pub data: [f64; 8] }\npub fn g<const K: usize>(x_hz: f64) {}");
        assert!(s.consts.is_empty(), "{:?}", s.consts);
        assert_eq!(s.fns.len(), 1);
    }

    #[test]
    fn test_code_is_not_indexed() {
        let s = idx("#[cfg(test)]\nmod t {\n    pub fn helper(gain: f64) {}\n    pub const X: f64 = 1.0;\n}");
        assert!(s.fns.is_empty());
        assert!(s.consts.is_empty());
    }

    #[test]
    fn sig_index_groups_by_name() {
        let a = idx("pub fn f(delay_s: f64) {}");
        let b = idx("pub fn f(delay_ms: f64) {}");
        let ix = SigIndex::build([&a, &b]);
        assert_eq!(ix.fns["f"].len(), 2);
    }
}
