//! Comment/string-aware line scanner, built on the token stream.
//!
//! Turns Rust source into per-line records where string-literal and
//! comment contents are blanked out of the `code` channel (so lint
//! patterns never fire inside them) and comment text is preserved in a
//! separate `comment` channel (so waiver comments can be detected).
//! Additionally marks every line belonging to a `#[cfg(test)]` item or a
//! `#[test]` function, because the domain lints only police production
//! library code.
//!
//! Since PR 6 the channels are *derived* from [`crate::token`]'s
//! tokenizer rather than re-lexed by hand: [`scan_str`] tokenizes once
//! and blanks the span of every string/char/comment token, so the line
//! lints and the token-level analyses (`sig`, `flow`, `panic_path`)
//! can never disagree about what is code and what is not.

use crate::token::{tokenize, Tok, TokKind};

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Line text with comment and string-literal contents blanked.
    pub code: String,
    /// Concatenated comment text found on this line.
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

/// A scanned file plus workspace-relative bookkeeping.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Workspace-relative path, e.g. `crates/dsp/src/fft.rs`.
    pub rel_path: String,
    /// Name of the crate directory owning the file (`dsp`, `core`, ...).
    pub crate_name: String,
    /// Scanned lines, 0-indexed (report as `index + 1`).
    pub lines: Vec<Line>,
}

/// A scanned file together with its (comment-free) token stream, for
/// the token-level analyses. The `scanned` channels and the tokens come
/// from one tokenizer run, so they can never drift apart.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    pub scanned: ScannedFile,
    /// Code tokens only — comments are dropped (their text lives in the
    /// per-line `comment` channel of `scanned`).
    pub toks: Vec<Tok>,
}

impl ParsedFile {
    /// True when the token at `tok_idx` lies on a `#[cfg(test)]` line.
    pub fn tok_in_test(&self, tok: &Tok) -> bool {
        self.scanned
            .lines
            .get(tok.line)
            .is_some_and(|l| l.in_test)
    }
}

/// Scan source text. `rel_path` should be workspace-relative; the crate
/// name is derived from a leading `crates/<name>/` component when present.
// lint: allow(dead-pub) test-oracle linter_detects_a_fresh_unwrap scans one in-memory file for the line-lint self-checks
pub fn scan_str(rel_path: &str, text: &str) -> ScannedFile {
    parse_str(rel_path, text).scanned
}

/// Scan source text and keep the token stream for signature/call-site
/// analyses.
pub fn parse_str(rel_path: &str, text: &str) -> ParsedFile {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_string();

    let toks = tokenize(text);

    // Byte ranges of each line (excluding the newline terminator),
    // matching `str::lines()` (a trailing `\r` is excluded too).
    let mut line_ranges: Vec<(usize, usize)> = Vec::new();
    let mut pos = 0usize;
    for raw in text.split('\n') {
        let mut end = pos + raw.len();
        if raw.ends_with('\r') {
            end -= 1;
        }
        line_ranges.push((pos, end));
        pos += raw.len() + 1;
    }
    // `split('\n')` yields one final empty piece for trailing-newline
    // texts; `str::lines()` does not. Drop it to match.
    if text.ends_with('\n') {
        line_ranges.pop();
    }

    let src = text.as_bytes();
    let mut code_lines: Vec<Vec<u8>> = line_ranges
        .iter()
        .map(|&(s, e)| src[s..e].to_vec())
        .collect();
    let mut comments: Vec<String> = vec![String::new(); line_ranges.len()];

    // First line whose range could overlap byte offset `lo`.
    let first_line_at = |lo: usize| line_ranges.partition_point(|&(_, le)| le < lo);

    // Blank `[lo, hi)` (absolute byte offsets) out of the code channel.
    let blank = |code_lines: &mut Vec<Vec<u8>>, lo: usize, hi: usize| {
        for li in first_line_at(lo)..line_ranges.len() {
            let (ls, le) = line_ranges[li];
            if ls >= hi {
                break;
            }
            let s = lo.max(ls);
            let e = hi.min(le);
            if s < e {
                for b in &mut code_lines[li][s - ls..e - ls] {
                    *b = b' ';
                }
            }
        }
    };

    for t in &toks {
        match t.kind {
            TokKind::Str | TokKind::Char | TokKind::RawStr => {
                // Keep the delimiters, blank the interior.
                let (head, tail) = literal_delims(t);
                let lo = t.start + head;
                let hi = t.end.saturating_sub(tail).max(lo);
                blank(&mut code_lines, lo, hi);
            }
            TokKind::LineComment | TokKind::BlockComment => {
                blank(&mut code_lines, t.start, t.end);
                // Route each line's slice of the comment into that
                // line's comment channel.
                for li in first_line_at(t.start)..line_ranges.len() {
                    let (ls, le) = line_ranges[li];
                    if ls >= t.end {
                        break;
                    }
                    let s = t.start.max(ls);
                    let e = t.end.min(le);
                    if s < e {
                        comments[li]
                            .push_str(&String::from_utf8_lossy(&src[s..e]));
                    }
                }
            }
            _ => {}
        }
    }

    let mut lines: Vec<Line> = code_lines
        .into_iter()
        .zip(comments)
        .map(|(code, comment)| Line {
            code: String::from_utf8_lossy(&code).into_owned(),
            comment,
            in_test: false,
        })
        .collect();

    mark_test_regions(&mut lines);

    ParsedFile {
        scanned: ScannedFile {
            rel_path: rel_path.to_string(),
            crate_name,
            lines,
        },
        toks: toks
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect(),
    }
}

/// Byte lengths of the opening and closing delimiters of a literal
/// token (closing length is 0 when the literal is unterminated).
fn literal_delims(t: &Tok) -> (usize, usize) {
    match t.kind {
        TokKind::Str => {
            let closed = t.text.len() >= 2 && t.text.ends_with('"');
            (1, usize::from(closed))
        }
        TokKind::Char => {
            let closed = t.text.len() >= 2 && t.text.ends_with('\'');
            (1, usize::from(closed))
        }
        TokKind::RawStr => {
            let hashes = t
                .text
                .bytes()
                .skip(1)
                .take_while(|&b| b == b'#')
                .count();
            let head = 1 + hashes + 1; // r##"
            let close = "\"".to_string() + &"#".repeat(hashes);
            let tail = if t.text.len() >= head + close.len() && t.text.ends_with(&close) {
                close.len()
            } else {
                0
            };
            (head.min(t.text.len()), tail)
        }
        _ => (0, 0),
    }
}

/// Mark every line belonging to a `#[cfg(test)]` item or `#[test]` fn.
fn mark_test_regions(lines: &mut [Line]) {
    let mut i = 0usize;
    while i < lines.len() {
        let trigger = {
            let code = &lines[i].code;
            code.contains("#[cfg(test)]")
                || code.contains("#[cfg(all(test")
                || code.contains("#[test]")
        };
        if !trigger {
            i += 1;
            continue;
        }
        // The attribute line plus everything through the close of the
        // next brace-balanced block is test code.
        let mut depth: i64 = 0;
        let mut started = false;
        let mut j = i;
        while j < lines.len() {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            lines[j].in_test = true;
            if started && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_string_contents_but_keeps_quotes() {
        let f = scan_str("crates/x/src/lib.rs", r#"let s = "panic!(boom)"; s.len();"#);
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].code.contains(".len()"));
        assert_eq!(f.lines[0].code.matches('"').count(), 2);
    }

    #[test]
    fn line_comments_move_to_comment_channel() {
        let f = scan_str("crates/x/src/lib.rs", "let a = 1; // lint: allow(x) reason");
        assert!(!f.lines[0].code.contains("lint:"));
        assert!(f.lines[0].comment.contains("lint: allow(x)"));
    }

    #[test]
    fn block_comments_can_nest_and_span_lines() {
        let src = "a /* one /* two */ still */ b\n/* open\nstill comment .unwrap()\n*/ c";
        let f = scan_str("crates/x/src/lib.rs", src);
        assert!(f.lines[0].code.contains('a') && f.lines[0].code.contains('b'));
        assert!(!f.lines[2].code.contains("unwrap"));
        assert!(f.lines[2].comment.contains("unwrap"));
        assert!(f.lines[3].code.contains('c'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = r##"let s = r#"has .unwrap() inside"#; t()"##;
        let f = scan_str("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("t()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '}'; let d = '\\n'; c }";
        let f = scan_str("crates/x/src/lib.rs", src);
        // The blanked '}' must not unbalance brace tracking.
        let opens = f.lines[0].code.matches('{').count();
        let closes = f.lines[0].code.matches('}').count();
        assert_eq!(opens, closes);
        assert!(f.lines[0].code.contains("'a"));
    }

    #[test]
    fn multiline_string_blanked_across_lines() {
        let src = "let s = \"first\nsecond .unwrap()\nthird\"; done()";
        let f = scan_str("crates/x/src/lib.rs", src);
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("done()"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn lib2() {}";
        let f = scan_str("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn crate_name_derivation() {
        assert_eq!(scan_str("crates/dsp/src/fft.rs", "").crate_name, "dsp");
        assert_eq!(scan_str("examples/quickstart.rs", "").crate_name, "");
    }

    #[test]
    fn parse_str_drops_comment_tokens_but_keeps_channels() {
        let f = parse_str("crates/x/src/lib.rs", "let a = 1; // trailing\n/* b */ let c = 2;");
        assert!(f.toks.iter().all(|t| !matches!(
            t.kind,
            crate::token::TokKind::LineComment | crate::token::TokKind::BlockComment
        )));
        assert!(f.scanned.lines[0].comment.contains("trailing"));
        assert!(f.scanned.lines[1].comment.contains('b'));
        assert!(f.scanned.lines[1].code.contains("let c"));
    }

    #[test]
    fn windows_line_endings_do_not_shift_columns() {
        let f = scan_str("crates/x/src/lib.rs", "let a = 1;\r\nlet b = \"x\";\r\n");
        assert_eq!(f.lines.len(), 2);
        assert!(f.lines[1].code.contains("let b"));
        assert!(!f.lines[1].code.contains('x'));
    }
}
