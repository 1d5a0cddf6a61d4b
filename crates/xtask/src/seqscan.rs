//! The sequence-space scan: raw `+`/`-`/`*` on a `seq`/`ack`/`isn`/
//! `off`/`offset`-named value in `wire` or `core` fails the CI gate.
//!
//! TCP sequence space is mod 2³², so raw arithmetic on those values
//! corrupts relative positions when a flow straddles the wrap (a real bug
//! of this kind was once fixed in `core::reorder`). `wrapping_*` and
//! `checked_*` make the intent explicit. Clippy has no lint for this, so
//! this is a token scan: comments, string and char literals and
//! `#[cfg(test)]` items are dropped, then every binary operator whose
//! left or right operand is an identifier ending in one of those name
//! segments is reported. There is no parser behind it; a sequence-number
//! type that makes raw arithmetic unrepresentable would retire it.

use std::path::{Path, PathBuf};

/// Identifier last segments treated as sequence-space values: `seq`,
/// `rel_seq`, `data_offset`, … all end in one of these.
const SEQ_SPACE_SEGMENTS: [&str; 5] = ["seq", "ack", "isn", "off", "offset"];

/// Keywords after which `+`/`-`/`*` cannot be a binary operator.
const NON_OPERAND_KEYWORDS: [&str; 16] = [
    "return", "as", "in", "if", "else", "match", "let", "mut", "move", "while", "loop", "break",
    "continue", "ref", "use", "where",
];

/// The flat source trees the scan covers, relative to the repo root.
pub const SCANNED_DIRS: [&str; 2] = ["crates/wire/src", "crates/core/src"];

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Lit,
    Punct(char),
}

/// Lex `src` into `(line, token)` pairs. Whitespace and comments are
/// dropped, each string, byte-string, char or number literal becomes one
/// `Lit`, and a lifetime lexes as its identifier.
fn lex(src: &str) -> Vec<(u32, Tok)> {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let ident_char = |i: usize| at(i).is_alphanumeric() || at(i) == '_';
    let (mut out, mut i, mut line, mut counted) = (Vec::new(), 0, 1, 0);
    while i < c.len() {
        let start = i;
        let tok = if at(i).is_whitespace() {
            i += 1;
            None
        } else if at(i) == '/' && at(i + 1) == '/' {
            while i < c.len() && at(i) != '\n' {
                i += 1;
            }
            None
        } else if at(i) == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            loop {
                match (at(i), at(i + 1)) {
                    ('/', '*') => (depth, i) = (depth + 1, i + 2),
                    ('*', '/') => (depth, i) = (depth - 1, i + 2),
                    _ => i += 1,
                }
                if depth == 0 || i >= c.len() {
                    break None;
                }
            }
        } else if let Some(end) = raw_string_end(&c, i) {
            i = end;
            Some(Tok::Lit)
        } else if at(i) == '"' || (at(i) == 'b' && at(i + 1) == '"') {
            i += if at(i) == 'b' { 2 } else { 1 };
            while i < c.len() && at(i) != '"' {
                i += if at(i) == '\\' { 2 } else { 1 };
            }
            i += 1;
            Some(Tok::Lit)
        } else if at(i) == '\'' || (at(i) == 'b' && at(i + 1) == '\'') {
            let q = if at(i) == 'b' { i + 1 } else { i };
            if at(q + 1) == '\\' {
                // An escape: scan past the escaped char to the close.
                i = q + 3;
                while i < c.len() && at(i) != '\'' {
                    i += 1;
                }
                i += 1;
                Some(Tok::Lit)
            } else if at(q + 2) == '\'' {
                i = q + 3;
                Some(Tok::Lit)
            } else {
                // A lifetime or label: its identifier lexes next.
                i = q + 1;
                None
            }
        } else if at(i).is_ascii_digit() {
            while ident_char(i) || (at(i) == '.' && at(i + 1).is_ascii_digit()) {
                i += 1;
            }
            Some(Tok::Lit)
        } else if ident_char(i) {
            while ident_char(i) {
                i += 1;
            }
            Some(Tok::Ident(c[start..i].iter().collect()))
        } else {
            i += 1;
            Some(Tok::Punct(c[start]))
        };
        if let Some(tok) = tok {
            line += c[counted..start].iter().filter(|&&x| x == '\n').count() as u32;
            counted = start;
            out.push((line, tok));
        }
    }
    out
}

/// If a raw (byte) string literal starts at `i`, the index just past it.
fn raw_string_end(c: &[char], i: usize) -> Option<usize> {
    let r = if c.get(i) == Some(&'b') { i + 1 } else { i };
    if c.get(r) != Some(&'r') {
        return None;
    }
    let hashes = c.get(r + 1..)?.iter().take_while(|&&x| x == '#').count();
    let open = r + 1 + hashes;
    if c.get(open) != Some(&'"') {
        return None;
    }
    let closes =
        |j: usize| c[j] == '"' && c[j + 1..].iter().take_while(|&&x| x == '#').count() >= hashes;
    let end = (open + 1..c.len()).find(|&j| closes(j));
    Some(end.map_or(c.len(), |j| j + 1 + hashes))
}

/// Drop every `#[cfg(test)]` item: the attribute, then through the
/// matching `}` of the first `{`, or through the first `;` before one.
fn strip_test_items(toks: Vec<(u32, Tok)>) -> Vec<(u32, Tok)> {
    use Tok::{Ident as I, Punct as P};
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while let Some(tok) = toks.get(i) {
        let cfg_test = matches!(
            toks.get(i..i + 7),
            Some([(_, P('#')), (_, P('[')), (_, I(a)), (_, P('(')), (_, I(b)), (_, P(')')), (_, P(']'))])
                if a == "cfg" && b == "test"
        );
        if !cfg_test {
            out.push(tok.clone());
            i += 1;
            continue;
        }
        i += 7;
        let mut depth = 0usize;
        while let Some((_, t)) = toks.get(i) {
            i += 1;
            match t {
                P(';') if depth == 0 => break,
                P('{') => depth += 1,
                P('}') if depth == 1 => break,
                P('}') => depth -= 1,
                _ => {}
            }
        }
    }
    out
}

fn is_seq_space(name: &str) -> bool {
    let last = name.rsplit('_').next().unwrap_or(name);
    SEQ_SPACE_SEGMENTS.contains(&last.to_ascii_lowercase().as_str())
}

/// Every raw sequence-space operation in one file's source, as
/// `(line, message)`.
pub fn scan_source(src: &str) -> Vec<(u32, String)> {
    let toks = strip_test_items(lex(src));
    let punct = |i: usize| match toks.get(i) {
        Some((_, Tok::Punct(p))) => Some(*p),
        _ => None,
    };
    let seq_ident = |i: usize| match toks.get(i) {
        Some((_, Tok::Ident(s))) if is_seq_space(s) => Some(s.as_str()),
        _ => None,
    };
    let mut found = Vec::new();
    for i in 1..toks.len() {
        let Some(op @ ('+' | '-' | '*')) = punct(i) else {
            continue;
        };
        // Binary iff the previous token can end an operand; `->` is an
        // arrow, not a subtraction.
        let binary = match &toks[i - 1].1 {
            Tok::Ident(s) => !NON_OPERAND_KEYWORDS.contains(&s.as_str()),
            Tok::Lit | Tok::Punct(')' | ']') => true,
            Tok::Punct(_) => false,
        } && !(op == '-' && punct(i + 1) == Some('>'));
        // Skip the `=` of a compound assignment.
        let rhs = i + 1 + usize::from(punct(i + 1) == Some('='));
        if let (true, Some(name)) = (binary, seq_ident(i - 1).or(seq_ident(rhs))) {
            found.push((
                toks[i].0,
                format!(
                    "raw `{op}` on sequence-space value `{name}`; u32 seq/ack/offset math \
                     must use wrapping_*/checked_* to survive wraparound"
                ),
            ));
        }
    }
    found
}

/// Scan every `.rs` file in [`SCANNED_DIRS`]; `path:line: message` for
/// each finding, in path order.
pub fn scan_tree(root: &Path) -> Result<Vec<String>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in SCANNED_DIRS {
        let entries = std::fs::read_dir(root.join(dir))
            .map_err(|e| format!("seq scan: cannot list {dir}: {e}"))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("seq scan: {dir}: {e}"))?.path();
            if path.is_dir() {
                return Err(format!("seq scan: {dir} has a subdirectory it would skip"));
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("seq scan: cannot read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        for (line, msg) in scan_source(&src) {
            out.push(format!("{}:{line}: {msg}", rel.display()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<u32> {
        scan_source(src).into_iter().map(|(l, _)| l).collect()
    }

    #[test]
    fn flags_raw_seq_space_ops_only() {
        let src = "
            fn f(seq: u32, isn: u32, len: u32) -> u32 {
                let rel = seq - isn;
                let next_seq = seq.wrapping_add(len);
                let total = len + 4;
                next_seq + rel
            }
        ";
        // `seq - isn` and `next_seq + rel`; the wrapping_add and the
        // len-only arithmetic are fine.
        assert_eq!(lines(src), vec![3, 6]);
    }

    #[test]
    fn ignores_unary_arrows_and_non_seq_names() {
        let src = "
            fn g(count: u32) -> i32 { -1 }
            fn h(seq_len: usize, n: usize) -> usize { seq_len * n }
        ";
        // `-1` is unary; `seq_len` ends in `len`, not a tracked segment.
        assert!(lines(src).is_empty());
        // Outside wire/core the scan does not look at all.
        assert_eq!(SCANNED_DIRS, ["crates/wire/src", "crates/core/src"]);
    }

    #[test]
    fn flags_compound_assignment() {
        let src = "fn f(len: u32, st: &mut St) { st.next_seq += len; }";
        assert_eq!(lines(src), vec![1]);
    }

    #[test]
    fn skips_comments_literals_and_test_items() {
        let src = r##"
            // seq + 1 in a comment
            /* ack - 1 /* nested */ isn * 2 */
            const S: &str = "seq + 1";
            const R: &str = r#"ack - "1""#;
            const C: char = '+';
            const Q: char = '\'';
            fn f<'a>(x: &'a u32) -> u32 { *x }
            #[cfg(test)]
            mod tests { fn t(seq: u32) -> u32 { seq + 1 } }
            fn g(ack: u32) -> u32 { ack + 1 }
        "##;
        assert_eq!(lines(src), vec![11]);
    }
}
