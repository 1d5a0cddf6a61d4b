//! A lightweight Rust lexer: just enough tokenisation to drive source-level
//! lints without rustc. It understands line/block comments (nested), string
//! and raw-string literals, byte strings, char literals vs lifetimes, and
//! numeric literals, and records a 1-based line number per token. It does
//! NOT build an AST — rules pattern-match short token windows instead.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Token payload.
    pub kind: TokKind,
}

/// Token payload kinds. Only the distinctions the lints need are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`[`, `.`, `!`, `:`, …).
    Punct(char),
    /// String literal with its decoded contents.
    Str(String),
    /// Any other literal (number, char, byte, lifetime), raw source text.
    Lit(String),
    /// `// …` comment, with the text after the slashes (doc comments too).
    LineComment(String),
    /// `/* … */` comment (possibly nested).
    BlockComment,
}

impl TokKind {
    /// True for comment tokens.
    pub fn is_comment(&self) -> bool {
        matches!(self, TokKind::LineComment(_) | TokKind::BlockComment)
    }
}

/// Lex a whole source file into tokens.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        let mut out = Vec::new();
        while let Some(&b) = self.src.get(self.pos) {
            let line = self.line;
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    let text = self.line_comment();
                    out.push(Tok {
                        line,
                        kind: TokKind::LineComment(text),
                    });
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment();
                    out.push(Tok {
                        line,
                        kind: TokKind::BlockComment,
                    });
                }
                b'"' => {
                    let s = self.string();
                    out.push(Tok {
                        line,
                        kind: TokKind::Str(s),
                    });
                }
                b'\'' => {
                    let start = self.pos;
                    self.char_or_lifetime();
                    out.push(Tok {
                        line,
                        kind: TokKind::Lit(self.slice(start)),
                    });
                }
                c if c.is_ascii_digit() => {
                    let start = self.pos;
                    self.number();
                    out.push(Tok {
                        line,
                        kind: TokKind::Lit(self.slice(start)),
                    });
                }
                c if c == b'_' || c.is_ascii_alphabetic() || c >= 0x80 => {
                    let ident = self.ident();
                    // Raw / byte string prefixes attach to the literal.
                    if matches!(ident.as_str(), "r" | "br") && self.at_raw_string() {
                        let s = self.raw_string();
                        out.push(Tok {
                            line,
                            kind: TokKind::Str(s),
                        });
                    } else if matches!(ident.as_str(), "b") && self.peek(0) == Some(b'"') {
                        let s = self.string();
                        out.push(Tok {
                            line,
                            kind: TokKind::Str(s),
                        });
                    } else if matches!(ident.as_str(), "b") && self.peek(0) == Some(b'\'') {
                        let start = self.pos;
                        self.char_or_lifetime();
                        out.push(Tok {
                            line,
                            kind: TokKind::Lit(self.slice(start)),
                        });
                    } else {
                        out.push(Tok {
                            line,
                            kind: TokKind::Ident(ident),
                        });
                    }
                }
                c => {
                    self.pos += 1;
                    out.push(Tok {
                        line,
                        kind: TokKind::Punct(c as char),
                    });
                }
            }
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn slice(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn line_comment(&mut self) -> String {
        let start = self.pos + 2;
        let mut end = start;
        while end < self.src.len() && self.src[end] != b'\n' {
            end += 1;
        }
        self.pos = end;
        String::from_utf8_lossy(&self.src[start..end]).into_owned()
    }

    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(b'\n'), _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => break,
            }
        }
    }

    fn string(&mut self) -> String {
        self.pos += 1; // opening quote
        let mut out = String::new();
        while let Some(b) = self.peek(0) {
            match b {
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek(0) {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'0') => out.push('\0'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'"') => out.push('"'),
                        Some(b'\'') => out.push('\''),
                        Some(b'\n') => {
                            // Line-continuation escape: swallow the newline.
                            self.line += 1;
                        }
                        Some(other) => {
                            // \u{…}, \xNN and friends: keep the raw text; no
                            // rule reads string contents that closely.
                            out.push('\\');
                            out.push(other as char);
                        }
                        None => break,
                    }
                    self.pos += 1;
                }
                b'\n' => {
                    self.line += 1;
                    out.push('\n');
                    self.pos += 1;
                }
                _ => {
                    let start = self.pos;
                    // Copy one UTF-8 scalar (1–4 bytes).
                    self.pos += 1;
                    while self.peek(0).is_some_and(|c| (0x80..0xC0).contains(&c)) {
                        self.pos += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&self.src[start..self.pos]));
                }
            }
        }
        out
    }

    fn at_raw_string(&self) -> bool {
        let mut i = 0;
        while self.peek(i) == Some(b'#') {
            i += 1;
        }
        self.peek(i) == Some(b'"')
    }

    fn raw_string(&mut self) -> String {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        let start = self.pos;
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') => {
                    let mut ok = true;
                    for j in 0..hashes {
                        if self.peek(1 + j) != Some(b'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        let body = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                        self.pos += 1 + hashes;
                        return body;
                    }
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn char_or_lifetime(&mut self) {
        self.pos += 1; // opening quote
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: skip escape, then to closing quote.
                self.pos += 2;
                while let Some(b) = self.peek(0) {
                    self.pos += 1;
                    if b == b'\'' {
                        break;
                    }
                }
            }
            Some(_) if self.peek(1) == Some(b'\'') && self.peek(0) != Some(b'\'') => {
                // 'x'
                self.pos += 2;
            }
            _ => {
                // Lifetime ('a, 'static) or multibyte char literal: consume
                // the identifier-ish run and a closing quote if present.
                while self
                    .peek(0)
                    .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
                {
                    self.pos += 1;
                }
                if self.peek(0) == Some(b'\'') {
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) {
        while let Some(b) = self.peek(0) {
            let in_number = b == b'_'
                || b.is_ascii_alphanumeric()
                || (b == b'.' && self.peek(1).is_some_and(|c| c.is_ascii_digit()));
            if !in_number {
                break;
            }
            self.pos += 1;
        }
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }
}

/// Drop token ranges belonging to `#[cfg(test)] mod … { … }` blocks so the
/// lints only see shipping code. Doc comments are comments and never reach
/// the rules either, so doctests are implicitly exempt.
pub fn strip_test_modules(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(&toks, i) {
            // Skip to the `{` that opens the annotated item, then past its
            // matching `}`. If no brace follows (e.g. `mod x;`), skip the
            // attribute only.
            let mut j = i;
            let mut found_brace = None;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('{') => {
                        found_brace = Some(j);
                        break;
                    }
                    TokKind::Punct(';') => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = found_brace {
                let mut depth = 0usize;
                let mut k = open;
                while k < toks.len() {
                    match &toks[k].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                i = k + 1;
            } else {
                i = j + 1;
            }
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Does a `#[cfg(test)]` attribute start at token `at`?
fn is_cfg_test_attr(toks: &[Tok], at: usize) -> bool {
    let want: [&dyn Fn(&TokKind) -> bool; 7] = [
        &|k| matches!(k, TokKind::Punct('#')),
        &|k| matches!(k, TokKind::Punct('[')),
        &|k| matches!(k, TokKind::Ident(s) if s == "cfg"),
        &|k| matches!(k, TokKind::Punct('(')),
        &|k| matches!(k, TokKind::Ident(s) if s == "test"),
        &|k| matches!(k, TokKind::Punct(')')),
        &|k| matches!(k, TokKind::Punct(']')),
    ];
    let mut j = at;
    for check in want {
        // Comments may be interleaved anywhere.
        while toks.get(j).is_some_and(|t| t.kind.is_comment()) {
            j += 1;
        }
        match toks.get(j) {
            Some(t) if check(&t.kind) => j += 1,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" body"#;
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("a\nb\n  c");
        let lines: Vec<(String, u32)> = toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some((s, t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 3)]
        );
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // The lifetime name must not leak as a separate identifier.
        assert_eq!(ids.iter().filter(|s| *s == "a").count(), 0);
    }

    #[test]
    fn string_contents_are_decoded() {
        let toks = lex(r#"let l = "⟨SYN → ∅⟩";"#);
        let strs: Vec<String> = toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Str(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["⟨SYN → ∅⟩".to_string()]);
    }

    #[test]
    fn cfg_test_modules_are_stripped() {
        let src = "
            fn real() { a.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { b.unwrap(); }
            }
            fn after() { c.unwrap(); }
        ";
        let toks = strip_test_modules(lex(src));
        let ids: Vec<String> = toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"real".to_string()));
        assert!(ids.contains(&"after".to_string()));
        assert!(!ids.contains(&"tests".to_string()));
        assert!(!ids.contains(&"b".to_string()));
    }
}
