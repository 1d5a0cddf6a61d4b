//! A lightweight recursive-descent parser over the lexer's token stream.
//!
//! This is deliberately not a full Rust grammar: it recovers just the
//! structure the call-graph rules need — items (`mod`/`impl`/`trait`/`fn`),
//! function signatures (name, owner type, flattened parameter types), the
//! call expressions and `match` expressions inside each body —
//! and records source line spans for everything. Anything it cannot parse
//! it skips conservatively; a file whose item structure loses sync is
//! marked `parsed_ok = false` and downstream rules must fail closed
//! (treat the whole file as in scope rather than silently exempting it).

use crate::lexer::{Tok, TokKind};

/// One parsed function (free function, inherent/trait method, or trait
/// default method). Nested `fn` items are folded into the enclosing
/// function's body: their calls and findings are attributed to the outer
/// function, which is the conservative choice for reachability.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type or `trait` name, if any.
    pub owner: Option<String>,
    /// The trait an enclosing `impl Trait for Type` block implements, if
    /// any — `None` for inherent impls and trait declarations.
    pub trait_of: Option<String>,
    /// Flattened type text per parameter (pattern stripped); a bare
    /// `self` receiver becomes `"Self"`.
    pub params: Vec<String>,
    /// Bound name per parameter, aligned with `params`: the pattern's
    /// binding ident (`self` for receivers, the last ident for `mut x`,
    /// `""` when the pattern binds nothing recoverable).
    pub param_names: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub start_line: u32,
    /// 1-based line of the closing brace (or of the `;` for bodyless
    /// trait declarations).
    pub end_line: u32,
    /// Token index range of the body within the code-token slice given to
    /// [`parse`] (empty for bodyless declarations).
    pub body: (usize, usize),
    /// Call expressions found in the body.
    pub calls: Vec<Call>,
    /// `match` expressions found in the body.
    pub matches: Vec<MatchExpr>,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 1-based source line of the called name.
    pub line: u32,
    /// Last path segment (the function or method name).
    pub name: String,
    /// The path segment immediately before `::name`, when present
    /// (`Packet::parse` → `Some("Packet")`, `tls::parse_sni` →
    /// `Some("tls")`).
    pub qualifier: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// True for the `self.name(...)` form — the receiver is statically
    /// the enclosing impl's type, so resolution can stay in-owner.
    pub recv_self: bool,
    /// Number of arguments at the call site (receiver excluded). Rust
    /// has no overloading, so resolution can require candidates to match.
    pub args: usize,
    /// The receiver's type name for `x.name(...)` calls, when `x` is a
    /// local/parameter whose type the body makes apparent (`let x: T`,
    /// `let x = T::new(...)`, a `T`-typed parameter).
    pub recv_type: Option<String>,
}

/// One `match` expression and its arms.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// The arms, in source order.
    pub arms: Vec<Arm>,
}

/// One match arm: the pattern's tokens (guard excluded — everything after
/// a top-level `if` belongs to the guard, not the pattern).
#[derive(Debug, Clone)]
pub struct Arm {
    /// 1-based line the pattern starts on.
    pub line: u32,
    /// Pattern tokens in order.
    pub pat: Vec<PatTok>,
}

/// One token of a match-arm pattern.
#[derive(Debug, Clone)]
pub struct PatTok {
    /// Rendered token text (`ident`, one punct char, or literal text).
    pub text: String,
    /// True when the token is an identifier.
    pub ident: bool,
    /// 1-based source line.
    pub line: u32,
}

/// The parsed shape of one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every function found, in source order.
    pub fns: Vec<FnDef>,
    /// False when the item parser lost sync somewhere; callers must fail
    /// closed (assume any line may belong to any function).
    pub parsed_ok: bool,
}

impl ParsedFile {
    /// The function whose span contains `line`, if any. Spans never
    /// overlap except for nested fns (folded into the outer span), so the
    /// innermost (= last-starting) match is returned.
    pub fn fn_at_line(&self, line: u32) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.start_line <= line && line <= f.end_line)
            .map(|(i, _)| i)
            .next_back()
    }
}

/// Keywords that look like `name(` but are not calls.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "else", "while", "match", "for", "return", "loop", "in", "as", "let", "move", "unsafe",
    "ref", "mut", "box", "await",
];

/// Parse a file's code tokens (comments already removed, `#[cfg(test)]`
/// modules already stripped) into its item structure.
pub fn parse(code: &[Tok]) -> ParsedFile {
    let mut p = Parser {
        t: code,
        fns: Vec::new(),
        ok: true,
    };
    p.items(0, code.len(), None, None);
    ParsedFile {
        fns: p.fns,
        parsed_ok: p.ok,
    }
}

struct Parser<'a> {
    t: &'a [Tok],
    fns: Vec<FnDef>,
    ok: bool,
}

impl Parser<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.t.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize) -> Option<char> {
        match self.t.get(i).map(|t| &t.kind) {
            Some(TokKind::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    fn line(&self, i: usize) -> u32 {
        self.t.get(i).map_or(0, |t| t.line)
    }

    /// Index of the brace matching the `{` at `open`, or `end` (with the
    /// lost-sync flag set) when unbalanced.
    fn match_brace(&mut self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        for i in open..end {
            match self.punct(i) {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.ok = false;
        end
    }

    /// Skip a generic-argument block starting at the `<` at `pos`;
    /// returns the index after the matching `>`. Arrows (`->`, `=>`) and
    /// shifts are guarded by checking the preceding token.
    fn skip_angles(&self, pos: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = pos;
        while i < end {
            match self.punct(i) {
                Some('<') => depth += 1,
                Some('>') if !matches!(self.punct(i.wrapping_sub(1)), Some('-') | Some('=')) => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Skip one non-fn item starting at `pos`: ends after a `;` at
    /// depth 0 or after the close of a `{ … }` opened at depth 0.
    fn skip_item(&mut self, pos: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = pos;
        while i < end {
            match self.punct(i) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some(';') if depth == 0 => return i + 1,
                Some('{') if depth == 0 => {
                    let close = self.match_brace(i, end);
                    return (close + 1).min(end);
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Parse the items in `pos..end` under the given impl/trait owner and
    /// (for `impl Trait for Type` blocks) the implemented trait's name.
    fn items(&mut self, mut pos: usize, end: usize, owner: Option<&str>, trait_of: Option<&str>) {
        while pos < end {
            match (self.ident(pos), self.punct(pos)) {
                (_, Some('#')) => {
                    // `#[attr]` / `#![attr]`.
                    let mut i = pos + 1;
                    if self.punct(i) == Some('!') {
                        i += 1;
                    }
                    if self.punct(i) == Some('[') {
                        let mut depth = 0i32;
                        while i < end {
                            match self.punct(i) {
                                Some('[') => depth += 1,
                                Some(']') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            i += 1;
                        }
                    }
                    pos = i + 1;
                }
                (Some("pub"), _) => {
                    pos += 1;
                    if self.punct(pos) == Some('(') {
                        // `pub(crate)`, `pub(super)`, `pub(in path)`.
                        while pos < end && self.punct(pos) != Some(')') {
                            pos += 1;
                        }
                        pos += 1;
                    }
                }
                (Some("unsafe"), _) | (Some("async"), _) | (Some("default"), _) => pos += 1,
                (Some("const"), _) if self.ident(pos + 1) == Some("fn") => pos += 1,
                (Some("extern"), _) => {
                    pos += 1;
                    if matches!(self.t.get(pos).map(|t| &t.kind), Some(TokKind::Str(_))) {
                        pos += 1;
                    }
                    if self.ident(pos) == Some("crate") {
                        pos = self.skip_item(pos, end);
                    }
                }
                (Some("mod"), _) => {
                    // `mod name { … }` or `mod name;`.
                    let mut i = pos + 2;
                    if self.punct(i) == Some('{') {
                        let close = self.match_brace(i, end);
                        self.items(i + 1, close, owner, trait_of);
                        pos = close + 1;
                    } else {
                        while i < end && self.punct(i) != Some(';') {
                            i += 1;
                        }
                        pos = i + 1;
                    }
                }
                (Some("impl"), _) => {
                    // `impl[<…>] [Trait for] Type[<…>] [where …] { … }`.
                    let mut i = pos + 1;
                    if self.punct(i) == Some('<') {
                        i = self.skip_angles(i, end);
                    }
                    let mut ty: Option<String> = None;
                    let mut tr: Option<String> = None;
                    while i < end {
                        if self.punct(i) == Some('{') {
                            break;
                        }
                        if self.punct(i) == Some('<') {
                            i = self.skip_angles(i, end);
                            continue;
                        }
                        if let Some(name) = self.ident(i) {
                            if name == "where" {
                                while i < end && self.punct(i) != Some('{') {
                                    if self.punct(i) == Some('<') {
                                        i = self.skip_angles(i, end);
                                    } else {
                                        i += 1;
                                    }
                                }
                                break;
                            }
                            if name == "for" {
                                // Everything before `for` was the trait path;
                                // its last segment is the trait name.
                                tr = ty.take();
                            } else if name != "dyn" {
                                ty = Some(name.to_string());
                            }
                        }
                        i += 1;
                    }
                    if self.punct(i) == Some('{') {
                        let close = self.match_brace(i, end);
                        self.items(i + 1, close, ty.as_deref(), tr.as_deref());
                        pos = close + 1;
                    } else {
                        self.ok = false;
                        pos = i + 1;
                    }
                }
                (Some("trait"), _) => {
                    let name = self.ident(pos + 1).map(str::to_string);
                    let mut i = pos + 2;
                    while i < end && self.punct(i) != Some('{') {
                        if self.punct(i) == Some('<') {
                            i = self.skip_angles(i, end);
                        } else {
                            i += 1;
                        }
                    }
                    if self.punct(i) == Some('{') {
                        let close = self.match_brace(i, end);
                        self.items(i + 1, close, name.as_deref(), None);
                        pos = close + 1;
                    } else {
                        self.ok = false;
                        pos = i + 1;
                    }
                }
                (Some("fn"), _) => pos = self.function(pos, end, owner, trait_of),
                _ => pos = self.skip_item(pos, end),
            }
        }
    }

    /// Parse one `fn` item starting at the `fn` keyword.
    fn function(
        &mut self,
        pos: usize,
        end: usize,
        owner: Option<&str>,
        trait_of: Option<&str>,
    ) -> usize {
        let start_line = self.line(pos);
        let Some(name) = self.ident(pos + 1).map(str::to_string) else {
            self.ok = false;
            return pos + 1;
        };
        let mut i = pos + 2;
        if self.punct(i) == Some('<') {
            i = self.skip_angles(i, end);
        }
        if self.punct(i) != Some('(') {
            self.ok = false;
            return i;
        }
        // Parameters: split on top-level commas, drop the pattern before
        // the first top-level `:`.
        let mut params = Vec::new();
        let mut param_names = Vec::new();
        let mut depth = 0i32;
        let open = i;
        let mut close = end;
        for j in open..end {
            match self.punct(j) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        if close == end {
            self.ok = false;
            return end;
        }
        let mut seg_start = open + 1;
        let mut j = open + 1;
        let mut angle = 0i32;
        while j <= close {
            let boundary = j == close
                || (self.punct(j) == Some(',') && {
                    // Top-level comma: not inside nested (), [] or <…>.
                    let mut d = 0i32;
                    for k in open + 1..j {
                        match self.punct(k) {
                            Some('(') | Some('[') => d += 1,
                            Some(')') | Some(']') => d -= 1,
                            _ => {}
                        }
                    }
                    d == 0 && angle == 0
                });
            match self.punct(j) {
                Some('<') => angle += 1,
                Some('>') if !matches!(self.punct(j.wrapping_sub(1)), Some('-') | Some('=')) => {
                    angle -= 1
                }
                _ => {}
            }
            if boundary {
                if j > seg_start {
                    params.push(self.param_type(seg_start, j));
                    param_names.push(self.param_name(seg_start, j));
                }
                seg_start = j + 1;
            }
            j += 1;
        }
        i = close + 1;
        // Skip the return type.
        if self.punct(i) == Some('-') && self.punct(i + 1) == Some('>') {
            i += 2;
            while i < end {
                match (self.ident(i), self.punct(i)) {
                    (Some("where"), _) | (_, Some('{')) | (_, Some(';')) => break,
                    (_, Some('<')) => i = self.skip_angles(i, end),
                    _ => i += 1,
                }
            }
        }
        if self.ident(i) == Some("where") {
            while i < end && self.punct(i) != Some('{') && self.punct(i) != Some(';') {
                if self.punct(i) == Some('<') {
                    i = self.skip_angles(i, end);
                } else {
                    i += 1;
                }
            }
        }
        if self.punct(i) == Some(';') {
            self.fns.push(FnDef {
                name,
                owner: owner.map(str::to_string),
                trait_of: trait_of.map(str::to_string),
                params,
                param_names,
                start_line,
                end_line: self.line(i),
                body: (i, i),
                calls: Vec::new(),
                matches: Vec::new(),
            });
            return i + 1;
        }
        if self.punct(i) != Some('{') {
            self.ok = false;
            return i + 1;
        }
        let body_close = self.match_brace(i, end);
        let body = (i + 1, body_close);
        let mut calls = extract_calls(self.t, body.0, body.1);
        // Resolve each method call's raw receiver ident to a type name
        // via locally apparent types (parameter annotations, `let x: T`,
        // `let x = T::new(...)`, `let x = T { .. }`).
        let types = self.local_type_names(body.0, body.1, &params, &param_names);
        for call in &mut calls {
            call.recv_type = call.recv_type.take().and_then(|r| types.get(&r).cloned());
        }
        let matches = self.extract_matches(body.0, body.1);
        self.fns.push(FnDef {
            name,
            owner: owner.map(str::to_string),
            trait_of: trait_of.map(str::to_string),
            params,
            param_names,
            start_line,
            end_line: self.line(body_close.min(end.saturating_sub(1))),
            body,
            calls,
            matches,
        });
        (body_close + 1).min(end)
    }

    /// Map of local/parameter name → apparent type name for a body range.
    /// Deliberately shallow: parameter annotations plus `let x: T …`,
    /// `let x = T::ctor(…)`, and `let x = T { … }` bindings. Anything the
    /// body does not make apparent (field reads, match results) is absent,
    /// which leaves resolution to the name-based fan-out.
    fn local_type_names(
        &self,
        start: usize,
        end: usize,
        params: &[String],
        param_names: &[String],
    ) -> std::collections::BTreeMap<String, String> {
        let mut map = std::collections::BTreeMap::new();
        for (name, ty) in param_names.iter().zip(params) {
            if !name.is_empty() && name != "self" {
                if let Some(t) = first_type_name(ty) {
                    map.insert(name.clone(), t);
                }
            }
        }
        let mut i = start;
        while i < end {
            if self.ident(i) != Some("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if self.ident(j) == Some("mut") {
                j += 1;
            }
            let Some(name) = self.ident(j) else {
                i += 1;
                continue;
            };
            if self.punct(j + 1) == Some(':') && self.punct(j + 2) != Some(':') {
                // `let x: T …` — first uppercase-initial ident of the
                // annotation, stopping at `=` or `;`.
                let mut k = j + 2;
                while k < end {
                    if matches!(self.punct(k), Some('=') | Some(';')) {
                        break;
                    }
                    if let Some(t) = self.ident(k) {
                        if t.starts_with(char::is_uppercase) {
                            map.insert(name.to_string(), t.to_string());
                            break;
                        }
                    }
                    k += 1;
                }
            } else if self.punct(j + 1) == Some('=') && self.punct(j + 2) != Some('=') {
                let mut k = j + 2;
                while self.punct(k) == Some('&') || self.ident(k) == Some("mut") {
                    k += 1;
                }
                if let Some(t) = self.ident(k) {
                    let ctor = self.punct(k + 1) == Some(':') && self.punct(k + 2) == Some(':');
                    let record = self.punct(k + 1) == Some('{');
                    if t.starts_with(char::is_uppercase) && (ctor || record) {
                        map.insert(name.to_string(), t.to_string());
                    }
                }
            }
            i = j + 1;
        }
        map
    }

    /// The binding name of one parameter segment: `self` for receivers,
    /// otherwise the last ident of the pattern before the top-level `:`
    /// (which handles `x`, `mut x`, and destructured `Foo(x)` shapes),
    /// or `""` when nothing recoverable is bound.
    fn param_name(&self, start: usize, end: usize) -> String {
        let mut depth = 0i32;
        let mut pat_end = end;
        for i in start..end {
            match self.punct(i) {
                Some('(') | Some('[') | Some('<') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('>') if !matches!(self.punct(i.wrapping_sub(1)), Some('-') | Some('=')) => {
                    depth -= 1
                }
                Some(':') if depth == 0 && self.punct(i + 1) != Some(':') && i > start => {
                    pat_end = i;
                    break;
                }
                _ => {}
            }
        }
        let mut last = None;
        for i in start..pat_end {
            if let Some(name) = self.ident(i) {
                if name == "self" {
                    return "self".to_string();
                }
                if name != "mut" && name != "ref" {
                    last = Some(name);
                }
            }
        }
        last.unwrap_or("").to_string()
    }

    /// Flattened text of one parameter's type (tokens after the first
    /// top-level `:`, or the whole segment for a bare receiver).
    fn param_type(&self, start: usize, end: usize) -> String {
        let mut depth = 0i32;
        for i in start..end {
            match self.punct(i) {
                Some('(') | Some('[') | Some('<') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('>') if !matches!(self.punct(i.wrapping_sub(1)), Some('-') | Some('=')) => {
                    depth -= 1
                }
                Some(':') if depth == 0 && self.punct(i + 1) != Some(':') && i > start => {
                    return self.flatten(i + 1, end);
                }
                _ => {}
            }
        }
        // No top-level colon: a `self` / `&mut self` receiver.
        if (start..end).any(|i| self.ident(i) == Some("self")) {
            return "Self".to_string();
        }
        self.flatten(start, end)
    }

    /// Render tokens as compact text: idents separated by a space only
    /// when adjacent to another ident/literal.
    fn flatten(&self, start: usize, end: usize) -> String {
        let mut out = String::new();
        let mut prev_wordy = false;
        for t in &self.t[start..end.min(self.t.len())] {
            let (text, wordy): (String, bool) = match &t.kind {
                TokKind::Ident(s) => (s.clone(), true),
                TokKind::Punct(c) => (c.to_string(), false),
                TokKind::Lit(s) => (s.clone(), true),
                TokKind::Str(_) => ("\"\"".to_string(), false),
                _ => continue,
            };
            if prev_wordy && wordy {
                out.push(' ');
            }
            out.push_str(&text);
            prev_wordy = wordy;
        }
        out
    }

    /// Find every `match` expression in a body range and parse its arms.
    /// Nested matches are found by the same linear scan.
    fn extract_matches(&mut self, start: usize, end: usize) -> Vec<MatchExpr> {
        let mut out = Vec::new();
        for i in start..end {
            if self.ident(i) != Some("match") {
                continue;
            }
            // Scrutinee runs to the `{` at bracket depth 0 (struct
            // literals are not allowed in scrutinee position).
            let mut depth = 0i32;
            let mut open = None;
            for j in i + 1..end {
                match self.punct(j) {
                    Some('(') | Some('[') => depth += 1,
                    Some(')') | Some(']') => depth -= 1,
                    Some('{') if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(open) = open else { continue };
            let close = self.match_brace(open, end);
            let arms = self.parse_arms(open + 1, close);
            out.push(MatchExpr {
                line: self.line(i),
                arms,
            });
        }
        out
    }

    /// Parse the arms between a match's braces.
    fn parse_arms(&mut self, start: usize, end: usize) -> Vec<Arm> {
        let mut arms = Vec::new();
        let mut pos = start;
        while pos < end {
            // Pattern: tokens up to the top-level `=>`; everything after a
            // top-level `if` is the guard and excluded.
            let arm_line = self.line(pos);
            let mut pat = Vec::new();
            let mut depth = 0i32;
            let mut in_guard = false;
            let mut saw_arrow = false;
            while pos < end {
                if depth == 0 && self.punct(pos) == Some('=') && self.punct(pos + 1) == Some('>') {
                    pos += 2;
                    saw_arrow = true;
                    break;
                }
                if depth == 0 && self.ident(pos) == Some("if") {
                    in_guard = true;
                }
                match self.punct(pos) {
                    Some('(') | Some('[') | Some('{') => depth += 1,
                    Some(')') | Some(']') | Some('}') => depth -= 1,
                    _ => {}
                }
                if !in_guard {
                    if let Some(t) = self.t.get(pos) {
                        let (text, ident) = match &t.kind {
                            TokKind::Ident(s) => (s.clone(), true),
                            TokKind::Punct(c) => (c.to_string(), false),
                            TokKind::Lit(s) => (s.clone(), false),
                            TokKind::Str(_) => ("\"\"".to_string(), false),
                            _ => (String::new(), false),
                        };
                        pat.push(PatTok {
                            text,
                            ident,
                            line: t.line,
                        });
                    }
                }
                pos += 1;
            }
            if !saw_arrow {
                break;
            }
            arms.push(Arm {
                line: arm_line,
                pat,
            });
            // Value: a block (skip matched braces + optional comma) or an
            // expression up to the next top-level comma.
            if self.punct(pos) == Some('{') {
                pos = self.match_brace(pos, end) + 1;
                if self.punct(pos) == Some(',') {
                    pos += 1;
                }
            } else {
                let mut depth = 0i32;
                while pos < end {
                    match self.punct(pos) {
                        Some('(') | Some('[') | Some('{') => depth += 1,
                        Some(')') | Some(']') | Some('}') => depth -= 1,
                        Some(',') if depth == 0 => {
                            pos += 1;
                            break;
                        }
                        _ => {}
                    }
                    pos += 1;
                }
            }
        }
        arms
    }
}

/// First uppercase-initial path segment of a flattened type string:
/// `&mut Reader<'a>` → `Reader`, `&[u8]` → none.
fn first_type_name(ty: &str) -> Option<String> {
    let mut cur = String::new();
    for c in ty.chars().chain(std::iter::once(' ')) {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if cur.starts_with(char::is_uppercase) {
                return Some(cur);
            }
            cur.clear();
        }
    }
    None
}

/// Extract call expressions from a token range.
fn extract_calls(t: &[Tok], start: usize, end: usize) -> Vec<Call> {
    let ident = |i: usize| match t.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize| match t.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    };
    let mut out = Vec::new();
    for i in start..end {
        let Some(name) = ident(i) else { continue };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Nested `fn` definitions are folded into this body, not calls.
        if i > start && ident(i - 1) == Some("fn") {
            continue;
        }
        let method = i > start && punct(i - 1) == Some('.');
        let recv_self = method && i >= 2 && ident(i - 2) == Some("self");
        // `name(` — a plain call; `name::<T>(` — a turbofish call.
        let mut after = i + 1;
        if punct(after) == Some(':')
            && punct(after + 1) == Some(':')
            && punct(after + 2) == Some('<')
        {
            let mut depth = 0i32;
            let mut j = after + 2;
            while j < end {
                match punct(j) {
                    Some('<') => depth += 1,
                    Some('>') if !matches!(punct(j.wrapping_sub(1)), Some('-') | Some('=')) => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            after = j + 1;
        }
        if punct(after) != Some('(') {
            continue;
        }
        let qualifier =
            if !method && i >= 3 && punct(i - 1) == Some(':') && punct(i - 2) == Some(':') {
                ident(i - 3).map(str::to_string)
            } else {
                None
            };
        // Argument count: top-level commas inside the parens, ignoring
        // commas between closure pipes (`|a, b| …` is one argument) and
        // a trailing comma before the close.
        let mut depth = 0i32;
        let mut commas = 0usize;
        let mut any_tok = false;
        let mut in_pipe = false;
        let mut last_comma = false;
        let mut j = after;
        while j < end {
            match punct(j) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        if last_comma {
                            commas -= 1;
                        }
                        break;
                    }
                }
                Some('|') if depth == 1 => in_pipe = !in_pipe,
                Some(',') if depth == 1 && !in_pipe => commas += 1,
                _ => {}
            }
            if depth == 1 {
                last_comma = punct(j) == Some(',') && !in_pipe;
            }
            if depth == 1 && j > after {
                any_tok = true;
            }
            j += 1;
        }
        let args = if any_tok { commas + 1 } else { 0 };
        // The receiver ident for `x.name(...)` — only a bare local or
        // parameter counts; `a.b.name(...)` reads a field whose type the
        // body does not declare, so it stays unresolved.
        let recv = if method && !recv_self && !(i >= 3 && punct(i - 3) == Some('.')) {
            ident(i - 2).filter(|r| *r != "self").map(str::to_string)
        } else {
            None
        };
        let Some(tok) = t.get(i) else { continue };
        out.push(Call {
            line: tok.line,
            name: name.to_string(),
            qualifier,
            method,
            recv_self,
            args,
            recv_type: recv,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_modules};

    fn parse_src(src: &str) -> (ParsedFile, Vec<Tok>) {
        let code: Vec<Tok> = strip_test_modules(lex(src))
            .into_iter()
            .filter(|t| !t.kind.is_comment())
            .collect();
        (parse(&code), code)
    }

    #[test]
    fn parses_free_fns_and_methods() {
        let src = "
            pub fn parse(data: &[u8]) -> Result<Packet> { helper(data) }
            impl<R: Read> PcapReader<R> {
                pub fn next_record(&mut self) -> Result<Option<PcapRecord>, PcapError> {
                    self.fill_buf()
                }
            }
            fn helper(d: &[u8]) -> Result<Packet> { Packet::parse(d) }
        ";
        let (p, _) = parse_src(src);
        assert!(p.parsed_ok);
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("parse", None),
                ("next_record", Some("PcapReader")),
                ("helper", None),
            ]
        );
        assert_eq!(p.fns[0].params, vec!["&[u8]"]);
        assert_eq!(p.fns[1].params, vec!["Self"]);
        // helper's qualified call resolves with its qualifier.
        let call = &p.fns[2].calls[0];
        assert_eq!(call.name, "parse");
        assert_eq!(call.qualifier.as_deref(), Some("Packet"));
        assert!(!call.method);
        // next_record's method call.
        let call = &p.fns[1].calls[0];
        assert_eq!(call.name, "fill_buf");
        assert!(call.method);
    }

    #[test]
    fn trait_impls_and_where_clauses_parse() {
        let src = "
            impl<'g, F, O> FlowSource for SimSource<'g, F, O>
            where
                F: Fn(u64) -> Option<O> + Sync,
                O: Send,
            {
                fn fill(&mut self, out: &mut Vec<u64>, max: usize) -> bool {
                    self.cursor < self.span()
                }
            }
        ";
        let (p, _) = parse_src(src);
        assert!(p.parsed_ok, "{:?}", p.fns);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "fill");
        assert_eq!(p.fns[0].owner.as_deref(), Some("SimSource"));
        assert_eq!(p.fns[0].params, vec!["Self", "&mut Vec<u64>", "usize"]);
    }

    #[test]
    fn match_arms_split_patterns_from_guards_and_values() {
        let src = "
            fn f(sig: Signature, n: usize) -> u8 {
                match sig {
                    Signature::SynRst => 1,
                    s if n > 0 => match n { 0 => 9, _ => 8 },
                    other => 0,
                }
            }
        ";
        let (p, _) = parse_src(src);
        assert!(p.parsed_ok);
        let matches = &p.fns[0].matches;
        assert_eq!(matches.len(), 2, "outer + nested");
        let outer = &matches[0];
        assert_eq!(outer.arms.len(), 3);
        let texts: Vec<String> = outer.arms[0].pat.iter().map(|t| t.text.clone()).collect();
        assert_eq!(texts, vec!["Signature", ":", ":", "SynRst"]);
        // Guard tokens are excluded from the pattern.
        let texts: Vec<String> = outer.arms[1].pat.iter().map(|t| t.text.clone()).collect();
        assert_eq!(texts, vec!["s"]);
        // The nested match (inside the second arm's value) parses too.
        assert_eq!(matches[1].arms.len(), 2);
    }

    #[test]
    fn nested_fns_fold_into_the_enclosing_body() {
        let src = "
            pub(crate) fn route_hash(frame: &[u8]) -> Option<u64> {
                fn word(b: &[u8], at: usize) -> u64 { mix(0, at as u64) }
                Some(word(frame, 0))
            }
        ";
        let (p, _) = parse_src(src);
        assert!(p.parsed_ok);
        assert_eq!(p.fns.len(), 1);
        let calls: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        // `fn word(...)` is not a call; `mix(…)`, `Some(…)`, `word(…)` are.
        assert_eq!(calls, vec!["mix", "Some", "word"]);
        assert_eq!(p.fns[0].name, "route_hash");
    }

    #[test]
    fn lost_sync_is_reported_not_silent() {
        let (p, _) = parse_src("fn broken(a: u8 { }");
        assert!(!p.parsed_ok);
    }
}
