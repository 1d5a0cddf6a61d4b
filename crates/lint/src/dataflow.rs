//! Intra-procedural dataflow over parsed function bodies.
//!
//! [`FnFlow`] gives each function use-def chains on its locals and
//! parameters: every `let` binding and reassignment is recorded with the
//! token range of its defining expression, and declared types are kept
//! for parameters and annotated bindings. Two analyses are built on top:
//!
//! * [`alloc_sites`] — fresh-allocation constructors (`Vec::new`,
//!   `vec![…]`, `format!`, `.collect()`, `.clone()` on a declared heap
//!   type, …). The pipeline flags those reachable from the declared hot
//!   roots (`hot-path-alloc`).
//! * [`cast_findings`] — raw `as` narrowing on seq/ack/len/off-named
//!   values (`cast-truncation`), sanitized by def-chain and guard
//!   evidence.
//!
//! Files the item parser loses sync on fail closed: the whole-file
//! variants treat every site as live and every value as unsanitized.

use std::collections::BTreeMap;

use crate::ast::FnDef;
use crate::lexer::{Tok, TokKind};

/// Idents that clamp a value: a def or cast operand mentioning one of
/// these is considered sanitized.
pub const SANITIZERS: [&str; 3] = ["min", "clamp", "try_from"];

/// Narrowing cast targets the `cast-truncation` rule cares about.
/// (`usize`/`u64`/`i64` are wide enough for any wire length.)
const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Ident `_`-segments that mark a value as sequence-space or
/// length-like for the cast rule.
const LEN_SEQ_SEGMENTS: [&str; 7] = ["seq", "ack", "isn", "off", "offset", "len", "length"];

/// Heap-owning types whose `.clone()` duplicates a buffer. `Bytes` is
/// deliberately absent: the vendored shim clones by refcount.
const HEAP_TYPES: [&str; 8] = [
    "Vec", "String", "Box", "BTreeMap", "BTreeSet", "VecDeque", "HashMap", "HashSet",
];

/// Allocation constructors by `Qualifier::method` path pair.
const CTOR_PATHS: [(&str, &str); 16] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("Bytes", "copy_from_slice"),
    ("Bytes", "from"),
    ("BytesMut", "with_capacity"),
];

/// Allocating methods recognizable without type information.
const ALLOC_METHODS: [&str; 6] = [
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "to_ascii_lowercase",
    "to_lowercase",
];

fn ident(t: &[Tok], i: usize) -> Option<&str> {
    match t.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: &[Tok], i: usize) -> Option<char> {
    match t.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

fn line(t: &[Tok], i: usize) -> u32 {
    t.get(i).map_or(0, |t| t.line)
}

/// True for idents that can be local binding names (lowercase or `_`
/// initial — uppercase initials are types/variants/consts).
fn bindable(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

/// True when the ident's last `_`-segment marks sequence-space or a
/// length (`incl_len`, `opts_len`, `seq`, `payload_length`, …).
fn is_len_seq_ident(name: &str) -> bool {
    name.rsplit('_')
        .next()
        .is_some_and(|seg| LEN_SEQ_SEGMENTS.contains(&seg))
}

/// Use-def chains for one function body.
#[derive(Debug, Default)]
pub struct FnFlow {
    /// Binding name → the token range `[start, end)` of every defining
    /// expression, in body order; empty for parameters and
    /// uninitialized `let`s.
    pub defs: BTreeMap<String, Vec<(usize, usize)>>,
    /// Binding name → flattened declared type text, where annotated
    /// (parameters and `let x: T` bindings).
    pub types: BTreeMap<String, String>,
}

/// Build the use-def chains for one parsed function.
pub fn flow_of(code: &[Tok], f: &FnDef) -> FnFlow {
    let mut flow = FnFlow::default();
    for (name, ty) in f.param_names.iter().zip(&f.params) {
        if name.is_empty() {
            continue;
        }
        flow.defs.entry(name.clone()).or_default().push((0, 0));
        flow.types.insert(name.clone(), ty.clone());
    }
    let (start, end) = f.body;
    let mut i = start;
    while i < end {
        if ident(code, i) == Some("let") {
            i = scan_let(code, i, end, &mut flow);
            continue;
        }
        if let Some(name) = ident(code, i) {
            if bindable(name) && ident(code, i.wrapping_sub(1)).is_none() {
                if let Some(rhs_start) = assign_rhs_start(code, i, end) {
                    let rhs_end = expr_end(code, rhs_start, end);
                    flow.defs
                        .entry(name.to_string())
                        .or_default()
                        .push((rhs_start, rhs_end));
                    i = rhs_end;
                    continue;
                }
            }
        }
        i += 1;
    }
    flow
}

/// If token `i` starts a (re)assignment `name = …` / `name += …` /
/// `name <<= …`, return the RHS start index.
fn assign_rhs_start(code: &[Tok], i: usize, end: usize) -> Option<usize> {
    // A field store `x.y = …` or struct literal `Foo { x: … }` is not a
    // local def; require the name not be preceded by `.` and not be
    // followed by `:`/`.`.
    if punct(code, i.wrapping_sub(1)) == Some('.') {
        return None;
    }
    let next = i + 1;
    match punct(code, next) {
        Some('=') if punct(code, next + 1) != Some('=') && punct(code, next + 1) != Some('>') => {
            // Exclude `==` (two adjacent `=` puncts) and `=>`; also make
            // sure this `=` is not the tail of `<=`/`>=`/`!=` (those have
            // the comparison punct *before* it, at `next-1 == i`, which is
            // an ident — impossible). Plain or `let`-free reassignment.
            Some(next + 1)
        }
        Some(op) if "+-*/%&|^".contains(op) && punct(code, next + 1) == Some('=') => Some(next + 2),
        Some('<') | Some('>')
            if punct(code, next + 1) == punct(code, next) && punct(code, next + 2) == Some('=') =>
        {
            Some(next + 3)
        }
        _ => None,
    }
    .filter(|&s| s < end)
}

/// Walk an expression from `start` to its terminating `;` (or `else`, or
/// an unbalanced close) at bracket depth zero; returns the exclusive end.
fn expr_end(code: &[Tok], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match punct(code, i) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            Some(';') if depth == 0 => return i,
            Some(',') if depth == 0 => return i,
            _ => {}
        }
        if depth == 0 && ident(code, i) == Some("else") {
            return i;
        }
        i += 1;
    }
    end
}

/// Handle one `let` binding starting at the `let` keyword; returns the
/// position to resume scanning from.
fn scan_let(code: &[Tok], let_pos: usize, end: usize, flow: &mut FnFlow) -> usize {
    // Find the top-level `=` (or statement end when there is none).
    let mut depth = 0i32;
    let mut eq = None;
    let mut colon = None;
    let mut i = let_pos + 1;
    while i < end {
        match punct(code, i) {
            Some('(') | Some('[') | Some('{') | Some('<') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some('>') if punct(code, i.wrapping_sub(1)) != Some('-') => depth -= 1,
            Some(':') if depth == 0 && punct(code, i + 1) != Some(':') && colon.is_none() => {
                colon = Some(i);
            }
            Some('=') if depth == 0 => {
                if punct(code, i + 1) == Some('=') {
                    // `==` inside a pattern guard — not the binder.
                    i += 2;
                    continue;
                }
                eq = Some(i);
                break;
            }
            Some(';') if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    let pat_end = colon.or(eq).unwrap_or(i.min(end));
    // Bound names: bindable idents in the pattern (handles `mut x`,
    // `Some(x)`, `(a, b)`). Uppercase idents are constructors, not
    // bindings; `mut`/`ref` are modifiers.
    let mut names: Vec<String> = Vec::new();
    for j in let_pos + 1..pat_end {
        if let Some(name) = ident(code, j) {
            if bindable(name) && name != "mut" && name != "ref" && name != "_" {
                names.push(name.to_string());
            }
        }
    }
    let Some(eq) = eq else {
        // `let x: T;` — declaration only.
        if let (Some(c), [name]) = (colon, names.as_slice()) {
            flow.types.insert(
                name.clone(),
                flatten_idents(code, c + 1, pat_end.max(c + 1)),
            );
        }
        for name in &names {
            flow.defs.entry(name.clone()).or_default().push((0, 0));
        }
        return i + 1;
    };
    if let (Some(c), [name]) = (colon, names.as_slice()) {
        flow.types
            .insert(name.clone(), flatten_idents(code, c + 1, eq));
    }
    // An `if let` / `while let` scrutinee ends at the block it guards:
    // without this, the `{` counts as an opening bracket and the whole
    // block body leaks into the def expression (sanitizing pattern
    // bindings with any clamp the block happens to perform).
    let conditional = matches!(
        ident(code, let_pos.wrapping_sub(1)),
        Some("if") | Some("while")
    );
    let rhs_end = if conditional {
        let mut depth = 0i32;
        let mut j = eq + 1;
        while j < end {
            match punct(code, j) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        j
    } else {
        expr_end(code, eq + 1, end)
    };
    for name in &names {
        flow.defs
            .entry(name.clone())
            .or_default()
            .push((eq + 1, rhs_end));
    }
    rhs_end
}

/// Compact text of the idents/puncts in a range — enough for type
/// fragment matching (`Vec<u8>`, `&[u8]`, `Reader`).
fn flatten_idents(code: &[Tok], start: usize, end: usize) -> String {
    let mut out = String::new();
    for t in &code[start.min(code.len())..end.min(code.len())] {
        match &t.kind {
            TokKind::Ident(s) => {
                if !out.is_empty() && out.ends_with(|c: char| c.is_ascii_alphanumeric()) {
                    out.push(' ');
                }
                out.push_str(s);
            }
            TokKind::Punct(c) => out.push(*c),
            TokKind::Lit(s) => out.push_str(s),
            _ => {}
        }
    }
    out
}

/// Does the token range mention a sanitizer (`min`/`clamp`/`try_from`)?
fn sanitized_range(code: &[Tok], start: usize, end: usize) -> bool {
    (start..end.min(code.len())).any(|i| ident(code, i).is_some_and(|s| SANITIZERS.contains(&s)))
}

/// Is `name` compared (`<`/`>`/`<=`/`>=`) anywhere in `[start, before)`?
/// A bounds check ahead of the cast counts as sanitization even when the
/// clamped value is not rebound (`if n > MAX { return Err(…) }`).
fn guarded_before(code: &[Tok], start: usize, before: usize, name: &str) -> bool {
    for i in start..before.min(code.len()) {
        if ident(code, i) == Some(name) {
            for j in i + 1..(i + 6).min(before) {
                match punct(code, j) {
                    Some('<') | Some('>') => return true,
                    Some(';') | Some('{') => break,
                    _ => {}
                }
            }
        }
    }
    false
}

/// One dataflow finding: a line plus a rendered message.
#[derive(Debug)]
pub struct FlowFinding {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// `cast-truncation` over one token range. `flow` supplies def-chain
/// sanitizer evidence when the body parsed; `None` fails closed.
pub fn cast_findings(
    code: &[Tok],
    start: usize,
    end: usize,
    flow: Option<&FnFlow>,
) -> Vec<FlowFinding> {
    let mut out = Vec::new();
    for i in start..end {
        if ident(code, i) != Some("as") {
            continue;
        }
        let Some(target) = ident(code, i + 1) else {
            continue;
        };
        if !NARROW_TYPES.contains(&target) {
            continue;
        }
        // Candidate length/sequence values feeding the cast.
        let mut cands: Vec<&str> = Vec::new();
        let mut group = None;
        if let Some(prev) = ident(code, i.wrapping_sub(1)) {
            if is_len_seq_ident(prev) {
                cands.push(prev);
            }
        } else if punct(code, i.wrapping_sub(1)) == Some(')') {
            let open = match_open(code, start, i - 1);
            group = Some((open, i - 1));
            for j in open..i - 1 {
                if let Some(name) = ident(code, j) {
                    // A method *name* is not a value — `name.len()` feeds
                    // the receiver through, handled just below.
                    let is_method_name = punct(code, j.wrapping_sub(1)) == Some('.')
                        && punct(code, j + 1) == Some('(');
                    if is_len_seq_ident(name) && !is_method_name {
                        cands.push(name);
                    }
                    // `x.len()` inside the group: the receiver's length.
                    if punct(code, j + 1) == Some('.')
                        && ident(code, j + 2) == Some("len")
                        && punct(code, j + 3) == Some('(')
                    {
                        cands.push(name);
                    }
                }
            }
            // The call the `)` closes: `recv.method(args) as u16` puts the
            // receiver *outside* the group.
            if let Some(m) = ident(code, open.wrapping_sub(1)) {
                if SANITIZERS.contains(&m) {
                    // `x.min(1500) as u16` — already clamped.
                    continue;
                }
                let dotted = punct(code, open.wrapping_sub(2)) == Some('.');
                if let Some(recv) = dotted.then(|| ident(code, open.wrapping_sub(3))).flatten() {
                    // `segment.len() as u16` counts for any receiver; other
                    // methods only when the receiver is length/seq-named.
                    if m == "len" || is_len_seq_ident(recv) {
                        cands.push(recv);
                    }
                } else if !dotted && is_len_seq_ident(m) {
                    // Free call whose *name* is length-like: `header_len(x)`.
                    cands.push(m);
                }
            }
        }
        cands.sort_unstable();
        cands.dedup();
        if cands.is_empty() {
            continue;
        }
        if let Some((g0, g1)) = group {
            if sanitized_range(code, g0, g1) {
                continue;
            }
        }
        let all_clean = cands.iter().all(|name| {
            let def_sanitized = flow.is_some_and(|fl| {
                fl.defs.get(*name).is_some_and(|defs| {
                    defs.iter()
                        .any(|&(a, b)| a < b && sanitized_range(code, a, b))
                })
            });
            def_sanitized || (flow.is_some() && guarded_before(code, start, i, name))
        });
        if all_clean {
            continue;
        }
        out.push(FlowFinding {
            line: line(code, i),
            message: format!(
                "`{} as {target}` may silently truncate; clamp or `try_from` first",
                cands.join("`/`")
            ),
        });
    }
    out
}

/// Matching open paren for the `)` at `close`, scanning back no further
/// than `floor`.
fn match_open(code: &[Tok], floor: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut i = close;
    loop {
        match punct(code, i) {
            Some(')') => depth += 1,
            Some('(') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        if i == floor {
            return floor;
        }
        i -= 1;
    }
}

/// One fresh-allocation site.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// 1-based source line.
    pub line: u32,
    /// What allocates, as rendered in the finding (`vec![…]`,
    /// `Vec::with_capacity`, `.collect()`, …).
    pub what: String,
}

/// Every fresh-allocation constructor in `[start, end)`. `flow` enables
/// the `.clone()`-on-declared-heap-type check; without it clones are
/// skipped (receiver types unknown).
pub fn alloc_sites(
    code: &[Tok],
    start: usize,
    end: usize,
    flow: Option<&FnFlow>,
) -> Vec<AllocSite> {
    let mut out = Vec::new();
    for i in start..end {
        let Some(name) = ident(code, i) else { continue };
        // Macros: `vec![…]`, `format!(…)`.
        if punct(code, i + 1) == Some('!') && (name == "vec" || name == "format") {
            let open = punct(code, i + 2);
            if open == Some('[') || open == Some('(') {
                out.push(AllocSite {
                    line: line(code, i),
                    what: if name == "vec" {
                        "vec![…]"
                    } else {
                        "format!(…)"
                    }
                    .to_string(),
                });
            }
            continue;
        }
        // Skip turbofish between the name and its `(`.
        let mut after = i + 1;
        if punct(code, after) == Some(':')
            && punct(code, after + 1) == Some(':')
            && punct(code, after + 2) == Some('<')
        {
            let mut depth = 0i32;
            let mut j = after + 2;
            while j < end {
                match punct(code, j) {
                    Some('<') => depth += 1,
                    Some('>') => {
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
        if punct(code, after) != Some('(') {
            continue;
        }
        // Qualified constructors: `Vec::new(…)`, `Bytes::copy_from_slice(…)`.
        if punct(code, i.wrapping_sub(1)) == Some(':')
            && punct(code, i.wrapping_sub(2)) == Some(':')
        {
            if let Some(q) = ident(code, i.wrapping_sub(3)) {
                if CTOR_PATHS.contains(&(q, name)) {
                    out.push(AllocSite {
                        line: line(code, i),
                        what: format!("{q}::{name}"),
                    });
                }
            }
            continue;
        }
        // Allocating methods: `.collect()`, `.to_vec()`, `.to_owned()`, …
        if punct(code, i.wrapping_sub(1)) == Some('.') {
            if ALLOC_METHODS.contains(&name) {
                out.push(AllocSite {
                    line: line(code, i),
                    what: format!(".{name}()"),
                });
            } else if name == "clone" {
                // `.clone()` only when the receiver is a local/param with a
                // declared heap-owning type.
                if let Some(recv) = ident(code, i.wrapping_sub(2)) {
                    let heap = flow
                        .and_then(|fl| fl.types.get(recv))
                        .is_some_and(|ty| HEAP_TYPES.iter().any(|h| ty.contains(h)));
                    if heap {
                        out.push(AllocSite {
                            line: line(code, i),
                            what: format!("`{recv}`.clone() (declared heap type)"),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::{lex, strip_test_modules};

    fn prep(src: &str) -> (Vec<Tok>, crate::ast::ParsedFile) {
        let code: Vec<Tok> = strip_test_modules(lex(src))
            .into_iter()
            .filter(|t| !t.kind.is_comment())
            .collect();
        let parsed = parse(&code);
        (code, parsed)
    }

    #[test]
    fn defs_and_types_are_tracked() {
        let (code, p) = prep(
            "fn f(data: &[u8]) -> usize {
                 let mut n: usize = 0;
                 n = data.len();
                 let v: Vec<u8> = Vec::new();
                 n + v.len()
             }",
        );
        let flow = flow_of(&code, &p.fns[0]);
        assert_eq!(flow.defs["n"].len(), 2, "{:?}", flow.defs);
        assert!(flow.types["v"].contains("Vec"));
    }

    #[test]
    fn cast_rule_fires_and_respects_sanitizers() {
        let (code, p) = prep(
            "fn f(payload_len: usize, seq: u32) -> (u16, u8, u16) {
                 let a = payload_len as u16;
                 let b = (seq.min(255)) as u8;
                 let c = payload_len.min(1500) as u16;
                 (a, b, c as u16)
             }",
        );
        let flow = flow_of(&code, &p.fns[0]);
        let findings = cast_findings(&code, p.fns[0].body.0, p.fns[0].body.1, Some(&flow));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("payload_len"));
    }

    #[test]
    fn len_call_feeds_cast_rule() {
        let (code, p) = prep("fn f(segment: &[u8]) -> u16 { (segment.len()) as u16 }");
        let flow = flow_of(&code, &p.fns[0]);
        let findings = cast_findings(&code, p.fns[0].body.0, p.fns[0].body.1, Some(&flow));
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn alloc_sites_cover_ctors_macros_methods_and_heap_clones() {
        let (code, p) = prep(
            "fn f(xs: &[u32]) -> Vec<u32> {
                 let buf: Vec<u32> = Vec::with_capacity(4);
                 let s = format!(\"x\");
                 let t = s.to_owned();
                 let c = buf.clone();
                 let bits = xs.iter().copied().collect::<Vec<u32>>();
                 let n = xs.len();
                 bits
             }",
        );
        let flow = flow_of(&code, &p.fns[0]);
        let sites = alloc_sites(&code, p.fns[0].body.0, p.fns[0].body.1, Some(&flow));
        let whats: Vec<&str> = sites.iter().map(|s| s.what.as_str()).collect();
        assert!(whats.contains(&"Vec::with_capacity"), "{whats:?}");
        assert!(whats.contains(&"format!(…)"), "{whats:?}");
        assert!(whats.contains(&".to_owned()"), "{whats:?}");
        assert!(whats.contains(&".collect()"), "{whats:?}");
        assert!(whats.iter().any(|w| w.contains("clone")), "{whats:?}");
        // `.len()` and `.iter()` are not allocations.
        assert_eq!(whats.len(), 5, "{whats:?}");
    }

    #[test]
    fn refcounted_bytes_clone_is_not_flagged() {
        let (code, p) =
            prep("fn f(payload: &Bytes) -> Bytes { let b: Bytes = payload.clone(); b.clone() }");
        let flow = flow_of(&code, &p.fns[0]);
        let sites = alloc_sites(&code, p.fns[0].body.0, p.fns[0].body.1, Some(&flow));
        assert!(sites.is_empty(), "{sites:?}");
    }
}
