//! The lint rules and the waiver grammar.
//!
//! Rules are scoped by repo-relative path (forward slashes). A finding can
//! be waived in source with
//!
//! ```text
//! // tamperlint: allow(<rule>) — <reason>
//! ```
//!
//! (`--` is accepted in place of the em-dash). A waiver covers its own line
//! and the next line that carries code, and the reason is mandatory. Unused
//! and malformed waivers are themselves findings — a waiver must never
//! outlive the code it excuses.
//!
//! This module owns the per-file scan: waiver collection, the token-window
//! rules, and the AST-backed exhaustive-signature-match rule. Cross-file
//! analyses (call-graph containment, hot-path allocation, untrusted-
//! reachability scoping of panic/index) run in the [`crate`] pipeline over
//! the retained [`FileScan`]s, and waivers are applied only after those
//! phases so a waiver whose finding the call graph retires turns into an
//! `unused waiver` finding instead of silently rotting.

use crate::ast::{self, ParsedFile};
use crate::callgraph;
use crate::lexer::{lex, strip_test_modules, Tok, TokKind};
use std::collections::BTreeSet;

/// Every rule with its one paragraph of documentation, in reporting
/// order, for `cargo xtask analyze --explain <rule>`. [`RULES`] is derived
/// from this table, so a rule can never ship undocumented.
pub const EXPLANATIONS: [(&str, &str); 13] = [
    (
        "map-iter",
        "HashMap/HashSet iteration order varies per process (SipHash keys are \
         randomized), so any output derived from iterating one is \
         nondeterministic. The paper's pipeline promises byte-identical reports \
         for identical captures; output-producing crates (analysis, core) and \
         the linter itself must use BTreeMap/BTreeSet instead.",
    ),
    (
        "ambient-clock",
        "Instant::now()/SystemTime::now() read the wall clock, so classification \
         that touches them depends on when the pipeline ran, not just on the \
         packets. Fires textually at the call site and transitively — via the \
         effect summaries — at every pipeline function whose call chain reaches \
         one, with the chain in the message. tamper-obs is the sole sanctioned \
         home for clock reads.",
    ),
    (
        "clock-containment",
        "Any other mention of Instant/SystemTime in a pipeline crate (use \
         statements, struct fields, signatures) smuggles a clock handle toward \
         the deterministic core. Timing belongs in tamper-obs (Stopwatch, \
         ScopeMetrics), which is guaranteed never to perturb verdict bytes.",
    ),
    (
        "ambient-rng",
        "thread_rng/from_entropy/OsRng/getrandom/rand::random draw operating- \
         system entropy, making runs irreproducible. Simulation and sampling \
         must use seeded generators so a reported number can be regenerated \
         bit-for-bit. Fires textually and transitively like ambient-clock.",
    ),
    (
        "thread-containment",
        "capture::engine owns the one reader/shard/merge thread topology, and \
         engine_determinism proves it merges deterministically at any thread \
         count. A bespoke thread::spawn/thread::scope pool elsewhere would be a \
         second interleaving source with no such proof; plug in through a \
         FlowSource instead.",
    ),
    (
        "panic",
        ".unwrap()/.expect()/panic! on the untrusted-input parse surface turns \
         malformed capture bytes into a crashed pipeline — the opposite of the \
         paper's fail-open measurement posture. Scoped to functions the call \
         graph proves reachable from untrusted-input roots; return a typed \
         WireError instead.",
    ),
    (
        "index",
        "Direct slice indexing panics on short input, and tampered traffic is \
         precisely where truncated packets live. On the untrusted-reachable \
         parse surface, use .get(…) or the bounds-checked wire::Reader.",
    ),
    (
        "wraparound-arithmetic",
        "TCP sequence space is mod 2^32: raw +/-/* on seq/ack/isn/offset-named \
         u32 values silently corrupts relative positions when a flow straddles \
         the wrap. Use wrapping_*/checked_* so the intent (and the gate) is \
         explicit. PR 3 fixed a real wrap bug in core::reorder; this keeps the \
         next one out.",
    ),
    (
        "exhaustive-signature-match",
        "A `_` wildcard or catch-all binding in a match over the paper's \
         Signature taxonomy means adding a 20th signature silently misroutes \
         flows instead of failing the build. Enumerate every variant; \
         `name @ (V1 | V2 | …)` keeps a binding while staying exhaustive.",
    ),
    (
        "hot-path-alloc",
        "Functions call-graph-reachable from the HOT_ROOTS registry \
         (BatchClassifier::classify_batch, SourceShard::absorb, …) run once per packet or \
         per flow at line rate; a fresh Vec/format!/clone there is the \
         difference between 535k and 2M flows/s. Reuse caller-owned scratch \
         buffers instead. The discovery chain from the root is in the message.",
    ),
    (
        "cast-truncation",
        "`seq as u16` silently drops the high bits of sequence-space and length \
         values, corrupting relative math exactly like wraparound does. Use \
         try_from or clamp first so narrowing is explicit and checked.",
    ),
    (
        "root-registry",
        "HOT_ROOTS entries are matched against the symbol table by (owner, \
         name). An entry that resolves to no function is rename rot: \
         the gate it anchors has silently stopped firing. Update the registry \
         entry or restore the function it names.",
    ),
    (
        "waiver",
        "Waivers are `// tamperlint: allow(<rule>) — <reason>` and cover their \
         own line plus the next code line. A malformed waiver (bad grammar, \
         unknown rule, missing reason) or an unused one (no matching finding \
         left) is itself a finding: a waiver must never outlive the code it \
         excuses, and a typo must never silently disable a gate.",
    ),
];

/// All lint rule ids, in reporting order.
pub const RULES: [&str; EXPLANATIONS.len()] = {
    let mut out = [""; EXPLANATIONS.len()];
    let mut i = 0;
    while i < out.len() {
        out[i] = EXPLANATIONS[i].0;
        i += 1;
    }
    out
};

/// The `--explain` text for one rule, if it is registered.
pub fn explain(rule: &str) -> Option<&'static str> {
    EXPLANATIONS
        .iter()
        .find(|(r, _)| *r == rule)
        .map(|(_, text)| *text)
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule code (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Build a finding, copying the path.
    pub fn new(file: &str, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// A parsed source waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule the waiver excuses.
    pub rule: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Mandatory justification text.
    pub reason: String,
}

/// Outcome of linting one file: surviving findings plus waiver bookkeeping.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings not covered by any waiver.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a matching waiver (kept for counters).
    pub waived: Vec<Finding>,
}

/// Parse a waiver out of one `//` comment body, if it claims to be one.
///
/// Returns `Ok(None)` when the comment is not a tamperlint directive at all,
/// `Ok(Some(waiver))` on success, and `Err(description)` when the comment
/// starts with `tamperlint:` but the grammar is wrong — those surface as
/// `waiver` findings so typos cannot silently disable a gate.
pub fn parse_waiver(comment: &str) -> Result<Option<(String, String)>, String> {
    let text = comment.trim();
    let Some(rest) = text.strip_prefix("tamperlint:") else {
        return Ok(None);
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>)` after `tamperlint:`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(` in waiver".to_string());
    };
    let rule = rest[..close].trim();
    if !RULES.contains(&rule) {
        return Err(format!("unknown rule {rule:?} in waiver"));
    }
    let after = rest[close + 1..].trim_start();
    let reason = if let Some(r) = after.strip_prefix('—') {
        r.trim()
    } else if let Some(r) = after.strip_prefix("--") {
        r.trim()
    } else {
        return Err("expected `— <reason>` (or `-- <reason>`) after `allow(…)`".to_string());
    };
    if reason.is_empty() {
        return Err("waiver reason must not be empty".to_string());
    }
    Ok(Some((rule.to_string(), reason.to_string())))
}

/// Which rule families apply to a repo-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// `map-iter`: output-producing crates (and the linter itself) must
    /// not use HashMap/HashSet.
    pub map_iter: bool,
    /// The deterministic pipeline crates: `ambient-clock`, `ambient-rng`,
    /// `clock-containment`, `thread-containment` (everywhere but the
    /// sink's sanctioned home), `exhaustive-signature-match` and
    /// `hot-path-alloc`.
    pub pipeline: bool,
    /// The untrusted-input parsing surface: `panic` and `index`. (What
    /// an untrusted length may allocate is held at run time by
    /// `tests/fail_closed.rs`.)
    pub parse_surface: bool,
    /// Sequence-space math in `wire`/`core`: `wraparound-arithmetic` and
    /// `cast-truncation`.
    pub seq_space: bool,
}

impl Scope {
    /// True if no rule family applies (the file can be skipped entirely).
    pub fn is_empty(self) -> bool {
        !(self.map_iter || self.pipeline || self.parse_surface || self.seq_space)
    }
}

/// Compute the rule scope for one repo-relative path.
pub fn scope_for(path: &str) -> Scope {
    // Every first-party pipeline crate. Repo automation and the linter
    // itself measure wall-clock by design; tamper-obs is the
    // one sanctioned home for wall-clock reads (the `clock-containment`
    // rule routes everyone else through it).
    let first_party =
        (path.starts_with("crates/") && path.contains("/src/")) || path.starts_with("src/");
    let exempt = path.starts_with("crates/xtask/")
        || path.starts_with("crates/lint/")
        || path.starts_with("crates/obs/");
    Scope {
        // Determinism: anything that feeds report bytes — plus the linter
        // itself, which must render findings in a stable order.
        map_iter: path.starts_with("crates/analysis/src/")
            || path.starts_with("crates/core/src/")
            || path.starts_with("crates/lint/src/"),
        // The hot-root closure and the ambient-sink call chains can cross
        // any pipeline crate, so every one of them is in scope; call-graph
        // findings only materialize on functions proven reachable from a
        // registered root or a sink.
        pipeline: first_party && !exempt,
        // Panic-safety: bytes-off-the-wire parsing surface — including
        // the partial-aggregate decoder, which reads untrusted .agg
        // files.
        parse_surface: path.starts_with("crates/wire/src/")
            || matches!(
                path,
                "crates/capture/src/pcap.rs"
                    | "crates/capture/src/offline.rs"
                    | "crates/capture/src/engine.rs"
                    | "crates/capture/src/source.rs"
                    | "crates/analysis/src/aggfile.rs"
            ),
        // Sequence-space arithmetic lives in the wire parsers and the core
        // classifier; PR 3 fixed a real u32-wraparound bug in
        // `core::reorder`, and these rules keep the next one out.
        seq_space: path.starts_with("crates/wire/src/") || path.starts_with("crates/core/src/"),
    }
}

/// Keywords that may directly precede `[` without it being an index
/// expression (patterns, array types, expression starts).
pub(crate) const NON_INDEX_KEYWORDS: [&str; 14] = [
    "let", "mut", "ref", "in", "if", "else", "match", "return", "as", "const", "static", "move",
    "box", "dyn",
];

/// Keywords after which `+`/`-`/`*` cannot be a binary operator (the
/// preceding "operand" is not an expression result).
const NON_OPERAND_KEYWORDS: [&str; 16] = [
    "return", "as", "in", "if", "else", "match", "let", "mut", "move", "while", "loop", "break",
    "continue", "ref", "use", "where",
];

/// Identifier last-segments the wraparound rule treats as sequence-space
/// values: `seq`, `rel_seq`, `data_offset`, … all end in one of these.
const SEQ_SPACE_SEGMENTS: [&str; 5] = ["seq", "ack", "isn", "off", "offset"];

/// Pattern idents that never count as catch-all bindings.
const NON_BINDING_PATTERN_IDENTS: [&str; 5] = ["ref", "mut", "true", "false", "box"];

/// Everything retained from one file's scan, for the cross-file phases.
pub struct FileScan {
    /// Repo-relative path.
    pub path: String,
    /// Raw findings (waivers not yet applied).
    pub raw: Vec<Finding>,
    /// Waivers with the line set each covers.
    pub waivers: Vec<(Waiver, BTreeSet<u32>)>,
    /// Code tokens (comments and `#[cfg(test)]` modules stripped).
    pub code: Vec<Tok>,
    /// Parsed item structure.
    pub parsed: ParsedFile,
}

/// Cross-file context the per-file scan needs up front.
#[derive(Debug, Default)]
pub struct ScanCtx {
    /// The `Signature` enum's variant names (from
    /// `crates/core/src/signature.rs` when present in the file set), so
    /// `use Signature::*`-style matches are still recognized.
    pub signature_variants: BTreeSet<String>,
}

/// True for `seq`/`ack`/`isn`/`off`/`offset`-suffixed identifiers.
fn is_seq_space_ident(name: &str) -> bool {
    let last = name.rsplit('_').next().unwrap_or(name);
    SEQ_SPACE_SEGMENTS.contains(&last.to_ascii_lowercase().as_str())
}

/// Scan one file under the scope its path gets: collect waivers, run every
/// single-file rule, parse the AST. Waivers are NOT applied here — the
/// pipeline does that after the cross-file phases.
pub fn scan_file(path: &str, src: &str, ctx: &ScanCtx) -> FileScan {
    let scope = scope_for(path);
    let toks = strip_test_modules(lex(src));
    let mut raw: Vec<Finding> = Vec::new();

    // --- Waivers (and waiver-grammar findings) come from the comments. ---
    let mut waivers: Vec<(Waiver, BTreeSet<u32>)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let TokKind::LineComment(text) = &t.kind else {
            continue;
        };
        match parse_waiver(text) {
            Ok(None) => {}
            Ok(Some((rule, reason))) => {
                // A waiver covers its own line plus the next code line.
                let mut covered: BTreeSet<u32> = BTreeSet::new();
                covered.insert(t.line);
                if let Some(next) = toks[i + 1..]
                    .iter()
                    .find(|n| !n.kind.is_comment() && n.line > t.line)
                {
                    covered.insert(next.line);
                }
                waivers.push((
                    Waiver {
                        rule,
                        reason,
                        line: t.line,
                    },
                    covered,
                ));
            }
            Err(why) => raw.push(Finding::new(
                path,
                t.line,
                "waiver",
                format!("malformed waiver: {why}"),
            )),
        }
    }

    // --- Token-window rules over code tokens only. ---
    let code: Vec<Tok> = toks.into_iter().filter(|t| !t.kind.is_comment()).collect();
    let ident = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    };

    for i in 0..code.len() {
        let line = code[i].line;
        let mut push_at = |line: u32, rule: &'static str, message: String| {
            raw.push(Finding::new(path, line, rule, message))
        };

        if scope.map_iter {
            if let Some(name @ ("HashMap" | "HashSet")) = ident(i) {
                push_at(
                    line,
                    "map-iter",
                    format!(
                        "{name} in an output-producing crate: iteration order is \
                         nondeterministic per process; use BTreeMap/BTreeSet"
                    ),
                );
            }
        }

        if scope.pipeline {
            if let Some(sink) = callgraph::sink_at(&code, i) {
                // One clock, one thread topology: a sink outside its
                // kind's sanctioned home is a finding where it stands.
                if !sink.kind.sanctioned(path) {
                    push_at(line, sink.kind.rule(), sink.message);
                }
            } else if let Some(name @ ("Instant" | "SystemTime")) = ident(i) {
                // Any other mention of the clock types (use statements,
                // struct fields, signatures) smuggles a clock handle into
                // a pipeline crate. `tamper-obs` is the one sanctioned
                // home for wall-clock reads; the `::now` form is a sink,
                // and already the ambient-clock rule's finding.
                push_at(
                    line,
                    "clock-containment",
                    format!(
                        "{name} in a pipeline crate; reach clocks only through \
                         tamper_obs (Stopwatch / ScopeMetrics timers)"
                    ),
                );
            }
        }

        if scope.parse_surface {
            if punct(i) == Some('.') {
                if let Some(name @ ("unwrap" | "expect")) = ident(i + 1) {
                    push_at(
                        code[i + 1].line,
                        "panic",
                        format!(
                            ".{name}() on the untrusted-input surface; return a typed \
                             WireError instead"
                        ),
                    );
                }
            }
            if let Some(name @ ("panic" | "unreachable" | "todo" | "unimplemented")) = ident(i) {
                if punct(i + 1) == Some('!') {
                    push_at(
                        line,
                        "panic",
                        format!(
                            "{name}! on the untrusted-input surface; malformed capture \
                             bytes must not abort the process"
                        ),
                    );
                }
            }
            if punct(i) == Some('[') && i > 0 {
                let indexes = match &code[i - 1].kind {
                    TokKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                };
                if indexes {
                    push_at(
                        line,
                        "index",
                        "direct slice indexing can panic on short input; use .get(…) or \
                         a bounds-checked Reader"
                            .to_string(),
                    );
                }
            }
        }

        if scope.seq_space {
            if let Some(op @ ('+' | '-' | '*')) = punct(i) {
                // `->` is an arrow, not a subtraction.
                let arrow = op == '-' && punct(i + 1) == Some('>');
                // Binary iff the previous token can end an operand.
                let binary = i > 0
                    && match &code[i - 1].kind {
                        TokKind::Ident(s) => !NON_OPERAND_KEYWORDS.contains(&s.as_str()),
                        TokKind::Lit(_) => true,
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    };
                if binary && !arrow {
                    // Operand after the operator (skip the `=` of a
                    // compound assignment).
                    let rhs = if punct(i + 1) == Some('=') {
                        i + 2
                    } else {
                        i + 1
                    };
                    let lhs_name = ident(i - 1).filter(|n| is_seq_space_ident(n));
                    let rhs_name = ident(rhs).filter(|n| is_seq_space_ident(n));
                    if let Some(name) = lhs_name.or(rhs_name) {
                        push_at(
                            line,
                            "wraparound-arithmetic",
                            format!(
                                "raw `{op}` on sequence-space value `{name}`; u32 \
                                 seq/ack/offset math must use wrapping_*/checked_* to \
                                 survive wraparound"
                            ),
                        );
                    }
                }
            }
        }
    }

    // --- AST-backed rules. ---
    let parsed = ast::parse(&code);
    if scope.pipeline {
        for f in &parsed.fns {
            for m in &f.matches {
                sig_match_findings(path, m, ctx, &mut raw);
            }
        }
    }

    FileScan {
        path: path.to_string(),
        raw,
        waivers,
        code,
        parsed,
    }
}

/// The `Signature` enum's variant names, parsed from the source of
/// `signature.rs` — what [`sig_match_findings`] uses to recognize
/// `use Signature::*`-style arms. Empty when the file declares no
/// `enum Signature`.
pub fn signature_variant_names(src: &str) -> BTreeSet<String> {
    let code: Vec<Tok> = strip_test_modules(lex(src))
        .into_iter()
        .filter(|t| !t.kind.is_comment())
        .collect();
    let ident = |i: usize, want: &str| matches!(code.get(i).map(|t| &t.kind), Some(TokKind::Ident(s)) if s == want);
    let Some(open) = (0..code.len()).find(|&i| {
        ident(i, "enum")
            && ident(i + 1, "Signature")
            && matches!(code.get(i + 2).map(|t| &t.kind), Some(TokKind::Punct('{')))
    }) else {
        return BTreeSet::new();
    };
    // Variants are the first ident after the opening brace or a depth-0
    // comma; attribute and payload tokens sit one bracket deeper.
    let mut names = BTreeSet::new();
    let mut depth = 0usize;
    let mut expect_variant = true;
    for t in &code[open + 3..] {
        match &t.kind {
            TokKind::Punct('}') if depth == 0 => break,
            TokKind::Punct('{' | '(' | '[') => depth += 1,
            TokKind::Punct('}' | ')' | ']') => depth = depth.saturating_sub(1),
            TokKind::Punct(',') if depth == 0 => expect_variant = true,
            TokKind::Ident(v) if depth == 0 && expect_variant => {
                names.insert(v.clone());
                expect_variant = false;
            }
            _ => {}
        }
    }
    names
}

/// The exhaustive-signature-match rule for one `match` expression: if any
/// arm pattern names the `Signature` type or one of its variants, the
/// match is "on Signature" and may use neither `_` wildcards nor catch-all
/// bindings — adding a 20th signature must fail this gate, not silently
/// fall into a bucket. `name @ (V1 | V2 | …)` keeps a binding while
/// staying exhaustive.
fn sig_match_findings(path: &str, m: &ast::MatchExpr, ctx: &ScanCtx, raw: &mut Vec<Finding>) {
    // Evidence that the match is over `Signature`: the type name itself,
    // or a bare (un-path-qualified) variant name — `Vendor::SynRst` is
    // another enum that happens to share a variant name, and must not
    // count; `Signature::SynRst` already counts via the `Signature` ident.
    let on_signature = m.arms.iter().any(|arm| {
        arm.pat.iter().enumerate().any(|(k, t)| {
            if !t.ident {
                return false;
            }
            if t.text == "Signature" {
                return true;
            }
            let path_qualified = k >= 2 && arm.pat[k - 1].text == ":" && arm.pat[k - 2].text == ":";
            ctx.signature_variants.contains(&t.text) && !path_qualified
        })
    });
    if !on_signature {
        return;
    }
    for arm in &m.arms {
        for (k, t) in arm.pat.iter().enumerate() {
            if !t.ident {
                continue;
            }
            if t.text == "_" {
                raw.push(Finding::new(
                    path,
                    t.line,
                    "exhaustive-signature-match",
                    "`_` wildcard in a match over Signature; enumerate every variant so \
                     a new signature fails the gate instead of silently misclassifying"
                        .to_string(),
                ));
                continue;
            }
            // A lowercase bare ident that is not a path segment and not an
            // `@`-binding is a catch-all binding.
            let lowercase_start = t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase());
            if !lowercase_start || NON_BINDING_PATTERN_IDENTS.contains(&t.text.as_str()) {
                continue;
            }
            let at_binding = arm
                .pat
                .get(k + 1)
                .is_some_and(|n| !n.ident && n.text == "@");
            let path_segment = k >= 2 && arm.pat[k - 1].text == ":" && arm.pat[k - 2].text == ":";
            if !at_binding && !path_segment {
                raw.push(Finding::new(
                    path,
                    t.line,
                    "exhaustive-signature-match",
                    format!(
                        "catch-all binding `{}` in a match over Signature; enumerate \
                         every variant (`{} @ (V1 | V2 | …)` keeps the binding)",
                        t.text, t.text
                    ),
                ));
            }
        }
    }
}

/// Apply a file's waivers to its surviving raw findings. Called by the
/// pipeline after the cross-file phases have added transitive findings
/// and retired unreachable ones, so unused waivers surface accurately.
pub fn apply_waivers(
    path: &str,
    raw: Vec<Finding>,
    waivers: &[(Waiver, BTreeSet<u32>)],
) -> FileLint {
    let mut used = vec![false; waivers.len()];
    let mut out = FileLint::default();
    for f in raw {
        let w = waivers
            .iter()
            .position(|(w, covered)| w.rule == f.rule && covered.contains(&f.line));
        match w {
            Some(idx) => {
                used[idx] = true;
                out.waived.push(f);
            }
            None => out.findings.push(f),
        }
    }
    for (idx, (w, _)) in waivers.iter().enumerate() {
        if !used[idx] {
            out.findings.push(Finding::new(
                path,
                w.line,
                "waiver",
                format!(
                    "unused waiver for `{}`: no matching finding on this or the next \
                     code line — delete it",
                    w.rule
                ),
            ));
        }
    }
    out.findings.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    const WIRE: &str = "crates/wire/src/example.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src)
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn waiver_grammar_accepts_both_separators() {
        assert_eq!(
            parse_waiver(" tamperlint: allow(index) — checked above").unwrap(),
            Some(("index".into(), "checked above".into()))
        );
        assert_eq!(
            parse_waiver(" tamperlint: allow(panic) -- join propagates").unwrap(),
            Some(("panic".into(), "join propagates".into()))
        );
        assert_eq!(
            parse_waiver(" tamperlint: allow(hot-path-alloc) — best effort").unwrap(),
            Some(("hot-path-alloc".into(), "best effort".into()))
        );
        assert_eq!(parse_waiver(" ordinary comment").unwrap(), None);
    }

    #[test]
    fn waiver_grammar_rejects_missing_reason_and_unknown_rule() {
        assert!(parse_waiver("tamperlint: allow(index)").is_err());
        assert!(parse_waiver("tamperlint: allow(index) —  ").is_err());
        assert!(parse_waiver("tamperlint: allow(no-such-rule) — x").is_err());
        assert!(parse_waiver("tamperlint: allow(index — x").is_err());
        assert!(parse_waiver("tamperlint: deny(index) — x").is_err());
    }

    #[test]
    fn waiver_suppresses_next_code_line_only() {
        let src = "
            fn f(b: &[u8]) -> u8 {
                // tamperlint: allow(index) — caller guarantees length
                b[0]
            }
            fn g(b: &[u8]) -> u8 { b[1] }
        ";
        let lint = lint_source(WIRE, src);
        assert_eq!(lint.waived.len(), 1);
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, "index");
        assert_eq!(lint.findings[0].line, 6);
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let src = "
            // tamperlint: allow(panic) — stale excuse
            fn f() {}
        ";
        let lint = lint_source(WIRE, src);
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, "waiver");
        assert!(lint.findings[0].message.contains("unused waiver"));
    }

    #[test]
    fn index_rule_ignores_patterns_types_and_macros() {
        let src = "
            fn f(c: &[u8]) -> u32 {
                if let &[a, b] = c { return u32::from(a) + u32::from(b); }
                let [x] = [0u8; 1];
                let v: Vec<u8> = vec![1, 2];
                u32::from(x) + v.len() as u32
            }
        ";
        assert!(rules_fired(WIRE, src).is_empty());
    }

    #[test]
    fn thread_containment_flags_pipeline_crates_but_not_the_engine() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(rules_fired("crates/worldgen/src/driver.rs", src).contains(&"thread-containment"));
        let std_src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(rules_fired("crates/analysis/src/x.rs", std_src).contains(&"thread-containment"));
        // The engine is the one sanctioned home for the thread topology.
        assert!(!rules_fired("crates/capture/src/engine.rs", src).contains(&"thread-containment"));
        // Reading the core count is not spawning.
        let par = "fn f() { let _ = std::thread::available_parallelism(); }";
        assert!(!rules_fired("crates/worldgen/src/driver.rs", par).contains(&"thread-containment"));
    }

    #[test]
    fn scopes_are_path_sensitive() {
        let src = "fn f(b: &[u8]) -> u8 { b[0] }";
        assert!(!rules_fired(WIRE, src).is_empty());
        // Same code outside the untrusted-input surface: no finding.
        assert!(rules_fired("crates/analysis/src/x.rs", src).is_empty());
        // tamper-obs measures wall-clock by design: no pipeline rule
        // applies to it.
        let timed = "fn f() { let _ = (Instant::now(), Vec::<u8>::new(), thread_rng()); }";
        assert!(!rules_fired("crates/core/src/x.rs", timed).is_empty());
        assert!(rules_fired("crates/obs/src/lib.rs", timed).is_empty());
    }

    #[test]
    fn wraparound_flags_raw_seq_space_ops_only() {
        let src = "
            fn f(seq: u32, isn: u32, len: u32) -> u32 {
                let rel = seq - isn;
                let next_seq = seq.wrapping_add(len);
                let total = len + 4;
                next_seq + rel
            }
        ";
        let lint = lint_source(WIRE, src);
        let wraps: Vec<u32> = lint
            .findings
            .iter()
            .filter(|f| f.rule == "wraparound-arithmetic")
            .map(|f| f.line)
            .collect();
        // `seq - isn` and `next_seq + rel`; the wrapping_add and the
        // len-only arithmetic are fine.
        assert_eq!(wraps, vec![3, 6]);
    }

    #[test]
    fn wraparound_ignores_unary_arrows_and_non_seq_names() {
        let src = "
            fn g(count: u32) -> i32 { -1 }
            fn h(seq_len: usize, n: usize) -> usize { seq_len * n }
        ";
        // `-1` is unary; `seq_len` ends in `len`, not a tracked segment.
        assert!(rules_fired(WIRE, src).is_empty());
        // Outside wire/core the rule does not apply at all.
        let raw = "fn f(seq: u32) -> u32 { seq + 1 }";
        assert!(rules_fired("crates/worldgen/src/x.rs", raw).is_empty());
    }

    #[test]
    fn wraparound_flags_compound_assignment() {
        let src = "fn f(len: u32, st: &mut St) { st.next_seq += len; }";
        let lint = lint_source("crates/core/src/x.rs", src);
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, "wraparound-arithmetic");
    }

    #[test]
    fn signature_variants_come_from_the_real_enum() {
        let names = signature_variant_names(include_str!("../../core/src/signature.rs"));
        assert_eq!(names.len(), 19);
        assert!(names.contains("SynNone") && names.contains("DataRstAck"));
        // Stage's variants are a different enum.
        assert!(!names.contains("PostSyn"));
        assert!(signature_variant_names("enum Stage { A, B }").is_empty());
    }

    #[test]
    fn sig_match_flags_wildcards_and_bindings_but_not_at_bindings() {
        let src = "
            fn f(sig: Signature) -> u8 {
                match sig {
                    Signature::SynRst => 1,
                    s @ (Signature::AckRst | Signature::PshRst) => 2,
                    other => 0,
                }
            }
            fn g(sig: Option<Signature>) -> u8 {
                match sig {
                    Some(Signature::SynRst) => 1,
                    Some(_) => 2,
                    None => 0,
                }
            }
            fn unrelated(n: Option<u32>) -> u32 {
                match n { Some(v) => v, _ => 0 }
            }
        ";
        let path = "crates/core/src/x.rs";
        let lint = lint_source(path, src);
        let fired: Vec<(u32, &str)> = lint
            .findings
            .iter()
            .filter(|f| f.rule == "exhaustive-signature-match")
            .map(|f| (f.line, f.rule))
            .collect();
        // `other` (line 6) and `Some(_)` (line 12); the `s @ (…)` binding
        // and the non-Signature match are fine.
        assert_eq!(
            fired,
            vec![
                (6, "exhaustive-signature-match"),
                (12, "exhaustive-signature-match"),
            ]
        );
    }
}
