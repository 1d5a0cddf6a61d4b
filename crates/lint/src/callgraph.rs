//! The intra-workspace call graph and the reachability analyses built on
//! it.
//!
//! Resolution is name-based and deliberately over-approximate — when in
//! doubt an edge is added, because the graph's consumers are *exemption*
//! analyses: the panic/index rules drop findings only in functions proven
//! unreachable from an untrusted-input root, and the containment rules add
//! findings only along a concrete path to an ambient sink. A spurious edge
//! therefore keeps a finding alive or stays silent; it never hides one.
//!
//! Resolution rules for a call to `f`:
//! - `q::f(…)` — candidates whose impl owner is `q` **or** whose file stem
//!   is `q` (`pcap::read_all`). A qualifier matching no known owner/stem
//!   (e.g. `Vec`, `Option`) produces **no** edge.
//! - `Self::f(…)` — candidates sharing the caller's impl owner.
//! - `.f(…)` — every receiver-taking function named `f` with matching
//!   arity; narrowed to the enclosing type for `self.f(…)` and to the
//!   receiver's type when a `let x: T` / `let x = T::…` binding or a
//!   parameter annotation makes it locally apparent.
//! - bare `f(…)` — free functions anywhere plus same-file functions.

use crate::effects::Effect;
use crate::lexer::{Tok, TokKind};
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The kinds of ambient sink the containment rules track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// `Instant::now` / `SystemTime::now`.
    Clock,
    /// `thread_rng`, `from_entropy`, `OsRng`, `getrandom`, `rand::random`.
    Rng,
    /// `thread::spawn`, `thread::scope`.
    Thread,
}

impl SinkKind {
    /// Every kind, in reporting order.
    pub const ALL: [SinkKind; 3] = [SinkKind::Clock, SinkKind::Rng, SinkKind::Thread];

    /// The rule a finding of this kind reports under, the effect a sink
    /// gives its function, and the path prefix of the kind's sanctioned
    /// home: tamper-obs owns the clock/rng reads, `capture::engine` owns
    /// the one reader/shard/merge thread topology (the worldgen driver
    /// once carried a second shard loop — the `Thread` row keeps it from
    /// coming back).
    fn row(self) -> (&'static str, Effect, &'static str) {
        match self {
            SinkKind::Clock => ("ambient-clock", Effect::ReadsClock, "crates/obs/"),
            SinkKind::Rng => ("ambient-rng", Effect::ReadsRng, "crates/obs/"),
            SinkKind::Thread => (
                "thread-containment",
                Effect::SpawnsThread,
                "crates/capture/src/engine.rs",
            ),
        }
    }

    /// The rule id, for textual and transitive findings alike.
    pub fn rule(self) -> &'static str {
        self.row().0
    }

    /// The effect a sink of this kind contributes.
    pub fn effect(self) -> Effect {
        self.row().1
    }

    /// Is `path` this kind's sanctioned home? Sinks there are
    /// effect-transparent: no finding, no direct effect.
    pub fn sanctioned(self, path: &str) -> bool {
        path.starts_with(self.row().2)
    }
}

const CLOCK_MSG: &str =
    "{}() reads the ambient clock; thread timestamps through the simulated clock instead";
const RNG_MSG: &str = "{} draws ambient randomness; use a seeded generator";
const SPAWN_MSG: &str = "thread spawning outside capture::engine: route parallel work \
                         through the unified engine instead of a bespoke pool";

/// The sink vocabulary: `(head, tail, kind, message)`. A row matches the
/// path `head::tail`, or any mention of the bare `head` identifier when
/// `tail` is `None`; `{}` in the message stands for the matched path.
const SINKS: [(&str, Option<&str>, SinkKind, &str); 9] = [
    ("Instant", Some("now"), SinkKind::Clock, CLOCK_MSG),
    ("SystemTime", Some("now"), SinkKind::Clock, CLOCK_MSG),
    ("thread_rng", None, SinkKind::Rng, RNG_MSG),
    ("from_entropy", None, SinkKind::Rng, RNG_MSG),
    ("OsRng", None, SinkKind::Rng, RNG_MSG),
    ("getrandom", None, SinkKind::Rng, RNG_MSG),
    ("rand", Some("random"), SinkKind::Rng, RNG_MSG),
    ("thread", Some("spawn"), SinkKind::Thread, SPAWN_MSG),
    ("thread", Some("scope"), SinkKind::Thread, SPAWN_MSG),
];

/// One ambient sink found in the token stream.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Sink family.
    pub kind: SinkKind,
    /// 1-based source line.
    pub line: u32,
    /// What was called, for messages (`Instant::now`, `thread::spawn`, …).
    pub what: String,
    /// The textual finding's message for this sink.
    pub message: String,
}

/// The sink whose pattern starts at code token `i`, if any.
pub fn sink_at(code: &[Tok], i: usize) -> Option<Sink> {
    let ident = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let colon = |i: usize| matches!(code.get(i).map(|t| &t.kind), Some(TokKind::Punct(':')));
    let head = ident(i)?;
    let (_, tail, kind, message) = SINKS.iter().find(|(h, tail, _, _)| {
        *h == head && tail.is_none_or(|t| colon(i + 1) && colon(i + 2) && ident(i + 3) == Some(t))
    })?;
    let what = match tail {
        Some(t) => format!("{head}::{t}"),
        None => head.to_string(),
    };
    Some(Sink {
        kind: *kind,
        line: code[i].line,
        message: message.replace("{}", &what),
        what,
    })
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee function id.
    pub callee: usize,
    /// 1-based line of the call site in the caller.
    pub line: u32,
}

/// The resolved call graph over a [`SymbolTable`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per function id, sorted by callee, deduplicated
    /// (first call site wins).
    pub out: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Resolve every call in the table into edges.
    pub fn build(sym: &SymbolTable) -> CallGraph {
        let n = sym.fns.len();
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for (i, f) in sym.fns.iter().enumerate() {
            for call in &f.def.calls {
                let cands = sym.named(&call.name);
                let mut targets: Vec<usize> = Vec::new();
                if call.method {
                    // `.f(…)` can only land on a function that takes a
                    // receiver, and Rust has no overloading, so the
                    // argument count must also match the candidate's arity.
                    let viable: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&j| {
                            let c = &sym.fns[j].def;
                            c.params.first().is_some_and(|p| p.contains("Self"))
                                && c.params.len() - 1 == call.args
                        })
                        .collect();
                    if call.recv_self && f.def.owner.is_some() {
                        // `self.f(...)` dispatches on the enclosing type:
                        // prefer candidates sharing the owner, the owner's
                        // trait impls (trait-default bodies fanning to
                        // implementors), or the trait the owner implements.
                        let own: Vec<usize> = viable
                            .iter()
                            .copied()
                            .filter(|&j| {
                                let c = &sym.fns[j].def;
                                c.owner == f.def.owner
                                    || c.trait_of == f.def.owner
                                    || (f.def.trait_of.is_some() && c.owner == f.def.trait_of)
                            })
                            .collect();
                        if own.is_empty() {
                            // Method lives outside the owner's impl/trait
                            // surface — fall back to receiver-taking fan-out.
                            targets.extend(viable);
                        } else {
                            targets.extend(own);
                        }
                    } else if let Some(t) = &call.recv_type {
                        // The receiver's type is locally apparent: keep
                        // candidates on that type (or implementing a trait
                        // for it), falling back to fan-out when none match.
                        let typed: Vec<usize> = viable
                            .iter()
                            .copied()
                            .filter(|&j| {
                                let c = &sym.fns[j].def;
                                c.owner.as_deref() == Some(t.as_str())
                                    || c.trait_of.as_deref() == Some(t.as_str())
                            })
                            .collect();
                        if typed.is_empty() {
                            targets.extend(viable);
                        } else {
                            targets.extend(typed);
                        }
                    } else {
                        targets.extend(viable);
                    }
                } else if let Some(q) = &call.qualifier {
                    if q == "Self" {
                        targets.extend(cands.iter().copied().filter(|&j| {
                            sym.fns[j].def.owner.is_some() && sym.fns[j].def.owner == f.def.owner
                        }));
                    } else {
                        targets.extend(cands.iter().copied().filter(|&j| {
                            sym.fns[j].def.owner.as_deref() == Some(q.as_str())
                                || sym.fns[j].stem == *q
                        }));
                    }
                } else {
                    targets.extend(
                        cands.iter().copied().filter(|&j| {
                            sym.fns[j].def.owner.is_none() || sym.fns[j].file == f.file
                        }),
                    );
                }
                for t in targets {
                    if t != i {
                        out[i].push(Edge {
                            callee: t,
                            line: call.line,
                        });
                    }
                }
            }
            out[i].sort_by_key(|e| (e.callee, e.line));
            out[i].dedup_by_key(|e| e.callee);
        }
        CallGraph { out }
    }

    /// Forward closure of `roots`, restricted to the `allowed` subgraph —
    /// edges leaving `allowed` are not followed, and do not re-enter.
    pub fn reachable(
        &self,
        roots: impl IntoIterator<Item = usize>,
        allowed: &BTreeSet<usize>,
    ) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.into_iter().filter(|i| allowed.contains(i)).collect();
        let mut queue: VecDeque<usize> = seen.iter().copied().collect();
        while let Some(i) = queue.pop_front() {
            for e in &self.out[i] {
                if allowed.contains(&e.callee) && seen.insert(e.callee) {
                    queue.push_back(e.callee);
                }
            }
        }
        seen
    }

    /// Forward closure of `roots` restricted to `allowed`, keeping the
    /// BFS tree: for every reached non-root function, the caller it was
    /// first discovered from. Deterministic (queue order over sorted
    /// adjacency → shortest chain, lowest id ties). Used by the hot-path
    /// allocation gate to print how an allocation site is reached.
    pub fn reachable_with_parents(
        &self,
        roots: impl IntoIterator<Item = usize>,
        allowed: &BTreeSet<usize>,
    ) -> BTreeMap<usize, Option<usize>> {
        let mut seen: BTreeMap<usize, Option<usize>> = roots
            .into_iter()
            .filter(|i| allowed.contains(i))
            .map(|i| (i, None))
            .collect();
        let mut queue: VecDeque<usize> = seen.keys().copied().collect();
        while let Some(i) = queue.pop_front() {
            for e in &self.out[i] {
                if allowed.contains(&e.callee) && !seen.contains_key(&e.callee) {
                    seen.insert(e.callee, Some(i));
                    queue.push_back(e.callee);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::{lex, strip_test_modules};
    use crate::symbols::SymbolTable;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        let parsed: Vec<_> = files
            .iter()
            .map(|(path, src)| {
                let code: Vec<_> = strip_test_modules(lex(src))
                    .into_iter()
                    .filter(|t| !t.kind.is_comment())
                    .collect();
                (path.to_string(), ast::parse(&code))
            })
            .collect();
        SymbolTable::build(&parsed)
    }

    fn id(sym: &SymbolTable, name: &str) -> usize {
        sym.named(name)[0]
    }

    #[test]
    fn qualified_calls_resolve_by_owner_or_stem_only() {
        let sym = table(&[
            (
                "crates/a/src/entry.rs",
                "fn go(x: u8) { pcap::read_all(x); Packet::parse(x); Vec::with_capacity(4); }",
            ),
            (
                "crates/a/src/pcap.rs",
                "pub fn read_all(x: u8) {}\npub fn with_capacity(n: usize) {}",
            ),
            (
                "crates/b/src/packet.rs",
                "impl Packet { pub fn parse(x: u8) {} }",
            ),
        ]);
        let g = CallGraph::build(&sym);
        let callees: Vec<usize> = g.out[id(&sym, "go")].iter().map(|e| e.callee).collect();
        assert!(callees.contains(&id(&sym, "read_all")), "stem-qualified");
        assert!(callees.contains(&id(&sym, "parse")), "owner-qualified");
        // `Vec::with_capacity` must NOT edge to the unrelated free fn:
        // `Vec` matches no known owner or file stem.
        assert!(!callees.contains(&id(&sym, "with_capacity")));
    }

    #[test]
    fn reachability_is_confined_to_the_allowed_subgraph() {
        let sym = table(&[
            (
                "crates/a/src/r.rs",
                "pub fn parse_x(b: &[u8]) { helper(); }",
            ),
            (
                "crates/a/src/h.rs",
                "pub fn helper() { outside(); }\npub fn emit() { helper(); }",
            ),
            ("crates/b/src/o.rs", "pub fn outside() {}"),
        ]);
        let g = CallGraph::build(&sym);
        let allowed: BTreeSet<usize> =
            [id(&sym, "parse_x"), id(&sym, "helper"), id(&sym, "emit")].into();
        let seen = g.reachable([id(&sym, "parse_x")], &allowed);
        assert!(seen.contains(&id(&sym, "helper")));
        // `outside` is off the surface; `emit` calls helper but is not
        // itself reachable from the root.
        assert!(!seen.contains(&id(&sym, "outside")));
        assert!(!seen.contains(&id(&sym, "emit")));
    }

    #[test]
    fn sink_scan_finds_all_three_kinds() {
        let src = "
            fn f() {
                let t = Instant::now();
                let r = thread_rng();
                std::thread::spawn(|| {});
            }
        ";
        let code: Vec<Tok> = lex(src)
            .into_iter()
            .filter(|t| !t.kind.is_comment())
            .collect();
        let kinds: Vec<SinkKind> = (0..code.len())
            .filter_map(|i| sink_at(&code, i))
            .map(|s| s.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![SinkKind::Clock, SinkKind::Rng, SinkKind::Thread]
        );
    }
}
