//! The interprocedural effect-summary engine.
//!
//! One bottom-up pass over the call graph — Tarjan's SCC condensation,
//! so recursion converges without iteration — computes a per-function
//! [`EffectSet`]: everything a function may do, directly or through any
//! call chain. The five containment rules query these summaries instead
//! of re-walking the graph per rule, and two rule families exist *only*
//! because summaries do:
//!
//! * **purity-audit** — every entry in the `PURE_ROOTS` registry (the
//!   classify→aggregate→report path) must have an empty
//!   determinism-relevant effect set. This turns the runtime
//!   byte-identity tests into a static proof: no clock, no rng, no
//!   thread, no unordered-map iteration, no IO, no global mutation, and
//!   no `Unknown` (unresolved call or unparsed body) anywhere in the
//!   transitive closure.
//! * **unbounded-growth** — an insertion into a long-lived collection
//!   field (`self.<field>.push/insert/entry/extend` on a type that
//!   survives across `process`/`absorb`-style calls) with no eviction,
//!   clear, or cap on the same field anywhere in the owner's impl
//!   surface.
//!
//! The engine fails closed: a file the parser lost sync on marks every
//! one of its functions `Unknown`, and a call whose qualifier names a
//! workspace module/type/crate but resolves to no symbol marks the
//! *caller* `Unknown` (the callee could do anything).

use crate::callgraph::{CallGraph, SinkKind};
use crate::lexer::{Tok, TokKind};
use crate::rules::Finding;
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet};

/// One effect a function may have. Bit positions index into
/// [`Effect::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Performs a fresh heap allocation.
    Allocates,
    /// Reads a wall/monotonic clock (outside the sanctioned obs home).
    ReadsClock,
    /// Draws ambient randomness (outside the sanctioned obs home).
    ReadsRng,
    /// Can panic (`unwrap`, `expect`, `panic!`, …).
    MayPanic,
    /// Spawns or scopes a thread (outside `capture::engine`).
    SpawnsThread,
    /// Touches a `HashMap`/`HashSet` (iteration order is unordered).
    IteratesUnorderedMap,
    /// Performs input/output (`println!`, `std::fs`, stdio handles).
    PerformsIo,
    /// Mutates global state (`set_var`, atomics on `STATIC` receivers).
    MutatesGlobal,
    /// Fail-closed: unparsed body or a dropped workspace call edge.
    Unknown,
}

impl Effect {
    /// Every effect, in bit order.
    pub const ALL: [Effect; 9] = [
        Effect::Allocates,
        Effect::ReadsClock,
        Effect::ReadsRng,
        Effect::MayPanic,
        Effect::SpawnsThread,
        Effect::IteratesUnorderedMap,
        Effect::PerformsIo,
        Effect::MutatesGlobal,
        Effect::Unknown,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Allocates => "Allocates",
            Effect::ReadsClock => "ReadsClock",
            Effect::ReadsRng => "ReadsRng",
            Effect::MayPanic => "MayPanic",
            Effect::SpawnsThread => "SpawnsThread",
            Effect::IteratesUnorderedMap => "IteratesUnorderedMap",
            Effect::PerformsIo => "PerformsIo",
            Effect::MutatesGlobal => "MutatesGlobal",
            Effect::Unknown => "Unknown",
        }
    }

    fn bit(self) -> u16 {
        1 << (Effect::ALL.iter().position(|e| *e == self).unwrap_or(0) as u16)
    }
}

/// A set of [`Effect`]s, as a bitset. The lattice the fixpoint runs on:
/// join is union, bottom is the empty set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet(pub u16);

impl EffectSet {
    /// The empty (pure) set.
    pub const EMPTY: EffectSet = EffectSet(0);

    /// The determinism-relevant subset the purity audit forbids.
    /// `Allocates` is excluded (allocation is deterministic) and so is
    /// `MayPanic` (covered by the dedicated panic/index rules).
    pub fn purity_mask() -> EffectSet {
        EffectSet(
            Effect::ReadsClock.bit()
                | Effect::ReadsRng.bit()
                | Effect::SpawnsThread.bit()
                | Effect::IteratesUnorderedMap.bit()
                | Effect::PerformsIo.bit()
                | Effect::MutatesGlobal.bit()
                | Effect::Unknown.bit(),
        )
    }

    /// Add one effect.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    /// Union in another set.
    pub fn union(&mut self, other: EffectSet) {
        self.0 |= other.0;
    }

    /// Membership test.
    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    /// Intersection.
    pub fn intersect(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & other.0)
    }

    /// True when no effect is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The member effects, in bit order.
    pub fn iter(self) -> impl Iterator<Item = Effect> {
        Effect::ALL.into_iter().filter(move |e| self.contains(*e))
    }

    /// Display as `{A, B}`.
    pub fn render(self) -> String {
        let names: Vec<&str> = self.iter().map(Effect::name).collect();
        format!("{{{}}}", names.join(", "))
    }
}

/// One direct-effect site in a function body, for witness messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSite {
    /// The effect observed.
    pub effect: Effect,
    /// 1-based source line.
    pub line: u32,
    /// What was seen (`Instant::now`, `println!`, a dropped call name…).
    pub what: String,
}

/// Macro names whose invocation is terminal-or-process IO. `write!` /
/// `writeln!` are deliberately absent: report rendering targets
/// in-memory `String`s with them.
const IO_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

/// Identifiers that reach the filesystem or the process's stdio.
const IO_IDENTS: [&str; 6] = [
    "stdin",
    "stdout",
    "stderr",
    "OpenOptions",
    "read_to_string",
    "remove_file",
];

/// Macro names that unconditionally panic when reached.
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Method names that mutate a `static` atomic/cell receiver.
const GLOBAL_MUT_METHODS: [&str; 7] = [
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "swap",
    "get_or_init",
];

/// Unordered-map type names (their presence in a body taints iteration
/// order; the pipeline's own determinism rule is `map-iter`, this is the
/// effect-lattice view of the same hazard).
const MAP_IDENTS: [&str; 3] = ["HashMap", "HashSet", "hash_map"];

/// True for `SCREAMING_CASE` identifiers (a `static` receiver).
fn is_screaming(name: &str) -> bool {
    name.len() > 1
        && name.contains(|c: char| c.is_ascii_uppercase())
        && !name.contains(|c: char| c.is_ascii_lowercase())
}

/// Scan one body's token range for direct effects *not* covered by the
/// sink scanner ([`crate::callgraph::sink_at`]) or the allocation
/// scanner ([`crate::dataflow::alloc_sites`]): panics, IO, global
/// mutation, and unordered-map use.
pub fn direct_effect_sites(code: &[Tok], start: usize, end: usize) -> Vec<EffectSite> {
    let ident = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    };
    let mut out = Vec::new();
    // Indexed loop: the matchers look ahead (`i + 1`, `i + 2`) and behind.
    #[allow(clippy::needless_range_loop)]
    for i in start..end.min(code.len()) {
        let Some(name) = ident(i) else { continue };
        let line = code[i].line;
        let bang = punct(i + 1) == Some('!');
        if bang && PANIC_MACROS.contains(&name) {
            out.push(EffectSite {
                effect: Effect::MayPanic,
                line,
                what: format!("{name}!"),
            });
        }
        if (name == "unwrap" || name == "expect") && punct(i.wrapping_sub(1)) == Some('.') {
            out.push(EffectSite {
                effect: Effect::MayPanic,
                line,
                what: format!(".{name}()"),
            });
        }
        if bang && IO_MACROS.contains(&name) {
            out.push(EffectSite {
                effect: Effect::PerformsIo,
                line,
                what: format!("{name}!"),
            });
        }
        if IO_IDENTS.contains(&name)
            || (name == "fs" && punct(i + 1) == Some(':') && punct(i + 2) == Some(':'))
            || (name == "File" && punct(i + 1) == Some(':') && punct(i + 2) == Some(':'))
        {
            out.push(EffectSite {
                effect: Effect::PerformsIo,
                line,
                what: name.to_string(),
            });
        }
        if name == "set_var" {
            out.push(EffectSite {
                effect: Effect::MutatesGlobal,
                line,
                what: "set_var".to_string(),
            });
        }
        if is_screaming(name) && punct(i + 1) == Some('.') {
            if let Some(m) = ident(i + 2) {
                if GLOBAL_MUT_METHODS.contains(&m) {
                    out.push(EffectSite {
                        effect: Effect::MutatesGlobal,
                        line,
                        what: format!("{name}.{m}"),
                    });
                }
            }
        }
        if MAP_IDENTS.contains(&name) {
            out.push(EffectSite {
                effect: Effect::IteratesUnorderedMap,
                line,
                what: name.to_string(),
            });
        }
    }
    out
}

/// Per-function effect summaries over a call graph: `direct` is what the
/// body does itself, `total` the fixpoint over the SCC condensation
/// (what the function may do through any call chain).
#[derive(Debug, Default)]
pub struct Summaries {
    /// Direct effects per function id.
    pub direct: Vec<EffectSet>,
    /// Transitive effects per function id (the fixpoint).
    pub total: Vec<EffectSet>,
    /// Direct-effect sites per function id, for witness messages.
    pub sites: Vec<Vec<EffectSite>>,
}

impl Summaries {
    /// Run the bottom-up fixpoint. Tarjan pops SCCs callee-first, so a
    /// single pass in pop order suffices: each SCC's total is the union
    /// of its members' direct effects and every callee SCC's total —
    /// recursion (members of one SCC) converges by construction.
    pub fn compute(
        graph: &CallGraph,
        direct: Vec<EffectSet>,
        sites: Vec<Vec<EffectSite>>,
    ) -> Summaries {
        let n = graph.out.len();
        debug_assert_eq!(direct.len(), n);
        let sccs = tarjan_sccs(graph);
        let mut scc_of = vec![0usize; n];
        for (ci, members) in sccs.iter().enumerate() {
            for &m in members {
                scc_of[m] = ci;
            }
        }
        // Pop order is callee-closed: every edge leaving an SCC lands in
        // an SCC popped earlier.
        let mut scc_total: Vec<EffectSet> = vec![EffectSet::EMPTY; sccs.len()];
        for (ci, members) in sccs.iter().enumerate() {
            let mut acc = EffectSet::EMPTY;
            for &m in members {
                acc.union(direct[m]);
                for e in &graph.out[m] {
                    let callee_scc = scc_of[e.callee];
                    if callee_scc != ci {
                        acc.union(scc_total[callee_scc]);
                    }
                }
            }
            scc_total[ci] = acc;
        }
        let total: Vec<EffectSet> = (0..n).map(|i| scc_total[scc_of[i]]).collect();
        Summaries {
            direct,
            total,
            sites,
        }
    }

    /// Materialize a witness path from `fid` to a function with a direct
    /// occurrence of `effect`: BFS over callees whose total carries the
    /// effect (deterministic: sorted adjacency, first-discovery wins).
    /// Returns the function-id chain (`fid` first, the direct carrier
    /// last) and the carrier's site.
    pub fn witness(
        &self,
        graph: &CallGraph,
        fid: usize,
        effect: Effect,
    ) -> (Vec<usize>, Option<&EffectSite>) {
        if self.direct[fid].contains(effect) {
            let site = self.sites[fid].iter().find(|s| s.effect == effect);
            return (vec![fid], site);
        }
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        queue.push_back(fid);
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        seen.insert(fid);
        while let Some(i) = queue.pop_front() {
            for e in &graph.out[i] {
                if !self.total[e.callee].contains(effect) || !seen.insert(e.callee) {
                    continue;
                }
                parent.insert(e.callee, i);
                if self.direct[e.callee].contains(effect) {
                    let mut chain = vec![e.callee];
                    let mut cur = e.callee;
                    while let Some(&p) = parent.get(&cur) {
                        chain.push(p);
                        cur = p;
                    }
                    chain.reverse();
                    let site = self.sites[e.callee].iter().find(|s| s.effect == effect);
                    return (chain, site);
                }
                queue.push_back(e.callee);
            }
        }
        (vec![fid], None)
    }
}

/// Tarjan's strongly-connected components, iteratively (explicit stacks;
/// fixture recursion chains must not overflow the linter's own stack).
/// SCCs are returned in pop order: callees before callers.
fn tarjan_sccs(graph: &CallGraph) -> Vec<Vec<usize>> {
    let n = graph.out.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Work frames: (node, next-edge-offset).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        work.push((start, 0));
        while let Some(&mut (v, ref mut ei)) = work.last_mut() {
            if *ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(e) = graph.out[v].get(*ei) {
                *ei += 1;
                let w = e.callee;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
                work.pop();
                if let Some(&mut (p, _)) = work.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    sccs
}

/// Resolve a registry entry against the symbol table: `owner` matches a
/// function's `impl` owner, the trait it implements, or — for free
/// functions — the defining file's stem.
pub fn resolve_root(sym: &SymbolTable, owner: &str, name: &str) -> Vec<usize> {
    sym.named(name)
        .iter()
        .copied()
        .filter(|&id| {
            let f = &sym.fns[id];
            f.def.owner.as_deref() == Some(owner)
                || f.def.trait_of.as_deref() == Some(owner)
                || (f.def.owner.is_none() && f.stem == owner)
        })
        .collect()
}

/// The root-registry drift check: every `HOT_ROOTS` / `PURE_ROOTS` entry
/// must still name a real function. An entry that resolves to nothing is
/// rename rot — the gate it anchors has silently stopped firing.
pub fn registry_findings(
    sym: &SymbolTable,
    registries: &[(&str, &[(&str, &str)])],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (registry, entries) in registries {
        for (owner, name) in *entries {
            if resolve_root(sym, owner, name).is_empty() {
                out.push(Finding::new(
                    "crates/lint/src/lib.rs",
                    0,
                    "root-registry",
                    format!(
                        "{registry} entry (\"{owner}\", \"{name}\") resolves to no function \
                         in the workspace symbol table — update the registry or restore \
                         the function"
                    ),
                ));
            }
        }
    }
    out
}

/// Emit the transitive containment findings: one per function whose
/// total — but not direct — effect set carries a [`SinkKind`]'s effect,
/// anchored on the call site that starts the witness chain to the sink.
/// A function with its own direct sink already carries the textual
/// finding and is not reported again.
pub fn containment_findings(
    sym: &SymbolTable,
    graph: &CallGraph,
    sums: &Summaries,
    in_scope: &dyn Fn(&str, SinkKind) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for kind in SinkKind::ALL {
        let effect = kind.effect();
        for (fid, f) in sym.fns.iter().enumerate() {
            if !sums.total[fid].contains(effect)
                || sums.direct[fid].contains(effect)
                || !in_scope(&f.file, kind)
            {
                continue;
            }
            let (chain, site) = sums.witness(graph, fid, effect);
            let Some(&next) = chain.get(1) else { continue };
            let line = graph.out[fid]
                .iter()
                .find(|e| e.callee == next)
                .map_or(0, |e| e.line);
            let path: Vec<&str> = chain[1..]
                .iter()
                .map(|&id| sym.fns[id].def.name.as_str())
                .collect();
            out.push(Finding::new(
                &f.file,
                line,
                kind.rule(),
                format!(
                    "{}() transitively reaches {} (in {}) via {}",
                    f.def.name,
                    site.map_or("ambient sink", |s| s.what.as_str()),
                    sym.fns[*chain.last().unwrap_or(&fid)].file,
                    path.join(" → ")
                ),
            ));
        }
    }
    out
}

/// Emit purity-audit findings: one per (resolved pure root, forbidden
/// effect), at the root's definition line, with a witness chain.
pub fn purity_findings(
    sym: &SymbolTable,
    graph: &CallGraph,
    sums: &Summaries,
    pure_roots: &[(&str, &str)],
    in_scope: &dyn Fn(&str) -> bool,
) -> Vec<Finding> {
    let mask = EffectSet::purity_mask();
    let mut out = Vec::new();
    for (owner, name) in pure_roots {
        for fid in resolve_root(sym, owner, name) {
            let f = &sym.fns[fid];
            if !in_scope(&f.file) {
                continue;
            }
            let impure = sums.total[fid].intersect(mask);
            for effect in impure.iter() {
                let (chain, site) = sums.witness(graph, fid, effect);
                let path: Vec<String> = chain
                    .iter()
                    .map(|&id| sym.fns[id].def.name.clone())
                    .collect();
                let carrier = *chain.last().unwrap_or(&fid);
                let evidence = match site {
                    Some(s) => format!("{} at {}:{}", s.what, sym.fns[carrier].file, s.line),
                    None => "effect inherited through the call graph".to_string(),
                };
                out.push(Finding::new(
                    &f.file,
                    f.def.start_line,
                    "purity-audit",
                    format!(
                        "pure root `{owner}::{name}` carries effect {}: via {} ({evidence}); \
                         the classify→aggregate→report path must stay a pure function of \
                         its inputs — remove the effect or waive with a reason",
                        effect.name(),
                        path.join(" → "),
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unbounded-growth
// ---------------------------------------------------------------------------

/// Method-name prefixes that mark a type as *long-lived*: its instances
/// survive across per-packet/per-flow calls, so its collection fields
/// accumulate for the life of the run (the state the upcoming `serve`
/// daemon keeps forever).
const LONG_LIVED_PREFIXES: [&str; 7] = [
    "process", "absorb", "observe", "fill", "record", "merge", "classify",
];

/// Collection methods that add entries.
const INSERT_METHODS: [&str; 8] = [
    "insert",
    "push",
    "push_back",
    "push_front",
    "entry",
    "extend",
    "extend_from_slice",
    "append",
];

/// Collection methods that remove entries (eviction evidence).
const EVICT_METHODS: [&str; 16] = [
    "clear",
    "remove",
    "remove_entry",
    "pop",
    "pop_back",
    "pop_front",
    "pop_first",
    "pop_last",
    "truncate",
    "drain",
    "retain",
    "retain_mut",
    "split_off",
    "swap_remove",
    "take",
    "dedup",
];

/// What one growth site does to its field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthKind {
    /// Adds an entry.
    Insert,
    /// Removes entries, reassigns, or `mem::take`s the field.
    Evict,
    /// Compares the field's `len()` (a cap check).
    Cap,
}

/// One `self.<field>` collection operation in a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthSite {
    /// The field operated on.
    pub field: String,
    /// 1-based source line.
    pub line: u32,
    /// Insert / evict / cap.
    pub kind: GrowthKind,
    /// Rendered operation, for messages (`push(…)`, `entry(…)`, …).
    pub what: String,
}

/// Scan one body's token range for `self.<field>` collection operations.
/// Handles an indexed hop (`self.wheel[b].push(…)` attributes to
/// `wheel`), field reassignment, and `mem::take(&mut self.<field>)`.
pub fn growth_sites(code: &[Tok], start: usize, end: usize) -> Vec<GrowthSite> {
    let ident = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize| match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    };
    let end = end.min(code.len());
    let mut out = Vec::new();
    for i in start..end {
        // `take ( & mut self . field` — mem::take resets the field.
        if ident(i) == Some("take")
            && punct(i + 1) == Some('(')
            && punct(i + 2) == Some('&')
            && ident(i + 3) == Some("mut")
            && ident(i + 4) == Some("self")
            && punct(i + 5) == Some('.')
        {
            if let Some(field) = ident(i + 6) {
                out.push(GrowthSite {
                    field: field.to_string(),
                    line: code[i].line,
                    kind: GrowthKind::Evict,
                    what: "mem::take".to_string(),
                });
            }
        }
        if ident(i) != Some("self") || punct(i + 1) != Some('.') {
            continue;
        }
        let Some(field) = ident(i + 2) else { continue };
        let line = code[i + 2].line;
        // Skip one balanced `[…]` hop so `self.wheel[b].push` lands on
        // `wheel`.
        let mut j = i + 3;
        if punct(j) == Some('[') {
            let mut depth = 0i32;
            while j < end {
                match punct(j) {
                    Some('[') => depth += 1,
                    Some(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if punct(j) == Some('=')
            && punct(j + 1) != Some('=')
            && punct(j.wrapping_sub(1)) != Some('=')
        {
            // Plain reassignment replaces the contents. (`==` is a
            // comparison; `+=` on a counter never reaches here because
            // the lexer emits `+` then `=` and the `+` fails the match.)
            out.push(GrowthSite {
                field: field.to_string(),
                line,
                kind: GrowthKind::Evict,
                what: "reassignment".to_string(),
            });
            continue;
        }
        if punct(j) != Some('.') {
            continue;
        }
        let Some(method) = ident(j + 1) else { continue };
        if punct(j + 2) != Some('(') {
            continue;
        }
        if INSERT_METHODS.contains(&method) {
            out.push(GrowthSite {
                field: field.to_string(),
                line,
                kind: GrowthKind::Insert,
                what: format!("{method}(…)"),
            });
        } else if EVICT_METHODS.contains(&method) {
            out.push(GrowthSite {
                field: field.to_string(),
                line,
                kind: GrowthKind::Evict,
                what: format!("{method}(…)"),
            });
        } else if method == "len" {
            // `self.f.len()` only counts as a cap when it feeds a
            // comparison (`self.f.len() >= cap`), not as a plain getter.
            let after = j + 4; // past `len ( )`
            let cmp = matches!(punct(after), Some('<') | Some('>'))
                || (punct(after) == Some('=') && punct(after + 1) == Some('='))
                || matches!(punct(i.wrapping_sub(1)), Some('<') | Some('>'));
            if cmp {
                out.push(GrowthSite {
                    field: field.to_string(),
                    line,
                    kind: GrowthKind::Cap,
                    what: "len() comparison".to_string(),
                });
            }
        }
    }
    out
}

/// Emit unbounded-growth findings: for every `(owner, field)` with an
/// insertion in a long-lived type and *no* eviction/cap evidence on the
/// same field anywhere in the workspace, one finding per insertion site
/// in growth-scoped files.
///
/// `per_fn_sites` aligns with `sym.fns`.
pub fn growth_findings(
    sym: &SymbolTable,
    per_fn_sites: &[Vec<GrowthSite>],
    in_scope: &dyn Fn(&str) -> bool,
) -> Vec<Finding> {
    // Owner → has a long-lived method anywhere in the workspace?
    let mut long_lived: BTreeSet<&str> = BTreeSet::new();
    for f in &sym.fns {
        if let Some(owner) = f.def.owner.as_deref() {
            if LONG_LIVED_PREFIXES
                .iter()
                .any(|p| f.def.name.starts_with(p))
            {
                long_lived.insert(owner);
            }
        }
    }
    // (owner, field) → (insert sites, evidence count).
    #[derive(Default)]
    struct FieldInfo<'a> {
        inserts: Vec<(&'a str, u32, &'a str)>, // (file, line, what)
        evidence: usize,
    }
    let mut fields: BTreeMap<(String, String), FieldInfo> = BTreeMap::new();
    for (fid, sites) in per_fn_sites.iter().enumerate() {
        let f = &sym.fns[fid];
        let Some(owner) = f.def.owner.as_deref() else {
            continue;
        };
        if !long_lived.contains(owner) {
            continue;
        }
        for s in sites {
            let info = fields
                .entry((owner.to_string(), s.field.clone()))
                .or_default();
            match s.kind {
                GrowthKind::Insert => info
                    .inserts
                    .push((f.file.as_str(), s.line, s.what.as_str())),
                GrowthKind::Evict | GrowthKind::Cap => info.evidence += 1,
            }
        }
    }
    let mut out = Vec::new();
    for ((owner, field), info) in &fields {
        if info.evidence > 0 {
            continue;
        }
        for (file, line, what) in &info.inserts {
            if !in_scope(file) {
                continue;
            }
            out.push(Finding::new(
                file,
                *line,
                "unbounded-growth",
                format!(
                    "`self.{field}.{what}` grows long-lived `{owner}.{field}` with no \
                     eviction, clear, or cap on the same field anywhere in the workspace \
                     — a long-running ingest accumulates this forever; bound it or waive \
                     with a reason"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_modules};

    fn code(src: &str) -> Vec<Tok> {
        strip_test_modules(lex(src))
            .into_iter()
            .filter(|t| !t.kind.is_comment())
            .collect()
    }

    #[test]
    fn effect_set_roundtrip() {
        let mut s = EffectSet::EMPTY;
        s.insert(Effect::ReadsClock);
        s.insert(Effect::Unknown);
        assert!(s.contains(Effect::ReadsClock));
        assert!(!s.contains(Effect::Allocates));
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.render(), "{ReadsClock, Unknown}");
    }

    #[test]
    fn direct_sites_cover_io_panic_global_map() {
        let toks = code(
            "fn f() {\n\
             println!(\"x\");\n\
             v.unwrap();\n\
             COUNTER.fetch_add(1, O);\n\
             let m: HashMap<u32, u32> = HashMap::new();\n\
             }",
        );
        let sites = direct_effect_sites(&toks, 0, toks.len());
        let effects: BTreeSet<Effect> = sites.iter().map(|s| s.effect).collect();
        assert!(effects.contains(&Effect::PerformsIo));
        assert!(effects.contains(&Effect::MayPanic));
        assert!(effects.contains(&Effect::MutatesGlobal));
        assert!(effects.contains(&Effect::IteratesUnorderedMap));
    }

    #[test]
    fn growth_sites_classify_insert_evict_cap() {
        let toks = code(
            "impl T { fn absorb(&mut self) {\n\
             self.flows.insert(k, v);\n\
             self.wheel[b].push(x);\n\
             if self.flows.len() >= self.cap { self.flows.remove(&k); }\n\
             self.scratch = fresh;\n\
             let old = std::mem::take(&mut self.buf);\n\
             } }",
        );
        let sites = growth_sites(&toks, 0, toks.len());
        let get = |field: &str, kind: GrowthKind| {
            sites
                .iter()
                .filter(|s| s.field == field && s.kind == kind)
                .count()
        };
        assert_eq!(get("flows", GrowthKind::Insert), 1);
        assert_eq!(get("wheel", GrowthKind::Insert), 1);
        assert_eq!(get("flows", GrowthKind::Cap), 1);
        assert_eq!(get("flows", GrowthKind::Evict), 1);
        assert_eq!(get("scratch", GrowthKind::Evict), 1);
        assert_eq!(get("buf", GrowthKind::Evict), 1);
    }
}
