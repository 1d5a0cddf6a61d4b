//! The interprocedural effect-summary engine.
//!
//! One bottom-up pass over the call graph — Tarjan's SCC condensation,
//! so recursion converges without iteration — computes a per-function
//! [`EffectSet`]: everything a function may do, directly or through any
//! call chain. The containment rules query these summaries instead of
//! re-walking the graph per rule, and the hot-path-alloc walk is skipped
//! outright when no hot root's summary carries [`Effect::Allocates`].

use crate::callgraph::{CallGraph, SinkKind};
use crate::rules::Finding;
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet};

/// One effect a function may have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Performs a fresh heap allocation.
    Allocates,
    /// Reads a wall/monotonic clock (outside the sanctioned obs home).
    ReadsClock,
    /// Draws ambient randomness (outside the sanctioned obs home).
    ReadsRng,
    /// Spawns or scopes a thread (outside `capture::engine`).
    SpawnsThread,
}

impl Effect {
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// A set of [`Effect`]s, as a bitset. The lattice the fixpoint runs on:
/// join is union, bottom is the empty set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet(pub u8);

impl EffectSet {
    /// The empty set.
    pub const EMPTY: EffectSet = EffectSet(0);

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
}

/// One direct-effect site in a function body, for witness messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSite {
    /// The effect observed.
    pub effect: Effect,
    /// 1-based source line.
    pub line: u32,
    /// What was seen (`Instant::now`, `Vec::new`, …).
    pub what: String,
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

/// The root-registry drift check: every `HOT_ROOTS` entry must still
/// name a real function. An entry that resolves to nothing is rename rot
/// — the gate it anchors has silently stopped firing.
pub fn registry_findings(sym: &SymbolTable, roots: &[(&str, &str)]) -> Vec<Finding> {
    roots
        .iter()
        .filter(|(owner, name)| resolve_root(sym, owner, name).is_empty())
        .map(|(owner, name)| {
            Finding::new(
                "crates/lint/src/lib.rs",
                0,
                "root-registry",
                format!(
                    "HOT_ROOTS entry (\"{owner}\", \"{name}\") resolves to no function \
                     in the workspace symbol table — update the registry or restore \
                     the function"
                ),
            )
        })
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effect_set_roundtrip() {
        let mut s = EffectSet::EMPTY;
        s.insert(Effect::ReadsClock);
        s.insert(Effect::SpawnsThread);
        assert!(s.contains(Effect::ReadsClock));
        assert!(s.contains(Effect::SpawnsThread));
        assert!(!s.contains(Effect::Allocates));
        let mut t = EffectSet::EMPTY;
        t.insert(Effect::ReadsRng);
        t.union(s);
        assert_eq!(t.0.count_ones(), 3);
    }
}
