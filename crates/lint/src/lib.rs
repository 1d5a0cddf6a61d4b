//! tamperlint — the repo-native static-analysis gate.
//!
//! The reproduction's headline guarantee is determinism: the same capture
//! bytes must produce the same report bytes, on any machine, in any thread
//! interleaving. Several classes of Rust code silently break that promise
//! (`HashMap` iteration order, ambient clocks/randomness, raw u32
//! sequence-space arithmetic), and panicking parse paths turn malformed
//! capture bytes into a crashed pipeline. tamperlint enforces these
//! properties at the source level with its own lexer ([`lexer`]), a
//! lightweight recursive-descent parser ([`ast`]), a workspace symbol
//! table ([`symbols`]), an intra-workspace call graph ([`callgraph`]) and
//! a bottom-up interprocedural effect fixpoint ([`effects`]): no rustc
//! plugin, no network, no nightly.
//!
//! Rule families (see [`rules`]; `cargo xtask analyze --explain <rule>`
//! prints the full paragraph for any of them):
//!
//! | rule           | scope                               | forbids |
//! |----------------|-------------------------------------|---------|
//! | `map-iter`     | `crates/analysis`, `crates/core`, `crates/lint` | `HashMap`/`HashSet` |
//! | `ambient-clock`| all pipeline crates                 | `SystemTime::now`, `Instant::now` — textual *or reached transitively through the effect summaries* |
//! | `clock-containment` | all pipeline crates (obs exempt) | any other `Instant`/`SystemTime` mention; clocks only via `tamper-obs` |
//! | `ambient-rng`  | all pipeline crates                 | `thread_rng`, `from_entropy`, `OsRng`, `rand::random` — textual or transitive |
//! | `thread-containment` | all pipeline crates (engine exempt) | `thread::spawn`, `thread::scope` — textual or transitive |
//! | `panic`        | untrusted-reachable fns on the parse surface | `.unwrap()`, `.expect()`, `panic!`, `unreachable!` |
//! | `index`        | untrusted-reachable fns on the parse surface | direct slice indexing |
//! | `wraparound-arithmetic` | `wire/*`, `core/*`         | raw `+`/`-`/`*` on seq/ack/offset-named values |
//! | `exhaustive-signature-match` | all pipeline crates   | `_` wildcards / catch-all bindings in a `match` over `Signature` |
//! | `hot-path-alloc` | all pipeline crates             | fresh allocations ([`dataflow::alloc_sites`]) on functions call-graph-reachable from the [`HOT_ROOTS`] registry |
//! | `cast-truncation` | `wire/*`, `core/*`             | raw `as` narrowing of seq/ack/len/off-named values |
//! | `root-registry` | [`HOT_ROOTS`] in this crate        | entries that resolve to no function |
//! | `waiver`       | every scanned file                  | malformed or unused `tamperlint: allow(…)` comments |
//!
//! The pipeline runs in five stages: lex, AST + symbols, call graph,
//! per-function dataflow, and the interprocedural effect fixpoint (one
//! SCC condensation and one pass in reverse-topological order). The first
//! four are per-file; the fixpoint and the cross-file rules consume their
//! artifacts. Every run is a cold run: the whole repo analyzes in well
//! under a second, so nothing is cached between runs. Per-function effect
//! summaries power the containment rules (membership is a bitset test;
//! witness chains are materialized on demand) and gate the hot-path
//! allocation walk. Files the parser loses sync on fail closed: every
//! finding in them is kept and the dataflow rules treat every site as
//! live.
//!
//! A finding is waived in source with
//! `// tamperlint: allow(<rule>) — <reason>`; unused or malformed waivers
//! are findings themselves. `cargo xtask analyze` — and with it
//! `cargo xtask ci` — fails on any unwaived finding.

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod effects;
pub mod lexer;
pub mod rules;
pub mod symbols;

pub use rules::{parse_waiver, scope_for, FileLint, Finding, Scope, RULES};

use crate::ast::ParsedFile;
use crate::callgraph::CallGraph;
use crate::effects::{Effect, EffectSet, EffectSite};
use crate::rules::{FileScan, ScanCtx};
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The declared hot roots of the per-flow pipeline: `(owner, fn)` pairs
/// matched against a function's `impl` owner *or* the trait an
/// `impl Trait for Type` block implements. Everything the call graph can
/// reach from these runs once per packet or per flow at line rate, so
/// `hot-path-alloc` bans fresh allocations on the whole closure. No entry's
/// closure lies inside another's: `classify_span` is reached through
/// `classify_batch`.
pub const HOT_ROOTS: [(&str, &str); 5] = [
    ("BatchClassifier", "classify_record"),
    ("BatchClassifier", "classify_batch"),
    ("FlowSource", "fill"),
    ("SourceShard", "absorb"),
    ("EndpointMachine", "process"),
];

/// The outcome of a whole-repo analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unwaived findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by source waivers.
    pub waived: Vec<Finding>,
    /// Number of `.rs` files lexed and linted.
    pub files_scanned: usize,
    /// Wall-clock runtime of the analysis.
    pub runtime_ms: u64,
}

impl Analysis {
    /// True when the gate passes: zero unwaived findings.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule counters: `(rule, findings, waived)` for every rule.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize, usize)> {
        let mut fired: BTreeMap<&str, usize> = BTreeMap::new();
        let mut waived: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.findings {
            *fired.entry(f.rule).or_default() += 1;
        }
        for f in &self.waived {
            *waived.entry(f.rule).or_default() += 1;
        }
        RULES
            .iter()
            .map(|r| {
                (
                    *r,
                    fired.get(r).copied().unwrap_or(0),
                    waived.get(r).copied().unwrap_or(0),
                )
            })
            .collect()
    }

    /// Human-readable report, one finding per line plus a summary block.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "tamperlint: {} file(s), {} finding(s), {} waived, {} ms\n",
            self.files_scanned,
            self.findings.len(),
            self.waived.len(),
            self.runtime_ms
        ));
        for (rule, fired, waived) in self.rule_counts() {
            if fired > 0 || waived > 0 {
                out.push_str(&format!("  {rule}: {fired} finding(s), {waived} waived\n"));
            }
        }
        out.push_str(if self.ok() {
            "tamperlint: PASS\n"
        } else {
            "tamperlint: FAIL\n"
        });
        out
    }

    /// SARIF-shaped machine-readable report (hand-rolled JSON; the
    /// workspace is offline and vendors no JSON crate). One run, one
    /// result per finding, and the gate counters in the run's
    /// `properties` bag.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"version\":\"2.1.0\",");
        out.push_str("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
        out.push_str("\"runs\":[{\"tool\":{\"driver\":{\"name\":\"tamperlint\",\"rules\":[");
        let rules: Vec<String> = RULES
            .iter()
            .map(|r| format!("{{\"id\":{}}}", json_escape(r)))
            .collect();
        out.push_str(&rules.join(","));
        out.push_str("]}},\"results\":[");
        let results: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
                     \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                     {{\"uri\":{}}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                    json_escape(f.rule),
                    json_escape(&f.message),
                    json_escape(&f.file),
                    f.line.max(1)
                )
            })
            .collect();
        out.push_str(&results.join(","));
        out.push_str("],\"properties\":{");
        out.push_str(&format!("\"ok\":{},", self.ok()));
        out.push_str(&format!("\"runtime_ms\":{},", self.runtime_ms));
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!("\"waived\":{},", self.waived.len()));
        out.push_str("\"rule_counts\":{");
        let counts: Vec<String> = self
            .rule_counts()
            .into_iter()
            .map(|(rule, fired, waived)| {
                format!(
                    "{}:{{\"findings\":{fired},\"waived\":{waived}}}",
                    json_escape(rule)
                )
            })
            .collect();
        out.push_str(&counts.join(","));
        out.push_str("}}}]}");
        out
    }
}

/// Escape a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Function-name prefixes that mark untrusted-input roots on the parse
/// surface (entry points that receive bytes off the wire or drive them).
const ROOT_PREFIXES: [&str; 9] = [
    "parse",
    "read",
    "run",
    "next",
    "fill",
    "absorb",
    "finish",
    "route",
    "flows_from",
];

/// Parameter-type fragments that mark a function as an untrusted root.
const ROOT_PARAM_MARKERS: [&str; 2] = ["[u8]", "Reader"];

/// Build the scan context for a file set: the `Signature` variant names
/// come from whichever input is a `signature.rs`.
fn scan_ctx(files: &[(&str, &str)]) -> ScanCtx {
    let mut ctx = ScanCtx::default();
    for (path, src) in files {
        if *path == "signature.rs" || path.ends_with("/signature.rs") {
            ctx.signature_variants = rules::signature_variant_names(src);
        }
    }
    ctx
}

/// Everything derived from one file in isolation. Phase 2 (symbols, call
/// graph, effect fixpoint, cross-file rules) consumes these.
struct FileArtifacts {
    /// The per-file scan: raw findings, waivers, tokens, parsed items.
    scan: FileScan,
    /// Direct effect set per function (aligned with `scan.parsed.fns`).
    fn_effects: Vec<EffectSet>,
    /// Direct effect sites per function, for witness messages.
    fn_sites: Vec<Vec<EffectSite>>,
    /// Allocation sites per function (pipeline scope only).
    fn_allocs: Vec<Vec<dataflow::AllocSite>>,
    /// Whole-file allocation sites for unparsed pipeline-scope files
    /// (fail closed).
    fail_closed_allocs: Vec<dataflow::AllocSite>,
}

/// Run every per-file stage over one source file.
fn build_artifacts(path: &str, src: &str, ctx: &ScanCtx) -> FileArtifacts {
    let scope = rules::scope_for(path);
    let mut scan = rules::scan_file(path, src, ctx);
    let parsed_ok = scan.parsed.parsed_ok;
    let nfns = scan.parsed.fns.len();

    // --- Dataflow: per-function use-def chains. ---
    let wanted = scope.pipeline || scope.seq_space;
    let flows: Vec<dataflow::FnFlow> = if wanted && parsed_ok {
        scan.parsed
            .fns
            .iter()
            .map(|f| dataflow::flow_of(&scan.code, f))
            .collect()
    } else {
        Vec::new()
    };
    let mut report = |rule: &'static str, found: Vec<dataflow::FlowFinding>| {
        for ff in found {
            scan.raw.push(Finding::new(path, ff.line, rule, ff.message));
        }
    };

    // cast-truncation: raw `as` narrowing on seq/ack/len-named values.
    if scope.seq_space {
        let rule = "cast-truncation";
        if parsed_ok {
            for (f, flow) in scan.parsed.fns.iter().zip(&flows) {
                let (b0, b1) = f.body;
                let found = dataflow::cast_findings(&scan.code, b0, b1, Some(flow));
                report(rule, found);
            }
        } else {
            let found = dataflow::cast_findings(&scan.code, 0, scan.code.len(), None);
            report(rule, found);
        }
    }

    // Allocation sites, for hot-path-alloc and the Allocates effect.
    let mut fn_allocs: Vec<Vec<dataflow::AllocSite>> = vec![Vec::new(); nfns];
    let mut fail_closed_allocs = Vec::new();
    if scope.pipeline {
        if parsed_ok {
            for (local, f) in scan.parsed.fns.iter().enumerate() {
                let (b0, b1) = f.body;
                fn_allocs[local] = dataflow::alloc_sites(&scan.code, b0, b1, flows.get(local));
            }
        } else {
            fail_closed_allocs = dataflow::alloc_sites(&scan.code, 0, scan.code.len(), None);
        }
    }

    // Direct effects (sinks + allocations), per function.
    let mut fn_effects: Vec<EffectSet> = Vec::with_capacity(nfns);
    let mut fn_sites: Vec<Vec<EffectSite>> = Vec::with_capacity(nfns);
    for (local, f) in scan.parsed.fns.iter().enumerate() {
        let (b0, b1) = f.body;
        let mut sites: Vec<EffectSite> = (b0..b1)
            .filter_map(|i| callgraph::sink_at(&scan.code, i))
            .filter(|s| !s.kind.sanctioned(path))
            .map(|s| EffectSite {
                effect: s.kind.effect(),
                line: s.line,
                what: s.what,
            })
            .collect();
        if let Some(site) = fn_allocs[local].first() {
            sites.push(EffectSite {
                effect: Effect::Allocates,
                line: site.line,
                what: site.what.clone(),
            });
        }
        let mut eff = EffectSet::EMPTY;
        for s in &sites {
            eff.insert(s.effect);
        }
        fn_effects.push(eff);
        fn_sites.push(sites);
    }

    FileArtifacts {
        scan,
        fn_effects,
        fn_sites,
        fn_allocs,
        fail_closed_allocs,
    }
}

/// Phase 2: the cross-file analyses over per-file artifacts, then waiver
/// application. The findings come back unsorted and include — when
/// `check_registry` is set (the whole-repo entry point) — any
/// root-registry drift.
fn run_pipeline(mut arts: Vec<FileArtifacts>, check_registry: bool) -> Analysis {
    // The linter's own sources are scanned (map-iter self-lint) but stay
    // out of the graph: the lint crate measures wall-clock by design and
    // must not become a phantom ambient sink for its callers.
    let graph_files: Vec<(String, ParsedFile)> = arts
        .iter()
        .filter(|a| !a.scan.path.starts_with("crates/lint/"))
        .map(|a| (a.scan.path.clone(), a.scan.parsed.clone()))
        .collect();
    let sym = SymbolTable::build(&graph_files);
    let graph = CallGraph::build(&sym);
    let scan_idx: BTreeMap<String, usize> = arts
        .iter()
        .enumerate()
        .map(|(i, a)| (a.scan.path.clone(), i))
        .collect();

    // --- Gather per-function facts into symbol-table order. ---
    let n = sym.fns.len();
    let mut direct: Vec<EffectSet> = vec![EffectSet::EMPTY; n];
    let mut sites: Vec<Vec<EffectSite>> = vec![Vec::new(); n];
    let mut fn_home: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for (path, _) in &graph_files {
        let si = scan_idx[path.as_str()];
        let a = &arts[si];
        for (local, id) in sym.file_fns(path).iter().enumerate() {
            fn_home.insert(*id, (si, local));
            direct[*id] = a.fn_effects[local];
            sites[*id] = a.fn_sites[local].clone();
        }
    }

    // --- The interprocedural effect fixpoint. ---
    let sums = effects::Summaries::compute(&graph, direct, sites);

    // --- Transitive containment: summary queries, scoped to the pipeline
    // crates. ---
    let in_pipeline = |file: &str| rules::scope_for(file).pipeline;
    let mut extra: Vec<Finding> =
        effects::containment_findings(&sym, &graph, &sums, &|file, kind| {
            in_pipeline(file) && !kind.sanctioned(file)
        });

    // hot-path-alloc: fresh allocations on the forward closure of the
    // HOT_ROOTS registry, with the BFS discovery chain in the message.
    // The summaries gate the walk: if no hot root's total carries
    // Allocates, no reachable function has a site and the walk is skipped.
    let hot_fns: BTreeSet<usize> = (0..n)
        .filter(|&id| in_pipeline(&sym.fns[id].file))
        .collect();
    let hot_roots: Vec<usize> = hot_fns
        .iter()
        .copied()
        .filter(|&id| {
            let d = &sym.fns[id].def;
            HOT_ROOTS.iter().any(|(owner, name)| {
                d.name == *name
                    && (d.owner.as_deref() == Some(*owner) || d.trait_of.as_deref() == Some(*owner))
            })
        })
        .collect();
    if hot_roots
        .iter()
        .any(|&r| sums.total[r].contains(Effect::Allocates))
    {
        let tree = graph.reachable_with_parents(hot_roots.iter().copied(), &hot_fns);
        let label = |id: usize| {
            let d = &sym.fns[id].def;
            match &d.owner {
                Some(o) => format!("{o}::{}", d.name),
                None => format!("{}()", d.name),
            }
        };
        for &fid in tree.keys() {
            let (si, local) = fn_home[&fid];
            let a = &arts[si];
            if !a.scan.parsed.parsed_ok {
                continue; // handled by the whole-file fail-closed pass below
            }
            for site in &a.fn_allocs[local] {
                let mut chain = vec![label(fid)];
                let mut cur = fid;
                while let Some(Some(parent)) = tree.get(&cur) {
                    cur = *parent;
                    chain.push(label(cur));
                }
                chain.reverse();
                let message = if chain.len() == 1 {
                    format!("fresh allocation {} in hot root {}", site.what, chain[0])
                } else {
                    format!(
                        "fresh allocation {} on a hot path: reached from {} via {}",
                        site.what,
                        chain[0],
                        chain[1..].join(" → ")
                    )
                };
                extra.push(Finding::new(
                    &a.scan.path,
                    site.line,
                    "hot-path-alloc",
                    message,
                ));
            }
        }
    }
    // Fail closed: a pipeline file the parser lost sync on could hide
    // hot-reachable functions, so every allocation site in it is flagged.
    for a in arts.iter() {
        for site in &a.fail_closed_allocs {
            extra.push(Finding::new(
                &a.scan.path,
                site.line,
                "hot-path-alloc",
                format!(
                    "fresh allocation {} in a file the parser lost sync on (fail closed)",
                    site.what
                ),
            ));
        }
    }
    for f in extra {
        if let Some(&si) = scan_idx.get(f.file.as_str()) {
            arts[si].scan.raw.push(f);
        }
    }

    // --- Untrusted-reachability scoping for panic/index. ---
    let mut surface: BTreeSet<usize> = BTreeSet::new();
    for (path, _) in &graph_files {
        if rules::scope_for(path).parse_surface {
            surface.extend(sym.file_fns(path).iter().copied());
        }
    }
    let roots: Vec<usize> = surface
        .iter()
        .copied()
        .filter(|&id| {
            let f = &sym.fns[id];
            ROOT_PREFIXES.iter().any(|p| f.def.name.starts_with(p))
                || f.def
                    .params
                    .iter()
                    .any(|p| ROOT_PARAM_MARKERS.iter().any(|m| p.contains(m)))
        })
        .collect();
    let reachable = graph.reachable(roots, &surface);
    for a in arts.iter_mut() {
        // Fail closed: if the parser lost sync, keep every finding.
        if !rules::scope_for(&a.scan.path).parse_surface || !a.scan.parsed.parsed_ok {
            continue;
        }
        let ids = sym.file_fns(&a.scan.path);
        let parsed = &a.scan.parsed;
        a.scan.raw.retain(|f| {
            if f.rule != "panic" && f.rule != "index" {
                return true;
            }
            match parsed.fn_at_line(f.line) {
                // Findings outside any parsed fn are kept (fail closed).
                None => true,
                Some(local) => ids.get(local).is_none_or(|id| reachable.contains(id)),
            }
        });
    }

    // --- Waivers last, so retired findings surface stale waivers. ---
    let mut analysis = Analysis {
        files_scanned: arts.len(),
        ..Analysis::default()
    };
    for a in arts {
        let lint = rules::apply_waivers(&a.scan.path, a.scan.raw, &a.scan.waivers);
        analysis.findings.extend(lint.findings);
        analysis.waived.extend(lint.waived);
    }

    // --- root-registry drift (whole-repo runs only). ---
    if check_registry {
        analysis
            .findings
            .extend(effects::registry_findings(&sym, &HOT_ROOTS));
    }
    analysis
}

/// Both phases over one in-memory workspace.
fn run(files: &[(&str, &str)], check_registry: bool) -> Analysis {
    let ctx = scan_ctx(files);
    let arts = files
        .iter()
        .map(|(path, src)| build_artifacts(path, src, &ctx))
        .collect();
    run_pipeline(arts, check_registry)
}

/// Sort the findings and stamp the runtime.
fn finish(mut analysis: Analysis, t0: Instant) -> Analysis {
    analysis.findings.sort();
    analysis.waived.sort();
    analysis.runtime_ms = t0.elapsed().as_millis() as u64;
    analysis
}

/// Analyze a set of in-memory sources as one workspace: the full
/// two-phase pipeline (call graph and effect fixpoint included), no
/// filesystem, no registry cross-check. This is the entry
/// point for multi-file fixture tests.
pub fn analyze_sources(files: &[(&str, &str)]) -> Analysis {
    let t0 = Instant::now();
    finish(run(files, false), t0)
}

/// Lint one source string under the scope its path would get in the repo;
/// the call graph sees only this file. This is the entry point the
/// single-fixture tests use.
pub fn lint_source(repo_rel_path: &str, src: &str) -> FileLint {
    let analysis = analyze_sources(&[(repo_rel_path, src)]);
    FileLint {
        findings: analysis.findings,
        waived: analysis.waived,
    }
}

/// Run the full gate against a repo checkout.
pub fn analyze(root: &Path) -> Analysis {
    let t0 = Instant::now();
    let mut inputs: Vec<(String, String)> = Vec::new();
    for rel in source_files(root) {
        if rules::scope_for(&rel).is_empty() {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        inputs.push((rel, src));
    }
    let borrowed: Vec<(&str, &str)> = inputs
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    finish(run(&borrowed, true), t0)
}

/// All `.rs` files under the repo's first-party trees, repo-relative with
/// forward slashes, in sorted (deterministic) order.
fn source_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.join("crates"), root.join("src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_escape("⟨SYN → ∅⟩"), "\"⟨SYN → ∅⟩\"");
    }

    #[test]
    fn json_output_is_sarif_shaped() {
        let mut a = Analysis::default();
        a.findings.push(Finding::new(
            "crates/wire/src/x.rs",
            3,
            "index",
            "direct slice indexing \"quoted\"".into(),
        ));
        a.files_scanned = 1;
        let json = a.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"version\":\"2.1.0\""));
        assert!(json.contains("\"name\":\"tamperlint\""));
        assert!(json.contains("\"ruleId\":\"index\""));
        assert!(json.contains("\"uri\":\"crates/wire/src/x.rs\""));
        assert!(json.contains("\"startLine\":3"));
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\"index\":{\"findings\":1,\"waived\":0}"));
        assert!(json.contains("\\\"quoted\\\""));
        // Every rule is declared in the driver block.
        for rule in RULES {
            assert!(json.contains(&format!("{{\"id\":\"{rule}\"}}")), "{rule}");
        }
    }

    #[test]
    fn rule_counts_cover_every_rule() {
        let counts = Analysis::default().rule_counts();
        assert_eq!(counts.len(), RULES.len());
        assert!(counts.iter().all(|(_, f, w)| *f == 0 && *w == 0));
    }

    #[test]
    fn transitive_containment_crosses_files() {
        // entry → relay → sink: the ambient clock read lives two hops from
        // the entry point, in a sibling module.
        let files = [
            (
                "crates/analysis/src/entry.rs",
                "pub fn summarize(n: u64) -> u64 { relay::stamp_all(n) }",
            ),
            (
                "crates/analysis/src/relay.rs",
                "pub fn stamp_all(n: u64) -> u64 { n + sink::now_ns() }",
            ),
            (
                "crates/analysis/src/sink.rs",
                "use std::time::Instant;\n\
                 pub fn now_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
        ];
        let analysis = analyze_sources(&files);
        let fired: Vec<(&str, &str, u32)> = analysis
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.rule, f.line))
            .collect();
        // Textual findings at the sink…
        assert!(fired.contains(&("crates/analysis/src/sink.rs", "clock-containment", 1)));
        assert!(fired.contains(&("crates/analysis/src/sink.rs", "ambient-clock", 2)));
        // …and transitive findings at both callers.
        assert!(fired.contains(&("crates/analysis/src/relay.rs", "ambient-clock", 1)));
        assert!(fired.contains(&("crates/analysis/src/entry.rs", "ambient-clock", 1)));
        let entry = analysis
            .findings
            .iter()
            .find(|f| f.file.ends_with("entry.rs"))
            .unwrap();
        assert!(
            entry.message.contains("stamp_all → now_ns"),
            "{}",
            entry.message
        );
    }
}
