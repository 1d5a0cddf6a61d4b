//! Waiver audit: `WAIVED` declares the in-source
//! `// tamperlint: allow(...)` waivers the repo is expected to carry. These
//! tests run the real analyzer over the real tree and hold it to them, so
//! a new waiver (or a silently dropped one) must come with a reviewed edit
//! here, and DESIGN.md must state the new total.

use std::collections::BTreeMap;
use std::path::PathBuf;

use tamper_lint::{analyze, scope_for};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the repo root")
        .to_path_buf()
}

/// The reviewed in-source waivers, as `(rule, file, count)` sorted by
/// `(rule, file)`. A waiver added, dropped, or moved to another rule or
/// file must come with a reviewed edit here.
const WAIVED: &[(&str, &str, usize)] = &[
    ("hot-path-alloc", "crates/netsim/src/client.rs", 1),
    ("hot-path-alloc", "crates/netsim/src/endpoint.rs", 1),
    ("hot-path-alloc", "crates/wire/src/http.rs", 3),
    ("hot-path-alloc", "crates/wire/src/tcp.rs", 2),
    ("hot-path-alloc", "crates/wire/src/tls.rs", 4),
    ("index", "crates/capture/src/engine.rs", 1),
    ("index", "crates/capture/src/offline.rs", 3),
    ("index", "crates/capture/src/source.rs", 1),
    ("panic", "crates/capture/src/engine.rs", 1),
];

#[test]
fn waived_findings_match_the_reviewed_multiset() {
    let mut got: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let analysis = analyze(&repo_root());
    for f in &analysis.waived {
        *got.entry((f.rule, f.file.as_str())).or_default() += 1;
    }
    let got: Vec<(&str, &str, usize)> = got.into_iter().map(|((r, f), n)| (r, f, n)).collect();
    assert_eq!(got, WAIVED);
}

#[test]
fn waiver_count_matches_the_reviewed_declaration() {
    let total: usize = WAIVED.iter().map(|&(_, _, n)| n).sum();
    let analysis = analyze(&repo_root());
    assert!(analysis.files_scanned > 0, "analyzer saw no files");
    assert_eq!(
        analysis.waived.len(),
        total,
        "in-source waiver count drifted from the reviewed declaration; \
         waivers now present:\n{}",
        analysis
            .waived
            .iter()
            .map(|f| format!("  {}:{} [{}]", f.file, f.line, f.rule))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The gate itself: no unwaived finding.
    assert!(analysis.ok(), "{}", analysis.render_human());
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let count = format!("{total} in-source waivers");
    assert!(design.contains(&count), "DESIGN.md never says {count:?}");
}

#[test]
fn sans_io_machine_modules_are_in_determinism_scope() {
    // The tentpole modules must sit inside the ambient-clock containment
    // scope: a `SystemTime::now()` smuggled into the state machines is
    // exactly the bug class the sans-IO refactor exists to prevent.
    for path in [
        "crates/core/src/machine.rs",
        "crates/core/src/batch.rs",
        "crates/core/src/classify.rs",
        "crates/netsim/src/endpoint.rs",
        "crates/netsim/src/client.rs",
        "crates/netsim/src/server.rs",
        "crates/netsim/src/session.rs",
        "crates/analysis/src/collector.rs",
    ] {
        let scope = scope_for(path);
        assert!(scope.pipeline, "{path} escaped the ambient/clock scope");
    }
    // The classification core is also in the deterministic-iteration
    // scope (its output feeds report bytes).
    assert!(scope_for("crates/core/src/batch.rs").map_iter);
    // And repo automation stays exempt: xtask measures wall time for the
    // CI summary by design.
    assert!(!scope_for("crates/xtask/src/main.rs").pipeline);
}

#[test]
fn partial_aggregate_modules_are_in_scope() {
    // The .agg decoder parses untrusted bytes off disk, so it joins the
    // wire/capture parsing surface under the panic/index and
    // untrusted-length rules.
    let decoder = scope_for("crates/analysis/src/aggfile.rs");
    assert!(decoder.parse_surface, "aggfile.rs escaped the panic scope");
    // The aggregate layer feeds report bytes directly: deterministic
    // iteration and ambient-clock containment both apply.
    for path in [
        "crates/analysis/src/agg.rs",
        "crates/analysis/src/aggfile.rs",
        "crates/analysis/src/view.rs",
    ] {
        let scope = scope_for(path);
        assert!(scope.map_iter, "{path} escaped the determinism scope");
        assert!(scope.pipeline, "{path} escaped the ambient/clock scope");
    }
}
