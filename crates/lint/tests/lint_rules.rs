//! Fixture tests: every rule family must fire on known-bad code with the
//! right rule, file, and line — and the real repo must pass the whole gate.
//! If a lint were deleted, its fixture test here fails.

use tamper_lint::{lint_source, Finding};

/// Virtual in-scope paths for the fixtures.
const WIRE: &str = "crates/wire/src/fixture.rs";
const ANALYSIS: &str = "crates/analysis/src/fixture.rs";
const NETSIM: &str = "crates/netsim/src/fixture.rs";

fn fired(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn map_iter_fires_on_hashmap_and_hashset() {
    let lint = lint_source(ANALYSIS, include_str!("fixtures/bad_map_iter.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("map-iter", 2), // use …::HashMap
            ("map-iter", 5), // HashMap type annotation
            ("map-iter", 5), // HashMap::new()
            ("map-iter", 6), // HashSet::new()
        ]
    );
    assert!(lint.findings.iter().all(|f| f.file == ANALYSIS));
    assert!(lint.findings[0].message.contains("BTreeMap"));
}

#[test]
fn ambient_rules_fire_outside_cfg_test() {
    let lint = lint_source(NETSIM, include_str!("fixtures/bad_ambient.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("clock-containment", 2), // use …::Instant
            ("clock-containment", 2), // use …::SystemTime
            ("ambient-clock", 5),     // Instant::now()
            ("ambient-clock", 6),     // SystemTime::now()
            ("ambient-rng", 7),       // thread_rng()
            ("ambient-rng", 8),       // rand::random()
        ]
    );
    // The same clock call inside `#[cfg(test)] mod tests` did not fire.
}

#[test]
fn clock_containment_fires_on_smuggled_clock_types_but_not_on_now() {
    let lint = lint_source(NETSIM, include_str!("fixtures/bad_clock.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("clock-containment", 2), // use …::Instant
            ("clock-containment", 5), // Option<Instant> struct field
            ("ambient-clock", 9),     // Instant::now() — the now-form is
                                      // ambient-clock's finding alone
        ]
    );
    assert!(lint.findings[0].message.contains("tamper_obs"));

    // tamper-obs itself is the sanctioned home: same source, no findings.
    let obs = lint_source(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/bad_clock.rs"),
    );
    assert!(obs.findings.is_empty(), "{:?}", obs.findings);
}

#[test]
fn panic_rule_fires_on_each_construct() {
    let lint = lint_source(WIRE, include_str!("fixtures/bad_panic.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("panic", 3), // .unwrap()
            ("panic", 4), // .expect(…)
            ("panic", 6), // panic!
            ("panic", 9), // unreachable!
        ]
    );
}

#[test]
fn index_rule_fires_on_direct_indexing() {
    let lint = lint_source(WIRE, include_str!("fixtures/bad_index.rs"));
    assert_eq!(fired(&lint.findings), vec![("index", 3), ("index", 4)]);
}

#[test]
fn thread_containment_fires_everywhere_but_the_engine() {
    let lint = lint_source(ANALYSIS, include_str!("fixtures/bad_thread.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("thread-containment", 5), // std::thread::spawn
            ("thread-containment", 6), // std::thread::scope
        ]
    );
    assert!(lint.findings[0].message.contains("capture::engine"));
    // The channel import is not a thread, and the spawn inside
    // `#[cfg(test)] mod tests` did not fire.

    // capture::engine is the one sanctioned home for the thread topology.
    let engine = lint_source(
        "crates/capture/src/engine.rs",
        include_str!("fixtures/bad_thread.rs"),
    );
    assert!(
        engine
            .findings
            .iter()
            .all(|f| f.rule != "thread-containment"),
        "{:?}",
        engine.findings
    );
}

#[test]
fn panicky_code_is_clean_outside_the_untrusted_surface() {
    // The same bad code linted under an out-of-scope path: no findings.
    let lint = lint_source(
        "crates/worldgen/src/fixture.rs",
        include_str!("fixtures/bad_panic.rs"),
    );
    assert!(lint.findings.is_empty(), "{:?}", lint.findings);
}

#[test]
fn waiver_fixture_covers_use_misuse_and_typos() {
    let lint = lint_source(WIRE, include_str!("fixtures/waivers.rs"));
    // The correctly-waived data[0] is suppressed…
    assert_eq!(fired(&lint.waived), vec![("index", 4)]);
    // …while the stale waiver, the misspelled rule, and the line the typo
    // failed to cover all surface.
    assert_eq!(
        fired(&lint.findings),
        vec![("waiver", 7), ("waiver", 11), ("index", 12)]
    );
    assert!(lint.findings[0].message.contains("unused waiver"));
    assert!(lint.findings[1].message.contains("unknown rule"));
}

#[test]
fn the_real_repo_passes_the_gate() {
    // CARGO_MANIFEST_DIR = crates/lint → repo root is two levels up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let analysis = tamper_lint::analyze(&root);
    assert!(
        analysis.files_scanned > 40,
        "scanned {}",
        analysis.files_scanned
    );
    assert!(
        analysis.ok(),
        "tamperlint findings in the repo:\n{}",
        analysis.render_human()
    );
    // The waivers placed across wire/ and capture/ are all in use.
    assert!(!analysis.waived.is_empty());
}
