//! v3 gate tests: the dataflow rule families (`hot-path-alloc`,
//! `cast-truncation`) — fire/waive behaviour on fixtures, transitive
//! reach from a hot root two hops out, and determinism of the full
//! pipeline with the new families active.

use tamper_lint::{analyze_sources, lint_source, Finding};

/// Virtual in-scope paths for the fixtures.
const CORE: &str = "crates/core/src/fixture.rs";
const WIRE: &str = "crates/wire/src/fixture.rs";

fn fired(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

// --- hot-path-alloc ---

#[test]
fn hot_alloc_fires_in_a_root_and_spares_cold_siblings() {
    let lint = lint_source(CORE, include_str!("fixtures/bad_alloc.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("hot-path-alloc", 7), // Vec::new in classify_batch
            ("hot-path-alloc", 8), // format! in classify_batch
        ],
        "{:?}",
        lint.findings
    );
    assert!(
        lint.findings[0]
            .message
            .contains("in hot root BatchClassifier::classify_batch"),
        "{}",
        lint.findings[0].message
    );
    // `cold_report` allocates too (line 14) but is not hot-reachable.
}

#[test]
fn hot_alloc_reaches_a_sink_two_hops_from_the_root() {
    const ENTRY: &str = "crates/capture/src/transitive_hot_entry.rs";
    const RELAY: &str = "crates/capture/src/transitive_hot_relay.rs";
    const SINK: &str = "crates/capture/src/transitive_hot_sink.rs";
    let analysis = analyze_sources(&[
        (ENTRY, include_str!("fixtures/transitive_hot_entry.rs")),
        (RELAY, include_str!("fixtures/transitive_hot_relay.rs")),
        (SINK, include_str!("fixtures/transitive_hot_sink.rs")),
    ]);
    let got: Vec<(&str, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule, f.line))
        .collect();
    assert_eq!(
        got,
        vec![(SINK, "hot-path-alloc", 4)],
        "{:?}",
        analysis.findings
    );
    let msg = &analysis.findings[0].message;
    assert!(msg.contains(".to_vec()"), "{msg}");
    assert!(
        msg.contains("reached from PcapShard::absorb via relay_stash() → sink_grow()"),
        "{msg}"
    );
}

#[test]
fn hot_alloc_reaches_classify_span_through_classify_batch() {
    // classify_span is not a registered root: its closure lies inside
    // classify_batch's, so an allocation there is reported through it.
    let src = "pub struct BatchClassifier;\n\
        impl BatchClassifier {\n    \
        pub fn classify_batch(&mut self) {\n        \
        self.classify_span();\n    \
        }\n    \
        pub fn classify_span(&mut self) -> Vec<u8> {\n        \
        Vec::new()\n    \
        }\n}\n";
    let lint = lint_source(CORE, src);
    assert_eq!(
        fired(&lint.findings),
        vec![("hot-path-alloc", 7)],
        "{:?}",
        lint.findings
    );
    assert!(
        lint.findings[0].message.contains(
            "reached from BatchClassifier::classify_batch via BatchClassifier::classify_span"
        ),
        "{}",
        lint.findings[0].message
    );
}

#[test]
fn hot_alloc_waiver_suppresses_the_finding() {
    let src = "pub struct BatchClassifier;\n\
        impl BatchClassifier {\n    \
        pub fn classify_record(&mut self) -> Vec<u8> {\n        \
        // tamperlint: allow(hot-path-alloc) — fixture: scratch grown once at classifier birth\n        \
        Vec::new()\n    \
        }\n}\n";
    let lint = lint_source(CORE, src);
    assert!(lint.findings.is_empty(), "{:?}", lint.findings);
    assert_eq!(fired(&lint.waived), vec![("hot-path-alloc", 5)]);
}

// --- cast-truncation ---

#[test]
fn cast_fires_on_raw_narrowing_and_respects_clamps() {
    let lint = lint_source(WIRE, include_str!("fixtures/bad_cast.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("cast-truncation", 4), // seq as u16
            ("cast-truncation", 5), // payload_len as u8
        ],
        "{:?}",
        lint.findings
    );
    assert!(
        lint.findings[0].message.contains("`seq as u16`"),
        "{}",
        lint.findings[0].message
    );
    // `emit_clamped` (.min before cast) and `emit_checked` (try_from) clean.
}

#[test]
fn cast_waiver_suppresses_the_finding() {
    let src = "pub fn emit(payload_len: usize) -> u16 {\n    \
        // tamperlint: allow(cast-truncation) — fixture: callers guarantee MTU-bounded lengths\n    \
        payload_len as u16\n}\n";
    let lint = lint_source(WIRE, src);
    assert!(lint.findings.is_empty(), "{:?}", lint.findings);
    assert_eq!(fired(&lint.waived), vec![("cast-truncation", 3)]);
}

// --- pipeline determinism with the new families active ---

#[test]
fn dataflow_pipeline_stays_deterministic() {
    let files = [
        (CORE, include_str!("fixtures/bad_alloc.rs")),
        (WIRE, include_str!("fixtures/bad_cast.rs")),
    ];
    let a = analyze_sources(&files);
    let b = analyze_sources(&files);
    assert!(!a.findings.is_empty());
    assert_eq!(
        a.findings, b.findings,
        "dataflow pipeline is not deterministic"
    );
}

#[test]
fn the_dataflow_families_are_registered_rules() {
    for rule in ["hot-path-alloc", "cast-truncation"] {
        assert!(
            tamper_lint::rules::RULES.contains(&rule),
            "{rule} missing from RULES"
        );
    }
}
