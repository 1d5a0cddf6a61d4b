//! v2 gate tests: the AST-backed rule families (wraparound-arithmetic,
//! exhaustive-signature-match) and transitive containment across files.

use tamper_lint::{analyze_sources, lint_source, Finding};

/// Virtual in-scope paths for the fixtures.
const WIRE: &str = "crates/wire/src/fixture.rs";
const ANALYSIS: &str = "crates/analysis/src/fixture.rs";

fn fired(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

// --- wraparound-arithmetic ---

#[test]
fn wraparound_fires_on_raw_seq_space_arithmetic() {
    let lint = lint_source(WIRE, include_str!("fixtures/bad_wrap.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("wraparound-arithmetic", 4), // seq + len
            ("wraparound-arithmetic", 5), // next_seq - 1
            ("wraparound-arithmetic", 9), // ack += count
        ]
    );
    assert!(lint.findings[0].message.contains("wrapping_*"));
    // wrapping_add and non-seq-space names (delta, count) stayed clean.
}

#[test]
fn wraparound_waiver_suppresses_the_finding() {
    let src = "pub fn adv(seq: u32) -> u32 {\n    \
        // tamperlint: allow(wraparound-arithmetic) — fixture: wraparound impossible by construction\n    \
        seq + 1\n}\n";
    let lint = lint_source(WIRE, src);
    assert!(lint.findings.is_empty(), "{:?}", lint.findings);
    assert_eq!(fired(&lint.waived), vec![("wraparound-arithmetic", 3)]);
}

// --- exhaustive-signature-match ---

#[test]
fn sig_match_fires_on_wildcards_and_catch_all_bindings() {
    let lint = lint_source(ANALYSIS, include_str!("fixtures/bad_match.rs"));
    assert_eq!(
        fired(&lint.findings),
        vec![
            ("exhaustive-signature-match", 12), // `_ => 2`
            ("exhaustive-signature-match", 18), // `other => other`
        ]
    );
    assert!(lint.findings[0].message.contains("wildcard"));
    assert!(lint.findings[1]
        .message
        .contains("catch-all binding `other`"));
}

#[test]
fn sig_match_waiver_suppresses_the_finding() {
    let src = "pub enum Signature { SynNone, SynRst }\n\
        pub fn merge(sig: Signature) -> Signature {\n    \
        match sig {\n        \
        Signature::SynNone => Signature::SynRst,\n        \
        // tamperlint: allow(exhaustive-signature-match) — fixture: identity arm kept by design\n        \
        other => other,\n    \
        }\n}\n";
    let lint = lint_source(ANALYSIS, src);
    assert!(lint.findings.is_empty(), "{:?}", lint.findings);
    assert_eq!(fired(&lint.waived), vec![("exhaustive-signature-match", 6)]);
}

// --- transitive containment ---

#[test]
fn transitive_containment_reaches_a_sink_two_hops_away() {
    const ENTRY: &str = "crates/analysis/src/transitive_entry.rs";
    const RELAY: &str = "crates/analysis/src/transitive_relay.rs";
    const SINK: &str = "crates/analysis/src/transitive_sink.rs";
    let analysis = analyze_sources(&[
        (ENTRY, include_str!("fixtures/transitive_entry.rs")),
        (RELAY, include_str!("fixtures/transitive_relay.rs")),
        (SINK, include_str!("fixtures/transitive_sink.rs")),
    ]);
    let got: Vec<(&str, &str, u32)> = analysis
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule, f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (ENTRY, "ambient-clock", 4),    // transitive, two hops out
            (RELAY, "ambient-clock", 4),    // transitive, one hop out
            (SINK, "clock-containment", 2), // textual: use …::Instant
            (SINK, "ambient-clock", 4),     // textual: Instant::now()
        ],
        "{:?}",
        analysis.findings
    );
    let entry_msg = &analysis.findings[0].message;
    assert!(entry_msg.contains("transitively reaches"), "{entry_msg}");
    assert!(entry_msg.contains("stamp_all → now_ns"), "{entry_msg}");
}

#[test]
fn transitive_finding_is_waivable_at_the_call_site() {
    let entry = "pub fn summarize(n: u64) -> u64 {\n    \
        // tamperlint: allow(ambient-clock) — fixture: reviewed, reach is intentional here\n    \
        transitive_relay::stamp_all(n)\n}\n";
    let analysis = analyze_sources(&[
        ("crates/analysis/src/transitive_entry.rs", entry),
        (
            "crates/analysis/src/transitive_relay.rs",
            include_str!("fixtures/transitive_relay.rs"),
        ),
        (
            "crates/analysis/src/transitive_sink.rs",
            include_str!("fixtures/transitive_sink.rs"),
        ),
    ]);
    // The entry's transitive finding is waived; relay and sink still fire.
    assert!(
        analysis
            .findings
            .iter()
            .all(|f| !f.file.contains("transitive_entry")),
        "{:?}",
        analysis.findings
    );
    assert!(analysis
        .waived
        .iter()
        .any(|f| f.file.contains("transitive_entry") && f.rule == "ambient-clock"));
    assert_eq!(analysis.findings.len(), 3);
}
