//! tamperlint v4 suite: the effect-summary engine and everything built on
//! it — SCC fixpoint convergence, the containment rules' findings pinned
//! on every fixture group, the root-registry drift check, and rule
//! explanations.

use tamper_lint::rules::{self, ScanCtx};
use tamper_lint::symbols::SymbolTable;
use tamper_lint::{analyze_sources, effects};

const CORE: &str = "crates/core/src/fixture.rs";

// ---------------------------------------------------------------------------
// SCC fixpoint convergence
// ---------------------------------------------------------------------------

#[test]
fn fixpoint_converges_on_a_recursive_cycle_and_propagates_effects() {
    let files = [(CORE, include_str!("fixtures/bad_recursion.rs"))];
    let clock: Vec<(u32, String)> = analyze_sources(&files)
        .findings
        .iter()
        .filter(|f| f.rule == "ambient-clock")
        .map(|f| (f.line, f.message.clone()))
        .collect();
    // Textual finding at the sink itself.
    assert!(clock.iter().any(|(l, _)| *l == 21), "{clock:?}");
    // Transitive findings climb through the tick ↔ tock cycle all the way
    // to poll_loop: the fixpoint must converge on the SCC, not loop.
    for line in [6, 11, 17] {
        assert!(
            clock
                .iter()
                .any(|(l, m)| *l == line && m.contains("transitively reaches")),
            "no transitive finding at line {line}: {clock:?}"
        );
    }
    assert!(
        clock
            .iter()
            .any(|(l, m)| *l == 6 && m.contains("poll_loop()") && m.contains("stamp")),
        "{clock:?}"
    );
}

// ---------------------------------------------------------------------------
// Containment pins: literal (rule, file, line) expectations per fixture group
// ---------------------------------------------------------------------------

const CONTAINMENT_RULES: [&str; 3] = ["ambient-clock", "ambient-rng", "thread-containment"];

type Pin = (&'static str, &'static str, u32);

/// `(rule, line)` containment findings of each single fixture linted alone
/// at `CORE`; a fixture not listed here must produce none.
const SINGLE_PINS: &[(&str, &[(&str, u32)])] = &[
    (
        "bad_ambient",
        &[
            ("ambient-clock", 5),
            ("ambient-clock", 6),
            ("ambient-rng", 7),
            ("ambient-rng", 8),
        ],
    ),
    ("bad_clock", &[("ambient-clock", 9)]),
    (
        "bad_recursion",
        &[
            ("ambient-clock", 6),  // poll_loop → tick → tock → stamp
            ("ambient-clock", 11), // tick → tock → stamp
            ("ambient-clock", 17), // tock → stamp
            ("ambient-clock", 21), // textual: Instant::now()
        ],
    ),
    (
        "bad_thread",
        &[("thread-containment", 5), ("thread-containment", 6)],
    ),
];

const TRIO_PINS: &[Pin] = &[
    (
        "ambient-clock",
        "crates/analysis/src/transitive_entry.rs",
        4,
    ),
    (
        "ambient-clock",
        "crates/analysis/src/transitive_relay.rs",
        4,
    ),
    ("ambient-clock", "crates/analysis/src/transitive_sink.rs", 4),
];

/// Singles re-homed to `crates/analysis/src/<name>.rs` plus the trio, as one
/// workspace: bare `stamp()` in bad_recursion now also resolves to
/// bad_ambient's `stamp`, which adds the three transitive ambient-rng rows.
const COMBINED_PINS: &[Pin] = &[
    ("ambient-clock", "crates/analysis/src/bad_ambient.rs", 5),
    ("ambient-clock", "crates/analysis/src/bad_ambient.rs", 6),
    ("ambient-clock", "crates/analysis/src/bad_clock.rs", 9),
    ("ambient-clock", "crates/analysis/src/bad_recursion.rs", 6),
    ("ambient-clock", "crates/analysis/src/bad_recursion.rs", 11),
    ("ambient-clock", "crates/analysis/src/bad_recursion.rs", 17),
    ("ambient-clock", "crates/analysis/src/bad_recursion.rs", 21),
    (
        "ambient-clock",
        "crates/analysis/src/transitive_entry.rs",
        4,
    ),
    (
        "ambient-clock",
        "crates/analysis/src/transitive_relay.rs",
        4,
    ),
    ("ambient-clock", "crates/analysis/src/transitive_sink.rs", 4),
    ("ambient-rng", "crates/analysis/src/bad_ambient.rs", 7),
    ("ambient-rng", "crates/analysis/src/bad_ambient.rs", 8),
    ("ambient-rng", "crates/analysis/src/bad_recursion.rs", 6),
    ("ambient-rng", "crates/analysis/src/bad_recursion.rs", 11),
    ("ambient-rng", "crates/analysis/src/bad_recursion.rs", 17),
    ("thread-containment", "crates/analysis/src/bad_thread.rs", 5),
    ("thread-containment", "crates/analysis/src/bad_thread.rs", 6),
];

/// The containment findings of one workspace, as sorted (rule, file, line).
fn containment(files: &[(&str, &str)]) -> Vec<(&'static str, String, u32)> {
    let mut got: Vec<_> = analyze_sources(files)
        .findings
        .into_iter()
        .filter(|f| CONTAINMENT_RULES.contains(&f.rule))
        .map(|f| (f.rule, f.file, f.line))
        .collect();
    got.sort();
    got
}

fn owned(pins: &[Pin]) -> Vec<(&'static str, String, u32)> {
    pins.iter()
        .map(|(r, f, l)| (*r, f.to_string(), *l))
        .collect()
}

#[test]
fn containment_findings_match_the_pins_on_every_fixture() {
    let singles: &[(&str, &str)] = &[
        ("bad_alloc", include_str!("fixtures/bad_alloc.rs")),
        ("bad_ambient", include_str!("fixtures/bad_ambient.rs")),
        ("bad_cast", include_str!("fixtures/bad_cast.rs")),
        ("bad_clock", include_str!("fixtures/bad_clock.rs")),
        ("bad_index", include_str!("fixtures/bad_index.rs")),
        ("bad_map_iter", include_str!("fixtures/bad_map_iter.rs")),
        ("bad_match", include_str!("fixtures/bad_match.rs")),
        ("bad_panic", include_str!("fixtures/bad_panic.rs")),
        ("bad_recursion", include_str!("fixtures/bad_recursion.rs")),
        ("bad_thread", include_str!("fixtures/bad_thread.rs")),
        ("bad_wrap", include_str!("fixtures/bad_wrap.rs")),
        ("waivers", include_str!("fixtures/waivers.rs")),
    ];
    let mut nonempty = 0;
    for (name, src) in singles {
        let pins = SINGLE_PINS.iter().find(|(n, _)| n == name);
        let want: Vec<Pin> = pins
            .map(|(_, p)| p.iter().map(|(r, l)| (*r, CORE, *l)).collect())
            .unwrap_or_default();
        let actual = containment(&[(CORE, *src)]);
        assert_eq!(actual, owned(&want), "fixture {name}");
        nonempty += usize::from(!actual.is_empty());
    }
    // Guard against vacuous equality: the clock/rng/thread fixtures must
    // actually produce containment findings.
    assert!(nonempty >= 2, "only {nonempty} fixtures fired");

    let trio = [
        (
            "crates/analysis/src/transitive_entry.rs",
            include_str!("fixtures/transitive_entry.rs"),
        ),
        (
            "crates/analysis/src/transitive_relay.rs",
            include_str!("fixtures/transitive_relay.rs"),
        ),
        (
            "crates/analysis/src/transitive_sink.rs",
            include_str!("fixtures/transitive_sink.rs"),
        ),
    ];
    let actual = containment(&trio);
    assert!(!actual.is_empty(), "transitive trio must fire");
    assert_eq!(actual, owned(TRIO_PINS), "transitive trio");

    // The hot trio allocates but touches no clock, rng, or thread.
    let hot = [
        (
            "crates/analysis/src/transitive_hot_entry.rs",
            include_str!("fixtures/transitive_hot_entry.rs"),
        ),
        (
            "crates/analysis/src/transitive_hot_relay.rs",
            include_str!("fixtures/transitive_hot_relay.rs"),
        ),
        (
            "crates/analysis/src/transitive_hot_sink.rs",
            include_str!("fixtures/transitive_hot_sink.rs"),
        ),
    ];
    assert_eq!(containment(&hot), owned(&[]), "hot trio");

    // Everything at once: cross-file name resolution and SCCs in one
    // graph.
    let mega: Vec<(String, &str)> = singles
        .iter()
        .map(|(n, s)| (format!("crates/analysis/src/{n}.rs"), *s))
        .chain(trio.iter().map(|(p, s)| (p.to_string(), *s)))
        .collect();
    let mega_refs: Vec<(&str, &str)> = mega.iter().map(|(p, s)| (p.as_str(), *s)).collect();
    let actual = containment(&mega_refs);
    assert!(!actual.is_empty());
    assert_eq!(actual, owned(COMBINED_PINS), "combined fixture set");
}

// ---------------------------------------------------------------------------
// Root-registry drift check
// ---------------------------------------------------------------------------

#[test]
fn root_registry_reports_unresolved_entries() {
    let src = "pub struct BatchClassifier;\n\
               impl BatchClassifier {\n    pub fn classify_span(&mut self) {}\n}\n\
               pub fn helper() {}\n";
    let path = "crates/core/src/batch.rs";
    let scan = rules::scan_file(path, src, &ScanCtx::default());
    let sym = SymbolTable::build(&[(path.to_string(), scan.parsed.clone())]);

    // Resolvable entries: an impl method by owner, a free fn by file stem.
    let entries: &[(&str, &str)] = &[("BatchClassifier", "classify_span"), ("batch", "helper")];
    assert!(effects::registry_findings(&sym, entries).is_empty());

    // A renamed-away entry is rot and must be reported.
    let stale: &[(&str, &str)] = &[("BatchClassifier", "vanished")];
    let found = effects::registry_findings(&sym, stale);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "root-registry");
    assert!(
        found[0].message.contains("HOT_ROOTS"),
        "{}",
        found[0].message
    );
    assert!(
        found[0].message.contains("vanished"),
        "{}",
        found[0].message
    );
}

// ---------------------------------------------------------------------------
// Explanations
// ---------------------------------------------------------------------------

#[test]
fn every_rule_has_an_explanation() {
    for rule in tamper_lint::RULES {
        let text = rules::explain(rule);
        assert!(text.is_some(), "rule {rule} has no --explain text");
        assert!(text.unwrap().len() > 40, "rule {rule} explanation too thin");
    }
}
