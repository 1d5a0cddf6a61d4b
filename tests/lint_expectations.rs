//! Lint waiver audit. A lint is waived in source only by a reasoned
//! `#[expect(lint, reason = "…")]`, which rustc turns into an error once
//! the code it excuses is gone (`unfulfilled_lint_expectations` under
//! `-D warnings`). [`EXPECTED`] lists every such waiver under `crates/`
//! and `src/`, so one added, dropped or moved must come with a reviewed
//! edit here, and DESIGN.md must state the new total. `allow` attributes
//! are refused outside `vendor/`: unlike `expect`, they outlive their
//! cause silently.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The reviewed waivers, as `(file, lint, count)` sorted by file, then
/// lint.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, usize)] = &[
    ("crates/capture/src/engine.rs", "clippy::disallowed_methods", 1),
    ("crates/capture/src/engine.rs", "clippy::expect_used", 1),
    ("crates/capture/src/engine.rs", "clippy::indexing_slicing", 1),
    ("crates/capture/src/offline.rs", "clippy::disallowed_types", 1),
    ("crates/capture/src/offline.rs", "clippy::indexing_slicing", 3),
    ("crates/capture/src/record.rs", "clippy::too_many_arguments", 1),
    ("crates/capture/src/source.rs", "clippy::indexing_slicing", 1),
    ("crates/core/src/signature.rs", "missing_docs", 1),
    ("crates/middlebox/src/rules.rs", "clippy::disallowed_types", 1),
    ("crates/obs/src/lib.rs", "clippy::disallowed_methods", 1),
    ("crates/wire/src/checksum.rs", "clippy::cast_possible_truncation", 2),
    ("crates/wire/src/ipv4.rs", "clippy::indexing_slicing", 1),
    ("crates/wire/src/ipv6.rs", "clippy::cast_possible_truncation", 1),
    ("crates/wire/src/packet.rs", "clippy::indexing_slicing", 1),
    ("crates/wire/src/packet.rs", "clippy::panic", 1),
    ("crates/wire/src/tcp.rs", "clippy::cast_possible_truncation", 3),
    ("crates/wire/src/tcp.rs", "clippy::indexing_slicing", 1),
    ("crates/worldgen/src/testlists.rs", "clippy::disallowed_types", 1),
    ("crates/xtask/src/main.rs", "clippy::disallowed_methods", 1),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, as `(repo-relative path, source with
/// `//` comment lines blanked)`.
fn sources(dir: &str) -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source tree") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join(dir), &mut files);
    files
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).expect("readable source file");
            let code: Vec<&str> = src
                .lines()
                .map(|l| {
                    if l.trim_start().starts_with("//") {
                        ""
                    } else {
                        l
                    }
                })
                .collect();
            let rel = path
                .strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            (rel, code.join("\n"))
        })
        .collect()
}

/// The lints each `expect` attribute in `code` names, one entry per lint;
/// panics on an attribute without a reason.
fn expected_lints(file: &str, code: &str) -> Vec<String> {
    let mut lints = Vec::new();
    for needle in [concat!("#[", "expect("), concat!("#![", "expect(")] {
        for (at, _) in code.match_indices(needle) {
            let rest = &code[at + needle.len()..];
            let reason = rest
                .find("reason")
                .filter(|&r| !rest[..r].contains(')'))
                .unwrap_or_else(|| panic!("{file}: an expect attribute without a reason"));
            lints.extend(
                rest[..reason]
                    .split(',')
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(str::to_owned),
            );
        }
    }
    lints
}

#[test]
fn every_expect_is_a_reviewed_waiver() {
    let mut got: BTreeMap<(String, String), usize> = BTreeMap::new();
    for dir in ["crates", "src"] {
        for (file, code) in sources(dir) {
            for lint in expected_lints(&file, &code) {
                *got.entry((file.clone(), lint)).or_default() += 1;
            }
        }
    }
    let got: Vec<(&str, &str, usize)> = got
        .iter()
        .map(|((f, l), n)| (f.as_str(), l.as_str(), *n))
        .collect();
    assert_eq!(got, EXPECTED);
}

#[test]
fn design_states_the_waiver_total() {
    let total: usize = EXPECTED.iter().map(|&(_, _, n)| n).sum();
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let claim = format!("{total} lint expectations");
    assert!(design.contains(&claim), "DESIGN.md never says {claim:?}");
}

#[test]
fn no_allow_attribute_outside_vendor() {
    let needles = [concat!("#[", "allow("), concat!("#![", "allow(")];
    let mut found = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for (file, code) in sources(dir) {
            for (n, line) in code.lines().enumerate() {
                if needles.iter().any(|needle| line.contains(needle)) {
                    found.push(format!("{file}:{}", n + 1));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "allow attributes (use a reasoned expect instead): {found:?}"
    );
}
