//! End-to-end multi-PoP pipeline: `tamperscope pop-run` splits the golden
//! world across points of presence, each emitting a serialized partial
//! aggregate, and `tamperscope merge` combines them into a full report
//! that must be byte-identical to the single-machine `report` run — at
//! any thread count and any merge order — and to the committed
//! `tests/fixtures/report_4k.golden.txt`, so every table and figure the
//! CLI emits is pinned (re-bless an intentional change with
//! `UPDATE_GOLDEN=1 cargo test --test multi_pop`). Plus the fail-closed
//! decode paths: corrupt or mismatched `.agg` inputs, and partials whose
//! keys lie outside the flags' world, are named errors with exit code 2,
//! never panics.

use std::path::PathBuf;
use std::process::Command;

use tamperscope::analysis::{decode_agg, encode_agg, PartialAggregate};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tamperscope"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tamperscope_pop_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const WORLD_FLAGS: &[&str] = &["--sessions", "4000", "--days", "2", "--seed", "20230112"];

fn pop_run(dir: &std::path::Path, pops: u32) {
    let out = bin()
        .args(["pop-run", "--pops", &pops.to_string(), "--out"])
        .arg(dir)
        .args(WORLD_FLAGS)
        .output()
        .expect("pop-run");
    assert!(
        out.status.success(),
        "pop-run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn merge(files: &[PathBuf]) -> std::process::Output {
    let mut cmd = bin();
    cmd.arg("merge");
    for f in files {
        cmd.arg(f);
    }
    cmd.args(WORLD_FLAGS).output().expect("merge")
}

fn single_report(threads: u32) -> Vec<u8> {
    let out = bin()
        .args(["report", "--threads", &threads.to_string()])
        .args(WORLD_FLAGS)
        .output()
        .expect("report");
    assert!(
        out.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The golden identity: a 4-PoP split merged back together renders the
/// exact bytes of a single-machine report, the single-machine report
/// itself is thread-count-invariant (1/2/8), and those bytes are the
/// committed golden.
#[test]
fn four_pop_merge_matches_single_machine_report() {
    let dir = tmp_dir("golden");
    pop_run(&dir, 4);
    let files: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("pop{i}.agg"))).collect();
    for f in &files {
        assert!(f.exists(), "missing {}", f.display());
    }

    let merged = merge(&files);
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );

    let t1 = single_report(1);
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/report_4k.golden.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &t1).unwrap();
    }
    let golden = std::fs::read(golden_path)
        .expect("tests/fixtures/report_4k.golden.txt missing — run with UPDATE_GOLDEN=1");
    assert!(
        t1 == golden,
        "report bytes differ from report_4k.golden.txt; if intentional, re-bless with UPDATE_GOLDEN=1"
    );
    assert_eq!(
        merged.stdout, t1,
        "merged 4-PoP report differs from single-machine report"
    );
    for threads in [2u32, 8] {
        assert_eq!(
            single_report(threads),
            t1,
            "report bytes changed at {threads} threads"
        );
    }

    // Merge order must not matter: reversed file list, same bytes.
    let reversed: Vec<PathBuf> = files.iter().rev().cloned().collect();
    let merged_rev = merge(&reversed);
    assert!(merged_rev.status.success());
    assert_eq!(
        merged_rev.stdout, merged.stdout,
        "merge order changed bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every PoP observes a non-trivial, disjoint share: the partial files
/// exist, are non-empty, and their merged flow total matches the
/// single-machine total (checked implicitly by the byte identity above;
/// here we check the summary line to make the split visible).
#[test]
fn pop_partials_cover_the_world_disjointly() {
    let dir = tmp_dir("cover");
    pop_run(&dir, 3);
    let files: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("pop{i}.agg"))).collect();
    for f in &files {
        let len = std::fs::metadata(f).unwrap().len();
        assert!(len > 100, "{} suspiciously small: {len} bytes", f.display());
    }

    let mut cmd = bin();
    cmd.arg("merge");
    for f in &files {
        cmd.arg(f);
    }
    let out = cmd
        .args(WORLD_FLAGS)
        .arg("--json-summary")
        .output()
        .expect("merge summary");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"total_flows\":"), "{text}");

    // A single partial alone merges fine too (a one-PoP "fleet").
    let solo = merge(&files[..1]);
    assert!(solo.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Fail-closed decode paths through the CLI: truncated file, wrong magic,
/// future format version, and a fingerprint that does not match the
/// flags. Each is exit code 2 with a named message; none panic.
#[test]
fn merge_rejects_corrupt_and_mismatched_partials() {
    let dir = tmp_dir("failclosed");
    pop_run(&dir, 2);
    let good = dir.join("pop0.agg");
    let bytes = std::fs::read(&good).unwrap();

    let check = |path: &std::path::Path, needle: &str| {
        let out = merge(&[path.to_path_buf()]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{} should exit 2: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{}: {err}", path.display());
        assert!(
            !err.contains("panicked"),
            "{} panicked: {err}",
            path.display()
        );
    };

    // Truncated at several depths. A cut inside the 4-byte magic reads
    // as "not a .agg file"; anything past it is a named truncation.
    let p = dir.join("trunc3.agg");
    std::fs::write(&p, &bytes[..3]).unwrap();
    check(&p, "bad magic");
    for cut in [10usize, bytes.len() / 2] {
        let p = dir.join(format!("trunc{cut}.agg"));
        std::fs::write(&p, &bytes[..cut]).unwrap();
        check(&p, "truncated");
    }

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0..4].copy_from_slice(b"NOPE");
    let p = dir.join("badmagic.agg");
    std::fs::write(&p, &bad).unwrap();
    check(&p, "bad magic");

    // A future format version must be refused, not misparsed.
    let mut future = bytes.clone();
    future[4] = 0xFF;
    let p = dir.join("future.agg");
    std::fs::write(&p, &future).unwrap();
    check(&p, "unsupported .agg format version");

    // Valid file, but the flags describe a different world.
    let out = bin()
        .args(["merge"])
        .arg(&good)
        .args(["--sessions", "4000", "--days", "2", "--seed", "999"])
        .output()
        .expect("merge mismatched");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("fingerprint mismatch"), "{err}");

    // Partials from two different worlds cannot be merged together even
    // when one of them matches the flags.
    let dir2 = tmp_dir("failclosed_other");
    let out = bin()
        .args(["pop-run", "--pops", "1", "--out"])
        .arg(&dir2)
        .args(["--sessions", "4000", "--days", "2", "--seed", "999"])
        .output()
        .expect("pop-run other");
    assert!(out.status.success());
    let other = dir2.join("pop0.agg");
    let out = bin()
        .args(["merge"])
        .arg(&good)
        .arg(&other)
        .args(WORLD_FLAGS)
        .output()
        .expect("merge cross-world");
    assert_eq!(out.status.code(), Some(2), "cross-world merge must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("fingerprint mismatch"), "{err}");

    // Well-formed partials whose keys name a country or a domain outside
    // the flags' world (67 countries, 4,000 domains). The last key of a
    // table is moved past the world, so key order holds.
    type Mutate = fn(&mut PartialAggregate);
    let outside: [(&str, Mutate, &str); 5] = [
        (
            "domain_cells domain",
            |a| {
                let ((c, _), v) = a.domain_cells.pop_last().unwrap();
                a.domain_cells.insert((c, 0x7fff_ffff), v);
            },
            "domain_cells domain outside the catalog",
        ),
        (
            "as_counts country",
            |a| {
                let ((_, asn), v) = a.as_counts.pop_last().unwrap();
                a.as_counts.insert((0x7fff, asn), v);
            },
            "as_counts country outside the world",
        ),
        (
            "domain_cells country",
            |a| {
                let ((_, d), v) = a.domain_cells.pop_last().unwrap();
                a.domain_cells.insert((0x7fff, d), v);
            },
            "domain_cells country outside the world",
        ),
        (
            "syn_payload_domains domain",
            |a| {
                a.syn_payload_domains.insert(4_000, 1);
            },
            "syn_payload_domains domain outside the catalog",
        ),
        (
            "pair_seqs domain",
            |a| {
                let ((ip, _), v) = a.pair_seqs.pop_last().unwrap();
                a.pair_seqs.insert((ip, 4_000), v);
            },
            "pair_seqs domain outside the catalog",
        ),
    ];
    for (name, mutate, needle) in outside {
        let mut agg = decode_agg(&bytes).unwrap();
        mutate(&mut agg);
        let p = dir.join(format!("{}.agg", name.replace(' ', "_")));
        std::fs::write(&p, encode_agg(&agg)).unwrap();
        // Named after the file, even behind a clean partial.
        check(&p, needle);
        let out = merge(&[good.clone(), p.clone()]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("{}: ", p.display())), "{name}: {err}");
    }

    // A Fig 10 class code past the last class: the file's last byte is the
    // code of its last pair-sequence entry.
    let mut code = bytes.clone();
    *code.last_mut().unwrap() = 9;
    let p = dir.join("pair_code.agg");
    std::fs::write(&p, &code).unwrap();
    check(&p, "pair class code out of range");

    // Usage errors: --pops 0 and a missing --out are usage failures.
    let out = bin()
        .args(["pop-run", "--pops", "0", "--out"])
        .arg(&dir)
        .output()
        .expect("pops 0");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["pop-run", "--pops", "2"])
        .output()
        .expect("no out");
    assert_eq!(out.status.code(), Some(2));
    let out = bin().arg("merge").output().expect("no files");
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
