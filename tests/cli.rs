//! End-to-end tests of the `tamperscope` CLI binary: synthesize a capture,
//! classify it in both output modes, and check the simulation subcommands.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tamperscope"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tamperscope_cli_{}_{name}", std::process::id()))
}

#[test]
fn signatures_lists_nineteen_rows() {
    let out = bin().arg("signatures").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let rows = text.lines().filter(|l| l.contains('⟨')).count();
    assert_eq!(rows, 19);
    assert!(text.contains("⟨PSH+ACK → RST; RST₀⟩"));
}

/// The number after `"key":` in a JSON line.
fn json_number(text: &str, key: &str) -> f64 {
    text.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {text}"))
}

#[test]
fn synthesize_then_classify_round_trip() {
    // The capture of the world `report` classifies for the same flags,
    // written identically at any thread count.
    let world = ["--sessions", "1000", "--seed", "3"];
    let pcap = synthesized("round_trip.pcap", &world);
    let two = synthesized(
        "round_trip_t2.pcap",
        &[&world[..], &["--threads", "2"]].concat(),
    );
    let bytes = std::fs::read(&pcap).unwrap();
    assert!(
        bytes == std::fs::read(&two).unwrap(),
        "threads 1 vs 2 wrote different captures"
    );
    let _ = std::fs::remove_file(&two);

    // Both doors read the same world: the pcap door's summary counts what
    // the simulator door's does.
    let out = bin()
        .args(["classify", pcap.to_str().unwrap(), "--json-summary"])
        .output()
        .expect("classify summary");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let pcap_door = text.lines().rev().nth(1).expect("a summary line");
    let out = bin()
        .args(["report", "--json-summary"])
        .args(world)
        .output()
        .expect("report");
    assert!(out.status.success());
    let sim_door = String::from_utf8(out.stdout).unwrap();
    for key in ["total_flows", "possibly_tampered"] {
        assert_eq!(
            json_number(pcap_door, key),
            json_number(&sim_door, key),
            "{key}: {pcap_door} vs {sim_door}"
        );
    }

    let out = bin()
        .args(["classify", pcap.to_str().unwrap()])
        .output()
        .expect("classify");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("TAMPERED"));
    assert!(text.contains("clean"));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("flows match a tampering signature"));

    // JSONL mode: every line is a JSON object with the expected keys.
    let out = bin()
        .args(["classify", pcap.to_str().unwrap(), "--jsonl"])
        .output()
        .expect("classify jsonl");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 900);
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"verdict\":"));
        assert!(line.contains("\"client_ip\":"));
    }
    let _ = std::fs::remove_file(&pcap);
}

#[test]
fn classify_accepts_flags_in_any_position() {
    // Regression: boolean flags placed before the positional path used to
    // swallow the next argument as their "value", so `classify --jsonl X`
    // saw no positional at all.
    let pcap = synthesized("flag_order.pcap", &["--sessions", "60"]);

    let flag_first = bin()
        .args(["classify", "--jsonl", pcap.to_str().unwrap()])
        .output()
        .expect("classify flag-first");
    assert!(
        flag_first.status.success(),
        "{}",
        String::from_utf8_lossy(&flag_first.stderr)
    );
    let flag_last = bin()
        .args(["classify", pcap.to_str().unwrap(), "--jsonl"])
        .output()
        .expect("classify flag-last");
    assert!(flag_last.status.success());
    assert_eq!(
        flag_first.stdout, flag_last.stdout,
        "flag position changed output"
    );

    // The engine path: thread count must not change a single output byte,
    // and --json-summary appends the summary + perf lines.
    let t1 = bin()
        .args([
            "classify",
            pcap.to_str().unwrap(),
            "--jsonl",
            "--threads",
            "1",
        ])
        .output()
        .expect("threads 1");
    let t4 = bin()
        .args([
            "classify",
            "--threads",
            "4",
            "--jsonl",
            pcap.to_str().unwrap(),
        ])
        .output()
        .expect("threads 4");
    assert!(t1.status.success() && t4.status.success());
    assert_eq!(t1.stdout, t4.stdout, "verdicts differ across thread counts");

    let summary = bin()
        .args([
            "classify",
            pcap.to_str().unwrap(),
            "--json-summary",
            "--threads",
            "2",
        ])
        .output()
        .expect("summary");
    assert!(summary.status.success());
    let text = String::from_utf8(summary.stdout).unwrap();
    assert!(text.contains("\"total_flows\":"), "{text}");
    assert!(text.contains("\"signatures\":"), "{text}");
    assert!(text.contains("\"threads\":2"), "{text}");
    let _ = std::fs::remove_file(&pcap);
}

#[test]
fn report_json_summary_is_valid_shape() {
    let out = bin()
        .args([
            "report",
            "--sessions",
            "4000",
            "--days",
            "2",
            "--json-summary",
        ])
        .output()
        .expect("report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text.trim();
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"total_flows\":"));
    assert!(line.contains("\"possibly_tampered\":"));

    // `--threads 0` is the default spelled out (one shard per core), not
    // one shard: same bytes, and the same shard count in the metrics.
    let shards = |extra: &[&str]| {
        let metrics = tmp("threads0.json");
        let out = bin()
            .args(["report", "--sessions", "4000", "--days", "2"])
            .args([
                "--json-summary",
                "--metrics-json",
                metrics.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("report");
        assert!(out.status.success());
        let doc = std::fs::read_to_string(&metrics).expect("metrics written");
        let _ = std::fs::remove_file(&metrics);
        let (_, gauge) = doc.split_once("\"threads\":").expect("threads gauge");
        let shards: String = gauge.chars().take_while(char::is_ascii_digit).collect();
        (out.stdout, shards)
    };
    assert_eq!(shards(&["--threads", "0"]), shards(&[]));
}

#[test]
fn world_spec_emits_one_json_line_per_country() {
    let out = bin().arg("world-spec").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 50, "expected one line per country");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"country\":"));
        assert!(
            !line.contains("-0,") && !line.ends_with("-0}"),
            "negative zero leaked: {line}"
        );
    }
    assert!(text.contains("\"country\":\"TM\""));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE"));
}

#[test]
fn unparseable_numeric_flag_is_a_usage_error() {
    // `--threads=abc`, a typo (`--jsnol`), a flag nothing reads
    // (`--port`) or one this subcommand does not read used to be a
    // silently different run, and a number past what a run survives a
    // panic or an abort; each is a usage failure (exit 2) that names the
    // flag.
    let check = |args: &str, why: &str| {
        let out = bin().args(args.split(' ')).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?} did not exit 2");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("USAGE"), "{args:?}: {err}");
        assert!(err.contains(why), "{args:?}: {err}");
    };
    for (args, why) in [
        (
            "report --sessions abc",
            "--sessions: \"abc\" is not an unsigned integer",
        ),
        (
            "report --threads=abc",
            "--threads: \"abc\" is not an unsigned integer",
        ),
        (
            "iran --sessions abc",
            "--sessions: \"abc\" is not an unsigned integer",
        ),
        (
            "synthesize /tmp/never-written.pcap --seed -1",
            "--seed: \"-1\" is not",
        ),
        ("report --threads", "--threads requires a value"),
        (
            "classify tests/fixtures/golden.pcap --jsnol",
            "unknown flag --jsnol\n",
        ),
        (
            "classify tests/fixtures/golden.pcap --port 8080",
            "unknown flag --port\n",
        ),
        ("report --thread 1", "unknown flag --thread\n"),
        (
            "pop-run --pops 2 --out /tmp/never-written --metrics-json m.json",
            "pop-run takes no --metrics-json",
        ),
        (
            "classify tests/fixtures/golden.pcap --jsonl --explain",
            "--jsonl and --explain are exclusive",
        ),
        (
            "classify tests/fixtures/golden.pcap --pops 3",
            "classify takes no --pops",
        ),
        (
            "classify tests/fixtures/golden.pcap --sessions 5",
            "classify takes no --sessions",
        ),
        ("report --days 0", "--days: 0 is outside 1..=366"),
        (
            "pop-run --pops 2 --out /tmp/never-written --days 0",
            "--days: 0 is outside 1..=366",
        ),
        (
            "report --days 4294967297",
            "--days: 4294967297 is outside 1..=366",
        ),
        (
            "report --threads 4294967296",
            "--threads: 4294967296 is outside 0..=256",
        ),
        (
            "classify tests/fixtures/golden.pcap --threads 100000",
            "--threads: 100000 is outside 0..=256",
        ),
        (
            "pop-run --pops 50000000 --out /tmp/never-written",
            "--pops: 50000000 is outside 1..=1024",
        ),
    ] {
        check(args, why);
    }
    // `merge` gets a real partial: the rows must fail on the flag, not
    // on a missing file.
    let dir = tmp("usage_merge");
    let world = "--sessions 1000 --days 1";
    let out = bin()
        .args(["pop-run", "--pops", "1", "--out"])
        .arg(&dir)
        .args(world.split(' '))
        .output()
        .expect("pop-run");
    assert!(out.status.success());
    let agg = dir.join("pop0.agg");
    for (flag, why) in [
        ("--threads 4", "merge takes no --threads"),
        ("--max-flows 9", "merge takes no --max-flows"),
        ("--jsonl", "merge takes no --jsonl"),
    ] {
        check(&format!("merge {} {world} {flag}", agg.display()), why);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn classify_missing_file_fails_cleanly() {
    let out = bin()
        .args(["classify", "/definitely/not/here.pcap"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot open"));
}

/// `classify tests/fixtures/golden.pcap <flags>`: stdout of a successful run.
fn classify_golden(flags: &[&str]) -> Vec<u8> {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.pcap");
    let out = bin()
        .args(["classify", golden])
        .args(flags)
        .output()
        .expect("classify");
    assert!(
        out.status.success(),
        "{flags:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn classify_output_bytes_ignore_thread_count_and_cap() {
    for mode in [&[][..], &["--jsonl"], &["--explain"]] {
        let with = |extra: &[&str]| classify_golden(&[mode, extra].concat());
        let one = with(&["--threads", "1"]);
        assert!(!one.is_empty());
        for threads in ["2", "8"] {
            assert!(with(&["--threads", threads]) == one, "{mode:?} x{threads}");
        }
        // The cap is per shard, so it splits flows differently at each
        // thread count — but at one count, the same way every run.
        let capped = ["--threads", "2", "--max-flows", "4"];
        assert!(with(&capped) != one, "{mode:?}: cap 4 never fired");
        assert!(with(&capped) == with(&capped), "{mode:?} --max-flows 4");
    }
    let golden_verdicts = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden.verdicts.jsonl"
    ))
    .unwrap();
    assert!(classify_golden(&["--jsonl"]) == golden_verdicts);
}

#[test]
fn classify_fails_when_stdout_cannot_take_the_verdicts() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no /dev/full on this platform
    };
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.pcap");
    let out = bin()
        .args(["classify", golden, "--jsonl"])
        .stdout(full)
        .output()
        .expect("classify");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot write verdicts: "), "{err}");
    assert!(!err.contains("flows match"), "{err}");
}

#[test]
fn classify_fails_when_the_capture_cannot_be_read() {
    // A directory opens but fails its first read: a read error, never a
    // corrupt tail or an empty capture.
    let dir = std::env::temp_dir();
    let out = bin()
        .args(["classify", dir.to_str().unwrap(), "--jsonl"])
        .output()
        .expect("classify");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains(&format!("cannot read {}: ", dir.display())),
        "{err}"
    );
    assert!(!err.contains("corrupt"), "{err}");
}

/// `synthesize --threads 1 <flags>` into a temp capture; its path.
fn synthesized(name: &str, flags: &[&str]) -> std::path::PathBuf {
    let pcap = tmp(name);
    let out = bin()
        .args(["synthesize", pcap.to_str().unwrap(), "--threads", "1"])
        .args(flags)
        .output()
        .expect("synthesize");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    pcap
}

#[test]
fn classify_exits_quietly_when_the_reader_hangs_up() {
    use std::io::BufRead;
    // Several 1 MiB read windows, and far more verdict bytes than a pipe
    // holds: the hang-up lands mid-stream.
    let pcap = synthesized("hangup.pcap", &["--sessions", "8000"]);
    assert!(std::fs::metadata(&pcap).unwrap().len() > 2 << 20);
    let mut child = bin()
        .args([
            "classify",
            pcap.to_str().unwrap(),
            "--jsonl",
            "--threads",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("classify");
    let mut first = String::new();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    stdout.read_line(&mut first).unwrap();
    drop(stdout);
    let out = child.wait_with_output().expect("classify");
    let _ = std::fs::remove_file(&pcap);
    assert!(first.starts_with("{\"client_ip\":"), "{first}");
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(!err.contains("cannot write"), "{err}");
}

/// `classify --jsonl --threads 1` on a synthesized capture of `sessions`
/// sessions: the most verdict lines it held back at once.
fn buffered_lines_max(sessions: u32) -> u64 {
    let n = sessions.to_string();
    let pcap = synthesized(&format!("held{sessions}.pcap"), &["--sessions", &n]);
    let metrics = tmp(&format!("held{sessions}.json"));
    let out = bin()
        .args([
            "classify",
            pcap.to_str().unwrap(),
            "--jsonl",
            "--threads",
            "1",
        ])
        .args(["--metrics-json", metrics.to_str().unwrap()])
        .output()
        .expect("classify");
    assert!(out.status.success());
    let doc = std::fs::read_to_string(&metrics).expect("metrics written");
    let _ = std::fs::remove_file(&pcap);
    let _ = std::fs::remove_file(&metrics);
    let (_, gauge) = doc
        .split_once("\"buffered_lines_max\":")
        .expect("buffered_lines_max gauge");
    let digits: String = gauge.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn classify_holds_verdicts_by_live_flows_not_capture_length() {
    // Verdicts are written as the live-flow watermark passes them, so the
    // lines held at once do not grow with the capture: four times the
    // sessions, at most one more batch of held lines.
    let (short, long) = (buffered_lines_max(2_000), buffered_lines_max(8_000));
    assert!(short > 0);
    assert!(
        long <= short + 512,
        "2k sessions held {short}, 8k held {long}"
    );
}

/// One session is at most 10 packets, well under the `BufWriter`'s 8 KiB:
/// only the final flush ever reaches the device.
#[test]
fn synthesize_fails_when_the_capture_cannot_be_written() {
    if !std::path::Path::new("/dev/full").exists() {
        return; // no /dev/full on this platform
    }
    let out = bin()
        .args(["synthesize", "/dev/full", "--sessions", "1"])
        .output()
        .expect("synthesize");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot write /dev/full: "), "{err}");
    assert!(!err.contains("wrote"), "{err}");
}

#[test]
fn custom_world_round_trips_through_cli() {
    // Export the calibrated world, load it back, and run a small report.
    let spec_path = tmp("world.json");
    let out = bin().args(["world-spec", "--full"]).output().expect("run");
    assert!(out.status.success());
    std::fs::write(&spec_path, &out.stdout).unwrap();

    let out = bin()
        .args([
            "report",
            "--world",
            spec_path.to_str().unwrap(),
            "--sessions",
            "3000",
            "--days",
            "2",
            "--json-summary",
        ])
        .output()
        .expect("report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"possibly_tampered\":"));
    let _ = std::fs::remove_file(&spec_path);
}

#[test]
fn single_country_world_runs() {
    let spec_path = tmp("mono.json");
    std::fs::write(
        &spec_path,
        r#"[{
            "code": "QQ", "weight": 1, "http_share": 0.5,
            "policy": {
                "dpi_blanket": 0.5,
                "dpi_mix": [{"vendor": "GfwDoubleRstAck", "rate": 1}]
            }
        }]"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "report",
            "--world",
            spec_path.to_str().unwrap(),
            "--sessions",
            "2500",
            "--days",
            "1",
            "--json-summary",
        ])
        .output()
        .expect("report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Half the country is GFW'd: the possibly-tampered rate must be far
    // above the benign floor.
    let pt = json_number(&text, "possibly_tampered");
    let total = json_number(&text, "total_flows");
    assert!(pt / total > 0.4, "pt {pt} / total {total}");
    let _ = std::fs::remove_file(&spec_path);
}

#[test]
fn malformed_world_fails_with_context() {
    // Each bad world exits 1 with its named message — a panic (exit 101)
    // or a stack overflow fails the case even though it is also a failure
    // — and a world whose DPI fires on over-blocking alone runs.
    for (name, world, message) in [
        (
            "unknown vendor",
            r#"[{"code":"X","weight":1,"policy":{"dpi_mix":[{"vendor":"Nope","rate":1}]}}]"#,
            Some("unknown vendor"),
        ),
        (
            "negative multiplier",
            r#"[{"code":"X","weight":1,"policy":{"affinity":[{"category":"News","multiplier":-1}]}}]"#,
            Some("affinity multiplier -1 must be a positive number"),
        ),
        (
            "out-of-range tz",
            r#"[{"code":"X","weight":1,"tz_offset_hours":2147483647}]"#,
            Some("\"tz_offset_hours\" must be an integer in -12..=14"),
        ),
        (
            "deep nesting",
            &"[".repeat(100_000),
            Some("nesting deeper than 64"),
        ),
        (
            "overblock only",
            r#"[{"code":"OB","weight":1,"policy":{"overblock_substrings":["a","e"]}}]"#,
            None,
        ),
    ] {
        let spec_path = tmp(&format!("world_{}.json", name.replace(' ', "_")));
        std::fs::write(&spec_path, world).unwrap();
        let out = bin()
            .args(["report", "--world", spec_path.to_str().unwrap()])
            .args(["--sessions", "2000", "--days", "1"])
            .output()
            .expect("report");
        let _ = std::fs::remove_file(&spec_path);
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(!err.contains("panicked"), "{name}: {err}");
        let Some(message) = message else {
            assert_eq!(out.status.code(), Some(0), "{name}: {err}");
            let text = String::from_utf8(out.stdout).unwrap();
            let connections: u64 = text
                .split("Connections:")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse().ok())
                .expect("a Connections: count");
            assert!(connections > 0, "{name}: {text}");
            continue;
        };
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(message), "{name}: {err}");
    }
}
