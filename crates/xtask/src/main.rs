//! Repo automation. `cargo xtask ci` is the one-command gate a PR must
//! pass, each check run once: formatting, clippy at `-D warnings` (the
//! workspace lint set lives in `clippy.toml`, `[workspace.lints]` and each
//! crate's `#![deny]`s; sequence-space arithmetic is held by the
//! `tamper_wire::Seq` type), release build, the full workspace test suite,
//! the proptest suites re-run with `PROPTEST_CASES`/`PROPTEST_SEED`
//! pinned, `tamper-wire`'s doctests with their `compile_fail` error codes
//! enforced, a smoke run of
//! `classify --metrics-json` on the golden fixture pcap, a check that
//! `classify` of a 100k-session `synthesize` capture counts what `report`
//! counts for the same world, and a build check
//! and one short run of the stand-alone `benchmark/` package. Every step
//! is timed and the run ends with a per-step wall-time summary.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn run(step: &str, program: &str, args: &[&str]) -> Result<(), String> {
    run_env(step, program, args, &[])
}

/// Like [`run`], with extra environment variables set for the child.
fn run_env(step: &str, program: &str, args: &[&str], envs: &[(&str, &str)]) -> Result<(), String> {
    let env_prefix: String = envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    eprintln!("==> {step}: {env_prefix}{program} {}", args.join(" "));
    let status = Command::new(program)
        .args(args)
        .envs(envs.iter().copied())
        .status()
        .map_err(|e| format!("{step}: failed to spawn {program}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{step}: exited with {status}"))
    }
}

/// Wall-clock ledger for the CI gate: every step is timed and the whole
/// run ends with a per-step summary, so a slow test binary is visible at
/// a glance instead of hiding inside the batch.
struct Stopwatch {
    rows: Vec<(String, std::time::Duration)>,
}

impl Stopwatch {
    fn new() -> Stopwatch {
        Stopwatch { rows: Vec::new() }
    }

    fn time<F>(&mut self, step: &str, f: F) -> Result<(), String>
    where
        F: FnOnce() -> Result<(), String>,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "the CI gate reports each step's wall time"
        )]
        let start = std::time::Instant::now();
        let result = f();
        self.rows.push((step.to_string(), start.elapsed()));
        result
    }

    fn summarize(&self) {
        let width = self
            .rows
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        let total: std::time::Duration = self.rows.iter().map(|(_, d)| *d).sum();
        eprintln!("==> ci wall-time summary");
        for (name, d) in &self.rows {
            eprintln!("    {name:width$}  {:8.2}s", d.as_secs_f64());
        }
        eprintln!("    {:width$}  {:8.2}s", "total", total.as_secs_f64());
    }
}

/// Repo root: xtask runs from anywhere inside the workspace, so resolve
/// relative to this crate's manifest rather than the current directory.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

/// Run the release `tamperscope` with `args`; its stdout.
fn tamperscope(step: &str, args: &[&str]) -> Result<String, String> {
    eprintln!("==> {step}: tamperscope {}", args.join(" "));
    let out = Command::new("cargo")
        .args(["run", "--release", "--quiet", "--bin", "tamperscope", "--"])
        .args(args)
        .current_dir(repo_root())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{step}: failed to spawn cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("{step}: tamperscope exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("{step}: stdout is not UTF-8: {e}"))
}

/// Smoke-run `tamperscope classify --metrics-json` on the golden fixture
/// pcap. The run must succeed, the metrics file must exist and parse with
/// the workspace JSON parser, it must report a nonzero number of
/// classified flows, and it must carry the streaming-memory gauges
/// (`verdicts.buffered_lines_max`, `reader.live_windows_max`) — otherwise
/// the observability surface has silently rotted and the step fails the
/// gate.
fn metrics_smoke() -> Result<(), String> {
    let root = repo_root();
    let pcap = root.join("tests").join("fixtures").join("golden.pcap");
    let metrics = root.join("target").join("xtask-metrics-smoke.json");
    // Stale output from an earlier run must not mask a binary that no
    // longer writes the file.
    let _ = std::fs::remove_file(&metrics);
    let (pcap, metrics) = (pcap.to_string_lossy(), metrics.to_string_lossy());
    tamperscope(
        "metrics smoke",
        &["classify", &pcap, "--metrics-json", &metrics],
    )?;
    let text = std::fs::read_to_string(&*metrics).map_err(|e| {
        format!("metrics smoke: metrics file {metrics} missing after classify: {e}")
    })?;
    let doc = tamper_worldgen::json::Json::parse(text.trim())
        .map_err(|e| format!("metrics smoke: metrics file does not parse: {e}"))?;
    if doc.get("kind").and_then(|v| v.as_str()) != Some("metrics") {
        return Err("metrics smoke: document kind is not \"metrics\"".into());
    }
    let flows = doc
        .get("flows_closed")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "metrics smoke: no numeric flows_closed field".to_string())?;
    if flows == 0 {
        return Err("metrics smoke: zero classified flows on the golden fixture".into());
    }
    let scopes = doc
        .get("scopes")
        .and_then(|v| v.as_array())
        .unwrap_or_default();
    for (scope, gauge) in [
        ("verdicts", "buffered_lines_max"),
        ("reader", "live_windows_max"),
    ] {
        scopes
            .iter()
            .find(|s| s.get("scope").and_then(|v| v.as_str()) == Some(scope))
            .and_then(|s| s.get("gauges")?.get(gauge)?.as_u64())
            .ok_or_else(|| format!("metrics smoke: no {scope}.{gauge} gauge"))?;
    }
    eprintln!(
        "==> metrics smoke: {flows} flow(s) classified, {} scope(s) published",
        scopes.len()
    );
    Ok(())
}

/// Pipeline bench smoke. Tier-1 never builds the stand-alone `benchmark/`
/// workspace, so first `cargo check` it — an API change that breaks
/// `probes` or `synth` fails here — then run the smallest end-to-end
/// measurement (`pcap-mix`, 2 s window, no trace) and require the result
/// line to report `"correct": true` and `"failed": 0`. This proves the
/// benchmark still runs against this tree; regression gating stays with
/// the paired parent/change runs of `BENCHMARK.json`.
fn pipeline_bench_smoke() -> Result<(), String> {
    let root = repo_root();
    let manifest = root.join("benchmark").join("Cargo.toml");
    let manifest = manifest.to_string_lossy();
    run(
        "pipeline bench smoke",
        "cargo",
        &["check", "--manifest-path", &manifest, "--all-targets"],
    )?;
    eprintln!("==> pipeline bench smoke: tamperbench --workload pcap-mix --seconds 2 --trace 0");
    let out = Command::new("cargo")
        .args(["run", "--release", "--quiet", "--manifest-path", &manifest])
        .args(["--bin", "tamperbench", "--", "--workload", "pcap-mix"])
        .args(["--seconds", "2", "--trace", "0"])
        .current_dir(&root)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("pipeline bench smoke: failed to spawn cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pipeline bench smoke: tamperbench exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| "pipeline bench smoke: no JSON result line".to_string())?;
    let doc = tamper_worldgen::json::Json::parse(line)
        .map_err(|e| format!("pipeline bench smoke: result line does not parse: {e}"))?;
    let correct = doc.get("correct").and_then(|v| v.as_bool());
    let failed = doc.get("failed").and_then(|v| v.as_u64());
    if correct != Some(true) || failed != Some(0) {
        return Err(format!("pipeline bench smoke: unhealthy result: {line}"));
    }
    eprintln!("==> pipeline bench smoke: correct, 0 failed");
    Ok(())
}

/// The two doors agree at benchmark scale: `classify` of the capture
/// `synthesize` writes must count the flows, and the possibly tampered
/// ones, that `report` counts for the same world. A writer that drops a
/// flow's last packet, or splits a flow, moves one of them.
fn doors_agree() -> Result<(), String> {
    const STEP: &str = "doors agree";
    const WORLD: [&str; 4] = ["--sessions", "100000", "--seed", "11"];
    let pcap = std::env::temp_dir().join(format!("xtask-doors-{}.pcap", std::process::id()));
    let pcap = pcap.to_string_lossy();
    tamperscope(STEP, &[&["synthesize", &*pcap][..], &WORLD].concat())?;
    let classified = tamperscope(
        STEP,
        &["classify", &pcap, "--json-summary", "--threads", "2"],
    );
    let _ = std::fs::remove_file(&*pcap);
    let classified = classified?;
    let reported = tamperscope(STEP, &[&["report", "--json-summary"][..], &WORLD].concat())?;
    // `classify`'s summary is its second-to-last line (the perf line ends it).
    let pcap_door = classified.lines().rev().nth(1).unwrap_or_default();
    let counts = |line: &str| -> Result<(u64, u64), String> {
        let doc = tamper_worldgen::json::Json::parse(line.trim())
            .map_err(|e| format!("{STEP}: summary does not parse: {e}: {line}"))?;
        let count = |key: &str| doc.get(key).and_then(|v| v.as_u64());
        count("total_flows")
            .zip(count("possibly_tampered"))
            .ok_or_else(|| format!("{STEP}: no total_flows/possibly_tampered in {line}"))
    };
    let (pcap_counts, sim_counts) = (counts(pcap_door)?, counts(&reported)?);
    if pcap_counts != sim_counts {
        return Err(format!(
            "{STEP}: classify of the synthesized world counts (flows, possibly tampered) \
             {pcap_counts:?}, report counts {sim_counts:?}"
        ));
    }
    eprintln!(
        "==> {STEP}: {} flows, {} possibly tampered through both doors",
        sim_counts.0, sim_counts.1
    );
    Ok(())
}

/// Pinned proptest environment for the CI gate: an explicit case count
/// and generation seed, so every CI run draws the identical case stream
/// regardless of local defaults or per-test overrides.
const PROPTEST_ENV: &[(&str, &str)] = &[("PROPTEST_CASES", "64"), ("PROPTEST_SEED", "20230112")];

fn ci() -> Result<(), String> {
    let mut sw = Stopwatch::new();
    let gate: Result<(), String> = (|| {
        sw.time("fmt", || run("fmt", "cargo", &["fmt", "--all", "--check"]))?;
        sw.time("clippy", || {
            run(
                "clippy",
                "cargo",
                &[
                    "clippy",
                    "--workspace",
                    "--all-targets",
                    "--",
                    "-D",
                    "warnings",
                ],
            )
        })?;
        sw.time("build", || run("build", "cargo", &["build", "--release"]))?;
        sw.time("test", || {
            run("test", "cargo", &["test", "--workspace", "-q"])
        })?;
        // The proptest suites re-run with the case count and seed pinned,
        // one step per test binary so its wall time lands in the summary.
        for suite in ["properties", "state_machine"] {
            sw.time(&format!("proptest {suite}"), || {
                run_env(
                    &format!("proptest {suite}"),
                    "cargo",
                    &["test", "-q", "--test", suite],
                    PROPTEST_ENV,
                )
            })?;
        }
        // Stable rustdoc ignores the error code a `compile_fail,E0369`
        // fence names; with RUSTC_BOOTSTRAP set it checks it, so a `Seq`
        // guard that stops compiling for another reason fails here.
        sw.time("wire compile_fail codes", || {
            run_env(
                "wire compile_fail codes",
                "cargo",
                &["test", "-q", "-p", "tamper-wire", "--doc"],
                &[("RUSTC_BOOTSTRAP", "1")],
            )
        })?;
        sw.time("metrics smoke", metrics_smoke)?;
        sw.time("doors agree", doors_agree)?;
        sw.time("pipeline bench smoke", pipeline_bench_smoke)?;
        Ok(())
    })();
    sw.summarize();
    gate?;
    eprintln!("==> ci: all green");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = args.first().map(String::as_str).unwrap_or_default();
    let result = match task {
        "ci" => ci(),
        _ => Err(format!(
            "unknown task {task:?}\n\nUSAGE: cargo xtask <task>\n\nTASKS:\n  \
             ci    fmt + clippy + release build + workspace tests + \
             pinned-seed proptests + compile_fail codes + metrics \
             smoke + doors agree + pipeline-bench smoke"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::FAILURE
        }
    }
}
