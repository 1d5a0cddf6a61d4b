//! `tamperbench` — the end-to-end runner of the tamperscope benchmark.
//!
//! ```text
//! tamperbench [run]  [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//! tamperbench check  [--workload W] [--seed S] [--seconds N]
//! ```
//!
//! Run it from the repository root. It builds `tamperscope`, generates
//! each workload's inputs from the seed, times the real CLI binary as a
//! child process (closed loop, one client, always `--threads 1`), checks
//! every run's output, and prints every metric with its unit; the last
//! line of standard output per workload is one JSON object. `--trace 1`
//! takes the per-layer metrics instead (it builds and spawns the separate
//! `probes` binary); without `--trace` both sets are taken.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use tamper_worldgen::{WorldConfig, WorldSim};
use tamperbench::child::{run_child, ChildRun};
use tamperbench::spec::{
    Workload, DAYS, END_TO_END, FLOOD_CAP, FLOOD_FLOWS, MIX_FLOWS, PER_LAYER, POPS, POP_SESSIONS,
    SIM_SESSIONS,
};
use tamperbench::stats::{median, summarize, Summary};
use tamperbench::synth;

const USAGE: &str =
    "usage: tamperbench [run|check] [--workload pcap-mix|pcap-flood|sim-report|pop-merge]
                   [--seed S] [--seconds N] [--trace 0|1]
  run    (default) measure the chosen workload, or all four
  check  measure twice on the same build; fail unless the two agree";

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Run,
    Check,
    /// Internal: generate one workload's inputs under `--dir` and print
    /// what they hold. The runner spawns itself in this mode for set-up,
    /// so its own resident set stays small (see [`setup`]).
    Synth,
}

struct Opts {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only;
    /// `None`: both.
    trace: Option<bool>,
    /// Output directory (`synth` only).
    dir: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        mode: Mode::Run,
        workload: None,
        seed: 11,
        seconds: 10,
        trace: None,
        dir: None,
    };
    let mut it = args.iter().peekable();
    let mode = match it.peek().map(|s| s.as_str()) {
        Some("run") => Some(Mode::Run),
        Some("check") => Some(Mode::Check),
        Some("synth") => Some(Mode::Synth),
        _ => None,
    };
    if let Some(mode) = mode {
        opts.mode = mode;
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                opts.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--dir" => opts.dir = Some(PathBuf::from(value("--dir")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.mode == Mode::Synth && (opts.workload.is_none() || opts.dir.is_none()) {
        return Err("synth needs --workload and --dir".to_owned());
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(opts)
}

/// Where the built binaries and the benchmark's files live.
struct Env {
    cli: PathBuf,
    runner: PathBuf,
    probes: PathBuf,
    data: PathBuf,
}

fn cargo_build(args: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .arg("build")
        .arg("--release")
        .args(args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build --release {} failed", args.join(" ")))
    }
}

fn prepare_env(need_probes: bool) -> Result<Env, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run tamperbench from the repository root".to_owned());
    }
    let target = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()));
    cargo_build(&["--bin", "tamperscope"])?;
    let runner = std::env::current_exe().map_err(|e| format!("cannot locate tamperbench: {e}"))?;
    let probes = runner.with_file_name("probes");
    if need_probes {
        cargo_build(&["--manifest-path", "benchmark/Cargo.toml", "--bin", "probes"])?;
    }
    let data = target.join("benchmark");
    std::fs::create_dir_all(&data).map_err(|e| format!("cannot create {}: {e}", data.display()))?;
    Ok(Env {
        cli: target.join("release/tamperscope"),
        runner,
        probes,
        data,
    })
}

/// A workload's generated inputs, ready to run.
struct Prepared {
    /// CLI arguments, without `--threads`.
    argv: Vec<String>,
    /// Flows the inputs hold: what a correct run accounts for.
    offered: u64,
    /// Frames in the capture (pcap workloads).
    frames: u64,
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

/// The number that follows `prefix` in `text`.
fn number_after(text: &str, prefix: &str) -> Option<u64> {
    let at = text.find(prefix)? + prefix.len();
    let digits: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The number after `"key":` in a flat JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    number_after(line, &format!("\"{key}\":"))
}

fn world_flags(sessions: u64, seed: u64) -> Vec<String> {
    vec![
        s("--sessions"),
        s(sessions),
        s("--days"),
        s(DAYS),
        s("--seed"),
        s(seed),
    ]
}

/// `synth` mode: generate `w`'s in-process inputs under `dir` and return
/// the flows and frames they hold.
fn synth_inputs(w: Workload, seed: u64, dir: &Path) -> Result<(u64, u64), String> {
    let write = |name: &str, cap: synth::Capture| {
        std::fs::write(dir.join(name), &cap.pcap)
            .map(|()| (cap.flows, cap.frames))
            .map_err(|e| format!("cannot write {name}: {e}"))
    };
    match w {
        Workload::PcapMix => write("mix.pcap", synth::mix_capture(seed, MIX_FLOWS)),
        Workload::PcapFlood => write("flood.pcap", synth::flood_capture(seed, FLOOD_FLOWS)),
        Workload::SimReport => {
            // Count, independently of the CLI, the sessions that yield a
            // flow (a few per hundred thousand never reach the server).
            let sim = WorldSim::new(WorldConfig {
                seed,
                sessions: SIM_SESSIONS,
                days: DAYS as u32,
                ..WorldConfig::default()
            });
            let flows = (0..SIM_SESSIONS)
                .filter(|&i| sim.gen_session(i).is_some())
                .count();
            Ok((flows as u64, 0))
        }
        Workload::PopMerge => Err("pop-merge inputs come from `tamperscope pop-run`".to_owned()),
    }
}

/// Generate `w`'s inputs from `seed` under `dir`. This is the timed
/// set-up: capture synthesis, the independent session count, or `pop-run`.
///
/// All of it runs in child processes. `ru_maxrss` of a spawned child
/// starts from the spawning process's own peak, so a runner that had
/// synthesized a 56 MiB capture in process would report its own 190 MiB
/// as every later child's peak resident set.
fn setup(w: Workload, seed: u64, env: &Env, dir: &Path) -> Result<Prepared, String> {
    let synth = || -> Result<(u64, u64), String> {
        let argv = [
            s("synth"),
            s("--workload"),
            s(w.name()),
            s("--seed"),
            s(seed),
            s("--dir"),
            dir.display().to_string(),
        ];
        let run = run_child(&env.runner, &argv, &dir.join("synth.err"), false)
            .map_err(|e| format!("cannot run synth: {e}"))?;
        let held =
            number_after(&run.out.head, "flows ").zip(number_after(&run.out.head, "frames "));
        match held {
            Some(held) if run.reaped.status.success() => Ok(held),
            _ => Err(format!("synth failed: {}{}", run.out.head, run.stderr)),
        }
    };
    let classify = |capture: &str| {
        let path = dir.join(capture).display().to_string();
        vec![s("classify"), path, s("--jsonl"), s("--json-summary")]
    };
    let (mut argv, (offered, frames)) = match w {
        Workload::PcapMix => (classify("mix.pcap"), synth()?),
        Workload::PcapFlood => {
            let mut argv = classify("flood.pcap");
            argv.extend([s("--max-flows"), s(FLOOD_CAP)]);
            (argv, synth()?)
        }
        Workload::SimReport => (vec![s("report")], synth()?),
        Workload::PopMerge => {
            let pops = dir.join("pops");
            let mut argv = vec![
                s("pop-run"),
                s("--pops"),
                s(POPS),
                s("--out"),
                pops.display().to_string(),
                s("--threads"),
                s(1),
            ];
            argv.extend(world_flags(POP_SESSIONS, seed));
            let run = run_child(&env.cli, &argv, &dir.join("pop-run.err"), false)
                .map_err(|e| format!("cannot run pop-run: {e}"))?;
            if !run.reaped.status.success() {
                return Err(format!("pop-run failed: {}", run.stderr));
            }
            // One stderr line per partial: "[path] N flows, B bytes (…)".
            let per_pop: Vec<u64> = run
                .stderr
                .lines()
                .filter_map(|l| number_after(l, "] "))
                .collect();
            if per_pop.len() as u64 != POPS {
                return Err(format!("pop-run reported {} partials", per_pop.len()));
            }
            let mut argv = vec![s("merge")];
            argv.extend((0..POPS).map(|p| pops.join(format!("pop{p}.agg")).display().to_string()));
            (argv, (per_pop.iter().sum(), 0))
        }
    };
    match w {
        Workload::SimReport => argv.extend(world_flags(SIM_SESSIONS, seed)),
        Workload::PopMerge => argv.extend(world_flags(POP_SESSIONS, seed)),
        Workload::PcapMix | Workload::PcapFlood => {}
    }
    Ok(Prepared {
        argv,
        offered,
        frames,
    })
}

fn is_pcap(w: Workload) -> bool {
    matches!(w, Workload::PcapMix | Workload::PcapFlood)
}

/// `classify` and `report` take `--threads`; `merge` is single-threaded.
fn with_threads(w: Workload, argv: &[String], threads: u64) -> Vec<String> {
    let mut v = argv.to_vec();
    if w != Workload::PopMerge {
        v.extend([s("--threads"), s(threads)]);
    }
    v
}

/// The self-consistency checks on one run. None of them looks at a
/// verdict, so a legitimate classifier fix does not trip them.
fn check_run(w: Workload, p: &Prepared, run: &ChildRun) -> Result<(), String> {
    if !run.reaped.status.success() {
        return Err(format!("exit {:?}", run.reaped.status.code()));
    }
    let want = |what: &str, got: Option<u64>, expected: u64| match got {
        Some(v) if v == expected => Ok(()),
        other => Err(format!("{what}: {other:?}, expected {expected}")),
    };
    if is_pcap(w) {
        let mut last_two = run.out.tail.lines().rev();
        let perf = last_two.next().unwrap_or("");
        let summary = last_two.next().unwrap_or("");
        want("records", json_u64(summary, "records"), p.frames)?;
        want("unparsable", json_u64(summary, "unparsable"), 0)?;
        want("flows", json_u64(summary, "flows"), p.offered)?;
        want("total_flows", json_u64(summary, "total_flows"), p.offered)?;
        want("jsonl lines", run.out.lines.checked_sub(2), p.offered)?;
        if w == Workload::PcapFlood {
            want(
                "max_live_flows",
                json_u64(perf, "max_live_flows"),
                FLOOD_CAP,
            )?;
            want("evicted_timeout", json_u64(perf, "evicted_timeout"), 0)?;
        }
    } else {
        want(
            "connections",
            number_after(&run.out.head, "Connections: "),
            p.offered,
        )?;
    }
    if w == Workload::PopMerge {
        want(
            "merged flows",
            number_after(&run.stderr, " partials, "),
            p.offered,
        )?;
    }
    Ok(())
}

/// One child run as recorded in `results.json`.
struct RunRecord {
    phase: &'static str,
    run: ChildRun,
    failure: Option<String>,
}

/// Runs a workload's CLI invocations and keeps the ledger of every run.
struct Runner<'a> {
    w: Workload,
    env: &'a Env,
    dir: PathBuf,
    prepared: Prepared,
    reference_digest: Option<u64>,
    records: Vec<RunRecord>,
}

impl Runner<'_> {
    /// Run the CLI once with `extra` flags and check the result. Every
    /// run's digested output must equal the first run's.
    fn run(&mut self, phase: &'static str, threads: u64, extra: &[String]) -> Result<(), String> {
        let mut argv = with_threads(self.w, &self.prepared.argv, threads);
        argv.extend_from_slice(extra);
        let run = run_child(
            &self.env.cli,
            &argv,
            &self.dir.join("cli.err"),
            is_pcap(self.w),
        )
        .map_err(|e| format!("cannot run {}: {e}", self.env.cli.display()))?;
        let mut failure = check_run(self.w, &self.prepared, &run).err();
        let reference = *self.reference_digest.get_or_insert(run.out.digest);
        if failure.is_none() && run.out.digest != reference {
            failure = Some(format!(
                "digest {:016x} differs from the first run's {reference:016x}",
                run.out.digest
            ));
        }
        if let Some(why) = &failure {
            eprintln!("[{}] {phase} run failed: {why}", self.w.name());
        }
        self.records.push(RunRecord {
            phase,
            run,
            failure,
        });
        Ok(())
    }

    fn phase(&self, phase: &'static str) -> impl Iterator<Item = &RunRecord> + '_ {
        self.records.iter().filter(move |r| r.phase == phase)
    }

    fn walls(&self, phase: &'static str) -> Vec<f64> {
        self.phase(phase).map(|r| r.run.wall_s).collect()
    }

    /// Flows attempted and failed over every run of the workload's own
    /// command: a run that exits non-zero or fails a check loses all of
    /// its flows.
    fn tally(&self) -> (u64, u64) {
        let own = || self.records.iter().filter(|r| r.phase != "reference");
        let failed = own().filter(|r| r.failure.is_some()).count() as u64;
        (
            own().count() as u64 * self.prepared.offered,
            failed * self.prepared.offered,
        )
    }
}

/// Everything measured for one workload.
struct WorkloadResult {
    w: Workload,
    offered: u64,
    digest: u64,
    setup_runs: Vec<f64>,
    /// End-to-end metric summaries (empty for a traced-only run).
    end_to_end: Vec<(&'static str, &'static str, Summary)>,
    /// Per-layer metric values (empty without tracing).
    per_layer: Vec<(&'static str, &'static str, f64)>,
    /// Probe busy time per layer, ms, and whether it is on the CLI's path.
    busy: Vec<(String, f64, bool)>,
    records: Vec<RunRecord>,
    attempted: u64,
    failed: u64,
}

fn time_setup(
    w: Workload,
    seed: u64,
    env: &Env,
    dir: &Path,
    repeat: bool,
) -> Result<(Prepared, Vec<f64>), String> {
    // Set-up is repeated so its median is steady: at least three times,
    // and for the cheap ones until two seconds have gone into it.
    const MAX_SETUPS: usize = 25;
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let prepared = setup(w, seed, env, dir)?;
        times.push(start.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if !repeat || (times.len() >= 3 && (spent >= 2.0 || times.len() >= MAX_SETUPS)) {
            return Ok((prepared, times));
        }
    }
}

fn start_runner<'a>(
    w: Workload,
    seed: u64,
    env: &'a Env,
    repeat_setup: bool,
) -> Result<(Runner<'a>, Vec<f64>), String> {
    let dir = env.data.join(w.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (prepared, setup_runs) = time_setup(w, seed, env, &dir, repeat_setup)?;
    let mut runner = Runner {
        w,
        env,
        dir,
        prepared,
        reference_digest: None,
        records: Vec::new(),
    };
    if w == Workload::PopMerge {
        // The merged report must be byte-identical to a single-machine
        // report of the same flags; its digest becomes the reference.
        let mut argv = vec![s("report"), s("--threads"), s(1)];
        argv.extend(world_flags(POP_SESSIONS, seed));
        let report = run_child(&env.cli, &argv, &runner.dir.join("report.err"), false)
            .map_err(|e| format!("cannot run report: {e}"))?;
        if !report.reaped.status.success() {
            return Err(format!("reference report failed: {}", report.stderr));
        }
        runner.reference_digest = Some(report.out.digest);
        runner.records.push(RunRecord {
            phase: "reference",
            run: report,
            failure: None,
        });
    }
    Ok((runner, setup_runs))
}

fn finish(runner: Runner, setup_runs: Vec<f64>) -> WorkloadResult {
    let (attempted, failed) = runner.tally();
    WorkloadResult {
        w: runner.w,
        offered: runner.prepared.offered,
        digest: runner.reference_digest.unwrap_or(0),
        setup_runs,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        busy: Vec::new(),
        records: runner.records,
        attempted,
        failed,
    }
}

/// The end-to-end measurement: timed set-ups, one discarded warm-up, then
/// back-to-back timed runs for `seconds` seconds.
fn run_end_to_end(
    w: Workload,
    seed: u64,
    seconds: u64,
    env: &Env,
) -> Result<WorkloadResult, String> {
    let (mut runner, setup_runs) = start_runner(w, seed, env, true)?;
    runner.run("warmup", 1, &[])?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds as f64 || runner.phase("timed").count() < 3 {
        runner.run("timed", 1, &[])?;
    }
    let offered = runner.prepared.offered as f64;
    let walls = runner.walls("timed");
    let rates: Vec<f64> = walls.iter().map(|wall| offered / wall).collect();
    let rss: Vec<f64> = runner
        .phase("timed")
        .map(|r| r.run.reaped.peak_rss_kib as f64 / 1024.0)
        .collect();
    let values = [&setup_runs, &walls, &rates, &rss];
    let mut result = finish(runner, setup_runs.clone());
    result.end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, summarize(v)))
        .collect();
    Ok(result)
}

/// The traced measurement: a few CLI runs for wall time, the cost of
/// `--metrics-json`, and the two-thread ratio, then the in-process probes.
fn run_traced(w: Workload, seed: u64, seconds: u64, env: &Env) -> Result<WorkloadResult, String> {
    let (mut runner, setup_runs) = start_runner(w, seed, env, false)?;
    runner.run("warmup", 1, &[])?;
    for _ in 0..3 {
        runner.run("plain", 1, &[])?;
    }
    let wall_s = median(&runner.walls("plain"));
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    if matches!(w, Workload::PcapMix | Workload::SimReport) {
        let metrics = runner.dir.join("metrics.json").display().to_string();
        for _ in 0..3 {
            runner.run("observed", 1, &[s("--metrics-json"), metrics.clone()])?;
            runner.run("threads2", 2, &[])?;
        }
        let observed = median(&runner.walls("observed"));
        let two = median(&runner.walls("threads2"));
        layer.insert(s("obs.overhead_share"), observed / wall_s - 1.0);
        layer.insert(s("capture.engine.t2_speedup"), wall_s / two);
    }
    let cpu: Vec<f64> = runner
        .phase("plain")
        .map(|r| r.run.reaped.user_s + r.run.reaped.sys_s)
        .collect();
    layer.insert(s("proc.cpu_s"), median(&cpu));
    let stdout_bytes = runner.phase("plain").map(|r| r.run.out.bytes).max();
    let stdout_mib = stdout_bytes.unwrap_or(0) as f64 / (1024.0 * 1024.0);
    layer.insert(s("proc.stdout_mib"), stdout_mib);

    let trace_path = env.data.join(format!("trace-{}.json", w.name()));
    let argv = [
        s("--workload"),
        s(w.name()),
        s("--seed"),
        s(seed),
        s("--seconds"),
        s((seconds / 2).max(2)),
        s("--dir"),
        runner.dir.display().to_string(),
        s("--trace-out"),
        trace_path.display().to_string(),
    ];
    let probes = run_child(&env.probes, &argv, &runner.dir.join("probes.err"), false)
        .map_err(|e| format!("cannot run {}: {e}", env.probes.display()))?;
    if !probes.reaped.status.success() {
        return Err(format!("probes failed: {}", probes.stderr));
    }
    // The probes print "metric <name> <value>" and
    // "busy <layer> <ms> <on-path 0|1>" lines; their output is small
    // enough to sit in the digest's tail buffer whole.
    let mut busy = Vec::new();
    for line in probes.out.tail.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value] => {
                let v = value
                    .parse()
                    .map_err(|e| format!("probe line {line:?}: {e}"))?;
                layer.insert(s(name), v);
            }
            ["busy", name, ms, on_path] => {
                let ms = ms
                    .parse()
                    .map_err(|e| format!("probe line {line:?}: {e}"))?;
                busy.push((s(name), ms, *on_path == "1"));
            }
            _ => return Err(format!("unexpected probe line {line:?}")),
        }
    }
    let probed_ms: f64 = busy.iter().filter(|b| b.2).map(|b| b.1).sum();
    layer.insert(s("layers.probed_ms"), probed_ms);
    layer.insert(s("layers.coverage"), probed_ms / (wall_s * 1e3));
    layer.insert(s("cli.residual_ms"), wall_s * 1e3 - probed_ms);

    let mut result = finish(runner, setup_runs);
    // A layer that is not on this workload's path reads 0.
    result.per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layer.remove(name).unwrap_or(0.0)))
        .collect();
    if let Some(stray) = layer.keys().next() {
        return Err(format!(
            "probe metric {stray} is not in the per-layer table"
        ));
    }
    result.busy = busy;
    Ok(result)
}

fn print_workload(r: &WorkloadResult) {
    let name = r.w.name();
    println!(
        "== {name}: {} flows offered per run, {} runs, digest {:016x}",
        r.offered,
        r.records.len(),
        r.digest
    );
    for (metric, unit, sum) in &r.end_to_end {
        println!(
            "{name:<11} {metric:<44} {:>14.4} {unit:<6} min {:.4} max {:.4} iqr {:.4} n {}",
            sum.median, sum.min, sum.max, sum.iqr, sum.n
        );
    }
    for (metric, unit, value) in &r.per_layer {
        println!("{name:<11} {metric:<44} {value:>14.4} {unit}");
    }
    for (layer, ms, on_path) in &r.busy {
        let path = if *on_path {
            "on the CLI's path"
        } else {
            "off the CLI's path"
        };
        println!("{name:<11} busy {layer:<39} {ms:>14.3} ms     {path}");
    }
    println!("{name:<11} {:<44} {:>14} flows", "attempted", r.attempted);
    println!("{name:<11} {:<44} {:>14} flows", "failed", r.failed);
    println!("{}", result_line(r));
}

/// The machine-readable last line for one workload.
fn result_line(r: &WorkloadResult) -> String {
    let mut metrics: Vec<String> = Vec::new();
    for (name, unit, sum) in &r.end_to_end {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            sum.median
        ));
    }
    for (name, unit, value) in &r.per_layer {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| s("unknown"));
    format!("{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\"}}")
}

/// `results.json`: every run made, not only the medians.
fn results_json(opts: &Opts, results: &[WorkloadResult]) -> String {
    let mut out = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"host\": {}, \"workloads\": [\n",
        opts.seed,
        opts.seconds,
        host_json()
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"offered_flows\": {}, \"digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {},\n \"setup_s\": {:?},\n \"end_to_end\": {{",
            r.w.name(),
            r.offered,
            r.digest,
            r.attempted,
            r.failed,
            r.setup_runs
        );
        let e2e: Vec<String> = r
            .end_to_end
            .iter()
            .map(|(name, unit, m)| {
                format!(
                    "\"{name}\": {{\"median\": {}, \"min\": {}, \"max\": {}, \"iqr\": {}, \"n\": {}, \"unit\": \"{unit}\"}}",
                    m.median, m.min, m.max, m.iqr, m.n
                )
            })
            .collect();
        let _ = write!(out, "{}}},\n \"per_layer\": {{", e2e.join(", "));
        let layers: Vec<String> = r
            .per_layer
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        let _ = write!(out, "{}}},\n \"busy_ms\": {{", layers.join(", "));
        let busy: Vec<String> = r
            .busy
            .iter()
            .map(|(name, ms, on)| format!("\"{name}\": {{\"ms\": {ms}, \"on_path\": {on}}}"))
            .collect();
        let _ = write!(out, "{}}},\n \"runs\": [\n", busy.join(", "));
        for (j, rec) in r.records.iter().enumerate() {
            let why = rec.failure.as_ref().map_or(s("null"), |w| {
                format!("\"{}\"", w.replace(['"', '\\'], "'"))
            });
            let _ = writeln!(
                out,
                "  {{\"phase\": \"{}\", \"wall_s\": {}, \"user_s\": {}, \"sys_s\": {}, \"peak_rss_kib\": {}, \"stdout_bytes\": {}, \"digest\": \"{:016x}\", \"failure\": {why}}}{}",
                rec.phase,
                rec.run.wall_s,
                rec.run.reaped.user_s,
                rec.run.reaped.sys_s,
                rec.run.reaped.peak_rss_kib,
                rec.run.out.bytes,
                rec.run.out.digest,
                if j + 1 == r.records.len() { "" } else { "," }
            );
        }
        let _ = writeln!(out, " ]}}{}", if i + 1 == results.len() { "" } else { "," });
    }
    out.push_str("]}\n");
    out
}

/// Measure every chosen workload once and print it.
fn measure(opts: &Opts, env: &Env) -> Result<Vec<WorkloadResult>, String> {
    let chosen: Vec<Workload> = match opts.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut results = Vec::new();
    for w in chosen {
        let mut result = match opts.trace {
            Some(true) => run_traced(w, opts.seed, opts.seconds, env)?,
            _ => run_end_to_end(w, opts.seed, opts.seconds, env)?,
        };
        if opts.trace.is_none() {
            // Both sets: end-to-end first, with tracing off, then traced.
            let traced = run_traced(w, opts.seed, opts.seconds, env)?;
            result.per_layer = traced.per_layer;
            result.busy = traced.busy;
            result.attempted += traced.attempted;
            result.failed += traced.failed;
            result.records.extend(traced.records);
        }
        print_workload(&result);
        results.push(result);
    }
    let path = env.data.join("results.json");
    std::fs::write(&path, results_json(opts, &results))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[tamperbench] every run is listed in {}", path.display());
    Ok(results)
}

/// `check`: two measurements of the same build must agree within each
/// end-to-end metric's own bound (set-up: 25% or one second, whichever is
/// larger), and nothing may fail.
fn check(opts: &Opts, env: &Env) -> Result<bool, String> {
    let opts = Opts {
        trace: Some(false),
        dir: None,
        ..*opts
    };
    let first = measure(&opts, env)?;
    let second = measure(&opts, env)?;
    let mut ok = true;
    println!("== check: two measurements of the same build, side by side");
    for (a, b) in first.iter().zip(&second) {
        for ((m, (name, unit, x)), (_, _, y)) in
            END_TO_END.iter().zip(&a.end_to_end).zip(&b.end_to_end)
        {
            let apart = (y.median - x.median).abs();
            let mut allowed = m.bound * x.median.min(y.median);
            if m.name == "setup_s" {
                allowed = allowed.max(1.0);
            }
            let verdict = if apart <= allowed {
                "agree"
            } else {
                "DISAGREE"
            };
            ok &= apart <= allowed;
            println!(
                "{:<11} {name:<14} {:>14.4} {:>14.4} {unit:<6} apart {:>6.2}% of {:>4.0}% allowed  {verdict}",
                a.w.name(),
                x.median,
                y.median,
                100.0 * apart / x.median.min(y.median),
                100.0 * m.bound
            );
        }
        for r in [a, b] {
            if r.failed > 0 {
                ok = false;
                println!(
                    "{:<11} {} of {} flows FAILED",
                    r.w.name(),
                    r.failed,
                    r.attempted
                );
            }
        }
    }
    println!("== check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tamperbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.mode == Mode::Synth {
        let (w, dir) = (
            opts.workload.expect("checked"),
            opts.dir.as_ref().expect("checked"),
        );
        return match synth_inputs(w, opts.seed, dir) {
            Ok((flows, frames)) => {
                println!("flows {flows} frames {frames}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("tamperbench synth: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let need_probes = opts.mode == Mode::Run && opts.trace != Some(false);
    let outcome = prepare_env(need_probes).and_then(|env| match opts.mode {
        Mode::Check => check(&opts, &env),
        _ => measure(&opts, &env).map(|_| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tamperbench: {e}");
            ExitCode::FAILURE
        }
    }
}
