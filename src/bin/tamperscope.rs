//! `tamperscope` — the command-line front end.
//!
//! `classify` is the production path: feed it a server-side raw-IP pcap
//! (LINKTYPE_RAW) and it prints per-flow verdicts or JSON lines. The other
//! subcommands drive the simulation substrate that reproduces the paper.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use tamperscope::analysis::{
    encode_agg, fold_agg, pct, report, summary_to_json, write_metrics_json, AggError, Collector,
    PartialAggregate,
};
use tamperscope::capture::{EngineConfig, FlowRecord, OfflineConfig, PcapMemSource, PcapWriter};
use tamperscope::cli::{classify, synthesize, Args, Render};
use tamperscope::core::ClassifierConfig;
use tamperscope::obs::{Registry, ScopeMetrics, Stopwatch};
use tamperscope::worldgen::{
    generate_lists, world_fingerprint, Scenario, WorldConfig, WorldSim, SEP13_2022_UNIX,
};

fn usage() -> ExitCode {
    eprintln!(
        "tamperscope — passive detection of connection tampering (SIGCOMM'23 reproduction)

USAGE:
    tamperscope classify <capture.pcap> [--jsonl | --explain] [--threads T]
                         [--max-flows M] [--json-summary] [--metrics-json m.json]
    tamperscope report   [--sessions N] [--days D] [--seed S] [--threads T]
                         [--json-summary] [--world spec.json] [--metrics-json m.json]
    tamperscope pop-run  --pops P --out DIR [--sessions N] [--days D] [--seed S]
                         [--threads T]   (one partial aggregate .agg file per PoP)
    tamperscope merge    <pop0.agg> [pop1.agg ...] [--sessions N] [--days D] [--seed S]
                         [--json-summary]   (merge partials; bytes match `report`)
    tamperscope iran     [--sessions N] [--seed S] [--threads T] [--metrics-json m.json]
    tamperscope synthesize <out.pcap> [--sessions N] [--seed S] [--threads T]
                         [--metrics-json m.json]
    tamperscope signatures
    tamperscope world-spec [--full]   (--full emits the loadable JSON schema)"
    );
    ExitCode::from(2)
}

/// Unwrap a parsed flag value, or report it and exit with the usage text.
macro_rules! or_usage {
    ($parsed:expr) => {
        match $parsed {
            Ok(v) => v,
            Err(e) => {
                eprintln!("tamperscope: {e}");
                return usage();
            }
        }
    };
}

/// Parse a numeric `--flag` strictly: a typo is a usage error, not a
/// silently different run.
macro_rules! flag_u64 {
    ($args:expr, $name:expr, $default:expr) => {
        or_usage!($args.get_u64_strict($name, $default))
    };
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else {
        return usage();
    };
    // Each subcommand names the flags it reads; any other is a usage error.
    let (run, reads): (fn(&Args) -> ExitCode, &[&str]) = match cmd.as_str() {
        "classify" => (
            cmd_classify,
            &[
                "jsonl",
                "explain",
                "json-summary",
                "threads",
                "max-flows",
                "metrics-json",
            ],
        ),
        "report" => (
            cmd_report,
            &[
                "sessions",
                "days",
                "seed",
                "threads",
                "world",
                "json-summary",
                "metrics-json",
            ],
        ),
        "pop-run" => (
            cmd_pop_run,
            &["pops", "out", "sessions", "days", "seed", "threads"],
        ),
        "merge" => (cmd_merge, &["sessions", "days", "seed", "json-summary"]),
        "iran" => (cmd_iran, &["sessions", "seed", "threads", "metrics-json"]),
        "synthesize" => (
            cmd_synthesize,
            &["sessions", "seed", "threads", "metrics-json"],
        ),
        "signatures" => (cmd_signatures, &[]),
        "world-spec" => (cmd_world_spec, &["full"]),
        _ => return usage(),
    };
    let args = or_usage!(Args::parse(cmd, &raw[1..], reads));
    run(&args)
}

fn cmd_signatures(_: &Args) -> ExitCode {
    use tamperscope::core::Signature;
    println!("{:<4} {:<20} {:<34} Description", "#", "Stage", "Signature");
    for (i, sig) in Signature::ALL.iter().enumerate() {
        println!(
            "{:<4} {:<20} {:<34} {}",
            i + 1,
            sig.stage().label(),
            sig.label(),
            sig.description()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_world_spec(args: &Args) -> ExitCode {
    use tamperscope::analysis::JsonObject;
    let world = tamperscope::worldgen::policy::world_spec();
    if args.has("full") {
        // The complete, loadable schema (see `report --world`).
        println!("{}", tamperscope::worldgen::world_to_json(&world));
        return ExitCode::SUCCESS;
    }
    for spec in &world {
        let p = &spec.policy;
        let syn: f64 = p.syn_rules.iter().map(|(_, r)| r).sum();
        let fw: f64 = p.fw_rules.iter().map(|(_, r)| r).sum();
        let dpi_vendors = p
            .dpi_mix
            .iter()
            .map(|(v, w)| format!("{v:?}:{w}"))
            .collect::<Vec<_>>()
            .join(",");
        let line = JsonObject::new()
            .str("country", &spec.country.code)
            .float("weight", spec.country.weight)
            .int("tz_offset_hours", i64::from(spec.country.tz_offset_hours))
            .float("ipv6_share", spec.country.ipv6_share)
            .uint("n_ases", spec.country.n_ases as u64)
            .float("centralization", spec.country.centralization)
            .float("http_share", spec.country.http_share)
            .float("syn_rate", syn)
            .float("dpi_blanket", p.dpi_blanket)
            .float("dpi_enforce", p.dpi_enforce)
            .float("fw_rate", fw)
            .str("dpi_mix", &dpi_vendors)
            .float("diurnal_amp", p.diurnal_amp)
            .finish();
        println!("{line}");
    }
    ExitCode::SUCCESS
}

fn cmd_classify(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return usage();
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let render = match (args.has("jsonl"), args.has("explain")) {
        (true, true) => {
            eprintln!("tamperscope: --jsonl and --explain are exclusive");
            return usage();
        }
        (true, false) => Render::Jsonl,
        (false, true) => Render::Explain,
        (false, false) => Render::Lines,
    };
    let cfg = EngineConfig {
        offline: OfflineConfig::default(),
        threads: flag_u64!(args, "threads", 0) as usize,
        max_flows: flag_u64!(args, "max-flows", 0) as usize,
    };
    let mut src = match PcapMemSource::from_reader(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Metrics ride a side registry and land in their own file, so the
    // verdict/summary bytes stay identical with or without `--metrics-json`
    // (and across thread counts).
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    let run = classify(
        &mut src,
        &cfg,
        render,
        args.has("json-summary"),
        std::io::stdout(),
        registry.as_ref(),
    );
    let stats = run.stats;
    if let Some(e) = src.read_error() {
        eprintln!("cannot read {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[{path}] {} flows / {} packets ({} non-inbound, {} unparsable frames skipped, {} threads)",
        stats.ingest.flows,
        stats.ingest.packets,
        stats.ingest.not_inbound,
        stats.ingest.unparsable,
        stats.threads
    );
    if stats.corrupt_tail {
        eprintln!("[{path}] warning: capture tail is corrupt; trailing records dropped");
    }
    // A reader that hung up (`| head`) has what it wanted; any other
    // failure means verdicts were lost.
    match run.written {
        Some(Err(e)) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("cannot write verdicts: {e}");
            return ExitCode::FAILURE;
        }
        _ => {}
    }
    if !write_metrics(metrics_path, registry.as_ref(), None, "engine") {
        return ExitCode::FAILURE;
    }
    let matched = run.collector.country_matched(0);
    eprintln!(
        "{matched} of {} flows match a tampering signature ({})",
        stats.ingest.flows,
        pct(matched, stats.ingest.flows)
    );
    ExitCode::SUCCESS
}

/// The world configuration shared by `report`, `pop-run` and `merge`, so
/// a merged run can be byte-compared against a single-machine `report`
/// of the same flags.
fn world_config(args: &Args) -> Result<WorldConfig, String> {
    Ok(WorldConfig {
        sessions: args.get_u64_strict("sessions", 200_000)?,
        days: args.get_u64_strict("days", 14)? as u32,
        seed: args.get_u64_strict("seed", 20230112)?,
        ..Default::default()
    })
}

/// An empty collector shaped for `sim`'s world: its countries, its hours.
fn world_collector(sim: &WorldSim) -> Collector {
    Collector::new(
        ClassifierConfig::default(),
        sim.world().len(),
        sim.config().days,
        sim.config().start_unix,
    )
}

/// The `--metrics-json` epilogue: publish the subcommand's own scope (if
/// it kept one), write the registry's snapshot to the file and say so on
/// stderr. Metrics live in this side file only, never in stdout bytes.
/// False if the file could not be written.
fn write_metrics(
    path: Option<&str>,
    registry: Option<&Registry>,
    own_scope: Option<ScopeMetrics>,
    what: &str,
) -> bool {
    let (Some(path), Some(reg)) = (path, registry) else {
        return true;
    };
    if let Some(scope) = own_scope {
        reg.publish(scope);
    }
    if let Err(e) = write_metrics_json(path, &reg.snapshot()) {
        eprintln!("cannot write {path}: {e}");
        return false;
    }
    eprintln!("[{path}] {what} metrics written");
    true
}

fn cmd_report(args: &Args) -> ExitCode {
    let threads = flag_u64!(args, "threads", 0) as usize;
    let cfg = or_usage!(world_config(args));
    let sim = match args.get("world") {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match tamperscope::worldgen::world_from_json(&text) {
                Ok(world) => {
                    eprintln!("[world] loaded {} countries from {path}", world.len());
                    WorldSim::with_world(cfg, world)
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => WorldSim::new(cfg),
    };
    let mk = || world_collector(&sim);
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    // Stderr progress timing goes through the obs stopwatch — the one
    // sanctioned wall-clock entry point — and never enters report bytes.
    let run_sw = Stopwatch::start();
    let col = sim.run_sharded(
        threads,
        registry.as_ref(),
        mk,
        |c, lf| c.observe(&lf),
        |a, b| a.merge(b),
    );
    let run_ns = run_sw.elapsed_ns().unwrap_or(0);
    eprintln!("[world] {} flows in {:.1}s", col.total, run_ns as f64 / 1e9);
    let mut rep = match &registry {
        Some(r) => r.scope("report"),
        None => ScopeMetrics::disabled(),
    };
    rep.record_timer("worldgen_run", run_ns);
    rep.count("flows", col.total);
    if args.has("json-summary") {
        println!("{}", summary_to_json(&col));
    } else {
        let render_sw = rep.start();
        let lists = generate_lists(&sim);
        let text = report::full_report(&col.view(), &sim, &lists);
        rep.stop("render", render_sw);
        println!("{text}");
    }
    if !write_metrics(metrics_path, registry.as_ref(), Some(rep), "pipeline") {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_pop_run(args: &Args) -> ExitCode {
    let threads = flag_u64!(args, "threads", 0) as usize;
    let pops = flag_u64!(args, "pops", 0) as usize;
    if pops == 0 {
        eprintln!("tamperscope: pop-run requires --pops P (P >= 1)");
        return usage();
    }
    let Some(out_dir) = args.get("out") else {
        eprintln!("tamperscope: pop-run requires --out DIR");
        return usage();
    };
    let cfg = or_usage!(world_config(args));
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let salt = world_fingerprint(&cfg);
    let sim = WorldSim::new(cfg);
    // One generation pass; each flow routes to exactly one PoP's
    // collector, so the union of the emitted partials is the whole world.
    let mk = || {
        (0..pops)
            .map(|_| {
                Collector::with_salt(
                    ClassifierConfig::default(),
                    sim.world().len(),
                    sim.config().days,
                    sim.config().start_unix,
                    salt,
                )
            })
            .collect::<Vec<_>>()
    };
    let cols = sim.run_sharded(
        threads,
        None,
        mk,
        |cs, lf| cs[sim.pop_of(pops, &lf)].observe(&lf),
        |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y);
            }
        },
    );
    for (pop, col) in cols.into_iter().enumerate() {
        let flows = col.total;
        let fingerprint = col.fingerprint();
        let bytes = encode_agg(col.partial());
        let path = format!("{out_dir}/pop{pop}.agg");
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[{path}] {flows} flows, {} bytes (fingerprint {fingerprint:016x})",
            bytes.len()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_merge(args: &Args) -> ExitCode {
    if args.positional.is_empty() {
        eprintln!("tamperscope: merge requires at least one .agg file");
        return usage();
    }
    let cfg = or_usage!(world_config(args));
    let sim = WorldSim::new(cfg);
    // The accumulator `pop-run` would have built for these flags: the
    // same collector shape and world salt, so the same fingerprint.
    let mut acc = PartialAggregate::with_salt(
        ClassifierConfig::default(),
        sim.world().len(),
        sim.config().days,
        sim.config().start_unix,
        world_fingerprint(sim.config()),
    );
    let expected = acc.fingerprint();
    for path in &args.positional {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = fold_agg(&mut acc, &bytes, sim.config().catalog_size) {
            let detail = match e {
                AggError::ConfigMismatch { file } => {
                    format!(" (file {file:016x}, flags imply {expected:016x})")
                }
                _ => String::new(),
            };
            eprintln!("tamperscope: {path}: {e}{detail}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "[merge] {} partials, {} flows (fingerprint {expected:016x})",
        args.positional.len(),
        acc.total
    );
    if args.has("json-summary") {
        println!("{}", summary_to_json(&acc));
    } else {
        let lists = generate_lists(&sim);
        println!("{}", report::full_report(&acc.view(), &sim, &lists));
    }
    ExitCode::SUCCESS
}

fn cmd_iran(args: &Args) -> ExitCode {
    let threads = flag_u64!(args, "threads", 0) as usize;
    let sim = WorldSim::new(WorldConfig {
        sessions: flag_u64!(args, "sessions", 120_000),
        days: 17,
        seed: flag_u64!(args, "seed", 20220913),
        start_unix: SEP13_2022_UNIX,
        scenario: Scenario::IranProtest,
        ..Default::default()
    });
    let mk = || world_collector(&sim);
    // Same side-registry discipline as `classify`/`report`: the engine's
    // reader/shard<i>/merge scopes plus a `report` scope, in their own
    // file, never in the fig8 bytes.
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    let col = sim.run_sharded(
        threads,
        registry.as_ref(),
        mk,
        |c, lf| c.observe(&lf),
        |a, b| a.merge(b),
    );
    let mut rep = match &registry {
        Some(r) => r.scope("report"),
        None => ScopeMetrics::disabled(),
    };
    rep.count("flows", col.total);
    let render_sw = rep.start();
    let text = report::fig8(&col.view());
    rep.stop("render", render_sw);
    println!("{text}");
    if !write_metrics(metrics_path, registry.as_ref(), Some(rep), "pipeline") {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_synthesize(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return usage();
    };
    let threads = flag_u64!(args, "threads", 0) as usize;
    let sim = WorldSim::new(WorldConfig {
        sessions: flag_u64!(args, "sessions", 200),
        seed: flag_u64!(args, "seed", 7),
        ..Default::default()
    });
    let file = match File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The world `report` classifies for the same flags, as the collector
    // logged it. Sessions start anywhere in the world's days, so the
    // writer holds every flow to time-sort them; the shard-order merge
    // keeps generation order at any thread count.
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    let flows = sim.run_sharded(
        threads,
        registry.as_ref(),
        Vec::new,
        |acc: &mut Vec<FlowRecord>, lf| acc.push(lf.flow),
        |a, mut b| a.append(&mut b),
    );
    // The tail of any capture sits in the `BufWriter`: only the flush
    // reports its write error.
    let written = PcapWriter::new(BufWriter::new(file)).and_then(|mut writer| {
        let n = synthesize(&flows, &mut writer)?;
        writer.into_inner().flush()?;
        Ok(n)
    });
    let written = match written {
        Ok(n) => n,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !write_metrics(metrics_path, registry.as_ref(), None, "pipeline") {
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {written} packets of {} flows from {} sessions to {path}",
        flows.len(),
        sim.config().sessions
    );
    ExitCode::SUCCESS
}
