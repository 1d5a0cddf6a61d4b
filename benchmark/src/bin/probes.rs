//! `probes` — the per-layer half of the tamperscope benchmark.
//!
//! Spawned by `tamperbench --trace 1` after it has generated a workload's
//! inputs. It replays the work the CLI does on that workload by calling
//! each crate's public functions directly, single-threaded, with a span
//! around every chunk of calls (a few hundred per clock read, never one),
//! and prints what each layer cost. Nothing inside the program is
//! instrumented; the spans are all recorded here.
//!
//! The probes keep to steady state the way the engine does: every sealed
//! 512-flow batch is consumed and dropped before the next one is built,
//! and scratch vectors are reused.
//!
//! Public names called here (a change that renames one has to change this
//! file first): see the list in `README.md`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bytes::Bytes;
use tamper_analysis::{
    decode_agg, encode_agg, flow_to_jsonl, label_capture_flow, merge_checked, report, Collector,
    PartialAggregate,
};
use tamper_capture::{
    ColumnarFlowTable, EvictionCause, FlowBatch, FlowRecord, FlowSource, IngestStats,
    OfflineConfig, PcapMemItem, PcapMemSource, DEFAULT_BATCH_FLOWS,
};
use tamper_core::{classify, BatchClassifier, ClassifierConfig};
use tamper_middlebox::{RuleSet, ALL_VENDORS};
use tamper_netsim::{
    derive_rng, run_session, ClientConfig, Link, Path as NetPath, ServerConfig, SessionParams,
    SimDuration, SimTime,
};
use tamper_wire::PacketView;
use tamper_worldgen::{generate_lists, LabeledFlow, WorldConfig, WorldSim};
use tamperbench::spec::{
    Workload, DAYS, FLOOD_CAP, FLOOD_FLOWS, MIX_FLOWS, POPS, POP_SESSIONS, SIM_SESSIONS,
};
use tamperbench::synth::{self, Frames};
use tamperbench::trace::Trace;

// Span names: one per layer (`crate.module`).
const LOAD: &str = "cli.load";
const FILL: &str = "capture.source.fill";
const PARSE: &str = "wire.parse";
const EMIT: &str = "wire.emit";
const ABSORB: &str = "capture.offline.absorb";
const MATERIALIZE: &str = "capture.record.materialize";
const CLASSIFY_BATCH: &str = "core.batch.classify";
const CLASSIFY: &str = "core.classify";
const OBSERVE: &str = "analysis.collector.observe";
const RENDER: &str = "analysis.jsonl.render";
const NEW: &str = "worldgen.driver.new";
const GEN: &str = "worldgen.driver.gen";
const LISTS: &str = "worldgen.testlists.generate";
const REPORT: &str = "analysis.report.render";
const DECODE: &str = "analysis.aggfile.decode";
const ENCODE: &str = "analysis.aggfile.encode";
const MERGE: &str = "analysis.agg.merge";
const DIRECT: &str = "netsim.session.direct";
const HOP: &str = "middlebox.vendor.hop";

/// Records pulled from the source per `fill`, as the engine's reader does
/// in spirit: large enough that one clock read covers thousands of calls.
const CHUNK: usize = 4096;
/// Sessions generated (or flows emitted) per span on the simulator side.
const SIM_CHUNK: u64 = 512;
/// Fixed TLS sessions for the netsim and middlebox probes.
const NET_SESSIONS: u64 = 20_000;

/// What the probes print: metric values, and busy time per layer.
#[derive(Default)]
struct Findings {
    metrics: Vec<(&'static str, f64)>,
    /// Layer, milliseconds, and whether the CLI does this work in the
    /// timed run (otherwise it is set-up-side or a micro-probe).
    busy: Vec<(&'static str, f64, bool)>,
}

/// Busy nanoseconds per layer for each repeated pass; the median over
/// passes is what gets reported.
#[derive(Default)]
struct Passes {
    per_layer: BTreeMap<&'static str, Vec<f64>>,
}

impl Passes {
    fn add(&mut self, busy: BTreeMap<&'static str, u64>) {
        for (name, ns) in busy {
            self.per_layer.entry(name).or_default().push(ns as f64);
        }
    }

    fn ns(&self, layer: &str) -> f64 {
        self.per_layer
            .get(layer)
            .map_or(0.0, |v| tamperbench::stats::median(v))
    }
}

/// Run `pass` at least twice and until `seconds` have gone by, each under
/// its own root span; return the last pass's value.
fn repeat<T>(
    t: &mut Trace,
    seconds: u64,
    passes: &mut Passes,
    mut pass: impl FnMut(&mut Trace) -> T,
) -> T {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let root = t.enter("pass");
        let out = pass(t);
        t.exit(root);
        passes.add(t.busy_ns_under(root));
        done += 1;
        if done >= 2 && start.elapsed().as_secs() >= seconds {
            return out;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// pcap-mix and pcap-flood: load → fill → parse → absorb → batch consumer
// ---------------------------------------------------------------------

#[derive(Default)]
struct PcapCounts {
    records: u64,
    parse_failed: u64,
    absorbed: u64,
    ingest: IngestStats,
    high_water: u64,
    evicted_timeout: u64,
    evicted_cap: u64,
    drained_eof: u64,
    arena_bytes_max: u64,
    tampered: u64,
    jsonl_bytes: u64,
}

/// The part of the CLI's observe closure that runs per sealed batch.
struct Consumer {
    clf: BatchClassifier,
    col: Collector,
    flows: Vec<FlowRecord>,
    labeled: Vec<LabeledFlow>,
}

impl Consumer {
    fn new() -> Consumer {
        let cfg = ClassifierConfig::default();
        Consumer {
            clf: BatchClassifier::new(cfg),
            col: tamper_analysis::capture_collector(cfg, 0),
            flows: Vec::new(),
            labeled: Vec::new(),
        }
    }

    fn consume(&mut self, t: &mut Trace, batch: FlowBatch, c: &mut PcapCounts) {
        if batch.is_empty() {
            return;
        }
        for span in batch.spans() {
            match span.cause {
                EvictionCause::Timeout => c.evicted_timeout += 1,
                EvictionCause::CapPressure => c.evicted_cap += 1,
                EvictionCause::EndOfCapture => c.drained_eof += 1,
            }
        }
        c.arena_bytes_max = c.arena_bytes_max.max(batch.arena_bytes() as u64);
        let n = batch.flow_count();
        t.span(MATERIALIZE, || {
            self.flows.extend((0..n).map(|i| batch.materialize(i)))
        });
        let analyses = t.span(CLASSIFY_BATCH, || self.clf.classify_batch(&batch));
        t.span(OBSERVE, || {
            for (flow, a) in self.flows.drain(..).zip(analyses) {
                let lf = label_capture_flow(flow);
                self.col.observe_analyzed(&lf, a);
                self.labeled.push(lf);
            }
        });
        c.jsonl_bytes += t.span(RENDER, || {
            let mut bytes = 0u64;
            for (lf, a) in self.labeled.iter().zip(analyses) {
                let line = flow_to_jsonl(&lf.flow, a);
                bytes += line.len() as u64 + 1;
                black_box(line);
            }
            bytes
        });
        c.tampered += analyses.iter().filter(|a| a.signature().is_some()).count() as u64;
        self.labeled.clear();
    }
}

fn frame_of<'a>(bytes: &'a [u8], item: &PcapMemItem) -> &'a [u8] {
    &bytes[item.off..item.off + item.len as usize]
}

/// One pass over a capture the way `classify --threads 1` makes it, with
/// the flow table capped at `cap` live flows (0: unbounded).
fn pcap_pass(t: &mut Trace, path: &Path, cap: usize) -> PcapCounts {
    let mut c = PcapCounts::default();
    let bytes: Bytes = t.span(LOAD, || {
        std::fs::read(path)
            .expect("the runner wrote the capture")
            .into()
    });
    let mut src = PcapMemSource::new(bytes.clone()).expect("a capture synth wrote is well-formed");
    let cfg = OfflineConfig::default();
    let mut table = ColumnarFlowTable::new(cfg, cap);
    let mut pending = FlowBatch::new();
    let mut consumer = Consumer::new();
    let mut items: Vec<PcapMemItem> = Vec::with_capacity(CHUNK);
    let mut views: Vec<Option<PacketView<'_>>> = Vec::with_capacity(CHUNK);
    let mut index = 0u64;
    loop {
        items.clear();
        let more = t.span(FILL, || src.fill(&mut items, CHUNK));
        c.records += items.len() as u64;
        views.clear();
        t.span(PARSE, || {
            views.extend(
                items
                    .iter()
                    .map(|it| PacketView::parse(frame_of(&bytes, it)).ok()),
            )
        });
        let mut i = 0;
        while i < items.len() {
            // One span per run of packets up to the next sealed batch.
            let span = t.enter(ABSORB);
            while i < items.len() && pending.flow_count() < DEFAULT_BATCH_FLOWS {
                match &views[i] {
                    None => c.parse_failed += 1,
                    Some(pv) if cfg.server_ports.contains(&pv.dst_port) => {
                        let it = &items[i];
                        table.absorb(index, it.ts, it.stamp, pv, &mut c.ingest, &mut pending);
                        c.absorbed += 1;
                    }
                    Some(_) => c.ingest.not_inbound += 1,
                }
                index += 1;
                i += 1;
            }
            t.exit(span);
            if pending.flow_count() >= DEFAULT_BATCH_FLOWS {
                consumer.consume(t, std::mem::take(&mut pending), &mut c);
            }
        }
        if !more {
            break;
        }
    }
    t.span(ABSORB, || table.drain(src.final_stamp(), &mut pending));
    consumer.consume(t, pending, &mut c);
    c.high_water = table.high_water() as u64;
    c
}

const PCAP_PATH: [&str; 8] = [
    LOAD,
    FILL,
    PARSE,
    ABSORB,
    MATERIALIZE,
    CLASSIFY_BATCH,
    OBSERVE,
    RENDER,
];

fn probe_pcap(t: &mut Trace, w: Workload, seed: u64, seconds: u64, dir: &Path) -> Findings {
    let (file, cap) = match w {
        Workload::PcapMix => ("mix.pcap", 0),
        _ => ("flood.pcap", FLOOD_CAP as usize),
    };
    let path = dir.join(file);
    let mut passes = Passes::default();
    let c = repeat(t, seconds, &mut passes, |t| pcap_pass(t, &path, cap));
    let mut uncapped = Passes::default();
    if cap > 0 {
        // The same capture with no cap: what absorb costs when nothing is
        // shed. Not part of the CLI's path.
        repeat(t, 0, &mut uncapped, |t| pcap_pass(t, &path, 0));
    }
    let flows = c.ingest.flows as f64;
    let mut f = Findings::default();
    f.metrics.extend([
        ("cli.load_ms", passes.ns(LOAD) / 1e6),
        (
            "capture.source.fill_ns_per_record",
            ratio(passes.ns(FILL), c.records as f64),
        ),
        (
            "wire.parse_ns_per_packet",
            ratio(passes.ns(PARSE), c.records as f64),
        ),
        ("wire.parse_failed", c.parse_failed as f64),
        (
            "capture.offline.absorb_ns_per_packet",
            ratio(passes.ns(ABSORB), c.absorbed as f64),
        ),
        ("capture.offline.high_water_flows", c.high_water as f64),
        ("capture.offline.evicted_timeout", c.evicted_timeout as f64),
        ("capture.offline.evicted_cap", c.evicted_cap as f64),
        ("capture.offline.drained_eof", c.drained_eof as f64),
        (
            "capture.offline.truncated_packets",
            c.ingest.truncated_packets as f64,
        ),
        (
            "capture.record.materialize_ns_per_flow",
            ratio(passes.ns(MATERIALIZE), flows),
        ),
        ("capture.record.arena_bytes_max", c.arena_bytes_max as f64),
        (
            "core.batch.classify_ns_per_flow",
            ratio(passes.ns(CLASSIFY_BATCH), flows),
        ),
        (
            "core.batch.classify_ns_per_packet",
            ratio(passes.ns(CLASSIFY_BATCH), c.ingest.packets as f64),
        ),
        ("core.batch.tampered_flows", c.tampered as f64),
        (
            "analysis.collector.observe_ns_per_flow",
            ratio(passes.ns(OBSERVE), flows),
        ),
        (
            "analysis.jsonl.render_ns_per_flow",
            ratio(passes.ns(RENDER), flows),
        ),
        (
            "analysis.jsonl.bytes_per_flow",
            ratio(c.jsonl_bytes as f64, flows),
        ),
    ]);
    if cap > 0 {
        f.metrics.push((
            "capture.offline.shed_ns_per_evicted_flow",
            ratio(
                passes.ns(ABSORB) - uncapped.ns(ABSORB),
                c.evicted_cap as f64,
            ),
        ));
    }
    f.busy
        .extend(PCAP_PATH.iter().map(|&l| (l, passes.ns(l) / 1e6, true)));

    // Set-up side: what capture synthesis spends in the generator and in
    // the wire emitter.
    let root = t.enter("setup");
    let mut frames = Frames::default();
    if w == Workload::PcapMix {
        let sim = t.span(NEW, || synth::mix_world(seed));
        let mut flows: Vec<FlowRecord> = Vec::new();
        for start in (0..MIX_FLOWS).step_by(SIM_CHUNK as usize) {
            let end = (start + SIM_CHUNK).min(MIX_FLOWS);
            t.span(GEN, || {
                flows.extend(
                    (start..end)
                        .filter_map(|i| sim.gen_session(i))
                        .map(|lf| lf.flow),
                )
            });
        }
        for (ci, chunk) in flows.chunks(SIM_CHUNK as usize).enumerate() {
            t.span(EMIT, || {
                for (j, flow) in chunk.iter().enumerate() {
                    synth::emit_mix_flow(ci as u64 * SIM_CHUNK + j as u64, flow, &mut frames);
                }
            });
        }
        let packets: usize = flows.iter().map(|f| f.packets.len()).sum();
        f.metrics.extend([
            ("worldgen.driver.flows", flows.len() as f64),
            (
                "worldgen.driver.packets_per_flow",
                ratio(packets as f64, flows.len() as f64),
            ),
        ]);
    } else {
        for start in (0..FLOOD_FLOWS).step_by(SIM_CHUNK as usize) {
            t.span(EMIT, || {
                for k in start..(start + SIM_CHUNK).min(FLOOD_FLOWS) {
                    synth::emit_flood_flow(seed, k, &mut frames);
                }
            });
        }
    }
    t.exit(root);
    let setup = t.busy_ns_under(root);
    let ns = |l: &str| setup.get(l).copied().unwrap_or(0) as f64;
    f.metrics.push((
        "wire.emit_ns_per_packet",
        ratio(ns(EMIT), frames.len() as f64),
    ));
    f.busy.push((EMIT, ns(EMIT) / 1e6, false));
    if w == Workload::PcapMix {
        f.metrics.extend([
            ("worldgen.driver.new_ms", ns(NEW) / 1e6),
            (
                "worldgen.driver.gen_ns_per_session",
                ns(GEN) / MIX_FLOWS as f64,
            ),
        ]);
        f.busy
            .extend([(NEW, ns(NEW) / 1e6, false), (GEN, ns(GEN) / 1e6, false)]);
    }
    f
}

// ---------------------------------------------------------------------
// sim-report: new → gen → observe → lists → render
// ---------------------------------------------------------------------

fn world(seed: u64, sessions: u64) -> WorldSim {
    WorldSim::new(WorldConfig {
        seed,
        sessions,
        days: DAYS as u32,
        ..WorldConfig::default()
    })
}

fn collector(sim: &WorldSim) -> Collector {
    Collector::new(
        ClassifierConfig::default(),
        sim.world().len(),
        sim.config().days,
        sim.config().start_unix,
    )
}

/// `n` fixed TLS sessions to an edge server, over a direct path or past
/// one vendor middlebox that inspects them and lets them through.
fn net_sessions(t: &mut Trace, name: &'static str, seed: u64, with_hop: bool) {
    let server_ip: IpAddr = "198.51.100.1".parse().expect("literal address");
    for start in (0..NET_SESSIONS).step_by(SIM_CHUNK as usize) {
        t.span(name, || {
            for i in start..(start + SIM_CHUNK).min(NET_SESSIONS) {
                let client_ip: IpAddr = IpAddr::from([203, 0, 113, (2 + i % 250) as u8]);
                let mut cfg = ClientConfig::default_tls(client_ip, server_ip, "fine.example.org");
                cfg.src_port = 28_000 + ((i * 17) % 30_000) as u16;
                let mut path = if with_hop {
                    NetPath {
                        links: vec![
                            Link::new(SimDuration::from_millis(9), 4),
                            Link::new(SimDuration::from_millis(42), 9),
                        ],
                        hops: vec![Box::new(
                            ALL_VENDORS[0].build(RuleSet::domains(["blocked.example.com"])),
                        )],
                    }
                } else {
                    NetPath::direct(SimDuration::from_millis(50), 13)
                };
                let mut rng = derive_rng(seed, i);
                let params = SessionParams::new(
                    cfg,
                    ServerConfig::default_edge(server_ip, 443),
                    SimTime::ZERO + SimDuration::from_secs(2 * i),
                );
                black_box(run_session(params, &mut path, &mut rng));
            }
        });
    }
}

fn probe_sim(t: &mut Trace, seed: u64, seconds: u64) -> Findings {
    let clf_cfg = ClassifierConfig::default();
    let mut passes = Passes::default();
    let (flows, packets) = repeat(t, seconds, &mut passes, |t| {
        let sim = t.span(NEW, || world(seed, SIM_SESSIONS));
        let mut col = collector(&sim);
        let mut buf: Vec<LabeledFlow> = Vec::with_capacity(SIM_CHUNK as usize);
        let mut packets = 0u64;
        for start in (0..SIM_SESSIONS).step_by(SIM_CHUNK as usize) {
            let end = (start + SIM_CHUNK).min(SIM_SESSIONS);
            t.span(GEN, || {
                buf.extend((start..end).filter_map(|i| sim.gen_session(i)))
            });
            t.span(OBSERVE, || buf.iter().for_each(|lf| col.observe(lf)));
            // Classification alone, on the same flows. `observe` above
            // already classified them, so this is not on the CLI's path.
            t.span(CLASSIFY, || {
                for lf in &buf {
                    black_box(classify(&lf.flow, &clf_cfg));
                }
            });
            packets += buf
                .iter()
                .map(|lf| lf.flow.packets.len() as u64)
                .sum::<u64>();
            buf.clear();
        }
        let lists = t.span(LISTS, || generate_lists(&sim));
        black_box(t.span(REPORT, || report::full_report(&col.view(), &sim, &lists)));
        (col.total, packets)
    });
    let micro = t.enter("micro");
    net_sessions(t, DIRECT, seed, false);
    net_sessions(t, HOP, seed, true);
    t.exit(micro);
    let net = t.busy_ns_under(micro);
    let per_session = |l: &str| net.get(l).copied().unwrap_or(0) as f64 / NET_SESSIONS as f64;

    let mut f = Findings::default();
    f.metrics.extend([
        ("worldgen.driver.new_ms", passes.ns(NEW) / 1e6),
        (
            "worldgen.driver.gen_ns_per_session",
            passes.ns(GEN) / SIM_SESSIONS as f64,
        ),
        ("worldgen.driver.flows", flows as f64),
        (
            "worldgen.driver.packets_per_flow",
            ratio(packets as f64, flows as f64),
        ),
        (
            "core.classify_ns_per_flow",
            ratio(passes.ns(CLASSIFY), flows as f64),
        ),
        (
            "analysis.collector.observe_ns_per_flow",
            ratio(passes.ns(OBSERVE), flows as f64),
        ),
        ("worldgen.testlists.generate_ms", passes.ns(LISTS) / 1e6),
        ("analysis.report.render_ms", passes.ns(REPORT) / 1e6),
        ("netsim.session.direct_ns_per_session", per_session(DIRECT)),
        (
            "middlebox.vendor.hop_ns_per_session",
            per_session(HOP) - per_session(DIRECT),
        ),
    ]);
    for layer in [NEW, GEN, OBSERVE, LISTS, REPORT] {
        f.busy.push((layer, passes.ns(layer) / 1e6, true));
    }
    f.busy.push((CLASSIFY, passes.ns(CLASSIFY) / 1e6, false));
    for layer in [DIRECT, HOP] {
        f.busy.push((
            layer,
            net.get(layer).copied().unwrap_or(0) as f64 / 1e6,
            false,
        ));
    }
    f
}

// ---------------------------------------------------------------------
// pop-merge: load → new → decode → merge → lists → render
// ---------------------------------------------------------------------

/// Partials decoded (and merged) per span.
const MERGE_GROUP: usize = 16;

fn probe_merge(t: &mut Trace, seed: u64, seconds: u64, dir: &Path) -> Findings {
    let paths: Vec<PathBuf> = (0..POPS)
        .map(|p| dir.join(format!("pops/pop{p}.agg")))
        .collect();
    let mut passes = Passes::default();
    let (flows, blob_bytes, decode_failed) = repeat(t, seconds, &mut passes, |t| {
        let blobs: Vec<Vec<u8>> = t.span(LOAD, || {
            paths
                .iter()
                .map(|p| std::fs::read(p).expect("the runner's pop-run wrote every partial"))
                .collect()
        });
        let sim = t.span(NEW, || world(seed, POP_SESSIONS));
        let mut acc: Option<PartialAggregate> = None;
        let mut failed = 0u64;
        for group in blobs.chunks(MERGE_GROUP) {
            let parts: Vec<PartialAggregate> = t.span(DECODE, || {
                group.iter().filter_map(|b| decode_agg(b).ok()).collect()
            });
            failed += (group.len() - parts.len()) as u64;
            // Set-up side: what `pop-run` pays to write these partials.
            t.span(ENCODE, || {
                parts.iter().for_each(|p| drop(black_box(encode_agg(p))))
            });
            t.span(MERGE, || {
                for part in parts {
                    match acc.as_mut() {
                        None => acc = Some(part),
                        Some(a) => {
                            if merge_checked(a, part).is_err() {
                                failed += 1;
                            }
                        }
                    }
                }
            });
        }
        let acc = acc.expect("at least one partial decoded");
        let lists = t.span(LISTS, || generate_lists(&sim));
        black_box(t.span(REPORT, || report::full_report(&acc.view(), &sim, &lists)));
        let bytes: usize = blobs.iter().map(Vec::len).sum();
        (acc.total, bytes as f64, failed)
    });
    let mib = blob_bytes / (1024.0 * 1024.0);
    let mut f = Findings::default();
    f.metrics.extend([
        ("cli.load_ms", passes.ns(LOAD) / 1e6),
        ("worldgen.driver.new_ms", passes.ns(NEW) / 1e6),
        (
            "analysis.aggfile.decode_ns_per_partial",
            passes.ns(DECODE) / POPS as f64,
        ),
        (
            "analysis.aggfile.decode_mib_per_s",
            ratio(mib, passes.ns(DECODE) / 1e9),
        ),
        ("analysis.aggfile.decode_failed", decode_failed as f64),
        (
            "analysis.aggfile.bytes_per_flow",
            ratio(blob_bytes, flows as f64),
        ),
        (
            "analysis.aggfile.encode_mib_per_s",
            ratio(mib, passes.ns(ENCODE) / 1e9),
        ),
        (
            "analysis.agg.merge_ns_per_partial",
            passes.ns(MERGE) / POPS as f64,
        ),
        ("worldgen.testlists.generate_ms", passes.ns(LISTS) / 1e6),
        ("analysis.report.render_ms", passes.ns(REPORT) / 1e6),
    ]);
    for layer in [LOAD, NEW, DECODE, MERGE, LISTS, REPORT] {
        f.busy.push((layer, passes.ns(layer) / 1e6, true));
    }
    f.busy.push((ENCODE, passes.ns(ENCODE) / 1e6, false));
    f
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    dir: PathBuf,
    trace_out: PathBuf,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let value = |flag: &str| {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1)
    };
    Some(Opts {
        workload: Workload::from_name(value("--workload")?)?,
        seed: value("--seed")?.parse().ok()?,
        seconds: value("--seconds")?.parse().ok()?,
        dir: PathBuf::from(value("--dir")?),
        trace_out: PathBuf::from(value("--trace-out")?),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse_opts(&args) else {
        eprintln!("usage: probes --workload W --seed S --seconds N --dir DIR --trace-out FILE");
        return ExitCode::from(2);
    };
    let mut t = Trace::new(opts.workload.name());
    let findings = match opts.workload {
        w @ (Workload::PcapMix | Workload::PcapFlood) => {
            probe_pcap(&mut t, w, opts.seed, opts.seconds, &opts.dir)
        }
        Workload::SimReport => probe_sim(&mut t, opts.seed, opts.seconds),
        Workload::PopMerge => probe_merge(&mut t, opts.seed, opts.seconds, &opts.dir),
    };
    if let Err(e) = std::fs::write(&opts.trace_out, t.to_json()) {
        eprintln!("probes: cannot write {}: {e}", opts.trace_out.display());
        return ExitCode::FAILURE;
    }
    for (name, value) in &findings.metrics {
        println!("metric {name} {value}");
    }
    for (layer, ms, on_path) in &findings.busy {
        println!("busy {layer} {ms} {}", u8::from(*on_path));
    }
    ExitCode::SUCCESS
}
