//! The engine's headline guarantee: classify output is a pure function of
//! the capture bytes, not of the thread count. A synthesized capture runs
//! through `cli::classify`, the pipeline `tamperscope classify` ships, at
//! 1, 2, and 8 shards; verdict text in every renderer, per-signature
//! counts, and the deterministic summary JSON must be byte-identical
//! everywhere.

use std::net::{IpAddr, Ipv4Addr};

use tamperscope::analysis::{
    capture_summary_to_json, flow_to_jsonl, metrics_to_json, report, summary_to_json, Collector,
};
use tamperscope::capture::{
    flows_from_pcap, run_source, EngineConfig, EngineStats, FlowBatch, FlowRecord, OfflineConfig,
    PacketRecord, PcapMemSource, PcapWriter,
};
use tamperscope::cli::{self, Render};
use tamperscope::core::{classify, ClassifierConfig, Signature};
use tamperscope::obs::Registry;
use tamperscope::wire::{PacketBuilder, TcpFlags, TcpHeader};
use tamperscope::worldgen::{generate_lists, WorldConfig, WorldSim};

fn server() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1))
}

fn frame(
    client: IpAddr,
    sport: u16,
    dport: u16,
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    payload: &[u8],
) -> Vec<u8> {
    PacketBuilder::new(client, server(), sport, dport)
        .flags(flags)
        .seq(seq)
        .ack(ack)
        .ttl(52)
        .ip_id((seq % 60_000) as u16)
        .payload(bytes::Bytes::copy_from_slice(payload))
        .build()
        .emit()
        .to_vec()
}

/// A deterministic capture with a varied mix of flow shapes, written in
/// global timestamp order so flows interleave and idle flows age out
/// mid-stream.
fn synth_capture(n_flows: u32) -> Vec<u8> {
    let mut timed: Vec<(u32, Vec<u8>)> = Vec::new();
    for i in 0..n_flows {
        let client = IpAddr::V4(Ipv4Addr::new(203, 0, 113, (1 + i % 200) as u8));
        let sport = 20_000 + (i % 40_000) as u16;
        let dport = if i % 3 == 0 { 80 } else { 443 };
        let t = 100 + i; // staggered starts
        let f =
            |flags, seq, ack, payload: &[u8]| frame(client, sport, dport, flags, seq, ack, payload);
        match i % 8 {
            // Clean request/teardown.
            0 => {
                timed.push((t, f(TcpFlags::SYN, 100, 0, b"")));
                timed.push((t, f(TcpFlags::ACK, 101, 500, b"")));
                timed.push((
                    t + 1,
                    f(
                        TcpFlags::PSH_ACK,
                        101,
                        500,
                        b"GET / HTTP/1.1\r\nHost: ok.example\r\n\r\n",
                    ),
                ));
                timed.push((t + 2, f(TcpFlags::FIN_ACK, 137, 900, b"")));
            }
            // Lone SYN, then silence.
            1 => timed.push((t, f(TcpFlags::SYN, 100, 0, b""))),
            // SYN answered by an injected RST.
            2 => {
                timed.push((t, f(TcpFlags::SYN, 100, 0, b"")));
                timed.push((t, f(TcpFlags::RST, 101, 0, b"")));
            }
            // Handshake completes, then RST+ACK.
            3 => {
                timed.push((t, f(TcpFlags::SYN, 100, 0, b"")));
                timed.push((t, f(TcpFlags::ACK, 101, 500, b"")));
                timed.push((t + 1, f(TcpFlags::RST_ACK, 101, 500, b"")));
            }
            // Data, then a burst of equal-ack RSTs.
            4 => {
                timed.push((t, f(TcpFlags::SYN, 100, 0, b"")));
                timed.push((t, f(TcpFlags::ACK, 101, 500, b"")));
                timed.push((t + 1, f(TcpFlags::PSH_ACK, 101, 500, b"hello")));
                timed.push((t + 1, f(TcpFlags::RST, 106, 700, b"")));
                timed.push((t + 1, f(TcpFlags::RST, 106, 700, b"")));
            }
            // Long idle mid-flow: the 30 s timeout splits it in two.
            5 => {
                timed.push((t, f(TcpFlags::SYN, 100, 0, b"")));
                timed.push((t, f(TcpFlags::ACK, 101, 500, b"")));
                timed.push((t + 40, f(TcpFlags::PSH_ACK, 101, 500, b"late")));
            }
            // More packets than the 10-packet cap retains.
            6 => {
                timed.push((t, f(TcpFlags::SYN, 100, 0, b"")));
                timed.push((t, f(TcpFlags::ACK, 101, 500, b"")));
                for k in 0..12u32 {
                    timed.push((
                        t + 1 + k / 6,
                        f(TcpFlags::PSH_ACK, 101 + k * 8, 500, b"chunk!!!"),
                    ));
                }
            }
            // Two data packets, then RST+ACK.
            _ => {
                timed.push((t, f(TcpFlags::SYN, 100, 0, b"")));
                timed.push((t, f(TcpFlags::ACK, 101, 500, b"")));
                timed.push((t + 1, f(TcpFlags::PSH_ACK, 101, 500, b"first")));
                timed.push((t + 2, f(TcpFlags::PSH_ACK, 106, 600, b"second")));
                timed.push((t + 2, f(TcpFlags::RST_ACK, 112, 700, b"")));
            }
        }
    }
    timed.sort_by_key(|(ts, _)| *ts);
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for (i, (ts, fr)) in timed.iter().enumerate() {
        w.write_frame(*ts, i as u32 % 1_000_000, fr).expect("frame");
    }
    w.into_inner()
}

/// Run `classify`'s pipeline at a given shard count, with an optional
/// metrics registry attached — observation must be a pure spectator;
/// return the verdict text it writes, the collector and the ledger.
fn engine_output(
    bytes: &[u8],
    threads: usize,
    render: Render,
    obs: Option<&Registry>,
) -> (String, Collector, EngineStats) {
    let cfg = EngineConfig {
        threads,
        ..EngineConfig::default()
    };
    let mut src = PcapMemSource::new(bytes::Bytes::copy_from_slice(bytes)).expect("pcap header");
    let run = cli::classify(&mut src, &cfg, render, false, Vec::new(), obs);
    assert!(run.stats.is_conserved(), "{:?}", run.stats);
    let text = run
        .written
        .expect("capture read to its end")
        .expect("write to memory");
    let text = String::from_utf8(text).expect("verdicts are UTF-8");
    (text, run.collector, run.stats)
}

fn signature_counts(col: &Collector) -> [u64; 19] {
    let mut counts = [0u64; 19];
    for row in &col.country_class {
        for (i, c) in row.iter().take(19).enumerate() {
            counts[i] += c;
        }
    }
    counts
}

#[test]
fn verdicts_are_byte_identical_across_thread_counts() {
    let bytes = synth_capture(120);
    for render in [Render::Lines, Render::Jsonl, Render::Explain] {
        let (out1, col1, stats1) = engine_output(&bytes, 1, render, None);
        let (out2, col2, stats2) = engine_output(&bytes, 2, render, None);
        let (out8, col8, stats8) = engine_output(&bytes, 8, render, None);

        assert!(!out1.is_empty());
        assert_eq!(out1, out2, "{render:?}: threads 1 vs 2 diverged");
        assert_eq!(out1, out8, "{render:?}: threads 1 vs 8 diverged");

        // The deterministic summary line must match byte-for-byte too.
        let s1 = capture_summary_to_json(&col1, &stats1);
        let s2 = capture_summary_to_json(&col2, &stats2);
        let s8 = capture_summary_to_json(&col8, &stats8);
        assert_eq!(s1, s2);
        assert_eq!(s1, s8);

        // And the per-signature counts.
        assert_eq!(signature_counts(&col1), signature_counts(&col2));
        assert_eq!(signature_counts(&col1), signature_counts(&col8));

        // The capture genuinely exercised streaming eviction and all
        // stat paths — otherwise the determinism claim is vacuous.
        assert!(stats1.evicted_timeout > 0, "no timeout evictions happened");
        assert!(stats1.drained_eof > 0, "no EOF drains happened");
        assert!(
            stats1.ingest.truncated_packets > 0,
            "no truncation happened"
        );
    }
}

/// A capture run's counters, flows discarded.
fn ledger(mut src: PcapMemSource, cfg: &EngineConfig) -> EngineStats {
    run_source(&mut src, cfg, None, || (), |_, _: FlowBatch| {}, |_, _| {}).1
}

#[test]
fn capture_ledger_balances_at_any_shard_count_and_cap() {
    // Every record is a kept packet, a packet past its flow's cap, not
    // inbound, or unparsable; every flow opened is closed exactly once —
    // whether the capture is handed over whole or streamed from a reader.
    let bytes = synth_capture(120);
    for threads in [1usize, 2, 8] {
        for max_flows in [0usize, 16] {
            let cfg = EngineConfig {
                threads,
                max_flows,
                ..EngineConfig::default()
            };
            let whole = ledger(
                PcapMemSource::new(bytes::Bytes::copy_from_slice(&bytes)).expect("pcap header"),
                &cfg,
            );
            let streamed = ledger(
                PcapMemSource::from_reader(std::io::Cursor::new(bytes.clone()))
                    .expect("pcap header"),
                &cfg,
            );
            assert!(whole.is_conserved(), "{threads}/{max_flows}: {whole:?}");
            assert_eq!(streamed, whole, "{threads}/{max_flows}");
            assert!(whole.ingest.truncated_packets > 0 && whole.ingest.not_inbound == 0);
            assert_eq!(
                whole.evicted_cap > 0,
                max_flows > 0,
                "{threads}/{max_flows}"
            );
        }
    }
}

#[test]
fn corpus_hits_multiple_signatures() {
    // Sanity: the synthetic mix must produce a spread of signatures, not
    // funnel everything into one bucket.
    let bytes = synth_capture(80);
    let (_, col, _) = engine_output(&bytes, 2, Render::Jsonl, None);
    let counts = signature_counts(&col);
    assert!(counts[Signature::SynNone.index()] > 0);
    assert!(counts[Signature::SynRst.index()] > 0);
    assert!(counts[Signature::AckRstAck.index()] > 0);
    assert!(counts[Signature::PshRstEq.index()] > 0);
    let distinct = counts.iter().filter(|&&c| c > 0).count();
    assert!(
        distinct >= 4,
        "only {distinct} distinct signatures: {counts:?}"
    );
}

#[test]
fn sharding_cannot_increase_max_live_flows() {
    // max_live_flows is the max per-shard high-water mark. Each shard sees
    // a subset of the flows under the same eviction clock, so splitting the
    // capture across 8 shards can only shrink (or keep) the single-shard
    // high water — it must never report the shards' sum.
    let bytes = synth_capture(120);
    let (_, _, stats1) = engine_output(&bytes, 1, Render::Jsonl, None);
    let (_, _, stats8) = engine_output(&bytes, 8, Render::Jsonl, None);
    assert!(stats1.max_live_flows > 0);
    assert!(
        stats8.max_live_flows <= stats1.max_live_flows,
        "8-shard high water {} exceeds single-shard {}",
        stats8.max_live_flows,
        stats1.max_live_flows
    );
}

/// The golden world, scaled down to suite size: default (golden) seed,
/// enough sessions for every stage of the taxonomy to appear.
fn golden_sim() -> WorldSim {
    WorldSim::new(WorldConfig {
        sessions: 4_000,
        days: 2,
        catalog_size: 600,
        ..Default::default()
    })
}

/// Reconstruct the wire frame a logged packet came from. The collector's
/// `PacketRecord` keeps every classified header field, so the rebuilt frame
/// re-parses to the same record (options content is gone — any option list
/// preserves the `has_tcp_options` bit the classifier reads).
fn wire_frame(flow: &FlowRecord, p: &PacketRecord) -> Vec<u8> {
    let mut b = PacketBuilder::new(flow.client_ip, flow.server_ip, flow.src_port, flow.dst_port)
        .flags(p.flags)
        .seq(p.seq)
        .ack(p.ack)
        .ttl(p.ttl)
        .window(p.window)
        .payload(p.payload.clone());
    if let Some(id) = p.ip_id {
        b = b.ip_id(id);
    }
    if p.has_tcp_options {
        b = b.options(TcpHeader::standard_syn_options());
    }
    b.build().emit().to_vec()
}

/// Satellite: `SimSource → engine` is byte-identical to the
/// `WorldSim::run → pcap → classify` round trip on the golden world seed,
/// at 1, 2, and 8 shards.
#[test]
fn sim_engine_matches_the_pcap_round_trip() {
    let sim = golden_sim();
    let clf_cfg = ClassifierConfig::default();

    // Simulated flows streamed straight through the sharded engine.
    let engine_lines = |threads: usize| -> Vec<String> {
        sim.run_sharded(
            threads,
            None,
            Vec::new,
            |acc: &mut Vec<String>, lf| {
                let analysis = classify(&lf.flow, &clf_cfg);
                acc.push(flow_to_jsonl(&lf.flow, &analysis));
            },
            |a, mut b| a.append(&mut b),
        )
    };
    let eng1 = engine_lines(1);
    let eng2 = engine_lines(2);
    let eng8 = engine_lines(8);
    assert!(!eng1.is_empty());
    assert_eq!(eng1, eng2, "sim verdicts diverged between 1 and 2 shards");
    assert_eq!(eng1, eng8, "sim verdicts diverged between 1 and 8 shards");

    // Round trip: serial generation, flows written out as a time-ordered
    // pcap, re-ingested through the capture path.
    let mut timed: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut sim_flows = 0u64;
    sim.run(|lf| {
        sim_flows += 1;
        let flow = &lf.flow;
        for p in &flow.packets {
            timed.push((p.ts_sec, wire_frame(flow, p)));
        }
        if flow.truncated {
            // The collector stopped logging at the packet cap; replay one
            // surplus copy of the final packet so the offline table hits
            // its own cap and sets the same truncated bit. The surplus
            // packet is past the cap, so it is never retained.
            if let Some(last) = flow.packets.last() {
                timed.push((last.ts_sec, wire_frame(flow, last)));
            }
        }
    });
    // Stable sort: global capture-time order, intra-flow order preserved.
    timed.sort_by_key(|(ts, _)| *ts);
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for (ts, fr) in &timed {
        w.write_frame(*ts as u32, 0, fr).expect("frame");
    }
    let bytes = w.into_inner();
    let (flows, stats) =
        flows_from_pcap(bytes.as_slice(), &OfflineConfig::default()).expect("re-ingest");
    assert_eq!(stats.unparsable, 0);
    assert_eq!(
        flows.len() as u64,
        sim_flows,
        "round trip split or merged flows"
    );
    let mut round_trip: Vec<String> = flows
        .iter()
        .map(|f| flow_to_jsonl(f, &classify(f, &clf_cfg)))
        .collect();

    // The engine hands flows back in generation order; offline ingest in
    // eviction order. Compare as sorted multisets, byte for byte.
    let mut engine_sorted = eng1;
    engine_sorted.sort_unstable();
    round_trip.sort_unstable();
    assert_eq!(engine_sorted, round_trip, "sim→engine vs pcap round trip");
}

/// Acceptance gate: `report` output (the full rendered report AND the JSON
/// summary) is byte-identical at 1/2/8 threads, with and without a metrics
/// registry attached — and the registry really carries the engine scopes.
#[test]
fn report_is_byte_identical_across_threads_and_observation() {
    let sim = golden_sim();
    let lists = generate_lists(&sim);
    let render = |threads: usize, obs: Option<&Registry>| -> (String, String) {
        let col = sim.run_sharded(
            threads,
            obs,
            || {
                Collector::new(
                    ClassifierConfig::default(),
                    sim.world().len(),
                    sim.config().days,
                    sim.config().start_unix,
                )
            },
            |c, lf| c.observe(&lf),
            |a, b| a.merge(b),
        );
        (
            report::full_report(&col.view(), &sim, &lists),
            summary_to_json(&col),
        )
    };
    let (base_report, base_summary) = render(1, None);
    assert!(base_report.len() > 100, "report suspiciously small");
    for threads in [1usize, 2, 8] {
        let registry = Registry::new();
        let (plain_report, plain_summary) = render(threads, None);
        let (obs_report, obs_summary) = render(threads, Some(&registry));
        assert_eq!(
            plain_report, base_report,
            "report bytes at {threads} threads"
        );
        assert_eq!(
            plain_summary, base_summary,
            "summary bytes at {threads} threads"
        );
        assert_eq!(
            obs_report, base_report,
            "observed report bytes at {threads} threads"
        );
        assert_eq!(
            obs_summary, base_summary,
            "observed summary bytes at {threads} threads"
        );
        // The worldgen shim publishes through the engine: the engine's
        // own scopes appear, and no bespoke one.
        let snap = registry.snapshot();
        assert!(snap.scope("reader").is_some(), "no reader scope");
        assert!(snap.scope("shard0").is_some(), "no shard0 scope");
        assert!(snap.scope("merge").is_some(), "no merge scope");
        assert!(
            snap.scope("worldgen").is_none(),
            "bespoke worldgen scope leaked back"
        );
    }
}

#[test]
fn metrics_observation_never_perturbs_deterministic_output() {
    let bytes = synth_capture(120);
    let mut summaries = Vec::new();
    for threads in [1usize, 2, 8] {
        let (plain_text, plain_col, plain_stats) =
            engine_output(&bytes, threads, Render::Jsonl, None);
        let registry = Registry::new();
        let (obs_text, obs_col, obs_stats) =
            engine_output(&bytes, threads, Render::Jsonl, Some(&registry));

        // Attaching the registry changes neither the verdict lines nor the
        // deterministic summary, byte for byte.
        assert_eq!(
            plain_text, obs_text,
            "verdicts diverged at {threads} threads"
        );
        let plain_summary = capture_summary_to_json(&plain_col, &plain_stats);
        let obs_summary = capture_summary_to_json(&obs_col, &obs_stats);
        assert_eq!(
            plain_summary, obs_summary,
            "summary diverged at {threads} threads"
        );

        // Metrics live in their own document; none of its scheduling-
        // dependent vocabulary leaks into the summary bytes.
        let metrics = metrics_to_json(&registry.snapshot());
        assert!(metrics.contains("\"kind\":\"metrics\""));
        assert!(metrics.contains("\"buffered_lines_max\""), "{metrics}");
        for leak in [
            "\"kind\":\"metrics\"",
            "histograms",
            "bounds_ns",
            "channel_stalls",
        ] {
            assert!(
                !plain_summary.contains(leak),
                "summary leaked metrics vocabulary {leak:?}"
            );
        }
        summaries.push(obs_summary);
    }
    // And the observed summary itself is thread-count-invariant.
    assert_eq!(summaries[0], summaries[1]);
    assert_eq!(summaries[0], summaries[2]);
}
