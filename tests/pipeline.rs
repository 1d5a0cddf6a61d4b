//! Pipeline equivalence and ablation tests (DESIGN.md A1–A5). Per flow:
//! the pcap round-trip matches direct collection, timestamp quantization
//! does not change verdicts (A3), and a 4-packet window hides Post-Data
//! tampering (A2). In aggregate, over simulated worlds that each vary
//! one collection or classification choice: the inactivity threshold
//! (A1), the packet window (A2), quantization (A3), merged vs split
//! RST-count signatures (A4) and 1-in-N sampling (A5).

mod common;

use std::net::{IpAddr, Ipv4Addr};
use tamper_analysis::{report::stage_share, Collector};
use tamper_capture::{
    collect, flows_from_pcap, CollectorConfig, OfflineConfig, PcapWriter, Sampler,
};
use tamper_core::{classify, ClassifierConfig, Signature, Stage};
use tamper_middlebox::{RuleSet, Vendor};
use tamper_netsim::{
    derive_rng, run_session, ClientConfig, Link, Path, ServerConfig, SessionParams, SimDuration,
    SimTime,
};
use tamper_worldgen::WorldConfig;

fn tampered_trace(vendor: Vendor, seed: u64) -> tamper_netsim::SessionTrace {
    let client = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 77));
    let server = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
    let cfg = ClientConfig::default_tls(client, server, "blocked.example.com");
    let mut path = Path {
        links: vec![
            Link::new(SimDuration::from_millis(10), 4),
            Link::new(SimDuration::from_millis(40), 9),
        ],
        hops: vec![Box::new(
            vendor.build(RuleSet::domains(["blocked.example.com"])),
        )],
    };
    let mut rng = derive_rng(seed, 0);
    run_session(
        SessionParams::new(
            cfg,
            ServerConfig::default_edge(server, 443),
            SimTime::from_secs(10),
        ),
        &mut path,
        &mut rng,
    )
}

/// Writing inbound packets to pcap and re-ingesting them gives the same
/// classification as the direct in-memory pipeline.
#[test]
fn pcap_round_trip_classifies_identically() {
    for (vendor, seed) in [
        (Vendor::GfwDoubleRstAck, 3u64),
        (Vendor::ZeroAckPair, 4),
        (Vendor::DataDropAll, 5),
        (Vendor::PshRstAck, 6),
    ] {
        let trace = tampered_trace(vendor, seed);
        // Direct collection (no shuffle so the comparison is exact).
        let direct_cfg = CollectorConfig {
            shuffle_within_second: false,
            ..Default::default()
        };
        let mut crng = derive_rng(seed, 1);
        let direct = collect(&trace, &direct_cfg, &mut crng).unwrap();
        let direct_class = classify(&direct, &ClassifierConfig::default()).classification;

        // Pcap round-trip.
        let mut pcap = PcapWriter::new(Vec::new()).unwrap();
        for tp in trace.inbound() {
            pcap.write_frame(
                tp.time.as_secs() as u32,
                ((tp.time.as_nanos() % 1_000_000_000) / 1000) as u32,
                &tp.packet.emit(),
            )
            .unwrap();
        }
        let (flows, stats) =
            flows_from_pcap(&pcap.into_inner(), &OfflineConfig::default()).unwrap();
        assert_eq!(flows.len(), 1, "{vendor:?}");
        assert_eq!(stats.unparsable, 0);
        let offline_class = classify(&flows[0], &ClassifierConfig::default()).classification;
        assert_eq!(direct_class, offline_class, "{vendor:?}");
    }
}

/// Ablation A3: exact (nanosecond) timestamps and quantized 1-second
/// timestamps yield identical classifications — order reconstruction from
/// headers recovers everything quantization loses.
#[test]
fn quantization_ablation_preserves_verdicts() {
    let vendors = [
        Vendor::GfwMixed,
        Vendor::SameAckBurst { n: 3 },
        Vendor::DataDropRstAck { n: 2 },
        Vendor::FirewallRst,
        Vendor::SynRstBoth,
    ];
    for (i, vendor) in vendors.into_iter().enumerate() {
        let request = if vendor.stages().on_later_data {
            tamper_netsim::RequestPayload::HttpTwo {
                host: "blocked.example.com".into(),
                path1: "/".into(),
                path2: format!("/x?q={}", tamper_worldgen::FIREWALL_KEYWORD),
                user_agent: "ua".into(),
            }
        } else {
            tamper_netsim::RequestPayload::TlsClientHello {
                sni: "blocked.example.com".into(),
            }
        };
        let rules = if vendor.stages().on_syn {
            RuleSet::blanket()
        } else if vendor.stages().on_later_data {
            let mut r = RuleSet::default();
            r.keywords.push(tamper_worldgen::FIREWALL_KEYWORD.into());
            r
        } else {
            RuleSet::domains(["blocked.example.com"])
        };
        let client = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 80));
        let server = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
        let mut cfg = ClientConfig::default_tls(client, server, "blocked.example.com");
        cfg.request = request;
        let mut path = Path {
            links: vec![
                Link::new(SimDuration::from_millis(10), 4),
                Link::new(SimDuration::from_millis(40), 9),
            ],
            hops: vec![Box::new(vendor.build(rules))],
        };
        let mut rng = derive_rng(100 + i as u64, 0);
        let trace = run_session(
            SessionParams::new(cfg, ServerConfig::default_edge(server, 443), SimTime::ZERO),
            &mut path,
            &mut rng,
        );

        let quantized_cfg = CollectorConfig::default();
        let exact_cfg = CollectorConfig {
            quantize_timestamps: false,
            shuffle_within_second: false,
            ..Default::default()
        };
        let mut r1 = derive_rng(200, i as u64);
        let mut r2 = derive_rng(201, i as u64);
        let q = collect(&trace, &quantized_cfg, &mut r1).unwrap();
        let e = collect(&trace, &exact_cfg, &mut r2).unwrap();
        let cq = classify(&q, &ClassifierConfig::default()).classification;
        let ce = classify(&e, &ClassifierConfig::default()).classification;
        assert_eq!(cq, ce, "{vendor:?}: quantization changed the verdict");
    }
}

/// Ablation A2: shrinking the packet window below the teardown position
/// hides Post-Data tampering (the paper's rationale for 10 packets).
#[test]
fn packet_window_ablation_hides_late_tampering() {
    let client = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 81));
    let server = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
    let mut cfg = ClientConfig::default_tls(client, server, "x");
    cfg.request = tamper_netsim::RequestPayload::HttpTwo {
        host: "site.example".into(),
        path1: "/".into(),
        path2: format!("/x?q={}", tamper_worldgen::FIREWALL_KEYWORD),
        user_agent: "ua".into(),
    };
    cfg.dst_port = 80;
    let mut rules = RuleSet::default();
    rules
        .keywords
        .push(tamper_worldgen::FIREWALL_KEYWORD.into());
    let mut path = Path {
        links: vec![
            Link::new(SimDuration::from_millis(10), 4),
            Link::new(SimDuration::from_millis(40), 9),
        ],
        hops: vec![Box::new(Vendor::FirewallRstAck.build(rules))],
    };
    let mut rng = derive_rng(300, 0);
    let trace = run_session(
        SessionParams::new(cfg, ServerConfig::default_edge(server, 80), SimTime::ZERO),
        &mut path,
        &mut rng,
    );
    let classify_with_window = |max_packets: usize| {
        let cfg = CollectorConfig {
            max_packets,
            shuffle_within_second: false,
            ..Default::default()
        };
        let mut crng = derive_rng(301, max_packets as u64);
        let flow = collect(&trace, &cfg, &mut crng).unwrap();
        classify(&flow, &ClassifierConfig::default())
    };
    let full = classify_with_window(10);
    assert_eq!(full.signature(), Some(Signature::DataRstAck));
    let narrow = classify_with_window(4);
    assert_ne!(
        narrow.signature(),
        Some(Signature::DataRstAck),
        "a 4-packet window cannot see the Post-Data teardown"
    );
}

/// The world every aggregate ablation below varies one knob of.
fn ablation_world() -> WorldConfig {
    WorldConfig {
        sessions: 25_000,
        days: 2,
        catalog_size: 800,
        ..Default::default()
    }
}

/// The A1/A4 classifier variants: a 1 s and a 10 s inactivity threshold,
/// and the single-vs-multiple RST splits merged.
fn classifier_variants() -> [ClassifierConfig; 3] {
    let paper = ClassifierConfig::default();
    [
        ClassifierConfig {
            inactivity_secs: 1,
            ..paper
        },
        ClassifierConfig {
            inactivity_secs: 10,
            ..paper
        },
        ClassifierConfig {
            split_rst_counts: false,
            ..paper
        },
    ]
}

/// The default ablation world (the paper's 10-packet window, 1-second
/// timestamps, no sampling) under the paper's classifier and under each
/// of [`classifier_variants`], from one simulation shared by every test
/// that asks for it.
fn ablation() -> &'static common::ObservedWith {
    common::observed_with(ablation_world(), &classifier_variants())
}

/// `world` aggregated under the paper's classifier; each distinct world
/// is simulated once for every test that asks for it.
fn run_paper_classifier(world: WorldConfig) -> &'static Collector {
    &common::observed(world).0
}

/// What EXPERIMENTS.md's ablation rows report: flows kept, possibly
/// tampered, and per stage the flows and the signature matches.
fn headline(col: &Collector) -> (u64, u64, [u64; 5], [u64; 5]) {
    (
        col.total,
        col.possibly_tampered,
        col.stage_counts,
        col.stage_matched,
    )
}

fn possibly_tampered_share(col: &Collector) -> f64 {
    col.possibly_tampered as f64 / col.total as f64
}

/// Ablations A1 and A4, which vary only the classifier, over one
/// simulated world. A1: with 1-second timestamps a 1 s, 3 s or 10 s
/// inactivity threshold selects the same flows. A4: merging the
/// single-vs-multiple RST splits folds 19 observed signatures into 13 and
/// moves no flow across a stage or in or out of the matched set.
#[test]
fn classifier_ablations_move_no_flow_across_the_headline() {
    let ((t3, _), variants) = ablation();
    let [t1, t10, merged] = [&variants[0], &variants[1], &variants[2]];
    assert!(t3.possibly_tampered > 0);
    assert_eq!(headline(t1), headline(t3), "A1: 1 s vs 3 s");
    assert_eq!(headline(t10), headline(t3), "A1: 10 s vs 3 s");

    let distinct_signatures = |col: &Collector| {
        (0..Signature::ALL.len())
            .filter(|&sig| col.country_class.iter().any(|c| c[sig] > 0))
            .count()
    };
    assert_eq!(headline(merged), headline(t3), "A4: merged vs split");
    assert_eq!(distinct_signatures(t3), 19);
    assert_eq!(distinct_signatures(merged), 13);
}

/// Ablation A2 in aggregate: a 4-packet window never reaches a Post-Data
/// teardown, so that stage empties and the possibly-tampered share falls
/// with it; 20 packets see nothing 10 did not (the paper's choice of 10).
#[test]
fn packet_window_ablation_in_aggregate() {
    let window = |max_packets: usize| {
        let mut world = ablation_world();
        world.collector.max_packets = max_packets;
        run_paper_classifier(world)
    };
    let (w4, w10, w20) = (window(4), &ablation().0 .0, window(20));
    assert!(w10.stage_counts[3] > 0, "the paper window sees Post-Data");
    assert_eq!(w4.stage_counts[3], 0, "window 4 still sees Post-Data");
    assert!(
        possibly_tampered_share(w4) < possibly_tampered_share(w10) - 0.05,
        "window 4 {} vs window 10 {}",
        possibly_tampered_share(w4),
        possibly_tampered_share(w10)
    );
    assert_eq!(headline(w20), headline(w10), "window 20 vs 10");
}

/// Ablation A3 in aggregate: exact timestamps select the same flows and
/// match the same number of them as the paper's 1-second timestamps;
/// only a handful move between adjacent stages.
#[test]
fn quantization_ablation_in_aggregate() {
    let quantized = &ablation().0 .0;
    let mut world = ablation_world();
    world.collector.quantize_timestamps = false;
    world.collector.shuffle_within_second = false;
    let exact = run_paper_classifier(world);
    assert_eq!(exact.total, quantized.total);
    assert_eq!(exact.possibly_tampered, quantized.possibly_tampered);
    assert_eq!(
        exact.stage_matched.iter().sum::<u64>(),
        quantized.stage_matched.iter().sum::<u64>(),
        "signature coverage"
    );
    for stage in [
        Stage::PostSyn,
        Stage::PostAck,
        Stage::PostPsh,
        Stage::PostData,
    ] {
        let q = stage_share(&quantized.view(), stage);
        let e = stage_share(&exact.view(), stage);
        assert!((q - e).abs() <= 0.01, "{stage:?}: {q} vs {e}");
    }
}

/// Ablation A5: sampling 1-in-N preserves the headline proportions.
#[test]
fn sampling_ablation_preserves_proportions() {
    let full = &ablation().0 .0;
    let sampled = run_paper_classifier(WorldConfig {
        sessions: 250_000,
        sample_denominator: 10,
        ..ablation_world()
    });
    // 250k generated at 1-in-10 yields about as many kept flows as the
    // unsampled 25k run — i.e. the sampler really dropped ~90%.
    let ratio = sampled.total as f64 / full.total as f64;
    assert!((0.8..1.25).contains(&ratio), "sample ratio {ratio}");
    // ...but the possibly-tampered proportion is stable.
    let p_full = possibly_tampered_share(full);
    let p_sampled = possibly_tampered_share(sampled);
    assert!(
        (p_full - p_sampled).abs() < 0.03,
        "full {p_full} vs sampled {p_sampled}"
    );
    // Stage shares stay within a few points too.
    for stage in [Stage::PostSyn, Stage::PostData] {
        let s_full = stage_share(&full.view(), stage);
        let s_sampled = stage_share(&sampled.view(), stage);
        assert!(
            (s_full - s_sampled).abs() < 0.06,
            "{stage:?}: {s_full} vs {s_sampled}"
        );
    }
}

/// The deterministic sampler keeps roughly 1/N of connections.
#[test]
fn sampler_rate_sanity() {
    let s = Sampler::new(99, 10_000);
    let total = 2_000_000u64;
    let kept = (0..total)
        .filter(|&i| {
            s.keep(
                IpAddr::V4(Ipv4Addr::from(0x0A00_0000 + (i % 700_000) as u32)),
                IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
                (i % 60_000) as u16,
                i,
            )
        })
        .count() as f64;
    let rate = kept / total as f64;
    assert!(
        (rate - 1e-4).abs() < 4e-5,
        "1-in-10k sampler rate was {rate}"
    );
}
