//! Offline pcap analysis: the workflow a real operator would use.
//!
//! 1. Simulate a mixed batch of sessions (censored and clean) and write
//!    every inbound packet to a standard libpcap file (LINKTYPE_RAW —
//!    readable by tcpdump/wireshark).
//! 2. Re-open that file cold, reassemble flows with the paper's
//!    collection constraints, classify them, and print a per-signature
//!    summary with injection evidence.
//!
//! Pass a path to analyze an existing raw-IP pcap instead of the
//! synthesized one:
//!
//! ```sh
//! cargo run --release --example pcap_analysis -- /tmp/server_side.pcap
//! ```

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use tamperscope::capture::{flows_from_pcap, OfflineConfig, PcapWriter};
use tamperscope::core::{classify, max_rst_ipid_delta, ClassifierConfig};
use tamperscope::middlebox::{RuleSet, Vendor};
use tamperscope::netsim::{
    derive_rng, run_session, ClientConfig, Link, Path, SessionParams, SimDuration, SimTime,
};
use tamperscope::prelude::*;

const BLOCKED: &str = "blocked.example.com";

fn synthesize(path: &str) -> std::io::Result<()> {
    let server_ip: std::net::IpAddr = "198.51.100.1".parse().unwrap();
    let mut writer = PcapWriter::new(BufWriter::new(File::create(path)?))?;
    let vendors: [Option<Vendor>; 5] = [
        None,
        Some(Vendor::GfwDoubleRstAck),
        Some(Vendor::DataDropAll),
        Some(Vendor::ZeroAckPair),
        Some(Vendor::SynRst { n: 1 }),
    ];
    let mut start = SimTime::ZERO;
    for i in 0..60u32 {
        let client_ip: std::net::IpAddr = format!("203.0.113.{}", 2 + (i % 200)).parse().unwrap();
        let sni = if i % 3 == 0 {
            BLOCKED
        } else {
            "fine.example.org"
        };
        let mut cfg = ClientConfig::default_tls(client_ip, server_ip, sni);
        cfg.src_port = 30_000 + (i as u16 * 13) % 20_000;
        let vendor = vendors[(i % 5) as usize];
        let mut path_obj = match vendor {
            Some(v) => {
                // IP-level (SYN-stage) censors key on the destination, not
                // the domain; give them a blanket rule like a blocked IP.
                let rules = if v.stages().on_syn {
                    RuleSet::blanket()
                } else {
                    RuleSet::domains([BLOCKED])
                };
                Path {
                    links: vec![
                        Link::new(SimDuration::from_millis(10), 4),
                        Link::new(SimDuration::from_millis(45), 9),
                    ],
                    hops: vec![Box::new(v.build(rules))],
                }
            }
            None => Path::direct(SimDuration::from_millis(55), 13),
        };
        let mut rng = derive_rng(77, u64::from(i));
        let trace = run_session(
            SessionParams::new(cfg, ServerConfig::default_edge(server_ip, 443), start),
            &mut path_obj,
            &mut rng,
        );
        for tp in trace.inbound() {
            let secs = tp.time.as_secs() as u32;
            let usec = ((tp.time.as_nanos() % 1_000_000_000) / 1_000) as u32;
            writer.write_packet(secs, usec, &tp.packet)?;
        }
        start += SimDuration::from_secs(2);
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arg_path = std::env::args().nth(1);
    let path = match &arg_path {
        Some(p) => p.clone(),
        None => {
            let p = std::env::temp_dir().join("tamperscope_demo.pcap");
            let p = p.to_string_lossy().into_owned();
            synthesize(&p)?;
            println!("synthesized capture at {p} (open it in wireshark!)\n");
            p
        }
    };

    let (flows, stats) = flows_from_pcap(&std::fs::read(&path)?, &OfflineConfig::default())?;
    println!(
        "ingested {}: {} flows, {} packets ({} skipped outbound, {} unparsable)\n",
        path, stats.flows, stats.packets, stats.not_inbound, stats.unparsable
    );

    let cfg = ClassifierConfig::default();
    let mut by_class: BTreeMap<String, u32> = BTreeMap::new();
    let mut evidence_hits = 0u32;
    let mut tampered = 0u32;
    for flow in &flows {
        let analysis = classify(flow, &cfg);
        let key = match analysis.signature() {
            Some(sig) => sig.label().to_owned(),
            None if analysis.is_possibly_tampered() => "(possibly tampered, unmatched)".into(),
            None => "not tampered".into(),
        };
        *by_class.entry(key).or_default() += 1;
        if analysis.signature().is_some() {
            tampered += 1;
            if max_rst_ipid_delta(flow).is_some_and(|d| d > 1) {
                evidence_hits += 1;
            }
        }
    }
    println!("classification summary:");
    for (label, n) in &by_class {
        println!("  {n:4}  {label}");
    }
    println!(
        "\n{} of {} signature matches carry IP-ID injection evidence (Δ > 1)",
        evidence_hits, tampered
    );
    Ok(())
}
