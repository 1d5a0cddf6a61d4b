//! The collection pipeline: turns a raw session trace into the constrained
//! [`FlowRecord`] the paper's infrastructure stored.
//!
//! Constraints reproduced exactly (paper §3.2):
//! 1. only inbound (client→server) packets are logged;
//! 2. only the first 10 packets are retained;
//! 3. timestamps are quantized to one second;
//! 4. log order may differ from arrival order within a timestamp bucket.

use crate::record::{FlowRecord, PacketRecord};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use tamper_netsim::SessionTrace;

/// Collector configuration.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Maximum packets retained per flow (paper: 10).
    pub max_packets: usize,
    /// Quantize timestamps to whole seconds (paper: true). Disable only in
    /// the A3 ablation.
    pub quantize_timestamps: bool,
    /// Shuffle log order within each one-second bucket to model the
    /// paper's out-of-order logging.
    pub shuffle_within_second: bool,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            max_packets: 10,
            quantize_timestamps: true,
            shuffle_within_second: true,
        }
    }
}

/// Convert one session trace into a flow record under the collection
/// constraints. Returns `None` when the server saw no packets at all (a
/// fully black-holed connection never creates server state to sample).
pub fn collect(
    trace: &SessionTrace,
    cfg: &CollectorConfig,
    rng: &mut StdRng,
) -> Option<FlowRecord> {
    let first = trace.inbound().next()?;
    let inbound = trace.inbound().count();
    let truncated = inbound > cfg.max_packets;

    let client_ip = first.packet.ip.src();
    let server_ip = first.packet.ip.dst();
    let src_port = first.packet.tcp.src_port;
    let dst_port = first.packet.tcp.dst_port;

    let mut packets: Vec<PacketRecord> = Vec::with_capacity(inbound.min(cfg.max_packets));
    packets.extend(trace.inbound().take(cfg.max_packets).map(|tp| {
        let ts = if cfg.quantize_timestamps {
            tp.time.as_secs()
        } else {
            // Ablation mode: keep nanosecond precision by encoding
            // nanoseconds in the (widened) seconds field.
            tp.time.as_nanos()
        };
        PacketRecord::from_packet(ts, &tp.packet)
    }));

    if cfg.shuffle_within_second && cfg.quantize_timestamps {
        shuffle_within_buckets(&mut packets, rng);
    }

    Some(FlowRecord {
        client_ip,
        server_ip,
        src_port,
        dst_port,
        packets,
        observation_end_sec: if cfg.quantize_timestamps {
            trace.ended.as_secs()
        } else {
            trace.ended.as_nanos()
        },
        truncated,
    })
}

/// Shuffle records within runs of equal timestamps, deterministically.
fn shuffle_within_buckets(packets: &mut [PacketRecord], rng: &mut StdRng) {
    let mut i = 0;
    while i < packets.len() {
        let ts = packets[i].ts_sec;
        let mut j = i + 1;
        while j < packets.len() && packets[j].ts_sec == ts {
            j += 1;
        }
        packets[i..j].shuffle(rng);
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_netsim::{
        derive_rng, run_session, ClientConfig, Path, ServerConfig, SessionParams, SimDuration,
        SimTime,
    };
    use tamper_wire::Seq;

    fn trace() -> SessionTrace {
        let src = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 20));
        let dst = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
        let cfg = ClientConfig::default_tls(src, dst, "site.example");
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path::direct(SimDuration::from_millis(40), 11);
        let mut rng = derive_rng(11, 1);
        run_session(
            SessionParams::new(cfg, server, SimTime::from_secs(1000)),
            &mut path,
            &mut rng,
        )
    }

    #[test]
    fn collects_inbound_only_up_to_ten() {
        let t = trace();
        let mut rng = derive_rng(11, 2);
        let flow = collect(&t, &CollectorConfig::default(), &mut rng).unwrap();
        assert!(flow.packets.len() <= 10);
        assert!(!flow.packets.is_empty());
        assert_eq!(flow.dst_port, 443);
        assert_eq!(flow.client_ip, IpAddr::V4(Ipv4Addr::new(203, 0, 113, 20)));
    }

    #[test]
    fn timestamps_are_quantized() {
        let t = trace();
        let mut rng = derive_rng(11, 3);
        let flow = collect(&t, &CollectorConfig::default(), &mut rng).unwrap();
        // Session starts at t=1000s and completes within a couple seconds.
        for p in &flow.packets {
            assert!(p.ts_sec >= 1000 && p.ts_sec < 1005, "ts {}", p.ts_sec);
        }
        assert_eq!(flow.observation_end_sec, 1030);
    }

    #[test]
    fn empty_trace_yields_none() {
        let t = SessionTrace {
            packets: vec![],
            started: SimTime::ZERO,
            ended: SimTime::from_secs(30),
            tamper_events: vec![],
        };
        let mut rng = derive_rng(11, 4);
        assert!(collect(&t, &CollectorConfig::default(), &mut rng).is_none());
    }

    #[test]
    fn reencode_round_trips() {
        let t = trace();
        assert!(t.inbound().count() > 3);
        for tp in t.inbound() {
            let parsed = tamper_wire::Packet::parse(&tp.packet.emit())
                .expect("emitted packet must re-parse");
            assert_eq!(
                PacketRecord::from_packet(7, &parsed),
                PacketRecord::from_packet(7, &tp.packet),
                "wire round-trip must not alter records"
            );
        }
    }

    #[test]
    fn shuffle_only_permutes_within_buckets() {
        let t = trace();
        let mut rng1 = derive_rng(11, 6);
        let mut rng2 = derive_rng(12, 6);
        let cfg = CollectorConfig::default();
        let a = collect(&t, &cfg, &mut rng1).unwrap();
        let b = collect(&t, &cfg, &mut rng2).unwrap();
        // Same multiset of packets regardless of shuffle seed.
        let key = |p: &PacketRecord| (p.ts_sec, p.seq.offset_from(Seq::ZERO), p.flags);
        let mut sa: Vec<_> = a.packets.iter().map(key).collect();
        let mut sb: Vec<_> = b.packets.iter().map(key).collect();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
        // Timestamps remain non-decreasing (shuffle never crosses buckets).
        for w in a.packets.windows(2) {
            assert!(w[0].ts_sec <= w[1].ts_sec);
        }
    }

    #[test]
    fn truncation_marker_set_for_long_flows() {
        let src = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 21));
        let dst = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
        let cfg = ClientConfig::default_tls(src, dst, "site.example");
        let mut server = ServerConfig::default_edge(dst, 443);
        server.response_segments = 12; // client ACKs each → > 10 inbound
        let mut path = Path::direct(SimDuration::from_millis(30), 11);
        let mut rng = derive_rng(11, 7);
        let t = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let mut crng = derive_rng(11, 8);
        let flow = collect(&t, &CollectorConfig::default(), &mut crng).unwrap();
        assert_eq!(flow.packets.len(), 10);
        assert!(flow.truncated);
    }
}
