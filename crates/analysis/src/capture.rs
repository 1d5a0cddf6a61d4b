//! Classify-path adapters: labeling raw capture flows — which carry no
//! simulation ground truth — so they aggregate into the same
//! [`PartialAggregate`](crate::PartialAggregate) the worldgen pipeline
//! fills, and summarizing an engine run as JSON.
//!
//! The summary is split in two on purpose:
//!
//! - [`capture_summary_to_json`] holds only values that are a pure
//!   function of the capture bytes and the classifier configuration, so
//!   the line is byte-identical no matter how many engine threads
//!   produced it (the determinism suite compares it verbatim);
//! - [`engine_perf_to_json`] holds everything scheduling-dependent
//!   (thread count, channel stalls, live-table high water, eviction-cause
//!   split, which shifts when `--max-flows` divides across a different
//!   shard count).

use crate::fmt::pct_f;
use crate::jsonl::JsonObject;
use crate::Collector;
use tamper_capture::{EngineStats, FlowRecord};
use tamper_core::{FlowView, PacketsView, Signature};
use tamper_worldgen::{Asn, GroundTruth, LabeledFlow, SessionMeta};

/// The neutral session metadata a capture flow is aggregated under: one
/// synthetic country/AS, protocol inferred from the destination port,
/// start time from the first logged packet, ground truth `Clean` (a real
/// capture has none).
pub fn capture_meta<F: FlowView + ?Sized>(flow: &F) -> SessionMeta {
    let (tuple, packets) = (flow.tuple(), flow.packets());
    SessionMeta {
        country: 0,
        asn: Asn(0),
        ipv6: tuple.client_ip.is_ipv6(),
        http: tuple.dst_port == 80,
        domain: None,
        start_unix: if packets.is_empty() {
            0
        } else {
            packets.row(0).ts_sec
        },
        truth: GroundTruth::Clean,
    }
}

/// An owned capture flow under its [`capture_meta`]. Kept for
/// `benchmark/src/bin/probes.rs` until ROADMAP item 1(g).
pub fn label_capture_flow(flow: FlowRecord) -> LabeledFlow {
    LabeledFlow {
        meta: capture_meta(&flow),
        flow,
    }
}

/// A collector sized for capture aggregation (one synthetic country, one
/// day of hourly buckets anchored at the capture's epoch).
pub fn capture_collector(cfg: tamper_core::ClassifierConfig, start_unix: u64) -> Collector {
    Collector::new(cfg, 1, 1, start_unix)
}

/// The deterministic summary line for a classify run: ingest counters
/// plus classification aggregates. Field values depend only on the input
/// capture and classifier configuration — never on thread count.
pub fn capture_summary_to_json(col: &crate::PartialAggregate, stats: &EngineStats) -> String {
    let mut sig_counts = [0u64; 19];
    for row in &col.country_class {
        for (i, c) in row.iter().take(19).enumerate() {
            sig_counts[i] += c;
        }
    }
    let mut sigs = JsonObject::new();
    for sig in Signature::ALL {
        sigs = sigs.uint(sig.label(), sig_counts[sig.index()]);
    }

    let stage_keys = ["post_syn", "post_ack", "post_psh", "post_data", "other"];
    let mut stages = JsonObject::new();
    for (key, (&count, &matched)) in stage_keys
        .iter()
        .zip(col.stage_counts.iter().zip(col.stage_matched.iter()))
    {
        stages = stages.raw(
            key,
            &JsonObject::new()
                .uint("possibly_tampered", count)
                .uint("matched", matched)
                .finish(),
        );
    }

    JsonObject::new()
        .uint("records", stats.records)
        .uint("flows", stats.ingest.flows)
        .uint("packets", stats.ingest.packets)
        .uint("truncated_packets", stats.ingest.truncated_packets)
        .uint("unparsable", stats.ingest.unparsable)
        .uint("not_inbound", stats.ingest.not_inbound)
        .bool("corrupt_tail", stats.corrupt_tail)
        .uint("total_flows", col.total)
        .uint("possibly_tampered", col.possibly_tampered)
        .str(
            "possibly_tampered_pct",
            &pct_f(col.possibly_tampered as f64 / col.total.max(1) as f64),
        )
        .raw("stages", &stages.finish())
        .raw("signatures", &sigs.finish())
        .finish()
}

/// The scheduling-dependent counters of an engine run, as their own JSON
/// line. Kept out of [`capture_summary_to_json`] so determinism checks
/// can compare that line byte-for-byte across thread counts.
pub fn engine_perf_to_json(stats: &EngineStats) -> String {
    JsonObject::new()
        .uint("threads", stats.threads as u64)
        .uint("channel_stalls", stats.channel_stalls)
        .uint("max_live_flows", stats.max_live_flows)
        .uint("evicted_timeout", stats.evicted_timeout)
        .uint("evicted_cap", stats.evicted_cap)
        .uint("drained_eof", stats.drained_eof)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv6Addr};
    use tamper_capture::{IngestStats, PacketRecord};
    use tamper_core::ClassifierConfig;
    use tamper_wire::TcpFlags;

    fn sample_flow(dst_port: u16, v6: bool) -> FlowRecord {
        let syn = PacketRecord {
            ip_id: Some(7),
            ..PacketRecord::new(1234, TcpFlags::SYN, 100)
        };
        let rst = PacketRecord {
            ip_id: Some(8),
            window: 0,
            has_tcp_options: false,
            ..PacketRecord::new(1234, TcpFlags::RST, 101)
        };
        let flow = FlowRecord::new(dst_port, vec![syn, rst], 1264);
        if !v6 {
            return flow;
        }
        FlowRecord {
            client_ip: IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
            ..flow
        }
    }

    #[test]
    fn labels_carry_flow_derived_fields() {
        let lf = label_capture_flow(sample_flow(80, false));
        assert_eq!(lf.meta.country, 0);
        assert_eq!(lf.meta.asn, Asn(0));
        assert!(lf.meta.http);
        assert!(!lf.meta.ipv6);
        assert_eq!(lf.meta.start_unix, 1234);
        assert!(matches!(lf.meta.truth, GroundTruth::Clean));

        let lf6 = label_capture_flow(sample_flow(443, true));
        assert!(lf6.meta.ipv6);
        assert!(!lf6.meta.http);
    }

    #[test]
    fn summary_counts_signatures_and_stays_flat() {
        let mut col = capture_collector(ClassifierConfig::default(), 0);
        col.observe(&label_capture_flow(sample_flow(443, false)));
        let stats = EngineStats {
            records: 2,
            ingest: IngestStats {
                flows: 1,
                packets: 2,
                truncated_packets: 0,
                unparsable: 0,
                not_inbound: 0,
            },
            evicted_timeout: 0,
            evicted_cap: 0,
            drained_eof: 1,
            corrupt_tail: false,
            channel_stalls: 0,
            max_live_flows: 1,
            threads: 4,
        };
        let line = capture_summary_to_json(&col, &stats);
        assert!(line.contains("\"total_flows\":1"));
        assert!(line.contains("\"possibly_tampered\":1"));
        assert!(line.contains(&format!("\"{}\":1", Signature::SynRst.label())));
        // Scheduling-dependent values stay out of the deterministic line.
        assert!(!line.contains("threads"));
        assert!(!line.contains("channel_stalls"));
        assert!(!line.contains('\n'));

        let perf = engine_perf_to_json(&stats);
        assert!(perf.contains("\"threads\":4"));
        assert!(perf.contains("\"drained_eof\":1"));
    }
}
