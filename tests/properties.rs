//! Property-based tests over the core data structures and invariants:
//! wire-format round-trips on arbitrary packets, order-reconstruction
//! invariance (the paper's claim that 1-second out-of-order logs are
//! recoverable), and classifier robustness.

use bytes::Bytes;
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use tamper_capture::{FlowRecord, PacketRecord};
use tamper_core::{classify, reconstruct_order, BatchClassifier, ClassifierConfig};
use tamper_wire::{Packet, PacketBuilder, Seq, TcpFlags, TcpHeader, TcpOption, TcpOptions};

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    // Any combination of the six classic flags.
    (0u8..64).prop_map(TcpFlags::from_bits)
}

fn arb_v4() -> impl Strategy<Value = IpAddr> {
    any::<u32>().prop_map(|v| IpAddr::V4(Ipv4Addr::from(v)))
}

fn arb_v6() -> impl Strategy<Value = IpAddr> {
    any::<u128>().prop_map(|v| IpAddr::V6(Ipv6Addr::from(v)))
}

fn arb_options() -> impl Strategy<Value = TcpOptions> {
    prop_oneof![
        Just(TcpOptions::EMPTY),
        Just(TcpHeader::standard_syn_options()),
        (any::<u16>(), any::<u8>()).prop_map(|(mss, ws)| TcpOptions::from_iter([
            TcpOption::Mss(mss),
            TcpOption::WindowScale(ws & 14),
            TcpOption::SackPermitted,
        ])),
        (any::<u32>(), any::<u32>()).prop_map(|(tsval, tsecr)| TcpOptions::from_iter([
            TcpOption::Nop,
            TcpOption::Nop,
            TcpOption::Timestamps { tsval, tsecr },
        ])),
    ]
}

proptest! {
    /// Every packet we can build emits to a frame that parses back to an
    /// equal packet (module the computed total-length field).
    #[test]
    fn wire_round_trip_v4(
        src in arb_v4(),
        dst in arb_v4(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_flags(),
        ttl in 1u8..=255,
        ip_id in any::<u16>(),
        window in any::<u16>(),
        options in arb_options(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let pkt = PacketBuilder::new(src, dst, sport, dport)
            .seq(seq)
            .ack(ack)
            .flags(flags)
            .ttl(ttl)
            .ip_id(ip_id)
            .window(window)
            .options(options)
            .payload(Bytes::from(payload))
            .build();
        let frame = pkt.emit();
        let parsed = Packet::parse(&frame).expect("emitted frame must parse");
        prop_assert_eq!(parsed.tcp.seq, pkt.tcp.seq);
        prop_assert_eq!(parsed.tcp.ack, pkt.tcp.ack);
        prop_assert_eq!(parsed.tcp.flags, pkt.tcp.flags);
        prop_assert_eq!(parsed.tcp.src_port, pkt.tcp.src_port);
        prop_assert_eq!(parsed.ip.ttl(), ttl);
        prop_assert_eq!(parsed.ip.ip_id(), Some(ip_id));
        prop_assert_eq!(&parsed.payload[..], &pkt.payload[..]);
    }

    /// Same for IPv6 (no IP-ID there).
    #[test]
    fn wire_round_trip_v6(
        src in arb_v6(),
        dst in arb_v6(),
        flags in arb_flags(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let pkt = PacketBuilder::new(src, dst, 1234, 443)
            .flags(flags)
            .ttl(ttl)
            .payload(Bytes::from(payload))
            .build();
        let parsed = Packet::parse(&pkt.emit()).expect("parse");
        prop_assert_eq!(parsed.ip.ip_id(), None);
        prop_assert_eq!(parsed.ip.ttl(), ttl);
        prop_assert_eq!(parsed.tcp.flags, pkt.tcp.flags);
    }

    /// Corrupting any single byte of a frame never panics the parser, and
    /// is either rejected or yields a packet (checksums catch most flips).
    #[test]
    fn corrupted_frames_never_panic(
        flip_at in any::<u16>(),
        flip_bits in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let pkt = PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            40000,
            443,
        )
        .flags(TcpFlags::PSH_ACK)
        .payload(Bytes::from(payload))
        .build();
        let mut frame = pkt.emit().to_vec();
        let idx = usize::from(flip_at) % frame.len();
        frame[idx] ^= flip_bits;
        let _ = Packet::parse(&frame); // must not panic
    }
}

// ---------------------------------------------------------------------------
// Application-layer parsers: hostile bytes must produce typed errors,
// never panics. These are the payloads a middlebox deliberately mangles.
// ---------------------------------------------------------------------------

proptest! {
    /// The IPv6 header parser survives arbitrary bytes of any length.
    #[test]
    fn ipv6_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..120)) {
        let _ = tamper_wire::Ipv6Header::parse(&data); // must not panic
    }

    /// ... and mutated-but-realistic v6 frames parse or fail cleanly.
    #[test]
    fn ipv6_parse_survives_mutated_frames(
        flip_at in any::<u16>(),
        flip_bits in 1u8..=255,
        cut in any::<u16>(),
    ) {
        let pkt = PacketBuilder::new(
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)),
            40000,
            443,
        )
        .flags(TcpFlags::SYN)
        .build();
        let mut frame = pkt.emit().to_vec();
        let idx = usize::from(flip_at) % frame.len();
        frame[idx] ^= flip_bits;
        frame.truncate(usize::from(cut) % (frame.len() + 1));
        let _ = tamper_wire::Ipv6Header::parse(&frame); // must not panic
    }

    /// The SNI extractor survives arbitrary bytes.
    #[test]
    fn sni_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = tamper_wire::tls::is_client_hello(&data);
        let _ = tamper_wire::tls::parse_sni(&data); // must not panic
    }

    /// ... and corrupted real ClientHellos yield Ok or a typed error.
    #[test]
    fn sni_parse_survives_mutated_hellos(
        flip_at in any::<u16>(),
        flip_bits in 1u8..=255,
        cut in any::<u16>(),
    ) {
        let hello = tamper_wire::tls::build_client_hello("blocked.example.com", [7u8; 32]);
        let mut data = hello.to_vec();
        let idx = usize::from(flip_at) % data.len();
        data[idx] ^= flip_bits;
        data.truncate(usize::from(cut) % (data.len() + 1));
        let _ = tamper_wire::tls::parse_sni(&data); // must not panic
    }

    /// The HTTP request parser survives arbitrary bytes (including invalid
    /// UTF-8) and always returns a typed result.
    #[test]
    fn http_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = tamper_wire::http::is_http_request(&data);
        let _ = tamper_wire::http::parse_request(&data); // must not panic
    }

    /// ... and corrupted real requests parse or fail cleanly.
    #[test]
    fn http_parse_survives_mutated_requests(
        flip_at in any::<u16>(),
        flip_bits in 1u8..=255,
        cut in any::<u16>(),
    ) {
        let req = tamper_wire::http::build_get("example.com", "/watch?v=1", "curl/8.0");
        let mut data = req.to_vec();
        let idx = usize::from(flip_at) % data.len();
        data[idx] ^= flip_bits;
        data.truncate(usize::from(cut) % (data.len() + 1));
        let _ = tamper_wire::http::parse_request(&data); // must not panic
    }
}

// ---------------------------------------------------------------------------
// Order reconstruction and classifier invariance
// ---------------------------------------------------------------------------

fn rec(ts: u64, flags: TcpFlags, seq: u32, ack: u32, payload_len: u32) -> PacketRecord {
    PacketRecord {
        ts_sec: ts,
        flags,
        seq: Seq::from(seq),
        ack: Seq::from(ack),
        ip_id: Some(100),
        ttl: 52,
        window: 65535,
        payload_len,
        payload: Bytes::from(vec![b'z'; payload_len as usize]),
        has_tcp_options: true,
    }
}

/// A plausible inbound flow: handshake, k data packets, then a teardown
/// suffix chosen by the strategy.
fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (
        0usize..=2,          // data packets
        0usize..=3,          // teardown RSTs
        proptest::bool::ANY, // RST vs RST+ACK
        proptest::bool::ANY, // include FIN
        0u64..4,             // seconds spread
    )
        .prop_map(|(n_data, n_rst, pure, fin, spread)| {
            let mut packets = vec![rec(100, TcpFlags::SYN, 1000, 0, 0)];
            packets.push(rec(100, TcpFlags::ACK, 1001, 501, 0));
            let mut seq = 1001;
            for i in 0..n_data {
                packets.push(rec(
                    100 + (i as u64 % (spread + 1)),
                    TcpFlags::PSH_ACK,
                    seq,
                    501,
                    200,
                ));
                seq += 200;
            }
            if fin {
                packets.push(rec(100 + spread, TcpFlags::FIN_ACK, seq, 900, 0));
            }
            for i in 0..n_rst {
                let flags = if pure {
                    TcpFlags::RST
                } else {
                    TcpFlags::RST_ACK
                };
                packets.push(rec(100 + spread, flags, seq, 700 + i as u32, 0));
            }
            FlowRecord {
                client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)),
                server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
                src_port: 40000,
                dst_port: 443,
                packets,
                observation_end_sec: 140,
                truncated: false,
            }
        })
}

proptest! {
    /// The classification is invariant under any permutation of the log
    /// order within equal-timestamp buckets — the paper's §3.2 claim that
    /// out-of-order 1-second logs don't hurt.
    #[test]
    fn classification_invariant_under_bucket_shuffle(
        flow in arb_flow(),
        seed in any::<u64>(),
    ) {
        let cfg = ClassifierConfig::default();
        let baseline = classify(&flow, &cfg);

        // Shuffle within equal-ts groups, deterministically from `seed`.
        let mut shuffled = flow.clone();
        let mut i = 0;
        let mut state = seed | 1;
        while i < shuffled.packets.len() {
            let ts = shuffled.packets[i].ts_sec;
            let mut j = i + 1;
            while j < shuffled.packets.len() && shuffled.packets[j].ts_sec == ts {
                j += 1;
            }
            // Fisher–Yates with an xorshift stream.
            for k in ((i + 1)..j).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let pick = i + (state as usize) % (k - i + 1);
                shuffled.packets.swap(k, pick);
            }
            i = j;
        }
        let shuffled_result = classify(&shuffled, &cfg);
        prop_assert_eq!(
            baseline.classification,
            shuffled_result.classification,
            "shuffle changed the verdict"
        );
        prop_assert_eq!(baseline.stage, shuffled_result.stage);
    }

    /// Reconstruction returns a permutation, and timestamps end up
    /// non-decreasing.
    #[test]
    fn reconstruction_is_a_monotone_permutation(flow in arb_flow()) {
        let mut order = Vec::new();
        reconstruct_order(flow.packets.as_slice(), &mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..flow.packets.len()).collect::<Vec<_>>());
        let mut last_ts = 0;
        for &i in &order {
            prop_assert!(flow.packets[i].ts_sec >= last_ts);
            last_ts = flow.packets[i].ts_sec;
        }
    }

    /// The classifier never panics on arbitrary packet-record soup, and a
    /// flow with a FIN and no RST is never possibly-tampered.
    #[test]
    fn classifier_total_and_fin_safe(
        flags in proptest::collection::vec(arb_flags(), 1..10),
    ) {
        let packets: Vec<PacketRecord> = flags
            .iter()
            .enumerate()
            .map(|(i, f)| rec(100 + i as u64, *f, i as u32 * 7, i as u32, 0))
            .collect();
        let flow = FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4)),
            server_ip: IpAddr::V4(Ipv4Addr::new(5, 6, 7, 8)),
            src_port: 1,
            dst_port: 443,
            packets,
            observation_end_sec: 500,
            truncated: false,
        };
        let a = classify(&flow, &ClassifierConfig::default());
        let has_rst = flow.packets.iter().any(|p| p.flags.has_rst());
        // A FIN combined with SYN or RST is a nonsense packet (scan
        // artifacts); the graceful-teardown guarantee only covers real
        // FINs.
        let has_fin = flow
            .packets
            .iter()
            .any(|p| p.flags.has_fin() && !p.flags.has_rst() && !p.flags.has_syn());
        if has_fin && !has_rst {
            prop_assert!(!a.is_possibly_tampered());
        }
        if !has_rst {
            // Without a RST, any signature must be a silence signature.
            if let Some(sig) = a.signature() {
                prop_assert!(sig.is_silence());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sequence-number wraparound: ISNs drawn from the band just below
// `u32::MAX`, with post-wrap continuations, so every derived quantity
// (dedup keys, order reconstruction, signature tables) crosses zero
// mid-flow. All arithmetic must be modular; none of the invariants above
// may weaken near the wrap.
// ---------------------------------------------------------------------------

/// An ISN in the wraparound band: at most 64 below `u32::MAX`, so a
/// handshake plus one data segment is guaranteed to cross zero.
fn arb_wrap_isn() -> impl Strategy<Value = u32> {
    (u32::MAX - 64)..=u32::MAX
}

/// Like [`arb_flow`], but seq/ack start in the wrap band and every
/// continuation uses wrapping arithmetic. Optionally ends with RSTs whose
/// ack also sits in the band.
fn arb_wrap_flow() -> impl Strategy<Value = FlowRecord> {
    (
        arb_wrap_isn(),
        arb_wrap_isn(),      // server ISN, for ack fields
        1usize..=3,          // data packets (≥1: force a post-wrap packet)
        0usize..=3,          // teardown RSTs
        proptest::bool::ANY, // RST vs RST+ACK
        proptest::bool::ANY, // include FIN
        0u64..4,             // seconds spread
    )
        .prop_map(|(isn, server_isn, n_data, n_rst, pure, fin, spread)| {
            let mut packets = vec![rec(100, TcpFlags::SYN, isn, 0, 0)];
            let mut seq = isn.wrapping_add(1);
            let ack = server_isn.wrapping_add(1);
            packets.push(rec(100, TcpFlags::ACK, seq, ack, 0));
            for i in 0..n_data {
                // 200-byte segments march straight across the wrap.
                packets.push(rec(
                    100 + (i as u64 % (spread + 1)),
                    TcpFlags::PSH_ACK,
                    seq,
                    ack,
                    200,
                ));
                seq = seq.wrapping_add(200);
            }
            if fin {
                packets.push(rec(100 + spread, TcpFlags::FIN_ACK, seq, ack, 0));
            }
            for i in 0..n_rst {
                let flags = if pure {
                    TcpFlags::RST
                } else {
                    TcpFlags::RST_ACK
                };
                packets.push(rec(100 + spread, flags, seq, ack.wrapping_add(i as u32), 0));
            }
            FlowRecord {
                client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 2)),
                server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
                src_port: 40001,
                dst_port: 443,
                packets,
                observation_end_sec: 140,
                truncated: false,
            }
        })
}

proptest! {
    /// Bucket-shuffle invariance holds across the wrap: log-order
    /// permutations within 1-second buckets never change the verdict even
    /// when seq space crosses zero. (Same xorshift shuffle as the
    /// non-wrap case above.)
    #[test]
    fn wraparound_classification_invariant_under_bucket_shuffle(
        flow in arb_wrap_flow(),
        seed in any::<u64>(),
    ) {
        let cfg = ClassifierConfig::default();
        let baseline = classify(&flow, &cfg);
        let mut shuffled = flow.clone();
        let mut i = 0;
        let mut state = seed | 1;
        while i < shuffled.packets.len() {
            let ts = shuffled.packets[i].ts_sec;
            let mut j = i + 1;
            while j < shuffled.packets.len() && shuffled.packets[j].ts_sec == ts {
                j += 1;
            }
            for k in ((i + 1)..j).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let pick = i + (state as usize) % (k - i + 1);
                shuffled.packets.swap(k, pick);
            }
            i = j;
        }
        let shuffled_result = classify(&shuffled, &cfg);
        prop_assert_eq!(
            baseline.classification,
            shuffled_result.classification,
            "wraparound shuffle changed the verdict"
        );
        prop_assert_eq!(baseline.stage, shuffled_result.stage);
    }

    /// Order reconstruction stays a monotone permutation when the seq
    /// space wraps — it keys on timestamps, never on sequence numbers.
    #[test]
    fn wraparound_reconstruction_is_a_monotone_permutation(flow in arb_wrap_flow()) {
        let mut order = Vec::new();
        reconstruct_order(flow.packets.as_slice(), &mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..flow.packets.len()).collect::<Vec<_>>());
        let mut last_ts = 0;
        for &i in &order {
            prop_assert!(flow.packets[i].ts_sec >= last_ts);
            last_ts = flow.packets[i].ts_sec;
        }
    }

    /// One classifier reused across a wrap-band flow and its retransmit twin
    /// equals a fresh `classify()` on both, under both configs, and
    /// retransmit dedup still works modulo 2^32: duplicating a post-wrap
    /// data packet never changes the analysis.
    #[test]
    fn wraparound_reused_machine_matches_fresh_classify_and_dedups(flow in arb_wrap_flow()) {
        for cfg in [
            ClassifierConfig::default(),
            ClassifierConfig { split_rst_counts: false, ..ClassifierConfig::default() },
        ] {
            let want = classify(&flow, &cfg);
            let mut clf = BatchClassifier::new(cfg);
            prop_assert_eq!(clf.classify_record(&flow), want.clone());

            // Exact retransmit of the last data packet: same seq, same
            // length — must be deduplicated, even when the duplicated seq
            // is a small post-wrap value.
            if let Some(pos) = flow.packets.iter().rposition(|p| p.payload_len > 0) {
                let mut dup = flow.clone();
                let copy = dup.packets[pos].clone();
                dup.packets.insert(pos + 1, copy);
                let want_dup = classify(&dup, &cfg);
                prop_assert_eq!(want_dup.classification, want.classification);
                prop_assert_eq!(want_dup.stage, want.stage);
                prop_assert_eq!(clf.classify_record(&dup), want_dup);
            }
        }
    }

    /// Arbitrary flag soup positioned right at the wrap never panics and
    /// keeps the FIN/silence guarantees of `classifier_total_and_fin_safe`.
    #[test]
    fn wraparound_classifier_total(
        isn in arb_wrap_isn(),
        flags in proptest::collection::vec(arb_flags(), 1..10),
    ) {
        let packets: Vec<PacketRecord> = flags
            .iter()
            .enumerate()
            .map(|(i, f)| {
                rec(
                    100 + i as u64,
                    *f,
                    isn.wrapping_add(i as u32 * 7),
                    isn.wrapping_add(i as u32),
                    0,
                )
            })
            .collect();
        let flow = FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4)),
            server_ip: IpAddr::V4(Ipv4Addr::new(5, 6, 7, 8)),
            src_port: 1,
            dst_port: 443,
            packets,
            observation_end_sec: 500,
            truncated: false,
        };
        let a = classify(&flow, &ClassifierConfig::default());
        let has_rst = flow.packets.iter().any(|p| p.flags.has_rst());
        if !has_rst {
            if let Some(sig) = a.signature() {
                prop_assert!(sig.is_silence());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One type, two storage layouts: the BatchClassifier walking the
// arena-backed FlowRows of a batch must agree byte-for-byte with itself
// walking the owned records of the same flows — including wrap-band ISNs, empty
// and one-packet flows, IPv6 (no IP-ID) packets, and truncated flows.
// ---------------------------------------------------------------------------

use tamper_capture::{EvictionCause, FlowBatch};

/// Degenerate flows the batch layout must get right: zero or one packet,
/// arbitrary flags, wrap-band seq, IPv6-style missing IP-ID.
fn arb_tiny_flow() -> impl Strategy<Value = FlowRecord> {
    (
        proptest::bool::ANY, // zero packets vs one
        arb_flags(),
        arb_wrap_isn(),
        proptest::bool::ANY, // carry an IP-ID?
        0u64..200,           // observation end
    )
        .prop_map(|(empty, flags, isn, with_id, obs_end)| {
            let packets = if empty {
                Vec::new()
            } else {
                let mut p = rec(100, flags, isn, 0, 0);
                p.ip_id = with_id.then_some(4242);
                vec![p]
            };
            FlowRecord {
                client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 3)),
                server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
                src_port: 40002,
                dst_port: 443,
                packets,
                observation_end_sec: obs_end,
                truncated: false,
            }
        })
}

fn arb_any_flow() -> impl Strategy<Value = FlowRecord> {
    prop_oneof![arb_flow(), arb_wrap_flow(), arb_tiny_flow()]
}

/// Pack owned records into one arena-backed batch, one span per flow.
fn batch_from_records(flows: &[FlowRecord]) -> FlowBatch {
    let mut batch = FlowBatch::new();
    for (i, f) in flows.iter().enumerate() {
        batch.push_record(f, i as u64, EvictionCause::EndOfCapture);
    }
    batch
}

proptest! {
    /// Random records packed into a batch arena classify to exactly the
    /// `FlowAnalysis` their materialized owned records do — for both classifier
    /// configs, with truncation flags flipped per flow. The analysis carries
    /// the IP-ID/TTL evidence, so this also pins that both layouts compute
    /// the same `FlowAnalysis::evidence`; per-packet IP-IDs (some absent,
    /// as on IPv6) and TTLs are redrawn from `header_seed` so it has
    /// something to differ on.
    #[test]
    fn batch_classifier_matches_across_storage_layouts(
        flows in proptest::collection::vec(arb_any_flow(), 0..12),
        truncated_mask in any::<u16>(),
        header_seed in any::<u64>(),
    ) {
        let mut flows = flows;
        for (i, f) in flows.iter_mut().enumerate() {
            f.truncated = (truncated_mask >> (i % 16)) & 1 == 1;
        }
        let mut h = header_seed;
        for p in flows.iter_mut().flat_map(|f| f.packets.iter_mut()) {
            h = h
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            p.ip_id = (h >> 61 != 0).then_some((h >> 32) as u16);
            p.ttl = (h >> 48) as u8;
        }
        let batch = batch_from_records(&flows);
        prop_assert_eq!(batch.flow_count(), flows.len());
        for cfg in [
            ClassifierConfig::default(),
            ClassifierConfig { split_rst_counts: false, ..ClassifierConfig::default() },
        ] {
            let mut clf = BatchClassifier::new(cfg);
            let analyses = clf.classify_batch(&batch).to_vec();
            prop_assert_eq!(analyses.len(), flows.len());
            let mut rows = BatchClassifier::new(cfg);
            for (i, want) in analyses.iter().enumerate() {
                let got = rows.classify_record(&batch.materialize(i));
                prop_assert_eq!(&got, want, "flow {} diverged", i);
            }
        }
    }

    /// The batch round-trips: materializing span `i` recovers the record
    /// that was packed, so the arena layout loses nothing.
    #[test]
    fn batch_materialize_round_trips(flows in proptest::collection::vec(arb_any_flow(), 0..8)) {
        let batch = batch_from_records(&flows);
        for (i, f) in flows.iter().enumerate() {
            prop_assert_eq!(&batch.materialize(i), f, "flow {} did not round-trip", i);
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed capture input: the streaming engine must degrade to counted
// drops, never panic, on truncation, garbage frames, or bit corruption.
// ---------------------------------------------------------------------------

use tamper_capture::{EngineConfig, EngineStats, PcapError, PcapMemSource, PcapWriter};
use tamperscope::cli::{self, Render};

fn valid_frame(client_octet: u8, sport: u16, flags: TcpFlags, seq: u32) -> Vec<u8> {
    PacketBuilder::new(
        IpAddr::V4(Ipv4Addr::new(203, 0, 113, client_octet)),
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        sport,
        443,
    )
    .flags(flags)
    .seq(seq)
    .payload(Bytes::new())
    .build()
    .emit()
    .to_vec()
}

/// A small well-formed capture: `n` single-SYN flows.
fn small_capture(n: u8) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for i in 0..n {
        let fr = valid_frame(1 + i % 200, 20_000 + u16::from(i), TcpFlags::SYN, 100);
        w.write_frame(100 + u32::from(i), 0, &fr).unwrap();
    }
    w.into_inner()
}

/// `classify`'s pipeline at two shards, its verdicts discarded: the
/// flows it aggregated, and the ledger.
fn run_collecting(bytes: &[u8]) -> Result<(u64, EngineStats), PcapError> {
    let cfg = EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    };
    let mut src = PcapMemSource::new(Bytes::copy_from_slice(bytes))?;
    let run = cli::classify(&mut src, &cfg, Render::Lines, false, std::io::sink(), None);
    Ok((run.collector.total, run.stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cutting a capture at any byte offset never panics: either the
    /// header itself is unreadable (an error, pre-thread), or the engine
    /// runs and flags the ragged tail instead of aborting.
    #[test]
    fn truncated_pcap_degrades_to_counted_drop(
        n_flows in 1u8..12,
        cut in any::<u16>(),
    ) {
        let full = small_capture(n_flows);
        let cut = usize::from(cut) % full.len();
        let clipped = &full[..cut];
        match run_collecting(clipped) {
            Err(_) => prop_assert!(cut < 24, "header read failed with a complete header"),
            Ok((flows, stats)) => {
                // A cut strictly inside a record must be flagged; a cut at
                // a record boundary is a clean EOF. All records in this
                // capture are the same size, so derive it.
                let rec_size = (full.len() - 24) / usize::from(n_flows);
                let at_boundary = (cut - 24).is_multiple_of(rec_size);
                prop_assert_eq!(stats.corrupt_tail, !at_boundary);
                prop_assert!(stats.records <= u64::from(n_flows));
                prop_assert_eq!(flows, stats.records);
            }
        }
    }

    /// Garbage frames (wrong IP version nibble) interleaved with valid
    /// traffic are counted unparsable, one for one, and never panic —
    /// whether they are dropped at the router peek or at shard parse.
    #[test]
    fn garbage_frames_are_counted_one_for_one(
        n_valid in 1u8..10,
        garbage in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..80),
            1..10,
        ),
    ) {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let mut t = 100u32;
        for i in 0..n_valid {
            let fr = valid_frame(1 + i, 21_000 + u16::from(i), TcpFlags::SYN, 100);
            w.write_frame(t, 0, &fr).unwrap();
            t += 1;
        }
        for g in &garbage {
            let mut fr = g.clone();
            // Force an invalid IP version nibble so the frame provably
            // fails to parse regardless of the random tail.
            if fr.is_empty() {
                fr.push(0x00);
            } else {
                fr[0] = 0x0f;
            }
            w.write_frame(t, 0, &fr).unwrap();
            t += 1;
        }
        let bytes = w.into_inner();
        let (flows, stats) = run_collecting(&bytes).expect("valid container");
        prop_assert_eq!(stats.ingest.unparsable, garbage.len() as u64);
        prop_assert_eq!(flows, u64::from(n_valid));
        prop_assert!(!stats.corrupt_tail);
    }

    /// Flipping any byte after the pcap header never panics the engine:
    /// the record either still parses somewhere, drops as unparsable, or
    /// ends the stream as a counted corrupt tail.
    #[test]
    fn mid_stream_corruption_never_panics(
        n_flows in 2u8..10,
        flip_at in any::<u16>(),
        flip_bits in 1u8..=255,
    ) {
        let mut bytes = small_capture(n_flows);
        let idx = 24 + usize::from(flip_at) % (bytes.len() - 24);
        bytes[idx] ^= flip_bits;
        let (flows, stats) = run_collecting(&bytes).expect("header is intact");
        prop_assert!(stats.records <= u64::from(n_flows));
        prop_assert!(flows <= stats.records);
        // Every record is accounted for: it became a flow packet, was
        // dropped unparsable, or the stream ended early (corrupt tail).
        let accounted = stats.ingest.packets + stats.ingest.unparsable + stats.ingest.not_inbound;
        prop_assert_eq!(accounted, stats.records);
    }
}

// ---------------------------------------------------------------------------
// Mergeable partial aggregates: folding any partition of the flow multiset
// into per-PoP partials and merging them — in any order, through any
// grouping, with encode/decode round-trips in between — must produce an
// aggregate byte-identical to the unsplit single-machine fold.
// ---------------------------------------------------------------------------

use std::sync::OnceLock;
use tamper_analysis::{decode_agg, encode_agg, fold_agg, Collector, PartialAggregate};
use tamper_worldgen::{LabeledFlow, WorldConfig, WorldSim};

/// A shared flow pool: generated once, partitioned differently per case.
/// Domain catalog size of the [`flow_pool`] world.
const POOL_CATALOG: u32 = 300;

fn flow_pool() -> &'static (Vec<LabeledFlow>, usize, u64) {
    static POOL: OnceLock<(Vec<LabeledFlow>, usize, u64)> = OnceLock::new();
    POOL.get_or_init(|| {
        let sim = WorldSim::new(WorldConfig {
            sessions: 800,
            days: 1,
            catalog_size: POOL_CATALOG,
            ..Default::default()
        });
        let mut flows = Vec::new();
        sim.run(|lf| flows.push(lf));
        let n_countries = sim.world().len();
        let start_unix = sim.config().start_unix;
        (flows, n_countries, start_unix)
    })
}

fn pool_collector() -> Collector {
    let (_, n_countries, start_unix) = flow_pool();
    Collector::new(ClassifierConfig::default(), *n_countries, 1, *start_unix)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any assignment of flows to up to 6 partials, merged in an arbitrary
    /// permutation with an encode/decode round-trip on every partial, or
    /// folded file by file into one accumulator, yields the exact bytes of
    /// the unsplit fold — merge is associative, commutative, and
    /// insensitive to how the multiset was partitioned.
    #[test]
    fn partial_merge_is_partition_and_order_insensitive(
        assign_seed in any::<u64>(),
        parts in 1usize..=6,
        order_seed in any::<u64>(),
    ) {
        let (flows, _, _) = flow_pool();

        let mut unsplit = pool_collector();
        for lf in flows {
            unsplit.observe(lf);
        }
        let want = encode_agg(unsplit.partial());

        // Deterministic pseudo-random partition of the pool.
        let mut partials: Vec<Collector> = (0..parts).map(|_| pool_collector()).collect();
        let mut state = assign_seed | 1;
        for lf in flows {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            partials[(state as usize) % parts].observe(lf);
        }

        // Encode each partial (the .agg wire trip) and shuffle the files.
        let mut files: Vec<Vec<u8>> = partials.iter().map(|c| encode_agg(c.partial())).collect();
        let mut state = order_seed | 1;
        for i in (1..files.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            files.swap(i, (state as usize) % (i + 1));
        }

        // Decode each file, then merge in the shuffled order.
        let mut decoded: Vec<_> = files
            .iter()
            .map(|f| decode_agg(f).expect("round trip"))
            .collect();
        let mut acc = decoded.remove(0);
        for part in decoded {
            acc.merge(part);
        }
        prop_assert_eq!(
            encode_agg(&acc),
            want.clone(),
            "merged partition bytes differ from the unsplit fold"
        );

        // Fold each file straight into an accumulator shaped from the
        // world, as `merge` does.
        let (_, n_countries, start_unix) = flow_pool();
        let mut folded = PartialAggregate::with_salt(
            ClassifierConfig::default(),
            *n_countries,
            1,
            *start_unix,
            0,
        );
        for f in &files {
            fold_agg(&mut folded, f, POOL_CATALOG).expect("a partial of the same world folds");
        }
        prop_assert_eq!(
            encode_agg(&folded),
            want,
            "folded partition bytes differ from the unsplit fold"
        );
    }

    /// Pairwise (tree) grouping agrees with left-fold grouping: merging
    /// ((a+b)+(c+d)) equals (((a+b)+c)+d).
    #[test]
    fn partial_merge_grouping_is_associative(assign_seed in any::<u64>()) {
        let (flows, _, _) = flow_pool();
        let mut partials: Vec<Collector> = (0..4).map(|_| pool_collector()).collect();
        let mut state = assign_seed | 1;
        for lf in flows {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            partials[(state as usize) % 4].observe(lf);
        }
        let ps: Vec<_> = partials.iter().map(|c| c.partial().clone()).collect();

        let mut left = ps[0].clone();
        for p in &ps[1..] {
            left.merge(p.clone());
        }

        let mut ab = ps[0].clone();
        ab.merge(ps[1].clone());
        let mut cd = ps[2].clone();
        cd.merge(ps[3].clone());
        ab.merge(cd);

        prop_assert_eq!(encode_agg(&ab), encode_agg(&left));
    }

    /// The .agg decoder is total: arbitrary bytes produce `Ok` or a named
    /// error, never a panic — including bytes that start with the real
    /// magic and version.
    #[test]
    fn agg_decoder_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        with_header in proptest::bool::ANY,
    ) {
        let mut data = data;
        if with_header && data.len() >= 6 {
            data[0..4].copy_from_slice(b"TAGG");
            data[4] = 0;
            data[5] = 1;
        }
        let _ = decode_agg(&data); // must not panic
    }

    /// Every truncation of a valid encoding is a clean named error, and
    /// every single-byte corruption decodes or fails without panicking.
    #[test]
    fn agg_decoder_survives_truncation_and_corruption(
        cut in any::<u16>(),
        flip_at in any::<u32>(),
        flip_bits in 1u8..=255,
    ) {
        static VALID: OnceLock<Vec<u8>> = OnceLock::new();
        let valid = VALID.get_or_init(|| {
            let (flows, _, _) = flow_pool();
            let mut col = pool_collector();
            for lf in flows.iter().take(200) {
                col.observe(lf);
            }
            encode_agg(col.partial())
        });

        let cut = usize::from(cut) % valid.len();
        prop_assert!(
            decode_agg(&valid[..cut]).is_err(),
            "truncated prefix decoded successfully"
        );

        let mut corrupt = valid.clone();
        let idx = (flip_at as usize) % corrupt.len();
        corrupt[idx] ^= flip_bits;
        let _ = decode_agg(&corrupt); // must not panic
    }
}
