//! Injection evidence (paper §4.2–4.3): header-field discontinuities that
//! betray a forged packet, and scanner fingerprints that explain benign
//! matches.
//!
//! Clients produce IP-ID and TTL values that move slowly (deltas of 0 or 1
//! between consecutive packets of a flow); a middlebox forging a RST uses
//! its own stack, so the forged packet's IP-ID and TTL usually jump.

use tamper_capture::FlowRecord;

/// The ZMap scanner's famous fixed IP-ID.
pub(crate) const ZMAP_IP_ID: u16 = 54321;
/// TTLs at or above this are "high" per the scanner heuristics of
/// Hiesgen et al. (paper §4.2).
pub(crate) const HIGH_TTL: u8 = 200;

/// The §4.2–4.3 header-continuity statistics of one flow, over its
/// packets in reconstructed order. The classifier computes them in the
/// same pass that folds the flow through the stage automaton and returns
/// them as [`FlowAnalysis::evidence`](crate::FlowAnalysis::evidence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvidence {
    /// Maximum absolute IP-ID change between each RST-flagged packet and
    /// the nearest preceding non-RST packet (Figure 2). `None` if the
    /// flow has no RSTs, no IPv4 IP-IDs, or no preceding packet.
    pub max_rst_ipid: Option<u32>,
    /// Minimum absolute IP-ID change between consecutive IPv4 packets —
    /// the paper's sanity check that ≥93% of connections have a minimum
    /// delta of 0 or 1. IPv6 packets in between are skipped.
    pub min_consecutive_ipid: Option<u32>,
    /// Maximum absolute IP-ID change between consecutive IPv4 packets —
    /// the baseline ("Not Tampering") statistic.
    pub max_consecutive_ipid: Option<u32>,
    /// Signed TTL change of largest magnitude between each RST packet and
    /// the nearest preceding non-RST packet (Figure 3 plots −255..255).
    pub max_rst_ttl: Option<i16>,
    /// Signed TTL change of largest magnitude between consecutive
    /// packets — the baseline statistic.
    pub max_consecutive_ttl: Option<i16>,
}

impl FlowEvidence {
    /// Nothing to measure: the evidence of a flow with no packets.
    pub(crate) const NONE: FlowEvidence = FlowEvidence {
        max_rst_ipid: None,
        min_consecutive_ipid: None,
        max_consecutive_ipid: None,
        max_rst_ttl: None,
        max_consecutive_ttl: None,
    };
}

/// Absolute difference between two IP-IDs (no wrap folding: the paper
/// plots plain absolute change, with the x-axis running to 65535).
fn ipid_delta(a: u16, b: u16) -> u32 {
    (i32::from(a) - i32::from(b)).unsigned_abs()
}

/// The signed change of larger magnitude; the earlier one on a tie.
fn larger_ttl_change(max: Option<i16>, d: i16) -> Option<i16> {
    match max {
        Some(m) if m.abs() >= d.abs() => Some(m),
        _ => Some(d),
    }
}

/// [`FlowEvidence`] under construction: fed one packet at a time, in
/// reconstructed order.
#[derive(Debug)]
pub(crate) struct EvidenceFold {
    evidence: FlowEvidence,
    /// IP-ID of the latest IPv4 packet, and of the latest non-RST one.
    prev_ipid: Option<u16>,
    non_rst_ipid: Option<u16>,
    /// TTL of the latest packet, and of the latest non-RST one.
    prev_ttl: Option<u8>,
    non_rst_ttl: Option<u8>,
}

impl EvidenceFold {
    /// Nothing folded yet.
    pub(crate) const EMPTY: EvidenceFold = EvidenceFold {
        evidence: FlowEvidence::NONE,
        prev_ipid: None,
        non_rst_ipid: None,
        prev_ttl: None,
        non_rst_ttl: None,
    };

    /// Fold in the next packet of the reconstructed order.
    pub(crate) fn push(&mut self, rst: bool, ip_id: Option<u16>, ttl: u8) {
        let ev = &mut self.evidence;
        if let Some(id) = ip_id {
            if let Some(p) = self.prev_ipid {
                let d = ipid_delta(id, p);
                ev.min_consecutive_ipid = Some(ev.min_consecutive_ipid.map_or(d, |m| m.min(d)));
                ev.max_consecutive_ipid = Some(ev.max_consecutive_ipid.map_or(d, |m| m.max(d)));
            }
            self.prev_ipid = Some(id);
        }
        if let Some(prev) = self.prev_ttl {
            let d = i16::from(ttl) - i16::from(prev);
            ev.max_consecutive_ttl = larger_ttl_change(ev.max_consecutive_ttl, d);
        }
        self.prev_ttl = Some(ttl);
        if rst {
            if let (Some(prev), Some(cur)) = (self.non_rst_ipid, ip_id) {
                let d = ipid_delta(cur, prev);
                ev.max_rst_ipid = Some(ev.max_rst_ipid.map_or(d, |m| m.max(d)));
            }
            if let Some(prev) = self.non_rst_ttl {
                let d = i16::from(ttl) - i16::from(prev);
                ev.max_rst_ttl = larger_ttl_change(ev.max_rst_ttl, d);
            }
        } else {
            if ip_id.is_some() {
                self.non_rst_ipid = ip_id;
            }
            self.non_rst_ttl = Some(ttl);
        }
    }

    /// The statistics over every packet pushed.
    pub(crate) fn finish(self) -> FlowEvidence {
        self.evidence
    }
}

/// The three scanner properties of Hiesgen et al. evaluated in §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannerMarks {
    /// Every packet lacked TCP options (vacuously false on an empty flow).
    pub no_tcp_options: bool,
    /// Some packet carried a TTL ≥ 200.
    pub high_ttl: bool,
    /// At least two IPv4 packets shared one fixed, nonzero IP-ID.
    pub fixed_nonzero_ipid: bool,
}

/// Evaluate the scanner heuristics on a flow.
///
/// Both universally quantified marks need enough packets to mean
/// anything: `all()` over zero packets is vacuously true, and a single
/// IP-ID is trivially "fixed" — neither says scanner, so both marks
/// require the evidence to actually exist (≥1 packet for the options
/// mark, ≥2 IP-IDs for the fixed-IP-ID mark).
pub fn scanner_marks(flow: &FlowRecord) -> ScannerMarks {
    let packets = &flow.packets;
    let no_tcp_options = !packets.is_empty() && packets.iter().all(|p| !p.has_tcp_options);
    let high_ttl = packets.iter().any(|p| p.ttl >= HIGH_TTL);
    let mut first_id: Option<u16> = None;
    let mut id_count = 0usize;
    let mut all_equal = true;
    for id in packets.iter().filter_map(|p| p.ip_id) {
        id_count += 1;
        match first_id {
            None => first_id = Some(id),
            Some(f) => all_equal &= id == f,
        }
    }
    let fixed_nonzero_ipid = id_count >= 2 && first_id.is_some_and(|f| f != 0) && all_equal;
    ScannerMarks {
        no_tcp_options,
        high_ttl,
        fixed_nonzero_ipid,
    }
}

/// True if the flow's initial SYN carries the ZMap fingerprint: IP-ID
/// 54321 with an option-less TCP header (§4.2).
pub fn is_zmap_fingerprint(flow: &FlowRecord) -> bool {
    flow.packets
        .iter()
        .find(|p| p.flags.has_syn())
        .is_some_and(|p| p.ip_id == Some(ZMAP_IP_ID) && !p.has_tcp_options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassifierConfig};
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_capture::PacketRecord;
    use tamper_wire::{Seq, TcpFlags};

    fn rec(
        ts: u64,
        flags: TcpFlags,
        seq: u32,
        ip_id: Option<u16>,
        ttl: u8,
        opts: bool,
    ) -> PacketRecord {
        PacketRecord {
            ts_sec: ts,
            flags,
            seq: Seq::from(seq),
            ack: Seq::ZERO,
            ip_id,
            ttl,
            window: 65535,
            payload_len: 0,
            payload: Bytes::new(),
            has_tcp_options: opts,
        }
    }

    fn flow(packets: Vec<PacketRecord>) -> FlowRecord {
        FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            server_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            src_port: 1,
            dst_port: 443,
            packets,
            observation_end_sec: 60,
            truncated: false,
        }
    }

    /// The evidence the classifier computes for `f`.
    fn evidence(f: &FlowRecord) -> FlowEvidence {
        classify(f, &ClassifierConfig::default()).evidence
    }

    #[test]
    fn injected_rst_shows_large_ipid_jump() {
        let f = flow(vec![
            rec(0, TcpFlags::SYN, 100, Some(1000), 52, true),
            rec(0, TcpFlags::ACK, 101, Some(1001), 52, true),
            rec(0, TcpFlags::RST, 101, Some(48000), 101, false),
        ]);
        let e = evidence(&f);
        assert_eq!(e.max_rst_ipid, Some(46999));
        assert_eq!(e.max_rst_ttl, Some(49));
    }

    #[test]
    fn client_rst_shows_small_deltas() {
        let f = flow(vec![
            rec(0, TcpFlags::SYN, 100, Some(7), 52, true),
            rec(0, TcpFlags::ACK, 101, Some(8), 52, true),
            rec(0, TcpFlags::RST, 101, Some(9), 52, true),
        ]);
        let e = evidence(&f);
        assert_eq!(e.max_rst_ipid, Some(1));
        assert_eq!(e.max_rst_ttl, Some(0));
    }

    #[test]
    fn baseline_deltas() {
        let f = flow(vec![
            rec(0, TcpFlags::SYN, 100, Some(10), 52, true),
            rec(0, TcpFlags::ACK, 101, Some(11), 52, true),
            rec(1, TcpFlags::ACK, 101, Some(13), 52, true),
        ]);
        let e = evidence(&f);
        assert_eq!(e.max_consecutive_ipid, Some(2));
        assert_eq!(e.min_consecutive_ipid, Some(1));
        assert_eq!(e.max_consecutive_ttl, Some(0));
    }

    #[test]
    fn no_rst_no_rst_delta() {
        let f = flow(vec![rec(0, TcpFlags::SYN, 100, Some(10), 52, true)]);
        let e = evidence(&f);
        assert_eq!(e.max_rst_ipid, None);
        assert_eq!(e.max_rst_ttl, None);
        assert_eq!(e.max_consecutive_ipid, None);
    }

    #[test]
    fn ipv6_flow_has_no_ipid_evidence() {
        let f = flow(vec![
            rec(0, TcpFlags::SYN, 100, None, 52, true),
            rec(0, TcpFlags::RST, 101, None, 101, true),
        ]);
        let e = evidence(&f);
        assert_eq!(e.max_rst_ipid, None);
        // TTL evidence still works on IPv6 (hop limit).
        assert_eq!(e.max_rst_ttl, Some(49));
    }

    #[test]
    fn negative_ttl_delta_kept_signed() {
        let f = flow(vec![
            rec(0, TcpFlags::SYN, 100, Some(1), 120, true),
            rec(0, TcpFlags::RST, 101, Some(2), 40, true),
        ]);
        let e = evidence(&f);
        assert_eq!(e.max_rst_ttl, Some(-80));
    }

    #[test]
    fn zmap_fingerprint_detection() {
        let z = flow(vec![
            rec(0, TcpFlags::SYN, 1, Some(ZMAP_IP_ID), 255, false),
            rec(0, TcpFlags::RST, 2, Some(ZMAP_IP_ID), 255, false),
        ]);
        assert!(is_zmap_fingerprint(&z));
        let marks = scanner_marks(&z);
        assert!(marks.no_tcp_options);
        assert!(marks.high_ttl);
        assert!(marks.fixed_nonzero_ipid);

        let normal = flow(vec![rec(0, TcpFlags::SYN, 1, Some(100), 52, true)]);
        assert!(!is_zmap_fingerprint(&normal));
        let m = scanner_marks(&normal);
        assert!(!m.no_tcp_options);
        assert!(!m.high_ttl);
        // A single packet can't establish a *fixed* IP-ID.
        assert!(!m.fixed_nonzero_ipid);
    }

    #[test]
    fn degenerate_flows_carry_no_scanner_marks() {
        // Zero packets: `all(no options)` would be vacuously true.
        let empty = flow(vec![]);
        let m = scanner_marks(&empty);
        assert!(!m.no_tcp_options);
        assert!(!m.high_ttl);
        assert!(!m.fixed_nonzero_ipid);

        // One packet: a lone IP-ID is trivially "fixed" — not evidence.
        let single = flow(vec![rec(0, TcpFlags::SYN, 1, Some(ZMAP_IP_ID), 255, false)]);
        let m = scanner_marks(&single);
        assert!(m.no_tcp_options, "one option-less packet is real evidence");
        assert!(m.high_ttl);
        assert!(!m.fixed_nonzero_ipid);

        // Two packets sharing a nonzero IP-ID: the mark is back.
        let double = flow(vec![
            rec(0, TcpFlags::SYN, 1, Some(ZMAP_IP_ID), 255, false),
            rec(0, TcpFlags::RST, 2, Some(ZMAP_IP_ID), 255, false),
        ]);
        assert!(scanner_marks(&double).fixed_nonzero_ipid);
    }

    #[test]
    fn zero_ipid_not_flagged_as_fixed() {
        let f = flow(vec![
            rec(0, TcpFlags::SYN, 1, Some(0), 52, true),
            rec(0, TcpFlags::ACK, 2, Some(0), 52, true),
        ]);
        assert!(!scanner_marks(&f).fixed_nonzero_ipid);
    }
}
