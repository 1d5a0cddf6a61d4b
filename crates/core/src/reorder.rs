//! Order reconstruction for logged flows.
//!
//! The collection pipeline timestamps at one-second granularity and may
//! log packets out of order within a second (paper §3.2). As the paper
//! notes, order "can typically be reconstructed with packet headers and
//! sequence numbers": a SYN precedes the handshake ACK, data packets are
//! ordered by sequence number, and tear-down packets follow the data that
//! triggered them.

use crate::view::PacketsView;
use tamper_wire::{Seq, TcpFlags};

/// Coarse within-bucket rank of a packet.
///
/// Pure ACKs share the data rank: a client's ACK stream interleaves with
/// its data at the *same* sequence cursor (`snd_nxt`), so ordering both by
/// sequence number — empty payloads first on ties, since the handshake
/// ACK precedes the request it shares a sequence number with — recovers
/// the true order, which matters for the IP-ID/TTL evidence.
fn rank(f: TcpFlags) -> u8 {
    if f.has_syn() {
        0
    } else if f.has_rst() {
        4
    } else {
        // Data, pure ACKs, and FINs all ride the client's sequence
        // cursor; ordering them together by sequence number recovers the
        // true order (the post-FIN final ACK has a *higher* sequence than
        // the FIN, so it lands after it naturally).
        2
    }
}

/// Fill `idx` with the flow's packet indices in reconstructed arrival
/// order — the one sort key, over any packet storage layout. `idx` is a
/// caller-owned buffer so the classifier (one call per finished flow) can
/// reuse the allocation.
///
/// Within each equal-timestamp bucket, packets sort by
/// (rank, relative sequence number, relative ack, log index). Sequence
/// numbers are taken relative to the flow's initial sequence number so
/// wrap-around does not scramble ordering.
pub fn reconstruct_order<V: PacketsView + ?Sized>(v: &V, idx: &mut Vec<usize>) {
    // The ISN is the sequence number of the (lowest-ranked) SYN if one was
    // logged, else the earliest data sequence seen: the one furthest
    // *before* the first logged sequence number. A raw minimum would pick
    // the wrapped end of data that straddles 2³² and sort it backwards.
    let rows = || (0..v.len()).map(|i| v.row(i));
    let seqs = || rows().map(|r| r.seq);
    let isn = rows()
        .find(|r| r.flags.has_syn())
        .map(|r| r.seq)
        .or_else(|| {
            let anchor = seqs().next()?;
            seqs().min_by_key(|s| s.distance(anchor))
        })
        .unwrap_or(Seq::ZERO);
    // Ack numbers need the same relative treatment as sequence numbers:
    // the server's ISN can sit just below the u32 wrap, so raw acks would
    // scramble the tie-break. Anchor at the first nonzero ack logged; the
    // offset is *signed* because the log may present a later ack first —
    // acks just before the anchor must sort just before it, not 4 GiB
    // after. (Acks of 0 are pre-handshake and keep sorting first, via the
    // bool key.)
    let ack0 = rows()
        .map(|r| r.ack)
        .find(|&ack| ack != Seq::ZERO)
        .unwrap_or(Seq::ZERO);

    idx.clear();
    idx.extend(0..v.len());
    // Unstable sort: the trailing index makes every key unique, so order
    // is deterministic — and unlike the stable sort it never allocates,
    // which the steady-state classify path depends on.
    idx.sort_unstable_by_key(|&i| {
        let r = v.row(i);
        (
            r.ts_sec,
            rank(r.flags),
            r.seq.offset_from(isn),
            r.payload_len > 0, // the handshake ACK precedes its request
            (r.ack != Seq::ZERO, r.ack.distance(ack0)),
            r.flags.has_fin(), // the final data ACK precedes the FIN
            i,
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tamper_capture::PacketRecord;

    fn rec(ts: u64, flags: TcpFlags, seq: u32, payload_len: u32) -> PacketRecord {
        PacketRecord::new(ts, flags, seq)
            .with_payload(Bytes::from(vec![b'x'; payload_len as usize]))
    }

    fn order_of(packets: &[PacketRecord]) -> Vec<usize> {
        let mut order = Vec::new();
        reconstruct_order(packets, &mut order);
        order
    }

    #[test]
    fn syn_sorts_before_ack_before_data_before_rst() {
        let packets = vec![
            rec(5, TcpFlags::RST, 600, 0),
            rec(5, TcpFlags::PSH_ACK, 101, 500),
            rec(5, TcpFlags::ACK, 101, 0),
            rec(5, TcpFlags::SYN, 100, 0),
        ];
        let order = order_of(&packets);
        let flags: Vec<_> = order.iter().map(|&i| packets[i].flags).collect();
        assert_eq!(
            flags,
            vec![
                TcpFlags::SYN,
                TcpFlags::ACK,
                TcpFlags::PSH_ACK,
                TcpFlags::RST
            ]
        );
    }

    #[test]
    fn timestamps_dominate_rank() {
        let packets = vec![
            rec(10, TcpFlags::RST, 700, 0),
            rec(11, TcpFlags::SYN, 100, 0), // later second: stays later
        ];
        let order = order_of(&packets);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn data_ordered_by_relative_seq_with_wraparound() {
        let isn = u32::MAX - 10;
        let packets = vec![
            rec(3, TcpFlags::PSH_ACK, isn.wrapping_add(600), 100), // second data pkt
            rec(3, TcpFlags::PSH_ACK, isn.wrapping_add(1), 599),   // first data pkt (wraps)
            rec(3, TcpFlags::SYN, isn, 0),
        ];
        let order = order_of(&packets);
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn synless_data_straddling_the_wrap_keeps_sequence_order() {
        // No SYN logged, so the ISN is the earliest data seen. The second
        // segment's sequence number wraps to 94, numerically below the
        // first's, in either logged order.
        let first = u32::MAX - 5;
        let second = first.wrapping_add(100);
        let later_logged_first = vec![
            rec(3, TcpFlags::PSH_ACK, second, 100),
            rec(3, TcpFlags::PSH_ACK, first, 100),
        ];
        assert_eq!(order_of(&later_logged_first), vec![1, 0]);
        let in_order = vec![
            rec(3, TcpFlags::PSH_ACK, first, 100),
            rec(3, TcpFlags::PSH_ACK, second, 100),
        ];
        assert_eq!(order_of(&in_order), vec![0, 1]);
    }

    #[test]
    fn ack_tiebreak_survives_wraparound() {
        // Two pure ACKs at the same seq cursor whose ack numbers straddle
        // the u32 wrap: the server ISN sits just below u32::MAX, so the
        // later ACK has the numerically *smaller* raw ack. Sorting raw
        // acks put it first; relative acks keep capture order.
        let server_isn = u32::MAX - 2;
        let mut early = rec(4, TcpFlags::ACK, 101, 0);
        early.ack = Seq::from(server_isn.wrapping_add(1)); // 4294967294
        let mut late = rec(4, TcpFlags::ACK, 101, 0);
        late.ack = Seq::from(server_isn.wrapping_add(600)); // wrapped: 597
        let packets = vec![late.clone(), early.clone()];
        let order = order_of(&packets);
        assert_eq!(order, vec![1, 0], "earlier ack must sort first");

        // And an ack of 0 (pre-handshake) still sorts before both.
        let handshake = rec(4, TcpFlags::ACK, 101, 0); // ack == 0
        let packets = vec![late, handshake, early];
        let order = order_of(&packets);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn stable_for_identical_keys() {
        let packets = vec![rec(1, TcpFlags::RST, 500, 0), rec(1, TcpFlags::RST, 500, 0)];
        let order = order_of(&packets);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(order_of(&[]).is_empty());
    }
}
