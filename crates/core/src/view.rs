//! The classifier's read-only window onto a flow's packets.
//!
//! Classification never needed owned [`PacketRecord`]s — only a handful
//! of scalar fields per packet (the IP-ID and TTL among them, for the
//! injection evidence) plus the first payload. [`PacketsView`]
//! names exactly that surface, so the one generic classification body in
//! [`BatchClassifier`](crate::batch::BatchClassifier) serves both
//! storage layouts:
//!
//! - a [`FlowRecord`](tamper_capture::FlowRecord)'s owned packets
//!   (`impl PacketsView for [PacketRecord]`),
//! - the [`FlowRows`](tamper_capture::FlowRows) of a
//!   [`FlowBatch`](tamper_capture::FlowBatch): the same fields per
//!   packet, with the payload a range of the batch arena.
//!
//! Both implementations monomorphize — the indirection costs nothing —
//! and because the *same* generic body runs over both, the arena path is
//! byte-identical to the owned path by construction (the `properties`
//! differential suite checks it anyway).

use tamper_capture::PacketRecord;
use tamper_wire::{Seq, TcpFlags};

/// Indexed, allocation-free access to the packet fields classification
/// reads. Indices are arrival order, `0..len()`.
pub trait PacketsView {
    /// Number of packets in the flow.
    fn len(&self) -> usize;

    /// Capture timestamp (seconds) of packet `i`.
    fn ts_sec(&self, i: usize) -> u64;

    /// TCP flag byte of packet `i`.
    fn flags(&self, i: usize) -> TcpFlags;

    /// Sequence number of packet `i`.
    fn seq(&self, i: usize) -> Seq;

    /// Acknowledgement number of packet `i`.
    fn ack(&self, i: usize) -> Seq;

    /// Payload length of packet `i` as logged.
    fn payload_len(&self, i: usize) -> u32;

    /// Payload bytes of packet `i`.
    fn payload(&self, i: usize) -> &[u8];

    /// IPv4 identification of packet `i` (`None` for IPv6).
    fn ip_id(&self, i: usize) -> Option<u16>;

    /// TTL / hop limit of packet `i` as received.
    fn ttl(&self, i: usize) -> u8;

    /// True if packet `i` carried data.
    fn has_payload(&self, i: usize) -> bool {
        self.payload_len(i) > 0
    }
}

impl PacketsView for [PacketRecord] {
    fn len(&self) -> usize {
        <[PacketRecord]>::len(self)
    }

    fn ts_sec(&self, i: usize) -> u64 {
        self[i].ts_sec
    }

    fn flags(&self, i: usize) -> TcpFlags {
        self[i].flags
    }

    fn seq(&self, i: usize) -> Seq {
        self[i].seq
    }

    fn ack(&self, i: usize) -> Seq {
        self[i].ack
    }

    fn payload_len(&self, i: usize) -> u32 {
        self[i].payload_len
    }

    fn payload(&self, i: usize) -> &[u8] {
        &self[i].payload
    }

    fn ip_id(&self, i: usize) -> Option<u16> {
        self[i].ip_id
    }

    fn ttl(&self, i: usize) -> u8 {
        self[i].ttl
    }
}
