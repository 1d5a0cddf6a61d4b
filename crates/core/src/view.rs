//! The read-only window onto a flow that the classifier and everything
//! downstream of it read.
//!
//! Classification never needed owned [`PacketRecord`]s — only each
//! packet's header fields, as a [`PacketRow`], plus its payload.
//! [`PacketsView`] names exactly that surface, and [`FlowView`] adds the
//! flow's 4-tuple and close-time facts, so one generic body serves both
//! storage layouts — the classifier
//! ([`BatchClassifier::classify_flow`](crate::BatchClassifier::classify_flow)),
//! [`explain`](crate::explain) and the JSON-lines renderer alike:
//!
//! - a [`FlowRecord`] and its owned packets
//!   (`impl PacketsView for [PacketRecord]`), the simulator's layout;
//! - the [`FlowRows`] of a [`FlowBatch`](tamper_capture::FlowBatch): the
//!   same fields per packet, with the payload a range of the batch arena,
//!   read in place by `classify`.
//!
//! Both implementations monomorphize — the indirection costs nothing —
//! and because the *same* generic body runs over both, the arena path is
//! byte-identical to the owned path by construction (the `properties`
//! differential suite checks it anyway).

use tamper_capture::{FlowRecord, FlowRows, FlowTuple, PacketRecord, PacketRow};

/// Indexed, allocation-free access to a flow's packets. Indices are log
/// order, `0..len()`.
pub trait PacketsView {
    /// Number of packets in the flow.
    fn len(&self) -> usize;

    /// True if the flow holds no packet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The header fields of packet `i` (among them `has_tcp_options`).
    /// Its `payload_off` is the layout's own business: read the payload
    /// through [`payload`](Self::payload).
    fn row(&self, i: usize) -> PacketRow;

    /// Payload bytes of packet `i`.
    fn payload(&self, i: usize) -> &[u8];
}

/// One finished flow: its packets plus what the collector knew when it
/// closed the flow.
pub trait FlowView {
    /// The packet storage.
    type Packets: PacketsView + ?Sized;

    /// The flow's packets, in log order.
    fn packets(&self) -> &Self::Packets;

    /// Client and server address and port.
    fn tuple(&self) -> FlowTuple;

    /// When the collector closed the flow (seconds); tail inactivity is
    /// judged against this.
    fn observation_end_sec(&self) -> u64;

    /// True if more packets arrived than the record retained.
    fn truncated(&self) -> bool;
}

impl PacketsView for [PacketRecord] {
    fn len(&self) -> usize {
        <[PacketRecord]>::len(self)
    }

    fn row(&self, i: usize) -> PacketRow {
        self[i].row(0)
    }

    fn payload(&self, i: usize) -> &[u8] {
        &self[i].payload
    }
}

impl FlowView for FlowRecord {
    type Packets = [PacketRecord];

    fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    fn tuple(&self) -> FlowTuple {
        FlowTuple {
            client_ip: self.client_ip,
            server_ip: self.server_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
        }
    }

    fn observation_end_sec(&self) -> u64 {
        self.observation_end_sec
    }

    fn truncated(&self) -> bool {
        self.truncated
    }
}

impl PacketsView for FlowRows<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, i: usize) -> PacketRow {
        self.rows[i]
    }

    fn payload(&self, i: usize) -> &[u8] {
        self.payload_of(i)
    }
}

impl FlowView for FlowRows<'_> {
    type Packets = Self;

    fn packets(&self) -> &Self {
        self
    }

    fn tuple(&self) -> FlowTuple {
        self.span.tuple
    }

    fn observation_end_sec(&self) -> u64 {
        self.span.observation_end_sec
    }

    fn truncated(&self) -> bool {
        self.span.truncated
    }
}
