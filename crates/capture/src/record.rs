//! Flow records: the collector's output and the classifier's only input.
//!
//! A [`FlowRecord`] mirrors what the paper's pipeline stores per sampled
//! connection: up to ten **inbound** packets with full headers and
//! payloads, timestamped at one-second granularity, possibly logged out of
//! order. Nothing else about the connection is available downstream.
//!
//! The same packet has one other shape: a [`PacketRow`], whose payload is
//! a range of a shared arena instead of an owned buffer. The flow table
//! stages rows, a [`FlowBatch`] carries the rows of many finished flows,
//! and the classifier, the aggregate and the renderers read each flow in
//! place as [`FlowRows`] (its span and rows), so the pcap path never
//! copies a flow. [`PacketRecord::row`] gives an owned packet's header
//! fields as a row, which is how the same readers take the simulator's
//! owned records; [`FlowBatch::materialize`] and
//! [`FlowBatch::push_record`] convert whole flows between the two shapes
//! for tests and the benchmark probes.

use bytes::Bytes;
use std::net::IpAddr;
use tamper_wire::{Packet, PacketBuilder, Seq, TcpFlags, TcpHeader};

/// One logged inbound packet: a [`PacketRow`] that owns its payload.
/// Every field but `payload` means what the [`PacketRow`] field of the
/// same name does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// See [`PacketRow::ts_sec`].
    pub ts_sec: u64,
    /// See [`PacketRow::flags`].
    pub flags: TcpFlags,
    /// See [`PacketRow::seq`].
    pub seq: Seq,
    /// See [`PacketRow::ack`].
    pub ack: Seq,
    /// See [`PacketRow::ip_id`].
    pub ip_id: Option<u16>,
    /// See [`PacketRow::ttl`].
    pub ttl: u8,
    /// See [`PacketRow::window`].
    pub window: u16,
    /// See [`PacketRow::payload_len`].
    pub payload_len: u32,
    /// Payload bytes (the paper logs full payloads; triggers are extracted
    /// from them).
    pub payload: Bytes,
    /// See [`PacketRow::has_tcp_options`].
    pub has_tcp_options: bool,
}

impl PacketRecord {
    /// Build a record from a received packet and its quantized timestamp.
    pub(crate) fn from_packet(ts_sec: u64, pkt: &Packet) -> PacketRecord {
        PacketRecord {
            ts_sec,
            flags: pkt.tcp.flags,
            seq: pkt.tcp.seq,
            ack: pkt.tcp.ack,
            ip_id: pkt.ip.ip_id(),
            ttl: pkt.ip.ttl(),
            window: pkt.tcp.window,
            payload_len: pkt.payload.len() as u32,
            payload: pkt.payload.clone(),
            has_tcp_options: !pkt.tcp.options.is_empty(),
        }
    }

    /// `flags` at sequence number `seq`, logged at `ts_sec`, every other
    /// field neutral: ack 0, IP-ID 1, TTL 52, window 65,535, TCP options,
    /// no payload. The one builder tests and examples start from; struct
    /// update syntax and [`with_payload`](Self::with_payload) set the rest.
    pub fn new(ts_sec: u64, flags: TcpFlags, seq: u32) -> PacketRecord {
        PacketRecord {
            ts_sec,
            flags,
            seq: Seq::from(seq),
            ack: Seq::ZERO,
            ip_id: Some(1),
            ttl: 52,
            window: 65535,
            payload_len: 0,
            payload: Bytes::new(),
            has_tcp_options: true,
        }
    }

    /// This packet's header fields as a row whose payload sits at
    /// `payload_off` of some arena.
    pub fn row(&self, payload_off: u32) -> PacketRow {
        PacketRow {
            ts_sec: self.ts_sec,
            seq: self.seq,
            ack: self.ack,
            payload_off,
            payload_len: self.payload_len,
            ip_id: self.ip_id,
            window: self.window,
            flags: self.flags,
            ttl: self.ttl,
            has_tcp_options: self.has_tcp_options,
        }
    }

    /// This packet carrying `payload`.
    pub fn with_payload(self, payload: Bytes) -> PacketRecord {
        PacketRecord {
            payload_len: payload.len() as u32,
            payload,
            ..self
        }
    }
}

impl PacketRow {
    /// The inverse of [`PacketRecord::from_packet`]: the packet of `tuple`
    /// this row logged, carrying `payload`. It re-parses to the same row.
    /// The two fields a row keeps only in part follow the one convention
    /// both directions share: an IP-ID is written only when the row has one
    /// (IPv6 has none), and any options bit comes back as
    /// [`TcpHeader::standard_syn_options`], their content being unlogged.
    pub fn to_packet(&self, tuple: &FlowTuple, payload: &[u8]) -> Packet {
        let mut b = PacketBuilder::new(
            tuple.client_ip,
            tuple.server_ip,
            tuple.src_port,
            tuple.dst_port,
        )
        .flags(self.flags)
        .seq(self.seq)
        .ack(self.ack)
        .ttl(self.ttl)
        .window(self.window)
        .payload(Bytes::copy_from_slice(payload));
        if let Some(id) = self.ip_id {
            b = b.ip_id(id);
        }
        if self.has_tcp_options {
            b = b.options(TcpHeader::standard_syn_options());
        }
        b.build()
    }
}

/// One sampled connection as the collector recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Client (source) address.
    pub client_ip: IpAddr,
    /// Server (destination) address.
    pub server_ip: IpAddr,
    /// Client source port.
    pub src_port: u16,
    /// Server port: 80 (HTTP) or 443 (HTTPS) in this study.
    pub dst_port: u16,
    /// Up to ten inbound packets, in log order (not necessarily arrival
    /// order).
    pub packets: Vec<PacketRecord>,
    /// When the collector closed the flow (seconds); tail inactivity is
    /// judged against this.
    pub observation_end_sec: u64,
    /// True if more than the retained packets arrived (truncation marker).
    pub truncated: bool,
}

impl FlowRecord {
    /// `packets` from 10.0.0.1:40000 to 10.0.0.2:`dst_port`, closed at
    /// `observation_end_sec`, not truncated: the flow tests and examples
    /// build, changed by struct update syntax where they need to.
    pub fn new(dst_port: u16, packets: Vec<PacketRecord>, observation_end_sec: u64) -> FlowRecord {
        FlowRecord {
            client_ip: IpAddr::from([10, 0, 0, 1]),
            server_ip: IpAddr::from([10, 0, 0, 2]),
            src_port: 40000,
            dst_port,
            packets,
            observation_end_sec,
            truncated: false,
        }
    }
}

/// Why the streaming flow table closed a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionCause {
    /// More than the configured flow timeout of capture time passed since
    /// the flow's last packet.
    Timeout,
    /// The table hit its live-flow cap and shed its least-recently-active
    /// flow to stay within the memory bound.
    CapPressure,
    /// The capture ended while the flow was still inside its timeout
    /// window.
    EndOfCapture,
}

/// A flow 4-tuple. The flow table keys live flows by it (see its packed
/// `Hash` in [`crate::offline`]) and every finished flow's [`FlowSpan`]
/// carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTuple {
    /// Client (source) address.
    pub client_ip: IpAddr,
    /// Server (destination) address.
    pub server_ip: IpAddr,
    /// Client source port.
    pub src_port: u16,
    /// Server port.
    pub dst_port: u16,
}

/// One finished flow inside a [`FlowBatch`]: an index range into the
/// batch's packet rows plus the per-flow metadata a [`FlowRecord`] would
/// carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpan {
    /// The flow's 4-tuple.
    pub tuple: FlowTuple,
    /// First packet row of this flow (inclusive).
    pub pkt_start: u32,
    /// One past the last packet row of this flow.
    pub pkt_end: u32,
    /// Reader-assigned index of the record that opened the flow.
    pub first_index: u64,
    /// When the collector closed the flow (seconds).
    pub observation_end_sec: u64,
    /// True if more than the retained packets arrived.
    pub truncated: bool,
    /// Why the flow was closed.
    pub cause: EvictionCause,
}

/// One staged packet: a [`PacketRecord`] whose payload is a range of a
/// shared byte arena instead of an owned buffer. This is the one layout
/// from the flow table (where `payload_off` indexes the live flow's own
/// staging buffer) through [`FlowBatch`] (where it indexes the batch
/// arena) to the classifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRow {
    /// Arrival timestamp quantized to whole seconds (the paper's logging
    /// granularity).
    pub ts_sec: u64,
    /// Sequence number.
    pub seq: Seq,
    /// Acknowledgement number.
    pub ack: Seq,
    /// Offset of the payload's first byte in the arena the row belongs to.
    pub payload_off: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// IPv4 identification, `None` on IPv6.
    pub ip_id: Option<u16>,
    /// Receive window.
    pub window: u16,
    /// TCP flag byte.
    pub flags: TcpFlags,
    /// TTL / hop limit as received.
    pub ttl: u8,
    /// True if the TCP header carried any options (scanner heuristic).
    pub has_tcp_options: bool,
}

/// A batch of finished flows: packet rows, one payload arena, and one
/// [`FlowSpan`] per flow.
///
/// No per-flow `Vec<PacketRecord>`, no per-packet `Bytes`: a shard appends
/// each flow its table closes ([`push_rows`](Self::push_rows)), hands the
/// batch downstream whole, and the classifier walks it through
/// [`FlowRows`] slices without touching the heap.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FlowBatch {
    rows: Vec<PacketRow>,
    arena: Vec<u8>,
    spans: Vec<FlowSpan>,
    watermark: u64,
}

impl FlowBatch {
    /// An empty batch.
    pub fn new() -> FlowBatch {
        FlowBatch::default()
    }

    /// Number of finished flows in the batch.
    pub fn flow_count(&self) -> usize {
        self.spans.len()
    }

    /// Payload arena occupancy in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// True if the batch holds no flows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The emitting shard's promise, made when it sealed the batch: no
    /// flow it closes later has a `first_index` below this. A consumer
    /// merging shards by `first_index` can release everything below the
    /// minimum over all shards. 0 (promising nothing) until sealed.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Stamp the batch with its shard's watermark as it is handed off.
    pub(crate) fn seal(&mut self, watermark: u64) {
        self.watermark = watermark;
    }

    /// Append one closed flow from the flow table's staging: `rows` with
    /// `payload_off` relative to `payload`, rebased onto this batch's
    /// arena.
    #[expect(
        clippy::too_many_arguments,
        reason = "one caller, the flow table's close; each argument but the rows is one FlowSpan field, which a struct would only unpack again"
    )]
    pub(crate) fn push_rows(
        &mut self,
        tuple: FlowTuple,
        rows: &[PacketRow],
        payload: &[u8],
        first_index: u64,
        observation_end_sec: u64,
        truncated: bool,
        cause: EvictionCause,
    ) {
        let pkt_start = self.rows.len() as u32;
        let base = self.arena.len() as u32;
        self.rows.extend(rows.iter().map(|r| PacketRow {
            payload_off: base + r.payload_off,
            ..*r
        }));
        self.arena.extend_from_slice(payload);
        self.spans.push(FlowSpan {
            tuple,
            pkt_start,
            pkt_end: self.rows.len() as u32,
            first_index,
            observation_end_sec,
            truncated,
            cause,
        });
    }

    /// Append one owned record — the inverse of
    /// [`materialize`](Self::materialize).
    pub fn push_record(&mut self, flow: &FlowRecord, first_index: u64, cause: EvictionCause) {
        let pkt_start = self.rows.len() as u32;
        for p in &flow.packets {
            self.rows.push(PacketRow {
                payload_len: p.payload.len() as u32,
                ..p.row(self.arena.len() as u32)
            });
            self.arena.extend_from_slice(&p.payload);
        }
        self.spans.push(FlowSpan {
            tuple: FlowTuple {
                client_ip: flow.client_ip,
                server_ip: flow.server_ip,
                src_port: flow.src_port,
                dst_port: flow.dst_port,
            },
            pkt_start,
            pkt_end: self.rows.len() as u32,
            first_index,
            observation_end_sec: flow.observation_end_sec,
            truncated: flow.truncated,
            cause,
        });
    }

    /// The finished flows, in eviction order.
    pub fn spans(&self) -> &[FlowSpan] {
        &self.spans
    }

    /// Flow `i`, borrowed in place: what the classifier, the aggregate
    /// and the renderers read of one flow.
    pub fn flow_rows(&self, i: usize) -> FlowRows<'_> {
        let span = &self.spans[i];
        FlowRows {
            span,
            rows: &self.rows[span.pkt_start as usize..span.pkt_end as usize],
            arena: &self.arena,
        }
    }

    /// Copy flow `i` out as an owning [`FlowRecord`]: for
    /// `flows_from_pcap` and tests. Nothing on the `classify` path calls
    /// it; it reads flows in place through [`flow_rows`](Self::flow_rows).
    pub fn materialize(&self, i: usize) -> FlowRecord {
        let span = &self.spans[i];
        let flow = self.flow_rows(i);
        let packets = flow
            .rows
            .iter()
            .enumerate()
            .map(|(p, r)| PacketRecord {
                ts_sec: r.ts_sec,
                flags: r.flags,
                seq: r.seq,
                ack: r.ack,
                ip_id: r.ip_id,
                ttl: r.ttl,
                window: r.window,
                payload_len: r.payload_len,
                payload: Bytes::copy_from_slice(flow.payload_of(p)),
                has_tcp_options: r.has_tcp_options,
            })
            .collect();
        FlowRecord {
            client_ip: span.tuple.client_ip,
            server_ip: span.tuple.server_ip,
            src_port: span.tuple.src_port,
            dst_port: span.tuple.dst_port,
            packets,
            observation_end_sec: span.observation_end_sec,
            truncated: span.truncated,
        }
    }
}

/// One flow inside a [`FlowBatch`], borrowed: its span, its packet rows,
/// and the whole batch payload arena (each row's `payload_off` is
/// absolute).
#[derive(Debug, Clone, Copy)]
pub struct FlowRows<'a> {
    /// The flow's 4-tuple and close-time facts.
    pub span: &'a FlowSpan,
    /// The flow's packets, in log order.
    pub rows: &'a [PacketRow],
    /// The batch payload arena.
    pub arena: &'a [u8],
}

impl FlowRows<'_> {
    /// Payload bytes of packet `i`.
    pub fn payload_of(&self, i: usize) -> &[u8] {
        let r = &self.rows[i];
        let off = r.payload_off as usize;
        &self.arena[off..off + r.payload_len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_source, EngineConfig};
    use crate::pcap::{PcapWriter, GLOBAL_HEADER_LEN};
    use crate::source::PcapMemSource;
    use std::net::Ipv4Addr;

    fn packet() -> Packet {
        PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            1234,
            443,
        )
        .flags(TcpFlags::PSH_ACK)
        .seq(7)
        .ack(9)
        .ip_id(77)
        .ttl(52)
        .payload(Bytes::from_static(b"data"))
        .build()
    }

    #[test]
    fn record_captures_header_fields() {
        let r = PacketRecord::from_packet(1673481600, &packet());
        assert_eq!(r.ts_sec, 1673481600);
        assert_eq!(r.flags, TcpFlags::PSH_ACK);
        assert_eq!(r.seq, Seq::from(7));
        assert_eq!(r.ack, Seq::from(9));
        assert_eq!(r.ip_id, Some(77));
        assert_eq!(r.ttl, 52);
        assert_eq!(r.payload_len, 4);
        assert!(r.payload_len > 0);
        assert!(!r.has_tcp_options);
    }

    #[test]
    fn push_record_inverts_materialize_on_the_golden_corpus() {
        let mut capture = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/golden.pcap"
        ))
        .expect("tests/fixtures/golden.pcap present");
        // The corpus is all IPv4, so append the no-IP-ID case: the records
        // of an IPv6 flow with and without payload.
        let mut v6 = PcapWriter::new(Vec::new()).unwrap();
        for (flags, payload) in [
            (TcpFlags::SYN, &b""[..]),
            (TcpFlags::PSH_ACK, &b"GET / HTTP/1.1\r\n"[..]),
        ] {
            let pkt = PacketBuilder::new(
                "2001:db8::1".parse().unwrap(),
                "2001:db8::2".parse().unwrap(),
                4001,
                80,
            )
            .flags(flags)
            .payload(Bytes::copy_from_slice(payload))
            .build();
            v6.write_packet(200, 0, &pkt).unwrap();
        }
        capture.extend_from_slice(&v6.into_inner()[GLOBAL_HEADER_LEN..]);

        let (batches, _) = run_source(
            &mut PcapMemSource::new(capture.into()).unwrap(),
            &EngineConfig::default(),
            None,
            Vec::new,
            |acc: &mut Vec<FlowBatch>, batch| acc.push(batch),
            |a, mut b| a.append(&mut b),
        );
        let mut packets = Vec::new();
        for batch in &batches {
            let mut again = FlowBatch::new();
            for (i, span) in batch.spans().iter().enumerate() {
                let record = batch.materialize(i);
                again.push_record(&record, span.first_index, span.cause);
                for p in &record.packets {
                    let packet = p.row(0).to_packet(&span.tuple, &p.payload);
                    assert_eq!(&PacketRecord::from_packet(p.ts_sec, &packet), p);
                }
                packets.extend(record.packets);
            }
            again.seal(batch.watermark());
            assert_eq!(&again, batch);
        }
        assert_eq!(
            batches.iter().map(FlowBatch::flow_count).sum::<usize>(),
            21 + 1
        );
        assert!(batches.iter().any(|b| b.watermark() == u64::MAX));
        assert!(packets.iter().any(|p| p.ip_id.is_none()));
        assert!(packets.iter().any(|p| p.ip_id.is_some()));
        assert!(packets.iter().any(|p| p.payload.is_empty()));
        assert!(packets.iter().any(|p| p.payload_len > 0));
    }
}
