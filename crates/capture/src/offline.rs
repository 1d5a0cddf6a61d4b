//! Offline ingestion: build [`FlowRecord`]s from a pcap capture.
//!
//! This is the path a real deployment would use: point the reader at a
//! server-side capture (raw-IP link type), and get classifier-ready flow
//! records with the paper's collection constraints applied (inbound-only
//! by destination filter, 10 packets, 1-second timestamps).

use crate::engine::{run_source, EngineConfig};
use crate::pcap::PcapError;
use crate::record::{FlowBatch, FlowRecord, FlowTuple, PacketRow};
use crate::source::PcapMemSource;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::net::IpAddr;
use tamper_wire::PacketView;

use crate::record::EvictionCause;

impl std::hash::Hash for FlowTuple {
    /// Packed writes instead of the derived per-field walk: the derived
    /// impl issues ~8 small `Hasher::write` calls per lookup (enum tags,
    /// octet arrays, ports), which dominated the ingest profile. The
    /// common all-IPv4 key packs into two words. V4 keys and V6 keys
    /// hash into disjoint streams via the trailing tag byte; a v4 and
    /// its v6-mapped form may collide, which only costs an `Eq` probe.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let ports = (u32::from(self.src_port) << 16) | u32::from(self.dst_port);
        match (self.client_ip, self.server_ip) {
            (IpAddr::V4(a), IpAddr::V4(b)) => {
                state.write_u64((u64::from(u32::from(a)) << 32) | u64::from(u32::from(b)));
                state.write_u32(ports);
                state.write_u8(4);
            }
            (a, b) => {
                let map = |ip: IpAddr| match ip {
                    IpAddr::V4(v) => v.to_ipv6_mapped().octets(),
                    IpAddr::V6(v) => v.octets(),
                };
                state.write(&map(a));
                state.write(&map(b));
                state.write_u32(ports);
                state.write_u8(6);
            }
        }
    }
}

/// Options for offline assembly.
#[derive(Debug, Clone, Copy)]
pub struct OfflineConfig {
    /// Keep only packets destined to these server ports (80/443 by
    /// default — the study's scope).
    pub server_ports: [u16; 2],
    /// Per-flow packet cap (paper: 10).
    pub max_packets: usize,
    /// Seconds of silence after the last packet before a flow is closed.
    pub flow_timeout_secs: u64,
}

impl Default for OfflineConfig {
    fn default() -> OfflineConfig {
        OfflineConfig {
            server_ports: [80, 443],
            max_packets: 10,
            flow_timeout_secs: 30,
        }
    }
}

/// A fast, non-keyed hasher for [`FlowTuple`] lookups in the flow
/// table: one multiply-rotate fold per 8-byte chunk, finished with a
/// splitmix64 avalanche. Flow tables are per-shard and bounded by the
/// live-flow cap, and eviction order is the order of a separate index, never
/// the map's (see [`ColumnarFlowTable::absorb`]), so the DoS-resistance of SipHash
/// buys nothing here — but its ~2× lookup cost was visible on the ingest
/// profile.
#[derive(Default)]
pub(crate) struct FlowKeyHasher {
    state: u64,
}

impl FlowKeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FlowKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            // tamperlint: allow(index) — chunks(8) yields at most 8 bytes, so the range fits the stack buffer
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    // Word-sized writes feed the mixer directly; the default trait
    // methods would round-trip each one through `write`'s chunking
    // buffer. [`FlowTuple`]'s `Hash` emits exactly these three widths.
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn finish(&self) -> u64 {
        // splitmix64 finalizer.
        let mut z = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One live flow's staged packets. Slots are pooled: a closed flow's
/// slot (and its two buffers' capacity) is recycled for the next flow
/// birth, so a warm table absorbs without allocating.
#[derive(Default)]
struct Slot {
    tuple: FlowTuple,
    first_index: u64,
    last_ts: u64,
    truncated: bool,
    rows: Vec<PacketRow>,
    payload: Vec<u8>,
}

impl Default for FlowTuple {
    fn default() -> FlowTuple {
        FlowTuple {
            client_ip: IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
            server_ip: IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
            src_port: 0,
            dst_port: 0,
        }
    }
}

/// The slot pool. Every index it hands out ([`SlotPool::open`]) stays in
/// bounds for the pool's lifetime — slots are recycled, never removed —
/// and the table only ever holds indices it got from here; the two
/// accessors own that invariant.
#[derive(Default)]
struct SlotPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl SlotPool {
    /// A cleared slot for a flow born at record `first_index`, time `ts`.
    fn open(&mut self, tuple: FlowTuple, first_index: u64, ts: u64) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                // Slots recycle through the free list, so the pool grows
                // only to the table's live-flow high water.
                self.slots.push(Slot::default());
                (self.slots.len() - 1) as u32
            }
        };
        let slot = self.get_mut(idx);
        slot.tuple = tuple;
        slot.first_index = first_index;
        slot.last_ts = ts;
        slot.truncated = false;
        slot.rows.clear();
        slot.payload.clear();
        idx
    }

    /// Return a closed flow's slot for reuse. Its `first_index` becomes a
    /// value no flow is born at, so a birth record naming the slot reads
    /// as dead until the slot is reopened — for a later-born flow.
    fn release(&mut self, idx: u32) {
        self.get_mut(idx).first_index = u64::MAX;
        self.free.push(idx);
    }

    /// True while the flow born at `first_index` still owns slot `idx`.
    fn is_live(&self, first_index: u64, idx: u32) -> bool {
        self.get(idx).first_index == first_index
    }

    fn get(&self, idx: u32) -> &Slot {
        // tamperlint: allow(index) — idx was handed out by open(), and slots are never removed
        &self.slots[idx as usize]
    }

    fn get_mut(&mut self, idx: u32) -> &mut Slot {
        // tamperlint: allow(index) — idx was handed out by open(), and slots are never removed
        &mut self.slots[idx as usize]
    }
}

/// A streaming flow assembler with inactivity-timeout eviction and an
/// optional live-flow cap — the unit of state one engine shard owns. Live
/// flows stage [`PacketRow`]s in pooled slots and close into a
/// [`FlowBatch`] as the same rows. (Nothing here is columnar any more;
/// the name stays because the frozen `benchmark/` package calls it.)
///
/// Eviction decisions depend only on packet contents and the monotone
/// capture clock (`stamp`), never on wall time or shard placement, so any
/// partition of a capture over tables keyed by flow produces byte-identical
/// closed flows.
pub struct ColumnarFlowTable {
    cfg: OfflineConfig,
    flows: HashMap<FlowTuple, u32, BuildHasherDefault<FlowKeyHasher>>,
    pool: SlotPool,
    max_live: usize,
    high_water: usize,
    /// Every live flow's slot under its `(last activity second, first-seen
    /// index)` — the eviction order itself. Timeouts pop the front while it
    /// is expired; the cap pops the front once.
    by_age: BTreeMap<(u64, u64), u32>,
    /// `(first-seen index, slot)` of flows in birth order, which is
    /// ascending index order — the front is the oldest-born live flow
    /// (`by_age` orders by last activity, so it cannot say). Closing a
    /// flow leaves its entry behind: dead entries are popped off the
    /// front, and swept out once they outnumber the live ones, so the
    /// queue stays O(live) even while one old flow stays open.
    births: VecDeque<(u64, u32)>,
    /// The key and slot the previous packet landed in. Packets of one
    /// flow arrive in runs, so this skips the map probe for the common
    /// case. Cleared whenever any flow closes, which keeps the invariant
    /// simple: a populated cache always mirrors a live map entry.
    last_hit: Option<(FlowTuple, u32)>,
}

impl ColumnarFlowTable {
    /// Create a table; `max_live` of 0 means unbounded.
    pub fn new(cfg: OfflineConfig, max_live: usize) -> ColumnarFlowTable {
        ColumnarFlowTable {
            cfg,
            flows: HashMap::default(),
            pool: SlotPool::default(),
            max_live,
            high_water: 0,
            by_age: BTreeMap::new(),
            births: VecDeque::new(),
            last_hit: None,
        }
    }

    /// First-seen index of the oldest-born live flow, if any flow is live.
    /// Every flow this table closes from now on was born at or after it,
    /// or is born later still.
    pub(crate) fn oldest_live_index(&self) -> Option<u64> {
        self.births.front().map(|&(first_index, _)| first_index)
    }

    /// Most live flows ever held at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Live flows currently held.
    pub(crate) fn live(&self) -> usize {
        self.flows.len()
    }

    /// Absorb one parsed inbound packet. `index` is the reader-assigned
    /// record index, `ts` the packet's own (quantized) timestamp, and
    /// `stamp` the running maximum capture timestamp — the capture clock.
    /// Flows whose timeout elapsed before `stamp` are evicted into `out`
    /// *before* the packet is applied, so a packet arriving after its flow
    /// expired opens a fresh flow.
    ///
    /// Eviction order — timeout and cap alike — is a pure function of
    /// (last activity, first-seen index), never of hash-map iteration
    /// order, so shuffled insertion or a different hasher cannot change
    /// which flows are closed, or in what order. That order is the key of
    /// the one index both evictions pop from, which makes the full-scan
    /// rule literal: no packet is applied while a flow with
    /// `last_ts + timeout < stamp` is live — not even one born from a
    /// packet whose own timestamp was already that far behind the clock.
    pub fn absorb(
        &mut self,
        index: u64,
        ts: u64,
        stamp: u64,
        pv: &PacketView<'_>,
        stats: &mut IngestStats,
        out: &mut FlowBatch,
    ) {
        self.sweep(stamp, out);
        let key = FlowTuple {
            client_ip: pv.src,
            server_ip: pv.dst,
            src_port: pv.src_port,
            dst_port: pv.dst_port,
        };
        let (slot_idx, born) = match self.last_hit {
            Some((k, idx)) if k == key => (idx, false),
            _ => match self.flows.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
                std::collections::hash_map::Entry::Vacant(e) => {
                    stats.flows += 1;
                    (*e.insert(self.pool.open(key, index, ts)), true)
                }
            },
        };
        self.last_hit = Some((key, slot_idx));
        let slot = self.pool.get_mut(slot_idx);
        if born {
            self.by_age.insert((ts, index), slot_idx);
            self.births.push_back((index, slot_idx));
        } else if ts > slot.last_ts {
            self.by_age.remove(&(slot.last_ts, slot.first_index));
            self.by_age.insert((ts, slot.first_index), slot_idx);
            slot.last_ts = ts;
        }
        if slot.rows.len() >= self.cfg.max_packets {
            slot.truncated = true;
            stats.truncated_packets += 1;
        } else {
            slot.rows.push(PacketRow {
                ts_sec: ts,
                seq: pv.seq,
                ack: pv.ack,
                payload_off: slot.payload.len() as u32,
                payload_len: pv.payload.len() as u32,
                ip_id: pv.ip_id,
                window: pv.window,
                flags: pv.flags,
                ttl: pv.ttl,
                has_tcp_options: pv.has_tcp_options,
            });
            slot.payload.extend_from_slice(pv.payload);
            stats.packets += 1;
        }
        if self.max_live > 0 && self.flows.len() > self.max_live {
            self.close_oldest(EvictionCause::CapPressure, out);
        }
        // Taken after shedding: the retained occupancy is what the memory
        // bound promises (insertion holds one transient extra entry).
        self.high_water = self.high_water.max(self.flows.len());
    }

    /// Evict every flow whose timeout elapsed before `stamp`: the front
    /// of the index, for as long as the front is expired.
    fn sweep(&mut self, stamp: u64, out: &mut FlowBatch) {
        let timeout = self.cfg.flow_timeout_secs;
        while let Some((&(last_ts, _), _)) = self.by_age.first_key_value() {
            if last_ts + timeout >= stamp {
                break;
            }
            self.close_oldest(EvictionCause::Timeout, out);
        }
    }

    /// Close the least-recently-active flow (ties broken by first-seen).
    fn close_oldest(&mut self, cause: EvictionCause, out: &mut FlowBatch) {
        if let Some((_, slot_idx)) = self.by_age.pop_first() {
            self.close_into(slot_idx, cause, out);
        }
    }

    /// Close all remaining flows at end of capture, ordered by first-seen
    /// index. Flows whose timeout had already elapsed at `final_stamp`
    /// count as timeout evictions (their shard just saw no later packet
    /// to trigger the sweep); the rest close as end-of-capture.
    pub fn drain(&mut self, final_stamp: u64, out: &mut FlowBatch) {
        self.drain_into(final_stamp, out, usize::MAX);
    }

    /// [`drain`](Self::drain) in pieces: close remaining flows, oldest-born
    /// first, until `out` holds `max` flows. True while flows remain.
    pub(crate) fn drain_into(&mut self, final_stamp: u64, out: &mut FlowBatch, max: usize) -> bool {
        let timeout = self.cfg.flow_timeout_secs;
        while out.flow_count() < max {
            // `close_into` keeps the front of `births` live.
            let Some(&(first_index, slot_idx)) = self.births.front() else {
                return false;
            };
            let last_ts = self.pool.get(slot_idx).last_ts;
            self.by_age.remove(&(last_ts, first_index));
            let cause = if last_ts + timeout < final_stamp {
                EvictionCause::Timeout
            } else {
                EvictionCause::EndOfCapture
            };
            self.close_into(slot_idx, cause, out);
        }
        !self.births.is_empty()
    }

    /// Append one slot's rows (already off `by_age`) to the output batch,
    /// forget its tuple and recycle the slot.
    fn close_into(&mut self, slot_idx: u32, cause: EvictionCause, out: &mut FlowBatch) {
        self.last_hit = None;
        let slot = self.pool.get(slot_idx);
        self.flows.remove(&slot.tuple);
        let last = slot.rows.iter().map(|r| r.ts_sec).max().unwrap_or(0);
        // Mirror an online collector that watched the flow for the timeout
        // window after its last retained packet.
        let observation_end_sec = last + self.cfg.flow_timeout_secs;
        out.push_rows(
            slot.tuple,
            &slot.rows,
            &slot.payload,
            slot.first_index,
            observation_end_sec,
            slot.truncated,
            cause,
        );
        self.pool.release(slot_idx);
        let pool = &self.pool;
        while let Some(&(first_index, idx)) = self.births.front() {
            if pool.is_live(first_index, idx) {
                break;
            }
            self.births.pop_front();
        }
        if self.births.len() > 2 * self.flows.len() + 64 {
            self.births
                .retain(|&(first_index, idx)| pool.is_live(first_index, idx));
        }
    }
}

/// Assemble the flows of a complete in-memory pcap capture in one call,
/// in first-seen order: the engine ([`run_source`] over a
/// [`PcapMemSource`], one shard) with every emitted batch materialized
/// into owned records. Packets that fail to parse, or that are not TCP
/// toward a configured server port, are skipped and counted in the
/// returned statistics; a 4-tuple that goes quiet for longer than the
/// flow timeout and then resumes yields two flows, exactly as an online
/// collector would record it. Only a malformed global header is an
/// error; a corrupt or truncated tail ends the read with everything
/// framed before it returned (callers that must tell the difference call
/// `tamperscope::cli::classify`, the `classify` pipeline, and read
/// `EngineStats::corrupt_tail`).
pub fn flows_from_pcap(
    bytes: &[u8],
    cfg: &OfflineConfig,
) -> Result<(Vec<FlowRecord>, IngestStats), PcapError> {
    let mut src = PcapMemSource::new(Bytes::copy_from_slice(bytes))?;
    let engine = EngineConfig {
        offline: *cfg,
        threads: 1,
        max_flows: 0,
    };
    let (mut flows, stats) = run_source(
        &mut src,
        &engine,
        None,
        Vec::new,
        |acc: &mut Vec<(u64, FlowRecord)>, batch: FlowBatch| {
            for (i, span) in batch.spans().iter().enumerate() {
                acc.push((span.first_index, batch.materialize(i)));
            }
        },
        |a, mut b| a.append(&mut b),
    );
    flows.sort_unstable_by_key(|&(first_index, _)| first_index);
    Ok((flows.into_iter().map(|(_, f)| f).collect(), stats.ingest))
}

/// Counters from an offline ingestion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Flows assembled.
    pub flows: u64,
    /// Packets retained.
    pub packets: u64,
    /// Packets past the per-flow cap.
    pub truncated_packets: u64,
    /// Frames that did not parse as IP/TCP.
    pub unparsable: u64,
    /// TCP packets not destined to a configured server port (outbound or
    /// other services).
    pub not_inbound: u64,
}

impl std::ops::AddAssign for IngestStats {
    fn add_assign(&mut self, other: IngestStats) {
        self.flows += other.flows;
        self.packets += other.packets;
        self.truncated_packets += other.truncated_packets;
        self.unparsable += other.unparsable;
        self.not_inbound += other.not_inbound;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;
    use bytes::Bytes;
    use std::net::Ipv4Addr;
    use tamper_wire::{PacketBuilder, TcpFlags};

    fn client(i: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(203, 0, 113, i))
    }
    fn server() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1))
    }

    fn frame(
        src: IpAddr,
        sport: u16,
        flags: TcpFlags,
        seq: u32,
        payload: &'static [u8],
    ) -> Vec<u8> {
        let dst = match src {
            IpAddr::V4(_) => server(),
            IpAddr::V6(_) => "::ffff:198.51.100.1".parse().unwrap(),
        };
        PacketBuilder::new(src, dst, sport, 443)
            .flags(flags)
            .seq(seq)
            .payload(Bytes::from_static(payload))
            .build()
            .emit()
            .to_vec()
    }

    #[test]
    fn assembles_flows_by_four_tuple() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_frame(100, 0, &frame(client(1), 4000, TcpFlags::SYN, 1, b""))
            .unwrap();
        w.write_frame(100, 10, &frame(client(2), 4001, TcpFlags::SYN, 9, b""))
            .unwrap();
        w.write_frame(101, 0, &frame(client(1), 4000, TcpFlags::PSH_ACK, 2, b"x"))
            .unwrap();
        let bytes = w.into_inner();
        let (flows, stats) = flows_from_pcap(&bytes[..], &OfflineConfig::default()).unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(stats.flows, 2);
        assert_eq!(stats.packets, 3);
        let f1 = flows.iter().find(|f| f.client_ip == client(1)).unwrap();
        assert_eq!(f1.packets.len(), 2);
        assert_eq!(f1.observation_end_sec, 101 + 30);
    }

    #[test]
    fn outbound_and_garbage_skipped() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        // Outbound packet (server port as source, client port as dest).
        let outbound = PacketBuilder::new(server(), client(1), 443, 4000)
            .flags(TcpFlags::SYN_ACK)
            .build()
            .emit()
            .to_vec();
        w.write_frame(100, 0, &outbound).unwrap();
        w.write_frame(100, 1, &[0xde, 0xad]).unwrap();
        w.write_frame(100, 2, &frame(client(1), 4000, TcpFlags::SYN, 1, b""))
            .unwrap();
        let bytes = w.into_inner();
        let (flows, stats) = flows_from_pcap(&bytes[..], &OfflineConfig::default()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(stats.not_inbound, 1);
        assert_eq!(stats.unparsable, 1);
    }

    /// What one schedule left behind: the closed flows as
    /// `<first_index><cause>` tokens in close order (`T`imeout,
    /// `C`ap pressure, `E`nd of capture), the counters, the high water.
    struct Replay {
        closed: String,
        stats: IngestStats,
        high_water: usize,
    }

    /// Replay one absorb schedule of bare ACKs through a table.
    fn replay(schedule: &[(IpAddr, u16, u64)], cfg: &OfflineConfig, max_live: usize) -> Replay {
        let mut table = ColumnarFlowTable::new(*cfg, max_live);
        let mut stats = IngestStats::default();
        let mut batch = FlowBatch::new();
        let mut stamp = 0u64;
        for (index, &(src, sport, ts)) in schedule.iter().enumerate() {
            stamp = stamp.max(ts);
            let bytes = frame(src, sport, TcpFlags::ACK, index as u32, b"");
            let pv = PacketView::parse(&bytes).unwrap();
            table.absorb(index as u64, ts, stamp, &pv, &mut stats, &mut batch);
        }
        table.drain(stamp, &mut batch);
        let closed: Vec<String> = batch
            .spans()
            .iter()
            .map(|span| {
                let cause = match span.cause {
                    EvictionCause::Timeout => 'T',
                    EvictionCause::CapPressure => 'C',
                    EvictionCause::EndOfCapture => 'E',
                };
                format!("{}{cause}", span.first_index)
            })
            .collect();
        Replay {
            closed: closed.join(" "),
            stats,
            high_water: table.high_water(),
        }
    }

    #[test]
    fn eviction_order_causes_and_counters_are_pinned() {
        // Timeouts, cap pressure, reopened 4-tuples, and an end-of-capture
        // drain all in one schedule.
        let mut schedule = Vec::new();
        for i in 0..40u8 {
            schedule.push((client(i % 7), 4000 + u16::from(i % 3), 100 + u64::from(i)));
        }
        // A long quiet gap expires everything, then the same tuples reopen.
        schedule.push((client(1), 4000, 500));
        for i in 0..12u8 {
            schedule.push((client(i % 5), 4100, 500 + u64::from(i)));
        }
        let cfg = OfflineConfig {
            flow_timeout_secs: 10,
            ..OfflineConfig::default()
        };
        let stats = |flows| IngestStats {
            flows,
            packets: schedule.len() as u64,
            ..IngestStats::default()
        };
        // Runs of consecutive first-seen indices closed for one cause.
        let runs = |parts: &[(std::ops::RangeInclusive<u64>, char)]| -> String {
            let tokens: Vec<String> = parts
                .iter()
                .flat_map(|(range, cause)| range.clone().map(move |i| format!("{i}{cause}")))
                .collect();
            tokens.join(" ")
        };

        // Unbounded: a tuple recurs every 21 s, past the 10 s timeout, so
        // each of the first 40 packets opens a flow that expires 11
        // packets later; the quiet gap expires the rest, flow 40 ages out
        // at t=511, and the five port-4100 flows drain at end of capture.
        let unbounded = replay(&schedule, &cfg, 0);
        assert_eq!(unbounded.closed, runs(&[(0..=40, 'T'), (41..=45, 'E')]));
        assert_eq!(unbounded.stats, stats(46));
        assert_eq!(unbounded.high_water, 11);

        // Cap 4 sheds before any timeout can fire, and before any tuple
        // recurs (even the five port-4100 clients): one flow per packet.
        // Only the four flows alive across the gap time out.
        let cap4 = replay(&schedule, &cfg, 4);
        assert_eq!(
            cap4.closed,
            runs(&[
                (0..=35, 'C'),
                (36..=39, 'T'),
                (40..=48, 'C'),
                (49..=52, 'E')
            ])
        );
        assert_eq!(cap4.stats, stats(53));
        assert_eq!(cap4.high_water, 4);

        let cap1 = replay(&schedule, &cfg, 1);
        assert_eq!(
            cap1.closed,
            runs(&[
                (0..=38, 'C'),
                (39..=39, 'T'),
                (40..=51, 'C'),
                (52..=52, 'E')
            ])
        );
        assert_eq!(cap1.stats, stats(53));
        assert_eq!(cap1.high_water, 1);
    }

    #[test]
    fn a_flow_born_behind_the_clock_expires_at_the_next_tick() {
        // Z's first packet carries a timestamp already more than the
        // timeout behind the capture clock, so `last_ts + timeout < stamp`
        // holds for Z from birth: the next packet absorbed (W) closes it,
        // and Z's second packet opens a new flow. The timer wheel queued Z
        // behind its read position and merged the two: `0T 1E 2E 3E`.
        let (x, y, z, w) = (client(1), client(2), client(3), client(4));
        let schedule = [
            (x, 4000, 100),
            (y, 4000, 200),
            (z, 4000, 100),
            (w, 4000, 201),
            (z, 4000, 201),
        ];
        let stale = replay(&schedule, &OfflineConfig::default(), 0);
        assert_eq!(stale.closed, "0T 2T 1E 3E 4E");
        assert_eq!(stale.stats.flows, 5);
    }

    #[test]
    fn cap_pressure_holds_exactly_the_cap() {
        // One-packet flows from 60k distinct tuples, every one past the cap
        // shedding the oldest. That shedding stays O(log live) is gated end
        // to end by the benchmark's `pcap-flood` wall time, not here.
        let frames: Vec<Vec<u8>> = (0..60_000u32)
            .map(|i| {
                let src = IpAddr::V4(Ipv4Addr::from(0x0a00_0000 + i));
                frame(src, 4000, TcpFlags::SYN, i, b"")
            })
            .collect();
        let views: Vec<PacketView> = frames
            .iter()
            .map(|bytes| PacketView::parse(bytes).unwrap())
            .collect();
        let flood = |cap: usize| {
            let mut table = ColumnarFlowTable::new(OfflineConfig::default(), cap);
            let mut stats = IngestStats::default();
            let mut batch = FlowBatch::new();
            for (index, pv) in views.iter().enumerate() {
                let ts = 100 + index as u64 / 20_000;
                table.absorb(index as u64, ts, ts, pv, &mut stats, &mut batch);
            }
            assert_eq!(table.live(), cap);
            assert_eq!(batch.flow_count(), frames.len() - cap);
        };
        flood(1 << 10);
        flood(1 << 15);
    }

    #[test]
    fn a_v4_tuple_and_its_v6_mapped_twin_are_two_flows() {
        // `FlowTuple`'s packed hash widens v4 addresses to their v6-mapped
        // form next to a v6 one, so these two keys may share a bucket;
        // `Eq` must still keep them apart.
        let v4 = Ipv4Addr::new(203, 0, 113, 9);
        let schedule = [
            (IpAddr::V4(v4), 4000, 100),
            (IpAddr::V6(v4.to_ipv6_mapped()), 4000, 100),
        ];
        let twins = replay(&schedule, &OfflineConfig::default(), 0);
        assert_eq!(twins.closed, "0E 1E");
    }

    #[test]
    fn cap_survivors_are_independent_of_insertion_identity() {
        // The same (position, timestamp) schedule dressed with different
        // 4-tuple identities must evict the same schedule positions: the
        // eviction order is a pure function of (last activity, first-seen
        // index), never of where keys land in the hash map.
        let base: Vec<u64> = vec![100, 100, 101, 101, 102, 102, 103, 104, 105, 106];
        let identities: [&[u8]; 3] = [
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            &[10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
            &[31, 7, 90, 14, 55, 2, 61, 23, 44, 17],
        ];
        let cfg = OfflineConfig::default();
        let closed: Vec<String> = identities
            .iter()
            .map(|ids| {
                let schedule: Vec<(IpAddr, u16, u64)> = base
                    .iter()
                    .zip(*ids)
                    .map(|(&ts, &id)| (client(id), 4000, ts))
                    .collect();
                replay(&schedule, &cfg, 3).closed
            })
            .collect();
        assert!(closed[0].contains('C'), "cap never fired");
        assert_eq!(closed[0], closed[1]);
        assert_eq!(closed[0], closed[2]);
    }

    #[test]
    fn per_flow_cap_marks_truncation() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..14u32 {
            w.write_frame(
                100 + i,
                0,
                &frame(client(1), 4000, TcpFlags::ACK, 100 + i, b""),
            )
            .unwrap();
        }
        let bytes = w.into_inner();
        let (flows, stats) = flows_from_pcap(&bytes[..], &OfflineConfig::default()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].packets.len(), 10);
        assert!(flows[0].truncated);
        assert_eq!(stats.truncated_packets, 4);
    }
}
