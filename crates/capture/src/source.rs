//! Pluggable front-ends for the streaming engine: the [`FlowSource`]
//! trait and its two implementations.
//!
//! The engine in [`crate::engine`] is one reader loop delivering items to
//! N shard workers (inline at one shard, over bounded channels
//! otherwise). Everything specific to *where the stream comes from* lives
//! behind [`FlowSource`]:
//!
//! * [`PcapMemSource`] — a classic pcap capture held in memory; items are
//!   byte ranges stamped with the capture clock, shards parse borrowed
//!   views and assemble flows in a [`ColumnarFlowTable`], emitting
//!   [`FlowBatch`]es.
//! * [`SimSource`] — indexes into a deterministic generator such as
//!   `worldgen::WorldSim::gen_session`; generation itself runs on the
//!   shards so simulated worlds parallelize without an intermediate pcap.
//!
//! # Contract
//!
//! The reader pulls items with [`FlowSource::fill`], assigns each a
//! global index in pull order, and asks [`FlowSource::route`] which shard
//! owns it. Routing must be a pure function of the item (never of
//! scheduling), so the partition of work — and therefore every
//! deterministic output — is identical for a given shard count.
//! [`SourceShard::absorb`] and [`SourceShard::finish`] run on the shard's
//! thread (the reader's own at one shard); they fold per-shard counters
//! into a [`ShardStats`] and push finished units of work into `emit`,
//! which the engine hands to the caller's observe closure in emission
//! order.

use crate::engine::EngineConfig;
use crate::offline::{ColumnarFlowTable, EvictionCause, IngestStats};
use crate::pcap::{check_global_header, PcapError, GLOBAL_HEADER_LEN, SNAPLEN};
use crate::record::FlowBatch;
use bytes::Bytes;
use std::marker::PhantomData;
use tamper_netsim::splitmix64;
use tamper_obs::ScopeMetrics;
use tamper_wire::PacketView;

/// Deterministic per-shard counters, merged into
/// [`crate::engine::EngineStats`] in shard order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Flow-assembly counters (flows, packets kept, truncated,
    /// unparsable, not-inbound).
    pub ingest: IngestStats,
    /// Flows evicted because their inactivity timeout elapsed mid-stream.
    pub evicted_timeout: u64,
    /// Flows shed by the live-flow cap (memory pressure).
    pub evicted_cap: u64,
    /// Flows drained at end of stream, inside their timeout window.
    pub drained_eof: u64,
}

/// A pull-based, shardable stream of work for the engine.
///
/// Implementations are driven from the reader thread; the shards they
/// build via [`FlowSource::shard`] are moved onto worker threads when
/// there is more than one.
pub trait FlowSource {
    /// One unit of work in flight from the reader to a shard.
    type Item: Send;
    /// The finished unit a shard emits (what the caller's observe
    /// closure receives).
    type Out;
    /// Per-shard worker state.
    type Shard: SourceShard<Item = Self::Item, Out = Self::Out> + Send;

    /// Called once, before any [`FlowSource::fill`], with the resolved
    /// shard count. Sources whose pull order or routing depends on the
    /// shard count set it up here.
    fn prepare(&mut self, _shards: usize) {}

    /// Pull up to `max` items, appending to `out`. Returns `false` once
    /// the stream is exhausted (items may still have been appended on
    /// that final call).
    fn fill(&mut self, out: &mut Vec<Self::Item>, max: usize) -> bool;

    /// The shard owning `item`, in `0..shards` — a pure function of the
    /// item so the partition is reproducible. `None` marks the item
    /// unroutable: the reader drops it and counts it as unparsable.
    fn route(&self, index: u64, item: &Self::Item, shards: usize) -> Option<usize>;

    /// Build one shard worker.
    fn shard(&self, cfg: &EngineConfig) -> Self::Shard;

    /// The capture clock at end of stream (the running-max timestamp).
    /// Shards receive it in [`SourceShard::finish`] to split
    /// timeout-expired flows from end-of-stream drains deterministically.
    fn final_stamp(&self) -> u64 {
        0
    }

    /// True if the stream ended in a corrupt or truncated record; the
    /// items pulled before the damage were still processed.
    fn corrupt_tail(&self) -> bool {
        false
    }
}

/// Worker-side half of a [`FlowSource`]: turns routed items into emitted
/// outputs, deterministically for a fixed item sequence.
pub trait SourceShard {
    /// Mirrors [`FlowSource::Item`].
    type Item: Send;
    /// Mirrors [`FlowSource::Out`].
    type Out;

    /// Absorb one item (with its global `index`), updating `stats` and
    /// appending any outputs that became final to `emit`.
    fn absorb(
        &mut self,
        index: u64,
        item: Self::Item,
        stats: &mut ShardStats,
        emit: &mut Vec<Self::Out>,
        sm: &mut ScopeMetrics,
    );

    /// The channel closed: flush everything still buffered against the
    /// stream's final capture stamp.
    fn finish(
        &mut self,
        final_stamp: u64,
        stats: &mut ShardStats,
        emit: &mut Vec<Self::Out>,
        sm: &mut ScopeMetrics,
    );

    /// Peak buffered-state occupancy (live-flow high-water mark for
    /// table-backed shards; 0 for stateless ones).
    fn high_water(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------
// PcapMemSource — an in-memory pcap, framed zero-copy, assembled into
// FlowBatches on the shards.
// ---------------------------------------------------------------------

/// One pcap record framed inside a shared in-memory capture: byte range
/// plus timestamps. The frame bytes stay in the source's buffer — the
/// reader ships 24 bytes per record instead of a heap `Vec<u8>`.
#[derive(Debug, Clone, Copy)]
pub struct PcapMemItem {
    /// Record timestamp (seconds).
    pub ts: u64,
    /// Capture clock: running maximum timestamp up to this record.
    pub stamp: u64,
    /// Byte offset of the raw IP frame inside the capture buffer.
    pub off: usize,
    /// Frame length in bytes.
    pub len: u32,
}

/// Default flow count at which a [`PcapBatchShard`] seals and emits its
/// pending [`FlowBatch`].
pub const DEFAULT_BATCH_FLOWS: usize = 512;

/// [`FlowSource`] over an in-memory pcap buffer.
///
/// Framing is zero-copy: items are byte ranges into one shared [`Bytes`]
/// buffer, shards parse borrowed [`PacketView`]s straight out of it and
/// assemble flows in a [`ColumnarFlowTable`], emitting whole
/// [`FlowBatch`]es. This is the one pcap record decoder: a malformed
/// global header fails construction, an oversize length claim or a cut
/// mid-header/mid-frame is a corrupt tail (everything framed before it
/// is still processed).
pub struct PcapMemSource {
    bytes: Bytes,
    pos: usize,
    stamp: u64,
    corrupt: bool,
    done: bool,
    batch_flows: usize,
}

impl PcapMemSource {
    /// Wrap a complete pcap capture held in memory, validating the global
    /// header: short, bad magic or a link type other than raw IP is an error.
    pub fn new(bytes: Bytes) -> Result<PcapMemSource, PcapError> {
        check_global_header(&bytes)?;
        Ok(PcapMemSource {
            bytes,
            pos: GLOBAL_HEADER_LEN,
            stamp: 0,
            corrupt: false,
            done: false,
            batch_flows: DEFAULT_BATCH_FLOWS,
        })
    }

    /// Override the per-shard batch flush threshold (flows per emitted
    /// [`FlowBatch`]); clamped to at least 1.
    #[cfg(test)]
    pub(crate) fn with_batch_flows(mut self, flows: usize) -> PcapMemSource {
        self.batch_flows = flows.max(1);
        self
    }

    /// The framed byte range of an item, as a borrowed slice.
    fn frame_of<'a>(bytes: &'a Bytes, item: &PcapMemItem) -> &'a [u8] {
        // tamperlint: allow(index) — fill() only emits items whose frame range it bounds-checked against the buffer
        &bytes[item.off..item.off + item.len as usize]
    }
}

impl FlowSource for PcapMemSource {
    type Item = PcapMemItem;
    type Out = FlowBatch;
    type Shard = PcapBatchShard;

    fn fill(&mut self, out: &mut Vec<PcapMemItem>, max: usize) -> bool {
        while out.len() < max && !self.done {
            let rem = self.bytes.len() - self.pos;
            if rem == 0 {
                self.done = true;
                break;
            }
            if rem < 16 {
                // Ragged tail: EOF inside a record header.
                self.corrupt = true;
                self.done = true;
                break;
            }
            // tamperlint: allow(index) — rem >= 16 was checked just above
            let header = &self.bytes[self.pos..self.pos + 16];
            let mut w = [0u8; 4];
            // tamperlint: allow(index) — compile-time offsets into the 16-byte header slice
            w.copy_from_slice(&header[0..4]);
            let ts = u64::from(u32::from_le_bytes(w));
            // tamperlint: allow(index) — compile-time offsets into the 16-byte header slice
            w.copy_from_slice(&header[8..12]);
            let incl_len = u32::from_le_bytes(w);
            if incl_len > SNAPLEN || (rem - 16) < incl_len as usize {
                // Oversize length claim, or EOF inside the frame body.
                self.corrupt = true;
                self.done = true;
                break;
            }
            let off = self.pos + 16;
            self.pos = off + incl_len as usize;
            self.stamp = self.stamp.max(ts);
            out.push(PcapMemItem {
                ts,
                stamp: self.stamp,
                off,
                len: incl_len,
            });
        }
        !self.done
    }

    fn route(&self, _index: u64, item: &PcapMemItem, shards: usize) -> Option<usize> {
        if shards == 1 {
            // Everything lands on the only shard; frames route_hash would
            // reject fail full parse there and count as unparsable — the
            // same field the reader charges unroutable frames to.
            return Some(0);
        }
        route_hash(PcapMemSource::frame_of(&self.bytes, item)).map(|h| (h % shards as u64) as usize)
    }

    fn shard(&self, cfg: &EngineConfig) -> PcapBatchShard {
        PcapBatchShard {
            cfg: cfg.offline,
            bytes: self.bytes.clone(),
            table: ColumnarFlowTable::new(cfg.offline, cfg.per_shard_cap()),
            pending: FlowBatch::new(),
            batch_flows: self.batch_flows,
        }
    }

    fn final_stamp(&self) -> u64 {
        self.stamp
    }

    fn corrupt_tail(&self) -> bool {
        self.corrupt
    }
}

/// Shard worker for [`PcapMemSource`]: parse borrowed views, assemble in
/// a [`ColumnarFlowTable`], emit sealed [`FlowBatch`]es.
pub struct PcapBatchShard {
    cfg: crate::offline::OfflineConfig,
    bytes: Bytes,
    table: ColumnarFlowTable,
    pending: FlowBatch,
    batch_flows: usize,
}

impl PcapBatchShard {
    /// Seal the pending batch and emit it, folding its eviction-cause
    /// counters into `stats` on the way.
    fn hand_off(
        &mut self,
        stats: &mut ShardStats,
        emit: &mut Vec<FlowBatch>,
        sm: &mut ScopeMetrics,
    ) {
        if self.pending.is_empty() {
            return;
        }
        let sw = sm.start();
        sm.gauge_max("arena_bytes", self.pending.arena_bytes() as u64);
        sm.gauge_max("batch_flows", self.pending.flow_count() as u64);
        for span in self.pending.spans() {
            match span.cause {
                EvictionCause::Timeout => stats.evicted_timeout += 1,
                EvictionCause::CapPressure => stats.evicted_cap += 1,
                EvictionCause::EndOfCapture => stats.drained_eof += 1,
            }
        }
        emit.push(std::mem::take(&mut self.pending));
        sm.stop("batch", sw);
    }
}

impl SourceShard for PcapBatchShard {
    type Item = PcapMemItem;
    type Out = FlowBatch;

    fn absorb(
        &mut self,
        index: u64,
        item: PcapMemItem,
        stats: &mut ShardStats,
        emit: &mut Vec<FlowBatch>,
        sm: &mut ScopeMetrics,
    ) {
        let frame = PcapMemSource::frame_of(&self.bytes, &item);
        let sw = sm.start();
        let parsed = PacketView::parse(frame);
        sm.stop("parse", sw);
        match parsed {
            Err(_) => stats.ingest.unparsable += 1,
            Ok(pv) => {
                if !self.cfg.server_ports.contains(&pv.dst_port) {
                    stats.ingest.not_inbound += 1;
                } else {
                    let sw = sm.start();
                    self.table.absorb(
                        index,
                        item.ts,
                        item.stamp,
                        &pv,
                        &mut stats.ingest,
                        &mut self.pending,
                    );
                    sm.stop("absorb_evict", sw);
                    sm.gauge_max("live_flows", self.table.live() as u64);
                    if self.pending.flow_count() >= self.batch_flows {
                        self.hand_off(stats, emit, sm);
                    }
                }
            }
        }
    }

    fn finish(
        &mut self,
        final_stamp: u64,
        stats: &mut ShardStats,
        emit: &mut Vec<FlowBatch>,
        sm: &mut ScopeMetrics,
    ) {
        let sw = sm.start();
        self.table.drain(final_stamp, &mut self.pending);
        sm.stop("drain", sw);
        self.hand_off(stats, emit, sm);
        sm.gauge_max("high_water", self.table.high_water() as u64);
    }

    fn high_water(&self) -> usize {
        self.table.high_water()
    }
}

/// Route a raw IP frame to a shard by hashing its 4-tuple, without a full
/// (checksum-validating) parse. Returns `None` for frames that cannot be
/// TCP/IP — every such frame would also fail [`PacketView::parse`], so
/// the reader counts it as unparsable without shipping it anywhere.
pub(crate) fn route_hash(frame: &[u8]) -> Option<u64> {
    fn word(b: &[u8], at: usize) -> u64 {
        // Callers guard the frame length, but stay bounds-checked anyway:
        // a short read hashes as zero instead of panicking.
        let mut w = [0u8; 4];
        if let Some(s) = b.get(at..at + 4) {
            w.copy_from_slice(s);
        }
        u64::from(u32::from_be_bytes(w))
    }
    let first = *frame.first()?;
    match first >> 4 {
        4 => {
            // The wire parser only accepts a 20-byte header (IHL 5) and
            // protocol 6; anything else fails full parse too.
            if frame.len() < 24 || (first & 0x0f) != 5 || frame.get(9) != Some(&6) {
                return None;
            }
            let mut h = mix(0x7461_6d70_6572_0004, word(frame, 12)); // src
            h = mix(h, word(frame, 16)); // dst
            Some(mix(h, word(frame, 20))) // ports
        }
        6 => {
            if frame.len() < 44 || frame.get(6) != Some(&6) {
                return None;
            }
            let mut h = 0x7461_6d70_6572_0006;
            for off in (8..40).step_by(4) {
                h = mix(h, word(frame, off)); // src + dst
            }
            Some(mix(h, word(frame, 40))) // ports
        }
        _ => None,
    }
}

fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

// ---------------------------------------------------------------------
// SimSource — deterministic generators (worldgen sessions).
// ---------------------------------------------------------------------

/// [`FlowSource`] over a deterministic indexed generator: item `i` is
/// just the index, and the expensive generation call runs on the shards,
/// so simulated worlds parallelize through the same engine as captures.
///
/// # Partition and order
///
/// Shard `t` owns the contiguous index chunk
/// `[t * ceil(total / shards), ...)`, so the shard-order merge reproduces
/// the serial fold order even for order-sensitive accumulators, at any
/// shard count. To keep every shard busy despite chunked ownership, the
/// reader pulls indices interleaved across chunks (first index of each
/// chunk, then the second of each, ...); within a shard, indices still
/// arrive in ascending order.
pub struct SimSource<'g, F, O> {
    gen: &'g F,
    total: u64,
    shards: u64,
    chunk: u64,
    cursor: u64,
    _out: PhantomData<fn() -> O>,
}

impl<'g, F, O> SimSource<'g, F, O>
where
    F: Fn(u64) -> Option<O> + Sync,
    O: Send,
{
    /// A source over indices `0..total`, generating via `gen` on the
    /// shards. `gen` must be a pure function of the index (derive any
    /// randomness from it) — that is what makes the run reproducible.
    pub fn new(total: u64, gen: &'g F) -> SimSource<'g, F, O> {
        SimSource {
            gen,
            total,
            shards: 1,
            chunk: total.max(1),
            cursor: 0,
            _out: PhantomData,
        }
    }

    /// Total cursor positions: `chunk * shards`, which covers `0..total`
    /// plus the padding slots of the last (possibly short) chunk.
    fn span(&self) -> u64 {
        self.chunk.saturating_mul(self.shards)
    }
}

impl<'g, F, O> FlowSource for SimSource<'g, F, O>
where
    F: Fn(u64) -> Option<O> + Sync,
    O: Send,
{
    type Item = u64;
    type Out = O;
    type Shard = SimShard<'g, F, O>;

    fn prepare(&mut self, shards: usize) {
        self.shards = shards.max(1) as u64;
        self.chunk = self.total.div_ceil(self.shards).max(1);
        self.cursor = 0;
    }

    fn fill(&mut self, out: &mut Vec<u64>, max: usize) -> bool {
        let span = self.span();
        while out.len() < max && self.cursor < span {
            // Interleave across chunks: cursor c visits index
            // (c % shards) * chunk + c / shards.
            let i = (self.cursor % self.shards)
                .saturating_mul(self.chunk)
                .saturating_add(self.cursor / self.shards);
            self.cursor += 1;
            if i < self.total {
                out.push(i);
            }
        }
        self.cursor < span
    }

    fn route(&self, _index: u64, item: &u64, shards: usize) -> Option<usize> {
        Some(((item / self.chunk) as usize).min(shards.saturating_sub(1)))
    }

    fn shard(&self, _cfg: &EngineConfig) -> SimShard<'g, F, O> {
        SimShard {
            gen: self.gen,
            _out: PhantomData,
        }
    }
}

/// Shard worker for [`SimSource`]: runs the generator for each owned
/// index and emits whatever it produces.
pub struct SimShard<'g, F, O> {
    gen: &'g F,
    _out: PhantomData<fn() -> O>,
}

impl<'g, F, O> SourceShard for SimShard<'g, F, O>
where
    F: Fn(u64) -> Option<O> + Sync,
    O: Send,
{
    type Item = u64;
    type Out = O;

    fn absorb(
        &mut self,
        _index: u64,
        item: u64,
        stats: &mut ShardStats,
        emit: &mut Vec<O>,
        sm: &mut ScopeMetrics,
    ) {
        let sw = sm.start();
        let produced = (self.gen)(item);
        sm.stop("gen", sw);
        if let Some(out) = produced {
            stats.ingest.flows += 1;
            emit.push(out);
        }
    }

    fn finish(
        &mut self,
        _final_stamp: u64,
        _stats: &mut ShardStats,
        _emit: &mut Vec<O>,
        _sm: &mut ScopeMetrics,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_wire::{PacketBuilder, TcpFlags};

    fn frame(last_octet: u8, sport: u16, flags: TcpFlags) -> Vec<u8> {
        PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, last_octet)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
            sport,
            443,
        )
        .flags(flags)
        .seq(1)
        .payload(Bytes::from_static(b""))
        .build()
        .emit()
        .to_vec()
    }

    #[test]
    fn route_hash_is_stable_per_flow() {
        let a = frame(1, 4000, TcpFlags::SYN);
        let b = frame(1, 4000, TcpFlags::PSH_ACK);
        assert_eq!(route_hash(&a), route_hash(&b));
        assert!(route_hash(&a).is_some());
        let c = frame(2, 4000, TcpFlags::SYN);
        assert_ne!(route_hash(&a), route_hash(&c));
        assert_eq!(route_hash(&[]), None);
        assert_eq!(route_hash(&[0x12, 0x34]), None);
    }

    #[test]
    fn sim_source_walks_every_index_once_interleaved() {
        for (total, shards) in [(0u64, 3usize), (1, 4), (7, 3), (12, 4), (100, 8), (5, 1)] {
            let gen = |_i: u64| -> Option<u64> { None };
            let mut src: SimSource<'_, _, u64> = SimSource::new(total, &gen);
            src.prepare(shards);
            let mut seen = Vec::new();
            let mut buf = Vec::new();
            loop {
                buf.clear();
                let more = src.fill(&mut buf, 5);
                seen.extend(buf.iter().copied());
                if !more {
                    break;
                }
            }
            // Every index exactly once...
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..total).collect::<Vec<u64>>(), "{total}/{shards}");
            // ...routed to its contiguous chunk, ascending within a shard.
            let chunk = total.div_ceil(shards as u64).max(1);
            let mut last: Vec<Option<u64>> = vec![None; shards];
            for i in &seen {
                let t = src.route(0, i, shards).unwrap();
                assert_eq!(t, ((i / chunk) as usize).min(shards - 1));
                assert!(last[t].is_none_or(|p| p < *i), "{total}/{shards}");
                last[t] = Some(*i);
            }
        }
    }
}
