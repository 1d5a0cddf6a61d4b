//! Pluggable front-ends for the streaming engine: the [`FlowSource`]
//! trait and its two implementations.
//!
//! The engine in [`crate::engine`] is one reader loop delivering items to
//! N shard workers (inline at one shard, over bounded channels
//! otherwise). Everything specific to *where the stream comes from* lives
//! behind [`FlowSource`]:
//!
//! * [`PcapMemSource`] — a classic pcap capture, read through a window
//!   that is refilled from a reader (or one buffer holding all of it);
//!   items are frames stamped with the capture clock, shards parse
//!   borrowed views and assemble flows in a [`ColumnarFlowTable`],
//!   emitting [`FlowBatch`]es.
//! * [`SimSource`] — indexes into a deterministic generator such as
//!   `worldgen::WorldSim::gen_session_in`; generation itself runs on the
//!   shards, each with scratch state of its own, so simulated worlds
//!   parallelize without an intermediate pcap.
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

// Untrusted bytes reach this module: no path may panic on them.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::engine::EngineConfig;
use crate::offline::{ColumnarFlowTable, IngestStats};
use crate::pcap::{
    check_global_header, le_u32, PcapError, GLOBAL_HEADER_LEN, RECORD_HEADER_LEN, SNAPLEN,
};
use crate::record::EvictionCause;
use crate::record::FlowBatch;
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, Read};
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

    /// At end of stream, fold source-specific gauges into the reader's
    /// metrics scope.
    fn publish(&self, _rm: &mut ScopeMetrics) {}
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

    /// The channel closed: flush what is still buffered against the
    /// stream's final capture stamp. True if more is left — the engine
    /// folds what was emitted and calls again, so a large table drains
    /// in bounded pieces.
    fn finish(
        &mut self,
        final_stamp: u64,
        stats: &mut ShardStats,
        emit: &mut Vec<Self::Out>,
        sm: &mut ScopeMetrics,
    ) -> bool;

    /// Peak buffered-state occupancy (live-flow high-water mark for
    /// table-backed shards; 0 for stateless ones).
    fn high_water(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------
// PcapMemSource — a pcap capture read window by window, framed zero-copy,
// assembled into FlowBatches on the shards.
// ---------------------------------------------------------------------

/// One pcap record framed inside a capture window: a refcounted handle on
/// the window, the frame's place in it, and the record's timestamps. The
/// frame bytes are never copied; a window is freed once the last record
/// framed in it has been absorbed.
#[derive(Clone)]
pub struct PcapMemItem {
    /// Record timestamp (seconds).
    pub ts: u64,
    /// Capture clock: running maximum timestamp up to this record.
    pub stamp: u64,
    /// Byte offset of the raw IP frame in the whole capture stream.
    pub off: usize,
    /// Frame length in bytes.
    pub len: u32,
    window: Bytes,
    at: usize,
}

impl PcapMemItem {
    /// The raw IP frame.
    #[expect(
        clippy::indexing_slicing,
        reason = "fill() only emits items whose frame range it bounds-checked against the window"
    )]
    pub(crate) fn frame(&self) -> &[u8] {
        &self.window[self.at..self.at + self.len as usize]
    }
}

impl std::fmt::Debug for PcapMemItem {
    /// The record's fields, not the (up to megabytes of) window it holds.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcapMemItem")
            .field("ts", &self.ts)
            .field("stamp", &self.stamp)
            .field("off", &self.off)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// Default flow count at which a [`PcapBatchShard`] seals and emits its
/// pending [`FlowBatch`].
pub const DEFAULT_BATCH_FLOWS: usize = 512;

/// Bytes a reader-backed [`PcapMemSource`] reads per window.
const DEFAULT_WINDOW_BYTES: usize = 1 << 20;

/// [`FlowSource`] over a pcap capture, framed one window at a time.
///
/// A window is one shared [`Bytes`] buffer: [`PcapMemSource::new`] takes
/// a whole capture as a single window, [`PcapMemSource::from_reader`]
/// refills a ~1 MiB window from any [`Read`], carrying a record cut by
/// the window edge into the next one. Items hold their window, shards
/// parse borrowed [`PacketView`]s straight out of it and assemble flows
/// in a [`ColumnarFlowTable`], emitting whole [`FlowBatch`]es — so memory
/// is the windows still in flight, not the capture. This is the one pcap
/// record decoder: a malformed global header fails construction, an
/// oversize length claim or a cut mid-header/mid-frame is a corrupt tail
/// (everything framed before it is still processed), and a read error
/// ends the stream with [`PcapMemSource::read_error`] set.
pub struct PcapMemSource {
    /// The window being framed, its first byte's offset in the stream,
    /// and the next unread byte in it.
    window: Bytes,
    base: usize,
    pos: usize,
    /// Where refills come from: `None` for a capture handed over whole,
    /// and once the stream has ended or failed.
    reader: Option<Box<dyn Read>>,
    /// Earlier windows that items in flight may still hold, oldest first.
    retired: VecDeque<Bytes>,
    window_bytes: usize,
    live_windows_max: usize,
    error: Option<io::Error>,
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
        Ok(PcapMemSource::starting(bytes, None))
    }

    /// Stream a pcap capture from `reader`, one window at a time. The
    /// global header is read and validated here: a read error fails
    /// construction, and so does a header [`PcapMemSource::new`] would
    /// refuse (its [`PcapError`] inside an `InvalidData` error). A read
    /// error later on ends the stream; see [`PcapMemSource::read_error`].
    pub fn from_reader(mut reader: impl Read + 'static) -> io::Result<PcapMemSource> {
        let mut header = Vec::with_capacity(GLOBAL_HEADER_LEN);
        reader
            .by_ref()
            .take(GLOBAL_HEADER_LEN as u64)
            .read_to_end(&mut header)?;
        check_global_header(&header)?;
        Ok(PcapMemSource::starting(
            header.into(),
            Some(Box::new(reader)),
        ))
    }

    /// A source whose first window holds the validated global header.
    fn starting(window: Bytes, reader: Option<Box<dyn Read>>) -> PcapMemSource {
        PcapMemSource {
            window,
            base: 0,
            pos: GLOBAL_HEADER_LEN,
            reader,
            retired: VecDeque::new(),
            window_bytes: DEFAULT_WINDOW_BYTES,
            live_windows_max: 1,
            error: None,
            stamp: 0,
            corrupt: false,
            done: false,
            batch_flows: DEFAULT_BATCH_FLOWS,
        }
    }

    /// The read error that ended the stream early, if any. Records framed
    /// before it were still processed, and it is never reported as a
    /// corrupt tail.
    pub fn read_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Override the per-shard batch flush threshold (flows per emitted
    /// [`FlowBatch`]); clamped to at least 1.
    #[cfg(test)]
    pub(crate) fn with_batch_flows(mut self, flows: usize) -> PcapMemSource {
        self.batch_flows = flows.max(1);
        self
    }

    /// Override the bytes read per window (a window still grows to hold
    /// one whole record); clamped to at least 1.
    #[cfg(test)]
    pub(crate) fn with_window(mut self, bytes: usize) -> PcapMemSource {
        self.window_bytes = bytes.max(1);
        self
    }

    /// Make `need` unread bytes available, refilling the window if a
    /// reader is left. False if the stream ends (or fails) first.
    fn buffer(&mut self, need: usize) -> bool {
        if self.window.len() - self.pos < need {
            self.refill(need);
        }
        self.window.len() - self.pos >= need
    }

    /// Start a new window: the unread tail of the current one (a record
    /// cut by the window edge), then as much of the stream as fits in
    /// `max(window_bytes, need)` bytes. The buffer of a retired window no
    /// item holds any more is reused when there is one.
    fn refill(&mut self, need: usize) {
        if self.reader.is_none() {
            return;
        }
        let mut next = self.recycle().unwrap_or_default();
        let carry = self.window.get(self.pos..).unwrap_or_default();
        let cap = self.window_bytes.max(need);
        next.reserve(cap);
        next.extend_from_slice(carry);
        // `need` exceeds the carried bytes, or there would be no refill.
        let want = (cap - carry.len()) as u64;
        if let Some(reader) = self.reader.as_mut() {
            match reader.take(want).read_to_end(&mut next) {
                Ok(n) if (n as u64) < want => self.reader = None, // EOF
                Ok(_) => {}
                Err(e) => {
                    self.error = Some(e);
                    self.reader = None;
                }
            }
        }
        let old = std::mem::replace(&mut self.window, next.into());
        self.base += self.pos;
        self.pos = 0;
        self.retired.push_back(old);
        self.live_windows_max = self.live_windows_max.max(self.retired.len() + 1);
    }

    /// Free the retired windows no item holds any more, keeping one
    /// buffer back (cleared) for the next window.
    fn recycle(&mut self) -> Option<Vec<u8>> {
        let mut spare = None;
        for _ in 0..self.retired.len() {
            let Some(w) = self.retired.pop_front() else {
                break;
            };
            match w.try_into_mut() {
                Ok(buf) if spare.is_none() => {
                    let mut buf: Vec<u8> = buf.into();
                    buf.clear();
                    spare = Some(buf);
                }
                Ok(_) => {}
                Err(w) => self.retired.push_back(w),
            }
        }
        spare
    }

    /// Stop framing. `torn` marks the damage a corrupt tail — unless a
    /// read error cut the stream, which is reported as that instead.
    fn end(&mut self, torn: bool) {
        self.corrupt = torn && self.error.is_none();
        self.done = true;
        self.reader = None;
    }
}

impl FlowSource for PcapMemSource {
    type Item = PcapMemItem;
    type Out = FlowBatch;
    type Shard = PcapBatchShard;

    fn fill(&mut self, out: &mut Vec<PcapMemItem>, max: usize) -> bool {
        while out.len() < max && !self.done {
            if !self.buffer(RECORD_HEADER_LEN) {
                // The stream ended on a record boundary (clean) or inside
                // a record header (a ragged tail).
                self.end(self.pos < self.window.len());
                break;
            }
            let header = self.window.get(self.pos..).unwrap_or_default();
            let ts = u64::from(le_u32(header, 0));
            let incl_len = le_u32(header, 8);
            if incl_len > SNAPLEN || !self.buffer(RECORD_HEADER_LEN + incl_len as usize) {
                // Oversize length claim, or the stream ended inside the
                // frame body.
                self.end(true);
                break;
            }
            let at = self.pos + RECORD_HEADER_LEN;
            self.pos = at + incl_len as usize;
            self.stamp = self.stamp.max(ts);
            out.push(PcapMemItem {
                ts,
                stamp: self.stamp,
                off: self.base + at,
                len: incl_len,
                window: self.window.clone(),
                at,
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
        route_hash(item.frame()).map(|h| (h % shards as u64) as usize)
    }

    fn shard(&self, cfg: &EngineConfig) -> PcapBatchShard {
        PcapBatchShard {
            cfg: cfg.offline,
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

    fn publish(&self, rm: &mut ScopeMetrics) {
        rm.gauge_max("live_windows_max", self.live_windows_max as u64);
    }
}

/// Shard worker for [`PcapMemSource`]: parse borrowed views, assemble in
/// a [`ColumnarFlowTable`], emit sealed [`FlowBatch`]es.
///
/// Every batch is sealed with the shard's watermark (see
/// [`FlowBatch::watermark`]): the oldest-born live flow's first-seen
/// index, or one past the last record absorbed when nothing is live. At
/// end of stream the table drains oldest-born first, one batch at a
/// time, and the last batch — emitted even when empty — seals with
/// `u64::MAX`.
pub struct PcapBatchShard {
    cfg: crate::offline::OfflineConfig,
    table: ColumnarFlowTable,
    pending: FlowBatch,
    batch_flows: usize,
}

impl PcapBatchShard {
    /// Seal the pending batch with `watermark` and emit it, folding its
    /// eviction-cause counters into `stats` on the way.
    fn hand_off(
        &mut self,
        watermark: u64,
        stats: &mut ShardStats,
        emit: &mut Vec<FlowBatch>,
        sm: &mut ScopeMetrics,
    ) {
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
        self.pending.seal(watermark);
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
        let sw = sm.start();
        let parsed = PacketView::parse(item.frame());
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
                        let watermark = self.table.oldest_live_index().unwrap_or(index + 1);
                        self.hand_off(watermark, stats, emit, sm);
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
    ) -> bool {
        let sw = sm.start();
        let more = self
            .table
            .drain_into(final_stamp, &mut self.pending, self.batch_flows);
        sm.stop("drain", sw);
        let watermark = self.table.oldest_live_index().unwrap_or(u64::MAX);
        self.hand_off(watermark, stats, emit, sm);
        sm.gauge_max("high_water", self.table.high_water() as u64);
        more
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
/// Each shard owns one `S` (built with `S::default()`) and lends it to
/// every generator call it makes: scratch space such as a simulator
/// workspace is set up once per shard and reused for every index.
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
pub struct SimSource<'g, F, S, O> {
    gen: &'g F,
    total: u64,
    shards: u64,
    chunk: u64,
    cursor: u64,
    _out: PhantomData<fn() -> (S, O)>,
}

impl<'g, F, S, O> SimSource<'g, F, S, O>
where
    F: Fn(&mut S, u64) -> Option<O> + Sync,
    S: Default + Send,
    O: Send,
{
    /// A source over indices `0..total`, generating via `gen` on the
    /// shards. `gen` must be a pure function of the index (derive any
    /// randomness from it; the shard state it is lent is scratch, never
    /// input) — that is what makes the run reproducible.
    pub fn new(total: u64, gen: &'g F) -> SimSource<'g, F, S, O> {
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

impl<'g, F, S, O> FlowSource for SimSource<'g, F, S, O>
where
    F: Fn(&mut S, u64) -> Option<O> + Sync,
    S: Default + Send,
    O: Send,
{
    type Item = u64;
    type Out = O;
    type Shard = SimShard<'g, F, S, O>;

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

    fn shard(&self, _cfg: &EngineConfig) -> SimShard<'g, F, S, O> {
        SimShard {
            gen: self.gen,
            state: S::default(),
            _out: PhantomData,
        }
    }
}

/// Shard worker for [`SimSource`]: runs the generator for each owned
/// index, lending it the shard's state, and emits whatever it produces.
pub struct SimShard<'g, F, S, O> {
    gen: &'g F,
    state: S,
    _out: PhantomData<fn() -> O>,
}

impl<'g, F, S, O> SourceShard for SimShard<'g, F, S, O>
where
    F: Fn(&mut S, u64) -> Option<O> + Sync,
    S: Default + Send,
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
        let produced = (self.gen)(&mut self.state, item);
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
    ) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineStats;
    use crate::record::FlowRecord;
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

    /// A capture of `n` one-SYN flows, one second apart.
    fn syn_capture(n: u8) -> Vec<u8> {
        let mut w = crate::pcap::PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            w.write_frame(100 + u32::from(i), 0, &frame(1 + i, 4000, TcpFlags::SYN))
                .unwrap();
        }
        w.into_inner()
    }

    /// Hands out `data` at most `chunk` bytes a call, fails every read
    /// from byte `fail_at` on, and with `interrupt` returns `Interrupted`
    /// before every read.
    struct FaultyReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        fail_at: usize,
        interrupt: bool,
        interrupted: bool,
    }

    impl Read for FaultyReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupted = self.interrupt && !self.interrupted;
            if self.interrupted {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.pos >= self.fail_at {
                return Err(io::Error::other("disk on fire"));
            }
            let end = self
                .data
                .len()
                .min(self.fail_at)
                .min(self.pos + buf.len().min(self.chunk));
            let n = end - self.pos;
            buf[..n].copy_from_slice(&self.data[self.pos..end]);
            self.pos = end;
            Ok(n)
        }
    }

    /// Run a source to the end at one shard: every flow it closed, the
    /// ledger, and the read error that ended it.
    fn run(mut src: PcapMemSource) -> (Vec<FlowRecord>, EngineStats, Option<String>) {
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let (flows, stats) = crate::engine::run_source(
            &mut src,
            &cfg,
            None,
            Vec::new,
            |acc: &mut Vec<FlowRecord>, batch: FlowBatch| {
                acc.extend((0..batch.flow_count()).map(|i| batch.materialize(i)));
            },
            |a, mut b| a.append(&mut b),
        );
        assert!(stats.is_conserved(), "{stats:?}");
        (flows, stats, src.read_error().map(ToString::to_string))
    }

    #[test]
    fn reader_faults_end_the_stream_or_change_nothing() {
        let data = syn_capture(12);
        let record = (data.len() - GLOBAL_HEADER_LEN) / 12;
        let whole = run(PcapMemSource::new(Bytes::from(data.clone())).unwrap());
        assert_eq!((whole.0.len(), whole.2.as_deref()), (12, None));
        let streamed = |chunk, fail_at, interrupt| {
            let (data, pos, interrupted) = (data.clone(), 0, false);
            let reader = FaultyReader {
                data,
                pos,
                chunk,
                fail_at,
                interrupt,
                interrupted,
            };
            PcapMemSource::from_reader(reader).map(|src| run(src.with_window(100)))
        };
        // One-byte reads, and `Interrupted` before every read (which std
        // retries), frame the capture exactly as the whole buffer does.
        assert_eq!(streamed(1, usize::MAX, false).unwrap(), whole);
        assert_eq!(streamed(usize::MAX, usize::MAX, true).unwrap(), whole);
        // A read error at any offset fails construction inside the global
        // header; past it, every record read before the error is kept and
        // the end is a read error, never a corrupt tail.
        for fail_at in 0..data.len() {
            match streamed(usize::MAX, fail_at, false) {
                Err(e) => assert!(fail_at < GLOBAL_HEADER_LEN, "{fail_at}: {e}"),
                Ok((_, stats, err)) => {
                    let kept = ((fail_at - GLOBAL_HEADER_LEN) / record) as u64;
                    assert_eq!(
                        (stats.records, stats.corrupt_tail),
                        (kept, false),
                        "{fail_at}"
                    );
                    assert_eq!(err.as_deref(), Some("disk on fire"), "{fail_at}");
                }
            }
        }
    }

    #[test]
    fn streamed_windows_are_recycled_once_their_records_are_absorbed() {
        let data = syn_capture(200);
        let mut src = PcapMemSource::from_reader(std::io::Cursor::new(data.clone()))
            .unwrap()
            .with_window(512);
        let (mut framed, mut items) = (0, Vec::new());
        loop {
            items.clear();
            let more = src.fill(&mut items, 4);
            for it in &items {
                assert_eq!(it.frame(), &data[it.off..it.off + it.len as usize]);
            }
            framed += items.len();
            if !more {
                break;
            }
        }
        assert_eq!(framed, 200);
        assert!(!src.corrupt_tail() && src.read_error().is_none());
        // ~25 windows went by; the current one, the one the last pull's
        // items still held, and at most one awaiting reuse were ever live.
        assert!(src.base > 20 * 512, "{}", src.base);
        assert!(src.live_windows_max <= 3, "{}", src.live_windows_max);
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
            let gen = |_: &mut (), _i: u64| -> Option<u64> { None };
            let mut src: SimSource<'_, _, (), u64> = SimSource::new(total, &gen);
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
