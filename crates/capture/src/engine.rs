//! The streaming, sharded classification engine.
//!
//! One reader loop pulls work items off a [`FlowSource`], assigns each a
//! global index, and delivers it to one of N worker shards chosen by the
//! source's pure routing function. Delivery is the only thing the shard
//! count selects: one shard runs inline on the reader's thread, N > 1
//! shards are threads behind bounded channels. Each shard owns the
//! source's worker-side state (for pcap: a slice of the flow table, see
//! [`ColumnarFlowTable`]), turns items into finished flows *as the stream
//! runs*, and folds every emitted output into a caller-supplied
//! accumulator. The per-shard accumulators are merged in shard order at
//! the end, so the result is byte-identical for any thread count.
//!
//! The two front-ends live in [`crate::source`]:
//! [`crate::source::PcapMemSource`] (a capture read window by window,
//! emitting [`crate::FlowBatch`]es) and [`crate::source::SimSource`]
//! (deterministic generators — `worldgen` worlds stream straight in with
//! no intermediate pcap and no second sharding implementation).
//!
//! [`ColumnarFlowTable`]: crate::offline::ColumnarFlowTable
//!
//! # Determinism
//!
//! Three choices make the engine's output independent of thread count and
//! scheduling:
//!
//! 1. **A single capture clock.** The pcap source stamps every record
//!    with the running maximum timestamp seen so far. Shards evict on the
//!    predicate `last_packet_ts + timeout < stamp`, evaluated against the
//!    stamp of the record being absorbed — a pure function of the capture
//!    bytes, not of which shard saw which record when.
//! 2. **Stable routing and ordering.** The reader assigns each item a
//!    global index; [`FlowSource::route`] is a pure function of the item,
//!    so a given shard count always yields the same partition, and
//!    callers that need first-seen order sort emitted flows by index —
//!    or, streaming, release those below every shard's latest batch
//!    watermark ([`crate::FlowBatch::watermark`]).
//! 3. **End-of-stream flush.** The reader hands every shard the source's
//!    final stamp (through an atomic published before the channels close,
//!    or directly when the shard runs inline); each shard flushes its
//!    buffered state against that stamp — in pieces, each folded before
//!    the next — so the timeout-vs-end-of-capture split is also
//!    deterministic.
//!
//! The only scheduling- or shard-count-dependent outputs are the perf
//! counters ([`EngineStats::channel_stalls`], [`EngineStats::threads`],
//! [`EngineStats::max_live_flows`]) and anything published to an attached
//! [`tamper_obs::Registry`]; callers must keep both out of any
//! byte-compared report. [`run_source`] wires the registry through the
//! reader, every shard, and the merge step.
//!
//! # Memory bound
//!
//! With `max_flows = M` and `threads = N`, each pcap shard caps its live
//! table at `max(1, M / N)` flows and sheds least-recently-active flows
//! past that (counted in [`EngineStats::evicted_cap`]), so live flows
//! never exceed `N * max(1, M / N)` — at most `M` whenever `N ≤ M`.
//! Channels are bounded, so a slow shard backpressures the reader instead
//! of growing a queue — and a pcap item holds its capture window, so the
//! windows alive at once are bounded by the items in flight, not by the
//! capture length.

use crate::offline::{IngestStats, OfflineConfig};
use crate::source::{FlowSource, ShardStats, SourceShard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use tamper_obs::{Registry, ScopeMetrics};

/// Items per channel message (amortizes channel overhead).
const BATCH_SIZE: usize = 256;
/// Batches in flight per shard before the reader blocks.
const CHANNEL_CAPACITY: usize = 64;

/// Configuration for [`run_source`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Flow-assembly constraints (ports, packet cap, timeout).
    pub offline: OfflineConfig,
    /// Worker shards (0 = one per available core).
    pub threads: usize,
    /// Global live-flow bound (0 = unbounded). Split evenly across shards.
    pub max_flows: usize,
}

impl EngineConfig {
    /// The shard count this configuration resolves to.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }

    /// Per-shard live-flow cap (0 = unbounded).
    pub(crate) fn per_shard_cap(&self) -> usize {
        if self.max_flows == 0 {
            0
        } else {
            (self.max_flows / self.resolved_threads()).max(1)
        }
    }
}

/// Per-stage counters from one engine run.
///
/// Everything except `channel_stalls` and `threads` is a pure function of
/// the source stream and the [`EngineConfig`] flow parameters — identical
/// for any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Items pulled off the source (pcap records, flow records, or
    /// generator indices).
    pub records: u64,
    /// Flow-assembly counters (flows, packets kept, truncated, unparsable,
    /// not-inbound).
    pub ingest: IngestStats,
    /// Flows evicted because their inactivity timeout elapsed mid-capture.
    pub evicted_timeout: u64,
    /// Flows shed by the live-flow cap (memory pressure).
    pub evicted_cap: u64,
    /// Flows still live at end of capture, drained inside their timeout
    /// window.
    pub drained_eof: u64,
    /// True if the capture ended in a corrupt or truncated record; the
    /// bytes read up to that point were still processed.
    pub corrupt_tail: bool,
    /// Times the reader found a shard channel full and had to block
    /// (scheduling-dependent; exclude from byte-compared output).
    pub channel_stalls: u64,
    /// Largest per-shard live-flow high-water mark — the engine's actual
    /// peak table occupancy, a true maximum across shards. (The per-shard
    /// sum, if wanted, is the `sum_high_water` gauge in the `merge`
    /// metrics scope.) Depends on the shard count via routing, so keep it
    /// out of byte-compared output.
    pub max_live_flows: u64,
    /// Worker shards used (scheduling-dependent when auto-detected;
    /// exclude from byte-compared output).
    pub threads: usize,
}

impl EngineStats {
    /// The capture path's closed ledger: every record pulled is a packet
    /// kept, a packet past its flow's cap, not inbound, or unparsable; and
    /// every flow opened was closed by exactly one of timeout, cap
    /// pressure or the end-of-capture drain. (A generator source opens
    /// flows without records, so only pcap runs balance.)
    pub fn is_conserved(&self) -> bool {
        let i = &self.ingest;
        self.records == i.packets + i.truncated_packets + i.not_inbound + i.unparsable
            && i.flows == self.evicted_timeout + self.evicted_cap + self.drained_eof
    }
}

impl std::ops::AddAssign<ShardStats> for EngineStats {
    fn add_assign(&mut self, shard: ShardStats) {
        self.ingest += shard.ingest;
        self.evicted_timeout += shard.evicted_timeout;
        self.evicted_cap += shard.evicted_cap;
        self.drained_eof += shard.drained_eof;
    }
}

/// One item in flight to a shard, tagged with its global index.
struct Routed<I> {
    index: u64,
    item: I,
}

/// The reader's end of one worker shard: the channel to it and the batch
/// being filled for it.
struct Lane<I> {
    tx: SyncSender<Vec<Routed<I>>>,
    pending: Vec<Routed<I>>,
}

impl<I> Lane<I> {
    /// Send the pending batch, blocking — and counting a stall — while
    /// the shard's channel is full.
    fn flush(&mut self, stats: &mut EngineStats, rm: &mut ScopeMetrics) {
        if self.pending.is_empty() {
            return;
        }
        rm.count("batches_sent", 1);
        match self.tx.try_send(std::mem::take(&mut self.pending)) {
            Ok(()) => {}
            Err(TrySendError::Full(batch)) => {
                stats.channel_stalls += 1;
                rm.count("channel_stalls", 1);
                // Worker threads only exit when senders drop, so a
                // blocking send can only fail on worker panic.
                let sw = rm.start();
                let _ = self.tx.send(batch);
                rm.stop("stalled", sw);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

/// The lane of the shard a source routed an item to. Sources contract to
/// route in `0..lanes.len()`; clamp so a misbehaving impl degrades
/// instead of panicking.
fn lane_of<I>(lanes: &mut [Lane<I>], route: usize) -> &mut Lane<I> {
    let shard = route.min(lanes.len().saturating_sub(1));
    // tamperlint: allow(index) — clamped just above; the reader builds one lane per shard before routing anything
    &mut lanes[shard]
}

/// One shard at work: the source's worker-side state, the caller's
/// accumulator, and the outputs waiting to be folded into it.
struct ShardRun<W: SourceShard, T> {
    worker: W,
    acc: T,
    stats: ShardStats,
    emit: Vec<W::Out>,
    sm: ScopeMetrics,
}

/// What one shard hands back when its stream ends.
struct ShardOutcome<T> {
    acc: T,
    stats: ShardStats,
    high_water: usize,
    sm: ScopeMetrics,
}

impl<W: SourceShard, T> ShardRun<W, T> {
    fn new(worker: W, acc: T, sm: ScopeMetrics) -> ShardRun<W, T> {
        ShardRun {
            worker,
            acc,
            stats: ShardStats::default(),
            emit: Vec::new(),
            sm,
        }
    }

    /// Fold every emitted output into the accumulator, charging the
    /// classify timer and latency histogram per output.
    fn fold_outputs(&mut self, observe: &impl Fn(&mut T, W::Out)) {
        for out in self.emit.drain(..) {
            let sw = self.sm.start();
            observe(&mut self.acc, out);
            // One clock read feeds both the stage timer and the latency
            // histogram.
            if let Some(ns) = sw.elapsed_ns() {
                self.sm.record_timer("classify", ns);
                self.sm.record_hist("classify_latency_ns", ns);
            }
        }
    }

    fn absorb(&mut self, index: u64, item: W::Item, observe: &impl Fn(&mut T, W::Out)) {
        self.sm.count("records", 1);
        self.worker
            .absorb(index, item, &mut self.stats, &mut self.emit, &mut self.sm);
        self.fold_outputs(observe);
    }

    /// End of stream: flush the worker against the final capture stamp,
    /// folding each piece it emits before asking for the next.
    fn finish(mut self, final_stamp: u64, observe: &impl Fn(&mut T, W::Out)) -> ShardOutcome<T> {
        while self
            .worker
            .finish(final_stamp, &mut self.stats, &mut self.emit, &mut self.sm)
        {
            self.fold_outputs(observe);
        }
        self.fold_outputs(observe);
        // Every flow a shard opens it also closes (eviction or final
        // drain); an output may carry many flows, so count flows, not
        // outputs.
        self.sm.count("flows_closed", self.stats.ingest.flows);
        ShardOutcome {
            acc: self.acc,
            stats: self.stats,
            high_water: self.worker.high_water(),
            sm: self.sm,
        }
    }
}

/// Run the streaming engine over any [`FlowSource`], with an optional
/// [`Registry`] attached. The source is borrowed, so the caller can still
/// ask it about the stream afterwards (a pcap source's read error).
///
/// `init` builds one accumulator per shard, `observe` folds each emitted
/// output into its shard's accumulator, and `merge` combines shard
/// accumulators (in shard order) into the first shard's — so an
/// `analysis::Collector` drops in directly.
///
/// When `obs` is `Some`, the run publishes a `reader` scope (pull and
/// routing counters, channel stall accounting, whole-read timer, the
/// source's own gauges such as pcap's `live_windows_max`), one
/// `shard<i>` scope per worker (source stage timers — parse/absorb for
/// pcap, gen for simulators — classify timing with a latency histogram,
/// occupancy gauges for table-backed sources), and a `merge` scope
/// (merge timer, `sum_high_water` / `max_live_flows` gauges). When `obs`
/// is `None` every instrument is disabled and the hot path performs no
/// clock reads.
///
/// Metric values are wall-clock and scheduling dependent; they ride the
/// registry only, never the returned accumulator or [`EngineStats`], so
/// attaching a registry cannot perturb byte-compared output.
pub fn run_source<S, T, FI, FO, FM>(
    src: &mut S,
    cfg: &EngineConfig,
    obs: Option<&Registry>,
    init: FI,
    observe: FO,
    mut merge: FM,
) -> (T, EngineStats)
where
    S: FlowSource,
    T: Send,
    FI: Fn() -> T + Sync,
    FO: Fn(&mut T, S::Out) + Sync,
    FM: FnMut(&mut T, T),
{
    let threads = cfg.resolved_threads();
    let final_stamp = AtomicU64::new(0);
    src.prepare(threads);

    let mut stats = EngineStats {
        threads,
        ..EngineStats::default()
    };
    let scope = |name: &str| match obs {
        Some(r) => r.scope(name),
        None => ScopeMetrics::disabled(),
    };
    let mut rm = scope("reader");

    let outcomes: Vec<ShardOutcome<T>> = std::thread::scope(|s| {
        // Delivery is the only thing the shard count selects. One shard
        // runs inline on this thread — the same item sequence and absorb
        // order as behind a channel, so the output is byte-identical,
        // without a worker thread to hop to (`channel_stalls` stays 0).
        // Otherwise every shard is a thread behind a bounded lane.
        let mut inline = None;
        let mut lanes = Vec::new();
        let mut handles = Vec::new();
        if threads == 1 {
            inline = Some(ShardRun::new(src.shard(cfg), init(), scope("shard0")));
        } else {
            for i in 0..threads {
                let (tx, rx) = sync_channel::<Vec<Routed<S::Item>>>(CHANNEL_CAPACITY);
                lanes.push(Lane {
                    tx,
                    pending: Vec::new(),
                });
                let worker = src.shard(cfg);
                let sm = scope(&format!("shard{i}"));
                let (init, observe, final_stamp) = (&init, &observe, &final_stamp);
                handles.push(s.spawn(move || {
                    let mut run = ShardRun::new(worker, init(), sm);
                    for batch in rx.iter() {
                        run.sm.count("batches", 1);
                        for msg in batch {
                            run.absorb(msg.index, msg.item, observe);
                        }
                    }
                    // Channel closed: the reader has published the final
                    // capture stamp.
                    run.finish(final_stamp.load(Ordering::Acquire), observe)
                }));
            }
        }

        let read_sw = rm.start();
        let mut pulled: Vec<S::Item> = Vec::with_capacity(BATCH_SIZE);
        let mut index = 0u64;
        loop {
            pulled.clear();
            let more = src.fill(&mut pulled, BATCH_SIZE);
            for item in pulled.drain(..) {
                stats.records += 1;
                rm.count("records", 1);
                match (src.route(index, &item, threads), &mut inline) {
                    (None, _) => {
                        stats.ingest.unparsable += 1;
                        rm.count("unroutable", 1);
                    }
                    (Some(_), Some(run)) => run.absorb(index, item, &observe),
                    (Some(route), None) => {
                        let lane = lane_of(&mut lanes, route);
                        lane.pending.push(Routed { index, item });
                        if lane.pending.len() >= BATCH_SIZE {
                            lane.flush(&mut stats, &mut rm);
                        }
                    }
                }
                index += 1;
            }
            if !more {
                break;
            }
        }
        for lane in &mut lanes {
            lane.flush(&mut stats, &mut rm);
        }
        stats.corrupt_tail = src.corrupt_tail();
        if stats.corrupt_tail {
            rm.count("corrupt_tail", 1);
        }
        src.publish(&mut rm);
        final_stamp.store(src.final_stamp(), Ordering::Release);
        drop(lanes);
        rm.stop("read", read_sw);

        inline
            .into_iter()
            .map(|run| run.finish(src.final_stamp(), &observe))
            .chain(handles.into_iter().map(|h| {
                // tamperlint: allow(panic) — join() only fails if the shard itself panicked; re-raising preserves the original panic
                h.join().expect("engine shard panicked")
            }))
            .collect()
    });

    // Merge shard accumulators and counters in shard order — deterministic.
    let mut mm = scope("merge");
    let merge_sw = mm.start();
    let mut merged: Option<T> = None;
    let mut sum_high_water = 0u64;
    for o in outcomes {
        stats += o.stats;
        // The engine's peak table occupancy is the *largest* per-shard
        // high-water mark, not the sum of them (the per-shard sum rides
        // the merge scope's `sum_high_water` gauge instead).
        stats.max_live_flows = stats.max_live_flows.max(o.high_water as u64);
        sum_high_water += o.high_water as u64;
        match merged.as_mut() {
            None => merged = Some(o.acc),
            Some(acc) => merge(acc, o.acc),
        }
        if let Some(r) = obs {
            r.publish(o.sm);
        }
    }
    mm.stop("merge", merge_sw);
    mm.gauge_set("threads", threads as u64);
    mm.gauge_max("sum_high_water", sum_high_water);
    mm.gauge_max("max_live_flows", stats.max_live_flows);
    if let Some(r) = obs {
        r.publish(rm);
        r.publish(mm);
    }

    // `resolved_threads` is at least 1, so a shard always reported.
    (merged.unwrap_or_else(init), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;
    use crate::record::EvictionCause;
    use crate::record::{FlowBatch, FlowRecord};
    use crate::source::{PcapMemSource, SimSource};
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr};
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
        PacketBuilder::new(src, server(), sport, 443)
            .flags(flags)
            .seq(seq)
            .payload(Bytes::from_static(payload))
            .build()
            .emit()
            .to_vec()
    }

    /// One closed flow: first-seen index, owned record, eviction cause.
    type Closed = (u64, FlowRecord, EvictionCause);

    /// One shard's batches: `(watermark, lowest first_index in the batch)`.
    type ShardBatches = Vec<(u64, u64)>;

    /// Every closed flow in first-seen order, the run's counters, and each
    /// shard's batches in emission order as `(watermark, lowest
    /// first_index in the batch)`. Every run checks the
    /// watermark promise as batches arrive — no flow a shard emits sits
    /// below a watermark it already reported, and its watermarks never
    /// move back — and that the capture ledger balances.
    fn run_pcap(
        mut src: PcapMemSource,
        cfg: &EngineConfig,
        obs: Option<&Registry>,
    ) -> (Vec<Closed>, EngineStats, Vec<ShardBatches>) {
        let ((mut flows, watermarks), stats) = run_source(
            &mut src,
            cfg,
            obs,
            || (Vec::new(), vec![Vec::new()]),
            |(acc, marks): &mut (Vec<Closed>, Vec<ShardBatches>), batch: FlowBatch| {
                let shard = &mut marks[0];
                let floor = shard.last().map_or(0, |&(w, _)| w);
                for (i, span) in batch.spans().iter().enumerate() {
                    assert!(
                        span.first_index >= floor,
                        "flow {} emitted below watermark {floor}",
                        span.first_index
                    );
                    acc.push((span.first_index, batch.materialize(i), span.cause));
                }
                assert!(batch.watermark() >= floor, "watermark moved back");
                let lowest = batch.spans().iter().map(|s| s.first_index).min();
                shard.push((batch.watermark(), lowest.unwrap_or(u64::MAX)));
            },
            |a, mut b| {
                a.0.append(&mut b.0);
                a.1.append(&mut b.1);
            },
        );
        assert!(stats.is_conserved(), "{stats:?}");
        for shard in &watermarks {
            assert_eq!(
                shard.last().map(|b| b.0),
                Some(u64::MAX),
                "a shard never finished"
            );
        }
        flows.sort_unstable_by_key(|&(first_index, _, _)| first_index);
        (flows, stats, watermarks)
    }

    /// Collect every closed flow in first-seen order.
    fn collect_from(
        src: PcapMemSource,
        cfg: &EngineConfig,
        obs: Option<&Registry>,
    ) -> (Vec<Closed>, EngineStats) {
        let (flows, stats, _) = run_pcap(src, cfg, obs);
        (flows, stats)
    }

    fn collect_flows(bytes: &[u8], cfg: &EngineConfig) -> (Vec<Closed>, EngineStats) {
        let src = PcapMemSource::new(Bytes::copy_from_slice(bytes)).unwrap();
        collect_from(src, cfg, None)
    }

    /// Window sizes the streamed reader is checked at (`None`: default).
    const WINDOWS: [Option<usize>; 4] = [Some(17), Some(100), Some(4096), None];

    /// The same capture read through `from_reader`, `window` bytes at a time.
    fn collect_streamed(
        bytes: &[u8],
        window: Option<usize>,
        cfg: &EngineConfig,
    ) -> (Vec<Closed>, EngineStats) {
        let mut src = PcapMemSource::from_reader(std::io::Cursor::new(bytes.to_vec())).unwrap();
        if let Some(w) = window {
            src = src.with_window(w);
        }
        collect_from(src, cfg, None)
    }

    /// Thread counts crossed with no cap and a tight one.
    fn configs(cap: usize) -> Vec<EngineConfig> {
        [(1, 0), (2, 0), (8, 0), (1, cap), (2, cap), (8, cap)]
            .into_iter()
            .map(|(threads, max_flows)| EngineConfig {
                threads,
                max_flows,
                ..EngineConfig::default()
            })
            .collect()
    }

    fn capture(n_flows: u32) -> Vec<u8> {
        capture_with(n_flows, false)
    }

    /// `n_flows` three-packet flows a second apart; `pinned` adds one more,
    /// born at record 0, that sends an ACK every 10 s for the whole
    /// capture and so never times out.
    fn capture_with(n_flows: u32, pinned: bool) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n_flows {
            let c = client((1 + i % 200) as u8);
            let sport = 4000 + (i % 10_000) as u16;
            let t = 100 + i;
            if pinned && i % 10 == 0 {
                w.write_frame(t, 0, &frame(client(250), 9999, TcpFlags::ACK, i, b""))
                    .unwrap();
            }
            w.write_frame(t, 0, &frame(c, sport, TcpFlags::SYN, 1, b""))
                .unwrap();
            w.write_frame(t, 1, &frame(c, sport, TcpFlags::ACK, 2, b""))
                .unwrap();
            w.write_frame(t + 1, 0, &frame(c, sport, TcpFlags::PSH_ACK, 2, b"hello"))
                .unwrap();
        }
        w.into_inner()
    }

    /// Byte offsets at which the records of a well-formed capture start.
    fn record_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut at = 24;
        while at < bytes.len() {
            starts.push(at);
            let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap());
            at += 16 + len as usize;
        }
        starts
    }

    #[test]
    fn engine_matches_flows_from_pcap_for_any_thread_count() {
        let bytes = capture(120);
        let (buffered_flows, buffered_stats) =
            crate::offline::flows_from_pcap(&bytes[..], &OfflineConfig::default()).unwrap();
        for threads in [1, 2, 3, 8] {
            let cfg = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let (flows, stats) = collect_flows(&bytes, &cfg);
            assert_eq!(flows.len(), buffered_flows.len(), "threads={threads}");
            for ((_, flow, _), bf) in flows.iter().zip(&buffered_flows) {
                assert_eq!(flow, bf, "threads={threads}");
            }
            assert_eq!(stats.ingest, buffered_stats, "threads={threads}");
        }
    }

    #[test]
    fn timeout_eviction_splits_idle_flows() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        // One flow goes quiet for > 30s then resumes: two flows.
        w.write_frame(100, 0, &frame(client(1), 4000, TcpFlags::SYN, 1, b""))
            .unwrap();
        // Unrelated traffic advances the capture clock past the timeout.
        w.write_frame(140, 0, &frame(client(2), 4001, TcpFlags::SYN, 1, b""))
            .unwrap();
        w.write_frame(141, 0, &frame(client(1), 4000, TcpFlags::PSH_ACK, 2, b"x"))
            .unwrap();
        let bytes = w.into_inner();
        let (flows, stats) = collect_flows(
            &bytes,
            &EngineConfig {
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(stats.ingest.flows, 3);
        assert_eq!(stats.evicted_timeout, 1);
        assert_eq!(stats.drained_eof, 2);
        assert_eq!(flows[0].2, EvictionCause::Timeout);
        assert_eq!(flows[0].1.observation_end_sec, 100 + 30);
    }

    #[test]
    fn max_flows_bounds_live_tables() {
        let bytes = capture(3000);
        let cfg = EngineConfig {
            threads: 4,
            max_flows: 64,
            ..EngineConfig::default()
        };
        let (_, stats) = collect_flows(&bytes, &cfg);
        assert!(stats.evicted_cap > 0, "cap must have engaged");
        // max_live_flows is the largest per-shard high-water mark, so with
        // threads=4 and max_flows=64 it is bounded by the per-shard cap of
        // 16, not by the global 64.
        assert_eq!(cfg.per_shard_cap(), 16);
        assert!(
            stats.max_live_flows <= 16,
            "peak live flows {} exceeded the per-shard cap",
            stats.max_live_flows
        );
        assert!(stats.max_live_flows > 0, "peak occupancy must be observed");
    }

    #[test]
    fn corrupt_tail_is_counted_not_fatal() {
        let mut bytes = capture(10);
        bytes.truncate(bytes.len() - 7);
        let (flows, stats) = collect_flows(
            &bytes,
            &EngineConfig {
                threads: 2,
                ..Default::default()
            },
        );
        assert!(stats.corrupt_tail);
        assert_eq!(stats.records, 29); // the torn 30th record is dropped
        assert!(!flows.is_empty());
    }

    #[test]
    fn garbage_frames_are_counted_either_side_of_the_channel() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_frame(100, 0, &frame(client(1), 4000, TcpFlags::SYN, 1, b""))
            .unwrap();
        // Fails the route peek: at two shards the reader drops it, at one
        // `route` accepts everything and the shard's parse rejects it.
        w.write_frame(100, 1, &[0u8; 3]).unwrap();
        // Valid-looking v4/TCP shape but a corrupt checksum: routes to a
        // shard, fails full parse there.
        let mut good = frame(client(1), 4001, TcpFlags::SYN, 1, b"");
        good[11] ^= 0xff;
        w.write_frame(100, 2, &good).unwrap();
        let bytes = w.into_inner();
        for threads in [1, 2] {
            let (_, stats) = collect_flows(
                &bytes,
                &EngineConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(stats.ingest.unparsable, 2, "threads={threads}");
            assert_eq!(stats.ingest.flows, 1, "threads={threads}");
        }
    }

    #[test]
    fn observed_run_publishes_scopes_without_changing_output() {
        let bytes = capture(100);
        let cfg = EngineConfig {
            threads: 3,
            ..EngineConfig::default()
        };
        let (plain_flows, plain_stats) = collect_flows(&bytes, &cfg);

        let reg = Registry::new();
        let src = PcapMemSource::new(Bytes::from(bytes)).unwrap();
        let (flows, stats) = collect_from(src, &cfg, Some(&reg));
        assert_eq!(flows, plain_flows);
        assert_eq!(stats, plain_stats, "registry must not perturb stats");

        let snap = reg.snapshot();
        let names: Vec<&str> = snap.scopes.iter().map(|s| s.scope.as_str()).collect();
        assert_eq!(names, vec!["merge", "reader", "shard0", "shard1", "shard2"]);
        let reader = snap.scope("reader").unwrap();
        assert_eq!(reader.counter("records"), stats.records);
        assert!(reader.timer("read").is_some());
        // Every routed record reaches some shard exactly once.
        assert_eq!(snap.counter_sum("shard", "records"), stats.records);
        assert_eq!(
            snap.counter_sum("shard", "flows_closed"),
            stats.ingest.flows
        );
        let merge = snap.scope("merge").unwrap();
        assert_eq!(merge.gauge("threads"), 3);
        assert_eq!(merge.gauge("max_live_flows"), stats.max_live_flows);
        assert!(merge.gauge("sum_high_water") >= merge.gauge("max_live_flows"));
        let shard0 = snap.scope("shard0").unwrap();
        assert!(shard0.histogram("classify_latency_ns").is_some());
        assert!(shard0.timer("parse").is_some());
    }

    #[test]
    fn output_is_independent_of_batch_size() {
        let bytes = capture(300);
        // Exercise cap pressure too, so every eviction cause appears.
        for (threads, max_flows) in [(1, 0), (2, 0), (8, 0), (2, 32)] {
            let cfg = EngineConfig {
                threads,
                max_flows,
                ..EngineConfig::default()
            };
            let run = |batch_flows: usize| {
                let src = PcapMemSource::new(Bytes::from(bytes.clone()))
                    .unwrap()
                    .with_batch_flows(batch_flows);
                collect_from(src, &cfg, None)
            };
            let (base, base_stats) = run(1);
            assert!(!base.is_empty());
            for batch_flows in [7, 512] {
                let (got, stats) = run(batch_flows);
                assert_eq!(got, base, "threads={threads} batch_flows={batch_flows}");
                assert_eq!(
                    stats, base_stats,
                    "threads={threads} batch_flows={batch_flows}"
                );
            }
        }
    }

    #[test]
    fn sim_source_preserves_serial_fold_order_at_any_shard_count() {
        // A generator that drops every 7th index; the engine must fold the
        // survivors in exactly serial order for any thread count, because
        // shards own contiguous chunks merged in shard order.
        let total = 1000u64;
        let gen =
            |_: &mut (), i: u64| -> Option<u64> { (!i.is_multiple_of(7)).then_some(i * 3 + 1) };
        let serial: Vec<u64> = (0..total).filter_map(|i| gen(&mut (), i)).collect();
        for threads in [1usize, 2, 3, 8] {
            let cfg = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let (got, stats) = run_source(
                &mut SimSource::new(total, &gen),
                &cfg,
                None,
                Vec::new,
                |acc: &mut Vec<u64>, v| acc.push(v),
                |a: &mut Vec<u64>, mut b| a.append(&mut b),
            );
            assert_eq!(got, serial, "threads={threads}");
            assert_eq!(stats.records, total);
            assert_eq!(stats.ingest.flows, serial.len() as u64);
        }
    }

    #[test]
    fn window_edges_change_nothing() {
        let bytes = capture(300);
        for cfg in configs(8) {
            let base = collect_flows(&bytes, &cfg);
            assert!(base.1.evicted_timeout > 0 || cfg.max_flows > 0);
            assert_eq!(base.1.evicted_cap > 0, cfg.max_flows > 0, "{cfg:?}");
            for window in WINDOWS {
                let got = collect_streamed(&bytes, window, &cfg);
                assert!(got == base, "window {window:?}, {cfg:?}");
            }
        }
    }

    #[test]
    fn a_tail_torn_anywhere_in_the_last_two_records_reads_the_same_streamed() {
        let full = capture(6);
        let starts = record_starts(&full);
        for cut in starts[starts.len() - 2]..full.len() {
            let torn = &full[..cut];
            for cfg in configs(4) {
                let base = collect_flows(torn, &cfg);
                assert_eq!(base.1.corrupt_tail, !starts.contains(&cut), "cut {cut}");
                for window in WINDOWS {
                    let got = collect_streamed(torn, window, &cfg);
                    assert!(got == base, "cut {cut}, window {window:?}, {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn an_oversize_length_straddling_a_window_edge_is_a_corrupt_tail() {
        // A 90-byte first record puts the second record's incl_len at
        // stream bytes 122..126: across the edge of a 100-byte window,
        // which starts right after the 24-byte global header.
        static PAD: [u8; 64] = [b'x'; 64];
        let pad = 74 - frame(client(1), 4000, TcpFlags::ACK, 1, b"").len();
        let first = frame(client(1), 4000, TcpFlags::ACK, 1, &PAD[..pad]);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_frame(100, 0, &first).unwrap();
        w.write_frame(101, 0, &frame(client(2), 4001, TcpFlags::SYN, 1, b""))
            .unwrap();
        let mut bytes = w.into_inner();
        let incl_len = 24 + 16 + first.len() + 8;
        assert!(incl_len < 24 + 100 && 24 + 100 < incl_len + 4);
        bytes[incl_len..incl_len + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        for cfg in configs(1) {
            let base = collect_flows(&bytes, &cfg);
            assert!(base.1.corrupt_tail);
            assert_eq!((base.1.records, base.0.len()), (1, 1));
            for window in WINDOWS {
                assert!(collect_streamed(&bytes, window, &cfg) == base, "{window:?}");
            }
        }
    }

    #[test]
    fn watermarks_hold_behind_a_flow_open_for_the_whole_capture() {
        let bytes = capture_with(200, true);
        for cfg in configs(32) {
            let base = collect_flows(&bytes, &cfg);
            let pinned = base.0.first().map(|(i, _, cause)| (*i, *cause));
            if cfg.max_flows == 0 {
                assert_eq!(pinned, Some((0, EvictionCause::EndOfCapture)));
            } else {
                assert!(base.1.evicted_cap > 0, "cap never shed");
            }
            for batch_flows in [1, 7, 512] {
                let src = PcapMemSource::new(Bytes::copy_from_slice(&bytes))
                    .unwrap()
                    .with_batch_flows(batch_flows);
                let (flows, stats, watermarks) = run_pcap(src, &cfg, None);
                assert!(flows == base.0 && stats == base.1, "{batch_flows} {cfg:?}");
                if cfg.max_flows > 0 || batch_flows == 512 {
                    continue;
                }
                // The shard holding the pinned flow promises nothing past
                // its birth, record 0, until the batch that closes it.
                let held = |batches: &ShardBatches| {
                    let closed = batches.iter().position(|&(_, lowest)| lowest == 0);
                    closed.is_some_and(|k| k > 0 && batches[..k].iter().all(|&(w, _)| w == 0))
                };
                assert!(watermarks.iter().any(held), "{batch_flows} {cfg:?}");
                if cfg.threads == 1 {
                    assert!(held(&watermarks[0]));
                }
            }
        }
    }
}
