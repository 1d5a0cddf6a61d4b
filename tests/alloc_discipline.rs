//! Allocation discipline: the steady-state classify path must not touch
//! the heap. A warm [`BatchClassifier`] replaying the golden corpus
//! performs **zero** allocations on every flow whose verdict carries no
//! trigger domain, on both storage layouts (owned records and arena-backed
//! batches) — the classifier's scratch buffers (order, rsts, dedup)
//! reuse capacity from earlier flows. Flows that *do* yield a domain pay
//! exactly the waived verdict-owned string and nothing else grows
//! between passes.
//!
//! Each hot root of the per-packet and per-flow pipeline holds a warm
//! assertion here: `BatchClassifier::classify_flow` and
//! `classify_batch` at zero, a pcap source's `FlowSource::fill` and its
//! shard's `SourceShard::absorb` at their measured counts, and
//! `EndpointMachine::process` through the warm direct session below. A
//! fresh `Vec`, `format!` or clone per packet or per flow on any of them
//! breaks its budget. The simulator side
//! has budgets instead of a zero: through a warm session workspace, a
//! direct TLS session and the average standard-world session may not grow
//! back past the heap requests their own bytes need. So has `merge`:
//! folding a `.agg` partial into a warm accumulator may allocate only for
//! the keys it adds, the report view may not grow with the pair keys, and
//! building the world may not build the samplers only sessions read. Two
//! roots are held whole: one `cli::classify --jsonl` run, which reads
//! every flow in place off its batch, and a warm `Collector::observe`,
//! whose aggregate reads no packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use tamperscope::analysis::{encode_agg, fold_agg, Collector, PartialAggregate};
use tamperscope::capture::{
    flows_from_pcap, EngineConfig, EvictionCause, FlowBatch, FlowRecord, FlowSource, OfflineConfig,
    PcapMemSource, PcapWriter, ShardStats, SourceShard,
};
use tamperscope::cli::{classify as run_classify, Render};
use tamperscope::core::{classify, BatchClassifier, ClassifierConfig};
use tamperscope::netsim::{
    derive_rng, ClientConfig, Path, ServerConfig, SessionParams, SessionWorkspace, SimDuration,
    SimTime,
};
use tamperscope::worldgen::{world_fingerprint, WorldConfig, WorldSim};

/// A counting pass-through allocator: every heap request bumps the
/// calling thread's counter, so the tests — which the harness runs on
/// parallel threads — never see each other's allocations.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading them inside the
    // allocator neither allocates nor registers thread-exit work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one heap request of `size` bytes.
fn bump(size: usize) {
    // `try_with`: a request after this thread's locals are gone is
    // simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap requests made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread's heap requests so far asked for (a
/// `realloc` counts its new size).
fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The golden corpus capture's bytes.
fn golden_pcap() -> Vec<u8> {
    std::fs::read(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("fixtures")
            .join("golden.pcap"),
    )
    .expect("tests/fixtures/golden.pcap present")
}

/// The golden corpus as flow records, in first-seen order.
fn golden_flows() -> Vec<FlowRecord> {
    let bytes = golden_pcap();
    let (flows, _stats) =
        flows_from_pcap(&bytes, &OfflineConfig::default()).expect("golden corpus replays");
    assert!(!flows.is_empty(), "golden corpus yielded no flows");
    flows
}

#[test]
fn warm_machine_analyzes_the_golden_corpus_without_allocating() {
    let flows = golden_flows();
    let mut clf = BatchClassifier::new(ClassifierConfig::default());

    // Warm pass: scratch buffers grow to the corpus' high-water marks.
    // Record which flows legitimately allocate a verdict-owned trigger
    // domain.
    let mut warm_verdicts = Vec::with_capacity(flows.len());
    let mut has_domain = Vec::with_capacity(flows.len());
    for flow in &flows {
        let analysis = clf.classify_flow(flow);
        has_domain.push(analysis.trigger.domain.is_some());
        warm_verdicts.push(analysis.classification);
    }

    // Steady state: a second pass over the domain-free flows must not
    // allocate at all — those flows exercise the full reorder/classify
    // path with zero heap traffic once the classifier is warm.
    let measured: Vec<_> = flows
        .iter()
        .zip(&has_domain)
        .filter(|(_, d)| !**d)
        .map(|(flow, _)| flow)
        .collect();
    assert!(
        measured.len() >= flows.len() / 2,
        "expected most golden flows to be domain-free ({} of {})",
        measured.len(),
        flows.len()
    );
    let before = allocations();
    for &flow in &measured {
        let analysis = clf.classify_flow(flow);
        assert!(
            analysis.trigger.domain.is_none(),
            "domain appeared on re-analysis"
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state BatchClassifier::classify_flow allocated {} time(s) over {} domain-free flows",
        after - before,
        measured.len()
    );

    // Domain-bearing flows are bounded too: each re-analysis may allocate
    // only the verdict-owned host/SNI string (at most a handful of heap
    // requests per flow — never unbounded growth between passes).
    let domain_flows: Vec<_> = flows
        .iter()
        .zip(&has_domain)
        .filter(|(_, d)| **d)
        .map(|(flow, _)| flow)
        .collect();
    let before = allocations();
    for &flow in &domain_flows {
        assert!(clf.classify_flow(flow).trigger.domain.is_some());
    }
    let after = allocations();
    let per_flow_budget = 4 * domain_flows.len() as u64;
    assert!(
        after - before <= per_flow_budget,
        "domain-bearing flows allocated {} time(s); budget {} ({} flows)",
        after - before,
        per_flow_budget,
        domain_flows.len()
    );

    // The measured pass produced the same verdicts the warm pass did.
    let verdicts: Vec<_> = flows
        .iter()
        .map(|flow| clf.classify_flow(flow).classification)
        .collect();
    assert_eq!(verdicts, warm_verdicts, "verdicts drifted between passes");
}

/// Pack flows into one [`FlowBatch`], the shape the engine hands to
/// per-shard sinks.
fn batch_of(flows: &[&FlowRecord]) -> FlowBatch {
    let mut batch = FlowBatch::new();
    for (i, flow) in flows.iter().enumerate() {
        batch.push_record(flow, i as u64, EvictionCause::EndOfCapture);
    }
    batch
}

#[test]
fn warm_batch_classifier_processes_a_batch_without_allocating() {
    let flows = golden_flows();
    let cfg = ClassifierConfig::default();
    // Domain-bearing flows legitimately allocate their verdict-owned
    // host string; the zero-alloc guarantee covers everything else.
    let domain_free: Vec<&FlowRecord> = flows
        .iter()
        .filter(|&flow| classify(flow, &cfg).trigger.domain.is_none())
        .collect();
    assert!(
        domain_free.len() >= flows.len() / 2,
        "expected most golden flows to be domain-free ({} of {})",
        domain_free.len(),
        flows.len()
    );
    let batch = batch_of(&domain_free);
    let mut clf = BatchClassifier::new(cfg);

    // Warm pass: the classifier's scratch and output buffers grow to the
    // batch's high-water marks.
    let warm: Vec<_> = clf
        .classify_batch(&batch)
        .iter()
        .map(|a| a.classification)
        .collect();
    assert_eq!(warm.len(), domain_free.len());

    // Steady state: re-classifying a whole batch is allocation-free — the
    // engine's per-batch hot loop makes zero heap requests once warm.
    let before = allocations();
    let n = clf.classify_batch(&batch).len();
    let after = allocations();
    assert_eq!(n, domain_free.len());
    assert_eq!(
        after - before,
        0,
        "warm BatchClassifier::classify_batch allocated {} time(s) over a {}-flow batch",
        after - before,
        n
    );

    // And a further pass yields the same verdicts.
    let again: Vec<_> = clf
        .classify_batch(&batch)
        .iter()
        .map(|a| a.classification)
        .collect();
    assert_eq!(again, warm, "verdicts drifted between batch passes");
}

/// Heap requests a direct TLS session makes through a warm workspace:
/// the ClientHello's buffer and its shared handle. The event heap, packet
/// slab, trace and action buffers are the workspace's, sized by earlier
/// sessions; a packet that allocated (an option list, a per-segment
/// body) or a buffer rebuilt per session takes it back over ten.
const WARM_DIRECT_SESSION_ALLOCS: u64 = 2;

/// Heap requests the first 2,000 standard-world sessions make through one
/// warm workspace, together: 6.08 a session, for the strings a
/// session's request carries, its ClientHello or GET, its path and
/// middlebox, and the flow record it yields. One-shot sessions made 31.1
/// before the workspace existed.
const WARM_WORLD_2000_SESSION_ALLOCS: u64 = 12_153;

#[test]
fn one_direct_tls_session_stays_within_its_allocation_budget() {
    let client_ip = "203.0.113.2".parse().unwrap();
    let server_ip = "198.51.100.1".parse().unwrap();
    // The `netsim.session.direct` probe's session.
    let params = || {
        let cfg = ClientConfig::default_tls(client_ip, server_ip, "fine.example.org");
        SessionParams::new(
            cfg,
            ServerConfig::default_edge(server_ip, 443),
            SimTime::ZERO,
        )
    };
    let mut path = Path::direct(SimDuration::from_millis(50), 13);
    let mut ws = SessionWorkspace::default();
    ws.run(params(), &mut path, &mut derive_rng(11, 0));
    let params = params();
    let before = allocations();
    let trace = ws.run(params, &mut path, &mut derive_rng(11, 0));
    let after = allocations();
    assert!(
        trace.inbound().count() >= 6,
        "the session ran to a graceful close"
    );
    assert!(
        after - before <= WARM_DIRECT_SESSION_ALLOCS,
        "a warm direct TLS session made {} heap requests; budget {WARM_DIRECT_SESSION_ALLOCS}",
        after - before
    );
}

#[test]
fn warm_world_sessions_stay_within_their_allocation_budget() {
    let sim = WorldSim::new(WorldConfig::default());
    let mut ws = SessionWorkspace::default();
    let mut pass = || {
        let before = allocations();
        let flows = (0..2_000)
            .filter_map(|i| sim.gen_session_in(&mut ws, i))
            .count();
        (allocations() - before, flows)
    };
    pass();
    let (allocs, flows) = pass();
    assert_eq!(flows, 2_000, "every session yields a flow");
    assert!(
        allocs <= WARM_WORLD_2000_SESSION_ALLOCS,
        "2,000 warm world sessions made {allocs} heap requests ({:.2} a session); budget {WARM_WORLD_2000_SESSION_ALLOCS}",
        allocs as f64 / 2_000.0
    );
}

/// Heap requests folding one `pop-run` partial into a warm accumulator
/// makes: the partial is one of 57 PoPs of a 20,000-session, 14-day
/// standard world (~350 flows, like one of the 285 PoPs of a 100k-session
/// run), the accumulator holds the other 56. What is left is one pair
/// sequence for each of its 307 new `(ip, domain)` keys and the map nodes
/// new keys split; no table of the partial's own is built. Decoding the
/// same partial and merging the result made 1,443 (1,073 + 370).
const WARM_FOLD_ALLOCS: u64 = 370;

/// Heap requests `view()` makes over the 57 merged partials below: one
/// sample vector for each non-empty IP-ID and TTL reservoir (34 of 40)
/// and the two vectors holding them, whatever the number of pair keys.
/// When `view()` copied the 15,575 pair sequences as well it made
/// 15,612.
const VIEW_ALLOCS: u64 = 36;

/// What `WorldSim::new` asks of the heap for the standard world: the
/// registry, the 4,000-domain catalog and the per-country AS and
/// diurnal tables. The per-country domain and hour samplers (67 weight
/// tables over 4,000 domains) wait for the first session; building them
/// here took 9,497 requests for 7,122,198 bytes.
const WORLD_NEW_ALLOCS: u64 = 8_356;
const WORLD_NEW_BYTES: u64 = 541_190;

/// PoPs the [`pop_partials`] world is split into.
const POPS: usize = 57;

/// The standard 20,000-session, 14-day world split into [`POPS`]
/// `pop-run` partials: the world, its fingerprint salt, and the files.
fn pop_partials() -> &'static (WorldSim, u64, Vec<Vec<u8>>) {
    static PARTIALS: OnceLock<(WorldSim, u64, Vec<Vec<u8>>)> = OnceLock::new();
    PARTIALS.get_or_init(|| {
        let sim = WorldSim::new(WorldConfig {
            sessions: 20_000,
            days: 14,
            ..WorldConfig::default()
        });
        let (n, start) = (sim.world().len(), sim.config().start_unix);
        let salt = world_fingerprint(sim.config());
        let mk = || Collector::with_salt(ClassifierConfig::default(), n, 14, start, salt);
        let mut cols: Vec<Collector> = (0..POPS).map(|_| mk()).collect();
        sim.run(|lf| cols[sim.pop_of(POPS, &lf)].observe(&lf));
        let files = cols.iter().map(|c| encode_agg(c.partial())).collect();
        (sim, salt, files)
    })
}

/// An empty accumulator for the [`pop_partials`] world, as `merge`
/// builds it.
fn pop_accumulator() -> PartialAggregate {
    let (sim, salt, _) = pop_partials();
    let (n, start) = (sim.world().len(), sim.config().start_unix);
    PartialAggregate::with_salt(ClassifierConfig::default(), n, 14, start, *salt)
}

#[test]
fn folding_a_partial_into_a_warm_accumulator_stays_within_its_budget() {
    let (sim, _, files) = pop_partials();
    let domains = sim.config().catalog_size;
    let mut acc = pop_accumulator();
    for file in &files[1..] {
        fold_agg(&mut acc, file, domains).expect("a partial of this world folds");
    }
    let total = acc.total;
    let before = allocations();
    fold_agg(&mut acc, &files[0], domains).expect("a partial of this world folds");
    let allocs = allocations() - before;
    assert!(
        allocs <= WARM_FOLD_ALLOCS,
        "folding a {}-flow partial into a warm accumulator made {allocs} heap requests; budget {WARM_FOLD_ALLOCS}",
        acc.total - total
    );
}

#[test]
fn the_report_view_does_not_copy_the_pair_sequences() {
    let (sim, _, files) = pop_partials();
    let mut acc = pop_accumulator();
    for file in files {
        fold_agg(&mut acc, file, sim.config().catalog_size).expect("a partial of this world folds");
    }
    let before = allocations();
    let view = acc.view();
    let allocs = allocations() - before;
    drop(view);
    assert!(
        allocs <= VIEW_ALLOCS,
        "view() over {} pair keys made {allocs} heap requests; budget {VIEW_ALLOCS}",
        acc.pair_seqs.len()
    );
}

#[test]
fn building_the_standard_world_leaves_the_samplers_to_the_first_session() {
    let cfg = WorldConfig::default();
    let (allocs, bytes) = (allocations(), allocated_bytes());
    let sim = WorldSim::new(cfg);
    let (allocs, bytes) = (allocations() - allocs, allocated_bytes() - bytes);
    assert!(
        allocs <= WORLD_NEW_ALLOCS && bytes <= WORLD_NEW_BYTES,
        "WorldSim::new made {allocs} heap requests for {bytes} bytes; budget {WORLD_NEW_ALLOCS} for {WORLD_NEW_BYTES}"
    );
    // The first session builds them, on whatever thread runs it.
    assert!(sim.gen_session(0).is_some());
}

/// The golden capture's records `copies` times over, each copy shifted
/// past the previous one's last timestamp and the flow timeout, so a
/// shard closes one copy's flows while it absorbs the next.
fn repeated_golden(copies: u32) -> Vec<u8> {
    let golden = golden_pcap();
    let mut records = Vec::new();
    let mut at = 24;
    while at < golden.len() {
        let word = |k: usize| u32::from_le_bytes(golden[at + k..at + k + 4].try_into().unwrap());
        let len = word(8) as usize;
        records.push((word(0), word(4), &golden[at + 16..at + 16 + len]));
        at += 16 + len;
    }
    let span =
        records.iter().map(|r| r.0).max().unwrap() - records.iter().map(|r| r.0).min().unwrap();
    let shift = span + 2 * OfflineConfig::default().flow_timeout_secs as u32;
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for c in 0..copies {
        for &(ts, usec, frame) in &records {
            w.write_frame(ts + c * shift, usec, frame).expect("frame");
        }
    }
    w.into_inner()
}

/// Heap requests a reader-backed pcap source makes framing the warm part
/// of [`FILL_COPIES`] golden copies (78,000 records, ~4.3 MiB) while the
/// items it hands out are dropped between fills, as the engine's shards
/// drop them: one per ~1 MiB window, the shared handle on the buffer it
/// reuses. Framing a record copies nothing and allocates nothing.
const WARM_FILL_ALLOCS: u64 = 5;
const FILL_COPIES: u32 = 1_000;

#[test]
fn a_warm_pcap_source_fills_within_its_allocation_budget() {
    let bytes = repeated_golden(FILL_COPIES);
    let mut src = PcapMemSource::from_reader(std::io::Cursor::new(bytes)).expect("pcap header");
    src.prepare(1);
    let mut out = Vec::with_capacity(1_024);
    let mut more = src.fill(&mut out, 1_024);
    let mut items = out.len();
    out.clear();
    let before = allocations();
    while more {
        more = src.fill(&mut out, 1_024);
        items += out.len();
        out.clear();
    }
    let allocs = allocations() - before;
    assert!(!src.corrupt_tail() && src.read_error().is_none());
    assert!(
        allocs <= WARM_FILL_ALLOCS,
        "framing {items} records made {allocs} heap requests; budget {WARM_FILL_ALLOCS}"
    );
}

/// Heap requests a warm pcap shard makes absorbing the second half of
/// [`ABSORB_COPIES`] golden copies (7,800 packets, 3,675 flows closed),
/// emitted batches dropped as the engine drops them once observed: the
/// growth of each fresh 512-flow batch's rows, arena and spans, and the
/// age map's nodes as flows come and go — 0.17 a flow. One allocation
/// per flow or per packet would more than double it.
const WARM_ABSORB_ALLOCS: u64 = 616;
const ABSORB_COPIES: u32 = 200;

#[test]
fn a_warm_pcap_shard_absorbs_within_its_allocation_budget() {
    let mut src = PcapMemSource::new(repeated_golden(ABSORB_COPIES).into()).expect("pcap header");
    src.prepare(1);
    let mut items = Vec::new();
    while src.fill(&mut items, usize::MAX) {}
    let mut shard = src.shard(&EngineConfig::default());
    let (mut stats, mut emit) = (ShardStats::default(), Vec::new());
    let mut sm = tamperscope::obs::ScopeMetrics::disabled();
    let half = items.len() / 2;
    let mut absorb = |range: std::ops::Range<usize>, items: &[_]| {
        for i in range {
            let item: &tamperscope::capture::PcapMemItem = &items[i];
            shard.absorb(i as u64, item.clone(), &mut stats, &mut emit, &mut sm);
            emit.clear();
        }
    };
    absorb(0..half, &items);
    let before = allocations();
    absorb(half..items.len(), &items);
    let allocs = allocations() - before;
    assert_eq!(stats.ingest.unparsable, 0);
    assert!(
        allocs <= WARM_ABSORB_ALLOCS,
        "absorbing {} packets ({} flows closed) made {allocs} heap requests; budget {WARM_ABSORB_ALLOCS}",
        items.len() - half,
        stats.evicted_timeout
    );
}

/// Heap requests one `classify --jsonl --threads 1` run makes over
/// [`CLASSIFY_COPIES`] golden copies (1,050 flows) into a `Vec`: the
/// engine's shard, its batches and flow table, the trigger domains, the
/// verdict segments and the sink's growth — 0.68 a flow. Handing each flow
/// to the renderers as an owned record made 5,662.
const CLASSIFY_JSONL_ALLOCS: u64 = 712;
const CLASSIFY_COPIES: u32 = 50;

#[test]
fn classify_jsonl_stays_within_its_allocation_budget() {
    let mut src = PcapMemSource::new(repeated_golden(CLASSIFY_COPIES).into()).expect("pcap header");
    let engine = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let before = allocations();
    let run = run_classify(&mut src, &engine, Render::Jsonl, false, Vec::new(), None);
    let allocs = allocations() - before;
    let out = run
        .written
        .expect("no read error")
        .expect("a Vec takes every line");
    assert_eq!(run.collector.total, 21 * u64::from(CLASSIFY_COPIES));
    assert_eq!(
        out.iter().filter(|&&b| b == b'\n').count() as u64,
        run.collector.total
    );
    assert!(
        allocs <= CLASSIFY_JSONL_ALLOCS,
        "classify --jsonl over {} flows made {allocs} heap requests; budget {CLASSIFY_JSONL_ALLOCS}",
        run.collector.total
    );
}

/// Heap requests a warm [`Collector::observe`] makes over the second
/// 2,000 flows of the standard world, the first 2,000 observed before:
/// the trigger domains the verdicts own and the aggregate's new map
/// entries. Reading the firewall User-Agent off an owned request made
/// 4,203.
const WARM_OBSERVE_2000_ALLOCS: u64 = 3_695;

#[test]
fn a_warm_collector_observes_world_flows_within_its_budget() {
    let sim = WorldSim::new(WorldConfig::default());
    let flows: Vec<_> = (0..4_000).filter_map(|i| sim.gen_session(i)).collect();
    assert_eq!(flows.len(), 4_000, "every session yields a flow");
    let cfg = sim.config();
    let mut col = Collector::new(
        ClassifierConfig::default(),
        sim.world().len(),
        cfg.days,
        cfg.start_unix,
    );
    let (warm, measured) = flows.split_at(2_000);
    warm.iter().for_each(|lf| col.observe(lf));
    let before = allocations();
    measured.iter().for_each(|lf| col.observe(lf));
    let allocs = allocations() - before;
    assert!(
        allocs <= WARM_OBSERVE_2000_ALLOCS,
        "observing 2,000 warm world flows made {allocs} heap requests; budget {WARM_OBSERVE_2000_ALLOCS}"
    );
}
