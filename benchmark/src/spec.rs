//! What the benchmark runs and reports: the four workloads with their
//! input sizes, and the metric tables `BENCHMARK.json` mirrors.

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `classify` over a simulator-mix capture with a large live-flow set.
    PcapMix,
    /// `classify --max-flows` over a half-open SYN flood.
    PcapFlood,
    /// `report`: simulate and aggregate, no pcap layer involved.
    SimReport,
    /// `merge` of per-PoP partial aggregates into the full report.
    PopMerge,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 4] = [
        Workload::PcapMix,
        Workload::PcapFlood,
        Workload::SimReport,
        Workload::PopMerge,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PcapMix => "pcap-mix",
            Workload::PcapFlood => "pcap-flood",
            Workload::SimReport => "sim-report",
            Workload::PopMerge => "pop-merge",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Input sizes. They are a third of what the issue that introduced the
// benchmark sketched, because one run must fit three timed set-ups, a
// warm-up and the measurement window into about twenty seconds; the
// properties each workload exists for (live-flow high water, cap
// pressure, generator share, decode share) are kept and tested.

/// Flows in `mix.pcap`.
pub const MIX_FLOWS: u64 = 100_000;
/// New flows per capture-second in `mix.pcap`; with ~30 s flow lifetimes
/// this holds about 30k flows live.
pub const MIX_FLOWS_PER_SEC: u64 = 1_000;
/// SYN-only flows in `flood.pcap`: whole capture-seconds of them.
pub const FLOOD_FLOWS: u64 = 40_000;
/// New flows per capture-second in `flood.pcap`.
pub const FLOOD_FLOWS_PER_SEC: u64 = 20_000;
/// Every n-th flood flow gets one more packet a second later.
pub const FLOOD_TOUCH_EVERY: u64 = 8;
/// `--max-flows` on `pcap-flood`. Between a flow's SYN and its touch a
/// second later at least `FLOOD_FLOWS_PER_SEC / FLOOD_TOUCH_EVERY` other
/// flows open, so with a cap below that the flow has always been shed by
/// then and the touch opens a flow of its own.
pub const FLOOD_CAP: u64 = 2_048;
const _: () = assert!(FLOOD_FLOWS_PER_SEC / FLOOD_TOUCH_EVERY > FLOOD_CAP);
const _: () = assert!(FLOOD_FLOWS.is_multiple_of(FLOOD_FLOWS_PER_SEC));
/// `--sessions` on `sim-report`.
pub const SIM_SESSIONS: u64 = 100_000;
/// `--sessions` on `pop-merge` (and its `pop-run` set-up).
pub const POP_SESSIONS: u64 = 100_000;
/// `--pops` for the `pop-run` set-up: the paper's 285 points of presence.
pub const POPS: u64 = 285;
/// `--days` everywhere: the paper's two-week window.
pub const DAYS: u64 = 14;

/// An end-to-end metric: name, unit, whether lower is better, and the
/// share of the reference value by which it may get worse.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Regression bound as a share of the reference.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload.
///
/// The timing bounds are wider than a quiet machine needs. On the shared
/// two-core host the baseline was taken on, back-to-back runs of identical
/// code agree to 0.2-1% in a quiet stretch but drift by several per cent
/// for minutes at a time in a busy one (distance between quartiles of ten
/// runs, as a share of their median: `wall_s` up to 3.2% on `sim-report`
/// and 4.5% on `pop-merge`), and a bound has to sit at three times the
/// spread to tell a regression from that drift. Peak RSS repeats to 0.4%.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "flows_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.03,
    },
];

/// The per-layer metrics (name, unit), reported for every workload by a
/// traced run. A layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("cli.load_ms", "ms"),
    ("capture.source.fill_ns_per_record", "ns"),
    ("wire.parse_ns_per_packet", "ns"),
    ("wire.parse_failed", "count"),
    ("wire.emit_ns_per_packet", "ns"),
    ("capture.offline.absorb_ns_per_packet", "ns"),
    ("capture.offline.shed_ns_per_evicted_flow", "ns"),
    ("capture.offline.high_water_flows", "count"),
    ("capture.offline.evicted_timeout", "count"),
    ("capture.offline.evicted_cap", "count"),
    ("capture.offline.drained_eof", "count"),
    ("capture.offline.truncated_packets", "count"),
    ("capture.record.materialize_ns_per_flow", "ns"),
    ("capture.record.arena_bytes_max", "bytes"),
    ("core.batch.classify_ns_per_flow", "ns"),
    ("core.batch.classify_ns_per_packet", "ns"),
    ("core.batch.tampered_flows", "count"),
    ("core.classify_ns_per_flow", "ns"),
    ("analysis.collector.observe_ns_per_flow", "ns"),
    ("analysis.jsonl.render_ns_per_flow", "ns"),
    ("analysis.jsonl.bytes_per_flow", "bytes"),
    ("worldgen.driver.new_ms", "ms"),
    ("worldgen.testlists.generate_ms", "ms"),
    ("worldgen.driver.gen_ns_per_session", "ns"),
    ("worldgen.driver.flows", "count"),
    ("worldgen.driver.packets_per_flow", "count"),
    ("netsim.session.direct_ns_per_session", "ns"),
    ("middlebox.vendor.hop_ns_per_session", "ns"),
    ("analysis.aggfile.decode_ns_per_partial", "ns"),
    ("analysis.aggfile.decode_mib_per_s", "MiB/s"),
    ("analysis.aggfile.decode_failed", "count"),
    ("analysis.aggfile.bytes_per_flow", "bytes"),
    ("analysis.aggfile.encode_mib_per_s", "MiB/s"),
    ("analysis.agg.merge_ns_per_partial", "ns"),
    ("analysis.report.render_ms", "ms"),
    ("obs.overhead_share", "ratio"),
    ("capture.engine.t2_speedup", "x"),
    ("layers.coverage", "ratio"),
    ("layers.probed_ms", "ms"),
    ("cli.residual_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.stdout_mib", "MiB"),
];
