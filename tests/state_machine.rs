//! Model-based battery for the classifier's stage automaton and the
//! sans-IO endpoint machines.
//!
//! Two layers, per the testing strategy in DESIGN.md:
//!
//! 1. **Property battery** — proptest-generated adversarial interleavings
//!    (wraparound seq/ack near `u32::MAX`, overlapping/ambiguous
//!    segments, arbitrary flag soup, truncations, timer storms) assert
//!    the machines never panic, that a warm, reused `BatchClassifier`
//!    equals a fresh `classify()`, and that they are replay-deterministic: the
//!    same input sequence produces the same output sequence, twice;
//!    random event sequences folded through the transition table land on
//!    the stage the paper's counting definition assigns. (No ambient
//!    clock can leak in: `clippy.toml` bans `Instant::now` and
//!    `SystemTime::now` outside `tamper-obs`.)
//! 2. **Exhaustive enumeration** — the whole reachable transition graph
//!    of the finite `StageState` automaton, to every depth, snapshotted
//!    as `tests/fixtures/state_graph.golden.txt` so an unintended
//!    transition fails review. Re-bless with
//!    `UPDATE_GOLDEN=1 cargo test --test state_machine`.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;

use bytes::Bytes;
use proptest::prelude::*;
use tamperscope::capture::{FlowRecord, PacketRecord};
use tamperscope::core::{
    classify, reachable_graph, stage_of, transition, BatchClassifier, ClassifierConfig, Count,
    Event, Stage, StageState,
};
use tamperscope::netsim::client::ClientTimer;
use tamperscope::netsim::server::ServerTimer;
use tamperscope::netsim::{
    derive_rng, Actions, Client, ClientConfig, ClientKind, EndpointInput, EndpointMachine, Server,
    ServerConfig, SimDuration, SimTime, VanishStage,
};
use tamperscope::wire::{Packet, PacketBuilder, Seq, TcpFlags};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

const CONFIGS: [ClassifierConfig; 2] = [
    ClassifierConfig {
        inactivity_secs: 3,
        split_rst_counts: true,
    },
    // The A4 ablation: merged RST-count splits.
    ClassifierConfig {
        inactivity_secs: 3,
        split_rst_counts: false,
    },
];

// ---------------------------------------------------------------------------
// Layer 1: proptest battery
// ---------------------------------------------------------------------------

fn rec(ts: u64, flags: TcpFlags, seq: u32, ack: u32, payload_len: u32) -> PacketRecord {
    PacketRecord {
        ts_sec: ts,
        flags,
        seq: Seq::from(seq),
        ack: Seq::from(ack),
        ip_id: Some(7),
        ttl: 52,
        window: 65535,
        payload_len,
        payload: Bytes::from(vec![b'x'; payload_len as usize]),
        has_tcp_options: true,
    }
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    (0u8..64).prop_map(TcpFlags::from_bits)
}

/// An ISN either in the ordinary range or in the wraparound band just
/// below `u32::MAX`, so sequence arithmetic crosses zero mid-flow.
fn arb_isn() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..=2_000, (u32::MAX - 64)..=u32::MAX]
}

/// Sequence offsets drawn from a small colliding set: exact retransmits
/// (same seq, possibly different length — the ambiguous overlapping
/// shapes middleboxes trip on), mid-segment overlaps, and gaps.
fn arb_seq_off() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1u32),
        Just(3u32),
        Just(100u32),
        Just(101u32),
        Just(200u32),
        0u32..400,
    ]
}

/// An adversarial flow: arbitrary flag soup over colliding wraparound
/// sequence space, uneven timestamps, optional truncation.
fn arb_machine_flow() -> impl Strategy<Value = FlowRecord> {
    (
        arb_isn(),
        proptest::collection::vec(
            (0u64..5, arb_flags(), arb_seq_off(), 0u32..300, any::<u32>()),
            0..10,
        ),
        proptest::bool::ANY,
        0u64..40,
    )
        .prop_map(|(isn, pkts, truncated, tail)| {
            let mut ts = 100u64;
            let packets: Vec<PacketRecord> = pkts
                .into_iter()
                .map(|(dt, flags, off, len, ack)| {
                    ts += dt;
                    // Post-wrap continuation: offsets carry seq across 0.
                    rec(ts, flags, isn.wrapping_add(off), ack, len)
                })
                .collect();
            let last = packets.iter().map(|p| p.ts_sec).max().unwrap_or(100);
            FlowRecord {
                client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 77)),
                server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
                src_port: 40_077,
                dst_port: 443,
                packets,
                observation_end_sec: last + tail,
                truncated,
            }
        })
}

const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9));
const SERVER: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));

/// A packet from the server toward the client, for endpoint-machine
/// inputs.
fn downlink(
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    payload: &'static [u8],
) -> tamperscope::wire::Packet {
    PacketBuilder::new(SERVER, CLIENT, 443, 40_000)
        .flags(flags)
        .seq(seq)
        .ack(ack)
        .ttl(60)
        .payload(Bytes::from_static(payload))
        .build()
}

/// The client archetypes the replay property cycles through.
fn client_kind(idx: usize) -> ClientKind {
    match idx % 6 {
        0 => ClientKind::Normal,
        1 => ClientKind::ZmapScanner,
        2 => ClientKind::SilentScanner,
        3 => ClientKind::FinThenRst,
        4 => ClientKind::VanishAfter {
            stage: VanishStage::AfterRequest,
        },
        _ => ClientKind::MultiSynVanish,
    }
}

/// One scripted endpoint input; it owns its packet, which the machine
/// only borrows.
enum Scripted<T> {
    Packet(Packet),
    Timer(T),
}

impl<T: Copy> Scripted<T> {
    fn input(&self) -> EndpointInput<'_, T> {
        match self {
            Scripted::Packet(p) => EndpointInput::Packet(p),
            Scripted::Timer(t) => EndpointInput::Timer(*t),
        }
    }
}

fn client_input(op: u8) -> Scripted<ClientTimer> {
    match op % 10 {
        0 => Scripted::Packet(downlink(TcpFlags::SYN_ACK, 0x7000_0000, 0x1000_0001, b"")),
        1 => Scripted::Packet(downlink(TcpFlags::ACK, 0x7000_0001, 0x1000_0001, b"")),
        2 => Scripted::Packet(downlink(
            TcpFlags::PSH_ACK,
            0x7000_0001,
            0x1000_0001,
            b"resp",
        )),
        3 => Scripted::Packet(downlink(TcpFlags::FIN_ACK, 0x7000_0005, 0x1000_0001, b"")),
        4 => Scripted::Packet(downlink(TcpFlags::RST, 0x7000_0001, 0, b"")),
        5 => Scripted::Timer(ClientTimer::RetransmitSyn),
        6 => Scripted::Timer(ClientTimer::RetransmitRequest),
        7 => Scripted::Timer(ClientTimer::HappyEyeballsCancel),
        8 => Scripted::Timer(ClientTimer::SecondRequest),
        _ => Scripted::Timer(ClientTimer::Close),
    }
}

/// Feed one input to `machine` and render the actions it pushed.
fn step<M>(
    machine: &mut M,
    input: EndpointInput<'_, M::Timer>,
    now: SimTime,
    rng: &mut rand::rngs::StdRng,
) -> String
where
    M: EndpointMachine,
    M::Timer: std::fmt::Debug,
{
    let mut out = Actions::default();
    machine.process(input, now, rng, &mut out);
    format!("{out:?}")
}

fn server_input(op: u8) -> Scripted<ServerTimer> {
    let uplink = |flags: TcpFlags, seq: u32, payload: &'static [u8]| {
        PacketBuilder::new(CLIENT, SERVER, 40_000, 443)
            .flags(flags)
            .seq(seq)
            .ack(0x7000_0001)
            .ttl(52)
            .payload(Bytes::from_static(payload))
            .build()
    };
    match op % 6 {
        0 => Scripted::Packet(uplink(TcpFlags::SYN, 0x1000_0000, b"")),
        1 => Scripted::Packet(uplink(TcpFlags::ACK, 0x1000_0001, b"")),
        2 => Scripted::Packet(uplink(TcpFlags::PSH_ACK, 0x1000_0001, b"hello")),
        3 => Scripted::Packet(uplink(TcpFlags::FIN_ACK, 0x1000_0006, b"")),
        4 => Scripted::Packet(uplink(TcpFlags::RST, 0x1000_0001, b"")),
        _ => Scripted::Timer(ServerTimer::RetransmitSynAck),
    }
}

proptest! {
    /// Scratch-reuse hygiene + replay determinism: on arbitrary
    /// adversarial flows a classifier still warm from another flow (a) never
    /// panics, (b) equals a fresh `classify()` exactly, and (c) produces
    /// the same analysis when it replays the same flow again — under
    /// both configs.
    #[test]
    fn warm_machine_matches_fresh_classify_and_replays_deterministically(
        warmup in arb_machine_flow(),
        flow in arb_machine_flow(),
    ) {
        for cfg in CONFIGS {
            let want = classify(&flow, &cfg);
            let mut clf = BatchClassifier::new(cfg);
            clf.classify_record(&warmup);
            let first = clf.classify_record(&flow);
            let second = clf.classify_record(&flow);
            prop_assert_eq!(&first, &second, "replay diverged");
            prop_assert_eq!(first, want, "warm classifier diverged from a fresh classify()");
        }
    }

    /// Random-sequence coverage of the transition table: folding any
    /// event sequence lands on the stage the paper's §4.1 counting
    /// definition assigns, written out here directly.
    #[test]
    fn folded_transitions_match_the_counting_definition(
        picks in proptest::collection::vec(0usize..Event::ALL.len(), 0..13),
    ) {
        let events: Vec<Event> = picks.iter().map(|&i| Event::ALL[i]).collect();
        // Stage counts stop at the first RST; SYNs count over the whole flow.
        let boundary = events
            .iter()
            .position(|&e| e == Event::Rst)
            .unwrap_or(events.len());
        let before = |want: Event| events[..boundary].iter().filter(|&&e| e == want).count();
        let syns = events.iter().filter(|&&e| e == Event::Syn).count();
        let want = match (
            before(Event::NewData),
            before(Event::Fin) > 0,
            before(Event::PureAck),
        ) {
            (2.., _, _) => Some(Stage::PostData),
            (1, _, _) => Some(Stage::PostPsh),
            (0, true, _) => None,
            (0, false, 0) => Some(Stage::PostSyn),
            (0, false, 1) if syns == 1 => Some(Stage::PostAck),
            _ => None,
        };
        let state = events
            .iter()
            .fold(StageState::START, |s, &e| transition(s, e));
        prop_assert_eq!(stage_of(state), want);
    }

    /// Truncating a flow at an arbitrary point (the collector evicting a
    /// live flow) still yields a verdict, never a panic, and leaves the
    /// classifier reusable for the next flow.
    #[test]
    fn early_truncation_yields_a_verdict_and_clean_reuse(
        flow in arb_machine_flow(),
        cut in 0usize..12,
        trunc in proptest::bool::ANY,
    ) {
        let cfg = ClassifierConfig::default();
        let mut clf = BatchClassifier::new(cfg);
        let mut prefix = flow.clone();
        prefix.packets.truncate(cut);
        prefix.truncated = trunc;
        prop_assert_eq!(clf.classify_record(&prefix), classify(&prefix, &cfg));
        // Nothing of the cut flow survives in the scratch: the reused
        // classifier still equals a fresh classify() of the complete flow.
        prop_assert_eq!(clf.classify_record(&flow), classify(&flow, &cfg));
    }

    /// The netsim client machine is replay-deterministic across every
    /// archetype: the same (seeded) input sequence yields the same
    /// action sequence, twice, and never panics — timers included, in
    /// any order.
    #[test]
    fn client_endpoint_replay_is_deterministic(
        kind in 0usize..6,
        script in proptest::collection::vec((0u8..10, 0u64..3), 0..8),
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut cfg = ClientConfig::default_tls(CLIENT, SERVER, "example.org");
            cfg.kind = client_kind(kind);
            let mut client = Client::new(cfg);
            let mut rng = derive_rng(seed, 17);
            let mut now = SimTime::from_secs(1);
            let mut log = step(&mut client, EndpointInput::Start, now, &mut rng);
            log.push('\n');
            for (op, dt) in &script {
                now += SimDuration::from_secs(*dt);
                let a = step(&mut client, client_input(*op).input(), now, &mut rng);
                log.push_str(&format!("{a}|closed={}\n", client.is_closed()));
            }
            log
        };
        prop_assert_eq!(run(), run());
    }

    /// Same property for the server machine.
    #[test]
    fn server_endpoint_replay_is_deterministic(
        script in proptest::collection::vec((0u8..6, 0u64..3), 0..8),
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut server = Server::new(ServerConfig::default_edge(SERVER, 443));
            let mut rng = derive_rng(seed, 23);
            let mut now = SimTime::from_secs(1);
            let mut log = step(&mut server, EndpointInput::Start, now, &mut rng);
            log.push('\n');
            for (op, dt) in &script {
                now += SimDuration::from_secs(*dt);
                let a = step(&mut server, server_input(*op).input(), now, &mut rng);
                log.push_str(&format!("{a}|closed={}\n", server.is_closed()));
            }
            log
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------------
// Layer 2: exhaustive reachable-state enumeration
// ---------------------------------------------------------------------------

fn stage_label(s: StageState) -> &'static str {
    match stage_of(s) {
        Some(st) => st.label(),
        None => "-",
    }
}

/// Render the reachable transition graph: every state with its BFS depth
/// and assigned stage, then every edge, all sorted and stable.
fn render_graph() -> String {
    let edges = reachable_graph();
    // Recompute BFS depths from the edge list.
    let mut depth: BTreeMap<StageState, usize> = BTreeMap::new();
    depth.insert(StageState::START, 0);
    let mut frontier = vec![StageState::START];
    while !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for s in frontier {
            let d = depth[&s];
            for &(src, _, dst) in &edges {
                if src == s && !depth.contains_key(&dst) {
                    depth.insert(dst, d + 1);
                    next_frontier.push(dst);
                }
            }
        }
        frontier = next_frontier;
    }

    let states: BTreeSet<StageState> = edges.iter().map(|&(s, _, _)| s).collect();
    let mut out = String::new();
    out.push_str("# Reachable StageState transition graph (sans-IO FlowMachine).\n");
    out.push_str("# Blessed by tests/state_machine.rs; re-bless with UPDATE_GOLDEN=1.\n");
    out.push_str(&format!(
        "# {} states, {} edges, {} events\n",
        states.len(),
        edges.len(),
        Event::ALL.len()
    ));
    for s in &states {
        out.push_str(&format!(
            "state [{}] depth={} stage={}\n",
            s.label(),
            depth[s],
            stage_label(*s)
        ));
    }
    for (src, ev, dst) in &edges {
        out.push_str(&format!(
            "edge [{}] --{}--> [{}]\n",
            src.label(),
            ev.label(),
            dst.label()
        ));
    }
    out
}

#[test]
fn reachable_state_graph_matches_golden_fixture() {
    let rendered = render_graph();
    let path = fixture("state_graph.golden.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("tests/fixtures/state_graph.golden.txt missing — run with UPDATE_GOLDEN=1");
    assert_eq!(
        rendered, golden,
        "reachable-state graph changed; if the transition table change is \
         intentional, re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn transition_table_structural_invariants() {
    let edges = reachable_graph();
    let states: BTreeSet<StageState> = edges.iter().map(|&(s, _, _)| s).collect();

    // Totality: exactly one successor per (state, event).
    assert_eq!(edges.len(), states.len() * Event::ALL.len());

    // Closure: successors are themselves enumerated as sources.
    for &(_, _, dst) in &edges {
        assert!(
            states.contains(&dst),
            "open graph: {} unexplored",
            dst.label()
        );
    }

    for &s in &states {
        // A FIN before the boundary implies a FIN somewhere.
        assert!(!s.fin_before || s.fin_any, "inconsistent: {}", s.label());
        // Before any RST the two FIN bits are indistinguishable.
        assert!(
            s.rst || s.fin_before == s.fin_any,
            "inconsistent: {}",
            s.label()
        );
    }

    for &(src, ev, dst) in &edges {
        // Monotone: counters never decrease, booleans never clear.
        assert!(dst.syns >= src.syns && dst.data >= src.data && dst.acks >= src.acks);
        assert!(dst.fin_before >= src.fin_before && dst.fin_any >= src.fin_any);
        assert!(dst.rst >= src.rst);
        // Frozen means frozen: stage counters stop at the first RST.
        if src.rst {
            assert_eq!(dst.data, src.data, "data unfroze via {}", ev.label());
            assert_eq!(dst.acks, src.acks, "acks unfroze via {}", ev.label());
            assert_eq!(dst.fin_before, src.fin_before);
        }
        // SYNs keep counting regardless.
        if ev == Event::Syn {
            assert_eq!(dst.syns, src.syns.bump());
        }
        // Inert events are identities.
        if matches!(ev, Event::DupData | Event::Ignored) {
            assert_eq!(src, dst);
        }
    }

    // Depth-exhaustiveness: within |states| steps every state is seen, so
    // enumerating to that depth covers all distinguishable sequences.
    let mut seen: BTreeSet<StageState> = BTreeSet::new();
    seen.insert(StageState::START);
    for _ in 0..states.len() {
        let step: Vec<StageState> = seen
            .iter()
            .flat_map(|&s| Event::ALL.into_iter().map(move |ev| transition(s, ev)))
            .collect();
        seen.extend(step);
    }
    assert_eq!(seen, states);

    // The automaton distinguishes every stage the paper defines.
    let stages: BTreeSet<&str> = states.iter().map(|&s| stage_label(s)).collect();
    assert!(stages.len() >= 5, "stages collapsed: {stages:?}");

    // Count saturation sanity.
    assert_eq!(Count::Zero.bump(), Count::One);
    assert_eq!(Count::One.bump(), Count::Many);
    assert_eq!(Count::Many.bump(), Count::Many);
}
