//! The per-session discrete-event loop.
//!
//! One session simulates one TCP connection: a client, a path of links and
//! middlebox hops, and the CDN edge server. The loop is fully deterministic
//! given the session RNG: events are ordered by (time, insertion sequence).
//!
//! Every buffer the loop needs lives in a [`SessionWorkspace`] that is
//! cleared, not freed, between sessions, so a warm workspace simulates a
//! session without heap traffic of its own. Inside it, a packet is
//! written once into a slab of in-flight packets; the heap orders small
//! `(time, seq, slot)` keys, a hop forwards a packet by re-keying its
//! slot, and the packet moves out only when an endpoint receives it, into
//! the trace.

use crate::client::{Client, ClientConfig, ClientTimer};
use crate::endpoint::{Actions, EndpointInput, EndpointMachine};
use crate::hop::HopCtx;
use crate::path::Path;
use crate::server::{Server, ServerConfig, ServerTimer};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Direction, Origin, SessionTrace, TamperEvent, TracedPacket};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tamper_wire::Packet;

/// Where a scheduled packet event lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Client,
    Server,
    Hop(usize),
}

/// A packet on its way: where it lands next, which way it travels and
/// who made it.
struct InFlight {
    at: Node,
    dir: Direction,
    origin: Origin,
    pkt: Packet,
}

/// What a scheduled event does: deliver the in-flight packet in a slab
/// slot, or fire an endpoint timer.
#[derive(Clone, Copy)]
enum Ev {
    Packet(u32),
    ClientTimer(ClientTimer),
    ServerTimer(ServerTimer),
}

/// One heap entry.
struct Key {
    t: SimTime,
    seq: u64,
    ev: Ev,
}

impl Key {
    /// `(t, seq)` as one number, so ordering keys is a single comparison.
    fn rank(&self) -> u128 {
        (u128::from(self.t.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other.rank().cmp(&self.rank())
    }
}

/// Parameters of one simulated connection.
pub struct SessionParams {
    /// Client behaviour and addressing.
    pub client: ClientConfig,
    /// Server behaviour.
    pub server: ServerConfig,
    /// When the client initiates.
    pub start: SimTime,
    /// How long the observation window stays open after `start`; events
    /// past the horizon are discarded. 30 s matches a generous collector
    /// flow-timeout and comfortably contains all retransmission backoff.
    pub horizon: SimDuration,
}

impl SessionParams {
    /// Standard 30-second observation horizon.
    pub fn new(client: ClientConfig, server: ServerConfig, start: SimTime) -> SessionParams {
        SessionParams {
            client,
            server,
            start,
            horizon: SimDuration::from_secs(30),
        }
    }
}

/// Keys a fresh workspace's heap is sized for: no simulated-world session
/// has more than ten events in flight at once.
const HEAP_CAPACITY: usize = 16;
/// Packets a fresh workspace's slab and trace are sized for: the longest
/// simulated-world exchange emits 22 that arrive, both directions
/// together. A reused workspace keeps whatever it grew to.
const PACKET_CAPACITY: usize = 24;

/// The event queue: keys on a heap, packets in a slab beside it. Slots
/// are not reused within a session; the slab is emptied between sessions.
struct Events {
    heap: BinaryHeap<Key>,
    slab: Vec<Option<InFlight>>,
    seq: u64,
}

impl Events {
    fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.seq = 0;
    }

    fn schedule(&mut self, t: SimTime, ev: Ev) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Key { t, seq, ev });
    }

    /// Write a new packet into the slab, the one place it is held until
    /// delivery, and schedule its arrival at `t`.
    fn send(&mut self, t: SimTime, flight: InFlight) {
        let slot = self.slab.len() as u32;
        self.slab.push(Some(flight));
        self.schedule(t, Ev::Packet(slot));
    }

    /// The next event due by `end`. An event past `end` stays queued.
    fn next_by(&mut self, end: SimTime) -> Option<Key> {
        if self.heap.peek()?.t > end {
            return None;
        }
        self.heap.pop()
    }
}

/// Everything the session loop writes, owned once and reused: the event
/// heap, the in-flight packet slab, the trace (packets and tamper
/// events) and both endpoints' action buffers. Give each thread that
/// simulates one of these and call [`SessionWorkspace::run`] per
/// session; [`run_session`] is the one-shot form.
pub struct SessionWorkspace {
    events: Events,
    trace: SessionTrace,
    client_out: Actions<ClientTimer>,
    server_out: Actions<ServerTimer>,
}

impl Default for SessionWorkspace {
    fn default() -> SessionWorkspace {
        SessionWorkspace {
            events: Events {
                heap: BinaryHeap::with_capacity(HEAP_CAPACITY),
                slab: Vec::with_capacity(PACKET_CAPACITY),
                seq: 0,
            },
            trace: SessionTrace {
                packets: Vec::with_capacity(PACKET_CAPACITY),
                ..SessionTrace::default()
            },
            client_out: Actions::default(),
            server_out: Actions::default(),
        }
    }
}

impl SessionWorkspace {
    /// Run one session to completion. The trace stays in the workspace,
    /// borrowed, until the next run clears it.
    pub fn run(
        &mut self,
        params: SessionParams,
        path: &mut Path,
        rng: &mut StdRng,
    ) -> &SessionTrace {
        debug_assert!(path.is_well_formed());
        let start = params.start;
        let end = start + params.horizon;
        let SessionWorkspace {
            events,
            trace,
            client_out,
            server_out,
        } = self;
        events.clear();
        trace.packets.clear();
        trace.tamper_events.clear();
        trace.started = start;
        trace.ended = end;
        let mut client = Endpoint {
            machine: Client::new(params.client),
            out: client_out,
        };
        let mut server = Endpoint {
            machine: Server::new(params.server),
            out: server_out,
        };
        let mut driver = Driver { events, path };

        // Kick off: the client's initial actions.
        driver.drive(
            &mut client,
            EndpointInput::Start,
            start,
            Node::Client,
            Ev::ClientTimer,
            rng,
        );

        while let Some(key) = driver.events.next_by(end) {
            let now = key.t;
            match key.ev {
                Ev::ClientTimer(k) => driver.drive(
                    &mut client,
                    EndpointInput::Timer(k),
                    now,
                    Node::Client,
                    Ev::ClientTimer,
                    rng,
                ),
                Ev::ServerTimer(k) => driver.drive(
                    &mut server,
                    EndpointInput::Timer(k),
                    now,
                    Node::Server,
                    Ev::ServerTimer,
                    rng,
                ),
                Ev::Packet(slot) => driver.deliver(now, slot, &mut client, &mut server, trace, rng),
            }
        }
        trace
    }

    /// Events the last session left queued when it reached its horizon
    /// (retransmission timers, packets still in flight); zero if it ran
    /// dry first. They are dropped when the next session starts.
    pub fn queued(&self) -> usize {
        self.events.heap.len()
    }
}

/// An endpoint machine and the action buffer it writes into; the driver
/// drains the buffer after every call.
struct Endpoint<'a, M: EndpointMachine> {
    machine: M,
    out: &'a mut Actions<M::Timer>,
}

impl<M: EndpointMachine> Endpoint<'_, M> {
    fn process(&mut self, input: EndpointInput<'_, M::Timer>, now: SimTime, rng: &mut StdRng) {
        self.machine.process(input, now, rng, self.out);
    }
}

struct Driver<'a> {
    events: &'a mut Events,
    path: &'a mut Path,
}

impl<'a> Driver<'a> {
    fn decrement_ttl(pkt: &mut Packet, by: u8) {
        let t = pkt.ip.ttl();
        pkt.ip.set_ttl(t.saturating_sub(by));
    }

    /// Send the packet in `slot` across one link segment toward its `at`,
    /// applying latency, TTL decrement, and loss. A lost packet keeps its
    /// slot, never keyed again.
    fn traverse(&mut self, now: SimTime, link_idx: usize, slot: u32, rng: &mut StdRng) {
        let link = self.path.links[link_idx];
        if link.loss > 0.0 && rng.gen::<f64>() < link.loss {
            return; // lost in transit
        }
        if let Some(f) = &mut self.events.slab[slot as usize] {
            Self::decrement_ttl(&mut f.pkt, link.ttl_decrement);
        }
        self.events.schedule(now + link.latency, Ev::Packet(slot));
    }

    /// The packet in `slot` arrives where it is headed. A hop handles it
    /// in place; an endpoint reads it in its slot, then the packet moves
    /// out of the slab into the trace, and only then do the endpoint's
    /// actions enter the queue.
    fn deliver(
        &mut self,
        now: SimTime,
        slot: u32,
        client: &mut Endpoint<'_, Client>,
        server: &mut Endpoint<'_, Server>,
        trace: &mut SessionTrace,
        rng: &mut StdRng,
    ) {
        let Some(flight) = self.events.slab[slot as usize].as_ref() else {
            return;
        };
        let at = flight.at;
        match at {
            Node::Hop(i) => return self.hop(now, i, slot, &mut trace.tamper_events, rng),
            Node::Server => server.process(EndpointInput::Packet(&flight.pkt), now, rng),
            Node::Client => client.process(EndpointInput::Packet(&flight.pkt), now, rng),
        }
        if let Some(InFlight {
            dir, origin, pkt, ..
        }) = self.events.slab[slot as usize].take()
        {
            trace.packets.push(TracedPacket {
                time: now,
                dir,
                origin,
                packet: pkt,
            });
        }
        if at == Node::Server {
            self.scatter(server.out, now, Node::Server, Ev::ServerTimer, rng);
        } else {
            self.scatter(client.out, now, Node::Client, Ev::ClientTimer, rng);
        }
    }

    /// Hop `i` sees the packet in `slot`: it forwards it (the same slot,
    /// re-keyed for the next link), drops it, and may inject packets of
    /// its own.
    fn hop(
        &mut self,
        now: SimTime,
        i: usize,
        slot: u32,
        tamper_events: &mut Vec<TamperEvent>,
        rng: &mut StdRng,
    ) {
        let Some(flight) = self.events.slab[slot as usize].as_mut() else {
            return;
        };
        let dir = flight.dir;
        let outcome = {
            let mut ctx = HopCtx {
                now,
                rng,
                tamper_events,
                hop_index: i as u8,
            };
            self.path.hops[i].on_packet(&mut ctx, &flight.pkt, dir)
        };
        // A dropped packet, like a lost one, stays in its slot unkeyed.
        if outcome.forward {
            let (link_idx, at) = match dir {
                Direction::ToServer if i + 1 < self.path.hops.len() => (i + 1, Node::Hop(i + 1)),
                Direction::ToServer => (i + 1, Node::Server),
                Direction::ToClient if i == 0 => (i, Node::Client),
                Direction::ToClient => (i, Node::Hop(i - 1)),
            };
            flight.at = at;
            self.traverse(now, link_idx, slot, rng);
        }
        for (inj, delay) in outcome.inject_to_server {
            self.inject_to_server(now + delay, i, inj, rng);
        }
        for (inj, delay) in outcome.inject_to_client {
            self.inject_to_client(now + delay, i, inj, rng);
        }
    }

    /// Inject from hop `i` directly to the server (injected packets skip
    /// the `on_packet` processing of downstream hops — multi-censor paths
    /// where one censor filters another's resets are out of scope).
    fn inject_to_server(&mut self, now: SimTime, hop: usize, mut pkt: Packet, rng: &mut StdRng) {
        let mut latency = SimDuration::ZERO;
        let mut decr: u8 = 0;
        for link in &self.path.links[hop + 1..] {
            if link.loss > 0.0 && rng.gen::<f64>() < link.loss {
                return;
            }
            latency = latency + link.latency;
            decr = decr.saturating_add(link.ttl_decrement);
        }
        Self::decrement_ttl(&mut pkt, decr);
        self.events.send(
            now + latency,
            InFlight {
                at: Node::Server,
                dir: Direction::ToServer,
                origin: Origin::Hop(hop as u8),
                pkt,
            },
        );
    }

    /// Deliver one sans-IO input to an endpoint machine and scatter the
    /// actions it pushed into the event queue — the single dispatch point
    /// both sides of the session share. `side` picks the emission
    /// direction; `wrap` lifts the endpoint's timers into [`Ev`].
    fn drive<M, W>(
        &mut self,
        ep: &mut Endpoint<'_, M>,
        input: EndpointInput<'_, M::Timer>,
        now: SimTime,
        side: Node,
        wrap: W,
        rng: &mut StdRng,
    ) where
        M: EndpointMachine,
        W: Fn(M::Timer) -> Ev,
    {
        ep.process(input, now, rng);
        self.scatter(ep.out, now, side, wrap, rng);
    }

    /// Queue what an endpoint asked for: its packets cross their first
    /// link toward the other side (loss, TTL, latency) into the slab, its
    /// timers are armed, and `out` is left empty.
    fn scatter<T, W>(
        &mut self,
        out: &mut Actions<T>,
        now: SimTime,
        side: Node,
        wrap: W,
        rng: &mut StdRng,
    ) where
        W: Fn(T) -> Ev,
    {
        let hops = self.path.hops.len();
        let (at, dir, origin, link_idx) = match side {
            Node::Server => {
                let at = hops.checked_sub(1).map_or(Node::Client, Node::Hop);
                (at, Direction::ToClient, Origin::Server, hops)
            }
            _ => {
                let at = if hops == 0 {
                    Node::Server
                } else {
                    Node::Hop(0)
                };
                (at, Direction::ToServer, Origin::Client, 0)
            }
        };
        let link = self.path.links[link_idx];
        for (mut pkt, delay) in out.emits.drain(..) {
            if link.loss > 0.0 && rng.gen::<f64>() < link.loss {
                continue; // lost in transit
            }
            Self::decrement_ttl(&mut pkt, link.ttl_decrement);
            self.events.send(
                now + delay + link.latency,
                InFlight {
                    at,
                    dir,
                    origin,
                    pkt,
                },
            );
        }
        for (timer, delay) in out.timers.drain(..) {
            self.events.schedule(now + delay, wrap(timer));
        }
    }

    /// Inject from hop `i` directly to the client.
    fn inject_to_client(&mut self, now: SimTime, hop: usize, mut pkt: Packet, rng: &mut StdRng) {
        let mut latency = SimDuration::ZERO;
        let mut decr: u8 = 0;
        for link in &self.path.links[..=hop] {
            if link.loss > 0.0 && rng.gen::<f64>() < link.loss {
                return;
            }
            latency = latency + link.latency;
            decr = decr.saturating_add(link.ttl_decrement);
        }
        Self::decrement_ttl(&mut pkt, decr);
        self.events.send(
            now + latency,
            InFlight {
                at: Node::Client,
                dir: Direction::ToClient,
                origin: Origin::Hop(hop as u8),
                pkt,
            },
        );
    }
}

/// Run one session to completion and return its trace: the one-shot form
/// of [`SessionWorkspace::run`], with a workspace of its own.
pub fn run_session(params: SessionParams, path: &mut Path, rng: &mut StdRng) -> SessionTrace {
    let mut ws = SessionWorkspace::default();
    ws.run(params, path, rng);
    ws.trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientKind, RequestPayload, VanishStage};
    use crate::rng::derive_rng;

    use std::net::{IpAddr, Ipv4Addr};
    use tamper_wire::TcpFlags;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        )
    }

    fn run_normal(kind: ClientKind) -> SessionTrace {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "ok.example.com");
        cfg.kind = kind;
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path::direct(SimDuration::from_millis(40), 12);
        let mut rng = derive_rng(99, 1);
        run_session(
            SessionParams::new(cfg, server, SimTime::from_secs(100)),
            &mut path,
            &mut rng,
        )
    }

    #[test]
    fn untampered_session_is_graceful() {
        let trace = run_normal(ClientKind::Normal);
        let inbound: Vec<_> = trace.inbound().collect();
        // SYN, ACK, ClientHello, ACKs of response, FIN, final ACK.
        assert!(inbound.len() >= 6, "got {} inbound packets", inbound.len());
        assert_eq!(inbound[0].packet.tcp.flags, TcpFlags::SYN);
        assert!(inbound.iter().any(|p| p.packet.tcp.flags.has_fin()));
        assert!(!inbound.iter().any(|p| p.packet.tcp.flags.has_rst()));
        assert!(!trace.was_tampered());
        // TTL at the server reflects the path decrement.
        assert_eq!(inbound[0].packet.ip.ttl(), 64 - 12);
    }

    #[test]
    fn sni_is_visible_inbound() {
        let trace = run_normal(ClientKind::Normal);
        let hello = trace
            .inbound()
            .find(|p| !p.packet.payload.is_empty())
            .expect("no data packet");
        assert_eq!(
            tamper_wire::tls::parse_sni(&hello.packet.payload)
                .unwrap()
                .as_deref(),
            Some("ok.example.com")
        );
    }

    #[test]
    fn vanish_after_syn_leaves_single_syn() {
        let trace = run_normal(ClientKind::VanishAfter {
            stage: VanishStage::AfterSyn,
        });
        let inbound: Vec<_> = trace.inbound().collect();
        assert_eq!(inbound.len(), 1);
        assert_eq!(inbound[0].packet.tcp.flags, TcpFlags::SYN);
    }

    #[test]
    fn zmap_scan_leaves_syn_then_rst() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::ZmapScanner;
        cfg.request = RequestPayload::None;
        cfg.syn_options = false;
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path::direct(SimDuration::from_millis(40), 12);
        let mut rng = derive_rng(99, 2);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let flags: Vec<_> = trace.inbound().map(|p| p.packet.tcp.flags).collect();
        assert_eq!(flags, vec![TcpFlags::SYN, TcpFlags::RST]);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let t1 = {
            let (src, dst) = addrs();
            let cfg = ClientConfig::default_tls(src, dst, "d.example");
            let server = ServerConfig::default_edge(dst, 443);
            let mut path = Path::direct(SimDuration::from_millis(25), 9);
            let mut rng = derive_rng(7, 3);
            run_session(
                SessionParams::new(cfg, server, SimTime::ZERO),
                &mut path,
                &mut rng,
            )
        };
        let t2 = {
            let (src, dst) = addrs();
            let cfg = ClientConfig::default_tls(src, dst, "d.example");
            let server = ServerConfig::default_edge(dst, 443);
            let mut path = Path::direct(SimDuration::from_millis(25), 9);
            let mut rng = derive_rng(7, 3);
            run_session(
                SessionParams::new(cfg, server, SimTime::ZERO),
                &mut path,
                &mut rng,
            )
        };
        assert_eq!(t1.packets.len(), t2.packets.len());
        for (a, b) in t1.packets.iter().zip(&t2.packets) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.packet, b.packet);
        }
    }

    #[test]
    fn lossy_link_drops_everything_at_loss_one() {
        let (src, dst) = addrs();
        let cfg = ClientConfig::default_tls(src, dst, "x");
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path {
            links: vec![crate::path::Link::new(SimDuration::from_millis(10), 4).with_loss(1.0)],
            hops: Vec::new(),
        };
        let mut rng = derive_rng(99, 4);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        assert_eq!(trace.packets.len(), 0);
    }

    #[test]
    fn http_two_requests_both_arrive() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.dst_port = 80;
        cfg.request = RequestPayload::HttpTwo {
            host: "site.example".into(),
            path1: "/".into(),
            path2: "/page2".into(),
            user_agent: "ua/1".into(),
        };
        let server = ServerConfig::default_edge(dst, 80);
        let mut path = Path::direct(SimDuration::from_millis(30), 10);
        let mut rng = derive_rng(99, 5);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let data: Vec<_> = trace
            .inbound()
            .filter(|p| !p.packet.payload.is_empty())
            .collect();
        assert_eq!(data.len(), 2, "expected two request packets");
        let second = tamper_wire::http::parse_request(&data[1].packet.payload).unwrap();
        assert_eq!(second.path, "/page2");
    }

    #[test]
    fn observation_ends_at_horizon() {
        let trace = run_normal(ClientKind::Normal);
        assert_eq!(
            trace.ended,
            SimTime::from_secs(100) + SimDuration::from_secs(30)
        );
    }
}

#[cfg(test)]
mod path_mechanics_tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::hop::{Hop, HopCtx, HopOutcome};
    use crate::path::Link;
    use crate::rng::derive_rng;
    use crate::server::ServerConfig;
    use crate::trace::{Direction, Origin};
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_wire::{Packet, PacketBuilder, TcpFlags};

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        )
    }

    /// A hop that injects one RST toward the server on the first SYN,
    /// recording nothing else.
    struct SynEcho;
    impl Hop for SynEcho {
        fn on_packet(&mut self, _ctx: &mut HopCtx<'_>, pkt: &Packet, dir: Direction) -> HopOutcome {
            if dir == Direction::ToServer && pkt.tcp.flags.has_syn() {
                let rst = PacketBuilder::new(
                    pkt.ip.src(),
                    pkt.ip.dst(),
                    pkt.tcp.src_port,
                    pkt.tcp.dst_port,
                )
                .flags(TcpFlags::RST)
                .seq(pkt.tcp.seq.wrapping_add(1))
                .ttl(200)
                .build();
                HopOutcome::pass().with_injection_to_server(rst, SimDuration::from_micros(10))
            } else {
                HopOutcome::pass()
            }
        }
    }

    #[test]
    fn injected_packets_incur_remaining_path_latency_and_ttl() {
        let (src, dst) = addrs();
        let cfg = ClientConfig::default_tls(src, dst, "x.example");
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path {
            links: vec![
                Link::new(SimDuration::from_millis(10), 3),
                Link::new(SimDuration::from_millis(50), 7),
            ],
            hops: vec![Box::new(SynEcho)],
        };
        let mut rng = derive_rng(31, 1);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let inbound: Vec<_> = trace.inbound().collect();
        let syn = inbound
            .iter()
            .find(|p| p.packet.tcp.flags.has_syn())
            .unwrap();
        let rst = inbound
            .iter()
            .find(|p| p.packet.tcp.flags.has_rst())
            .unwrap();
        // The SYN crossed both links: 10 + 50 ms.
        assert_eq!(syn.time, SimTime(60_000_000));
        // The RST was injected at the hop (t = 10 ms + 10 µs) and crossed
        // only the server-side link (50 ms).
        assert_eq!(rst.time, SimTime(60_010_000));
        // TTL: client initial 64 − 3 − 7 hops; injected 200 − 7.
        assert_eq!(syn.packet.ip.ttl(), 64 - 10);
        assert_eq!(rst.packet.ip.ttl(), 200 - 7);
        // Origin attribution is ground truth.
        assert_eq!(syn.origin, Origin::Client);
        assert_eq!(rst.origin, Origin::Hop(0));
    }

    #[test]
    fn server_to_client_traverses_hops_in_reverse() {
        struct CountBoth {
            to_server: u32,
            to_client: u32,
        }
        // Count via a shared cell smuggled through a static — simpler: use
        // the tamper_events vec as a counter channel.
        impl Hop for CountBoth {
            fn on_packet(
                &mut self,
                _ctx: &mut HopCtx<'_>,
                _pkt: &Packet,
                dir: Direction,
            ) -> HopOutcome {
                match dir {
                    Direction::ToServer => self.to_server += 1,
                    Direction::ToClient => self.to_client += 1,
                }
                HopOutcome::pass()
            }
        }
        // Run the session with the counting hop boxed; read the counters
        // back out afterwards via Box downcast-free trick: keep raw
        // pointers out of it and just re-run with a probe that asserts
        // inside: both directions must be observed by completion.
        let (src, dst) = addrs();
        let cfg = ClientConfig::default_tls(src, dst, "x.example");
        let server = ServerConfig::default_edge(dst, 443);
        let counter = Box::new(CountBoth {
            to_server: 0,
            to_client: 0,
        });
        let mut path = Path {
            links: vec![
                Link::new(SimDuration::from_millis(5), 2),
                Link::new(SimDuration::from_millis(5), 2),
            ],
            hops: vec![counter],
        };
        let mut rng = derive_rng(32, 1);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        // Indirect check: the client received server packets, which is
        // only possible if ToClient traffic traversed the hop.
        assert!(trace
            .packets
            .iter()
            .any(|p| p.dir == Direction::ToClient && !p.packet.payload.is_empty()));
        assert!(trace.inbound().count() >= 5);
    }
}
