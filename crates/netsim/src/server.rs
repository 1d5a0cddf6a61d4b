//! The CDN edge server endpoint.
//!
//! The server is a passive party in the tampering story: its outbound
//! packets are never logged by the collection pipeline, but its behaviour
//! shapes what the client does (and therefore what arrives inbound). It
//! implements the standard accept / respond / teardown cycle with SYN+ACK
//! retransmission.

use crate::endpoint::{tsval_at, Actions, EndpointInput, EndpointMachine, IpIdGen, IpIdMode};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::StdRng;
use tamper_wire::{Packet, PacketBuilder, Seq, TcpFlags, TcpHeader, TcpOptions};

use std::net::IpAddr;

/// Bytes per response segment.
const SEGMENT_LEN: usize = 1200;

/// Every response segment's body: one static buffer the emitted packets
/// share instead of a fresh allocation per segment.
static RESPONSE_BODY: [u8; SEGMENT_LEN] = [b'D'; SEGMENT_LEN];

/// Static configuration of the server side of one session.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server address.
    pub addr: IpAddr,
    /// Listening port.
    pub port: u16,
    /// Server initial sequence number.
    pub isn: Seq,
    /// Number of response segments per request (each `SEGMENT_LEN`
    /// bytes).
    pub response_segments: u8,
    /// Server think time before the response.
    pub response_delay: SimDuration,
    /// Initial TTL on server packets.
    pub initial_ttl: u8,
}

impl ServerConfig {
    /// A small, fast responder used by most sessions.
    pub fn default_edge(addr: IpAddr, port: u16) -> ServerConfig {
        ServerConfig {
            addr,
            port,
            isn: Seq::from(0x7000_0000),
            response_segments: 3,
            response_delay: SimDuration::from_millis(3),
            initial_ttl: 64,
        }
    }
}

/// Server timer kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerTimer {
    /// Retransmit the SYN+ACK if the handshake never completed.
    RetransmitSynAck,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Listen,
    SynReceived,
    Established,
    FinWait,
    Closed,
}

/// The server endpoint state machine.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    state: State,
    peer: Option<(IpAddr, u16)>,
    snd_nxt: Seq,
    rcv_nxt: Seq,
    client_tsval: u32,
    ip_id: IpIdGen,
    synack_retries_left: u8,
    synack_rto: SimDuration,
    buffered_syn_request: bool,
}

impl Server {
    /// Create a listening server.
    pub fn new(cfg: ServerConfig) -> Server {
        Server {
            state: State::Listen,
            peer: None,
            snd_nxt: cfg.isn,
            rcv_nxt: Seq::ZERO,
            client_tsval: 0,
            ip_id: IpIdGen::new(IpIdMode::Counter {
                start: 0x4242,
                stride_max: 1,
            }),
            synack_retries_left: 2,
            synack_rto: SimDuration::from_secs(1),
            buffered_syn_request: false,
            cfg,
        }
    }

    /// True once the connection is torn down.
    pub(crate) fn is_closed(&self) -> bool {
        self.state == State::Closed
    }

    fn builder(&mut self, rng: &mut StdRng) -> Option<PacketBuilder> {
        let (peer_addr, peer_port) = self.peer?;
        let id = self.ip_id.next(rng);
        Some(
            PacketBuilder::new(self.cfg.addr, peer_addr, self.cfg.port, peer_port)
                .ttl(self.cfg.initial_ttl)
                .ip_id(id),
        )
    }

    fn seg_options(&self, now: SimTime) -> TcpOptions {
        TcpHeader::segment_options(tsval_at(now), self.client_tsval)
    }

    fn send_synack(&mut self, rng: &mut StdRng, actions: &mut Actions<ServerTimer>) {
        let isn = self.cfg.isn;
        let rcv_nxt = self.rcv_nxt;
        let Some(b) = self.builder(rng) else { return };
        let synack = b
            .flags(TcpFlags::SYN_ACK)
            .seq(isn)
            .ack(rcv_nxt)
            .options(TcpHeader::standard_syn_options())
            .build();
        actions.emit(synack, SimDuration::ZERO);
    }

    fn send_response(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        actions: &mut Actions<ServerTimer>,
    ) {
        let n = self.cfg.response_segments.max(1);
        for i in 0..n {
            let last = i + 1 == n;
            let flags = if last {
                TcpFlags::PSH_ACK
            } else {
                TcpFlags::ACK
            };
            let body = Bytes::from_static(&RESPONSE_BODY);
            let opts = self.seg_options(now);
            let seq = self.snd_nxt;
            let ack = self.rcv_nxt;
            let Some(b) = self.builder(rng) else { return };
            let pkt = b
                .flags(flags)
                .seq(seq)
                .ack(ack)
                .options(opts)
                .payload(body)
                .build();
            // Space segments by 1 ms of serialization plus think time.
            let delay = self.cfg.response_delay + SimDuration::from_millis(u64::from(i));
            actions.emit(pkt, delay);
            self.snd_nxt = self.snd_nxt.wrapping_add(SEGMENT_LEN as u32);
        }
    }

    /// Handle an inbound packet (this call is also the capture point: the
    /// session driver moves the packet into the trace once it returns).
    fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        rng: &mut StdRng,
        actions: &mut Actions<ServerTimer>,
    ) {
        if self.state == State::Closed {
            return;
        }
        if pkt.tcp.flags.has_rst() {
            // Genuine or injected reset: tear down immediately and silently.
            self.state = State::Closed;
            return;
        }
        if let Some((tsval, _)) = pkt.tcp.options.timestamps() {
            self.client_tsval = tsval;
        }

        if pkt.tcp.flags.has_syn() {
            if self.state == State::Listen {
                self.peer = Some((pkt.ip.src(), pkt.tcp.src_port));
                self.rcv_nxt = pkt
                    .tcp
                    .seq
                    .wrapping_add(1)
                    .wrapping_add(pkt.payload.len() as u32);
                self.snd_nxt = self.cfg.isn.wrapping_add(1);
                self.buffered_syn_request = !pkt.payload.is_empty();
                self.state = State::SynReceived;
                self.send_synack(rng, actions);
                actions.arm(ServerTimer::RetransmitSynAck, self.synack_rto);
            } else {
                // Duplicate SYN (client retransmission): re-ACK it.
                self.send_synack(rng, actions);
            }
            return;
        }

        if self.state == State::SynReceived && pkt.tcp.flags.has_ack() && pkt.payload.is_empty() {
            self.state = State::Established;
            if self.buffered_syn_request {
                // The request rode the SYN (§4.1): respond now.
                self.buffered_syn_request = false;
                self.send_response(now, rng, actions);
            }
            return;
        }

        if !pkt.payload.is_empty() {
            if self.state == State::SynReceived {
                // Data completes the handshake implicitly.
                self.state = State::Established;
            }
            if pkt.tcp.seq != self.rcv_nxt {
                // Duplicate (e.g. a retransmission that raced our ACK):
                // re-ACK current state.
                let opts = self.seg_options(now);
                let seq = self.snd_nxt;
                let ack = self.rcv_nxt;
                if let Some(b) = self.builder(rng) {
                    actions.emit(
                        b.flags(TcpFlags::ACK)
                            .seq(seq)
                            .ack(ack)
                            .options(opts)
                            .build(),
                        SimDuration::ZERO,
                    );
                }
                return;
            }
            self.rcv_nxt = self.rcv_nxt.wrapping_add(pkt.payload.len() as u32);
            let opts = self.seg_options(now);
            let seq = self.snd_nxt;
            let ack = self.rcv_nxt;
            if let Some(b) = self.builder(rng) {
                actions.emit(
                    b.flags(TcpFlags::ACK)
                        .seq(seq)
                        .ack(ack)
                        .options(opts)
                        .build(),
                    SimDuration::ZERO,
                );
            }
            self.send_response(now, rng, actions);
            return;
        }

        if pkt.tcp.flags.has_fin() {
            self.rcv_nxt = pkt.tcp.seq.wrapping_add(1);
            // ACK the FIN and send our own FIN+ACK together.
            let opts = self.seg_options(now);
            let seq = self.snd_nxt;
            let ack = self.rcv_nxt;
            if let Some(b) = self.builder(rng) {
                actions.emit(
                    b.flags(TcpFlags::FIN_ACK)
                        .seq(seq)
                        .ack(ack)
                        .options(opts)
                        .build(),
                    SimDuration::ZERO,
                );
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.state = State::FinWait;
            return;
        }

        // Pure ACK in Established / FinWait: bookkeeping only.
        if self.state == State::FinWait && pkt.tcp.ack == self.snd_nxt {
            self.state = State::Closed;
        }
    }

    /// Handle a timer firing.
    fn on_timer(
        &mut self,
        timer: ServerTimer,
        rng: &mut StdRng,
        actions: &mut Actions<ServerTimer>,
    ) {
        match timer {
            ServerTimer::RetransmitSynAck => {
                if self.state == State::SynReceived {
                    if self.synack_retries_left == 0 {
                        self.state = State::Closed;
                        return;
                    }
                    self.synack_retries_left -= 1;
                    self.send_synack(rng, actions);
                    self.synack_rto = self.synack_rto.double();
                    actions.arm(ServerTimer::RetransmitSynAck, self.synack_rto);
                }
            }
        }
    }
}

impl EndpointMachine for Server {
    type Timer = ServerTimer;

    /// The sans-IO entry point. A server does nothing at `Start` — it is
    /// already listening; everything else dispatches to the unchanged
    /// packet/timer handlers.
    fn process(
        &mut self,
        input: EndpointInput<'_, ServerTimer>,
        now: SimTime,
        rng: &mut StdRng,
        out: &mut Actions<ServerTimer>,
    ) {
        match input {
            EndpointInput::Start => {}
            EndpointInput::Packet(pkt) => self.on_packet(now, pkt, rng, out),
            EndpointInput::Timer(t) => self.on_timer(t, rng, out),
        }
    }

    fn is_closed(&self) -> bool {
        Server::is_closed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::step;
    use crate::rng::derive_rng;
    use std::net::Ipv4Addr;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        )
    }

    fn syn(client: IpAddr, server: IpAddr) -> Packet {
        PacketBuilder::new(client, server, 40000, 443)
            .flags(TcpFlags::SYN)
            .seq(100)
            .options(TcpHeader::standard_syn_options())
            .build()
    }

    #[test]
    fn syn_gets_synack() {
        let (client, server) = addrs();
        let mut s = Server::new(ServerConfig::default_edge(server, 443));
        let mut rng = derive_rng(2, 1);
        let a = step(
            &mut s,
            EndpointInput::Packet(&syn(client, server)),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(a.emits.len(), 1);
        let synack = &a.emits[0].0;
        assert_eq!(synack.tcp.flags, TcpFlags::SYN_ACK);
        assert_eq!(synack.tcp.ack, Seq::from(101));
        assert_eq!(a.timers.len(), 1);
    }

    #[test]
    fn data_gets_ack_and_response() {
        let (client, server) = addrs();
        let mut s = Server::new(ServerConfig::default_edge(server, 443));
        let mut rng = derive_rng(2, 2);
        let _ = step(
            &mut s,
            EndpointInput::Packet(&syn(client, server)),
            SimTime::ZERO,
            &mut rng,
        );
        let ack = PacketBuilder::new(client, server, 40000, 443)
            .flags(TcpFlags::ACK)
            .seq(101)
            .ack(0x7000_0001)
            .build();
        let _ = step(&mut s, EndpointInput::Packet(&ack), SimTime(1), &mut rng);
        let data = PacketBuilder::new(client, server, 40000, 443)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .ack(0x7000_0001)
            .payload(Bytes::from_static(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
            .build();
        let a = step(&mut s, EndpointInput::Packet(&data), SimTime(2), &mut rng);
        // One ACK plus three response segments, last carrying PSH.
        assert_eq!(a.emits.len(), 4);
        assert_eq!(a.emits[0].0.tcp.flags, TcpFlags::ACK);
        assert_eq!(a.emits[3].0.tcp.flags, TcpFlags::PSH_ACK);
        assert!(!a.emits[1].0.payload.is_empty());
    }

    #[test]
    fn rst_closes_silently() {
        let (client, server) = addrs();
        let mut s = Server::new(ServerConfig::default_edge(server, 443));
        let mut rng = derive_rng(2, 3);
        let _ = step(
            &mut s,
            EndpointInput::Packet(&syn(client, server)),
            SimTime::ZERO,
            &mut rng,
        );
        let rst = PacketBuilder::new(client, server, 40000, 443)
            .flags(TcpFlags::RST)
            .seq(101)
            .build();
        let a = step(&mut s, EndpointInput::Packet(&rst), SimTime(1), &mut rng);
        assert!(a.emits.is_empty());
        assert!(s.is_closed());
        // Subsequent packets are ignored.
        let late = step(
            &mut s,
            EndpointInput::Packet(&syn(client, server)),
            SimTime(2),
            &mut rng,
        );
        assert!(late.emits.is_empty());
    }

    #[test]
    fn synack_retransmits_then_gives_up() {
        let (client, server) = addrs();
        let mut s = Server::new(ServerConfig::default_edge(server, 443));
        let mut rng = derive_rng(2, 4);
        let _ = step(
            &mut s,
            EndpointInput::Packet(&syn(client, server)),
            SimTime::ZERO,
            &mut rng,
        );
        let a1 = step(
            &mut s,
            EndpointInput::Timer(ServerTimer::RetransmitSynAck),
            SimTime::from_secs(1),
            &mut rng,
        );
        assert_eq!(a1.emits.len(), 1);
        let a2 = step(
            &mut s,
            EndpointInput::Timer(ServerTimer::RetransmitSynAck),
            SimTime::from_secs(3),
            &mut rng,
        );
        assert_eq!(a2.emits.len(), 1);
        let a3 = step(
            &mut s,
            EndpointInput::Timer(ServerTimer::RetransmitSynAck),
            SimTime::from_secs(7),
            &mut rng,
        );
        assert!(a3.emits.is_empty());
        assert!(s.is_closed());
    }

    #[test]
    fn syn_payload_request_answered_after_handshake() {
        let (client, server) = addrs();
        let mut s = Server::new(ServerConfig::default_edge(server, 443));
        let mut rng = derive_rng(2, 5);
        let syn_with_data = PacketBuilder::new(client, server, 40000, 80)
            .flags(TcpFlags::SYN)
            .seq(100)
            .payload(Bytes::from_static(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
            .build();
        let a = step(
            &mut s,
            EndpointInput::Packet(&syn_with_data),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(a.emits[0].0.tcp.flags, TcpFlags::SYN_ACK);
        // Handshake ACK releases the buffered response.
        let ack = PacketBuilder::new(client, server, 40000, 80)
            .flags(TcpFlags::ACK)
            .seq(128)
            .ack(0x7000_0001)
            .build();
        let b = step(&mut s, EndpointInput::Packet(&ack), SimTime(1), &mut rng);
        assert_eq!(b.emits.len(), 3); // response segments only
    }

    #[test]
    fn fin_is_acked_with_fin() {
        let (client, server) = addrs();
        let mut s = Server::new(ServerConfig::default_edge(server, 443));
        let mut rng = derive_rng(2, 6);
        let _ = step(
            &mut s,
            EndpointInput::Packet(&syn(client, server)),
            SimTime::ZERO,
            &mut rng,
        );
        let ack = PacketBuilder::new(client, server, 40000, 443)
            .flags(TcpFlags::ACK)
            .seq(101)
            .ack(0x7000_0001)
            .build();
        let _ = step(&mut s, EndpointInput::Packet(&ack), SimTime(1), &mut rng);
        let fin = PacketBuilder::new(client, server, 40000, 443)
            .flags(TcpFlags::FIN_ACK)
            .seq(101)
            .ack(0x7000_0001)
            .build();
        let a = step(&mut s, EndpointInput::Packet(&fin), SimTime(2), &mut rng);
        assert_eq!(a.emits.len(), 1);
        assert!(a.emits[0].0.tcp.flags.has_fin());
        assert!(!s.is_closed());
        // Final ACK of our FIN closes.
        let last = PacketBuilder::new(client, server, 40000, 443)
            .flags(TcpFlags::ACK)
            .seq(102)
            .ack(0x7000_0002)
            .build();
        let _ = step(&mut s, EndpointInput::Packet(&last), SimTime(3), &mut rng);
        assert!(s.is_closed());
    }
}
