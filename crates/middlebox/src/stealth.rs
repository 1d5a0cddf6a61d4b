//! The evasion strategy from the paper's concluding discussion (§6):
//!
//! > "The ideal tampering strategy would involve blocking content from the
//! > server to the client (so the client does not get any objectionable
//! > content), while continuing the connection to the server as if it
//! > were the client (so the server does not detect any immediate
//! > connection tear-downs)."
//!
//! [`StealthHijacker`] implements exactly that: once a rule fires on the
//! first data packet, it black-holes everything toward the client and
//! impersonates the client toward the server — acknowledging response
//! segments and closing with a graceful FIN handshake. The server-side
//! classifier sees a perfectly normal connection.
//!
//! The paper notes this "would only be possible when the tampering
//! middlebox can drop packets, which is uncommon in practice" — this
//! module exists to *prove the blind spot* (see
//! `tests/evasion_limits.rs`), not because it is deployed at scale.

use crate::rules::RuleSet;
use rand::Rng;
use std::net::IpAddr;
use tamper_netsim::{
    Direction, Hop, HopCtx, HopOutcome, Mechanism, SimDuration, TamperEvent, TriggerStage,
};
use tamper_wire::{Packet, PacketBuilder, Seq, TcpFlags};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Watching,
    /// Client is cut off; we speak TCP to the server in its stead.
    Hijacked,
    /// Our FIN has been sent; waiting to ACK the server's FIN.
    Closing,
    Done,
}

/// A middlebox that hijacks offending connections instead of tearing them
/// down — invisible to server-side signature detection.
pub struct StealthHijacker {
    rules: RuleSet,
    state: State,
    client: Option<(IpAddr, u16)>,
    server: Option<(IpAddr, u16)>,
    /// Our sequence cursor when speaking as the client.
    snd_nxt: Seq,
    /// Next expected server sequence.
    rcv_nxt: Seq,
    /// TTL used for forged packets; copied from the client so even the
    /// TTL evidence stays silent.
    client_ttl: u8,
    ip_id: u16,
}

impl StealthHijacker {
    /// Create a hijacker with the given trigger rules (first-data stage).
    pub fn new(rules: RuleSet) -> StealthHijacker {
        StealthHijacker {
            rules,
            state: State::Watching,
            client: None,
            server: None,
            snd_nxt: Seq::ZERO,
            rcv_nxt: Seq::ZERO,
            client_ttl: 64,
            ip_id: 0,
        }
    }

    fn forge(&mut self, flags: TcpFlags, payload_consumes: u32) -> Option<Packet> {
        let (caddr, cport) = self.client?;
        let (saddr, sport) = self.server?;
        // Continue the client's IP-ID sequence plausibly.
        self.ip_id = self.ip_id.wrapping_add(1);
        let pkt = PacketBuilder::new(caddr, saddr, cport, sport)
            .flags(flags)
            .seq(self.snd_nxt)
            .ack(self.rcv_nxt)
            .ttl(self.client_ttl)
            .ip_id(self.ip_id)
            .window(64_240)
            .build();
        self.snd_nxt = self.snd_nxt.wrapping_add(payload_consumes);
        Some(pkt)
    }
}

impl Hop for StealthHijacker {
    fn on_packet(&mut self, ctx: &mut HopCtx<'_>, pkt: &Packet, dir: Direction) -> HopOutcome {
        match dir {
            Direction::ToServer => {
                if pkt.tcp.flags.has_syn() && !pkt.tcp.flags.has_ack() {
                    self.client = Some((pkt.ip.src(), pkt.tcp.src_port));
                    self.server = Some((pkt.ip.dst(), pkt.tcp.dst_port));
                    self.client_ttl = pkt.ip.ttl();
                    self.ip_id = pkt.ip.ip_id().unwrap_or(0);
                    self.snd_nxt = pkt.tcp.seq.wrapping_add(1);
                }
                match self.state {
                    State::Watching => {
                        if !pkt.payload.is_empty() {
                            self.client_ttl = pkt.ip.ttl();
                            self.ip_id = pkt.ip.ip_id().unwrap_or(self.ip_id);
                            if self.rules.match_first_data(&pkt.payload).is_some() {
                                // Fire: let the request through so the
                                // server keeps talking — to us.
                                ctx.tamper_events.push(TamperEvent {
                                    time: ctx.now,
                                    hop: ctx.hop_index,
                                    mechanism: Mechanism::Drop,
                                    stage: TriggerStage::FirstData,
                                });
                                self.snd_nxt = pkt.tcp.seq.wrapping_add(pkt.payload.len() as u32);
                                self.state = State::Hijacked;
                            }
                        }
                        HopOutcome::pass()
                    }
                    // The real client is cut off entirely.
                    _ => HopOutcome::drop_packet(),
                }
            }
            Direction::ToClient => match self.state {
                State::Watching => {
                    self.rcv_nxt = pkt
                        .tcp
                        .seq
                        .wrapping_add(pkt.payload.len() as u32)
                        .wrapping_add(u32::from(pkt.tcp.flags.has_syn()));
                    HopOutcome::pass()
                }
                State::Hijacked => {
                    // Swallow the response; speak as the client.
                    let mut out = HopOutcome::drop_packet();
                    if pkt.tcp.flags.has_rst() {
                        self.state = State::Done;
                        return out;
                    }
                    if !pkt.payload.is_empty() {
                        self.rcv_nxt = pkt.tcp.seq.wrapping_add(pkt.payload.len() as u32);
                        let jitter = SimDuration::from_micros(ctx.rng.gen_range(50..250));
                        if pkt.tcp.flags.has_psh() {
                            // Response complete: ACK it and close politely.
                            if let Some(ack) = self.forge(TcpFlags::ACK, 0) {
                                out = out.with_injection_to_server(ack, jitter);
                            }
                            if let Some(fin) = self.forge(TcpFlags::FIN_ACK, 1) {
                                out = out.with_injection_to_server(
                                    fin,
                                    jitter + SimDuration::from_micros(400),
                                );
                            }
                            self.state = State::Closing;
                        } else if let Some(ack) = self.forge(TcpFlags::ACK, 0) {
                            out = out.with_injection_to_server(ack, jitter);
                        }
                    }
                    out
                }
                State::Closing => {
                    let mut out = HopOutcome::drop_packet();
                    if pkt.tcp.flags.has_fin() {
                        self.rcv_nxt = pkt.tcp.seq.wrapping_add(1);
                        if let Some(ack) = self.forge(TcpFlags::ACK, 0) {
                            out = out.with_injection_to_server(ack, SimDuration::from_micros(120));
                        }
                        self.state = State::Done;
                    }
                    out
                }
                State::Done => HopOutcome::drop_packet(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tamper_netsim::derive_rng;
    use tamper_wire::tls;

    fn client() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9))
    }
    fn server() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1))
    }

    fn ctx_run(
        h: &mut StealthHijacker,
        pkts: &[(Packet, Direction)],
    ) -> (Vec<HopOutcome>, Vec<TamperEvent>) {
        let mut rng = derive_rng(1, 1);
        let mut events = Vec::new();
        let mut outs = Vec::new();
        for (i, (pkt, dir)) in pkts.iter().enumerate() {
            let mut ctx = HopCtx {
                now: tamper_netsim::SimTime::from_secs(i as u64),
                rng: &mut rng,
                tamper_events: &mut events,
                hop_index: 0,
            };
            outs.push(h.on_packet(&mut ctx, pkt, *dir));
        }
        (outs, events)
    }

    #[test]
    fn hijack_acks_server_and_closes_gracefully() {
        let mut h = StealthHijacker::new(RuleSet::domains(["bad.example"]));
        let syn = PacketBuilder::new(client(), server(), 40000, 443)
            .flags(TcpFlags::SYN)
            .seq(100)
            .ttl(60)
            .ip_id(9)
            .build();
        let synack = PacketBuilder::new(server(), client(), 443, 40000)
            .flags(TcpFlags::SYN_ACK)
            .seq(500)
            .ack(101)
            .build();
        let hello = PacketBuilder::new(client(), server(), 40000, 443)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .ack(501)
            .ttl(60)
            .ip_id(10)
            .payload(tls::build_client_hello("bad.example", [0u8; 32]))
            .build();
        let resp = PacketBuilder::new(server(), client(), 443, 40000)
            .flags(TcpFlags::PSH_ACK)
            .seq(501)
            .ack(h.snd_nxt)
            .payload(bytes::Bytes::from_static(b"content"))
            .build();
        let (outs, events) = ctx_run(
            &mut h,
            &[
                (syn, Direction::ToServer),
                (synack, Direction::ToClient),
                (hello.clone(), Direction::ToServer),
                (resp, Direction::ToClient),
                (hello, Direction::ToServer), // client retransmission
            ],
        );
        assert!(outs[2].forward, "trigger request must reach the server");
        assert_eq!(events.len(), 1);
        // The response is dropped toward the client but answered with an
        // ACK and a FIN toward the server.
        assert!(!outs[3].forward);
        let flags: Vec<TcpFlags> = outs[3]
            .inject_to_server
            .iter()
            .map(|(p, _)| p.tcp.flags)
            .collect();
        assert_eq!(flags, vec![TcpFlags::ACK, TcpFlags::FIN_ACK]);
        // Forged packets impersonate the client stack (TTL and IP-ID
        // continue the client's sequence).
        let forged = &outs[3].inject_to_server[0].0;
        assert_eq!(forged.ip.src(), client());
        assert_eq!(forged.ip.ttl(), 60);
        assert_eq!(forged.ip.ip_id(), Some(11));
        // The cut-off client's retransmission goes nowhere.
        assert!(!outs[4].forward);
    }

    #[test]
    fn innocent_flows_untouched() {
        let mut h = StealthHijacker::new(RuleSet::domains(["bad.example"]));
        let hello = PacketBuilder::new(client(), server(), 40000, 443)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .payload(tls::build_client_hello("good.example", [0u8; 32]))
            .build();
        let (outs, events) = ctx_run(&mut h, &[(hello, Direction::ToServer)]);
        assert!(outs[0].forward);
        assert!(events.is_empty());
    }
}
