//! The tampering middlebox: a [`Hop`] implementation that watches a flow,
//! evaluates trigger rules at the configured connection stages, and fires
//! a [`TamperAction`] — dropping and/or forging tear-down packets with a
//! vendor-specific network-stack profile.

use crate::rules::RuleSet;
use crate::spec::{
    AckStrategy, InjectorStack, RstKind, RstSpec, TamperAction, TriggerStages, TtlMode,
};
use rand::Rng;
use std::net::IpAddr;
use tamper_netsim::{
    Direction, Hop, HopCtx, HopOutcome, IpIdGen, Mechanism, SimDuration, TamperEvent, TriggerStage,
};
use tamper_wire::{Packet, PacketBuilder, Seq, TcpFlags};

/// Fire unconditionally at a given stage, regardless of rules. The world
/// driver uses this to model policy decisions made outside the middlebox
/// (e.g. residual blocking, where a censor keeps tearing down a
/// client–domain pair it recently triggered on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedStage {
    /// Fire on the first SYN.
    Syn,
    /// Fire on the first data packet.
    FirstData,
    /// Fire on the `n`-th data packet (1-based; values ≥ 2 model
    /// later-data triggers).
    NthData(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoxState {
    /// Watching for a trigger.
    Watching,
    /// Fired with a drop action: the flow is black-holed both ways.
    DroppingAll,
    /// Fired with an injection and no drop-list: the flow passes freely.
    Done,
}

/// Per-flow tracking of addressing and sequence state, as an on-path
/// observer reconstructs it.
#[derive(Debug, Default, Clone, Copy)]
struct FlowTrack {
    client: Option<(IpAddr, u16)>,
    server: Option<(IpAddr, u16)>,
    /// The client's next sequence number (server's rcv_nxt estimate).
    client_next: Seq,
    /// The server's next sequence number (client's rcv_nxt estimate).
    server_next: Seq,
    /// Data-bearing packets seen client→server.
    data_packets: u32,
    /// TTL of the last client packet as seen at the middlebox.
    client_ttl: u8,
}

/// A configurable tampering middlebox.
pub struct TamperingMiddlebox {
    rules: RuleSet,
    stages: TriggerStages,
    action: TamperAction,
    stack: InjectorStack,
    force: Option<ForcedStage>,
    ip_id: IpIdGen,
    flow: FlowTrack,
    state: BoxState,
}

impl TamperingMiddlebox {
    /// Build a middlebox from its parts.
    pub(crate) fn new(
        rules: RuleSet,
        stages: TriggerStages,
        action: TamperAction,
        stack: InjectorStack,
    ) -> TamperingMiddlebox {
        let ip_id = IpIdGen::new(stack.ip_id);
        TamperingMiddlebox {
            rules,
            stages,
            action,
            stack,
            force: None,
            ip_id,
            flow: FlowTrack::default(),
            state: BoxState::Watching,
        }
    }

    /// Force a trigger at the given stage regardless of rules.
    pub fn with_forced_trigger(mut self, stage: ForcedStage) -> TamperingMiddlebox {
        self.force = Some(stage);
        self
    }

    fn ttl_for_injection(&self, ctx: &mut HopCtx<'_>) -> u8 {
        match self.stack.ttl {
            TtlMode::Fixed(t) => t,
            TtlMode::Random { lo, hi } => ctx.rng.gen_range(lo..=hi),
            TtlMode::CopyClient => self.flow.client_ttl,
        }
    }

    fn ack_value(&self, strategy: AckStrategy, base: Seq) -> Seq {
        match strategy {
            AckStrategy::Exact => base,
            AckStrategy::Zero => Seq::ZERO,
            AckStrategy::Offset(o) => base.wrapping_add(o),
        }
    }

    /// Forge one tear-down packet toward the server, spoofing the client.
    fn forge_to_server(&mut self, spec: RstSpec, ctx: &mut HopCtx<'_>) -> Option<Packet> {
        let (caddr, cport) = self.flow.client?;
        let (saddr, sport) = self.flow.server?;
        let ttl = self.ttl_for_injection(ctx);
        let id = self.ip_id.next(ctx.rng);
        let mut b = PacketBuilder::new(caddr, saddr, cport, sport)
            .ttl(ttl)
            .ip_id(id)
            .seq(self.flow.client_next)
            .window(0);
        b = match spec.kind {
            RstKind::Rst => b.flags(TcpFlags::RST),
            RstKind::RstAck => {
                let ack = self.ack_value(spec.ack, self.flow.server_next);
                b.flags(TcpFlags::RST_ACK).ack(ack)
            }
        };
        // Bare RSTs also carry an acknowledgement value in the header even
        // though the ACK flag is clear — the `RST = RST` / `RST ≠ RST` /
        // `RST; RST₀` distinctions in Table 1 are drawn from those values.
        if spec.kind == RstKind::Rst {
            let ack = self.ack_value(spec.ack, self.flow.server_next);
            b = b.ack(ack);
        }
        Some(b.build())
    }

    /// Forge one tear-down packet toward the client, spoofing the server.
    fn forge_to_client(&mut self, spec: RstSpec, ctx: &mut HopCtx<'_>) -> Option<Packet> {
        let (caddr, cport) = self.flow.client?;
        let (saddr, sport) = self.flow.server?;
        let ttl = self.ttl_for_injection(ctx);
        let id = self.ip_id.next(ctx.rng);
        let mut b = PacketBuilder::new(saddr, caddr, sport, cport)
            .ttl(ttl)
            .ip_id(id)
            .seq(self.flow.server_next)
            .window(0);
        b = match spec.kind {
            RstKind::Rst => b.flags(TcpFlags::RST),
            RstKind::RstAck => {
                let ack = self.ack_value(spec.ack, self.flow.client_next);
                b.flags(TcpFlags::RST_ACK).ack(ack)
            }
        };
        Some(b.build())
    }

    fn fire(&mut self, ctx: &mut HopCtx<'_>, stage: TriggerStage) -> HopOutcome {
        let action = self.action.clone();
        let mechanism = match action {
            TamperAction::DropFlow { .. } => Mechanism::Drop,
            TamperAction::Inject { .. } => Mechanism::Inject,
        };
        ctx.tamper_events.push(TamperEvent {
            time: ctx.now,
            hop: ctx.hop_index,
            mechanism,
            stage,
        });
        match action {
            TamperAction::DropFlow { drop_trigger } => {
                self.state = BoxState::DroppingAll;
                HopOutcome {
                    forward: !drop_trigger,
                    ..Default::default()
                }
            }
            TamperAction::Inject {
                to_server,
                to_client,
                drop_trigger,
                then_drop_flow,
            } => {
                let mut outcome = HopOutcome {
                    forward: !drop_trigger,
                    ..Default::default()
                };
                let gap = self.stack.burst_gap;
                for (i, spec) in to_server.iter().enumerate() {
                    if let Some(pkt) = self.forge_to_server(*spec, ctx) {
                        let delay = SimDuration(gap.as_nanos() * i as u64);
                        outcome.inject_to_server.push((pkt, delay));
                    }
                }
                for (i, spec) in to_client.iter().enumerate() {
                    if let Some(pkt) = self.forge_to_client(*spec, ctx) {
                        let delay = SimDuration(gap.as_nanos() * i as u64);
                        outcome.inject_to_client.push((pkt, delay));
                    }
                }
                self.state = if then_drop_flow {
                    BoxState::DroppingAll
                } else {
                    BoxState::Done
                };
                outcome
            }
        }
    }

    fn should_fire(&self, pkt: &Packet, stage_kind: StageKind) -> Option<TriggerStage> {
        // Forced triggers take precedence over (and bypass) the rules.
        if let Some(force) = self.force {
            let hit = match (force, stage_kind) {
                (ForcedStage::Syn, StageKind::Syn) => true,
                (ForcedStage::FirstData, StageKind::Data(1)) => true,
                (ForcedStage::NthData(n), StageKind::Data(k)) => k == n,
                _ => false,
            };
            if hit {
                return Some(match stage_kind {
                    StageKind::Syn => TriggerStage::Syn,
                    StageKind::Data(1) => TriggerStage::FirstData,
                    _ => TriggerStage::LaterData,
                });
            }
            return None;
        }
        match stage_kind {
            StageKind::Syn if self.stages.on_syn => {
                self.rules.match_syn(pkt).map(|_| TriggerStage::Syn)
            }
            StageKind::Data(1) if self.stages.on_first_data => self
                .rules
                .match_first_data(&pkt.payload)
                .map(|_| TriggerStage::FirstData),
            StageKind::Data(n) if n >= 2 && self.stages.on_later_data => self
                .rules
                .match_keywords(&pkt.payload)
                .map(|_| TriggerStage::LaterData),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    Syn,
    /// `Data(n)`: the n-th data-bearing client packet (1-based).
    Data(u32),
    Other,
}

impl Hop for TamperingMiddlebox {
    fn on_packet(&mut self, ctx: &mut HopCtx<'_>, pkt: &Packet, dir: Direction) -> HopOutcome {
        if self.state == BoxState::DroppingAll {
            return HopOutcome::drop_packet();
        }
        match dir {
            Direction::ToClient => {
                self.flow.server = Some((pkt.ip.src(), pkt.tcp.src_port));
                let mut next = pkt.tcp.seq.wrapping_add(pkt.payload.len() as u32);
                if pkt.tcp.flags.has_syn() || pkt.tcp.flags.has_fin() {
                    next = next.wrapping_add(1);
                }
                self.flow.server_next = next;
                HopOutcome::pass()
            }
            Direction::ToServer => {
                let stage_kind = if pkt.tcp.flags.has_syn() && !pkt.tcp.flags.has_ack() {
                    self.flow.client = Some((pkt.ip.src(), pkt.tcp.src_port));
                    self.flow.server = self.flow.server.or(Some((pkt.ip.dst(), pkt.tcp.dst_port)));
                    self.flow.client_next = pkt
                        .tcp
                        .seq
                        .wrapping_add(1)
                        .wrapping_add(pkt.payload.len() as u32);
                    StageKind::Syn
                } else if !pkt.payload.is_empty() {
                    self.flow.data_packets += 1;
                    self.flow.client_next = pkt.tcp.seq.wrapping_add(pkt.payload.len() as u32);
                    StageKind::Data(self.flow.data_packets)
                } else {
                    StageKind::Other
                };
                self.flow.client_ttl = pkt.ip.ttl();

                if self.state == BoxState::Watching {
                    if let Some(stage) = self.should_fire(pkt, stage_kind) {
                        return self.fire(ctx, stage);
                    }
                }
                HopOutcome::pass()
            }
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

    fn syn() -> Packet {
        PacketBuilder::new(client(), server(), 40000, 443)
            .flags(TcpFlags::SYN)
            .seq(100)
            .ttl(60)
            .build()
    }

    fn hello(sni: &str) -> Packet {
        PacketBuilder::new(client(), server(), 40000, 443)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .ack(501)
            .ttl(60)
            .payload(tls::build_client_hello(sni, [0u8; 32]))
            .build()
    }

    fn run_through(
        mb: &mut TamperingMiddlebox,
        pkts: &[(Packet, Direction)],
    ) -> (Vec<HopOutcome>, Vec<TamperEvent>) {
        let mut rng = derive_rng(5, 5);
        let mut events = Vec::new();
        let mut outs = Vec::new();
        for (i, (pkt, dir)) in pkts.iter().enumerate() {
            let mut ctx = HopCtx {
                now: tamper_netsim::SimTime::from_secs(i as u64),
                rng: &mut rng,
                tamper_events: &mut events,
                hop_index: 0,
            };
            outs.push(mb.on_packet(&mut ctx, pkt, *dir));
        }
        (outs, events)
    }

    #[test]
    fn sni_rule_fires_injection_on_first_data() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::domains(["bad.example"]),
            TriggerStages::FIRST_DATA,
            TamperAction::Inject {
                to_server: vec![RstSpec::rst_ack(), RstSpec::rst_ack()],
                to_client: vec![RstSpec::rst()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            InjectorStack::typical(),
        );
        let (outs, events) = run_through(
            &mut mb,
            &[
                (syn(), Direction::ToServer),
                (hello("bad.example"), Direction::ToServer),
            ],
        );
        assert!(outs[0].forward);
        assert!(outs[1].forward); // on-path: trigger passes
        assert_eq!(outs[1].inject_to_server.len(), 2);
        assert_eq!(outs[1].inject_to_client.len(), 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, TriggerStage::FirstData);
        assert_eq!(events[0].mechanism, Mechanism::Inject);
        // Forged packets spoof the client toward the server.
        let forged = &outs[1].inject_to_server[0].0;
        assert_eq!(forged.ip.src(), client());
        assert_eq!(forged.tcp.flags, TcpFlags::RST_ACK);
        // seq continues the client's stream past the ClientHello.
        let hello_len = hello("bad.example").payload.len() as u32;
        assert_eq!(forged.tcp.seq, Seq::from(101).wrapping_add(hello_len));
    }

    #[test]
    fn innocent_domain_passes() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::domains(["bad.example"]),
            TriggerStages::FIRST_DATA,
            TamperAction::DropFlow { drop_trigger: true },
            InjectorStack::typical(),
        );
        let (outs, events) = run_through(
            &mut mb,
            &[
                (syn(), Direction::ToServer),
                (hello("good.example"), Direction::ToServer),
            ],
        );
        assert!(outs.iter().all(|o| o.forward));
        assert!(events.is_empty());
    }

    #[test]
    fn drop_flow_blackholes_everything_after_trigger() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::domains(["bad.example"]),
            TriggerStages::FIRST_DATA,
            TamperAction::DropFlow { drop_trigger: true },
            InjectorStack::typical(),
        );
        let retrans = hello("bad.example");
        let (outs, events) = run_through(
            &mut mb,
            &[
                (syn(), Direction::ToServer),
                (hello("bad.example"), Direction::ToServer),
                (retrans, Direction::ToServer),
                (syn(), Direction::ToClient),
            ],
        );
        assert!(outs[0].forward);
        assert!(!outs[1].forward); // trigger dropped
        assert!(!outs[2].forward); // retransmission dropped
        assert!(!outs[3].forward); // reverse direction dropped too
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].mechanism, Mechanism::Drop);
    }

    #[test]
    fn syn_stage_blanket_ban() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::blanket(),
            TriggerStages::SYN,
            TamperAction::Inject {
                to_server: vec![RstSpec::rst()],
                to_client: vec![RstSpec::rst()],
                drop_trigger: false,
                then_drop_flow: true,
            },
            InjectorStack::typical(),
        );
        let (outs, events) = run_through(&mut mb, &[(syn(), Direction::ToServer)]);
        assert!(outs[0].forward);
        assert_eq!(outs[0].inject_to_server.len(), 1);
        assert_eq!(events[0].stage, TriggerStage::Syn);
    }

    #[test]
    fn zero_ack_strategy_produces_zero() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::domains(["bad.example"]),
            TriggerStages::FIRST_DATA,
            TamperAction::Inject {
                to_server: vec![
                    RstSpec {
                        kind: RstKind::Rst,
                        ack: AckStrategy::Exact,
                    },
                    RstSpec {
                        kind: RstKind::Rst,
                        ack: AckStrategy::Zero,
                    },
                ],
                to_client: vec![],
                drop_trigger: false,
                then_drop_flow: false,
            },
            InjectorStack::typical(),
        );
        let (outs, _) = run_through(
            &mut mb,
            &[
                (syn(), Direction::ToServer),
                (hello("bad.example"), Direction::ToServer),
            ],
        );
        let acks: Vec<Seq> = outs[1]
            .inject_to_server
            .iter()
            .map(|(p, _)| p.tcp.ack)
            .collect();
        assert_eq!(acks[1], Seq::ZERO);
    }

    #[test]
    fn forced_trigger_ignores_rules() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::default(), // empty: would never fire on its own
            TriggerStages::FIRST_DATA,
            TamperAction::Inject {
                to_server: vec![RstSpec::rst()],
                to_client: vec![RstSpec::rst()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            InjectorStack::typical(),
        )
        .with_forced_trigger(ForcedStage::FirstData);
        let (outs, events) = run_through(
            &mut mb,
            &[
                (syn(), Direction::ToServer),
                (hello("anything.example"), Direction::ToServer),
            ],
        );
        assert_eq!(outs[1].inject_to_server.len(), 1);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn forced_nth_data_fires_on_later_packet() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::default(),
            TriggerStages::LATER_DATA,
            TamperAction::Inject {
                to_server: vec![RstSpec::rst_ack()],
                to_client: vec![RstSpec::rst_ack()],
                drop_trigger: true,
                then_drop_flow: true,
            },
            InjectorStack::typical(),
        )
        .with_forced_trigger(ForcedStage::NthData(2));
        let (outs, events) = run_through(
            &mut mb,
            &[
                (syn(), Direction::ToServer),
                (hello("a.example"), Direction::ToServer),
                (hello("a.example"), Direction::ToServer), // 2nd data packet
            ],
        );
        assert!(outs[1].inject_to_server.is_empty());
        assert_eq!(outs[2].inject_to_server.len(), 1);
        assert_eq!(events[0].stage, TriggerStage::LaterData);
    }

    #[test]
    fn injection_ttl_respects_mode() {
        for (mode, check) in [
            (TtlMode::Fixed(200), Some(200u8)),
            (TtlMode::CopyClient, Some(60)),
        ] {
            let mut mb = TamperingMiddlebox::new(
                RuleSet::blanket(),
                TriggerStages::FIRST_DATA,
                TamperAction::Inject {
                    to_server: vec![RstSpec::rst()],
                    to_client: vec![],
                    drop_trigger: false,
                    then_drop_flow: false,
                },
                InjectorStack {
                    ttl: mode,
                    ..InjectorStack::typical()
                },
            );
            let (outs, _) = run_through(
                &mut mb,
                &[
                    (syn(), Direction::ToServer),
                    (hello("x.example"), Direction::ToServer),
                ],
            );
            let forged = &outs[1].inject_to_server[0].0;
            assert_eq!(Some(forged.ip.ttl()), check);
        }
    }

    #[test]
    fn fires_only_once() {
        let mut mb = TamperingMiddlebox::new(
            RuleSet::blanket(),
            TriggerStages::ANY_DATA,
            TamperAction::Inject {
                to_server: vec![RstSpec::rst()],
                to_client: vec![],
                drop_trigger: false,
                then_drop_flow: false,
            },
            InjectorStack::typical(),
        );
        let (outs, events) = run_through(
            &mut mb,
            &[
                (syn(), Direction::ToServer),
                (hello("x.example"), Direction::ToServer),
                (hello("x.example"), Direction::ToServer),
            ],
        );
        assert_eq!(outs[1].inject_to_server.len(), 1);
        assert!(outs[2].inject_to_server.is_empty());
        assert_eq!(events.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spec::{InjectorStack, TriggerStages};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;
    use tamper_netsim::derive_rng;
    use tamper_wire::tls;

    fn arb_action() -> impl Strategy<Value = TamperAction> {
        prop_oneof![
            proptest::bool::ANY.prop_map(|d| TamperAction::DropFlow { drop_trigger: d }),
            (
                proptest::collection::vec(
                    prop_oneof![Just(RstSpec::rst()), Just(RstSpec::rst_ack())],
                    0..4
                ),
                proptest::collection::vec(Just(RstSpec::rst()), 0..3),
                proptest::bool::ANY,
                proptest::bool::ANY,
            )
                .prop_map(|(to_server, to_client, drop_trigger, then_drop_flow)| {
                    TamperAction::Inject {
                        to_server,
                        to_client,
                        drop_trigger,
                        then_drop_flow,
                    }
                }),
        ]
    }

    fn arb_stages() -> impl Strategy<Value = TriggerStages> {
        prop_oneof![
            Just(TriggerStages::SYN),
            Just(TriggerStages::FIRST_DATA),
            Just(TriggerStages::ANY_DATA),
            Just(TriggerStages::LATER_DATA),
        ]
    }

    proptest! {
        /// Whatever the configuration, a middlebox fires at most once, and
        /// a fired drop-action never forwards subsequent packets.
        #[test]
        fn fires_at_most_once_and_drop_is_sticky(
            action in arb_action(),
            stages in arb_stages(),
            n_data in 1usize..5,
            seed in any::<u64>(),
        ) {
            let client = std::net::IpAddr::V4(Ipv4Addr::new(203, 0, 113, 8));
            let server = std::net::IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
            let mut mb = TamperingMiddlebox::new(
                RuleSet::blanket(),
                stages,
                action.clone(),
                InjectorStack::typical(),
            );
            let mut rng = derive_rng(seed, 0);
            let mut events = Vec::new();
            let syn = tamper_wire::PacketBuilder::new(client, server, 40000, 443)
                .flags(tamper_wire::TcpFlags::SYN)
                .seq(100)
                .build();
            let mut forwarded_after_drop = false;
            let process = |mb: &mut TamperingMiddlebox,
                               pkt: &tamper_wire::Packet,
                               rng: &mut rand::rngs::StdRng,
                               events: &mut Vec<tamper_netsim::TamperEvent>| {
                let mut ctx = HopCtx {
                    now: tamper_netsim::SimTime::ZERO,
                    rng,
                    tamper_events: events,
                    hop_index: 0,
                };
                mb.on_packet(&mut ctx, pkt, Direction::ToServer)
            };
            // "Sticky drop" only applies to actions that drop-list the
            // flow; a drop_trigger-only injection legitimately passes
            // later packets.
            let sticky = matches!(
                action,
                TamperAction::DropFlow { .. }
                    | TamperAction::Inject {
                        then_drop_flow: true,
                        ..
                    }
            );
            let mut dropped_mode = false;
            let out = process(&mut mb, &syn, &mut rng, &mut events);
            if sticky && !events.is_empty() && !out.forward {
                dropped_mode = true;
            }
            for i in 0..n_data {
                let data = tamper_wire::PacketBuilder::new(client, server, 40000, 443)
                    .flags(tamper_wire::TcpFlags::PSH_ACK)
                    .seq(101 + i as u32 * 100)
                    .payload(tls::build_client_hello("x.example", [0u8; 32]))
                    .build();
                let out = process(&mut mb, &data, &mut rng, &mut events);
                if dropped_mode && out.forward {
                    forwarded_after_drop = true;
                }
                if sticky && !events.is_empty() {
                    dropped_mode = true;
                }
            }
            prop_assert!(events.len() <= 1, "fired {} times", events.len());
            prop_assert!(!forwarded_after_drop, "forwarded after drop-flow engaged");
        }

        /// Forged packets always carry the flow's correct 4-tuple.
        #[test]
        fn forged_packets_spoof_the_client(seed in any::<u64>(), n in 1usize..4) {
            let client = std::net::IpAddr::V4(Ipv4Addr::new(203, 0, 113, 8));
            let server = std::net::IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
            let burst: Vec<RstSpec> = vec![RstSpec::rst_ack(); n];
            let mut mb = TamperingMiddlebox::new(
                RuleSet::blanket(),
                TriggerStages::FIRST_DATA,
                TamperAction::Inject {
                    to_server: burst,
                    to_client: vec![RstSpec::rst()],
                    drop_trigger: false,
                    then_drop_flow: false,
                },
                InjectorStack::typical(),
            );
            let mut rng = derive_rng(seed, 1);
            let mut events = Vec::new();
            let syn = tamper_wire::PacketBuilder::new(client, server, 41234, 443)
                .flags(tamper_wire::TcpFlags::SYN)
                .seq(7)
                .build();
            let hello = tamper_wire::PacketBuilder::new(client, server, 41234, 443)
                .flags(tamper_wire::TcpFlags::PSH_ACK)
                .seq(8)
                .payload(tls::build_client_hello("y.example", [1u8; 32]))
                .build();
            for pkt in [&syn, &hello] {
                let mut ctx = HopCtx {
                    now: tamper_netsim::SimTime::ZERO,
                    rng: &mut rng,
                    tamper_events: &mut events,
                    hop_index: 0,
                };
                let out = mb.on_packet(&mut ctx, pkt, Direction::ToServer);
                for (forged, _) in &out.inject_to_server {
                    prop_assert_eq!(forged.ip.src(), client);
                    prop_assert_eq!(forged.ip.dst(), server);
                    prop_assert_eq!(forged.tcp.src_port, 41234);
                    prop_assert_eq!(forged.tcp.dst_port, 443);
                    prop_assert!(forged.tcp.flags.has_rst());
                }
                for (forged, _) in &out.inject_to_client {
                    prop_assert_eq!(forged.ip.src(), server);
                    prop_assert_eq!(forged.ip.dst(), client);
                }
            }
        }
    }
}
