//! The middlebox interface.
//!
//! A [`Hop`] sits at a point on the path between client and server, sees
//! every packet that traverses it (in both directions), and can forward,
//! drop, or inject packets toward either endpoint. Concrete tampering
//! middleboxes live in the `tamper-middlebox` crate; this module defines
//! only the contract the simulator needs.

use crate::time::{SimDuration, SimTime};
use crate::trace::{Direction, TamperEvent};
use rand::rngs::StdRng;
use tamper_wire::Packet;

/// Context handed to a hop for each packet.
pub struct HopCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The session's deterministic RNG.
    pub rng: &'a mut StdRng,
    /// Ground-truth sink: hops push a [`TamperEvent`] whenever they fire.
    pub tamper_events: &'a mut Vec<TamperEvent>,
    /// This hop's index along the path (for ground-truth attribution).
    pub hop_index: u8,
}

/// What a hop decided to do with one packet.
#[derive(Debug, Default)]
pub struct HopOutcome {
    /// Whether the observed packet continues toward its destination.
    pub forward: bool,
    /// Packets to inject toward the server, each after a relative delay.
    pub inject_to_server: Vec<(Packet, SimDuration)>,
    /// Packets to inject toward the client, each after a relative delay.
    pub inject_to_client: Vec<(Packet, SimDuration)>,
}

impl HopOutcome {
    /// Pass the packet through untouched.
    pub fn pass() -> HopOutcome {
        HopOutcome {
            forward: true,
            ..Default::default()
        }
    }

    /// Silently drop the packet.
    pub fn drop_packet() -> HopOutcome {
        HopOutcome::default()
    }

    /// Add an injection toward the server.
    pub fn with_injection_to_server(mut self, pkt: Packet, delay: SimDuration) -> HopOutcome {
        self.inject_to_server.push((pkt, delay));
        self
    }
}

/// A point on the path that observes and may manipulate traffic.
pub trait Hop {
    /// Called for every packet traversing this hop. `dir` is the packet's
    /// direction of travel.
    fn on_packet(&mut self, ctx: &mut HopCtx<'_>, pkt: &Packet, dir: Direction) -> HopOutcome;
}

/// A hop that forwards everything — the identity middlebox.
#[derive(Debug, Default, Clone, Copy)]
pub struct TransparentHop;

impl Hop for TransparentHop {
    fn on_packet(&mut self, _ctx: &mut HopCtx<'_>, _pkt: &Packet, _dir: Direction) -> HopOutcome {
        HopOutcome::pass()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_wire::{PacketBuilder, TcpFlags};

    #[test]
    fn transparent_hop_forwards() {
        let pkt = PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            1,
            2,
        )
        .flags(TcpFlags::SYN)
        .build();
        let mut rng = derive_rng(1, 1);
        let mut events = Vec::new();
        let mut ctx = HopCtx {
            now: SimTime::ZERO,
            rng: &mut rng,
            tamper_events: &mut events,
            hop_index: 0,
        };
        let out = TransparentHop.on_packet(&mut ctx, &pkt, Direction::ToServer);
        assert!(out.forward);
        assert!(out.inject_to_server.is_empty());
        assert!(out.inject_to_client.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn outcome_builders() {
        let pkt = PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            1,
            2,
        )
        .flags(TcpFlags::RST)
        .build();
        let out =
            HopOutcome::drop_packet().with_injection_to_server(pkt, SimDuration::from_micros(10));
        assert!(!out.forward);
        assert_eq!(out.inject_to_server.len(), 1);
        assert!(out.inject_to_client.is_empty());
    }
}
