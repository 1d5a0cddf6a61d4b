//! Session traces: the ground-truth record of everything that happened in
//! one simulated connection.
//!
//! The trace is what the capture pipeline consumes (filtering to inbound
//! packets, truncating, quantizing). The `origin` and `tamper_events`
//! fields are ground truth that exists only in simulation — the classifier
//! in `tamper-core` never sees them; they are used by tests to measure
//! precision/recall.

use crate::time::SimTime;
use tamper_wire::Packet;

/// Which way a packet is travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server ("inbound" from the CDN's perspective; the only
    /// direction the paper's pipeline logs).
    ToServer,
    /// Server → client.
    ToClient,
}

/// Who created a packet (ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// The genuine client stack.
    Client,
    /// The CDN edge server.
    Server,
    /// A middlebox at hop index `n` along the path.
    Hop(u8),
}

/// The connection stage at which a middlebox triggered (ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerStage {
    /// Triggered on the SYN (IP/port based blocking).
    Syn,
    /// Triggered on the first data packet from the client (SNI / Host /
    /// GET line).
    FirstData,
    /// Triggered on a later data packet (keyword deeper in the flow).
    LaterData,
}

/// The mechanism a middlebox used (ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Packets were dropped (in-path blocking).
    Drop,
    /// Tear-down packets were injected (on-path or in-path injection).
    Inject,
}

/// A ground-truth record of one tampering action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperEvent {
    /// When the middlebox fired.
    pub time: SimTime,
    /// Which hop fired.
    pub hop: u8,
    /// Drop or inject.
    pub mechanism: Mechanism,
    /// What stage of the connection triggered it.
    pub stage: TriggerStage,
}

/// One packet as it arrived at an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedPacket {
    /// Arrival time at the recording endpoint.
    pub time: SimTime,
    /// Direction of travel.
    pub dir: Direction,
    /// Ground-truth creator.
    pub origin: Origin,
    /// The packet as received (TTL already decremented by the path).
    pub packet: Packet,
}

/// Everything observed during one simulated connection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionTrace {
    /// Packets in arrival order at their respective endpoints. Packets
    /// with [`Direction::ToServer`] arrived at the server (these are what
    /// the collection pipeline sees); [`Direction::ToClient`] arrived at
    /// the client (kept for debugging and pcap export).
    pub packets: Vec<TracedPacket>,
    /// When the client initiated the connection.
    pub started: SimTime,
    /// When the simulation of this session went quiescent.
    pub ended: SimTime,
    /// Ground-truth tampering actions, empty for untampered sessions.
    pub tamper_events: Vec<TamperEvent>,
}

impl SessionTrace {
    /// Iterator over the inbound (client→server) packets — the view the
    /// paper's pipeline records.
    pub fn inbound(&self) -> impl Iterator<Item = &TracedPacket> {
        self.packets.iter().filter(|p| p.dir == Direction::ToServer)
    }

    /// True if any middlebox tampered with this session (ground truth).
    pub fn was_tampered(&self) -> bool {
        !self.tamper_events.is_empty()
    }

    /// The first tampering event, if any.
    pub fn first_tamper(&self) -> Option<&TamperEvent> {
        self.tamper_events.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_wire::{PacketBuilder, TcpFlags};

    fn pkt(flags: TcpFlags) -> Packet {
        PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            1000,
            443,
        )
        .flags(flags)
        .build()
    }

    #[test]
    fn inbound_filters_direction() {
        let trace = SessionTrace {
            packets: vec![
                TracedPacket {
                    time: SimTime::ZERO,
                    dir: Direction::ToServer,
                    origin: Origin::Client,
                    packet: pkt(TcpFlags::SYN),
                },
                TracedPacket {
                    time: SimTime::from_secs(1),
                    dir: Direction::ToClient,
                    origin: Origin::Server,
                    packet: pkt(TcpFlags::SYN_ACK),
                },
            ],
            started: SimTime::ZERO,
            ended: SimTime::from_secs(2),
            tamper_events: vec![],
        };
        assert_eq!(trace.inbound().count(), 1);
        assert!(!trace.was_tampered());
        assert!(trace.first_tamper().is_none());
    }

    #[test]
    fn tamper_truth_recorded() {
        let trace = SessionTrace {
            packets: vec![],
            started: SimTime::ZERO,
            ended: SimTime::ZERO,
            tamper_events: vec![TamperEvent {
                time: SimTime::ZERO,
                hop: 0,
                mechanism: Mechanism::Inject,
                stage: TriggerStage::FirstData,
            }],
        };
        assert!(trace.was_tampered());
        assert_eq!(trace.first_tamper().unwrap().mechanism, Mechanism::Inject);
    }
}
