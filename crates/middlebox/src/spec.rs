//! Specifications of what a tampering middlebox does when it fires: which
//! tear-down packets it forges, with which acknowledgement strategy, and
//! with which network-stack quirks (IP-ID, TTL) — the quirks are exactly
//! what the paper's §4.3 evidence detects.

use tamper_netsim::{IpIdMode, SimDuration};

/// RST flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RstKind {
    /// Bare RST.
    Rst,
    /// RST+ACK.
    RstAck,
}

/// How the injector fills the acknowledgement number of a forged RST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckStrategy {
    /// Use the best current estimate of the peer's next sequence number.
    Exact,
    /// Hard zero — produces the paper's novel `RST;RST₀` signature.
    Zero,
    /// Estimate plus `offset` — ack-guessing middleboxes (Weaver et al.)
    /// that fire several RSTs at successive window positions, producing
    /// `RST ≠ RST`.
    Offset(u32),
}

/// One forged tear-down packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RstSpec {
    /// RST or RST+ACK.
    pub kind: RstKind,
    /// Acknowledgement strategy (ignored for bare RSTs, which carry no
    /// meaningful ack).
    pub ack: AckStrategy,
}

impl RstSpec {
    /// A bare RST with an exact-sequence guess.
    pub(crate) const fn rst() -> RstSpec {
        RstSpec {
            kind: RstKind::Rst,
            ack: AckStrategy::Exact,
        }
    }

    /// An exact RST+ACK.
    pub(crate) const fn rst_ack() -> RstSpec {
        RstSpec {
            kind: RstKind::RstAck,
            ack: AckStrategy::Exact,
        }
    }
}

/// How the injector's own IP stack initializes TTLs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TtlMode {
    /// Fixed initial TTL (64 / 128 / 255 are common).
    Fixed(u8),
    /// Uniform random in `lo..=hi` per packet — the behaviour the paper
    /// observed from a South Korean ISP.
    Random {
        /// Lower bound.
        lo: u8,
        /// Upper bound.
        hi: u8,
    },
    /// Copy the TTL of the triggering client packet (some censors do this
    /// to defeat TTL-based detection).
    CopyClient,
}

/// The forged-packet stack profile of one middlebox vendor.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectorStack {
    /// IP-ID policy of forged packets.
    pub ip_id: IpIdMode,
    /// TTL policy of forged packets.
    pub ttl: TtlMode,
    /// Gap between successive forged packets of one burst.
    pub burst_gap: SimDuration,
}

impl InjectorStack {
    /// A typical injector: random IP-ID far from the client's counter,
    /// fixed TTL distinct from client initial TTLs.
    pub fn typical() -> InjectorStack {
        InjectorStack {
            ip_id: IpIdMode::Random,
            ttl: TtlMode::Fixed(101),
            burst_gap: SimDuration::from_micros(150),
        }
    }

    /// A stealthy injector that copies client fields (defeats IP-ID/TTL
    /// evidence — used in tests of evidence limits).
    pub fn stealthy() -> InjectorStack {
        InjectorStack {
            ip_id: IpIdMode::Zero,
            ttl: TtlMode::CopyClient,
            burst_gap: SimDuration::from_micros(150),
        }
    }
}

/// Which connection stages a middlebox inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerStages {
    /// Fire on SYNs (IP/blanket rules).
    pub on_syn: bool,
    /// Fire on the first data packet (SNI / Host / GET).
    pub on_first_data: bool,
    /// Fire on later data packets (keywords).
    pub on_later_data: bool,
}

impl TriggerStages {
    /// Only the first data packet.
    pub(crate) const FIRST_DATA: TriggerStages = TriggerStages {
        on_syn: false,
        on_first_data: true,
        on_later_data: false,
    };
    /// Only SYNs.
    pub(crate) const SYN: TriggerStages = TriggerStages {
        on_syn: true,
        on_first_data: false,
        on_later_data: false,
    };
    /// Any data packet.
    #[cfg(test)]
    pub(crate) const ANY_DATA: TriggerStages = TriggerStages {
        on_syn: false,
        on_first_data: true,
        on_later_data: true,
    };
    /// Only later data packets (commercial firewalls keying on content
    /// beyond the request line).
    pub(crate) const LATER_DATA: TriggerStages = TriggerStages {
        on_syn: false,
        on_first_data: false,
        on_later_data: true,
    };
}

/// What the middlebox does when a rule fires.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TamperAction {
    /// In-path blocking: optionally drop the triggering packet, then drop
    /// every subsequent packet of the flow in both directions.
    DropFlow {
        /// Whether the triggering packet itself is dropped (true for
        /// in-path DPI; an on-path observer cannot drop).
        drop_trigger: bool,
    },
    /// Forge tear-down packets.
    Inject {
        /// Burst sent toward the server (spoofed as the client).
        to_server: Vec<RstSpec>,
        /// Burst sent toward the client (spoofed as the server).
        to_client: Vec<RstSpec>,
        /// Whether the triggering packet is dropped (in-path injectors).
        drop_trigger: bool,
        /// Whether the flow is drop-listed after injection.
        then_drop_flow: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors() {
        assert_eq!(RstSpec::rst().kind, RstKind::Rst);
        assert_eq!(RstSpec::rst_ack().kind, RstKind::RstAck);
        assert_eq!(RstSpec::rst().ack, AckStrategy::Exact);
    }

    #[test]
    fn stage_presets() {
        // Read through a function so the values aren't compile-time
        // constants to the test (clippy::assertions_on_constants).
        let get = |s: TriggerStages| (s.on_syn, s.on_first_data, s.on_later_data);
        assert_eq!(get(TriggerStages::SYN), (true, false, false));
        assert_eq!(get(TriggerStages::FIRST_DATA), (false, true, false));
        assert_eq!(get(TriggerStages::ANY_DATA), (false, true, true));
        assert_eq!(get(TriggerStages::LATER_DATA), (false, false, true));
    }

    #[test]
    fn stack_profiles_differ() {
        assert_ne!(InjectorStack::typical(), InjectorStack::stealthy());
    }
}
