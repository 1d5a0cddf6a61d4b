//! Session metadata: the ground-truth labels the world driver attaches to
//! every collected flow. The classifier never sees these; the analysis
//! layer uses them for aggregation keys (country, AS, protocol) exactly as
//! the paper used IP-geolocation and port numbers, and tests use the truth
//! labels for precision/recall.

use crate::countries::{Asn, CountryIdx};
use crate::domains::DomainId;
use tamper_capture::FlowRecord;
use tamper_middlebox::Vendor;
use tamper_netsim::TriggerStage;

/// Benign client behaviours that can mimic tampering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenignKind {
    /// SYN-only scanner / flood residue / silent HE loser / vanished host.
    SilentSyn,
    /// ZMap-style scanner.
    Zmap,
    /// Happy-Eyeballs RST cancel.
    HappyEyeballsRst,
    /// Vanished after handshake ACK.
    VanishAck,
    /// Vanished after request.
    VanishReq,
    /// Vanished mid-response.
    VanishMid,
    /// User abort (RST) during first response.
    AbortOne,
    /// User abort (RST) after a second request.
    AbortTwo,
    /// FIN chased by RST, single request.
    FinRstOne,
    /// FIN chased by RST, two requests.
    FinRstTwo,
    /// Duplicate ACK then vanish.
    DupAck,
    /// SYN retransmissions with no ACK ever.
    MultiSyn,
    /// Stalls > 3 s mid-connection, then completes gracefully.
    StallOk,
}

impl BenignKind {
    /// All kinds, in a stable order.
    pub const ALL: [BenignKind; 13] = [
        BenignKind::SilentSyn,
        BenignKind::Zmap,
        BenignKind::HappyEyeballsRst,
        BenignKind::VanishAck,
        BenignKind::VanishReq,
        BenignKind::VanishMid,
        BenignKind::AbortOne,
        BenignKind::AbortTwo,
        BenignKind::FinRstOne,
        BenignKind::FinRstTwo,
        BenignKind::DupAck,
        BenignKind::MultiSyn,
        BenignKind::StallOk,
    ];

    /// Dense index for counters.
    pub fn index(self) -> usize {
        BenignKind::ALL.iter().position(|k| *k == self).unwrap()
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BenignKind::SilentSyn => "SYN-only scanner / vanished host",
            BenignKind::Zmap => "ZMap scanner",
            BenignKind::HappyEyeballsRst => "Happy-Eyeballs RST cancel",
            BenignKind::VanishAck => "vanished after handshake",
            BenignKind::VanishReq => "vanished after request",
            BenignKind::VanishMid => "vanished mid-response",
            BenignKind::AbortOne => "user abort (first response)",
            BenignKind::AbortTwo => "user abort (second request)",
            BenignKind::FinRstOne => "FIN-then-RST (one request)",
            BenignKind::FinRstTwo => "FIN-then-RST (two requests)",
            BenignKind::DupAck => "duplicate ACK then vanish",
            BenignKind::MultiSyn => "SYN retransmissions, deaf client",
            BenignKind::StallOk => "slow-but-honest stall",
        }
    }
}

/// Ground truth about one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundTruth {
    /// A normal, completed request.
    Clean,
    /// A benign anomaly of the given kind.
    Benign(BenignKind),
    /// A middlebox tampered: which vendor profile and at which stage it
    /// was configured to fire. (The stage actually reached can differ if
    /// the connection died earlier; netsim's `TamperEvent` records what
    /// really happened.)
    Tampered {
        /// Vendor profile deployed on the path.
        vendor: Vendor,
        /// Stage at which the middlebox actually fired, if it did.
        fired: Option<TriggerStage>,
    },
}

impl GroundTruth {
    /// True if a middlebox actually fired on this session.
    pub fn was_tampered(self) -> bool {
        matches!(self, GroundTruth::Tampered { fired: Some(_), .. })
    }
}

/// Metadata attached to every generated session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Originating country (index into the world spec).
    pub country: CountryIdx,
    /// Originating AS.
    pub asn: Asn,
    /// True for IPv6 connections.
    pub ipv6: bool,
    /// True for cleartext HTTP (port 80).
    pub http: bool,
    /// The domain the client requested, if the session carries one.
    pub domain: Option<DomainId>,
    /// Wall-clock start (unix seconds).
    pub start_unix: u64,
    /// Ground truth.
    pub truth: GroundTruth,
}

/// A collected flow with its ground-truth labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledFlow {
    /// What the collection pipeline recorded (classifier input).
    pub flow: FlowRecord,
    /// Ground-truth labels (aggregation keys + truth).
    pub meta: SessionMeta,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tampered_truth_requires_fired() {
        let t = GroundTruth::Tampered {
            vendor: Vendor::PshRst,
            fired: Some(TriggerStage::FirstData),
        };
        assert!(t.was_tampered());
        let not_fired = GroundTruth::Tampered {
            vendor: Vendor::PshRst,
            fired: None,
        };
        assert!(!not_fired.was_tampered());
        assert!(!GroundTruth::Clean.was_tampered());
        assert!(!GroundTruth::Benign(BenignKind::Zmap).was_tampered());
    }
}
