//! Vendor profiles: named middlebox configurations that regenerate each of
//! the paper's 19 tampering signatures (Table 1), modelled on the behaviours
//! documented for real censorship systems (GFW, Iranian DPI, Turkmenistan's
//! HTTP filter, ack-guessing commercial devices, a South Korean ISP with
//! randomized TTLs, ...).

use crate::spec::{
    AckStrategy, InjectorStack, RstKind, RstSpec, TamperAction, TriggerStages, TtlMode,
};
use crate::tamperbox::TamperingMiddlebox;
use crate::RuleSet;
use tamper_netsim::{IpIdMode, SimDuration};

/// A named tampering-middlebox configuration.
///
/// The doc comment of each variant names the signature (Table 1 notation)
/// its deployment produces at the server.
///
/// ```
/// use tamper_middlebox::{RuleSet, Vendor};
/// // A GFW-style injector watching for one domain:
/// let mb = Vendor::GfwDoubleRstAck.build(RuleSet::domains(["blocked.example"]));
/// // `mb` implements `tamper_netsim::Hop` and can be placed on a Path.
/// let _hop: Box<dyn tamper_netsim::Hop> = Box::new(mb);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// `⟨SYN → ∅⟩` — in-path IP blocking that forwards the first SYN but
    /// black-holes the flow afterwards.
    SynDropAll,
    /// `⟨SYN → RST⟩` — on-path injector firing `n` bare RSTs on a SYN to a
    /// blocked destination.
    SynRst {
        /// Number of forged RSTs.
        n: u8,
    },
    /// `⟨SYN → RST+ACK⟩` — as above with RST+ACK.
    SynRstAck {
        /// Number of forged RST+ACKs.
        n: u8,
    },
    /// `⟨SYN → RST; RST+ACK⟩` — GFW-style IP blocking injecting both forms.
    SynRstBoth,
    /// `⟨SYN; ACK → ∅⟩` — in-path DPI that silently drops the offending
    /// first data packet and the rest of the flow (Iran's ClientHello
    /// dropping).
    DataDropAll,
    /// `⟨SYN; ACK → RST⟩` (n = 1) or `⟨SYN; ACK → RST; RST⟩` (n ≥ 2) —
    /// in-path DPI that drops the request and forges bare RSTs.
    DataDropRst {
        /// Number of forged RSTs.
        n: u8,
    },
    /// `⟨SYN; ACK → RST+ACK⟩` / `⟨SYN; ACK → RST+ACK; RST+ACK⟩` —
    /// in-path DPI that drops the request and forges RST+ACKs (observed in
    /// Iran).
    DataDropRstAck {
        /// Number of forged RST+ACKs.
        n: u8,
    },
    /// `⟨PSH+ACK → ∅⟩` — on-path box that lets the request through, then
    /// black-holes the flow.
    PshDropAll,
    /// `⟨PSH+ACK → RST⟩` — single bare RST after the request passes.
    PshRst,
    /// `⟨PSH+ACK → RST+ACK⟩` — single RST+ACK after the request passes.
    PshRstAck,
    /// `⟨PSH+ACK → RST; RST+ACK⟩` — GFW HTTP-style mixed burst.
    GfwMixed,
    /// `⟨PSH+ACK → RST+ACK; RST+ACK⟩` — GFW HTTPS-style double RST+ACK.
    GfwDoubleRstAck,
    /// `⟨PSH+ACK → RST = RST⟩` — multiple bare RSTs with identical acks.
    SameAckBurst {
        /// Burst size (≥ 2).
        n: u8,
    },
    /// `⟨PSH+ACK → RST ≠ RST⟩` — ack-guessing burst at successive window
    /// offsets (Weaver et al.).
    AckGuessBurst {
        /// Burst size (≥ 2).
        n: u8,
    },
    /// `⟨PSH+ACK → RST; RST₀⟩` — one exact RST plus one with a zero ack
    /// (observed from China and South Korea).
    ZeroAckPair,
    /// `⟨PSH+ACK; Data → RST⟩` — enterprise/commercial firewall keying on
    /// keywords in later data.
    FirewallRst,
    /// `⟨PSH+ACK; Data → RST+ACK⟩` — as above with RST+ACK (prevalent in
    /// Ukraine per the paper).
    FirewallRstAck,
}

/// All vendors, for exhaustive tests and benches.
pub const ALL_VENDORS: [Vendor; 17] = [
    Vendor::SynDropAll,
    Vendor::SynRst { n: 1 },
    Vendor::SynRstAck { n: 1 },
    Vendor::SynRstBoth,
    Vendor::DataDropAll,
    Vendor::DataDropRst { n: 1 },
    Vendor::DataDropRst { n: 2 },
    Vendor::DataDropRstAck { n: 1 },
    Vendor::DataDropRstAck { n: 2 },
    Vendor::PshDropAll,
    Vendor::PshRst,
    Vendor::PshRstAck,
    Vendor::GfwMixed,
    Vendor::GfwDoubleRstAck,
    Vendor::SameAckBurst { n: 2 },
    Vendor::AckGuessBurst { n: 3 },
    Vendor::ZeroAckPair,
];

impl Vendor {
    /// The connection stage this vendor inspects.
    pub fn stages(&self) -> TriggerStages {
        match self {
            Vendor::SynDropAll
            | Vendor::SynRst { .. }
            | Vendor::SynRstAck { .. }
            | Vendor::SynRstBoth => TriggerStages::SYN,
            Vendor::FirewallRst | Vendor::FirewallRstAck => TriggerStages::LATER_DATA,
            _ => TriggerStages::FIRST_DATA,
        }
    }

    /// The action this vendor takes when it fires.
    pub(crate) fn action(&self) -> TamperAction {
        let rst = RstSpec::rst;
        let rst_ack = RstSpec::rst_ack;
        match *self {
            // The SYN itself passes (a flow the server never sees cannot be
            // sampled); everything after it is black-holed.
            Vendor::SynDropAll => TamperAction::DropFlow {
                drop_trigger: false,
            },
            // The offending request is dropped along with the rest of the
            // flow (Iran's ClientHello dropping).
            Vendor::DataDropAll => TamperAction::DropFlow { drop_trigger: true },
            Vendor::PshDropAll => TamperAction::DropFlow {
                drop_trigger: false,
            },
            Vendor::SynRst { n } => TamperAction::Inject {
                to_server: vec![rst(); n as usize],
                to_client: vec![rst()],
                drop_trigger: false,
                then_drop_flow: true,
            },
            Vendor::SynRstAck { n } => TamperAction::Inject {
                to_server: vec![rst_ack(); n as usize],
                to_client: vec![rst_ack()],
                drop_trigger: false,
                then_drop_flow: true,
            },
            Vendor::SynRstBoth => TamperAction::Inject {
                to_server: vec![rst(), rst_ack()],
                to_client: vec![rst(), rst_ack()],
                drop_trigger: false,
                then_drop_flow: true,
            },
            Vendor::DataDropRst { n } => TamperAction::Inject {
                to_server: vec![rst(); n as usize],
                to_client: vec![rst()],
                drop_trigger: true,
                then_drop_flow: true,
            },
            Vendor::DataDropRstAck { n } => TamperAction::Inject {
                to_server: vec![rst_ack(); n as usize],
                to_client: vec![rst_ack()],
                drop_trigger: true,
                then_drop_flow: true,
            },
            Vendor::PshRst => TamperAction::Inject {
                to_server: vec![rst()],
                to_client: vec![rst()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            Vendor::PshRstAck => TamperAction::Inject {
                to_server: vec![rst_ack()],
                to_client: vec![rst_ack()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            Vendor::GfwMixed => TamperAction::Inject {
                to_server: vec![rst(), rst_ack()],
                to_client: vec![rst(), rst(), rst_ack()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            Vendor::GfwDoubleRstAck => TamperAction::Inject {
                to_server: vec![rst_ack(), rst_ack()],
                to_client: vec![rst_ack(), rst_ack()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            Vendor::SameAckBurst { n } => TamperAction::Inject {
                to_server: vec![rst(); n.max(2) as usize],
                to_client: vec![rst()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            Vendor::AckGuessBurst { n } => {
                let mut burst = vec![RstSpec {
                    kind: RstKind::Rst,
                    ack: AckStrategy::Exact,
                }];
                for i in 1..n.max(2) as u32 {
                    burst.push(RstSpec {
                        kind: RstKind::Rst,
                        ack: AckStrategy::Offset(1460 * i),
                    });
                }
                TamperAction::Inject {
                    to_server: burst,
                    to_client: vec![rst()],
                    drop_trigger: false,
                    then_drop_flow: false,
                }
            }
            Vendor::ZeroAckPair => TamperAction::Inject {
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
                to_client: vec![rst()],
                drop_trigger: false,
                then_drop_flow: false,
            },
            // Commercial firewalls typically reset both sides out-of-band
            // without dropping the triggering packet — which is what puts
            // the RST *after* multiple data packets at the server.
            Vendor::FirewallRst => TamperAction::Inject {
                to_server: vec![rst()],
                to_client: vec![rst()],
                drop_trigger: false,
                then_drop_flow: true,
            },
            Vendor::FirewallRstAck => TamperAction::Inject {
                to_server: vec![rst_ack()],
                to_client: vec![rst_ack()],
                drop_trigger: false,
                then_drop_flow: true,
            },
        }
    }

    /// A plausible default stack profile for this vendor.
    pub(crate) fn default_stack(&self) -> InjectorStack {
        match self {
            // The ack-guessing Korean ISP shows random TTLs (paper §4.3).
            Vendor::AckGuessBurst { .. } => InjectorStack {
                ip_id: IpIdMode::Random,
                ttl: TtlMode::Random { lo: 10, hi: 250 },
                burst_gap: SimDuration::from_micros(120),
            },
            // GFW-style boxes: random IP-ID, distinct fixed TTL.
            Vendor::GfwMixed | Vendor::GfwDoubleRstAck | Vendor::SynRstBoth => InjectorStack {
                ip_id: IpIdMode::Random,
                ttl: TtlMode::Fixed(101),
                burst_gap: SimDuration::from_micros(90),
            },
            // Commercial firewalls: counter IP-ID of their own, TTL 128.
            Vendor::FirewallRst | Vendor::FirewallRstAck => InjectorStack {
                ip_id: IpIdMode::Counter {
                    start: 0x9000,
                    stride_max: 1,
                },
                ttl: TtlMode::Fixed(120),
                burst_gap: SimDuration::from_micros(200),
            },
            _ => InjectorStack::typical(),
        }
    }

    /// Build a per-session middlebox instance with this vendor's defaults.
    pub fn build(&self, rules: RuleSet) -> TamperingMiddlebox {
        TamperingMiddlebox::new(rules, self.stages(), self.action(), self.default_stack())
    }

    /// Build with an explicit stack profile.
    pub fn build_with_stack(&self, rules: RuleSet, stack: InjectorStack) -> TamperingMiddlebox {
        TamperingMiddlebox::new(rules, self.stages(), self.action(), stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_assignment() {
        assert!(Vendor::SynDropAll.stages().on_syn);
        assert!(Vendor::DataDropAll.stages().on_first_data);
        assert!(Vendor::FirewallRst.stages().on_later_data);
        assert!(!Vendor::FirewallRst.stages().on_first_data);
    }

    #[test]
    fn burst_sizes_match_names() {
        if let TamperAction::Inject { to_server, .. } = Vendor::GfwDoubleRstAck.action() {
            assert_eq!(to_server.len(), 2);
            assert!(to_server.iter().all(|s| s.kind == RstKind::RstAck));
        } else {
            panic!("expected inject");
        }
        if let TamperAction::Inject { to_server, .. } = (Vendor::AckGuessBurst { n: 3 }).action() {
            assert_eq!(to_server.len(), 3);
            let offsets: Vec<_> = to_server.iter().map(|s| s.ack).collect();
            assert_eq!(offsets[0], AckStrategy::Exact);
            assert_eq!(offsets[1], AckStrategy::Offset(1460));
            assert_eq!(offsets[2], AckStrategy::Offset(2920));
        } else {
            panic!("expected inject");
        }
    }

    #[test]
    fn all_vendors_build() {
        for v in ALL_VENDORS {
            let _ = v.build(RuleSet::blanket());
        }
    }
}

impl Vendor {
    /// Compact configuration-file encoding, e.g. `SynRst(2)`,
    /// `GfwDoubleRstAck`.
    pub fn as_config_str(&self) -> String {
        match *self {
            Vendor::SynDropAll => "SynDropAll".into(),
            Vendor::SynRst { n } => format!("SynRst({n})"),
            Vendor::SynRstAck { n } => format!("SynRstAck({n})"),
            Vendor::SynRstBoth => "SynRstBoth".into(),
            Vendor::DataDropAll => "DataDropAll".into(),
            Vendor::DataDropRst { n } => format!("DataDropRst({n})"),
            Vendor::DataDropRstAck { n } => format!("DataDropRstAck({n})"),
            Vendor::PshDropAll => "PshDropAll".into(),
            Vendor::PshRst => "PshRst".into(),
            Vendor::PshRstAck => "PshRstAck".into(),
            Vendor::GfwMixed => "GfwMixed".into(),
            Vendor::GfwDoubleRstAck => "GfwDoubleRstAck".into(),
            Vendor::SameAckBurst { n } => format!("SameAckBurst({n})"),
            Vendor::AckGuessBurst { n } => format!("AckGuessBurst({n})"),
            Vendor::ZeroAckPair => "ZeroAckPair".into(),
            Vendor::FirewallRst => "FirewallRst".into(),
            Vendor::FirewallRstAck => "FirewallRstAck".into(),
        }
    }

    /// Parse the configuration-file encoding.
    pub fn parse_config(s: &str) -> Option<Vendor> {
        let (name, arg) = match s.find('(') {
            Some(open) => {
                let close = s.strip_suffix(')')?;
                let n: u8 = close[open + 1..].parse().ok()?;
                (&s[..open], Some(n))
            }
            None => (s, None),
        };
        Some(match (name, arg) {
            ("SynDropAll", None) => Vendor::SynDropAll,
            ("SynRst", Some(n)) => Vendor::SynRst { n },
            ("SynRstAck", Some(n)) => Vendor::SynRstAck { n },
            ("SynRstBoth", None) => Vendor::SynRstBoth,
            ("DataDropAll", None) => Vendor::DataDropAll,
            ("DataDropRst", Some(n)) => Vendor::DataDropRst { n },
            ("DataDropRstAck", Some(n)) => Vendor::DataDropRstAck { n },
            ("PshDropAll", None) => Vendor::PshDropAll,
            ("PshRst", None) => Vendor::PshRst,
            ("PshRstAck", None) => Vendor::PshRstAck,
            ("GfwMixed", None) => Vendor::GfwMixed,
            ("GfwDoubleRstAck", None) => Vendor::GfwDoubleRstAck,
            ("SameAckBurst", Some(n)) => Vendor::SameAckBurst { n },
            ("AckGuessBurst", Some(n)) => Vendor::AckGuessBurst { n },
            ("ZeroAckPair", None) => Vendor::ZeroAckPair,
            ("FirewallRst", None) => Vendor::FirewallRst,
            ("FirewallRstAck", None) => Vendor::FirewallRstAck,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod config_codec_tests {
    use super::*;

    #[test]
    fn config_encoding_round_trips_every_vendor() {
        for v in ALL_VENDORS {
            let s = v.as_config_str();
            assert_eq!(Vendor::parse_config(&s), Some(v), "{s}");
        }
    }

    #[test]
    fn bad_encodings_rejected() {
        for bad in ["", "Nope", "SynRst", "SynRst(x)", "SynRst(1", "PshRst(2)"] {
            assert_eq!(Vendor::parse_config(bad), None, "{bad}");
        }
    }
}
