//! The headline correctness property of the reproduction: each middlebox
//! vendor profile, deployed on a real simulated session and observed
//! through the constrained collection pipeline, classifies as exactly the
//! Table 1 signature the paper associates with that behaviour.

use std::net::{IpAddr, Ipv4Addr};
use tamper_capture::{collect, CollectorConfig};
use tamper_core::{classify, ClassifierConfig, Signature};
use tamper_middlebox::{RuleSet, Vendor};
use tamper_netsim::{
    derive_rng, run_session, ClientConfig, Link, Path, RequestPayload, ServerConfig, SessionParams,
    SimDuration, SimTime,
};
use tamper_wire::Seq;
use tamper_worldgen::FIREWALL_KEYWORD;

const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 50));
const SERVER: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
const BLOCKED: &str = "blocked.example.com";

/// The client and server ISNs of `ClientConfig::default_tls` and
/// `ServerConfig::default_edge`, far from the 2³² wrap.
fn default_isns() -> (Seq, Seq) {
    let cfg = ClientConfig::default_tls(CLIENT, SERVER, BLOCKED);
    (
        cfg.isn,
        ServerConfig::default_edge(SERVER, cfg.dst_port).isn,
    )
}

fn run_with_vendor(
    vendor: Vendor,
    request: RequestPayload,
    seed: u64,
    (client_isn, server_isn): (Seq, Seq),
) -> Option<Signature> {
    let mut cfg = ClientConfig::default_tls(CLIENT, SERVER, BLOCKED);
    cfg.request = request;
    cfg.isn = client_isn;
    let mut server = ServerConfig::default_edge(SERVER, cfg.dst_port);
    server.isn = server_isn;

    let rules = if vendor.stages().on_syn {
        RuleSet::blanket()
    } else if vendor.stages().on_later_data {
        let mut r = RuleSet::default();
        r.keywords.push(FIREWALL_KEYWORD.to_owned());
        r
    } else {
        RuleSet::domains([BLOCKED])
    };
    let mut path = Path {
        links: vec![
            Link::new(SimDuration::from_millis(8), 4),
            Link::new(SimDuration::from_millis(35), 9),
        ],
        hops: vec![Box::new(vendor.build(rules))],
    };
    let mut rng = derive_rng(seed, 1);
    let trace = run_session(
        SessionParams::new(cfg, server, SimTime::from_secs(50)),
        &mut path,
        &mut rng,
    );
    assert!(
        trace.was_tampered(),
        "{vendor:?}: middlebox never fired (trace had {} inbound packets)",
        trace.inbound().count()
    );
    let mut crng = derive_rng(seed, 2);
    let flow = collect(&trace, &CollectorConfig::default(), &mut crng)
        .expect("flow must have inbound packets");
    classify(&flow, &ClassifierConfig::default()).signature()
}

fn tls_request() -> RequestPayload {
    RequestPayload::TlsClientHello {
        sni: BLOCKED.to_owned(),
    }
}

fn two_request() -> RequestPayload {
    RequestPayload::HttpTwo {
        host: BLOCKED.to_owned(),
        path1: "/".to_owned(),
        path2: format!("/post?tag={FIREWALL_KEYWORD}"),
        user_agent: "test-agent/1.0".to_owned(),
    }
}

/// The full vendor → signature table. This is Table 1 regenerated from
/// behaviour rather than asserted by construction, once at the default
/// ISNs and once with both ISNs just below 2³², so both directions'
/// sequence numbers cross the wrap within their first few bytes.
///
/// A server ISN of exactly `u32::MAX` is left out on purpose: the server's
/// next sequence number is then 0, so an injector's exact RST ack is 0 and
/// `AckGuessBurst` reads as `⟨PSH+ACK → RST; RST₀⟩`. A zero ack is
/// ambiguous on the wire with probability 2⁻³² per flow; the classifier
/// cannot tell it from a deliberate zero.
#[test]
fn every_vendor_regenerates_its_table1_signature() {
    use Signature::*;
    use Vendor as V;
    let cases: Vec<(Vendor, RequestPayload, Signature)> = vec![
        (V::SynDropAll, tls_request(), SynNone),
        (V::SynRst { n: 1 }, tls_request(), SynRst),
        (V::SynRstAck { n: 1 }, tls_request(), SynRstAck),
        (V::SynRstBoth, tls_request(), SynRstBoth),
        (V::DataDropAll, tls_request(), AckNone),
        (V::DataDropRst { n: 1 }, tls_request(), AckRst),
        (V::DataDropRst { n: 2 }, tls_request(), AckRstRst),
        (V::DataDropRstAck { n: 1 }, tls_request(), AckRstAck),
        (V::DataDropRstAck { n: 2 }, tls_request(), AckRstAckRstAck),
        (V::PshDropAll, tls_request(), PshNone),
        (V::PshRst, tls_request(), PshRst),
        (V::PshRstAck, tls_request(), PshRstAck),
        (V::GfwMixed, tls_request(), PshRstRstAck),
        (V::GfwDoubleRstAck, tls_request(), PshRstAckRstAck),
        (V::SameAckBurst { n: 2 }, tls_request(), PshRstEq),
        (V::AckGuessBurst { n: 3 }, tls_request(), PshRstNeq),
        (V::ZeroAckPair, tls_request(), PshRstZero),
        (V::FirewallRst, two_request(), DataRst),
        (V::FirewallRstAck, two_request(), DataRstAck),
    ];
    assert_eq!(cases.len(), 19, "one case per Table 1 signature");
    let wrap_isns = (Seq::from(u32::MAX - 2), Seq::from(u32::MAX - 1));
    for isns in [default_isns(), wrap_isns] {
        let mut seen = std::collections::BTreeSet::new();
        for (vendor, request, expected) in cases.iter().cloned() {
            let got = run_with_vendor(vendor, request, 42, isns);
            assert_eq!(
                got,
                Some(expected),
                "vendor {vendor:?} at ISNs {isns:?} should classify as {expected}"
            );
            seen.insert(expected);
        }
        assert_eq!(seen.len(), 19, "all 19 signatures covered");
    }
}

/// The same sessions must classify identically across seeds (the mapping
/// is structural, not a fluke of one RNG stream).
#[test]
fn vendor_signatures_are_seed_independent() {
    for seed in [1, 7, 1234, 98765] {
        assert_eq!(
            run_with_vendor(Vendor::GfwDoubleRstAck, tls_request(), seed, default_isns()),
            Some(Signature::PshRstAckRstAck),
            "seed {seed}"
        );
        assert_eq!(
            run_with_vendor(Vendor::DataDropAll, tls_request(), seed, default_isns()),
            Some(Signature::AckNone),
            "seed {seed}"
        );
        assert_eq!(
            run_with_vendor(Vendor::FirewallRstAck, two_request(), seed, default_isns()),
            Some(Signature::DataRstAck),
            "seed {seed}"
        );
    }
}

/// HTTP-carried requests trigger Host-header DPI just like SNI.
#[test]
fn http_host_triggers_like_sni() {
    let request = RequestPayload::HttpGet {
        host: BLOCKED.to_owned(),
        path: "/".to_owned(),
        user_agent: "test".to_owned(),
    };
    let mut cfg = ClientConfig::default_tls(CLIENT, SERVER, BLOCKED);
    cfg.dst_port = 80;
    cfg.request = request;
    let server = ServerConfig::default_edge(SERVER, 80);
    let mut path = Path {
        links: vec![
            Link::new(SimDuration::from_millis(8), 4),
            Link::new(SimDuration::from_millis(35), 9),
        ],
        hops: vec![Box::new(
            Vendor::GfwMixed.build(RuleSet::domains([BLOCKED])),
        )],
    };
    let mut rng = derive_rng(11, 1);
    let trace = run_session(
        SessionParams::new(cfg, server, SimTime::ZERO),
        &mut path,
        &mut rng,
    );
    assert!(trace.was_tampered());
    let mut crng = derive_rng(11, 2);
    let flow = collect(&trace, &CollectorConfig::default(), &mut crng).unwrap();
    let analysis = classify(&flow, &ClassifierConfig::default());
    assert_eq!(analysis.signature(), Some(Signature::PshRstRstAck));
    // The trigger domain is recoverable from the captured payload.
    assert_eq!(analysis.trigger.domain.as_deref(), Some(BLOCKED));
}

/// An unblocked domain through the same middleboxes is untouched.
#[test]
fn unblocked_domains_pass_clean() {
    for vendor in [Vendor::GfwMixed, Vendor::DataDropAll, Vendor::PshRstAck] {
        let mut cfg = ClientConfig::default_tls(CLIENT, SERVER, "innocent.example.org");
        cfg.request = RequestPayload::TlsClientHello {
            sni: "innocent.example.org".to_owned(),
        };
        let server = ServerConfig::default_edge(SERVER, 443);
        let mut path = Path {
            links: vec![
                Link::new(SimDuration::from_millis(8), 4),
                Link::new(SimDuration::from_millis(35), 9),
            ],
            hops: vec![Box::new(vendor.build(RuleSet::domains([BLOCKED])))],
        };
        let mut rng = derive_rng(13, 1);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        assert!(!trace.was_tampered(), "{vendor:?} fired on innocent domain");
        let mut crng = derive_rng(13, 2);
        let flow = collect(&trace, &CollectorConfig::default(), &mut crng).unwrap();
        let analysis = classify(&flow, &ClassifierConfig::default());
        assert_eq!(
            analysis.classification,
            tamper_core::Classification::NotTampered,
            "{vendor:?}"
        );
    }
}
