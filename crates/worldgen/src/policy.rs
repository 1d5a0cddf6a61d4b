//! Tampering policies and the calibrated world table.
//!
//! This module is the single place where the reproduction's "ground truth
//! world" is defined: per-country tampering rates, vendor mixes, blocked
//! categories, benign-anomaly rates, and diurnal behaviour. Every expected
//! shape in EXPERIMENTS.md traces back to a constant here.
//!
//! Sources for the shapes (paper §5): Turkmenistan's blanket HTTP blocking
//! with `⟨SYN;ACK → RST⟩` (66.4% of its tampered connections) and its
//! `wn.com` substring over-blocking; Iran's ClientHello dropping and
//! RST+ACK injection; China's GFW multi-RST+ACK bursts and zero-ack pairs;
//! the South Korean ISP with randomized TTL ack-guessing bursts; Ukraine's
//! commercial-firewall `⟨PSH+ACK; Data → RST+ACK⟩` prevalence; decentralized
//! enforcement in Russia/Ukraine/Pakistan vs centralized China/Iran.

use crate::countries::Country;
use crate::domains::Category;
use tamper_middlebox::Vendor;

/// Protocol scope of a country's DPI apparatus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtoFilter {
    /// Inspects both HTTP and TLS.
    #[default]
    Any,
    /// Parses only cleartext HTTP (Turkmenistan-style).
    HttpOnly,
    /// Only TLS SNI.
    TlsOnly,
}

/// One country's tampering policy.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// SYN-stage (IP-based) tampering: (vendor, probability per connection).
    pub syn_rules: Vec<(Vendor, f64)>,
    /// Probability that DPI fires on *any* connection within
    /// [`Policy::dpi_filter`] scope, regardless of domain (blanket bans).
    pub dpi_blanket: f64,
    /// Protocol scope of the DPI stage.
    pub dpi_filter: ProtoFilter,
    /// Probability DPI fires given the requested domain is on the block
    /// list (before the per-AS enforcement multiplier).
    pub dpi_enforce: f64,
    /// Vendor mix for DPI-stage tampering (relative weights).
    pub dpi_mix: Vec<(Vendor, f64)>,
    /// Later-data commercial-firewall tampering: (vendor, probability).
    pub fw_rules: Vec<(Vendor, f64)>,
    /// Per-category block coverage: fraction of the category's domains on
    /// the national block list (Table 2's fourth column).
    pub coverage: Vec<(Category, f64)>,
    /// Per-category interest multipliers shaping what this country's
    /// clients request (Table 2's third column).
    pub affinity: Vec<(Category, f64)>,
    /// Domain-substring over-blocking rules (paper §5.5).
    pub overblock_substrings: Vec<String>,
    /// Amplitude of the diurnal tampering factor (peaks in the local
    /// night, per Figure 6).
    pub diurnal_amp: f64,
    /// Relative reduction of tampering on weekends.
    pub weekend_drop: f64,
}

/// Global benign-anomaly rates: probabilities per connection of client
/// behaviours that mimic tampering signatures. Calibrated so the global
/// stage shares of possibly-tampered traffic land near the paper's
/// 43.2 / 16.1 / 5.3 / 33.0 / 2.3 split with ~25.7% possibly tampered.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BenignRates {
    /// SYN-only scanners, spoofed flood residue, silent Happy-Eyeballs
    /// losers, clients vanishing after the SYN → `⟨SYN → ∅⟩`.
    pub silent_syn: f64,
    /// ZMap-style scanners → `⟨SYN → RST⟩` with the ZMap fingerprint.
    pub zmap: f64,
    /// Happy-Eyeballs RST cancels → `⟨SYN → RST⟩`.
    pub he_rst: f64,
    /// Clients vanishing after the handshake ACK → `⟨SYN; ACK → ∅⟩`.
    pub vanish_ack: f64,
    /// Clients vanishing after the request → `⟨PSH+ACK → ∅⟩`.
    pub vanish_req: f64,
    /// Clients vanishing mid-response → `⟨PSH+ACK → ∅⟩`.
    pub vanish_mid: f64,
    /// User aborts (RST) during the first response → `⟨PSH+ACK → RST⟩`.
    pub abort_one: f64,
    /// User aborts after a second request → `⟨PSH+ACK; Data → RST⟩`.
    pub abort_two: f64,
    /// FIN immediately chased by RST on a single-request flow →
    /// Post-PSH stage, no signature.
    pub fin_rst_one: f64,
    /// FIN chased by RST on a two-request flow → Post-Data stage, no
    /// signature (the bulk of the paper's 30.8% unmatched Post-Data).
    pub fin_rst_two: f64,
    /// Duplicate-ACK-then-vanish ("SYN and two ACKs") → other.
    pub dup_ack: f64,
    /// SYN retransmitted with no ACK ever → Post-SYN stage, no signature.
    pub multi_syn: f64,
    /// Clients that stall > 3 s and then complete gracefully (negative
    /// control: FIN present, must *not* be flagged).
    pub stall_ok: f64,
    /// Share of HTTP sessions carrying the GET in the SYN payload
    /// (§4.1: 38% of port-80 SYNs on 2023-01-17).
    pub syn_payload_http: f64,
}

impl Default for BenignRates {
    fn default() -> BenignRates {
        BenignRates {
            silent_syn: 0.090,
            zmap: 0.001,
            he_rst: 0.009,
            vanish_ack: 0.010,
            vanish_req: 0.0008,
            vanish_mid: 0.0005,
            abort_one: 0.0015,
            abort_two: 0.045,
            fin_rst_one: 0.0006,
            fin_rst_two: 0.019,
            dup_ack: 0.0035,
            multi_syn: 0.0018,
            stall_ok: 0.004,
            syn_payload_http: 0.45,
        }
    }
}

impl BenignRates {
    /// Total probability of any benign anomaly.
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.silent_syn
            + self.zmap
            + self.he_rst
            + self.vanish_ack
            + self.vanish_req
            + self.vanish_mid
            + self.abort_one
            + self.abort_two
            + self.fin_rst_one
            + self.fin_rst_two
            + self.dup_ack
            + self.multi_syn
            + self.stall_ok
    }
}

/// A country plus its policy.
#[derive(Debug, Clone)]
pub struct CountrySpec {
    /// Static country properties.
    pub country: Country,
    /// Tampering policy.
    pub policy: Policy,
}

fn base(
    code: &'static str,
    weight: f64,
    tz: i32,
    ipv6: f64,
    n_ases: usize,
    centralization: f64,
    http_share: f64,
) -> CountrySpec {
    CountrySpec {
        country: Country {
            code: code.to_owned(),
            weight,
            tz_offset_hours: tz,
            ipv6_share: ipv6,
            n_ases,
            centralization,
            http_share,
            ipv6_tamper_mult: 1.0,
            syn_payload_mult: 1.0,
        },
        policy: Policy {
            diurnal_amp: 0.45,
            weekend_drop: 0.15,
            dpi_enforce: 0.9,
            ..Default::default()
        },
    }
}

use Category as C;
use Vendor as V;

/// Build the calibrated world: every country of the paper's Figure 4 plus
/// enough additional large markets to make Figure 1's global columns
/// meaningful. Weights are relative traffic shares.
pub fn world_spec() -> Vec<CountrySpec> {
    let mut w: Vec<CountrySpec> = Vec::new();

    // ---- Heavy tamperers (left end of Figure 4) ------------------------
    let mut tm = base("TM", 0.30, 5, 0.02, 2, 0.95, 0.92);
    tm.policy.syn_rules = vec![(V::SynDropAll, 0.05)];
    tm.policy.dpi_filter = ProtoFilter::HttpOnly;
    tm.policy.dpi_blanket = 0.95; // blanket CDN bans on cleartext HTTP
    tm.policy.dpi_mix = vec![(V::DataDropRst { n: 1 }, 0.88), (V::DataDropAll, 0.12)];
    tm.policy.coverage = vec![(C::News, 0.9), (C::SocialMedia, 0.9), (C::Chat, 0.9)];
    tm.policy.overblock_substrings = vec!["wn.com".to_owned()];
    tm.country.syn_payload_mult = 0.05;
    tm.policy.diurnal_amp = 0.2; // an always-on blanket has little diurnal swing
    w.push(tm);

    let mut pe = base("PE", 0.9, -5, 0.25, 8, 0.5, 0.25);
    pe.policy.syn_rules = vec![(V::SynDropAll, 0.19), (V::SynRst { n: 1 }, 0.10)];
    pe.policy.diurnal_amp = 0.25;
    pe.policy.fw_rules = vec![(V::FirewallRstAck, 0.14)];
    pe.policy.dpi_blanket = 0.02;
    pe.policy.dpi_mix = vec![(V::DataDropRstAck { n: 1 }, 0.6), (V::PshRstAck, 0.4)];
    pe.policy.coverage = vec![
        (C::Advertisements, 0.62),
        (C::Technology, 0.09),
        (C::Business, 0.06),
    ];
    pe.policy.affinity = vec![(C::Advertisements, 2.2)];
    w.push(pe);

    let mut uz = base("UZ", 0.35, 5, 0.08, 4, 0.8, 0.3);
    uz.policy.dpi_blanket = 0.36;
    uz.policy.diurnal_amp = 0.3;
    uz.policy.dpi_mix = vec![
        (V::DataDropRstAck { n: 1 }, 0.8),
        (V::DataDropRstAck { n: 2 }, 0.15),
        (V::DataDropAll, 0.05),
    ];
    uz.policy.syn_rules = vec![(V::SynDropAll, 0.04)];
    uz.policy.coverage = vec![(C::News, 0.5), (C::SocialMedia, 0.5)];
    w.push(uz);

    let mut cu = base("CU", 0.12, -5, 0.03, 2, 0.9, 0.4);
    cu.policy.syn_rules = vec![(V::SynDropAll, 0.20), (V::SynRstAck { n: 1 }, 0.04)];
    cu.policy.dpi_blanket = 0.10;
    cu.policy.dpi_mix = vec![(V::DataDropAll, 0.7), (V::DataDropRst { n: 1 }, 0.3)];
    cu.policy.coverage = vec![(C::News, 0.6), (C::SocialMedia, 0.4)];
    w.push(cu);

    let mut sa = base("SA", 1.0, 3, 0.35, 5, 0.85, 0.2);
    sa.policy.dpi_blanket = 0.155;
    sa.policy.dpi_mix = vec![(V::DataDropRstAck { n: 1 }, 0.6), (V::PshRstAck, 0.4)];
    sa.policy.syn_rules = vec![(V::SynDropAll, 0.05)];
    sa.policy.coverage = vec![
        (C::AdultThemes, 0.95),
        (C::Gaming, 0.2),
        (C::Streaming, 0.15),
    ];
    sa.policy.affinity = vec![(C::AdultThemes, 0.9)];
    w.push(sa);

    let mut kz = base("KZ", 0.5, 6, 0.15, 6, 0.7, 0.25);
    kz.policy.dpi_blanket = 0.24;
    kz.policy.dpi_mix = vec![(V::DataDropRstAck { n: 1 }, 0.85), (V::DataDropAll, 0.15)];
    kz.policy.syn_rules = vec![(V::SynDropAll, 0.03)];
    kz.policy.coverage = vec![(C::News, 0.35)];
    w.push(kz);

    let mut ru = base("RU", 3.0, 3, 0.3, 24, 0.2, 0.2);
    ru.policy.dpi_blanket = 0.10;
    ru.policy.dpi_mix = vec![
        (V::PshDropAll, 0.3),
        (V::DataDropRst { n: 1 }, 0.25),
        (V::DataDropAll, 0.2),
        (V::PshRst, 0.15),
        (V::DataDropRstAck { n: 1 }, 0.1),
    ];
    ru.policy.syn_rules = vec![(V::SynDropAll, 0.05), (V::SynRst { n: 1 }, 0.025)];
    ru.policy.fw_rules = vec![(V::FirewallRstAck, 0.035), (V::FirewallRst, 0.02)];
    ru.policy.coverage = vec![
        (C::HobbiesInterests, 0.28),
        (C::News, 0.3),
        (C::SocialMedia, 0.35),
        (C::Business, 0.029),
        (C::Advertisements, 0.074),
    ];
    ru.policy.affinity = vec![(C::HobbiesInterests, 2.0)];
    ru.policy.overblock_substrings = vec!["wn.com".to_owned()];
    w.push(ru);

    let mut pk = base("PK", 1.6, 5, 0.2, 10, 0.35, 0.3);
    pk.policy.dpi_blanket = 0.145;
    pk.policy.dpi_mix = vec![
        (V::DataDropAll, 0.5),
        (V::DataDropRst { n: 1 }, 0.28),
        (V::DataDropRst { n: 2 }, 0.1),
        (V::PshRst, 0.12),
    ];
    pk.policy.syn_rules = vec![(V::SynDropAll, 0.06)];
    pk.policy.coverage = vec![(C::AdultThemes, 0.8), (C::SocialMedia, 0.3), (C::News, 0.2)];
    pk.policy.overblock_substrings = vec!["wn.com".to_owned()];
    w.push(pk);

    let mut ni = base("NI", 0.12, -6, 0.05, 3, 0.6, 0.35);
    ni.policy.syn_rules = vec![(V::SynDropAll, 0.12)];
    ni.policy.dpi_blanket = 0.10;
    ni.policy.dpi_mix = vec![(V::DataDropRst { n: 1 }, 0.6), (V::DataDropAll, 0.4)];
    ni.policy.fw_rules = vec![(V::FirewallRstAck, 0.05)];
    w.push(ni);

    let mut ua = base("UA", 0.9, 2, 0.25, 14, 0.25, 0.25);
    ua.policy.fw_rules = vec![(V::FirewallRstAck, 0.16), (V::FirewallRst, 0.015)];
    ua.policy.dpi_blanket = 0.04;
    ua.policy.dpi_mix = vec![(V::DataDropRst { n: 1 }, 0.6), (V::PshRst, 0.4)];
    ua.policy.syn_rules = vec![(V::SynDropAll, 0.03)];
    ua.policy.coverage = vec![(C::News, 0.2), (C::SocialMedia, 0.25)];
    w.push(ua);

    let mut bd = base("BD", 1.2, 6, 0.1, 8, 0.4, 0.35);
    bd.policy.dpi_blanket = 0.11;
    bd.policy.dpi_mix = vec![(V::DataDropAll, 0.5), (V::DataDropRst { n: 1 }, 0.5)];
    bd.policy.syn_rules = vec![(V::SynDropAll, 0.07)];
    bd.policy.coverage = vec![(C::AdultThemes, 0.7), (C::Gaming, 0.2)];
    w.push(bd);

    let mut mx = base("MX", 2.2, -6, 0.35, 12, 0.3, 0.25);
    mx.policy.syn_rules = vec![(V::SynDropAll, 0.065), (V::SynRst { n: 1 }, 0.025)];
    mx.policy.fw_rules = vec![(V::FirewallRstAck, 0.06), (V::FirewallRst, 0.02)];
    mx.policy.dpi_blanket = 0.03;
    mx.policy.dpi_mix = vec![(V::PshRstAck, 0.5), (V::DataDropRst { n: 1 }, 0.5)];
    mx.policy.coverage = vec![
        (C::Advertisements, 0.126),
        (C::Technology, 0.034),
        (C::Business, 0.029),
    ];
    mx.policy.affinity = vec![(C::Advertisements, 1.8)];
    w.push(mx);

    let mut ir = base("IR", 1.4, 3, 0.12, 9, 0.85, 0.25);
    ir.policy.syn_rules = vec![(V::SynRst { n: 1 }, 0.025), (V::SynDropAll, 0.02)];
    ir.policy.dpi_blanket = 0.11;
    ir.policy.dpi_mix = vec![
        (V::DataDropAll, 0.45),
        (V::DataDropRstAck { n: 1 }, 0.28),
        (V::DataDropRstAck { n: 2 }, 0.17),
        (V::PshRstAck, 0.10),
    ];
    ir.policy.coverage = vec![
        (C::ContentServers, 0.30),
        (C::Technology, 0.022),
        (C::Business, 0.014),
        (C::SocialMedia, 0.6),
        (C::News, 0.4),
    ];
    ir.policy.affinity = vec![(C::ContentServers, 2.5), (C::Technology, 4.0)];
    ir.policy.diurnal_amp = 0.7; // the paper notes high variability in Iran
    w.push(ir);

    for (code, weight, tz, rate) in [
        ("OM", 0.15, 4, 0.20),
        ("DJ", 0.03, 3, 0.19),
        ("AZ", 0.25, 4, 0.18),
        ("AE", 0.5, 4, 0.17),
        ("SD", 0.2, 2, 0.16),
    ] {
        let mut s = base(code, weight, tz, 0.1, 4, 0.7, 0.3);
        s.policy.dpi_blanket = rate;
        s.policy.dpi_mix = vec![
            (V::DataDropRstAck { n: 1 }, 0.5),
            (V::DataDropAll, 0.3),
            (V::PshRstAck, 0.2),
        ];
        s.policy.syn_rules = vec![(V::SynDropAll, 0.02)];
        s.policy.coverage = vec![(C::AdultThemes, 0.9)];
        w.push(s);
    }

    let mut cn = base("CN", 6.0, 8, 0.3, 18, 0.9, 0.3);
    cn.policy.syn_rules = vec![(V::SynRstBoth, 0.022), (V::SynDropAll, 0.022)];
    cn.policy.dpi_blanket = 0.012;
    cn.policy.dpi_enforce = 0.95;
    cn.policy.dpi_mix = vec![
        (V::GfwDoubleRstAck, 0.42),
        (V::GfwMixed, 0.25),
        (V::PshRst, 0.15),
        (V::ZeroAckPair, 0.12),
        (V::PshDropAll, 0.06),
    ];
    cn.policy.coverage = vec![
        (C::AdultThemes, 0.51),
        (C::Education, 0.213),
        (C::ContentServers, 0.031),
        (C::News, 0.08),
        (C::SocialMedia, 0.10),
    ];
    cn.policy.affinity = vec![
        (C::AdultThemes, 0.45),
        (C::ContentServers, 2.0),
        (C::Education, 1.0),
        (C::News, 0.5),
        (C::SocialMedia, 0.5),
    ];
    w.push(cn);

    let mut by = base("BY", 0.3, 3, 0.1, 4, 0.7, 0.25);
    by.policy.dpi_blanket = 0.11;
    by.policy.dpi_mix = vec![(V::DataDropRst { n: 1 }, 0.6), (V::DataDropAll, 0.4)];
    by.policy.syn_rules = vec![(V::SynDropAll, 0.03)];
    w.push(by);

    for (code, weight, tz, rate) in [
        ("RW", 0.05, 2, 0.135),
        ("EG", 1.2, 2, 0.125),
        ("YE", 0.12, 3, 0.125),
        ("AF", 0.12, 5, 0.115),
        ("LA", 0.06, 7, 0.11),
        ("MM", 0.3, 7, 0.11),
        ("IQ", 0.5, 3, 0.10),
        ("KW", 0.2, 3, 0.09),
    ] {
        let mut s = base(code, weight, tz, 0.08, 5, 0.5, 0.3);
        s.policy.dpi_blanket = rate;
        s.policy.dpi_mix = vec![
            (V::DataDropAll, 0.45),
            (V::DataDropRstAck { n: 1 }, 0.40),
            (V::PshRst, 0.15),
        ];
        s.policy.syn_rules = vec![(V::SynDropAll, 0.03), (V::SynRstAck { n: 1 }, 0.006)];
        s.policy.coverage = vec![(C::AdultThemes, 0.8), (C::SocialMedia, 0.2)];
        w.push(s);
    }

    // ---- Near and below the global average ------------------------------
    let mut tr = base("TR", 1.8, 3, 0.25, 12, 0.3, 0.25);
    tr.policy.dpi_blanket = 0.078;
    tr.policy.dpi_mix = vec![(V::DataDropRst { n: 1 }, 0.65), (V::PshRst, 0.35)];
    tr.policy.syn_rules = vec![(V::SynDropAll, 0.025)];
    tr.policy.coverage = vec![(C::AdultThemes, 0.5), (C::News, 0.15)];
    w.push(tr);

    let mut bh = base("BH", 0.08, 3, 0.1, 3, 0.7, 0.3);
    bh.policy.dpi_blanket = 0.09;
    bh.policy.dpi_mix = vec![(V::DataDropRstAck { n: 1 }, 0.7), (V::DataDropAll, 0.3)];
    w.push(bh);

    let mut et = base("ET", 0.2, 3, 0.05, 2, 0.8, 0.35);
    et.policy.dpi_blanket = 0.08;
    et.policy.dpi_mix = vec![(V::DataDropAll, 0.6), (V::DataDropRst { n: 1 }, 0.4)];
    w.push(et);

    let mut in_ = base("IN", 9.0, 5, 0.6, 22, 0.35, 0.3);
    in_.policy.dpi_mix = vec![
        (V::DataDropAll, 0.4),
        (V::DataDropRst { n: 1 }, 0.35),
        (V::PshRst, 0.13),
        (V::PshRstAck, 0.12),
    ];
    in_.policy.syn_rules = vec![
        (V::SynDropAll, 0.025),
        (V::SynRst { n: 1 }, 0.015),
        (V::SynRstAck { n: 1 }, 0.004),
    ];
    in_.policy.dpi_blanket = 0.02;
    in_.policy.coverage = vec![
        (C::AdultThemes, 0.183),
        (C::Chat, 0.034),
        (C::ContentServers, 0.024),
    ];
    in_.policy.affinity = vec![
        (C::AdultThemes, 1.4),
        (C::Chat, 1.7),
        (C::ContentServers, 1.2),
    ];
    w.push(in_);

    for (code, weight, tz, rate) in [
        ("HN", 0.1, -6, 0.06),
        ("ER", 0.01, 3, 0.06),
        ("PS", 0.1, 2, 0.055),
        ("MY", 0.8, 8, 0.05),
        ("TH", 1.1, 7, 0.048),
    ] {
        let mut s = base(code, weight, tz, 0.15, 6, 0.5, 0.3);
        s.policy.dpi_blanket = rate;
        s.policy.dpi_mix = vec![
            (V::DataDropAll, 0.55),
            (V::PshRst, 0.25),
            (V::SameAckBurst { n: 2 }, 0.2),
        ];
        s.policy.coverage = vec![(C::AdultThemes, 0.5)];
        w.push(s);
    }

    let mut kr = base("KR", 1.5, 9, 0.35, 6, 0.45, 0.2);
    kr.policy.dpi_mix = vec![
        (V::AckGuessBurst { n: 3 }, 0.65),
        (V::ZeroAckPair, 0.15),
        (V::SameAckBurst { n: 2 }, 0.1),
        (V::PshRst, 0.1),
    ];
    kr.policy.dpi_blanket = 0.015;
    kr.policy.coverage = vec![
        (C::AdultThemes, 0.376),
        (C::Gaming, 0.015),
        (C::LoginScreens, 0.305),
    ];
    kr.policy.affinity = vec![
        (C::AdultThemes, 0.8),
        (C::Gaming, 2.0),
        (C::LoginScreens, 2.0),
    ];
    w.push(kr);

    let mut vn = base("VN", 1.5, 7, 0.3, 8, 0.4, 0.3);
    vn.policy.dpi_blanket = 0.04;
    vn.policy.dpi_mix = vec![
        (V::DataDropAll, 0.5),
        (V::PshRst, 0.3),
        (V::SameAckBurst { n: 2 }, 0.2),
    ];
    vn.policy.coverage = vec![(C::News, 0.25)];
    w.push(vn);

    let mut ve = base("VE", 0.4, -4, 0.1, 5, 0.5, 0.3);
    ve.policy.dpi_blanket = 0.035;
    ve.policy.dpi_mix = vec![(V::DataDropAll, 0.5), (V::DataDropRst { n: 1 }, 0.5)];
    ve.policy.coverage = vec![(C::News, 0.3)];
    w.push(ve);

    // ---- Low-tampering large markets ------------------------------------
    for (code, weight, tz, v6, fw_ra, fw_r) in [
        ("GB", 3.0, 0, 0.4, 0.022, 0.012),
        ("SY", 0.15, 2, 0.05, 0.018, 0.010),
        ("US", 14.0, -6, 0.45, 0.020, 0.012),
        ("DE", 3.5, 1, 0.55, 0.016, 0.010),
        ("BR", 3.5, -3, 0.4, 0.020, 0.010),
        ("JP", 3.0, 9, 0.45, 0.012, 0.007),
        ("FR", 2.5, 1, 0.45, 0.016, 0.009),
        ("IT", 1.8, 1, 0.35, 0.018, 0.009),
        ("CA", 1.5, -5, 0.4, 0.016, 0.009),
        ("AU", 1.2, 10, 0.35, 0.016, 0.009),
        ("NL", 1.0, 1, 0.5, 0.014, 0.008),
        ("ES", 1.5, 1, 0.45, 0.018, 0.009),
        ("PL", 1.0, 1, 0.35, 0.016, 0.009),
        ("SE", 0.8, 1, 0.45, 0.012, 0.007),
        ("CZ", 0.5, 1, 0.35, 0.014, 0.008),
        ("SG", 0.6, 8, 0.35, 0.016, 0.009),
        ("RO", 0.6, 2, 0.3, 0.016, 0.009),
    ] {
        let mut s = base(code, weight, tz, v6, 15, 0.2, 0.2);
        s.policy.fw_rules = vec![(V::FirewallRstAck, fw_ra), (V::FirewallRst, fw_r)];
        // Copyright/enterprise blocking of a thin slice of domains.
        s.policy.dpi_blanket = 0.004;
        s.policy.dpi_mix = vec![(V::PshRst, 0.3), (V::DataDropAll, 0.7)];
        s.policy.coverage = vec![
            (C::ContentServers, 0.008),
            (C::Business, 0.005),
            (C::Technology, 0.005),
        ];
        w.push(s);
    }

    // Mid-size rest-of-world markets with light firewalling.
    for (code, weight, tz) in [
        ("ID", 2.2, 7),
        ("NG", 0.8, 1),
        ("ZA", 0.6, 2),
        ("CO", 0.8, -5),
        ("AR", 0.9, -3),
        ("CL", 0.6, -4),
        ("PH", 1.0, 8),
    ] {
        let mut s = base(code, weight, tz, 0.2, 8, 0.4, 0.3);
        s.policy.fw_rules = vec![(V::FirewallRstAck, 0.020)];
        s.policy.dpi_blanket = 0.020;
        s.policy.dpi_mix = vec![(V::DataDropAll, 0.5), (V::PshRst, 0.5)];
        s.policy.coverage = vec![(C::AdultThemes, 0.3)];
        w.push(s);
    }

    // Figure 7a outliers: Sri Lanka tampers far less on IPv6; Kenya far
    // more.
    let mut lk = base("LK", 0.3, 5, 0.3, 4, 0.6, 0.3);
    lk.country.ipv6_tamper_mult = 0.45;
    lk.policy.dpi_blanket = 0.37;
    lk.policy.dpi_mix = vec![
        (V::DataDropRst { n: 1 }, 0.5),
        (V::DataDropRst { n: 2 }, 0.1),
        (V::DataDropAll, 0.25),
        (V::DataDropRstAck { n: 1 }, 0.15),
    ];
    lk.policy.syn_rules = vec![(V::SynDropAll, 0.02)];
    w.push(lk);

    let mut ke = base("KE", 0.3, 3, 0.25, 4, 0.6, 0.3);
    ke.country.ipv6_tamper_mult = 2.0;
    ke.policy.dpi_blanket = 0.20;
    ke.policy.dpi_mix = vec![(V::DataDropRstAck { n: 1 }, 0.6), (V::DataDropAll, 0.4)];
    w.push(ke);

    // North Korea: negligible, tightly controlled traffic that is already
    // whitelisted — the lowest bar in Figure 4.
    let mut kp = base("KP", 0.005, 9, 0.0, 1, 1.0, 0.5);
    kp.policy.fw_rules = vec![(V::FirewallRst, 0.002)];
    w.push(kp);

    w
}

/// Index of a country code within [`world_spec`] output.
pub fn country_index(world: &[CountrySpec], code: &str) -> Option<u16> {
    world
        .iter()
        .position(|s| s.country.code == code)
        .map(|i| i as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_has_all_figure4_countries() {
        let world = world_spec();
        for code in [
            "TM", "PE", "UZ", "CU", "SA", "KZ", "RU", "PK", "NI", "UA", "BD", "MX", "IR", "OM",
            "DJ", "AZ", "AE", "SD", "CN", "BY", "RW", "EG", "YE", "AF", "LA", "MM", "IQ", "KW",
            "TR", "BH", "ET", "IN", "HN", "ER", "PS", "MY", "TH", "KR", "VN", "VE", "GB", "SY",
            "US", "DE", "KP",
        ] {
            assert!(
                country_index(&world, code).is_some(),
                "missing country {code}"
            );
        }
    }

    #[test]
    fn codes_are_unique() {
        let world = world_spec();
        let mut codes: Vec<&str> = world.iter().map(|s| s.country.code.as_str()).collect();
        codes.sort_unstable();
        let n = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }

    #[test]
    fn probabilities_are_sane() {
        for spec in world_spec() {
            let p = &spec.policy;
            let syn: f64 = p.syn_rules.iter().map(|(_, r)| r).sum();
            let fw: f64 = p.fw_rules.iter().map(|(_, r)| r).sum();
            assert!(
                (0.0..0.5).contains(&syn),
                "{}: syn {syn}",
                spec.country.code
            );
            assert!((0.0..0.5).contains(&fw), "{}: fw {fw}", spec.country.code);
            assert!((0.0..=1.0).contains(&p.dpi_blanket));
            assert!((0.0..=1.0).contains(&p.dpi_enforce));
            for (_, cov) in &p.coverage {
                assert!((0.0..=1.0).contains(cov));
            }
            // Benign anomalies are decided by an independent draw, so only
            // the per-stage tamper rates need to stay below 1 (a saturated
            // blanket ban is legitimate — Turkmenistan's HTTP filter).
            let total = syn + fw;
            assert!(
                total < 0.6,
                "{}: syn+fw {total} too large",
                spec.country.code
            );
        }
    }

    #[test]
    fn benign_rates_leave_room_for_clean_traffic() {
        let b = BenignRates::default();
        assert!(b.total() < 0.3, "benign total {}", b.total());
    }

    #[test]
    fn turkmenistan_is_http_only() {
        let world = world_spec();
        let tm = &world[country_index(&world, "TM").unwrap() as usize];
        assert_eq!(tm.policy.dpi_filter, ProtoFilter::HttpOnly);
        assert!(tm.policy.dpi_blanket > 0.8);
        assert!(tm.policy.overblock_substrings.iter().any(|s| s == "wn.com"));
    }
}
