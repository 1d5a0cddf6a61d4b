//! The DPI trigger engine: what a tampering middlebox looks for.
//!
//! Real censors key on destination IPs (SYN stage), cleartext domain names
//! (TLS SNI / HTTP Host, first-data stage), and keywords anywhere in
//! cleartext payloads (later-data stage). Substring rules model the
//! over-blocking the paper discusses (e.g. Turkmenistan blocking every
//! domain containing `wn.com`).

use std::collections::HashSet;
use std::net::IpAddr;
use tamper_wire::{http, tls, Packet};

/// What part of the packet matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchReason {
    /// Destination IP is on the block list (SYN-stage trigger).
    BlockedIp(IpAddr),
    /// The middlebox blocks every connection it can see (blanket ban).
    BlanketBan,
    /// An exact domain-name rule hit (`domain`).
    Domain(String),
    /// A substring rule hit: `rule` matched within `domain`.
    DomainSubstring {
        /// The configured substring rule.
        rule: String,
        /// The observed domain it matched in.
        domain: String,
    },
    /// A payload keyword hit.
    Keyword(String),
}

/// A middlebox rule set.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Exact destination IPs to block at SYN time.
    pub blocked_ips: HashSet<IpAddr>,
    /// If true, every connection traversing the box triggers at SYN time
    /// (blanket CDN bans as observed from Turkmenistan).
    pub blanket_ban: bool,
    /// Exact (lowercased) domain names to block on first data.
    pub blocked_domains: HashSet<String>,
    /// Substring rules over domain names (lowercased).
    pub domain_substrings: Vec<String>,
    /// Keywords matched case-insensitively anywhere in any cleartext
    /// payload.
    pub keywords: Vec<String>,
}

impl RuleSet {
    /// A rule set blocking exactly these domains.
    pub fn domains<I: IntoIterator<Item = S>, S: Into<String>>(domains: I) -> RuleSet {
        RuleSet {
            blocked_domains: domains
                .into_iter()
                .map(|d| d.into().to_ascii_lowercase())
                .collect(),
            ..Default::default()
        }
    }

    /// A blanket-ban rule set.
    pub fn blanket() -> RuleSet {
        RuleSet {
            blanket_ban: true,
            ..Default::default()
        }
    }

    /// Evaluate a SYN packet (stage: connection open).
    pub fn match_syn(&self, pkt: &Packet) -> Option<MatchReason> {
        if self.blanket_ban {
            return Some(MatchReason::BlanketBan);
        }
        let dst = pkt.ip.dst();
        if self.blocked_ips.contains(&dst) {
            return Some(MatchReason::BlockedIp(dst));
        }
        None
    }

    /// Extract the domain a DPI box would see in a first data packet:
    /// the TLS SNI or the HTTP Host header.
    pub fn extract_domain(payload: &[u8]) -> Option<String> {
        if tls::is_client_hello(payload) {
            // DPI boxes drop unparsable ClientHellos silently; mirroring that is the point
            return tls::parse_sni(payload).ok().flatten();
        }
        // DPI boxes drop unparsable requests silently; mirroring that is the point
        http::parse_request(payload).ok().and_then(|r| r.host)
    }

    /// Evaluate a first data packet (stage: request visible).
    pub fn match_first_data(&self, payload: &[u8]) -> Option<MatchReason> {
        if self.blanket_ban {
            return Some(MatchReason::BlanketBan);
        }
        let domain = Self::extract_domain(payload)?;
        let lower = domain.to_ascii_lowercase();
        if self.blocked_domains.contains(&lower) {
            return Some(MatchReason::Domain(lower));
        }
        for rule in &self.domain_substrings {
            if lower.contains(rule.as_str()) {
                return Some(MatchReason::DomainSubstring {
                    rule: rule.clone(),
                    domain: lower,
                });
            }
        }
        // Keyword rules also apply to the first packet (HTTP GET lines).
        self.match_keywords(payload)
    }

    /// Evaluate any cleartext payload for keyword rules.
    pub fn match_keywords(&self, payload: &[u8]) -> Option<MatchReason> {
        for kw in &self.keywords {
            if http::contains_keyword(payload, kw) {
                return Some(MatchReason::Keyword(kw.clone()));
            }
        }
        None
    }

    /// True if the rule set can never fire.
    pub fn is_empty(&self) -> bool {
        !self.blanket_ban
            && self.blocked_ips.is_empty()
            && self.blocked_domains.is_empty()
            && self.domain_substrings.is_empty()
            && self.keywords.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tamper_wire::{PacketBuilder, TcpFlags};

    fn syn_to(dst: IpAddr) -> Packet {
        PacketBuilder::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)), dst, 1, 443)
            .flags(TcpFlags::SYN)
            .build()
    }

    #[test]
    fn ip_rule_matches_syn() {
        let dst = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
        let mut rules = RuleSet::default();
        rules.blocked_ips.insert(dst);
        assert_eq!(
            rules.match_syn(&syn_to(dst)),
            Some(MatchReason::BlockedIp(dst))
        );
        let other = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 2));
        assert_eq!(rules.match_syn(&syn_to(other)), None);
    }

    #[test]
    fn blanket_ban_matches_everything() {
        let rules = RuleSet::blanket();
        let dst = IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(rules.match_syn(&syn_to(dst)), Some(MatchReason::BlanketBan));
        assert_eq!(
            rules.match_first_data(b"anything"),
            Some(MatchReason::BlanketBan)
        );
    }

    #[test]
    fn sni_domain_rule() {
        let rules = RuleSet::domains(["Blocked.Example.COM"]);
        let hello = tls::build_client_hello("blocked.example.com", [0u8; 32]);
        assert_eq!(
            rules.match_first_data(&hello),
            Some(MatchReason::Domain("blocked.example.com".into()))
        );
        let ok = tls::build_client_hello("fine.example.com", [0u8; 32]);
        assert_eq!(rules.match_first_data(&ok), None);
    }

    #[test]
    fn host_header_rule() {
        let rules = RuleSet::domains(["blocked.example.com"]);
        let get = http::build_get("blocked.example.com", "/", "ua");
        assert!(rules.match_first_data(&get).is_some());
    }

    #[test]
    fn substring_rule_over_blocks() {
        let mut rules = RuleSet::default();
        rules.domain_substrings.push("wn.com".into());
        let hello = tls::build_client_hello("cnn-breakingnewn.com", [0u8; 32]);
        match rules.match_first_data(&hello) {
            Some(MatchReason::DomainSubstring { rule, domain }) => {
                assert_eq!(rule, "wn.com");
                assert_eq!(domain, "cnn-breakingnewn.com");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keyword_rule_matches_any_payload() {
        let mut rules = RuleSet::default();
        rules.keywords.push("forbidden-topic".into());
        let post = http::build_post("x.example", "/up", "ua", "about Forbidden-Topic today");
        assert_eq!(
            rules.match_keywords(&post),
            Some(MatchReason::Keyword("forbidden-topic".into()))
        );
        assert_eq!(rules.match_keywords(b"innocuous"), None);
    }

    #[test]
    fn no_domain_no_match() {
        let rules = RuleSet::domains(["a.example"]);
        assert_eq!(rules.match_first_data(b"\x00\x01binary"), None);
    }

    #[test]
    fn empty_detection() {
        assert!(RuleSet::default().is_empty());
        assert!(!RuleSet::blanket().is_empty());
        assert!(!RuleSet::domains(["x"]).is_empty());
    }
}
