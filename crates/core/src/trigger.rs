//! Trigger extraction: for middleboxes that do not drop the offending
//! packet, the flow record contains the very bytes that triggered
//! tampering — the TLS SNI or HTTP Host. This is what lets the passive
//! pipeline report affected domains without any a-priori test list
//! (paper §3.4).

use crate::view::PacketsView;
use tamper_wire::{http, tls};

/// Application protocol of a flow, as inferred from its first data packet
/// (falling back to the destination port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppProtocol {
    /// TLS (ClientHello observed, or port 443).
    Tls,
    /// Cleartext HTTP (request observed, or port 80).
    Http,
    /// Anything else.
    Other,
}

/// What could be extracted from a flow's payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerInfo {
    /// The domain the client asked for, if visible (SNI or Host).
    pub domain: Option<String>,
    /// Protocol classification.
    pub protocol: AppProtocol,
}

/// Extract trigger information from a flow's packets (any storage
/// layout): inspect the first data payload, fall back to the destination
/// port.
pub(crate) fn extract<V: PacketsView + ?Sized>(dst_port: u16, v: &V) -> TriggerInfo {
    // First data-bearing packet (including data riding a SYN).
    let first_data = (0..v.len())
        .find(|&i| v.row(i).payload_len > 0)
        .map(|i| v.payload(i));
    if let Some(payload) = first_data {
        let protocol = if tls::is_client_hello(payload) {
            Some(AppProtocol::Tls)
        } else if http::is_http_request(payload) {
            Some(AppProtocol::Http)
        } else {
            None
        };
        if let Some(protocol) = protocol {
            return TriggerInfo {
                domain: tamper_wire::request_domain(payload),
                protocol,
            };
        }
    }
    let protocol = match dst_port {
        443 => AppProtocol::Tls,
        80 => AppProtocol::Http,
        _ => AppProtocol::Other,
    };
    TriggerInfo {
        domain: None,
        protocol,
    }
}

/// The User-Agent a commercial enterprise proxy stamps on the requests it
/// forwards. The paper observes that Post-Data matches frequently carry
/// such identifiers (§4.3); the simulated world's firewalls send this one.
pub const FIREWALL_USER_AGENT: &str = "CorpGuard-SecureProxy/6.7";

/// The User-Agent of the first request in log order that names one:
/// payloads that are no HTTP request, and requests without the header,
/// are skipped.
pub(crate) fn first_user_agent<V: PacketsView + ?Sized>(v: &V) -> Option<&str> {
    (0..v.len())
        .filter(|&i| v.row(i).payload_len > 0)
        // Best-effort User-Agent sniff: a malformed request simply yields none
        .find_map(|i| http::parse_request(v.payload(i)).ok()?.user_agent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tamper_capture::{FlowRecord, PacketRecord};
    use tamper_wire::TcpFlags;

    fn flow(dst_port: u16, payloads: Vec<Bytes>) -> FlowRecord {
        let packets = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| {
                let flags = if payload.is_empty() {
                    TcpFlags::SYN
                } else {
                    TcpFlags::PSH_ACK
                };
                PacketRecord::new(i as u64, flags, u32::try_from(i).unwrap()).with_payload(payload)
            })
            .collect();
        FlowRecord::new(dst_port, packets, 100)
    }

    fn extract(f: &FlowRecord) -> TriggerInfo {
        super::extract(f.dst_port, f.packets.as_slice())
    }

    /// The first User-Agent the flow's requests name.
    fn ua(f: &FlowRecord) -> Option<String> {
        first_user_agent(f.packets.as_slice()).map(str::to_owned)
    }

    const FIREWALL: &str = "CorpGuard-SecureProxy/6.7";

    #[test]
    fn user_agent_skips_data_that_is_no_request() {
        let junk = Bytes::from_static(&[0x17, 0x03, 0x03, 0x00, 0x05, 1, 2, 3, 4, 5]);
        let post = http::build_post("corp.example", "/upload", FIREWALL, "body");
        let f = flow(80, vec![Bytes::new(), junk, post]);
        // The trigger reads the first data packet only ...
        let t = extract(&f);
        assert_eq!(t.protocol, AppProtocol::Http);
        assert_eq!(t.domain, None);
        // ... the User-Agent the first request that names one.
        assert_eq!(ua(&f).as_deref(), Some(FIREWALL));
    }

    #[test]
    fn user_agent_is_the_first_request_naming_one() {
        let bare = Bytes::from_static(b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n");
        let fw = http::build_get("a.example", "/", FIREWALL);
        let f = flow(80, vec![Bytes::new(), bare.clone(), fw.clone()]);
        assert_eq!(ua(&f).as_deref(), Some(FIREWALL));

        let browser = http::build_get("a.example", "/", "Mozilla/5.0");
        let f = flow(80, vec![Bytes::new(), browser, fw]);
        assert_eq!(ua(&f).as_deref(), Some("Mozilla/5.0"));

        // Within one request head the last User-Agent header wins.
        let twice = Bytes::from_static(
            b"GET / HTTP/1.1\r\nUser-Agent: Mozilla/5.0\r\nUser-Agent:  CorpGuard-SecureProxy/6.7 \r\n\r\n",
        );
        let f = flow(80, vec![Bytes::new(), bare, twice]);
        assert_eq!(ua(&f).as_deref(), Some(FIREWALL));

        // A request line without a version is no request.
        let broken = Bytes::from_static(b"GET /\r\nUser-Agent: CorpGuard-SecureProxy/6.7\r\n\r\n");
        let f = flow(80, vec![Bytes::new(), broken]);
        assert_eq!(ua(&f), None);
    }

    #[test]
    fn sni_extraction() {
        let hello = tls::build_client_hello("secret.example.org", [0u8; 32]);
        let f = flow(443, vec![Bytes::new(), hello]);
        let t = extract(&f);
        assert_eq!(t.protocol, AppProtocol::Tls);
        assert_eq!(t.domain.as_deref(), Some("secret.example.org"));
    }

    #[test]
    fn host_extraction() {
        let get = http::build_get("news.example", "/story", "Mozilla/5.0");
        let f = flow(80, vec![Bytes::new(), get]);
        let t = extract(&f);
        assert_eq!(t.protocol, AppProtocol::Http);
        assert_eq!(t.domain.as_deref(), Some("news.example"));
        assert_eq!(ua(&f).as_deref(), Some("Mozilla/5.0"));
    }

    #[test]
    fn dataless_flow_falls_back_to_port() {
        let f = flow(443, vec![Bytes::new()]);
        let t = extract(&f);
        assert_eq!(t.protocol, AppProtocol::Tls);
        assert_eq!(t.domain, None);
        let f80 = flow(80, vec![Bytes::new()]);
        assert_eq!(extract(&f80).protocol, AppProtocol::Http);
        let fother = flow(8443, vec![Bytes::new()]);
        assert_eq!(extract(&fother).protocol, AppProtocol::Other);
    }

    #[test]
    fn binary_payload_is_other_protocol_on_odd_port() {
        let f = flow(9999, vec![Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef])]);
        let t = extract(&f);
        assert_eq!(t.protocol, AppProtocol::Other);
        assert_eq!(t.domain, None);
    }
}
