//! Trigger extraction: for middleboxes that do not drop the offending
//! packet, the flow record contains the very bytes that triggered
//! tampering — the TLS SNI or HTTP Host. This is what lets the passive
//! pipeline report affected domains without any a-priori test list
//! (paper §3.4).

use crate::view::PacketsView;
use tamper_capture::FlowRecord;
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
        .find(|&i| v.has_payload(i))
        .map(|i| v.payload(i));
    if let Some(payload) = first_data {
        if tls::is_client_hello(payload) {
            return TriggerInfo {
                // Best-effort trigger extraction: a malformed ClientHello means no SNI by design
                domain: tls::parse_sni(payload).ok().flatten(),
                protocol: AppProtocol::Tls,
            };
        }
        if http::is_http_request(payload) {
            // Best-effort trigger extraction: a malformed request means no Host by design
            let host = http::parse_host(payload).ok().flatten();
            return TriggerInfo {
                domain: host,
                protocol: AppProtocol::Http,
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

/// The User-Agent of the first HTTP request in the flow, if any — the
/// paper observes that Post-Data matches frequently carry user agents
/// identifying commercial firewalls.
pub fn user_agent(flow: &FlowRecord) -> Option<String> {
    flow.packets
        .iter()
        .filter(|p| p.has_payload())
        .find_map(|p| {
            http::parse_request(&p.payload)
                // Best-effort User-Agent sniff: a malformed request simply yields none
                .ok()
                .and_then(|r| r.user_agent)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_capture::PacketRecord;
    use tamper_wire::TcpFlags;

    fn flow(dst_port: u16, payloads: Vec<Bytes>) -> FlowRecord {
        let packets = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| PacketRecord {
                ts_sec: i as u64,
                flags: if payload.is_empty() {
                    TcpFlags::SYN
                } else {
                    TcpFlags::PSH_ACK
                },
                seq: u32::try_from(i).unwrap(),
                ack: 0,
                ip_id: Some(1),
                ttl: 60,
                window: 65535,
                payload_len: u32::try_from(payload.len()).unwrap(),
                payload,
                has_tcp_options: true,
            })
            .collect();
        FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            server_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            src_port: 40000,
            dst_port,
            packets,
            observation_end_sec: 100,
            truncated: false,
        }
    }

    fn extract(f: &FlowRecord) -> TriggerInfo {
        super::extract(f.dst_port, f.packets.as_slice())
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
        assert_eq!(user_agent(&f).as_deref(), Some("Mozilla/5.0"));
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
