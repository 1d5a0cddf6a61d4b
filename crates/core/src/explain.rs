//! Human-readable explanations of classifications: a per-packet narrative
//! of the reconstructed flow and why it matched (or didn't match) a
//! signature — the operator-facing counterpart of the paper's Table 1.

use crate::classify::FlowAnalysis;
use crate::signature::Classification;
use tamper_capture::FlowRecord;
use tamper_wire::tls;

/// Produce a multi-line explanation of one flow's classification.
/// `order` is the flow's reconstructed packet order as the classifier
/// that produced `analysis` left it
/// ([`BatchClassifier::order`](crate::BatchClassifier::order)), so the
/// narrative never sorts the flow again.
pub fn explain(flow: &FlowRecord, analysis: &FlowAnalysis, order: &[usize]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flow {}:{} → {}:{}\n",
        flow.client_ip, flow.src_port, flow.server_ip, flow.dst_port
    ));

    let ordered = || order.iter().map(|&i| &flow.packets[i]);
    let t0 = ordered().next().map(|p| p.ts_sec).unwrap_or(0);
    for (i, p) in ordered().enumerate() {
        let mut notes: Vec<String> = Vec::new();
        if p.flags.has_syn() && p.payload_len > 0 {
            notes.push(format!("{}-byte payload on the SYN", p.payload_len));
        } else if p.payload_len > 0 {
            if tls::is_client_hello(&p.payload) {
                match tls::parse_sni(&p.payload) {
                    Ok(Some(sni)) => notes.push(format!("TLS ClientHello, SNI \"{sni}\"")),
                    _ => notes.push("TLS ClientHello".to_owned()),
                }
            } else if tamper_wire::http::is_http_request(&p.payload) {
                if let Ok(req) = tamper_wire::http::parse_request(&p.payload) {
                    notes.push(format!(
                        "HTTP {} {} Host: {}",
                        req.method,
                        req.path,
                        req.host.as_deref().unwrap_or("-")
                    ));
                }
            } else {
                notes.push(format!("{} bytes of data", p.payload_len));
            }
        }
        if p.flags.has_rst() {
            notes.push(format!("ack={}", p.ack));
        }
        if !p.has_tcp_options {
            notes.push("no TCP options".to_owned());
        }
        let note = if notes.is_empty() {
            String::new()
        } else {
            format!("  ({})", notes.join("; "))
        };
        out.push_str(&format!(
            "  #{:<2} +{:<3}s  {:<14}{}\n",
            i + 1,
            p.ts_sec.saturating_sub(t0),
            p.flags.to_string(),
            note
        ));
    }

    // Silence tail.
    if let Some(last) = ordered().next_back() {
        let tail = flow.observation_end_sec.saturating_sub(last.ts_sec);
        if !flow.truncated && tail >= 3 {
            out.push_str(&format!(
                "  …   {tail}s of silence until the collector closed the flow\n"
            ));
        } else if flow.truncated {
            out.push_str("  …   record truncated at the packet limit (flow still active)\n");
        }
    }

    // Verdict.
    match analysis.classification {
        Classification::Tampered(sig) => {
            out.push_str(&format!(
                "verdict: TAMPERED — {} ({}; {})\n",
                sig.label(),
                sig.stage().label(),
                sig.description()
            ));
        }
        Classification::PossiblyTamperedOther => {
            out.push_str(
                "verdict: possibly tampered, but the packet sequence matches no Table 1 signature\n",
            );
        }
        Classification::NotTampered => {
            out.push_str("verdict: not tampered (graceful or still active)\n");
        }
    }

    // Evidence.
    if analysis.classification.signature().is_some() {
        match analysis.evidence.max_rst_ipid {
            Some(d) if d > 1 => out.push_str(&format!(
                "evidence: IP-ID jumps by {d} at the reset — a different stack forged it\n"
            )),
            Some(_) => out.push_str(
                "evidence: IP-ID continuous at the reset (injection not corroborated by IP-ID)\n",
            ),
            None => {}
        }
        match analysis.evidence.max_rst_ttl {
            Some(d) if d.abs() > 1 => out.push_str(&format!(
                "evidence: TTL shifts by {d} at the reset — different path or initial TTL\n"
            )),
            Some(_) => {
                out.push_str("evidence: TTL continuous at the reset\n");
            }
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchClassifier;
    use crate::classify::ClassifierConfig;
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_capture::PacketRecord;
    use tamper_wire::TcpFlags;

    fn rec(ts: u64, flags: TcpFlags, seq: u32, ack: u32, payload: Bytes) -> PacketRecord {
        PacketRecord {
            ts_sec: ts,
            flags,
            seq,
            ack,
            ip_id: Some(100),
            ttl: 52,
            window: 65535,
            payload_len: u32::try_from(payload.len()).unwrap(),
            payload,
            has_tcp_options: true,
        }
    }

    /// Classify `f` and explain it from the classifier's own order.
    fn explain_flow(f: &FlowRecord) -> String {
        let mut clf = BatchClassifier::new(ClassifierConfig::default());
        let a = clf.classify_record(f);
        explain(f, &a, clf.order())
    }

    fn flow(packets: Vec<PacketRecord>) -> FlowRecord {
        FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 3)),
            server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
            src_port: 40000,
            dst_port: 443,
            packets,
            observation_end_sec: 130,
            truncated: false,
        }
    }

    #[test]
    fn gfw_style_flow_explained() {
        let hello = tamper_wire::tls::build_client_hello("blocked.example", [0u8; 32]);
        let hello_len = u32::try_from(hello.len()).unwrap();
        let mut f = flow(vec![
            rec(100, TcpFlags::SYN, 1000, 0, Bytes::new()),
            rec(100, TcpFlags::ACK, 1001, 501, Bytes::new()),
            rec(100, TcpFlags::PSH_ACK, 1001, 501, hello),
            rec(100, TcpFlags::RST_ACK, 1001 + hello_len, 501, Bytes::new()),
            rec(100, TcpFlags::RST_ACK, 1001 + hello_len, 501, Bytes::new()),
        ]);
        // Forged resets: jumped IP-ID and TTL.
        f.packets[3].ip_id = Some(42_000);
        f.packets[3].ttl = 101;
        f.packets[4].ip_id = Some(43_000);
        f.packets[4].ttl = 101;
        let text = explain_flow(&f);
        assert!(text.contains("SNI \"blocked.example\""));
        assert!(text.contains("TAMPERED — ⟨PSH+ACK → RST+ACK; RST+ACK⟩"));
        assert!(text.contains("IP-ID jumps by"));
        assert!(text.contains("TTL shifts by"));
    }

    #[test]
    fn silent_flow_mentions_silence() {
        let f = flow(vec![rec(100, TcpFlags::SYN, 1, 0, Bytes::new())]);
        let text = explain_flow(&f);
        assert!(text.contains("30s of silence"));
        assert!(text.contains("⟨SYN → ∅⟩"));
    }

    #[test]
    fn clean_flow_verdict() {
        let f = flow(vec![
            rec(100, TcpFlags::SYN, 1, 0, Bytes::new()),
            rec(100, TcpFlags::ACK, 2, 10, Bytes::new()),
            rec(101, TcpFlags::FIN_ACK, 2, 10, Bytes::new()),
        ]);
        let text = explain_flow(&f);
        assert!(text.contains("not tampered"));
    }

    #[test]
    fn truncated_flow_notes_limit() {
        let mut f = flow(
            (0..10)
                .map(|i| rec(100, TcpFlags::ACK, i, 0, Bytes::new()))
                .collect(),
        );
        f.truncated = true;
        let text = explain_flow(&f);
        assert!(text.contains("truncated at the packet limit"));
    }

    #[test]
    fn http_request_line_shown() {
        let get = tamper_wire::http::build_get("host.example", "/page", "ua/1");
        let f = flow(vec![
            rec(100, TcpFlags::SYN, 1000, 0, Bytes::new()),
            rec(100, TcpFlags::ACK, 1001, 1, Bytes::new()),
            rec(100, TcpFlags::PSH_ACK, 1001, 1, get),
            rec(100, TcpFlags::RST, 2000, 0, Bytes::new()),
        ]);
        let text = explain_flow(&f);
        assert!(text.contains("HTTP GET /page Host: host.example"));
    }
}
