//! Human-readable explanations of classifications: a per-packet narrative
//! of the reconstructed flow and why it matched (or didn't match) a
//! signature — the operator-facing counterpart of the paper's Table 1.

use crate::classify::FlowAnalysis;
use crate::signature::Classification;
use crate::view::{FlowView, PacketsView};
use tamper_wire::{http, tls};

/// Produce a multi-line explanation of one flow's classification.
/// `order` is the flow's reconstructed packet order as the classifier
/// that produced `analysis` left it
/// ([`BatchClassifier::order`](crate::BatchClassifier::order)), so the
/// narrative never sorts the flow again.
pub fn explain<F: FlowView + ?Sized>(flow: &F, analysis: &FlowAnalysis, order: &[usize]) -> String {
    let mut out = String::new();
    let t = flow.tuple();
    out.push_str(&format!(
        "flow {}:{} → {}:{}\n",
        t.client_ip, t.src_port, t.server_ip, t.dst_port
    ));

    let v = flow.packets();
    let t0 = order.first().map_or(0, |&i| v.row(i).ts_sec);
    for (n, &i) in order.iter().enumerate() {
        let r = v.row(i);
        let (flags, payload_len) = (r.flags, r.payload_len);
        let mut notes: Vec<String> = Vec::new();
        if flags.has_syn() && payload_len > 0 {
            notes.push(format!("{payload_len}-byte payload on the SYN"));
        } else if payload_len > 0 {
            let payload = v.payload(i);
            if tls::is_client_hello(payload) {
                match tls::parse_sni(payload) {
                    Ok(Some(sni)) => notes.push(format!("TLS ClientHello, SNI \"{sni}\"")),
                    _ => notes.push("TLS ClientHello".to_owned()),
                }
            } else if http::is_http_request(payload) {
                if let Ok(req) = http::parse_request(payload) {
                    let host = req
                        .host
                        .map_or_else(|| "-".to_owned(), str::to_ascii_lowercase);
                    notes.push(format!("HTTP {} {} Host: {host}", req.method, req.path));
                }
            } else {
                notes.push(format!("{payload_len} bytes of data"));
            }
        }
        if flags.has_rst() {
            notes.push(format!("ack={}", r.ack));
        }
        if !r.has_tcp_options {
            notes.push("no TCP options".to_owned());
        }
        let note = if notes.is_empty() {
            String::new()
        } else {
            format!("  ({})", notes.join("; "))
        };
        out.push_str(&format!(
            "  #{:<2} +{:<3}s  {:<14}{}\n",
            n + 1,
            r.ts_sec.saturating_sub(t0),
            flags.to_string(),
            note
        ));
    }

    // Silence tail.
    if let Some(&last) = order.last() {
        let tail = flow
            .observation_end_sec()
            .saturating_sub(v.row(last).ts_sec);
        if !flow.truncated() && tail >= 3 {
            out.push_str(&format!(
                "  …   {tail}s of silence until the collector closed the flow\n"
            ));
        } else if flow.truncated() {
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
    use tamper_capture::{FlowRecord, PacketRecord};
    use tamper_wire::{Seq, TcpFlags};

    fn rec(ts: u64, flags: TcpFlags, seq: u32, ack: u32, payload: Bytes) -> PacketRecord {
        let p = PacketRecord::new(ts, flags, seq).with_payload(payload);
        PacketRecord {
            ack: Seq::from(ack),
            ip_id: Some(100),
            ..p
        }
    }

    /// Classify `f` and explain it from the classifier's own order.
    fn explain_flow(f: &FlowRecord) -> String {
        let mut clf = BatchClassifier::new(ClassifierConfig::default());
        let a = clf.classify_flow(f);
        explain(f, &a, clf.order())
    }

    fn flow(packets: Vec<PacketRecord>) -> FlowRecord {
        FlowRecord::new(443, packets, 130)
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
