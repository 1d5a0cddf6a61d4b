//! Minimal JSON-lines emission for classified flows — hand-rolled (the
//! workspace deliberately avoids a JSON dependency; the structures are
//! small and flat).
//!
//! One line per flow, stable field order, suitable for `jq`, BigQuery
//! loads, or the paper's own aggregation pipelines.

use crate::fmt::pct_f;
use std::borrow::BorrowMut;
use std::fmt::Write;
use std::net::IpAddr;
use tamper_capture::FlowRecord;
use tamper_core::{AppProtocol, Classification, FlowAnalysis};

/// Escape a string per RFC 8259.
#[cfg(test)]
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out`, escaped per RFC 8259.
fn escape_into(out: &mut String, s: &str) {
    // Every key and almost every value is plain: one scan, one copy.
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        return out.push_str(s);
    }
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Incremental single-line JSON object writer over a `String` — its own
/// ([`JsonObject::new`]) or one it is handed ([`JsonObject::append_to`]),
/// so many objects can share a buffer. No field allocates.
///
/// ```
/// use tamper_analysis::JsonObject;
/// let line = JsonObject::new().str("k", "v\"x").uint("n", 3).finish();
/// assert_eq!(line, "{\"k\":\"v\\\"x\",\"n\":3}");
/// ```
#[derive(Debug)]
pub struct JsonObject<S = String> {
    out: S,
    /// Where this object's first field starts in `out` (just past `{`).
    body: usize,
}

impl JsonObject {
    /// Start an empty object in a buffer of its own.
    pub fn new() -> JsonObject {
        JsonObject::append_to(String::new())
    }
}

impl Default for JsonObject {
    fn default() -> JsonObject {
        JsonObject::new()
    }
}

impl<S: BorrowMut<String>> JsonObject<S> {
    /// Start an empty object at the end of `out` (a `String` or a
    /// `&mut String`), leaving what is already there untouched.
    pub(crate) fn append_to(mut out: S) -> JsonObject<S> {
        out.borrow_mut().push('{');
        let body = out.borrow().len();
        JsonObject { out, body }
    }

    /// A separator if needed, then `"key":`; returns the value's buffer.
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.out.borrow_mut();
        if out.len() > self.body {
            out.push(',');
        }
        out.push('"');
        escape_into(out, key);
        out.push_str("\":");
        out
    }

    /// Add `value`'s `Display` text as is: a number, `null`, nested JSON.
    fn bare(mut self, key: &str, value: impl std::fmt::Display) -> JsonObject<S> {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonObject<S> {
        let out = self.key(key);
        out.push('"');
        escape_into(out, value);
        out.push('"');
        self
    }

    /// Add an optional string field (`null` when absent).
    pub(crate) fn opt_str(self, key: &str, value: Option<&str>) -> JsonObject<S> {
        match value {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    /// Add an IP address as a string field (its text needs no escaping).
    pub(crate) fn ip(mut self, key: &str, value: IpAddr) -> JsonObject<S> {
        let _ = write!(self.key(key), "\"{value}\"");
        self
    }

    /// Add an integer field.
    pub fn int(self, key: &str, value: i64) -> JsonObject<S> {
        self.bare(key, value)
    }

    /// Add an unsigned field.
    pub fn uint(self, key: &str, value: u64) -> JsonObject<S> {
        self.bare(key, value)
    }

    /// Add a float field (NaN/∞ become `null`; negative zero is
    /// normalized).
    pub fn float(self, key: &str, value: f64) -> JsonObject<S> {
        if value.is_finite() {
            self.bare(key, if value == 0.0 { 0.0 } else { value })
        } else {
            self.null(key)
        }
    }

    /// Add a boolean field.
    pub(crate) fn bool(self, key: &str, value: bool) -> JsonObject<S> {
        self.bare(key, value)
    }

    /// Add a pre-serialized JSON value verbatim (nested objects/arrays).
    pub(crate) fn raw(self, key: &str, value: &str) -> JsonObject<S> {
        self.bare(key, value)
    }

    /// Add an explicit null.
    pub(crate) fn null(self, key: &str) -> JsonObject<S> {
        self.bare(key, "null")
    }

    /// Finish: close the `{...}` and give the buffer back.
    pub fn finish(mut self) -> S {
        self.out.borrow_mut().push('}');
        self.out
    }
}

/// Serialize one classified flow as a JSON line.
pub fn flow_to_jsonl(flow: &FlowRecord, analysis: &FlowAnalysis) -> String {
    let mut line = String::new();
    flow_to_jsonl_into(&mut line, flow, analysis);
    line
}

/// Append one classified flow's JSON line (no trailing newline) to `out`.
pub fn flow_to_jsonl_into(out: &mut String, flow: &FlowRecord, analysis: &FlowAnalysis) {
    let (verdict, signature) = match analysis.classification {
        Classification::Tampered(sig) => ("tampered", Some(sig.label())),
        Classification::PossiblyTamperedOther => ("possibly_tampered", None),
        Classification::NotTampered => ("not_tampered", None),
    };
    let protocol = match analysis.trigger.protocol {
        AppProtocol::Tls => "tls",
        AppProtocol::Http => "http",
        AppProtocol::Other => "other",
    };
    let mut obj = JsonObject::append_to(out)
        .ip("client_ip", flow.client_ip)
        .ip("server_ip", flow.server_ip)
        .uint("src_port", u64::from(flow.src_port))
        .uint("dst_port", u64::from(flow.dst_port))
        .uint("packets", flow.packets.len() as u64)
        .bool("truncated", flow.truncated)
        .str("verdict", verdict)
        .opt_str("signature", signature)
        .opt_str("stage", analysis.stage.map(|s| s.label()))
        .str("protocol", protocol)
        .opt_str("trigger_domain", analysis.trigger.domain.as_deref())
        .uint("rst_count", analysis.rst_count as u64)
        .uint("rst_ack_count", analysis.rst_ack_count as u64);
    obj = match analysis.evidence.max_rst_ipid {
        Some(d) => obj.uint("max_rst_ipid_delta", u64::from(d)),
        None => obj.null("max_rst_ipid_delta"),
    };
    obj = match analysis.evidence.max_rst_ttl {
        Some(d) => obj.int("max_rst_ttl_delta", i64::from(d)),
        None => obj.null("max_rst_ttl_delta"),
    };
    obj.finish();
}

/// A compact JSON summary of a collector run (headline statistics).
/// Takes the aggregate layer directly; a `&Collector` coerces via deref.
pub fn summary_to_json(col: &crate::PartialAggregate) -> String {
    JsonObject::new()
        .uint("total_flows", col.total)
        .uint("possibly_tampered", col.possibly_tampered)
        .str(
            "possibly_tampered_pct",
            &pct_f(col.possibly_tampered as f64 / col.total.max(1) as f64),
        )
        .float("recall", col.truth.recall())
        .float("precision", col.truth.precision())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_capture::PacketRecord;
    use tamper_core::{classify, ClassifierConfig};
    use tamper_wire::{Seq, TcpFlags};

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb"), "a\\nb");
        assert_eq!(escape_json("tab\there"), "tab\\there");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("unicode ∅ ok"), "unicode ∅ ok");
    }

    #[test]
    fn object_builder_layout() {
        let line = JsonObject::new()
            .str("a", "x")
            .int("b", -3)
            .uint("c", 7)
            .bool("d", true)
            .null("e")
            .float("f", 0.5)
            .float("g", f64::NAN)
            .finish();
        assert_eq!(
            line,
            "{\"a\":\"x\",\"b\":-3,\"c\":7,\"d\":true,\"e\":null,\"f\":0.5,\"g\":null}"
        );
    }

    #[test]
    fn objects_append_to_a_shared_buffer_and_escape_like_escape_json() {
        let mut buf = String::from("{\"first\":1}\n");
        JsonObject::append_to(&mut buf).uint("n", 2).finish();
        assert_eq!(buf, "{\"first\":1}\n{\"n\":2}");

        let nasty = "q\"b\\s\n\r\t\u{0}\u{1f}\u{7f} ∅ é";
        buf.clear();
        JsonObject::append_to(&mut buf).str(nasty, nasty).finish();
        let escaped = escape_json(nasty);
        assert_eq!(buf, format!("{{\"{escaped}\":\"{escaped}\"}}"));
        assert_eq!(escaped, "q\\\"b\\\\s\\n\\r\\t\\u0000\\u001f\u{7f} ∅ é");
    }

    #[test]
    fn flow_line_round_trips_key_fields() {
        let flow = FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 4)),
            server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
            src_port: 40000,
            dst_port: 443,
            packets: vec![
                PacketRecord {
                    ts_sec: 0,
                    flags: TcpFlags::SYN,
                    seq: Seq::from(1),
                    ack: Seq::ZERO,
                    ip_id: Some(5),
                    ttl: 52,
                    window: 65535,
                    payload_len: 0,
                    payload: Bytes::new(),
                    has_tcp_options: true,
                },
                PacketRecord {
                    ts_sec: 0,
                    flags: TcpFlags::RST,
                    seq: Seq::from(2),
                    ack: Seq::ZERO,
                    ip_id: Some(40_000),
                    ttl: 101,
                    window: 0,
                    payload_len: 0,
                    payload: Bytes::new(),
                    has_tcp_options: false,
                },
            ],
            observation_end_sec: 40,
            truncated: false,
        };
        let a = classify(&flow, &ClassifierConfig::default());
        let line = flow_to_jsonl(&flow, &a);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"verdict\":\"tampered\""));
        assert!(line.contains("⟨SYN → RST⟩"));
        assert!(line.contains("\"max_rst_ipid_delta\":39995"));
        assert!(line.contains("\"max_rst_ttl_delta\":49"));
        assert!(!line.contains('\n'));
    }
}
