//! Metrics emission: render a [`tamper_obs::Snapshot`] as one JSON
//! document, reusing the workspace's hand-rolled [`crate::jsonl`] writer.
//!
//! The document is a single line — `{"kind":"metrics","scopes":[...]}` —
//! written to its own file (`--metrics-json`), never interleaved with
//! verdict lines or the byte-compared summary. Scope and instrument order
//! come pre-sorted from [`tamper_obs::Registry::snapshot`], so two runs
//! that record the same instruments differ only in measured values.

use crate::jsonl::JsonObject;
use tamper_obs::{Histogram, ScopeSnapshot, Snapshot, TimerStat};

fn uint_map(entries: &[(String, u64)]) -> String {
    let mut obj = JsonObject::new();
    for (name, v) in entries {
        obj = obj.uint(name, *v);
    }
    obj.finish()
}

fn timer_map(entries: &[(String, TimerStat)]) -> String {
    let mut obj = JsonObject::new();
    for (name, t) in entries {
        let body = JsonObject::new()
            .uint("count", t.count)
            .uint("total_ns", t.total_ns)
            .finish();
        obj = obj.raw(name, &body);
    }
    obj.finish()
}

fn uint_array(values: impl Iterator<Item = u64>) -> String {
    let mut out = String::from("[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

fn histogram_map(entries: &[(String, Histogram)]) -> String {
    let mut obj = JsonObject::new();
    for (name, h) in entries {
        let body = JsonObject::new()
            .raw("bounds_ns", &uint_array(h.bounds.iter().copied()))
            .raw("counts", &uint_array(h.counts.iter().copied()))
            .uint("count", h.count)
            .uint("total", h.total)
            .uint("max", h.max)
            .finish();
        obj = obj.raw(name, &body);
    }
    obj.finish()
}

fn scope_to_json(s: &ScopeSnapshot) -> String {
    JsonObject::new()
        .str("scope", &s.scope)
        .raw("counters", &uint_map(&s.counters))
        .raw("gauges", &uint_map(&s.gauges))
        .raw("timers", &timer_map(&s.timers))
        .raw("histograms", &histogram_map(&s.histograms))
        .finish()
}

/// Serialize a metrics snapshot as one JSON line.
pub fn metrics_to_json(snap: &Snapshot) -> String {
    let mut scopes = String::from("[");
    for (i, s) in snap.scopes.iter().enumerate() {
        if i > 0 {
            scopes.push(',');
        }
        scopes.push_str(&scope_to_json(s));
    }
    scopes.push(']');
    JsonObject::new()
        .str("kind", "metrics")
        .uint("flows_closed", snap.counter_sum("shard", "flows_closed"))
        .raw("scopes", &scopes)
        .finish()
}

/// Write a metrics snapshot to `path` as one JSON line (plus a trailing
/// newline).
pub fn write_metrics_json(path: &str, snap: &Snapshot) -> std::io::Result<()> {
    let mut line = metrics_to_json(snap);
    line.push('\n');
    std::fs::write(path, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamper_obs::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        let mut sh = reg.scope("shard0");
        sh.count("records", 10);
        sh.count("flows_closed", 4);
        sh.record_timer("parse", 1_000);
        sh.record_hist("classify_latency_ns", 750);
        sh.record_hist("classify_latency_ns", 2_000_000);
        reg.publish(sh);
        let mut m = reg.scope("merge");
        m.gauge_set("threads", 2);
        m.gauge_max("max_live_flows", 3);
        reg.publish(m);
        reg
    }

    #[test]
    fn document_shape_is_one_line_with_sorted_scopes() {
        let line = metrics_to_json(&sample_registry().snapshot());
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"kind\":\"metrics\""));
        assert!(line.contains("\"flows_closed\":4"));
        let merge_at = line.find("\"scope\":\"merge\"").unwrap();
        let shard_at = line.find("\"scope\":\"shard0\"").unwrap();
        assert!(merge_at < shard_at, "scopes must arrive pre-sorted");
        assert!(line.contains("\"parse\":{\"count\":1,\"total_ns\":1000}"));
        assert!(line.contains("\"bounds_ns\":[500,1000,"));
    }

    #[test]
    fn document_parses_with_the_workspace_json_parser() {
        let line = metrics_to_json(&sample_registry().snapshot());
        let doc = tamper_worldgen::json::Json::parse(&line).expect("self-emitted JSON must parse");
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("metrics"));
        assert_eq!(doc.get("flows_closed").and_then(|v| v.as_u64()), Some(4));
        let scopes = doc.get("scopes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(scopes.len(), 2);
        let shard = &scopes[1];
        assert_eq!(
            shard
                .get("counters")
                .and_then(|c| c.get("records"))
                .and_then(|v| v.as_u64()),
            Some(10)
        );
        let hist = shard
            .get("histograms")
            .and_then(|h| h.get("classify_latency_ns"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(2));
    }
}
