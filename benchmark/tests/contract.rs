//! `BENCHMARK.json` at the repository root and the tables in `spec.rs`
//! describe the same benchmark.

use tamperbench::spec::{Workload, END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_lists_what_the_runner_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let flat: String = text.split_whitespace().collect();
    let section = |from: &str, to: &str| {
        let start = flat.find(from).unwrap_or_else(|| panic!("no {from} key"));
        let end = to
            .is_empty()
            .then_some(flat.len())
            .or_else(|| flat.find(to));
        &flat[start..end.expect("keys in the documented order")]
    };

    let workloads = section("\"workloads\":", "\"end_to_end\":");
    assert_eq!(workloads.matches("\"name\":").count(), Workload::ALL.len());
    for w in Workload::ALL {
        assert!(workloads.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
    }

    let end_to_end = section("\"end_to_end\":", "\"per_layer\":");
    assert_eq!(end_to_end.matches("\"name\":").count(), END_TO_END.len());
    for m in END_TO_END {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
            m.name, m.unit, m.bound
        );
        assert!(end_to_end.contains(&entry), "{entry} not in {end_to_end}");
    }

    let per_layer = section("\"per_layer\":", "");
    assert_eq!(per_layer.matches("\"name\":").count(), PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":");
        assert!(per_layer.contains(&entry), "{entry} not in BENCHMARK.json");
    }
}
