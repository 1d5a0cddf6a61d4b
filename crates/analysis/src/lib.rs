#![warn(missing_docs)]
#![warn(unreachable_pub)]
// A new `Signature` (or any other enum variant) must fail the build
// where the report matches on it, not fall into a wildcard arm.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

//! # tamper-analysis
//!
//! Aggregation and reporting: a single-pass streaming [`Collector`] keyed
//! the way the paper aggregates (country, AS, signature, hour, category,
//! domain, IP version, protocol), plus one generator per paper artifact
//! (Table 1–3, Figures 1–10, the §4 validation numbers) in [`report`].
//!
//! The aggregation state itself lives in [`agg::PartialAggregate`] — a
//! pure, serializable, *mergeable* layer (exact counter sums plus
//! deterministic keep-lowest-k reservoirs), encoded to `.agg` files by
//! [`aggfile`] and read by the generators through [`view::ReportView`].
//! N per-PoP partials merged in any order reproduce the single-machine
//! report byte-for-byte.

mod agg;
mod aggfile;
mod capture;
mod collector;
mod fmt;
mod jsonl;
mod metrics;
mod paper;
pub mod report;
mod stats;
mod view;

pub use agg::PartialAggregate;
pub use aggfile::{
    decode as decode_agg, encode as encode_agg, fold as fold_agg, merge_checked, AggError,
};
pub use capture::{
    capture_collector, capture_meta, capture_summary_to_json, engine_perf_to_json,
    label_capture_flow,
};
pub use collector::Collector;
pub use fmt::{pct, pct_f};
pub use jsonl::{flow_to_jsonl, flow_to_jsonl_into, summary_to_json, JsonObject};
pub use metrics::{metrics_to_json, write_metrics_json};
pub use paper::comparison_table;
pub use stats::slope_through_origin;
