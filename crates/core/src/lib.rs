#![warn(missing_docs)]
#![warn(unreachable_pub)]
// No silent narrowing of sequence-space or length values, and no
// wildcard arm that would swallow a new `Signature` (or any other enum
// variant) instead of failing the build.
#![deny(
    clippy::cast_possible_truncation,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

//! # tamper-core
//!
//! The paper's primary contribution as a library: passive detection of
//! connection tampering from server-side flow records.
//!
//! Pipeline: a flow (≤10 inbound packets, 1-second timestamps, possibly
//! out of order; an owned [`FlowRecord`](tamper_capture::FlowRecord) or
//! the arena-backed rows of a [`FlowBatch`](tamper_capture::FlowBatch),
//! both read through one [`FlowView`] by the one [`BatchClassifier`]) is
//! [reordered](reorder), tested for **possibly-tampered** status (RST
//! present, or a ≥3 s inactivity gap without a FIN), matched against the
//! 19 [tampering signatures](signature::Signature) of Table 1, and
//! annotated with the [`trigger`] (SNI / Host) and
//! [injection evidence](evidence) (IP-ID / TTL discontinuities, scanner
//! fingerprints, SYN payloads, a firewall User-Agent on Post-Data
//! matches) — all in the one walk, so the aggregate downstream reads the
//! [`FlowAnalysis`] and never a packet.
//!
//! The classifier sees exactly what the paper's pipeline saw — it never
//! touches simulation ground truth, which lives only in `tamper-netsim`
//! traces and is used by tests to measure precision/recall.

mod batch;
mod classify;
mod evidence;
mod explain;
mod machine;
mod reorder;
mod signature;
mod trigger;
mod view;

pub use batch::BatchClassifier;
pub use classify::{classify, ClassifierConfig, FlowAnalysis};
pub use explain::explain;
pub use machine::{reachable_graph, stage_of, transition, Count, Event, StageState};
pub use reorder::reconstruct_order;
pub use signature::{Classification, Signature, Stage};
pub use trigger::{AppProtocol, FIREWALL_USER_AGENT};
pub use view::{FlowView, PacketsView};
