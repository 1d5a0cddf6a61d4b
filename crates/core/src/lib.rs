#![warn(missing_docs)]

//! # tamper-core
//!
//! The paper's primary contribution as a library: passive detection of
//! connection tampering from server-side flow records.
//!
//! Pipeline: a flow (≤10 inbound packets, 1-second timestamps, possibly
//! out of order; an owned [`FlowRecord`](tamper_capture::FlowRecord) or
//! the arena-backed rows of a [`FlowBatch`](tamper_capture::FlowBatch),
//! both through the one [`BatchClassifier`]) is
//! [reordered](reorder), tested for **possibly-tampered** status (RST
//! present, or a ≥3 s inactivity gap without a FIN), matched against the
//! 19 [tampering signatures](signature::Signature) of Table 1, and
//! annotated with the [`trigger`] (SNI / Host) and
//! [injection evidence](evidence) (IP-ID / TTL discontinuities, scanner
//! fingerprints).
//!
//! The classifier sees exactly what the paper's pipeline saw — it never
//! touches simulation ground truth, which lives only in `tamper-netsim`
//! traces and is used by tests to measure precision/recall.

pub mod batch;
pub mod classify;
pub mod evidence;
pub mod explain;
pub mod machine;
pub mod reorder;
pub mod signature;
pub mod trigger;
pub mod view;

pub use batch::BatchClassifier;
pub use classify::{classify, ClassifierConfig, FlowAnalysis};
pub use evidence::{
    is_zmap_fingerprint, scanner_marks, FlowEvidence, ScannerMarks, HIGH_TTL, ZMAP_IP_ID,
};
pub use explain::explain;
pub use machine::{reachable_graph, stage_of, transition, Count, Event, StageState};
pub use reorder::reconstruct_order;
pub use signature::{Classification, Signature, Stage};
pub use trigger::{user_agent, AppProtocol, TriggerInfo};
pub use view::PacketsView;
