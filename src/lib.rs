#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # tamperscope
//!
//! A from-scratch reproduction of *"Global, Passive Detection of Connection
//! Tampering"* (SIGCOMM 2023) as a Rust workspace: passive classification
//! of connection tampering from server-side packet captures, plus every
//! substrate needed to regenerate the paper's evaluation — a deterministic
//! packet-level session simulator, middlebox vendor models, the CDN
//! collection pipeline, a calibrated world model, and the analysis layer
//! that reproduces each table and figure.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and hosts the runnable examples and workspace-spanning
//! integration tests.
//!
//! ```
//! use tamperscope::prelude::*;
//!
//! // Classify one captured flow (here: a single lonely SYN, then silence).
//! let flow = FlowRecord {
//!     client_ip: "203.0.113.9".parse().unwrap(),
//!     server_ip: "198.51.100.1".parse().unwrap(),
//!     src_port: 41000,
//!     dst_port: 443,
//!     packets: vec![PacketRecord {
//!         ts_sec: 100,
//!         flags: TcpFlags::SYN,
//!         seq: Seq::from(1),
//!         ack: Seq::ZERO,
//!         ip_id: Some(7),
//!         ttl: 52,
//!         window: 65535,
//!         payload_len: 0,
//!         payload: bytes::Bytes::new(),
//!         has_tcp_options: true,
//!     }],
//!     observation_end_sec: 130,
//!     truncated: false,
//! };
//! let analysis = classify(&flow, &ClassifierConfig::default());
//! assert_eq!(analysis.signature(), Some(Signature::SynNone));
//! ```

pub mod cli;

/// Wire formats: IP/TCP headers, TLS ClientHello, HTTP requests.
pub use tamper_wire as wire;

/// Observability: counters, gauges, stage timers, latency histograms.
pub use tamper_obs as obs;

/// Deterministic discrete-event session simulator.
pub use tamper_netsim as netsim;

/// Tampering middlebox models (DPI rules, vendors, injector stacks).
pub use tamper_middlebox as middlebox;

/// The server-side collection pipeline (sampling, truncation, pcap).
pub use tamper_capture as capture;

/// The paper's contribution: the tampering-signature classifier.
pub use tamper_core as core;

/// The calibrated world model substituting for the CDN dataset.
pub use tamper_worldgen as worldgen;

/// Aggregation and per-artifact report generation.
pub use tamper_analysis as analysis;

/// The items most programs need.
pub mod prelude {
    pub use tamper_analysis::Collector;
    pub use tamper_capture::{CollectorConfig, FlowRecord, PacketRecord};
    pub use tamper_core::{classify, ClassifierConfig, Signature};
    pub use tamper_middlebox::{RuleSet, Vendor};
    pub use tamper_netsim::{
        run_session, ClientConfig, Path, ServerConfig, SessionParams, SimDuration, SimTime,
    };
    pub use tamper_wire::{Seq, TcpFlags};
    pub use tamper_worldgen::{WorldConfig, WorldSim};
}
