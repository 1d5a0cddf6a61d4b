#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # tamper-worldgen
//!
//! The world model: a calibrated synthetic substitute for the proprietary
//! CDN dataset the paper measured. It assembles per-connection sessions —
//! country, AS, client behaviour, domain, protocol, time of day — runs
//! them through `tamper-netsim` paths that may carry `tamper-middlebox`
//! vendors, applies the `tamper-capture` collection constraints, and
//! streams out [`LabeledFlow`]s carrying ground truth for evaluation.
//!
//! Calibration lives in [`policy`]: every country's tampering rates,
//! vendor mixes, and blocked categories, traceable to the paper's reported
//! observations (see DESIGN.md's substitution table).
//!
//! ## Layout
//!
//! - [`countries`] — country/AS registry helpers.
//! - [`domains`] — categorized domain catalog.
//! - [`policy`] — the calibrated world table and benign-anomaly rates.
//! - [`meta`] — ground-truth labels ([`LabeledFlow`]).
//! - [`scenario`] — time-varying overlays (the Iran 2022 case study).
//! - [`driver`] — the [`WorldSim`] session generator.
//! - [`testlists`] — synthetic Tranco/Majestic/GreatFire/Citizen Lab lists.
//!
//! ## Example
//!
//! ```
//! use tamper_worldgen::{WorldConfig, WorldSim};
//!
//! let sim = WorldSim::new(WorldConfig {
//!     sessions: 200,
//!     days: 1,
//!     catalog_size: 300,
//!     ..Default::default()
//! });
//! let mut flows = 0;
//! sim.run(|labeled| {
//!     assert!(labeled.flow.packets.len() <= 10);
//!     flows += 1;
//! });
//! assert!(flows >= 190);
//! ```

mod config;
mod countries;
mod domains;
mod driver;
pub mod json;
mod meta;
pub mod policy;
mod scenario;
mod testlists;

pub use config::{world_from_json, world_to_json};
pub use countries::{Asn, Country};
pub use domains::Category;
pub use driver::{
    ip_key, world_fingerprint, WorldConfig, WorldSim, FIREWALL_KEYWORD, FIREWALL_USER_AGENT,
    SEP13_2022_UNIX,
};
pub use meta::{BenignKind, GroundTruth, LabeledFlow, SessionMeta};
pub use policy::{country_index, CountrySpec, Policy, ProtoFilter};
pub use scenario::Scenario;
pub use testlists::{generate_lists, TestList, TestLists};
