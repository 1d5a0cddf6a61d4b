#![warn(missing_docs)]

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

pub mod config;
pub mod countries;
pub mod domains;
pub mod driver;
pub mod json;
pub mod meta;
pub mod policy;
pub mod scenario;
pub mod testlists;

pub use config::{world_from_json, world_to_json, ConfigError};
pub use countries::{local_hour, Asn, Country, CountryIdx};
pub use domains::{Category, Domain, DomainCatalog, DomainId};
pub use driver::{
    ip_key, world_fingerprint, WorldConfig, WorldSim, FIREWALL_KEYWORD, FIREWALL_USER_AGENT,
    JAN12_2023_UNIX, SEP13_2022_UNIX,
};
pub use json::{Json, JsonError};
pub use meta::{BenignKind, GroundTruth, LabeledFlow, SessionMeta};
pub use policy::{country_index, BenignRates, CountrySpec, Policy, ProtoFilter};
pub use scenario::Scenario;
pub use testlists::{generate_lists, TestList, TestLists};
