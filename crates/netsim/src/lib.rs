#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # tamper-netsim
//!
//! A deterministic, synchronous, discrete-event session simulator for
//! TCP connections between clients and a CDN edge server, with pluggable
//! middlebox hops on the path.
//!
//! Design (in the spirit of event-driven user-space stacks like smoltcp):
//! no OS sockets, no async runtime — every session is an isolated event
//! loop over a virtual clock, so runs are bit-reproducible from a seed and
//! can be sharded across threads without changing results.
//!
//! The simulator's purpose is to regenerate the *inbound packet-header
//! sequences* a CDN server sees, including the ones produced by tampering
//! middleboxes; the `tamper-capture` crate then applies the paper's
//! collection constraints and `tamper-core` classifies the result.
//!
//! ## Layout
//!
//! - [`time`] — virtual clock types.
//! - [`rng`] — per-session deterministic RNG derivation.
//! - [`trace`] — session traces and ground-truth tamper events.
//! - [`endpoint`] — shared endpoint machinery (actions, IP-ID policies).
//! - [`client`] — the client population: normal clients, scanners,
//!   Happy-Eyeballs losers, aborts, vanishers.
//! - [`server`] — the CDN edge.
//! - [`hop`] — the middlebox interface ([`hop::Hop`]).
//! - [`path`] — link/hop composition.
//! - [`session`] — the per-session event loop.
//!
//! ## Example
//!
//! ```
//! use tamper_netsim::*;
//!
//! let client_ip = "203.0.113.7".parse().unwrap();
//! let server_ip = "198.51.100.1".parse().unwrap();
//! let client = ClientConfig::default_tls(client_ip, server_ip, "site.example");
//! let server = ServerConfig::default_edge(server_ip, 443);
//! let mut path = Path::direct(SimDuration::from_millis(40), 12);
//! let mut rng = derive_rng(1, 1);
//! let trace = run_session(
//!     SessionParams::new(client, server, SimTime::ZERO),
//!     &mut path,
//!     &mut rng,
//! );
//! // A clean session ends with a graceful FIN from the client.
//! assert!(trace.inbound().any(|p| p.packet.tcp.flags.has_fin()));
//! assert!(!trace.was_tampered());
//! ```

pub mod client;
mod endpoint;
mod hop;
mod path;
mod rng;
pub mod server;
mod session;
mod time;
mod trace;

pub use client::{Client, ClientConfig, ClientKind, RequestPayload, VanishStage};
pub use endpoint::{Actions, EndpointInput, EndpointMachine, IpIdGen, IpIdMode};
pub use hop::{Hop, HopCtx, HopOutcome};
pub use path::{Link, Path};
pub use rng::{derive_rng, splitmix64};
pub use server::{Server, ServerConfig};
pub use session::{run_session, SessionParams, SessionWorkspace};
pub use time::{SimDuration, SimTime};
pub use trace::{Direction, Mechanism, SessionTrace, TamperEvent, TriggerStage};
