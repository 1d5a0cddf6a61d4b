#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # tamper-middlebox
//!
//! Models of tampering middleboxes: the DPI trigger engine ([`RuleSet`]),
//! injection/drop action specifications ([`spec`]), the generic
//! [`TamperingMiddlebox`] hop, and [`Vendor`] profiles that regenerate each
//! of the paper's 19 tampering signatures.
//!
//! The guiding principle is the paper's observation that tampering
//! signatures come from a *small set of distinct vendor behaviours*:
//! how many tear-down packets are forged, RST vs RST+ACK, acknowledgement
//! strategies (exact / zero / window-guessing), whether the triggering
//! packet is dropped (in-path) or passed (on-path), and the injector's own
//! network-stack quirks (IP-ID and TTL initialization) that the paper's
//! §4.3 evidence detects.

mod rules;
mod spec;
mod stealth;
mod tamperbox;
mod vendors;

pub use rules::RuleSet;
pub use spec::InjectorStack;
pub use stealth::StealthHijacker;
pub use tamperbox::{ForcedStage, TamperingMiddlebox};
pub use vendors::{Vendor, ALL_VENDORS};
