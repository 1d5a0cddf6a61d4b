#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Every byte this crate parses is untrusted: no path may panic on short
// or malformed input, and no sequence-space or length value may be
// narrowed without a check.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::cast_possible_truncation
)]

//! # tamper-wire
//!
//! Wire formats for the tamperscope project: IPv4/IPv6 and TCP header
//! parsing and emission, internet checksums, and minimal application-layer
//! parsers for the two cleartext protocols that deep-packet-inspection
//! middleboxes key on — the TLS ClientHello (Server Name Indication) and
//! HTTP/1.x requests (Host header, request line keywords).
//!
//! The crate is deliberately small and allocation-light: parsing borrows
//! from the input frame wherever possible, and emission writes into a
//! [`bytes::BytesMut`]. Emitted frames are genuine, checksummed IP/TCP
//! packets; they round-trip through [`Packet::parse`] and are accepted by
//! standard tooling when written to pcap files by the `tamper-capture`
//! crate.
//!
//! ## Layout
//!
//! - [`flags`] — the TCP flag byte as a typed bitset.
//! - [`checksum`] — the one's-complement internet checksum.
//! - [`reader`] — the bounds-checked cursor every parser reads through,
//!   so truncated or hostile input surfaces as [`WireError::Truncated`]
//!   instead of a panic.
//! - [`ipv4`], [`ipv6`] — network-layer headers.
//! - [`tcp`] — transport header plus the option kinds that matter for
//!   tampering analysis (MSS, window scale, SACK-permitted, timestamps).
//! - [`packet`] — a full frame (IP header + TCP header + payload) with a
//!   builder, parser, and emitter.
//! - [`tls`] — ClientHello construction and SNI extraction.
//! - [`http`] — HTTP/1.x request construction and parsing.

mod checksum;
mod error;
mod flags;
pub mod http;
mod ipv4;
mod ipv6;
mod packet;
mod reader;
mod tcp;
pub mod tls;

pub use error::WireError;
pub use flags::TcpFlags;
pub use ipv6::Ipv6Header;
pub use packet::{Packet, PacketBuilder, PacketView};
pub use reader::Reader;
pub use tcp::{TcpHeader, TcpOption, TcpOptions};

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, WireError>;
