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
//! - [`seq`] — TCP sequence space as a type, [`Seq`], with only
//!   wrap-safe operations.
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
mod seq;
mod tcp;
pub mod tls;

pub use error::WireError;
pub use flags::TcpFlags;
pub use ipv6::Ipv6Header;
pub use packet::{Packet, PacketBuilder, PacketView};
pub use reader::Reader;
pub use seq::Seq;
pub use tcp::{TcpHeader, TcpOption, TcpOptions};

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, WireError>;

/// The domain a request payload asks for, lowercased: the SNI of a TLS
/// ClientHello, else the `Host` of an HTTP request as
/// [`http::parse_request`] reads it (a repeated header yields its last
/// value; the request line needs a method, a target and a version).
/// `None` for any other payload, a malformed one, or one naming no
/// domain.
///
/// ```
/// let req = tamper_wire::http::build_get("Example.COM", "/x", "demo/1.0");
/// assert_eq!(tamper_wire::request_domain(&req).as_deref(), Some("example.com"));
/// ```
pub fn request_domain(payload: &[u8]) -> Option<String> {
    // A payload that does not parse names no domain, as a DPI box reads it.
    let mut domain = if tls::is_client_hello(payload) {
        tls::parse_sni(payload).ok()??
    } else {
        http::parse_request(payload).ok()?.host?.to_owned()
    };
    domain.make_ascii_lowercase();
    Some(domain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_domain_reads_sni_else_the_last_host_of_a_request() {
        let hello = tls::build_client_hello("Blocked.Example.COM", [7; 32]);
        assert_eq!(
            request_domain(&hello).as_deref(),
            Some("blocked.example.com")
        );
        let twice = b"GET / HTTP/1.1\r\nHost: first.example\r\nHost: second.example\r\n\r\n";
        assert_eq!(request_domain(twice).as_deref(), Some("second.example"));
        // A request line needs a method, a target and a version.
        assert_eq!(
            request_domain(b"GET /a b HTTP/1.1\r\nHost: x.example\r\n\r\n"),
            None
        );
        assert_eq!(request_domain(b"GET / HTTP/1.1\r\n\r\n"), None);
    }
}
