//! IPv6 fixed header (RFC 8200). Extension headers are not supported — the
//! simulated traffic never carries them, and the classifier only needs the
//! hop limit (the IPv6 analogue of the TTL evidence) and the addresses.

use crate::reader::Reader;
use crate::{Result, WireError};
use bytes::{BufMut, BytesMut};
use std::net::Ipv6Addr;

/// Length of the fixed IPv6 header.
pub(crate) const IPV6_HEADER_LEN: usize = 40;

/// An IPv6 fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Traffic class byte.
    pub traffic_class: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Payload length in bytes (excludes this header).
    pub payload_len: u16,
    /// Next header (6 = TCP).
    pub next_header: u8,
    /// Hop limit — plays the role TTL plays in IPv4 evidence.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
}

impl Ipv6Header {
    /// A TCP header template with sensible defaults.
    #[inline]
    pub(crate) fn tcp_template(src: Ipv6Addr, dst: Ipv6Addr) -> Ipv6Header {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            payload_len: 0, // filled by the emitter
            next_header: 6,
            hop_limit: 64,
            src,
            dst,
        }
    }

    /// Parse a header from the start of `data`. Returns the header and the
    /// byte offset of the payload.
    pub fn parse(data: &[u8]) -> Result<(Ipv6Header, usize)> {
        if data.len() < IPV6_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let mut r = Reader::new(data);
        let b0 = r.u8()?;
        let version = b0 >> 4;
        if version != 6 {
            return Err(WireError::BadVersion(version));
        }
        let b1 = r.u8()?;
        let flow_lo = r.u16()?;
        let payload_len = r.u16()?;
        if IPV6_HEADER_LEN + payload_len as usize > data.len() {
            return Err(WireError::BadLength);
        }
        let next_header = r.u8()?;
        let hop_limit = r.u8()?;
        let src: [u8; 16] = r.array()?;
        let dst: [u8; 16] = r.array()?;
        let header = Ipv6Header {
            traffic_class: (b0 << 4) | (b1 >> 4),
            flow_label: (u32::from(b1 & 0x0F) << 16) | u32::from(flow_lo),
            payload_len,
            next_header,
            hop_limit,
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
        };
        Ok((header, IPV6_HEADER_LEN))
    }

    /// Emit the header into `buf` with `payload_len` payload bytes to follow.
    pub(crate) fn emit(&self, buf: &mut BytesMut, payload_len: usize) {
        buf.put_u8(0x60 | (self.traffic_class >> 4));
        #[expect(
            clippy::cast_possible_truncation,
            reason = "keeps the flow label's top 4 bits, masked just after"
        )]
        buf.put_u8((self.traffic_class << 4) | ((self.flow_label >> 16) as u8 & 0x0F));
        buf.put_u16((self.flow_label & 0xFFFF) as u16);
        buf.put_u16(u16::try_from(payload_len).unwrap_or(u16::MAX));
        buf.put_u8(self.next_header);
        buf.put_u8(self.hop_limit);
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv6Header {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0xABCDE,
            payload_len: 20,
            next_header: 6,
            hop_limit: 58,
            src: Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            dst: Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.emit(&mut buf, 20);
        buf.extend_from_slice(&[0u8; 20]);
        let (parsed, off) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(off, IPV6_HEADER_LEN);
        assert_eq!(parsed, h);
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(Ipv6Header::parse(&[0x60; 30]), Err(WireError::Truncated));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf, 0);
        buf[0] = 0x45;
        assert_eq!(Ipv6Header::parse(&buf), Err(WireError::BadVersion(4)));
    }

    #[test]
    fn rejects_payload_len_beyond_buffer() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf, 64);
        assert_eq!(Ipv6Header::parse(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn flow_label_is_20_bits() {
        let mut h = sample();
        h.flow_label = 0xFFFFF;
        let mut buf = BytesMut::new();
        h.emit(&mut buf, 0);
        let (parsed, _) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(parsed.flow_label, 0xFFFFF);
    }
}
