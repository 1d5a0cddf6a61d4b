//! IPv4 header (RFC 791), without options.
//!
//! The Identification (IP-ID) and TTL fields matter enormously for this
//! project: the paper's §4.3 validation shows that injected packets come
//! from a different TCP/IP stack than the client's, betrayed by IP-ID and
//! TTL values far outside the client's sequence.

use crate::checksum::internet_checksum;
use crate::reader::Reader;
use crate::{Result, WireError};
use bytes::{BufMut, BytesMut};
use std::net::Ipv4Addr;

/// Length of the option-less IPv4 header we emit and accept.
pub(crate) const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 header. Options are not supported (parsed headers with options
/// are rejected with [`WireError::BadLength`]); none of the traffic modelled
/// in this project carries IPv4 options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services + ECN byte.
    pub dscp_ecn: u8,
    /// Total length of header + payload in bytes.
    pub total_len: u16,
    /// Identification field — the "IP-ID" used as injection evidence.
    pub identification: u16,
    /// True if the Don't Fragment bit is set (universal for TCP today).
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (6 = TCP).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// A TCP header template with sensible defaults; callers fill in
    /// addresses and per-packet fields.
    #[inline]
    pub(crate) fn tcp_template(src: Ipv4Addr, dst: Ipv4Addr) -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: 0, // filled by the emitter
            identification: 0,
            dont_fragment: true,
            ttl: 64,
            protocol: 6,
            src,
            dst,
        }
    }

    /// Parse a header from the start of `data`, verifying the header
    /// checksum. Returns the header and the byte offset of the payload.
    pub(crate) fn parse(data: &[u8]) -> Result<(Ipv4Header, usize)> {
        let mut r = Reader::new(data);
        let hdr = r.take(IPV4_HEADER_LEN).map_err(|_| WireError::Truncated)?;
        let mut h = Reader::new(hdr);
        let b0 = h.u8()?;
        let version = b0 >> 4;
        if version != 4 {
            return Err(WireError::BadVersion(version));
        }
        let ihl = (b0 & 0x0F) as usize * 4;
        if ihl != IPV4_HEADER_LEN {
            // Options unsupported; IHL < 5 is illegal anyway.
            return Err(WireError::BadLength);
        }
        if internet_checksum(hdr) != 0 {
            return Err(WireError::BadChecksum);
        }
        let dscp_ecn = h.u8()?;
        let total_len = h.u16()?;
        if (total_len as usize) < IPV4_HEADER_LEN || (total_len as usize) > data.len() {
            return Err(WireError::BadLength);
        }
        let identification = h.u16()?;
        let flags_frag = h.u16()?;
        let ttl = h.u8()?;
        let protocol = h.u8()?;
        h.skip(2)?; // header checksum, verified above over the whole header
        let header = Ipv4Header {
            dscp_ecn,
            total_len,
            identification,
            dont_fragment: flags_frag & 0x4000 != 0,
            ttl,
            protocol,
            src: Ipv4Addr::from(h.array::<4>()?),
            dst: Ipv4Addr::from(h.array::<4>()?),
        };
        Ok((header, IPV4_HEADER_LEN))
    }

    /// Emit the header into `buf` with `payload_len` bytes of payload to
    /// follow; computes total length and header checksum.
    #[expect(
        clippy::indexing_slicing,
        reason = "the emitter checksums the 20 bytes it just wrote; the emit path is unreachable from capture bytes"
    )]
    pub(crate) fn emit(&self, buf: &mut BytesMut, payload_len: usize) {
        // The sim never builds >64KiB datagrams; saturate rather than wrap
        // the on-wire total-length field if a caller ever does.
        let total = u16::try_from(IPV4_HEADER_LEN + payload_len).unwrap_or(u16::MAX);
        let start = buf.len();
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(self.dscp_ecn);
        buf.put_u16(total);
        buf.put_u16(self.identification);
        buf.put_u16(if self.dont_fragment { 0x4000 } else { 0 });
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let ck = internet_checksum(&buf[start..start + IPV4_HEADER_LEN]);
        buf[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: 40,
            identification: 0xBEEF,
            dont_fragment: true,
            ttl: 57,
            protocol: 6,
            src: Ipv4Addr::new(203, 0, 113, 7),
            dst: Ipv4Addr::new(198, 51, 100, 1),
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.emit(&mut buf, 20);
        buf.extend_from_slice(&[0u8; 20]);
        let (parsed, off) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(off, IPV4_HEADER_LEN);
        assert_eq!(parsed, Ipv4Header { total_len: 40, ..h });
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(Ipv4Header::parse(&[0x45; 10]), Err(WireError::Truncated));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf, 0);
        buf[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&buf), Err(WireError::BadVersion(6)));
    }

    #[test]
    fn rejects_bad_checksum() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf, 0);
        buf[10] ^= 0xFF;
        assert_eq!(Ipv4Header::parse(&buf), Err(WireError::BadChecksum));
    }

    #[test]
    fn rejects_options() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf, 0);
        buf[0] = 0x46; // IHL = 6 words
        assert_eq!(Ipv4Header::parse(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf, 100); // claims 120 bytes total
                                      // ...but provide no payload at all.
                                      // Checksum is valid for the emitted header, so the length check fires.
        assert_eq!(Ipv4Header::parse(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn emitted_header_checksum_verifies() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf, 0);
        assert_eq!(internet_checksum(&buf[..IPV4_HEADER_LEN]), 0);
    }
}
