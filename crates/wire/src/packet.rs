//! A full frame: IP header + TCP header + payload, with a builder, a
//! parser, and a checksumming emitter.

use crate::checksum::{tcp_checksum_v4, tcp_checksum_v6};
use crate::flags::TcpFlags;
use crate::ipv4::Ipv4Header;
use crate::ipv6::Ipv6Header;
use crate::seq::Seq;
use crate::tcp::{TcpHeader, TcpOptions};
use crate::{Result, WireError};
use bytes::{Bytes, BytesMut};
use std::net::IpAddr;

/// The network-layer header of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpHeader {
    /// IPv4.
    V4(Ipv4Header),
    /// IPv6.
    V6(Ipv6Header),
}

impl IpHeader {
    /// Source address.
    #[inline]
    pub fn src(&self) -> IpAddr {
        match self {
            IpHeader::V4(h) => IpAddr::V4(h.src),
            IpHeader::V6(h) => IpAddr::V6(h.src),
        }
    }

    /// Destination address.
    #[inline]
    pub fn dst(&self) -> IpAddr {
        match self {
            IpHeader::V4(h) => IpAddr::V4(h.dst),
            IpHeader::V6(h) => IpAddr::V6(h.dst),
        }
    }

    /// TTL (IPv4) or hop limit (IPv6).
    #[inline]
    pub fn ttl(&self) -> u8 {
        match self {
            IpHeader::V4(h) => h.ttl,
            IpHeader::V6(h) => h.hop_limit,
        }
    }

    /// Set the TTL / hop limit.
    #[inline]
    pub fn set_ttl(&mut self, ttl: u8) {
        match self {
            IpHeader::V4(h) => h.ttl = ttl,
            IpHeader::V6(h) => h.hop_limit = ttl,
        }
    }

    /// IP-ID for IPv4; `None` for IPv6, which has no identification field
    /// outside fragment headers (the paper notes IP-ID evidence is
    /// IPv4-only).
    #[inline]
    pub fn ip_id(&self) -> Option<u16> {
        match self {
            IpHeader::V4(h) => Some(h.identification),
            IpHeader::V6(_) => None,
        }
    }

    /// True for IPv4.
    pub fn is_v4(&self) -> bool {
        matches!(self, IpHeader::V4(_))
    }
}

/// The IP-layer front half of both parsers: the network header and the
/// TCP segment it frames, with every fail-closed check on capture bytes —
/// version, protocol, segment bounds, TCP checksum over the pseudo-header
/// — made exactly once.
fn parse_ip(frame: &[u8]) -> Result<(IpHeader, &[u8])> {
    let version = frame.first().map(|b| b >> 4).ok_or(WireError::Truncated)?;
    match version {
        4 => {
            let (ip, off) = Ipv4Header::parse(frame)?;
            if ip.protocol != 6 {
                return Err(WireError::UnsupportedProtocol(ip.protocol));
            }
            // Ipv4Header::parse guarantees off <= total_len <= frame.len().
            let segment = frame
                .get(off..ip.total_len as usize)
                .ok_or(WireError::BadLength)?;
            if tcp_checksum_v4(ip.src, ip.dst, segment) != 0 {
                return Err(WireError::BadChecksum);
            }
            Ok((IpHeader::V4(ip), segment))
        }
        6 => {
            let (ip, off) = Ipv6Header::parse(frame)?;
            if ip.next_header != 6 {
                return Err(WireError::UnsupportedProtocol(ip.next_header));
            }
            // Ipv6Header::parse guarantees the segment fits in the frame.
            let seg_end = off
                .checked_add(ip.payload_len as usize)
                .ok_or(WireError::BadLength)?;
            let segment = frame.get(off..seg_end).ok_or(WireError::BadLength)?;
            if tcp_checksum_v6(ip.src, ip.dst, segment) != 0 {
                return Err(WireError::BadChecksum);
            }
            Ok((IpHeader::V6(ip), segment))
        }
        v => Err(WireError::BadVersion(v)),
    }
}

/// A parsed or constructed TCP/IP packet.
///
/// ```
/// use tamper_wire::{Packet, PacketBuilder, Seq, TcpFlags};
/// let pkt = PacketBuilder::new(
///     "203.0.113.1".parse().unwrap(),
///     "198.51.100.1".parse().unwrap(),
///     40000,
///     443,
/// )
/// .flags(TcpFlags::SYN)
/// .seq(42)
/// .build();
/// let frame = pkt.emit(); // checksummed wire bytes
/// let parsed = Packet::parse(&frame).unwrap();
/// assert_eq!(parsed.tcp.seq, Seq::from(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Network-layer header.
    pub ip: IpHeader,
    /// Transport header.
    pub tcp: TcpHeader,
    /// TCP payload bytes.
    pub payload: Bytes,
}

impl Packet {
    /// Parse a frame starting at the IP header. Verifies the IPv4 header
    /// checksum and the TCP checksum over the pseudo-header.
    pub fn parse(frame: &[u8]) -> Result<Packet> {
        let (ip, segment) = parse_ip(frame)?;
        let (tcp, data_off) = TcpHeader::parse(segment)?;
        let payload = segment.get(data_off..).ok_or(WireError::BadLength)?;
        Ok(Packet {
            ip,
            tcp,
            payload: Bytes::copy_from_slice(payload),
        })
    }

    /// Emit the packet as a checksummed frame.
    #[expect(
        clippy::indexing_slicing,
        reason = "the emitter patches the checksum into the buffer it just wrote: seg_start + 16 + 2 <= buf.len() by construction; the emit path is unreachable from capture bytes"
    )]
    pub fn emit(&self) -> Bytes {
        let tcp_len = self.tcp.header_len() + self.payload.len();
        let mut buf = BytesMut::with_capacity(40 + tcp_len);
        let seg_start = match &self.ip {
            IpHeader::V4(h) => {
                h.emit(&mut buf, tcp_len);
                crate::ipv4::IPV4_HEADER_LEN
            }
            IpHeader::V6(h) => {
                h.emit(&mut buf, tcp_len);
                crate::ipv6::IPV6_HEADER_LEN
            }
        };
        self.tcp.emit(&mut buf);
        buf.extend_from_slice(&self.payload);
        let segment = &buf[seg_start..];
        let ck = match &self.ip {
            IpHeader::V4(h) => tcp_checksum_v4(h.src, h.dst, segment),
            IpHeader::V6(h) => tcp_checksum_v6(h.src, h.dst, segment),
        };
        let ck_at = seg_start + 16;
        buf[ck_at..ck_at + 2].copy_from_slice(&ck.to_be_bytes());
        buf.freeze()
    }
}

/// A borrowed, allocation-free view of one parsed frame.
///
/// This is the ingest path's counterpart of [`Packet::parse`]: the same
/// IP-layer front half (one shared function), then the same TCP
/// validation (one shared option-length check) with the payload left as
/// a slice into the caller's frame and the options reduced to the
/// `has_tcp_options` bit the classifier actually consumes. A frame is
/// accepted by [`PacketView::parse`] if and only if [`Packet::parse`]
/// accepts it, with the same error on rejection — the equivalence tests
/// below and the `properties` suite hold the two TCP halves together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// TTL (IPv4) or hop limit (IPv6).
    pub ttl: u8,
    /// IPv4 identification field; `None` for IPv6.
    pub ip_id: Option<u16>,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: Seq,
    /// Acknowledgement number.
    pub ack: Seq,
    /// Flag byte.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// True if the TCP header carried any options.
    pub has_tcp_options: bool,
    /// Payload bytes, borrowed from the input frame.
    pub payload: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Parse a frame starting at the IP header without allocating: after
    /// the shared IP-layer front half, read the TCP fixed header, validate
    /// the option region with the check [`TcpHeader::parse`] runs (without
    /// keeping the options), and borrow the payload.
    pub fn parse(frame: &'a [u8]) -> Result<PacketView<'a>> {
        let (ip, segment) = parse_ip(frame)?;
        let mut r = crate::reader::Reader::new(segment);
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let seq = Seq::from(r.u32()?);
        let ack = Seq::from(r.u32()?);
        let off_byte = r.u8()?;
        let flags = TcpFlags::from_bits(r.u8()?);
        let window = r.u16()?;
        r.skip(2)?; // checksum: already verified over the pseudo-header
        r.skip(2)?; // urgent pointer
        let data_offset = (off_byte >> 4) as usize * 4;
        if data_offset > segment.len() {
            return Err(WireError::BadLength);
        }
        let opts_len = data_offset
            .checked_sub(crate::tcp::TCP_HEADER_LEN)
            .ok_or(WireError::BadLength)?;
        crate::tcp::check_options(r.take(opts_len)?)?;
        let payload = segment.get(data_offset..).ok_or(WireError::BadLength)?;
        Ok(PacketView {
            src: ip.src(),
            dst: ip.dst(),
            ttl: ip.ttl(),
            ip_id: ip.ip_id(),
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            // TcpHeader::parse keeps the whole option region, so this bit
            // matches its `!options.is_empty()` on every accepted frame.
            has_tcp_options: opts_len > 0,
            payload,
        })
    }
}

/// Fluent builder for constructing packets in simulators and tests.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    ip: IpHeader,
    tcp: TcpHeader,
    payload: Bytes,
}

impl PacketBuilder {
    /// Start building a packet between two addresses. Panics if the
    /// address families differ (mixed-family packets don't exist).
    #[inline]
    #[expect(
        clippy::panic,
        reason = "mixed-family packets don't exist; builders are fed by the simulator, never by capture bytes"
    )]
    pub fn new(src: IpAddr, dst: IpAddr, src_port: u16, dst_port: u16) -> PacketBuilder {
        let ip = match (src, dst) {
            (IpAddr::V4(s), IpAddr::V4(d)) => IpHeader::V4(Ipv4Header::tcp_template(s, d)),
            (IpAddr::V6(s), IpAddr::V6(d)) => IpHeader::V6(Ipv6Header::tcp_template(s, d)),
            _ => panic!("mixed address families"),
        };
        PacketBuilder {
            ip,
            tcp: TcpHeader::new(src_port, dst_port, TcpFlags::EMPTY),
            payload: Bytes::new(),
        }
    }

    /// Set the TCP flags.
    #[inline]
    pub fn flags(mut self, flags: TcpFlags) -> PacketBuilder {
        self.tcp.flags = flags;
        self
    }

    /// Set the sequence number.
    #[inline]
    pub fn seq(mut self, seq: impl Into<Seq>) -> PacketBuilder {
        self.tcp.seq = seq.into();
        self
    }

    /// Set the acknowledgement number.
    #[inline]
    pub fn ack(mut self, ack: impl Into<Seq>) -> PacketBuilder {
        self.tcp.ack = ack.into();
        self
    }

    /// Set the receive window.
    #[inline]
    pub fn window(mut self, window: u16) -> PacketBuilder {
        self.tcp.window = window;
        self
    }

    /// Set the TTL / hop limit.
    #[inline]
    pub fn ttl(mut self, ttl: u8) -> PacketBuilder {
        self.ip.set_ttl(ttl);
        self
    }

    /// Set the IPv4 identification field (ignored for IPv6).
    #[inline]
    pub fn ip_id(mut self, id: u16) -> PacketBuilder {
        if let IpHeader::V4(h) = &mut self.ip {
            h.identification = id;
        }
        self
    }

    /// Set the TCP options.
    #[inline]
    pub fn options(mut self, options: TcpOptions) -> PacketBuilder {
        self.tcp.options = options;
        self
    }

    /// Set the payload.
    #[inline]
    pub fn payload(mut self, payload: Bytes) -> PacketBuilder {
        self.payload = payload;
        self
    }

    /// Finish building.
    #[inline]
    pub fn build(self) -> Packet {
        Packet {
            ip: self.ip,
            tcp: self.tcp,
            payload: self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn v4(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, last))
    }

    fn v6(last: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, last))
    }

    #[test]
    fn v4_round_trip_with_payload() {
        let pkt = PacketBuilder::new(v4(1), v4(2), 45000, 443)
            .flags(TcpFlags::PSH_ACK)
            .seq(1000)
            .ack(2000)
            .ttl(57)
            .ip_id(777)
            .payload(Bytes::from_static(b"hello tls"))
            .build();
        let frame = pkt.emit();
        let parsed = Packet::parse(&frame).unwrap();
        // total_len is computed by the emitter; patch it for comparison.
        let mut expected = pkt.clone();
        if let IpHeader::V4(h) = &mut expected.ip {
            h.total_len = u16::try_from(frame.len()).unwrap();
        }
        assert_eq!(parsed, expected);
        assert_eq!(parsed.ip.ip_id(), Some(777));
        assert_eq!(parsed.ip.ttl(), 57);
    }

    #[test]
    fn v6_round_trip() {
        let pkt = PacketBuilder::new(v6(1), v6(2), 45000, 80)
            .flags(TcpFlags::SYN)
            .seq(42)
            .options(TcpHeader::standard_syn_options())
            .build();
        let frame = pkt.emit();
        let parsed = Packet::parse(&frame).unwrap();
        assert_eq!(parsed.tcp.flags, TcpFlags::SYN);
        assert_eq!(parsed.ip.ip_id(), None);
        let mss = crate::TcpOption::Mss(1460);
        assert!(parsed.tcp.options.decoded().any(|o| o == mss));
    }

    #[test]
    fn corrupted_tcp_checksum_rejected() {
        let pkt = PacketBuilder::new(v4(1), v4(2), 45000, 443)
            .flags(TcpFlags::SYN)
            .build();
        let mut frame = pkt.emit().to_vec();
        let n = frame.len();
        frame[n - 1] ^= 0x01; // flip a payload-less header bit past the IP header
        assert_eq!(Packet::parse(&frame), Err(WireError::BadChecksum));
    }

    #[test]
    fn non_tcp_protocol_rejected() {
        let mut h = Ipv4Header::tcp_template(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        h.protocol = 17; // UDP
        let mut buf = BytesMut::new();
        h.emit(&mut buf, 8);
        buf.extend_from_slice(&[0u8; 8]);
        assert_eq!(Packet::parse(&buf), Err(WireError::UnsupportedProtocol(17)));
    }

    #[test]
    #[should_panic(expected = "mixed address families")]
    fn mixed_families_panic() {
        let _ = PacketBuilder::new(v4(1), v6(2), 1, 2);
    }

    #[test]
    fn empty_frame_truncated() {
        assert_eq!(Packet::parse(&[]), Err(WireError::Truncated));
    }

    /// Assert the borrowed view and the owning parser agree on one frame:
    /// same accept/reject decision, same error, same field values.
    fn assert_view_matches(frame: &[u8]) {
        match (Packet::parse(frame), PacketView::parse(frame)) {
            (Ok(p), Ok(v)) => {
                assert_eq!(v.src, p.ip.src());
                assert_eq!(v.dst, p.ip.dst());
                assert_eq!(v.ttl, p.ip.ttl());
                assert_eq!(v.ip_id, p.ip.ip_id());
                assert_eq!(v.src_port, p.tcp.src_port);
                assert_eq!(v.dst_port, p.tcp.dst_port);
                assert_eq!(v.seq, p.tcp.seq);
                assert_eq!(v.ack, p.tcp.ack);
                assert_eq!(v.flags, p.tcp.flags);
                assert_eq!(v.window, p.tcp.window);
                assert_eq!(v.has_tcp_options, !p.tcp.options.is_empty());
                assert_eq!(v.payload, &p.payload[..]);
                assert_eq!(v.src.is_ipv4(), p.ip.is_v4());
            }
            (Err(e), Err(ve)) => assert_eq!(e, ve, "parsers rejected with different errors"),
            (p, v) => panic!("parsers disagree on acceptance: parse={p:?} view={v:?}"),
        }
    }

    #[test]
    fn view_matches_parse_on_valid_and_corrupt_frames() {
        let good_v4 = PacketBuilder::new(v4(1), v4(2), 45000, 443)
            .flags(TcpFlags::PSH_ACK)
            .seq(1000)
            .ack(2000)
            .ttl(57)
            .ip_id(777)
            .options(TcpHeader::standard_syn_options())
            .payload(Bytes::from_static(b"hello tls"))
            .build()
            .emit();
        let good_v6 = PacketBuilder::new(v6(1), v6(2), 45000, 80)
            .flags(TcpFlags::SYN)
            .seq(42)
            .options(TcpHeader::standard_syn_options())
            .build()
            .emit();
        let bare = PacketBuilder::new(v4(9), v4(8), 50000, 80)
            .flags(TcpFlags::RST)
            .build()
            .emit();
        assert_view_matches(&good_v4);
        assert_view_matches(&good_v6);
        assert_view_matches(&bare);
        assert!(PacketView::parse(&good_v4).unwrap().has_tcp_options);
        assert!(!PacketView::parse(&bare).unwrap().has_tcp_options);

        // Every truncation point and every single-bit corruption must get
        // the same verdict from both parsers.
        for cut in 0..good_v4.len() {
            assert_view_matches(&good_v4[..cut]);
        }
        for byte in 0..good_v4.len() {
            let mut bad = good_v4.to_vec();
            bad[byte] ^= 0x04;
            assert_view_matches(&bad);
        }
        for byte in 0..good_v6.len() {
            let mut bad = good_v6.to_vec();
            bad[byte] ^= 0x81;
            assert_view_matches(&bad);
        }
    }
}
