//! TCP header (RFC 793) with the option kinds relevant to tampering
//! analysis.
//!
//! Options matter for two reasons in the paper: (1) scanners like ZMap send
//! option-less SYNs, one of the three scanner heuristics in §4.2, and
//! (2) injected packets usually lack the option signature of the client's
//! real stack.

use crate::flags::TcpFlags;
use crate::reader::Reader;
use crate::{Result, WireError};
use bytes::{BufMut, BytesMut};

/// Minimum (option-less) TCP header length.
pub(crate) const TCP_HEADER_LEN: usize = 20;

/// A TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// End of option list.
    Eol,
    /// Padding.
    Nop,
    /// Maximum segment size (SYN only).
    Mss(u16),
    /// Window scale shift (SYN only).
    WindowScale(u8),
    /// SACK permitted (SYN only).
    SackPermitted,
    /// Timestamps: TSval and TSecr.
    Timestamps {
        /// Sender timestamp value.
        tsval: u32,
        /// Echoed peer timestamp.
        tsecr: u32,
    },
    /// Any unrecognized option, kept verbatim.
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Option body (excluding kind and length bytes).
        data: Vec<u8>,
    },
}

impl TcpOption {
    /// Append this option's encoding to `out`.
    fn encode_into(self, out: &mut TcpOptions) {
        match self {
            TcpOption::Eol => out.put(&[0]),
            TcpOption::Nop => out.put(&[1]),
            TcpOption::Mss(v) => {
                let [a, b] = v.to_be_bytes();
                out.put(&[2, 4, a, b]);
            }
            TcpOption::WindowScale(s) => out.put(&[3, 3, s]),
            TcpOption::SackPermitted => out.put(&[4, 2]),
            TcpOption::Timestamps { tsval, tsecr } => {
                let [a, b, c, d] = tsval.to_be_bytes();
                let [e, f, g, h] = tsecr.to_be_bytes();
                out.put(&[8, 10, a, b, c, d, e, f, g, h]);
            }
            TcpOption::Unknown { kind, data } => {
                out.put(&[kind, u8::try_from(2 + data.len()).unwrap_or(u8::MAX)]);
                out.put(&data);
            }
        }
    }

    /// Decode one option from its kind byte and body.
    fn decode(kind: u8, body: &[u8]) -> TcpOption {
        match (kind, body) {
            (0, _) => TcpOption::Eol,
            (1, _) => TcpOption::Nop,
            (2, &[a, b]) => TcpOption::Mss(u16::from_be_bytes([a, b])),
            (3, &[s]) => TcpOption::WindowScale(s),
            (4, &[]) => TcpOption::SackPermitted,
            (8, &[a, b, c, d, e, f, g, h]) => TcpOption::Timestamps {
                tsval: u32::from_be_bytes([a, b, c, d]),
                tsecr: u32::from_be_bytes([e, f, g, h]),
            },
            _ => TcpOption::Unknown {
                kind,
                data: body.to_vec(),
            },
        }
    }
}

/// Longest option region a TCP header can carry: the 4-bit data offset
/// tops out at 60 bytes, 20 of them the fixed header.
const MAX_OPTIONS_LEN: usize = 40;

/// Read the option at the front of `r` as `(kind, body)`; EOL and NOP
/// have empty bodies. The one place an option's length is checked.
#[inline]
fn read_option<'a>(r: &mut Reader<'a>) -> Result<(u8, &'a [u8])> {
    const BAD_LEN: WireError = WireError::Malformed("tcp option length");
    let kind = r.u8()?;
    if kind <= 1 {
        return Ok((kind, &[]));
    }
    let len = r.u8().map_err(|_| BAD_LEN)? as usize;
    if len < 2 {
        return Err(BAD_LEN);
    }
    let body = r.take(len - 2).map_err(|_| BAD_LEN)?;
    Ok((kind, body))
}

/// Validate an option region as every parser here must: each option's
/// length fits, up to the first EOL (what follows it is never read).
pub(crate) fn check_options(region: &[u8]) -> Result<()> {
    let mut r = Reader::new(region);
    while !r.is_empty() {
        if read_option(&mut r)?.0 == 0 {
            break;
        }
    }
    Ok(())
}

/// A header's options as their encoded bytes (at most 40), held inline:
/// building, copying and parsing a header never touches the heap. Options
/// collected from [`TcpOption`]s are encoded as they come; parsed ones
/// keep the whole option region of the frame, so a parsed header
/// re-emits byte for byte. [`TcpOptions::decoded`] decodes them back.
#[derive(Clone, Copy)]
pub struct TcpOptions {
    len: u8,
    bytes: [u8; MAX_OPTIONS_LEN],
}

impl TcpOptions {
    /// No options at all.
    pub const EMPTY: TcpOptions = TcpOptions {
        len: 0,
        bytes: [0; MAX_OPTIONS_LEN],
    };

    #[expect(
        clippy::cast_possible_truncation,
        reason = "end <= MAX_OPTIONS_LEN (40), asserted before the cast"
    )]
    fn put(&mut self, encoded: &[u8]) {
        let at = usize::from(self.len);
        let end = at + encoded.len();
        assert!(
            end <= MAX_OPTIONS_LEN,
            "TCP options overflow the {MAX_OPTIONS_LEN}-byte option region"
        );
        if let Some(dst) = self.bytes.get_mut(at..end) {
            dst.copy_from_slice(encoded);
            self.len = end as u8;
        }
    }

    /// Options from their encoding, which the caller vouches is a
    /// well-formed option list.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        reason = "N <= MAX_OPTIONS_LEN is checked at compile time"
    )]
    fn encoded<const N: usize>(bytes: [u8; N]) -> TcpOptions {
        const { assert!(N <= MAX_OPTIONS_LEN) };
        let mut out = TcpOptions::EMPTY;
        out.bytes[..N].copy_from_slice(&bytes);
        out.len = N as u8;
        out
    }

    /// Keep a parsed option region verbatim, after checking it.
    fn from_region(region: &[u8]) -> Result<TcpOptions> {
        check_options(region)?;
        let mut out = TcpOptions::EMPTY;
        out.bytes
            .get_mut(..region.len())
            .ok_or(WireError::BadLength)?
            .copy_from_slice(region);
        out.len = u8::try_from(region.len()).map_err(|_| WireError::BadLength)?;
        Ok(out)
    }

    /// True if the header carries no options.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded options, unpadded.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.get(..usize::from(self.len)).unwrap_or_default()
    }

    /// The options in wire order, decoded, up to and including an EOL.
    pub fn decoded(&self) -> impl Iterator<Item = TcpOption> + '_ {
        let mut r = Reader::new(self.as_bytes());
        let mut done = false;
        std::iter::from_fn(move || {
            if done || r.is_empty() {
                return None;
            }
            let (kind, body) = read_option(&mut r).ok()?;
            done = kind == 0;
            Some(TcpOption::decode(kind, body))
        })
    }

    /// The `(tsval, tsecr)` of the last Timestamps option, if any — what a
    /// stack reads off every segment, without decoding the rest.
    #[inline]
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        let mut r = Reader::new(self.as_bytes());
        let mut last = None;
        while let Ok((kind, body)) = read_option(&mut r) {
            match (kind, body) {
                (0, _) => break,
                (8, &[a, b, c, d, e, f, g, h]) => {
                    last = Some((
                        u32::from_be_bytes([a, b, c, d]),
                        u32::from_be_bytes([e, f, g, h]),
                    ));
                }
                _ => {}
            }
        }
        last
    }
}

impl PartialEq for TcpOptions {
    fn eq(&self, other: &TcpOptions) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for TcpOptions {}

impl std::fmt::Debug for TcpOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.decoded()).finish()
    }
}

/// Encodes the options in order. Panics if they pass 40 bytes, which no
/// TCP header can carry.
impl FromIterator<TcpOption> for TcpOptions {
    fn from_iter<I: IntoIterator<Item = TcpOption>>(opts: I) -> TcpOptions {
        let mut out = TcpOptions::EMPTY;
        for opt in opts {
            opt.encode_into(&mut out);
        }
        out
    }
}

/// A TCP header plus its options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port (80 = HTTP, 443 = HTTPS throughout this project).
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (meaningful when ACK flag set; the
    /// `RST;RST₀` signature keys on injectors that set it to zero).
    pub ack: u32,
    /// Flag byte.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Urgent pointer (always zero in practice).
    pub urgent: u16,
    /// Options, in wire order.
    pub options: TcpOptions,
}

impl TcpHeader {
    /// A header with all-zero numeric fields and no options.
    #[inline]
    pub(crate) fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags,
            window: 65535,
            urgent: 0,
            options: TcpOptions::EMPTY,
        }
    }

    /// Total header length including options, padded to a 4-byte multiple.
    pub(crate) fn header_len(&self) -> usize {
        TCP_HEADER_LEN + self.options.as_bytes().len().div_ceil(4) * 4
    }

    /// True if the header carries no options at all — one of the scanner
    /// heuristics from the paper's §4.2.
    pub fn has_no_options(&self) -> bool {
        self.options.is_empty()
    }

    /// Parse a header (and options) from the start of `data`. Returns the
    /// header and the byte offset of the payload. The checksum is *not*
    /// verified here because it needs the IP pseudo-header; see
    /// [`crate::packet::Packet::parse`].
    pub(crate) fn parse(data: &[u8]) -> Result<(TcpHeader, usize)> {
        let mut r = Reader::new(data);
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let seq = r.u32()?;
        let ack = r.u32()?;
        let off_byte = r.u8()?;
        let flags = TcpFlags::from_bits(r.u8()?);
        let window = r.u16()?;
        r.skip(2)?; // checksum: verified at the packet layer (pseudo-header)
        let urgent = r.u16()?;
        let data_offset = (off_byte >> 4) as usize * 4;
        if data_offset > data.len() {
            return Err(WireError::BadLength);
        }
        let opts_len = data_offset
            .checked_sub(TCP_HEADER_LEN)
            .ok_or(WireError::BadLength)?;
        let options = TcpOptions::from_region(r.take(opts_len)?)?;
        let header = TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            urgent,
            options,
        };
        Ok((header, data_offset))
    }

    /// Emit the header into `buf` with the checksum field zeroed; the caller
    /// computes and patches the checksum over the pseudo-header + segment.
    pub(crate) fn emit(&self, buf: &mut BytesMut) {
        let header_len = self.header_len();
        debug_assert!(header_len <= 60, "options overflow the data offset field");
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "header_len <= 60, so header_len / 4 fits the 4-bit data offset field"
        )]
        buf.put_u8(((header_len / 4) as u8) << 4);
        buf.put_u8(self.flags.bits());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(self.urgent);
        let options = self.options.as_bytes();
        buf.put_slice(options);
        // Pad options to the 4-byte boundary implied by the data offset.
        for _ in options.len()..header_len - TCP_HEADER_LEN {
            buf.put_u8(1); // NOP padding
        }
    }

    /// The standard option set a modern client stack puts on a SYN:
    /// `MSS 1460, SACK permitted, Timestamps 0 0, NOP, window scale 7`.
    #[inline]
    pub fn standard_syn_options() -> TcpOptions {
        TcpOptions::encoded([
            2, 4, 0x05, 0xb4, 4, 2, 8, 10, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 3, 7,
        ])
    }

    /// The options a modern stack puts on every non-SYN segment once
    /// timestamps were negotiated: `NOP NOP Timestamps`.
    #[inline]
    pub fn segment_options(tsval: u32, tsecr: u32) -> TcpOptions {
        let [a, b, c, d] = tsval.to_be_bytes();
        let [e, f, g, h] = tsecr.to_be_bytes();
        TcpOptions::encoded([1, 1, 8, 10, a, b, c, d, e, f, g, h])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TcpHeader {
        TcpHeader {
            src_port: 40123,
            dst_port: 443,
            seq: 0x1234_5678,
            ack: 0x9ABC_DEF0,
            flags: TcpFlags::SYN,
            window: 64240,
            urgent: 0,
            options: TcpHeader::standard_syn_options(),
        }
    }

    #[test]
    fn round_trip_with_options() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        let (parsed, off) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(off, h.header_len());
        assert_eq!(parsed.src_port, h.src_port);
        assert_eq!(parsed.seq, h.seq);
        assert_eq!(parsed.flags, h.flags);
        assert!(parsed.options.decoded().any(|o| o == TcpOption::Mss(1460)));
        // Padding NOPs may be appended but all real options survive.
        for opt in h.options.decoded() {
            assert!(
                parsed.options.decoded().any(|o| o == opt),
                "missing {opt:?}"
            );
        }
    }

    #[test]
    fn canned_option_sets_encode_their_option_lists() {
        let syn: TcpOptions = [
            TcpOption::Mss(1460),
            TcpOption::SackPermitted,
            TcpOption::Timestamps { tsval: 0, tsecr: 0 },
            TcpOption::Nop,
            TcpOption::WindowScale(7),
        ]
        .into_iter()
        .collect();
        assert_eq!(TcpHeader::standard_syn_options(), syn);
        let seg: TcpOptions = [
            TcpOption::Nop,
            TcpOption::Nop,
            TcpOption::Timestamps {
                tsval: 0x0102_0304,
                tsecr: 0xa0b0_c0d0,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(TcpHeader::segment_options(0x0102_0304, 0xa0b0_c0d0), seg);
        assert_eq!(seg.timestamps(), Some((0x0102_0304, 0xa0b0_c0d0)));
    }

    #[test]
    fn round_trip_without_options() {
        let mut h = sample();
        h.options = TcpOptions::EMPTY;
        h.flags = TcpFlags::RST_ACK;
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        let (parsed, off) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(off, TCP_HEADER_LEN);
        assert!(parsed.has_no_options());
        assert_eq!(parsed.flags, TcpFlags::RST_ACK);
    }

    #[test]
    fn header_len_is_padded() {
        let mut h = sample();
        h.options = TcpOptions::from_iter([TcpOption::WindowScale(2)]); // 3 bytes -> pads to 4
        assert_eq!(h.header_len(), 24);
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(TcpHeader::parse(&[0u8; 10]), Err(WireError::Truncated));
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut buf = BytesMut::new();
        let mut h = sample();
        h.options = TcpOptions::EMPTY;
        h.emit(&mut buf);
        buf[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(TcpHeader::parse(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn rejects_malformed_option_length() {
        let mut buf = BytesMut::new();
        let mut h = sample();
        h.options = TcpOptions::from_iter([TcpOption::Mss(1460)]);
        h.emit(&mut buf);
        buf[21] = 0; // MSS length byte -> 0, illegal
        assert_eq!(
            TcpHeader::parse(&buf),
            Err(WireError::Malformed("tcp option length"))
        );
    }

    #[test]
    fn unknown_options_round_trip() {
        let mut h = sample();
        h.options = TcpOptions::from_iter([TcpOption::Unknown {
            kind: 254,
            data: vec![0xde, 0xad],
        }]);
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        let (parsed, _) = TcpHeader::parse(&buf).unwrap();
        let unknown = TcpOption::Unknown {
            kind: 254,
            data: vec![0xde, 0xad],
        };
        assert!(parsed.options.decoded().any(|o| o == unknown));
    }

    #[test]
    fn eol_stops_option_parsing() {
        let mut h = sample();
        h.options = TcpOptions::from_iter([TcpOption::Eol]);
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        let (parsed, _) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(
            parsed.options.decoded().collect::<Vec<_>>(),
            vec![TcpOption::Eol]
        );
    }
}
