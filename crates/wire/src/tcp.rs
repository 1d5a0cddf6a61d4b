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
pub const TCP_HEADER_LEN: usize = 20;

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
    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Eol | TcpOption::Nop => 1,
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Unknown { data, .. } => 2 + data.len(),
        }
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
    pub options: Vec<TcpOption>,
}

impl TcpHeader {
    /// A header with all-zero numeric fields and no options.
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags,
            window: 65535,
            urgent: 0,
            // tamperlint: allow(hot-path-alloc) — zero-capacity Vec; builders fill it per composed segment
            options: Vec::new(),
        }
    }

    /// Total header length including options, padded to a 4-byte multiple.
    pub fn header_len(&self) -> usize {
        let opt_len: usize = self.options.iter().map(TcpOption::wire_len).sum();
        TCP_HEADER_LEN + opt_len.div_ceil(4) * 4
    }

    /// Look up the MSS option, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
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
    pub fn parse(data: &[u8]) -> Result<(TcpHeader, usize)> {
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
        let mut opts = Reader::new(r.take(opts_len)?);
        let mut options = Vec::new();
        while !opts.is_empty() {
            let kind = opts.u8()?;
            match kind {
                0 => {
                    options.push(TcpOption::Eol);
                    break;
                }
                1 => options.push(TcpOption::Nop),
                _ => {
                    let len = opts
                        .u8()
                        .map_err(|_| WireError::Malformed("tcp option length"))?
                        as usize;
                    if len < 2 {
                        return Err(WireError::Malformed("tcp option length"));
                    }
                    let body = opts
                        .take(len - 2)
                        .map_err(|_| WireError::Malformed("tcp option length"))?;
                    let opt = match (kind, body) {
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
                    };
                    options.push(opt);
                }
            }
        }
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
    pub fn emit(&self, buf: &mut BytesMut) {
        let header_len = self.header_len();
        debug_assert!(header_len <= 60, "options overflow the data offset field");
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(((header_len / 4) as u8) << 4);
        buf.put_u8(self.flags.bits());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(self.urgent);
        let mut emitted = 0usize;
        for opt in &self.options {
            emitted += opt.wire_len();
            match opt {
                TcpOption::Eol => buf.put_u8(0),
                TcpOption::Nop => buf.put_u8(1),
                TcpOption::Mss(v) => {
                    buf.put_u8(2);
                    buf.put_u8(4);
                    buf.put_u16(*v);
                }
                TcpOption::WindowScale(s) => {
                    buf.put_u8(3);
                    buf.put_u8(3);
                    buf.put_u8(*s);
                }
                TcpOption::SackPermitted => {
                    buf.put_u8(4);
                    buf.put_u8(2);
                }
                TcpOption::Timestamps { tsval, tsecr } => {
                    buf.put_u8(8);
                    buf.put_u8(10);
                    buf.put_u32(*tsval);
                    buf.put_u32(*tsecr);
                }
                TcpOption::Unknown { kind, data } => {
                    buf.put_u8(*kind);
                    buf.put_u8((2 + data.len()) as u8);
                    buf.put_slice(data);
                }
            }
        }
        // Pad options to the 4-byte boundary implied by the data offset.
        for _ in emitted..header_len - TCP_HEADER_LEN {
            buf.put_u8(1); // NOP padding
        }
    }

    /// The standard option set a modern client stack puts on a SYN.
    pub fn standard_syn_options() -> Vec<TcpOption> {
        // tamperlint: allow(hot-path-alloc) — five-entry SYN option list, one per simulated connection open
        vec![
            TcpOption::Mss(1460),
            TcpOption::SackPermitted,
            TcpOption::Timestamps { tsval: 0, tsecr: 0 },
            TcpOption::Nop,
            TcpOption::WindowScale(7),
        ]
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
        assert_eq!(parsed.mss(), Some(1460));
        // Padding NOPs may be appended but all real options survive.
        for opt in &h.options {
            assert!(parsed.options.contains(opt), "missing {opt:?}");
        }
    }

    #[test]
    fn round_trip_without_options() {
        let mut h = sample();
        h.options.clear();
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
        h.options = vec![TcpOption::WindowScale(2)]; // 3 bytes -> pads to 4
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
        h.options.clear();
        h.emit(&mut buf);
        buf[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(TcpHeader::parse(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn rejects_malformed_option_length() {
        let mut buf = BytesMut::new();
        let mut h = sample();
        h.options = vec![TcpOption::Mss(1460)];
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
        h.options = vec![TcpOption::Unknown {
            kind: 254,
            data: vec![0xde, 0xad],
        }];
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        let (parsed, _) = TcpHeader::parse(&buf).unwrap();
        assert!(parsed.options.contains(&TcpOption::Unknown {
            kind: 254,
            data: vec![0xde, 0xad]
        }));
    }

    #[test]
    fn eol_stops_option_parsing() {
        let mut h = sample();
        h.options = vec![TcpOption::Eol];
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        let (parsed, _) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.options, vec![TcpOption::Eol]);
    }
}
