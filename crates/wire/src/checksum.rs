//! The one's-complement internet checksum (RFC 1071) and the TCP
//! pseudo-header sums for IPv4 and IPv6.

use std::net::{Ipv4Addr, Ipv6Addr};

/// Running one's-complement sum that can be fed incrementally.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Start a new checksum computation.
    pub(crate) fn new() -> Checksum {
        Checksum { sum: 0 }
    }

    /// Feed a byte slice. Odd-length slices are padded with a zero byte, so
    /// only the final slice of a message may have odd length.
    pub(crate) fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            if let &[a, b] = c {
                self.sum += u32::from(u16::from_be_bytes([a, b]));
            }
        }
        if let [last] = chunks.remainder() {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Feed a single big-endian 16-bit word.
    pub(crate) fn add_u16(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Feed a big-endian 32-bit word as two 16-bit words.
    pub(crate) fn add_u32(&mut self, word: u32) {
        self.add_u16((word >> 16) as u16);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "keeps the low half; the high half was fed just above"
        )]
        self.add_u16(word as u16);
    }

    /// Finish: fold carries and complement.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the fold loop leaves sum <= 0xFFFF"
    )]
    pub(crate) fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Checksum of a standalone byte buffer (e.g. an IPv4 header with its
/// checksum field zeroed).
pub(crate) fn internet_checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// TCP checksum over the IPv4 pseudo-header plus segment bytes.
///
/// `segment` must be the full TCP header (with checksum field zeroed) plus
/// payload.
pub(crate) fn tcp_checksum_v4(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u16(6); // protocol = TCP, with zero padding byte
                  // A >64KiB segment cannot be a valid IPv4 TCP segment; saturate rather
                  // than silently wrapping the pseudo-header length.
    c.add_u16(u16::try_from(segment.len()).unwrap_or(u16::MAX));
    c.add_bytes(segment);
    c.finish()
}

/// TCP checksum over the IPv6 pseudo-header plus segment bytes.
pub(crate) fn tcp_checksum_v6(src: Ipv6Addr, dst: Ipv6Addr, segment: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u32(u32::try_from(segment.len()).unwrap_or(u32::MAX));
    c.add_u32(6); // next header = TCP in the low byte
    c.add_bytes(segment);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2 before
        // complement, so the checksum is !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // Odd buffer [ab] is treated as [ab 00].
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verification_of_valid_buffer_is_zero_complement() {
        // A buffer whose checksum field is filled in sums to 0xFFFF; i.e.
        // recomputing the checksum over it yields 0.
        let mut data = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        let ck = internet_checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..64).collect();
        let mut c = Checksum::new();
        c.add_bytes(&data[..10]);
        c.add_bytes(&data[10..]);
        assert_eq!(c.finish(), internet_checksum(&data));
    }

    #[test]
    fn pseudo_header_sums_differ_by_address() {
        let seg = [0u8; 20];
        let a = tcp_checksum_v4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), &seg);
        let b = tcp_checksum_v4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 3), &seg);
        assert_ne!(a, b);
    }

    #[test]
    fn v6_pseudo_header_includes_length() {
        let src = Ipv6Addr::LOCALHOST;
        let dst = Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1);
        let a = tcp_checksum_v6(src, dst, &[0u8; 20]);
        let b = tcp_checksum_v6(src, dst, &[0u8; 22]);
        assert_ne!(a, b);
    }
}
