//! The TCP flag byte as a typed bitset.
//!
//! Tampering signatures are sequences of flag combinations, so this type is
//! central to the whole project: it is `Copy`, hashable, ordered, and has a
//! human-readable `Display` that matches the paper's notation (`SYN`,
//! `RST+ACK`, `PSH+ACK`, ...).

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// A set of TCP header flags.
///
/// The bit layout follows the TCP header byte (RFC 793 plus the ECN bits of
/// RFC 3168): `CWR ECE URG ACK PSH RST SYN FIN`, most significant first.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub(crate) const EMPTY: TcpFlags = TcpFlags(0);
    /// Connection-teardown request (graceful).
    pub(crate) const FIN: TcpFlags = TcpFlags(0x01);
    /// Connection-open request.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// Abortive reset.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// Push: deliver buffered data to the application.
    pub(crate) const PSH: TcpFlags = TcpFlags(0x08);
    /// Acknowledgement field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// Urgent pointer is significant (rare in the wild, kept for fidelity).
    pub(crate) const URG: TcpFlags = TcpFlags(0x20);
    /// ECN echo.
    pub(crate) const ECE: TcpFlags = TcpFlags(0x40);
    /// Congestion window reduced.
    pub(crate) const CWR: TcpFlags = TcpFlags(0x80);

    /// `SYN+ACK`, the second step of the three-way handshake.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// `RST+ACK`, the reset form commonly injected by middleboxes in
    /// response to an unsolicited or offending packet.
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);
    /// `PSH+ACK`, the usual shape of a client data packet.
    pub const PSH_ACK: TcpFlags = TcpFlags(0x18);
    /// `FIN+ACK`, the usual shape of a graceful teardown segment.
    pub const FIN_ACK: TcpFlags = TcpFlags(0x11);

    /// Construct from the raw header byte.
    #[inline]
    pub const fn from_bits(bits: u8) -> TcpFlags {
        TcpFlags(bits)
    }

    /// The raw header byte.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// True if every flag in `other` is also set in `self`.
    #[inline]
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no flags are set.
    #[inline]
    pub(crate) const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Convenience predicates used throughout classification.
    #[inline]
    pub const fn has_syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// True if the RST flag is set.
    #[inline]
    pub const fn has_rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
    /// True if the ACK flag is set.
    #[inline]
    pub const fn has_ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// True if the FIN flag is set.
    #[inline]
    pub const fn has_fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// True if the PSH flag is set.
    #[inline]
    pub const fn has_psh(self) -> bool {
        self.contains(TcpFlags::PSH)
    }

    /// True for a pure RST (no ACK) — the paper distinguishes `RST` from
    /// `RST+ACK` injections because different middlebox vendors emit
    /// different forms.
    #[inline]
    pub const fn is_pure_rst(self) -> bool {
        self.has_rst() && !self.has_ack()
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    #[inline]
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    #[inline]
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for TcpFlags {
    type Output = TcpFlags;
    #[inline]
    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl Not for TcpFlags {
    type Output = TcpFlags;
    #[inline]
    fn not(self) -> TcpFlags {
        TcpFlags(!self.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let names: [(TcpFlags, &str); 8] = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
            (TcpFlags::ECE, "ECE"),
            (TcpFlags::CWR, "CWR"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "+")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpFlags({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_bits_match_rfc793_layout() {
        assert_eq!(TcpFlags::FIN.bits(), 0x01);
        assert_eq!(TcpFlags::SYN.bits(), 0x02);
        assert_eq!(TcpFlags::RST.bits(), 0x04);
        assert_eq!(TcpFlags::PSH.bits(), 0x08);
        assert_eq!(TcpFlags::ACK.bits(), 0x10);
        assert_eq!(TcpFlags::URG.bits(), 0x20);
    }

    #[test]
    fn composite_constants() {
        assert_eq!(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN_ACK);
        assert_eq!(TcpFlags::RST | TcpFlags::ACK, TcpFlags::RST_ACK);
        assert_eq!(TcpFlags::PSH | TcpFlags::ACK, TcpFlags::PSH_ACK);
        assert_eq!(TcpFlags::FIN | TcpFlags::ACK, TcpFlags::FIN_ACK);
    }

    #[test]
    fn contains() {
        let f = TcpFlags::PSH_ACK;
        assert!(f.contains(TcpFlags::PSH));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::SYN));
    }

    #[test]
    fn pure_rst_vs_rst_ack() {
        assert!(TcpFlags::RST.is_pure_rst());
        assert!(!TcpFlags::RST_ACK.is_pure_rst());
        assert!(!TcpFlags::ACK.has_rst());
    }

    #[test]
    fn display_notation() {
        assert_eq!(TcpFlags::SYN.to_string(), "SYN");
        assert_eq!(TcpFlags::RST_ACK.to_string(), "RST+ACK");
        assert_eq!(TcpFlags::PSH_ACK.to_string(), "PSH+ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "∅");
    }

    #[test]
    fn bit_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert_eq!(f & TcpFlags::SYN, TcpFlags::SYN);
        assert_eq!((!f) & TcpFlags::SYN, TcpFlags::EMPTY);
        let mut g = TcpFlags::SYN;
        g |= TcpFlags::ACK;
        assert_eq!(g, TcpFlags::SYN_ACK);
    }
}
