//! TCP sequence space (RFC 793 §3.3) as a type.
//!
//! Sequence and acknowledgement numbers live in a ring of 2³² positions:
//! `u32::MAX` is followed by 0, and a flow whose initial sequence number
//! sits near the wrap crosses it within a few packets. A bare `u32` lets
//! `seq + len` overflow, `a < b` invert across the wrap and `.min()` pick
//! the wrong end of a straddling flow. [`Seq`] offers only the modular
//! operations, so each of those is a compile error:
//!
//! ```
//! use tamper_wire::Seq;
//! let isn = Seq::from(u32::MAX - 5);
//! let next = isn.wrapping_add(100); // crosses the wrap
//! assert_eq!(next.offset_from(isn), 100);
//! assert_eq!(isn.distance(next), -100);
//! assert_eq!(next.to_string(), "94");
//! ```
//!
//! Raw arithmetic between two positions does not compile:
//!
//! ```compile_fail,E0369
//! # use tamper_wire::Seq;
//! let (a, b) = (Seq::from(1), Seq::from(2));
//! let _ = a + b;
//! ```
//!
//! ```compile_fail,E0369
//! # use tamper_wire::Seq;
//! let (a, b) = (Seq::from(1), Seq::from(2));
//! let _ = a - b;
//! ```
//!
//! nor does adding a length with `+`:
//!
//! ```compile_fail,E0369
//! # use tamper_wire::Seq;
//! let (seq, len) = (Seq::from(u32::MAX), 100u32);
//! let _ = seq + len;
//! ```
//!
//! Positions have no order, since any two are both before and after each
//! other on the ring:
//!
//! ```compile_fail,E0369
//! # use tamper_wire::Seq;
//! let (a, b) = (Seq::from(1), Seq::from(2));
//! let _ = a < b;
//! ```
//!
//! ```compile_fail,E0277
//! # use tamper_wire::Seq;
//! let seqs = [Seq::from(u32::MAX), Seq::from(3)];
//! let _ = seqs.into_iter().min();
//! ```
//!
//! and a position never turns back into a bare integer outside this
//! crate's encoder:
//!
//! ```compile_fail,E0277
//! # use tamper_wire::Seq;
//! let seq = Seq::from(7);
//! let _ = u32::from(seq);
//! ```

use std::fmt;

/// A sequence or acknowledgement number: a position in the mod-2³² TCP
/// sequence space.
///
/// It is a transparent `u32` with only wrap-safe operations: move by a
/// length ([`wrapping_add`](Seq::wrapping_add),
/// [`wrapping_sub`](Seq::wrapping_sub)), measure from a base
/// ([`offset_from`](Seq::offset_from) forward, [`distance`](Seq::distance)
/// signed) and compare for equality. There is no `Ord`, no `Add`/`Sub`
/// and no `From<Seq>` for `u32`: a caller that needs a number asks for
/// an offset from an explicit base.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct Seq(u32);

impl Seq {
    /// Position zero: the acknowledgement number of a packet that
    /// acknowledges nothing (the `RST₀` signatures key on it).
    pub const ZERO: Seq = Seq(0);

    /// The position `n` bytes after this one, wrapping at 2³².
    #[inline]
    #[must_use]
    pub const fn wrapping_add(self, n: u32) -> Seq {
        Seq(self.0.wrapping_add(n))
    }

    /// The position `n` bytes before this one, wrapping at 2³².
    #[inline]
    #[must_use]
    pub const fn wrapping_sub(self, n: u32) -> Seq {
        Seq(self.0.wrapping_sub(n))
    }

    /// How far forward of `base` this position lies, in `0..2³²`: the
    /// unsigned key that orders a flow's positions from its initial
    /// sequence number.
    #[inline]
    #[must_use]
    pub const fn offset_from(self, base: Seq) -> u32 {
        self.0.wrapping_sub(base.0)
    }

    /// The signed offset from `base`, in `-2³¹..2³¹`: negative when this
    /// position lies just before `base`, however the two straddle the wrap.
    #[inline]
    #[must_use]
    pub const fn distance(self, base: Seq) -> i32 {
        self.offset_from(base).cast_signed()
    }

    /// The number as it goes on the wire.
    #[inline]
    pub(crate) const fn get(self) -> u32 {
        self.0
    }
}

impl From<u32> for Seq {
    #[inline]
    fn from(raw: u32) -> Seq {
        Seq(raw)
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}
