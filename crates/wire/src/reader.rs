//! A bounds-checked, forward-only byte cursor for the wire parsers.
//!
//! Every accessor returns [`WireError::Truncated`] instead of panicking
//! when the input ends early, so parsers built on it survive arbitrary
//! hostile bytes — the property the `tests/fail_closed.rs` battery and
//! the tamperlint `panic`/`index` rules enforce for the whole
//! untrusted-input surface.

use crate::{Result, WireError};

/// A forward-only cursor over an input buffer.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// True once the cursor has reached the end of the buffer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read the next `n` bytes as a borrowed slice.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Advance past `n` bytes.
    pub(crate) fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    /// Read the next `N` bytes as a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads() {
        let mut r = Reader::new(&[1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 9]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.u64().unwrap(), 4);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.take(1).unwrap(), &[9]);
        assert!(r.is_empty());
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // A failed read does not consume anything.
        assert_eq!(r.pos(), 0);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u8(), Err(WireError::Truncated));
        assert_eq!(r.skip(1), Err(WireError::Truncated));
    }

    #[test]
    fn take_with_overflowing_length() {
        let mut r = Reader::new(&[0; 4]);
        r.skip(2).unwrap();
        assert_eq!(r.take(usize::MAX), Err(WireError::Truncated));
    }
}
