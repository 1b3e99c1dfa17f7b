//! The one checked byte reader behind every decoder that reads bytes it
//! did not just write: SQL schema and row blobs, log records, and wire
//! responses.
//!
//! Every read is bounds-checked and fails with [`Error::CorruptLog`]
//! naming the byte offset; nothing slices, so a decoder built on it
//! needs no panic-freedom allowlist entry, and nothing is sized from a
//! length field before the bytes it claims are known to be there.

use crate::error::{Error, Result};

/// A cursor over a byte slice whose reads fail instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// A corruption error for `what`, located at the current offset.
    pub fn corrupt(&self, what: &str) -> Error {
        Error::CorruptLog(format!("{what} at byte {}", self.pos))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.corrupt("length overflow"))?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.corrupt("truncated field"))?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s).map_err(|_| self.corrupt("truncated field"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `len` bytes as UTF-8.
    pub fn string(&mut self, len: usize) -> Result<String> {
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| self.corrupt("non-UTF-8 string"))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Every byte not yet read; the reader is then [`done`](Self::done).
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        self.pos = self.bytes.len();
        rest
    }

    /// True when every byte has been read.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_fields_in_order() {
        let bytes = [7, 1, 2, 1, 2, 3, 4, 1, 0, 0, 0, 0, 0, 0, 0, b'h', b'i', 9];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u32().unwrap(), 0x0403_0201);
        assert_eq!(r.u64().unwrap(), 1);
        assert_eq!(r.string(2).unwrap(), "hi");
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.rest(), &[9]);
        assert!(r.done());
        assert!(r.rest().is_empty());
    }

    #[test]
    fn short_input_is_an_error_that_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(r.u32(), Err(Error::CorruptLog(_))));
        assert!(r.take(usize::MAX).is_err());
        assert!(r.string(4).is_err());
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert!(r.u16().is_err());
        assert_eq!(r.u8().unwrap(), 3);
        assert!(r.u8().is_err());
    }

    #[test]
    fn invalid_utf8_is_refused() {
        let mut r = Reader::new(&[0xFF, 0xFE]);
        assert!(r.string(2).is_err());
    }
}
