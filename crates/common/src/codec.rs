//! The one byte codec every self-describing record is read through.
//!
//! §5 moves objects between the active and the passive address space
//! as byte strings; the WAL, the catalogs, the roots record, index
//! nodes, object images and wire frames are all such strings. They are
//! written with the `put_*` functions below (little-endian integers,
//! `u32`-length-prefixed runs) and read back with a [`Reader`], which
//! checks every length and count against the bytes that remain before
//! it slices or allocates: a corrupt or hostile record is an error of
//! the caller's kind, never a panic and never an oversized allocation.
//! The functions are `#[inline]`: they replace helpers that were local
//! to each decoder, and the callers live in other crates.

use crate::{ReachError, Result};

/// Append a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length, then the bytes.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a `u32` length, then the UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked cursor over one record. Every failure is built by
/// the constructor the reader was made with (`ReachError::WalCorrupt`
/// for the log and catalogs, `ReachError::Io` for stored objects,
/// `ReachError::Protocol` for wire frames), so each decoder keeps its
/// own error kind.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    err: fn(String) -> ReachError,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`, failing with `err`.
    #[inline]
    pub fn new(buf: &'a [u8], err: fn(String) -> ReachError) -> Self {
        Reader { buf, pos: 0, err }
    }

    /// An error of this reader's kind.
    pub fn error(&self, what: impl Into<String>) -> ReachError {
        (self.err)(what.into())
    }

    /// How many bytes have been read.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, what: &str) -> ReachError {
        self.error(format!(
            "truncated record: {what} at offset {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some(head) = self.buf[self.pos..].first_chunk::<N>() else {
            return Err(self.truncated("fixed-width field"));
        };
        self.pos += N;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A `u32`-length-prefixed byte run, borrowed from the record. The
    /// length is checked against the remaining bytes first.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        if self.remaining() < len {
            return Err(self.truncated("byte run"));
        }
        let run = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(run)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.error("string is not valid UTF-8"))
    }

    /// A `u32` item count, refused unless the remaining bytes can hold
    /// that many items of at least `min_item_bytes` each — so a count
    /// is safe to pre-allocate for.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(self.error(format!(
                "count {n} exceeds the {} bytes that remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Whether the whole record was consumed.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.error(format!("{n} trailing bytes after record"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_reader_agree() {
        let mut out = Vec::new();
        out.push(7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_u64(&mut out, (-5i64) as u64);
        put_bytes(&mut out, &[1, 2, 3]);
        put_str(&mut out, "héllo");
        let mut r = Reader::new(&out, ReachError::Io);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn failures_carry_the_callers_kind() {
        let mut r = Reader::new(&[1, 2], ReachError::WalCorrupt);
        assert!(matches!(r.u32(), Err(ReachError::WalCorrupt(_))));
        let mut r = Reader::new(&[1, 2], ReachError::Protocol);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(ReachError::Protocol(_))));
    }

    #[test]
    fn lengths_and_counts_are_checked_before_use() {
        let huge = u32::MAX.to_le_bytes();
        assert!(Reader::new(&huge, ReachError::Io).bytes().is_err());
        assert!(Reader::new(&huge, ReachError::Io).count(1).is_err());
        let two = [&2u32.to_le_bytes()[..], &[0; 8]].concat();
        assert_eq!(Reader::new(&two, ReachError::Io).count(4).unwrap(), 2);
        assert!(Reader::new(&two, ReachError::Io).count(5).is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        assert!(Reader::new(&out, ReachError::Io).str().is_err());
    }
}
