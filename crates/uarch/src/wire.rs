//! Little-endian byte-level helpers for warm-state checkpoints.
//!
//! Checkpoints are a private, versioned binary format (see
//! [`crate::warm::FunctionalWarmer::to_bytes`]); this module only supplies
//! the primitive writers and a bounds-checked reader. Every `take_*`
//! returns `Option` so a truncated or corrupted blob decodes to `None`
//! and the caller falls back to re-warming instead of panicking.

/// Appends a little-endian `u64`.
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u16`.
pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends one byte.
pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends an `i8` (two's complement byte).
pub(crate) fn put_i8(buf: &mut Vec<u8>, v: i8) {
    buf.push(v as u8);
}

/// Appends an `i64` (little-endian two's complement).
pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a bool as a single 0/1 byte.
pub(crate) fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends a `u64`-length-prefixed byte string.
pub(crate) fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u64(buf, v.len() as u64);
    buf.extend_from_slice(v);
}

/// A bounds-checked cursor over a checkpoint blob.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn take_u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    pub(crate) fn take_u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    pub(crate) fn take_u16(&mut self) -> Option<u16> {
        let b = self.take(2)?;
        Some(u16::from_le_bytes(b.try_into().ok()?))
    }

    pub(crate) fn take_u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub(crate) fn take_i8(&mut self) -> Option<i8> {
        Some(self.take(1)?[0] as i8)
    }

    pub(crate) fn take_i64(&mut self) -> Option<i64> {
        let b = self.take(8)?;
        Some(i64::from_le_bytes(b.try_into().ok()?))
    }

    /// Strict bool: anything other than 0/1 is corruption.
    pub(crate) fn take_bool(&mut self) -> Option<bool> {
        match self.take_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// A `u64`-length-prefixed byte string.
    pub(crate) fn take_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.take_u64()?;
        let len = usize::try_from(len).ok()?;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u16(&mut buf, 0x1234);
        put_u8(&mut buf, 0xab);
        put_i8(&mut buf, -5);
        put_i64(&mut buf, -1_000_000_007);
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        put_bytes(&mut buf, b"hello");
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_u64(), Some(u64::MAX - 7));
        assert_eq!(r.take_u32(), Some(0xdead_beef));
        assert_eq!(r.take_u16(), Some(0x1234));
        assert_eq!(r.take_u8(), Some(0xab));
        assert_eq!(r.take_i8(), Some(-5));
        assert_eq!(r.take_i64(), Some(-1_000_000_007));
        assert_eq!(r.take_bool(), Some(true));
        assert_eq!(r.take_bool(), Some(false));
        assert_eq!(r.take_bytes(), Some(&b"hello"[..]));
        assert!(r.is_done());
    }

    #[test]
    fn truncation_yields_none_not_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.take_u64(), None);
        let mut r2 = Reader::new(&buf);
        assert_eq!(r2.take_bytes(), None, "length prefix 42 exceeds remainder");
    }

    #[test]
    fn bool_rejects_junk() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.take_bool(), None);
    }
}
