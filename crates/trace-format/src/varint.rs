//! LEB128 varints and zigzag signed mapping: the integer substrate every
//! other layer of the format is built on.
//!
//! A `u64` costs one byte below 128 and grows by one byte per 7 bits of
//! magnitude, so the delta-encoded timestamps and sequence numbers that
//! dominate a trace almost always fit in one or two bytes. Signed values
//! (timestamp deltas, actor ids) are zigzag-mapped first so small negative
//! numbers stay small.

use crate::ZctError;

/// Appends `value` to `out` as an unsigned LEB128 varint (1–10 bytes).
pub fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` zigzag-mapped (`0, -1, 1, -2, ...` → `0, 1, 2, 3, ...`).
pub fn put_i64(out: &mut Vec<u8>, value: i64) {
    put_u64(out, zigzag(value));
}

/// The zigzag mapping from signed to unsigned.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// The inverse zigzag mapping.
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// A bounds-checked cursor over an input slice. Every read reports the
/// *absolute* byte offset (`base + pos`) on failure, so errors from a
/// block decoded in isolation still name the true file offset.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Cursor<'a> {
    /// A cursor over `bytes`, reporting offsets relative to `base`.
    pub fn new(bytes: &'a [u8], base: u64) -> Cursor<'a> {
        Cursor { bytes, pos: 0, base }
    }

    /// Current absolute offset (for error reporting and bookkeeping).
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes remaining.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the cursor consumed the whole slice.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] at the current offset when the input ends.
    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, ZctError> {
        let Some(&byte) = self.bytes.get(self.pos) else {
            return Err(ZctError::malformed(self.offset(), format!("truncated {what}")));
        };
        self.pos += 1;
        Ok(byte)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] when fewer than `n` bytes remain.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ZctError> {
        if self.remaining() < n {
            return Err(ZctError::malformed(
                self.offset(),
                format!("truncated {what}: wanted {n} bytes, {} left", self.remaining()),
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] on truncation or a varint longer than 10
    /// bytes (which cannot encode a `u64`).
    pub fn u64(&mut self, what: &str) -> Result<u64, ZctError> {
        let start = self.offset();
        let mut value: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8(what)?;
            let low = u64::from(byte & 0x7f);
            if shift == 9 && byte > 0x01 {
                return Err(ZctError::malformed(start, format!("{what} varint overflows u64")));
            }
            value |= low << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(ZctError::malformed(start, format!("{what} varint longer than 10 bytes")))
    }

    /// Reads a zigzag-mapped signed varint.
    ///
    /// # Errors
    ///
    /// As [`Cursor::u64`].
    pub fn i64(&mut self, what: &str) -> Result<i64, ZctError> {
        Ok(unzigzag(self.u64(what)?))
    }

    /// Reads a little-endian `u32` (CRC fields, lengths).
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] on truncation.
    pub(crate) fn u32_le(&mut self, what: &str) -> Result<u32, ZctError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a little-endian `u64` (frame content hashes).
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] on truncation.
    pub(crate) fn u64_le(&mut self, what: &str) -> Result<u64, ZctError> {
        let bytes = self.take(8, what)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] on truncation, an absurd length, or
    /// invalid UTF-8.
    pub(crate) fn string(&mut self, what: &str) -> Result<String, ZctError> {
        let start = self.offset();
        let len = self.u64(what)?;
        if len > self.remaining() as u64 {
            return Err(ZctError::malformed(
                start,
                format!("{what} string length {len} exceeds remaining input"),
            ));
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ZctError::malformed(start, format!("{what} is not valid UTF-8")))
    }
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn put_string(out: &mut Vec<u8>, value: &str) {
    put_u64(out, value.len() as u64);
    out.extend_from_slice(value.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_boundaries() {
        for value in [0u64, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64, u64::MAX - 1, u64::MAX]
        {
            let mut buf = Vec::new();
            put_u64(&mut buf, value);
            let mut cur = Cursor::new(&buf, 0);
            assert_eq!(cur.u64("v").unwrap(), value);
            assert!(cur.is_empty());
        }
    }

    #[test]
    fn zigzag_roundtrips_signed_extremes() {
        for value in [0i64, -1, 1, -2, 63, -64, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(value)), value);
            let mut buf = Vec::new();
            put_i64(&mut buf, value);
            assert_eq!(Cursor::new(&buf, 0).i64("v").unwrap(), value);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn truncated_and_overlong_varints_error_with_offset() {
        let mut cur = Cursor::new(&[0x80], 100);
        let err = cur.u64("field").unwrap_err();
        assert_eq!(err, ZctError::malformed(101, "truncated field"));
        // 11 continuation bytes cannot be a u64.
        let overlong = [0xffu8; 11];
        assert!(matches!(
            Cursor::new(&overlong, 0).u64("field"),
            Err(ZctError::Malformed { offset: 0, .. })
        ));
        // 10 bytes whose top limb spills past bit 63.
        let mut spill = [0xffu8; 10];
        spill[9] = 0x02;
        assert!(Cursor::new(&spill, 0).u64("field").is_err());
    }

    #[test]
    fn strings_roundtrip_and_reject_bad_lengths() {
        let mut buf = Vec::new();
        put_string(&mut buf, "lossy");
        let mut cur = Cursor::new(&buf, 0);
        assert_eq!(cur.string("name").unwrap(), "lossy");
        // A length pointing past the end is malformed, not a panic.
        let mut bad = Vec::new();
        put_u64(&mut bad, 1000);
        bad.push(b'x');
        assert!(Cursor::new(&bad, 0).string("name").is_err());
    }
}
