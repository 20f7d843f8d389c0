//! Primitive message codecs over a byte buffer.
//!
//! A [`WireWriter`] appends fixed-width little-endian integers, raw
//! bytes and length-prefixed UTF-8 strings; a [`WireReader`] consumes
//! them in the same order and rejects truncated values, invalid UTF-8,
//! and — via [`WireReader::finish`] — trailing garbage. Protocols report
//! a tag byte they do not know as [`WireDecodeError::UnknownTag`], so
//! every decoder in the workspace fails with this one error type.
//!
//! Every encoded value has exactly one byte representation, so protocol
//! messages built on these round-trip byte-identically (the determinism
//! contract the tracker and the scoring service both lean on).

/// Decoding failures. Encoding cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The buffer ended before the value it promised.
    Truncated,
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// [`WireReader::finish`] found unconsumed bytes.
    Trailing(usize),
    /// A tag byte named no message (or enum value) the protocol knows.
    UnknownTag(u8),
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireDecodeError::Truncated => write!(f, "truncated message"),
            WireDecodeError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireDecodeError::Trailing(n) => write!(f, "{n} trailing byte(s) after message"),
            WireDecodeError::UnknownTag(t) => write!(f, "unknown tag {t}"),
        }
    }
}

impl std::error::Error for WireDecodeError {}

/// Append-only message encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Appends raw bytes, with no length prefix (the protocol writes
    /// the count it needs itself; [`WireReader::bytes`] reads them back).
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_u64(s.len() as u64).put_bytes(s.as_bytes())
    }

    /// Appends a count-prefixed list of strings.
    pub fn put_str_list(&mut self, items: &[String]) -> &mut Self {
        self.put_u64(items.len() as u64);
        for item in items {
            self.put_str(item);
        }
        self
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential message decoder over a borrowed buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads exactly `n` raw bytes — the body of a field whose length
    /// the protocol encoded itself.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireDecodeError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireDecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireDecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireDecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireDecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireDecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads `len` bytes of UTF-8 text (the caller read the length).
    pub fn utf8(&mut self, len: usize) -> Result<String, WireDecodeError> {
        String::from_utf8(self.bytes(len)?.to_vec()).map_err(|_| WireDecodeError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireDecodeError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| WireDecodeError::Truncated)?;
        self.utf8(len)
    }

    /// Reads a count-prefixed list of strings.
    pub fn str_list(&mut self) -> Result<Vec<String>, WireDecodeError> {
        let count = self.u64()?;
        // Each entry costs at least its 8-byte length prefix, so a count
        // beyond the remaining bytes is truncation — checked before the
        // allocation a hostile count would otherwise size.
        let count = usize::try_from(count)
            .ok()
            .filter(|&c| c <= (self.buf.len() - self.pos) / 8)
            .ok_or(WireDecodeError::Truncated)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(self.str()?);
        }
        Ok(items)
    }

    /// Asserts the whole buffer was consumed.
    pub fn finish(self) -> Result<(), WireDecodeError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(WireDecodeError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = WireWriter::new();
        w.put_u8(7)
            .put_u16(0xbeef)
            .put_u32(u32::MAX - 1)
            .put_bytes(b"raw")
            .put_u64(u64::MAX)
            .put_str("héllo")
            .put_str_list(&["a".into(), String::new(), "βç".into()]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), u32::MAX - 1);
        assert_eq!(r.bytes(3).unwrap(), b"raw");
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.str_list().unwrap(), vec!["a", "", "βç"]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let mut w = WireWriter::new();
        w.put_str("payload");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert_eq!(r.str(), Err(WireDecodeError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_list_count_is_rejected_before_allocating() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.str_list(), Err(WireDecodeError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(1).put_u8(2);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.finish(), Err(WireDecodeError::Trailing(1)));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(2);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.str(), Err(WireDecodeError::BadUtf8));
    }
}
