//! Minimal length-prefixed binary encoding helpers — the workspace's
//! one `wire` module, shared by every on-disk body codec: the record
//! framing in [`crate::frame`], checkpoint manifests, filesystem
//! images, and (in `ffis-core`) the run journal's header and the
//! per-run payloads it carries. Little-endian fixed-width integers,
//! `u32` length-prefixed strings, and a bounds-checked reader that
//! returns `None` instead of panicking on truncated or torn input.

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append an optional string: a `0` byte, or a `1` byte and the
/// length-prefixed string.
pub fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
        None => put_u8(buf, 0),
    }
}

/// Bounds-checked sequential reader over an encoded buffer. Every
/// accessor returns `None` on underflow so a torn or bit-rotted input
/// decodes to "corrupt" instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Take one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    /// Take a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.bytes(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Take a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.bytes(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Take a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Take an optional string (see [`put_opt_str`]).
    pub fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_str(&mut buf, "/out/data.bin");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.str().as_deref(), Some("/out/data.bin"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underflow_is_none_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), None);
        let mut r = Reader::new(&[5, 0, 0, 0, b'a']);
        // Declared length 5, only 1 byte present.
        assert_eq!(r.str(), None);
    }

    #[test]
    fn invalid_utf8_is_none() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Reader::new(&buf).str(), None);
    }
}
