//! Sector-granular, copy-on-write paged file contents.
//!
//! SSD partial failures manifest at physical granularities: the paper's
//! SHORN WRITE model (§III-B, Table I) "completely write\[s\] the first
//! 3/8th ... or first 7/8th of \[a\] 4KB block to the device at the
//! granularity of 512B". [`SectorFile`] therefore exposes the 512-byte
//! sector / 4-KiB block geometry so fault models can align their damage
//! the way a real flash translation layer would.
//!
//! Storage is a vector of 4-KiB page extents behind [`Arc`]s. Cloning a
//! `SectorFile` copies only the page *pointers*; a page's bytes are
//! duplicated lazily on the first write that lands in it
//! ([`Arc::make_mut`]). Forking a whole [`MemFs`](crate::MemFs) does
//! not even do that: the fork shares every inode, and a file's pointer
//! vector is cloned only when a fork first writes into *that* file. A
//! 100 MB plotfile therefore forks for free, costs ~25k pointer copies
//! the first time a run writes into it, and an injection run that
//! damages one metadata byte dirties exactly one 4-KiB page.

use std::sync::{Arc, OnceLock};

use crate::error::{FsError, FsResult};

/// Device sector size (bytes). Shorn writes tear at this granularity.
pub const SECTOR_SIZE: usize = 512;

/// Flash page / filesystem block size (bytes): 8 sectors. Also the
/// copy-on-write granularity of [`SectorFile`].
pub const BLOCK_SIZE: usize = 4096;

/// Hard capacity limit for a single file in the in-memory store. Large
/// enough for every workload in the paper reproduction (hundreds of MB)
/// while catching runaway writes caused by corrupted size fields.
pub const MAX_FILE_SIZE: u64 = 1 << 32; // 4 GiB

/// One copy-on-write page extent.
pub(crate) type Page = [u8; BLOCK_SIZE];

/// The shared all-zeros page backing sparse regions. Every hole in
/// every file aliases this single allocation until first written.
pub(crate) fn zero_page() -> &'static Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0u8; BLOCK_SIZE]))
}

/// Byte-addressable file content with sector geometry and CoW pages.
///
/// Semantics follow POSIX regular files:
/// * writes past EOF zero-fill the gap (sparse-file behaviour),
/// * reads past EOF are short,
/// * `truncate` both shrinks and grows (growing zero-fills).
///
/// Invariant: bytes of the last page at or beyond `len` are zero, so a
/// later extension never exposes stale content as gap fill.
#[derive(Debug, Clone, Default)]
pub struct SectorFile {
    pages: Vec<Arc<Page>>,
    len: u64,
}

impl PartialEq for SectorFile {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Page-pointer equality short-circuits byte comparison for
        // still-shared extents (the common case between a golden
        // snapshot and its forks).
        self.pages.iter().zip(&other.pages).all(|(a, b)| Arc::ptr_eq(a, b) || a[..] == b[..])
    }
}

impl Eq for SectorFile {}

impl SectorFile {
    /// Empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// File pre-populated with `data`.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        let mut f = Self::new();
        f.write_at(&data, 0).expect("Vec len is within MAX_FILE_SIZE");
        f
    }

    /// Current size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the file holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of whole-or-partial sectors the content occupies.
    pub fn sectors(&self) -> u64 {
        self.len.div_ceil(SECTOR_SIZE as u64)
    }

    /// Number of whole-or-partial blocks the content occupies.
    pub fn blocks(&self) -> u64 {
        self.len.div_ceil(BLOCK_SIZE as u64)
    }

    /// Number of allocated page extents (== [`Self::blocks`], exposed
    /// separately for CoW accounting tests).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages whose allocation is currently shared with another
    /// `SectorFile` clone (or with the global zero page) — i.e. pages
    /// a fork has *not* yet paid a byte-copy for.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) > 1 || Arc::ptr_eq(p, zero_page()))
            .count()
    }

    /// Grow the page vector to cover `end` bytes with shared zero pages.
    fn ensure_pages(&mut self, end: u64) {
        let needed = (end as usize).div_ceil(BLOCK_SIZE);
        while self.pages.len() < needed {
            self.pages.push(Arc::clone(zero_page()));
        }
    }

    /// Write `buf` at byte `offset`, zero-filling any gap past EOF.
    /// Returns the number of bytes written (always `buf.len()` unless
    /// the capacity limit trips). Only the touched pages are
    /// un-shared.
    pub fn write_at(&mut self, buf: &[u8], offset: u64) -> FsResult<usize> {
        let end = offset.checked_add(buf.len() as u64).ok_or(FsError::InvalidArgument)?;
        if end > MAX_FILE_SIZE {
            return Err(FsError::NoSpace);
        }
        if buf.is_empty() {
            return Ok(0);
        }
        self.ensure_pages(end);
        let mut done = 0usize;
        let mut pos = offset as usize;
        while done < buf.len() {
            let page_idx = pos / BLOCK_SIZE;
            let page_off = pos % BLOCK_SIZE;
            let n = (BLOCK_SIZE - page_off).min(buf.len() - done);
            let page = Arc::make_mut(&mut self.pages[page_idx]);
            page[page_off..page_off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            pos += n;
        }
        self.len = self.len.max(end);
        Ok(buf.len())
    }

    /// Read into `buf` from byte `offset`. Returns bytes read; short at
    /// EOF, zero when `offset` is at or past EOF (POSIX `pread`).
    pub fn read_at(&self, buf: &mut [u8], offset: u64) -> usize {
        if offset >= self.len {
            return 0;
        }
        let avail = (self.len - offset) as usize;
        let total = avail.min(buf.len());
        let mut done = 0usize;
        let mut pos = offset as usize;
        while done < total {
            let page_idx = pos / BLOCK_SIZE;
            let page_off = pos % BLOCK_SIZE;
            let n = (BLOCK_SIZE - page_off).min(total - done);
            buf[done..done + n].copy_from_slice(&self.pages[page_idx][page_off..page_off + n]);
            done += n;
            pos += n;
        }
        total
    }

    /// Resize to `size` bytes: shrink drops the tail, grow zero-fills.
    pub fn truncate(&mut self, size: u64) -> FsResult<()> {
        if size > MAX_FILE_SIZE {
            return Err(FsError::NoSpace);
        }
        if size < self.len {
            let keep_pages = (size as usize).div_ceil(BLOCK_SIZE);
            self.pages.truncate(keep_pages);
            // Re-zero the now-out-of-range tail of the last kept page
            // to maintain the zero-beyond-len invariant.
            let tail = size as usize % BLOCK_SIZE;
            if tail != 0 {
                let last = self.pages.last_mut().expect("size > 0 implies a last page");
                if last[tail..].iter().any(|&b| b != 0) {
                    Arc::make_mut(last)[tail..].fill(0);
                }
            }
        } else if size > self.len {
            self.ensure_pages(size);
        }
        self.len = size;
        Ok(())
    }

    /// The raw page extents backing this file, in order (content
    /// addressing: the checkpoint disk tier hashes and stores each
    /// page individually).
    pub(crate) fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Reassemble a file from page extents + length (the checkpoint
    /// disk tier's load path). Returns `None` when the parts violate
    /// the type's invariants — page count must exactly cover `len`,
    /// the capacity limit must hold, and the bytes of the last page at
    /// or beyond `len` must be zero — so a corrupt image decodes to
    /// "rebuild", never to a malformed file.
    pub(crate) fn from_pages(pages: Vec<Arc<Page>>, len: u64) -> Option<Self> {
        if len > MAX_FILE_SIZE || pages.len() != (len as usize).div_ceil(BLOCK_SIZE) {
            return None;
        }
        let tail = len as usize % BLOCK_SIZE;
        if tail != 0 {
            let last = pages.last().expect("tail != 0 implies a last page");
            if last[tail..].iter().any(|&b| b != 0) {
                return None;
            }
        }
        Some(SectorFile { pages, len })
    }

    /// Copy the full contents out as a contiguous vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len as usize];
        self.read_at(&mut out, 0);
        out
    }

    /// Consume into a contiguous byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants() {
        assert_eq!(BLOCK_SIZE, 8 * SECTOR_SIZE);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut f = SectorFile::new();
        assert_eq!(f.write_at(b"abcdef", 0).unwrap(), 6);
        let mut buf = [0u8; 6];
        assert_eq!(f.read_at(&mut buf, 0), 6);
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn sparse_write_zero_fills_gap() {
        let mut f = SectorFile::new();
        f.write_at(b"xy", 10).unwrap();
        assert_eq!(f.len(), 12);
        let mut buf = [0xffu8; 12];
        assert_eq!(f.read_at(&mut buf, 0), 12);
        assert_eq!(&buf[..10], &[0u8; 10]);
        assert_eq!(&buf[10..], b"xy");
    }

    #[test]
    fn read_past_eof_is_short_then_empty() {
        let mut f = SectorFile::new();
        f.write_at(b"hello", 0).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(f.read_at(&mut buf, 3), 2);
        assert_eq!(&buf[..2], b"lo");
        assert_eq!(f.read_at(&mut buf, 5), 0);
        assert_eq!(f.read_at(&mut buf, 500), 0);
    }

    #[test]
    fn overwrite_middle() {
        let mut f = SectorFile::from_bytes(b"aaaaaaaa".to_vec());
        f.write_at(b"BB", 3).unwrap();
        assert_eq!(f.to_vec(), b"aaaBBaaa");
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let mut f = SectorFile::from_bytes(vec![7u8; 100]);
        f.truncate(10).unwrap();
        assert_eq!(f.len(), 10);
        f.truncate(20).unwrap();
        assert_eq!(f.len(), 20);
        assert_eq!(&f.to_vec()[10..], &[0u8; 10]);
        assert_eq!(&f.to_vec()[..10], &[7u8; 10]);
    }

    #[test]
    fn truncate_rezeros_tail_within_page() {
        let mut f = SectorFile::from_bytes(vec![0xAB; 100]);
        f.truncate(40).unwrap();
        // Extending again must expose zeros, not the old 0xAB tail.
        f.truncate(100).unwrap();
        let v = f.to_vec();
        assert_eq!(&v[..40], &[0xAB; 40][..]);
        assert_eq!(&v[40..], &[0u8; 60][..]);
    }

    #[test]
    fn sector_and_block_accounting() {
        let mut f = SectorFile::new();
        assert_eq!(f.sectors(), 0);
        assert_eq!(f.blocks(), 0);
        f.write_at(&[0u8; 1], 0).unwrap();
        assert_eq!(f.sectors(), 1);
        assert_eq!(f.blocks(), 1);
        f.truncate(SECTOR_SIZE as u64).unwrap();
        assert_eq!(f.sectors(), 1);
        f.truncate(SECTOR_SIZE as u64 + 1).unwrap();
        assert_eq!(f.sectors(), 2);
        f.truncate(BLOCK_SIZE as u64 * 3).unwrap();
        assert_eq!(f.blocks(), 3);
        assert_eq!(f.sectors(), 24);
        assert_eq!(f.page_count(), 3);
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut f = SectorFile::new();
        assert_eq!(f.write_at(b"x", MAX_FILE_SIZE), Err(FsError::NoSpace));
        assert_eq!(f.truncate(MAX_FILE_SIZE + 1), Err(FsError::NoSpace));
    }

    #[test]
    fn offset_overflow_rejected() {
        let mut f = SectorFile::new();
        assert_eq!(f.write_at(b"abc", u64::MAX - 1), Err(FsError::InvalidArgument));
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut a = SectorFile::from_bytes(vec![5u8; 3 * BLOCK_SIZE]);
        let mut b = a.clone();
        assert_eq!(a.shared_pages(), 3);
        assert_eq!(b.shared_pages(), 3);
        assert_eq!(a, b);
        // Writing one byte in the clone un-shares exactly one page.
        b.write_at(&[9], (BLOCK_SIZE + 7) as u64).unwrap();
        assert_eq!(b.shared_pages(), 2);
        assert_ne!(a, b);
        // The original never observes the clone's write.
        let mut buf = [0u8; 1];
        a.read_at(&mut buf, (BLOCK_SIZE + 7) as u64);
        assert_eq!(buf[0], 5);
        // And vice versa.
        a.write_at(&[1], 0).unwrap();
        let mut buf = [0u8; 1];
        b.read_at(&mut buf, 0);
        assert_eq!(buf[0], 5);
    }

    #[test]
    fn sparse_holes_alias_the_zero_page() {
        let mut f = SectorFile::new();
        f.write_at(b"end", (10 * BLOCK_SIZE) as u64).unwrap();
        assert_eq!(f.page_count(), 11);
        // The 10 hole pages all alias the global zero page; only the
        // written tail page is private.
        assert!(f.shared_pages() >= 10);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut f = SectorFile::new();
        let data: Vec<u8> = (0..3 * BLOCK_SIZE + 123).map(|i| (i % 251) as u8).collect();
        f.write_at(&data, 17).unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read_at(&mut back, 17), data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn equality_is_content_based() {
        let a = SectorFile::from_bytes(vec![1, 2, 3]);
        let b = SectorFile::from_bytes(vec![1, 2, 3]);
        assert_eq!(a, b);
        let c = SectorFile::from_bytes(vec![1, 2, 4]);
        assert_ne!(a, c);
        let mut d = SectorFile::from_bytes(vec![1, 2, 3]);
        d.truncate(2).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn pages_roundtrip_via_from_pages() {
        let f = SectorFile::from_bytes((0..10_000).map(|i| (i % 251) as u8).collect());
        let rebuilt = SectorFile::from_pages(f.pages().to_vec(), f.len()).unwrap();
        assert_eq!(f, rebuilt);
        // Page count must exactly cover the declared length.
        assert!(SectorFile::from_pages(f.pages().to_vec(), f.len() + BLOCK_SIZE as u64).is_none());
        assert!(SectorFile::from_pages(f.pages().to_vec(), 1).is_none());
        // Stale bytes past `len` in the last page violate the
        // zero-beyond-len invariant and must be rejected.
        let mut dirty = f.pages().to_vec();
        Arc::make_mut(dirty.last_mut().unwrap())[BLOCK_SIZE - 1] = 7;
        assert!(SectorFile::from_pages(dirty, f.len()).is_none());
    }

    #[test]
    fn into_bytes_roundtrip() {
        let f = SectorFile::from_bytes(vec![9u8; 5000]);
        assert_eq!(f.into_bytes(), vec![9u8; 5000]);
    }
}
