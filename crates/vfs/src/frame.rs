//! Durable records: the one place a record is sealed, published,
//! opened, and discarded.
//!
//! The run journal, the blob store, the checkpoint manifests and the
//! memo index all sit on a real disk, and all follow one discipline —
//! *detect* (magic + CRC), *contain* (delete the damaged file),
//! *recover* (the caller rebuilds). This module is that discipline's
//! only implementation; each store adds its own body codec on top.
//!
//! * [`put_record`] / [`take_record`] — the `len u32 | crc32 u32 |
//!   body` core, little-endian, as laid end to end in an append log
//!   (the run journal's records).
//! * [`seal`] / [`open`] — a whole-file record: `magic[8]` followed by
//!   exactly one such core and nothing else.
//! * [`write_atomic`] — the tmp + rename publisher: a crash or a
//!   concurrent writer never exposes a half-written file under its
//!   final name.
//! * [`FrameDir`] — a hex-sharded directory of sealed files:
//!   [`FrameDir::publish`] is skip-if-exists + [`write_atomic`];
//!   [`FrameDir::load`] verifies or deletes.
//! * [`SingleFlight`] — one builder per key across racing threads.
//!
//! Nothing here calls `fsync`: a killed process cannot lose page-cache
//! data, and every record is rebuildable. `FrameDir` talks to
//! `std::fs` directly, which makes it the single seam where fault
//! injection against our own stores (ROADMAP aim 3b) or I/O counters
//! can later attach.

use std::collections::HashSet;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::blobs::crc32;
use crate::wire;

/// Bytes of `len u32 | crc32 u32` ahead of every record body.
const RECORD_HEADER: usize = 8;

/// Append one `len | crc | body` record to `buf`.
pub fn put_record(buf: &mut Vec<u8>, body: &[u8]) {
    wire::put_u32(buf, body.len() as u32);
    wire::put_u32(buf, crc32(body));
    buf.extend_from_slice(body);
}

/// Take the record at the head of `bytes`: its body and the number of
/// bytes it occupies. `None` when the record is torn (fewer bytes than
/// its header or declared length) or its CRC does not match — in an
/// append log, the point where the scan stops.
pub fn take_record(bytes: &[u8]) -> Option<(&[u8], usize)> {
    let mut r = wire::Reader::new(bytes);
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    let body = r.bytes(len)?;
    (crc32(body) == crc).then_some((body, RECORD_HEADER + len))
}

/// A whole-file record: `magic | len | crc | body`.
pub fn seal(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(magic.len() + RECORD_HEADER + body.len());
    frame.extend_from_slice(magic);
    put_record(&mut frame, body);
    frame
}

/// Inverse of [`seal`]: the body of a file that starts with `magic`,
/// holds one CRC-valid record, and ends there. `None` on any other
/// input; never panics, never allocates.
pub fn open<'a>(magic: &[u8; 8], raw: &'a [u8]) -> Option<&'a [u8]> {
    let rest = raw.strip_prefix(magic)?;
    let (body, used) = take_record(rest)?;
    (used == rest.len()).then_some(body)
}

/// Write `bytes` to `path` via a sibling `.tmp-<pid>-<file name>` and
/// an atomic rename. The pid keeps concurrent writers in different
/// processes off each other's temp file; on failure the temp file is
/// removed and `path` is untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("record");
    let tmp = path.with_file_name(format!(".tmp-{}-{}", std::process::id(), name));
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// A directory of sealed record files, `<root>/<first 2 chars of
/// name>/<name>.<ext>`, shareable between any number of processes.
///
/// Names are content- or key-derived hex strings, so a file that
/// exists is the file a writer would write: publishing is idempotent
/// and racing writers converge on identical bytes.
#[derive(Debug)]
pub struct FrameDir {
    root: PathBuf,
    magic: &'static [u8; 8],
    ext: &'static str,
    discards: AtomicU64,
}

impl FrameDir {
    /// Records under `root`, sealed with `magic`, named `*.ext`.
    /// Creates nothing until the first [`FrameDir::publish`].
    pub fn new(root: PathBuf, magic: &'static [u8; 8], ext: &'static str) -> Self {
        FrameDir { root, magic, ext, discards: AtomicU64::new(0) }
    }

    /// The directory the shards live under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the record called `name` lives.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name.get(..2).unwrap_or(name)).join(format!("{name}.{}", self.ext))
    }

    /// Seal `body` and publish it as `name` unless that file already
    /// exists. The shard directory is created only when the write
    /// finds it missing — at most once per two-hex prefix, not once
    /// per record. Callers treat an error as "not persisted" and carry
    /// on from their memory tier.
    pub fn publish(&self, name: &str, body: &[u8]) -> std::io::Result<()> {
        let path = self.path(name);
        if path.exists() {
            return Ok(());
        }
        let sealed = seal(self.magic, body);
        match write_atomic(&path, &sealed) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let shard = path.parent().expect("record paths have a shard directory");
                std::fs::create_dir_all(shard)?;
                write_atomic(&path, &sealed)
            }
            done => done,
        }
    }

    /// Read, [`open`] and `decode` the record called `name`. A missing
    /// file is a plain miss; a file that fails `open` or `decode` —
    /// torn, bit-rotted, or not the record its name promises — is
    /// deleted and counted, so the caller's rebuild starts clean.
    pub fn load<T>(&self, name: &str, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let path = self.path(name);
        let raw = std::fs::read(&path).ok()?;
        let decoded = open(self.magic, &raw).and_then(decode);
        if decoded.is_none() {
            let _ = std::fs::remove_file(&path);
            self.discards.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    /// Files [`FrameDir::load`] has deleted.
    pub fn discards(&self) -> u64 {
        self.discards.load(Ordering::Relaxed)
    }
}

/// One builder per key: the first thread to miss claims the key and
/// builds; every other thread asking for that key blocks until the
/// claim is released, then looks again.
#[derive(Debug)]
pub struct SingleFlight<K> {
    claimed: Mutex<HashSet<K>>,
    released: Condvar,
}

/// The right to build one key. Dropping it — after publishing, on an
/// error return, or while unwinding from a panic — releases the key
/// and wakes every waiter, so a lost build strands nobody.
#[derive(Debug)]
pub struct Claim<'a, K: Eq + Hash> {
    flight: &'a SingleFlight<K>,
    key: K,
}

impl<K> Default for SingleFlight<K> {
    fn default() -> Self {
        SingleFlight { claimed: Mutex::new(HashSet::new()), released: Condvar::new() }
    }
}

impl<K: Eq + Hash + Clone> SingleFlight<K> {
    /// `Ok(hit)` as soon as `lookup` finds the value, `Err(claim)`
    /// when it is missing and the caller is now its only builder.
    ///
    /// A builder publishes where `lookup` can see it and *then* drops
    /// its claim. `lookup` runs once more after a claim is won, which
    /// catches a build that finished between the first miss and the
    /// claim — so racing callers build exactly once. If the builder
    /// failed instead, one waiter wins the freed claim and takes over.
    pub fn get_or_claim<T>(
        &self,
        key: &K,
        mut lookup: impl FnMut() -> Option<T>,
    ) -> Result<T, Claim<'_, K>> {
        let mut claim = None;
        loop {
            if let Some(hit) = lookup() {
                return Ok(hit);
            }
            if let Some(claim) = claim {
                return Err(claim);
            }
            let mut claimed = self.claimed.lock().unwrap_or_else(|e| e.into_inner());
            if claimed.insert(key.clone()) {
                claim = Some(Claim { flight: self, key: key.clone() });
            } else {
                drop(self.released.wait(claimed).unwrap_or_else(|e| e.into_inner()));
            }
        }
    }
}

impl<K: Eq + Hash> Drop for Claim<'_, K> {
    fn drop(&mut self) {
        self.flight.claimed.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.key);
        self.flight.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    const MAGIC: &[u8; 8] = b"FFISTST1";

    #[test]
    fn sealed_layout_is_magic_len_crc_body() {
        // CRC-32 of "123456789" is the check value 0xCBF43926.
        let mut expected = b"FFISTST1\x09\x00\x00\x00\x26\x39\xF4\xCB".to_vec();
        expected.extend_from_slice(b"123456789");
        assert_eq!(seal(MAGIC, b"123456789"), expected);
        assert_eq!(seal(MAGIC, b""), b"FFISTST1\0\0\0\0\0\0\0\0");
    }

    proptest! {
        #[test]
        fn open_inverts_seal(body in proptest::collection::vec(any::<u8>(), 0..300)) {
            let frame = seal(MAGIC, &body);
            prop_assert_eq!(open(MAGIC, &frame), Some(&body[..]));
            prop_assert_eq!(open(b"FFISTST2", &frame), None);
        }

        #[test]
        fn take_record_walks_any_concatenation(
            bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..8),
            torn in any::<proptest::sample::Index>(),
        ) {
            let mut log = Vec::new();
            let mut ends = Vec::new();
            for body in &bodies {
                put_record(&mut log, body);
                ends.push(log.len());
            }
            // Whole log: every body back, in order, ending exactly at
            // the end.
            let mut pos = 0;
            for body in &bodies {
                let (got, used) = take_record(&log[pos..]).expect("complete record");
                prop_assert_eq!(got, &body[..]);
                pos += used;
            }
            prop_assert_eq!(pos, log.len());
            prop_assert_eq!(take_record(&log[pos..]), None);
            // Torn anywhere: the walk yields exactly the records that
            // ended before the cut, then stops.
            let cut = torn.index(log.len() + 1);
            let (mut pos, mut walked) = (0, 0);
            while let Some((_, used)) = take_record(&log[pos..cut]) {
                pos += used;
                walked += 1;
            }
            prop_assert_eq!(walked, ends.iter().filter(|&&e| e <= cut).count());
        }

        /// Detection: no single bit flip, truncation or extension of a
        /// sealed frame opens. `open` returns a sub-slice of its
        /// input, so it cannot allocate at all, let alone beyond the
        /// input's length — including when a flipped length field
        /// claims gigabytes.
        #[test]
        fn every_damaged_frame_opens_to_none(
            body in proptest::collection::vec(any::<u8>(), 0..48),
            extra in proptest::collection::vec(any::<u8>(), 1..9),
        ) {
            let frame = seal(MAGIC, &body);
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(open(MAGIC, &flipped), None, "bit {} of {:?}", bit, frame);
            }
            for cut in 0..frame.len() {
                prop_assert_eq!(open(MAGIC, &frame[..cut]), None, "cut at {}", cut);
            }
            let mut longer = frame.clone();
            longer.extend_from_slice(&extra);
            prop_assert_eq!(open(MAGIC, &longer), None);
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffis-frame-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn load_deletes_exactly_the_files_that_fail() {
        let dir = FrameDir::new(scratch("dir"), MAGIC, "rec");
        for name in ["aa01", "aa02", "bb03", "bb04", "cc05"] {
            dir.publish(name, name.as_bytes()).unwrap();
        }
        assert_eq!(dir.path("aa01"), dir.root().join("aa").join("aa01.rec"));
        // Publishing is skip-if-exists: the first body stays.
        dir.publish("aa01", b"other").unwrap();

        let flip = |name: &str| {
            let mut raw = std::fs::read(dir.path(name)).unwrap();
            raw[17] ^= 0x01;
            std::fs::write(dir.path(name), raw).unwrap();
        };
        flip("aa02"); // bit rot
        let raw = std::fs::read(dir.path("bb03")).unwrap();
        std::fs::write(dir.path("bb03"), &raw[..raw.len() - 1]).unwrap(); // torn
        std::fs::write(dir.path("bb04"), seal(b"FFISTST0", b"bb04")).unwrap(); // older format

        let text = |body: &[u8]| Some(String::from_utf8_lossy(body).into_owned());
        assert_eq!(dir.load("aa01", text).as_deref(), Some("aa01"));
        assert_eq!(dir.load("aa02", text), None);
        assert_eq!(dir.load("bb03", text), None);
        assert_eq!(dir.load("bb04", text), None);
        // A frame that opens but is not what the caller expects under
        // that name is discarded too.
        assert_eq!(dir.load("cc05", |body| (body == b"zz").then_some(())), None);
        // A name never published is a miss, not a discard.
        assert_eq!(dir.load("dd06", text), None);
        assert_eq!(dir.discards(), 4);

        for (name, kept) in
            [("aa01", true), ("aa02", false), ("bb03", false), ("bb04", false), ("cc05", false)]
        {
            assert_eq!(dir.path(name).exists(), kept, "{name}");
        }
        // No temp file outlives its publish.
        let stray = std::fs::read_dir(dir.root().join("aa"))
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(stray, 0);
        // A discarded name republishes cleanly.
        dir.publish("aa02", b"again").unwrap();
        assert_eq!(dir.load("aa02", text).as_deref(), Some("again"));
        let _ = std::fs::remove_dir_all(dir.root());
    }

    #[test]
    fn publish_creates_a_shard_only_when_the_write_misses_it() {
        let dir = FrameDir::new(scratch("publish").join("not").join("yet"), MAGIC, "rec");
        let text = |body: &[u8]| Some(String::from_utf8_lossy(body).into_owned());
        // Fresh root: neither it nor the shard exists.
        assert!(!dir.root().exists());
        dir.publish("ab01", b"first").unwrap();
        assert_eq!(dir.load("ab01", text).as_deref(), Some("first"));
        // Existing shard: the write lands without the retry.
        dir.publish("ab02", b"second").unwrap();
        assert_eq!(dir.load("ab02", text).as_deref(), Some("second"));
        // Same name again: still a no-op.
        dir.publish("ab01", b"other").unwrap();
        assert_eq!(dir.load("ab01", text).as_deref(), Some("first"));
        let files = std::fs::read_dir(dir.root().join("ab")).unwrap().count();
        assert_eq!(files, 2, "no temp file outlives the missed first write");
        // A failure that is not a missing directory is returned as it is.
        std::fs::write(dir.root().join("cd"), b"a file where the shard should be").unwrap();
        assert!(dir.publish("cd03", b"third").is_err());
        let _ = std::fs::remove_dir_all(scratch("publish"));
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let root = scratch("atomic");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join("spec.json");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // A failed publish (the parent directory is missing) leaves
        // neither the target nor a temp file behind.
        assert!(write_atomic(&root.join("missing").join("x"), b"y").is_err());
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A tiny cache on a `SingleFlight`, the way both stores use it.
    struct Cache {
        ready: Mutex<Option<u32>>,
        flight: SingleFlight<&'static str>,
        builds: AtomicUsize,
    }

    impl Cache {
        fn new() -> Arc<Self> {
            Arc::new(Cache {
                ready: Mutex::new(None),
                flight: SingleFlight::default(),
                builds: AtomicUsize::new(0),
            })
        }

        fn get(&self, build: impl FnOnce() -> Result<u32, String>) -> Result<u32, String> {
            let _claim = match self.flight.get_or_claim(&"k", || *self.ready.lock().unwrap()) {
                Ok(hit) => return Ok(hit),
                Err(claim) => claim,
            };
            self.builds.fetch_add(1, Ordering::SeqCst);
            let value = build()?;
            *self.ready.lock().unwrap() = Some(value);
            Ok(value)
        }
    }

    #[test]
    fn racing_callers_build_once() {
        let cache = Cache::new();
        let barrier = Arc::new(Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (cache, barrier) = (cache.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get(|| Ok(7))
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), Ok(7));
        }
        assert_eq!(cache.builds.load(Ordering::SeqCst), 1);
    }

    /// The failing (or panicking) builder holds its claim until a
    /// second caller has looked and missed — that caller signals from
    /// inside its first lookup — so the second caller can only get the
    /// key through the builder's release, whether it reaches the
    /// condvar before or after it.
    fn builder_gives_way(fail: fn() -> Result<u32, String>) {
        let cache = Cache::new();
        let waiting = Arc::new(Barrier::new(2));
        let builder = {
            let (cache, waiting) = (cache.clone(), waiting.clone());
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get(|| {
                        waiting.wait();
                        fail()
                    })
                }))
            })
        };
        // Runs only after the builder has claimed the key.
        while cache.builds.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let waiter = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let mut first = true;
                let claim = cache.flight.get_or_claim(&"k", || {
                    if std::mem::take(&mut first) {
                        waiting.wait();
                    }
                    *cache.ready.lock().unwrap()
                });
                // Nothing was published, so the waiter inherits the
                // build instead of a value.
                assert!(claim.is_err());
            })
        };
        let outcome = builder.join().unwrap();
        assert!(!matches!(outcome, Ok(Ok(_))), "the first build must not succeed");
        waiter.join().unwrap();
        // The key is free again: the next caller builds.
        assert_eq!(cache.get(|| Ok(9)), Ok(9));
        assert_eq!(cache.get(|| Ok(0)), Ok(9), "and later callers hit");
    }

    #[test]
    fn failing_builder_hands_over_to_a_waiter() {
        builder_gives_way(|| Err("boom".into()));
    }

    #[test]
    fn panicking_builder_strands_nobody() {
        builder_gives_way(|| panic!("builder died"));
    }
}
