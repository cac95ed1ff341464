//! Content-addressed blob storage for checkpoint state.
//!
//! The checkpoint disk tier stores every 4-KiB page extent (and every
//! trace write payload chunk) as one **blob** addressed by the SHA-256
//! of its bytes. Content addressing is what makes the store cheap at
//! campaign scale: the log-spaced checkpoints of one trace share
//! almost all of their pages (a checkpoint at index *i* and one at
//! index *j* differ only in the pages written between them), and
//! campaigns over the same deterministic workload produce identical
//! golden state — so a page is written to disk once no matter how many
//! checkpoints, campaigns, or daemon jobs reference it.
//!
//! Durability is [`crate::frame`]'s: every blob file is one sealed
//! record published by temp file + atomic rename (so a concurrent
//! writer or a crash can never expose a half-written blob under its
//! final name), and a file that fails its CRC — or whose content does
//! not hash to its own name — is **deleted and treated as a miss**:
//! the caller rebuilds the state and rewrites the blob; corruption
//! never crashes a campaign.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::frame::FrameDir;

/// Content address of a blob: SHA-256 over its bytes.
pub type BlobHash = [u8; 32];

/// Magic prefix of a framed blob file.
const BLOB_MAGIC: &[u8; 8] = b"FFISBLB1";

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[k][i]` the CRC of byte `i`
/// followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slicing-by-8 and
/// hand-rolled because the workspace is offline by policy. Guards
/// every record [`crate::frame`] seals and `ffis-core`'s run journal
/// header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// One SHA-256 compression round over a 64-byte block.
fn sha256_block(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (slot, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *slot = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *slot = slot.wrapping_add(v);
    }
}

/// SHA-256 content hash (FIPS 180-4). Hand-rolled — the workspace is
/// offline, and the 64-bit fingerprints that key traces and memo
/// entries are too collision-prone to address content that is
/// *reconstructed from* its hash rather than merely cache-keyed by it.
/// Whole 64-byte blocks are compressed in place; only the padded tail
/// (one or two blocks) is copied.
pub fn sha256(data: &[u8]) -> BlobHash {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        sha256_block(&mut h, block.try_into().expect("64 bytes"));
    }
    // Tail: the remainder, 0x80, zeros up to 56 mod 64, the bit length.
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bitlen = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bitlen.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        sha256_block(&mut h, block.try_into().expect("64 bytes"));
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Lower-case hex rendering of a blob hash (blob file names).
pub fn hash_hex(hash: &BlobHash) -> String {
    let mut s = String::with_capacity(64);
    for b in hash {
        use std::fmt::Write as _;
        let _ = write!(s, "{:02x}", b);
    }
    s
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// Deduplication and durability accounting for a [`BlobStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlobStats {
    /// Unique blobs currently indexed in memory.
    pub blobs: usize,
    /// Total bytes offered to [`BlobStore::put`] (before dedup).
    pub logical_bytes: u64,
    /// Bytes actually retained for unique blobs (after dedup).
    pub physical_bytes: u64,
    /// `put` calls answered by an existing blob (content dedup).
    pub dedup_hits: u64,
    /// Blobs faulted in from the disk tier by [`BlobStore::get`].
    pub disk_loads: u64,
    /// Corrupt disk frames discarded (deleted, treated as a miss).
    pub corrupt_discards: u64,
}

impl BlobStats {
    /// Logical-over-physical byte ratio: how many times each stored
    /// byte was referenced. `1.0` means no content was shared; the
    /// checkpoint workload sits well above 1 because log-spaced
    /// checkpoints share most of their pages.
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }
}

/// A content-addressed blob store: memory tier always, disk tier when
/// constructed with a directory.
///
/// Disk layout: a [`FrameDir`] of `<dir>/<first 2 hex chars>/<64 hex
/// chars>.blob` files, each sealed as `"FFISBLB1" | len u32 | crc32
/// u32 | bytes`. Concurrent processes sharing one store directory race
/// idempotently (same content ⇒ same name ⇒ same bytes). Readers
/// verify the frame CRC *and* re-hash the payload against its address
/// before trusting it; any mismatch deletes the file and reports a
/// miss.
#[derive(Debug, Default)]
pub struct BlobStore {
    mem: Mutex<HashMap<BlobHash, Arc<Vec<u8>>>>,
    disk: Option<FrameDir>,
    logical_bytes: AtomicU64,
    physical_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    disk_loads: AtomicU64,
}

impl BlobStore {
    /// Memory-only store (no persistence).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Disk-backed store rooted at `dir` (created if missing). The
    /// directory may be shared by any number of processes.
    pub fn at_dir(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let disk = Some(FrameDir::new(dir.to_path_buf(), BLOB_MAGIC, "blob"));
        Ok(BlobStore { disk, ..Self::default() })
    }

    /// The disk-tier root, when this store has one.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(FrameDir::root)
    }

    /// Store `bytes`, returning their content address. Identical
    /// content is stored once; repeats count as dedup hits.
    pub fn put(&self, bytes: &[u8]) -> BlobHash {
        self.put_hashed(sha256(bytes), bytes)
    }

    /// [`BlobStore::put`] for a caller that has just computed
    /// `hash = sha256(bytes)` itself (a loader that verified it).
    pub(crate) fn put_hashed(&self, hash: BlobHash, bytes: &[u8]) -> BlobHash {
        self.logical_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        {
            let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
            if mem.contains_key(&hash) {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return hash;
            }
            mem.insert(hash, Arc::new(bytes.to_vec()));
        }
        self.physical_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            // Best-effort persistence: a failed disk write degrades the
            // store to its memory tier, never a campaign.
            let _ = disk.publish(&hash_hex(&hash), bytes);
        }
        hash
    }

    /// Account for one more reference to `len` bytes this store already
    /// holds — what a [`BlobStore::put`] of the same bytes would add to
    /// [`BlobStats`], for a caller that knows their address from an
    /// earlier `put` and need not hash them again.
    pub(crate) fn credit_repeat(&self, len: usize) {
        self.logical_bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Fetch a blob by content address: memory tier first, then the
    /// disk tier (verifying frame CRC and content hash; corrupt frames
    /// are deleted and miss). `None` means the content must be
    /// rebuilt.
    pub fn get(&self, hash: &BlobHash) -> Option<Arc<Vec<u8>>> {
        if let Some(hit) = self.mem.lock().unwrap_or_else(|e| e.into_inner()).get(hash) {
            return Some(hit.clone());
        }
        // A CRC-valid frame holding other content than its name
        // promises (a botched manual copy) is as corrupt as a torn one.
        let bytes = self
            .disk
            .as_ref()?
            .load(&hash_hex(hash), |body| (sha256(body) == *hash).then(|| body.to_vec()))?;
        let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
        let entry = mem.entry(*hash).or_insert_with(|| Arc::new(bytes)).clone();
        drop(mem);
        self.disk_loads.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// Is `hash` resident in the memory tier? (Accounting/tests; does
    /// not consult the disk tier.)
    pub fn contains(&self, hash: &BlobHash) -> bool {
        self.mem.lock().unwrap_or_else(|e| e.into_inner()).contains_key(hash)
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> BlobStats {
        BlobStats {
            blobs: self.mem.lock().unwrap_or_else(|e| e.into_inner()).len(),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            physical_bytes: self.physical_bytes.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            corrupt_discards: self.disk.as_ref().map_or(0, FrameDir::discards),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    #[test]
    fn sha256_known_vectors() {
        // FIPS 180-4 test vectors.
        assert_eq!(
            hash_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hash_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // A multi-block message (> 64 bytes).
        assert_eq!(
            hash_hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32: the definition, no tables.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    /// SHA-256 the way FIPS 180-4 states it: pad the whole message
    /// into a fresh buffer, then walk its blocks.
    fn sha256_reference(data: &[u8]) -> BlobHash {
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(word.try_into().unwrap());
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
            }
            let mut v = h;
            for i in 0..64 {
                let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
                let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
                let t1 = v[7]
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(SHA256_K[i])
                    .wrapping_add(w[i]);
                let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
                let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
                v.rotate_right(1);
                v[4] = v[4].wrapping_add(t1);
                v[0] = t1.wrapping_add(s0.wrapping_add(maj));
            }
            for (slot, x) in h.iter_mut().zip(v) {
                *slot = slot.wrapping_add(x);
            }
        }
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Every length where the padding or the slicing tail changes
    /// shape: 55/56 and 119/120 (the length field stops fitting the
    /// last block), 63/64 (a whole block and nothing else), every
    /// remainder of the 8-byte CRC stride, and a page either side.
    #[test]
    fn hashes_match_their_references_at_every_length_to_300_and_around_a_page() {
        let bytes: Vec<u8> =
            (0..4097u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in (0..=300).chain([4095, 4096, 4097]) {
            assert_eq!(crc32(&bytes[..len]), crc32_reference(&bytes[..len]), "crc32, {len} bytes");
            assert_eq!(
                sha256(&bytes[..len]),
                sha256_reference(&bytes[..len]),
                "sha256, {len} bytes"
            );
        }
    }

    proptest! {
        /// Random content at random lengths, starting at a random
        /// offset into its buffer so the 8-byte CRC words and 64-byte
        /// SHA blocks are read from unaligned addresses.
        #[test]
        fn hashes_match_their_references_on_random_unaligned_input(
            buf in proptest::collection::vec(any::<u8>(), 0..308),
            skip in 0usize..8,
        ) {
            let data = &buf[skip.min(buf.len())..];
            prop_assert_eq!(crc32(data), crc32_reference(data));
            prop_assert_eq!(sha256(data), sha256_reference(data));
        }
    }

    #[test]
    fn put_get_dedup_in_memory() {
        let store = BlobStore::in_memory();
        let a = store.put(&[1u8; 4096]);
        let b = store.put(&[1u8; 4096]);
        let c = store.put(&[2u8; 4096]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.get(&a).unwrap().as_slice(), &[1u8; 4096][..]);
        let stats = store.stats();
        assert_eq!(stats.blobs, 2);
        assert_eq!(stats.logical_bytes, 3 * 4096);
        assert_eq!(stats.physical_bytes, 2 * 4096);
        assert_eq!(stats.dedup_hits, 1);
        assert!(stats.dedup_ratio() > 1.0);
    }

    #[test]
    fn missing_blob_is_none() {
        let store = BlobStore::in_memory();
        assert!(store.get(&sha256(b"never stored")).is_none());
    }

    fn blob_path(store: &BlobStore, hash: &BlobHash) -> PathBuf {
        store.disk.as_ref().unwrap().path(&hash_hex(hash))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffis-blobs-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_tier_survives_process_restart() {
        let dir = temp_dir("restart");
        let hash = {
            let store = BlobStore::at_dir(&dir).unwrap();
            store.put(b"persist me")
        };
        // A fresh store (fresh "process") faults the blob in from disk.
        let store2 = BlobStore::at_dir(&dir).unwrap();
        assert!(!store2.contains(&hash));
        assert_eq!(store2.get(&hash).unwrap().as_slice(), b"persist me");
        assert_eq!(store2.stats().disk_loads, 1);
        assert!(store2.contains(&hash));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_is_deleted_and_misses() {
        let dir = temp_dir("corrupt");
        let store = BlobStore::at_dir(&dir).unwrap();
        let hash = store.put(b"will be damaged");
        let path = blob_path(&store, &hash);
        assert!(path.exists());

        // Flip one payload byte on disk: CRC (and content hash) break.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let fresh = BlobStore::at_dir(&dir).unwrap();
        assert!(fresh.get(&hash).is_none());
        assert_eq!(fresh.stats().corrupt_discards, 1);
        assert!(!path.exists(), "corrupt frame deleted");
        // Re-putting rewrites the frame and get works again.
        fresh.put(b"will be damaged");
        let again = BlobStore::at_dir(&dir).unwrap();
        assert_eq!(again.get(&hash).unwrap().as_slice(), b"will be damaged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_truncated_frame_is_deleted_and_misses() {
        let dir = temp_dir("torn");
        let store = BlobStore::at_dir(&dir).unwrap();
        let hash = store.put(&[9u8; 1000]);
        let path = blob_path(&store, &hash);
        let raw = std::fs::read(&path).unwrap();
        // Simulate a torn write: only half the frame made it to disk.
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let fresh = BlobStore::at_dir(&dir).unwrap();
        assert!(fresh.get(&hash).is_none());
        assert_eq!(fresh.stats().corrupt_discards, 1);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_hash_mismatch_is_rejected_even_with_valid_crc() {
        let dir = temp_dir("addr");
        let store = BlobStore::at_dir(&dir).unwrap();
        let hash = store.put(b"original");
        let path = blob_path(&store, &hash);
        // A structurally valid frame holding *different* content under
        // this address (e.g. a botched manual copy) must not be served.
        std::fs::write(&path, crate::frame::seal(BLOB_MAGIC, b"wrong")).unwrap();
        let fresh = BlobStore::at_dir(&dir).unwrap();
        assert!(fresh.get(&hash).is_none());
        assert_eq!(fresh.stats().corrupt_discards, 1);
        assert!(!path.exists(), "mis-addressed frame deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
