//! Content-addressed memo store for incremental analyze.
//!
//! A campaign that splits `analyze` into declared sub-steps needs a
//! place to park each sub-step's serialized artifact, keyed by *what
//! the sub-step read* — the [`crate::ReadLedger`] fingerprint stream
//! of its input files. This store is that place: a key → value index
//! whose memory tier keeps each distinct value once (a
//! content-addressed [`BlobStore`]) and whose optional disk tier is
//! one self-contained file per entry, shareable between worker
//! processes.
//!
//! ## Shape
//!
//! * **Keys** are opaque byte strings (the caller encodes app name,
//!   sub-step name, and ledger fingerprints); they are hashed to a
//!   32-byte address. The index maps key address → value hash.
//! * **Values** are opaque byte strings; identical values under
//!   different keys share one allocation in memory.
//! * **Single flight** — [`MemoStore::get_or_compute`] guarantees one
//!   computation per key across racing threads: late arrivals block
//!   until the builder publishes (or fails, in which case one waiter
//!   takes over). The same [`SingleFlight`] `CheckpointStore` uses.
//! * **Counters** — hits, misses, and invalidations
//!   ([`MemoStats`]) ride alongside the value tier's [`BlobStats`];
//!   campaigns surface both. An *invalidation* is recorded by the
//!   campaign layer when a fault injection dirties a sub-step whose
//!   golden artifact was cached — the dirty-cascade counter.
//!
//! ## Disk layout
//!
//! `<dir>/index/<2 hex>/<64 hex>.memo` holds one entry, value
//! included: a [`crate::frame`] record sealed `"FFISMEM3"` whose
//! CRC-covered body is `key 32B | sha256(value) 32B | value`. A `put`
//! is therefore one file publish. A load checks the frame CRC, the key
//! echo (the file is the entry its name promises) and re-hashes the
//! value against the stored hash; a file that fails any of the three —
//! torn, bit-rotted, misplaced, or left by an older layout
//! (`FFISMEM2` kept the value in a separate blob file) — is deleted
//! and read as a miss. Corruption costs a recompute, never a wrong
//! artifact.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::blobs::{hash_hex, sha256, BlobHash, BlobStats, BlobStore};
use crate::frame::{FrameDir, SingleFlight};

const INDEX_MAGIC: &[u8; 8] = b"FFISMEM3";

/// Hit/miss/invalidation counters for a [`MemoStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the store (memory or disk tier).
    pub hits: u64,
    /// Lookups that required a fresh computation.
    pub misses: u64,
    /// Cached sub-step artifacts a fault injection dirtied — the
    /// dirty-cascade counter, recorded by the campaign layer via
    /// [`MemoStore::note_invalidations`].
    pub invalidations: u64,
}

impl MemoStats {
    /// Merge another snapshot (for aggregating across stores/cells).
    pub fn merge(&mut self, other: &MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// Key → artifact memo store: values deduplicated by content in
/// memory, one sealed file per entry on disk.
#[derive(Debug, Default)]
pub struct MemoStore {
    /// Memory tier of the values, by content hash. Never disk-backed:
    /// the disk tier keeps each value inside its entry's own file.
    blobs: BlobStore,
    index: Mutex<HashMap<BlobHash, BlobHash>>,
    flight: SingleFlight<BlobHash>,
    disk: Option<FrameDir>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl MemoStore {
    /// Memory-only store (no persistence).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Disk-backed store rooted at `dir` (created if missing). The
    /// directory may be shared by any number of processes; entries are
    /// published with temp-file + rename, so racing writers converge
    /// on identical frames.
    pub fn at_dir(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir.join("index"))?;
        let disk = Some(FrameDir::new(dir.join("index"), INDEX_MAGIC, "memo"));
        Ok(MemoStore { disk, ..Self::default() })
    }

    /// The disk-tier root, when this store has one.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().and_then(|d| d.root().parent())
    }

    /// Look `key` up without counting a hit or miss (internal; the
    /// public entry points do the accounting).
    fn lookup(&self, key: &BlobHash) -> Option<Arc<Vec<u8>>> {
        let cached = self.index.lock().unwrap_or_else(|e| e.into_inner()).get(key).copied();
        let value_hash = match cached {
            Some(h) => h,
            None => {
                // Body: the key echoed, the value's content hash, the
                // value. A verified value joins the memory tier.
                let h = self.disk.as_ref()?.load(&hash_hex(key), |body| {
                    let (hash, value) = body.strip_prefix(&key[..])?.split_first_chunk::<32>()?;
                    (sha256(value) == *hash).then(|| self.blobs.put_hashed(*hash, value))
                })?;
                self.index.lock().unwrap_or_else(|e| e.into_inner()).insert(*key, h);
                h
            }
        };
        self.blobs.get(&value_hash)
    }

    fn publish(&self, key: BlobHash, value: &[u8]) {
        let value_hash = self.blobs.put(value);
        self.index.lock().unwrap_or_else(|e| e.into_inner()).insert(key, value_hash);
        if let Some(disk) = &self.disk {
            // Best-effort persistence: a failed write degrades
            // sharing, never a campaign.
            let _ = disk.publish(&hash_hex(&key), &[&key[..], &value_hash[..], value].concat());
        }
    }

    /// Fetch the artifact stored under `key_material`, counting a hit
    /// or miss.
    pub fn get(&self, key_material: &[u8]) -> Option<Arc<Vec<u8>>> {
        let key = sha256(key_material);
        match self.lookup(&key) {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `value` under `key_material` (no counters; pairs with a
    /// preceding [`MemoStore::get`] miss).
    pub fn put(&self, key_material: &[u8], value: &[u8]) {
        self.publish(sha256(key_material), value);
    }

    /// Fetch the artifact under `key_material`, computing and
    /// publishing it on a miss. Racing callers for the same key
    /// compute once: late arrivals block until the builder publishes.
    /// A failed computation propagates to its caller and wakes one
    /// waiter to take over the build.
    pub fn get_or_compute(
        &self,
        key_material: &[u8],
        compute: impl FnOnce() -> Result<Vec<u8>, String>,
    ) -> Result<Arc<Vec<u8>>, String> {
        let key = sha256(key_material);
        // Held until this call returns: dropped after `publish` on
        // success, and on an error or a panicking `compute` too.
        let _claim = match self.flight.get_or_claim(&key, || self.lookup(&key)) {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(value);
            }
            Err(claim) => claim,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute()?;
        self.publish(key, &value);
        Ok(Arc::new(value))
    }

    /// Record `n` dirty-cascade invalidations (cached sub-step
    /// artifacts a fault injection made unusable for one run).
    pub fn note_invalidations(&self, n: u64) {
        self.invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` artifact reuses served from plan-resident handles to
    /// store entries — callers that pin `Arc`s to hot artifacts at
    /// plan time report their per-run reuse here instead of re-hashing
    /// the key on every run.
    pub fn note_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Accounting for the memory tier of the values.
    pub fn blob_stats(&self) -> BlobStats {
        self.blobs.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_round_trip_counts_hits_and_misses() {
        let store = MemoStore::in_memory();
        assert!(store.get(b"k1").is_none());
        store.put(b"k1", b"artifact-1");
        assert_eq!(store.get(b"k1").unwrap().as_slice(), b"artifact-1");
        assert_eq!(store.stats(), MemoStats { hits: 1, misses: 1, invalidations: 0 });
        store.note_invalidations(3);
        assert_eq!(store.stats().invalidations, 3);
    }

    #[test]
    fn identical_values_dedup_in_the_blob_tier() {
        let store = MemoStore::in_memory();
        store.put(b"key-a", b"same bytes");
        store.put(b"key-b", b"same bytes");
        let stats = store.blob_stats();
        assert_eq!(stats.blobs, 1);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(store.get(b"key-a").unwrap(), store.get(b"key-b").unwrap());
    }

    #[test]
    fn get_or_compute_is_single_flight() {
        let store = Arc::new(MemoStore::in_memory());
        let computed = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = Arc::clone(&store);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                store
                    .get_or_compute(b"shared-key", || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(b"built-once".to_vec())
                    })
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().as_slice(), b"built-once");
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn failed_compute_wakes_a_waiter_to_take_over() {
        let store = MemoStore::in_memory();
        let err = store.get_or_compute(b"k", || Err::<Vec<u8>, _>("boom".into())).unwrap_err();
        assert_eq!(err, "boom");
        // The key is not poisoned: the next caller computes fresh.
        let ok = store.get_or_compute(b"k", || Ok(b"second try".to_vec())).unwrap();
        assert_eq!(ok.as_slice(), b"second try");
    }

    #[test]
    fn disk_tier_survives_a_fresh_store_and_discards_corrupt_frames() {
        let dir = std::env::temp_dir().join(format!("ffis-memo-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = MemoStore::at_dir(&dir).unwrap();
            store.put(b"persisted", b"value-bytes");
        }
        let reopened = MemoStore::at_dir(&dir).unwrap();
        assert_eq!(reopened.get(b"persisted").unwrap().as_slice(), b"value-bytes");
        assert_eq!(reopened.stats().hits, 1);

        let key = sha256(b"persisted");
        let hex = hash_hex(&key);
        let frame = dir.join("index").join(&hex[..2]).join(format!("{}.memo", hex));
        let good = std::fs::read(&frame).unwrap();
        // magic 8 | len 4 | crc 4 | key 32 | sha256(value) 32 | value:
        // the entry is this one file, nothing else under the root.
        assert_eq!(good.len(), 80 + b"value-bytes".len());
        assert_eq!(&good[80..], b"value-bytes");
        assert!(!dir.join("blobs").exists());

        // Every damaged variant reads as a miss and is deleted, never
        // a wrong artifact; each is planted into a fresh store.
        let body =
            |key: &BlobHash, hash: &BlobHash, value: &[u8]| [&key[..], &hash[..], value].concat();
        let value_hash = sha256(b"value-bytes");
        let mut flipped = good.clone();
        flipped[80] ^= 0xFF;
        let damaged: [(&str, Vec<u8>); 4] = [
            ("a flipped value byte fails the frame CRC", flipped),
            (
                "a CRC-valid entry for another key fails the key echo",
                crate::frame::seal(
                    INDEX_MAGIC,
                    &body(&sha256(b"other key"), &value_hash, b"value-bytes"),
                ),
            ),
            (
                "a CRC-valid entry whose value does not hash to its stored hash",
                crate::frame::seal(INDEX_MAGIC, &body(&key, &value_hash, b"value-bytez")),
            ),
            (
                "an FFISMEM2 file: key | value hash, the value in a blob file",
                crate::frame::seal(b"FFISMEM2", &[key, value_hash].concat()),
            ),
        ];
        for (what, bytes) in damaged {
            std::fs::write(&frame, bytes).unwrap();
            let store = MemoStore::at_dir(&dir).unwrap();
            assert!(store.get(b"persisted").is_none(), "{what}");
            assert!(!frame.exists(), "{what}");
            assert_eq!(store.disk.as_ref().unwrap().discards(), 1, "{what}");
            // The recompute's `put` heals the entry, byte for byte.
            store.put(b"persisted", b"value-bytes");
            assert_eq!(std::fs::read(&frame).unwrap(), good, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
