//! The run journal: an append-only, CRC-framed write-ahead log of
//! completed run results.
//!
//! The engine's determinism laws (plan-time randomness, index-addressed
//! results) make crash recovery *provable*: a run's result depends only
//! on its planned spec, never on which other runs already executed. So
//! a journal of completed `(index, outcome, fired, payload)` records is
//! a complete checkpoint of campaign progress — on restart the executor
//! feeds the journaled indices straight into the sink at cost 0 and
//! executes only the pending set, and the **resume law** holds:
//! *interrupted + resumed == uninterrupted, byte for byte* (pinned by
//! `tests/resume_durability.rs`, which SIGKILLs a child mid-campaign).
//!
//! ## On-disk format
//!
//! Little-endian throughout.
//!
//! ```text
//! header:  magic "FFISJNL1" | schema u32 | fingerprint u64 | seed u64
//!          | runs u64 | shards u32 | context_len u32 | context bytes
//!          | header_crc u32           (CRC-32 of everything before it)
//! record:  payload_len u32 | payload_crc u32 | payload bytes
//! payload: index u64 | outcome u8 | fired u8 | frontend bytes
//! ```
//!
//! Each record is one `ffis_vfs::frame` record (`put_record` /
//! `take_record`, the same `len | crc | body` core every sealed store
//! file uses) guarded by its own CRC-32, so a torn tail (the process
//! was killed mid-append) is detected and *discarded* on resume — the
//! interrupted run simply re-executes. The journal is flushed to the OS
//! after every append but not fsynced: a SIGKILL of the campaign
//! process cannot lose page-cache data (only the host losing power
//! can), and per-run fsyncs would blow the ≤5% overhead budget.
//!
//! The header binds the journal to one exact plan: resuming under a
//! different plan fingerprint (changed grid, seed, signature, strategy
//! regime, or run count) is rejected with a clear error instead of
//! silently splicing incompatible results.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use ffis_vfs::blobs::crc32;
use ffis_vfs::{frame, wire};

use crate::outcome::Outcome;

/// Journal file magic: identifies format family and revision.
pub const JOURNAL_MAGIC: &[u8; 8] = b"FFISJNL1";

/// Current journal schema version. Bump when the record payload
/// encoding changes shape; resume rejects mismatches.
pub const JOURNAL_SCHEMA: u32 = 1;

/// Backoff schedule for transient append I/O errors: the append is
/// retried after each sleep; only after the last attempt fails does
/// the journal degrade to non-persistent mode.
const APPEND_BACKOFF_MS: [u64; 3] = [1, 10, 50];

/// Identifying metadata bound into the journal header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Plan fingerprint ([`crate::CampaignResult::plan_fingerprint`]):
    /// an FNV-1a digest of every planned run's spec and strategy.
    pub fingerprint: u64,
    /// Campaign root seed.
    pub seed: u64,
    /// Total planned runs.
    pub runs: u64,
    /// Always 1 for a campaign. A field of the frozen schema-1 header,
    /// from when one campaign could inject several fault signatures.
    pub shards: u32,
    /// Free-form context (app, grid, fault model — whatever the
    /// frontend wants readable in the header).
    pub context: String,
}

/// Why a journal could not be opened for resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(String),
    /// The file is not a run journal (bad magic).
    BadMagic,
    /// The journal was written by a different schema revision.
    SchemaMismatch {
        /// Schema found in the file.
        found: u32,
        /// Schema this build writes.
        expected: u32,
    },
    /// The journal belongs to a different plan — resuming would splice
    /// incompatible results.
    PlanMismatch {
        /// Fingerprint found in the file.
        found: u64,
        /// Fingerprint of the plan being resumed.
        expected: u64,
    },
    /// The header itself is corrupt (truncated or CRC failure).
    CorruptHeader(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a run journal (bad magic)"),
            JournalError::SchemaMismatch { found, expected } => write!(
                f,
                "journal schema v{found} incompatible with this build (v{expected}); \
                 delete the journal to start fresh"
            ),
            JournalError::PlanMismatch { found, expected } => write!(
                f,
                "journal plan fingerprint {found:#018x} does not match this campaign \
                 ({expected:#018x}): the grid, seed, signature, or run count changed; \
                 delete the journal to start fresh"
            ),
            JournalError::CorruptHeader(e) => write!(f, "journal header corrupt: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// One journaled run, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Plan index of the run.
    pub index: usize,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Did the armed injector fire?
    pub fired: bool,
    /// Frontend-encoded payload bytes (e.g. a serialized
    /// `RunResult`), decoded by the frontend that wrote them.
    pub payload: Vec<u8>,
}

fn outcome_code(o: Outcome) -> u8 {
    match o {
        Outcome::Benign => 0,
        Outcome::Detected => 1,
        Outcome::Sdc => 2,
        Outcome::Crash => 3,
    }
}

fn outcome_from_code(c: u8) -> Option<Outcome> {
    Some(match c {
        0 => Outcome::Benign,
        1 => Outcome::Detected,
        2 => Outcome::Sdc,
        3 => Outcome::Crash,
        _ => return None,
    })
}

fn encode_header(meta: &JournalMeta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + meta.context.len());
    buf.extend_from_slice(JOURNAL_MAGIC);
    wire::put_u32(&mut buf, JOURNAL_SCHEMA);
    wire::put_u64(&mut buf, meta.fingerprint);
    wire::put_u64(&mut buf, meta.seed);
    wire::put_u64(&mut buf, meta.runs);
    wire::put_u32(&mut buf, meta.shards);
    wire::put_str(&mut buf, &meta.context);
    let crc = crc32(&buf);
    wire::put_u32(&mut buf, crc);
    buf
}

/// The append-only run journal.
///
/// Writers: [`RunJournal::create`] truncates and writes a fresh
/// header; [`RunJournal::resume`] validates an existing journal
/// against the expected [`JournalMeta`], decodes every complete
/// record, truncates any torn tail, and positions for appending.
/// [`RunJournal::append`] retries transient I/O errors with bounded
/// backoff and — if the file stays unwritable — *degrades* (further
/// appends become no-ops and [`RunJournal::is_degraded`] reports it)
/// rather than failing the campaign: durability is best-effort, the
/// campaign result is not.
#[derive(Debug)]
pub struct RunJournal {
    file: File,
    path: PathBuf,
    meta: JournalMeta,
    records: u64,
    degraded: bool,
}

impl RunJournal {
    /// Create (or truncate) a journal at `path` and write the header.
    pub fn create(path: &Path, meta: JournalMeta) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
        file.write_all(&encode_header(&meta))
            .and_then(|()| file.flush())
            .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
        Ok(RunJournal { file, path: path.to_path_buf(), meta, records: 0, degraded: false })
    }

    /// Open an existing journal for resume: validate the header
    /// against `expected`, decode every complete record, truncate any
    /// torn tail, and return the journal (positioned for appending)
    /// with the decoded entries keyed by plan index.
    ///
    /// Duplicate indices keep the *first* record (the run that
    /// completed first is no less valid, and first-wins makes the scan
    /// deterministic).
    pub fn resume(
        path: &Path,
        expected: &JournalMeta,
    ) -> Result<(Self, BTreeMap<usize, JournalEntry>), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;

        let (meta, body_start) = decode_header(&bytes)?;
        if meta.fingerprint != expected.fingerprint
            || meta.seed != expected.seed
            || meta.runs != expected.runs
            || meta.shards != expected.shards
        {
            return Err(JournalError::PlanMismatch {
                found: meta.fingerprint,
                expected: expected.fingerprint,
            });
        }

        let mut entries = BTreeMap::new();
        let mut good_end = body_start;
        for (entry, end) in RecordScan::new(&bytes[body_start..]) {
            entries.entry(entry.index).or_insert(entry);
            good_end = body_start + end;
        }
        let records = entries.len() as u64;
        if good_end < bytes.len() {
            // Torn tail: the process died mid-append. Drop it; the
            // interrupted run re-executes.
            file.set_len(good_end as u64)
                .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
        }
        file.seek(SeekFrom::Start(good_end as u64))
            .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
        Ok((RunJournal { file, path: path.to_path_buf(), meta, records, degraded: false }, entries))
    }

    /// Append one completed run. Returns `true` if the record reached
    /// the file; on persistent I/O failure (after bounded
    /// retry-with-backoff) the journal degrades and returns `false` —
    /// the campaign continues without durability rather than dying.
    pub fn append(&mut self, index: usize, outcome: Outcome, fired: bool, payload: &[u8]) -> bool {
        if self.degraded {
            return false;
        }
        let mut body = Vec::with_capacity(10 + payload.len());
        wire::put_u64(&mut body, index as u64);
        body.push(outcome_code(outcome));
        body.push(fired as u8);
        body.extend_from_slice(payload);
        let mut record = Vec::with_capacity(8 + body.len());
        frame::put_record(&mut record, &body);

        for (attempt, backoff_ms) in
            APPEND_BACKOFF_MS.iter().map(|&ms| Some(ms)).chain([None]).enumerate()
        {
            match self.file.write_all(&record).and_then(|()| self.file.flush()) {
                Ok(()) => {
                    self.records += 1;
                    return true;
                }
                Err(_) if attempt < APPEND_BACKOFF_MS.len() => {
                    if let Some(ms) = backoff_ms {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                Err(_) => break,
            }
        }
        self.degraded = true;
        false
    }

    /// Header metadata this journal was created/resumed with.
    pub fn meta(&self) -> &JournalMeta {
        &self.meta
    }

    /// Journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Complete records present (journaled before + appended since).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Has the journal given up after persistent append failures?
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

fn decode_header(bytes: &[u8]) -> Result<(JournalMeta, usize), JournalError> {
    if bytes.len() < 8 || &bytes[..8] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let mut r = wire::Reader::new(&bytes[8..]);
    let schema = r.u32().ok_or_else(|| JournalError::CorruptHeader("truncated".into()))?;
    if schema != JOURNAL_SCHEMA {
        return Err(JournalError::SchemaMismatch { found: schema, expected: JOURNAL_SCHEMA });
    }
    let corrupt = || JournalError::CorruptHeader("truncated".into());
    let fingerprint = r.u64().ok_or_else(corrupt)?;
    let seed = r.u64().ok_or_else(corrupt)?;
    let runs = r.u64().ok_or_else(corrupt)?;
    let shards = r.u32().ok_or_else(corrupt)?;
    let context = r.str().ok_or_else(corrupt)?;
    let crc_offset = bytes.len() - r.remaining();
    let stored_crc = r.u32().ok_or_else(corrupt)?;
    if crc32(&bytes[..crc_offset]) != stored_crc {
        return Err(JournalError::CorruptHeader("checksum mismatch".into()));
    }
    Ok((JournalMeta { fingerprint, seed, runs, shards, context }, bytes.len() - r.remaining()))
}

/// Iterator over complete, CRC-valid records in a journal body.
/// Yields `(entry, end_offset)` pairs; stops at the first torn or
/// corrupt frame.
struct RecordScan<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> RecordScan<'a> {
    fn new(body: &'a [u8]) -> Self {
        RecordScan { body, pos: 0 }
    }
}

impl Iterator for RecordScan<'_> {
    type Item = (JournalEntry, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let (payload, used) = frame::take_record(&self.body[self.pos..])?;
        let mut r = wire::Reader::new(payload);
        let index = r.u64()? as usize;
        let outcome = outcome_from_code(r.u8()?)?;
        let fired = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let rest = payload[payload.len() - r.remaining()..].to_vec();
        self.pos += used;
        Some((JournalEntry { index, outcome, fired, payload: rest }, self.pos))
    }
}

/// Merge per-worker journal segments of one distributed campaign into
/// a single whole-plan journal at `dest` (engine law 7's coordinator
/// half).
///
/// Every segment must carry a header identical to `expected` — all
/// workers executed shards of the *same* plan — otherwise the merge is
/// rejected with [`JournalError::PlanMismatch`] (or the segment's own
/// header error) and `dest` is left unwritten. Records are merged
/// index-addressed, first-wins on duplicates (matching
/// [`RunJournal::resume`]'s scan), written in index order, and the
/// count of distinct merged records is returned. Torn segment tails
/// are skipped exactly as resume would skip them: the missing runs
/// simply stay pending in the merged journal. `dest` must not name one
/// of the segments.
pub fn merge_segments(
    dest: &Path,
    expected: &JournalMeta,
    segments: &[PathBuf],
) -> Result<u64, JournalError> {
    let mut entries: BTreeMap<usize, JournalEntry> = BTreeMap::new();
    for segment in segments {
        let mut bytes = Vec::new();
        File::open(segment)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| JournalError::Io(format!("{}: {e}", segment.display())))?;
        let (meta, body_start) = decode_header(&bytes)?;
        if meta != *expected {
            return Err(JournalError::PlanMismatch {
                found: meta.fingerprint,
                expected: expected.fingerprint,
            });
        }
        for (entry, _) in RecordScan::new(&bytes[body_start..]) {
            entries.entry(entry.index).or_insert(entry);
        }
    }
    let mut merged = RunJournal::create(dest, expected.clone())?;
    for (index, entry) in &entries {
        if !merged.append(*index, entry.outcome, entry.fired, &entry.payload) {
            return Err(JournalError::Io(format!(
                "{}: append failed while merging segments",
                dest.display()
            )));
        }
    }
    Ok(entries.len() as u64)
}

/// Scan a journal file without resuming it: header metadata plus the
/// byte offset where each complete record *ends*. Offset `k` of the
/// returned vector is where a journal holding exactly `k + 1` records
/// would end — the truncation points the kill-point proptest uses to
/// emulate "died after k records" without spawning processes.
pub fn scan(path: &Path) -> Result<(JournalMeta, Vec<u64>), JournalError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| JournalError::Io(format!("{}: {e}", path.display())))?;
    let (meta, body_start) = decode_header(&bytes)?;
    let ends =
        RecordScan::new(&bytes[body_start..]).map(|(_, end)| (body_start + end) as u64).collect();
    Ok((meta, ends))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> JournalMeta {
        JournalMeta {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            seed: 42,
            runs: 8,
            shards: 2,
            context: "app=test grid=16".into(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffis-journal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.journal")
    }

    #[test]
    fn create_append_resume_roundtrip() {
        let path = tmp("roundtrip");
        let mut j = RunJournal::create(&path, meta()).unwrap();
        assert!(j.append(3, Outcome::Sdc, true, b"payload-3"));
        assert!(j.append(0, Outcome::Benign, false, b"payload-0"));
        assert_eq!(j.records(), 2);
        drop(j);

        let (j, entries) = RunJournal::resume(&path, &meta()).unwrap();
        assert_eq!(j.records(), 2);
        assert!(!j.is_degraded());
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[&3],
            JournalEntry {
                index: 3,
                outcome: Outcome::Sdc,
                fired: true,
                payload: b"payload-3".to_vec()
            }
        );
        assert_eq!(entries[&0].outcome, Outcome::Benign);
        assert!(!entries[&0].fired);
    }

    #[test]
    fn resume_appends_after_existing_records() {
        let path = tmp("append-after");
        let mut j = RunJournal::create(&path, meta()).unwrap();
        j.append(0, Outcome::Benign, true, b"a");
        drop(j);
        let (mut j, _) = RunJournal::resume(&path, &meta()).unwrap();
        j.append(1, Outcome::Crash, true, b"b");
        drop(j);
        let (_, entries) = RunJournal::resume(&path, &meta()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[&1].outcome, Outcome::Crash);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = tmp("torn");
        let mut j = RunJournal::create(&path, meta()).unwrap();
        j.append(0, Outcome::Benign, true, b"complete");
        j.append(1, Outcome::Sdc, true, b"will-be-torn");
        drop(j);
        // Tear the last record: chop 3 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (j, entries) = RunJournal::resume(&path, &meta()).unwrap();
        assert_eq!(entries.len(), 1, "torn record discarded");
        assert_eq!(j.records(), 1);
        // The tail was physically truncated, so a fresh append lands
        // on a clean boundary.
        drop(j);
        let (mut j, _) = RunJournal::resume(&path, &meta()).unwrap();
        j.append(1, Outcome::Detected, true, b"rewritten");
        drop(j);
        let (_, entries) = RunJournal::resume(&path, &meta()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[&1].payload, b"rewritten");
    }

    #[test]
    fn corrupted_record_body_stops_the_scan() {
        let path = tmp("flip");
        let mut j = RunJournal::create(&path, meta()).unwrap();
        j.append(0, Outcome::Benign, true, b"aaaa");
        let end_of_first = std::fs::metadata(&path).unwrap().len();
        j.append(1, Outcome::Benign, true, b"bbbb");
        drop(j);
        // Flip a byte inside record 1's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, entries) = RunJournal::resume(&path, &meta()).unwrap();
        assert_eq!(entries.len(), 1, "CRC failure discards the record");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end_of_first);
    }

    #[test]
    fn plan_mismatch_is_rejected_with_clear_error() {
        let path = tmp("mismatch");
        RunJournal::create(&path, meta()).unwrap();
        let other = JournalMeta { fingerprint: 1, ..meta() };
        let err = RunJournal::resume(&path, &other).unwrap_err();
        assert!(matches!(err, JournalError::PlanMismatch { .. }));
        assert!(err.to_string().contains("does not match this campaign"));
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert_eq!(RunJournal::resume(&path, &meta()).unwrap_err(), JournalError::BadMagic);
    }

    #[test]
    fn truncated_header_is_corrupt_not_panic() {
        let path = tmp("shortheader");
        std::fs::write(&path, &encode_header(&meta())[..20]).unwrap();
        assert!(matches!(
            RunJournal::resume(&path, &meta()).unwrap_err(),
            JournalError::CorruptHeader(_)
        ));
    }

    #[test]
    fn header_crc_detects_metadata_flip() {
        let path = tmp("headerflip");
        RunJournal::create(&path, meta()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14] ^= 0x01; // inside the fingerprint field
        std::fs::write(&path, &bytes).unwrap();
        let err = RunJournal::resume(&path, &meta()).unwrap_err();
        // Either the CRC catches it, or the flipped fingerprint
        // mismatches — both refuse the resume.
        assert!(matches!(err, JournalError::CorruptHeader(_) | JournalError::PlanMismatch { .. }));
    }

    #[test]
    fn scan_reports_record_end_offsets() {
        let path = tmp("scan");
        let mut j = RunJournal::create(&path, meta()).unwrap();
        j.append(0, Outcome::Benign, true, b"xx");
        j.append(1, Outcome::Sdc, true, b"yyyy");
        drop(j);
        let (m, ends) = scan(&path).unwrap();
        assert_eq!(m, meta());
        assert_eq!(ends.len(), 2);
        assert_eq!(*ends.last().unwrap(), std::fs::metadata(&path).unwrap().len());
        // Truncating at ends[0] leaves exactly one valid record —
        // the kill-point emulation the proptest uses.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(ends[0]).unwrap();
        drop(f);
        let (_, entries) = RunJournal::resume(&path, &meta()).unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn merge_segments_is_index_addressed_and_first_wins() {
        let dir = std::env::temp_dir().join(format!("ffis-journal-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let seg_a = dir.join("seg-a.journal");
        let seg_b = dir.join("seg-b.journal");
        let dest = dir.join("merged.journal");

        // Worker A covers [0, 4), worker B [4, 8) — plus a duplicate
        // of index 3 in B that the merge must ignore (first wins).
        let mut a = RunJournal::create(&seg_a, meta()).unwrap();
        for i in 0..4usize {
            a.append(i, Outcome::Benign, true, format!("a-{i}").as_bytes());
        }
        drop(a);
        let mut b = RunJournal::create(&seg_b, meta()).unwrap();
        b.append(3, Outcome::Crash, true, b"b-dup-3");
        for i in 4..8usize {
            b.append(i, Outcome::Sdc, false, format!("b-{i}").as_bytes());
        }
        drop(b);

        let merged = merge_segments(&dest, &meta(), &[seg_a.clone(), seg_b.clone()]).unwrap();
        assert_eq!(merged, 8);
        let (j, entries) = RunJournal::resume(&dest, &meta()).unwrap();
        assert_eq!(j.records(), 8);
        assert_eq!(entries.len(), 8);
        assert_eq!(entries[&3].payload, b"a-3", "first segment wins the duplicate index");
        assert_eq!(entries[&6].outcome, Outcome::Sdc);
        assert!(!entries[&6].fired);

        // A segment from a different plan poisons the whole merge.
        let alien = dir.join("alien.journal");
        let other = JournalMeta { fingerprint: 99, ..meta() };
        RunJournal::create(&alien, other).unwrap();
        let err = merge_segments(&dest, &meta(), &[seg_a, alien]).unwrap_err();
        assert!(matches!(err, JournalError::PlanMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_segments_skips_torn_tails() {
        let dir = std::env::temp_dir().join(format!("ffis-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let seg = dir.join("seg.journal");
        let mut j = RunJournal::create(&seg, meta()).unwrap();
        j.append(0, Outcome::Benign, true, b"ok");
        j.append(1, Outcome::Benign, true, b"torn");
        drop(j);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 2).unwrap();

        let dest = dir.join("merged.journal");
        assert_eq!(merge_segments(&dest, &meta(), &[seg]).unwrap(), 1);
        let (_, entries) = RunJournal::resume(&dest, &meta()).unwrap();
        assert_eq!(entries.len(), 1, "the torn run stays pending, not corrupted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal format is frozen at `JOURNAL_SCHEMA = 1`: a journal
    /// written by any earlier build must resume under this one and
    /// vice versa, so the file is pinned byte for byte (the three
    /// CRCs below were computed with zlib, not with this crate).
    #[test]
    fn two_record_journal_is_pinned_byte_for_byte() {
        let path = tmp("pinned");
        let meta =
            JournalMeta { fingerprint: 0x0102_0304_0506_0708, context: "c".into(), ..meta() };
        let mut j = RunJournal::create(&path, meta).unwrap();
        j.append(1, Outcome::Sdc, true, b"ab");
        j.append(0, Outcome::Benign, false, b"");
        drop(j);
        #[rustfmt::skip]
        let expected: &[u8] = &[
            // header: magic, schema 1, fingerprint, seed 42, runs 8,
            // shards 2, context "c", CRC-32 of all of the above
            b'F', b'F', b'I', b'S', b'J', b'N', b'L', b'1',
            1, 0, 0, 0,
            8, 7, 6, 5, 4, 3, 2, 1,
            42, 0, 0, 0, 0, 0, 0, 0,
            8, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0,
            1, 0, 0, 0, b'c',
            49, 221, 44, 7,
            // record: len 12, crc, index 1, outcome 2 (sdc), fired 1, "ab"
            12, 0, 0, 0,
            46, 114, 225, 148,
            1, 0, 0, 0, 0, 0, 0, 0, 2, 1, b'a', b'b',
            // record: len 10, crc, index 0, outcome 0 (benign), fired 0
            10, 0, 0, 0,
            118, 104, 138, 227,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(std::fs::read(&path).unwrap(), expected);
    }

    #[test]
    fn wire_reader_is_bounds_checked() {
        let mut buf = Vec::new();
        wire::put_u64(&mut buf, 7);
        wire::put_opt_str(&mut buf, Some("hi"));
        wire::put_opt_str(&mut buf, None);
        let mut r = wire::Reader::new(&buf);
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.opt_str(), Some(Some("hi".into())));
        assert_eq!(r.opt_str(), Some(None));
        assert_eq!(r.u64(), None, "reads past the end return None");
    }
}
