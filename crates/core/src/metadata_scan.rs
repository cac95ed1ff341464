//! HDF5 metadata fault-injection scan (paper §IV-D, Tables III & IV).
//!
//! "Based on this procedure, FFIS identifies the specific write
//! operation for metadata (i.e., the penultimate fwrite) and then
//! perform\[s\] a fault injection starting from the offset value
//! specified by the fwrite and till the end of the buffer
//! byte-by-byte."
//!
//! The scanner is format-agnostic: it locates a designated write to a
//! target file (by default the penultimate one), then evaluates the
//! workload once per buffer byte with a [`ByteFaultInjector`] armed on
//! that byte, classifying every outcome. A [`FieldMap`] (produced by
//! the file-format crate from its own layout knowledge) attributes
//! each byte to a named metadata field, yielding the per-field outcome
//! tables of the paper.
//!
//! ## The fork+replay fast path
//!
//! An exhaustive scan is `write_len` injection runs differing in one
//! byte of one write, so it calls what every campaign cell runs on:
//!
//! 1. one `Golden` run: its profile locates the metadata write and
//!    (replay on) it records the replayable op trace;
//! 2. a write-site campaign's replay gate: the trace must number
//!    the target's writes as the profile does and `Golden::replay_laws`
//!    must hold — otherwise every byte takes a full rerun and
//!    [`DetailedScanResult::mode`] records the [`ReplayFallback`] a
//!    campaign over the same target would;
//! 3. one checkpoint set whose whole demand is the metadata write
//!    (`TraceCheckpoints::build_for_demand`), so a snapshot sits
//!    exactly before it;
//! 4. per byte, the campaign's run frame: fork that snapshot, replay
//!    the trace *suffix* through the mount with the byte injector
//!    armed, run the application's `analyze`, classify.
//!
//! Per-byte cost collapses from O(full run) to O(suffix bytes +
//! analyze). `tests/replay_equivalence.rs` pins both routes
//! byte-identical and the gate's agreement with campaigns.

use std::convert::Infallible;
use std::sync::Arc;

use crate::campaign::{
    classify_run, replay_default, run_frame, CampaignError, ExecutionMode, Liveness,
    ReplayFallback, ReplayPlan, Start,
};
use crate::engine::{self, EngineConfig, ExecutionPlan, PlannedRun, RunRecord, RunStrategy};
use crate::fault::TargetFilter;
use crate::golden::Golden;
use crate::injector::{ByteFaultInjector, ByteFlip};
use crate::outcome::{FaultApp, Outcome, OutcomeTally};
use crate::rng::Rng;

/// Which matching write hosts the metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePick {
    /// The penultimate matching write — the paper's HDF5 observation
    /// (raw data writes, then packed metadata, then a final EOF patch).
    Penultimate,
    /// The last matching write.
    Last,
    /// The n-th matching write (1-based eligible instance).
    Nth(u64),
}

/// Damage applied to each scanned byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipMode {
    /// Two consecutive bits at a seeded-random position within the
    /// byte (the paper's BIT FLIP feature applied byte-by-byte).
    TwoBitsRandom,
    /// One specific bit of every byte.
    Bit(u8),
    /// XOR with a fixed mask.
    Mask(u8),
}

impl FlipMode {
    fn to_flip(self, rng: &mut Rng) -> ByteFlip {
        match self {
            FlipMode::TwoBitsRandom => {
                let start = rng.gen_range(7) as u8; // 2 consecutive bits within the byte
                ByteFlip::Xor(0b11 << start)
            }
            FlipMode::Bit(b) => ByteFlip::Xor(1u8 << (b & 7)),
            FlipMode::Mask(m) => ByteFlip::Xor(m),
        }
    }
}

/// Scan configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Which file's writes to scan (e.g. suffix `.h5`).
    pub target: TargetFilter,
    /// Which matching write is the metadata write.
    pub pick: WritePick,
    /// Damage per byte.
    pub flip: FlipMode,
    /// Seed for the per-byte flip positions.
    pub seed: u64,
    /// Scan every `stride`-th byte (1 = exhaustive, the paper's mode).
    pub stride: usize,
    /// Fan bytes out across the rayon pool.
    pub parallel: bool,
    /// Use the fork+replay fast path (see the module docs). Outcomes
    /// are byte-identical either way; disable only to measure the
    /// legacy full-rerun cost. A scan whose gate refuses falls back.
    pub replay: bool,
}

impl ScanConfig {
    /// Paper defaults: penultimate write, 2-bit flips, exhaustive,
    /// replay on (unless `FFIS_REPLAY=0` — see
    /// [`crate::campaign::replay_default`], the same override the
    /// campaign drivers honor).
    pub fn new(target: TargetFilter) -> Self {
        ScanConfig {
            target,
            pick: WritePick::Penultimate,
            flip: FlipMode::TwoBitsRandom,
            seed: 0x4D45_5441,
            stride: 1,
            parallel: true,
            replay: replay_default(),
        }
    }
}

/// Outcome of injecting into one metadata byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteOutcome {
    /// Byte index within the metadata write buffer.
    pub byte_index: usize,
    /// Absolute file offset of the byte.
    pub file_offset: u64,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Crash message when the run crashed.
    pub crash_message: Option<String>,
}

/// Full scan result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Per-byte outcomes (in byte order).
    pub bytes: Vec<ByteOutcome>,
    /// File offset of the metadata write.
    pub write_offset: u64,
    /// Length of the metadata write buffer.
    pub write_len: usize,
    /// Eligible-instance number of the metadata write.
    pub write_instance: u64,
    /// Aggregate tally (the Table III totals row).
    pub tally: OutcomeTally,
}

/// A named byte range of the metadata region (absolute file offsets,
/// `[start, end)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpan {
    /// First byte (absolute file offset).
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
    /// Field name, e.g. `"Datatype.ExponentBias"`.
    pub name: String,
}

/// Byte-exact map from file offsets to metadata field names.
#[derive(Debug, Clone, Default)]
pub struct FieldMap {
    spans: Vec<FieldSpan>,
}

impl FieldMap {
    /// Build from spans (sorted by start; overlaps are a bug in the
    /// producer and rejected).
    pub fn new(mut spans: Vec<FieldSpan>) -> Result<Self, String> {
        spans.sort_by_key(|s| s.start);
        for w in spans.windows(2) {
            if w[1].start < w[0].end {
                return Err(format!(
                    "overlapping field spans: {} [{}, {}) and {} [{}, {})",
                    w[0].name, w[0].start, w[0].end, w[1].name, w[1].start, w[1].end
                ));
            }
        }
        for s in &spans {
            if s.end <= s.start {
                return Err(format!("empty span for {}", s.name));
            }
        }
        Ok(FieldMap { spans })
    }

    /// Field covering an absolute offset.
    pub fn lookup(&self, offset: u64) -> Option<&FieldSpan> {
        let idx = self.spans.partition_point(|s| s.end <= offset);
        self.spans.get(idx).filter(|s| s.start <= offset && offset < s.end)
    }

    /// All spans.
    pub fn spans(&self) -> &[FieldSpan] {
        &self.spans
    }

    /// Total bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Spans whose name contains `needle`.
    pub fn find(&self, needle: &str) -> Vec<&FieldSpan> {
        self.spans.iter().filter(|s| s.name.contains(needle)).collect()
    }
}

/// Per-field aggregation of a scan (Table III's "Example Metadata
/// Fields" column: which fields produced which outcome classes).
#[derive(Debug, Clone)]
pub struct FieldOutcome {
    /// Field name.
    pub name: String,
    /// Bytes of this field that were scanned.
    pub bytes_scanned: u64,
    /// Outcome tally over those bytes.
    pub tally: OutcomeTally,
}

/// Attribute scan outcomes to fields.
pub fn attribute(scan: &ScanResult, map: &FieldMap) -> Vec<FieldOutcome> {
    use std::collections::BTreeMap;
    let mut agg: BTreeMap<&str, (u64, OutcomeTally)> = BTreeMap::new();
    for b in &scan.bytes {
        let field = map.lookup(b.file_offset).map_or("<unmapped>", |s| s.name.as_str());
        let entry = agg.entry(field).or_insert_with(|| (0, OutcomeTally::new()));
        entry.0 += 1;
        entry.1.record(b.outcome);
    }
    agg.into_iter()
        .map(|(field, (bytes_scanned, tally))| FieldOutcome {
            name: field.into(),
            bytes_scanned,
            tally,
        })
        .collect()
}

/// Field names whose bytes produced at least one occurrence of `o`.
pub fn fields_with_outcome(fields: &[FieldOutcome], o: Outcome) -> Vec<&str> {
    fields.iter().filter(|f| f.tally.count(o) > 0).map(|f| f.name.as_str()).collect()
}

/// Resolve a [`WritePick`] against `count` matching writes, returning
/// a 0-based index.
fn pick_index(count: usize, pick: WritePick) -> Result<usize, String> {
    if count == 0 {
        return Err("no writes match the target filter".to_string());
    }
    match pick {
        WritePick::Last => Ok(count - 1),
        WritePick::Penultimate => {
            if count < 2 {
                return Err("fewer than two matching writes; no penultimate".to_string());
            }
            Ok(count - 2)
        }
        WritePick::Nth(n) => {
            if n == 0 || n as usize > count {
                return Err(format!("write instance {} out of range 1..={}", n, count));
            }
            Ok((n - 1) as usize)
        }
    }
}

/// Locate the metadata write: `(eligible instance, offset, len, golden)`.
pub fn locate_write<A: FaultApp>(
    app: &A,
    target: &TargetFilter,
    pick: WritePick,
) -> Result<(u64, u64, usize, A::Output), String> {
    let (golden, at) = golden_run(app, target, pick)?;
    Ok((at.instance, at.offset, at.len, golden.output))
}

/// The metadata write, as 1-based `instance` of the `matching` writes
/// the golden run *attempted* — the interceptor-level numbering the
/// injectors count in, whether or not a matching write failed.
struct LocatedWrite {
    instance: u64,
    offset: u64,
    len: usize,
    matching: u64,
}

/// Run the workload once, fault-free, and locate the write `pick`
/// designates.
fn golden_run<A: FaultApp>(
    app: &A,
    target: &TargetFilter,
    pick: WritePick,
) -> Result<(Golden<A::Output>, LocatedWrite), String> {
    let golden = Golden::run(app).map_err(|e| match e {
        CampaignError::GoldenRunFailed(msg) => msg,
        other => other.to_string(),
    })?;
    let writes = golden.profile.writes_matching(target);
    let idx = pick_index(writes.len(), pick)?;
    let at = LocatedWrite {
        instance: idx as u64 + 1,
        offset: writes[idx].offset.unwrap_or(0),
        len: writes[idx].len,
        matching: writes.len() as u64,
    };
    Ok((golden, at))
}

/// One byte-run through the campaign's run frame; classify.
fn byte_run<A: FaultApp>(
    app: &A,
    golden: &A::Output,
    start: &Start<'_>,
    injector: ByteFaultInjector,
) -> (Outcome, Option<A::Output>, Option<String>) {
    let live = run_frame(app, golden, start, Arc::new(injector), Liveness::default(), None);
    let run = classify_run(app, golden, live.map(|live| live.map(|(out, _)| out)));
    (run.outcome, run.output, run.crash_message)
}

/// Run the workload once with a single byte fault armed; classify.
pub fn run_with_byte_fault<A: FaultApp>(
    app: &A,
    golden: &A::Output,
    target: &TargetFilter,
    write_instance: u64,
    byte_index: usize,
    flip: ByteFlip,
) -> (Outcome, Option<A::Output>, Option<String>) {
    let injector = ByteFaultInjector::new(target.clone(), write_instance, byte_index, flip);
    byte_run(app, golden, &Start::Fresh, injector)
}

/// One scanned byte paired with the faulty run's surviving output, so
/// replay-path classification can be diffed against rerun-path
/// classification (not just the collapsed [`Outcome`]).
#[derive(Debug, Clone)]
pub struct ScanRun<O> {
    /// Location and classified outcome.
    pub byte: ByteOutcome,
    /// Full application output of the faulty run, when it completed.
    pub output: Option<O>,
}

/// [`ScanResult`] enriched with per-byte application outputs and the
/// execution strategy that produced it.
#[derive(Debug, Clone)]
pub struct DetailedScanResult<O> {
    /// Per-byte runs (in byte order).
    pub runs: Vec<ScanRun<O>>,
    /// File offset of the metadata write.
    pub write_offset: u64,
    /// Length of the metadata write buffer.
    pub write_len: usize,
    /// Eligible-instance number of the metadata write.
    pub write_instance: u64,
    /// Aggregate tally.
    pub tally: OutcomeTally,
    /// The execution strategy, with the recorded reason when a
    /// replay-configured scan fell back — the same vocabulary the
    /// campaign drivers report.
    pub mode: ExecutionMode,
}

impl<O> DetailedScanResult<O> {
    /// Did the fork+replay fast path run? (`false`: the scan fell back
    /// to — or was configured for — legacy full reruns; the reason is
    /// in [`DetailedScanResult::mode`].)
    pub fn used_replay(&self) -> bool {
        self.mode.is_replay()
    }

    /// Collapse to the output-free [`ScanResult`].
    pub fn into_result(self) -> ScanResult {
        ScanResult {
            bytes: self.runs.into_iter().map(|r| r.byte).collect(),
            write_offset: self.write_offset,
            write_len: self.write_len,
            write_instance: self.write_instance,
            tally: self.tally,
        }
    }
}

/// The one scan body behind [`scan`] and [`scan_detailed`]: every
/// byte's flip is drawn at plan time from `root.child(byte_index)`
/// (engine law 2), the strategy — one shared pre-write snapshot, or
/// full reruns with a recorded reason — is resolved up front, and the
/// tally streams through the engine sink. `keep` runs on the worker
/// thread right after `classify` and decides what of a faulty output
/// outlives its byte-run; the sink retains every [`ScanRun`].
fn scan_with<A, K, F>(
    app: &A,
    config: &ScanConfig,
    keep: F,
) -> Result<DetailedScanResult<K>, String>
where
    A: FaultApp,
    K: Send,
    F: Fn(Option<A::Output>) -> Option<K> + Sync,
{
    let (golden, at) = golden_run(app, &config.target, config.pick)?;
    let plan = if config.replay {
        ReplayPlan::new(app, &golden, &config.target, at.matching, None, Some(&[at.instance]))
    } else {
        Err(ReplayFallback::Disabled)
    };
    // Only the reference output outlives the gate: a fast path holds
    // the trace through its checkpoint set, a fallback frees it (every
    // write payload) and the golden filesystem before the byte loop.
    let golden = golden.into_output();
    // One pre-write snapshot serves every byte; `seen` matching
    // writes precede it.
    let strategy = match &plan {
        Ok(plan) => plan.strategy_for(at.instance),
        Err(reason) => RunStrategy::Rerun { reason: *reason },
    };
    let (start, seen) = match (&plan, strategy) {
        (Ok(plan), RunStrategy::Replay { checkpoint, .. }) => plan.checkpoint_start(checkpoint),
        _ => (Start::Fresh, 0),
    };

    let (root, stride) = (Rng::seed_from(config.seed), config.stride.max(1));
    let planned: Vec<PlannedRun<ByteFlip>> = (0..at.len.div_ceil(stride))
        .map(|index| {
            let spec = config.flip.to_flip(&mut root.child((index * stride) as u64));
            PlannedRun { index, strategy, spec }
        })
        .collect();
    let eplan = ExecutionPlan::new(planned);
    let engine_cfg =
        EngineConfig { parallel: config.parallel, keep_runs: None, keep_seed: config.seed };
    let out = engine::execute(&eplan, &engine_cfg, |pr| {
        let (byte_index, flip) = (pr.index * stride, pr.spec);
        let injector =
            ByteFaultInjector::resuming(config.target.clone(), at.instance, byte_index, flip, seen);
        let (outcome, output, crash_message) = byte_run(app, &golden, &start, injector);
        let payload = ScanRun {
            byte: ByteOutcome {
                byte_index,
                file_offset: at.offset + byte_index as u64,
                outcome,
                crash_message,
            },
            output: keep(output),
        };
        // Byte injectors always fire (the byte is always within the
        // scanned buffer), so the no-fire law never triggers here.
        RunRecord { outcome, fired: true, payload }
    });

    Ok(DetailedScanResult {
        runs: out.kept,
        write_offset: at.offset,
        write_len: at.len,
        write_instance: at.instance,
        tally: out.tally,
        mode: strategy.mode(),
    })
}

/// Execute the full byte-by-byte metadata scan, keeping each byte's
/// application output alongside its classification.
///
/// Every faulty output stays alive until the result is dropped:
/// `write_len / stride × size_of(Output)` by the end of the scan (Nyx
/// 32³ with `keep_field`: 2,184 × 256 KB ≈ 560 MB). It exists to diff
/// outputs between execution strategies; [`scan`] is the outcome map.
pub fn scan_detailed<A: FaultApp>(
    app: &A,
    config: &ScanConfig,
) -> Result<DetailedScanResult<A::Output>, String> {
    scan_with(app, config, |output| output)
}

/// Execute the full byte-by-byte metadata scan.
///
/// Field for field `scan_detailed(app, config)?.into_result()`, but
/// each faulty output is dropped on the worker thread as soon as it is
/// classified (a kept `Option<Infallible>` is zero-sized): one output
/// per executor thread, plus the golden, is alive at a time.
pub fn scan<A: FaultApp>(app: &A, config: &ScanConfig) -> Result<ScanResult, String> {
    scan_with(app, config, |_classified| None::<Infallible>).map(DetailedScanResult::into_result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_vfs::{FileSystem, FileSystemExt};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Mini file format: a 16-byte "metadata" header (magic, version,
    /// scale factor, reserved) followed by data; the reader validates
    /// the magic/version and decodes data scaled by the factor. The
    /// writer writes data first, then the header (penultimate), then a
    /// 1-byte commit mark — mirroring the HDF5 write protocol shape.
    struct MiniFormatApp;

    #[derive(Clone)]
    struct MiniOut {
        values: Vec<u8>,
        mean: f64,
    }

    const MAGIC: [u8; 4] = *b"MINI";

    /// The read/validate half of the mini workload.
    fn mini_read_back(fs: &dyn FileSystem) -> Result<MiniOut, String> {
        let all = fs.read_to_vec("/d.mini").map_err(|e| e.to_string())?;
        if all.len() < 49 || all[..4] != MAGIC {
            return Err("bad magic".into());
        }
        if all[4] != 1 {
            return Err("unsupported version".into());
        }
        let scale = all[5] as u64;
        let values: Vec<u8> = all[16..48].to_vec();
        let mean =
            values.iter().map(|&v| (v as u64 * scale) as f64).sum::<f64>() / values.len() as f64;
        Ok(MiniOut { values, mean })
    }

    impl FaultApp for MiniFormatApp {
        type Output = MiniOut;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            // Write: data at 16.., header at 0 (penultimate), commit.
            let data = [10u8; 32];
            let fd = fs.create("/d.mini", 0o644).map_err(|e| e.to_string())?;
            fs.pwrite(fd, &data, 16).map_err(|e| e.to_string())?;
            let mut header = [0u8; 16];
            header[..4].copy_from_slice(&MAGIC);
            header[4] = 1; // version
            header[5] = 2; // scale
            fs.pwrite(fd, &header, 0).map_err(|e| e.to_string())?;
            fs.pwrite(fd, b"C", 48).map_err(|e| e.to_string())?;
            fs.release(fd).map_err(|e| e.to_string())
        }

        fn analyze(
            &self,
            fs: &dyn FileSystem,
            _golden: Option<&MiniOut>,
        ) -> Result<MiniOut, String> {
            // Read back with validation (crash on unjustified fields).
            mini_read_back(fs)
        }

        fn classify(&self, golden: &MiniOut, faulty: &MiniOut) -> Outcome {
            if golden.values == faulty.values && golden.mean == faulty.mean {
                Outcome::Benign
            } else if (faulty.mean - golden.mean).abs() > 100.0 {
                Outcome::Detected
            } else {
                Outcome::Sdc
            }
        }

        fn name(&self) -> String {
            "MINI".into()
        }
    }

    fn mini_field_map() -> FieldMap {
        FieldMap::new(vec![
            FieldSpan { start: 0, end: 4, name: "Magic".into() },
            FieldSpan { start: 4, end: 5, name: "Version".into() },
            FieldSpan { start: 5, end: 6, name: "Scale".into() },
            FieldSpan { start: 6, end: 16, name: "Reserved".into() },
        ])
        .unwrap()
    }

    #[test]
    fn locate_write_finds_penultimate_header() {
        let (instance, offset, len, _) =
            locate_write(&MiniFormatApp, &TargetFilter::Any, WritePick::Penultimate).unwrap();
        assert_eq!(instance, 2);
        assert_eq!(offset, 0);
        assert_eq!(len, 16);
    }

    #[test]
    fn locate_write_picks() {
        let (i, _, len, _) =
            locate_write(&MiniFormatApp, &TargetFilter::Any, WritePick::Last).unwrap();
        assert_eq!((i, len), (3, 1));
        let (i, off, _, _) =
            locate_write(&MiniFormatApp, &TargetFilter::Any, WritePick::Nth(1)).unwrap();
        assert_eq!((i, off), (1, 16));
        assert!(locate_write(&MiniFormatApp, &TargetFilter::Any, WritePick::Nth(9)).is_err());
        assert!(locate_write(
            &MiniFormatApp,
            &TargetFilter::PathSuffix(".nope".into()),
            WritePick::Last
        )
        .is_err());
    }

    #[test]
    fn scan_classifies_structure() {
        let mut cfg = ScanConfig::new(TargetFilter::Any);
        cfg.parallel = false;
        cfg.flip = FlipMode::Mask(0xFF); // deterministic, always changes the byte
        let result = scan(&MiniFormatApp, &cfg).unwrap();
        assert_eq!(result.bytes.len(), 16);
        assert_eq!(result.write_offset, 0);
        // Magic/version bytes crash; scale is detected (mean jumps by
        // a factor); reserved bytes are benign.
        let fields = attribute(&result, &mini_field_map());
        let get = |n: &str| fields.iter().find(|f| f.name == n).unwrap();
        assert_eq!(get("Magic").tally.crash, 4);
        assert_eq!(get("Version").tally.crash, 1);
        assert_eq!(get("Reserved").tally.benign, 10);
        assert!(get("Scale").tally.detected + get("Scale").tally.sdc == 1);
        assert_eq!(result.tally.total(), 16);
    }

    #[test]
    fn scan_stride_subsamples() {
        let mut cfg = ScanConfig::new(TargetFilter::Any);
        cfg.stride = 4;
        cfg.parallel = false;
        let result = scan(&MiniFormatApp, &cfg).unwrap();
        assert_eq!(result.bytes.len(), 4);
        assert_eq!(
            result.bytes.iter().map(|b| b.byte_index).collect::<Vec<_>>(),
            vec![0, 4, 8, 12]
        );
    }

    #[test]
    fn replay_fast_path_engages_by_default() {
        let mut cfg = ScanConfig::new(TargetFilter::Any);
        cfg.parallel = false;
        cfg.flip = FlipMode::Mask(0xFF);
        // Explicit rather than the default, which the FFIS_REPLAY=0 CI
        // rerun job flips to false.
        cfg.replay = true;
        let fast = scan_detailed(&MiniFormatApp, &cfg).unwrap();
        assert!(fast.used_replay(), "two-phase apps engage the fast path by construction");
        assert_eq!(fast.mode, ExecutionMode::Replay);

        // Byte-identical to the legacy full-rerun scan.
        cfg.replay = false;
        let slow = scan_detailed(&MiniFormatApp, &cfg).unwrap();
        assert!(!slow.used_replay());
        assert_eq!(slow.mode, ExecutionMode::FullRerun { reason: ReplayFallback::Disabled });
        assert_eq!(fast.tally, slow.tally);
        for (f, s) in fast.runs.iter().zip(&slow.runs) {
            assert_eq!(f.byte.outcome, s.byte.outcome, "byte {}", f.byte.byte_index);
            assert_eq!(f.byte.crash_message, s.byte.crash_message);
        }
    }

    /// An app whose analyze phase mutates its own classified artifact:
    /// the golden-identity probe must catch it and fall back to full
    /// reruns rather than classify replayed state with a broken phase.
    struct SelfMutatingApp;

    impl FaultApp for SelfMutatingApp {
        type Output = Vec<u8>;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            use ffis_vfs::FileSystemExt;
            fs.write_file_chunked("/grow.bin", &[4u8; 8192], 4096).map_err(|e| e.to_string())?;
            fs.write_file("/grow.meta", &[1u8; 32]).map_err(|e| e.to_string())
        }

        fn analyze(
            &self,
            fs: &dyn FileSystem,
            _golden: Option<&Vec<u8>>,
        ) -> Result<Vec<u8>, String> {
            use ffis_vfs::{FileSystemExt, OpenFlags};
            // Non-idempotent: appends to the artifact it then returns.
            let len = fs.read_to_vec("/grow.bin").map_err(|e| e.to_string())?.len() as u64;
            let fd = fs.open("/grow.bin", OpenFlags::read_write()).map_err(|e| e.to_string())?;
            fs.pwrite(fd, b"!", len).map_err(|e| e.to_string())?;
            fs.release(fd).map_err(|e| e.to_string())?;
            fs.read_to_vec("/grow.bin").map_err(|e| e.to_string())
        }

        fn classify(&self, golden: &Vec<u8>, faulty: &Vec<u8>) -> Outcome {
            if golden == faulty {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }

        fn name(&self) -> String {
            "SELFMUT".into()
        }
    }

    #[test]
    fn golden_identity_violations_fall_back_to_full_reruns() {
        let mut cfg = ScanConfig::new(TargetFilter::PathSuffix(".meta".into()));
        cfg.pick = WritePick::Last;
        cfg.parallel = false;
        cfg.replay = true;
        let result = scan_detailed(&SelfMutatingApp, &cfg).unwrap();
        assert!(!result.used_replay(), "identity-violating analyze must disable replay");
        // The shared gate checks the read-only-analyze law first.
        assert_eq!(result.mode, ExecutionMode::FullRerun { reason: ReplayFallback::AnalyzeWrites });
        assert_eq!(result.tally.total(), 32);
    }

    #[test]
    fn detailed_scan_propagates_faulty_outputs() {
        let mut cfg = ScanConfig::new(TargetFilter::Any);
        cfg.parallel = false;
        cfg.flip = FlipMode::Mask(0xFF);
        let result = scan_detailed(&MiniFormatApp, &cfg).unwrap();
        for r in &result.runs {
            match r.byte.outcome {
                Outcome::Crash => assert!(r.output.is_none()),
                _ => {
                    let out = r.output.as_ref().expect("non-crash keeps its output");
                    // The scale byte's output must show the doubled mean.
                    if r.byte.byte_index == 5 {
                        assert!(out.mean != 20.0, "corrupted scale must move the mean");
                    }
                }
            }
        }
    }

    #[test]
    fn scan_equals_detailed_scan_collapsed() {
        let mut base = ScanConfig::new(TargetFilter::Any);
        base.flip = FlipMode::Mask(0xFF); // crashes, detections and benign bytes
        for (parallel, replay) in [(false, false), (false, true), (true, false), (true, true)] {
            let cfg = ScanConfig { parallel, replay, ..base.clone() };
            let plain = scan(&MiniFormatApp, &cfg).unwrap();
            assert!(plain.bytes.iter().any(|b| b.crash_message.is_some()));
            assert_eq!(
                plain,
                scan_detailed(&MiniFormatApp, &cfg).unwrap().into_result(),
                "parallel {parallel}, replay {replay}"
            );
        }
    }

    /// Outputs alive right now, and the most that ever were at once.
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

    /// An output that counts itself in [`LIVE`] for as long as it lives.
    struct Counted(Vec<u8>);

    impl Counted {
        fn new(bytes: Vec<u8>) -> Self {
            HIGH_WATER.fetch_max(LIVE.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            Counted(bytes)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Data, a [`COUNTING_HEADER`]-byte header (the penultimate
    /// write), a commit mark; analyze never fails, so every scanned
    /// byte yields exactly one [`Counted`] output.
    struct CountingApp;

    /// Far more header bytes than any host has executor threads.
    const COUNTING_HEADER: usize = 1024;

    impl FaultApp for CountingApp {
        type Output = Counted;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            let fd = fs.create("/c.dat", 0o644).map_err(|e| e.to_string())?;
            let end = COUNTING_HEADER as u64 + 8;
            fs.pwrite(fd, &[7u8; 8], COUNTING_HEADER as u64).map_err(|e| e.to_string())?;
            fs.pwrite(fd, &[1u8; COUNTING_HEADER], 0).map_err(|e| e.to_string())?;
            fs.pwrite(fd, b"C", end).map_err(|e| e.to_string())?;
            fs.release(fd).map_err(|e| e.to_string())
        }

        fn analyze(
            &self,
            fs: &dyn FileSystem,
            _golden: Option<&Counted>,
        ) -> Result<Counted, String> {
            fs.read_to_vec("/c.dat").map(Counted::new).map_err(|e| e.to_string())
        }

        fn classify(&self, golden: &Counted, faulty: &Counted) -> Outcome {
            if golden.0 == faulty.0 {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }

        fn name(&self) -> String {
            "COUNTING".into()
        }
    }

    /// The host-independent form of the scan's memory claim: `scan`
    /// holds one output per executor thread plus the golden, whatever
    /// the write's length; `scan_detailed` holds one per scanned byte.
    #[test]
    fn scan_drops_outputs_as_classified_detailed_scan_retains_them() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (parallel, bound) in [(false, 2), (true, threads + 1)] {
            let mut cfg = ScanConfig::new(TargetFilter::Any);
            cfg.parallel = parallel;
            HIGH_WATER.store(0, Ordering::SeqCst);
            let result = scan(&CountingApp, &cfg).unwrap();
            assert_eq!(result.tally.total(), COUNTING_HEADER as u64);
            assert_eq!(LIVE.load(Ordering::SeqCst), 0, "the golden goes with the scan");
            let high = HIGH_WATER.load(Ordering::SeqCst);
            assert!(high <= bound, "parallel {parallel}: {high} outputs alive at once");

            HIGH_WATER.store(0, Ordering::SeqCst);
            let detailed = scan_detailed(&CountingApp, &cfg).unwrap();
            assert_eq!(HIGH_WATER.load(Ordering::SeqCst), detailed.write_len + 1);
            assert_eq!(LIVE.load(Ordering::SeqCst), detailed.write_len);
            drop(detailed);
            assert_eq!(LIVE.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn scan_parallel_equals_serial() {
        let mut a = ScanConfig::new(TargetFilter::Any);
        a.parallel = false;
        let mut b = a.clone();
        b.parallel = true;
        let ra = scan(&MiniFormatApp, &a).unwrap();
        let rb = scan(&MiniFormatApp, &b).unwrap();
        assert_eq!(ra.tally, rb.tally);
        for (x, y) in ra.bytes.iter().zip(&rb.bytes) {
            assert_eq!(x.outcome, y.outcome);
        }
    }

    #[test]
    fn field_map_lookup_and_validation() {
        let map = mini_field_map();
        assert_eq!(map.lookup(0).unwrap().name, "Magic");
        assert_eq!(map.lookup(3).unwrap().name, "Magic");
        assert_eq!(map.lookup(4).unwrap().name, "Version");
        assert_eq!(map.lookup(15).unwrap().name, "Reserved");
        assert!(map.lookup(16).is_none());
        assert_eq!(map.covered_bytes(), 16);
        assert_eq!(map.find("Ver").len(), 1);

        let overlap = FieldMap::new(vec![
            FieldSpan { start: 0, end: 4, name: "A".into() },
            FieldSpan { start: 2, end: 6, name: "B".into() },
        ]);
        assert!(overlap.is_err());
        let empty = FieldMap::new(vec![FieldSpan { start: 4, end: 4, name: "E".into() }]);
        assert!(empty.is_err());
    }

    #[test]
    fn fields_with_outcome_filter() {
        let mut cfg = ScanConfig::new(TargetFilter::Any);
        cfg.parallel = false;
        cfg.flip = FlipMode::Mask(0xFF);
        let result = scan(&MiniFormatApp, &cfg).unwrap();
        let fields = attribute(&result, &mini_field_map());
        let crashy = fields_with_outcome(&fields, Outcome::Crash);
        assert!(crashy.contains(&"Magic"));
        assert!(!crashy.contains(&"Reserved"));
    }

    #[test]
    fn run_with_byte_fault_single() {
        let (_, _, _, golden) =
            locate_write(&MiniFormatApp, &TargetFilter::Any, WritePick::Penultimate).unwrap();
        // Corrupt magic byte 0 -> crash.
        let (o, out, msg) = run_with_byte_fault(
            &MiniFormatApp,
            &golden,
            &TargetFilter::Any,
            2,
            0,
            ByteFlip::Xor(0xFF),
        );
        assert_eq!(o, Outcome::Crash);
        assert!(out.is_none());
        assert!(msg.unwrap().contains("bad magic"));
        // Corrupt a reserved byte -> benign.
        let (o, out, _) = run_with_byte_fault(
            &MiniFormatApp,
            &golden,
            &TargetFilter::Any,
            2,
            10,
            ByteFlip::Xor(0xFF),
        );
        assert_eq!(o, Outcome::Benign);
        assert!(out.is_some());
    }

    #[test]
    fn flip_mode_variants() {
        let mut rng = Rng::seed_from(1);
        for _ in 0..50 {
            match FlipMode::TwoBitsRandom.to_flip(&mut rng) {
                ByteFlip::Xor(m) => assert_eq!(m.count_ones(), 2),
                other => panic!("unexpected {:?}", other),
            }
        }
        assert_eq!(FlipMode::Bit(3).to_flip(&mut rng), ByteFlip::Xor(0b1000));
        assert_eq!(FlipMode::Mask(0xA5).to_flip(&mut rng), ByteFlip::Xor(0xA5));
    }
}
