//! The QMCPACK workload as a [`FaultApp`] (paper §IV-C.2).
//!
//! One run mirrors the He example's two-series pipeline, split along
//! the two-phase [`FaultApp`] contract:
//!
//! * **produce** writes `He.s000.scalar.dat`, the walker checkpoint
//!   `He.s000.config.dat`, the golden-trajectory `He.s001.scalar.dat`
//!   and the run log through the filesystem under test — pure
//!   streaming of deterministic VMC/DMC products, so the write stream
//!   is data-independent and replayable.
//! * **analyze** re-examines the VMC→DMC handoff *from storage* — the
//!   channel where storage faults propagate into the physics. If the
//!   on-disk checkpoint differs from the golden walkers, DMC restarts
//!   from the stored (possibly corrupted) configuration and the
//!   re-derived `s001` series replaces the on-disk one, exactly as a
//!   monolithic execution would have written it. QMCA then parses
//!   both series and reports the DMC total energy.
//!
//! Classification (verbatim §IV-C.2): bitwise-compare
//! `He.s001.scalar.dat` with the golden file — identical ⇒ *benign*;
//! otherwise, if the final energy stays in `[-2.91, -2.90]` Ha ⇒
//! *SDC*; otherwise ⇒ *detected*. Unreadable/unparsable artifacts or
//! a DMC abort ⇒ *crash*.

use ffis_core::par::*;
use ffis_core::{FaultApp, Outcome, SubstepSpec};
use ffis_vfs::{FileSystem, FileSystemExt};

use crate::dmc::{run_dmc, DmcConfig};
use crate::qmca::{analyze, QmcaConfig, QmcaResult};
use crate::scalar::{read_scalar, render_checkpoint, render_scalar, write_scalar, ScalarRow};
use crate::vmc::{run_vmc, VmcConfig};
use crate::wavefunction::{TrialWavefunction, Walker};

/// VMC scalar output path.
pub const S000: &str = "/qmc/He.s000.scalar.dat";
/// Walker checkpoint path (the VMC→DMC handoff).
pub const CONFIG: &str = "/qmc/He.s000.config.dat";
/// DMC scalar output path (the classified artifact).
pub const S001: &str = "/qmc/He.s001.scalar.dat";
/// Run log path.
pub const LOG: &str = "/qmc/He.out";

/// File-name stem of restart segment `s`: the legacy `He` in the
/// single-restart regime, `He.g000`/`He.g001`/... otherwise.
fn seg_stem(s: usize, restarts: usize) -> String {
    if restarts == 1 {
        "He".into()
    } else {
        format!("He.g{:03}", s)
    }
}

/// VMC scalar path of restart segment `s` (collapses to [`S000`] in
/// the single-restart regime).
pub fn seg_s000(s: usize, restarts: usize) -> String {
    format!("/qmc/{}.s000.scalar.dat", seg_stem(s, restarts))
}

/// Walker-checkpoint path of restart segment `s` (collapses to
/// [`CONFIG`] in the single-restart regime).
pub fn seg_config(s: usize, restarts: usize) -> String {
    format!("/qmc/{}.s000.config.dat", seg_stem(s, restarts))
}

/// DMC scalar path of restart segment `s` (collapses to [`S001`] in
/// the single-restart regime).
pub fn seg_s001(s: usize, restarts: usize) -> String {
    format!("/qmc/{}.s001.scalar.dat", seg_stem(s, restarts))
}

/// Walker-checkpoint path of DMC restart block `b` inside segment `s`.
/// Block 0 restarts from the VMC→DMC handoff itself ([`seg_config`]);
/// later blocks restart from the mid-series checkpoints the DMC run
/// drops between blocks.
pub fn seg_block_config(s: usize, b: usize, restarts: usize) -> String {
    if b == 0 {
        seg_config(s, restarts)
    } else {
        format!("/qmc/{}.s001.config.b{:03}.dat", seg_stem(s, restarts), b)
    }
}

/// DMC scalar path of restart block `b` inside segment `s` (collapses
/// to [`seg_s001`] in the single-block regime, where the series is one
/// file).
pub fn seg_block_s001(s: usize, b: usize, restarts: usize, blocks: usize) -> String {
    if blocks == 1 {
        seg_s001(s, restarts)
    } else {
        format!("/qmc/{}.s001.b{:03}.scalar.dat", seg_stem(s, restarts), b)
    }
}

/// QMCPACK workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct QmcConfig {
    /// Trial wavefunction parameters.
    pub wavefunction: TrialWavefunction,
    /// VMC series parameters.
    pub vmc: VmcConfig,
    /// DMC series parameters.
    pub dmc: DmcConfig,
    /// QMCA analysis parameters.
    pub qmca: QmcaConfig,
    /// SDC window for the final energy (paper: `[-2.91, -2.90]`).
    pub sdc_window: (f64, f64),
    /// Restart tolerance: minimum fraction of checkpoint walkers that
    /// must be physical for DMC to proceed (below it, abort = crash).
    pub min_restart_fraction: f64,
    /// Number of independent VMC→DMC restart segments
    /// (`He.g000`/`He.g001`/... file families, each with its own
    /// scalar series and walker checkpoint). `1` (the default) keeps
    /// the legacy `He.*` single-segment layout byte for byte.
    /// Multi-restart runs declare one analyze sub-step per segment,
    /// so campaigns memoize the checkpoint restarts a fault cannot
    /// reach (incremental analyze).
    pub restarts: usize,
    /// Number of DMC restart blocks per segment: the `s001` series is
    /// split into `dmc_blocks` back-to-back DMC runs, each restarting
    /// from a walker checkpoint dropped by its predecessor (block 0
    /// restarts from the VMC→DMC handoff). `1` (the default) keeps the
    /// legacy single-series layout byte for byte. With more blocks,
    /// each block is its own analyze sub-step, so a tampered mid-series
    /// checkpoint re-derives `steps/dmc_blocks` DMC steps instead of
    /// the whole series — the cold-analyze cost a dirty restart pays.
    pub dmc_blocks: usize,
}

impl Default for QmcConfig {
    fn default() -> Self {
        QmcConfig {
            wavefunction: TrialWavefunction::default(),
            // Series lengths sized so that (i) QMCA's 30% cut fully
            // removes the VMC→DMC projection transient, (ii) the
            // statistical error (~1.5 mHa) keeps the golden energy
            // inside [-2.91, -2.90], and (iii) the write-instance
            // population splits ~30% s000 / ~60% s001 — the
            // benign/SDC balance of Figure 7's QMC columns.
            vmc: VmcConfig { walkers: 384, warmup: 300, steps: 2000, ..Default::default() },
            dmc: DmcConfig { target_walkers: 384, warmup: 0, steps: 4000, ..Default::default() },
            qmca: QmcaConfig { equilibration_fraction: 0.3, min_rows: 50 },
            sdc_window: (-2.91, -2.90),
            min_restart_fraction: 0.25,
            restarts: 1,
            dmc_blocks: 1,
        }
    }
}

/// DMC parameters of restart block `b`: the configured step budget is
/// split evenly across blocks (remainder to the early ones), only
/// block 0 pays the warmup (later blocks continue an equilibrated
/// ensemble), and each block gets an independent RNG stream. Collapses
/// to `config.dmc` verbatim in the single-block regime. Used both for
/// the golden chain and for checkpoint re-derivation, so an untampered
/// block checkpoint always reproduces its golden rows.
fn block_dmc_cfg(config: &QmcConfig, b: usize) -> DmcConfig {
    let blocks = config.dmc_blocks.max(1);
    DmcConfig {
        warmup: if b == 0 { config.dmc.warmup } else { 0 },
        steps: config.dmc.steps / blocks + usize::from(b < config.dmc.steps % blocks),
        seed: config.dmc.seed.wrapping_add(0xB10C * b as u64),
        ..config.dmc
    }
}

/// Classification artifacts.
#[derive(Debug, Clone)]
pub struct QmcOutput {
    /// Raw bytes of segment 0's `s001` scalar file (the legacy
    /// bitwise-comparison artifact).
    pub s001_bytes: Vec<u8>,
    /// QMCA result on segment 0's DMC series.
    pub qmca: QmcaResult,
    /// `(s001 bytes, QMCA result)` of restart segments `1..` (empty
    /// in the single-restart regime).
    pub extra: Vec<(Vec<u8>, QmcaResult)>,
}

/// Deterministic products of one DMC restart block, computed once
/// (physics is not the experiment's variable — the storage path is).
struct Block {
    /// The walker ensemble this block restarts from, serialized —
    /// block 0's is the VMC→DMC handoff, later blocks' are the
    /// mid-series checkpoints the previous block dropped.
    checkpoint_bytes: Vec<u8>,
    /// Memoized DMC rows for the untampered checkpoint.
    golden_rows: Vec<ScalarRow>,
}

/// Deterministic VMC products of one restart segment.
struct Segment {
    s000_text: String,
    /// The DMC series, one restart block at a time (exactly one block
    /// in the legacy regime).
    blocks: Vec<Block>,
}

/// The QMCPACK application.
pub struct QmcApp {
    config: QmcConfig,
    /// One set of golden VMC/DMC products per restart segment.
    segments: Vec<Segment>,
}

impl QmcApp {
    /// Build the app, running VMC and the golden DMC once per restart
    /// segment — side by side, kept in segment order.
    pub fn new(mut config: QmcConfig) -> Self {
        config.restarts = config.restarts.max(1);
        config.dmc_blocks = config.dmc_blocks.max(1);
        let segments =
            (0..config.restarts).into_par_iter().map(|s| Self::segment(&config, s)).collect();
        QmcApp { config, segments }
    }

    /// The golden VMC/DMC products of restart segment `s` alone.
    fn segment(config: &QmcConfig, s: usize) -> Segment {
        // Segment 0 keeps the configured seed (the single-restart
        // regime stays byte-identical); later segments shift it for
        // independent trajectories.
        let vmc_cfg =
            VmcConfig { seed: config.vmc.seed.wrapping_add(0x0D5C * s as u64), ..config.vmc };
        let vmc = run_vmc(&config.wavefunction, &vmc_cfg);
        // Chain the DMC blocks: each restarts from the walker ensemble
        // its predecessor ended on, exactly like a checkpointed
        // production series.
        let mut start = vmc.walkers;
        let mut blocks = Vec::with_capacity(config.dmc_blocks);
        for b in 0..config.dmc_blocks {
            let checkpoint_bytes = render_checkpoint(&start);
            let dmc = run_dmc(&config.wavefunction, &start, &block_dmc_cfg(config, b))
                .expect("golden DMC must run");
            start = dmc.final_walkers;
            blocks.push(Block { checkpoint_bytes, golden_rows: dmc.rows });
        }
        Segment { s000_text: render_scalar(&vmc.rows), blocks }
    }

    /// Paper-defaults app.
    pub fn paper_default() -> Self {
        Self::new(QmcConfig::default())
    }

    /// Number of restart segments this app runs.
    pub fn restarts(&self) -> usize {
        self.config.restarts
    }

    /// Table II row.
    pub fn describe() -> (&'static str, &'static str, &'static str) {
        (
            "QMCPACK",
            "Quantum Chemistry",
            "Quantum Monte Carlo simulation for electronic structures of molecules",
        )
    }

    /// The golden DMC energy of segment 0 (for tests and reporting),
    /// computed over the whole series — all restart blocks in order.
    pub fn golden_energy(&self) -> f64 {
        let rows: Vec<ScalarRow> =
            self.segments[0].blocks.iter().flat_map(|b| b.golden_rows.iter().copied()).collect();
        analyze(&rows, &self.config.qmca).expect("golden analyzable").energy
    }

    /// Fault-target filter scoping injections to the walker checkpoint
    /// (`He.s000.config.dat`) — the VMC→DMC handoff where storage
    /// faults propagate into the physics. At the read site this is the
    /// restart channel: a corrupted checkpoint *read* re-derives the
    /// whole DMC series even though the stored bytes are pristine.
    pub fn checkpoint_filter() -> ffis_core::TargetFilter {
        ffis_core::TargetFilter::PathContains("config".into())
    }

    /// Fault-target filter scoping injections to the scalar series
    /// files (`He.s00*.scalar.dat`) — the QMCA analysis inputs.
    pub fn series_filter() -> ffis_core::TargetFilter {
        ffis_core::TargetFilter::PathContains(".scalar.dat".into())
    }

    fn block_rows_for(
        &self,
        s: usize,
        b: usize,
        checkpoint: &[u8],
    ) -> Result<Vec<ScalarRow>, String> {
        if checkpoint == self.segments[s].blocks[b].checkpoint_bytes.as_slice() {
            // Untampered checkpoint: the deterministic DMC trajectory
            // is already known (pure memoization).
            return Ok(self.segments[s].blocks[b].golden_rows.clone());
        }
        let walkers = crate::scalar::parse_checkpoint(checkpoint)?;
        // Defensive restart: drop unphysical walkers, abort when too
        // few survive.
        let physical: Vec<Walker> = walkers.iter().copied().filter(Walker::is_physical).collect();
        if (physical.len() as f64) < self.config.min_restart_fraction * walkers.len() as f64
            || physical.is_empty()
        {
            return Err(format!(
                "checkpoint restart failed: only {}/{} walkers physical",
                physical.len(),
                walkers.len()
            ));
        }
        let dmc = run_dmc(&self.config.wavefunction, &physical, &block_dmc_cfg(&self.config, b))
            .map_err(|e| e.to_string())?;
        Ok(dmc.rows)
    }

    /// The analyze pass of one DMC restart block: re-examine its
    /// restart checkpoint from storage and return the block's (possibly
    /// re-derived) scalar text. This single function is the body of
    /// the per-block analyze sub-step and the unit both
    /// `segment_analyze` and the whole `analyze` iterate, so the memo
    /// layer's stream-identity law holds by construction. Block 0 also
    /// validates the segment's VMC scalar (the only block that reads
    /// it), preserving the legacy read order config → s001 → s000 in
    /// the single-block regime.
    fn block_analyze(&self, fs: &dyn FileSystem, s: usize, b: usize) -> Result<Vec<u8>, String> {
        let r = self.config.restarts;
        // The restart checkpoint, re-examined from storage: an
        // untampered checkpoint means the on-disk block scalar (however
        // the fault may have mauled *it*) is the classified artifact; a
        // tampered checkpoint means DMC restarts from the stored
        // walkers — physicality checks, abort-on-too-few and all —
        // and the re-derived block is what a full execution would
        // have written.
        let checkpoint = fs.read_to_vec(&seg_block_config(s, b, r)).map_err(|e| e.to_string())?;
        let bytes = if checkpoint == self.segments[s].blocks[b].checkpoint_bytes {
            fs.read_to_vec(&seg_block_s001(s, b, r, self.config.dmc_blocks))
                .map_err(|e| e.to_string())?
        } else {
            render_scalar(&self.block_rows_for(s, b, &checkpoint)?).into_bytes()
        };
        if b == 0 {
            read_scalar(fs, &seg_s000(s, r), self.config.qmca.min_rows)?;
        }
        Ok(bytes)
    }

    /// QMCA over one segment's block scalar texts: every block must
    /// parse (headers and step indices restart per block, so blocks
    /// are parsed separately and their rows concatenated); the DMC
    /// energy over the whole series is the reported quantity. The
    /// returned bytes are the concatenated block texts — the bitwise
    /// classification artifact.
    fn segment_qmca(&self, texts: &[Vec<u8>]) -> Result<(Vec<u8>, QmcaResult), String> {
        let min_rows = self.config.qmca.min_rows;
        if texts.len() == 1 {
            // Single-block series: the legacy path, damage threshold
            // and all.
            let parsed =
                crate::scalar::parse_scalar(&String::from_utf8_lossy(&texts[0]), min_rows)?;
            let qmca = analyze(&parsed.rows, &self.config.qmca)?;
            return Ok((texts[0].clone(), qmca));
        }
        let mut rows = Vec::new();
        for t in texts {
            rows.extend(crate::scalar::parse_scalar(&String::from_utf8_lossy(t), 1)?.rows);
        }
        if rows.len() < min_rows {
            return Err(format!(
                "blocked series too damaged: {} parsable rows (< {})",
                rows.len(),
                min_rows
            ));
        }
        let qmca = analyze(&rows, &self.config.qmca)?;
        Ok((texts.concat(), qmca))
    }

    /// The whole analyze pass of one restart segment: every restart
    /// block in order, then QMCA over the assembled series.
    fn segment_analyze(
        &self,
        fs: &dyn FileSystem,
        s: usize,
    ) -> Result<(Vec<u8>, QmcaResult), String> {
        let texts = (0..self.config.dmc_blocks)
            .map(|b| self.block_analyze(fs, s, b))
            .collect::<Result<Vec<_>, _>>()?;
        self.segment_qmca(&texts)
    }
}

/// Serialize one restart segment's analysis as a memoizable
/// analyze-sub-step artifact (length-prefixed s001 bytes + the QMCA
/// statistics).
fn encode_segment(s001_bytes: &[u8], qmca: &QmcaResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(s001_bytes.len() + 32);
    out.extend_from_slice(&(s001_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(s001_bytes);
    out.extend_from_slice(&qmca.energy.to_le_bytes());
    out.extend_from_slice(&qmca.error.to_le_bytes());
    out.extend_from_slice(&(qmca.rows_used as u64).to_le_bytes());
    out
}

/// Inverse of [`encode_segment`].
fn decode_segment(b: &[u8]) -> Result<(Vec<u8>, QmcaResult), String> {
    let err = || "malformed segment artifact".to_string();
    let len = u64::from_le_bytes(b.get(..8).ok_or_else(err)?.try_into().unwrap()) as usize;
    // `len` is the artifact's word (a memo store can be a file): an
    // end past the slice is malformed, one past `usize` as well.
    let at = len.checked_add(8).ok_or_else(err)?;
    let s001_bytes = b.get(8..at).ok_or_else(err)?.to_vec();
    if b.len() != at + 24 {
        return Err(err());
    }
    let qmca = QmcaResult {
        energy: f64::from_le_bytes(b[at..at + 8].try_into().unwrap()),
        error: f64::from_le_bytes(b[at + 8..at + 16].try_into().unwrap()),
        rows_used: u64::from_le_bytes(b[at + 16..at + 24].try_into().unwrap()) as usize,
    };
    Ok((s001_bytes, qmca))
}

impl FaultApp for QmcApp {
    type Output = QmcOutput;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        fs.mkdir("/qmc", 0o755).map_err(|e| e.to_string())?;
        let r = self.config.restarts;

        for (s, seg) in self.segments.iter().enumerate() {
            // Series 000: VMC scalar.
            {
                let mut f =
                    ffis_vfs::BufFile::create(fs, &seg_s000(s, r)).map_err(|e| e.to_string())?;
                f.write_all(seg.s000_text.as_bytes()).map_err(|e| e.to_string())?;
                f.close().map_err(|e| e.to_string())?;
            }

            // Series 001, one restart block at a time: each block's
            // walker checkpoint (block 0's is the VMC→DMC handoff),
            // then its scalar rows, streamed from the memoized golden
            // trajectory. Write-stream data independence: produce
            // never derives bytes from a filesystem read-back — the
            // restart through the (possibly corrupted) on-disk
            // checkpoint is re-examined in [`FaultApp::analyze`],
            // which re-derives a block's DMC rows from the stored
            // walkers when they differ from the golden ones.
            for (b, blk) in seg.blocks.iter().enumerate() {
                fs.write_file_chunked(
                    &seg_block_config(s, b, r),
                    &blk.checkpoint_bytes,
                    ffis_vfs::BLOCK_SIZE,
                )
                .map_err(|e| e.to_string())?;
                write_scalar(
                    fs,
                    &seg_block_s001(s, b, r, self.config.dmc_blocks),
                    &blk.golden_rows,
                )?;
            }
        }
        fs.write_file(LOG, b"QMCPACK-lite: VMC+DMC complete\n").map_err(|e| e.to_string())
    }

    fn analyze(
        &self,
        fs: &dyn FileSystem,
        _golden: Option<&QmcOutput>,
    ) -> Result<QmcOutput, String> {
        // Segments in order — identical, read for read, to running the
        // per-segment sub-steps and assembling them.
        let (s001_bytes, qmca) = self.segment_analyze(fs, 0)?;
        let mut extra = Vec::with_capacity(self.config.restarts - 1);
        for s in 1..self.config.restarts {
            extra.push(self.segment_analyze(fs, s)?);
        }
        Ok(QmcOutput { s001_bytes, qmca, extra })
    }

    fn analyze_substeps(&self) -> Option<Vec<SubstepSpec>> {
        let (r, bc) = (self.config.restarts, self.config.dmc_blocks);
        if r == 1 && bc == 1 {
            return None;
        }
        if bc == 1 {
            // Segment-grained sub-steps: the legacy multi-restart
            // contract, names and artifact format unchanged (so memo
            // stores never see two formats under one key).
            return Some(
                (0..r)
                    .map(|s| {
                        // Everything segment_analyze may read; the run
                        // log has no consumer.
                        SubstepSpec::new(
                            seg_stem(s, r),
                            vec![seg_config(s, r), seg_s001(s, r), seg_s000(s, r)],
                        )
                    })
                    .collect(),
            );
        }
        // Block-grained sub-steps, indexed `s * dmc_blocks + b`: a
        // tampered mid-series checkpoint dirties one block's sub-step
        // and re-derives steps/dmc_blocks DMC steps, not the series.
        // Only block 0 reads the segment's VMC scalar.
        Some(
            (0..r)
                .flat_map(|s| {
                    (0..bc).map(move |b| {
                        let mut reads =
                            vec![seg_block_config(s, b, r), seg_block_s001(s, b, r, bc)];
                        if b == 0 {
                            reads.push(seg_s000(s, r));
                        }
                        SubstepSpec::new(format!("{}.b{:03}", seg_stem(s, r), b), reads)
                    })
                })
                .collect(),
        )
    }

    fn analyze_substep(
        &self,
        fs: &dyn FileSystem,
        index: usize,
        _golden: Option<&QmcOutput>,
    ) -> Result<Vec<u8>, String> {
        let (r, bc) = (self.config.restarts, self.config.dmc_blocks);
        if index >= r * bc {
            return Err(format!("no restart sub-step {}", index));
        }
        if bc == 1 {
            // Legacy artifact: length-prefixed s001 bytes + QMCA stats.
            let (s001_bytes, qmca) = self.segment_analyze(fs, index)?;
            return Ok(encode_segment(&s001_bytes, &qmca));
        }
        // Block artifact: the raw scalar text (QMCA runs at assembly,
        // where all of a segment's blocks are in hand).
        self.block_analyze(fs, index / bc, index % bc)
    }

    fn assemble(
        &self,
        artifacts: &[Vec<u8>],
        _golden: Option<&QmcOutput>,
    ) -> Result<QmcOutput, String> {
        let (r, bc) = (self.config.restarts, self.config.dmc_blocks);
        if artifacts.len() != r * bc {
            return Err(format!("expected {} sub-step artifacts, got {}", r * bc, artifacts.len()));
        }
        let mut segments = if bc == 1 {
            artifacts.iter().map(|a| decode_segment(a)).collect::<Result<Vec<_>, _>>()?
        } else {
            artifacts
                .chunks(bc)
                .map(|texts| self.segment_qmca(texts))
                .collect::<Result<Vec<_>, _>>()?
        };
        let extra = segments.split_off(1);
        let (s001_bytes, qmca) = segments.pop().unwrap();
        Ok(QmcOutput { s001_bytes, qmca, extra })
    }

    /// Produce streams the VMC/DMC products from memoized golden
    /// state and never reads through the filesystem — the VMC→DMC
    /// handoff is re-examined *from storage* inside
    /// [`FaultApp::analyze`] — so every read-site fault (checkpoint
    /// restarts included) is an analyze-phase fault.
    fn produce_read_count(&self) -> Option<u64> {
        Some(0)
    }

    fn classify(&self, golden: &QmcOutput, faulty: &QmcOutput) -> Outcome {
        // Segment 0 (the legacy artifact) first, then the extra
        // restarts in order: the first differing s001 series decides
        // via the paper's energy-window test on that segment.
        let (lo, hi) = self.config.sdc_window;
        let window = |e: f64| if e >= lo && e <= hi { Outcome::Sdc } else { Outcome::Detected };
        if golden.s001_bytes != faulty.s001_bytes {
            return window(faulty.qmca.energy);
        }
        for ((gb, _), (fb, fq)) in golden.extra.iter().zip(&faulty.extra) {
            if gb != fb {
                return window(fq.energy);
            }
        }
        if golden.extra.len() != faulty.extra.len() {
            return Outcome::Detected;
        }
        Outcome::Benign
    }

    fn name(&self) -> String {
        "QMC".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_vfs::{FfisFs, MemFs, TraceRecorder};
    use std::sync::Arc;

    #[test]
    fn a_segment_artifact_with_a_hostile_length_is_malformed_not_a_panic() {
        let qmca = QmcaResult { energy: -0.5, error: 1e-3, rows_used: 7 };
        let good = encode_segment(b"# index LocalEnergy\n0 -0.5\n", &qmca);
        assert_eq!(decode_segment(&good).unwrap().0, b"# index LocalEnergy\n0 -0.5\n");
        let len = good.len() as u64 - 32;
        for prefix in [u64::MAX, u64::MAX - 7, len + 1] {
            let mut bad = good.clone();
            bad[..8].copy_from_slice(&prefix.to_le_bytes());
            assert_eq!(decode_segment(&bad).unwrap_err(), "malformed segment artifact");
        }
    }

    #[test]
    fn segments_built_side_by_side_are_the_segments_built_in_order() {
        let app = QmcApp::new(QmcConfig { restarts: 3, ..small_app().config });
        let config = app.config;
        let in_order =
            QmcApp { config, segments: (0..3).map(|s| QmcApp::segment(&config, s)).collect() };
        // Every mutating op `produce` issues, payloads included.
        let [built, serial] = [app, in_order].map(|app| {
            let ffs = FfisFs::mount(Arc::new(MemFs::new()));
            let recorder = Arc::new(TraceRecorder::new());
            ffs.attach(recorder.clone());
            app.produce(&*ffs).unwrap();
            ffs.unmount();
            recorder.take_ops()
        });
        assert_eq!(built, serial);
    }

    fn small_app() -> QmcApp {
        QmcApp::new(QmcConfig {
            vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
            dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
            qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
            ..Default::default()
        })
    }

    #[test]
    fn golden_run_produces_all_files() {
        let app = small_app();
        let fs = MemFs::new();
        let out = app.run(&fs).unwrap();
        for p in [S000, CONFIG, S001, LOG] {
            assert!(fs.exists(p), "{} missing", p);
        }
        assert!(!out.s001_bytes.is_empty());
        assert!(out.qmca.energy < -2.5 && out.qmca.energy > -3.2);
    }

    #[test]
    fn paper_default_energy_in_sdc_window() {
        // The whole classification scheme hinges on the golden DMC
        // energy sitting inside [-2.91, -2.90] (exact: -2.90372).
        let app = QmcApp::paper_default();
        let e = app.golden_energy();
        assert!((-2.91..=-2.90).contains(&e), "golden DMC energy {} outside the paper window", e);
    }

    #[test]
    fn runs_are_bitwise_reproducible() {
        let app = small_app();
        let a = app.run(&MemFs::new()).unwrap();
        let b = app.run(&MemFs::new()).unwrap();
        assert_eq!(a.s001_bytes, b.s001_bytes);
        assert_eq!(app.classify(&a, &b), Outcome::Benign);
    }

    #[test]
    fn classify_uses_energy_window() {
        let app = small_app();
        let golden = app.run(&MemFs::new()).unwrap();
        let mut in_window = golden.clone();
        in_window.s001_bytes.push(b' ');
        in_window.qmca.energy = -2.905;
        assert_eq!(app.classify(&golden, &in_window), Outcome::Sdc);
        let mut out_of_window = golden.clone();
        out_of_window.s001_bytes.push(b' ');
        out_of_window.qmca.energy = -2.87;
        assert_eq!(app.classify(&golden, &out_of_window), Outcome::Detected);
        let mut way_off = golden.clone();
        way_off.s001_bytes.push(b' ');
        way_off.qmca.energy = -2.92;
        assert_eq!(app.classify(&golden, &way_off), Outcome::Detected);
    }

    #[test]
    fn corrupted_checkpoint_changes_trajectory_but_not_physics() {
        // Silent coordinate corruption (still physical) must produce a
        // *different* s001 whose energy is still in the window — the
        // SDC propagation path.
        use ffis_core::{ByteFaultInjector, ByteFlip, TargetFilter};
        use std::sync::Arc;

        let app = small_app();
        let golden = app.run(&MemFs::new()).unwrap();

        // Flip a low mantissa bit of walker coordinates (byte 18 of the
        // first checkpoint chunk: inside walker 0's r1[0]).
        let inj = Arc::new(ByteFaultInjector::new(
            TargetFilter::PathContains("config".into()),
            1,
            18,
            ByteFlip::Xor(0x10),
        ));
        let ffs = ffis_vfs::FfisFs::mount(Arc::new(MemFs::new()));
        ffs.attach(inj.clone());
        let faulty = app.run(&*ffs).unwrap();
        assert!(inj.record().is_some(), "fault must fire");
        assert_ne!(golden.s001_bytes, faulty.s001_bytes, "trajectory must change");
        // Self-correcting projector: energy lands near the golden one.
        assert!(
            (faulty.qmca.energy - golden.qmca.energy).abs() < 0.05,
            "{} vs {}",
            faulty.qmca.energy,
            golden.qmca.energy
        );
    }

    #[test]
    fn destroyed_checkpoint_is_a_crash() {
        use ffis_core::{ArmedInjector, FaultModel, FaultSignature, TargetFilter};
        use std::sync::Arc;

        let app = small_app();
        // Drop the checkpoint's first chunk: magic gone -> restart fails.
        let sig = FaultSignature {
            model: FaultModel::dropped_write(),
            primitive: ffis_vfs::Primitive::Write,
            target: TargetFilter::PathContains("config".into()),
        };
        let inj = Arc::new(ArmedInjector::new(sig, 1, 1));
        let ffs = ffis_vfs::FfisFs::mount(Arc::new(MemFs::new()));
        ffs.attach(inj);
        let r = app.run(&*ffs);
        assert!(r.is_err(), "dropped checkpoint head must abort the run");
    }

    #[test]
    fn describe_matches_table_ii() {
        let (name, domain, _) = QmcApp::describe();
        assert_eq!(name, "QMCPACK");
        assert_eq!(domain, "Quantum Chemistry");
    }

    #[test]
    fn single_restart_declares_no_substeps() {
        assert_eq!(seg_s000(0, 1), S000);
        assert_eq!(seg_config(0, 1), CONFIG);
        assert_eq!(seg_s001(0, 1), S001);
        assert!(small_app().analyze_substeps().is_none());
    }

    #[test]
    fn multi_restart_substeps_match_whole_analyze() {
        let app = QmcApp::new(QmcConfig {
            vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
            dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
            qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
            restarts: 3,
            ..Default::default()
        });
        let specs = app.analyze_substeps().unwrap();
        assert_eq!(specs.len(), 3);
        assert!(specs[1].reads("/qmc/He.g001.s000.config.dat"));
        assert!(!specs[1].reads("/qmc/He.g000.s000.config.dat"));

        let fs = MemFs::new();
        app.produce(&fs).unwrap();
        for p in [
            "/qmc/He.g000.s000.scalar.dat",
            "/qmc/He.g002.s001.scalar.dat",
            "/qmc/He.g001.s000.config.dat",
            LOG,
        ] {
            assert!(fs.exists(p), "{} missing", p);
        }
        let whole = app.analyze(&fs, None).unwrap();
        assert_eq!(whole.extra.len(), 2);
        // Distinct seeds: the segments carry different trajectories.
        assert_ne!(whole.s001_bytes, whole.extra[0].0);

        let arts: Vec<Vec<u8>> =
            (0..3).map(|s| app.analyze_substep(&fs, s, None).unwrap()).collect();
        let asm = app.assemble(&arts, None).unwrap();
        assert_eq!(whole.s001_bytes, asm.s001_bytes);
        assert_eq!(whole.qmca.energy, asm.qmca.energy);
        for ((gb, gq), (ab, aq)) in whole.extra.iter().zip(&asm.extra) {
            assert_eq!(gb, ab);
            assert_eq!(gq.energy, aq.energy);
        }
        assert_eq!(app.classify(&whole, &asm), Outcome::Benign);
    }

    #[test]
    fn single_block_layout_is_byte_identical_to_legacy() {
        // dmc_blocks: 1 must not shift a single byte: same files, same
        // contents, no block-suffixed paths.
        let app = small_app();
        let fs = MemFs::new();
        app.produce(&fs).unwrap();
        assert!(fs.exists(CONFIG) && fs.exists(S001));
        assert!(!fs.exists("/qmc/He.s001.config.b001.dat"));
        assert!(!fs.exists("/qmc/He.s001.b000.scalar.dat"));
        assert_eq!(seg_block_config(0, 0, 1), CONFIG);
        assert_eq!(seg_block_s001(0, 0, 1, 1), S001);
    }

    #[test]
    fn blocked_dmc_substeps_match_whole_analyze() {
        let app = QmcApp::new(QmcConfig {
            vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
            dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
            qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
            restarts: 2,
            dmc_blocks: 3,
            ..Default::default()
        });
        let specs = app.analyze_substeps().unwrap();
        assert_eq!(specs.len(), 6);
        // Block granularity: block 1's spec sees its own checkpoint
        // and scalar, not block 0's; only block 0 reads the VMC s000.
        assert!(specs[1].reads("/qmc/He.g000.s001.config.b001.dat"));
        assert!(specs[1].reads("/qmc/He.g000.s001.b001.scalar.dat"));
        assert!(!specs[1].reads("/qmc/He.g000.s000.config.dat"));
        assert!(!specs[1].reads("/qmc/He.g000.s000.scalar.dat"));
        assert!(specs[0].reads("/qmc/He.g000.s000.scalar.dat"));
        assert!(specs[3].reads("/qmc/He.g001.s000.config.dat"));

        let fs = MemFs::new();
        app.produce(&fs).unwrap();
        for p in [
            "/qmc/He.g000.s000.config.dat",
            "/qmc/He.g000.s001.config.b002.dat",
            "/qmc/He.g001.s001.b000.scalar.dat",
            "/qmc/He.g001.s001.b002.scalar.dat",
        ] {
            assert!(fs.exists(p), "{} missing", p);
        }
        let whole = app.analyze(&fs, None).unwrap();
        assert_eq!(whole.extra.len(), 1);

        let arts: Vec<Vec<u8>> =
            (0..6).map(|i| app.analyze_substep(&fs, i, None).unwrap()).collect();
        let asm = app.assemble(&arts, None).unwrap();
        assert_eq!(whole.s001_bytes, asm.s001_bytes);
        assert_eq!(whole.qmca.energy, asm.qmca.energy);
        assert_eq!(whole.qmca.rows_used, asm.qmca.rows_used);
        assert_eq!(whole.extra[0].0, asm.extra[0].0);
        assert_eq!(app.classify(&whole, &asm), Outcome::Benign);
    }

    #[test]
    fn tampered_block_checkpoint_rederives_only_that_block() {
        let app = QmcApp::new(QmcConfig {
            vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
            dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
            qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
            dmc_blocks: 2,
            ..Default::default()
        });
        let fs = MemFs::new();
        app.produce(&fs).unwrap();
        let golden = app.analyze(&fs, None).unwrap();

        // Flip a walker-coordinate bit in block 1's mid-series
        // checkpoint (past the 16-byte header).
        let path = "/qmc/He.s001.config.b001.dat";
        let mut bytes = fs.read_to_vec(path).unwrap();
        bytes[18] ^= 0x10;
        fs.write_file(path, &bytes).unwrap();

        let faulty = app.analyze(&fs, None).unwrap();
        let b0_len = fs.read_to_vec("/qmc/He.s001.b000.scalar.dat").unwrap().len();
        // Block 0's prefix of the classified artifact is untouched;
        // block 1 re-derived from the tampered walkers and diverged.
        assert_eq!(golden.s001_bytes[..b0_len], faulty.s001_bytes[..b0_len]);
        assert_ne!(golden.s001_bytes[b0_len..], faulty.s001_bytes[b0_len..]);
        assert_ne!(app.classify(&golden, &faulty), Outcome::Benign);
    }

    #[test]
    fn multi_restart_classify_keys_on_first_differing_segment() {
        let app = QmcApp::new(QmcConfig {
            vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
            dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
            qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
            restarts: 2,
            ..Default::default()
        });
        let golden = app.run(&MemFs::new()).unwrap();
        let mut faulty = golden.clone();
        faulty.extra[0].0.push(b' ');
        faulty.extra[0].1.energy = -2.905;
        assert_eq!(app.classify(&golden, &faulty), Outcome::Sdc);
        faulty.extra[0].1.energy = -2.8;
        assert_eq!(app.classify(&golden, &faulty), Outcome::Detected);
    }

    #[test]
    fn target_filters_address_the_right_artifacts() {
        let cp = QmcApp::checkpoint_filter();
        assert!(cp.matches(Some(CONFIG)));
        assert!(!cp.matches(Some(S000)));
        assert!(!cp.matches(Some(S001)));
        let series = QmcApp::series_filter();
        assert!(series.matches(Some(S000)));
        assert!(series.matches(Some(S001)));
        assert!(!series.matches(Some(CONFIG)));
        assert!(!series.matches(Some(LOG)));
    }
}
