//! Equivalence guarantees for the checkpointed replay fast path: on
//! all three paper workloads (Nyx, QMCPACK, Montage), the golden-trace
//! replay engine must reproduce the legacy full-rerun scan and
//! campaign *byte for byte* — same outcomes, same injection records,
//! same crash messages, same application outputs — while skipping the
//! redundant fault-free application work. The fallback paths are
//! exercised too: every fallback must carry its reason in
//! [`ExecutionMode::FullRerun`], never silently.

use ffis_core::prelude::*;
use ffis_core::{scan_detailed, FlipMode, ReplayOptReport, ScanConfig, WritePick};
use ffis_vfs::{FfisFs, FileSystem, MemFs, TraceOp, TraceRecorder};
use montage_sim::MontageApp;
use nyx_sim::{FieldConfig, NyxApp, NyxConfig};
use qmc_sim::{DmcConfig, QmcApp, QmcConfig, QmcaConfig, VmcConfig};

fn nyx() -> NyxApp {
    NyxApp::new(NyxConfig {
        field: FieldConfig { n: 16, ..Default::default() },
        ..Default::default()
    })
}

fn qmc_config() -> QmcConfig {
    QmcConfig {
        vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
        dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
        qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
        ..Default::default()
    }
}

fn qmc() -> QmcApp {
    QmcApp::new(qmc_config())
}

fn scan_cfg(replay: bool, stride: usize) -> ScanConfig {
    let mut cfg = ScanConfig::new(TargetFilter::PathSuffix(".h5".into()));
    cfg.stride = stride;
    cfg.flip = FlipMode::TwoBitsRandom;
    cfg.replay = replay;
    cfg
}

#[test]
fn replay_scan_equals_legacy_scan_bytewise() {
    let a = nyx();
    let fast = scan_detailed(&a, &scan_cfg(true, 8)).unwrap();
    let slow = scan_detailed(&a, &scan_cfg(false, 8)).unwrap();
    assert!(fast.used_replay(), "two-phase apps engage the fast path by construction");
    assert!(!slow.used_replay());

    assert_eq!(fast.write_offset, slow.write_offset);
    assert_eq!(fast.write_len, slow.write_len);
    assert_eq!(fast.write_instance, slow.write_instance);
    assert_eq!(fast.tally, slow.tally);
    assert_eq!(fast.runs.len(), slow.runs.len());
    for (f, s) in fast.runs.iter().zip(&slow.runs) {
        assert_eq!(f.byte.byte_index, s.byte.byte_index);
        assert_eq!(f.byte.file_offset, s.byte.file_offset);
        assert_eq!(
            f.byte.outcome, s.byte.outcome,
            "byte {} diverged: replay={:?} legacy={:?}",
            f.byte.byte_index, f.byte.outcome, s.byte.outcome
        );
        assert_eq!(f.byte.crash_message, s.byte.crash_message, "byte {}", f.byte.byte_index);
        // The propagated faulty outputs must agree too, not just the
        // collapsed outcome class.
        match (&f.output, &s.output) {
            (Some(fo), Some(so)) => {
                assert_eq!(fo.catalog_text, so.catalog_text, "byte {}", f.byte.byte_index);
                assert_eq!(fo.dims, so.dims);
            }
            (None, None) => {}
            other => panic!(
                "byte {}: output presence diverged ({:?})",
                f.byte.byte_index,
                (other.0.is_some(), other.1.is_some())
            ),
        }
    }
}

#[test]
fn replay_scan_is_deterministic_serial_vs_parallel() {
    let a = nyx();
    let mut serial = scan_cfg(true, 16);
    serial.parallel = false;
    let mut parallel = scan_cfg(true, 16);
    parallel.parallel = true;
    let rs = scan_detailed(&a, &serial).unwrap();
    let rp = scan_detailed(&a, &parallel).unwrap();
    assert!(rs.used_replay() && rp.used_replay());
    assert_eq!(rs.tally, rp.tally);
    for (x, y) in rs.runs.iter().zip(&rp.runs) {
        assert_eq!(x.byte.byte_index, y.byte.byte_index);
        assert_eq!(x.byte.outcome, y.byte.outcome);
        assert_eq!(x.byte.crash_message, y.byte.crash_message);
    }
}

fn campaign<A: FaultApp>(
    app: &A,
    model: FaultModel,
    target: TargetFilter,
    runs: usize,
    replay: bool,
    parallel: bool,
) -> CampaignResult {
    let mut sig = FaultSignature::on_write(model);
    sig.target = target;
    let mut cfg = CampaignConfig::new(sig).with_runs(runs).with_seed(4242).with_replay(replay);
    cfg.parallel = parallel;
    Campaign::new(app, cfg).run().unwrap()
}

/// The heart of the equivalence suite: for one app and one fault
/// model, the checkpointed-replay campaign and the full-rerun campaign
/// must agree on every per-run artifact — outcome, sampled instance,
/// full injection record (primitive, instance, prim_seq, path, offset,
/// len, damage detail), and crash message.
fn assert_campaign_paths_agree<A: FaultApp>(
    app: &A,
    model: FaultModel,
    target: TargetFilter,
    runs: usize,
) {
    let fast = campaign(app, model, target.clone(), runs, true, true);
    let slow = campaign(app, model, target, runs, false, true);
    assert_eq!(fast.mode, ExecutionMode::Replay, "{} {:?}", app.name(), model);
    assert_eq!(
        slow.mode,
        ExecutionMode::FullRerun { reason: ReplayFallback::Disabled },
        "{} {:?}",
        app.name(),
        model
    );
    assert_eq!(fast.tally, slow.tally, "{} {:?}", app.name(), model);
    assert_eq!(fast.profile.eligible, slow.profile.eligible);
    for (f, s) in fast.runs.iter().zip(&slow.runs) {
        assert_eq!(f.outcome, s.outcome, "{} {:?} run {}", app.name(), model, f.run);
        assert_eq!(f.target_instance, s.target_instance);
        assert_eq!(f.injection, s.injection, "{} {:?} run {}", app.name(), model, f.run);
        assert_eq!(f.crash_message, s.crash_message, "{} {:?} run {}", app.name(), model, f.run);
    }
}

#[test]
fn replay_campaign_equals_legacy_campaign_for_nyx() {
    let a = nyx();
    for model in [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()] {
        assert_campaign_paths_agree(&a, model, TargetFilter::Any, 30);
    }
}

#[test]
fn replay_campaign_equals_legacy_campaign_for_qmc() {
    let a = qmc();
    for model in [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()] {
        assert_campaign_paths_agree(&a, model, TargetFilter::Any, 25);
    }
}

#[test]
fn replay_campaign_equals_legacy_campaign_for_montage() {
    let a = MontageApp::paper_default();
    for model in [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()] {
        assert_campaign_paths_agree(&a, model, TargetFilter::Any, 18);
    }
}

#[test]
fn replay_campaign_equals_legacy_campaign_per_montage_stage() {
    // The paper's MT1..MT4 cells scope injection to one stage's
    // output directory; the equivalence must survive path filtering
    // (instance renumbering against filtered traces).
    let a = MontageApp::paper_default();
    for stage in montage_sim::Stage::ALL {
        assert_campaign_paths_agree(
            &a,
            FaultModel::dropped_write(),
            MontageApp::stage_filter(stage),
            10,
        );
    }
}

#[test]
fn replay_campaign_is_deterministic_serial_vs_parallel() {
    let a = nyx();
    let serial = campaign(&a, FaultModel::bit_flip(), TargetFilter::Any, 30, true, false);
    let parallel = campaign(&a, FaultModel::bit_flip(), TargetFilter::Any, 30, true, true);
    assert!(serial.used_replay() && parallel.used_replay());
    assert_eq!(serial.tally, parallel.tally);
    for (x, y) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.target_instance, y.target_instance);
        assert_eq!(x.injection, y.injection);
    }
}

/// The no-fire accounting (armed instance never executed) must agree
/// between the two execution strategies.
#[test]
fn replay_campaign_counts_no_fire_like_legacy() {
    let a = nyx();
    let fast = campaign(&a, FaultModel::bit_flip(), TargetFilter::Any, 30, true, true);
    let slow = campaign(&a, FaultModel::bit_flip(), TargetFilter::Any, 30, false, true);
    assert_eq!(fast.tally.no_fire, slow.tally.no_fire);
}

/// Two-phase app whose golden run *attempts* an eligible write that
/// fails (write on a read-only descriptor, error tolerated).
/// Interceptor-level counters include the attempt; the success-only
/// golden trace does not — replay instance numbering would diverge
/// from the injectors', so both fast paths must refuse to engage, with
/// the campaign recording the `TraceMismatch` reason.
struct FailedProbeApp;

impl FaultApp for FailedProbeApp {
    type Output = Vec<u8>;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        use ffis_vfs::{FileSystemExt, OpenFlags};
        fs.write_file_chunked("/probe.bin", &[5u8; 8192], 4096).map_err(|e| e.to_string())?;
        // Best-effort probe write on a read-only descriptor: fails
        // with EROFS, and the app shrugs it off.
        let fd = fs.open("/probe.bin", OpenFlags::read_only()).map_err(|e| e.to_string())?;
        let _ = fs.pwrite(fd, b"probe", 0);
        fs.release(fd).map_err(|e| e.to_string())?;
        fs.write_file("/probe.meta", &[9u8; 64]).map_err(|e| e.to_string())
    }

    fn analyze(&self, fs: &dyn FileSystem, _golden: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
        use ffis_vfs::FileSystemExt;
        fs.read_to_vec("/probe.bin").map_err(|e| e.to_string())
    }

    fn classify(&self, golden: &Vec<u8>, faulty: &Vec<u8>) -> Outcome {
        if golden == faulty {
            Outcome::Benign
        } else {
            Outcome::Sdc
        }
    }

    fn name(&self) -> String {
        "FAILPROBE".into()
    }
}

#[test]
fn failed_golden_writes_disable_replay_and_paths_still_agree() {
    let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
        .with_runs(20)
        .with_seed(11)
        .with_replay(true);
    let fast = Campaign::new(&FailedProbeApp, cfg.clone()).run().unwrap();
    assert_eq!(
        fast.mode,
        ExecutionMode::FullRerun { reason: ReplayFallback::TraceMismatch },
        "attempted/recorded write-count mismatch must disable replay, with the reason recorded"
    );
    let slow = Campaign::new(&FailedProbeApp, cfg.with_replay(false)).run().unwrap();
    assert_eq!(fast.tally, slow.tally);
    for (f, s) in fast.runs.iter().zip(&slow.runs) {
        assert_eq!(f.target_instance, s.target_instance);
        assert_eq!(f.injection, s.injection);
    }

    let mut scfg = ScanConfig::new(TargetFilter::Any);
    scfg.pick = WritePick::Nth(1);
    scfg.stride = 512;
    let scan = scan_detailed(&FailedProbeApp, &scfg).unwrap();
    assert!(!scan.used_replay(), "scan must also fall back on the count mismatch");
}

#[test]
fn failed_nonmatching_writes_also_disable_replay() {
    // Scope the signature so the failed probe write sits *outside* the
    // eligible population: the eligible counts then agree between
    // profiler and trace, but the mount's total Write counter (the
    // `prim_seq` source) still includes the failed attempt — replay
    // would renumber `prim_seq` silently, so the gate must refuse.
    let mut sig = FaultSignature::on_write(FaultModel::bit_flip());
    sig.target = TargetFilter::PathSuffix(".meta".into());
    let cfg = CampaignConfig::new(sig).with_runs(10).with_seed(13).with_replay(true);
    let fast = Campaign::new(&FailedProbeApp, cfg.clone()).run().unwrap();
    assert_eq!(
        fast.mode,
        ExecutionMode::FullRerun { reason: ReplayFallback::TraceMismatch },
        "total-write-count mismatch must disable replay even when eligible counts agree"
    );
    let slow = Campaign::new(&FailedProbeApp, cfg.with_replay(false)).run().unwrap();
    assert_eq!(fast.tally, slow.tally);
    for (f, s) in fast.runs.iter().zip(&slow.runs) {
        assert_eq!(f.injection, s.injection);
    }
}

/// Analyze logs through the filesystem under test: the read-only
/// analyze law fails.
struct ChattyAnalyzeApp;

impl FaultApp for ChattyAnalyzeApp {
    type Output = Vec<u8>;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        use ffis_vfs::FileSystemExt;
        fs.write_file_chunked("/d.bin", &[9u8; 8192], 4096).map_err(|e| e.to_string())
    }

    fn analyze(&self, fs: &dyn FileSystem, _golden: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
        use ffis_vfs::FileSystemExt;
        fs.write_file("/analyze.log", b"analyzing\n").map_err(|e| e.to_string())?;
        fs.read_to_vec("/d.bin").map_err(|e| e.to_string())
    }

    fn classify(&self, golden: &Vec<u8>, faulty: &Vec<u8>) -> Outcome {
        FailedProbeApp.classify(golden, faulty)
    }

    fn name(&self) -> String {
        "CHATTY".into()
    }
}

/// Analyze appends to the artifact it then returns: not read-only, and
/// not idempotent either.
struct SelfMutatingApp;

impl FaultApp for SelfMutatingApp {
    type Output = Vec<u8>;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        use ffis_vfs::FileSystemExt;
        fs.write_file_chunked("/grow.bin", &[4u8; 8192], 4096).map_err(|e| e.to_string())?;
        fs.write_file("/grow.meta", &[1u8; 32]).map_err(|e| e.to_string())
    }

    fn analyze(&self, fs: &dyn FileSystem, _golden: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
        use ffis_vfs::{FileSystemExt, OpenFlags};
        let len = fs.read_to_vec("/grow.bin").map_err(|e| e.to_string())?.len() as u64;
        let fd = fs.open("/grow.bin", OpenFlags::read_write()).map_err(|e| e.to_string())?;
        fs.pwrite(fd, b"!", len).map_err(|e| e.to_string())?;
        fs.release(fd).map_err(|e| e.to_string())?;
        fs.read_to_vec("/grow.bin").map_err(|e| e.to_string())
    }

    fn classify(&self, golden: &Vec<u8>, faulty: &Vec<u8>) -> Outcome {
        FailedProbeApp.classify(golden, faulty)
    }

    fn name(&self) -> String {
        "SELFMUT".into()
    }
}

/// One row of the gate table: a campaign and a scan over the same
/// application and target must record the same [`ExecutionMode`] (here
/// always a fallback, for `reason`), and the scan that fell back must
/// equal the scan that was told to rerun, byte for byte.
fn assert_gate_agrees<A: FaultApp<Output = Vec<u8>>>(
    app: &A,
    target: TargetFilter,
    pick: WritePick,
    reason: ReplayFallback,
) {
    let mut sig = FaultSignature::on_write(FaultModel::bit_flip());
    sig.target = target.clone();
    let cfg = CampaignConfig::new(sig).with_runs(6).with_seed(17).with_replay(true);
    let campaign = Campaign::new(app, cfg).run().unwrap();

    let mut scfg = ScanConfig::new(target.clone());
    scfg.pick = pick;
    scfg.stride = 13;
    scfg.replay = true;
    let gated = scan_detailed(app, &scfg).unwrap();
    scfg.replay = false;
    let rerun = scan_detailed(app, &scfg).unwrap();

    let row = format!("{} {:?}", app.name(), target);
    assert_eq!(campaign.mode, ExecutionMode::FullRerun { reason }, "{row}");
    assert_eq!(gated.mode, campaign.mode, "{row}: the scan gates as the campaign does");
    assert_eq!(rerun.mode, ExecutionMode::FullRerun { reason: ReplayFallback::Disabled });
    assert_eq!(gated.tally, rerun.tally, "{row}");
    assert!(!gated.runs.is_empty(), "{row}");
    assert_eq!(gated.runs.len(), rerun.runs.len(), "{row}");
    for (g, r) in gated.runs.iter().zip(&rerun.runs) {
        assert_eq!(g.byte, r.byte, "{row}");
        assert_eq!(g.output, r.output, "{row} byte {}", g.byte.byte_index);
    }
}

/// The scan's fast path is gated by the campaign's laws, not by a copy
/// of them: the fixtures that break a law break it for both.
#[test]
fn scan_and_campaign_agree_on_the_replay_gate() {
    use ReplayFallback::{AnalyzeWrites, TraceMismatch};
    let meta = || TargetFilter::PathSuffix(".meta".into());
    assert_gate_agrees(&ChattyAnalyzeApp, TargetFilter::Any, WritePick::Penultimate, AnalyzeWrites);
    assert_gate_agrees(&FailedProbeApp, TargetFilter::Any, WritePick::Nth(1), TraceMismatch);
    assert_gate_agrees(&FailedProbeApp, meta(), WritePick::Last, TraceMismatch);
    assert_gate_agrees(&SelfMutatingApp, meta(), WritePick::Last, AnalyzeWrites);
}

/// Parameter faults (mknod/chmod/truncate) can make a replayed op fail
/// where the real application would have tolerated the error — the
/// campaign replay gate therefore only admits Write-primitive faults,
/// and says so in the recorded mode.
#[test]
fn param_fault_campaigns_never_use_replay() {
    use ffis_vfs::Primitive;
    let a = nyx();
    let sig = FaultSignature {
        model: FaultModel::bit_flip(),
        primitive: Primitive::Truncate,
        target: TargetFilter::Any,
    };
    let cfg = CampaignConfig::new(sig).with_runs(5).with_seed(3).with_replay(true);
    // Nyx never truncates, so there are no eligible instances — but
    // the gate must reject the primitive before anything else runs.
    match Campaign::new(&a, cfg).run() {
        Ok(result) => assert_eq!(
            result.mode,
            ExecutionMode::FullRerun { reason: ReplayFallback::NonWritePrimitive }
        ),
        Err(ffis_core::CampaignError::NoEligibleInstances) => {}
        Err(other) => panic!("unexpected {:?}", other),
    }
}

/// Engine law 9 at campaign level: plan-aware replay (demand-placed
/// checkpoints, checkpoint-grouped batches, coalesced and filtered
/// tails) against the unbatched control (`replay_opt` off: log-spaced
/// checkpoints, one mounted suffix replay per run). Nothing a digest
/// sees may move, and the optimized side must really have engaged
/// every layer — the exact-repeat counters, not a wall-clock ratio.
#[test]
fn plan_aware_replay_equals_the_unbatched_control() {
    fn both<A: FaultApp>(app: &A, cfg: CampaignConfig) -> ReplayOptReport {
        let cfg = cfg.with_seed(0x1A09).with_replay(true).with_memo(true);
        let name = app.name();
        let control = Campaign::new(app, cfg.clone().with_replay_opt(false)).run().unwrap();
        let opt = Campaign::new(app, cfg.with_replay_opt(true)).run().unwrap();
        assert_eq!(control.mode, ExecutionMode::Replay, "{name}: control");
        assert_eq!(opt.mode, ExecutionMode::Replay, "{name}: optimized");
        assert_eq!(opt.tally, control.tally, "{name}");
        assert_eq!(opt.run_digest(), control.run_digest(), "{name}");
        assert_eq!(opt.runs.len(), control.runs.len(), "{name}");
        for (o, c) in opt.runs.iter().zip(&control.runs) {
            assert_eq!(o.injection, c.injection, "{name} run {}", o.run);
            assert_eq!(o.crash_message, c.crash_message, "{name} run {}", o.run);
        }
        let (oo, co) = (opt.replay_opt, control.replay_opt);
        assert!(!co.engaged && !co.demand_placed && co.batches == 0, "{name}: {co:?}");
        assert!(oo.engaged && oo.demand_placed, "{name}: {oo:?}");
        assert!(oo.batches > 0 && oo.coalesced_calls > 0, "{name}: {oo:?}");
        assert!(oo.overshoot < co.overshoot, "{name}: overshoot {co:?} -> {oo:?}");
        oo
    }
    let write = |model| FaultSignature::on_write(model);

    // Single plotfile, no memo basis: the batched arm replays full tails.
    let single = both(&nyx(), CampaignConfig::new(write(FaultModel::bit_flip())).with_runs(24));
    assert_eq!(single.skipped_tail_ops, 0, "nothing to filter without sub-steps");

    // Multi-tile mosaic with the memo engaged: a run's dirty cascade is
    // one tile, so the tail filter drops every other tile's ops.
    let tiles = both(
        &MontageApp::multi_tile(4),
        CampaignConfig::new(write(FaultModel::bit_flip())).with_runs(24),
    );
    assert!(tiles.skipped_tail_ops > 0, "the tail filter never ran: {tiles:?}");

    // A dropped write batches like a flipped one: the batch's target
    // step skips the device write and the tail replays as before.
    both(&nyx(), CampaignConfig::new(write(FaultModel::dropped_write())).with_runs(24));
}

/// The filtered tail attributes an op on a descriptor number that has
/// already been released to the path the number last named; the
/// verdict pass it replaced *applied* such an op when open and release
/// both preceded the tail (`ffis_vfs::trace`,
/// `an_op_on_a_released_descriptor_follows_the_path_it_last_named`).
/// Either way nothing touches the filesystem; only
/// `ReplayOptReport::skipped_tail_ops` could tell. No golden stream of
/// the paper's workloads holds such an op — `MemFs` never hands a
/// descriptor number out twice, and what analyze releases are its own
/// read-only opens, numbers the stream never bound — so every
/// campaign's counters are what they were.
#[test]
fn no_golden_trace_addresses_a_released_descriptor() {
    fn golden_trace<A: FaultApp>(app: &A) -> Vec<TraceOp> {
        let ffs = FfisFs::mount(std::sync::Arc::new(MemFs::new()));
        let recorder = std::sync::Arc::new(TraceRecorder::new());
        ffs.attach(recorder.clone());
        app.run(&*ffs).unwrap();
        ffs.unmount();
        recorder.take_ops()
    }
    let multi_nyx = NyxApp::new(NyxConfig {
        field: FieldConfig { n: 16, ..Default::default() },
        plotfiles: 3,
        ..Default::default()
    });
    let multi_qmc = QmcApp::new(QmcConfig { restarts: 2, dmc_blocks: 2, ..qmc_config() });
    let traces = [
        ("nyx", golden_trace(&nyx())),
        ("nyx x3", golden_trace(&multi_nyx)),
        ("qmc", golden_trace(&qmc())),
        ("qmc 2x2", golden_trace(&multi_qmc)),
        ("montage", golden_trace(&MontageApp::paper_default())),
        ("montage x3", golden_trace(&MontageApp::multi_tile(3))),
    ];
    for (name, ops) in &traces {
        let mut bound = std::collections::HashSet::new();
        let mut released = std::collections::HashSet::new();
        let mut unbound_releases = 0;
        for (i, op) in ops.iter().enumerate() {
            match op {
                TraceOp::Create { fd, .. } | TraceOp::Open { fd, .. } => {
                    assert!(bound.insert(*fd), "{name}: op {i} reuses descriptor {fd}");
                }
                TraceOp::Write { fd, .. } => {
                    assert!(bound.contains(fd) && !released.contains(fd), "{name}: op {i}");
                }
                _ => {
                    let Some(fd) = op.bookkeeping_fd() else { continue };
                    assert!(!released.contains(&fd), "{name}: op {i} follows a release of {fd}");
                    if matches!(op, TraceOp::Release { .. }) {
                        released.insert(fd);
                        unbound_releases += usize::from(!bound.contains(&fd));
                    }
                }
            }
        }
        assert!(!bound.is_empty(), "{name}: the stream opens something");
        assert!(unbound_releases > 0, "{name}: analyze's read-only opens are released");
    }
}
