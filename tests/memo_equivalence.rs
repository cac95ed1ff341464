//! Differential pinning of the analyze memoization layer (engine
//! law 8): **memoized analyze == full analyze, byte for byte**.
//!
//! Every multi-file regime of the three paper workloads — multi-tile
//! Montage, multi-plotfile Nyx, multi-restart QMCPACK — runs each
//! campaign twice, once with the memo layer engaged and once with it
//! disabled, and asserts the results are indistinguishable: same
//! outcome tallies, same per-run injection records, same crash
//! messages, same strategy-independent FNV digest. The memoized
//! campaign must also *report* that it engaged (the fallback reason is
//! never silent), and the write-site/read-site campaign modes must be
//! `Replay` / `IncrementalAnalyze` respectively.
//!
//! Both `FFIS_REPLAY` regimes are covered by requesting the fast path
//! explicitly (`with_replay(true)`) and the rerun reference path
//! (`with_replay(false)`, where the memo layer must fall back with
//! `not-fast-path` and the results must still agree).
//!
//! Warm-store behavior rides the same law: re-running a campaign
//! against a shared [`MemoStore`] must replay every run from cache
//! (zero misses) and still produce the identical result.

use std::sync::Arc;

use ffis_core::prelude::*;
use ffis_core::CampaignResult;
use ffis_vfs::MemoStore;
use montage_sim::MontageApp;
use nyx_sim::{FieldConfig, NyxApp, NyxConfig};
use qmc_sim::{DmcConfig, QmcApp, QmcConfig, QmcaConfig, VmcConfig};

/// Multi-plotfile Nyx at laptop scale (3 snapshots of a 16³ field).
fn nyx_multi() -> NyxApp {
    NyxApp::new(NyxConfig {
        field: FieldConfig { n: 16, ..Default::default() },
        plotfiles: 3,
        ..Default::default()
    })
}

/// Multi-restart QMCPACK at laptop scale (3 VMC→DMC segments).
fn qmc_multi() -> QmcApp {
    QmcApp::new(QmcConfig {
        vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
        dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
        qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
        restarts: 3,
        ..Default::default()
    })
}

/// FNV-1a accumulator (same digest as `read_write_differential.rs`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a over every strategy-independent per-run artifact. The memo
/// layer must be invisible here: `ExecutionMode` is excluded, all else
/// must collide byte for byte.
fn digest(result: &CampaignResult) -> u64 {
    let mut h = Fnv::new();
    for r in &result.runs {
        h.eat(&(r.run as u64).to_le_bytes());
        h.eat(r.outcome.name().as_bytes());
        h.eat(&r.target_instance.to_le_bytes());
        match &r.injection {
            Some(i) => {
                h.eat(i.primitive.ffis_name().as_bytes());
                h.eat(&i.instance.to_le_bytes());
                h.eat(&i.prim_seq.to_le_bytes());
                h.eat(i.path.as_deref().unwrap_or("-").as_bytes());
                h.eat(&i.offset.unwrap_or(u64::MAX).to_le_bytes());
                h.eat(&(i.len as u64).to_le_bytes());
                h.eat(i.detail.as_bytes());
            }
            None => h.eat(b"no-fire"),
        }
        h.eat(r.crash_message.as_deref().unwrap_or("-").as_bytes());
    }
    h.0
}

fn models() -> [FaultModel; 3] {
    [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()]
}

/// Run one campaign cell with the memo layer on or off.
fn run_cell<A: FaultApp>(
    app: &A,
    signature: FaultSignature,
    runs: usize,
    memo: bool,
    store: Option<Arc<MemoStore>>,
) -> CampaignResult {
    let mut cfg = CampaignConfig::new(signature)
        .with_runs(runs)
        .with_seed(4242)
        .with_replay(true)
        .with_memo(memo);
    if let Some(store) = store {
        cfg = cfg.with_memo_store(store);
    }
    Campaign::new(app, cfg).run().unwrap()
}

/// Assert two campaign results are byte-for-byte indistinguishable in
/// every strategy-independent artifact.
fn assert_equivalent(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.tally, b.tally, "{}: tallies diverged", what);
    assert_eq!(a.profile.eligible, b.profile.eligible, "{}", what);
    assert_eq!(a.runs.len(), b.runs.len(), "{}", what);
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.run, y.run, "{}", what);
        assert_eq!(x.outcome, y.outcome, "{} run {}", what, x.run);
        assert_eq!(x.target_instance, y.target_instance, "{} run {}", what, x.run);
        assert_eq!(x.injection, y.injection, "{} run {}", what, x.run);
        assert_eq!(x.crash_message, y.crash_message, "{} run {}", what, x.run);
    }
    assert_eq!(digest(a), digest(b), "{}: digests must collide", what);
}

/// Engine law 8 at the write site, all three multi-file apps × all
/// three fault models: the memoized replay path and the plain replay
/// path agree byte for byte, and the memo layer reports engagement
/// (with the declared sub-step count) rather than a silent fallback.
#[test]
fn memoized_write_campaigns_equal_full_analyze() {
    fn check<A: FaultApp>(app: &A, runs: usize, substeps: usize) {
        for model in models() {
            let memo = run_cell(app, FaultSignature::on_write(model), runs, true, None);
            let full = run_cell(app, FaultSignature::on_write(model), runs, false, None);
            let what = format!("{} write {:?}", app.name(), model);
            assert!(memo.memo.engaged, "{}: {}", what, memo.memo.reason());
            assert_eq!(memo.memo.substeps, substeps, "{}", what);
            assert_eq!(memo.memo.reason(), "memoized", "{}", what);
            assert_eq!(memo.mode, ExecutionMode::Replay, "{}", what);
            assert!(!full.memo.engaged, "{}", what);
            assert_eq!(full.memo.fallback, Some(MemoFallback::Disabled), "{}", what);
            assert_equivalent(&memo, &full, &what);
        }
    }
    check(&nyx_multi(), 16, 3);
    check(&qmc_multi(), 10, 3);
    check(&MontageApp::multi_tile(2), 8, 2);
}

/// Engine law 8 at the read site: memoized campaigns take the
/// `IncrementalAnalyze` mode (recorded campaign-wide and per run),
/// the plain fast path stays `AnalyzeOnly`, and both agree byte for
/// byte with each other.
#[test]
fn memoized_read_campaigns_equal_full_analyze() {
    fn check<A: FaultApp>(app: &A, runs: usize) {
        for model in models() {
            let memo = run_cell(app, FaultSignature::on_read(model), runs, true, None);
            let full = run_cell(app, FaultSignature::on_read(model), runs, false, None);
            let what = format!("{} read {:?}", app.name(), model);
            assert!(memo.memo.engaged, "{}: {}", what, memo.memo.reason());
            assert_eq!(memo.mode, ExecutionMode::IncrementalAnalyze, "{}", what);
            for r in &memo.runs {
                assert_eq!(r.mode, ExecutionMode::IncrementalAnalyze, "{} run {}", what, r.run);
            }
            assert_eq!(full.mode, ExecutionMode::AnalyzeOnly, "{}", what);
            assert_equivalent(&memo, &full, &what);
        }
    }
    check(&nyx_multi(), 12);
    check(&qmc_multi(), 8);
    check(&MontageApp::multi_tile(2), 6);
}

/// The memo fallback is never silent, and a fallen-back campaign still
/// produces the identical result: `memo-disabled` when the layer is
/// off, `no-substeps` for single-file regimes, `not-fast-path` under
/// `FFIS_REPLAY=0` semantics (replay disabled), `liveness-watchdog`
/// when a fuel budget is armed.
#[test]
fn memo_fallback_reasons_are_recorded_and_harmless() {
    let app = nyx_multi();
    let site = FaultSignature::on_write(FaultModel::bit_flip());

    // Single-file regime: the app declares no sub-steps.
    let single = NyxApp::new(NyxConfig {
        field: FieldConfig { n: 16, ..Default::default() },
        ..Default::default()
    });
    let r = run_cell(&single, site.clone(), 8, true, None);
    assert_eq!(r.memo.fallback, Some(MemoFallback::NoSubsteps));
    assert_eq!(r.memo.substeps, 0);
    assert_eq!(r.memo.reason(), "no-substeps");

    // Replay disabled (the FFIS_REPLAY=0 regime): no fast path, no
    // golden sub-step basis — and the rerun result must still match
    // the memo-off rerun result byte for byte.
    let mk_slow = |memo: bool| {
        let cfg = CampaignConfig::new(site.clone())
            .with_runs(8)
            .with_seed(4242)
            .with_replay(false)
            .with_memo(memo);
        Campaign::new(&app, cfg).run().unwrap()
    };
    let slow_memo = mk_slow(true);
    let slow_full = mk_slow(false);
    assert_eq!(slow_memo.memo.fallback, Some(MemoFallback::NotFastPath));
    assert_eq!(slow_memo.mode, ExecutionMode::FullRerun { reason: ReplayFallback::Disabled });
    assert_equivalent(&slow_memo, &slow_full, "nyx multi replay-off");

    // The rerun reference must also agree with the memoized fast path
    // (transitively pins the fast path against FFIS_REPLAY=0 CI runs).
    let fast_memo = run_cell(&app, site.clone(), 8, true, None);
    assert_equivalent(&fast_memo, &slow_full, "nyx multi fast-vs-rerun");

    // Liveness watchdog armed: skipping clean sub-steps would change
    // where a fuel budget trips, so the layer must stand down.
    let mut cfg =
        CampaignConfig::new(site).with_runs(4).with_seed(4242).with_replay(true).with_memo(true);
    cfg.fuel = Some(u64::MAX);
    let fueled = Campaign::new(&app, cfg).run().unwrap();
    assert_eq!(fueled.memo.fallback, Some(MemoFallback::Liveness));

    // Memo disabled explicitly.
    let off = run_cell(&app, FaultSignature::on_write(FaultModel::bit_flip()), 4, false, None);
    assert_eq!(off.memo.fallback, Some(MemoFallback::Disabled));
    assert_eq!(off.memo.reason(), "memo-disabled");
}

/// A warm shared [`MemoStore`] replays every run from cache — zero
/// misses, positive hits — and the replayed result is byte-identical
/// to the cold one, at both fault sites.
#[test]
fn warm_memo_store_replays_runs_from_cache() {
    fn check<A: FaultApp>(app: &A, signature: FaultSignature, runs: usize, what: &str) {
        let store = Arc::new(MemoStore::in_memory());
        let cold = run_cell(app, signature.clone(), runs, true, Some(Arc::clone(&store)));
        let warm = run_cell(app, signature, runs, true, Some(Arc::clone(&store)));
        assert!(cold.memo.engaged && warm.memo.engaged, "{}", what);
        assert!(cold.memo.stats.misses > 0, "{}: cold run must compute", what);
        assert_eq!(warm.memo.stats.misses, 0, "{}: warm run must not recompute", what);
        assert!(warm.memo.stats.hits > cold.memo.stats.hits, "{}", what);
        assert_equivalent(&cold, &warm, what);
    }
    let app = nyx_multi();
    check(&app, FaultSignature::on_write(FaultModel::dropped_write()), 10, "nyx write warm");
    check(&app, FaultSignature::on_read(FaultModel::bit_flip()), 10, "nyx read warm");
    let montage = MontageApp::multi_tile(2);
    check(&montage, FaultSignature::on_write(FaultModel::bit_flip()), 6, "montage write warm");
}

/// Engine law 8 across two signatures over one store: a write-site and
/// a read-site campaign over multi-tile Montage share one
/// [`MemoStore`], and each agrees — in every run and in `run_digest` —
/// with its memo-off control, cold and warm. Memo-on, the read site
/// plans `IncrementalAnalyze` where memo-off plans `AnalyzeOnly`; the
/// write site stays `Replay`.
#[test]
fn memoized_two_signature_campaign_equals_full_analyze() {
    use ExecutionMode::{AnalyzeOnly, IncrementalAnalyze, Replay};
    let app = MontageApp::multi_tile(3);
    // (site, signature, mode memo-on, mode memo-off)
    let sites = [
        ("write", FaultSignature::on_write(FaultModel::bit_flip()), Replay, Replay),
        ("read", FaultSignature::on_read(FaultModel::bit_flip()), IncrementalAnalyze, AnalyzeOnly),
    ];
    let store = Arc::new(MemoStore::in_memory());
    let on_store =
        |sig: &FaultSignature| run_cell(&app, sig.clone(), 12, true, Some(store.clone()));
    let cold: Vec<CampaignResult> = sites.iter().map(|s| on_store(&s.1)).collect();
    let warm: Vec<CampaignResult> = sites.iter().map(|s| on_store(&s.1)).collect();
    for (i, (site, sig, memo_mode, full_mode)) in sites.iter().enumerate() {
        let full = run_cell(&app, sig.clone(), 12, false, None);
        assert_eq!(full.memo.fallback, Some(MemoFallback::Disabled), "{site}");
        assert_eq!(full.mode, *full_mode, "{site}");
        for (memo, temp) in [(&cold[i], "cold"), (&warm[i], "warm")] {
            let what = format!("montage {site} {temp}");
            assert!(memo.memo.engaged, "{}: {}", what, memo.memo.reason());
            assert!(memo.memo.stats.hits > 0, "{}", what);
            assert_eq!(memo.mode, *memo_mode, "{}", what);
            assert_equivalent(memo, &full, &what);
            assert_eq!(memo.run_digest(), full.run_digest(), "{}", what);
        }
        assert!(cold[i].memo.stats.misses > 0, "{site}: cold run must compute");
        assert_eq!(warm[i].memo.stats.misses, 0, "{site}: warm run must not recompute");
    }
}

/// The dirty cascade is visible in the counters: a write-site campaign
/// on a multi-file app invalidates only the sub-steps whose declared
/// inputs the injected op dirtied, and the remaining (clean) sub-steps
/// are hits. Every fired run accounts all of its sub-steps one way or
/// the other.
#[test]
fn dirty_cascade_counters_partition_substeps() {
    let app = nyx_multi();
    let r = run_cell(&app, FaultSignature::on_write(FaultModel::bit_flip()), 16, true, None);
    assert!(r.memo.engaged, "{}", r.memo.reason());
    let fired = r.runs.iter().filter(|run| run.injection.is_some()).count() as u64;
    assert!(fired > 0, "no injection fired in 16 runs");
    let s = r.memo.stats;
    assert!(s.invalidations > 0, "faults on plotfiles must dirty their sub-step");
    assert!(s.hits > 0, "clean sub-steps must replay from cache");
    // Each Nyx plotfile is one sub-step with exactly one input file, so
    // per fired run the dirty set is at most one sub-step; clean-hit +
    // invalidated sub-step counts can never exceed substeps × fired.
    assert!(
        s.invalidations <= fired,
        "at most one dirty sub-step per fired Nyx run: {} > {}",
        s.invalidations,
        fired
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Law 8 under fuzzed campaign shapes: any seed, any small run
        /// count, any fault model, either site — the memoized and full
        /// analyze paths agree byte for byte on multi-plotfile Nyx.
        #[test]
        fn memoized_equals_full_for_any_seed(
            seed in any::<u64>(),
            runs in 1usize..8,
            model_ix in 0usize..3,
            on_read in any::<bool>(),
        ) {
            let app = nyx_multi();
            let model = models()[model_ix];
            let signature = if on_read {
                FaultSignature::on_read(model)
            } else {
                FaultSignature::on_write(model)
            };
            let mk = |memo: bool| {
                let cfg = CampaignConfig::new(signature.clone())
                    .with_runs(runs)
                    .with_seed(seed)
                    .with_replay(true)
                    .with_memo(memo);
                Campaign::new(&app, cfg).run().unwrap()
            };
            let memo = mk(true);
            let full = mk(false);
            prop_assert!(memo.memo.engaged, "{}", memo.memo.reason());
            prop_assert_eq!(memo.tally, full.tally);
            prop_assert_eq!(digest(&memo), digest(&full));
            for (x, y) in memo.runs.iter().zip(&full.runs) {
                prop_assert_eq!(x.outcome, y.outcome);
                prop_assert_eq!(&x.injection, &y.injection);
                prop_assert_eq!(&x.crash_message, &y.crash_message);
            }
        }
    }
}

/// Every regular file under `dir`, recursively.
fn files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// A store directory holding records from before `ffis_vfs::frame` —
/// memo-index entries as `"FFISMEM1" | key | value | crc`, checkpoint
/// manifests as `"FFISCKM1" | schema | key | len | crc | body`, the
/// identity fields outside the CRC — is accepted as it is: every stale
/// file fails to open, is deleted and rebuilt, nothing panics, and the
/// campaign's digest does not move. (Those builds also derived the
/// manifest's name from a different fingerprint, so their manifests
/// are normally never even read; the old bytes are planted under the
/// current name here to prove that reading one is harmless.)
#[test]
fn parent_era_store_files_are_discarded_and_rebuilt() {
    use ffis_vfs::blobs::crc32;
    use ffis_vfs::CheckpointStore;

    let dir = std::env::temp_dir().join(format!("ffis-parent-era-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = MontageApp::multi_tile(2);
    let run = || {
        let checkpoints = Arc::new(CheckpointStore::with_dir(&dir.join("ck")).unwrap());
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(6)
            .with_seed(4242)
            .with_replay(true)
            .with_memo(true)
            .with_memo_store(Arc::new(MemoStore::at_dir(&dir.join("memo")).unwrap()))
            .with_checkpoints(Arc::clone(&checkpoints));
        (Campaign::new(&app, cfg).run().unwrap(), checkpoints)
    };
    let sealed = |ext: &str| -> Vec<std::path::PathBuf> {
        files_under(&dir).into_iter().filter(|p| p.extension().is_some_and(|e| e == ext)).collect()
    };

    let (cold, store) = run();
    assert!(cold.memo.engaged, "{}", cold.memo.reason());
    assert_eq!((store.builds(), store.disk_hits()), (1, 0));
    assert!(!sealed("memo").is_empty() && !sealed("manifest").is_empty());

    for path in sealed("memo") {
        let body = std::fs::read(&path).unwrap()[16..].to_vec();
        let mut old = b"FFISMEM1".to_vec();
        old.extend_from_slice(&body);
        old.extend_from_slice(&crc32(&body).to_le_bytes());
        std::fs::write(&path, old).unwrap();
    }
    for path in sealed("manifest") {
        let body = std::fs::read(&path).unwrap()[16..].to_vec();
        let (identity, rest) = body.split_at(12);
        let mut old = b"FFISCKM1".to_vec();
        old.extend_from_slice(identity);
        old.extend_from_slice(&(rest.len() as u32).to_le_bytes());
        old.extend_from_slice(&crc32(rest).to_le_bytes());
        old.extend_from_slice(rest);
        std::fs::write(&path, old).unwrap();
    }

    let (rebuilt, store) = run();
    assert_eq!((store.builds(), store.disk_hits()), (1, 0), "the stale manifest is not served");
    assert!(rebuilt.memo.stats.misses > 0, "stale index entries are not served");
    assert_equivalent(&cold, &rebuilt, "parent-era store");
    assert_eq!(rebuilt.run_digest(), cold.run_digest());
    for path in sealed("memo") {
        assert!(std::fs::read(&path).unwrap().starts_with(b"FFISMEM3"), "{}", path.display());
    }
    for path in sealed("manifest") {
        assert!(std::fs::read(&path).unwrap().starts_with(b"FFISCKM2"), "{}", path.display());
    }

    let (healed, store) = run();
    assert_eq!((store.builds(), store.disk_hits()), (0, 1), "the rebuild re-persisted");
    assert_eq!(healed.memo.stats.misses, 0);
    assert_eq!(healed.run_digest(), cold.run_digest());
    let _ = std::fs::remove_dir_all(&dir);
}
