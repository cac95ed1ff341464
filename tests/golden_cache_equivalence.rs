//! Differential pinning of the golden cache: **a campaign that takes
//! its golden run from a [`GoldenCache`] equals the campaign that makes
//! its own, field for field.**
//!
//! The cache memoizes the one function every campaign calls for its
//! golden run, plus the verdicts of the campaign-wide laws decided on
//! it; what a campaign's seed decides (draws, demand, checkpoints,
//! per-signature eligible counts, the runs) stays with the campaign.
//! So nothing a `CampaignResult` carries may tell the two apart — not
//! on the second campaign over a cache either, which is the one that
//! actually reads a kept golden run and kept verdicts. Covered: all
//! three paper workloads × write/read site × `replay` × `memo`, a
//! two-signature campaign, law verdicts that *fail*, a watchdog-armed
//! campaign after a plain one, a campaign handed a memo store of its
//! own, and racing campaigns over one key.

use std::sync::{Arc, Barrier};

use ffis_core::prelude::*;
use ffis_core::{CampaignError, GoldenCache};
use ffis_vfs::{FileSystem, FileSystemExt, MemoStore};
use montage_sim::MontageApp;
use nyx_sim::{FieldConfig, NyxApp, NyxConfig};
use qmc_sim::{DmcConfig, QmcApp, QmcConfig, QmcaConfig, VmcConfig};

fn nyx() -> NyxApp {
    NyxApp::new(NyxConfig {
        field: FieldConfig { n: 16, ..Default::default() },
        plotfiles: 2,
        ..Default::default()
    })
}

fn qmc() -> QmcApp {
    QmcApp::new(QmcConfig {
        vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
        dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
        qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
        restarts: 2,
        ..Default::default()
    })
}

fn sig(site: InjectionSite) -> FaultSignature {
    match site {
        InjectionSite::Write => FaultSignature::on_write(FaultModel::bit_flip()),
        InjectionSite::Read => FaultSignature::on_read(FaultModel::bit_flip()),
    }
}

fn cfg(sigs: Vec<FaultSignature>, replay: bool, memo: bool, seed: u64) -> CampaignConfig {
    CampaignConfig::mixed(sigs).with_runs(10).with_seed(seed).with_replay(replay).with_memo(memo)
}

/// Every field of the two results; `run_digest` stands for the bodies
/// of the kept `runs`.
fn assert_same(per_call: &CampaignResult, cached: &CampaignResult, what: &str) {
    assert_eq!(cached.run_digest(), per_call.run_digest(), "{what}: run digest");
    assert_eq!(cached.runs.len(), per_call.runs.len(), "{what}: kept runs");
    assert_eq!(cached.tally, per_call.tally, "{what}: tally");
    assert_eq!(cached.plan_fingerprint, per_call.plan_fingerprint, "{what}: plan fingerprint");
    assert_eq!(cached.profile.eligible, per_call.profile.eligible, "{what}: profile.eligible");
    assert_eq!(cached.profile.counters, per_call.profile.counters, "{what}: profile.counters");
    assert_eq!(cached.profile.trace, per_call.profile.trace, "{what}: profile.trace");
    assert_eq!(cached.mode, per_call.mode, "{what}: mode");
    assert_eq!(cached.shards.len(), per_call.shards.len(), "{what}: shards");
    for (s, (c, p)) in cached.shards.iter().zip(&per_call.shards).enumerate() {
        assert_eq!(c.eligible, p.eligible, "{what}: shard {s} eligible");
        assert_eq!(c.mode, p.mode, "{what}: shard {s} mode");
        assert_eq!(c.tally, p.tally, "{what}: shard {s} tally");
        assert_eq!(c.signature.label(), p.signature.label(), "{what}: shard {s} signature");
    }
    assert_eq!(cached.status, per_call.status, "{what}: status");
    assert_eq!((cached.executed, cached.resumed), (per_call.executed, per_call.resumed), "{what}");
    assert_eq!(cached.memo, per_call.memo, "{what}: memo report (engaged, fallback, traffic)");
    assert_eq!(cached.replay_opt, per_call.replay_opt, "{what}: replay-opt report");
}

/// The grid for one application: every `(site, replay, memo)` gets a
/// cache of its own and two campaigns back to back over it.
fn cached_equals_per_call<A: FaultApp>(app: &A) {
    for site in [InjectionSite::Write, InjectionSite::Read] {
        for replay in [true, false] {
            for memo in [true, false] {
                let goldens = GoldenCache::new();
                for seed in [0x6011, 0x6012] {
                    let what = format!(
                        "{} {:?} replay={replay} memo={memo} seed={seed:#x}",
                        app.name(),
                        site
                    );
                    let config = cfg(vec![sig(site)], replay, memo, seed);
                    let per_call = Campaign::new(app, config.clone()).run().unwrap();
                    let cached = Campaign::new(app, config).with_goldens(&goldens).run().unwrap();
                    assert_same(&per_call, &cached, &what);
                    assert_eq!(goldens.runs(), 1, "{what}: one golden run per capture set");
                }
            }
        }
    }
}

#[test]
fn nyx_campaigns_over_a_golden_cache_equal_per_call_campaigns() {
    cached_equals_per_call(&nyx());
}

#[test]
fn montage_campaigns_over_a_golden_cache_equal_per_call_campaigns() {
    cached_equals_per_call(&MontageApp::multi_tile(3));
}

#[test]
fn qmc_campaigns_over_a_golden_cache_equal_per_call_campaigns() {
    cached_equals_per_call(&qmc());
}

/// One cache under campaigns of *different* shape: a two-signature
/// campaign (whose second shard's eligible count and whose
/// first-signature-scoped `profile.eligible` are counted per campaign
/// from the kept profile), then each signature alone. A write shard
/// with memo on captures what a read shard captures, so all three share
/// one golden run.
#[test]
fn campaigns_of_different_signatures_share_one_golden_run() {
    let app = MontageApp::multi_tile(3);
    let goldens = GoldenCache::new();
    let shapes = [
        vec![sig(InjectionSite::Read), sig(InjectionSite::Write)],
        vec![sig(InjectionSite::Write), sig(InjectionSite::Read)],
        vec![sig(InjectionSite::Write)],
        vec![sig(InjectionSite::Read)],
    ];
    for (i, sigs) in shapes.into_iter().enumerate() {
        let config = cfg(sigs, true, true, 0x7000 + i as u64).with_runs(16);
        let per_call = Campaign::new(&app, config.clone()).run().unwrap();
        let cached = Campaign::new(&app, config).with_goldens(&goldens).run().unwrap();
        assert_same(&per_call, &cached, &format!("shape {i}"));
        assert_eq!(cached.profile.eligible, cached.shards[0].eligible, "shape {i}");
    }
    assert_eq!(goldens.runs(), 1);
}

/// A small two-phase application with two ways to break a law.
struct Toy {
    analyze_writes: bool,
    declared_produce_reads: Option<u64>,
}

impl FaultApp for Toy {
    type Output = Vec<u8>;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        fs.write_file_chunked("/d.bin", &[3u8; 4096 * 3], 4096).map_err(|e| e.to_string())
    }

    fn analyze(&self, fs: &dyn FileSystem, _g: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
        let bytes = fs.read_to_vec("/d.bin").map_err(|e| e.to_string())?;
        if self.analyze_writes {
            fs.write_file("/analysis.log", b"looked").map_err(|e| e.to_string())?;
        }
        Ok(bytes)
    }

    fn classify(&self, g: &Vec<u8>, f: &Vec<u8>) -> Outcome {
        if g == f {
            Outcome::Benign
        } else {
            Outcome::Sdc
        }
    }

    fn produce_read_count(&self) -> Option<u64> {
        self.declared_produce_reads
    }

    fn name(&self) -> String {
        "TOY".into()
    }
}

/// A law that fails is a verdict like any other: the second campaign
/// over the cache reads the kept `Err` and records the same
/// `ReplayFallback` a campaign that checks for itself records.
#[test]
fn failed_law_verdicts_are_reproduced_from_the_cache() {
    let chatty = Toy { analyze_writes: true, declared_produce_reads: None };
    let liar = Toy { analyze_writes: false, declared_produce_reads: Some(5) };
    let cases = [
        (&chatty, InjectionSite::Write, ReplayFallback::AnalyzeWrites),
        (&chatty, InjectionSite::Read, ReplayFallback::AnalyzeWrites),
        (&liar, InjectionSite::Read, ReplayFallback::TraceMismatch),
    ];
    for (app, site, reason) in cases {
        let goldens = GoldenCache::new();
        for seed in [21, 22, 23] {
            let what = format!("{site:?} {reason} seed {seed}");
            let config = cfg(vec![sig(site)], true, true, seed);
            let per_call = Campaign::new(app, config.clone()).run().unwrap();
            let cached = Campaign::new(app, config).with_goldens(&goldens).run().unwrap();
            assert_eq!(cached.mode, ExecutionMode::FullRerun { reason }, "{what}");
            assert_same(&per_call, &cached, &what);
        }
        assert_eq!(goldens.runs(), 1);
    }
    // The honest variant of the same app passes the same laws.
    let honest = Toy { analyze_writes: false, declared_produce_reads: Some(0) };
    let ok = Campaign::new(&honest, cfg(vec![sig(InjectionSite::Read)], true, true, 21))
        .with_goldens(&GoldenCache::new())
        .run()
        .unwrap();
    assert_eq!(ok.mode, ExecutionMode::AnalyzeOnly);
}

struct Broken;

impl FaultApp for Broken {
    type Output = ();
    fn produce(&self, _fs: &dyn FileSystem) -> Result<(), String> {
        Err("always fails".into())
    }
    fn analyze(&self, _fs: &dyn FileSystem, _g: Option<&()>) -> Result<(), String> {
        Ok(())
    }
    fn classify(&self, _g: &(), _f: &()) -> Outcome {
        Outcome::Benign
    }
    fn name(&self) -> String {
        "BROKEN".into()
    }
}

/// A golden run that fails is an error for its campaign and is not
/// kept: the next campaign runs it again (and fails the same way).
#[test]
fn a_failed_golden_run_is_returned_not_cached() {
    let goldens = GoldenCache::new();
    for attempt in 1..=2 {
        let config = cfg(vec![sig(InjectionSite::Write)], true, true, 5);
        match Campaign::new(&Broken, config).with_goldens(&goldens).run() {
            Err(CampaignError::GoldenRunFailed(m)) => assert!(m.contains("always fails")),
            other => panic!("unexpected {:?}", other.map(|r| r.tally)),
        }
        assert_eq!(goldens.runs(), attempt);
    }
}

/// The memo gate's per-campaign conditions stay per campaign: a
/// fuel-armed campaign over a cache whose sub-step laws already passed
/// for a plain one still refuses (`liveness-watchdog`), and a plain one
/// after it still engages.
#[test]
fn a_watchdog_armed_campaign_after_a_plain_one_still_records_liveness() {
    let app = MontageApp::multi_tile(3);
    let goldens = GoldenCache::new();
    let plain = |seed| cfg(vec![sig(InjectionSite::Write)], true, true, seed);
    let first = Campaign::new(&app, plain(31)).with_goldens(&goldens).run().unwrap();
    assert!(first.memo.engaged, "{}", first.memo.reason());
    assert!(first.replay_opt.engaged);

    let armed = plain(32).with_fuel(10_000_000);
    let per_call = Campaign::new(&app, armed.clone()).run().unwrap();
    let cached = Campaign::new(&app, armed).with_goldens(&goldens).run().unwrap();
    assert_eq!(cached.memo.fallback, Some(MemoFallback::Liveness));
    assert!(!cached.replay_opt.engaged);
    assert_same(&per_call, &cached, "fuel-armed over a warm cache");

    let again = Campaign::new(&app, plain(33)).with_goldens(&goldens).run().unwrap();
    assert!(again.memo.engaged, "{}", again.memo.reason());
    assert_eq!(goldens.runs(), 1);
}

/// The sub-step laws are decided once per golden run, but the golden
/// artifacts are published per campaign, into whichever store that
/// campaign was handed: a second campaign with a store of its own
/// finds them there, and a third over that same store runs warm.
#[test]
fn a_campaign_with_its_own_memo_store_still_finds_the_golden_artifacts_published() {
    let app = MontageApp::multi_tile(3);
    let goldens = GoldenCache::new();
    for site in [InjectionSite::Write, InjectionSite::Read] {
        let config = |store: &Arc<MemoStore>| {
            cfg(vec![sig(site)], true, true, 0x51).with_memo_store(Arc::clone(store))
        };
        let first_store = Arc::new(MemoStore::in_memory());
        let first = Campaign::new(&app, config(&first_store)).with_goldens(&goldens).run().unwrap();
        assert!(first.memo.engaged, "{}", first.memo.reason());

        let own_store = Arc::new(MemoStore::in_memory());
        let per_call =
            Campaign::new(&app, config(&Arc::new(MemoStore::in_memory()))).run().unwrap();
        let second = Campaign::new(&app, config(&own_store)).with_goldens(&goldens).run().unwrap();
        assert_same(&per_call, &second, "a cold store of its own");
        assert!(second.memo.stats.misses > 0, "the cold store had to be filled");

        let third = Campaign::new(&app, config(&own_store)).with_goldens(&goldens).run().unwrap();
        assert_eq!(third.memo.stats.misses, 0, "golden artifacts and runs were published there");
        assert_eq!(third.run_digest(), second.run_digest());
    }
    assert_eq!(goldens.runs(), 1);
}

/// Eight campaigns of different seeds start at once over one capture
/// set: one makes the golden run, seven wait for it, all eight answer
/// what their per-call twins answer.
#[test]
fn racing_campaigns_over_one_key_make_one_golden_run() {
    let app = nyx();
    let goldens = GoldenCache::new();
    let start = Barrier::new(8);
    let results: Vec<(u64, CampaignResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let (app, goldens, start) = (&app, &goldens, &start);
                scope.spawn(move || {
                    let mut config = cfg(vec![sig(InjectionSite::Write)], true, true, 0x900 + t);
                    config.parallel = false;
                    start.wait();
                    (t, Campaign::new(app, config).with_goldens(goldens).run().unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(goldens.runs(), 1);
    for (t, cached) in &results {
        let mut config = cfg(vec![sig(InjectionSite::Write)], true, true, 0x900 + t);
        config.parallel = false;
        let per_call = Campaign::new(&app, config).run().unwrap();
        assert_same(&per_call, cached, &format!("racer {t}"));
    }
}
