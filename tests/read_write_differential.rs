//! Differential pinning of the write-path and read-path campaigns,
//! plus the read-site campaigns' analyze-only fast path against full
//! reruns.
//!
//! These tests pin the *seeded* behavior — outcome tallies, per-run
//! injection records, and crash messages — of the BF/SW/DW campaigns
//! and their read-site mirrors BF/SR/DR on all three paper workloads,
//! so any drift in the damage a fault model does, or in where it lands,
//! shows up as a failed pin, not a silent shift in the fig7 numbers.
//! The read pins are independent of the analyze-only differential
//! below: that one compares two paths sharing `apply_to_read`, so a
//! change to the damage itself cannot show there.
//!
//! The pins are execution-strategy independent: the digests exclude
//! [`ExecutionMode`], so the same constants must hold when CI forces
//! the full-rerun path with `FFIS_REPLAY=0` (the replay/rerun
//! equivalence is pinned separately in `replay_equivalence.rs`).

use ffis_core::prelude::*;
use ffis_core::CampaignResult;
use montage_sim::MontageApp;
use nyx_sim::{FieldConfig, NyxApp, NyxConfig};
use qmc_sim::{DmcConfig, QmcApp, QmcConfig, QmcaConfig, VmcConfig};

fn nyx() -> NyxApp {
    NyxApp::new(NyxConfig {
        field: FieldConfig { n: 16, ..Default::default() },
        ..Default::default()
    })
}

fn qmc() -> QmcApp {
    QmcApp::new(QmcConfig {
        vmc: VmcConfig { walkers: 64, warmup: 100, steps: 120, ..Default::default() },
        dmc: DmcConfig { target_walkers: 64, warmup: 0, steps: 200, ..Default::default() },
        qmca: QmcaConfig { equilibration_fraction: 0.2, min_rows: 20 },
        ..Default::default()
    })
}

/// FNV-1a accumulator shared by every pin digest in this file.
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

/// FNV-1a over every strategy-independent per-run artifact.
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

/// One pinned cell: `(model label, benign, detected, sdc, crash,
/// no_fire, digest)`.
type Pin = (&'static str, u64, u64, u64, u64, u64, u64);

/// Check the three models of one site (`on` is `FaultSignature::on_write`
/// or `FaultSignature::on_read`) against their pinned rows.
fn assert_pins<A: FaultApp>(
    app: &A,
    on: fn(FaultModel) -> FaultSignature,
    runs: usize,
    pins: &[Pin; 3],
) {
    let models = [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()];
    let mut got = Vec::new();
    for model in models {
        let sig = on(model);
        let label = sig.label();
        let cfg = CampaignConfig::new(sig).with_runs(runs).with_seed(4242);
        let r = Campaign::new(app, cfg).run().unwrap();
        got.push((
            label,
            r.tally.benign,
            r.tally.detected,
            r.tally.sdc,
            r.tally.crash,
            r.tally.no_fire,
            digest(&r),
        ));
    }
    let rows: Vec<String> = got
        .iter()
        .map(|g| {
            format!("(\"{}\", {}, {}, {}, {}, {}, {:#018X}),", g.0, g.1, g.2, g.3, g.4, g.5, g.6)
        })
        .collect();
    assert_eq!(
        &got[..],
        &pins[..],
        "{} drifted from the pinned seeded {}-path behavior.\nactual rows:\n{}",
        app.name(),
        on(FaultModel::bit_flip()).site(),
        rows.join("\n")
    );
}

#[test]
fn nyx_write_campaigns_pinned() {
    assert_pins(
        &nyx(),
        FaultSignature::on_write,
        24,
        &[
            ("BF", 20, 0, 0, 4, 0, 0xA22F0AFA9A868E2F),
            ("SW", 21, 0, 0, 3, 0, 0x47E0D64B7DD7C6FC),
            ("DW", 8, 0, 2, 14, 0, 0x99FF8A516AB86DD4),
        ],
    );
}

#[test]
fn qmc_write_campaigns_pinned() {
    assert_pins(
        &qmc(),
        FaultSignature::on_write,
        20,
        &[
            ("BF", 7, 13, 0, 0, 0, 0x42E87A86744BA08C),
            ("SW", 7, 13, 0, 0, 0, 0x17D4FE28EB3DB346),
            ("DW", 4, 11, 0, 5, 0, 0xCA311790CA5CA56B),
        ],
    );
}

/// Acceptance: read-site campaigns on all three apps take the
/// analyze-only fast path (their produce phases issue no read-back,
/// declared via `produce_read_count` and verified by the golden read
/// ledger) on every run, and the CSV row carries the mode.
#[test]
fn read_site_campaigns_analyze_only_on_all_three_apps() {
    fn check<A: FaultApp>(app: &A, runs: usize) {
        // The fast path is explicitly requested: the recorded mode
        // must be the analyze-only strategy, not "rerun(disabled)"
        // (which is what the FFIS_REPLAY=0 CI default would report).
        let cfg = CampaignConfig::new(FaultSignature::on_read(FaultModel::bit_flip()))
            .with_runs(runs)
            .with_seed(4242)
            .with_replay(true);
        let result = Campaign::new(app, cfg).run().unwrap();
        assert_eq!(result.mode, ExecutionMode::AnalyzeOnly, "{}", app.name());
        assert_eq!(result.tally.total() as usize, runs);
        for r in &result.runs {
            assert_eq!(r.mode, result.mode, "{} run {}", app.name(), r.run);
        }
        let row = result.csv_row(&app.name());
        assert!(row.ends_with("analyze-only"), "{}", row);
    }
    check(&nyx(), 8);
    check(&qmc(), 6);
    check(&MontageApp::paper_default(), 5);
}

/// The analyze-only differential pin: for every app × read-site model,
/// the analyze-only fast path and the full-rerun reference path must
/// agree **byte for byte** — tallies, target instances, full injection
/// records, crash messages, and the FNV digest over all of them. Both
/// paths are requested explicitly, so the same constants hold under
/// `FFIS_REPLAY=0` (where the suite default would disable the fast
/// path) and the replay default alike.
#[test]
fn analyze_only_equals_full_rerun_on_all_three_apps() {
    fn check<A: FaultApp>(app: &A, runs: usize) {
        for model in
            [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()]
        {
            let mk = |replay: bool| {
                let cfg = CampaignConfig::new(FaultSignature::on_read(model))
                    .with_runs(runs)
                    .with_seed(4242)
                    .with_replay(replay);
                Campaign::new(app, cfg).run().unwrap()
            };
            let fast = mk(true);
            let slow = mk(false);
            assert_eq!(fast.mode, ExecutionMode::AnalyzeOnly, "{} {:?}", app.name(), model);
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
                assert_eq!(
                    f.crash_message,
                    s.crash_message,
                    "{} {:?} run {}",
                    app.name(),
                    model,
                    f.run
                );
            }
            assert_eq!(
                digest(&fast),
                digest(&slow),
                "{} {:?}: strategy-independent digests must collide",
                app.name(),
                model
            );
        }
    }
    check(&nyx(), 12);
    check(&qmc(), 8);
    check(&MontageApp::paper_default(), 6);
}

/// The metadata scanner now executes through the same engine; this
/// pins a seeded byte scan on the Nyx plotfile — tally plus an FNV
/// digest over `(byte index, file offset, outcome, crash message)` —
/// under *both* execution strategies, which must agree with each other
/// and with the pin (so `FFIS_REPLAY=0` runs reproduce it too).
#[test]
fn scan_detailed_pinned_through_engine() {
    use ffis_core::{scan_detailed, ScanConfig, TargetFilter};

    let app = nyx();
    let run = |replay: bool| {
        let mut cfg = ScanConfig::new(TargetFilter::PathSuffix(".h5".into()));
        cfg.stride = 7;
        cfg.replay = replay;
        scan_detailed(&app, &cfg).unwrap()
    };
    let fast = run(true);
    let slow = run(false);
    assert!(fast.used_replay() && !slow.used_replay());

    let scan_digest = |r: &ffis_core::DetailedScanResult<nyx_sim::NyxOutput>| -> u64 {
        let mut h = Fnv::new();
        for b in r.runs.iter().map(|run| &run.byte) {
            h.eat(&(b.byte_index as u64).to_le_bytes());
            h.eat(&b.file_offset.to_le_bytes());
            h.eat(b.outcome.name().as_bytes());
            h.eat(b.crash_message.as_deref().unwrap_or("-").as_bytes());
        }
        h.0
    };
    let (df, ds) = (scan_digest(&fast), scan_digest(&slow));
    assert_eq!(df, ds, "replay and rerun scans must digest identically");
    assert_eq!(fast.tally, slow.tally);
    let got = (
        fast.tally.benign,
        fast.tally.detected,
        fast.tally.sdc,
        fast.tally.crash,
        fast.write_instance,
        df,
    );
    assert_eq!(
        got, SCAN_PIN,
        "metadata scan drifted from its pinned seeded behavior.\nactual: ({}, {}, {}, {}, {}, {:#018X})",
        got.0, got.1, got.2, got.3, got.4, got.5
    );
}

/// Pinned `(benign, detected, sdc, crash, write_instance, digest)` for
/// [`scan_detailed_pinned_through_engine`].
const SCAN_PIN: (u64, u64, u64, u64, u64, u64) = (271, 0, 0, 41, 5, 0xD8BC_0A5D_7850_AB0C);

#[test]
fn montage_write_campaigns_pinned() {
    assert_pins(
        &MontageApp::paper_default(),
        FaultSignature::on_write,
        12,
        &[
            ("BF", 10, 0, 2, 0, 0, 0xEE802CFD59525396),
            ("SW", 4, 3, 5, 0, 0, 0xEA549AE391419E34),
            ("DW", 0, 2, 2, 8, 0, 0x813934E121DDE67C),
        ],
    );
}

#[test]
fn nyx_read_campaigns_pinned() {
    assert_pins(
        &nyx(),
        FaultSignature::on_read,
        24,
        &[
            ("BF", 23, 0, 0, 1, 0, 0x7DA2622A02A94480),
            ("SR", 24, 0, 0, 0, 0, 0x1BFB7EBA3BE63139),
            ("DR", 0, 0, 0, 24, 0, 0x2260C19EA6CF2EC5),
        ],
    );
}

#[test]
fn qmc_read_campaigns_pinned() {
    assert_pins(
        &qmc(),
        FaultSignature::on_read,
        20,
        &[
            ("BF", 6, 14, 0, 0, 0, 0xC63115DFE9324C9B),
            ("SR", 6, 14, 0, 0, 0, 0x1A8F6D959A64C7F2),
            ("DR", 0, 0, 0, 20, 0, 0xE3784703C9D41109),
        ],
    );
}

#[test]
fn montage_read_campaigns_pinned() {
    assert_pins(
        &MontageApp::paper_default(),
        FaultSignature::on_read,
        12,
        &[
            ("BF", 12, 0, 0, 0, 0, 0xF1FF696688AD66E5),
            ("SR", 12, 0, 0, 0, 0, 0x16A5D8065F680496),
            ("DR", 12, 0, 0, 0, 0, 0xD5919CCC10DA4497),
        ],
    );
}
