//! `repro replay-opt` — the plan-aware replay measurement: the
//! write-site, suffix-replay-dominated cells where demand-driven
//! checkpoint placement, checkpoint-grouped batch execution, and
//! suffix op coalescing earn their keep.
//!
//! Each cell runs the same spec twice at an equal run count:
//!
//! 1. **control** — `replay_opt` off: log-spaced checkpoints, one
//!    mounted per-run suffix replay from the nearest preceding
//!    checkpoint (the pre-optimization replay fast path).
//! 2. **optimized** — `replay_opt` on: checkpoints placed against the
//!    campaign's own fork-offset histogram (overshoot driven toward
//!    zero), runs batch-grouped by checkpoint so each group shares one
//!    bare reconstruction pass, and post-fire suffixes applied
//!    off-mount through coalesced vectored writes.
//!
//! The experiment *asserts* the optimization contract where the
//! numbers are made — the two regimes must agree byte-for-byte on
//! tallies and run digests (the optimizations are invisible to every
//! digest), the optimized pass must engage demand placement and
//! batching, and its measured checkpoint overshoot must be strictly
//! below the control's. The headline Montage multi-file cell — the
//! memoized regime PR 9 left the replay engine as the hot path of —
//! has its cold run-phase speedup printed, not gated (a wall-clock
//! ratio is the host's to decide; `benchmark/` measures it): with the
//! dirty cascade pinning analyze to one tile, the batched arm also
//! filters the replayed tail to that tile's declared reads, so the
//! per-run suffix shrinks by roughly the tile count. Walls are
//! compared on the *run phase* (total wall minus the time to the first
//! run event) so the one-time golden produce and checkpoint build,
//! shared by both regimes, do not dilute the per-run ratio.
//!
//! The measured numbers land in `BENCH_replay_opt.json`, with both
//! regimes' suffix-op accounting and the optimized pass's
//! batch/coalescing counters.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ffis_core::{CampaignResult, CampaignSpec, CompletionStatus, ExecutionMode, RunObserver};
use ffis_daemon::json::{field, Json};
use ffis_daemon::{execute_spec, ExecHooks};

use crate::bench_json;
use crate::cli::Options;
use crate::report::{Report, Table};

/// One spec executed once, with the run phase timed separately: the
/// first run event marks the end of planning + golden produce +
/// checkpoint build (work both regimes repeat near-identically), so
/// `run_phase_s` is the wall the replay optimizations can actually
/// shrink.
struct TimedRun {
    result: CampaignResult,
    wall_s: f64,
    run_phase_s: f64,
}

fn timed_exec(spec: &CampaignSpec, opts: &Options) -> Result<TimedRun, String> {
    let started = Instant::now();
    let first_event: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&first_event);
    let hooks = ExecHooks {
        journal: None,
        cancel: opts.cancel.clone(),
        checkpoints: None,
        memo: None,
        observer: Some(RunObserver::new(move |_, _| {
            let mut slot = sink.lock().unwrap();
            if slot.is_none() {
                *slot = Some(started.elapsed().as_secs_f64());
            }
        })),
        index_range: None,
        apps: None,
    };
    let result = execute_spec(spec, &hooks).map_err(|e| e.to_string())?;
    if result.status != CompletionStatus::Complete {
        return Err("interrupted".into());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let setup_s = first_event.lock().unwrap().unwrap_or(0.0);
    Ok(TimedRun { result, wall_s, run_phase_s: (wall_s - setup_s).max(1e-9) })
}

/// One cell's two passes plus the derived speedup, for the table and
/// the JSON artifact.
struct OptCell {
    app: &'static str,
    label: String,
    files: usize,
    grid: usize,
    runs: usize,
    control: TimedRun,
    optimized: TimedRun,
}

impl OptCell {
    fn speedup(&self) -> f64 {
        self.control.run_phase_s / self.optimized.run_phase_s.max(1e-9)
    }
}

/// The replay-opt experiment (see the module docs).
pub fn replay_opt(opts: &Options) -> Report {
    // The acceptance regime is n >= 64 (suffix replay must dominate
    // the run phase); an explicit smaller --grid is floored, the
    // default is the paper-proportioned n=96.
    let n = if opts.grid_explicit || opts.quick { opts.grid.max(64) } else { 96 };

    let mut report = Report::new("replay-opt");
    report.line("Plan-aware replay — demand placement + batch grouping + suffix coalescing");
    report.line(format!(
        "(grid: {n}³, runs per pass: {}, seed: {:#x}; equal run counts, digest identity asserted \
         per cell)",
        opts.runs, opts.seed
    ));
    report.blank();

    // Write-site suffix-replay-dominated cells. The Montage 48-tile
    // mosaic is the headline: its memoized dirty cascade pins each
    // run's analyze to one tile, so the batched arm filters the
    // replayed tail to that tile and the control's full-suffix replay
    // towers over it. The single-plotfile Nyx cell covers the
    // unmemoized batched arm (no memo basis, full tail) — reported,
    // not gated, since its halo-finder analyze is the same order as
    // its replay.
    let cells: [(&'static str, usize, &'static str, u64); 2] =
        [("montage", 48, "BF", 941), ("nyx", 1, "BF", 940)];
    let mut measured: Vec<OptCell> = Vec::new();

    for (app, files, model, salt) in cells {
        if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            report.line(format!("{} skipped: interrupted", app));
            continue;
        }
        let mut spec = CampaignSpec::new(app, model);
        spec.site = "write".into();
        spec.grid = n;
        spec.files = files;
        spec.runs = opts.runs;
        spec.seed = opts.seed.wrapping_add(salt);
        spec.journal = false;

        let mut control_spec = spec.clone();
        control_spec.replay_opt = false;
        spec.replay_opt = true;

        let exec = timed_exec(&control_spec, opts)
            .and_then(|control| Ok((control, timed_exec(&spec, opts)?)));
        let (control, optimized) = match exec {
            Ok(x) => x,
            Err(e) => {
                report.line(format!("{} failed: {}", app, e));
                continue;
            }
        };
        eprintln!(
            "[replay-opt] {} {} — run phase: control {:.3}s optimized {:.3}s ({:.2}x)",
            app,
            spec.label(),
            control.run_phase_s,
            optimized.run_phase_s,
            control.run_phase_s / optimized.run_phase_s.max(1e-9)
        );

        // The optimization contract, asserted where the speedup is
        // claimed: both regimes replay, the optimized pass actually
        // engages every layer, and nothing observable moves.
        assert_eq!(
            control.result.mode,
            ExecutionMode::Replay,
            "{}: control must run the replay fast path",
            app
        );
        assert_eq!(
            optimized.result.mode,
            ExecutionMode::Replay,
            "{}: optimized pass must run the replay fast path",
            app
        );
        let co = &control.result.replay_opt;
        let oo = &optimized.result.replay_opt;
        assert!(!co.engaged, "{}: control pass must not engage the optimizations", app);
        assert!(oo.engaged && oo.demand_placed, "{}: optimized pass fell back to log-spaced", app);
        assert!(oo.batches > 0 && oo.batched_runs > 0, "{}: no runs executed batched", app);
        assert!(oo.coalesced_calls > 0, "{}: batched suffixes never coalesced", app);
        assert!(
            oo.overshoot < co.overshoot,
            "{}: demand placement did not reduce checkpoint overshoot ({} -> {})",
            app,
            co.overshoot,
            oo.overshoot
        );
        assert_eq!(
            optimized.result.tally, control.result.tally,
            "{}: optimized tally diverged from control",
            app
        );
        assert_eq!(
            optimized.result.run_digest(),
            control.result.run_digest(),
            "{}: optimized run digest diverged from control",
            app
        );

        measured.push(OptCell {
            app,
            label: spec.label(),
            files,
            grid: n,
            runs: opts.runs,
            control,
            optimized,
        });
    }

    let mut table = Table::new();
    table.row(&[
        "cell",
        "runs",
        "ctrl s",
        "opt s",
        "speedup",
        "ctrl overshoot",
        "opt overshoot",
        "batches",
        "batched",
        "coalesced ops",
        "skipped ops",
        "digest",
    ]);
    for c in &measured {
        let (co, oo) = (&c.control.result.replay_opt, &c.optimized.result.replay_opt);
        table.row(&[
            &format!("{} {}", c.app, c.label),
            &c.runs.to_string(),
            &format!("{:.2}", c.control.run_phase_s),
            &format!("{:.2}", c.optimized.run_phase_s),
            &format!("{:.2}x", c.speedup()),
            &co.overshoot.to_string(),
            &oo.overshoot.to_string(),
            &oo.batches.to_string(),
            &oo.batched_runs.to_string(),
            &oo.coalesced_ops.to_string(),
            &oo.skipped_tail_ops.to_string(),
            "match",
        ]);
    }
    report.line(table.render());
    report.line("Walls are run-phase only (total minus time to the first run event), so the");
    report.line("golden produce and checkpoint build both regimes repeat are not counted as");
    report.line("an optimization win. Digest column: tallies and run digests asserted equal.");

    // The Montage headline cell, reported but not gated: its
    // equivalence, engagement and overshoot were asserted above, and a
    // wall-clock ratio is the host's to decide. (The Nyx row has no
    // memo basis, so its tail cannot filter, and its per-run
    // halo-finder analyze is the same order as the replay it shares
    // the run phase with.)
    if let Some(head) = measured.iter().find(|c| c.app == "montage") {
        report.line(format!(
            "(headline: montage {} write — {:.2}x cold (control {:.3}s, optimized {:.3}s), \
             overshoot {} -> {})",
            head.label,
            head.speedup(),
            head.control.run_phase_s,
            head.optimized.run_phase_s,
            head.control.result.replay_opt.overshoot,
            head.optimized.result.replay_opt.overshoot
        ));
    } else {
        report.line("headline cell missing (interrupted or failed above)");
    }

    let opt_json = |r: &ffis_core::ReplayOptReport| {
        Json::Obj(vec![
            field("engaged", Json::Bool(r.engaged)),
            field("demand_placed", Json::Bool(r.demand_placed)),
            field("replayed_suffix_ops", Json::Num(r.replayed_suffix_ops as f64)),
            field("minimal_suffix_ops", Json::Num(r.minimal_suffix_ops as f64)),
            field("overshoot", Json::Num(r.overshoot as f64)),
            field("batches", Json::Num(r.batches as f64)),
            field("batched_runs", Json::Num(r.batched_runs as f64)),
            field("coalesced_calls", Json::Num(r.coalesced_calls as f64)),
            field("coalesced_ops", Json::Num(r.coalesced_ops as f64)),
            field("skipped_tail_ops", Json::Num(r.skipped_tail_ops as f64)),
        ])
    };
    let cells_json: Vec<Json> = measured
        .iter()
        .map(|c| {
            Json::Obj(vec![
                field("app", Json::Str(c.app.into())),
                field("model", Json::Str(c.label.clone())),
                field("site", Json::Str("write".into())),
                field("grid", Json::Num(c.grid as f64)),
                field("files", Json::Num(c.files as f64)),
                field("runs", Json::Num(c.runs as f64)),
                field("wall_control_s", Json::Num(c.control.wall_s)),
                field("wall_optimized_s", Json::Num(c.optimized.wall_s)),
                field("run_phase_control_s", Json::Num(c.control.run_phase_s)),
                field("run_phase_optimized_s", Json::Num(c.optimized.run_phase_s)),
                field("speedup", Json::Num(c.speedup())),
                field("control", opt_json(&c.control.result.replay_opt)),
                field("optimized", opt_json(&c.optimized.result.replay_opt)),
                field(
                    "overshoot_reduction",
                    Json::Num(
                        c.control
                            .result
                            .replay_opt
                            .overshoot
                            .saturating_sub(c.optimized.result.replay_opt.overshoot)
                            as f64,
                    ),
                ),
                field("run_digest", Json::Str(format!("{:#018x}", c.control.result.run_digest()))),
                field("digest_match", Json::Bool(true)),
            ])
        })
        .collect();
    let json = Json::Obj(vec![
        field("bench", Json::Str("replay_opt".into())),
        field("grid", Json::Num(n as f64)),
        field("runs_per_pass", Json::Num(opts.runs as f64)),
        field("seed", Json::Num(opts.seed as f64)),
        field("cells", Json::Arr(cells_json)),
    ]);
    if let Some(path) = bench_json::save_in(&opts.out, "BENCH_replay_opt.json", &json) {
        report.line(format!("(machine-readable numbers: {})", path.display()));
    }
    report
}
