//! `repro scale` — the scale-regime experiment: paper-scale Nyx grids
//! (n=192 by default) driven through the streaming engine with bounded
//! run-record retention.
//!
//! This is the ROADMAP "Scale experiments" item made executable — and,
//! since the analyze-only read path landed, the read-model rows of the
//! paper's campaign matrix run at the same grid: the three write-site
//! fault models execute as replay-backed campaigns, their read-site
//! mirrors (r:BF / r:SR / r:DR) as analyze-only campaigns, and the
//! summary pairs each model's two sites by runs/s. The experiment
//! *asserts* the engine's scale contracts instead of just reporting
//! them — the retained run records never exceed the
//! [`SCALE_KEEP_RUNS`] reservoir bound while the tallies still cover
//! every run, and (when the fast paths are enabled) every write
//! campaign replays and every read campaign engages `analyze-only`
//! rather than silently rerunning. Write-site rows additionally report
//! the plan-aware replay accounting: total replayed suffix ops and
//! checkpoint overshoot per cell. Every row says how many of its runs
//! were `executed` here and how many were `resumed` from a journal —
//! what the CI resume step reads.
//!
//! `--grid`/`--runs` plumb straight through (`repro scale --grid 64
//! --runs 96` is the CI smoke configuration); without an explicit
//! `--grid` the experiment picks the paper-scale n=192. What other
//! runs are diffed against is `DIGESTS.txt`; the wall-clock columns
//! are for the reader (time is measured by `benchmark/`).
//!
//! With `--workers N` (N > 1) the whole matrix runs *distributed*:
//! each cell's run plan is sharded by index range across N spawned
//! worker processes (each builds the cell's checkpoint set from the
//! plan it derives; only the analyze memo under `--out/store/memo` is
//! shared), the workers' journal segments are merged, and the final
//! result is re-derived through the engine's resume path. Engine law 7
//! makes that byte-identical to the in-process run — same tallies,
//! same `DIGESTS.txt` — which the experiment *asserts* by rerunning
//! two cells as serial controls (the CPU-bound nyx BF cell and a
//! latency-bound paced cell whose fan-out speedup survives even a
//! single-core host).

use std::mem::size_of;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ffis_core::prelude::*;
use ffis_core::{CampaignResult, CampaignSpec, CompletionStatus, RunResult};
use ffis_daemon::{execute_spec, run_distributed, self_worker_cmd, ExecHooks};
use ffis_vfs::{MemoStats, MemoStore};

use crate::cli::Options;
use crate::experiments::campaigns::{models, read_models};
use crate::report::{Report, Table};

/// Record-retention bound for scale campaigns: the seed-stable
/// reservoir keeps this many representative [`RunResult`]s per
/// campaign; every other record is dropped in the worker that produced
/// it.
pub const SCALE_KEEP_RUNS: usize = 64;

/// Approximate resident size of one retained run record (struct plus
/// owned strings).
fn record_bytes(r: &RunResult) -> usize {
    size_of::<RunResult>()
        + r.crash_message.as_ref().map_or(0, |m| m.len())
        + r.injection
            .as_ref()
            .map_or(0, |i| i.detail.len() + i.path.as_ref().map_or(0, |p| p.len()))
}

/// One executed cell's numbers, kept for the paired summary, the
/// digest file and the fan-out controls.
struct CellStats {
    label: &'static str,
    site: InjectionSite,
    wall_s: f64,
    runs_per_s: f64,
    plan_fingerprint: u64,
    run_digest: u64,
    complete: bool,
}

/// The scale experiment (see the module docs).
pub fn scale(opts: &Options) -> Report {
    let n = if opts.grid_explicit || opts.quick { opts.grid } else { 192 };

    let mut report = Report::new("scale");
    report.line("Scale regime — Nyx paper preset through the streaming planner/executor engine");
    report.line(format!(
        "(grid: {n}³, runs per cell: {}, keep_runs: {SCALE_KEEP_RUNS}, seed: {:#x})",
        opts.runs, opts.seed
    ));
    report.blank();

    // One analyze memo store shared across every in-process cell —
    // the scale mirror of the daemon's per-root store. The matrix
    // cells are single-file (files=1), so the engine records the
    // `no-substeps` fallback and the counters stay zero; the store is
    // wired (and reported) anyway so the accounting line below is the
    // same one a multi-file regime populates (the multi-file cells
    // of `tests/memo_equivalence.rs` are the ones that hit it).
    let memo_store = Arc::new(MemoStore::in_memory());
    let mut memo_totals = MemoStats::default();
    let fast_paths = ffis_core::replay_default();

    // Distributed fan-out (`--workers N`): shard every cell across N
    // worker processes re-invoking this same binary's hidden
    // `daemon worker` subcommand. If we cannot even name our own
    // executable there is nothing to spawn — say so once and run
    // in-process rather than dying.
    let worker_cmd: Option<Vec<String>> = if opts.workers > 1 {
        match self_worker_cmd() {
            Ok(cmd) => Some(cmd),
            Err(e) => {
                report.line(format!(
                    "--workers {}: cannot locate own executable ({}); running in-process",
                    opts.workers, e
                ));
                None
            }
        }
    } else {
        None
    };
    if worker_cmd.is_some() {
        report.line(format!("(distributed: {} worker processes per cell)", opts.workers));
        report.blank();
    }
    let fan_root = opts.out.join("fanout");

    let mut table = Table::new();
    table.row(&[
        "model",
        "site",
        "benign%",
        "detected%",
        "SDC%",
        "crash%",
        "n",
        "executed",
        "resumed",
        "kept",
        "kept KiB",
        "exec",
        "wall s",
        "runs/s",
        "replay ops",
        "overshoot",
    ]);
    let mut total_runs = 0u64;
    let mut stats: Vec<CellStats> = Vec::new();

    // The full campaign matrix at scale, as the same [`CampaignSpec`]s
    // a daemon submission would carry: the three write-site models
    // (replay-backed, one demand-placed checkpoint set each) and their
    // read-site mirrors (analyze-only, no checkpoints needed — the
    // golden state is the checkpoint). The CI daemon-smoke job submits
    // these exact specs over HTTP and diffs the digests against this
    // in-process run.
    let cells: [(&'static str, &'static str, &'static str, u64); 6] = [
        ("BF", "BF", "write", 900),
        ("SW", "SW", "write", 901),
        ("DW", "DW", "write", 902),
        ("r:BF", "BF", "read", 950),
        ("r:SR", "SW", "read", 951),
        ("r:DR", "DW", "read", 952),
    ];

    for (label, model, site_name, salt) in cells {
        if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            report.line(format!("{} skipped: interrupted", label));
            continue;
        }
        let mut spec = CampaignSpec::new("nyx", model);
        spec.site = site_name.into();
        spec.grid = n;
        spec.runs = opts.runs;
        spec.seed = opts.seed.wrapping_add(salt);
        spec.keep_runs = Some(SCALE_KEEP_RUNS);
        spec.journal = opts.journal.is_some();
        spec.resume = opts.resume;
        // The DIGESTS vocabulary is the spec's own label — pinned so a
        // daemon-submitted cell reports under the same name.
        assert_eq!(spec.label(), label, "cell label drifted from the spec vocabulary");
        let site = spec.injection_site().expect("static cell sites are valid");
        // Durability plumbing: one journal per cell under --journal,
        // resumed on --resume; Ctrl-C stops between runs with
        // everything completed so far already journaled.
        let journal_path = opts.journal.as_ref().map(|dir| {
            let _ = std::fs::create_dir_all(dir);
            dir.join(format!("scale_{}_{}.journal", label.replace(':', "-"), site.token()))
        });
        let work_dir = fan_root.join(format!("{}_{}", label.replace(':', "-"), site.token()));
        let started = Instant::now();
        let exec = match worker_cmd.as_deref() {
            Some(cmd) => distribute_cell(&spec, opts, cmd, &work_dir),
            None => {
                let hooks = ExecHooks {
                    journal: journal_path.clone(),
                    cancel: opts.cancel.clone(),
                    memo: Some(Arc::clone(&memo_store)),
                    ..ExecHooks::default()
                };
                execute_spec(&spec, &hooks).map_err(|e| e.to_string())
            }
        };
        let result = match exec {
            Ok(r) => r,
            Err(e) => {
                report.line(format!("{} failed: {}", label, e));
                continue;
            }
        };
        let wall = started.elapsed().as_secs_f64();

        // The engine's scale contracts, asserted where the numbers are
        // produced: bounded record retention, full-coverage tallies,
        // and — when the fast paths are on — no silent fallback to
        // full reruns on either site. An interrupted cell legitimately
        // covers only its completed runs, so the coverage assert is
        // conditional on completion.
        let complete = result.status == CompletionStatus::Complete;
        assert!(
            result.runs.len() <= SCALE_KEEP_RUNS,
            "{}: retained {} run records, reservoir bound is {}",
            label,
            result.runs.len(),
            SCALE_KEEP_RUNS
        );
        if complete {
            assert_eq!(
                result.tally.total() as usize,
                opts.runs,
                "{}: tally must cover every run, kept or dropped",
                label
            );
        } else {
            report.line(format!(
                "{} interrupted after {} of {} runs (journaled: {}) — rerun with --resume",
                label,
                result.tally.total(),
                opts.runs,
                journal_path.is_some() || worker_cmd.is_some()
            ));
        }
        if fast_paths {
            match site {
                InjectionSite::Write => assert_eq!(
                    result.mode,
                    ExecutionMode::Replay,
                    "{}: write-site scale cells must replay",
                    label
                ),
                InjectionSite::Read => assert_eq!(
                    result.mode,
                    ExecutionMode::AnalyzeOnly,
                    "{}: read-site scale cells must run analyze-only",
                    label
                ),
            }
        }

        memo_totals.merge(&result.memo.stats);
        let kept_bytes: usize = result.runs.iter().map(record_bytes).sum();
        let t = &result.tally;
        // Write-site rows carry the plan-aware replay accounting:
        // total replayed suffix ops across the cell's replay runs and
        // the checkpoint overshoot (replayed minus minimal suffix ops
        // — 0 means every run forked exactly at its target). Read
        // rows never replay a suffix.
        let ro = &result.replay_opt;
        let (replay_ops_col, overshoot_col) = if site == InjectionSite::Write {
            (ro.replayed_suffix_ops.to_string(), ro.overshoot.to_string())
        } else {
            ("-".to_string(), "-".to_string())
        };
        table.row(&[
            label,
            site.token(),
            &format!("{:.1}", t.rate_pct(Outcome::Benign)),
            &format!("{:.1}", t.rate_pct(Outcome::Detected)),
            &format!("{:.1}", t.rate_pct(Outcome::Sdc)),
            &format!("{:.1}", t.rate_pct(Outcome::Crash)),
            &t.total().to_string(),
            &result.executed.to_string(),
            &result.resumed.to_string(),
            &result.runs.len().to_string(),
            &format!("{:.1}", kept_bytes as f64 / 1024.0),
            &result.mode.to_string(),
            &format!("{:.1}", wall),
            &format!("{:.1}", opts.runs as f64 / wall.max(1e-9)),
            &replay_ops_col,
            &overshoot_col,
        ]);
        total_runs += t.total();
        stats.push(CellStats {
            label,
            site,
            wall_s: wall,
            runs_per_s: opts.runs as f64 / wall.max(1e-9),
            plan_fingerprint: result.plan_fingerprint,
            run_digest: result.run_digest(),
            complete,
        });
    }

    report.line(table.render());
    report.line(format!(
        "({} total runs; record memory bounded at keep_runs={} per campaign — dropped records \
         freed in the worker)",
        total_runs, SCALE_KEEP_RUNS
    ));
    // The analyze memo store's accounting: hit/miss/invalidation
    // counters summed over every cell.
    // Single-file matrix cells record the `no-substeps` fallback, so
    // all three stay zero here.
    report.line(format!(
        "(analyze memo store: {} hits, {} misses, {} invalidations across {} cells)",
        memo_totals.hits,
        memo_totals.misses,
        memo_totals.invalidations,
        stats.len()
    ));

    // Paired read-vs-write throughput: the ISSUE target is read-site
    // campaign throughput within ~2x of write-site replay throughput
    // (it was unboundedly worse in the full-rerun regime).
    report.header("Paired read-vs-write throughput (runs/s)");
    let mut pairs = Table::new();
    pairs.row(&["model", "write runs/s", "read runs/s", "read/write"]);
    for ((wl, _), (rl, _)) in models().into_iter().zip(read_models()) {
        let w = stats.iter().find(|s| s.label == wl && s.site == InjectionSite::Write);
        let r = stats.iter().find(|s| s.label == rl && s.site == InjectionSite::Read);
        if let (Some(w), Some(r)) = (w, r) {
            pairs.row(&[
                &format!("{} / {}", wl, rl),
                &format!("{:.1}", w.runs_per_s),
                &format!("{:.1}", r.runs_per_s),
                &format!("{:.2}x", r.runs_per_s / w.runs_per_s.max(1e-9)),
            ]);
        }
    }
    report.line(pairs.render());
    report.line("Read rows ride the analyze-only fast path: fork the golden post-produce state,");
    report.line("pre-seed the phase-boundary counters, and run only analyze with the fault armed");
    report.line("— produce-phase read targets (none on Nyx) would rerun as produce-read-fault.");

    // DIGESTS.txt: one deterministic `label site fingerprint digest`
    // line per completed cell — what the CI scale-smoke job diffs
    // between its fan-out and killed-and-resumed passes and its
    // uninterrupted control.
    let mut digests = String::new();
    for s in stats.iter().filter(|s| s.complete) {
        digests.push_str(&format!(
            "{} {} {:#018x} {:#018x}\n",
            s.label,
            s.site.token(),
            s.plan_fingerprint,
            s.run_digest
        ));
    }
    let digests_path = opts.out.join("DIGESTS.txt");
    if std::fs::create_dir_all(&opts.out).is_ok() && std::fs::write(&digests_path, &digests).is_ok()
    {
        report.line(format!("(per-cell run digests: {})", digests_path.display()));
    }

    if let Some(cmd) = worker_cmd.as_deref() {
        distributed_summary(opts, n, cmd, &fan_root, &stats, &mut report);
    }
    report
}

/// Run one matrix cell through the multi-process fan-out: journaling
/// forced on (segments live under `work_dir`), the workers sharing
/// the analyze-memo store under `--out/store/memo`. Any failure is the
/// cell's failure — a distributed invocation never silently mixes
/// regimes by falling back in-process mid-matrix.
fn distribute_cell(
    spec: &CampaignSpec,
    opts: &Options,
    worker_cmd: &[String],
    work_dir: &Path,
) -> Result<CampaignResult, String> {
    let mut spec = spec.clone();
    spec.journal = true;
    let hooks = ExecHooks { cancel: opts.cancel.clone(), ..ExecHooks::default() };
    let memo_dir = opts.out.join("store").join("memo");
    run_distributed(&spec, opts.workers, work_dir, Some(&memo_dir), worker_cmd, hooks)
        .map(|report| report.result)
        .map_err(|e| e.to_string())
}

/// Execute `spec` in-process with no journal — the serial side of a
/// speedup measurement — returning the completed result and its
/// wall-clock seconds.
fn serial_control(spec: &CampaignSpec, opts: &Options) -> Result<(CampaignResult, f64), String> {
    let hooks = ExecHooks { cancel: opts.cancel.clone(), ..ExecHooks::default() };
    let started = Instant::now();
    let result = execute_spec(spec, &hooks).map_err(|e| e.to_string())?;
    if result.status != CompletionStatus::Complete {
        return Err("interrupted".into());
    }
    Ok((result, started.elapsed().as_secs_f64()))
}

/// One serial-vs-distributed row of the fan-out table. The digests are
/// asserted equal before a row is admitted, so its `match` column is
/// always the literal truth.
struct SpeedCell {
    app: &'static str,
    model: &'static str,
    site: &'static str,
    runs: usize,
    wall_serial_s: f64,
    wall_distributed_s: f64,
}

impl SpeedCell {
    fn speedup(&self) -> f64 {
        self.wall_serial_s / self.wall_distributed_s.max(1e-9)
    }
}

/// The distributed section of the scale report: rerun two cells as
/// serial controls and assert byte-identity against the fan-out
/// (engine law 7). The nyx row is
/// CPU-bound (its speedup honestly tracks the host's cores); the
/// paced row is latency-bound, so the fan-out's overlap shows even on
/// a single-core host.
fn distributed_summary(
    opts: &Options,
    n: usize,
    worker_cmd: &[String],
    fan_root: &Path,
    stats: &[CellStats],
    report: &mut Report,
) {
    if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        report.line("distributed speedup section skipped: interrupted");
        return;
    }
    report
        .header(&format!("Distributed fan-out — {} worker processes (engine law 7)", opts.workers));
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut speed: Vec<SpeedCell> = Vec::new();

    // nyx BF write: the distributed wall is the matrix cell's own —
    // only the serial control runs here. Journal flags don't enter the
    // plan, so law 7 demands the control reproduce the fan-out's
    // fingerprint and digest exactly.
    if let Some(d) =
        stats.iter().find(|s| s.label == "BF" && s.site == InjectionSite::Write && s.complete)
    {
        let mut cspec = CampaignSpec::new("nyx", "BF");
        cspec.site = "write".into();
        cspec.grid = n;
        cspec.runs = opts.runs;
        cspec.seed = opts.seed.wrapping_add(900);
        cspec.keep_runs = Some(SCALE_KEEP_RUNS);
        match serial_control(&cspec, opts) {
            Ok((serial, wall)) => {
                assert_eq!(
                    (serial.plan_fingerprint, serial.run_digest()),
                    (d.plan_fingerprint, d.run_digest),
                    "law 7 violated: nyx BF fan-out diverged from its serial control"
                );
                speed.push(SpeedCell {
                    app: "nyx",
                    model: "BF",
                    site: "write",
                    runs: opts.runs,
                    wall_serial_s: wall,
                    wall_distributed_s: d.wall_s,
                });
            }
            Err(e) => report.line(format!("nyx serial control skipped: {}", e)),
        }
    }

    // paced: both sides measured here, work dir wiped first so the row
    // times a cold fan-out rather than a segment resume.
    if !opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        let mut pspec = CampaignSpec::new("paced", "BF");
        pspec.site = "write".into();
        pspec.runs = opts.runs;
        pspec.seed = opts.seed.wrapping_add(970);
        pspec.keep_runs = Some(SCALE_KEEP_RUNS);
        let work_dir = fan_root.join("paced_speedup");
        let _ = std::fs::remove_dir_all(&work_dir);
        let serial = serial_control(&pspec, opts);
        let started = Instant::now();
        let dist = distribute_cell(&pspec, opts, worker_cmd, &work_dir);
        let dist_wall = started.elapsed().as_secs_f64();
        match (serial, dist) {
            (Ok((s, s_wall)), Ok(d)) if d.status == CompletionStatus::Complete => {
                assert_eq!(
                    (s.plan_fingerprint, s.run_digest()),
                    (d.plan_fingerprint, d.run_digest()),
                    "law 7 violated: paced fan-out diverged from its serial control"
                );
                speed.push(SpeedCell {
                    app: "paced",
                    model: "BF",
                    site: "write",
                    runs: opts.runs,
                    wall_serial_s: s_wall,
                    wall_distributed_s: dist_wall,
                });
            }
            (Err(e), _) => report.line(format!("paced serial control skipped: {}", e)),
            (_, Err(e)) => report.line(format!("paced fan-out skipped: {}", e)),
            _ => report.line("paced speedup row skipped: interrupted"),
        }
    }

    let mut t = Table::new();
    t.row(&["app", "model", "site", "runs", "serial s", "distributed s", "speedup", "digest"]);
    for c in &speed {
        t.row(&[
            c.app,
            c.model,
            c.site,
            &c.runs.to_string(),
            &format!("{:.2}", c.wall_serial_s),
            &format!("{:.2}", c.wall_distributed_s),
            &format!("{:.2}x", c.speedup()),
            "match",
        ]);
    }
    report.line(t.render());
    report.line(format!(
        "(host cores: {} — the nyx row is CPU-bound and tracks them; the paced row is \
         latency-bound and measures the fan-out overlap directly)",
        cores
    ));
}
