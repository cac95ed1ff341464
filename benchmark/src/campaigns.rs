//! The three campaign workloads (`nyx_write`, `nyx_read`,
//! `montage_tiles`): untraced timing through `ffis_daemon::execute_spec`
//! exactly as a user runs a campaign, and the serial traced pass that
//! attributes the same cells' wall time to layers.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ffis_core::{
    Campaign, CampaignConfig, CampaignError, CampaignResult, CampaignSpec, CompletionStatus,
    FaultApp, RunObserver,
};
use ffis_daemon::{execute_spec, ExecHooks};
use ffis_vfs::{CheckpointStore, MemFs, MemoStore};
use montage_sim::MontageApp;
use qmc_sim::{QmcApp, QmcConfig};

use crate::harness::{self, cell_id, mix, secs, tally_token, Options};
use crate::schema::Report;
use crate::spans::{self_times, FsClass, Recorder};
use crate::stats::{median, summarize};
use crate::traced::{TracedApp, TracedFs};

/// The cells of one campaign workload, with seeds derived from `seed`.
pub fn cells(workload: &str, seed: u64, smoke: bool) -> Vec<CampaignSpec> {
    let mut cells = match (workload, smoke) {
        ("nyx_write", false) => vec![harness::spec("nyx", "BF", "write", 96, 1, 250)],
        ("nyx_write", true) => vec![harness::spec("nyx", "BF", "write", 32, 1, 48)],
        ("nyx_read", false) => vec![harness::spec("nyx", "BF", "read", 96, 1, 400)],
        ("nyx_read", true) => vec![harness::spec("nyx", "BF", "read", 32, 1, 64)],
        ("montage_tiles", false) => vec![
            harness::spec("montage", "BF", "write", 96, 24, 300),
            harness::spec("montage", "BF", "read", 96, 24, 300),
        ],
        ("montage_tiles", true) => vec![
            harness::spec("montage", "BF", "write", 96, 4, 32),
            harness::spec("montage", "BF", "read", 96, 4, 32),
        ],
        _ => panic!("{workload} is not a campaign workload"),
    };
    for (k, cell) in cells.iter_mut().enumerate() {
        cell.seed = mix(seed, k as u64);
    }
    cells
}

/// A generic call on the application a spec names, built with the
/// same constructors `execute_spec` uses.
pub trait AppVisitor {
    type Out;
    fn visit<A: FaultApp>(self, app: &A) -> Self::Out;
}

/// Resolve `spec.app` like `execute_spec` does and hand it to `v`.
pub fn with_app<V: AppVisitor>(spec: &CampaignSpec, v: V) -> V::Out {
    let files = spec.files.max(1);
    match spec.app.as_str() {
        "nyx" => v.visit(&ffis_daemon::apps::nyx_app(spec.grid, files)),
        "montage" => v.visit(&MontageApp::multi_tile(files)),
        "qmc" => v.visit(&QmcApp::new(QmcConfig {
            restarts: files,
            dmc_blocks: if files > 1 { 4 } else { 1 },
            ..QmcConfig::default()
        })),
        other => panic!("the benchmark generates no '{other}' cells"),
    }
}

/// Primitive counts of a cell's fault-free run, counted by the
/// benchmark's own filesystem wrapper on a bare `MemFs` — the
/// reference the campaign's profile is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenRef {
    pub reads: u64,
    pub writes: u64,
}

struct GoldenVisitor;

impl AppVisitor for GoldenVisitor {
    type Out = Result<GoldenRef, String>;
    fn visit<A: FaultApp>(self, app: &A) -> Self::Out {
        let rec = Recorder::new();
        let fs = MemFs::new();
        app.run(&TracedFs::new(&fs, &rec))?;
        rec.stamp(Some(0));
        let totals = rec.fs_totals(|_| true);
        Ok(GoldenRef {
            reads: totals[FsClass::Read as usize].ops,
            writes: totals[FsClass::Write as usize].ops,
        })
    }
}

/// Set-up of a campaign workload: derive the cells from the seed,
/// build each cell's application and run it fault-free once to obtain
/// the reference primitive counts.
pub fn set_up(workload: &str, opts: &Options) -> Result<Vec<(CampaignSpec, GoldenRef)>, String> {
    with_references(cells(workload, opts.seed, opts.smoke))
}

/// Pair each cell with the reference counts of its fault-free run.
pub fn with_references(cells: Vec<CampaignSpec>) -> Result<Vec<(CampaignSpec, GoldenRef)>, String> {
    cells
        .into_iter()
        .map(|cell| {
            cell.validate()?;
            let golden = with_app(&cell, GoldenVisitor)?;
            Ok((cell, golden))
        })
        .collect()
}

/// The stores one rep shares across its cells.
pub struct Stores {
    pub checkpoints: Arc<CheckpointStore>,
    pub memo: Arc<MemoStore>,
}

impl Stores {
    pub fn fresh() -> Self {
        Stores {
            checkpoints: Arc::new(CheckpointStore::new()),
            memo: Arc::new(MemoStore::in_memory()),
        }
    }
}

/// One executed cell.
pub struct CellRun {
    pub wall: f64,
    /// Cell start to the first run event.
    pub first_result: f64,
    pub result: CampaignResult,
}

fn first_event_observer(first: &Arc<OnceLock<Instant>>) -> RunObserver {
    let first = Arc::clone(first);
    RunObserver::new(move |_, _| {
        if first.get().is_none() {
            let _ = first.set(Instant::now());
        }
    })
}

/// Run one cell through `execute_spec`, as a user does.
pub fn run_cell(spec: &CampaignSpec, stores: &Stores) -> Result<CellRun, CampaignError> {
    let first = Arc::new(OnceLock::new());
    let hooks = ExecHooks {
        checkpoints: Some(Arc::clone(&stores.checkpoints)),
        memo: Some(Arc::clone(&stores.memo)),
        observer: Some(first_event_observer(&first)),
        ..ExecHooks::default()
    };
    let start = Instant::now();
    let result = execute_spec(spec, &hooks)?;
    let wall = secs(start);
    let first_result = first.get().map_or(wall, |t| t.duration_since(start).as_secs_f64());
    Ok(CellRun { wall, first_result, result })
}

/// Timings of one whole pass over the workload's cells.
struct Rep {
    wall: f64,
    first_result: f64,
    runs_per_s: f64,
}

/// The correctness gate of the campaign workloads: per cell, the plan
/// drained, every run executed, nothing aborted, the profile matches
/// the reference counts, and every execution of the cell (cold, warm,
/// serial, traced) digests identically.
pub struct Gate {
    seen: BTreeMap<String, (u64, String)>,
    pins: BTreeMap<String, (u64, String)>,
    pinned_seed: bool,
}

impl Gate {
    /// Cells are pinned at the default seed only.
    pub fn new(opts: &Options) -> Self {
        Gate { pinned_seed: opts.seed == harness::DEFAULT_SEED, ..Self::always_pinned() }
    }

    /// For outputs no seed changes (single-bit scans): a missing pin
    /// is a violation at every seed.
    pub fn always_pinned() -> Self {
        Gate {
            seen: BTreeMap::new(),
            pins: parse_pins(include_str!("../expected/DIGESTS.txt")),
            pinned_seed: true,
        }
    }

    pub fn check(
        &mut self,
        report: &mut Report,
        spec: &CampaignSpec,
        golden: &GoldenRef,
        result: &CampaignResult,
        how: &str,
    ) {
        let id = cell_id(spec);
        report.attempted += spec.runs as u64 + 1;
        report.check(result.status == CompletionStatus::Complete, || {
            format!("{id} ({how}): status {:?}, not complete", result.status)
        });
        report.check(result.executed == spec.runs && result.resumed == 0, || {
            format!("{id} ({how}): executed {} resumed {}", result.executed, result.resumed)
        });
        report.check(result.tally.total() == spec.runs as u64, || {
            format!("{id} ({how}): tally covers {} of {} runs", result.tally.total(), spec.runs)
        });
        for run in result.runs.iter().filter(|r| r.aborted.is_some()) {
            report.violations.push(format!("{id} ({how}): run {} aborted", run.run));
        }
        let counters = &result.profile.counters;
        let profiled = GoldenRef {
            reads: counters.get(ffis_vfs::Primitive::Read),
            writes: counters.get(ffis_vfs::Primitive::Write),
        };
        report.check(profiled == *golden, || {
            format!("{id} ({how}): profile {profiled:?} differs from reference {golden:?}")
        });
        self.check_pin(report, &id, (result.run_digest(), tally_token(&result.tally)));
    }

    /// `got` must equal every earlier execution of cell `id`; the
    /// first execution is recorded and compared with its pin.
    pub fn check_pin(&mut self, report: &mut Report, id: &str, got: (u64, String)) {
        match self.seen.get(id) {
            Some(first) => report.check(*first == got, || {
                format!("{id}: digest {:#x} {} differs from first execution", got.0, got.1)
            }),
            None => {
                report.digests.push(format!("{} {:#018x} {}", id, got.0, got.1));
                match self.pins.get(id) {
                    Some(pin) => report.check(*pin == got, || {
                        format!(
                            "{id}: digest {:#x} {} differs from expected/DIGESTS.txt",
                            got.0, got.1
                        )
                    }),
                    None => report.check(!self.pinned_seed, || {
                        format!("{id}: no pin in expected/DIGESTS.txt")
                    }),
                }
                self.seen.insert(id.to_string(), got);
            }
        }
    }
}

/// Parse `id digest tally` lines (`#` comments and blanks skipped).
pub fn parse_pins(text: &str) -> BTreeMap<String, (u64, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let id = parts.next()?;
            let digest = u64::from_str_radix(parts.next()?.trim_start_matches("0x"), 16).ok()?;
            Some((id.to_string(), (digest, parts.next()?.to_string())))
        })
        .collect()
}

fn run_rep(
    cells: &[(CampaignSpec, GoldenRef)],
    stores: &Stores,
    gate: &mut Gate,
    report: &mut Report,
    how: &str,
) -> Result<Rep, String> {
    let start = Instant::now();
    let (mut first_sum, mut runs, mut run_phase) = (0.0, 0usize, 0.0);
    for (spec, golden) in cells {
        let cell = run_cell(spec, stores).map_err(|e| format!("{}: {}", cell_id(spec), e))?;
        gate.check(report, spec, golden, &cell.result, how);
        first_sum += cell.first_result;
        runs += spec.runs;
        run_phase += cell.wall - cell.first_result;
    }
    Ok(Rep {
        wall: secs(start),
        first_result: first_sum / cells.len() as f64,
        runs_per_s: runs as f64 / run_phase.max(1e-9),
    })
}

/// Untimed reps before measuring: the first passes of a fresh process
/// run up to half again as long as later ones (allocator warm-up).
const WARMUP_REPS: usize = 2;
/// Set-ups timed per run, one before the warm-up and one after every
/// second timed rep; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The untraced run: set-up, warm-up, then cold-store and warm-store
/// reps until `seconds` have passed.
pub fn run_untraced(workload: &'static str, opts: &Options) -> Result<Report, String> {
    let mut report = Report::new(workload, opts.seed, opts.seconds, false, opts.smoke);
    let (cells, mut setups) = harness::SetUps::first(SETUPS, || set_up(workload, opts))?;
    let mut gate = Gate::new(opts);

    // One cold rep, then a warm one over its stores. Peak memory is
    // read after the first: what one pass over the cells needs in a
    // fresh process. Later it only measures how far the allocator's
    // high-water mark has crept, which varies from run to run.
    let mut stores = Stores::fresh();
    let mut peak_rss_mb = 0.0;
    for i in 0..WARMUP_REPS {
        run_rep(&cells, &stores, &mut gate, &mut report, "warm-up")?;
        if i == 0 {
            peak_rss_mb = harness::peak_rss_mb();
        }
    }

    // Two cold reps, then one warm rep over the second one's stores.
    let (min_cold, min_warm) = if opts.smoke { (2, 1) } else { (5, 3) };
    let (mut cold, mut warm): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while secs(start) < opts.seconds || cold.len() < min_cold || warm.len() < min_warm {
        if i % 3 == 2 {
            warm.push(run_rep(&cells, &stores, &mut gate, &mut report, "warm")?);
        } else {
            stores = Stores::fresh();
            cold.push(run_rep(&cells, &stores, &mut gate, &mut report, "cold")?);
        }
        i += 1;
        if i % 2 == 0 {
            setups.again(|| set_up(workload, opts))?;
        }
    }
    report.reps = (WARMUP_REPS, cold.len(), warm.len());

    let series = |reps: &[Rep], f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let mut push = |name: &str, values: Vec<f64>| {
        report.push_e2e(name, median(&values), Some(summarize(&values)));
    };
    push("setup_s", setups.times().to_vec());
    push("wall_s", series(&cold, |r| r.wall));
    push("first_result_s", series(&cold, |r| r.first_result));
    push("runs_per_s", series(&cold, |r| r.runs_per_s));
    push("warm_wall_s", series(&warm, |r| r.wall));
    report.push_e2e("peak_rss_mb", peak_rss_mb, None);
    report.not_applicable = vec!["job_p50_ms", "job_p90_ms"];
    Ok(report)
}

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

/// The `CampaignConfig` `execute_spec` builds from a spec and hooks.
pub fn config_for(
    spec: &CampaignSpec,
    stores: &Stores,
    observer: RunObserver,
    parallel: bool,
) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig::new(spec.signature()?)
        .with_runs(spec.runs)
        .with_seed(spec.seed)
        .with_keep_runs(spec.keep_runs)
        .with_replay(true)
        .with_memo(spec.memo)
        .with_replay_opt(spec.replay_opt)
        .with_checkpoints(Arc::clone(&stores.checkpoints))
        .with_memo_store(Arc::clone(&stores.memo))
        .with_observer(observer);
    cfg.parallel = parallel;
    Ok(cfg)
}

struct TracedCampaign<'a> {
    spec: &'a CampaignSpec,
    stores: &'a Stores,
    rec: &'a Arc<Recorder>,
}

impl AppVisitor for TracedCampaign<'_> {
    type Out = Result<CampaignResult, String>;
    fn visit<A: FaultApp>(self, app: &A) -> Self::Out {
        let rec = Arc::clone(self.rec);
        // The first event closes the set-up phase; each later one
        // claims what was recorded since the previous event.
        let observer = RunObserver::new(move |run, _| {
            if rec.setup_end_ns().is_none() {
                rec.mark_setup_end();
            } else {
                rec.stamp(Some(run.run));
            }
        });
        let cfg = config_for(self.spec, self.stores, observer, false)?;
        Campaign::new(&TracedApp::new(app, self.rec), cfg).run().map_err(|e| e.to_string())
    }
}

/// One cell run serially through the tracing wrappers.
pub struct TracedCell {
    pub wall_ns: u64,
    pub rec: Arc<Recorder>,
    pub result: CampaignResult,
}

pub fn run_cell_traced(spec: &CampaignSpec, stores: &Stores) -> Result<TracedCell, String> {
    let rec = Arc::new(Recorder::new());
    let result = with_app(spec, TracedCampaign { spec, stores, rec: &rec })?;
    let wall_ns = rec.now_ns();
    // Whatever followed the last event (merge, sink) has no run.
    rec.stamp(None);
    Ok(TracedCell { wall_ns, rec, result })
}

/// Attribution of traced cells' wall time, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attribution {
    pub wall: f64,
    pub setup: f64,
    pub produce: f64,
    pub produce_calls: u64,
    pub analyze: f64,
    pub analyze_calls: u64,
    pub classify: f64,
    pub fs: [crate::spans::FsAgg; 3],
}

impl Attribution {
    /// Add one traced pass: spans that start before the set-up phase
    /// ends belong to set-up as a whole; later ones are attributed by
    /// self time. A pass without a marked set-up end is all set-up.
    pub fn add(&mut self, rec: &Recorder, wall_ns: u64) {
        let setup_end = rec.setup_end_ns().unwrap_or(wall_ns);
        self.wall += wall_ns as f64 / 1e9;
        self.setup += setup_end as f64 / 1e9;
        let spans = rec.spans();
        for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
            if span.start_ns < setup_end {
                continue;
            }
            let s = self_ns as f64 / 1e9;
            match span.name {
                "produce" => {
                    self.produce += s;
                    self.produce_calls += 1;
                }
                "analyze" | "analyze_golden" | "analyze_substep" => {
                    self.analyze += s;
                    self.analyze_calls += 1;
                }
                "assemble" => self.analyze += s,
                "classify" => self.classify += s,
                other => unreachable!("unknown span {other}"),
            }
        }
        let run_phase = rec.fs_totals(|r| r.after_setup);
        for (mine, theirs) in self.fs.iter_mut().zip(run_phase) {
            mine.ops += theirs.ops;
            mine.bytes += theirs.bytes;
            mine.ns += theirs.ns;
        }
    }

    fn fs_s(&self, class: FsClass) -> f64 {
        self.fs[class as usize].ns as f64 / 1e9
    }

    /// Run-phase time not inside the application or its filesystem
    /// calls: fork, tail replay, injection, sink, merge.
    pub fn residual(&self) -> f64 {
        self.wall
            - self.setup
            - self.produce
            - self.analyze
            - self.classify
            - self.fs_s(FsClass::Read)
            - self.fs_s(FsClass::Write)
            - self.fs_s(FsClass::Meta)
    }

    /// Emit the `trace.*` attribution metrics.
    pub fn report(&self, report: &mut Report) {
        let fs = |c: FsClass| self.fs[c as usize];
        report.push_layer("trace.wall_s", self.wall);
        report.push_layer("trace.setup_s", self.setup);
        report.push_layer("trace.app_produce_s", self.produce);
        report.push_layer("trace.app_produce_calls", self.produce_calls as f64);
        report.push_layer("trace.app_analyze_s", self.analyze);
        report.push_layer("trace.app_analyze_calls", self.analyze_calls as f64);
        report.push_layer("trace.app_classify_s", self.classify);
        report.push_layer("trace.fs_read_s", self.fs_s(FsClass::Read));
        report.push_layer("trace.fs_read_ops", fs(FsClass::Read).ops as f64);
        report.push_layer("trace.fs_read_bytes", fs(FsClass::Read).bytes as f64);
        report.push_layer("trace.fs_write_s", self.fs_s(FsClass::Write));
        report.push_layer("trace.fs_write_ops", fs(FsClass::Write).ops as f64);
        report.push_layer("trace.fs_write_bytes", fs(FsClass::Write).bytes as f64);
        report.push_layer("trace.fs_meta_s", self.fs_s(FsClass::Meta));
        report.push_layer("trace.fs_meta_ops", fs(FsClass::Meta).ops as f64);
        report.push_layer("trace.engine_residual_s", self.residual());
        report.push_layer("trace.engine_residual_share", self.residual() / self.wall.max(1e-9));
        // The parts are defined to sum to the whole; what can go wrong
        // is children covering more than their parent.
        let run_phase = self.wall - self.setup;
        report.check(self.residual() >= -0.02 * self.wall, || {
            format!(
                "trace: attributed time exceeds the run phase ({:.4} s of {:.4} s)",
                run_phase - self.residual(),
                run_phase
            )
        });
    }
}

/// Counters the campaign result types expose (source B), summed over
/// the cells of one cold parallel rep.
#[derive(Debug, Default)]
pub struct Counters {
    pub replay: ffis_core::ReplayOptReport,
    pub memo: ffis_vfs::MemoStats,
    pub runs: u64,
    pub fast_path_runs: u64,
}

impl Counters {
    pub fn add(&mut self, result: &CampaignResult) {
        let r = &result.replay_opt;
        self.replay.replayed_suffix_ops += r.replayed_suffix_ops;
        self.replay.overshoot += r.overshoot;
        self.replay.batches += r.batches;
        self.replay.batched_runs += r.batched_runs;
        self.replay.coalesced_ops += r.coalesced_ops;
        self.replay.skipped_tail_ops += r.skipped_tail_ops;
        self.memo.merge(&result.memo.stats);
        self.runs += result.runs.len() as u64;
        self.fast_path_runs += result.runs.iter().filter(|r| r.mode.is_fast_path()).count() as u64;
    }

    pub fn report(&self, report: &mut Report, stores: &Stores) {
        report.push_layer("replay.suffix_ops", self.replay.replayed_suffix_ops as f64);
        report.push_layer("replay.overshoot_ops", self.replay.overshoot as f64);
        report.push_layer("replay.batches", self.replay.batches as f64);
        report.push_layer("replay.batched_runs", self.replay.batched_runs as f64);
        report.push_layer("replay.coalesced_ops", self.replay.coalesced_ops as f64);
        report.push_layer("replay.skipped_tail_ops", self.replay.skipped_tail_ops as f64);
        report.push_layer("memo.hits", self.memo.hits as f64);
        report.push_layer("memo.misses", self.memo.misses as f64);
        report.push_layer("memo.invalidations", self.memo.invalidations as f64);
        match self.memo.hits + self.memo.misses {
            0 => report.not_applicable.push("memo.hit_ratio"),
            lookups => report.push_layer("memo.hit_ratio", self.memo.hits as f64 / lookups as f64),
        }
        report.push_layer("checkpoints.builds", stores.checkpoints.builds() as f64);
        report.push_layer("checkpoints.hits", stores.checkpoints.hits() as f64);
        report.push_layer("checkpoints.disk_hits", stores.checkpoints.disk_hits() as f64);
        report.push_layer(
            "mode.fast_path_share",
            self.fast_path_runs as f64 / self.runs.max(1) as f64,
        );
    }
}

/// Rounds of (parallel, serial, traced) passes a traced run makes at
/// most; it stops early once half of `seconds` is spent.
const TRACE_ROUNDS: usize = 3;

/// Walls of the parallel untraced, serial untraced and serial traced
/// passes of a traced run, and the CPU split of the parallel ones.
pub struct PassTimes {
    start: Instant,
    parallel: Vec<f64>,
    serial: Vec<f64>,
    traced: Vec<f64>,
    cpu_user: f64,
    cpu_sys: f64,
}

impl PassTimes {
    pub fn new() -> Self {
        PassTimes {
            start: Instant::now(),
            parallel: Vec::new(),
            serial: Vec::new(),
            traced: Vec::new(),
            cpu_user: 0.0,
            cpu_sys: 0.0,
        }
    }

    /// Is there time for another round?
    pub fn another_round(&self, opts: &Options) -> bool {
        let rounds = self.parallel.len();
        rounds == 0 || (rounds < TRACE_ROUNDS && secs(self.start) <= opts.seconds / 2.0)
    }

    fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
        let start = Instant::now();
        let out = f()?;
        Ok((out, secs(start)))
    }

    /// The user default: parallel, untraced. Also the CPU split.
    pub fn parallel<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (user0, sys0) = harness::cpu_times();
        let (out, wall) = Self::timed(f)?;
        let (user1, sys1) = harness::cpu_times();
        self.parallel.push(wall);
        self.cpu_user += user1 - user0;
        self.cpu_sys += sys1 - sys0;
        Ok(out)
    }

    /// Serial, untraced: the base of the tracing overhead.
    pub fn serial<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (out, wall) = Self::timed(f)?;
        self.serial.push(wall);
        Ok(out)
    }

    /// Serial, through the tracing wrappers.
    pub fn traced<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (out, wall) = Self::timed(f)?;
        self.traced.push(wall);
        Ok(out)
    }

    pub fn report(&self, report: &mut Report) {
        let rounds = self.parallel.len();
        report.reps = (2, rounds, 0);
        let (parallel, serial, traced) =
            (median(&self.parallel), median(&self.serial), median(&self.traced));
        report.push_layer("trace.overhead_share", (traced - serial) / serial);
        report.push_layer("executor.parallel_speedup", serial / parallel);
        report.push_layer("executor.threads", harness::threads() as f64);
        report.push_layer("proc.cpu_user_s", self.cpu_user / rounds as f64);
        report.push_layer("proc.cpu_sys_s", self.cpu_sys / rounds as f64);
        let cpu = (self.cpu_user + self.cpu_sys).max(1e-9);
        report.push_layer("proc.cpu_sys_share", self.cpu_sys / cpu);
    }
}

/// Start the span dump of a traced pass afresh.
pub fn spans_file(opts: &Options, workload: &str) -> std::path::PathBuf {
    let path = opts.out.join(format!("spans-{workload}.ndjson"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Append one traced cell's spans to the dump (best effort).
pub fn dump_spans(rec: &Recorder, path: &std::path::Path, cell: &str) {
    if let Err(e) = rec.append_ndjson(path, cell) {
        eprintln!("[benchmark] could not write {}: {}", path.display(), e);
    }
}

/// Sources A and B of the per-layer metrics for `cells`: rounds of a
/// parallel untraced, a serial untraced and a serial traced pass.
pub fn traced_pass(
    report: &mut Report,
    cells: &[(CampaignSpec, GoldenRef)],
    gate: &mut Gate,
    opts: &Options,
) -> Result<(), String> {
    let mut times = PassTimes::new();
    let mut counters = Counters::default();
    let mut attribution = Attribution::default();
    let mut parallel_stores = Stores::fresh();
    let serial_cells: Vec<(CampaignSpec, GoldenRef)> = cells
        .iter()
        .map(|(spec, golden)| (CampaignSpec { parallel: false, ..spec.clone() }, *golden))
        .collect();
    // Untimed: worker threads and the main thread each run their first
    // pass up to twice as long (their allocator arenas are cold).
    run_rep(cells, &Stores::fresh(), gate, report, "warm-up")?;
    run_rep(&serial_cells, &Stores::fresh(), gate, report, "warm-up")?;
    while times.another_round(opts) {
        parallel_stores = Stores::fresh();
        counters = Counters::default();
        times.parallel(|| {
            for (spec, golden) in cells {
                let cell = run_cell(spec, &parallel_stores).map_err(|e| e.to_string())?;
                gate.check(report, spec, golden, &cell.result, "parallel");
                counters.add(&cell.result);
            }
            Ok(())
        })?;
        times.serial(|| run_rep(&serial_cells, &Stores::fresh(), gate, report, "serial"))?;
        attribution = Attribution::default();
        let path = spans_file(opts, report.workload);
        times.traced(|| {
            let stores = Stores::fresh();
            for (spec, golden) in cells {
                let cell = run_cell_traced(spec, &stores)?;
                gate.check(report, spec, golden, &cell.result, "serial-traced");
                attribution.add(&cell.rec, cell.wall_ns);
                dump_spans(&cell.rec, &path, &cell_id(spec));
            }
            Ok(())
        })?;
    }
    attribution.report(report);
    times.report(report);
    counters.report(report, &parallel_stores);
    Ok(())
}

/// The traced run of a campaign workload: sources A and B. The caller
/// appends the probes (source C).
pub fn run_traced(workload: &'static str, opts: &Options) -> Result<Report, String> {
    let mut report = Report::new(workload, opts.seed, opts.seconds, true, opts.smoke);
    let cells = set_up(workload, opts)?;
    let mut gate = Gate::new(opts);
    traced_pass(&mut report, &cells, &mut gate, opts)?;
    report.not_applicable.push("daemon.disk_bytes_per_job");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn opts() -> Options {
        Options { seed: 7, seconds: 0.0, smoke: true, out: PathBuf::from("out") }
    }

    #[test]
    fn wrappers_are_transparent_on_a_nyx_cell() {
        harness::pin_regime();
        let mut spec = harness::spec("nyx", "BF", "write", 16, 1, 16);
        spec.seed = 42;
        let plain = run_cell(&spec, &Stores::fresh()).unwrap().result;
        let traced = run_cell_traced(&spec, &Stores::fresh()).unwrap();
        assert_eq!(plain.run_digest(), traced.result.run_digest());
        assert_eq!(plain.tally, traced.result.tally);
        assert_eq!(plain.mode, traced.result.mode);
        assert_eq!(plain.plan_fingerprint, traced.result.plan_fingerprint);
        // The wrappers saw the campaign: analyze ran at least once per
        // run, and every run event stamped its spans.
        let spans = traced.rec.spans();
        assert!(spans.iter().filter(|s| s.name == "analyze").count() >= 16);
        assert!(spans.iter().any(|s| s.name == "analyze_golden"));
        let mut attribution = Attribution::default();
        attribution.add(&traced.rec, traced.wall_ns);
        assert!(attribution.setup > 0.0 && attribution.setup < attribution.wall);
        assert!(attribution.fs[FsClass::Read as usize].ops > 0);
        assert!(attribution.residual() >= 0.0);
    }

    #[test]
    fn read_site_cells_are_transparent_too() {
        harness::pin_regime();
        let mut spec = harness::spec("nyx", "BF", "read", 16, 1, 16);
        spec.seed = 43;
        let plain = run_cell(&spec, &Stores::fresh()).unwrap().result;
        let traced = run_cell_traced(&spec, &Stores::fresh()).unwrap();
        assert_eq!(plain.run_digest(), traced.result.run_digest());
        assert_eq!(plain.mode, traced.result.mode);
    }

    #[test]
    fn reference_counts_match_the_campaign_profile() {
        harness::pin_regime();
        let cells = set_up("nyx_write", &opts()).unwrap();
        let mut report = Report::new("nyx_write", 7, 0.0, false, true);
        let mut gate = Gate::new(&opts());
        run_rep(&cells, &Stores::fresh(), &mut gate, &mut report, "cold").unwrap();
        assert!(report.correct(), "{:?}", report.violations);
        assert_eq!(report.digests.len(), 1);
    }

    #[test]
    fn pins_parse() {
        let pins = parse_pins("# comment\n\nnyx/BF/g96/n250/seed0x1 0x00ff 1/2/3/4/5\n");
        assert_eq!(pins["nyx/BF/g96/n250/seed0x1"], (0xff, "1/2/3/4/5".to_string()));
    }
}
