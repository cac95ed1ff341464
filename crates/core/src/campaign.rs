//! The campaign runner: profile → inject × N → classify → tally.
//!
//! Implements the full FFIS workflow of Figure 4: load the user
//! configuration, run the I/O profiler fault-free to obtain the
//! dynamic primitive count, then repeatedly (1) pick a uniformly
//! random instance of the target primitive, (2) mount a fresh FFISFS,
//! (3) run the application with the armed injector, (4) classify the
//! outcome against the golden run, until the configured number of
//! runs (statistical significance) is reached. Runs are independent,
//! so the campaign fans out across cores with rayon — the paper runs
//! its campaigns on a 24-core node.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ffis_vfs::{
    wire, BatchFork, BatchForks, CheckpointStore, CounterSnapshot, FfisFs, Fnv, Interceptor, MemFs,
    MemoStats, MemoStore, PathSet, Placement, Primitive, ReadRecord, ReplayCursor, SharedTrace,
    TraceCheckpoint, TraceCheckpoints, TraceOp, PRIMITIVES,
};

use crate::engine::journal::JournalEntry;
use crate::engine::{
    self, CancelToken, CompletionStatus, Durability, EngineConfig, ExecutionPlan, JournalError,
    JournalMeta, PlannedRun, RunEvent, RunJournal, RunRecord, RunStrategy,
};
use crate::fault::{FaultSignature, TargetFilter};
use crate::golden::{Golden, GoldenCache, SubstepLaws};
use crate::injector::{ArmedInjector, InjectionRecord};
use crate::outcome::{FaultApp, Outcome, OutcomeTally, SubstepSpec};
use crate::profiler::ProfileReport;
use crate::rng::Rng;

/// Campaign configuration (the paper's user configuration plus the
/// execution knobs).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The fault signature to inject — the paper's cell is one fault
    /// model on one primitive and target. Campaigns over one
    /// application share a golden run through a [`GoldenCache`]
    /// ([`Campaign::with_goldens`]), not by sharing a campaign.
    pub signature: FaultSignature,
    /// Number of injection runs (paper: 1,000 per cell).
    pub runs: usize,
    /// Root seed. Run `i` draws from child stream `root.child(i)`, so
    /// its instance choice depends only on the root seed and its
    /// index, never on scheduling order or
    /// [`CampaignConfig::parallel`].
    pub seed: u64,
    /// Fan runs out across the rayon thread pool.
    pub parallel: bool,
    /// Golden-trace replay fast path (default **on**): instead of
    /// re-executing the application's produce phase per injection run,
    /// capture its mutating I/O once, fork the nearest mid-trace
    /// checkpoint preceding each run's target instance — placed
    /// against the campaign's drawn targets, or log-spaced when
    /// [`CampaignConfig::replay_opt`] is off — replay only the trace
    /// suffix through the armed injector, and run the application's
    /// [`FaultApp::analyze`] phase. Per-run outcomes, injection
    /// records, and crash messages are identical to full reruns;
    /// [`CampaignResult::mode`] records which strategy executed and —
    /// when the campaign fell back — why.
    pub replay: bool,
    /// Plan-aware replay optimizations (default **on**; the `false`
    /// regime is the reference side of engine law 9 and a measurement
    /// control): because every run's injection target
    /// is drawn at plan time (engine law 2), the campaign knows its
    /// full fork-offset demand before any checkpoint is built. With
    /// this knob on it (a) places the trace checkpoints against that
    /// demand — every replay run's fork offset — instead of log-spaced
    /// (zero pre-target replay when the distinct targets fit the
    /// snapshot budget), (b) groups pending replay runs sharing a
    /// checkpoint into fork-once-replay-many batches (engine law 9),
    /// and (c) applies each batched run's
    /// post-target suffix to the mount's inner filesystem with
    /// adjacent sequential writes coalesced. All three are pure
    /// wall-clock optimizations — outcomes, injection records, crash
    /// messages, and run digests are byte-identical either way — and
    /// all three disengage automatically while a liveness watchdog
    /// ([`CampaignConfig::fuel`], [`CampaignConfig::wall_limit`]) is
    /// armed, since fuel counts per-op mount crossings.
    pub replay_opt: bool,
    /// Retain at most this many full [`RunResult`]s in
    /// [`CampaignResult::runs`] (`None`, the default, keeps every
    /// run). The kept set is a seed-stable reservoir chosen at plan
    /// time, so it is identical across reruns and `parallel` on/off;
    /// tallies always cover every run. Bound this for paper-scale
    /// campaigns (n=192 grids × 1,000 runs) where the buffered
    /// per-run records — crash messages, injection records — would
    /// otherwise dominate memory.
    pub keep_runs: Option<usize>,
    /// Shared [`CheckpointStore`]: campaigns whose golden runs record
    /// byte-identical traces (the common repro-experiment case — one
    /// campaign per fault model over one deterministic workload) share
    /// one built [`TraceCheckpoints`] through it instead of each
    /// rebuilding its own. `None` builds privately, as before.
    pub checkpoints: Option<Arc<CheckpointStore>>,
    /// Write every completed run to a [`RunJournal`] at this path. The
    /// journal is an append-only CRC-framed log flushed per run, so a
    /// killed campaign loses at most the runs in flight.
    pub journal: Option<PathBuf>,
    /// Resume from the journal at [`CampaignConfig::journal`] when it
    /// already exists: journaled runs feed the tally at cost 0 and
    /// only the pending set executes. The journal header must match
    /// this campaign's plan fingerprint, seed, and run count — a
    /// mismatch is a [`CampaignError::Journal`] error, never a silent
    /// splice. A missing journal file starts fresh (so `--resume` is
    /// safe to pass unconditionally).
    pub resume: bool,
    /// Cooperative cancellation token, checked between runs. On
    /// cancellation the campaign flushes completed runs to the journal
    /// and returns partial tallies with
    /// [`CompletionStatus::Interrupted`].
    pub cancel: Option<Arc<CancelToken>>,
    /// Per-run I/O-op fuel budget: each injection run's mount unwinds
    /// into crash classification ([`RunAborted::FuelExhausted`]) after
    /// this many primitive crossings. Deterministic — fuel counts
    /// crossings, not seconds — so the resume law holds for aborted
    /// runs. `None` (default) disables the watchdog. The golden run is
    /// never fueled: it must finish for a campaign to exist at all.
    pub fuel: Option<u64>,
    /// Wall-clock backstop per run, enforced at primitive crossings
    /// ([`RunAborted::DeadlineExceeded`]). Non-deterministic; off by
    /// default. Prefer [`CampaignConfig::fuel`].
    pub wall_limit: Option<Duration>,
    /// Live run-event observer (see [`RunObserver`]): called once per
    /// plan index — journal-resumed runs first, in index order, then
    /// each executed run from the worker that ran it. The daemon's
    /// NDJSON stream and live tally counters hang off this; it never
    /// affects results.
    pub observer: Option<RunObserver>,
    /// Execute only the half-open plan-index range `[start, end)` —
    /// this process's shard of a distributed fan-out (engine law 7).
    /// Planning, the golden run, and the journal header are identical
    /// across workers (the plan is always built whole); only execution
    /// and completion accounting restrict to the range. `None` (the
    /// default) runs the whole plan.
    pub index_range: Option<(usize, usize)>,
    /// Analyze memoization (default **on**; the `false` regime is the
    /// reference side of engine law 8): when the workload declares
    /// analyze sub-steps
    /// ([`FaultApp::analyze_substeps`]) and the campaign runs on a
    /// fast path, each injection run re-computes only the sub-steps
    /// whose read fingerprints its fault can actually change (the
    /// dirty cascade) and assembles every clean sub-step from the
    /// content-addressed memo store at cost 0. Engine law 8 guards the
    /// substitution — memoized analyze equals full analyze byte for
    /// byte — and [`CampaignResult::memo`] always records whether the
    /// layer engaged and, when it did not, why.
    pub memo: bool,
    /// Shared [`MemoStore`]: campaigns (and daemon jobs) handed the
    /// same store reuse each other's golden sub-step artifacts and
    /// per-run dirty artifacts — a warm store replays whole runs
    /// without touching the filesystem. `None` builds a private
    /// in-memory store per campaign.
    pub memo_store: Option<Arc<MemoStore>>,
}

/// A shareable live run callback: `(result, resumed)` per plan index,
/// resumed runs flagged `true`. Runs the reservoir drops are still
/// observed — the observer is the engine's event tap
/// ([`crate::engine::RunEvent`]), not the retention set.
///
/// Callbacks run on engine worker threads (possibly concurrently when
/// [`CampaignConfig::parallel`] is set), so they must be cheap and
/// internally synchronized.
#[derive(Clone)]
pub struct RunObserver(Arc<ObserverFn>);

/// The boxed callback type behind [`RunObserver`].
type ObserverFn = dyn Fn(&RunResult, bool) + Send + Sync;

impl RunObserver {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&RunResult, bool) + Send + Sync + 'static) -> Self {
        RunObserver(Arc::new(f))
    }

    /// Invoke the callback for one run.
    pub fn call(&self, result: &RunResult, resumed: bool) {
        (self.0)(result, resumed)
    }
}

impl std::fmt::Debug for RunObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RunObserver(..)")
    }
}

/// Default value of [`CampaignConfig::replay`]: `true`, unless the
/// environment sets `FFIS_REPLAY=0` — the escape hatch CI uses to run
/// the whole test suite over the full-rerun reference path, keeping it
/// exercised without a second copy of every campaign test.
pub fn replay_default() -> bool {
    std::env::var("FFIS_REPLAY").map(|v| v != "0").unwrap_or(true)
}

impl CampaignConfig {
    /// Config with paper defaults (1,000 runs, parallel, replay on —
    /// see [`replay_default`]).
    pub fn new(signature: FaultSignature) -> Self {
        CampaignConfig {
            signature,
            runs: 1000,
            seed: 0xFF15_0001,
            parallel: true,
            replay: replay_default(),
            replay_opt: true,
            keep_runs: None,
            checkpoints: None,
            journal: None,
            resume: false,
            cancel: None,
            fuel: None,
            wall_limit: None,
            observer: None,
            index_range: None,
            memo: true,
            memo_store: None,
        }
    }

    /// Override the run count.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Execute only a plan-index range (see
    /// [`CampaignConfig::index_range`]).
    pub fn with_index_range(mut self, range: Option<(usize, usize)>) -> Self {
        self.index_range = range;
        self
    }

    /// Enable or disable the golden-trace replay fast path.
    pub fn with_replay(mut self, replay: bool) -> Self {
        self.replay = replay;
        self
    }

    /// Enable or disable the plan-aware replay optimizations (see
    /// [`CampaignConfig::replay_opt`]).
    pub fn with_replay_opt(mut self, replay_opt: bool) -> Self {
        self.replay_opt = replay_opt;
        self
    }

    /// Bound the retained per-run records (see
    /// [`CampaignConfig::keep_runs`]).
    pub fn with_keep_runs(mut self, keep_runs: Option<usize>) -> Self {
        self.keep_runs = keep_runs;
        self
    }

    /// Share a [`CheckpointStore`] across campaigns (see
    /// [`CampaignConfig::checkpoints`]).
    pub fn with_checkpoints(mut self, store: Arc<CheckpointStore>) -> Self {
        self.checkpoints = Some(store);
        self
    }

    /// Journal completed runs to `path` (see
    /// [`CampaignConfig::journal`]).
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Resume from an existing journal (see
    /// [`CampaignConfig::resume`]).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Attach a cooperative cancellation token (see
    /// [`CampaignConfig::cancel`]).
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Arm the per-run I/O-op fuel watchdog (see
    /// [`CampaignConfig::fuel`]).
    pub fn with_fuel(mut self, budget: u64) -> Self {
        self.fuel = Some(budget);
        self
    }

    /// Arm the per-run wall-clock backstop (see
    /// [`CampaignConfig::wall_limit`]).
    pub fn with_wall_limit(mut self, limit: Duration) -> Self {
        self.wall_limit = Some(limit);
        self
    }

    /// Attach a live run-event observer (see
    /// [`CampaignConfig::observer`]).
    pub fn with_observer(mut self, observer: RunObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Enable or disable the analyze memoization layer (see
    /// [`CampaignConfig::memo`]).
    pub fn with_memo(mut self, memo: bool) -> Self {
        self.memo = memo;
        self
    }

    /// Share a [`MemoStore`] across campaigns (see
    /// [`CampaignConfig::memo_store`]).
    pub fn with_memo_store(mut self, store: Arc<MemoStore>) -> Self {
        self.memo_store = Some(store);
        self
    }
}

/// Why a campaign configured for replay executed full reruns instead.
///
/// The fallback is never silent: the reason is recorded in
/// [`CampaignResult::mode`] and surfaced by the `repro` report tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayFallback {
    /// Replay was disabled in the [`CampaignConfig`].
    Disabled,
    /// The fault signature targets a non-`Write` primitive. Parameter
    /// faults (mknod/chmod/truncate) could make a replayed op *fail*
    /// where the real application would have tolerated the error and
    /// continued — unknowable from a trace.
    NonWritePrimitive,
    /// The fault signature targets a **produce-phase** read instance.
    /// Produce-phase read faults are non-replayable *by construction*:
    /// the fault fires while the application is still writing, so the
    /// rest of the run is downstream of the corrupted transfer and
    /// only a full produce+analyze rerun can model it (the golden
    /// trace records no reads to replay, and no checkpoint of the
    /// fault-free run can predict the steered control flow). Runs
    /// targeting **analyze-phase** read instances do not fall back at
    /// all — they take the [`ExecutionMode::AnalyzeOnly`] fast path.
    ProduceReadFault,
    /// The application's analyze phase mutated the filesystem during
    /// the golden run, violating the read-only-analyze law — the
    /// recorded trace would double-apply those writes.
    AnalyzeWrites,
    /// The golden trace recorded a different number of eligible writes
    /// than the profiler counted (an attempted eligible write failed:
    /// counted at the interceptor, recorded only on success), so
    /// replay instance numbering would diverge from the injectors'.
    TraceMismatch,
    /// Analyze on the golden run's final filesystem state did not
    /// classify [`Outcome::Benign`] — the golden-identity law failed.
    GoldenIdentity,
    /// The uninjected full replay self-check failed to rebuild state
    /// that analyzes benign.
    ReplayCheck,
}

impl ReplayFallback {
    /// Short reason token for report tables.
    pub fn reason(self) -> &'static str {
        match self {
            ReplayFallback::Disabled => "disabled",
            ReplayFallback::NonWritePrimitive => "non-write-primitive",
            ReplayFallback::ProduceReadFault => "produce-read-fault",
            ReplayFallback::AnalyzeWrites => "analyze-writes",
            ReplayFallback::TraceMismatch => "trace-mismatch",
            ReplayFallback::GoldenIdentity => "golden-identity",
            ReplayFallback::ReplayCheck => "replay-check",
        }
    }
}

impl std::fmt::Display for ReplayFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

/// Why the analyze memoization layer did not engage for a campaign.
///
/// Like [`ReplayFallback`], the fallback is never silent: the reason
/// is recorded in [`CampaignResult::memo`] and surfaced in the
/// daemon's job view. A campaign that falls back still runs correctly —
/// every run takes the whole-analyze path the memo layer would have
/// shortened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoFallback {
    /// Memoization was disabled in the [`CampaignConfig`].
    Disabled,
    /// The workload declares no analyze sub-steps
    /// ([`FaultApp::analyze_substeps`] returned `None`) — the
    /// single-file regimes of every stock app.
    NoSubsteps,
    /// The campaign is not on a fast path (replay or analyze-only):
    /// full reruns re-execute produce live, so no golden sub-step
    /// basis exists to memoize against.
    NotFastPath,
    /// A liveness watchdog ([`CampaignConfig::fuel`] /
    /// [`CampaignConfig::wall_limit`]) is armed. Skipping clean
    /// sub-steps changes how many primitive crossings a run makes
    /// before the budget trips, so memoized and full analyze could
    /// classify the same run differently — law 8 cannot hold.
    Liveness,
    /// A sub-step read outside its declared input set during golden
    /// validation, so dirty-cascade reachability would be unsound.
    SubstepInputs,
    /// The concatenated sub-step read streams did not equal the golden
    /// whole-analyze read stream, so per-run injector instance
    /// numbering would diverge.
    SubstepStream,
    /// Assembling the golden sub-step artifacts did not classify
    /// [`Outcome::Benign`] (or a golden sub-step failed outright) —
    /// the memo identity law failed on the fault-free run.
    SubstepIdentity,
}

impl MemoFallback {
    /// Short reason token for report tables.
    pub fn reason(self) -> &'static str {
        match self {
            MemoFallback::Disabled => "memo-disabled",
            MemoFallback::NoSubsteps => "no-substeps",
            MemoFallback::NotFastPath => "not-fast-path",
            MemoFallback::Liveness => "liveness-watchdog",
            MemoFallback::SubstepInputs => "substep-inputs",
            MemoFallback::SubstepStream => "substep-stream",
            MemoFallback::SubstepIdentity => "substep-identity",
        }
    }
}

impl std::fmt::Display for MemoFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

/// What the analyze memoization layer did for one campaign: whether it
/// engaged, why it fell back when it did not, and the store traffic it
/// generated (hits = artifacts served from the memo store, misses =
/// live computations, invalidations = dirty sub-steps re-run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoReport {
    /// Did memoized analyze execute the runs?
    pub engaged: bool,
    /// Declared sub-steps (0 when the workload declares none).
    pub substeps: usize,
    /// Why the layer fell back, when it did not engage.
    pub fallback: Option<MemoFallback>,
    /// Memo-store traffic attributable to this campaign (a delta —
    /// shared stores carry traffic from other campaigns too).
    pub stats: MemoStats,
}

impl MemoReport {
    /// Short status token for report tables: `memoized` when engaged,
    /// otherwise the fallback reason.
    pub fn reason(&self) -> &'static str {
        if self.engaged {
            "memoized"
        } else {
            self.fallback.map(MemoFallback::reason).unwrap_or("memoized")
        }
    }
}

/// Which execution strategy ran a campaign's injection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Checkpointed golden-trace replay: fork + suffix replay +
    /// analyze per run.
    Replay,
    /// Analyze-only re-execution for analyze-phase read-site faults:
    /// fork the golden post-produce filesystem, pre-seed the fresh
    /// mount's counters with the golden produce-phase
    /// [`CounterSnapshot`], and run only [`FaultApp::analyze`] live
    /// with the fault armed. Byte-equivalent to a full rerun because
    /// read faults never touch device state and produce's writes are
    /// data-independent by law.
    AnalyzeOnly,
    /// Memoized analyze for analyze-phase read-site faults in a
    /// workload that declares analyze sub-steps: fork the golden
    /// post-produce filesystem, pre-seed the counters captured at the
    /// dirty sub-step's start, re-run only that sub-step with the
    /// fault armed, and assemble it with the cached golden artifacts
    /// of every clean sub-step. Byte-equivalent to
    /// [`ExecutionMode::AnalyzeOnly`] (and hence to a full rerun)
    /// under engine law 8.
    IncrementalAnalyze,
    /// Full application re-execution (produce + analyze) per run.
    FullRerun {
        /// Why the replay fast path did not engage.
        reason: ReplayFallback,
    },
    /// Read-site campaign whose eligible instances straddle the phase
    /// seam: analyze-phase targets execute [`ExecutionMode::AnalyzeOnly`],
    /// produce-phase targets execute full reruns with
    /// [`ReplayFallback::ProduceReadFault`] recorded. Per-run
    /// [`RunResult::mode`] tells which strategy produced each run, so
    /// nothing is silent.
    PhaseSplit,
}

impl ExecutionMode {
    /// Did the replay fast path execute the runs?
    pub fn is_replay(self) -> bool {
        matches!(self, ExecutionMode::Replay)
    }

    /// Does this mode skip re-executing the produce phase (replay or
    /// analyze-only) for at least some runs?
    pub fn is_fast_path(self) -> bool {
        matches!(
            self,
            ExecutionMode::Replay
                | ExecutionMode::AnalyzeOnly
                | ExecutionMode::IncrementalAnalyze
                | ExecutionMode::PhaseSplit
        )
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::Replay => f.write_str("replay"),
            ExecutionMode::AnalyzeOnly => f.write_str("analyze-only"),
            ExecutionMode::IncrementalAnalyze => f.write_str("incremental-analyze"),
            ExecutionMode::FullRerun { reason } => write!(f, "rerun({})", reason),
            ExecutionMode::PhaseSplit => {
                f.write_str("split(analyze-only|rerun(produce-read-fault))")
            }
        }
    }
}

/// Why a watchdog aborted a wedged injection run.
///
/// An aborted run is *data*, not an error: corrupted metadata steering
/// an application into an unbounded I/O loop is a real failure
/// manifestation, and the paper's scheme files it under crash. The
/// watchdogs unwind the run into the normal crash classification path
/// and record the trigger here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunAborted {
    /// The run exhausted its I/O-op fuel budget
    /// ([`CampaignConfig::fuel`]). Deterministic: the abort lands at
    /// the same primitive crossing on every execution.
    FuelExhausted {
        /// The budget that ran out.
        budget: u64,
    },
    /// The run outlived its wall-clock deadline
    /// ([`CampaignConfig::wall_limit`]). Non-deterministic backstop.
    DeadlineExceeded {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
}

impl RunAborted {
    /// Short reason token for report tables.
    pub fn reason(self) -> &'static str {
        match self {
            RunAborted::FuelExhausted { .. } => "fuel-exhausted",
            RunAborted::DeadlineExceeded { .. } => "deadline-exceeded",
        }
    }
}

impl std::fmt::Display for RunAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunAborted::FuelExhausted { budget } => {
                write!(f, "aborted: I/O fuel exhausted (budget {budget} ops)")
            }
            RunAborted::DeadlineExceeded { limit_ms } => {
                write!(f, "aborted: wall-clock deadline exceeded ({limit_ms} ms)")
            }
        }
    }
}

/// Result of one injection run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Run index within the campaign.
    pub run: usize,
    /// Classified outcome.
    pub outcome: Outcome,
    /// The armed instance (1-based) this run targeted.
    pub target_instance: u64,
    /// What the injector actually did (None = never fired).
    pub injection: Option<InjectionRecord>,
    /// Crash message, when the run crashed.
    pub crash_message: Option<String>,
    /// The execution strategy that produced *this* run: the
    /// campaign-level [`CampaignResult::mode`], except in a
    /// [`ExecutionMode::PhaseSplit`] campaign, where each run records
    /// the side of the phase seam its target fell on.
    pub mode: ExecutionMode,
    /// Set when a liveness watchdog aborted this run (always paired
    /// with [`Outcome::Crash`] and a synthesized crash message).
    pub aborted: Option<RunAborted>,
}

/// Stable wire code for a [`ReplayFallback`] (journal payload encoding).
fn fallback_code(f: ReplayFallback) -> u8 {
    match f {
        ReplayFallback::Disabled => 0,
        ReplayFallback::NonWritePrimitive => 1,
        ReplayFallback::ProduceReadFault => 2,
        ReplayFallback::AnalyzeWrites => 3,
        ReplayFallback::TraceMismatch => 4,
        ReplayFallback::GoldenIdentity => 5,
        ReplayFallback::ReplayCheck => 6,
    }
}

fn fallback_from_code(c: u8) -> Option<ReplayFallback> {
    Some(match c {
        0 => ReplayFallback::Disabled,
        1 => ReplayFallback::NonWritePrimitive,
        2 => ReplayFallback::ProduceReadFault,
        3 => ReplayFallback::AnalyzeWrites,
        4 => ReplayFallback::TraceMismatch,
        5 => ReplayFallback::GoldenIdentity,
        6 => ReplayFallback::ReplayCheck,
        _ => return None,
    })
}

/// Append an optional [`InjectionRecord`] — the one wire encoding the
/// journal payload and the run-level memo entries share.
fn put_injection(buf: &mut Vec<u8>, injection: Option<&InjectionRecord>) {
    let Some(i) = injection else {
        buf.push(0);
        return;
    };
    buf.push(1);
    buf.push(i.primitive.index() as u8);
    wire::put_u64(buf, i.instance);
    wire::put_u64(buf, i.prim_seq);
    wire::put_opt_str(buf, i.path.as_deref());
    match i.offset {
        None => buf.push(0),
        Some(o) => {
            buf.push(1);
            wire::put_u64(buf, o);
        }
    }
    wire::put_u64(buf, i.len as u64);
    wire::put_str(buf, &i.detail);
}

/// Decode what [`put_injection`] wrote; the outer `None` means the
/// bytes are corrupt.
fn read_injection(r: &mut wire::Reader<'_>) -> Option<Option<InjectionRecord>> {
    match r.u8()? {
        0 => Some(None),
        1 => {
            let primitive = *PRIMITIVES.get(r.u8()? as usize)?;
            let instance = r.u64()?;
            let prim_seq = r.u64()?;
            let path = r.opt_str()?;
            let offset = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return None,
            };
            let len = r.u64()? as usize;
            let detail = r.str()?;
            Some(Some(InjectionRecord { primitive, instance, prim_seq, path, offset, len, detail }))
        }
        _ => None,
    }
}

impl RunResult {
    /// Serialize the journal payload: everything the engine frame
    /// (`index`, `outcome`, `fired`) does not already carry. The
    /// encoding uses the journal's [`wire`] helpers; bumping its shape
    /// requires bumping [`crate::engine::journal::JOURNAL_SCHEMA`].
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        wire::put_u64(&mut buf, self.target_instance);
        put_injection(&mut buf, self.injection.as_ref());
        wire::put_opt_str(&mut buf, self.crash_message.as_deref());
        match self.mode {
            ExecutionMode::Replay => buf.push(0),
            ExecutionMode::AnalyzeOnly => buf.push(1),
            ExecutionMode::FullRerun { reason } => {
                buf.push(2);
                buf.push(fallback_code(reason));
            }
            ExecutionMode::PhaseSplit => buf.push(3),
            ExecutionMode::IncrementalAnalyze => buf.push(4),
        }
        match self.aborted {
            None => buf.push(0),
            Some(RunAborted::FuelExhausted { budget }) => {
                buf.push(1);
                wire::put_u64(&mut buf, budget);
            }
            Some(RunAborted::DeadlineExceeded { limit_ms }) => {
                buf.push(2);
                wire::put_u64(&mut buf, limit_ms);
            }
        }
        buf
    }

    /// Decode one journaled run. `None` means the payload is corrupt
    /// or inconsistent (e.g. `fired` without an injection record) —
    /// the resume path drops such entries and re-executes the run.
    fn decode(entry: &JournalEntry) -> Option<RunResult> {
        let mut r = wire::Reader::new(&entry.payload);
        let target_instance = r.u64()?;
        let injection = read_injection(&mut r)?;
        if injection.is_some() != entry.fired {
            return None;
        }
        let crash_message = r.opt_str()?;
        let mode = match r.u8()? {
            0 => ExecutionMode::Replay,
            1 => ExecutionMode::AnalyzeOnly,
            2 => ExecutionMode::FullRerun { reason: fallback_from_code(r.u8()?)? },
            3 => ExecutionMode::PhaseSplit,
            4 => ExecutionMode::IncrementalAnalyze,
            _ => return None,
        };
        let aborted = match r.u8()? {
            0 => None,
            1 => Some(RunAborted::FuelExhausted { budget: r.u64()? }),
            2 => Some(RunAborted::DeadlineExceeded { limit_ms: r.u64()? }),
            _ => return None,
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(RunResult {
            run: entry.index,
            outcome: entry.outcome,
            target_instance,
            injection,
            crash_message,
            mode,
            aborted,
        })
    }
}

/// FNV-1a digest over retained run records: run index, outcome,
/// target instance, the full injection record (or the `no-fire`
/// marker), and the crash message. Byte-compatible with the digest the
/// read/write differential suite pins, so resume-law tests can compare
/// an interrupted+resumed campaign against an uninterrupted control
/// with one number.
fn digest_runs(runs: &[RunResult]) -> u64 {
    let mut h = Fnv::new();
    for r in runs {
        h.eat_u64(r.run as u64);
        h.eat(r.outcome.name().as_bytes());
        h.eat_u64(r.target_instance);
        match &r.injection {
            Some(i) => {
                h.eat(i.primitive.ffis_name().as_bytes());
                h.eat_u64(i.instance);
                h.eat_u64(i.prim_seq);
                h.eat(i.path.as_deref().unwrap_or("-").as_bytes());
                h.eat_u64(i.offset.unwrap_or(u64::MAX));
                h.eat_u64(i.len as u64);
                h.eat(i.detail.as_bytes());
            }
            None => h.eat(b"no-fire"),
        }
        h.eat(r.crash_message.as_deref().unwrap_or("-").as_bytes());
    }
    h.0
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Outcome tally with CI accessors. Always covers every executed
    /// run, even those whose full records were not retained.
    pub tally: OutcomeTally,
    /// Retained per-run results (in run order). All runs unless
    /// [`CampaignConfig::keep_runs`] bounded the reservoir.
    pub runs: Vec<RunResult>,
    /// The fault-free profile that sized the injection space; its
    /// `eligible` count is scoped to the signature (the trace and
    /// counters cover every primitive).
    pub profile: ProfileReport,
    /// The execution strategy that ran the injection runs, including
    /// the reason when a replay-configured campaign fell back.
    pub mode: ExecutionMode,
    /// FNV-1a fingerprint of the execution plan (every run's index,
    /// target instance, injector seed, and strategy). Bound into the
    /// journal header: resume refuses a journal whose fingerprint
    /// differs.
    pub plan_fingerprint: u64,
    /// Did the plan drain fully, or did cancellation stop it early?
    /// Tallies always cover exactly the completed (executed + resumed)
    /// runs.
    pub status: CompletionStatus,
    /// Runs this invocation actually executed (excludes journaled
    /// ones).
    pub executed: usize,
    /// Runs replayed from the journal at cost 0.
    pub resumed: usize,
    /// What the analyze memoization layer did: engaged or the recorded
    /// fallback reason, plus this campaign's memo-store traffic.
    pub memo: MemoReport,
    /// What the plan-aware replay optimizations did: demand placement,
    /// suffix/overshoot accounting, and batched-run counters. Purely
    /// observational — never part of [`CampaignResult::run_digest`].
    pub replay_opt: ReplayOptReport,
}

impl CampaignResult {
    /// Did the checkpointed replay fast path execute the runs?
    pub fn used_replay(&self) -> bool {
        self.mode.is_replay()
    }

    /// FNV-1a digest over the retained run records — the one number
    /// the resume law compares: an interrupted+resumed campaign must
    /// digest identically to an uninterrupted control.
    pub fn run_digest(&self) -> u64 {
        digest_runs(&self.runs)
    }

    /// Runs with a given outcome.
    pub fn runs_with(&self, o: Outcome) -> impl Iterator<Item = &RunResult> {
        self.runs.iter().filter(move |r| r.outcome == o)
    }

    /// Group crash runs by the leading token of their message — a
    /// quick taxonomy of *where* the stack gave up (file-format
    /// validation vs. application checks vs. analysis tooling).
    /// Returns `(message prefix, count)` sorted by descending count.
    pub fn crash_breakdown(&self) -> Vec<(String, u64)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for r in self.runs_with(Outcome::Crash) {
            let msg = r.crash_message.as_deref().unwrap_or("<no message>");
            // First clause up to ':' keeps the error source, drops the
            // per-run specifics (offsets, sizes).
            let key = msg.split(':').next().unwrap_or(msg).trim().to_string();
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut out: Vec<(String, u64)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The header row matching [`CampaignResult::csv_row`].
    pub fn csv_header() -> &'static str {
        "label,benign,detected,sdc,crash,n,mode"
    }

    /// One CSV row: `label,benign,detected,sdc,crash,n,mode`. Labels
    /// containing commas, quotes, or newlines are RFC 4180-quoted so
    /// the row always parses to exactly seven fields.
    pub fn csv_row(&self, label: &str) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            csv_field(label),
            self.tally.benign,
            self.tally.detected,
            self.tally.sdc,
            self.tally.crash,
            self.tally.total(),
            self.mode
        )
    }
}

/// RFC 4180 field escaping: quote when the value contains a delimiter,
/// a quote, or a line break; double embedded quotes.
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Campaign errors (distinct from application crashes, which are data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The fault signature failed validation.
    BadSignature(String),
    /// The golden (fault-free) run failed — nothing to compare against.
    GoldenRunFailed(String),
    /// The profiler found no eligible instance to inject into.
    NoEligibleInstances,
    /// The run journal could not be created or resumed (plan
    /// fingerprint mismatch, corrupt header, I/O failure).
    Journal(JournalError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::BadSignature(m) => write!(f, "invalid fault signature: {}", m),
            CampaignError::GoldenRunFailed(m) => write!(f, "golden run failed: {}", m),
            CampaignError::NoEligibleInstances => {
                f.write_str("no eligible primitive instances to inject into")
            }
            CampaignError::Journal(e) => write!(f, "run journal: {}", e),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The campaign driver: one golden run, then `runs` injection runs of
/// one fault signature.
///
/// A write-site signature rides the checkpointed golden-trace replay;
/// a read-site one takes the analyze-only fast path for analyze-phase
/// targets and the full-rerun path (recording
/// [`ReplayFallback::ProduceReadFault`]) for produce-phase ones.
/// Rerunning the same config — serial or parallel — reproduces every
/// outcome, per-run [`ExecutionMode`], and instance choice.
pub struct Campaign<'a, A: FaultApp> {
    app: &'a A,
    config: CampaignConfig,
    goldens: Option<&'a GoldenCache<A::Output>>,
}

impl<'a, A: FaultApp> Campaign<'a, A> {
    /// New campaign over `app`.
    pub fn new(app: &'a A, config: CampaignConfig) -> Self {
        Campaign { app, config, goldens: None }
    }

    /// Take the golden run — and the verdicts of the campaign-wide
    /// laws checked against it — from `cache`, running it only if no
    /// earlier campaign over `app` left one. Without a cache the
    /// campaign makes the same golden run for itself; the result is
    /// identical either way. The cache must be used with this one
    /// application only.
    pub fn with_goldens(mut self, cache: &'a GoldenCache<A::Output>) -> Self {
        self.goldens = Some(cache);
        self
    }

    /// Execute the whole workflow.
    pub fn run(&self) -> Result<CampaignResult, CampaignError> {
        let cfg = &self.config;
        let sig = &cfg.signature;
        sig.validate().map_err(CampaignError::BadSignature)?;

        // Phase 1+2: one golden run doubles as the profiling run (see
        // [`Golden::run`]); it depends on the application alone.
        let golden = match self.goldens {
            Some(cache) => cache.get_or_run(|| Golden::run(self.app))?,
            None => Arc::new(Golden::run(self.app)?),
        };

        // The trace interceptor records every primitive crossing, so
        // the eligible population comes from the golden execution.
        let eligible = golden
            .profile
            .trace
            .iter()
            .filter(|r| r.in_scope(sig.primitive, |p| sig.target.matches(p)))
            .count() as u64;
        if eligible == 0 {
            return Err(CampaignError::NoEligibleInstances);
        }

        // Every per-run random draw happens *now*, before any plan is
        // built (engine law 2) — which is what makes the fork-offset
        // demand available to checkpoint placement.
        let specs = draw_specs(cfg.seed, cfg.runs, eligible);
        // The plan-aware replay optimizations disengage while a
        // liveness watchdog is armed: fuel counts per-op mount
        // crossings, so placement- or batching-induced suffix changes
        // would alter exhaustion points (the memo gate below refuses
        // for the same reason).
        let watchdog = cfg.fuel.is_some() || cfg.wall_limit.is_some();
        let replay_opt = cfg.replay_opt && !watchdog;

        // Gate the fast path: checkpointed replay at the write site,
        // analyze-only re-execution at the read site, full reruns —
        // with the reason recorded — otherwise. The campaign-wide laws
        // are the golden run's to answer; what is this campaign's own
        // is the eligible count's check against trace or ledger and,
        // with plan-aware placement, checkpoints at its drawn targets.
        // (Only `Write` and `Read` have a fast path: buffer-level write
        // faults — `Replace` keeps the length, `Drop` skips the device
        // write — can never make a replayed op fail, so the
        // straight-line trace stays faithful; parameter faults could.)
        let mut plan = match sig.primitive {
            _ if !cfg.replay => Err(ReplayFallback::Disabled),
            Primitive::Write => {
                let demand: Option<Vec<u64>> =
                    replay_opt.then(|| specs.iter().map(|s| s.target_instance).collect());
                let store = cfg.checkpoints.as_deref();
                ReplayPlan::new(self.app, &golden, &sig.target, eligible, store, demand.as_deref())
                    .map(CampaignPlan::Replay)
            }
            Primitive::Read => golden
                .analyze_only_laws(self.app)
                .and_then(|()| analyze_only_plan(&golden, &sig.target, eligible))
                .map(CampaignPlan::AnalyzeOnly),
            _ => Err(ReplayFallback::NonWritePrimitive),
        }
        .unwrap_or_else(CampaignPlan::Rerun);

        // The analyze memoization gate (engine law 8) — never silent:
        // either the sub-step laws hold on the golden run and the
        // basis attaches to the fast path, or the fallback reason
        // lands in [`CampaignResult::memo`].
        let substeps = if cfg.memo { self.app.analyze_substeps() } else { None };
        let memo_store = substeps
            .as_ref()
            .map(|_| cfg.memo_store.clone().unwrap_or_else(|| Arc::new(MemoStore::in_memory())));
        let stats_before = memo_store.as_ref().map(|s| s.stats()).unwrap_or_default();
        let mut memo_report = MemoReport {
            engaged: false,
            substeps: substeps.as_ref().map_or(0, Vec::len),
            fallback: None,
            stats: MemoStats::default(),
        };
        memo_report.fallback = match (substeps, &memo_store) {
            (Some(_), Some(_)) if watchdog => Some(MemoFallback::Liveness),
            (Some(_), Some(_)) if matches!(plan, CampaignPlan::Rerun(_)) => {
                Some(MemoFallback::NotFastPath)
            }
            (Some(specs), Some(store)) => match golden.substep_laws(self.app, specs) {
                Ok(laws) => {
                    let memo = Arc::new(SubstepMemo::publish(laws, store));
                    plan.engage_memo(memo, &sig.target, golden.analyze_reads());
                    memo_report.engaged = true;
                    None
                }
                Err(fallback) => Some(fallback),
            },
            _ if cfg.memo => Some(MemoFallback::NoSubsteps),
            _ => Some(MemoFallback::Disabled),
        };

        // Phase 3: N injection runs through the shared engine, each
        // pre-drawn spec resolved to the plan's strategy for its target.
        let planned: Vec<PlannedRun<InjectionSpec>> = specs
            .iter()
            .enumerate()
            .map(|(index, &spec)| PlannedRun {
                index,
                strategy: plan.strategy_for(spec.target_instance),
                spec,
            })
            .collect();
        let replay_report = replay_opt_report(&planned, &plan, replay_opt);
        let fingerprint = plan_fingerprint(&planned);
        let mode = plan.campaign_mode();
        let meta = JournalMeta {
            fingerprint,
            seed: cfg.seed,
            runs: cfg.runs as u64,
            shards: 1,
            context: format!("app={} mode={} eligible={}", self.app.name(), mode, eligible),
        };
        let (journal, resumed) = open_journal(cfg.journal.as_deref(), cfg.resume, meta)?;
        let eplan = ExecutionPlan::new(planned);
        let engine_cfg =
            EngineConfig { parallel: cfg.parallel, keep_runs: cfg.keep_runs, keep_seed: cfg.seed };
        let liveness = Liveness { fuel: cfg.fuel, wall: cfg.wall_limit };
        let persist_fn = journal.as_ref().map(|j| {
            move |index: usize, outcome: Outcome, fired: bool, r: &RunResult| {
                j.lock().unwrap_or_else(|e| e.into_inner()).append(
                    index,
                    outcome,
                    fired,
                    &r.encode(),
                );
            }
        });
        let observe_fn = cfg
            .observer
            .as_ref()
            .map(|obs| move |ev: RunEvent<'_, RunResult>| obs.call(ev.payload, ev.resumed));
        let durability = Durability {
            resumed,
            cancel: cfg.cancel.as_deref(),
            persist: persist_fn
                .as_ref()
                .map(|f| f as &(dyn Fn(usize, Outcome, bool, &RunResult) + Sync)),
            observe: observe_fn.as_ref().map(|f| f as &(dyn Fn(RunEvent<'_, RunResult>) + Sync)),
            index_range: cfg.index_range,
        };
        // Checkpoint-grouped batch execution (engine law 9): pending
        // replay runs sharing a checkpoint get a lazily built batch of
        // per-target mini-forks. A batch that fails to build (or lacks
        // a run's target) leaves the run on the per-run checkpoint
        // fork — byte-identical either way.
        let opt_counters = ReplayOptCounters::default();
        let batching = replay_opt && matches!(plan, CampaignPlan::Replay(_));
        let out = engine::execute_durable_batched(
            &eplan,
            &engine_cfg,
            durability,
            |pr| if batching { pr.strategy.batch_key() } else { None },
            |members| {
                let first = *members.first()?;
                let CampaignPlan::Replay(rp) = &plan else { return None };
                let RunStrategy::Replay { checkpoint, .. } =
                    rp.strategy_for(specs[first].target_instance)
                else {
                    return None;
                };
                let targets: Vec<usize> = members
                    .iter()
                    .map(|&i| rp.eligible_ops[(specs[i].target_instance - 1) as usize])
                    .collect();
                let batch = rp.cache.fork_at_targets(checkpoint, &targets).ok()?;
                opt_counters.batches.fetch_add(1, Ordering::Relaxed);
                Some(batch)
            },
            |pr, batch| {
                let result =
                    self.execute_run(&plan, &golden.output, pr, batch, liveness, &opt_counters);
                RunRecord {
                    outcome: result.outcome,
                    fired: result.injection.is_some(),
                    payload: result,
                }
            },
        );

        if let Some(store) = &memo_store {
            let after = store.stats();
            memo_report.stats = MemoStats {
                hits: after.hits.saturating_sub(stats_before.hits),
                misses: after.misses.saturating_sub(stats_before.misses),
                invalidations: after.invalidations.saturating_sub(stats_before.invalidations),
            };
        }

        Ok(CampaignResult {
            tally: out.tally,
            runs: out.kept,
            profile: ProfileReport { eligible, ..golden.profile.clone() },
            mode,
            plan_fingerprint: fingerprint,
            status: out.status,
            executed: out.executed,
            resumed: out.resumed,
            memo: memo_report,
            replay_opt: replay_report.with_counters(&opt_counters),
        })
    }
}

/// Plan-time per-run data of an injection campaign: the uniformly
/// drawn 1-based target instance and the injector's seed, both fixed
/// before execution starts (engine law 2).
#[derive(Debug, Clone, Copy)]
struct InjectionSpec {
    target_instance: u64,
    seed: u64,
}

/// Draw every run's [`InjectionSpec`]: run `i` from child stream
/// `root.child(i)`. The stream is pinned by seeded digests; the specs
/// depend only on the seed and the eligible count, never on the plan.
fn draw_specs(seed: u64, runs: usize, eligible: u64) -> Vec<InjectionSpec> {
    let root = Rng::seed_from(seed);
    (0..runs)
        .map(|i| {
            let mut rng = root.child(i as u64);
            // "generates a random number from 0 to count-1" →
            // 1-based instance index in [1, count].
            let target_instance = rng.gen_range(eligible) + 1;
            let seed = rng.next_u64();
            InjectionSpec { target_instance, seed }
        })
        .collect()
}

/// FNV-1a fingerprint of an execution plan: run count and every run's
/// `(index, target instance, injector seed, strategy)`. Because all
/// random draws happen at plan time (engine law 2), two invocations
/// with the same configuration fingerprint identically — and any
/// change to grid, seed, signature, strategy regime, or run count
/// changes the fingerprint, which is exactly the set of things a
/// journal resume must refuse to splice across.
fn plan_fingerprint(planned: &[PlannedRun<InjectionSpec>]) -> u64 {
    let mut h = Fnv::new();
    // The `1` here and the `0` per run are a shard count and a shard
    // index from when one campaign could inject several signatures.
    // They stay, so every fingerprint — echoed in journal headers and
    // in `repro scale`'s DIGESTS.txt — is what it was, and a journal
    // written before still resumes.
    h.eat_u64(1);
    h.eat_u64(planned.len() as u64);
    for pr in planned {
        h.eat_u64(pr.index as u64);
        h.eat_u64(0);
        h.eat_u64(pr.spec.target_instance);
        h.eat_u64(pr.spec.seed);
        match pr.strategy {
            RunStrategy::Replay { checkpoint, suffix_len } => {
                h.eat(&[0]);
                h.eat_u64(checkpoint as u64);
                h.eat_u64(suffix_len as u64);
            }
            RunStrategy::AnalyzeOnly => h.eat(&[1]),
            RunStrategy::Rerun { reason } => h.eat(&[2, fallback_code(reason)]),
            RunStrategy::IncrementalAnalyze { cost } => {
                h.eat(&[3]);
                h.eat_u64(cost as u64);
            }
        }
    }
    h.0
}

/// Per-run watchdog bundle, armed on every injection run's mount —
/// never on the golden run, which must complete for the campaign to
/// exist at all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Liveness {
    fuel: Option<u64>,
    wall: Option<Duration>,
}

impl Liveness {
    fn arm(&self, ffs: &FfisFs) {
        if let Some(budget) = self.fuel {
            ffs.set_fuel(budget);
        }
        if let Some(limit) = self.wall {
            ffs.set_deadline(limit);
        }
    }
}

/// What the plan-aware replay optimizations
/// ([`CampaignConfig::replay_opt`]) did for one campaign: plan-level
/// suffix/overshoot accounting plus the batched runs' run-time
/// counters. Purely observational — none of this feeds run digests or
/// journal payloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayOptReport {
    /// Were the optimizations armed (knob on, no liveness watchdog)?
    pub engaged: bool,
    /// Did the checkpoint set come from demand-driven placement?
    pub demand_placed: bool,
    /// Σ over planned replay runs of the suffix each replays from its
    /// checkpoint (plan-level; resumed runs included).
    pub replayed_suffix_ops: u64,
    /// Σ over planned replay runs of the minimal possible suffix
    /// (`trace len − target op`).
    pub minimal_suffix_ops: u64,
    /// `replayed − minimal`: pre-target ops the placement failed to
    /// skip. Demand placement drives this toward zero.
    pub overshoot: u64,
    /// Batch contexts built this invocation (resumed runs never
    /// batch).
    pub batches: u64,
    /// Runs executed through a batch context.
    pub batched_runs: u64,
    /// Vectored write applications issued while coalescing batched
    /// suffixes.
    pub coalesced_calls: u64,
    /// Trace ops folded into those vectored applications.
    pub coalesced_ops: u64,
    /// Tail ops memoized batched runs dropped because no dirty
    /// analyze sub-step declares their path as input — suffix bytes
    /// never copied at all.
    pub skipped_tail_ops: u64,
}

impl ReplayOptReport {
    /// Fold the executor-side counters into the plan-level report.
    fn with_counters(mut self, c: &ReplayOptCounters) -> Self {
        self.batches = c.batches.load(Ordering::Relaxed);
        self.batched_runs = c.batched_runs.load(Ordering::Relaxed);
        self.coalesced_calls = c.coalesced_calls.load(Ordering::Relaxed);
        self.coalesced_ops = c.coalesced_ops.load(Ordering::Relaxed);
        self.skipped_tail_ops = c.skipped_tail_ops.load(Ordering::Relaxed);
        self
    }
}

/// Shared run-time counters of batched replay runs (referenced by
/// the engine's worker closures; relaxed ordering — they are pure
/// telemetry).
#[derive(Debug, Default)]
pub(crate) struct ReplayOptCounters {
    batches: AtomicU64,
    batched_runs: AtomicU64,
    coalesced_calls: AtomicU64,
    coalesced_ops: AtomicU64,
    skipped_tail_ops: AtomicU64,
}

/// Plan-level half of [`ReplayOptReport`]: suffix and overshoot
/// accounting over the planned replay runs, against the campaign's
/// checkpoint placement.
fn replay_opt_report(
    planned: &[PlannedRun<InjectionSpec>],
    plan: &CampaignPlan,
    engaged: bool,
) -> ReplayOptReport {
    let mut report = ReplayOptReport { engaged, ..ReplayOptReport::default() };
    let CampaignPlan::Replay(rp) = plan else { return report };
    for pr in planned {
        if let RunStrategy::Replay { suffix_len, .. } = pr.strategy {
            report.replayed_suffix_ops += suffix_len as u64;
            let target_op = rp.eligible_ops[(pr.spec.target_instance - 1) as usize];
            report.minimal_suffix_ops += (rp.cache.ops().len() - target_op) as u64;
        }
    }
    report.overshoot = report.replayed_suffix_ops.saturating_sub(report.minimal_suffix_ops);
    report.demand_placed = matches!(rp.cache.placement(), Placement::Demand(_));
    report
}

/// Open (create or resume) the configured journal and decode any
/// journaled runs. Resume with no journal file on disk starts fresh;
/// entries whose payload fails to decode are dropped (the run
/// re-executes) rather than trusted.
#[allow(clippy::type_complexity)]
fn open_journal(
    path: Option<&std::path::Path>,
    resume: bool,
    meta: JournalMeta,
) -> Result<(Option<Mutex<RunJournal>>, HashMap<usize, (Outcome, bool, RunResult)>), CampaignError>
{
    let Some(path) = path else {
        return Ok((None, HashMap::new()));
    };
    if resume && path.exists() {
        let (journal, entries) = RunJournal::resume(path, &meta).map_err(CampaignError::Journal)?;
        let resumed = entries
            .values()
            .filter_map(|e| RunResult::decode(e).map(|r| (e.index, (e.outcome, e.fired, r))))
            .collect();
        Ok((Some(Mutex::new(journal)), resumed))
    } else {
        let journal = RunJournal::create(path, meta).map_err(CampaignError::Journal)?;
        Ok((Some(Mutex::new(journal)), HashMap::new()))
    }
}

/// Op indices of the trace's eligible writes under `target` (instance
/// `k` is element `k-1`) — the one definition of write-site
/// eligibility injections are indexed with. Takes the raw op stream
/// (not a built [`TraceCheckpoints`]) so the planner can derive its
/// fork-offset demand *before* checkpoint placement.
fn eligible_write_ops(ops: &[TraceOp], target: &TargetFilter) -> Vec<usize> {
    ops.iter()
        .enumerate()
        .filter(|(_, op)| op.is_write() && target.matches(op.write_path()))
        .map(|(i, _)| i)
        .collect()
}

/// The campaign's prepared replay fast path: the checkpointed golden
/// trace plus the op index of every eligible write (instance `k` is
/// `eligible_ops[k-1]`).
pub(crate) struct ReplayPlan {
    cache: Arc<TraceCheckpoints>,
    eligible_ops: Vec<usize>,
    /// Engaged analyze memoization basis (engine law 8). When present,
    /// a replay run re-computes only the sub-steps that declare the
    /// injected op's path as an input and assembles the rest from the
    /// memo store (see [`CampaignPlan::engage_memo`]).
    memo: Option<Arc<SubstepMemo>>,
    /// With `memo`, per sub-step: which of the trace's paths it
    /// declares as inputs — what a run's filtered tail keeps for each
    /// dirty sub-step. Resolved to path ids once per plan, so no run
    /// compares a path string.
    tail_inputs: Vec<PathSet>,
}

impl ReplayPlan {
    /// The whole write-site gate, for a campaign and a metadata scan
    /// alike: the trace must hold exactly the `eligible` writes the
    /// profile counted under `target` (else replay instance numbering
    /// would diverge from the injector's), the golden run's replay laws
    /// must hold, and the checkpoint set is placed against the trace
    /// ops of the `demand`ed instances — log-spaced without a demand.
    /// A scan demands its one metadata write, so a snapshot sits
    /// exactly before it.
    pub(crate) fn new<A: FaultApp>(
        app: &A,
        golden: &Golden<A::Output>,
        target: &TargetFilter,
        eligible: u64,
        store: Option<&CheckpointStore>,
        demand: Option<&[u64]>,
    ) -> Result<Self, ReplayFallback> {
        let eligible_ops = eligible_write_ops(&golden.trace, target);
        if eligible_ops.len() as u64 != eligible {
            return Err(ReplayFallback::TraceMismatch);
        }
        golden.replay_laws(app)?;
        let demand: Option<Vec<usize>> =
            demand.map(|d| d.iter().map(|&k| eligible_ops[(k - 1) as usize]).collect());
        let cache = place_checkpoints(&golden.trace, store, demand.as_deref())?;
        Ok(ReplayPlan { cache, eligible_ops, memo: None, tail_inputs: Vec::new() })
    }

    /// Resolve the planned strategy for one target instance: the
    /// nearest checkpoint preceding its trace op, and the suffix
    /// length the run will replay from there (the scheduler's cost
    /// key).
    pub(crate) fn strategy_for(&self, target_instance: u64) -> RunStrategy {
        let target_op = self.eligible_ops[(target_instance - 1) as usize];
        let points = self.cache.points();
        let checkpoint = points.partition_point(|p| p.index() <= target_op).saturating_sub(1);
        let suffix_len = self.cache.ops().len() - points[checkpoint].index();
        RunStrategy::Replay { checkpoint, suffix_len }
    }

    /// The [`Start`] of a run planned on checkpoint `checkpoint`, and
    /// how many eligible writes precede that snapshot — what the run's
    /// injector resumes counting from.
    pub(crate) fn checkpoint_start(&self, checkpoint: usize) -> (Start<'_>, u64) {
        let point = &self.cache.points()[checkpoint];
        let seen = self.eligible_ops.partition_point(|&op| op < point.index());
        (Start::Checkpoint { plan: self, point }, seen as u64)
    }
}

/// A read-site campaign's prepared fast path: the golden post-produce
/// filesystem (read-only analyze means the golden run's *final* state
/// is byte-identical to its post-produce state), the phase-boundary
/// counter snapshot every analyze-only mount pre-seeds, and the
/// signature's phase seam in eligible instance space — instances
/// `1..=produce_eligible` fire during produce (full rerun,
/// [`ReplayFallback::ProduceReadFault`]), later instances fire during
/// analyze ([`RunStrategy::AnalyzeOnly`]).
struct AnalyzeOnlyPlan {
    base: Arc<MemFs>,
    boundary: CounterSnapshot,
    produce_eligible: u64,
    eligible: u64,
    /// Engaged analyze memoization basis plus the per-sub-step
    /// eligible-read ranges for this signature. When present,
    /// analyze-phase targets plan [`RunStrategy::IncrementalAnalyze`]:
    /// only the sub-step whose eligible-read range contains the target
    /// re-executes live; every other artifact assembles from the memo
    /// store.
    memo: Option<IncrementalMemo>,
}

impl AnalyzeOnlyPlan {
    /// The campaign-level [`ExecutionMode`] the phase seam implies.
    fn campaign_mode(&self) -> ExecutionMode {
        if self.produce_eligible == 0 {
            if self.memo.is_some() {
                ExecutionMode::IncrementalAnalyze
            } else {
                ExecutionMode::AnalyzeOnly
            }
        } else if self.produce_eligible >= self.eligible {
            ExecutionMode::FullRerun { reason: ReplayFallback::ProduceReadFault }
        } else {
            ExecutionMode::PhaseSplit
        }
    }

    /// Resolve the planned strategy for one target instance by its
    /// side of the phase seam.
    fn strategy_for(&self, target_instance: u64) -> RunStrategy {
        if target_instance <= self.produce_eligible {
            RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault }
        } else if let Some(ia) = &self.memo {
            let analyze_instance = target_instance - self.produce_eligible;
            match ia.substep_for(analyze_instance) {
                Some(d) => {
                    let (start, end) = ia.memo.laws.read_ranges[d];
                    RunStrategy::IncrementalAnalyze { cost: (end - start) as u32 }
                }
                // Unreachable when the sub-step stream-identity law
                // holds (the ranges partition the analyze stream), but
                // the whole-analyze path is always a correct refuge.
                None => RunStrategy::AnalyzeOnly,
            }
        } else {
            RunStrategy::AnalyzeOnly
        }
    }
}

/// An engaged analyze memoization basis: the golden run's validated
/// [`SubstepLaws`], the store this campaign memoizes into, and pinned
/// `Arc` handles to the golden artifacts as that store holds them.
pub(crate) struct SubstepMemo {
    laws: Arc<SubstepLaws>,
    artifacts: Vec<Arc<Vec<u8>>>,
    store: Arc<MemoStore>,
}

impl SubstepMemo {
    /// Publish the golden artifacts to `store`, keyed on each
    /// sub-step's input fingerprint stream, so a warm store serves
    /// them (and the run-level entries derived from them) across
    /// campaigns. Per campaign, not per golden run: each campaign may
    /// be handed a store of its own.
    fn publish(laws: Arc<SubstepLaws>, store: &Arc<MemoStore>) -> Self {
        let artifacts = laws
            .keys
            .iter()
            .zip(&laws.artifacts)
            .map(|(key, art)| {
                store
                    .get_or_compute(key, || Ok(art.clone()))
                    .expect("publishing a computed golden artifact cannot fail")
            })
            .collect();
        SubstepMemo { laws, artifacts, store: store.clone() }
    }
}

/// Read-site half of an engaged memo basis: the shared [`SubstepMemo`]
/// plus, per sub-step, how many of this signature's eligible
/// analyze-phase reads precede it and how many fall inside it.
struct IncrementalMemo {
    memo: Arc<SubstepMemo>,
    eligible_ranges: Vec<(u64, u64)>,
}

impl IncrementalMemo {
    /// Which sub-step does the 1-based eligible *analyze-phase*
    /// instance land in?
    fn substep_for(&self, analyze_instance: u64) -> Option<usize> {
        self.eligible_ranges.iter().position(|&(before, within)| {
            analyze_instance > before && analyze_instance <= before + within
        })
    }
}

/// Key material of one run-level memo entry: the campaign's golden
/// key, the full fault signature, and the run's plan-time draws. Two
/// runs with identical key material produce identical results (engine
/// laws 2 and 8), so serving one from the store is exact.
fn memo_run_key(
    golden_key: u64,
    signature: &FaultSignature,
    target_instance: u64,
    seed: u64,
) -> Vec<u8> {
    let mut key = Vec::with_capacity(128);
    key.extend_from_slice(b"ffis-memo-v2|run|");
    key.extend_from_slice(&golden_key.to_le_bytes());
    key.extend_from_slice(format!("|{signature:?}|").as_bytes());
    key.extend_from_slice(&target_instance.to_le_bytes());
    key.extend_from_slice(&seed.to_le_bytes());
    key
}

/// A decoded run-level memo entry: what the injector did plus either
/// the dirty sub-steps' artifacts or the run's error message. Panicked
/// runs are never memoized — a warm store re-executes them live.
struct MemoRunEntry {
    injection: Option<InjectionRecord>,
    body: Result<Vec<(usize, Vec<u8>)>, String>,
}

fn encode_memo_run(
    injection: &Option<InjectionRecord>,
    body: Result<&[(usize, Vec<u8>)], &str>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    buf.push(1); // entry version
    put_injection(&mut buf, injection.as_ref());
    match body {
        Err(msg) => {
            buf.push(0);
            wire::put_str(&mut buf, msg);
        }
        Ok(arts) => {
            buf.push(1);
            wire::put_u64(&mut buf, arts.len() as u64);
            for (i, a) in arts {
                wire::put_u64(&mut buf, *i as u64);
                wire::put_u64(&mut buf, a.len() as u64);
                buf.extend_from_slice(a);
            }
        }
    }
    buf
}

fn decode_memo_run(bytes: &[u8]) -> Option<MemoRunEntry> {
    let mut r = wire::Reader::new(bytes);
    if r.u8()? != 1 {
        return None;
    }
    let injection = read_injection(&mut r)?;
    let body = match r.u8()? {
        0 => Err(r.str()?),
        1 => {
            let n = r.u64()? as usize;
            let mut arts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let i = r.u64()? as usize;
                let len = r.u64()? as usize;
                arts.push((i, r.bytes(len)?.to_vec()));
            }
            Ok(arts)
        }
        _ => return None,
    };
    if r.remaining() != 0 {
        return None;
    }
    Some(MemoRunEntry { injection, body })
}

/// A campaign's prepared plan — checkpointed trace replay for a
/// write-site signature, analyze-only re-execution for a read-site
/// one, or why its runs take full reruns instead.
/// [`Campaign::execute_run`] dispatches on the planned [`RunStrategy`]
/// and reaches back into the matching variant.
enum CampaignPlan {
    Replay(ReplayPlan),
    AnalyzeOnly(AnalyzeOnlyPlan),
    Rerun(ReplayFallback),
}

impl CampaignPlan {
    fn strategy_for(&self, target_instance: u64) -> RunStrategy {
        match self {
            CampaignPlan::Replay(p) => p.strategy_for(target_instance),
            CampaignPlan::AnalyzeOnly(p) => p.strategy_for(target_instance),
            CampaignPlan::Rerun(reason) => RunStrategy::Rerun { reason: *reason },
        }
    }

    /// The campaign-level [`ExecutionMode`] this plan implies.
    fn campaign_mode(&self) -> ExecutionMode {
        match self {
            CampaignPlan::Replay(_) => ExecutionMode::Replay,
            CampaignPlan::AnalyzeOnly(p) => p.campaign_mode(),
            CampaignPlan::Rerun(reason) => ExecutionMode::FullRerun { reason: *reason },
        }
    }

    /// Attach the validated memo basis to the fast path. A write-site
    /// plan keeps its per-run strategy, mode, and plan fingerprint —
    /// memoization is a pure analyze-side substitution there. A
    /// read-site plan additionally maps the eligible reads under
    /// `target` onto the sub-steps' read ranges and re-plans
    /// analyze-phase targets as [`RunStrategy::IncrementalAnalyze`].
    fn engage_memo(
        &mut self,
        memo: Arc<SubstepMemo>,
        target: &TargetFilter,
        golden_analyze: &[ReadRecord],
    ) {
        match self {
            CampaignPlan::Rerun(_) => {}
            CampaignPlan::Replay(rp) => {
                let paths = rp.cache.trace().path_index();
                rp.tail_inputs = memo
                    .laws
                    .specs
                    .iter()
                    .map(|spec| paths.select(spec.inputs.iter().map(String::as_str)))
                    .collect();
                rp.memo = Some(memo);
            }
            CampaignPlan::AnalyzeOnly(ap) => {
                let matching = |records: &[ReadRecord]| {
                    records.iter().filter(|r| target.matches(r.path.as_deref())).count() as u64
                };
                let eligible_ranges = memo
                    .laws
                    .read_ranges
                    .iter()
                    .map(|&(start, end)| {
                        (matching(&golden_analyze[..start]), matching(&golden_analyze[start..end]))
                    })
                    .collect();
                ap.memo = Some(IncrementalMemo { memo, eligible_ranges });
            }
        }
    }
}

/// Per-signature half of the analyze-only gate: slice the golden read
/// ledger by the signature's target filter, locate the phase seam in
/// eligible instance space, and cross-check the eligible count against
/// the profiler's (the read-site analogue of the write path's
/// trace-vs-profiler instance check).
fn analyze_only_plan<O>(
    golden: &Golden<O>,
    target: &TargetFilter,
    eligible: u64,
) -> Result<AnalyzeOnlyPlan, ReplayFallback> {
    let matching = |records: &[ReadRecord]| {
        records.iter().filter(|r| target.matches(r.path.as_deref())).count() as u64
    };
    if matching(&golden.reads) != eligible {
        return Err(ReplayFallback::TraceMismatch);
    }
    Ok(AnalyzeOnlyPlan {
        base: golden.base.clone(),
        boundary: golden.boundary,
        produce_eligible: matching(&golden.reads[..golden.produce_reads]),
        eligible,
        memo: None,
    })
}

/// What one finished run classifies to: the outcome, the faulty output
/// when the run completed (a scan's `keep` decides what outlives it),
/// the crash message, and the watchdog that stopped it.
pub(crate) struct Classified<O> {
    pub outcome: Outcome,
    pub output: Option<O>,
    pub crash_message: Option<String>,
    pub aborted: Option<RunAborted>,
}

/// Classify one finished application result — the one place crash
/// capture (messages, panic downcasts) happens, for campaign runs and
/// scanned bytes alike.
pub(crate) fn classify_run<A: FaultApp>(
    app: &A,
    golden: &A::Output,
    app_result: std::thread::Result<Result<A::Output, String>>,
) -> Classified<A::Output> {
    let crash = |crash_message, aborted| Classified {
        outcome: Outcome::Crash,
        output: None,
        crash_message: Some(crash_message),
        aborted,
    };
    match app_result {
        Ok(Ok(faulty)) => Classified {
            outcome: app.classify(golden, &faulty),
            output: Some(faulty),
            crash_message: None,
            aborted: None,
        },
        Ok(Err(msg)) => crash(msg, None),
        Err(panic) => {
            // Watchdog unwinds carry typed payloads; check them before
            // the generic message downcasts so an aborted run is
            // attributed to its trigger, not filed as an anonymous
            // panic.
            let aborted = panic
                .downcast_ref::<ffis_vfs::FuelExhausted>()
                .map(|fe| RunAborted::FuelExhausted { budget: fe.budget })
                .or_else(|| {
                    panic
                        .downcast_ref::<ffis_vfs::DeadlineExceeded>()
                        .map(|de| RunAborted::DeadlineExceeded { limit_ms: de.limit_ms })
                });
            let msg = aborted
                .map(|a| a.to_string())
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            crash(msg, aborted)
        }
    }
}

/// [`classify_run`], as the [`RunResult`] a campaign records.
fn finish_run<A: FaultApp>(
    app: &A,
    golden: &A::Output,
    run: usize,
    target_instance: u64,
    injection: Option<InjectionRecord>,
    mode: ExecutionMode,
    app_result: std::thread::Result<Result<A::Output, String>>,
) -> RunResult {
    let Classified { outcome, crash_message, aborted, .. } = classify_run(app, golden, app_result);
    RunResult { run, outcome, target_instance, injection, crash_message, mode, aborted }
}

/// One campaign's checkpoint set over the golden trace. With a
/// fork-offset demand the snapshots are placed against the campaign's
/// actual targets; without one they are log-spaced. Construction goes
/// through the shared store when one is configured: identical golden
/// traces (several fault models over one deterministic workload) then
/// share a single built set, demand-placed and log-spaced sets side by
/// side — the placement is part of the store's key. A trace that does
/// not replay cleanly cannot anchor injection runs
/// ([`ReplayFallback::ReplayCheck`]).
fn place_checkpoints(
    trace: &SharedTrace,
    store: Option<&CheckpointStore>,
    demand: Option<&[usize]>,
) -> Result<Arc<TraceCheckpoints>, ReplayFallback> {
    let trace = trace.clone();
    match (store, demand) {
        (Some(store), Some(d)) => store.get_or_build_for_demand(trace, d),
        (Some(store), None) => store.get_or_build(trace),
        (None, Some(d)) => TraceCheckpoints::build_for_demand(trace, d).map(Arc::new),
        (None, None) => TraceCheckpoints::build(trace).map(Arc::new),
    }
    .map_err(|_| ReplayFallback::ReplayCheck)
}

/// Where one run's filesystem state comes from, resolved from its
/// planned [`RunStrategy`] and its campaign's plan. The variant also
/// fixes how the run advances to its pre-analyze state.
pub(crate) enum Start<'p> {
    /// Fresh `MemFs`; the application's `produce` runs live — the
    /// full-rerun reference path.
    Fresh,
    /// Fork of the trace checkpoint preceding the target; the whole
    /// suffix replays through the mount. The only replay stage that
    /// runs under a liveness watchdog, the refuge when a batch
    /// declines or lacks the run's target, and every scanned byte's
    /// start.
    Checkpoint { plan: &'p ReplayPlan, point: &'p TraceCheckpoint },
    /// Batch mini-fork sitting exactly at the target op (engine law
    /// 9): only that op steps through the mount, the tail applies to
    /// the inner filesystem coalesced and is counted in `telemetry`.
    Batch { plan: &'p ReplayPlan, fork: &'p BatchFork, telemetry: &'p ReplayOptCounters },
    /// Fork of the golden post-produce filesystem with `counters`
    /// pre-seeded; nothing to advance — the golden state *is* the
    /// checkpoint.
    Golden { base: &'p MemFs, counters: CounterSnapshot },
}

/// A run's live half: the classified output plus the dirty
/// `(sub-step index, artifact)` pairs worth caching (empty for a
/// whole analyze).
pub(crate) type RunOutput<A> = Result<(<A as FaultApp>::Output, Vec<(usize, Vec<u8>)>), String>;

/// The sub-steps a write fault on `path` can perturb: exactly those
/// declaring the path as an input (the dirty cascade). A write op
/// without a path cannot be attributed; every sub-step is then dirty
/// (conservative, still exact).
fn dirty_substeps(specs: &[SubstepSpec], path: Option<&str>) -> Vec<usize> {
    match path {
        Some(p) => specs.iter().enumerate().filter(|(_, s)| s.reads(p)).map(|(i, _)| i).collect(),
        None => (0..specs.len()).collect(),
    }
}

/// The one run frame: every injection run of a campaign and every
/// byte of a metadata scan is this start → advance → analyze,
/// with `injector` attached to the mount, under one liveness /
/// `catch_unwind` / unmount bracket:
///
/// * **start** — fresh `MemFs` | checkpoint fork | batch mini-fork |
///   golden post-produce fork with pre-seeded counters ([`Start`]);
/// * **advance** — live `produce` | suffix replay through the mount |
///   armed target step + coalesced (memoized: path-filtered) tail |
///   nothing;
/// * **analyze** — whole [`FaultApp::analyze`], or (`memo` engaged,
///   engine law 8) only the dirty sub-steps live, assembled with the
///   golden artifacts of the clean ones.
///
/// The caller arms the injector to count from the eligible instances
/// that precede the start state; a checkpoint's mount has its counters
/// pre-seeded to match, so the armed crossing observes full-execution
/// `prim_seq`/`seq` numbering whichever start was taken. What comes
/// back goes to [`classify_run`].
pub(crate) fn run_frame<A: FaultApp>(
    app: &A,
    golden: &A::Output,
    start: &Start<'_>,
    injector: Arc<dyn Interceptor>,
    liveness: Liveness,
    memo: Option<(&SubstepMemo, &[usize])>,
) -> std::thread::Result<RunOutput<A>> {
    let (ffs, mut cursor) = match start {
        Start::Fresh => (FfisFs::mount(Arc::new(MemFs::new())), ReplayCursor::new()),
        Start::Checkpoint { point, .. } => point.mount_fork(),
        Start::Batch { fork, telemetry, .. } => {
            telemetry.batched_runs.fetch_add(1, Ordering::Relaxed);
            fork.point().mount_fork()
        }
        Start::Golden { base, counters } => {
            let ffs = FfisFs::mount(Arc::new(base.fork()));
            ffs.preseed_counters(counters);
            (ffs, ReplayCursor::new())
        }
    };
    liveness.arm(&ffs);
    ffs.attach(injector);
    let result = catch_unwind(AssertUnwindSafe(|| -> RunOutput<A> {
        match start {
            Start::Fresh => app.produce(&*ffs)?,
            Start::Golden { .. } => {}
            // The fault lands in the same instance, with the same
            // record numbering, it would during a real execution.
            Start::Checkpoint { plan, point } => {
                cursor.replay(&*ffs, plan.cache.suffix(point)).map_err(|e| e.to_string())?
            }
            Start::Batch { plan, fork, telemetry } => {
                let (ops, target_op) = (plan.cache.ops(), fork.point().index());
                cursor.step(&*ffs, &ops[target_op]).map_err(|e| e.to_string())?;
                // The fault has fired (or deliberately dropped its
                // write); nothing needs per-op visibility any more, so
                // the tail applies straight to the inner filesystem.
                // When only dirty sub-steps re-read the reconstructed
                // state, the tail filters down to the paths they
                // declare — the read-set contract the dirty cascade
                // itself rests on; for a multi-file app only the
                // injected file's ops replay.
                let stats = match memo {
                    Some((_, dirty)) => {
                        let kept: Vec<&PathSet> =
                            dirty.iter().map(|&i| &plan.tail_inputs[i]).collect();
                        cursor.replay_tail_filtered(
                            &**ffs.inner(),
                            plan.cache.trace(),
                            target_op + 1,
                            &kept,
                        )
                    }
                    None => cursor.replay_coalesced(&**ffs.inner(), &ops[target_op + 1..]),
                }
                .map_err(|e| e.to_string())?;
                telemetry
                    .coalesced_calls
                    .fetch_add(stats.coalesced_calls as u64, Ordering::Relaxed);
                telemetry.coalesced_ops.fetch_add(stats.coalesced_ops as u64, Ordering::Relaxed);
                telemetry.skipped_tail_ops.fetch_add(stats.skipped_ops as u64, Ordering::Relaxed);
                // Restore analyze-time counter numbering from the
                // recorded tail delta.
                ffs.preseed_counters(&fork.tail_counters());
            }
        }
        let Some((m, dirty)) = memo else {
            return Ok((app.analyze(&*ffs, Some(golden))?, Vec::new()));
        };
        let mut assembled: Vec<Vec<u8>> = Vec::with_capacity(m.laws.specs.len());
        let mut dirty_artifacts: Vec<(usize, Vec<u8>)> = Vec::with_capacity(dirty.len());
        for i in 0..m.laws.specs.len() {
            if dirty.contains(&i) {
                let art = app.analyze_substep(&*ffs, i, Some(golden))?;
                dirty_artifacts.push((i, art.clone()));
                assembled.push(art);
            } else {
                assembled.push(m.artifacts[i].as_ref().clone());
            }
        }
        Ok((app.assemble(&assembled, Some(golden))?, dirty_artifacts))
    }));
    ffs.unmount();
    result
}

impl<A: FaultApp> Campaign<'_, A> {
    /// Execute one injection run of the campaign and classify it: resolve
    /// the planned strategy to a [`Start`], arm the campaign's signature,
    /// and hand both to [`run_frame`]. One memo prologue/epilogue
    /// surrounds the frame: a run whose key is already in the store is
    /// classified without mounting anything, and every non-panicked
    /// memoized run is stored.
    fn execute_run(
        &self,
        plan: &CampaignPlan,
        golden: &A::Output,
        pr: &PlannedRun<InjectionSpec>,
        batch: Option<&BatchForks>,
        liveness: Liveness,
        telemetry: &ReplayOptCounters,
    ) -> RunResult {
        let (app, signature) = (self.app, &self.config.signature);
        let InjectionSpec { target_instance, seed } = pr.spec;
        let mode = pr.strategy.mode();
        // Start: where the state comes from, how many eligible instances
        // precede it, and — memo engaged — which sub-steps go dirty.
        let (start, already_seen, dirty) = match (pr.strategy, plan) {
            (RunStrategy::Replay { checkpoint, .. }, CampaignPlan::Replay(plan)) => {
                let target_op = plan.eligible_ops[(target_instance - 1) as usize];
                let dirty = plan.memo.as_deref().map(|m| {
                    (m, dirty_substeps(&m.laws.specs, plan.cache.ops()[target_op].write_path()))
                });
                match batch.and_then(|b| b.for_target(target_op)) {
                    // The mini-point sits exactly at the target op, so the
                    // eligible writes already "seen" are precisely the
                    // earlier instances.
                    Some(fork) => {
                        (Start::Batch { plan, fork, telemetry }, target_instance - 1, dirty)
                    }
                    None => {
                        let (start, seen) = plan.checkpoint_start(checkpoint);
                        (start, seen, dirty)
                    }
                }
            }
            (RunStrategy::AnalyzeOnly, CampaignPlan::AnalyzeOnly(plan)) => (
                Start::Golden { base: &plan.base, counters: plan.boundary },
                plan.produce_eligible,
                None,
            ),
            // A read fault never touches device state, so only the
            // sub-step whose eligible-read range holds the target is
            // dirty; it starts from its own start-of-sub-step counters.
            (
                RunStrategy::IncrementalAnalyze { .. },
                CampaignPlan::AnalyzeOnly(plan @ AnalyzeOnlyPlan { memo: Some(ia), .. }),
            ) => {
                let d = ia
                    .substep_for(target_instance - plan.produce_eligible)
                    .expect("IncrementalAnalyze is only planned for in-range instances");
                (
                    Start::Golden { base: &plan.base, counters: ia.memo.laws.counters[d] },
                    plan.produce_eligible + ia.eligible_ranges[d].0,
                    Some((&*ia.memo, vec![d])),
                )
            }
            // Reference path. (A fast strategy without its matching plan
            // cannot be planned — strategies derive from the plan.)
            _ => (Start::Fresh, 0, None),
        };

        // Memo prologue: account the dirty cascade, then serve the whole
        // run from the store when an identical one already ran.
        let memo = match dirty {
            Some((m, dirty)) => {
                m.store.note_hits((m.laws.specs.len() - dirty.len()) as u64);
                m.store.note_invalidations(dirty.len() as u64);
                let key = memo_run_key(m.laws.golden_key, signature, target_instance, seed);
                if let Some(entry) = m.store.get(&key).and_then(|bytes| decode_memo_run(&bytes)) {
                    return finish_memo_run(app, m, golden, pr.index, target_instance, mode, entry);
                }
                Some((m, dirty, key))
            }
            None => None,
        };

        let injector = Arc::new(ArmedInjector::resuming(
            signature.clone(),
            target_instance,
            seed,
            already_seen,
        ));
        let dirty = memo.as_ref().map(|(m, dirty, _)| (*m, dirty.as_slice()));
        let result = run_frame(app, golden, &start, injector.clone(), liveness, dirty);
        let injection = injector.record();
        // Memo epilogue. Panicked runs are never memoized — a warm store
        // re-executes them live.
        if let Some((m, _, key)) = &memo {
            match &result {
                Ok(Ok((_, arts))) => m.store.put(key, &encode_memo_run(&injection, Ok(arts))),
                Ok(Err(msg)) => m.store.put(key, &encode_memo_run(&injection, Err(msg))),
                Err(_) => {}
            }
        }
        let app_result = result.map(|live| live.map(|(out, _)| out));
        finish_run(app, golden, pr.index, target_instance, injection, mode, app_result)
    }
}

/// Classify a run served whole from the run-level memo store: rebuild
/// the artifact vector (clean golden artifacts with the cached dirty
/// ones swapped in), assemble, and classify — no filesystem is ever
/// mounted. Cached error messages reproduce the crash classification
/// the live run recorded.
fn finish_memo_run<A: FaultApp>(
    app: &A,
    memo: &SubstepMemo,
    golden: &A::Output,
    run: usize,
    target_instance: u64,
    mode: ExecutionMode,
    entry: MemoRunEntry,
) -> RunResult {
    let MemoRunEntry { injection, body } = entry;
    let app_result: Result<A::Output, String> = match body {
        Err(msg) => Err(msg),
        Ok(dirty_artifacts) => {
            let mut assembled: Vec<Vec<u8>> =
                memo.artifacts.iter().map(|a| a.as_ref().clone()).collect();
            let mut in_range = true;
            for (i, a) in dirty_artifacts {
                if i < assembled.len() {
                    assembled[i] = a;
                } else {
                    in_range = false;
                }
            }
            if in_range {
                app.assemble(&assembled, Some(golden))
            } else {
                Err("memoized run entry indexes out of range".to_string())
            }
        }
    };
    finish_run(app, golden, run, target_instance, injection, mode, Ok(app_result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;
    use ffis_vfs::{FileSystem, FileSystemExt};

    /// Toy workload: writes a 10-block data file plus a log, then
    /// "analyzes" by summing the data bytes. Classification mimics the
    /// paper's scheme: bitwise-equal file = benign; sum parity works
    /// as a stand-in detector.
    struct ToyApp;

    #[derive(Clone)]
    struct ToyOutput {
        file: Vec<u8>,
        checksum: u64,
    }

    const TOY_LEN: usize = 4096 * 10;

    impl FaultApp for ToyApp {
        type Output = ToyOutput;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            let data: Vec<u8> = (0..TOY_LEN).map(|i| (i % 255) as u8).collect();
            fs.write_file_chunked("/out.dat", &data, 4096).map_err(|e| e.to_string())?;
            fs.write_file("/run.log", b"ok\n").map_err(|e| e.to_string())
        }

        fn analyze(
            &self,
            fs: &dyn FileSystem,
            _golden: Option<&ToyOutput>,
        ) -> Result<ToyOutput, String> {
            let back = fs.read_to_vec("/out.dat").map_err(|e| e.to_string())?;
            if back.len() != TOY_LEN {
                return Err("short file".into());
            }
            let checksum = back.iter().map(|&b| b as u64).sum();
            Ok(ToyOutput { file: back, checksum })
        }

        fn classify(&self, golden: &ToyOutput, faulty: &ToyOutput) -> Outcome {
            if golden.file == faulty.file {
                Outcome::Benign
            } else if faulty.checksum.abs_diff(golden.checksum) > 1000 {
                Outcome::Detected
            } else {
                Outcome::Sdc
            }
        }

        fn name(&self) -> String {
            "TOY".into()
        }
    }

    #[test]
    fn bitflip_campaign_runs_and_classifies() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(50)
            .with_seed(1);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        assert_eq!(result.tally.total(), 50);
        assert_eq!(result.profile.eligible, 11); // 10 chunks + 1 log write
                                                 // Every run fired (profile count == run count space).
        assert_eq!(result.tally.no_fire, 0);
        // A 2-bit flip in /out.dat always changes the file...
        // unless it hit the log write (1 in 11 chance).
        assert!(result.tally.benign < 20);
        assert!(result.tally.sdc + result.tally.detected > 30);
    }

    #[test]
    fn dropped_write_campaign_mostly_detected() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::dropped_write()))
            .with_runs(110)
            .with_seed(2);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        // 9 of the 11 write instances are interior data chunks whose
        // loss moves the checksum past the detection threshold; the
        // last chunk shortens the file (crash) and the log write is
        // invisible to classification (benign).
        assert!(result.tally.detected >= 66, "{}", result.tally);
        assert!(result.tally.benign <= 22, "{}", result.tally);
        assert!(result.tally.crash <= 22, "{}", result.tally);
    }

    #[test]
    fn serial_equals_parallel() {
        let mk = |parallel| {
            let mut cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
                .with_runs(30)
                .with_seed(3);
            cfg.parallel = parallel;
            Campaign::new(&ToyApp, cfg).run().unwrap()
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a.tally, b.tally);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.target_instance, y.target_instance);
        }
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(20)
            .with_seed(9);
        let a = Campaign::new(&ToyApp, cfg.clone()).run().unwrap();
        let b = Campaign::new(&ToyApp, cfg).run().unwrap();
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn different_seeds_give_different_instance_choices() {
        let a = Campaign::new(
            &ToyApp,
            CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
                .with_runs(10)
                .with_seed(100),
        )
        .run()
        .unwrap();
        let b = Campaign::new(
            &ToyApp,
            CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
                .with_runs(10)
                .with_seed(200),
        )
        .run()
        .unwrap();
        let ia: Vec<_> = a.runs.iter().map(|r| r.target_instance).collect();
        let ib: Vec<_> = b.runs.iter().map(|r| r.target_instance).collect();
        assert_ne!(ia, ib);
    }

    #[test]
    fn instances_cover_space_uniformly() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(300)
            .with_seed(4);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in &result.runs {
            assert!(r.target_instance >= 1 && r.target_instance <= 11);
            seen.insert(r.target_instance);
        }
        assert_eq!(seen.len(), 11, "R4: all instances sampled");
    }

    struct CrashyApp;
    impl FaultApp for CrashyApp {
        type Output = ();
        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            fs.write_file("/x", &[7u8; 4096]).map_err(|e| e.to_string())
        }
        fn analyze(&self, fs: &dyn FileSystem, _golden: Option<&()>) -> Result<(), String> {
            let back = fs.read_to_vec("/x").map_err(|e| e.to_string())?;
            // Panics on corrupted data — exercises catch_unwind.
            assert!(back.iter().all(|&b| b == 7), "corrupted!");
            Ok(())
        }
        fn classify(&self, _g: &(), _f: &()) -> Outcome {
            Outcome::Benign
        }
        fn name(&self) -> String {
            "CRASHY".into()
        }
    }

    #[test]
    fn panics_count_as_crash() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(10)
            .with_seed(5);
        let result = Campaign::new(&CrashyApp, cfg).run().unwrap();
        assert_eq!(result.tally.crash, 10);
        assert!(result.runs[0].crash_message.as_deref().unwrap_or("").contains("corrupted"));
    }

    struct NoIoApp;
    impl FaultApp for NoIoApp {
        type Output = ();
        fn produce(&self, _fs: &dyn FileSystem) -> Result<(), String> {
            Ok(())
        }
        fn analyze(&self, _fs: &dyn FileSystem, _golden: Option<&()>) -> Result<(), String> {
            Ok(())
        }
        fn classify(&self, _g: &(), _f: &()) -> Outcome {
            Outcome::Benign
        }
        fn name(&self) -> String {
            "NOIO".into()
        }
    }

    #[test]
    fn no_eligible_instances_is_an_error() {
        let cfg =
            CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip())).with_runs(5);
        assert_eq!(
            Campaign::new(&NoIoApp, cfg).run().err(),
            Some(CampaignError::NoEligibleInstances)
        );
    }

    struct BrokenApp;
    impl FaultApp for BrokenApp {
        type Output = ();
        fn produce(&self, _fs: &dyn FileSystem) -> Result<(), String> {
            Err("always fails".into())
        }
        fn analyze(&self, _fs: &dyn FileSystem, _golden: Option<&()>) -> Result<(), String> {
            Ok(())
        }
        fn classify(&self, _g: &(), _f: &()) -> Outcome {
            Outcome::Benign
        }
        fn name(&self) -> String {
            "BROKEN".into()
        }
    }

    #[test]
    fn golden_failure_is_an_error() {
        let cfg =
            CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip())).with_runs(5);
        match Campaign::new(&BrokenApp, cfg).run() {
            Err(CampaignError::GoldenRunFailed(m)) => assert!(m.contains("always fails")),
            other => panic!("unexpected {:?}", other.map(|r| r.tally)),
        }
    }

    #[test]
    fn bad_signature_is_an_error() {
        let sig = FaultSignature::on_write(FaultModel::BitFlip { bits: 0 });
        let cfg = CampaignConfig::new(sig).with_runs(1);
        assert!(matches!(Campaign::new(&ToyApp, cfg).run(), Err(CampaignError::BadSignature(_))));
    }

    #[test]
    fn crash_breakdown_groups_messages() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(8)
            .with_seed(5);
        let result = Campaign::new(&CrashyApp, cfg).run().unwrap();
        let breakdown = result.crash_breakdown();
        assert_eq!(breakdown.len(), 1, "{:?}", breakdown);
        assert_eq!(breakdown[0].1, 8);
        assert!(breakdown[0].0.contains("corrupted"));
    }

    /// Minimal RFC 4180 parse of one row (enough for the tests).
    fn parse_csv_row(row: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut quoted = false;
        let mut chars = row.chars().peekable();
        while let Some(c) = chars.next() {
            match (quoted, c) {
                (true, '"') if chars.peek() == Some(&'"') => {
                    chars.next();
                    cur.push('"');
                }
                (true, '"') => quoted = false,
                (false, '"') => quoted = true,
                (false, ',') => fields.push(std::mem::take(&mut cur)),
                (_, c) => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn csv_row_escapes_labels_and_matches_header() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(10)
            .with_seed(5)
            .with_replay(true);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        let columns = CampaignResult::csv_header().split(',').count();

        // A label carrying the CSV delimiter must still parse to
        // exactly the header's column count, with the label intact.
        let row = result.csv_row("NYX,BF");
        let fields = parse_csv_row(&row);
        assert_eq!(fields.len(), columns, "{}", row);
        assert_eq!(fields[0], "NYX,BF");
        assert_eq!(fields[5], "10");
        assert_eq!(fields[6], "replay");

        // Embedded quotes are doubled per RFC 4180.
        let row = result.csv_row("say \"hi\", twice");
        assert!(row.starts_with("\"say \"\"hi\"\", twice\","), "{}", row);
        assert_eq!(parse_csv_row(&row)[0], "say \"hi\", twice");

        // Plain labels stay unquoted.
        assert!(result.csv_row("NYX").starts_with("NYX,"));
    }

    #[test]
    fn campaigns_default_to_replay_and_record_fallbacks() {
        if std::env::var_os("FFIS_REPLAY").is_none() {
            // The CI rerun job sets FFIS_REPLAY=0 to drive the whole
            // suite through the full-rerun path; absent that override,
            // replay is the default.
            let default_cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()));
            assert!(default_cfg.replay, "replay is the default execution mode");
        }
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(5)
            .with_seed(6)
            .with_replay(true);
        let fast = Campaign::new(&ToyApp, cfg.clone()).run().unwrap();
        assert_eq!(fast.mode, ExecutionMode::Replay);
        assert!(fast.used_replay());

        let slow = Campaign::new(&ToyApp, cfg.clone().with_replay(false)).run().unwrap();
        assert_eq!(slow.mode, ExecutionMode::FullRerun { reason: ReplayFallback::Disabled });
        assert!(!slow.used_replay());
        assert_eq!(slow.mode.to_string(), "rerun(disabled)");

        // Non-write primitives fall back with the recorded reason.
        let sig = FaultSignature {
            model: FaultModel::bit_flip(),
            primitive: Primitive::Mknod,
            target: crate::fault::TargetFilter::Any,
        };
        let nodes =
            Campaign::new(&MknodApp, CampaignConfig::new(sig).with_runs(3).with_replay(true))
                .run()
                .unwrap();
        assert_eq!(
            nodes.mode,
            ExecutionMode::FullRerun { reason: ReplayFallback::NonWritePrimitive }
        );
    }

    /// App whose analyze phase violates the read-only law by logging
    /// through the filesystem under test.
    struct ChattyAnalyzeApp;
    impl FaultApp for ChattyAnalyzeApp {
        type Output = Vec<u8>;
        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            fs.write_file_chunked("/d.bin", &[9u8; 8192], 4096).map_err(|e| e.to_string())
        }
        fn analyze(
            &self,
            fs: &dyn FileSystem,
            _golden: Option<&Vec<u8>>,
        ) -> Result<Vec<u8>, String> {
            fs.write_file("/analyze.log", b"analyzing\n").map_err(|e| e.to_string())?;
            fs.read_to_vec("/d.bin").map_err(|e| e.to_string())
        }
        fn classify(&self, g: &Vec<u8>, f: &Vec<u8>) -> Outcome {
            if g == f {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
        fn name(&self) -> String {
            "CHATTY".into()
        }
    }

    #[test]
    fn analyze_writes_disable_replay_with_reason() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(8)
            .with_seed(21)
            .with_replay(true);
        let result = Campaign::new(&ChattyAnalyzeApp, cfg).run().unwrap();
        assert_eq!(result.mode, ExecutionMode::FullRerun { reason: ReplayFallback::AnalyzeWrites });
        assert_eq!(result.tally.total(), 8);
    }

    struct MknodApp;
    impl FaultApp for MknodApp {
        type Output = ();
        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            fs.mknod("/a", ffis_vfs::NodeKind::Fifo, 0o644, 0).map_err(|e| e.to_string())?;
            fs.mknod("/b", ffis_vfs::NodeKind::Fifo, 0o644, 0).map_err(|e| e.to_string())
        }
        fn analyze(&self, _fs: &dyn FileSystem, _golden: Option<&()>) -> Result<(), String> {
            Ok(())
        }
        fn classify(&self, _g: &(), _f: &()) -> Outcome {
            Outcome::Benign
        }
        fn name(&self) -> String {
            "MKNOD".into()
        }
    }

    #[test]
    fn read_site_campaigns_take_the_analyze_only_fast_path() {
        let cfg = CampaignConfig::new(FaultSignature::on_read(FaultModel::bit_flip()))
            .with_runs(12)
            .with_seed(31)
            .with_replay(true);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        // ToyApp's produce issues no read-back, so every eligible read
        // is analyze-phase and the whole campaign skips produce.
        assert_eq!(result.mode, ExecutionMode::AnalyzeOnly);
        assert_eq!(result.mode.to_string(), "analyze-only");
        assert!(result.mode.is_fast_path() && !result.mode.is_replay());
        assert_eq!(result.tally.total(), 12);
        // ToyApp's analyze reads /out.dat back in one pread.
        assert_eq!(result.profile.eligible, 1);
        for r in &result.runs {
            assert_eq!(r.mode, result.mode, "per-run mode mirrors the campaign mode");
            let rec = r.injection.as_ref().expect("single-instance space always fires");
            assert_eq!(rec.primitive, Primitive::Read);
        }
        // A 2-bit flip in the returned data always perturbs the
        // checksum/file comparison: nothing is benign.
        assert_eq!(result.tally.benign, 0, "{}", result.tally);
    }

    #[test]
    fn analyze_only_equals_full_rerun_run_for_run() {
        let mk = |replay: bool| {
            Campaign::new(
                &ToyApp,
                CampaignConfig::new(FaultSignature::on_read(FaultModel::bit_flip()))
                    .with_runs(16)
                    .with_seed(41)
                    .with_replay(replay),
            )
            .run()
            .unwrap()
        };
        let fast = mk(true);
        let slow = mk(false);
        assert_eq!(fast.mode, ExecutionMode::AnalyzeOnly);
        assert_eq!(slow.mode, ExecutionMode::FullRerun { reason: ReplayFallback::Disabled });
        assert_eq!(fast.tally, slow.tally);
        for (f, s) in fast.runs.iter().zip(&slow.runs) {
            assert_eq!(f.outcome, s.outcome, "run {}", f.run);
            assert_eq!(f.target_instance, s.target_instance);
            assert_eq!(f.injection, s.injection, "run {}", f.run);
            assert_eq!(f.crash_message, s.crash_message, "run {}", f.run);
        }
    }

    /// Toy workload whose produce phase reads its own output back
    /// (without deriving any written byte from it — the
    /// data-independence law holds), so the eligible-read space
    /// straddles the phase seam: one produce-phase read, then
    /// analyze's reads.
    struct ProduceReaderApp;

    impl FaultApp for ProduceReaderApp {
        type Output = Vec<u8>;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            fs.write_file_chunked("/a.bin", &[7u8; 4096], 4096).map_err(|e| e.to_string())?;
            // Best-effort verification read; the workload tolerates a
            // corrupted read-back and writes fixed bytes regardless.
            let _ = fs.read_to_vec("/a.bin");
            fs.write_file("/b.bin", &[9u8; 64]).map_err(|e| e.to_string())
        }

        fn analyze(&self, fs: &dyn FileSystem, _g: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
            let mut out = fs.read_to_vec("/a.bin").map_err(|e| e.to_string())?;
            out.extend(fs.read_to_vec("/b.bin").map_err(|e| e.to_string())?);
            Ok(out)
        }

        fn classify(&self, g: &Vec<u8>, f: &Vec<u8>) -> Outcome {
            if g == f {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }

        fn produce_read_count(&self) -> Option<u64> {
            Some(1)
        }

        fn name(&self) -> String {
            "PRODREAD".into()
        }
    }

    #[test]
    fn phase_straddling_read_campaign_splits_per_run() {
        let cfg = CampaignConfig::new(FaultSignature::on_read(FaultModel::bit_flip()))
            .with_runs(30)
            .with_seed(51)
            .with_replay(true);
        let result = Campaign::new(&ProduceReaderApp, cfg.clone()).run().unwrap();
        // 1 produce-phase read + 2 analyze-phase reads.
        assert_eq!(result.profile.eligible, 3);
        assert_eq!(result.mode, ExecutionMode::PhaseSplit);
        assert_eq!(result.mode.to_string(), "split(analyze-only|rerun(produce-read-fault))");
        let mut saw = (false, false);
        for r in &result.runs {
            match r.target_instance {
                1 => {
                    assert_eq!(
                        r.mode,
                        ExecutionMode::FullRerun { reason: ReplayFallback::ProduceReadFault },
                        "produce-phase target must rerun (run {})",
                        r.run
                    );
                    saw.0 = true;
                }
                _ => {
                    assert_eq!(r.mode, ExecutionMode::AnalyzeOnly, "run {}", r.run);
                    saw.1 = true;
                }
            }
        }
        assert!(saw.0 && saw.1, "30 runs over 3 instances hit both phases");

        // Both strategies agree with the all-rerun reference run for
        // run: tallies, records, messages.
        let slow = Campaign::new(&ProduceReaderApp, cfg.with_replay(false)).run().unwrap();
        assert_eq!(result.tally, slow.tally);
        for (f, s) in result.runs.iter().zip(&slow.runs) {
            assert_eq!(f.outcome, s.outcome, "run {}", f.run);
            assert_eq!(f.injection, s.injection, "run {}", f.run);
            assert_eq!(f.crash_message, s.crash_message, "run {}", f.run);
        }
    }

    /// App that *lies* about its phase-boundary read count: the
    /// declaration cross-check must disable the fast path with the
    /// recorded reason rather than trust it.
    struct WrongDeclarationApp;

    impl FaultApp for WrongDeclarationApp {
        type Output = Vec<u8>;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            fs.write_file("/d.bin", &[3u8; 512]).map_err(|e| e.to_string())
        }

        fn analyze(&self, fs: &dyn FileSystem, _g: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
            fs.read_to_vec("/d.bin").map_err(|e| e.to_string())
        }

        fn classify(&self, g: &Vec<u8>, f: &Vec<u8>) -> Outcome {
            if g == f {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }

        fn produce_read_count(&self) -> Option<u64> {
            Some(5) // produce actually issues zero reads
        }

        fn name(&self) -> String {
            "LIAR".into()
        }
    }

    #[test]
    fn wrong_declared_boundary_count_disables_the_fast_path() {
        let cfg = CampaignConfig::new(FaultSignature::on_read(FaultModel::bit_flip()))
            .with_runs(4)
            .with_seed(61)
            .with_replay(true);
        let result = Campaign::new(&WrongDeclarationApp, cfg).run().unwrap();
        assert_eq!(result.mode, ExecutionMode::FullRerun { reason: ReplayFallback::TraceMismatch });
        assert_eq!(result.tally.total(), 4);
    }

    #[test]
    fn read_site_analyze_writes_disable_the_fast_path_with_reason() {
        let cfg = CampaignConfig::new(FaultSignature::on_read(FaultModel::bit_flip()))
            .with_runs(6)
            .with_seed(62)
            .with_replay(true);
        let result = Campaign::new(&ChattyAnalyzeApp, cfg).run().unwrap();
        assert_eq!(result.mode, ExecutionMode::FullRerun { reason: ReplayFallback::AnalyzeWrites });
        assert_eq!(result.tally.total(), 6);
    }

    #[test]
    fn dropped_read_leaves_stale_zeroed_buffer() {
        // ToyApp reads into a zeroed buffer; DROPPED READ hands that
        // stale buffer back with full success, so analyze sees an
        // all-zero file of the right length -> the checksum detector
        // fires on every run.
        let cfg = CampaignConfig::new(FaultSignature::on_read(FaultModel::dropped_write()))
            .with_runs(6)
            .with_seed(33);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        assert_eq!(result.tally.detected, 6, "{}", result.tally);
        for r in &result.runs {
            let rec = r.injection.as_ref().unwrap();
            assert!(rec.detail.contains("dropped read"), "{}", rec.detail);
        }
    }

    #[test]
    fn single_signature_runs_carry_campaign_mode() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(5)
            .with_seed(34)
            .with_replay(true);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        assert_eq!(result.mode, ExecutionMode::Replay);
        assert!(result.runs.iter().all(|r| r.mode == ExecutionMode::Replay));
    }

    /// Known answers: the plan fingerprints a write-site and a
    /// read-site campaign bind into their journal headers, as earlier
    /// versions computed them (shard count `1` and per-run shard `0`
    /// folded in). A drift here breaks resume across versions.
    #[test]
    fn plan_fingerprints_are_stable_across_versions() {
        for (sig, mode, fingerprint) in [
            (FaultSignature::on_write(FaultModel::bit_flip()), "replay", 0xFD3A_C764_79AF_6EA1),
            (
                FaultSignature::on_read(FaultModel::bit_flip()),
                "analyze-only",
                0xB809_3FD6_3D91_38C8,
            ),
        ] {
            let cfg =
                CampaignConfig::new(sig).with_runs(16).with_seed(0x0F1A_9E27).with_replay(true);
            let result = Campaign::new(&ToyApp, cfg).run().unwrap();
            assert_eq!(result.mode.to_string(), mode);
            assert_eq!(
                result.plan_fingerprint, fingerprint,
                "{mode}: {:#X}",
                result.plan_fingerprint
            );
        }
    }

    #[test]
    fn runs_with_filters_by_outcome() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::dropped_write()))
            .with_runs(20)
            .with_seed(6);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        let detected: Vec<_> = result.runs_with(Outcome::Detected).collect();
        assert_eq!(detected.len() as u64, result.tally.detected);
        for r in detected {
            assert_eq!(r.outcome, Outcome::Detected);
        }
    }

    fn tmp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ffis-campaign-journal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.journal")
    }

    /// An application whose analyze phase wedges in an unbounded I/O
    /// loop whenever the data it reads back is corrupted — the paper's
    /// "corrupted metadata steers the application into a hang" failure
    /// mode, reduced to its essence.
    struct LoopyApp;

    impl FaultApp for LoopyApp {
        type Output = Vec<u8>;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            fs.write_file("/data", &[7u8; 4096]).map_err(|e| e.to_string())
        }

        fn analyze(&self, fs: &dyn FileSystem, _g: Option<&Vec<u8>>) -> Result<Vec<u8>, String> {
            let back = fs.read_to_vec("/data").map_err(|e| e.to_string())?;
            while back.iter().any(|&b| b != 7) {
                // Corrupted state: poll the file forever, like an
                // application spinning on a consistency marker that
                // will never appear.
                let _ = fs.read_to_vec("/data");
            }
            Ok(back)
        }

        fn classify(&self, golden: &Vec<u8>, faulty: &Vec<u8>) -> Outcome {
            if golden == faulty {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }

        fn name(&self) -> String {
            "LOOPY".into()
        }
    }

    #[test]
    fn fuel_exhaustion_aborts_wedged_runs_into_crash() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(4)
            .with_seed(11)
            .with_fuel(10_000);
        let result = Campaign::new(&LoopyApp, cfg).run().unwrap();
        assert_eq!(result.tally.crash, 4, "{}", result.tally);
        for r in &result.runs {
            assert_eq!(r.aborted, Some(RunAborted::FuelExhausted { budget: 10_000 }));
            assert!(
                r.crash_message.as_deref().unwrap().contains("fuel exhausted"),
                "{:?}",
                r.crash_message
            );
        }
        // Fuel exhaustion is deterministic: the same config reproduces
        // the same aborts.
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(4)
            .with_seed(11)
            .with_fuel(10_000);
        let again = Campaign::new(&LoopyApp, cfg).run().unwrap();
        assert_eq!(result.runs, again.runs);
    }

    #[test]
    fn fuel_budget_is_invisible_to_healthy_runs() {
        let base = || {
            CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
                .with_runs(20)
                .with_seed(12)
        };
        let plain = Campaign::new(&ToyApp, base()).run().unwrap();
        let fueled = Campaign::new(&ToyApp, base().with_fuel(1_000_000)).run().unwrap();
        assert_eq!(plain.runs, fueled.runs);
        assert_eq!(plain.tally, fueled.tally);
    }

    #[test]
    fn wall_clock_backstop_aborts_with_deadline_reason() {
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(2)
            .with_seed(13)
            .with_wall_limit(Duration::ZERO);
        let result = Campaign::new(&ToyApp, cfg).run().unwrap();
        // A zero deadline trips at the first primitive crossing of
        // every injection run.
        assert_eq!(result.tally.crash, 2);
        for r in &result.runs {
            assert_eq!(r.aborted, Some(RunAborted::DeadlineExceeded { limit_ms: 0 }));
        }
    }

    #[test]
    fn run_result_payload_codec_roundtrips() {
        let samples = vec![
            RunResult {
                run: 3,
                outcome: Outcome::Sdc,
                target_instance: 7,
                injection: Some(InjectionRecord {
                    primitive: Primitive::Write,
                    instance: 7,
                    prim_seq: 21,
                    path: Some("/out.dat".into()),
                    offset: Some(8192),
                    len: 4096,
                    detail: "flip bits 3,4".into(),
                }),
                crash_message: None,
                mode: ExecutionMode::Replay,
                aborted: None,
            },
            RunResult {
                run: 0,
                outcome: Outcome::Benign,
                target_instance: 1,
                injection: None,
                crash_message: None,
                mode: ExecutionMode::FullRerun { reason: ReplayFallback::ProduceReadFault },
                aborted: None,
            },
            RunResult {
                run: 9,
                outcome: Outcome::Crash,
                target_instance: 2,
                injection: Some(InjectionRecord {
                    primitive: Primitive::Read,
                    instance: 2,
                    prim_seq: 5,
                    path: None,
                    offset: None,
                    len: 0,
                    detail: "dropped read".into(),
                }),
                crash_message: Some("aborted: I/O fuel exhausted (budget 500 ops)".into()),
                mode: ExecutionMode::AnalyzeOnly,
                aborted: Some(RunAborted::FuelExhausted { budget: 500 }),
            },
        ];
        for r in samples {
            let entry = JournalEntry {
                index: r.run,
                outcome: r.outcome,
                fired: r.injection.is_some(),
                payload: r.encode(),
            };
            assert_eq!(RunResult::decode(&entry).as_ref(), Some(&r));
        }
        // fired must agree with the injection record.
        let benign = RunResult {
            run: 0,
            outcome: Outcome::Benign,
            target_instance: 1,
            injection: None,
            crash_message: None,
            mode: ExecutionMode::Replay,
            aborted: None,
        };
        let lying = JournalEntry {
            index: 0,
            outcome: Outcome::Benign,
            fired: true,
            payload: benign.encode(),
        };
        assert_eq!(RunResult::decode(&lying), None);
    }

    #[test]
    fn interrupted_campaign_resumes_byte_identically() {
        let path = tmp_journal("single-resume");
        let base = || {
            let mut cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
                .with_runs(30)
                .with_seed(14);
            cfg.parallel = false;
            cfg
        };
        let control = Campaign::new(&ToyApp, base()).run().unwrap();
        assert_eq!(control.status, CompletionStatus::Complete);
        assert_eq!(control.executed, 30);
        assert_eq!(control.resumed, 0);

        // Interrupt after 9 runs. `resume` on a missing journal file
        // starts fresh, so the flag is safe to pass unconditionally.
        let cancel = CancelToken::after_runs(9);
        let cfg = base().with_journal(&path).with_resume(true).with_cancel(cancel);
        let interrupted = Campaign::new(&ToyApp, cfg).run().unwrap();
        assert_eq!(interrupted.status, CompletionStatus::Interrupted);
        assert_eq!(interrupted.executed, 9);
        assert_eq!(interrupted.tally.total(), 9, "partial tallies cover completed runs only");

        // Resume: journaled runs replay at cost 0, the rest execute.
        let cfg = base().with_journal(&path).with_resume(true);
        let resumed = Campaign::new(&ToyApp, cfg).run().unwrap();
        assert_eq!(resumed.status, CompletionStatus::Complete);
        assert_eq!(resumed.resumed, 9, "journaled runs are not re-executed");
        assert_eq!(resumed.executed, 21);
        assert_eq!(resumed.plan_fingerprint, control.plan_fingerprint);
        assert_eq!(resumed.tally, control.tally);
        assert_eq!(resumed.runs, control.runs, "resume law: byte-identical records");
        assert_eq!(resumed.run_digest(), control.run_digest());
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_plan() {
        let path = tmp_journal("plan-mismatch");
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(5)
            .with_seed(15)
            .with_journal(&path);
        Campaign::new(&ToyApp, cfg).run().unwrap();

        // Same journal, different seed → different plan fingerprint.
        let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
            .with_runs(5)
            .with_seed(16)
            .with_journal(&path)
            .with_resume(true);
        let err = Campaign::new(&ToyApp, cfg).run().unwrap_err();
        assert!(matches!(err, CampaignError::Journal(JournalError::PlanMismatch { .. })), "{err}");
        assert!(err.to_string().contains("does not match this campaign"), "{err}");
    }

    #[test]
    fn completed_campaign_resumes_without_reexecuting_anything() {
        let path = tmp_journal("noop-resume");
        let base = || {
            CampaignConfig::new(FaultSignature::on_write(FaultModel::dropped_write()))
                .with_runs(12)
                .with_seed(17)
                .with_journal(&path)
                .with_resume(true)
        };
        let first = Campaign::new(&ToyApp, base()).run().unwrap();
        assert_eq!(first.executed, 12);
        let second = Campaign::new(&ToyApp, base()).run().unwrap();
        assert_eq!(second.executed, 0, "fully journaled campaign re-executes nothing");
        assert_eq!(second.resumed, 12);
        assert_eq!(second.runs, first.runs);
        assert_eq!(second.run_digest(), first.run_digest());
    }

    /// Two data files, one analyze sub-step each.
    struct TwoFileApp;

    const TWO_FILES: [&str; 2] = ["/a.dat", "/b.dat"];

    impl FaultApp for TwoFileApp {
        type Output = Vec<Vec<u8>>;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            for (i, path) in TWO_FILES.iter().enumerate() {
                let data: Vec<u8> = (0..4096 * 3).map(|b| (b % 251) as u8 + i as u8).collect();
                fs.write_file_chunked(path, &data, 4096).map_err(|e| e.to_string())?;
            }
            Ok(())
        }

        fn analyze(
            &self,
            fs: &dyn FileSystem,
            golden: Option<&Vec<Vec<u8>>>,
        ) -> Result<Vec<Vec<u8>>, String> {
            (0..2).map(|i| self.analyze_substep(fs, i, golden)).collect()
        }

        fn analyze_substeps(&self) -> Option<Vec<SubstepSpec>> {
            Some(TWO_FILES.iter().map(|p| SubstepSpec::new(*p, vec![p.to_string()])).collect())
        }

        fn analyze_substep(
            &self,
            fs: &dyn FileSystem,
            index: usize,
            _golden: Option<&Vec<Vec<u8>>>,
        ) -> Result<Vec<u8>, String> {
            fs.read_to_vec(TWO_FILES[index]).map_err(|e| e.to_string())
        }

        fn assemble(
            &self,
            artifacts: &[Vec<u8>],
            _golden: Option<&Vec<Vec<u8>>>,
        ) -> Result<Vec<Vec<u8>>, String> {
            Ok(artifacts.to_vec())
        }

        fn classify(&self, golden: &Vec<Vec<u8>>, faulty: &Vec<Vec<u8>>) -> Outcome {
            if golden == faulty {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }

        fn name(&self) -> String {
            "TWO".into()
        }
    }

    /// The golden run a cache holds.
    fn kept_golden(cache: &GoldenCache<Vec<Vec<u8>>>) -> Arc<Golden<Vec<Vec<u8>>>> {
        cache.get_or_run(|| unreachable!("the campaign ran it")).unwrap()
    }

    #[test]
    fn the_path_index_is_built_by_memoized_write_campaigns_alone_and_once_per_trace() {
        let cfg = |site: fn(FaultModel) -> FaultSignature, memo: bool, seed: u64| {
            CampaignConfig::new(site(FaultModel::bit_flip()))
                .with_runs(12)
                .with_seed(seed)
                .with_replay(true)
                .with_replay_opt(true)
                .with_memo(memo)
        };
        let run = |cache: &GoldenCache<Vec<Vec<u8>>>, cfg: CampaignConfig| {
            Campaign::new(&TwoFileApp, cfg).with_goldens(cache).run().unwrap()
        };

        // Without `memo` the tail is not filtered: nothing asks.
        let plain = GoldenCache::new();
        let result = run(&plain, cfg(FaultSignature::on_write, false, 1));
        assert!(result.mode.is_fast_path() && !result.memo.engaged);
        assert!(!kept_golden(&plain).trace.path_index_built());

        // A memoized read-site campaign replays no tail either.
        let cache = GoldenCache::new();
        let result = run(&cache, cfg(FaultSignature::on_read, true, 2));
        assert!(result.memo.engaged);
        let golden = kept_golden(&cache);
        assert!(!golden.trace.path_index_built());

        // A memoized write-site campaign builds it, while planning;
        // the next one over the same golden run finds it there.
        let result = run(&cache, cfg(FaultSignature::on_write, true, 3));
        assert!(result.memo.engaged && result.replay_opt.skipped_tail_ops > 0);
        assert!(golden.trace.path_index_built());
        let first: *const ffis_vfs::PathIndex = golden.trace.path_index();
        let again = run(&cache, cfg(FaultSignature::on_write, true, 4));
        assert!(again.replay_opt.skipped_tail_ops > 0);
        assert_eq!(cache.runs(), 1);
        assert!(std::ptr::eq(first, kept_golden(&cache).trace.path_index()));
    }
}
