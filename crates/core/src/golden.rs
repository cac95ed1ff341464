//! The golden run and what a campaign decides from it alone.
//!
//! Everything here is a function of the application and of *what the
//! golden run captured* — never of a campaign's seed, run count or
//! fault signatures. [`Golden`] is that value: the fault-free
//! profile, the reference output, the post-run filesystem, the
//! replayable op trace, the read ledger, the counters at the
//! produce/analyze seam, and the verdicts of the campaign-wide laws
//! that gate the fast paths (the replay laws, the analyze-only laws,
//! the sub-step laws of engine law 8). The artefacts are fixed when
//! the run returns; each verdict is decided the first time a campaign
//! asks for it and never again.
//!
//! [`Campaign::run`](crate::Campaign::run) obtains its `Golden`
//! through one function, [`Golden::run`]. A [`GoldenCache`] handed to
//! the campaign only memoizes that call, per [`Capture`] set, so a
//! service draining many small jobs over one application pays the
//! golden run and every law check once per queue instead of once per
//! job — while each job still draws, plans, places its checkpoints
//! and checks its per-signature eligible counts itself. Nothing here
//! is written to disk: a verdict lives as long as the cache that holds
//! it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ffis_vfs::frame::SingleFlight;
use ffis_vfs::{
    CounterSnapshot, FfisFs, Fnv, Interceptor, MemFs, Primitive, ReadLedger, ReadRecord,
    ReplayCursor, SharedTrace, TraceRecorder,
};

use crate::campaign::{CampaignError, MemoFallback, ReplayFallback};
use crate::fault::TargetFilter;
use crate::outcome::{FaultApp, Outcome, SubstepSpec};
use crate::profiler::{IoProfiler, ProfileReport};

/// Does the app's [`FaultApp::analyze`] phase, run against `fs`,
/// reproduce the golden classification? `false` when analyze errors
/// or classifies anything but [`Outcome::Benign`]. The one predicate
/// behind the golden-identity probes and the uninjected self-checks of
/// the replay and analyze-only laws below — the laws every campaign
/// shard and every metadata scan is gated by.
fn analyze_matches_golden<A: FaultApp + ?Sized>(
    app: &A,
    fs: &dyn ffis_vfs::FileSystem,
    golden: &A::Output,
) -> bool {
    matches!(
        app.analyze(fs, Some(golden)),
        Ok(out) if app.classify(golden, &out) == Outcome::Benign
    )
}

/// What a golden run records beyond the profile — the only thing a
/// campaign's configuration contributes to its [`Golden`]. Attaching
/// either recorder never perturbs counters or the run itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Capture {
    /// The replayable op trace, with a watermark between the two
    /// phases: write shards replay it, read shards need it for the
    /// read-only-analyze law.
    pub trace: bool,
    /// The read ledger and the phase-boundary counter snapshot:
    /// read shards plan against it, and the sub-step laws compare
    /// against its analyze-phase stream even for write shards.
    pub ledger: bool,
}

/// One fault-free execution of an application and the campaign-wide
/// verdicts drawn from it (see the module docs).
pub(crate) struct Golden<O> {
    /// The fault-free profile. Its `eligible` count is left at zero:
    /// eligibility is per signature, counted by each campaign from
    /// `profile.trace`.
    pub profile: ProfileReport,
    /// The reference output every run is classified against.
    pub output: O,
    /// The filesystem the run left behind.
    pub base: Arc<MemFs>,
    /// The mutating op stream (empty unless [`Capture::trace`]).
    pub trace: SharedTrace,
    /// Counters at the produce/analyze boundary.
    pub boundary: CounterSnapshot,
    /// How many ops of `trace` the produce phase recorded.
    produced_ops: usize,
    /// Every read of the run (empty unless [`Capture::ledger`]) …
    pub reads: Vec<ReadRecord>,
    /// … of which this many were issued by the produce phase.
    pub produce_reads: usize,
    replay_laws: OnceLock<Result<(), ReplayFallback>>,
    analyze_only_laws: OnceLock<Result<(), ReplayFallback>>,
    substep_laws: OnceLock<Result<Arc<SubstepLaws>, MemoFallback>>,
}

/// The validated golden basis of the analyze memoization layer: the
/// declared sub-steps, their golden artifacts with the memo keys they
/// are published under, each sub-step's golden analyze-phase read
/// range and start-of-sub-step counter snapshot, and the golden memo
/// key (an FNV-1a digest over every sub-step's input fingerprint
/// stream — two campaigns over byte-identical inputs share run-level
/// memo entries through it).
pub(crate) struct SubstepLaws {
    pub specs: Vec<SubstepSpec>,
    pub artifacts: Vec<Vec<u8>>,
    /// Memo key material of each golden artifact: app, sub-step name
    /// and the sub-step's input fingerprint stream.
    pub keys: Vec<Vec<u8>>,
    /// Half-open index ranges into the golden *analyze-phase* read
    /// stream, one per sub-step, covering it exactly.
    pub read_ranges: Vec<(usize, usize)>,
    /// Absolute counter snapshot at each sub-step's start (produce
    /// phase plus all earlier sub-steps) — pre-seeded onto
    /// incremental-analyze mounts so the armed crossing observes
    /// full-execution `prim_seq`/`seq` numbering.
    pub counters: Vec<CounterSnapshot>,
    pub golden_key: u64,
}

impl<O> Golden<O> {
    /// Phase 1+2 of the paper's workflow: one fault-free run doubles
    /// as the profiling run — it counts primitives and captures the
    /// reference output — and records whatever `capture` asks for on
    /// the way. The golden run is never fueled: it must finish for a
    /// campaign to exist at all.
    pub fn run<A: FaultApp<Output = O>>(app: &A, capture: Capture) -> Result<Self, CampaignError> {
        let recorder = Arc::new(TraceRecorder::new());
        let ledger = Arc::new(ReadLedger::new());
        let mut extras: Vec<Arc<dyn Interceptor>> = Vec::new();
        if capture.trace {
            extras.push(recorder.clone());
        }
        if capture.ledger {
            extras.push(ledger.clone());
        }
        let produced_ops = std::cell::Cell::new(0usize);
        let boundary = std::cell::Cell::new(CounterSnapshot::default());
        let (mut profile, output, base) = IoProfiler::new(Primitive::Write, TargetFilter::Any)
            .profile_with_mount(&extras, |ffs| {
                app.produce(ffs)?;
                produced_ops.set(recorder.len());
                ledger.mark_produce_end();
                boundary.set(ffs.counters());
                app.analyze(ffs, None)
            })
            .map_err(CampaignError::GoldenRunFailed)?;
        // The profiler's scope above is a placeholder: eligibility is
        // per signature and each campaign counts its own.
        profile.eligible = 0;
        Ok(Golden {
            profile,
            output,
            base,
            trace: recorder.take_ops().into(),
            boundary: boundary.get(),
            produced_ops: produced_ops.get(),
            produce_reads: ledger.produce_reads(),
            reads: ledger.records(),
            replay_laws: OnceLock::new(),
            analyze_only_laws: OnceLock::new(),
            substep_laws: OnceLock::new(),
        })
    }

    /// Keep the reference output alone, freeing the trace and the
    /// golden filesystem.
    pub fn into_output(self) -> O {
        self.output
    }

    /// The reads the analyze phase issued.
    pub fn analyze_reads(&self) -> &[ReadRecord] {
        &self.reads[self.produce_reads..]
    }

    /// Ops recorded after the produce watermark violate the
    /// read-only-analyze law — except state-neutral bookkeeping
    /// (release/fsync/lock/unlock of analyze's own read-only
    /// descriptors, which the recorder logs but a replay skips).
    fn analyze_mutates(&self) -> bool {
        self.trace[self.produced_ops.min(self.trace.len())..]
            .iter()
            .any(|op| op.bookkeeping_fd().is_none())
    }

    /// The campaign-wide **replay laws**, shared by every write-site
    /// shard of every campaign over this golden run. The
    /// [`ReplayFallback`] reason — never silent — when one fails:
    ///
    /// * the analyze phase must not have written during the golden run
    ///   (the recorded op stream would double-apply those writes);
    /// * the trace must record exactly as many writes as the mount's
    ///   Write counter attempted — a failed write attempt (counted when
    ///   attempted, recorded only on success) would shift replayed
    ///   `prim_seq` numbering off a real rerun's;
    /// * analyze must satisfy the golden-identity law on the captured
    ///   snapshot;
    /// * an uninjected replay of the whole trace from an empty
    ///   filesystem must rebuild state that analyzes benign (the
    ///   fidelity self-check).
    ///
    /// Per-signature eligible-write numbering is validated by each
    /// campaign, per shard, against its target filter.
    pub fn replay_laws<A: FaultApp<Output = O>>(&self, app: &A) -> Result<(), ReplayFallback> {
        *self.replay_laws.get_or_init(|| {
            if self.analyze_mutates() {
                return Err(ReplayFallback::AnalyzeWrites);
            }
            let attempted = self.profile.counters.get(Primitive::Write);
            if self.trace.iter().filter(|op| op.is_write()).count() as u64 != attempted {
                return Err(ReplayFallback::TraceMismatch);
            }
            if !analyze_matches_golden(app, &*self.base, &self.output) {
                return Err(ReplayFallback::GoldenIdentity);
            }
            let ffs = FfisFs::mount(Arc::new(MemFs::new()));
            if ReplayCursor::new().replay(&*ffs, &self.trace).is_err()
                || !analyze_matches_golden(app, &*ffs, &self.output)
            {
                return Err(ReplayFallback::ReplayCheck);
            }
            Ok(())
        })
    }

    /// The campaign-wide **analyze-only laws**, shared by every
    /// read-site shard. The [`ReplayFallback`] reason — never silent —
    /// when one fails:
    ///
    /// * the analyze phase must not have mutated the filesystem during
    ///   the golden run (same predicate as the replay gate) —
    ///   otherwise the golden final state is not the post-produce
    ///   state and forking it would double-apply analyze's writes;
    /// * the application's declared phase-boundary read count
    ///   ([`FaultApp::produce_read_count`]), when present, must match
    ///   the ledger's measured produce-phase count;
    /// * the ledger must have seen every `FFIS_read` the mount counted
    ///   (a divergence means the golden read stream is not the one the
    ///   planner is slicing);
    /// * re-executing analyze on a pre-seeded fork of the golden state
    ///   — uninjected — must classify benign (golden identity) *and*
    ///   re-issue the exact golden analyze-phase read stream: same
    ///   `prim_seq`/`seq` numbering, same addressing, same returned
    ///   lengths, same content fingerprints. This is the analyze-only
    ///   analogue of the uninjected-replay self-check.
    pub fn analyze_only_laws<A: FaultApp<Output = O>>(
        &self,
        app: &A,
    ) -> Result<(), ReplayFallback> {
        *self.analyze_only_laws.get_or_init(|| {
            if self.analyze_mutates() {
                return Err(ReplayFallback::AnalyzeWrites);
            }
            if app.produce_read_count().is_some_and(|n| n != self.produce_reads as u64) {
                return Err(ReplayFallback::TraceMismatch);
            }
            if self.reads.len() as u64 != self.profile.counters.get(Primitive::Read) {
                return Err(ReplayFallback::TraceMismatch);
            }
            let ffs = FfisFs::mount(Arc::new(self.base.fork()));
            ffs.preseed_counters(&self.boundary);
            let check = Arc::new(ReadLedger::new());
            ffs.attach(check.clone());
            let ok = analyze_matches_golden(app, &*ffs, &self.output);
            ffs.unmount();
            if !ok {
                return Err(ReplayFallback::GoldenIdentity);
            }
            if check.records() != self.analyze_reads() {
                return Err(ReplayFallback::ReplayCheck);
            }
            Ok(())
        })
    }

    /// The **sub-step laws** (the engine law 8 gate) for the sub-steps
    /// `specs` the application declares. The [`MemoFallback`] reason —
    /// never silent — when one fails:
    ///
    /// * the ledger must have seen every read the mount counted (it
    ///   anchors the stream-identity law);
    /// * **input soundness** — every read a sub-step issues on the
    ///   golden state must target a path in its declared input set
    ///   (else dirty-cascade reachability would be unsound);
    /// * **stream identity** — the concatenated sub-step read streams
    ///   must equal the golden whole-analyze read stream exactly (same
    ///   `prim_seq`/`seq` numbering, addressing, returned lengths, and
    ///   content fingerprints), so per-run injector instance numbering
    ///   cannot diverge;
    /// * **assembly identity** — assembling the golden artifacts must
    ///   classify [`Outcome::Benign`].
    pub fn substep_laws<A: FaultApp<Output = O>>(
        &self,
        app: &A,
        specs: Vec<SubstepSpec>,
    ) -> Result<Arc<SubstepLaws>, MemoFallback> {
        self.substep_laws.get_or_init(|| self.check_substeps(app, specs)).clone()
    }

    fn check_substeps<A: FaultApp<Output = O>>(
        &self,
        app: &A,
        specs: Vec<SubstepSpec>,
    ) -> Result<Arc<SubstepLaws>, MemoFallback> {
        if self.reads.len() as u64 != self.profile.counters.get(Primitive::Read) {
            return Err(MemoFallback::SubstepStream);
        }
        if specs.is_empty() {
            return Err(MemoFallback::NoSubsteps);
        }
        let ffs = FfisFs::mount(Arc::new(self.base.fork()));
        ffs.preseed_counters(&self.boundary);
        let check = Arc::new(ReadLedger::new());
        ffs.attach(check.clone());
        let mut artifacts: Vec<Vec<u8>> = Vec::with_capacity(specs.len());
        let mut read_ranges = Vec::with_capacity(specs.len());
        let mut counters = Vec::with_capacity(specs.len());
        for i in 0..specs.len() {
            counters.push(ffs.counters());
            let start = check.len();
            match app.analyze_substep(&*ffs, i, Some(&self.output)) {
                Ok(a) => artifacts.push(a),
                Err(_) => {
                    ffs.unmount();
                    return Err(MemoFallback::SubstepIdentity);
                }
            }
            read_ranges.push((start, check.len()));
        }
        ffs.unmount();
        let records = check.records();
        for (spec, &(start, end)) in specs.iter().zip(&read_ranges) {
            let sound = records[start..end]
                .iter()
                .all(|r| r.path.as_deref().is_some_and(|p| spec.reads(p)));
            if !sound {
                return Err(MemoFallback::SubstepInputs);
            }
        }
        if records != self.analyze_reads() {
            return Err(MemoFallback::SubstepStream);
        }
        match app.assemble(&artifacts, Some(&self.output)) {
            Ok(out) if app.classify(&self.output, &out) == Outcome::Benign => {}
            _ => return Err(MemoFallback::SubstepIdentity),
        }

        // Key each golden artifact on its sub-step's input fingerprint
        // stream; the campaign publishes them to whichever store it
        // was handed.
        let mut golden_hash = Fnv::new();
        golden_hash.eat(app.name().as_bytes());
        let keys: Vec<Vec<u8>> = specs
            .iter()
            .zip(&read_ranges)
            .map(|(spec, &(start, end))| {
                let mut key = Vec::with_capacity(64 + (end - start) * 16);
                key.extend_from_slice(b"ffis-memo-v2|golden|");
                key.extend_from_slice(app.name().as_bytes());
                key.push(b'|');
                key.extend_from_slice(spec.name.as_bytes());
                key.push(b'|');
                for r in &records[start..end] {
                    key.extend_from_slice(&r.fingerprint.to_le_bytes());
                    key.extend_from_slice(
                        &r.returned.map(|n| n as u64).unwrap_or(u64::MAX).to_le_bytes(),
                    );
                }
                golden_hash.eat(&key);
                key
            })
            .collect();
        let golden_key = golden_hash.0;
        Ok(Arc::new(SubstepLaws { specs, artifacts, keys, read_ranges, counters, golden_key }))
    }
}

/// Golden runs of one application, shared by the campaigns handed
/// this cache ([`Campaign::with_goldens`](crate::Campaign::with_goldens)).
///
/// A golden run — and every law verdict drawn from it — depends on the
/// application and on what the run captures, not on a campaign's seed,
/// runs or signatures. Campaigns over one application that capture the
/// same set therefore share one run here; racing campaigns wait for
/// the one in flight instead of starting their own. A golden run that
/// fails is returned to its caller and not kept: the next campaign
/// runs it again.
///
/// The cache must only ever see one application: it is typed by the
/// application's output and keyed by nothing else.
pub struct GoldenCache<O> {
    ready: Mutex<HashMap<Capture, Arc<Golden<O>>>>,
    flight: SingleFlight<Capture>,
    runs: AtomicUsize,
}

impl<O> Default for GoldenCache<O> {
    fn default() -> Self {
        GoldenCache {
            ready: Mutex::new(HashMap::new()),
            flight: SingleFlight::default(),
            runs: AtomicUsize::new(0),
        }
    }
}

impl<O> GoldenCache<O> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Golden runs started through this cache — one per distinct
    /// capture set its campaigns asked for, however many campaigns
    /// there were.
    pub fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// The golden run for `capture`: the kept one, the one another
    /// thread is running right now, or `run()`.
    pub(crate) fn get_or_run(
        &self,
        capture: Capture,
        run: impl FnOnce() -> Result<Golden<O>, CampaignError>,
    ) -> Result<Arc<Golden<O>>, CampaignError> {
        let kept = || self.ready.lock().unwrap_or_else(|e| e.into_inner()).get(&capture).cloned();
        // Held until this call returns, so a failing or panicking run
        // frees the key for the waiters.
        let _claim = match self.flight.get_or_claim(&capture, kept) {
            Ok(golden) => return Ok(golden),
            Err(claim) => claim,
        };
        self.runs.fetch_add(1, Ordering::Relaxed);
        let golden = Arc::new(run()?);
        self.ready.lock().unwrap_or_else(|e| e.into_inner()).insert(capture, golden.clone());
        Ok(golden)
    }
}
