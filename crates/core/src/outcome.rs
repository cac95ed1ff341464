//! Outcome taxonomy and tallies (paper §II "Application" failures).
//!
//! "A failure of an application refers to \[the\] scenario that the
//! outcome of the application differs from the expected: the
//! application either terminates before it finishes (i.e., crash), or
//! it suffers from data corruption. If the application is able to
//! identify the errors, this failure is categorized as detected,
//! otherwise such data corruption becomes silent data corruption
//! (SDC)."

use crate::stats::{wilson, Proportion};

/// Outcome of one fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Output bitwise identical to the golden run.
    Benign,
    /// Output differs and the application (or its post-analysis) can
    /// tell: exceptions, missing files, out-of-range results.
    Detected,
    /// Output differs silently — silent data corruption.
    Sdc,
    /// Application terminated before finishing (errors, panics,
    /// unjustified file-format fields).
    Crash,
}

/// All outcomes in reporting order.
pub const OUTCOMES: [Outcome; 4] =
    [Outcome::Benign, Outcome::Detected, Outcome::Sdc, Outcome::Crash];

impl Outcome {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Benign => "Benign",
            Outcome::Detected => "Detected",
            Outcome::Sdc => "SDC",
            Outcome::Crash => "Crash",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How an application exposes itself to the campaign runner — the
/// two-phase workload contract.
///
/// Every workload in the paper's methodology has the same shape: a
/// **produce** phase that writes output files through the filesystem
/// under test, and an **analyze** phase that reads them back and
/// derives the artifacts classification needs (§IV-C). Splitting the
/// contract along that seam makes every application replay-capable by
/// construction: the golden-trace engine rebuilds produce's filesystem
/// state at memcpy speed (with the armed injector corrupting exactly
/// the targeted operation) and then runs only `analyze` — no
/// application logic is re-executed for the fault-free prefix.
///
/// `classify` applies the paper's per-application rules to a faulty
/// output given the golden one. A phase returning `Err` (or panicking)
/// is the crash outcome.
///
/// ## Laws
///
/// * **Write-stream data independence** (`produce`) — the byte content
///   of produce's writes must not depend on data read back *through
///   the filesystem* earlier in the same run. Replay re-issues the
///   golden run's payloads verbatim, so a produce phase that read a
///   (possibly corrupted) file mid-run and derived later writes from
///   it would replay golden-derived bytes where a real rerun writes
///   fault-derived ones. Workloads with on-disk handoffs (QMCPACK's
///   walker checkpoint, Montage's stage pipeline) write golden-derived
///   bytes in `produce` and re-derive the dependent artifacts from the
///   on-disk (possibly corrupted) inputs inside `analyze`.
/// * **Read-only analyze** — `analyze` must not mutate `fs`. The
///   campaign driver verifies this on the golden run (the recorded
///   op stream must not grow during analyze) and falls back to full
///   reruns if it does.
/// * **Golden identity** — `analyze` on an uncorrupted snapshot of a
///   golden run must classify [`Outcome::Benign`] against that run's
///   output. The drivers check this once per scan/campaign and refuse
///   the fast path if it fails.
///
/// ## Read-site campaigns
///
/// Read-site fault signatures ([`crate::FaultSignature::on_read`])
/// corrupt the data a read *returns* while the on-device bytes stay
/// pristine, so they exercise `analyze`'s (and any produce-phase)
/// read-back paths rather than the stored artifacts. Eligible-read
/// instance numbering spans the whole run — produce's reads and
/// analyze's reads count through the same `FFIS_read` counter,
/// exactly as in the golden profiling run — and the phase seam in
/// that instance space decides the execution strategy:
///
/// * **analyze-phase targets** skip produce entirely: the driver
///   forks the golden post-produce filesystem, pre-seeds the fresh
///   mount's counters with the golden produce-phase counts, and runs
///   only `analyze` live with the fault armed
///   ([`crate::ExecutionMode::AnalyzeOnly`]) — byte-equivalent to a
///   full rerun because read faults never touch device state and
///   produce's writes are data-independent by law;
/// * **produce-phase targets** stay on full produce+analyze reruns
///   ([`crate::ReplayFallback::ProduceReadFault`]): the fault fires
///   while the application is still writing, and no checkpoint of the
///   fault-free run can model the control flow downstream of the
///   corrupted transfer.
///
/// The golden run's read ledger ([`ffis_vfs::ReadLedger`]) measures
/// the seam; [`FaultApp::produce_read_count`] lets an application
/// *declare* it, and the drivers cross-check declaration against
/// measurement before trusting the fast path.
///
/// ## Analyze sub-steps (incremental analyze)
///
/// Multi-file workloads (several mosaic tiles, plotfiles, checkpoint
/// restarts) may additionally split `analyze` into declared
/// **sub-steps** ([`FaultApp::analyze_substeps`]), each reading a
/// declared file set and emitting an opaque serialized artifact
/// ([`FaultApp::analyze_substep`]); [`FaultApp::assemble`] folds the
/// artifacts into the final output. The contract is that running the
/// sub-steps in order and assembling them is *the same computation*
/// as [`FaultApp::analyze`] — the campaign driver validates this on
/// the golden run (engine law 8: memoized analyze == full analyze,
/// byte for byte) and memoizes per-sub-step artifacts keyed on the
/// [`ffis_vfs::ReadLedger`] fingerprints of what each sub-step read,
/// so a fault injection re-computes only the sub-steps whose inputs
/// it can reach (the dirty cascade). Apps that leave
/// [`FaultApp::analyze_substeps`] at the `None` default keep
/// whole-analyze behavior, with the fallback reason recorded.
///
/// Sub-step laws (checked on the golden run, fallback on violation):
///
/// * **Input soundness** — a sub-step reads only paths in its
///   declared input set; otherwise a fault in an undeclared file
///   could dirty a sub-step the cascade marks clean.
/// * **Stream identity** — the concatenated sub-step read streams
///   equal the golden `analyze` read stream (same paths, same
///   fingerprints, in order), so eligible-read instance numbering is
///   preserved when a driver skips clean sub-steps.
/// * **Assembly identity** — assembling the golden artifacts
///   classifies [`Outcome::Benign`] against the golden output.
pub trait FaultApp: Sync {
    /// Everything classification needs (output file bytes, analysis
    /// results, ...). `Sync` because the golden output is shared
    /// across the campaign's worker threads.
    type Output: Send + Sync;

    /// Phase 1 — write the workload's output files through `fs`.
    ///
    /// Subject to the write-stream data-independence law (see the
    /// trait docs): produce may create directories and stream bytes,
    /// but must not derive written bytes from data it read back
    /// through `fs` in the same run.
    fn produce(&self, fs: &dyn ffis_vfs::FileSystem) -> Result<(), String>;

    /// Phase 2 — read the (possibly fault-corrupted) output files back
    /// from `fs` and return the classification artifacts.
    ///
    /// `golden` is `None` during the reference (golden) run and
    /// `Some` during injection runs; it is an optimization hint — an
    /// implementation may use it to skip recomputation when read-back
    /// state matches the golden run — and must return equivalent
    /// artifacts either way. Must not mutate `fs`.
    fn analyze(
        &self,
        fs: &dyn ffis_vfs::FileSystem,
        golden: Option<&Self::Output>,
    ) -> Result<Self::Output, String>;

    /// Execute the whole workload: [`FaultApp::produce`] then
    /// [`FaultApp::analyze`]. Provided; drivers are free to call the
    /// phases separately, so overriding this with anything other than
    /// produce-then-analyze violates the contract.
    fn run(&self, fs: &dyn ffis_vfs::FileSystem) -> Result<Self::Output, String> {
        self.produce(fs)?;
        self.analyze(fs, None)
    }

    /// The number of `FFIS_read` calls this application's
    /// [`FaultApp::produce`] phase issues — the **phase-boundary read
    /// count** of the two-phase contract.
    ///
    /// `Some(0)` asserts that produce performs no read-back at all
    /// (true of every paper workload in this workspace: their write
    /// streams are data-independent by law, and their inter-stage
    /// handoffs are re-examined inside `analyze`), which makes *every*
    /// read-site fault an analyze-phase fault — eligible for the
    /// analyze-only fast path. `None` (the default) leaves the count
    /// undeclared: the campaign drivers still measure the boundary
    /// from the golden run's [`ffis_vfs::ReadLedger`] either way, and
    /// use a declaration only as a cross-check — a mismatch between
    /// the declared and measured counts disables the fast path with
    /// [`crate::ReplayFallback::TraceMismatch`] recorded.
    fn produce_read_count(&self) -> Option<u64> {
        None
    }

    /// Apply the application's outcome-classification rules.
    fn classify(&self, golden: &Self::Output, faulty: &Self::Output) -> Outcome;

    /// Short name for report rows ("NYX", "QMC", "MT1", ...).
    fn name(&self) -> String;

    /// Declare the analyze sub-steps of this workload, in execution
    /// order, or `None` (the default) for whole-analyze workloads.
    /// When `Some`, running [`FaultApp::analyze_substep`] for each
    /// index in order and folding the artifacts through
    /// [`FaultApp::assemble`] must be the same computation as
    /// [`FaultApp::analyze`] (see the trait docs for the sub-step
    /// laws).
    fn analyze_substeps(&self) -> Option<Vec<SubstepSpec>> {
        None
    }

    /// Run one analyze sub-step against `fs`, returning its opaque
    /// serialized artifact. Must read only the paths declared by the
    /// matching [`SubstepSpec`], must not mutate `fs`, and — like
    /// [`FaultApp::analyze`] — may use `golden` only as an
    /// equivalent-result optimization hint.
    fn analyze_substep(
        &self,
        fs: &dyn ffis_vfs::FileSystem,
        index: usize,
        golden: Option<&Self::Output>,
    ) -> Result<Vec<u8>, String> {
        let _ = (fs, index, golden);
        Err("workload declares no analyze sub-steps".into())
    }

    /// Fold the per-sub-step artifacts (one per declared
    /// [`SubstepSpec`], in order) into the final output. Pure: must
    /// not touch the filesystem.
    fn assemble(
        &self,
        artifacts: &[Vec<u8>],
        golden: Option<&Self::Output>,
    ) -> Result<Self::Output, String> {
        let _ = (artifacts, golden);
        Err("workload declares no analyze sub-steps".into())
    }
}

/// One declared analyze sub-step: a name (stable across runs — it
/// keys the memo store) and the closed set of file paths the sub-step
/// is allowed to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstepSpec {
    /// Stable identifier ("tile3", "plt00002", "restart1", ...).
    pub name: String,
    /// Every path this sub-step may read. A fault injected into (or
    /// returned from a read of) any of these paths dirties the
    /// sub-step; faults elsewhere cannot reach it.
    pub inputs: Vec<String>,
}

impl SubstepSpec {
    /// A spec for `name` reading exactly `inputs`.
    pub fn new(name: impl Into<String>, inputs: Vec<String>) -> Self {
        SubstepSpec { name: name.into(), inputs }
    }

    /// Does this sub-step declare `path` as an input?
    pub fn reads(&self, path: &str) -> bool {
        self.inputs.iter().any(|p| p == path)
    }
}

/// Aggregated outcome counts for a campaign, with Wilson 95% CIs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Benign count.
    pub benign: u64,
    /// Detected count.
    pub detected: u64,
    /// SDC count.
    pub sdc: u64,
    /// Crash count.
    pub crash: u64,
    /// Runs where the armed fault never fired (profile/run divergence;
    /// should be zero in a healthy campaign).
    pub no_fire: u64,
}

impl OutcomeTally {
    /// Empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one outcome.
    pub fn record(&mut self, o: Outcome) {
        match o {
            Outcome::Benign => self.benign += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Crash => self.crash += 1,
        }
    }

    /// Count for one outcome.
    pub fn count(&self, o: Outcome) -> u64 {
        match o {
            Outcome::Benign => self.benign,
            Outcome::Detected => self.detected,
            Outcome::Sdc => self.sdc,
            Outcome::Crash => self.crash,
        }
    }

    /// Total classified runs (excludes `no_fire`).
    pub fn total(&self) -> u64 {
        self.benign + self.detected + self.sdc + self.crash
    }

    /// Proportion (with CI) for one outcome.
    pub fn proportion(&self, o: Outcome) -> Proportion {
        wilson(self.count(o), self.total())
    }

    /// Rate in percent.
    pub fn rate_pct(&self, o: Outcome) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(o) as f64 / self.total() as f64 * 100.0
        }
    }

    /// Merge another tally.
    pub fn merge(&mut self, other: &OutcomeTally) {
        self.benign += other.benign;
        self.detected += other.detected;
        self.sdc += other.sdc;
        self.crash += other.crash;
        self.no_fire += other.no_fire;
    }

    /// One-line summary: `benign 91.1% | detected 8.1% | SDC 0.8% | crash 0.0%`.
    pub fn summary(&self) -> String {
        format!(
            "benign {:5.1}% | detected {:5.1}% | SDC {:5.1}% | crash {:5.1}% (n={})",
            self.rate_pct(Outcome::Benign),
            self.rate_pct(Outcome::Detected),
            self.rate_pct(Outcome::Sdc),
            self.rate_pct(Outcome::Crash),
            self.total()
        )
    }
}

impl std::fmt::Display for OutcomeTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut t = OutcomeTally::new();
        t.record(Outcome::Benign);
        t.record(Outcome::Benign);
        t.record(Outcome::Sdc);
        t.record(Outcome::Detected);
        t.record(Outcome::Crash);
        assert_eq!(t.count(Outcome::Benign), 2);
        assert_eq!(t.count(Outcome::Sdc), 1);
        assert_eq!(t.total(), 5);
        assert!((t.rate_pct(Outcome::Benign) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn proportion_has_interval() {
        let mut t = OutcomeTally::new();
        for _ in 0..911 {
            t.record(Outcome::Benign);
        }
        for _ in 0..81 {
            t.record(Outcome::Detected);
        }
        for _ in 0..8 {
            t.record(Outcome::Sdc);
        }
        let p = t.proportion(Outcome::Benign);
        assert!((p.p - 0.911).abs() < 1e-9);
        assert!(p.lo < 0.911 && p.hi > 0.911);
        // Paper's claim: ~1–2% error bars at n = 1000.
        assert!(p.error_bar_pct() < 2.5);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = OutcomeTally { benign: 1, detected: 2, sdc: 3, crash: 4, no_fire: 5 };
        let b = OutcomeTally { benign: 10, detected: 20, sdc: 30, crash: 40, no_fire: 50 };
        a.merge(&b);
        assert_eq!(a, OutcomeTally { benign: 11, detected: 22, sdc: 33, crash: 44, no_fire: 55 });
    }

    #[test]
    fn summary_contains_all_classes() {
        let t = OutcomeTally { benign: 1, detected: 1, sdc: 1, crash: 1, no_fire: 0 };
        let s = t.summary();
        for needle in ["benign", "detected", "SDC", "crash", "25.0"] {
            assert!(s.contains(needle), "{} missing from {}", needle, s);
        }
    }

    #[test]
    fn outcome_names() {
        assert_eq!(Outcome::Sdc.name(), "SDC");
        assert_eq!(OUTCOMES.len(), 4);
        assert_eq!(Outcome::Benign.to_string(), "Benign");
    }

    #[test]
    fn empty_tally_rates_are_zero() {
        let t = OutcomeTally::new();
        assert_eq!(t.total(), 0);
        assert_eq!(t.rate_pct(Outcome::Sdc), 0.0);
        let p = t.proportion(Outcome::Sdc);
        assert_eq!((p.lo, p.hi), (0.0, 0.0));
    }
}
