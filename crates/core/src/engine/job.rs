//! Job-facing campaign types: the one [`CampaignSpec`] every frontend
//! speaks, and the structured job lifecycle/failure vocabulary of the
//! campaign-as-a-service surface.
//!
//! Before this module, each frontend plumbed its own ad-hoc option
//! bundle: the `repro` CLI its `Options`, `repro scale` a hand-built
//! [`crate::CampaignConfig`] per cell, and any future service would
//! have invented a third. [`CampaignSpec`] is the shared serializable
//! description — app, fault model and injection site, grid, run count,
//! seed, liveness limits, journal options — that the `ffis-daemon`
//! REST API accepts, the `repro daemon submit` flags construct, and
//! `repro scale` builds its cells from. Validation lives here too, so
//! an out-of-range spec produces the same message whether it arrives
//! as a CLI flag (exit 2) or an HTTP body (status 400).
//!
//! [`JobState`] and [`JobFailure`] are the lifecycle half: a job queue
//! holds specs in `Queued`/`Running` and parks them in one of the
//! terminal-ish states, and a failed job carries a *structured* reason
//! ([`JobFailure::PlanMismatch`] with both fingerprints, not a log
//! line) that survives serialization across the service boundary.

use crate::campaign::CampaignError;
use crate::engine::journal::JournalError;
use crate::fault::{FaultSignature, InjectionSite};
use crate::generator::FaultConfig;

/// Smallest grid the paper workloads run on: the fig8 golden run needs
/// at least a 16³ field to host its halo statistics, and no harness
/// preset goes lower (CI smoke uses 64, quick caps at 48). Anything
/// smaller is a configuration error, reported as such — never a
/// mid-campaign panic.
pub const MIN_GRID: usize = 16;

/// One serializable campaign description, shared by the daemon API,
/// the CLI flags, and `repro scale` (see the module docs).
///
/// The spec is app-agnostic: `app` is a registry name resolved by the
/// executing frontend (the daemon's app registry, `repro`'s experiment
/// table), and `grid` only scales apps that have a grid (Nyx); the
/// others ignore it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Application registry name (`"nyx"`, `"qmc"`, `"montage"`, or
    /// the synthetic `"paced"` smoke workload).
    pub app: String,
    /// Fault model spelling, as accepted by
    /// [`FaultConfig`] (`"BF"`/`"SW"`/`"DW"`, long names, or the
    /// read-site `"SR"`/`"DR"` spellings).
    pub model: String,
    /// Injection site: `"write"` (default) or `"read"`.
    pub site: String,
    /// Grid side for grid-scaled apps (Nyx); at least [`MIN_GRID`].
    pub grid: usize,
    /// Output-file multiplicity for the multi-file regimes: Nyx
    /// plotfile snapshots, Montage mosaic tiles, QMCPACK restart
    /// segments. `1` (the default) keeps every app in its legacy
    /// single-file layout; apps without a multi-file regime (paced)
    /// ignore it. At least 1.
    pub files: usize,
    /// Engage the analyze memoization layer (engine law 8) when the
    /// resolved app declares analyze sub-steps. Default `true`;
    /// harmless on single-file specs (the campaign reports the
    /// `no-substeps` fallback). The `false` regime is the reference
    /// side of law 8.
    pub memo: bool,
    /// Engage the plan-aware replay optimizations (demand-driven
    /// checkpoint placement, checkpoint-grouped batch execution,
    /// suffix op coalescing — [`crate::CampaignConfig::replay_opt`]).
    /// Default `true`. The optimizations are digest-invisible either
    /// way; the `false` regime exists as a measurement control.
    pub replay_opt: bool,
    /// Injection runs (paper: 1,000 per cell); at least 1.
    pub runs: usize,
    /// Campaign root seed.
    pub seed: u64,
    /// Bound on retained full run records (`None` = keep all).
    pub keep_runs: Option<usize>,
    /// Fan runs out across the thread pool.
    pub parallel: bool,
    /// Per-run I/O-op fuel budget ([`crate::CampaignConfig::fuel`]).
    pub fuel: Option<u64>,
    /// Per-run wall-clock backstop, in milliseconds.
    pub wall_limit_ms: Option<u64>,
    /// Journal completed runs (the daemon keeps one `RunJournal` per
    /// job; the CLI maps this to `--journal`).
    pub journal: bool,
    /// Resume from an existing journal when one is present. Safe to
    /// leave on: a missing journal starts fresh, a mismatched one is a
    /// structured [`JobFailure::PlanMismatch`], never a silent splice.
    pub resume: bool,
}

impl CampaignSpec {
    /// A spec with the harness defaults (paper run count, scale-regime
    /// grid, journal + resume on — the durable-service posture).
    pub fn new(app: &str, model: &str) -> Self {
        CampaignSpec {
            app: app.to_string(),
            model: model.to_string(),
            site: InjectionSite::Write.token().to_string(),
            grid: 96,
            files: 1,
            memo: true,
            replay_opt: true,
            runs: 1000,
            seed: 0xFF15_2021,
            keep_runs: None,
            parallel: true,
            fuel: None,
            wall_limit_ms: None,
            journal: true,
            resume: true,
        }
    }

    /// The injection site this spec names.
    pub fn injection_site(&self) -> Result<InjectionSite, String> {
        match self.site.to_ascii_lowercase().as_str() {
            "write" | "w" => Ok(InjectionSite::Write),
            "read" | "r" => Ok(InjectionSite::Read),
            other => {
                Err(format!("unknown injection site '{}' (expected 'write' or 'read')", other))
            }
        }
    }

    /// Build the validated [`FaultSignature`] (model parsed through
    /// [`FaultConfig`], primitive forced to the spec's site).
    pub fn signature(&self) -> Result<FaultSignature, String> {
        let site = self.injection_site()?;
        let mut cfg = FaultConfig::model(&self.model);
        cfg.primitive = Some(site.token().to_string());
        cfg.build()
    }

    /// Validate every field, with the same messages the PR-6 CLI
    /// validation established (`--runs`/`--grid`); the daemon maps an
    /// `Err` here to HTTP 400.
    pub fn validate(&self) -> Result<(), String> {
        if self.app.trim().is_empty() {
            return Err("app must be named".into());
        }
        if self.runs == 0 {
            return Err("runs must be at least 1".into());
        }
        if self.grid < MIN_GRID {
            return Err(format!(
                "grid {} is below the minimum {} (the paper workloads need at least a \
                 {MIN_GRID}\u{b3} field)",
                self.grid, MIN_GRID
            ));
        }
        if self.files == 0 {
            return Err("files must be at least 1".into());
        }
        if self.keep_runs == Some(0) {
            return Err("keep_runs must be at least 1 when set".into());
        }
        if self.fuel == Some(0) {
            return Err("fuel must be at least 1 I/O op when set".into());
        }
        self.signature()?;
        Ok(())
    }

    /// Report label in the scale-table vocabulary: `BF`/`SW`/`DW` for
    /// write-site specs, `r:BF`/`r:SR`/`r:DR` for their read-site
    /// mirrors — the same strings `repro scale` prints and
    /// `DIGESTS.txt` keys on. Multi-file specs append `:fN` so a
    /// memoized multi-file cell never collides with its single-file
    /// namesake in the digest vocabulary. Infallible for display's
    /// sake: a spec that does not validate labels as the raw
    /// `model@site` pair.
    pub fn label(&self) -> String {
        let base = match (self.injection_site(), self.signature()) {
            (Ok(site), Ok(sig)) => match site {
                InjectionSite::Write => sig.model.label_at(site).to_string(),
                InjectionSite::Read => format!("r:{}", sig.model.label_at(site)),
            },
            _ => format!("{}@{}", self.model, self.site),
        };
        if self.files > 1 {
            format!("{}:f{}", base, self.files)
        } else {
            base
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot (FIFO).
    Queued,
    /// A worker is executing the campaign.
    Running,
    /// The plan drained fully; the result is final.
    Complete,
    /// Cancelled (or the daemon shut down) with partial tallies; the
    /// journal holds every completed run, so a restart resumes it.
    Interrupted,
    /// The campaign could not run; see the [`JobFailure`].
    Failed,
}

impl JobState {
    /// Wire/report token.
    pub fn token(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Complete => "complete",
            JobState::Interrupted => "interrupted",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire token.
    pub fn from_token(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "complete" => JobState::Complete,
            "interrupted" => JobState::Interrupted,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// Is the job still waiting or executing (i.e. its result can
    /// still change)?
    pub fn is_active(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Structured reason a job failed — the API-facing mirror of
/// [`CampaignError`], with the resume-refusal case
/// ([`JobFailure::PlanMismatch`]) carrying both fingerprints so a
/// client can see *what* drifted instead of grepping daemon logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The spec failed validation (bad model, out-of-range grid/runs,
    /// unknown app).
    BadSpec(String),
    /// The golden (fault-free) run failed — nothing to compare
    /// against.
    GoldenRunFailed(String),
    /// The profiler found no eligible instance to inject into.
    NoEligibleInstances,
    /// The job's journal belongs to a different plan: the grid, seed,
    /// signature, or run count changed under a resume.
    PlanMismatch {
        /// Fingerprint found in the journal header.
        found: u64,
        /// Fingerprint of the plan being resumed.
        expected: u64,
    },
    /// Any other journal problem (I/O, corrupt/incompatible header).
    Journal(String),
}

impl JobFailure {
    /// Stable kind token for the API (`failure.kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobFailure::BadSpec(_) => "bad-spec",
            JobFailure::GoldenRunFailed(_) => "golden-run-failed",
            JobFailure::NoEligibleInstances => "no-eligible-instances",
            JobFailure::PlanMismatch { .. } => "plan-mismatch",
            JobFailure::Journal(_) => "journal",
        }
    }

    /// Map a [`CampaignError`] into its structured job-failure reason.
    pub fn from_campaign_error(e: &CampaignError) -> JobFailure {
        match e {
            CampaignError::BadSignature(m) => JobFailure::BadSpec(m.clone()),
            CampaignError::GoldenRunFailed(m) => JobFailure::GoldenRunFailed(m.clone()),
            CampaignError::NoEligibleInstances => JobFailure::NoEligibleInstances,
            CampaignError::Journal(JournalError::PlanMismatch { found, expected }) => {
                JobFailure::PlanMismatch { found: *found, expected: *expected }
            }
            CampaignError::Journal(j) => JobFailure::Journal(j.to_string()),
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::BadSpec(m) => write!(f, "invalid campaign spec: {}", m),
            JobFailure::GoldenRunFailed(m) => write!(f, "golden run failed: {}", m),
            JobFailure::NoEligibleInstances => {
                f.write_str("no eligible primitive instances to inject into")
            }
            JobFailure::PlanMismatch { found, expected } => write!(
                f,
                "journal plan fingerprint {found:#018x} does not match this spec \
                 ({expected:#018x}): the grid, seed, signature, or run count changed"
            ),
            JobFailure::Journal(m) => write!(f, "run journal: {}", m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;

    #[test]
    fn defaults_validate_and_label_write_site() {
        let spec = CampaignSpec::new("nyx", "BF");
        spec.validate().unwrap();
        assert_eq!(spec.injection_site().unwrap(), InjectionSite::Write);
        assert_eq!(spec.label(), "BF");
        assert_eq!(spec.signature().unwrap().model, FaultModel::bit_flip());
    }

    #[test]
    fn multi_file_specs_label_with_their_multiplicity() {
        let mut spec = CampaignSpec::new("montage", "BF");
        assert_eq!(spec.files, 1);
        assert_eq!(spec.label(), "BF");
        spec.files = 8;
        spec.validate().unwrap();
        assert_eq!(spec.label(), "BF:f8");
        spec.site = "read".into();
        assert_eq!(spec.label(), "r:BF:f8");
    }

    #[test]
    fn read_site_labels_match_the_scale_vocabulary() {
        for (model, label) in [("BF", "r:BF"), ("SW", "r:SR"), ("DW", "r:DR")] {
            let mut spec = CampaignSpec::new("nyx", model);
            spec.site = "read".into();
            assert_eq!(spec.label(), label, "model {model}");
            assert_eq!(spec.injection_site().unwrap(), InjectionSite::Read);
            spec.validate().unwrap();
        }
    }

    #[test]
    fn out_of_range_specs_fail_with_the_cli_messages() {
        let mut spec = CampaignSpec::new("nyx", "BF");
        spec.runs = 0;
        assert!(spec.validate().unwrap_err().contains("runs must be at least 1"));
        let mut spec = CampaignSpec::new("nyx", "BF");
        spec.grid = MIN_GRID - 1;
        assert!(spec.validate().unwrap_err().contains("below the minimum"));
        let mut spec = CampaignSpec::new("nyx", "no-such-model");
        spec.grid = 96;
        assert!(spec.validate().unwrap_err().contains("unknown fault model"));
        let mut spec = CampaignSpec::new("nyx", "BF");
        spec.site = "sideways".into();
        assert!(spec.validate().unwrap_err().contains("unknown injection site"));
        let mut spec = CampaignSpec::new("nyx", "BF");
        spec.keep_runs = Some(0);
        assert!(spec.validate().unwrap_err().contains("keep_runs"));
        let mut spec = CampaignSpec::new("nyx", "BF");
        spec.files = 0;
        assert!(spec.validate().unwrap_err().contains("files must be at least 1"));
        let mut spec = CampaignSpec::new("nyx", "BF");
        spec.fuel = Some(0);
        assert!(spec.validate().unwrap_err().contains("fuel"));
    }

    #[test]
    fn job_state_tokens_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Complete,
            JobState::Interrupted,
            JobState::Failed,
        ] {
            assert_eq!(JobState::from_token(s.token()), Some(s));
        }
        assert!(JobState::from_token("nope").is_none());
        assert!(JobState::Queued.is_active());
        assert!(JobState::Running.is_active());
        assert!(!JobState::Complete.is_active());
    }

    #[test]
    fn campaign_errors_map_to_structured_failures() {
        let e = CampaignError::Journal(JournalError::PlanMismatch { found: 1, expected: 2 });
        assert_eq!(
            JobFailure::from_campaign_error(&e),
            JobFailure::PlanMismatch { found: 1, expected: 2 }
        );
        assert_eq!(JobFailure::from_campaign_error(&e).kind(), "plan-mismatch");
        let e = CampaignError::BadSignature("x".into());
        assert_eq!(JobFailure::from_campaign_error(&e), JobFailure::BadSpec("x".into()));
        let e = CampaignError::Journal(JournalError::BadMagic);
        assert!(matches!(JobFailure::from_campaign_error(&e), JobFailure::Journal(_)));
        assert_eq!(JobFailure::NoEligibleInstances.kind(), "no-eligible-instances");
    }
}
