//! The daemon's application registry: resolve a [`CampaignSpec`]'s
//! `app` name and execute the spec through the in-process campaign
//! engine.
//!
//! This is the *one* spec-to-campaign translation in the workspace —
//! the daemon's workers, the `repro daemon submit --local` fallback,
//! and `repro scale`'s cells all call [`execute_spec`], so an HTTP
//! submission and an in-process run of the same spec are the same
//! campaign by construction (the end-to-end byte-identity the
//! integration suite pins).
//!
//! A spec resolves to a constructed application *and* the cache of
//! golden runs made over it ([`AppCache`]): callers that share
//! applications through [`ExecHooks::apps`] — the daemon's queue —
//! share golden runs and law verdicts with them; every other caller
//! constructs the application, and makes its golden run, per call.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ffis_core::engine::job::CampaignSpec;
use ffis_core::{
    Campaign, CampaignConfig, CampaignError, CampaignResult, CancelToken, FaultApp, GoldenCache,
    Outcome, RunObserver,
};
use ffis_vfs::{CheckpointStore, FileSystem, FileSystemExt, MemoStore};
use montage_sim::MontageApp;
use nyx_sim::{NyxApp, NyxConfig};
use qmc_sim::{QmcApp, QmcConfig};

/// Application names [`execute_spec`] resolves.
pub const APPS: [&str; 4] = ["nyx", "qmc", "montage", "paced"];

/// A registry entry, resolved from a spec's `app` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AppKind {
    Nyx,
    Qmc,
    Montage,
    Paced,
}

fn resolve_app(spec: &CampaignSpec) -> Result<AppKind, String> {
    match spec.app.to_ascii_lowercase().as_str() {
        "nyx" => Ok(AppKind::Nyx),
        "qmc" => Ok(AppKind::Qmc),
        "montage" => Ok(AppKind::Montage),
        "paced" => Ok(AppKind::Paced),
        _ => Err(format!(
            "unknown application '{}' (expected one of: {})",
            spec.app,
            APPS.join(", ")
        )),
    }
}

/// Validate the spec's `app` against the registry (the daemon answers
/// HTTP 400 with this message at submit time, so an unknown app never
/// occupies a queue slot).
pub fn check_app(spec: &CampaignSpec) -> Result<(), String> {
    resolve_app(spec).map(drop)
}

/// The Nyx workload at grid side `n` — the same grid/volume scaling
/// `repro` uses everywhere: the sieve-buffer write size scales with
/// the grid volume so the data-write count (and with it the
/// metadata-write hit probability, i.e. the crash share) stays at the
/// paper-scale proportion for smaller grids.
pub fn nyx_at_grid(grid: usize) -> NyxApp {
    nyx_app(grid, 1)
}

/// [`nyx_at_grid`] with `files` plotfile snapshots — the multi-file
/// regime a [`CampaignSpec::files`] > 1 requests.
pub fn nyx_app(grid: usize, files: usize) -> NyxApp {
    let mut cfg = NyxConfig::paper_scale();
    cfg.field.n = grid;
    cfg.plotfiles = files.max(1);
    let scale = (grid as f64 / 96.0).powi(3);
    let chunk = (64.0 * 1024.0 * scale / 4096.0).round().max(1.0) as usize * 4096;
    cfg.write_chunk = chunk;
    NyxApp::new(cfg)
}

/// What an application's construction depends on: the registry entry
/// and the spec's `grid` and `files`.
type AppKey = (AppKind, usize, usize);

/// A constructed application beside the golden runs made over it:
/// whoever shares the one shares the other, and a caller that
/// constructs an application for a single call gets a cache that
/// serves that call only.
struct Built<A: FaultApp> {
    app: A,
    goldens: GoldenCache<A::Output>,
}

impl<A: FaultApp> Built<A> {
    fn new(app: A) -> Self {
        Built { app, goldens: GoldenCache::new() }
    }

    fn run(&self, cfg: CampaignConfig) -> Result<CampaignResult, CampaignError> {
        Campaign::new(&self.app, cfg).with_goldens(&self.goldens).run()
    }
}

/// A spec's application, constructed — golden products included.
enum BuiltApp {
    Nyx(Built<NyxApp>),
    Qmc(Built<QmcApp>),
    Montage(Built<MontageApp>),
    Paced(Built<PacedApp>),
}

impl BuiltApp {
    fn build((kind, grid, files): AppKey) -> BuiltApp {
        let files = files.max(1);
        match kind {
            AppKind::Nyx => BuiltApp::Nyx(Built::new(nyx_app(grid, files))),
            // Multi-file QMC runs also block the DMC series, so a
            // dirty checkpoint restart re-derives one block of steps
            // instead of the whole series (single-file stays the
            // legacy byte-identical layout).
            AppKind::Qmc => BuiltApp::Qmc(Built::new(QmcApp::new(QmcConfig {
                restarts: files,
                dmc_blocks: if files > 1 { 4 } else { 1 },
                ..QmcConfig::default()
            }))),
            AppKind::Montage => BuiltApp::Montage(Built::new(MontageApp::multi_tile(files))),
            AppKind::Paced => BuiltApp::Paced(Built::new(PacedApp)),
        }
    }

    fn run(&self, cfg: CampaignConfig) -> Result<CampaignResult, CampaignError> {
        match self {
            BuiltApp::Nyx(built) => built.run(cfg),
            BuiltApp::Qmc(built) => built.run(cfg),
            BuiltApp::Montage(built) => built.run(cfg),
            BuiltApp::Paced(built) => built.run(cfg),
        }
    }

    fn golden_runs(&self) -> usize {
        match self {
            BuiltApp::Nyx(built) => built.goldens.runs(),
            BuiltApp::Qmc(built) => built.goldens.runs(),
            BuiltApp::Montage(built) => built.goldens.runs(),
            BuiltApp::Paced(built) => built.goldens.runs(),
        }
    }
}

/// Constructed applications, shared by the jobs of one queue, each
/// with the golden runs those jobs made over it.
///
/// Constructing an application runs its golden computation — for QMC
/// the whole VMC + DMC series, some 400 ms — and depends on nothing in
/// a spec but `(app, grid, files)`; a constructed application is
/// immutable. A service draining many small jobs over a few
/// applications therefore builds each once here instead of once per
/// job. Concurrent jobs over one key wait for a single build.
///
/// The same rule one level down: a campaign's golden run, and the
/// verdicts of the campaign-wide laws checked against it, depend on
/// the application alone — not on the job's seed, run count, fault
/// model or injection site. Each slot therefore keeps a
/// [`GoldenCache`] beside its application and every job over the slot
/// runs its campaign through it: six Nyx jobs at both sites make one
/// golden run, not six.
#[derive(Default)]
pub struct AppCache {
    apps: Mutex<HashMap<AppKey, Arc<OnceLock<BuiltApp>>>>,
    builds: AtomicUsize,
}

impl AppCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applications constructed so far — one per distinct
    /// `(app, grid, files)` that was asked for.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Golden runs made so far over those applications — one per
    /// application the jobs asked for, not one per job.
    pub fn golden_runs(&self) -> usize {
        let apps = self.apps.lock().unwrap_or_else(|e| e.into_inner());
        apps.values().filter_map(|slot| slot.get()).map(BuiltApp::golden_runs).sum()
    }

    fn run(&self, key: AppKey, cfg: CampaignConfig) -> Result<CampaignResult, CampaignError> {
        // The map lock covers only the slot lookup; the build runs
        // under the slot's own once-lock, so other keys do not wait.
        let slot =
            Arc::clone(self.apps.lock().unwrap_or_else(|e| e.into_inner()).entry(key).or_default());
        let app = slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            BuiltApp::build(key)
        });
        app.run(cfg)
    }
}

/// Execution environment the job runner supplies around a spec: where
/// to journal, whether to share checkpoints, how to cancel, and the
/// live event tap. All optional — `ExecHooks::default()` runs the
/// spec bare.
#[derive(Default)]
pub struct ExecHooks {
    /// Journal path (the daemon keeps one per job directory). `None`
    /// disables journaling even if the spec asks for it — there is
    /// nowhere to put the file.
    pub journal: Option<PathBuf>,
    /// Cooperative cancellation token.
    pub cancel: Option<Arc<CancelToken>>,
    /// Checkpoint store forwarded to
    /// [`CampaignConfig::with_checkpoints`]. No daemon, fan-out or
    /// `repro` path sets it: a set is keyed by its campaign's demand,
    /// so each campaign builds, uses and drops its own.
    pub checkpoints: Option<Arc<CheckpointStore>>,
    /// Shared analyze memo store (reused across every job of a daemon
    /// root — keys are content-addressed over app, sub-step, and input
    /// fingerprints, so one store serves all apps).
    pub memo: Option<Arc<MemoStore>>,
    /// Live run-event observer.
    pub observer: Option<RunObserver>,
    /// Restrict execution to the half-open plan-index range
    /// `[start, end)` — the distributed fan-out's worker shard.
    /// Planning, the golden run, and the journal header stay those of
    /// the *full* plan (engine law 7), so segments from different
    /// workers merge index-addressed.
    pub index_range: Option<(usize, usize)>,
    /// Shared constructed applications and the golden runs made over
    /// them. `None` constructs the spec's application, and makes its
    /// golden run, for this call alone.
    pub apps: Option<Arc<AppCache>>,
}

/// Run a validated spec through the campaign engine. The spec's
/// `journal`/`resume` flags gate durability; `hooks.journal` supplies
/// the path.
pub fn execute_spec(
    spec: &CampaignSpec,
    hooks: &ExecHooks,
) -> Result<CampaignResult, CampaignError> {
    let kind = resolve_app(spec).map_err(CampaignError::BadSignature)?;
    let signature = spec.signature().map_err(CampaignError::BadSignature)?;
    let mut cfg = CampaignConfig::new(signature)
        .with_runs(spec.runs)
        .with_seed(spec.seed)
        .with_keep_runs(spec.keep_runs)
        .with_index_range(hooks.index_range);
    cfg.parallel = spec.parallel;
    if let Some(budget) = spec.fuel {
        cfg = cfg.with_fuel(budget);
    }
    if let Some(ms) = spec.wall_limit_ms {
        cfg = cfg.with_wall_limit(Duration::from_millis(ms));
    }
    if spec.journal {
        if let Some(path) = &hooks.journal {
            cfg = cfg.with_journal(path).with_resume(spec.resume);
        }
    }
    if let Some(store) = &hooks.checkpoints {
        cfg = cfg.with_checkpoints(Arc::clone(store));
    }
    cfg = cfg.with_memo(spec.memo).with_replay_opt(spec.replay_opt);
    if let Some(store) = &hooks.memo {
        cfg = cfg.with_memo_store(Arc::clone(store));
    }
    if let Some(cancel) = &hooks.cancel {
        cfg = cfg.with_cancel(Arc::clone(cancel));
    }
    if let Some(observer) = &hooks.observer {
        cfg = cfg.with_observer(observer.clone());
    }
    let key = (kind, spec.grid, spec.files);
    match &hooks.apps {
        Some(cache) => cache.run(key, cfg),
        None => BuiltApp::build(key).run(cfg),
    }
}

/// A deliberately slow synthetic workload for daemon tests and CI
/// smoke: `analyze` sleeps a few milliseconds per run, giving kill-
/// and cancel-mid-job tests a wide window, while the data path stays
/// fully deterministic (pacing never touches the bytes, so paced
/// campaigns over one seed are byte-identical regardless of timing).
#[derive(Default)]
pub struct PacedApp;

/// Per-run analyze pacing.
const PACE: Duration = Duration::from_millis(3);
const PACED_LEN: usize = 4096 * 6;

/// Analyze artifacts of one [`PacedApp`] run.
#[derive(Clone)]
pub struct PacedOutput {
    bytes: Vec<u8>,
    checksum: u64,
}

impl FaultApp for PacedApp {
    type Output = PacedOutput;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        let data: Vec<u8> = (0..PACED_LEN).map(|i| (i as u64 * 31 % 251) as u8).collect();
        fs.write_file_chunked("/out.bin", &data, 4096).map_err(|e| e.to_string())?;
        fs.write_file("/meta.log", b"paced\n").map_err(|e| e.to_string())
    }

    fn analyze(
        &self,
        fs: &dyn FileSystem,
        _golden: Option<&PacedOutput>,
    ) -> Result<PacedOutput, String> {
        std::thread::sleep(PACE);
        let bytes = fs.read_to_vec("/out.bin").map_err(|e| e.to_string())?;
        if bytes.len() != PACED_LEN {
            return Err(format!("short read: {}", bytes.len()));
        }
        let checksum = bytes.iter().map(|&b| u64::from(b)).sum();
        Ok(PacedOutput { bytes, checksum })
    }

    fn classify(&self, golden: &PacedOutput, faulty: &PacedOutput) -> Outcome {
        if golden.bytes == faulty.bytes {
            Outcome::Benign
        } else if faulty.checksum.abs_diff(golden.checksum) > 500 {
            Outcome::Detected
        } else {
            Outcome::Sdc
        }
    }

    fn name(&self) -> String {
        "PACED".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn small_spec(app: &str) -> CampaignSpec {
        let mut spec = CampaignSpec::new(app, "BF");
        spec.grid = 16;
        spec.runs = 8;
        spec.seed = 11;
        spec.journal = false;
        spec
    }

    #[test]
    fn unknown_apps_are_rejected_by_name() {
        let spec = small_spec("nonesuch");
        let err = check_app(&spec).unwrap_err();
        assert!(err.contains("unknown application 'nonesuch'"), "{err}");
        assert!(matches!(
            execute_spec(&spec, &ExecHooks::default()),
            Err(CampaignError::BadSignature(_))
        ));
    }

    #[test]
    fn paced_campaigns_are_deterministic_and_observable() {
        let spec = small_spec("paced");
        let a = execute_spec(&spec, &ExecHooks::default()).unwrap();
        let events: Arc<Mutex<Vec<(usize, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let hooks = ExecHooks {
            observer: Some(RunObserver::new(move |r, resumed| {
                sink.lock().unwrap().push((r.run, resumed));
            })),
            ..ExecHooks::default()
        };
        let b = execute_spec(&spec, &hooks).unwrap();
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.run_digest(), b.run_digest());
        let mut seen: Vec<usize> = events.lock().unwrap().iter().map(|&(run, _)| run).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..spec.runs).collect::<Vec<_>>());
        assert!(events.lock().unwrap().iter().all(|&(_, resumed)| !resumed));
    }

    #[test]
    fn nyx_specs_execute_at_small_grids() {
        let mut spec = small_spec("nyx");
        spec.runs = 4;
        let result = execute_spec(&spec, &ExecHooks::default()).unwrap();
        assert_eq!(result.tally.total(), 4);
    }
}
