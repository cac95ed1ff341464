//! The persistent job queue: accepted specs on disk, a FIFO admission
//! queue, a bounded worker pool executing campaigns, live per-run
//! event fan-out to stream subscribers, and crash-safe recovery.
//!
//! ## Disk layout (`<root>/jobs/<id>/`)
//!
//! | file | written | meaning |
//! |---|---|---|
//! | `spec.json` | at submit | the accepted [`CampaignSpec`] |
//! | `run.journal` | per run | the engine's CRC-framed [`RunJournal`](ffis_core::engine::journal::RunJournal) |
//! | `result.json` | at terminal state | final [`JobView`] (`complete`/`failed`) |
//! | `cancelled` | on `DELETE` | operator cancelled; do not auto-resume |
//!
//! Both JSON files are published by temp file + rename
//! ([`write_atomic`]), so a daemon killed mid-write leaves no torn file
//! under a final name; one that is unreadable anyway (bit rot) fails
//! to parse and its job is skipped (`spec.json`) or re-run
//! (`result.json`).
//!
//! Beside `jobs/`, the root holds `store/`, and `store/` holds
//! `memo/` only: the one analyze memo store every job (and fan-out
//! worker) of the root shares, one file per entry. No process writes
//! a checkpoint set: it is placed against one job's own draws, so its
//! key could never match a later job's, and the worker processes of a
//! fanned-out job ([`QueueOptions::fanout`] > 1) each derive the same
//! set from the same plan faster than they could load it.
//!
//! ## What is paid once per queue
//!
//! Whatever does not depend on a job's seed: the constructed
//! application, the golden run over it, and the verdicts of the
//! campaign-wide laws checked on that run ([`AppCache`], counted by
//! [`JobQueue::app_builds`] and [`JobQueue::golden_runs`], both in
//! `GET /healthz`). A job pays for its draws, its checkpoint set, its
//! per-signature eligible-count checks and its runs.
//!
//! The queue is persistent *by construction*: a job is its spec file
//! plus its journal. [`JobQueue::open`] re-lists the directory, loads
//! terminal results as-is, and re-enqueues every non-terminal job with
//! resume forced on — the engine's resume law (law 6) then makes
//! recovery byte-identical, whether the daemon was killed mid-run or
//! cleanly interrupted. A job cancelled by the operator is the one
//! non-terminal state that does **not** auto-resume (the `cancelled`
//! marker); its journal stays on disk, so resubmitting the same spec
//! directory would still resume it.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ffis_core::engine::job::{CampaignSpec, JobFailure, JobState};
use ffis_core::{CancelToken, CompletionStatus, RunObserver};
use ffis_vfs::frame::write_atomic;
use ffis_vfs::MemoStore;

use crate::api::{self, JobView};
use crate::apps::{check_app, execute_spec, AppCache, ExecHooks};
use crate::distributed::{self, run_distributed};
use crate::json;

/// Queue tuning beyond the admission cap — all optional; the
/// defaults reproduce the historical single-process, keep-everything
/// behaviour.
#[derive(Debug, Clone)]
pub struct QueueOptions {
    /// Keep at most this many **terminal** (`complete`/`failed`) job
    /// directories; older terminal jobs are garbage-collected at
    /// startup and whenever a job reaches a terminal state. Jobs that
    /// are queued, running, or interrupted — anything that may still
    /// resume — are never collected. `None` keeps everything.
    pub retain: Option<usize>,
    /// Worker *processes* per job (engine law 7 fan-out). `1` runs
    /// jobs in-process; `N > 1` shards each journaled job's run plan
    /// across `N` spawned workers sharing the root's memo store, then
    /// merges their journal segments and resumes. Requires [`QueueOptions::
    /// worker_cmd`] (or a host binary with a `daemon worker`
    /// subcommand, the [`distributed::self_worker_cmd`] default).
    pub fanout: usize,
    /// Argv prefix for one worker process; defaults to re-invoking
    /// the current executable's `daemon worker` subcommand.
    pub worker_cmd: Option<Vec<String>>,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions { retain: None, fanout: 1, worker_cmd: None }
    }
}

struct Job {
    view: JobView,
    cancel: Arc<CancelToken>,
    /// Operator cancellation (`DELETE`) — distinguishes "do not
    /// auto-resume" from a daemon interruption.
    cancelled: bool,
    /// Live NDJSON lines fan out to these; cleared (disconnecting the
    /// receivers) after the `done` line.
    subscribers: Vec<Sender<String>>,
    /// The `run` lines sent so far, kept while the job is active so a
    /// subscriber that arrives mid-job still receives one line per plan
    /// index; dropped with the subscribers after `done`.
    backlog: Vec<String>,
}

impl Job {
    fn new(view: JobView, cancelled: bool) -> Job {
        Job {
            view,
            cancel: CancelToken::new(),
            cancelled,
            subscribers: Vec::new(),
            backlog: Vec::new(),
        }
    }

    /// Send the `done` line and end every stream.
    fn finish_streams(&mut self) {
        let done = api::done_line(&self.view);
        for tx in self.subscribers.drain(..) {
            let _ = tx.send(done.clone());
        }
        self.backlog = Vec::new();
    }
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    fifo: VecDeque<u64>,
    next_id: u64,
}

/// The queue (shared between the HTTP server and the worker pool).
pub struct JobQueue {
    root: PathBuf,
    inner: Mutex<Inner>,
    ready: Condvar,
    shutdown: AtomicBool,
    running_now: AtomicUsize,
    max_concurrent: AtomicUsize,
    /// One shared analyze memo store per daemon root, disk-backed
    /// under `<root>/store/memo`. Keys are content-addressed over app,
    /// sub-step, and input fingerprints, so every job (and fan-out
    /// worker process) of this root shares one store, and warm jobs
    /// replay their clean sub-steps across daemon restarts.
    memo: Mutex<Option<Arc<MemoStore>>>,
    /// Constructed applications, one per `(app, grid, files)`, each
    /// with the golden runs made over it: a job pays for what its seed
    /// decides, not for the golden computation, the golden run and
    /// the law checks every earlier job over the same application
    /// already made.
    apps: Arc<AppCache>,
    options: QueueOptions,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobQueue {
    /// Open (or create) a queue root, recover persisted jobs, and
    /// start `workers` executor threads (the admission cap: at most
    /// that many jobs run concurrently; the rest wait in FIFO order).
    pub fn open(root: &Path, workers: usize) -> io::Result<Arc<JobQueue>> {
        Self::open_with(root, workers, QueueOptions::default())
    }

    /// [`JobQueue::open`] with explicit [`QueueOptions`] (retention
    /// cap, fan-out width, worker command).
    pub fn open_with(
        root: &Path,
        workers: usize,
        options: QueueOptions,
    ) -> io::Result<Arc<JobQueue>> {
        let jobs_dir = root.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        let queue = Arc::new(JobQueue {
            root: root.to_path_buf(),
            inner: Mutex::new(Inner { jobs: BTreeMap::new(), fifo: VecDeque::new(), next_id: 1 }),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            running_now: AtomicUsize::new(0),
            max_concurrent: AtomicUsize::new(0),
            memo: Mutex::new(None),
            apps: Arc::new(AppCache::new()),
            options,
            workers: Mutex::new(Vec::new()),
        });
        queue.recover(&jobs_dir)?;
        // Retention runs before any new work: a restart over a full
        // disk should free space first, and recovery has just parked
        // every resumable job where the GC cannot touch it.
        queue.gc_terminal();
        let mut pool = queue.workers.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..workers.max(1) {
            let q = Arc::clone(&queue);
            pool.push(std::thread::spawn(move || q.worker_loop()));
        }
        drop(pool);
        Ok(queue)
    }

    /// Re-list the jobs directory: terminal results load as-is,
    /// cancelled jobs surface as `interrupted`, and everything else —
    /// queued or killed mid-run — re-enqueues with resume forced on.
    fn recover(&self, jobs_dir: &Path) -> io::Result<()> {
        let mut ids: Vec<u64> = std::fs::read_dir(jobs_dir)?
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect();
        ids.sort_unstable();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for id in ids {
            // Even a skipped job keeps its id: reusing it would hand a
            // new job that directory's stale journal and markers.
            inner.next_id = inner.next_id.max(id + 1);
            let dir = jobs_dir.join(id.to_string());
            let spec = match std::fs::read_to_string(dir.join("spec.json"))
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text))
                .and_then(|v| api::spec_from_json(&v))
            {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("[ffis-daemon] skipping job {}: unreadable spec: {}", id, e);
                    continue;
                }
            };
            let view = match std::fs::read_to_string(dir.join("result.json")) {
                Ok(text) => match json::parse(&text).and_then(|v| api::job_from_json(&v)) {
                    Ok(view) => view,
                    Err(e) => {
                        eprintln!(
                            "[ffis-daemon] job {}: corrupt result.json ({}); re-running",
                            id, e
                        );
                        JobView::queued(id, spec)
                    }
                },
                Err(_) => JobView::queued(id, spec),
            };
            let mut job = Job::new(view, dir.join("cancelled").exists());
            if job.view.state.is_active() {
                if job.cancelled {
                    job.view.state = JobState::Interrupted;
                } else {
                    // Resume law: re-execution replays the journal and
                    // finishes the pending set, byte-identically.
                    job.view.state = JobState::Queued;
                    job.view.spec.resume = true;
                    inner.fifo.push_back(id);
                }
            }
            inner.jobs.insert(id, job);
        }
        Ok(())
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join("jobs").join(id.to_string())
    }

    /// Accept a validated spec: persist it, assign an id, enqueue.
    pub fn submit(&self, spec: CampaignSpec) -> Result<u64, String> {
        spec.validate()?;
        check_app(&spec)?;
        if self.shutdown.load(Ordering::SeqCst) {
            return Err("daemon is shutting down".into());
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let id = inner.next_id;
        inner.next_id += 1;
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir).map_err(|e| format!("persist job {}: {}", id, e))?;
        write_atomic(&dir.join("spec.json"), api::spec_to_json(&spec).render().as_bytes())
            .map_err(|e| format!("persist job {}: {}", id, e))?;
        inner.jobs.insert(id, Job::new(JobView::queued(id, spec), false));
        inner.fifo.push_back(id);
        drop(inner);
        self.ready.notify_one();
        Ok(id)
    }

    /// Snapshot one job.
    pub fn job(&self, id: u64) -> Option<JobView> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.jobs.get(&id).map(|j| j.view.clone())
    }

    /// Snapshot every job, id-ordered.
    pub fn jobs(&self) -> Vec<JobView> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.jobs.values().map(|j| j.view.clone()).collect()
    }

    /// `(running, queued, max ever concurrent)` — the health numbers.
    pub fn counts(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (
            self.running_now.load(Ordering::SeqCst),
            inner.fifo.len(),
            self.max_concurrent.load(Ordering::SeqCst),
        )
    }

    /// Applications this queue has constructed — one per distinct
    /// `(app, grid, files)` its jobs asked for (see [`AppCache`]).
    pub fn app_builds(&self) -> usize {
        self.apps.builds()
    }

    /// Golden runs this queue's jobs have made — one per distinct
    /// `(application, capture set)`, not one per job (see
    /// [`AppCache::golden_runs`]).
    pub fn golden_runs(&self) -> usize {
        self.apps.golden_runs()
    }

    /// Cancel a job: a queued job is interrupted immediately; a
    /// running one gets its token cancelled and parks as
    /// `interrupted` when the in-flight run finishes. Terminal jobs
    /// are unchanged. Returns the (possibly updated) view.
    pub fn cancel(&self, id: u64) -> Option<JobView> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let dir = self.job_dir(id);
        let job = inner.jobs.get_mut(&id)?;
        if job.view.state.is_active() {
            job.cancelled = true;
            job.cancel.cancel();
            let _ = std::fs::write(dir.join("cancelled"), b"");
            if job.view.state == JobState::Queued {
                job.view.state = JobState::Interrupted;
                job.finish_streams();
            }
        }
        Some(job.view.clone())
    }

    /// Subscribe to a job's event stream: the snapshot to send first,
    /// plus a receiver of NDJSON lines. An active job's receiver opens
    /// with the `run` lines of the runs already executed, queued under
    /// the same lock that registers it, so the stream carries exactly
    /// one `run` line per plan index however late it opens. For a
    /// terminal job the receiver is already disconnected — the stream
    /// is just `snapshot` + `done`.
    pub fn subscribe(&self, id: u64) -> Option<(JobView, Receiver<String>)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let job = inner.jobs.get_mut(&id)?;
        let (tx, rx) = channel();
        if job.view.state.is_active() {
            for line in &job.backlog {
                let _ = tx.send(line.clone());
            }
            job.subscribers.push(tx);
        } else {
            let _ = tx.send(api::done_line(&job.view));
        }
        Some((job.view.clone(), rx))
    }

    /// Graceful shutdown: stop admitting, cancel every active job,
    /// and join the workers. In-flight runs finish (cancellation is
    /// between-runs), journals are already flushed per run, and
    /// interrupted jobs resume on the next `open` of the same root.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            for job in inner.jobs.values_mut() {
                if job.view.state.is_active() {
                    job.cancel.cancel();
                }
            }
            // Queued jobs will not run in this process; park them as
            // interrupted (their files make them resume next start).
            let queued: Vec<u64> = inner.fifo.drain(..).collect();
            for id in queued {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    if job.view.state == JobState::Queued {
                        job.view.state = JobState::Interrupted;
                        job.finish_streams();
                    }
                }
            }
        }
        self.ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            let _ = handle.join();
        }
    }

    /// Disk directory of the root-wide shared memo store — the same
    /// directory fan-out worker processes mount via `--memo`.
    fn memo_dir(&self) -> PathBuf {
        self.root.join("store").join("memo")
    }

    /// The root-wide shared memo store (disk-backed when the directory
    /// is writable, memory-only otherwise — the memo layer is an
    /// optimization, never a reason a job fails).
    fn memo_store(&self) -> Arc<MemoStore> {
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(memo.get_or_insert_with(|| {
            let dir = self.memo_dir();
            Arc::new(MemoStore::at_dir(&dir).unwrap_or_else(|e| {
                eprintln!(
                    "[ffis-daemon] memo store at {} unavailable ({}); using memory tier",
                    dir.display(),
                    e
                );
                MemoStore::in_memory()
            }))
        }))
    }

    /// Enforce [`QueueOptions::retain`]: drop the oldest terminal
    /// (`complete`/`failed`) job directories beyond the cap. Anything
    /// that may still resume — queued, running, interrupted, or
    /// cancelled jobs — is never touched: a job is only collectable
    /// once its `result.json` is the complete record of its outcome.
    fn gc_terminal(&self) {
        let Some(retain) = self.options.retain else { return };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut terminal: Vec<u64> = inner
            .jobs
            .iter()
            .filter(|(_, job)| matches!(job.view.state, JobState::Complete | JobState::Failed))
            .map(|(&id, _)| id)
            .collect();
        terminal.sort_unstable();
        let excess = terminal.len().saturating_sub(retain);
        for id in terminal.into_iter().take(excess) {
            if let Err(e) = std::fs::remove_dir_all(self.job_dir(id)) {
                eprintln!("[ffis-daemon] retention: could not remove job {}: {}", id, e);
                continue;
            }
            inner.jobs.remove(&id);
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let claimed = {
                let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(id) = inner.fifo.pop_front() {
                        match inner.jobs.get_mut(&id) {
                            Some(job) if job.view.state == JobState::Queued => {
                                job.view.state = JobState::Running;
                                break Some((id, job.view.spec.clone(), Arc::clone(&job.cancel)));
                            }
                            // Cancelled while queued (or gone): skip.
                            _ => continue,
                        }
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some((id, spec, cancel)) = claimed else { return };
            let now = self.running_now.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_concurrent.fetch_max(now, Ordering::SeqCst);
            self.run_job(id, spec, cancel);
            self.running_now.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn run_job(self: &Arc<Self>, id: u64, spec: CampaignSpec, cancel: Arc<CancelToken>) {
        let dir = self.job_dir(id);
        let queue = Arc::clone(self);
        let observer = RunObserver::new(move |result, resumed| {
            let mut inner = queue.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(job) = inner.jobs.get_mut(&id) {
                if resumed {
                    job.view.resumed += 1;
                } else {
                    job.view.executed += 1;
                }
                api::fold_run_event(
                    &mut job.view.tally,
                    result.outcome,
                    result.injection.is_some(),
                );
                api::aborted_counters(&mut job.view, result.aborted.as_ref());
                let line = api::run_line(result, resumed);
                job.subscribers.retain(|tx| tx.send(line.clone()).is_ok());
                job.backlog.push(line);
            }
        });
        // Fan-out (engine law 7): shard journaled multi-run jobs
        // across worker processes sharing the memo store, merge the
        // segments, and resume — byte-identical to the in-process
        // path, which stays the fallback if the fan-out cannot even
        // start (missing worker binary, unwritable work dir).
        let fanout = self.options.fanout.min(spec.runs);
        let mut outcome = None;
        if fanout > 1 && spec.journal {
            let worker_cmd =
                self.options.worker_cmd.clone().or_else(|| distributed::self_worker_cmd().ok());
            if let Some(cmd) = worker_cmd {
                // The coordinator overrides `journal`/`index_range`
                // for its final pass; the observer rides that
                // merged-resume pass, so stream subscribers still see
                // one event per index.
                let hooks = ExecHooks {
                    journal: None,
                    cancel: Some(Arc::clone(&cancel)),
                    checkpoints: None,
                    memo: Some(self.memo_store()),
                    observer: Some(observer.clone()),
                    index_range: None,
                    apps: Some(Arc::clone(&self.apps)),
                };
                match run_distributed(
                    &spec,
                    fanout,
                    &dir.join("fanout"),
                    Some(&self.memo_dir()),
                    &cmd,
                    hooks,
                ) {
                    Ok(report) => outcome = Some(Ok(report.result)),
                    // A campaign failure from the final pass is the
                    // job's real outcome; only orchestration failures
                    // fall back to the in-process path.
                    Err(distributed::FanoutError::Campaign(e)) => outcome = Some(Err(e)),
                    Err(distributed::FanoutError::Setup(e)) => eprintln!(
                        "[ffis-daemon] job {}: fan-out unavailable ({}); running in-process",
                        id, e
                    ),
                }
            }
        }
        let outcome = outcome.unwrap_or_else(|| {
            let hooks = ExecHooks {
                journal: spec.journal.then(|| dir.join("run.journal")),
                cancel: Some(cancel),
                // The checkpoint set is placed against this job's own
                // draws, so no later job could reuse it: build, use,
                // drop — nothing persisted, nothing retained.
                checkpoints: None,
                memo: Some(self.memo_store()),
                observer: Some(observer),
                index_range: None,
                apps: Some(Arc::clone(&self.apps)),
            };
            execute_spec(&spec, &hooks)
        });

        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job) = inner.jobs.get_mut(&id) else { return };
        match outcome {
            Ok(result) => {
                job.view.executed = result.executed;
                job.view.resumed = result.resumed;
                job.view.tally = result.tally;
                job.view.memo_hits = result.memo.stats.hits;
                job.view.memo_misses = result.memo.stats.misses;
                job.view.memo_invalidations = result.memo.stats.invalidations;
                job.view.memo_reason = Some(result.memo.reason().to_string());
                job.view.plan_fingerprint = Some(result.plan_fingerprint);
                if result.status == CompletionStatus::Complete {
                    job.view.state = JobState::Complete;
                    job.view.run_digest = Some(result.run_digest());
                } else {
                    job.view.state = JobState::Interrupted;
                }
            }
            Err(e) => {
                job.view.state = JobState::Failed;
                job.view.failure = Some(JobFailure::from_campaign_error(&e));
            }
        }
        let terminal = matches!(job.view.state, JobState::Complete | JobState::Failed);
        if terminal {
            let _ = write_atomic(
                &dir.join("result.json"),
                api::job_to_json(&job.view).render().as_bytes(),
            );
        }
        job.finish_streams();
        drop(inner);
        if terminal {
            // This job just became collectable; an older terminal job
            // may now exceed the retention cap.
            self.gc_terminal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose `spec.json` cannot be read is skipped, but its id
    /// stays taken: the next submit must not inherit that directory's
    /// stale journal, result, or `cancelled` marker.
    #[test]
    fn unreadable_newest_spec_keeps_its_id_out_of_circulation() {
        let root = std::env::temp_dir().join(format!("ffis-jobs-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut spec = CampaignSpec::new("paced", "BF");
        spec.runs = 2;

        let queue = JobQueue::open(&root, 1).unwrap();
        queue.submit(spec.clone()).unwrap();
        let torn = queue.submit(spec.clone()).unwrap();
        queue.shutdown();
        drop(queue);

        let torn_dir = root.join("jobs").join(torn.to_string());
        let text = std::fs::read(torn_dir.join("spec.json")).unwrap();
        std::fs::write(torn_dir.join("spec.json"), &text[..text.len() / 2]).unwrap();
        std::fs::write(torn_dir.join("cancelled"), b"").unwrap();

        let queue = JobQueue::open(&root, 1).unwrap();
        assert!(queue.job(torn).is_none(), "the unreadable job is skipped");
        let fresh = queue.submit(spec.clone()).unwrap();
        queue.shutdown();
        assert!(fresh > torn, "job {fresh} reuses the id of skipped job {torn}");
        let fresh_dir = root.join("jobs").join(fresh.to_string());
        assert!(!fresh_dir.join("cancelled").exists(), "inherited a stale marker");
        let published = std::fs::read_to_string(fresh_dir.join("spec.json")).unwrap();
        assert_eq!(api::spec_from_json(&json::parse(&published).unwrap()).unwrap(), spec);
        let leftovers = std::fs::read_dir(&fresh_dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(leftovers, 0, "the temp file was renamed into place");
        let _ = std::fs::remove_dir_all(&root);
    }
}
