//! Multi-process campaign fan-out: shard the engine's index-addressed
//! run plan across worker *processes*, merge their journal segments,
//! and re-derive the final result through the engine's resume path.
//!
//! This is engine law 7 ("serial == parallel == distributed, byte for
//! byte") made operational:
//!
//! 1. The coordinator partitions `0..spec.runs` with
//!    [`index_ranges`] and spawns one
//!    worker process per range (`repro daemon worker …`, or whatever
//!    command the caller supplies).
//! 2. Every worker runs the *same* spec through the *same*
//!    [`execute_spec`] the in-process path uses — identical planning,
//!    identical golden run, identical journal header — restricted to
//!    its range via `ExecHooks::index_range`, journaling into its own
//!    segment file. Each process builds its own checkpoint set: it is
//!    placed against the whole plan's demand, which every process
//!    derives identically, so the sets are equal without being shared
//!    (and a rebuild costs less than a load). Analyze memoization *is*
//!    shared, through the `MemoStore` disk tier: its keys are content,
//!    not demand, so a sub-step artifact computed by one worker is a
//!    disk hit for every other.
//! 3. The coordinator merges the segments index-addressed
//!    ([`merge_segments`], first
//!    wins — exactly the resume law's dedup rule) and executes the
//!    spec once more with `resume = true` over the merged journal.
//!    Journaled indices feed the sink directly; only indices a worker
//!    failed to cover re-execute. The result is therefore
//!    byte-identical to a single-process run of the same spec — the
//!    coordinator's final pass *is* a crash-resume, and law 6 already
//!    guarantees those.
//!
//! A killed coordinator (or daemon) restarted over the same work
//! directory reuses everything: workers resume their own segments, the
//! merge re-runs, and the final pass still re-derives the one answer.

use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ffis_core::engine::journal::{self, JournalError, JournalMeta};
use ffis_core::engine::{index_ranges, merge_segments};
use ffis_core::{CampaignError, CampaignResult, CampaignSpec};
use ffis_vfs::MemoStore;

use crate::api;
use crate::apps::{execute_spec, ExecHooks};
use crate::json;

/// Marker prefix of the one machine-readable line a worker prints on
/// stdout (`key=value` pairs; see [`WorkerStats`]).
pub const WORKER_STATS_PREFIX: &str = "FFIS_WORKER";

/// What one worker process reports back on its stdout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// The half-open plan-index range this worker executed.
    pub start: u64,
    /// Exclusive end of the range.
    pub end: u64,
    /// Runs the worker executed (excludes resumed segment entries).
    pub executed: u64,
    /// Wall-clock seconds for the worker's whole campaign.
    pub wall_s: f64,
}

impl WorkerStats {
    /// Render as the stdout line the coordinator parses.
    pub fn render(&self) -> String {
        format!(
            "{} start={} end={} executed={} wall_ms={}",
            WORKER_STATS_PREFIX,
            self.start,
            self.end,
            self.executed,
            (self.wall_s * 1000.0).round() as u64,
        )
    }

    /// Parse a worker stdout line (`None` if it is not a stats line).
    pub fn parse(line: &str) -> Option<WorkerStats> {
        let rest = line.trim().strip_prefix(WORKER_STATS_PREFIX)?;
        let mut stats = WorkerStats::default();
        for token in rest.split_whitespace() {
            let (key, value) = token.split_once('=')?;
            let n: u64 = value.parse().ok()?;
            match key {
                "start" => stats.start = n,
                "end" => stats.end = n,
                "executed" => stats.executed = n,
                "wall_ms" => stats.wall_s = n as f64 / 1000.0,
                _ => return None,
            }
        }
        Some(stats)
    }
}

/// Everything a distributed campaign hands back: the (byte-identical)
/// campaign result plus the fan-out's own accounting.
pub struct FanoutReport {
    /// The final campaign result, re-derived from the merged journal.
    /// By engine law 7 its tally, kept records, and run digest are
    /// byte-identical to a single-process run of the same spec.
    pub result: CampaignResult,
    /// Worker processes spawned.
    pub workers: usize,
    /// Records the merged journal held before the final pass.
    pub merged_records: u64,
    /// Plan indices the coordinator itself had to execute because no
    /// worker segment covered them (0 when every worker completed).
    pub coordinator_filled: usize,
    /// Per-worker stats, range-ordered (`None` where a worker died
    /// without reporting — its indices land in `coordinator_filled`).
    pub worker_stats: Vec<Option<WorkerStats>>,
}

/// Why a distributed run failed — callers treat the two cases very
/// differently: a [`FanoutError::Setup`] failure happened *before*
/// any campaign ran (spawn, merge, filesystem), so falling back to
/// the in-process path is safe; a [`FanoutError::Campaign`] failure
/// came out of the final resume pass itself and is the job's real
/// outcome (re-running would double-execute).
#[derive(Debug)]
pub enum FanoutError {
    /// The fan-out could not be orchestrated; no result was derived.
    Setup(String),
    /// The final merged-resume campaign failed.
    Campaign(CampaignError),
}

impl std::fmt::Display for FanoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanoutError::Setup(m) => write!(f, "{}", m),
            FanoutError::Campaign(e) => write!(f, "{}", e),
        }
    }
}

/// The worker command for re-invoking the current executable's hidden
/// `daemon worker` subcommand — what `repro` passes to
/// [`run_distributed`].
pub fn self_worker_cmd() -> std::io::Result<Vec<String>> {
    let exe = std::env::current_exe()?;
    Ok(vec![exe.display().to_string(), "daemon".into(), "worker".into()])
}

/// Execute one worker shard in-process: the spec (journaling forced
/// on, resume on so a re-spawned worker reuses its own segment),
/// restricted to `range`, journaled into `segment`, with analyze
/// memoization via the shared memo store under `memo_dir` when given.
/// The checkpoint set is this process's own: built from the plan,
/// used, dropped.
pub fn run_worker(
    spec: &CampaignSpec,
    range: (usize, usize),
    segment: &Path,
    memo_dir: Option<&Path>,
) -> Result<CampaignResult, CampaignError> {
    let mut spec = spec.clone();
    spec.journal = true;
    spec.resume = true;
    let hooks = ExecHooks {
        journal: Some(segment.to_path_buf()),
        memo: memo_dir.map(open_memo),
        index_range: Some(range),
        ..ExecHooks::default()
    };
    execute_spec(&spec, &hooks)
}

/// A disk-backed memo store at `dir`, degrading to memory-only (with
/// a stderr note) if the directory cannot be created — the memo layer
/// is a cache, so degradation costs recomputation, never correctness.
pub fn open_memo(dir: &Path) -> Arc<MemoStore> {
    match MemoStore::at_dir(dir) {
        Ok(store) => Arc::new(store),
        Err(e) => {
            eprintln!(
                "[ffis-daemon] memo store at {} unavailable ({}); using memory only",
                dir.display(),
                e
            );
            Arc::new(MemoStore::in_memory())
        }
    }
}

/// The `repro daemon worker` entry point: load the spec from
/// `--spec`, execute `[--start, --end)` into `--journal`, share
/// analyze memoization under `--memo`, and print one [`WorkerStats`]
/// line.
/// Exit code 0 when the shard completed, 130 when interrupted, and an
/// `Err` (the caller prints it and exits 2) on any structural failure.
pub fn worker_cli(flags: &HashMap<String, String>) -> Result<i32, String> {
    let spec_path = flags.get("spec").ok_or("--spec is required")?;
    let segment = PathBuf::from(flags.get("journal").ok_or("--journal is required")?);
    let parse = |key: &str| -> Result<usize, String> {
        let v = flags.get(key).ok_or_else(|| format!("--{} is required", key))?;
        v.parse().map_err(|_| format!("bad --{} '{}'", key, v))
    };
    let (start, end) = (parse("start")?, parse("end")?);
    if start >= end {
        return Err(format!("empty worker range [{}, {})", start, end));
    }
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("read spec {}: {}", spec_path, e))?;
    let spec = json::parse(&text).and_then(|v| api::spec_from_json(&v))?;
    let memo_dir = flags.get("memo").map(PathBuf::from);
    let started = Instant::now();
    let result = run_worker(&spec, (start, end), &segment, memo_dir.as_deref())
        .map_err(|e| e.to_string())?;
    let stats = WorkerStats {
        start: start as u64,
        end: end as u64,
        executed: result.executed as u64,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!("{}", stats.render());
    Ok(if result.status == ffis_core::CompletionStatus::Complete { 0 } else { 130 })
}

/// Run `spec` across `workers` processes (engine law 7; see the
/// module docs for the three-step shape).
///
/// `work_dir` holds the spec file, per-worker journal segments, and
/// the merged journal; re-running over the same directory resumes.
/// `memo_dir` (when given) is the disk-backed analyze-memo store
/// every worker *and* the final pass mount. `worker_cmd` is the argv
/// prefix for one worker process (usually [`self_worker_cmd`]); the
/// coordinator appends `--spec/--start/--end/--journal[/--memo]`.
/// `hooks` applies to the final resume pass (its `journal`,
/// `checkpoints` and `index_range` fields are overridden); its
/// `cancel` token is also polled while workers run — cancellation
/// kills the children, and the final pass then reports honestly
/// interrupted partial results, every completed run already merged.
pub fn run_distributed(
    spec: &CampaignSpec,
    workers: usize,
    work_dir: &Path,
    memo_dir: Option<&Path>,
    worker_cmd: &[String],
    mut hooks: ExecHooks,
) -> Result<FanoutReport, FanoutError> {
    let setup = FanoutError::Setup;
    let workers = workers.max(1);
    let (exe, prefix_args) = worker_cmd
        .split_first()
        .ok_or_else(|| setup("worker command must name an executable".into()))?;
    std::fs::create_dir_all(work_dir).map_err(|e| setup(format!("work dir: {}", e)))?;

    // Workers must journal; everything else is the caller's spec,
    // verbatim, so planning (and the journal header) is identical in
    // every process.
    let mut worker_spec = spec.clone();
    worker_spec.journal = true;
    let spec_path = work_dir.join("spec.json");
    std::fs::write(&spec_path, api::spec_to_json(&worker_spec).render())
        .map_err(|e| setup(format!("write spec: {}", e)))?;

    let ranges = index_ranges(spec.runs, workers);
    let segments: Vec<PathBuf> =
        (0..ranges.len()).map(|i| work_dir.join(format!("segment-{:02}.journal", i))).collect();

    let mut children: Vec<(Child, Instant)> = Vec::new();
    for ((start, end), segment) in ranges.iter().zip(&segments) {
        let mut cmd = Command::new(exe);
        cmd.args(prefix_args)
            .arg("--spec")
            .arg(&spec_path)
            .arg("--start")
            .arg(start.to_string())
            .arg("--end")
            .arg(end.to_string())
            .arg("--journal")
            .arg(segment)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = memo_dir {
            cmd.arg("--memo").arg(dir);
        }
        let child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => {
                // Reap what already started before reporting: spawn
                // failure is a setup error, and orphaned workers would
                // otherwise keep executing.
                for (running, _) in children.iter_mut() {
                    let _ = running.kill();
                    let _ = running.wait();
                }
                return Err(setup(format!("spawn worker {}: {}", exe, e)));
            }
        };
        children.push((child, Instant::now()));
    }

    // Babysit the children: poll for exit, kill on cancellation. A
    // killed worker's segment keeps its CRC-complete prefix — the
    // merge skips the torn tail and the final pass fills (or honestly
    // interrupts on) the gap.
    let cancel = hooks.cancel.clone();
    let mut worker_stats: Vec<Option<WorkerStats>> = vec![None; children.len()];
    let mut live: Vec<usize> = (0..children.len()).collect();
    while !live.is_empty() {
        if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            for &i in &live {
                let _ = children[i].0.kill();
            }
        }
        live.retain(|&i| match children[i].0.try_wait() {
            Ok(Some(_)) => {
                let mut out = String::new();
                if let Some(mut stdout) = children[i].0.stdout.take() {
                    let _ = stdout.read_to_string(&mut out);
                }
                worker_stats[i] = out.lines().find_map(WorkerStats::parse);
                false
            }
            Ok(None) => true,
            Err(_) => false,
        });
        if !live.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Merge whatever the workers produced. Zero segments (every spawn
    // died before its header) degrades to a plain single-process run.
    let merged = work_dir.join("merged.journal");
    let mut merged_records = 0;
    let mut final_spec = spec.clone();
    if let Some((meta, produced)) = produced_segments(&segments).map_err(setup)? {
        merged_records = merge_segments(&merged, &meta, &produced)
            .map_err(|e| setup(format!("merge segments: {}", e)))?;
        final_spec.journal = true;
        final_spec.resume = true;
        hooks.journal = Some(merged.clone());
    } else {
        hooks.journal = None;
    }
    hooks.index_range = None;
    // Whatever the final pass still has to execute it places its own
    // checkpoints for, like every worker did.
    hooks.checkpoints = None;
    if hooks.memo.is_none() {
        hooks.memo = memo_dir.map(open_memo);
    }
    let result = execute_spec(&final_spec, &hooks).map_err(FanoutError::Campaign)?;

    Ok(FanoutReport {
        coordinator_filled: result.executed,
        result,
        workers: ranges.len(),
        merged_records,
        worker_stats,
    })
}

/// The segments worth merging and the header of the first of them
/// (`None` when no worker produced one).
///
/// `RunJournal::create` truncates and then writes the header, so a
/// worker killed in between leaves a segment whose header does not
/// decode. Such a segment holds no record: it is removed (or the next
/// attempt over this work directory would trip on it again) and counts
/// as not produced, so the final pass fills its range. A header that
/// decodes is kept even if it names another plan; the merge rejects
/// that one with `PlanMismatch`.
fn produced_segments(segments: &[PathBuf]) -> Result<Option<(JournalMeta, Vec<PathBuf>)>, String> {
    let mut first = None;
    let mut produced = Vec::new();
    for segment in segments.iter().filter(|p| p.exists()) {
        match journal::scan(segment) {
            Ok((meta, _)) => {
                first.get_or_insert(meta);
                produced.push(segment.clone());
            }
            Err(JournalError::BadMagic | JournalError::CorruptHeader(_)) => {
                eprintln!(
                    "[ffis-daemon] segment {} has no readable header; its range re-executes",
                    segment.display()
                );
                std::fs::remove_file(segment)
                    .map_err(|e| format!("remove {}: {}", segment.display(), e))?;
            }
            Err(e) => return Err(format!("scan {}: {}", segment.display(), e)),
        }
    }
    Ok(first.map(|meta| (meta, produced)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_stats_lines_round_trip() {
        let stats = WorkerStats { start: 4, end: 9, executed: 5, wall_s: 1.25 };
        let line = stats.render();
        assert!(line.starts_with(WORKER_STATS_PREFIX), "{line}");
        assert_eq!(WorkerStats::parse(&line), Some(stats));
        assert_eq!(WorkerStats::parse("run      3 benign"), None);
        assert_eq!(WorkerStats::parse("FFIS_WORKER start=x"), None);
    }

    /// A worker killed between `RunJournal::create`'s truncate and its
    /// header write leaves an empty (or short) segment. It is dropped
    /// and removed; the segments with a header are merged as before,
    /// and one written for another plan is still the merge's
    /// `PlanMismatch`, not something this selection hides.
    #[test]
    fn segments_without_a_header_are_removed_and_left_to_the_final_pass() {
        let dir = std::env::temp_dir().join(format!("ffis-torn-segment-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = CampaignSpec::new("paced", "BF");
        spec.runs = 9;
        spec.seed = 5;
        let segments: Vec<PathBuf> =
            (0..4).map(|i| dir.join(format!("segment-{:02}.journal", i))).collect();
        std::fs::write(&segments[0], b"").unwrap();
        run_worker(&spec, (3, 6), &segments[1], None).unwrap();
        std::fs::write(&segments[2], b"FFISJ").unwrap();
        // segments[3] was never created.

        let (meta, produced) = produced_segments(&segments).unwrap().expect("one good segment");
        assert_eq!(produced, vec![segments[1].clone()]);
        assert!(!segments[0].exists() && !segments[2].exists(), "torn segments are removed");
        let merged = dir.join("merged.journal");
        assert_eq!(merge_segments(&merged, &meta, &produced).unwrap(), 3);

        // Nothing readable at all: the fan-out degrades to a plain run.
        std::fs::write(&segments[0], b"").unwrap();
        assert!(produced_segments(&segments[..1]).unwrap().is_none());

        let mut other = spec.clone();
        other.seed = 6;
        run_worker(&other, (0, 3), &segments[0], None).unwrap();
        let (meta, produced) = produced_segments(&segments).unwrap().unwrap();
        assert_eq!(produced, segments[..2].to_vec(), "a decodable header is never dropped");
        let err = merge_segments(&merged, &meta, &produced).unwrap_err();
        assert!(matches!(err, JournalError::PlanMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_process_worker_shards_complete_relative_to_their_range() {
        let dir = std::env::temp_dir().join(format!("ffis-worker-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = CampaignSpec::new("paced", "BF");
        spec.runs = 6;
        spec.seed = 3;
        let segment = dir.join("seg.journal");
        let result = run_worker(&spec, (0, 3), &segment, None).unwrap();
        assert_eq!(result.status, ffis_core::CompletionStatus::Complete);
        assert_eq!(result.executed, 3);
        assert!(segment.exists());
        // Re-running the same shard resumes its own segment: nothing
        // executes twice.
        let again = run_worker(&spec, (0, 3), &segment, None).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.resumed, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_cli_rejects_malformed_invocations() {
        let flags: HashMap<String, String> = HashMap::new();
        assert!(worker_cli(&flags).unwrap_err().contains("--spec is required"));
        let mut flags = HashMap::new();
        flags.insert("spec".to_string(), "/nonexistent.json".to_string());
        flags.insert("journal".to_string(), "/tmp/x.journal".to_string());
        flags.insert("start".to_string(), "5".to_string());
        flags.insert("end".to_string(), "5".to_string());
        assert!(worker_cli(&flags).unwrap_err().contains("empty worker range"));
    }
}
