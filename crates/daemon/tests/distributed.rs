//! Distributed fan-out + retention integration suite.
//!
//! Two laws are pinned here. First, engine law 7 (the distributed
//! merge law) as a differential test over every paper app: a run plan
//! sharded across workers — each building its *own* checkpoint set
//! from the plan, exactly the cross-process topology — merges back to
//! the single-process result byte for byte.
//! Second, the jobs-directory retention contract: `--retain N` only
//! ever collects terminal jobs, so a daemon SIGKILLed mid-job can be
//! restarted with an aggressive retention cap and the interrupted job
//! still resumes to byte-identical completion while the old terminal
//! directories disappear.
//!
//! (The true multi-*process* differential — spawned worker binaries —
//! lives in the bench crate's `distributed_process` test and the
//! `scale-smoke` CI job, which diff `DIGESTS.txt` between a
//! `--workers 2` invocation and a single-process control.)

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ffis_core::engine::{index_ranges, journal, merge_segments};
use ffis_core::{CampaignSpec, CompletionStatus, JobState};
use ffis_daemon::distributed::{open_memo, run_worker};
use ffis_daemon::{execute_spec, Client, Daemon, DaemonConfig, ExecHooks};

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffis-dist-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn paced_spec(runs: usize, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("paced", "BF");
    spec.runs = runs;
    spec.seed = seed;
    spec.parallel = false;
    spec
}

fn start_daemon(root: &Path, retain: Option<usize>) -> Daemon {
    let mut config = DaemonConfig::new(root);
    config.workers = 1;
    config.retain = retain;
    Daemon::start(config).unwrap()
}

fn wait_terminal(client: &Client, id: u64) -> ffis_daemon::JobView {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let view = client.job(id).unwrap();
        if !view.state.is_active() {
            return view;
        }
        assert!(Instant::now() < deadline, "job {} never reached a terminal state", id);
        std::thread::sleep(Duration::from_millis(15));
    }
}

/// The law-7 differential for one app: shard across three workers
/// (each placing its own checkpoints, nothing shared), merge the
/// segments, resume over the merged journal, and demand the
/// single-process control's exact tally, fingerprint, and digest.
fn assert_sharded_matches_serial(app: &str, seed: u64) {
    let mut spec = CampaignSpec::new(app, "BF");
    spec.site = "write".into();
    spec.grid = 16;
    spec.runs = 10;
    spec.seed = seed;
    let control = execute_spec(&spec, &ExecHooks::default()).unwrap();
    assert_eq!(control.status, CompletionStatus::Complete, "{app}: control");

    let dir = tmp_root(&format!("law7-{}", app));
    let ranges = index_ranges(spec.runs, 3);
    let segments: Vec<PathBuf> =
        (0..ranges.len()).map(|i| dir.join(format!("seg-{i}.journal"))).collect();
    std::thread::scope(|s| {
        for (range, segment) in ranges.iter().zip(&segments) {
            let spec = &spec;
            s.spawn(move || {
                let res = run_worker(spec, *range, segment, None).unwrap();
                assert_eq!(res.status, CompletionStatus::Complete, "{app}: shard {range:?}");
                assert_eq!(res.executed, range.1 - range.0, "{app}: shard {range:?}");
            });
        }
    });

    let (meta, _) = journal::scan(&segments[0]).unwrap();
    let merged = dir.join("merged.journal");
    let records = merge_segments(&merged, &meta, &segments).unwrap();
    assert_eq!(records as usize, spec.runs, "{app}: merged journal must cover the plan");

    let mut fspec = spec.clone();
    fspec.journal = true;
    fspec.resume = true;
    let hooks = ExecHooks { journal: Some(merged), ..ExecHooks::default() };
    let merged_result = execute_spec(&fspec, &hooks).unwrap();
    assert_eq!(merged_result.status, CompletionStatus::Complete, "{app}");
    assert_eq!(merged_result.executed, 0, "{app}: nothing may execute twice");
    assert_eq!(merged_result.resumed, spec.runs, "{app}");
    assert_eq!(merged_result.tally, control.tally, "{app}: tally diverged");
    assert_eq!(merged_result.plan_fingerprint, control.plan_fingerprint, "{app}");
    assert_eq!(merged_result.run_digest(), control.run_digest(), "{app}: digest diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_nyx_merges_to_the_single_process_result() {
    assert_sharded_matches_serial("nyx", 0x51AB);
}

#[test]
fn sharded_qmc_merges_to_the_single_process_result() {
    assert_sharded_matches_serial("qmc", 0x51AC);
}

#[test]
fn sharded_montage_merges_to_the_single_process_result() {
    assert_sharded_matches_serial("montage", 0x51AD);
}

/// Memo sharing across fan-out workers, the one store they do share
/// (its keys are content, not demand): two workers split a multi-file
/// Montage write campaign (the regime where the analyze memo engages), each
/// opening its own `MemoStore` handle on one shared disk directory.
/// The merged result must equal the single-process control byte for
/// byte, and the shared memo tier must have actually persisted
/// sub-step artifacts to disk — one worker's analyze is the other's
/// (and a restarted daemon's) disk hit.
#[test]
fn workers_sharing_a_memo_disk_tier_merge_to_the_single_process_digest() {
    let mut spec = CampaignSpec::new("montage", "BF");
    spec.site = "write".into();
    spec.grid = 16;
    spec.files = 4;
    spec.runs = 10;
    spec.seed = 0x51AE;
    let control = execute_spec(&spec, &ExecHooks::default()).unwrap();
    assert_eq!(control.status, CompletionStatus::Complete, "control");

    let dir = tmp_root("memo-share");
    let memo_dir = dir.join("memo");
    let ranges = index_ranges(spec.runs, 2);
    let segments: Vec<PathBuf> =
        (0..ranges.len()).map(|i| dir.join(format!("seg-{i}.journal"))).collect();
    std::thread::scope(|s| {
        for (range, segment) in ranges.iter().zip(&segments) {
            let (spec, memo_dir) = (&spec, &memo_dir);
            s.spawn(move || {
                let res = run_worker(spec, *range, segment, Some(memo_dir)).unwrap();
                assert_eq!(res.status, CompletionStatus::Complete, "shard {range:?}");
            });
        }
    });
    let persisted = std::fs::read_dir(&memo_dir).map(|entries| entries.count()).unwrap_or(0);
    assert!(persisted > 0, "the shared memo disk tier persisted nothing");

    let (meta, _) = journal::scan(&segments[0]).unwrap();
    let merged = dir.join("merged.journal");
    let records = merge_segments(&merged, &meta, &segments).unwrap();
    assert_eq!(records as usize, spec.runs, "merged journal must cover the plan");

    let mut fspec = spec.clone();
    fspec.journal = true;
    fspec.resume = true;
    let hooks = ExecHooks {
        journal: Some(merged),
        memo: Some(open_memo(&memo_dir)),
        ..ExecHooks::default()
    };
    let merged_result = execute_spec(&fspec, &hooks).unwrap();
    assert_eq!(merged_result.status, CompletionStatus::Complete);
    assert_eq!(merged_result.executed, 0, "nothing may execute twice");
    assert_eq!(merged_result.tally, control.tally, "tally diverged");
    assert_eq!(merged_result.run_digest(), control.run_digest(), "digest diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-exec marker: when set, this test binary is the daemon *victim* —
/// it serves the queue root named by the variable until SIGKILLed.
const CHILD_ENV: &str = "FFIS_DIST_RETENTION_CHILD";

#[test]
fn retention_gc_spares_interrupted_jobs_which_resume_after_restart() {
    if let Ok(root) = std::env::var(CHILD_ENV) {
        // Child mode: serve (no retention) until the parent kills us.
        let daemon = start_daemon(Path::new(&root), None);
        std::fs::write(Path::new(&root).join("addr.txt"), daemon.addr().to_string()).unwrap();
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    }

    const RUNS: usize = 96;
    let spec = paced_spec(RUNS, 0xCAFE);
    let control = execute_spec(&spec, &ExecHooks::default()).unwrap();

    let root = tmp_root("retention");
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(&exe)
        .args([
            "--exact",
            "retention_gc_spares_interrupted_jobs_which_resume_after_restart",
            "--test-threads",
            "1",
            "--nocapture",
        ])
        .env(CHILD_ENV, &root)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    let addr_file = root.join("addr.txt");
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "child daemon never published its address");
        std::thread::sleep(Duration::from_millis(10));
    };
    let client = Client::new(addr);

    // Two quick jobs reach terminal state (GC fodder), then the victim
    // job starts and the daemon dies mid-run.
    let a = client.submit(&paced_spec(4, 1)).unwrap();
    let b = client.submit(&paced_spec(4, 2)).unwrap();
    assert_eq!(wait_terminal(&client, a).state, JobState::Complete);
    assert_eq!(wait_terminal(&client, b).state, JobState::Complete);
    let id = client.submit(&spec).unwrap();

    let jpath = root.join("jobs").join(id.to_string()).join("run.journal");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen = 0usize;
    loop {
        if let Ok((_, ends)) = journal::scan(&jpath) {
            seen = ends.len();
            if seen >= 8 {
                break;
            }
        }
        if matches!(child.try_wait(), Ok(Some(_))) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(seen >= 1, "the daemon never journaled a run");
    let job_dir = |id: u64| root.join("jobs").join(id.to_string());
    assert!(job_dir(a).exists() && job_dir(b).exists(), "no GC ran in the child");

    // Restart with retain=1: the open-time sweep may only collect
    // *terminal* jobs beyond the cap — the interrupted job is not GC
    // fodder and must resume to byte-identical completion.
    let mut daemon = start_daemon(&root, Some(1));
    let client = Client::new(daemon.addr().to_string());
    let view = wait_terminal(&client, id);
    assert_eq!(view.state, JobState::Complete);
    assert!(view.resumed >= 1, "nothing was replayed from the journal");
    assert_eq!(view.executed + view.resumed, RUNS, "every run accounted for exactly once");
    assert_eq!(view.tally, control.tally);
    assert_eq!(view.run_digest, Some(control.run_digest()));
    assert!(job_dir(id).join("result.json").exists(), "the survivor keeps its terminal result");

    // The oldest terminal job went at open; once the resumed job turned
    // terminal a second sweep leaves it as the single retained job.
    assert!(!job_dir(a).exists(), "oldest terminal job must be collected at open");
    let deadline = Instant::now() + Duration::from_secs(30);
    while job_dir(b).exists() {
        assert!(Instant::now() < deadline, "post-completion sweep never collected job {}", b);
        std::thread::sleep(Duration::from_millis(10));
    }
    let listed = client.jobs().unwrap();
    assert!(listed.iter().any(|j| j.id == id), "the resumed job stays listed");
    assert!(!listed.iter().any(|j| j.id == a), "collected jobs leave the listing");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
