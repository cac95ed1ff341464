//! The true multi-*process* distributed differential: run the real
//! `repro` binary once with `--workers 2` (spawning real worker
//! processes) and once single-process, and demand byte-identical
//! `DIGESTS.txt` — engine law 7 at the outermost boundary the project
//! has. This is the same comparison the `scale-smoke` CI job makes at
//! grid 64. The second test drives the same worker binary from a
//! daemon queue with `fanout: 2`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use ffis_core::{CampaignSpec, JobState};
use ffis_daemon::{execute_spec, ExecHooks, JobQueue, QueueOptions};

fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffis-distproc-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repro_scale(out: &Path, extra: &[&str]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["scale", "--grid", "16", "--runs", "8", "--seed", "42", "--out"])
        .arg(out)
        .args(extra);
    let status = cmd.status().expect("repro binary runs");
    assert!(status.success(), "repro scale {:?} failed", extra);
}

#[test]
fn worker_processes_reproduce_the_single_process_digests() {
    let dist = out_dir("dist");
    let ctrl = out_dir("ctrl");
    repro_scale(&dist, &["--workers", "2"]);
    repro_scale(&ctrl, &[]);

    let dist_digests = std::fs::read_to_string(dist.join("DIGESTS.txt")).unwrap();
    let ctrl_digests = std::fs::read_to_string(ctrl.join("DIGESTS.txt")).unwrap();
    assert!(!dist_digests.is_empty(), "distributed run produced no digests");
    assert_eq!(dist_digests, ctrl_digests, "law 7 violated across process boundaries");

    // The distributed invocation's report carries the fan-out section,
    // printed only after its serial-control digest asserts passed
    // in-process; the single-process control must not claim one.
    let section = "Distributed fan-out — 2 worker processes";
    let dist_report = std::fs::read_to_string(dist.join("scale.txt")).unwrap();
    assert!(dist_report.contains(section), "no fan-out section in:\n{}", dist_report);
    let ctrl_report = std::fs::read_to_string(ctrl.join("scale.txt")).unwrap();
    assert!(!ctrl_report.contains(section), "control claims a fan-out:\n{}", ctrl_report);

    let _ = std::fs::remove_dir_all(&dist);
    let _ = std::fs::remove_dir_all(&ctrl);
}

/// Every directory named `name` under `root`, at any depth.
fn dirs_named(root: &Path, name: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()) {
            if entry.is_dir() {
                if entry.file_name().is_some_and(|n| n == name) {
                    found.push(entry.clone());
                }
                pending.push(entry);
            }
        }
    }
    found
}

/// `QueueOptions::fanout > 1` end to end: the queue shards one job over
/// two real worker processes, merges their segments and reports the
/// digest of a bare in-process run. Each process placed its own
/// checkpoints, so the root holds the shared memo tier and no
/// persisted checkpoint set.
#[test]
fn a_queue_job_fans_out_over_worker_processes() {
    let root = out_dir("queue");
    let options = QueueOptions {
        fanout: 2,
        worker_cmd: Some(vec![
            env!("CARGO_BIN_EXE_repro").to_string(),
            "daemon".into(),
            "worker".into(),
        ]),
        ..QueueOptions::default()
    };
    let mut spec = CampaignSpec::new("nyx", "BF");
    spec.site = "write".into();
    spec.grid = 16;
    spec.runs = 8;
    spec.seed = 0x51AF;
    let control = execute_spec(&spec, &ExecHooks::default()).unwrap();

    let queue = JobQueue::open_with(&root, 1, options).unwrap();
    let id = queue.submit(spec.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let view = loop {
        let view = queue.job(id).unwrap();
        if !view.state.is_active() {
            break view;
        }
        assert!(Instant::now() < deadline, "job {id} never reached a terminal state");
        std::thread::sleep(Duration::from_millis(15));
    };
    queue.shutdown();

    assert_eq!(view.state, JobState::Complete, "{:?}", view.failure);
    assert_eq!(view.run_digest, Some(control.run_digest()), "law 7 violated through the queue");
    assert_eq!(view.tally, control.tally);
    assert_eq!(view.executed, 0, "the workers ran every index; the final pass only resumes");
    assert_eq!(view.resumed, spec.runs);
    let fanout = root.join("jobs").join(id.to_string()).join("fanout");
    for segment in ["segment-00.journal", "segment-01.journal"] {
        assert!(fanout.join(segment).exists(), "{segment} missing: the job ran in-process");
    }
    let store: Vec<_> =
        std::fs::read_dir(root.join("store")).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(store, ["memo"], "the store holds the memo tier only");
    assert_eq!(dirs_named(&root, "manifests"), Vec::<PathBuf>::new());
    let _ = std::fs::remove_dir_all(&root);
}
