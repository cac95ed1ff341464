//! Daemon integration suite — the REST/NDJSON surface end to end.
//!
//! The tentpole law: a campaign submitted over HTTP produces an
//! [`OutcomeTally`] and run digest byte-identical to an in-process
//! run of the same spec — including when the daemon is SIGKILLed
//! mid-job and a fresh daemon recovers the queue root. Alongside the
//! law, the suite pins the validation surface (HTTP 400 with the CLI's
//! own messages), cancellation, structured failure reasons
//! (plan-mismatch, fuel-exhausted), and the admission cap's real
//! concurrency.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ffis_core::engine::journal;
use ffis_core::{CampaignSpec, JobState, OutcomeTally};
use ffis_daemon::api::{self, StreamEvent};
use ffis_daemon::{execute_spec, Client, Daemon, DaemonConfig, ExecHooks, JobQueue, JobView};

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffis-daemon-api-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A paced-app spec: deterministic, a few ms per run (so kill/cancel
/// tests have a window), serial so the window is wide and predictable.
fn paced_spec(runs: usize, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("paced", "BF");
    spec.runs = runs;
    spec.seed = seed;
    spec.parallel = false;
    spec
}

fn start_daemon(root: &Path, workers: usize) -> Daemon {
    let mut config = DaemonConfig::new(root);
    config.workers = workers;
    Daemon::start(config).unwrap()
}

fn wait_terminal(client: &Client, id: u64) -> JobView {
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

/// One raw HTTP exchange, for requests the typed [`Client`] refuses to
/// produce (malformed JSON, unknown fields). Returns (status, body).
fn raw_exchange(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(
        conn,
        "{} {} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        method,
        path,
        body.len(),
        body
    )
    .unwrap();
    let mut out = String::new();
    conn.read_to_string(&mut out).unwrap();
    let status: u16 =
        out.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

#[test]
fn http_submission_matches_the_in_process_control_byte_for_byte() {
    let spec = paced_spec(24, 0xBEE5);
    let control = execute_spec(&spec, &ExecHooks::default()).unwrap();

    let root = tmp_root("control");
    let mut daemon = start_daemon(&root, 2);
    let client = Client::new(daemon.addr().to_string());

    let id = client.submit(&spec).unwrap();
    let mut events: Vec<StreamEvent> = Vec::new();
    let final_view = client.watch(id, |ev| events.push(ev.clone())).unwrap();

    // Terminal state and the tentpole equality: same tally, same plan,
    // same FNV digest as the in-process run of the same spec.
    assert_eq!(final_view.state, JobState::Complete);
    assert_eq!(final_view.executed, 24);
    assert_eq!(final_view.tally, control.tally);
    assert_eq!(final_view.plan_fingerprint, Some(control.plan_fingerprint));
    assert_eq!(final_view.run_digest, Some(control.run_digest()));

    // Stream shape: snapshot first, exactly one run event per plan
    // index, done last — and the event-folded tally converges on the
    // job's final tally (no_fire law included).
    assert!(matches!(events.first(), Some(StreamEvent::Snapshot(_))), "stream opens with snapshot");
    assert!(matches!(events.last(), Some(StreamEvent::Done(_))), "stream closes with done");
    let mut indices = Vec::new();
    let mut folded = OutcomeTally::default();
    for ev in &events {
        if let StreamEvent::Run { run, outcome, fired, resumed, aborted } = ev {
            indices.push(*run);
            api::fold_run_event(&mut folded, *outcome, *fired);
            assert!(!resumed, "nothing to resume in a fresh job");
            assert!(aborted.is_none(), "no liveness limits configured");
        }
    }
    indices.sort_unstable();
    assert_eq!(indices, (0..24).collect::<Vec<_>>());
    assert_eq!(folded, final_view.tally);

    // The job also shows up in the listing, terminal, with its spec.
    let listed = client.jobs().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].id, id);
    assert_eq!(listed[0].spec, spec);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bad_submissions_are_rejected_with_the_cli_validation_messages() {
    let root = tmp_root("reject");
    let mut daemon = start_daemon(&root, 1);
    let addr = daemon.addr();

    let cases: [(&str, &str); 6] = [
        ("not json at all", "malformed JSON"),
        (r#"{"app":"paced","model":"BF","sead":7}"#, "unknown spec field 'sead'"),
        (r#"{"app":"paced","model":"BF","runs":0}"#, "runs must be at least 1"),
        (r#"{"app":"nyx","model":"BF","grid":8}"#, "below the minimum"),
        (r#"{"app":"nyx","model":"meteor"}"#, "unknown fault model"),
        (r#"{"app":"fortran","model":"BF"}"#, "unknown application 'fortran'"),
    ];
    for (body, needle) in cases {
        let (status, reply) = raw_exchange(addr, "POST", "/api/v0/jobs", body);
        assert_eq!(status, 400, "{body} => {reply}");
        assert!(reply.contains(needle), "{body}: expected {needle:?} in {reply}");
    }
    // Nothing bad ever occupied a queue slot.
    assert!(Client::new(addr.to_string()).jobs().unwrap().is_empty());

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn delete_cancels_running_and_queued_jobs() {
    let root = tmp_root("cancel");
    let mut daemon = start_daemon(&root, 1);
    let client = Client::new(daemon.addr().to_string());

    // One worker slot: the first job runs, the second queues behind it.
    let running = client.submit(&paced_spec(400, 1)).unwrap();
    let queued = client.submit(&paced_spec(400, 2)).unwrap();

    // Cancel the queued job first — it interrupts immediately, without
    // ever occupying the slot.
    let view = client.cancel(queued).unwrap();
    assert_eq!(view.state, JobState::Interrupted);
    assert_eq!(view.executed, 0);

    // Let the running job make real progress, then cancel it: it parks
    // as interrupted after the in-flight run, with a partial tally.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let view = client.job(running).unwrap();
        if view.executed >= 3 {
            break;
        }
        assert!(Instant::now() < deadline, "job never started executing");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.cancel(running).unwrap();
    let view = wait_terminal(&client, running);
    assert_eq!(view.state, JobState::Interrupted);
    assert!(view.executed >= 3);
    assert!(
        (view.tally.total() as usize) < 400,
        "cancellation must land before the campaign finishes"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Re-exec marker: when set, this test binary is the daemon *victim* —
/// it serves the queue root named by the variable until SIGKILLed.
const CHILD_ENV: &str = "FFIS_DAEMON_API_CHILD";

#[test]
fn sigkill_the_daemon_mid_job_then_restart_resumes_byte_identically() {
    if let Ok(root) = std::env::var(CHILD_ENV) {
        // Child mode: serve until the parent kills us — no cleanup, no
        // journal flush beyond the engine's per-run appends.
        let daemon = start_daemon(Path::new(&root), 1);
        std::fs::write(Path::new(&root).join("addr.txt"), daemon.addr().to_string()).unwrap();
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    }

    const RUNS: usize = 96;
    let spec = paced_spec(RUNS, 0xD1E5);
    let control = execute_spec(&spec, &ExecHooks::default()).unwrap();

    let root = tmp_root("sigkill");
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(&exe)
        .args([
            "--exact",
            "sigkill_the_daemon_mid_job_then_restart_resumes_byte_identically",
            "--test-threads",
            "1",
            "--nocapture",
        ])
        .env(CHILD_ENV, &root)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the child daemon's serve handshake, then submit.
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
    let id = Client::new(addr).submit(&spec).unwrap();

    // SIGKILL once the job's journal shows real progress — the
    // mid-job crash the persistent queue exists for.
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

    // A fresh daemon on the same root recovers the queue and resumes
    // the interrupted job; the resume law makes the result
    // byte-identical to the uninterrupted in-process control.
    let mut daemon = start_daemon(&root, 1);
    let client = Client::new(daemon.addr().to_string());
    let view = wait_terminal(&client, id);
    assert_eq!(view.state, JobState::Complete);
    assert!(view.resumed >= 1, "nothing was replayed from the journal");
    assert_eq!(view.executed + view.resumed, RUNS, "every run accounted for exactly once");
    assert_eq!(view.tally, control.tally);
    assert_eq!(view.plan_fingerprint, Some(control.plan_fingerprint));
    assert_eq!(view.run_digest, Some(control.run_digest()));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_drifted_spec_fails_with_a_structured_plan_mismatch() {
    let root = tmp_root("mismatch");
    let mut daemon = start_daemon(&root, 1);
    let client = Client::new(daemon.addr().to_string());
    let id = client.submit(&paced_spec(12, 77)).unwrap();
    let view = wait_terminal(&client, id);
    assert_eq!(view.state, JobState::Complete);
    daemon.shutdown();

    // Drift the persisted spec under the completed journal and drop
    // the terminal result: recovery re-runs the job, the journal's
    // plan fingerprint no longer matches, and the API surfaces a
    // structured `plan-mismatch` failure — not a log line.
    let dir = root.join("jobs").join(id.to_string());
    let spec_path = dir.join("spec.json");
    let text = std::fs::read_to_string(&spec_path).unwrap();
    let mut spec = api::spec_from_json(&ffis_daemon::json::parse(&text).unwrap()).unwrap();
    spec.seed += 1;
    std::fs::write(&spec_path, api::spec_to_json(&spec).render()).unwrap();
    std::fs::remove_file(dir.join("result.json")).unwrap();

    let mut daemon = start_daemon(&root, 1);
    let client = Client::new(daemon.addr().to_string());
    let view = wait_terminal(&client, id);
    assert_eq!(view.state, JobState::Failed);
    let failure = view.failure.expect("failed jobs carry a failure reason");
    assert_eq!(failure.kind(), "plan-mismatch");
    match failure {
        ffis_core::JobFailure::PlanMismatch { found, expected } => {
            assert_ne!(found, expected, "the two fingerprints must differ");
        }
        other => panic!("wrong failure: {other}"),
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fuel_exhaustion_surfaces_as_counters_and_stream_fields() {
    let root = tmp_root("fuel");
    let mut daemon = start_daemon(&root, 1);
    let client = Client::new(daemon.addr().to_string());

    // One I/O op of fuel: every injection run's mount unwinds almost
    // immediately (the golden run is never fueled).
    let mut spec = paced_spec(6, 5);
    spec.fuel = Some(1);
    let id = client.submit(&spec).unwrap();
    let mut aborted_events = 0usize;
    let view = client
        .watch(id, |ev| {
            if let StreamEvent::Run { aborted: Some(reason), .. } = ev {
                assert_eq!(reason, "fuel-exhausted");
                aborted_events += 1;
            }
        })
        .unwrap();
    assert_eq!(view.state, JobState::Complete);
    assert!(view.fuel_exhausted > 0, "the fuel watchdog must have fired");
    assert_eq!(view.fuel_exhausted as usize, aborted_events);
    assert_eq!(view.deadline_exceeded, 0);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_admission_cap_runs_jobs_concurrently_and_deterministically() {
    let root = tmp_root("concurrent");
    let mut daemon = start_daemon(&root, 2);
    let client = Client::new(daemon.addr().to_string());

    // Two worker slots, two long-enough jobs: both must actually hold
    // a slot at the same time.
    let a = client.submit(&paced_spec(200, 0xA)).unwrap();
    let b = client.submit(&paced_spec(200, 0xB)).unwrap();
    let view_a = wait_terminal(&client, a);
    let view_b = wait_terminal(&client, b);
    assert_eq!(view_a.state, JobState::Complete);
    assert_eq!(view_b.state, JobState::Complete);
    let (_, _, max_concurrent) = client.health().unwrap();
    assert!(max_concurrent >= 2, "two jobs never overlapped (max_concurrent {})", max_concurrent);

    // Determinism under concurrency: resubmitting job A's spec yields
    // its exact digest, regardless of what ran beside it.
    let again = client.submit(&paced_spec(200, 0xA)).unwrap();
    let view_again = wait_terminal(&client, again);
    assert_eq!(view_again.tally, view_a.tally);
    assert_eq!(view_again.run_digest, view_a.run_digest);
    assert_ne!(view_a.run_digest, view_b.run_digest, "different seeds, different digests");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_late_subscriber_still_receives_one_run_event_per_plan_index() {
    const RUNS: usize = 40;
    let root = tmp_root("late");
    let mut daemon = start_daemon(&root, 1);
    let client = Client::new(daemon.addr().to_string());
    let id = client.submit(&paced_spec(RUNS, 0x1A7E)).unwrap();

    // Open the stream only once the job is demonstrably under way.
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.job(id).unwrap().executed < 2 {
        assert!(Instant::now() < deadline, "job never started executing");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut events: Vec<StreamEvent> = Vec::new();
    let final_view = client.watch(id, |ev| events.push(ev.clone())).unwrap();
    assert_eq!(final_view.state, JobState::Complete);

    match events.first() {
        Some(StreamEvent::Snapshot(view)) => {
            assert!(view.executed >= 2, "subscribed too early to test anything");
        }
        other => panic!("stream opens with {other:?}"),
    }
    let mut indices = Vec::new();
    let mut folded = OutcomeTally::default();
    for ev in &events {
        if let StreamEvent::Run { run, outcome, fired, .. } = ev {
            indices.push(*run);
            api::fold_run_event(&mut folded, *outcome, *fired);
        }
    }
    indices.sort_unstable();
    assert_eq!(indices, (0..RUNS).collect::<Vec<_>>(), "one run event per plan index");
    assert_eq!(folded, final_view.tally);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The six job types of the benchmark's `daemon_jobs` workload at its
/// smoke size: three applications, four distinct `(app, grid, files)`.
fn service_job_types() -> Vec<CampaignSpec> {
    let spec = |app: &str, model: &str, site: &str, files: usize| {
        let mut s = CampaignSpec::new(app, model);
        s.site = site.into();
        s.grid = 16;
        s.files = files;
        s.runs = 16;
        s
    };
    vec![
        spec("nyx", "BF", "write", 1),
        spec("nyx", "DW", "write", 1),
        spec("nyx", "BF", "read", 1),
        spec("montage", "SW", "write", 2),
        spec("montage", "BF", "read", 2),
        spec("qmc", "BF", "write", 1),
    ]
}

fn wait_in_queue(queue: &JobQueue, id: u64) -> JobView {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let view = queue.job(id).unwrap();
        if !view.state.is_active() {
            return view;
        }
        assert!(Instant::now() < deadline, "job {id} never reached a terminal state");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A job served from the queue's shared applications answers exactly
/// what a bare in-process run of its spec answers.
fn assert_same_as_bare_run(view: &JobView) {
    let bare = execute_spec(&view.spec, &ExecHooks::default()).unwrap();
    let id = format!("{} {} seed {:#x}", view.spec.app, view.spec.label(), view.spec.seed);
    assert_eq!(view.state, JobState::Complete, "{id}");
    assert_eq!(view.run_digest, Some(bare.run_digest()), "{id}: run digest");
    assert_eq!(view.tally, bare.tally, "{id}: tally");
    assert_eq!(view.plan_fingerprint, Some(bare.plan_fingerprint), "{id}: plan fingerprint");
}

#[test]
fn jobs_over_shared_applications_answer_like_bare_runs_and_build_each_app_once() {
    let root = tmp_root("appcache");
    let queue = JobQueue::open(&root, 1).unwrap();
    assert_eq!((queue.app_builds(), queue.golden_runs()), (0, 0));
    let mut ids = Vec::new();
    for round in 0..3u64 {
        for (k, mut spec) in service_job_types().into_iter().enumerate() {
            spec.seed = 0xA99 + round * 100 + k as u64;
            ids.push(queue.submit(spec).unwrap());
        }
    }
    for id in ids {
        assert_same_as_bare_run(&wait_in_queue(&queue, id));
    }
    // nyx g16 f1, montage g16 f2, qmc g16 f1 — not one per job.
    assert_eq!(queue.app_builds(), 3);
    // Nor one golden run per job: one per application and capture
    // set. With the replay fast paths on, single-file Nyx (no
    // sub-steps) records the read ledger for its read-site jobs only;
    // 2-tile Montage records it at both sites; QMC has one job type.
    // With them off (`FFIS_REPLAY=0`) nothing is captured at all.
    let distinct = if ffis_core::replay_default() { 4 } else { 3 };
    assert_eq!(queue.golden_runs(), distinct, "18 jobs");
    // An in-process job places its checkpoints against its own draws,
    // uses them and drops them: the only store the queue keeps on disk
    // is the memo store.
    let stored: Vec<String> = std::fs::read_dir(root.join("store"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(stored, ["memo"], "<root>/store after in-process jobs");
    queue.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn two_slots_racing_for_one_application_build_it_once() {
    let root = tmp_root("appcache-race");
    let queue = JobQueue::open(&root, 2).unwrap();
    // Two QMC jobs: constructing their application takes longer than
    // anything else a slot does before it, so the second slot arrives
    // while the first is still building.
    let mut qmc = service_job_types().pop().unwrap();
    let ids: Vec<u64> = [0xC0, 0xC1]
        .into_iter()
        .map(|seed| {
            qmc.seed = seed;
            queue.submit(qmc.clone()).unwrap()
        })
        .collect();
    let views: Vec<JobView> = ids.iter().map(|&id| wait_in_queue(&queue, id)).collect();
    assert_eq!(queue.counts().2, 2, "the two jobs never held a slot at the same time");
    assert_eq!(queue.app_builds(), 1, "the slot that lost the race waited for the winner");
    for view in &views {
        assert_same_as_bare_run(view);
    }
    queue.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
