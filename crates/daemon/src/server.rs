//! The REST/NDJSON surface: route table, request decoding, and the
//! [`Daemon`] handle that ties the HTTP listener to the job queue.
//!
//! ## Routes (optionally prefixed `/api/v0`)
//!
//! | method & path | behaviour |
//! |---|---|
//! | `POST /jobs` | submit a [`CampaignSpec`](ffis_core::CampaignSpec); 200 `{"id": n}`, 400 on any spec error |
//! | `GET /jobs` | list every job (snapshot array) |
//! | `GET /jobs/:id` | one job's live status + partial tally |
//! | `GET /jobs/:id/stream` | chunked NDJSON: `snapshot`, then one `run` event per plan index, then `done` |
//! | `DELETE /jobs/:id` | cancel (queued → interrupted now; running → after the in-flight run) |
//! | `GET /healthz` | `{"status":"ok", "running", "queued", "max_concurrent", "app_builds", "golden_runs"}` — the last two count what the queue built once and shared: applications per `(app, grid, files)`, golden runs per `(application, capture set)` |
//! | `GET /bench` | list `BENCH_*.json` artifacts; `GET /bench/:name` serves one |

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::api;
use crate::http::{HttpServer, Reply, Request, Stopper};
use crate::jobs::JobQueue;
use crate::json::{self, Json};

/// Daemon settings: queue root, bind address, admission cap.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// State directory (job specs, journals, results live under
    /// `<root>/jobs/`).
    pub root: PathBuf,
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Admission cap: number of campaign worker threads (= maximum
    /// concurrently running jobs; the rest queue FIFO).
    pub workers: usize,
    /// Directory scanned for `BENCH_*.json` artifacts (`GET /bench`).
    pub bench_dir: Option<PathBuf>,
    /// Terminal job-directory retention cap (`--retain N`): keep at
    /// most this many `complete`/`failed` job directories, collecting
    /// the oldest first. Resumable jobs are never collected. `None`
    /// keeps everything.
    pub retain: Option<usize>,
    /// Worker *processes* per job (`--fanout N`): `N > 1` shards each
    /// journaled job's run plan across `N` spawned worker processes
    /// that share the root's memo store (engine law 7). `1` runs jobs
    /// in-process.
    pub fanout: usize,
}

impl DaemonConfig {
    /// A config rooted at `root` on an ephemeral localhost port with
    /// two worker slots.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            root: root.into(),
            addr: "127.0.0.1:0".into(),
            workers: 2,
            bench_dir: None,
            retain: None,
            fanout: 1,
        }
    }
}

/// A running daemon: HTTP listener + job queue. Dropping the handle
/// does **not** stop it; call [`Daemon::shutdown`].
pub struct Daemon {
    queue: Arc<JobQueue>,
    addr: std::net::SocketAddr,
    stop: Stopper,
    listener: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Bind, recover the queue (resuming interrupted jobs), and serve.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let options = crate::jobs::QueueOptions {
            retain: config.retain,
            fanout: config.fanout,
            worker_cmd: None,
        };
        let queue = JobQueue::open_with(&config.root, config.workers, options)?;
        let server = HttpServer::bind(&config.addr)?;
        let (addr, stop) = (server.addr(), server.stopper());
        let handler = {
            let queue = Arc::clone(&queue);
            let bench_dir = config.bench_dir.clone();
            Arc::new(move |req: &Request| route(&queue, bench_dir.as_deref(), req))
        };
        // Two HTTP threads per worker slot: streams occupy one for a
        // job's whole lifetime, so status polls need headroom.
        let http_workers = config.workers.max(1) * 2 + 2;
        let listener = std::thread::spawn(move || {
            if let Err(e) = server.serve(http_workers, handler) {
                eprintln!("[ffis-daemon] listener error: {}", e);
            }
        });
        Ok(Daemon { queue, addr, stop, listener: Some(listener) })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The underlying queue (for in-process submission in tests).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// Graceful shutdown: stop accepting connections, cancel active
    /// jobs, flush journals, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.stop();
        self.queue.shutdown();
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Best effort: a dropped handle still stops the listener so
        // tests cannot leak accept loops. After `shutdown` the port is
        // no longer ours to connect to.
        if self.listener.is_some() {
            self.stop.stop();
        }
    }
}

/// Dispatch one request against the queue. Public so tests can drive
/// the route table without a socket.
pub fn route(queue: &Arc<JobQueue>, bench_dir: Option<&Path>, req: &Request) -> Reply {
    let path = req.path.strip_prefix("/api/v0").unwrap_or(&req.path);
    let path = if path.is_empty() { "/" } else { path };
    let segments: Vec<&str> = path.trim_matches('/').split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let (running, queued, max_concurrent) = queue.counts();
            Reply::Json(
                200,
                Json::Obj(vec![
                    ("status".into(), Json::Str("ok".into())),
                    ("running".into(), Json::Num(running as f64)),
                    ("queued".into(), Json::Num(queued as f64)),
                    ("max_concurrent".into(), Json::Num(max_concurrent as f64)),
                    ("app_builds".into(), Json::Num(queue.app_builds() as f64)),
                    ("golden_runs".into(), Json::Num(queue.golden_runs() as f64)),
                ]),
            )
        }
        ("POST", ["jobs"]) => submit(queue, &req.body),
        ("GET", ["jobs"]) => {
            let views = queue.jobs().iter().map(api::job_to_json).collect();
            Reply::Json(200, Json::Arr(views))
        }
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => match queue.job(id) {
                Some(view) => Reply::Json(200, api::job_to_json(&view)),
                None => Reply::error(404, format!("no job {}", id)),
            },
            None => Reply::error(400, format!("bad job id '{}'", id)),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id) {
            Some(id) => match queue.cancel(id) {
                Some(view) => Reply::Json(200, api::job_to_json(&view)),
                None => Reply::error(404, format!("no job {}", id)),
            },
            None => Reply::error(400, format!("bad job id '{}'", id)),
        },
        ("GET", ["jobs", id, "stream"]) => match parse_id(id) {
            Some(id) => match queue.subscribe(id) {
                Some((snapshot, rx)) => Reply::Stream(Box::new(move |out| {
                    out.line(&api::snapshot_line(&snapshot))?;
                    // The queue sends pre-rendered lines and drops the
                    // sender after `done`; recv errors end the stream.
                    while let Ok(line) = rx.recv() {
                        out.line(&line)?;
                    }
                    Ok(())
                })),
                None => Reply::error(404, format!("no job {}", id)),
            },
            None => Reply::error(400, format!("bad job id '{}'", id)),
        },
        ("GET", ["bench"]) => bench_index(bench_dir),
        ("GET", ["bench", name]) => bench_artifact(bench_dir, name),
        _ => Reply::error(404, format!("no route for {} {}", req.method, req.path)),
    }
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

fn submit(queue: &Arc<JobQueue>, body: &[u8]) -> Reply {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return Reply::error(400, "body is not UTF-8"),
    };
    let value = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return Reply::error(400, format!("malformed JSON: {}", e)),
    };
    let spec = match api::spec_from_json(&value) {
        Ok(spec) => spec,
        Err(e) => return Reply::error(400, &e),
    };
    match queue.submit(spec) {
        Ok(id) => Reply::Json(200, Json::Obj(vec![("id".into(), json::u64_value(id))])),
        Err(e) => Reply::error(400, &e),
    }
}

fn bench_index(dir: Option<&Path>) -> Reply {
    let Some(dir) = dir else {
        return Reply::error(404, "no bench directory configured");
    };
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    if names.is_empty() {
        // A structured 404, not an empty 200: "nothing published yet"
        // and "no artifacts match" are client-visible conditions, not
        // a silent empty list.
        return Reply::error(404, "no bench artifacts published yet (no BENCH_*.json files)");
    }
    names.sort();
    Reply::Json(200, Json::Arr(names.into_iter().map(Json::Str).collect()))
}

fn bench_artifact(dir: Option<&Path>, name: &str) -> Reply {
    let Some(dir) = dir else {
        return Reply::error(404, "no bench directory configured");
    };
    // The artifact namespace is flat BENCH_*.json; anything else (in
    // particular path traversal) is not a bench name.
    if !name.starts_with("BENCH_") || !name.ends_with(".json") || name.contains(['/', '\\']) {
        return Reply::error(404, format!("no bench artifact '{}'", name));
    }
    match std::fs::read(dir.join(name)) {
        Ok(bytes) => Reply::Raw(200, "application/json", bytes),
        Err(_) => Reply::error(404, format!("no bench artifact '{}'", name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_core::engine::job::CampaignSpec;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ffis-daemon-route-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), body: Vec::new() }
    }

    #[test]
    fn routes_strip_the_api_prefix_and_404_unknowns() {
        let root = temp_root("prefix");
        let queue = JobQueue::open(&root, 1).unwrap();
        for path in ["/healthz", "/api/v0/healthz"] {
            match route(&queue, None, &get(path)) {
                Reply::Json(200, Json::Obj(fields)) => {
                    for key in ["status", "max_concurrent", "app_builds", "golden_runs"] {
                        assert!(fields.iter().any(|(k, _)| k == key), "{path}: no {key}");
                    }
                }
                other => panic!("{} => {:?}", path, reply_tag(&other)),
            }
        }
        match route(&queue, None, &get("/nope")) {
            Reply::Json(404, _) => {}
            other => panic!("{:?}", reply_tag(&other)),
        }
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submit_rejects_bad_bodies_with_400() {
        let root = temp_root("submit");
        let queue = JobQueue::open(&root, 1).unwrap();
        let cases: [&[u8]; 3] = [
            b"not json",
            br#"{"app":"paced","model":"BF","bogus":1}"#,
            br#"{"app":"paced","model":"BF","runs":0}"#,
        ];
        for body in cases {
            let req = Request { method: "POST".into(), path: "/jobs".into(), body: body.to_vec() };
            match route(&queue, None, &req) {
                Reply::Json(400, _) => {}
                other => panic!("{:?} for {:?}", reply_tag(&other), String::from_utf8_lossy(body)),
            }
        }
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bench_routes_serve_only_flat_bench_json() {
        let root = temp_root("bench");
        let bench = root.join("bench");
        std::fs::create_dir_all(&bench).unwrap();
        std::fs::write(bench.join("BENCH_demo.json"), b"{\"ok\":true}").unwrap();
        std::fs::write(bench.join("notes.txt"), b"x").unwrap();
        let queue = JobQueue::open(&root, 1).unwrap();
        match route(&queue, Some(&bench), &get("/bench")) {
            Reply::Json(200, Json::Arr(names)) => {
                assert_eq!(names, vec![Json::Str("BENCH_demo.json".into())]);
            }
            other => panic!("{:?}", reply_tag(&other)),
        }
        match route(&queue, Some(&bench), &get("/bench/BENCH_demo.json")) {
            Reply::Raw(200, "application/json", bytes) => assert_eq!(bytes, b"{\"ok\":true}"),
            other => panic!("{:?}", reply_tag(&other)),
        }
        for bad in ["/bench/notes.txt", "/bench/..%2fBENCH_x.json", "/bench/BENCH_missing.json"] {
            match route(&queue, Some(&bench), &get(bad)) {
                Reply::Json(404, _) => {}
                other => panic!("{:?} for {}", reply_tag(&other), bad),
            }
        }
        // A dir with no artifacts answers a *structured* 404, never an
        // empty 200 body.
        let empty = root.join("empty-bench");
        std::fs::create_dir_all(&empty).unwrap();
        match route(&queue, Some(&empty), &get("/bench")) {
            Reply::Json(404, body) => {
                let msg = body.get("error").and_then(Json::as_str).unwrap_or("");
                assert!(msg.contains("no bench artifacts published yet"), "{msg}");
            }
            other => panic!("{:?} for empty bench dir", reply_tag(&other)),
        }
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submitted_jobs_run_to_completion_through_the_queue() {
        let root = temp_root("run");
        let queue = JobQueue::open(&root, 1).unwrap();
        let mut spec = CampaignSpec::new("paced", "BF");
        spec.runs = 6;
        spec.seed = 7;
        let id = queue.submit(spec).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let view = loop {
            let view = queue.job(id).unwrap();
            if !view.state.is_active() {
                break view;
            }
            assert!(std::time::Instant::now() < deadline, "job did not finish");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        assert_eq!(view.state, ffis_core::engine::job::JobState::Complete);
        assert_eq!(view.executed, 6);
        assert_eq!(view.tally.total(), 6);
        assert!(view.run_digest.is_some());
        assert!(root.join("jobs").join(id.to_string()).join("result.json").exists());
        queue.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    fn reply_tag(reply: &Reply) -> String {
        match reply {
            Reply::Json(status, v) => format!("Json({}, {})", status, v.render()),
            Reply::Raw(status, ct, _) => format!("Raw({}, {})", status, ct),
            Reply::Stream(_) => "Stream".into(),
        }
    }
}
