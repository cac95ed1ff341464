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

use std::io;
use std::path::PathBuf;
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
            Arc::new(move |req: &Request| route(&queue, req))
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
pub fn route(queue: &Arc<JobQueue>, req: &Request) -> Reply {
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
            match route(&queue, &get(path)) {
                Reply::Json(200, Json::Obj(fields)) => {
                    for key in ["status", "max_concurrent", "app_builds", "golden_runs"] {
                        assert!(fields.iter().any(|(k, _)| k == key), "{path}: no {key}");
                    }
                }
                other => panic!("{} => {:?}", path, reply_tag(&other)),
            }
        }
        // The daemon serves jobs and nothing else: it hands out no
        // files, so `/bench` is an unknown route like any other.
        for path in ["/nope", "/bench", "/bench/x.json", "/api/v0/bench"] {
            match route(&queue, &get(path)) {
                Reply::Json(404, body) => {
                    let msg = body.get("error").and_then(Json::as_str).unwrap_or("");
                    assert!(msg.starts_with("no route for GET"), "{path}: {msg}");
                }
                other => panic!("{} => {:?}", path, reply_tag(&other)),
            }
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
            match route(&queue, &req) {
                Reply::Json(400, _) => {}
                other => panic!("{:?} for {:?}", reply_tag(&other), String::from_utf8_lossy(body)),
            }
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
            Reply::Stream(_) => "Stream".into(),
        }
    }
}
