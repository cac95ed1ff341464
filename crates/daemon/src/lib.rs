//! # ffis-daemon — campaign-as-a-service
//!
//! A long-running fault-injection campaign service over the FFIS
//! engine: submit a [`CampaignSpec`](ffis_core::engine::job::CampaignSpec)
//! over HTTP, watch per-run events stream back as NDJSON, and get the
//! same byte-identical [`OutcomeTally`](ffis_core::OutcomeTally) and
//! run digest an in-process `repro` invocation produces — including
//! across a daemon kill and restart mid-job.
//!
//! The workspace is fully offline, so the daemon is hand-rolled on
//! `std` only: an HTTP/1.1 server over [`std::net::TcpListener`] with
//! a bounded worker pool ([`http`]), a zero-dependency JSON module
//! ([`json`]), and a blocking thin client ([`client`]) that `repro
//! daemon …` and the integration suite share.
//!
//! ## API reference (prefix `/api/v0` optional)
//!
//! | method & path | body | reply |
//! |---|---|---|
//! | `POST /jobs` | spec JSON | `{"id": n}`; HTTP 400 with the CLI's own validation message on any spec error |
//! | `GET /jobs` | — | array of job views |
//! | `GET /jobs/:id` | — | job view: state, spec, live partial tally, fuel/deadline abort counters, structured failure |
//! | `GET /jobs/:id/stream` | — | chunked NDJSON: one `snapshot` line, one `run` line per plan index (resumed indices first), one `done` line |
//! | `DELETE /jobs/:id` | — | cancel; queued jobs interrupt immediately, running jobs after the in-flight run |
//! | `GET /healthz` | — | `{"status":"ok","running","queued","max_concurrent","app_builds","golden_runs"}` |
//!
//! ## Queue and persistence model
//!
//! Admission control is a fixed pool of campaign worker threads (the
//! `--workers` cap): at most that many jobs run concurrently and the
//! overflow waits in FIFO order. Jobs of the same `(app, grid, files)`
//! share one constructed application and its golden runs
//! ([`AppCache`](apps::AppCache)); each job places, uses and drops its
//! own checkpoint set, since the set is keyed by that job's draws.
//!
//! Each job is a directory `<root>/jobs/<id>/` holding `spec.json`
//! (the accepted spec), `run.journal` (the engine's CRC-framed run
//! journal, appended per run), `result.json` (the terminal view,
//! written only on `complete`/`failed`), and a `cancelled` marker when
//! the operator deleted the job. There is no separate queue file —
//! the queue *is* the directory listing.
//!
//! ## Resume-on-restart law
//!
//! A killed or interrupted daemon loses nothing: on start,
//! [`JobQueue::open`](jobs::JobQueue::open) re-lists the job
//! directories, loads terminal results as-is, and re-enqueues every
//! non-terminal, non-cancelled job with resume forced on. The engine's
//! resume law (law 6 in `ffis_core::engine`) then guarantees the
//! recovered campaign — journal replay for completed indices, fresh
//! execution for the pending set — produces a tally and run digest
//! byte-identical to an uninterrupted run. The integration suite
//! SIGKILLs a daemon mid-job and pins exactly that equality.
//!
//! Structured failure reasons survive the same way: a campaign that
//! dies on a journal/spec divergence surfaces as a `plan-mismatch`
//! [`JobFailure`](ffis_core::engine::job::JobFailure) in the job view
//! (with both fingerprints), and per-run fuel/deadline aborts are
//! live counters (`fuel_exhausted`, `deadline_exceeded`) — API
//! fields, not log lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod apps;
pub mod client;
pub mod distributed;
pub mod http;
pub mod jobs;
pub mod json;
pub mod server;

pub use api::{JobView, StreamEvent};
pub use apps::{execute_spec, ExecHooks, PacedApp};
pub use client::Client;
pub use distributed::{run_distributed, self_worker_cmd, FanoutReport, WorkerStats};
pub use jobs::{JobQueue, QueueOptions};
pub use server::{Daemon, DaemonConfig};
