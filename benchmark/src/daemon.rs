//! The `daemon_jobs` workload: a closed loop of small jobs through an
//! in-process `ffis_daemon::Daemon` over real sockets and a real
//! on-disk root (run journals, disk blob and memo tiers), one
//! `Client`, one campaign worker.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ffis_core::{CampaignSpec, JobState, OutcomeTally};
use ffis_daemon::api::fold_run_event;
use ffis_daemon::{Client, Daemon, DaemonConfig, StreamEvent};

use crate::campaigns::{self, GoldenRef, Stores};
use crate::harness::{self, cell_id, mix, secs, tally_token, Options};
use crate::schema::Report;
use crate::stats::{median, percentile, summarize};

/// Run length the job counts below are sized for.
const SIZED_FOR_SECONDS: f64 = 16.0;

/// `(template, sampled jobs)` of the six job types. Sorted by latency
/// the 120 sampled jobs fall into clusters: 72 Nyx jobs, 22 Montage
/// read jobs, 22 Montage write jobs, 4 QMC jobs. The counts put the
/// median (rank 60) inside the Nyx cluster and the 90th percentile
/// (rank 108) inside the Montage write cluster, so neither percentile
/// sits on the gap between two job types.
fn job_types(smoke: bool) -> Vec<(CampaignSpec, usize)> {
    let (grid, runs) = if smoke { (16, 16) } else { (32, 64) };
    let tiles = 2;
    let counts = if smoke { [2, 2, 2, 2, 2, 1] } else { [24, 24, 24, 22, 22, 4] };
    let mut types = vec![
        harness::spec("nyx", "BF", "write", grid, 1, runs),
        harness::spec("nyx", "DW", "write", grid, 1, runs),
        harness::spec("nyx", "BF", "read", grid, 1, runs),
        harness::spec("montage", "SW", "write", grid, tiles, runs),
        harness::spec("montage", "BF", "read", grid, tiles, runs),
        harness::spec("qmc", "BF", "write", grid, 1, 16),
    ];
    for t in &mut types {
        // The service posture: every job journals its runs.
        t.journal = true;
        t.resume = true;
    }
    types.into_iter().zip(counts).collect()
}

/// Seed the QMC jobs' spec seeds derive from, whatever `--seed` is.
const QMC_SEED: u64 = 0x51C;

/// One job of the batch.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: CampaignSpec,
    /// The first job of each type warms the daemon's stores and is
    /// not sampled.
    pub warmup: bool,
}

/// The batch: one warm-up job per type, then the sampled jobs in an
/// order drawn by the seed; every job has its own spec seed.
pub fn batch(opts: &Options, scale: f64) -> Vec<Job> {
    let types = job_types(opts.smoke);
    let mut jobs: Vec<Job> =
        types.iter().map(|(spec, _)| Job { spec: spec.clone(), warmup: true }).collect();
    let mut sampled = Vec::new();
    for (spec, count) in &types {
        let count = ((*count as f64 * scale).round() as usize).max(1);
        sampled.extend((0..count).map(|_| Job { spec: spec.clone(), warmup: false }));
    }
    harness::shuffle(&mut sampled, opts.seed);
    jobs.extend(sampled);
    let mut qmc_jobs = 0;
    for (k, job) in jobs.iter_mut().enumerate() {
        job.spec.seed = mix(opts.seed, k as u64);
        // A 16-run QMC job takes 0.45 s or 1.5 s depending on how many
        // of its targets force a DMC re-derivation, so across seeds the
        // handful of QMC jobs alone would move the batch wall by a
        // tenth. Their spec seeds are fixed; their place in the order
        // still follows the seed.
        if job.spec.app == "qmc" {
            job.spec.seed = mix(QMC_SEED, qmc_jobs);
            qmc_jobs += 1;
        }
    }
    jobs
}

/// A running daemon on an ephemeral port over a fresh root.
pub struct Service {
    daemon: Daemon,
    pub client: Client,
    pub root: std::path::PathBuf,
}

impl Service {
    pub fn start(out: &Path) -> Result<Service, String> {
        let root = harness::scratch_dir(out, "daemon").map_err(|e| e.to_string())?;
        let mut config = DaemonConfig::new(&root);
        config.workers = 1;
        let daemon = Daemon::start(config).map_err(|e| format!("daemon start: {e}"))?;
        let client = Client::new(daemon.addr().to_string());
        client.health().map_err(|e| format!("daemon health: {e}"))?;
        Ok(Service { daemon, client, root })
    }

    /// Stop the daemon (joins its threads) and remove its root.
    pub fn stop(mut self) {
        self.daemon.shutdown();
        harness::remove_dir(&self.root);
    }
}

/// What set-up produces: the batch and the in-process results of the
/// warm-up jobs, the oracle the daemon's answers are compared with.
pub struct Fixture {
    pub jobs: Vec<Job>,
    pub oracle: Vec<(CampaignSpec, GoldenRef, u64, OutcomeTally)>,
}

/// Set-up: derive the batch, start and health-check a daemon on a
/// fresh root (then stop it), and run the six warm-up specs in
/// process to learn what the daemon must answer.
pub fn set_up(opts: &Options, scale: f64) -> Result<Fixture, String> {
    let jobs = batch(opts, scale);
    Service::start(&opts.out)?.stop();
    let warmups: Vec<CampaignSpec> = jobs
        .iter()
        .filter(|j| j.warmup)
        .map(|j| CampaignSpec { journal: false, resume: false, ..j.spec.clone() })
        .collect();
    let stores = Stores::fresh();
    let oracle = campaigns::with_references(warmups)?
        .into_iter()
        .map(|(spec, golden)| {
            let result = campaigns::run_cell(&spec, &stores).map_err(|e| e.to_string())?.result;
            Ok((spec, golden, result.run_digest(), result.tally))
        })
        .collect::<Result<_, String>>()?;
    Ok(Fixture { jobs, oracle })
}

/// One job driven through the API.
struct Served {
    latency: f64,
    first_result: f64,
    /// `(run_digest, tally)` of the terminal view.
    answer: Option<(u64, String)>,
}

/// Submit one job and watch it to `done`, checking what comes back.
fn serve(client: &Client, job: &Job, report: &mut Report) -> Result<Served, String> {
    let spec = &job.spec;
    let id = cell_id(spec);
    report.attempted += spec.runs as u64 + 2;
    let start = Instant::now();
    let job_id = client.submit(spec).map_err(|e| format!("{id}: submit: {e}"))?;
    let (mut first, mut events, mut folded) = (None, 0usize, OutcomeTally::default());
    let view = client
        .watch_live(job_id, |event| {
            if let StreamEvent::Run { outcome, fired, .. } = event {
                first.get_or_insert_with(|| secs(start));
                events += 1;
                fold_run_event(&mut folded, *outcome, *fired);
            }
        })
        .map_err(|e| format!("{id}: watch: {e}"))?;
    let latency = secs(start);
    report.check(view.state == JobState::Complete, || {
        format!("{id}: job ended {} ({:?})", view.state, view.failure)
    });
    report.check(view.executed == spec.runs && view.resumed == 0, || {
        format!("{id}: executed {} resumed {}", view.executed, view.resumed)
    });
    // A subscriber only receives the runs that land after it
    // subscribed; a fast job may have started before the stream opened.
    report.check(events <= spec.runs && (events < spec.runs || folded == view.tally), || {
        format!("{id}: stream carried {events} run events folding to {}", tally_token(&folded))
    });
    report
        .check(view.fuel_exhausted + view.deadline_exceeded == 0, || format!("{id}: aborted runs"));
    report.check(view.run_digest.is_some(), || format!("{id}: no run digest"));
    let answer = view.run_digest.map(|digest| (digest, tally_token(&view.tally)));
    Ok(Served { latency, first_result: first.unwrap_or(latency), answer })
}

/// What draining a batch gives: its wall, the sampled jobs, and the
/// warm-up jobs' answers by cell identity.
struct Drained {
    wall: f64,
    sampled: Vec<Served>,
    warmup_answers: BTreeMap<String, (u64, String)>,
}

/// Drain `jobs` in a closed loop: each is submitted when the previous
/// one is done. A request that fails counts as a violation and the
/// loop goes on.
fn drain(client: &Client, jobs: &[Job], report: &mut Report) -> Drained {
    let start = Instant::now();
    let (mut sampled, mut warmup_answers) = (Vec::new(), BTreeMap::new());
    for job in jobs {
        match serve(client, job, report) {
            Ok(served) if job.warmup => {
                if let Some(answer) = served.answer {
                    warmup_answers.insert(cell_id(&job.spec), answer);
                }
            }
            Ok(served) => sampled.push(served),
            Err(e) => report.violations.push(e),
        }
    }
    Drained { wall: secs(start), sampled, warmup_answers }
}

/// The daemon's warm-up answers must be what the in-process oracle
/// computed (and, at the default seed, what is pinned).
fn check_oracle(report: &mut Report, fx: &Fixture, drained: &Drained, opts: &Options) {
    let mut gate = campaigns::Gate::new(opts);
    for (spec, _, digest, tally) in &fx.oracle {
        let id = cell_id(spec);
        let expected = (*digest, tally_token(tally));
        let answered = drained.warmup_answers.get(&id);
        report.check(answered == Some(&expected), || {
            format!("{id}: daemon answered {answered:?}, in-process run gives {expected:?}")
        });
        gate.check_pin(report, &id, expected);
    }
}

/// Set-ups timed per run (each runs the six oracle campaigns).
const SETUPS: usize = 3;

pub fn run_untraced(opts: &Options) -> Result<Report, String> {
    let mut report = Report::new("daemon_jobs", opts.seed, opts.seconds, false, opts.smoke);
    let scale = if opts.smoke { 1.0 } else { opts.seconds / SIZED_FOR_SECONDS };
    // The batch is one closed loop, so the set-ups all precede it.
    let (fx, mut setups) = harness::SetUps::first(SETUPS, || set_up(opts, scale))?;
    while setups.again(|| set_up(opts, scale))? {}
    let setups = setups.times();

    let service = Service::start(&opts.out)?;
    let drained = drain(&service.client, &fx.jobs, &mut report);
    service.stop();
    check_oracle(&mut report, &fx, &drained, opts);
    let Drained { wall, sampled, .. } = drained;
    report.reps = (fx.jobs.len() - sampled.len(), sampled.len(), 0);

    let runs: usize = fx.jobs.iter().map(|j| j.spec.runs).sum();
    let latencies_ms: Vec<f64> = sampled.iter().map(|s| s.latency * 1e3).collect();
    let firsts: Vec<f64> = sampled.iter().map(|s| s.first_result).collect();
    report.push_e2e("setup_s", median(setups), Some(summarize(setups)));
    report.push_e2e("wall_s", wall, None);
    if !firsts.is_empty() {
        report.push_e2e("first_result_s", median(&firsts), Some(summarize(&firsts)));
    }
    report.push_e2e("runs_per_s", runs as f64 / wall, None);
    report.push_e2e("peak_rss_mb", harness::peak_rss_mb(), None);
    report.not_applicable = vec!["warm_wall_s"];
    for (name, p) in [("job_p50_ms", 50.0), ("job_p90_ms", 90.0)] {
        match percentile(&latencies_ms, p) {
            Some(v) => report.push_e2e(name, v, Some(summarize(&latencies_ms))),
            None => report.not_applicable.push(name),
        }
    }
    Ok(report)
}

/// The traced run: the six job types in process through the tracing
/// wrappers (the compute the service wraps), then a short batch
/// through a real daemon for what only its root can tell.
pub fn run_traced(opts: &Options) -> Result<Report, String> {
    let mut report = Report::new("daemon_jobs", opts.seed, opts.seconds, true, opts.smoke);
    let fx = set_up(opts, 0.1)?;
    let cells: Vec<(CampaignSpec, GoldenRef)> =
        fx.oracle.iter().map(|(spec, golden, ..)| (spec.clone(), *golden)).collect();
    let mut gate = campaigns::Gate::new(opts);
    campaigns::traced_pass(&mut report, &cells, &mut gate, opts)?;

    let service = Service::start(&opts.out)?;
    let drained = drain(&service.client, &fx.jobs, &mut report);
    let disk_bytes = harness::dir_bytes(&service.root);
    service.stop();
    check_oracle(&mut report, &fx, &drained, opts);
    report.push_layer("daemon.disk_bytes_per_job", disk_bytes as f64 / fx.jobs.len() as f64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_a_seeded_order_of_a_fixed_multiset() {
        let opts = |seed| Options { seed, seconds: 16.0, smoke: false, out: "out".into() };
        let (a, b, c) = (batch(&opts(1), 1.0), batch(&opts(1), 1.0), batch(&opts(2), 1.0));
        assert_eq!(a.len(), 126);
        assert_eq!(a.iter().filter(|j| j.warmup).count(), 6);
        let labels = |jobs: &[Job]| -> Vec<String> {
            jobs.iter().map(|j| format!("{}/{}", j.spec.app, j.spec.label())).collect()
        };
        assert_eq!(labels(&a), labels(&b));
        assert_ne!(labels(&a), labels(&c));
        let sorted = |jobs: &[Job]| {
            let mut l = labels(jobs);
            l.sort();
            l
        };
        assert_eq!(sorted(&a), sorted(&c));
        let mut seeds: Vec<u64> = a.iter().map(|j| j.spec.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 126);
        // QMC jobs keep their spec seeds across `--seed`; the others do not.
        let seeds_of = |jobs: &[Job], app: &str| {
            let mut s: Vec<u64> =
                jobs.iter().filter(|j| j.spec.app == app).map(|j| j.spec.seed).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(seeds_of(&a, "qmc"), seeds_of(&c, "qmc"));
        assert_ne!(seeds_of(&a, "nyx"), seeds_of(&c, "nyx"));
        for job in &a {
            job.spec.validate().unwrap();
        }
    }
}
