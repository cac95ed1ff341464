//! Wire types of the REST/NDJSON API: JSON encoders and decoders for
//! [`CampaignSpec`], [`OutcomeTally`], [`JobFailure`], the per-job
//! [`JobView`], and the stream's per-run event lines.
//!
//! Decoding is strict where the input is a *request* (a submitted spec
//! rejects unknown fields and out-of-range values with the same
//! messages the CLI validation prints — they become HTTP 400), and
//! lenient where the input is the daemon's own state being read back
//! (job files, stream lines): those decoders take the fields they
//! know.

use ffis_core::engine::job::{CampaignSpec, JobFailure, JobState};
use ffis_core::{Outcome, OutcomeTally, RunAborted, RunResult};

use crate::json::{field, parse, u64_value, Json};

/// Encode a spec (round-trips through [`spec_from_json`]).
pub fn spec_to_json(spec: &CampaignSpec) -> Json {
    let opt_u64 = |v: Option<u64>| v.map(u64_value).unwrap_or(Json::Null);
    Json::Obj(vec![
        field("app", Json::Str(spec.app.clone())),
        field("model", Json::Str(spec.model.clone())),
        field("site", Json::Str(spec.site.clone())),
        field("grid", u64_value(spec.grid as u64)),
        field("files", u64_value(spec.files as u64)),
        field("memo", Json::Bool(spec.memo)),
        field("replay_opt", Json::Bool(spec.replay_opt)),
        field("runs", u64_value(spec.runs as u64)),
        field("seed", u64_value(spec.seed)),
        field("keep_runs", opt_u64(spec.keep_runs.map(|v| v as u64))),
        field("parallel", Json::Bool(spec.parallel)),
        field("fuel", opt_u64(spec.fuel)),
        field("wall_limit_ms", opt_u64(spec.wall_limit_ms)),
        field("journal", Json::Bool(spec.journal)),
        field("resume", Json::Bool(spec.resume)),
    ])
}

/// Decode and validate a submitted spec. Strict: unknown fields,
/// wrong types, and out-of-range values are all errors (the daemon
/// answers HTTP 400 with the message).
pub fn spec_from_json(value: &Json) -> Result<CampaignSpec, String> {
    let members = match value {
        Json::Obj(members) => members,
        _ => return Err("spec must be a JSON object".into()),
    };
    let mut spec = CampaignSpec::new("", "");
    for (key, v) in members {
        match key.as_str() {
            "app" => spec.app = req_str(v, key)?,
            "model" => spec.model = req_str(v, key)?,
            "site" => spec.site = req_str(v, key)?,
            "grid" => spec.grid = req_usize(v, key)?,
            "files" => spec.files = req_usize(v, key)?,
            "memo" => spec.memo = req_bool(v, key)?,
            "replay_opt" => spec.replay_opt = req_bool(v, key)?,
            "runs" => spec.runs = req_usize(v, key)?,
            "seed" => spec.seed = req_u64(v, key)?,
            "keep_runs" => spec.keep_runs = opt_usize(v, key)?,
            "parallel" => spec.parallel = req_bool(v, key)?,
            "fuel" => spec.fuel = opt_u64_field(v, key)?,
            "wall_limit_ms" => spec.wall_limit_ms = opt_u64_field(v, key)?,
            "journal" => spec.journal = req_bool(v, key)?,
            "resume" => spec.resume = req_bool(v, key)?,
            other => return Err(format!("unknown spec field '{}'", other)),
        }
    }
    if spec.app.is_empty() {
        return Err("spec is missing 'app'".into());
    }
    if spec.model.is_empty() {
        return Err("spec is missing 'model'".into());
    }
    spec.validate()?;
    Ok(spec)
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| format!("'{}' must be a string", key))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| format!("'{}' must be a boolean", key))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("'{}' must be a non-negative integer", key))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.as_usize().ok_or_else(|| format!("'{}' must be a non-negative integer", key))
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match v {
        Json::Null => Ok(None),
        other => req_usize(other, key).map(Some),
    }
}

fn opt_u64_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v {
        Json::Null => Ok(None),
        other => req_u64(other, key).map(Some),
    }
}

/// Encode a tally.
pub fn tally_to_json(tally: &OutcomeTally) -> Json {
    Json::Obj(vec![
        field("benign", u64_value(tally.benign)),
        field("detected", u64_value(tally.detected)),
        field("sdc", u64_value(tally.sdc)),
        field("crash", u64_value(tally.crash)),
        field("no_fire", u64_value(tally.no_fire)),
    ])
}

/// Decode a tally (lenient: missing counters read as zero).
pub fn tally_from_json(value: &Json) -> OutcomeTally {
    let get = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
    OutcomeTally {
        benign: get("benign"),
        detected: get("detected"),
        sdc: get("sdc"),
        crash: get("crash"),
        no_fire: get("no_fire"),
    }
}

/// Encode a structured failure reason.
pub fn failure_to_json(failure: &JobFailure) -> Json {
    let mut members = vec![
        field("kind", Json::Str(failure.kind().into())),
        field("message", Json::Str(failure.to_string())),
    ];
    if let JobFailure::PlanMismatch { found, expected } = failure {
        members.push(field("found", u64_value(*found)));
        members.push(field("expected", u64_value(*expected)));
    }
    Json::Obj(members)
}

/// Decode a failure reason written by [`failure_to_json`].
pub fn failure_from_json(value: &Json) -> Option<JobFailure> {
    let kind = value.get("kind")?.as_str()?;
    let message = value.get("message").and_then(Json::as_str).unwrap_or("").to_string();
    Some(match kind {
        "bad-spec" => JobFailure::BadSpec(message),
        "golden-run-failed" => JobFailure::GoldenRunFailed(message),
        "no-eligible-instances" => JobFailure::NoEligibleInstances,
        "plan-mismatch" => JobFailure::PlanMismatch {
            found: value.get("found").and_then(Json::as_u64).unwrap_or(0),
            expected: value.get("expected").and_then(Json::as_u64).unwrap_or(0),
        },
        _ => JobFailure::Journal(message),
    })
}

/// Everything `GET /jobs/:id` reports about one job. While the job
/// runs, `tally`/`executed`/`resumed` are live partial counts off the
/// engine's event tap; once terminal they are final.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job id (monotonic per daemon root).
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// The spec as accepted.
    pub spec: CampaignSpec,
    /// Runs executed so far by the daemon (excludes resumed).
    pub executed: usize,
    /// Runs recovered from the job's journal at cost 0.
    pub resumed: usize,
    /// Outcome tally over all runs seen so far.
    pub tally: OutcomeTally,
    /// Runs aborted by the fuel watchdog
    /// ([`RunAborted::FuelExhausted`]) — surfaced as a counter, not a
    /// log line.
    pub fuel_exhausted: u64,
    /// Runs aborted by the wall-clock backstop.
    pub deadline_exceeded: u64,
    /// Memo-store hits attributable to this job (sub-step artifacts
    /// served from cache), once the campaign has reported.
    pub memo_hits: u64,
    /// Memo-store misses (live sub-step computations).
    pub memo_misses: u64,
    /// Sub-step artifacts a fault injection dirtied — the
    /// dirty-cascade counter.
    pub memo_invalidations: u64,
    /// Memo-layer status token: `memoized` when engaged, else the
    /// fallback reason (`no-substeps`, `memo-disabled`, ...). `None`
    /// until the campaign reports.
    pub memo_reason: Option<String>,
    /// Plan fingerprint, once the campaign has planned.
    pub plan_fingerprint: Option<u64>,
    /// FNV digest over the kept run records, once complete.
    pub run_digest: Option<u64>,
    /// Structured failure reason, when `state` is `Failed`.
    pub failure: Option<JobFailure>,
}

impl JobView {
    /// A fresh view for a just-accepted spec.
    pub fn queued(id: u64, spec: CampaignSpec) -> JobView {
        JobView {
            id,
            state: JobState::Queued,
            spec,
            executed: 0,
            resumed: 0,
            tally: OutcomeTally::default(),
            fuel_exhausted: 0,
            deadline_exceeded: 0,
            memo_hits: 0,
            memo_misses: 0,
            memo_invalidations: 0,
            memo_reason: None,
            plan_fingerprint: None,
            run_digest: None,
            failure: None,
        }
    }
}

/// Encode a job view (round-trips through [`job_from_json`]).
pub fn job_to_json(job: &JobView) -> Json {
    let opt_u64 = |v: Option<u64>| v.map(u64_value).unwrap_or(Json::Null);
    Json::Obj(vec![
        field("id", u64_value(job.id)),
        field("state", Json::Str(job.state.token().into())),
        field("spec", spec_to_json(&job.spec)),
        field("executed", u64_value(job.executed as u64)),
        field("resumed", u64_value(job.resumed as u64)),
        field("tally", tally_to_json(&job.tally)),
        field("fuel_exhausted", u64_value(job.fuel_exhausted)),
        field("deadline_exceeded", u64_value(job.deadline_exceeded)),
        field("memo_hits", u64_value(job.memo_hits)),
        field("memo_misses", u64_value(job.memo_misses)),
        field("memo_invalidations", u64_value(job.memo_invalidations)),
        field("memo_reason", job.memo_reason.clone().map(Json::Str).unwrap_or(Json::Null)),
        field("plan_fingerprint", opt_u64(job.plan_fingerprint)),
        field("run_digest", opt_u64(job.run_digest)),
        field("failure", job.failure.as_ref().map(failure_to_json).unwrap_or(Json::Null)),
    ])
}

/// Decode a job view written by [`job_to_json`].
pub fn job_from_json(value: &Json) -> Result<JobView, String> {
    let state = value
        .get("state")
        .and_then(Json::as_str)
        .and_then(JobState::from_token)
        .ok_or("job is missing a valid 'state'")?;
    let spec = spec_from_json(value.get("spec").ok_or("job is missing 'spec'")?)?;
    let get_u64 = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
    let get_opt = |key: &str| value.get(key).and_then(Json::as_u64);
    Ok(JobView {
        id: get_u64("id"),
        state,
        spec,
        executed: get_u64("executed") as usize,
        resumed: get_u64("resumed") as usize,
        tally: value.get("tally").map(tally_from_json).unwrap_or_default(),
        fuel_exhausted: get_u64("fuel_exhausted"),
        deadline_exceeded: get_u64("deadline_exceeded"),
        memo_hits: get_u64("memo_hits"),
        memo_misses: get_u64("memo_misses"),
        memo_invalidations: get_u64("memo_invalidations"),
        memo_reason: value.get("memo_reason").and_then(Json::as_str).map(str::to_string),
        plan_fingerprint: get_opt("plan_fingerprint"),
        run_digest: get_opt("run_digest"),
        failure: value.get("failure").and_then(failure_from_json),
    })
}

/// One `/jobs/:id/stream` NDJSON line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Stream opener: the job as of subscription.
    Snapshot(JobView),
    /// One run landed.
    Run {
        /// Plan index of the run.
        run: usize,
        /// Classified outcome.
        outcome: Outcome,
        /// Did the armed injector fire?
        fired: bool,
        /// Replayed from the journal rather than executed.
        resumed: bool,
        /// Liveness-abort reason token, when the run was aborted.
        aborted: Option<String>,
    },
    /// Stream closer: the job's terminal view.
    Done(JobView),
}

/// Encode the stream-opener line.
pub fn snapshot_line(job: &JobView) -> String {
    event_line("snapshot", job)
}

/// Encode the stream-closer line.
pub fn done_line(job: &JobView) -> String {
    event_line("done", job)
}

fn event_line(event: &str, job: &JobView) -> String {
    let mut members = vec![field("event", Json::Str(event.into()))];
    if let Json::Obj(rest) = job_to_json(job) {
        members.extend(rest);
    }
    Json::Obj(members).render()
}

/// Encode one per-run event line from the engine's observer tap.
pub fn run_line(result: &RunResult, resumed: bool) -> String {
    Json::Obj(vec![
        field("event", Json::Str("run".into())),
        field("run", u64_value(result.run as u64)),
        field("outcome", Json::Str(result.outcome.name().into())),
        field("fired", Json::Bool(result.injection.is_some())),
        field("resumed", Json::Bool(resumed)),
        field(
            "aborted",
            result.aborted.map(|a| Json::Str(a.reason().into())).unwrap_or(Json::Null),
        ),
    ])
    .render()
}

/// Decode one stream line.
pub fn stream_event(line: &str) -> Result<StreamEvent, String> {
    let value = parse(line)?;
    match value.get("event").and_then(Json::as_str) {
        Some("snapshot") => Ok(StreamEvent::Snapshot(job_from_json(&value)?)),
        Some("done") => Ok(StreamEvent::Done(job_from_json(&value)?)),
        Some("run") => {
            let outcome = match value.get("outcome").and_then(Json::as_str) {
                Some("Benign") => Outcome::Benign,
                Some("Detected") => Outcome::Detected,
                Some("SDC") => Outcome::Sdc,
                Some("Crash") => Outcome::Crash,
                other => return Err(format!("unknown outcome {:?}", other)),
            };
            Ok(StreamEvent::Run {
                run: value.get("run").and_then(Json::as_usize).ok_or("run event without index")?,
                outcome,
                fired: value.get("fired").and_then(Json::as_bool).unwrap_or(false),
                resumed: value.get("resumed").and_then(Json::as_bool).unwrap_or(false),
                aborted: value.get("aborted").and_then(Json::as_str).map(str::to_string),
            })
        }
        other => Err(format!("unknown stream event {:?}", other)),
    }
}

/// Counter used by [`StreamEvent`] consumers to rebuild a tally from
/// run events — the integration tests assert it converges on the
/// job's final tally (the sink's `no_fire` law included).
pub fn fold_run_event(tally: &mut OutcomeTally, outcome: Outcome, fired: bool) {
    if !fired && outcome == Outcome::Benign {
        tally.no_fire += 1;
    }
    tally.record(outcome);
}

/// Marker for [`RunAborted::FuelExhausted`] counting.
pub fn aborted_counters(view: &mut JobView, aborted: Option<&RunAborted>) {
    match aborted {
        Some(RunAborted::FuelExhausted { .. }) => view.fuel_exhausted += 1,
        Some(RunAborted::DeadlineExceeded { .. }) => view.deadline_exceeded += 1,
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("nyx", "SW");
        spec.site = "read".into();
        spec.grid = 64;
        spec.files = 4;
        spec.memo = true;
        spec.runs = 96;
        spec.seed = 0xFF15_2021 + 951;
        spec.keep_runs = Some(64);
        spec.fuel = Some(2_000_000);
        spec.wall_limit_ms = None;
        spec
    }

    #[test]
    fn spec_round_trips() {
        let spec = sample_spec();
        let back = spec_from_json(&parse(&spec_to_json(&spec).render()).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_rejects_unknown_fields_and_bad_values() {
        let spec = sample_spec();
        let mut with_typo = match spec_to_json(&spec) {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        with_typo.push(("sead".into(), u64_value(7)));
        let err = spec_from_json(&Json::Obj(with_typo)).unwrap_err();
        assert!(err.contains("unknown spec field 'sead'"), "{err}");

        let parse_err = |body: &str| spec_from_json(&parse(body).unwrap()).unwrap_err();
        assert!(
            parse_err(r#"{"app":"nyx","model":"BF","runs":0}"#).contains("runs must be at least 1")
        );
        assert!(parse_err(r#"{"app":"nyx","model":"BF","grid":8}"#).contains("below the minimum"));
        assert!(parse_err(r#"{"app":"nyx","model":"nope"}"#).contains("unknown fault model"));
        assert!(parse_err(r#"{"app":"nyx"}"#).contains("missing 'model'"));
        assert!(parse_err(r#"{"app":"nyx","model":"BF","runs":"many"}"#)
            .contains("'runs' must be a non-negative integer"));
        assert!(spec_from_json(&Json::Arr(vec![])).unwrap_err().contains("JSON object"));
    }

    #[test]
    fn tally_and_failure_round_trip() {
        let tally = OutcomeTally { benign: 10, detected: 3, sdc: 2, crash: 1, no_fire: 4 };
        assert_eq!(tally_from_json(&parse(&tally_to_json(&tally).render()).unwrap()), tally);

        for failure in [
            JobFailure::BadSpec("x".into()),
            JobFailure::GoldenRunFailed("g".into()),
            JobFailure::NoEligibleInstances,
            JobFailure::PlanMismatch { found: u64::MAX, expected: 0xFF15_2021 },
            JobFailure::Journal("io".into()),
        ] {
            let value = parse(&failure_to_json(&failure).render()).unwrap();
            let back = failure_from_json(&value).unwrap();
            assert_eq!(back.kind(), failure.kind());
            if let JobFailure::PlanMismatch { found, expected } = back {
                assert_eq!(found, u64::MAX);
                assert_eq!(expected, 0xFF15_2021);
            }
        }
    }

    #[test]
    fn job_view_round_trips() {
        let mut job = JobView::queued(17, sample_spec());
        job.state = JobState::Failed;
        job.executed = 40;
        job.resumed = 8;
        job.tally = OutcomeTally { benign: 30, detected: 9, sdc: 5, crash: 4, no_fire: 2 };
        job.fuel_exhausted = 3;
        job.deadline_exceeded = 1;
        job.memo_hits = 12;
        job.memo_misses = 4;
        job.memo_invalidations = 6;
        job.memo_reason = Some("memoized".into());
        job.plan_fingerprint = Some(u64::MAX - 5);
        job.run_digest = Some(0xDEAD_BEEF_DEAD_BEEF);
        job.failure = Some(JobFailure::PlanMismatch { found: 1, expected: 2 });
        let back = job_from_json(&parse(&job_to_json(&job).render()).unwrap()).unwrap();
        assert_eq!(back.id, 17);
        assert_eq!(back.state, JobState::Failed);
        assert_eq!(back.spec, job.spec);
        assert_eq!(back.tally, job.tally);
        assert_eq!(back.plan_fingerprint, job.plan_fingerprint);
        assert_eq!(back.run_digest, job.run_digest);
        assert_eq!(back.fuel_exhausted, 3);
        assert_eq!(back.deadline_exceeded, 1);
        assert_eq!(back.memo_hits, 12);
        assert_eq!(back.memo_misses, 4);
        assert_eq!(back.memo_invalidations, 6);
        assert_eq!(back.memo_reason.as_deref(), Some("memoized"));
        assert!(matches!(back.failure, Some(JobFailure::PlanMismatch { found: 1, expected: 2 })));
    }

    #[test]
    fn stream_lines_round_trip() {
        let job = JobView::queued(3, sample_spec());
        match stream_event(&snapshot_line(&job)).unwrap() {
            StreamEvent::Snapshot(back) => assert_eq!(back.spec, job.spec),
            other => panic!("wrong event: {other:?}"),
        }
        match stream_event(&done_line(&job)).unwrap() {
            StreamEvent::Done(back) => assert_eq!(back.id, 3),
            other => panic!("wrong event: {other:?}"),
        }
        let line = r#"{"event":"run","run":7,"outcome":"SDC","fired":true,"resumed":false,"aborted":"fuel-exhausted"}"#;
        match stream_event(line).unwrap() {
            StreamEvent::Run { run, outcome, fired, resumed, aborted } => {
                assert_eq!(run, 7);
                assert_eq!(outcome, Outcome::Sdc);
                assert!(fired);
                assert!(!resumed);
                assert_eq!(aborted.as_deref(), Some("fuel-exhausted"));
            }
            other => panic!("wrong event: {other:?}"),
        }
        assert!(stream_event("{\"event\":\"bogus\"}").is_err());
        assert!(stream_event("not json").is_err());
    }
}
