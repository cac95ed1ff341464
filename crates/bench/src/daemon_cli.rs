//! `repro daemon …` — the thin-client face of the campaign service.
//!
//! ```text
//! repro daemon serve  [--root DIR] [--addr H:P] [--workers N] [--retain N]
//!                     [--fanout N]
//! repro daemon submit --app nyx --model BF [--site write|read] [--grid G]
//!                     [--runs N] [--seed S] [--keep-runs K] [--fuel F]
//!                     [--wall-limit-ms M] [--files F] [--no-memo]
//!                     [--no-journal] [--serial] [--addr H:P | --local]
//! repro daemon status <id> [--addr H:P] [--digest]
//! repro daemon watch  <id> [--addr H:P]
//! repro daemon cancel <id> [--addr H:P]
//! repro daemon jobs        [--addr H:P]
//! repro daemon health      [--addr H:P]
//! ```
//!
//! Every subcommand except `serve` and `submit --local` is a pure
//! HTTP client ([`ffis_daemon::Client`]) — the CLI holds no campaign
//! state of its own. `submit --local` keeps the in-process fallback:
//! the spec runs through the same [`ffis_daemon::execute_spec`] the
//! daemon's workers use, so its tally and digest are byte-identical
//! to a served run of the same spec.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ffis_core::{CampaignSpec, CancelToken, CompletionStatus, Outcome};
use ffis_daemon::{execute_spec, Client, Daemon, DaemonConfig, ExecHooks, JobView, StreamEvent};

/// Default daemon address (the paper's seed year as a port).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7721";

/// Run `repro daemon <subcommand>`; returns the process exit code.
/// `cancel` is the binary's signal-wired token — `serve` parks on it.
pub fn run(args: &[String], cancel: &Arc<CancelToken>) -> i32 {
    let Some(sub) = args.first() else {
        eprintln!("{}", usage());
        return 2;
    };
    let (flags, positional) = match parse_flags(&args[1..]) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {}\n\n{}", e, usage());
            return 2;
        }
    };
    let result = match sub.as_str() {
        "serve" => serve(&flags, cancel),
        "submit" => submit(&flags),
        "status" => with_id(&positional, &flags, status),
        "watch" => with_id(&positional, &flags, watch_job),
        "cancel" => with_id(&positional, &flags, cancel_job),
        "jobs" => jobs(&flags),
        "health" => health(&flags),
        // Hidden: one fan-out worker shard (spawned by a distributed
        // coordinator, never typed by hand — its stdout is the
        // machine-readable stats line the coordinator parses).
        "worker" => ffis_daemon::distributed::worker_cli(&flags),
        other => Err(format!("unknown daemon subcommand '{}'\n\n{}", other, usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e);
            2
        }
    }
}

fn usage() -> &'static str {
    "usage: repro daemon <serve|submit|status|watch|cancel|jobs|health> [flags]\n\
     \u{20} serve   --root DIR --addr H:P --workers N\n\
     \u{20}         [--retain N: GC old terminal job dirs] [--fanout N: worker processes per job]\n\
     \u{20} submit  --app A --model M [--site S] [--grid G] [--runs N] [--seed S]\n\
     \u{20}         [--keep-runs K] [--fuel F] [--wall-limit-ms M] [--no-journal]\n\
     \u{20}         [--files F: output-file multiplicity] [--no-memo: whole-analyze only]\n\
     \u{20}         [--serial] [--addr H:P | --local [--root DIR]]\n\
     \u{20} status  <id> [--addr H:P] [--digest]\n\
     \u{20} watch   <id> [--addr H:P]\n\
     \u{20} cancel  <id> [--addr H:P]\n\
     \u{20} jobs    [--addr H:P]\n\
     \u{20} health  [--addr H:P]"
}

/// `--flag value` pairs plus bare `--switches`; positionals pass
/// through (job ids).
fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    const SWITCHES: [&str; 5] = ["local", "no-journal", "digest", "serial", "no-memo"];
    let mut map = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            if SWITCHES.contains(&flag) {
                map.insert(flag.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{} requires a value", flag))?;
            map.insert(flag.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((map, positional))
}

fn client(flags: &HashMap<String, String>) -> Client {
    Client::new(flags.get("addr").map(String::as_str).unwrap_or(DEFAULT_ADDR))
}

fn with_id(
    positional: &[String],
    flags: &HashMap<String, String>,
    f: impl Fn(u64, &HashMap<String, String>) -> Result<i32, String>,
) -> Result<i32, String> {
    let raw = positional.first().ok_or("expected a job id")?;
    let id = raw.parse().map_err(|_| format!("bad job id '{}'", raw))?;
    f(id, flags)
}

fn serve(flags: &HashMap<String, String>, cancel: &Arc<CancelToken>) -> Result<i32, String> {
    let mut config =
        DaemonConfig::new(flags.get("root").map(String::as_str).unwrap_or("results/daemon"));
    config.addr = flags.get("addr").cloned().unwrap_or_else(|| DEFAULT_ADDR.to_string());
    if let Some(w) = flags.get("workers") {
        config.workers = w.parse().map_err(|_| format!("bad --workers '{}'", w))?;
        if config.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
    }
    if let Some(v) = flags.get("retain") {
        config.retain = Some(v.parse().map_err(|_| format!("bad --retain '{}'", v))?);
    }
    if let Some(v) = flags.get("fanout") {
        config.fanout = v.parse().map_err(|_| format!("bad --fanout '{}'", v))?;
        if config.fanout == 0 {
            return Err("--fanout must be at least 1".into());
        }
    }
    let mut daemon = Daemon::start(config.clone()).map_err(|e| e.to_string())?;
    // The address line is the serve handshake: scripts (and the CI
    // daemon-smoke job) wait for it before submitting.
    println!("listening on {}", daemon.addr());
    eprintln!(
        "[ffis-daemon] root {} — {} worker slot(s); Ctrl-C / SIGTERM for graceful shutdown",
        config.root.display(),
        config.workers
    );
    while !cancel.is_cancelled() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("[ffis-daemon] interrupted — cancelling jobs, flushing journals");
    daemon.shutdown();
    eprintln!("[ffis-daemon] stopped; interrupted jobs resume on next serve");
    Ok(0)
}

fn spec_from_flags(flags: &HashMap<String, String>) -> Result<CampaignSpec, String> {
    let app = flags.get("app").ok_or("--app is required")?;
    let model = flags.get("model").ok_or("--model is required")?;
    let mut spec = CampaignSpec::new(app, model);
    if let Some(v) = flags.get("site") {
        spec.site = v.clone();
    }
    let parse_usize =
        |key: &str, v: &String| v.parse::<usize>().map_err(|_| format!("bad --{} '{}'", key, v));
    let parse_u64 =
        |key: &str, v: &String| v.parse::<u64>().map_err(|_| format!("bad --{} '{}'", key, v));
    if let Some(v) = flags.get("grid") {
        spec.grid = parse_usize("grid", v)?;
    }
    if let Some(v) = flags.get("runs") {
        spec.runs = parse_usize("runs", v)?;
    }
    if let Some(v) = flags.get("seed") {
        spec.seed = parse_u64("seed", v)?;
    }
    if let Some(v) = flags.get("keep-runs") {
        spec.keep_runs = Some(parse_usize("keep-runs", v)?);
    }
    if let Some(v) = flags.get("fuel") {
        spec.fuel = Some(parse_u64("fuel", v)?);
    }
    if let Some(v) = flags.get("wall-limit-ms") {
        spec.wall_limit_ms = Some(parse_u64("wall-limit-ms", v)?);
    }
    if let Some(v) = flags.get("files") {
        spec.files = parse_usize("files", v)?;
    }
    if flags.contains_key("no-memo") {
        spec.memo = false;
    }
    if flags.contains_key("no-journal") {
        spec.journal = false;
    }
    if flags.contains_key("serial") {
        spec.parallel = false;
    }
    spec.validate()?;
    Ok(spec)
}

fn submit(flags: &HashMap<String, String>) -> Result<i32, String> {
    let spec = spec_from_flags(flags)?;
    if flags.contains_key("local") {
        // In-process fallback: same spec, same executor, no daemon.
        let journal = flags.get("root").map(|root| {
            let dir = std::path::Path::new(root).join("local");
            let _ = std::fs::create_dir_all(&dir);
            dir.join(format!("{}.journal", spec.label().replace(':', "-")))
        });
        let hooks = ExecHooks { journal, ..ExecHooks::default() };
        let result = execute_spec(&spec, &hooks).map_err(|e| e.to_string())?;
        let t = &result.tally;
        println!(
            "local {} {} — benign {} detected {} sdc {} crash {} (no-fire {})",
            spec.label(),
            status_word(result.status),
            t.benign,
            t.detected,
            t.sdc,
            t.crash,
            t.no_fire
        );
        println!(
            "digest {} {} {:#018x} {:#018x}",
            spec.label(),
            spec.injection_site()?.token(),
            result.plan_fingerprint,
            result.run_digest()
        );
        return Ok(if result.status == CompletionStatus::Complete { 0 } else { 130 });
    }
    let id = client(flags).submit(&spec)?;
    println!("job {}", id);
    Ok(0)
}

fn print_view(view: &JobView) {
    let t = &view.tally;
    println!(
        "job {} {} — {} {} {} grid {} runs {}",
        view.id,
        view.state.token(),
        view.spec.app,
        view.spec.label(),
        view.spec.site,
        view.spec.grid,
        view.spec.runs
    );
    println!(
        "  executed {} resumed {} | benign {} detected {} sdc {} crash {} (no-fire {})",
        view.executed, view.resumed, t.benign, t.detected, t.sdc, t.crash, t.no_fire
    );
    if view.fuel_exhausted > 0 || view.deadline_exceeded > 0 {
        println!(
            "  aborted runs: fuel-exhausted {} deadline-exceeded {}",
            view.fuel_exhausted, view.deadline_exceeded
        );
    }
    if let Some(reason) = &view.memo_reason {
        println!(
            "  memo {} | hits {} misses {} invalidations {}",
            reason, view.memo_hits, view.memo_misses, view.memo_invalidations
        );
    }
    if let Some(failure) = &view.failure {
        println!("  failed [{}]: {}", failure.kind(), failure);
    }
}

fn status(id: u64, flags: &HashMap<String, String>) -> Result<i32, String> {
    let view = client(flags).job(id)?;
    if flags.contains_key("digest") {
        // One DIGESTS.txt-vocabulary line, for diffing against an
        // in-process control run.
        let (Some(fp), Some(digest)) = (view.plan_fingerprint, view.run_digest) else {
            return Err(format!("job {} has no digest yet (state: {})", id, view.state.token()));
        };
        println!(
            "{} {} {:#018x} {:#018x}",
            view.spec.label(),
            view.spec.injection_site()?.token(),
            fp,
            digest
        );
        return Ok(0);
    }
    print_view(&view);
    Ok(0)
}

fn watch_job(id: u64, flags: &HashMap<String, String>) -> Result<i32, String> {
    let final_view = client(flags).watch_live(id, |event| match event {
        StreamEvent::Snapshot(view) => {
            eprintln!(
                "watching job {} ({} {} {}) — {} of {} runs already in",
                view.id,
                view.spec.app,
                view.spec.label(),
                view.spec.site,
                view.executed + view.resumed,
                view.spec.runs
            );
        }
        StreamEvent::Run { run, outcome, fired, resumed, aborted } => {
            let mark = match outcome {
                Outcome::Benign if !fired => "no-fire",
                o => o.name(),
            };
            let suffix = match (resumed, aborted) {
                (true, _) => " (resumed)".to_string(),
                (false, Some(reason)) => format!(" [{}]", reason),
                (false, None) => String::new(),
            };
            println!("run {:>6} {}{}", run, mark, suffix);
        }
        StreamEvent::Done(_) => {}
    })?;
    print_view(&final_view);
    Ok(match final_view.state {
        ffis_core::JobState::Complete => 0,
        ffis_core::JobState::Failed => 1,
        _ => 130,
    })
}

fn cancel_job(id: u64, flags: &HashMap<String, String>) -> Result<i32, String> {
    let view = client(flags).cancel(id)?;
    println!("job {} {}", view.id, view.state.token());
    Ok(0)
}

fn jobs(flags: &HashMap<String, String>) -> Result<i32, String> {
    let views = client(flags).jobs()?;
    if views.is_empty() {
        println!("no jobs");
        return Ok(0);
    }
    for view in views {
        println!(
            "{:>4} {:<12} {:<8} {:<5} {:<5} grid {:<4} runs {:<7} done {}",
            view.id,
            view.state.token(),
            view.spec.app,
            view.spec.label(),
            view.spec.site,
            view.spec.grid,
            view.spec.runs,
            view.executed + view.resumed
        );
    }
    Ok(0)
}

fn health(flags: &HashMap<String, String>) -> Result<i32, String> {
    let reply = client(flags).healthz()?;
    let n = |key: &str| reply.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    println!(
        "ok — running {} queued {} max-concurrent {} app-builds {} golden-runs {}",
        n("running"),
        n("queued"),
        n("max_concurrent"),
        n("app_builds"),
        n("golden_runs")
    );
    Ok(0)
}

fn status_word(status: CompletionStatus) -> &'static str {
    match status {
        CompletionStatus::Complete => "complete",
        CompletionStatus::Interrupted => "interrupted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn specs_build_from_flags_with_cli_validation() {
        let spec = spec_from_flags(&flags(&[
            ("app", "nyx"),
            ("model", "SW"),
            ("site", "read"),
            ("grid", "64"),
            ("runs", "96"),
            ("seed", "4279640097"),
            ("keep-runs", "64"),
        ]))
        .unwrap();
        assert_eq!(spec.label(), "r:SR");
        assert_eq!(spec.grid, 64);
        assert_eq!(spec.keep_runs, Some(64));
        assert!(spec.journal && spec.parallel);

        let mut multi = flags(&[("app", "montage"), ("model", "BF"), ("files", "8")]);
        multi.insert("no-memo".into(), "true".into());
        let spec = spec_from_flags(&multi).unwrap();
        assert_eq!(spec.label(), "BF:f8");
        assert!(!spec.memo);

        let err =
            spec_from_flags(&flags(&[("app", "nyx"), ("model", "BF"), ("runs", "0")])).unwrap_err();
        assert!(err.contains("runs must be at least 1"), "{err}");
        let err =
            spec_from_flags(&flags(&[("app", "nyx"), ("model", "BF"), ("grid", "8")])).unwrap_err();
        assert!(err.contains("below the minimum"), "{err}");
        let err = spec_from_flags(&flags(&[("model", "BF")])).unwrap_err();
        assert!(err.contains("--app is required"), "{err}");
    }

    #[test]
    fn switches_do_not_eat_values() {
        let (map, positional) = parse_flags(&[
            "7".to_string(),
            "--digest".to_string(),
            "--addr".to_string(),
            "127.0.0.1:9".to_string(),
        ])
        .unwrap();
        assert_eq!(positional, vec!["7"]);
        assert_eq!(map.get("digest").map(String::as_str), Some("true"));
        assert_eq!(map.get("addr").map(String::as_str), Some("127.0.0.1:9"));
        assert!(parse_flags(&["--addr".to_string()]).is_err());
    }
}
