//! Minimal `--flag value` argument parsing for the `repro` binary.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use ffis_core::CancelToken;

/// Smallest Nyx grid the paper workloads run on — re-exported from the
/// core job layer so the CLI flag validation and the daemon's HTTP 400
/// validation share one floor (see `ffis_core::engine::job`).
pub use ffis_core::MIN_GRID;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Injection runs per campaign cell (paper: 1000).
    pub runs: usize,
    /// Root seed.
    pub seed: u64,
    /// Nyx grid side for campaign experiments.
    pub grid: usize,
    /// Was `--grid` given explicitly? Scale-regime experiments default
    /// to the paper's n=192 grid *unless* the operator pinned one, so
    /// scale runs never require code edits (`repro scale --grid 64`).
    pub grid_explicit: bool,
    /// Output directory for reports/artifacts.
    pub out: PathBuf,
    /// Quick mode: smaller workloads and fewer runs (CI-friendly).
    pub quick: bool,
    /// Directory for per-campaign run journals (`--journal DIR`).
    /// Campaign-grade experiments write one append-only journal per
    /// cell there; with [`Options::resume`] an interrupted invocation
    /// picks up where it stopped.
    pub journal: Option<PathBuf>,
    /// Resume from existing journals in [`Options::journal`]
    /// (`--resume`). Safe to pass unconditionally: missing journal
    /// files start fresh, and a journal from a different configuration
    /// is rejected with a clear error.
    pub resume: bool,
    /// Worker *processes* for the distributed fan-out (`--workers N`).
    /// `1` (the default) runs everything in-process; `N > 1` makes
    /// `repro scale` shard each campaign's run plan by index range
    /// across `N` spawned worker processes and merge their journal
    /// segments (engine law 7: the results are byte-identical either
    /// way).
    pub workers: usize,
    /// Cooperative cancellation token, wired to Ctrl-C by the `repro`
    /// binary. Not a CLI flag; experiments thread it into their
    /// campaigns.
    pub cancel: Option<Arc<CancelToken>>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            runs: 1000,
            seed: 0xFF15_2021,
            grid: 96,
            grid_explicit: false,
            out: PathBuf::from("results"),
            quick: false,
            journal: None,
            resume: false,
            workers: 1,
            cancel: None,
        }
    }
}

impl Options {
    /// Parse from `--flag value` pairs; returns the options and any
    /// positional arguments.
    pub fn parse(args: &[String]) -> Result<(Options, Vec<String>), String> {
        let mut opts = Options::default();
        let mut positional = Vec::new();
        let mut map: HashMap<String, String> = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--") {
                if flag == "quick" {
                    opts.quick = true;
                    continue;
                }
                if flag == "resume" {
                    opts.resume = true;
                    continue;
                }
                let value =
                    it.next().ok_or_else(|| format!("--{} requires a value", flag))?.clone();
                map.insert(flag.to_string(), value);
            } else {
                positional.push(a.clone());
            }
        }
        if let Some(v) = map.get("runs") {
            opts.runs = v.parse().map_err(|_| format!("bad --runs '{}'", v))?;
            if opts.runs == 0 {
                return Err("--runs must be at least 1".into());
            }
        }
        if let Some(v) = map.get("seed") {
            opts.seed = v.parse().map_err(|_| format!("bad --seed '{}'", v))?;
        }
        if let Some(v) = map.get("grid") {
            opts.grid = v.parse().map_err(|_| format!("bad --grid '{}'", v))?;
            if opts.grid < MIN_GRID {
                return Err(format!(
                    "--grid {} is below the minimum {} (the paper workloads need at least a \
                     {MIN_GRID}\u{b3} field)",
                    opts.grid, MIN_GRID
                ));
            }
            opts.grid_explicit = true;
        }
        if let Some(v) = map.get("out") {
            opts.out = PathBuf::from(v);
        }
        if let Some(v) = map.get("journal") {
            opts.journal = Some(PathBuf::from(v));
        }
        if let Some(v) = map.get("workers") {
            opts.workers = v.parse().map_err(|_| format!("bad --workers '{}'", v))?;
            if opts.workers == 0 {
                return Err("--workers must be at least 1".into());
            }
        }
        if opts.quick {
            opts.runs = opts.runs.min(120);
            opts.grid = opts.grid.min(48);
        }
        Ok((opts, positional))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> (Options, Vec<String>) {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn defaults() {
        let (o, pos) = parse(&["fig7"]);
        assert_eq!(o.runs, 1000);
        assert_eq!(o.grid, 96);
        assert!(!o.quick);
        assert_eq!(pos, vec!["fig7"]);
    }

    #[test]
    fn flags_override() {
        let (o, pos) =
            parse(&["table3", "--runs", "50", "--seed", "9", "--grid", "32", "--out", "/tmp/x"]);
        assert_eq!(o.runs, 50);
        assert_eq!(o.seed, 9);
        assert_eq!(o.grid, 32);
        assert!(o.grid_explicit);
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
        assert_eq!(pos, vec!["table3"]);
    }

    #[test]
    fn grid_defaults_are_not_explicit() {
        let (o, _) = parse(&["scale"]);
        assert!(!o.grid_explicit);
        let (o, _) = parse(&["scale", "--runs", "5"]);
        assert!(!o.grid_explicit);
    }

    #[test]
    fn quick_caps_sizes() {
        let (o, _) = parse(&["fig7", "--quick"]);
        assert!(o.quick);
        assert!(o.runs <= 120);
        assert!(o.grid <= 48);
    }

    #[test]
    fn missing_value_is_error() {
        let args: Vec<String> = vec!["--runs".into()];
        assert!(Options::parse(&args).is_err());
        let bad: Vec<String> = vec!["--runs".into(), "abc".into()];
        assert!(Options::parse(&bad).is_err());
    }

    #[test]
    fn zero_runs_is_a_clear_error_not_a_panic() {
        let args: Vec<String> = vec!["scale".into(), "--runs".into(), "0".into()];
        let err = Options::parse(&args).unwrap_err();
        assert!(err.contains("--runs must be at least 1"), "{err}");
    }

    #[test]
    fn undersized_grid_is_a_clear_error_not_a_panic() {
        for g in ["0", "1", "8", "12", "15"] {
            let args: Vec<String> = vec!["fig8".into(), "--grid".into(), g.into()];
            let err = Options::parse(&args).unwrap_err();
            assert!(err.contains("below the minimum"), "grid {g}: {err}");
        }
        let args: Vec<String> = vec!["fig8".into(), "--grid".into(), "16".into()];
        assert!(Options::parse(&args).is_ok());
    }

    #[test]
    fn workers_flag_parses_and_rejects_zero() {
        let (o, _) = parse(&["scale", "--workers", "4"]);
        assert_eq!(o.workers, 4);
        let (o, _) = parse(&["scale"]);
        assert_eq!(o.workers, 1);
        let args: Vec<String> = vec!["scale".into(), "--workers".into(), "0".into()];
        let err = Options::parse(&args).unwrap_err();
        assert!(err.contains("--workers must be at least 1"), "{err}");
    }

    #[test]
    fn journal_and_resume_flags_parse() {
        let (o, pos) = parse(&["scale", "--journal", "/tmp/j", "--resume"]);
        assert_eq!(o.journal, Some(PathBuf::from("/tmp/j")));
        assert!(o.resume);
        assert_eq!(pos, vec!["scale"]);
        let (o, _) = parse(&["scale"]);
        assert_eq!(o.journal, None);
        assert!(!o.resume);
    }
}
