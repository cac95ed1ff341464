//! What every workload shares: the measured regime, seed derivation,
//! process counters, provenance, and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ffis_core::CampaignSpec;
use ffis_daemon::json::Json;

/// The seed used when `--seed` is not given; `expected/DIGESTS.txt`
/// pins the digests of every cell at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// The environment switches that would silently change the regime.
const REGIME_VARS: [&str; 3] = ["FFIS_REPLAY", "FFIS_MEMO", "FFIS_REPLAY_OPT"];

/// The regime every workload measures, recorded in each result.
pub const REGIME: &str =
    "default: replay on, memo on, replay_opt on (FFIS_REPLAY, FFIS_MEMO, FFIS_REPLAY_OPT removed)";

/// Remove the regime switches from the environment, so spec and
/// config defaults read "all fast paths on" whatever the caller set.
/// Must run before any other thread starts.
pub fn pin_regime() {
    for var in REGIME_VARS {
        std::env::remove_var(var);
    }
}

/// Options common to every workload invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Scratch directory (daemon roots, disk-tier probes, span dumps);
    /// inside the checkout, ignored by git.
    pub out: PathBuf,
}

/// SplitMix64 step: the one generator seeds and orders derive from.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A spec in the measured regime: fast paths set explicitly, no
/// journal (the daemon workload turns its own on), user-default
/// parallelism.
pub fn spec(
    app: &str,
    model: &str,
    site: &str,
    grid: usize,
    files: usize,
    runs: usize,
) -> CampaignSpec {
    let mut s = CampaignSpec::new(app, model);
    s.site = site.into();
    s.grid = grid;
    s.files = files;
    s.runs = runs;
    s.memo = true;
    s.replay_opt = true;
    s.parallel = true;
    s.journal = false;
    s.resume = false;
    s
}

/// Identity of a cell in `expected/DIGESTS.txt`: everything that
/// determines its digest.
pub fn cell_id(spec: &CampaignSpec) -> String {
    format!(
        "{}/{}/g{}/n{}/seed{:#x}",
        spec.app.to_ascii_lowercase(),
        spec.label(),
        spec.grid,
        spec.runs,
        spec.seed
    )
}

/// `benign/detected/sdc/crash/no_fire` of a tally.
pub fn tally_token(t: &ffis_core::OutcomeTally) -> String {
    format!("{}/{}/{}/{}/{}", t.benign, t.detected, t.sdc, t.crash, t.no_fire)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The set-up timings of one run. The first set-up yields the
/// fixture; the rest are repeated between timed reps, so that their
/// median spans the run and not just its first instant.
pub struct SetUps {
    times: Vec<f64>,
    wanted: usize,
}

impl SetUps {
    /// Time the first of `wanted` set-ups and keep what it built.
    pub fn first<T>(
        wanted: usize,
        set_up: impl FnOnce() -> Result<T, String>,
    ) -> Result<(T, SetUps), String> {
        let start = Instant::now();
        let fixture = set_up()?;
        Ok((fixture, SetUps { times: vec![secs(start)], wanted }))
    }

    /// Time one more set-up, unless enough were timed; says whether
    /// it ran.
    pub fn again<T>(&mut self, set_up: impl FnOnce() -> Result<T, String>) -> Result<bool, String> {
        if self.times.len() >= self.wanted {
            return Ok(false);
        }
        let start = Instant::now();
        set_up()?;
        self.times.push(secs(start));
        Ok(true)
    }

    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// `VmHWM` of this process in MB (0 when /proc is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(user, sys)` CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    (tick(11), tick(12))
}

/// Threads the rayon shim fans a parallel campaign out to.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], cwd: Option<&Path>) -> Option<String> {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    if let Some(dir) = cwd {
        cmd.current_dir(dir);
    }
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host, core count, commit, compiler and regime of a result file.
pub fn provenance() -> Json {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches(|c: char| c == ':' || c.is_whitespace()).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let commit = command_line("git", &["rev-parse", "HEAD"], Some(manifest_dir))
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_line("rustc", &["-V"], None).unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("host".into(), Json::Str(host)),
        ("cpu".into(), Json::Str(cpu)),
        ("nproc".into(), Json::Num(threads() as f64)),
        ("commit".into(), Json::Str(commit)),
        ("rustc".into(), Json::Str(rustc)),
        ("regime".into(), Json::Str(REGIME.into())),
    ])
}

/// A fresh, empty directory `out/<name>-<pid>`; removed by [`remove_dir`].
pub fn scratch_dir(out: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = out.join(format!("{}-{}", name, std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Best-effort removal of a scratch directory.
pub fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("[benchmark] could not remove {}: {}", dir.display(), e);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_and_orders_are_deterministic() {
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let (user, sys) = cpu_times();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(threads() >= 1);
    }
}
