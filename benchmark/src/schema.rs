//! The benchmark's vocabulary: workload names, end-to-end and
//! per-layer metric names with their units, bounds and floors, and the
//! report every invocation produces. `BENCHMARK.json` at the repository
//! root is checked against these tables by a unit test.

use ffis_daemon::json::Json;

use crate::stats::Summary;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, why)` of the five workloads. Later issues cite these names.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "nyx_write",
        "Nyx 96^3 write-site bit flips: checkpoint forks, page CoW, suffix replay of MiB payloads, hdf5lite decode and halo finding all carry weight",
    ),
    (
        "nyx_read",
        "same app and grid at the read site (analyze-only): bypasses trace replay and checkpoints, so a replay or fork change must show no change here",
    ),
    (
        "montage_tiles",
        "Montage 24 tiles, write then read cell over shared stores: memo store, read ledger, filtered tail replay and fitslite; the one workload warm stores transform",
    ),
    (
        "scan_meta",
        "exhaustive byte scan of the Nyx HDF5 metadata write: tiny files, so per-run fixed cost (fork, mount, classify) dominates and data movement does not",
    ),
    (
        "daemon_jobs",
        "closed loop of 126 small jobs through the in-process daemon: http, json, job queue, run journal and disk tiers; the only place QMC, SW and DW run",
    ),
];

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// Absolute change below which a difference is never a regression
    /// (in the metric's unit).
    pub floor: f64,
    /// Listed in `BENCHMARK.json`, i.e. defined on all five workloads.
    /// The others are printed and compared by this benchmark's own
    /// `compare`, on the workloads they apply to.
    pub universal: bool,
}

/// The nine end-to-end metrics, universal ones first.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
        universal: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        universal: true,
    },
    EndToEnd {
        name: "first_result_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.030,
        universal: true,
    },
    EndToEnd {
        name: "runs_per_s",
        unit: "runs/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        universal: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        floor: 1.0,
        universal: true,
    },
    EndToEnd {
        name: "warm_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        universal: false,
    },
    EndToEnd {
        name: "job_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        universal: false,
    },
    EndToEnd {
        name: "job_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
        universal: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
        universal: false,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

use Better::{Higher, Lower};

/// `(name, unit, better)` of every per-layer metric, grouped by
/// source: A = the traced serial pass, B = counters the public result
/// types expose, C = fixed-count probes of one layer's public
/// functions. README.md maps each to the end-to-end metric it should
/// move.
pub const PER_LAYER: [(&str, &str, Better); 89] = [
    // A — attribution of the traced serial pass.
    ("trace.wall_s", "s", Lower),
    ("trace.setup_s", "s", Lower),
    ("trace.app_produce_s", "s", Lower),
    ("trace.app_produce_calls", "count", Lower),
    ("trace.app_analyze_s", "s", Lower),
    ("trace.app_analyze_calls", "count", Lower),
    ("trace.app_classify_s", "s", Lower),
    ("trace.fs_read_s", "s", Lower),
    ("trace.fs_read_ops", "count", Lower),
    ("trace.fs_read_bytes", "B", Lower),
    ("trace.fs_write_s", "s", Lower),
    ("trace.fs_write_ops", "count", Lower),
    ("trace.fs_write_bytes", "B", Lower),
    ("trace.fs_meta_s", "s", Lower),
    ("trace.fs_meta_ops", "count", Lower),
    ("trace.engine_residual_s", "s", Lower),
    ("trace.engine_residual_share", "ratio", Lower),
    ("trace.overhead_share", "ratio", Lower),
    ("executor.parallel_speedup", "ratio", Higher),
    ("executor.threads", "count", Higher),
    ("proc.cpu_user_s", "s", Lower),
    ("proc.cpu_sys_s", "s", Lower),
    ("proc.cpu_sys_share", "ratio", Lower),
    // B — exact-repeat counts off the result types.
    ("replay.suffix_ops", "count", Lower),
    ("replay.overshoot_ops", "count", Lower),
    ("replay.batches", "count", Lower),
    ("replay.batched_runs", "count", Higher),
    ("replay.coalesced_ops", "count", Higher),
    ("replay.skipped_tail_ops", "count", Higher),
    ("memo.hits", "count", Higher),
    ("memo.misses", "count", Lower),
    ("memo.invalidations", "count", Lower),
    ("memo.hit_ratio", "ratio", Higher),
    ("checkpoints.builds", "count", Lower),
    ("checkpoints.hits", "count", Higher),
    ("checkpoints.disk_hits", "count", Higher),
    ("blobs.dedup_ratio", "ratio", Higher),
    ("blobs.physical_bytes", "B", Lower),
    ("mode.fast_path_share", "ratio", Higher),
    ("daemon.disk_bytes_per_job", "B", Lower),
    // C — probes, by module.
    ("file.write_at_ns", "ns", Lower),
    ("file.cow_write_ns", "ns", Lower),
    ("file.read_at_mbps", "MB/s", Higher),
    ("memfs.fork_us", "us", Lower),
    ("memfs.pwrite_4k_ns", "ns", Lower),
    ("memfs.pread_mbps", "MB/s", Higher),
    ("ffisfs.crossing_ns", "ns", Lower),
    ("ffisfs.intercepted_crossing_ns", "ns", Lower),
    ("trace.capture_overhead_share", "ratio", Lower),
    ("trace.replay_ns_per_op", "ns", Lower),
    ("trace.replay_mbps", "MB/s", Higher),
    ("trace.replay_coalesced_mbps", "MB/s", Higher),
    ("trace.checkpoint_build_ms", "ms", Lower),
    ("trace.demand_build_ms", "ms", Lower),
    ("trace.fork_at_targets_us", "us", Lower),
    ("trace.mount_fork_us", "us", Lower),
    ("blobs.sha256_mbps", "MB/s", Higher),
    ("blobs.crc32_mbps", "MB/s", Higher),
    ("blobs.put_mem_us", "us", Lower),
    ("blobs.get_mem_us", "us", Lower),
    ("blobs.put_disk_us", "us", Lower),
    ("blobs.get_disk_us", "us", Lower),
    ("checkpoints.store_hit_us", "us", Lower),
    ("checkpoints.disk_load_ms", "ms", Lower),
    ("memo.get_hit_ns", "ns", Lower),
    ("memo.put_us", "us", Lower),
    ("memo.get_disk_us", "us", Lower),
    ("hdf5lite.write_mbps", "MB/s", Higher),
    ("hdf5lite.read_mbps", "MB/s", Higher),
    ("hdf5lite.open_us", "us", Lower),
    ("fitslite.write_mbps", "MB/s", Higher),
    ("fitslite.read_mbps", "MB/s", Higher),
    ("nyx.produce_ms", "ms", Lower),
    ("nyx.analyze_ms", "ms", Lower),
    ("montage.produce_ms", "ms", Lower),
    ("montage.analyze_ms", "ms", Lower),
    ("qmc.produce_ms", "ms", Lower),
    ("qmc.analyze_ms", "ms", Lower),
    ("profiler.overhead_share", "ratio", Lower),
    ("journal.append_us", "us", Lower),
    ("journal.resume_records_per_s", "1/s", Higher),
    ("journal.merge_records_per_s", "1/s", Higher),
    ("metadata_scan.replay_byte_us", "us", Lower),
    ("metadata_scan.rerun_byte_us", "us", Lower),
    ("json.parse_mbps", "MB/s", Higher),
    ("json.render_mbps", "MB/s", Higher),
    ("http.healthz_rtt_us", "us", Lower),
    ("jobs.admit_us", "us", Lower),
    ("jobs.reopen_ms", "ms", Lower),
];

/// The command `BENCHMARK.json` names: build this package and run it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures (`run_seconds`), and the default of
/// `--seconds`.
pub const RUN_SECONDS: u32 = 16;

/// The content of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let str_arr = |items: &[&str]| {
        items.iter().map(|s| Json::Str((*s).into()).render()).collect::<Vec<_>>().join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", str_arr(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|(name, why)| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    Json::Str((*name).into()).render(),
                    Json::Str((*why).into()).render()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .filter(|m| m.universal)
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.token(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    name,
                    unit,
                    better.token()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// One measured value. Timings carry the quartiles and count of the
/// samples their median was taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<Summary>,
}

impl Metric {
    /// An end-to-end metric from the table, by name.
    pub fn e2e(name: &str, value: f64, samples: Option<Summary>) -> Metric {
        let def = end_to_end(name).unwrap_or_else(|| panic!("unknown end-to-end metric {name}"));
        Metric { name: def.name, unit: def.unit, value, samples }
    }

    /// A per-layer metric from the table, by name.
    pub fn layer(name: &str, value: f64) -> Metric {
        let def = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        Metric { name: def.0, unit: def.1, value, samples: None }
    }
}

/// Everything one invocation (one workload, traced or not) measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Timed or counted units of work (runs, byte-runs, jobs, requests).
    pub attempted: u64,
    /// Violations of the correctness gate, one line each.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Metrics of this mode that have no meaning on this workload.
    pub not_applicable: Vec<&'static str>,
    /// `cell-identity digest tally` lines, in `expected/DIGESTS.txt` format.
    pub digests: Vec<String>,
    /// `(warm-up, cold, warm)` rep counts.
    pub reps: (usize, usize, usize),
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Self {
        Report {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            attempted: 0,
            violations: Vec::new(),
            metrics: Vec::new(),
            not_applicable: Vec::new(),
            digests: Vec::new(),
            reps: (0, 0, 0),
        }
    }

    pub fn failed(&self) -> u64 {
        self.violations.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn push_e2e(&mut self, name: &str, value: f64, samples: Option<Summary>) {
        self.metrics.push(Metric::e2e(name, value, samples));
    }

    pub fn push_layer(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric::layer(name, value));
    }

    /// Check one condition of the correctness gate.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The one-line result the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and `metrics`, the metrics
    /// being the `BENCHMARK.json` list of this mode. A per-layer
    /// metric without meaning on this workload reads 0 here (the
    /// contract wants every name on every workload); the full report
    /// lists it under `not_applicable` instead.
    pub fn contract_line(&self) -> String {
        let names: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().filter(|m| m.universal).map(|m| (m.name, m.unit)).collect()
        };
        let metrics = names
            .into_iter()
            .map(|(name, unit)| {
                let value = self.get(name).map_or(0.0, |m| m.value);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed() as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The full report: every metric that applies, with quartiles and
    /// sample counts, plus digests, violations and rep counts.
    pub fn to_json(&self) -> Json {
        let metric = |m: &Metric| {
            let mut members = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.into())),
            ];
            if let Some(s) = m.samples {
                members.push(("q1".into(), Json::Num(s.q1)));
                members.push(("q3".into(), Json::Num(s.q3)));
                members.push(("n".into(), Json::Num(s.n as f64)));
            }
            (m.name.to_string(), Json::Obj(members))
        };
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("trace".into(), Json::Bool(self.trace)),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed() as f64)),
            (
                "reps".into(),
                Json::Obj(vec![
                    ("warmup".into(), Json::Num(self.reps.0 as f64)),
                    ("cold".into(), Json::Num(self.reps.1 as f64)),
                    ("warm".into(), Json::Num(self.reps.2 as f64)),
                ]),
            ),
            ("metrics".into(), Json::Obj(self.metrics.iter().map(metric).collect())),
            (
                "not_applicable".into(),
                Json::Arr(self.not_applicable.iter().map(|n| Json::Str((*n).into())).collect()),
            ),
            ("digests".into(), strings(&self.digests)),
            ("violations".into(), strings(&self.violations)),
        ])
    }

    /// Human-readable table: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} (seed {}, {} s, trace {}{})\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            if self.smoke { ", smoke" } else { "" }
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit));
            if let Some(s) = m.samples {
                out.push_str(&format!("   [q1 {:.6}, q3 {:.6}, n {}]", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        for name in &self.not_applicable {
            out.push_str(&format!("  {:<34} {:>16} (does not apply)\n", name, "-"));
        }
        out.push_str(&format!(
            "  attempted {}, failed {}, reps warm-up/cold/warm {}/{}/{}\n",
            self.attempted,
            self.failed(),
            self.reps.0,
            self.reps.1,
            self.reps.2
        ));
        for v in &self.violations {
            out.push_str(&format!("  VIOLATION: {}\n", v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_daemon::json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_within_the_output_schema() {
        assert!(WORKLOADS.len() <= 8);
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why too long");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
    }

    #[test]
    fn benchmark_json_is_the_manifest_of_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "regenerate with `benchmark manifest > BENCHMARK.json`");
        let doc = json::parse(committed).unwrap();
        let keys: Vec<&str> = match &doc {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let count = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().len();
        assert_eq!(count("workloads"), WORKLOADS.len());
        assert_eq!(count("end_to_end"), END_TO_END.iter().filter(|m| m.universal).count());
        assert_eq!(count("per_layer"), PER_LAYER.len());
        assert!(committed.len() <= 64 * 1024);
        for part in COMMAND {
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut report = Report::new("nyx_write", 1, 1.0, false, true);
        report.attempted = 10;
        for m in END_TO_END.iter() {
            report.push_e2e(m.name, 1.5, None);
        }
        let line = json::parse(&report.contract_line()).unwrap();
        let keys: Vec<&str> = match &line {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = match line.get("metrics") {
            Some(Json::Obj(members)) => members.clone(),
            _ => panic!("metrics is not an object"),
        };
        assert_eq!(metrics.len(), END_TO_END.iter().filter(|m| m.universal).count());
        for (name, m) in &metrics {
            assert!(valid_name(name));
            assert!(m.get("unit").and_then(Json::as_str).is_some_and(valid_unit));
            assert!(matches!(m.get("value"), Some(Json::Num(_))));
        }
        let mut traced = Report::new("nyx_write", 1, 1.0, true, true);
        traced.push_layer("memo.hits", 3.0);
        let line = json::parse(&traced.contract_line()).unwrap();
        match line.get("metrics") {
            Some(Json::Obj(members)) => assert_eq!(members.len(), PER_LAYER.len()),
            _ => panic!("metrics is not an object"),
        }
    }
}
