//! The `scan_meta` workload: the paper's §IV-D experiment, an
//! exhaustive byte-by-byte scan of the Nyx HDF5 metadata write through
//! `ffis_core::scan`, four single-bit scans per rep.

use std::time::Instant;

use ffis_core::{
    run_with_byte_fault, scan, scan_detailed, ByteFlip, FaultApp, FlipMode, Outcome, ScanConfig,
    ScanResult,
};
use ffis_vfs::MemFs;
use nyx_sim::{FieldConfig, NyxApp, NyxConfig};

use crate::campaigns::{dump_spans, spans_file, Attribution, Gate, PassTimes, SETUPS};
use crate::harness::{self, mix, secs, tally_token, Options};
use crate::schema::Report;
use crate::spans::{FsClass, Recorder};
use crate::stats::{median, summarize};
use crate::traced::{TracedApp, TracedFs};

/// The four bits scanned per rep.
const BITS: [u8; 4] = [0, 2, 5, 7];

/// Bytes per scan whose outcome set-up derives by full re-execution.
const ORACLE_BYTES: usize = 64;

/// One byte's outcome by the legacy route: the whole application
/// re-executed with the byte fault armed, no fork, no replay.
pub struct OracleByte {
    pub config: usize,
    pub byte_index: usize,
    pub outcome: Outcome,
    pub crash_message: Option<String>,
}

/// What set-up produces: the application, the scan configurations in
/// seeded order, the metadata size the scans must cover, and the
/// re-execution oracle a sample of every scan is checked against.
pub struct Fixture {
    pub app: NyxApp,
    pub configs: Vec<ScanConfig>,
    pub metadata_bytes: usize,
    pub oracle: Vec<OracleByte>,
}

pub fn nyx_app(opts: &Options) -> NyxApp {
    NyxApp::new(NyxConfig {
        field: FieldConfig { n: if opts.smoke { 16 } else { 32 }, ..FieldConfig::default() },
        keep_field: true,
        ..NyxConfig::default()
    })
}

/// Set-up: build the application (runs the field simulation), size its
/// metadata block from the format crate's own layout, derive the scan
/// order and seeds, and re-execute the application once per sampled
/// byte for the oracle.
pub fn set_up(opts: &Options) -> Result<Fixture, String> {
    let app = nyx_app(opts);
    let metadata_bytes = app.metadata_size() as usize;
    let mut bits = BITS.to_vec();
    harness::shuffle(&mut bits, opts.seed);
    let configs: Vec<ScanConfig> = bits
        .into_iter()
        .enumerate()
        .map(|(k, bit)| {
            let mut cfg = ScanConfig::new(NyxApp::plotfile_filter());
            cfg.flip = FlipMode::Bit(bit);
            cfg.seed = mix(opts.seed, k as u64);
            cfg.stride = if opts.smoke { 8 } else { 1 };
            cfg.parallel = true;
            cfg.replay = true;
            cfg
        })
        .collect();
    let oracle = oracle(&app, &configs, metadata_bytes, opts.seed)?;
    Ok(Fixture { app, configs, metadata_bytes, oracle })
}

/// The metadata write is the penultimate write of the fault-free run,
/// counted here by the benchmark's own wrapper; each sampled byte is
/// then re-executed from scratch with the fault armed on that write.
fn oracle(
    app: &NyxApp,
    configs: &[ScanConfig],
    metadata_bytes: usize,
    seed: u64,
) -> Result<Vec<OracleByte>, String> {
    let rec = Recorder::new();
    let golden = app.run(&TracedFs::new(&MemFs::new(), &rec))?;
    rec.stamp(None);
    let writes = rec.fs_totals(|_| true)[FsClass::Write as usize].ops;
    let write_instance = writes.checked_sub(1).ok_or("the fault-free run wrote nothing")?;
    let mut out = Vec::new();
    for (config, cfg) in configs.iter().enumerate() {
        let FlipMode::Bit(bit) = cfg.flip else { unreachable!("single-bit scans only") };
        let slots = metadata_bytes.div_ceil(cfg.stride) as u64;
        for j in 0..ORACLE_BYTES {
            let slot = mix(seed, (config * ORACLE_BYTES + j) as u64 + 1000) % slots;
            let byte_index = slot as usize * cfg.stride;
            let (outcome, _, crash_message) = run_with_byte_fault(
                app,
                &golden,
                &cfg.target,
                write_instance,
                byte_index,
                ByteFlip::Xor(1 << bit),
            );
            out.push(OracleByte { config, byte_index, outcome, crash_message });
        }
    }
    Ok(out)
}

/// FNV-1a over every byte's offset, outcome and crash message.
pub fn byte_digest(result: &ScanResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for b in &result.bytes {
        eat(&(b.byte_index as u64).to_le_bytes());
        eat(&b.file_offset.to_le_bytes());
        eat(b.outcome.name().as_bytes());
        eat(b.crash_message.as_deref().unwrap_or("-").as_bytes());
    }
    h
}

fn scan_id(cfg: &ScanConfig, fx: &Fixture) -> String {
    let bit = match cfg.flip {
        FlipMode::Bit(b) => b,
        _ => unreachable!("set_up only builds single-bit scans"),
    };
    format!("scan/nyx/g{}/bit{}/stride{}", fx.app.n(), bit, cfg.stride)
}

/// The correctness gate of one scan: it agrees with the re-execution
/// oracle, covers the whole metadata write, tallies every byte, and
/// digests like every other execution of the same scan (and like its
/// pin, which no seed changes: a single-bit flip draws nothing).
fn check(gate: &mut Gate, report: &mut Report, fx: &Fixture, config: usize, r: &ScanResult) {
    let cfg = &fx.configs[config];
    let id = scan_id(cfg, fx);
    report.attempted += r.bytes.len() as u64 + 1;
    for o in fx.oracle.iter().filter(|o| o.config == config) {
        let scanned = r.bytes.get(o.byte_index / cfg.stride);
        let agrees = scanned.is_some_and(|b| {
            b.byte_index == o.byte_index
                && b.outcome == o.outcome
                && b.crash_message == o.crash_message
        });
        report.check(agrees, || {
            format!(
                "{id}: byte {} scanned as {:?}, re-execution gives {:?}",
                o.byte_index,
                scanned.map(|b| b.outcome),
                o.outcome
            )
        });
    }
    report.check(r.write_len == fx.metadata_bytes, || {
        format!(
            "{id}: scanned a {}-byte write, metadata is {} bytes",
            r.write_len, fx.metadata_bytes
        )
    });
    let expected = r.write_len.div_ceil(cfg.stride);
    report.check(r.bytes.len() == expected && r.tally.total() == expected as u64, || {
        format!(
            "{id}: {} byte-runs, tally {}, expected {}",
            r.bytes.len(),
            r.tally.total(),
            expected
        )
    });
    gate.check_pin(report, &id, (byte_digest(r), tally_token(&r.tally)));
}

struct Rep {
    wall: f64,
    first_result: f64,
    bytes_per_s: f64,
}

fn run_rep(fx: &Fixture, gate: &mut Gate, report: &mut Report) -> Result<Rep, String> {
    let start = Instant::now();
    let (mut first_result, mut bytes) = (None, 0usize);
    for (i, cfg) in fx.configs.iter().enumerate() {
        let result = scan(&fx.app, cfg)?;
        first_result.get_or_insert_with(|| secs(start));
        bytes += result.bytes.len();
        check(gate, report, fx, i, &result);
    }
    let wall = secs(start);
    Ok(Rep { wall, first_result: first_result.unwrap_or(wall), bytes_per_s: bytes as f64 / wall })
}

const WARMUP_REPS: usize = 2;

pub fn run_untraced(opts: &Options) -> Result<Report, String> {
    let mut report = Report::new("scan_meta", opts.seed, opts.seconds, false, opts.smoke);
    let (fx, mut setups) = harness::SetUps::first(SETUPS, || set_up(opts))?;
    let mut gate = Gate::always_pinned();
    // Peak memory is read after the first rep: see `campaigns`.
    let mut peak_rss_mb = 0.0;
    for i in 0..WARMUP_REPS {
        run_rep(&fx, &mut gate, &mut report)?;
        if i == 0 {
            peak_rss_mb = harness::peak_rss_mb();
        }
    }
    let min_reps = if opts.smoke { 2 } else { 5 };
    let mut reps = Vec::new();
    let start = Instant::now();
    while secs(start) < opts.seconds || reps.len() < min_reps {
        reps.push(run_rep(&fx, &mut gate, &mut report)?);
        if reps.len() % 2 == 0 {
            setups.again(|| set_up(opts))?;
        }
    }
    report.reps = (WARMUP_REPS, reps.len(), 0);

    let series = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let mut push = |name: &str, values: Vec<f64>| {
        report.push_e2e(name, median(&values), Some(summarize(&values)));
    };
    push("setup_s", setups.times().to_vec());
    push("wall_s", series(|r| r.wall));
    push("first_result_s", series(|r| r.first_result));
    push("runs_per_s", series(|r| r.bytes_per_s));
    report.push_e2e("peak_rss_mb", peak_rss_mb, None);
    report.not_applicable = vec!["warm_wall_s", "job_p50_ms", "job_p90_ms"];
    Ok(report)
}

/// The traced run: sources A and B of the per-layer metrics.
pub fn run_traced(opts: &Options) -> Result<Report, String> {
    let mut report = Report::new("scan_meta", opts.seed, opts.seconds, true, opts.smoke);
    let fx = set_up(opts)?;
    let mut gate = Gate::always_pinned();
    let serial: Vec<ScanConfig> =
        fx.configs.iter().map(|c| ScanConfig { parallel: false, ..c.clone() }).collect();
    // Untimed: worker threads and the main thread each run their first
    // pass up to twice as long (their allocator arenas are cold).
    run_rep(&fx, &mut gate, &mut report)?;
    for (i, cfg) in serial.iter().enumerate() {
        check(&mut gate, &mut report, &fx, i, &scan(&fx.app, cfg)?);
    }

    let mut times = PassTimes::new();
    let mut attribution = Attribution::default();
    let (mut byte_runs, mut fast_path_runs) = (0u64, 0u64);
    while times.another_round(opts) {
        times.parallel(|| run_rep(&fx, &mut gate, &mut report))?;
        (byte_runs, fast_path_runs) = (0, 0);
        times.serial(|| {
            for (i, cfg) in serial.iter().enumerate() {
                let detailed = scan_detailed(&fx.app, cfg)?;
                let fast = detailed.used_replay();
                let result = detailed.into_result();
                byte_runs += result.bytes.len() as u64;
                fast_path_runs += if fast { result.bytes.len() as u64 } else { 0 };
                check(&mut gate, &mut report, &fx, i, &result);
            }
            Ok(())
        })?;
        attribution = Attribution::default();
        let path = spans_file(opts, report.workload);
        times.traced(|| {
            for (i, cfg) in serial.iter().enumerate() {
                let rec = Recorder::new();
                let result = scan(&TracedApp::new(&fx.app, &rec).golden_ends_setup(), cfg)?;
                let wall_ns = rec.now_ns();
                rec.stamp(None);
                check(&mut gate, &mut report, &fx, i, &result);
                attribution.add(&rec, wall_ns);
                dump_spans(&rec, &path, &scan_id(cfg, &fx));
            }
            Ok(())
        })?;
    }
    attribution.report(&mut report);
    times.report(&mut report);
    report.push_layer("mode.fast_path_share", fast_path_runs as f64 / byte_runs.max(1) as f64);
    // The scan driver reports no replay, memo or store counters.
    report.not_applicable.extend([
        "replay.suffix_ops",
        "replay.overshoot_ops",
        "replay.batches",
        "replay.batched_runs",
        "replay.coalesced_ops",
        "replay.skipped_tail_ops",
        "memo.hits",
        "memo.misses",
        "memo.invalidations",
        "memo.hit_ratio",
        "checkpoints.builds",
        "checkpoints.hits",
        "checkpoints.disk_hits",
        "daemon.disk_bytes_per_job",
    ]);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_scan_digests_like_the_plain_scan() {
        harness::pin_regime();
        let opts = Options { seed: 3, seconds: 0.0, smoke: true, out: "out".into() };
        let fx = set_up(&opts).unwrap();
        assert_eq!(fx.oracle.len(), BITS.len() * ORACLE_BYTES);
        let cfg = ScanConfig { parallel: false, ..fx.configs[0].clone() };
        let plain = scan(&fx.app, &cfg).unwrap();
        let rec = Recorder::new();
        let traced = scan(&TracedApp::new(&fx.app, &rec).golden_ends_setup(), &cfg).unwrap();
        assert_eq!(byte_digest(&plain), byte_digest(&traced));
        assert_eq!(plain.tally, traced.tally);
        assert_eq!(plain.write_len, fx.metadata_bytes);
        assert!(rec.setup_end_ns().is_some());
    }
}
