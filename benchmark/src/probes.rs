//! Source C of the per-layer metrics: fixed-count probes of one
//! layer's public functions, run on the golden artefacts of the
//! workload's own application (its trace, its post-produce
//! filesystem) and, for the format and application crates, on a
//! fixture sized by the workload. Every count is a constant, so two
//! versions of the program do identical probe work.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ffis_core::engine::journal::{merge_segments, JournalMeta, RunJournal};
use ffis_core::{
    run_with_byte_fault, scan, ArmedInjector, ByteFlip, CampaignSpec, FaultApp, FaultModel,
    FaultSignature, FlipMode, IoProfiler, Outcome, ScanConfig,
};
use ffis_daemon::api::{job_to_json, JobView};
use ffis_daemon::json::{self, Json};
use ffis_daemon::JobQueue;
use ffis_vfs::blobs::{crc32, sha256};
use ffis_vfs::{
    BlobStore, CheckpointStore, FfisFs, FileSystem, MemFs, MemoStore, OpenFlags, Primitive,
    ReplayCursor, SectorFile, TraceCheckpoints, TraceOp, TraceRecorder, BLOCK_SIZE,
};
use hdf5lite::{Dataset, FileBuilder, WriteOptions};
use montage_sim::MontageApp;
use nyx_sim::NyxApp;
use qmc_sim::QmcApp;

use crate::campaigns::{with_app, AppVisitor};
use crate::daemon::Service;
use crate::harness::{self, secs, Options};
use crate::schema::Report;
use crate::stats::median;

/// Which applications a workload's probes run on.
struct Fixtures {
    /// The workload's own application: vfs, trace and store probes
    /// use its golden trace and post-produce filesystem.
    primary: CampaignSpec,
    /// Nyx grid of the hdf5lite and `nyx.*` probes.
    nyx_grid: usize,
    /// Montage tiles of the fitslite and `montage.*` probes.
    montage_tiles: usize,
}

fn fixtures(workload: &str, smoke: bool) -> Fixtures {
    let nyx = |grid| harness::spec("nyx", "BF", "write", grid, 1, 1);
    let montage = |tiles| harness::spec("montage", "BF", "write", 32, tiles, 1);
    match (workload, smoke) {
        ("nyx_write" | "nyx_read", false) => {
            Fixtures { primary: nyx(96), nyx_grid: 96, montage_tiles: 2 }
        }
        ("montage_tiles", false) => {
            Fixtures { primary: montage(24), nyx_grid: 64, montage_tiles: 24 }
        }
        ("scan_meta", false) => Fixtures { primary: nyx(32), nyx_grid: 32, montage_tiles: 2 },
        ("daemon_jobs", false) => Fixtures { primary: montage(2), nyx_grid: 32, montage_tiles: 2 },
        ("montage_tiles" | "daemon_jobs", true) => {
            Fixtures { primary: montage(2), nyx_grid: 16, montage_tiles: 2 }
        }
        (_, true) => Fixtures { primary: nyx(16), nyx_grid: 16, montage_tiles: 2 },
        _ => panic!("unknown workload {workload}"),
    }
}

/// Seconds per call of `f`, the median over `samples` batches of
/// `iters` calls.
fn per_call(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            secs(start) / iters as f64
        })
        .collect();
    median(&times)
}

/// Seconds of one call of `f`, the median of `samples` calls, each on
/// a fresh input from `prepare` (not timed).
fn per_call_fresh<I, O>(
    samples: usize,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> O,
) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            black_box(f(input));
            secs(start)
        })
        .collect();
    median(&times)
}

fn mbps(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

/// A 4 KiB page whose content is a function of `i` (distinct content
/// addresses for the store probes).
fn page(i: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_SIZE);
    let mut x = harness::mix(0xC0FFEE, i);
    while out.len() < BLOCK_SIZE {
        out.extend_from_slice(&x.to_le_bytes());
        x = harness::mix(x, 1);
    }
    out
}

/// Run every probe of `workload` and append the metrics to `report`.
pub fn run(report: &mut Report, opts: &Options) -> Result<(), String> {
    let fx = fixtures(report.workload, opts.smoke);
    let dir = harness::scratch_dir(&opts.out, "probes").map_err(|e| e.to_string())?;
    let outcome = (|| {
        with_app(&fx.primary, PrimaryProbes { report: &mut *report, dir: &dir })?;
        file_probes(report);
        store_probes(report, &dir)?;
        format_probes(report, &fx)?;
        app_probes(report, &fx)?;
        journal_probes(report, &dir)?;
        scan_probes(report, opts)?;
        json_probes(report)?;
        service_probes(report, opts, &dir)
    })();
    harness::remove_dir(&dir);
    outcome
}

// ---------------------------------------------------------------------
// vfs + trace probes on the workload's own golden artefacts
// ---------------------------------------------------------------------

struct PrimaryProbes<'a> {
    report: &'a mut Report,
    dir: &'a Path,
}

impl AppVisitor for PrimaryProbes<'_> {
    type Out = Result<(), String>;

    fn visit<A: FaultApp>(self, app: &A) -> Self::Out {
        let report = self.report;
        // Golden capture: produce through a mount with the recorder
        // attached, against a plain mount.
        let mounted =
            per_call_fresh(3, || FfisFs::mount(Arc::new(MemFs::new())), |ffs| app.produce(&*ffs));
        let recorder = Arc::new(TraceRecorder::new());
        let golden_fs = Arc::new(MemFs::new());
        let recorded = per_call_fresh(
            3,
            || {
                let ffs = FfisFs::mount(Arc::new(MemFs::new()));
                ffs.attach(Arc::new(TraceRecorder::new()));
                ffs
            },
            |ffs| app.produce(&*ffs),
        );
        report.push_layer("trace.capture_overhead_share", (recorded - mounted) / mounted);
        {
            let ffs = FfisFs::mount(golden_fs.clone());
            ffs.attach(recorder.clone());
            app.produce(&*ffs)?;
        }
        let payload = recorder.payload_bytes();
        let ops: Vec<TraceOp> = recorder.take_ops();
        if ops.is_empty() {
            return Err("the workload's golden trace is empty".into());
        }

        // The profiler's fault-free run against the same run on a plain mount.
        let plain = per_call_fresh(
            3,
            || FfisFs::mount(Arc::new(MemFs::new())),
            |ffs| app.run(&*ffs).map(drop),
        );
        let profiler = IoProfiler::new(Primitive::Write, ffis_core::TargetFilter::Any);
        let profiled = per_call_fresh(3, || (), |()| profiler.profile(|fs| app.run(fs)).map(drop));
        report.push_layer("profiler.overhead_share", (profiled - plain) / plain);

        // Replay of the whole golden trace on a bare filesystem.
        let replay = per_call_fresh(3, MemFs::new, |fs| ReplayCursor::new().replay(&fs, &ops));
        report.push_layer("trace.replay_ns_per_op", replay * 1e9 / ops.len() as f64);
        report.push_layer("trace.replay_mbps", mbps(payload, replay));
        let coalesced =
            per_call_fresh(3, MemFs::new, |fs| ReplayCursor::new().replay_coalesced(&fs, &ops));
        report.push_layer("trace.replay_coalesced_mbps", mbps(payload, coalesced));

        // Checkpoint placement and forking.
        let build = per_call_fresh(3, || ops.clone(), TraceCheckpoints::build);
        report.push_layer("trace.checkpoint_build_ms", build * 1e3);
        let demand: Vec<usize> = (1..=64).map(|k| k * ops.len() / 65).filter(|&d| d > 0).collect();
        let demand_build = per_call_fresh(
            3,
            || ops.clone(),
            |ops| TraceCheckpoints::build_for_demand(ops, &demand),
        );
        report.push_layer("trace.demand_build_ms", demand_build * 1e3);
        let checkpoints = TraceCheckpoints::build(ops.clone()).map_err(|e| e.to_string())?;
        let targets: Vec<usize> = (1..=16).map(|k| k * (ops.len() - 1) / 16).collect();
        let fork_at = per_call(3, 1, || {
            black_box(checkpoints.fork_at_targets(0, &targets).map(|f| f.len()).unwrap_or(0));
        });
        report.push_layer("trace.fork_at_targets_us", fork_at * 1e6 / targets.len() as f64);
        let last = checkpoints.points().last().ok_or("no checkpoints")?;
        let mount_fork = per_call(5, 40, || {
            black_box(last.mount_fork());
        });
        report.push_layer("trace.mount_fork_us", mount_fork * 1e6);
        let fork = per_call(5, 200, || {
            black_box(golden_fs.fork());
        });
        report.push_layer("memfs.fork_us", fork * 1e6);

        // The checkpoint store: memory hit, and a cold store loading
        // what another one persisted. The disk tier's blob accounting
        // is the page sharing of this trace's checkpoints.
        let store = CheckpointStore::new();
        store.get_or_build(ops.clone()).map_err(|e| e.to_string())?;
        let hit = per_call_fresh(5, || ops.clone(), |ops| store.get_or_build(ops).map(drop));
        report.push_layer("checkpoints.store_hit_us", hit * 1e6);
        let store_dir = self.dir.join("checkpoints");
        let writer = CheckpointStore::with_dir(&store_dir).map_err(|e| e.to_string())?;
        writer.get_or_build(ops.clone()).map_err(|e| e.to_string())?;
        let blob_stats = writer.blob_stats().ok_or("disk-backed store without blob stats")?;
        report.push_layer("blobs.dedup_ratio", blob_stats.dedup_ratio());
        report.push_layer("blobs.physical_bytes", blob_stats.physical_bytes as f64);
        let load = per_call_fresh(
            3,
            || (CheckpointStore::with_dir(&store_dir), ops.clone()),
            |(reader, ops)| {
                let reader = reader.expect("store directory exists");
                reader.get_or_build(ops).map(drop).expect("trace replays");
                assert_eq!(reader.disk_hits(), 1, "a cold store must load the persisted manifest");
            },
        );
        report.push_layer("checkpoints.disk_load_ms", load * 1e3);

        memfs_probes(report);
        Ok(())
    }
}

/// Small-write loops on a bare `MemFs`, through a plain mount, and
/// through a mount with the recorder and an armed injector that never
/// fires; plus 4 KiB page writes and bulk reads.
fn memfs_probes(report: &mut Report) {
    const SMALL_OPS: usize = 50_000;
    let small = [0xA5u8; 64];
    let small_loop = |fs: &dyn FileSystem| {
        let fd = fs.create("/probe.bin", 0o644).expect("create on a fresh filesystem");
        let start = Instant::now();
        for i in 0..SMALL_OPS {
            fs.pwrite(fd, &small, (i % 64) as u64 * 64).expect("pwrite");
        }
        let t = secs(start) / SMALL_OPS as f64;
        fs.release(fd).expect("release");
        t
    };
    let sample = |f: &dyn Fn() -> f64| median(&(0..3).map(|_| f()).collect::<Vec<f64>>());
    let bare = sample(&|| small_loop(&MemFs::new()));
    let mounted = sample(&|| small_loop(&*FfisFs::mount(Arc::new(MemFs::new()))));
    let intercepted = sample(&|| {
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        ffs.attach(Arc::new(TraceRecorder::new()));
        let signature = FaultSignature::on_write(FaultModel::bit_flip());
        ffs.attach(Arc::new(ArmedInjector::new(signature, u64::MAX, 1)));
        small_loop(&*ffs)
    });
    report.push_layer("ffisfs.crossing_ns", (mounted - bare) * 1e9);
    report.push_layer("ffisfs.intercepted_crossing_ns", (intercepted - bare) * 1e9);

    const PAGES: usize = 1024;
    let block = vec![0x5Au8; BLOCK_SIZE];
    let fs = MemFs::new();
    let fd = fs.create("/pages.bin", 0o644).expect("create");
    for i in 0..PAGES {
        fs.pwrite(fd, &block, (i * BLOCK_SIZE) as u64).expect("pwrite");
    }
    let pwrite = per_call(3, 8 * PAGES, {
        let mut i = 0;
        let (fs, block) = (&fs, &block);
        move || {
            fs.pwrite(fd, block, ((i % PAGES) * BLOCK_SIZE) as u64).expect("pwrite");
            i += 1;
        }
    });
    report.push_layer("memfs.pwrite_4k_ns", pwrite * 1e9);
    const CHUNK: usize = 64 * 1024;
    let mut buf = vec![0u8; CHUNK];
    let chunks = PAGES * BLOCK_SIZE / CHUNK;
    let rfd = fs.open("/pages.bin", OpenFlags::read_only()).expect("open");
    let pread = per_call(3, 16, || {
        for c in 0..chunks {
            black_box(fs.pread(rfd, &mut buf, (c * CHUNK) as u64).expect("pread"));
        }
    });
    report.push_layer("memfs.pread_mbps", mbps((PAGES * BLOCK_SIZE) as u64, pread));
}

/// `SectorFile` on its own: overwrite of owned pages, first write to
/// pages shared with a fork, bulk read.
fn file_probes(report: &mut Report) {
    const PAGES: usize = 1024;
    let block = vec![0x3Cu8; BLOCK_SIZE];
    let mut file = SectorFile::from_bytes(vec![1u8; PAGES * BLOCK_SIZE]);
    let write_at = per_call(3, 8 * PAGES, {
        let mut i = 0;
        let (file, block) = (&mut file, &block);
        move || {
            file.write_at(block, ((i % PAGES) * BLOCK_SIZE) as u64).expect("write_at");
            i += 1;
        }
    });
    report.push_layer("file.write_at_ns", write_at * 1e9);
    let cow = per_call_fresh(
        8,
        || file.clone(),
        |mut fork| {
            for i in 0..PAGES {
                fork.write_at(&block[..64], (i * BLOCK_SIZE) as u64).expect("write_at");
            }
            fork
        },
    );
    report.push_layer("file.cow_write_ns", cow * 1e9 / PAGES as f64);
    const CHUNK: usize = 64 * 1024;
    let mut buf = vec![0u8; CHUNK];
    let chunks = PAGES * BLOCK_SIZE / CHUNK;
    let read_at = per_call(3, 16, || {
        for c in 0..chunks {
            black_box(file.read_at(&mut buf, (c * CHUNK) as u64));
        }
    });
    report.push_layer("file.read_at_mbps", mbps((PAGES * BLOCK_SIZE) as u64, read_at));
}

/// Hashes, the blob store and the memo store, memory and disk tiers.
fn store_probes(report: &mut Report, dir: &Path) -> Result<(), String> {
    let buffer: Vec<u8> = (0..1024u64).flat_map(page).collect();
    let sha = per_call(3, 2, || {
        black_box(sha256(black_box(&buffer)));
    });
    report.push_layer("blobs.sha256_mbps", mbps(buffer.len() as u64, sha));
    let crc = per_call(3, 8, || {
        black_box(crc32(black_box(&buffer)));
    });
    report.push_layer("blobs.crc32_mbps", mbps(buffer.len() as u64, crc));

    const MEM_BLOBS: u64 = 2048;
    const DISK_BLOBS: u64 = 256;
    let pages: Vec<Vec<u8>> = (0..MEM_BLOBS).map(page).collect();
    let blobs = BlobStore::in_memory();
    let start = Instant::now();
    let hashes: Vec<_> = pages.iter().map(|p| blobs.put(p)).collect();
    report.push_layer("blobs.put_mem_us", secs(start) * 1e6 / MEM_BLOBS as f64);
    let start = Instant::now();
    for h in &hashes {
        black_box(blobs.get(h).ok_or("blob missing from the memory tier")?);
    }
    report.push_layer("blobs.get_mem_us", secs(start) * 1e6 / MEM_BLOBS as f64);

    let blob_dir = dir.join("blobs");
    let writer = BlobStore::at_dir(&blob_dir).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for p in &pages[..DISK_BLOBS as usize] {
        writer.put(p);
    }
    report.push_layer("blobs.put_disk_us", secs(start) * 1e6 / DISK_BLOBS as f64);
    let reader = BlobStore::at_dir(&blob_dir).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for h in &hashes[..DISK_BLOBS as usize] {
        black_box(reader.get(h).ok_or("blob missing from the disk tier")?);
    }
    report.push_layer("blobs.get_disk_us", secs(start) * 1e6 / DISK_BLOBS as f64);

    let key = |i: u64| format!("benchmark-probe/{i}").into_bytes();
    let memo = MemoStore::in_memory();
    let start = Instant::now();
    for i in 0..MEM_BLOBS {
        memo.put(&key(i), &pages[i as usize][..256]);
    }
    report.push_layer("memo.put_us", secs(start) * 1e6 / MEM_BLOBS as f64);
    let start = Instant::now();
    for i in 0..MEM_BLOBS {
        black_box(memo.get(&key(i)).ok_or("memo entry missing from the memory tier")?);
    }
    report.push_layer("memo.get_hit_ns", secs(start) * 1e9 / MEM_BLOBS as f64);
    let memo_dir = dir.join("memo");
    let writer = MemoStore::at_dir(&memo_dir).map_err(|e| e.to_string())?;
    for i in 0..DISK_BLOBS {
        writer.put(&key(i), &pages[i as usize][..256]);
    }
    let reader = MemoStore::at_dir(&memo_dir).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for i in 0..DISK_BLOBS {
        black_box(reader.get(&key(i)).ok_or("memo entry missing from the disk tier")?);
    }
    report.push_layer("memo.get_disk_us", secs(start) * 1e6 / DISK_BLOBS as f64);
    Ok(())
}

/// hdf5lite on the Nyx field, fitslite on the single-tile Montage mosaic.
fn format_probes(report: &mut Report, fx: &Fixtures) -> Result<(), String> {
    let nyx = ffis_daemon::apps::nyx_app(fx.nyx_grid, 1);
    let n = nyx.n() as u64;
    let root = || {
        let mut b = FileBuilder::new();
        b.add_dataset(
            nyx_sim::DATASET,
            Dataset::f32("baryon_density", &[n; 3], nyx.simulated_field()),
        )
        .expect("the tree the application writes");
        b.into_root()
    };
    let opts = WriteOptions { chunk_size: 64 * 1024, seal_metadata: false };
    let fs = MemFs::new();
    fs.mkdir("/run", 0o755).map_err(|e| e.to_string())?;
    let file_bytes = hdf5lite::write_file(&fs, nyx_sim::PLOTFILE, &root(), &opts)
        .map_err(|e| e.to_string())?
        .eof;
    let write = per_call_fresh(
        5,
        || {
            let fs = MemFs::new();
            fs.mkdir("/run", 0o755).expect("mkdir");
            (fs, root())
        },
        |(fs, root)| hdf5lite::write_file(&fs, nyx_sim::PLOTFILE, &root, &opts).map(drop),
    );
    report.push_layer("hdf5lite.write_mbps", mbps(file_bytes, write));
    let read = per_call(5, 1, || {
        black_box(
            hdf5lite::read_dataset(&fs, nyx_sim::PLOTFILE, nyx_sim::DATASET)
                .expect("golden file reads"),
        );
    });
    report.push_layer("hdf5lite.read_mbps", mbps(file_bytes, read));
    let open = per_call(5, 4, || {
        black_box(hdf5lite::open(&fs, nyx_sim::PLOTFILE).expect("golden file opens"));
    });
    report.push_layer("hdf5lite.open_us", open * 1e6);

    // The single-tile layout keeps the mosaic at its public path.
    let fs = MemFs::new();
    MontageApp::paper_default().produce(&fs)?;
    let image = fitslite::read_fits(&fs, montage_sim::MOSAIC).map_err(|e| e.0)?;
    let fits_bytes = fitslite::render_fits(&image).map_err(|e| e.0)?.len() as u64;
    let write = per_call_fresh(
        5,
        || {
            let fs = MemFs::new();
            fs.mkdir("/mosaic", 0o755).expect("mkdir");
            fs
        },
        |fs| fitslite::write_fits(&fs, montage_sim::MOSAIC, &image),
    );
    report.push_layer("fitslite.write_mbps", mbps(fits_bytes, write));
    let read = per_call(5, 4, || {
        black_box(fitslite::read_fits(&fs, montage_sim::MOSAIC).expect("golden mosaic reads"));
    });
    report.push_layer("fitslite.read_mbps", mbps(fits_bytes, read));
    Ok(())
}

/// Produce and analyze of each application, fault-free on a bare
/// filesystem.
fn app_probes(report: &mut Report, fx: &Fixtures) -> Result<(), String> {
    fn probe<A: FaultApp>(
        report: &mut Report,
        prefix: &str,
        app: &A,
        samples: usize,
    ) -> Result<(), String> {
        let fs = MemFs::new();
        let golden = app.run(&fs)?;
        let produce = per_call_fresh(samples, MemFs::new, |fs| app.produce(&fs));
        let analyze = per_call(samples, 1, || {
            black_box(app.analyze(&fs, Some(&golden)).is_ok());
        });
        report.push_layer(&format!("{prefix}.produce_ms"), produce * 1e3);
        report.push_layer(&format!("{prefix}.analyze_ms"), analyze * 1e3);
        Ok(())
    }
    probe(report, "nyx", &ffis_daemon::apps::nyx_app(fx.nyx_grid, 1), 3)?;
    probe(report, "montage", &MontageApp::multi_tile(fx.montage_tiles), 3)?;
    probe(report, "qmc", &QmcApp::paper_default(), 1)
}

/// Run-journal append, resume and segment merge.
fn journal_probes(report: &mut Report, dir: &Path) -> Result<(), String> {
    const RECORDS: usize = 2000;
    let meta = JournalMeta {
        fingerprint: 0xBE7C,
        seed: 1,
        runs: RECORDS as u64,
        shards: 1,
        context: "benchmark probe".into(),
    };
    let payload = [7u8; 64];
    let write = |path: &Path, range: std::ops::Range<usize>| -> Result<f64, String> {
        let mut journal = RunJournal::create(path, meta.clone()).map_err(|e| e.to_string())?;
        let start = Instant::now();
        for i in range.clone() {
            if !journal.append(i, Outcome::Benign, true, &payload) {
                return Err("journal append degraded".into());
            }
        }
        Ok(secs(start) / range.len() as f64)
    };
    let whole = dir.join("whole.journal");
    report.push_layer("journal.append_us", write(&whole, 0..RECORDS)? * 1e6);
    let resume = per_call(3, 1, || {
        let (_, entries) = RunJournal::resume(&whole, &meta).expect("journal resumes");
        assert_eq!(entries.len(), RECORDS);
    });
    report.push_layer("journal.resume_records_per_s", RECORDS as f64 / resume);
    let segments = [dir.join("a.journal"), dir.join("b.journal")];
    write(&segments[0], 0..RECORDS / 2)?;
    write(&segments[1], RECORDS / 2..RECORDS)?;
    let merged = dir.join("merged.journal");
    let merge = per_call(3, 1, || {
        assert_eq!(
            merge_segments(&merged, &meta, &segments).expect("segments merge"),
            RECORDS as u64
        );
    });
    report.push_layer("journal.merge_records_per_s", RECORDS as f64 / merge);
    Ok(())
}

/// One byte of a metadata scan by fork + suffix replay, and by full
/// re-execution.
fn scan_probes(report: &mut Report, opts: &Options) -> Result<(), String> {
    let app: NyxApp = crate::scan::nyx_app(opts);
    let mut cfg = ScanConfig::new(NyxApp::plotfile_filter());
    cfg.flip = FlipMode::Bit(2);
    cfg.stride = 4;
    cfg.parallel = false;
    cfg.replay = true;
    let start = Instant::now();
    let result = scan(&app, &cfg)?;
    report
        .push_layer("metadata_scan.replay_byte_us", secs(start) * 1e6 / result.bytes.len() as f64);
    let golden = app.run(&MemFs::new())?;
    const RERUNS: usize = 32;
    let start = Instant::now();
    for k in 0..RERUNS {
        let byte = k * result.write_len / RERUNS;
        black_box(run_with_byte_fault(
            &app,
            &golden,
            &cfg.target,
            result.write_instance,
            byte,
            ByteFlip::Xor(0b100),
        ));
    }
    report.push_layer("metadata_scan.rerun_byte_us", secs(start) * 1e6 / RERUNS as f64);
    Ok(())
}

/// The daemon's JSON module on a `GET /jobs`-shaped document.
fn json_probes(report: &mut Report) -> Result<(), String> {
    let views: Vec<Json> = (0..200u64)
        .map(|i| {
            let mut spec = harness::spec("montage", "SW", "write", 32, 2, 64);
            spec.seed = harness::mix(7, i);
            job_to_json(&JobView::queued(i, spec))
        })
        .collect();
    let document = Json::Arr(views);
    let text = document.render();
    let render = per_call(3, 2, || {
        black_box(document.render());
    });
    report.push_layer("json.render_mbps", mbps(text.len() as u64, render));
    json::parse(&text)?;
    let parse = per_call(3, 1, || {
        black_box(json::parse(black_box(&text)).is_ok());
    });
    report.push_layer("json.parse_mbps", mbps(text.len() as u64, parse));
    Ok(())
}

/// HTTP round trip, job admission and queue recovery.
fn service_probes(report: &mut Report, opts: &Options, dir: &Path) -> Result<(), String> {
    let service = Service::start(&opts.out)?;
    let rtt = per_call(3, 20, || {
        service.client.health().expect("healthz answers");
    });
    service.stop();
    report.push_layer("http.healthz_rtt_us", rtt * 1e6);

    // Admission cost is the submit call itself; the single worker
    // executes the tiny jobs meanwhile.
    const JOBS: u64 = 24;
    let root = dir.join("queue");
    let queue = JobQueue::open(&root, 1).map_err(|e| e.to_string())?;
    let mut spec = harness::spec("nyx", "BF", "write", 16, 1, 4);
    spec.journal = true;
    let start = Instant::now();
    for i in 0..JOBS {
        spec.seed = harness::mix(11, i);
        queue.submit(spec.clone())?;
    }
    report.push_layer("jobs.admit_us", secs(start) * 1e6 / JOBS as f64);
    while queue.jobs().iter().any(|j| j.state.is_active()) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    queue.shutdown();
    let reopen = per_call(3, 1, || {
        let queue = JobQueue::open(&root, 1).expect("queue root reopens");
        assert_eq!(queue.jobs().len() as u64, JOBS);
        queue.shutdown();
    });
    report.push_layer("jobs.reopen_ms", reopen * 1e3);
    Ok(())
}
