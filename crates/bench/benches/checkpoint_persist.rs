//! What one demand-placed checkpoint set costs to **build** (replay the
//! golden trace, fork a snapshot per demanded offset), to **persist**
//! (encode the manifest: hash and store every page and payload chunk,
//! publish the files) and to **load cold** (a fresh store over the same
//! directory: read, CRC- and hash-verify every blob, rebuild the
//! filesystems) — on the three golden traces the repository's
//! benchmark workloads run on: Montage 2 tiles (the `daemon_jobs` job),
//! Montage 24 tiles (`montage_tiles`) and Nyx 96³ (`nyx_write`).
//!
//! The points of one set share almost all of their pages, so persist
//! time is set by how often the encoder hashes a page it has already
//! hashed, plus — for the first set of a trace only — one file per
//! distinct blob. The numbers per trace land in
//! `BENCH_checkpoint_persist.json` (see `ffis_bench::bench_json`); run
//! the same file on two commits for a before/after.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ffis_bench::bench_json;
use ffis_core::FaultApp;
use ffis_daemon::apps::nyx_app;
use ffis_daemon::json::{field, Json};
use ffis_vfs::{CheckpointStore, FfisFs, MemFs, TraceCheckpoints, TraceOp, TraceRecorder};
use montage_sim::MontageApp;

/// Checkpoints a campaign of a few dozen runs demands.
const POINTS: usize = 20;

fn golden_trace<A: FaultApp>(app: &A) -> Vec<TraceOp> {
    let ffs = FfisFs::mount(Arc::new(MemFs::new()));
    let recorder = Arc::new(TraceRecorder::new());
    ffs.attach(recorder.clone());
    app.produce(&*ffs).expect("golden produce");
    recorder.take_ops()
}

fn scratch(tag: &str, round: usize) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ffis-bench-ckpersist-{}-{tag}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn open(dir: &Path) -> CheckpointStore {
    CheckpointStore::with_dir(dir).expect("scratch store")
}

/// One lookup that must be answered by `(builds, disk loads)` so far.
fn lookup(store: &CheckpointStore, ops: &[TraceOp], demand: &[usize], expect: (usize, usize)) {
    store.get_or_build_for_demand(ops.to_vec(), demand).expect("trace replays");
    assert_eq!((store.builds(), store.disk_hits()), expect);
}

fn measure(c: &mut Criterion, tag: &str, ops: &[TraceOp]) -> Json {
    // Two campaigns over one golden trace: the same number of demanded
    // offsets, none in common, so two sets under two keys whose pages
    // are the same content.
    let demand: Vec<usize> = (1..=POINTS).map(|k| k * ops.len() / (POINTS + 1)).collect();
    let sibling: Vec<usize> = demand.iter().map(|d| d + 1).collect();
    let probe = scratch(tag, 0);
    lookup(&open(&probe), ops, &demand, (1, 0));

    let mut group = c.benchmark_group("checkpoint_persist");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("build", tag), &(), |b, ()| {
        b.iter(|| TraceCheckpoints::build_for_demand(ops.to_vec(), &demand).unwrap());
    });
    group.bench_with_input(BenchmarkId::new("load_cold", tag), &(), |b, ()| {
        b.iter(|| lookup(&open(&probe), ops, &demand, (0, 1)));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&probe);

    // Persisting needs a fresh directory per sample, so it is timed
    // here, as (build + persist through a store) − (build alone),
    // medians of five. `first`: into an empty directory, one file per
    // distinct blob. `next`: a sibling set into the store that holds
    // the first — what every job of a service but the first pays.
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let (mut builds, mut firsts, mut nexts, mut loads) = (vec![], vec![], vec![], vec![]);
    for round in 1..=5 {
        builds.push(timed(&mut || {
            TraceCheckpoints::build_for_demand(ops.to_vec(), &demand).unwrap();
        }));
        let dir = scratch(tag, round);
        let store = open(&dir);
        firsts.push(timed(&mut || lookup(&store, ops, &demand, (1, 0))));
        nexts.push(timed(&mut || lookup(&store, ops, &sibling, (2, 0))));
        loads.push(timed(&mut || lookup(&open(&dir), ops, &sibling, (0, 1))));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let build = median(builds);
    let (first, next) = ((median(firsts) - build).max(0.0), (median(nexts) - build).max(0.0));
    let load = median(loads);
    println!(
        "checkpoint_persist/{tag}: {} ops, {POINTS} points: build {:.2} ms, persist first {:.2} \
         ms, persist next {:.2} ms, cold load {:.2} ms",
        ops.len(),
        build * 1e3,
        first * 1e3,
        next * 1e3,
        load * 1e3
    );
    Json::Obj(vec![
        field("trace", Json::Str(tag.into())),
        field("ops", Json::Num(ops.len() as f64)),
        field("points", Json::Num(POINTS as f64)),
        field("build_ms", Json::Num(build * 1e3)),
        field("persist_first_ms", Json::Num(first * 1e3)),
        field("persist_next_ms", Json::Num(next * 1e3)),
        field("load_cold_ms", Json::Num(load * 1e3)),
    ])
}

fn bench_checkpoint_persist(c: &mut Criterion) {
    let rows = vec![
        measure(c, "montage_f2", &golden_trace(&MontageApp::multi_tile(2))),
        measure(c, "montage_f24", &golden_trace(&MontageApp::multi_tile(24))),
        measure(c, "nyx_96", &golden_trace(&nyx_app(96, 1))),
    ];
    bench_json::save(
        "BENCH_checkpoint_persist.json",
        &Json::Obj(vec![
            field("bench", Json::Str("checkpoint_persist".into())),
            field("rows", Json::Arr(rows)),
        ]),
    );
}

criterion_group!(benches, bench_checkpoint_persist);
criterion_main!(benches);
