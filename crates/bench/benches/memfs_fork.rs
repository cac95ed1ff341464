//! What one [`MemFs::fork`] costs as the forked state grows: fork +
//! drop, and fork + one 4-KiB `pwrite` + drop, of a filesystem holding
//! 1, 150 and 2,000 files of four pages each (one file is a Nyx
//! plotfile state, 2,000 is the `montage_tiles` state), on one thread
//! and on `available_parallelism()` threads forking the same base at
//! once — every injection run starts with such a fork, and a campaign
//! runs them on every core.
//!
//! A fork shares the whole inode table, so fork + drop must not depend
//! on the number of files: the bench **asserts** that the 2,000-file
//! figure is at most 4× the 1-file figure on one thread (a ratio, so
//! the gate holds on any host; a fork that walks the table reads
//! several hundred×). The fork that writes pays for the table's spine
//! — one pointer per inode — plus one inode and one page. Numbers land
//! in `BENCH_memfs_fork.json` (see `ffis_bench::bench_json`); run the
//! same file on two commits for a before/after.

use std::sync::Barrier;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ffis_bench::bench_json;
use ffis_daemon::json::{field, Json};
use ffis_vfs::{Fd, FileSystem, FileSystemExt, MemFs, OpenFlags, BLOCK_SIZE};

const SIZES: [usize; 3] = [1, 150, 2000];
const PAGES_PER_FILE: usize = 4;

/// `files` files of four non-zero pages, a hundred to a directory, and
/// a descriptor open for writing on the first of them (a fork carries
/// open descriptors along).
fn populated(files: usize) -> (MemFs, Fd) {
    let fs = MemFs::new();
    for f in 0..files {
        if f % 100 == 0 {
            fs.mkdir(&format!("/d{}", f / 100), 0o755).expect("fresh directory");
        }
        let path = format!("/d{}/f{}", f / 100, f);
        fs.write_file(&path, &vec![(f % 251) as u8 + 1; PAGES_PER_FILE * BLOCK_SIZE])
            .expect("fresh file");
    }
    let fd = fs.open("/d0/f0", OpenFlags::write_only()).expect("first file exists");
    (fs, fd)
}

/// Median over `rounds` of the mean nanoseconds per `body` call when
/// `threads` threads each make `iters` calls, released together.
fn ns_per_call(threads: usize, iters: usize, rounds: usize, body: &(dyn Fn() + Sync)) -> f64 {
    let mut medians: Vec<f64> = (0..rounds)
        .map(|_| {
            let barrier = Barrier::new(threads);
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let start = Instant::now();
                            for _ in 0..iters {
                                body();
                            }
                            start.elapsed().as_nanos() as f64 / iters as f64
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("bench thread")).collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

fn bench_memfs_fork(c: &mut Criterion) {
    let quick = std::env::var("FFIS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (iters, rounds) = if quick { (200, 3) } else { (2000, 5) };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let page = [0xA5u8; BLOCK_SIZE];

    c.benchmark_group(format!("memfs_fork ({cores} cores, {iters} forks x {rounds} rounds)"));
    // (op, files, threads, ns per fork)
    let mut measured: Vec<(&str, usize, usize, f64)> = Vec::new();
    for files in SIZES {
        let (base, fd) = populated(files);
        let fork = || drop(black_box(base.fork()));
        let fork_write = || {
            let forked = base.fork();
            forked.pwrite(fd, &page, 0).expect("inherited descriptor");
            drop(black_box(forked));
        };
        // Both bodies run once before timing (the first fork of a
        // process pays for the allocator's first pages).
        fork();
        fork_write();
        for threads in [1, cores] {
            for (op, body) in
                [("fork_drop", &fork as &(dyn Fn() + Sync)), ("fork_write", &fork_write)]
            {
                let ns = ns_per_call(threads, iters, rounds, body);
                println!("memfs_fork/{op}/files={files}/threads={threads}: {ns:.0} ns per fork");
                measured.push((op, files, threads, ns));
            }
        }
    }

    let fork_drop = |files: usize, threads: usize| {
        let hit =
            measured.iter().find(|&&(op, f, t, _)| (op, f, t) == ("fork_drop", files, threads));
        hit.expect("every size was measured on one thread and on every core").3
    };
    let (small, large) = (SIZES[0], SIZES[SIZES.len() - 1]);
    let serial = fork_drop(large, 1) / fork_drop(small, 1);
    let parallel = fork_drop(large, cores) / fork_drop(small, cores);
    println!(
        "memfs_fork: fork + drop at 2,000 files / at 1 file: {serial:.2}x on 1 thread, \
         {parallel:.2}x on {cores} threads"
    );
    let rows = measured.iter().map(|&(op, files, threads, ns)| {
        Json::Obj(vec![
            field("op", Json::Str(op.into())),
            field("files", Json::Num(files as f64)),
            field("pages", Json::Num((files * PAGES_PER_FILE) as f64)),
            field("threads", Json::Num(threads as f64)),
            field("ns_per_fork", Json::Num(ns)),
        ])
    });
    bench_json::save(
        "BENCH_memfs_fork.json",
        &Json::Obj(vec![
            field("bench", Json::Str("memfs_fork".into())),
            field("cores", Json::Num(cores as f64)),
            field("rows", Json::Arr(rows.collect())),
            field("fork_drop_2000_over_1", Json::Num(serial)),
            field("fork_drop_2000_over_1_all_cores", Json::Num(parallel)),
        ]),
    );
    assert!(
        serial <= 4.0,
        "fork + drop grew with the state: {serial:.1}x from 1 file to 2,000 (limit 4x)"
    );
}

criterion_group!(benches, bench_memfs_fork);
criterion_main!(benches);
