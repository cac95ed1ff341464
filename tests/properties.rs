//! Property-based tests on the core invariants, spanning the fault
//! models, the HDF5 substrate, the FITS substrate, and the statistics.

use proptest::prelude::*;

use ffis_core::engine::{ExecutionPlan, PlannedRun, RunStrategy};
use ffis_core::{
    wilson, ByteFlip, FaultModel, Mutation, ReplayFallback, Rng, ShornFill, ShornKeep,
};
use ffis_vfs::{FileSystem, FileSystemExt, MemFs, SECTOR_SIZE};

/// Record a randomized chunked-write workload's golden trace (the
/// same op mix the checkpoint-replay property uses: chunked writes, a
/// descriptor held open across other files' I/O, truncates, patches)
/// and return it with the from-scratch full-replay reference state —
/// the shared fixture of the plan-aware replay properties.
fn record_replay_workload(
    seed: u64,
    n_files: usize,
) -> (Vec<ffis_vfs::TraceOp>, MemFs, Vec<String>) {
    use ffis_vfs::{FfisFs, OpenFlags, TraceRecorder};
    use std::sync::Arc;

    let mut rng = Rng::seed_from(seed);
    let mut paths: Vec<String> = Vec::new();
    let recorder = Arc::new(TraceRecorder::new());
    let ffs = FfisFs::mount(Arc::new(MemFs::new()));
    ffs.attach(recorder.clone());
    ffs.mkdir("/w", 0o755).unwrap();
    let held = ffs.create("/w/held.bin", 0o644).unwrap();
    for f in 0..n_files {
        let p = format!("/w/f{:02}.dat", f);
        let len = 1 + rng.gen_range(9_000) as usize;
        let chunk = 512 * (1 + rng.gen_range(8) as usize);
        let data: Vec<u8> = (0..len).map(|i| (i as u64 * 31 + f as u64) as u8).collect();
        ffs.write_file_chunked(&p, &data, chunk).unwrap();
        ffs.pwrite(held, &[f as u8 + 1; 600], f as u64 * 600).unwrap();
        if rng.chance(0.5) {
            ffs.truncate(&p, rng.gen_range(len as u64 + 1)).unwrap();
        }
        if rng.chance(0.5) {
            let fd = ffs.open(&p, OpenFlags::read_write()).unwrap();
            ffs.pwrite(fd, b"patch", rng.gen_range(len as u64)).unwrap();
            ffs.release(fd).unwrap();
        }
        paths.push(p);
    }
    ffs.release(held).unwrap();
    paths.push("/w/held.bin".into());
    ffs.unmount();

    let ops = recorder.take_ops();
    let reference = MemFs::new();
    ffis_vfs::ReplayCursor::new().replay(&reference, &ops).unwrap();
    (ops, reference, paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BIT FLIP flips exactly `bits` consecutive bits, never changes
    /// the length, and is an involution (applying the same damage
    /// twice restores the buffer).
    #[test]
    fn bitflip_flips_exactly_n_bits(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        bits in 1u32..16,
        seed in any::<u64>(),
    ) {
        let model = FaultModel::BitFlip { bits };
        let mut rng = Rng::seed_from(seed);
        match model.apply_to_buffer(&data, &mut rng) {
            Mutation::Replaced { buf, .. } => {
                prop_assert_eq!(buf.len(), data.len());
                let flipped: u32 = buf.iter().zip(&data).map(|(a, b)| (a ^ b).count_ones()).sum();
                prop_assert_eq!(flipped, bits.min(data.len() as u32 * 8));
                // Consecutiveness.
                let mut positions = Vec::new();
                for (i, (a, b)) in buf.iter().zip(&data).enumerate() {
                    let x = a ^ b;
                    for k in 0..8 {
                        if x & (1 << k) != 0 {
                            positions.push(i * 8 + k);
                        }
                    }
                }
                for w in positions.windows(2) {
                    prop_assert_eq!(w[1], w[0] + 1);
                }
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// SHORN WRITE preserves a sector-aligned prefix of the affected
    /// block and never changes bytes outside that block. Data bytes
    /// are nonzero so the zero-fill damage is observable at every torn
    /// byte — with coincidental zeros the first *visible* diff can sit
    /// past the (still sector-aligned) tear point.
    #[test]
    fn shorn_write_damage_is_sector_aligned_and_block_local(
        data in proptest::collection::vec(1u8..=255, 1..3 * 4096),
        keep37 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let keep = if keep37 { ShornKeep::ThreeEighths } else { ShornKeep::SevenEighths };
        let model = FaultModel::ShornWrite { keep, fill: ShornFill::Zeros };
        let mut rng = Rng::seed_from(seed);
        match model.apply_to_buffer(&data, &mut rng) {
            Mutation::Replaced { buf, .. } => {
                prop_assert_eq!(buf.len(), data.len());
                let first_diff = buf.iter().zip(&data).position(|(a, b)| a != b);
                let last_diff = buf.iter().zip(&data).rposition(|(a, b)| a != b);
                if let (Some(first), Some(last)) = (first_diff, last_diff) {
                    // Damage begins on a sector boundary and stays
                    // within one 4 KiB block.
                    prop_assert_eq!(first % SECTOR_SIZE, 0, "tear not sector aligned");
                    prop_assert_eq!(first / 4096, last / 4096, "tear crosses a block");
                }
            }
            Mutation::NotApplicable => {
                // Legal for very small buffers where nothing tears.
                prop_assert!(data.len() < 8 * SECTOR_SIZE);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// DROPPED WRITE never mutates — it suppresses.
    #[test]
    fn dropped_write_always_drops(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::seed_from(seed);
        prop_assert_eq!(
            FaultModel::dropped_write().apply_to_buffer(&data, &mut rng),
            Mutation::Dropped
        );
    }

    /// ByteFlip::Xor is an involution; Set is idempotent.
    #[test]
    fn byteflip_algebra(b in any::<u8>(), m in 1u8..=255, v in any::<u8>()) {
        let x = ByteFlip::Xor(m);
        prop_assert_eq!(x.apply(x.apply(b)), b);
        let s = ByteFlip::Set(v);
        prop_assert_eq!(s.apply(s.apply(b)), s.apply(b));
    }

    /// The IEEE f32 codec in hdf5lite round-trips arbitrary finite
    /// f32 values through decode.
    #[test]
    fn floatspec_f32_decode_matches_native(bits in any::<u32>()) {
        let v = f32::from_bits(bits);
        prop_assume!(v.is_finite());
        let spec = hdf5lite::FloatSpec::ieee_f32();
        let decoded = spec.decode(&v.to_le_bytes()).unwrap();
        if v == 0.0 {
            prop_assert_eq!(decoded, 0.0);
        } else if v.is_subnormal() {
            // Subnormals decode to ~0 under the normalized model; the
            // workloads never write them.
        } else {
            prop_assert!(
                (decoded - v as f64).abs() <= (v as f64).abs() * 1e-6,
                "{} decoded as {}", v, decoded
            );
        }
    }

    /// HDF5 write→read round-trips arbitrary small grids bit-exactly
    /// (through f32 quantization).
    #[test]
    fn hdf5_roundtrip(
        data in proptest::collection::vec(-1e6f32..1e6, 1..64),
    ) {
        let fs = MemFs::new();
        let dims = [data.len() as u64];
        let mut b = hdf5lite::FileBuilder::new();
        b.add_dataset("/g/d", hdf5lite::Dataset::f32("d", &dims, &data)).unwrap();
        hdf5lite::write_file(&fs, "/t.h5", &b.into_root(), &hdf5lite::WriteOptions::default()).unwrap();
        let info = hdf5lite::read_dataset(&fs, "/t.h5", "/g/d").unwrap();
        prop_assert_eq!(info.values.len(), data.len());
        for (got, want) in info.values.iter().zip(&data) {
            prop_assert_eq!(*got as f32, *want);
        }
    }

    /// FITS round-trips arbitrary small images (including NaN blanks).
    #[test]
    fn fits_roundtrip(
        w in 1usize..20,
        h in 1usize..20,
        fill in any::<f64>(),
    ) {
        let wcs = fitslite::Wcs {
            crval1: 210.0, crval2: 54.0, crpix1: 1.0, crpix2: 1.0,
            cdelt1: -0.001, cdelt2: 0.001,
        };
        let mut img = fitslite::FitsImage::blank(w, h, wcs);
        for i in 0..w * h {
            img.data[i] = if i % 7 == 0 { f64::NAN } else { fill };
        }
        let fs = MemFs::new();
        fitslite::write_fits(&fs, "/i.fits", &img).unwrap();
        let back = fitslite::read_fits(&fs, "/i.fits").unwrap();
        prop_assert_eq!(back.width, w);
        prop_assert_eq!(back.height, h);
        for (a, b) in back.data.iter().zip(&img.data) {
            prop_assert!(a.to_bits() == b.to_bits());
        }
    }

    /// Wilson intervals always bracket the point estimate and stay in
    /// [0, 1].
    #[test]
    fn wilson_bracket(k in 0u64..=1000, extra in 0u64..1000) {
        let n = k + extra;
        let p = wilson(k, n);
        if n > 0 {
            prop_assert!(p.lo <= p.p + 1e-12);
            prop_assert!(p.hi >= p.p - 1e-12);
            prop_assert!(p.lo >= 0.0 && p.hi <= 1.0);
        }
    }

    /// VFS writes round-trip arbitrary content at arbitrary offsets.
    #[test]
    fn vfs_sparse_write_roundtrip(
        content in proptest::collection::vec(any::<u8>(), 1..512),
        offset in 0u64..10_000,
    ) {
        let fs = MemFs::new();
        let fd = fs.create("/p", 0o644).unwrap();
        fs.pwrite(fd, &content, offset).unwrap();
        fs.release(fd).unwrap();
        let all = fs.read_to_vec("/p").unwrap();
        prop_assert_eq!(all.len() as u64, offset + content.len() as u64);
        prop_assert_eq!(&all[offset as usize..], &content[..]);
        prop_assert!(all[..offset as usize].iter().all(|&b| b == 0));
    }

    /// The deterministic RNG's gen_range never exceeds its bound.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(rng.gen_range(n) < n);
        }
    }

    /// Halo-finder invariants on arbitrary positive grids: halo mass
    /// is positive, cell counts respect the minimum, the summed halo
    /// cells never exceed the candidate count, and a global scale
    /// leaves the catalog structure invariant (threshold is
    /// mean-relative).
    #[test]
    fn halo_finder_invariants(
        values in proptest::collection::vec(0.01f64..10.0, 64..216),
        spike_idx in 0usize..64,
        spike in 500.0f64..5000.0,
    ) {
        // Pack into the largest cube that fits.
        let n = (values.len() as f64).cbrt() as usize;
        let mut grid = values[..n * n * n].to_vec();
        let spike_at = spike_idx % grid.len();
        grid[spike_at] = spike;
        let cfg = nyx_sim::HaloFinderConfig::default();
        let cat = nyx_sim::find_halos(&grid, [n; 3], &cfg);
        let mut cells_total = 0u64;
        for h in &cat.halos {
            prop_assert!(h.mass > 0.0);
            prop_assert!(h.cells >= cfg.min_cells);
            prop_assert!(h.center.iter().all(|&c| c >= 0.0 && c < n as f64));
            cells_total += h.cells as u64;
        }
        prop_assert!(cells_total <= cat.candidate_cells);

        // Scale invariance (the Exponent-Bias SDC signature).
        let scaled: Vec<f64> = grid.iter().map(|v| v * 8.0).collect();
        let cat2 = nyx_sim::find_halos(&scaled, [n; 3], &cfg);
        prop_assert_eq!(cat2.halos.len(), cat.halos.len());
        prop_assert_eq!(cat2.candidate_cells, cat.candidate_cells);
        for (a, b) in cat.halos.iter().zip(&cat2.halos) {
            prop_assert_eq!(a.cells, b.cells);
            prop_assert!((b.mass / a.mass - 8.0).abs() < 1e-9);
        }
    }

    /// Fletcher-32 detects any single-byte change in arbitrary data.
    #[test]
    fn fletcher_detects_byte_changes(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        pos in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let base = hdf5lite::fletcher32(&data);
        let mut mutated = data.clone();
        let i = pos.index(mutated.len());
        mutated[i] ^= xor;
        prop_assert_ne!(hdf5lite::fletcher32(&mutated), base);
    }

    /// Checkpoint-suffix replay from *every* log-spaced snapshot of a
    /// randomized workload's golden trace reproduces exactly the same
    /// filesystem state as a from-scratch full replay — the invariant
    /// the campaign runner's per-run fork rests on. The workload mixes
    /// chunked writes, a descriptor held open across other files' I/O
    /// (so snapshots land inside open-fd regions), patches, truncates,
    /// and a rename.
    #[test]
    fn checkpoint_suffix_replay_reproduces_full_state(
        seed in any::<u64>(),
        n_files in 1usize..4,
        max_points in 2usize..12,
    ) {
        use ffis_vfs::{FfisFs, FileSystemExt, OpenFlags, TraceCheckpoints, TraceRecorder};
        use std::sync::Arc;

        // Record a randomized workload's golden trace.
        let mut rng = Rng::seed_from(seed);
        let mut paths: Vec<String> = Vec::new();
        let recorder = Arc::new(TraceRecorder::new());
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        ffs.attach(recorder.clone());
        ffs.mkdir("/w", 0o755).unwrap();
        let held = ffs.create("/w/held.bin", 0o644).unwrap();
        for f in 0..n_files {
            let p = format!("/w/f{:02}.dat", f);
            let len = 1 + rng.gen_range(12_000) as usize;
            let chunk = 512 * (1 + rng.gen_range(8) as usize);
            let data: Vec<u8> = (0..len).map(|i| (i as u64 * 31 + f as u64) as u8).collect();
            ffs.write_file_chunked(&p, &data, chunk).unwrap();
            // Interleave writes on the held descriptor.
            ffs.pwrite(held, &[f as u8 + 1; 700], f as u64 * 700).unwrap();
            if rng.chance(0.5) {
                ffs.truncate(&p, rng.gen_range(len as u64 + 1)).unwrap();
            }
            if rng.chance(0.5) {
                let fd = ffs.open(&p, OpenFlags::read_write()).unwrap();
                ffs.pwrite(fd, b"patch", rng.gen_range(len as u64)).unwrap();
                ffs.release(fd).unwrap();
            }
            paths.push(p);
        }
        ffs.release(held).unwrap();
        paths.push("/w/held.bin".into());
        let last = paths[0].clone();
        let renamed = format!("{}.renamed", last);
        ffs.rename(&last, &renamed).unwrap();
        paths[0] = renamed;
        ffs.unmount();

        // Reference: from-scratch full replay on a bare MemFs.
        let ops = recorder.take_ops();
        let reference = MemFs::new();
        ffis_vfs::ReplayCursor::new().replay(&reference, &ops).unwrap();

        // Every checkpoint must rebuild identical state via fork +
        // suffix replay.
        let cache = TraceCheckpoints::build_with(ops, max_points).unwrap();
        prop_assert!(cache.points().len() >= 2);
        for point in cache.points() {
            let (mount, mut cursor) = point.mount_fork();
            cursor.replay(&*mount, cache.suffix(point)).unwrap();
            for p in &paths {
                let got = mount.read_to_vec(p).map_err(|e| e.to_string());
                let want = reference.read_to_vec(p).map_err(|e| e.to_string());
                prop_assert_eq!(
                    &got, &want,
                    "checkpoint {} diverged on {}", point.index(), p
                );
            }
            let got_stat = mount.inner().statfs().unwrap();
            let want_stat = reference.statfs().unwrap();
            prop_assert_eq!(got_stat.inodes, want_stat.inodes);
            prop_assert_eq!(got_stat.bytes_used, want_stat.bytes_used);
        }
    }

    /// Demand-driven checkpoint placement never trades correctness for
    /// overshoot: from *every* demand-placed snapshot of a randomized
    /// workload's golden trace, fork + suffix replay reproduces the
    /// byte-identical filesystem state of a from-scratch full replay —
    /// and when the distinct demanded offsets fit the snapshot budget,
    /// the placement's total overshoot over that demand is exactly
    /// zero (every demanded fork starts at its own target).
    #[test]
    fn demand_placed_checkpoints_replay_byte_identical(
        seed in any::<u64>(),
        n_files in 1usize..4,
        demand_sel in proptest::collection::vec(any::<proptest::sample::Index>(), 1..24),
        budget in 2usize..10,
    ) {
        use ffis_vfs::TraceCheckpoints;

        let (ops, reference, paths) = record_replay_workload(seed, n_files);
        let n = ops.len();
        let demand: Vec<usize> = demand_sel.iter().map(|d| d.index(n)).collect();
        let cache = TraceCheckpoints::build_for_demand_with(ops, &demand, budget).unwrap();

        let mut distinct: Vec<usize> =
            demand.iter().copied().filter(|&d| d > 0 && d < n).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if !distinct.is_empty() && distinct.len() < budget.max(2) {
            prop_assert_eq!(
                cache.overshoot_for(&demand), 0,
                "a demand that fits the budget gets zero overshoot"
            );
        }

        for point in cache.points() {
            let (mount, mut cursor) = point.mount_fork();
            cursor.replay(&*mount, cache.suffix(point)).unwrap();
            for p in &paths {
                let got = mount.read_to_vec(p).map_err(|e| e.to_string());
                let want = reference.read_to_vec(p).map_err(|e| e.to_string());
                prop_assert_eq!(
                    &got, &want,
                    "demand checkpoint {} diverged on {}", point.index(), p
                );
            }
            let got_stat = mount.inner().statfs().unwrap();
            let want_stat = reference.statfs().unwrap();
            prop_assert_eq!(got_stat.inodes, want_stat.inodes);
            prop_assert_eq!(got_stat.bytes_used, want_stat.bytes_used);
        }
    }

    /// Checkpoint-grouped batch execution changes nothing observable
    /// (engine law 9): grouping random fork targets by their starting
    /// checkpoint — the executor's batch key — partitions exactly the
    /// original target multiset, and every target's batched mini-fork
    /// (target op + tail replayed) lands on the byte-identical state
    /// the classic per-run arm (shared checkpoint + full suffix) and a
    /// from-scratch full replay produce.
    #[test]
    fn batch_grouped_replay_matches_per_run_forks(
        seed in any::<u64>(),
        n_files in 1usize..3,
        target_sel in proptest::collection::vec(any::<proptest::sample::Index>(), 2..14),
    ) {
        use ffis_vfs::TraceCheckpoints;
        use std::collections::HashMap;

        let (ops, reference, paths) = record_replay_workload(seed, n_files);
        let n = ops.len();
        let targets: Vec<usize> = target_sel.iter().map(|t| t.index(n)).collect();
        let cache = TraceCheckpoints::build_for_demand(ops, &targets).unwrap();

        // Group by starting-checkpoint position, exactly like
        // `RunStrategy::Replay { checkpoint }`'s batch key.
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for &t in &targets {
            let pos = cache.points().partition_point(|p| p.index() <= t) - 1;
            groups.entry(pos).or_default().push(t);
        }

        // The grouped schedule is a permutation of the target multiset:
        // no run is lost, duplicated, or migrated across groups.
        let mut flat: Vec<usize> = groups.values().flatten().copied().collect();
        flat.sort_unstable();
        let mut want = targets.clone();
        want.sort_unstable();
        prop_assert_eq!(flat, want);

        for (pos, group) in groups {
            let batch = cache.fork_at_targets(pos, &group).unwrap();
            for &t in &group {
                let fork = batch.for_target(t).unwrap();
                prop_assert_eq!(fork.point().index(), t);

                // Batched arm: mini-fork at the target, replay the
                // target op + tail.
                let (mount, mut cursor) = fork.point().mount_fork();
                cursor.replay(&*mount, &cache.ops()[t..]).unwrap();

                // Classic arm: the group's shared checkpoint + full
                // suffix.
                let start = cache.nearest_before(t);
                let (classic, mut c2) = start.mount_fork();
                c2.replay(&*classic, cache.suffix(start)).unwrap();

                for p in &paths {
                    let batched = mount.read_to_vec(p).map_err(|e| e.to_string());
                    let unbatched = classic.read_to_vec(p).map_err(|e| e.to_string());
                    let full = reference.read_to_vec(p).map_err(|e| e.to_string());
                    prop_assert_eq!(
                        &batched, &unbatched,
                        "target {} batched/classic diverged on {}", t, p
                    );
                    prop_assert_eq!(
                        &batched, &full,
                        "target {} diverged from full replay on {}", t, p
                    );
                }
            }
        }
    }

    /// Read-site faults corrupt computation, never the device: for
    /// every read-site model (BIT FLIP, SHORN READ in all fill
    /// variants, DROPPED READ), a run with an armed read injector
    /// leaves the post-`produce` filesystem byte-identical to the
    /// golden run's — same file bytes, same inode/byte accounting.
    #[test]
    fn read_site_faults_leave_device_state_pristine(
        model_idx in 0usize..5,
        instance in 1u64..=3,
        seed in any::<u64>(),
    ) {
        use ffis_core::{ArmedInjector, FaultSignature};
        use ffis_vfs::FfisFs;
        use std::sync::Arc;

        let models = [
            FaultModel::bit_flip(),
            FaultModel::ShornWrite { keep: ShornKeep::SevenEighths, fill: ShornFill::Stale },
            FaultModel::ShornWrite { keep: ShornKeep::ThreeEighths, fill: ShornFill::Zeros },
            FaultModel::ShornWrite { keep: ShornKeep::SevenEighths, fill: ShornFill::Random },
            FaultModel::dropped_write(),
        ];
        let model = models[model_idx];

        let paths = ["/w/a.dat", "/w/b.dat", "/w/c.dat"];
        let produce = |fs: &dyn FileSystem| {
            fs.mkdir("/w", 0o755).unwrap();
            for (i, p) in paths.iter().enumerate() {
                let data: Vec<u8> =
                    (0..4096 * (i + 1)).map(|b| (b as u64 * 37 + i as u64) as u8).collect();
                fs.write_file_chunked(p, &data, 2048).unwrap();
            }
        };
        let analyze = |fs: &dyn FileSystem| -> u64 {
            paths
                .iter()
                .map(|p| {
                    fs.read_to_vec(p)
                        .map(|v| v.iter().map(|&b| u64::from(b)).sum::<u64>())
                        .unwrap_or(0)
                })
                .sum()
        };

        // Golden run on a clean mount.
        let golden_base = Arc::new(MemFs::new());
        let golden_mount = FfisFs::mount(golden_base.clone());
        produce(&*golden_mount);
        let golden_sum = analyze(&*golden_mount);

        // Injected run: a read-site fault armed on one of the three
        // analyze-phase reads.
        let base = Arc::new(MemFs::new());
        let mount = FfisFs::mount(base.clone());
        let inj = Arc::new(ArmedInjector::new(FaultSignature::on_read(model), instance, seed));
        mount.attach(inj.clone());
        produce(&*mount);
        let faulty_sum = analyze(&*mount);
        prop_assert!(inj.fired(), "instance {} of 3 eligible reads must fire", instance);
        // The computation is corrupted (except stale-fill tears whose
        // replicated sector happens to match) ...
        if matches!(model, FaultModel::BitFlip { .. } | FaultModel::DroppedWrite) {
            prop_assert!(golden_sum != faulty_sum, "{:?} must perturb the read-back", model);
        }
        // ... but the device never is: every stored byte and the
        // global accounting are identical to the golden run's.
        for p in &paths {
            prop_assert_eq!(
                golden_base.read_to_vec(p).unwrap(),
                base.read_to_vec(p).unwrap(),
                "{:?} leaked onto the device at {}",
                model,
                p
            );
        }
        let g = golden_base.statfs().unwrap();
        let f = base.statfs().unwrap();
        prop_assert_eq!(g.inodes, f.inodes);
        prop_assert_eq!(g.bytes_used, f.bytes_used);
    }

    /// `apply_to_read` damage is confined to the transfer: bytes past
    /// `n` (the filled region) are never touched, and the buffer
    /// length never changes.
    #[test]
    fn read_mutations_confined_to_transfer(
        data in proptest::collection::vec(any::<u8>(), 1..8192),
        model_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        use ffis_core::ReadMutation;
        let model = [
            FaultModel::bit_flip(),
            FaultModel::ShornWrite { keep: ShornKeep::SevenEighths, fill: ShornFill::Random },
        ][model_idx];
        let n = data.len() / 2;
        let mut buf = data.clone();
        let mut rng = Rng::seed_from(seed);
        match model.apply_to_read(&mut buf, n, &mut rng) {
            ReadMutation::Corrupted { .. } | ReadMutation::NotApplicable => {
                prop_assert_eq!(buf.len(), data.len());
                prop_assert_eq!(&buf[n..], &data[n..], "tail beyond the transfer untouched");
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// The analyze-only numbering law: for a randomized two-phase
    /// workload (produce writes files and best-effort reads some
    /// back; analyze reads everything), arming the injector on *every*
    /// analyze-phase target instance through a pre-seeded fork of the
    /// golden post-produce state yields an injection record —
    /// instance, `prim_seq`, path, offset, length, damage detail —
    /// byte-identical to a full produce+analyze re-execution armed on
    /// the same absolute instance. This is the mechanism under
    /// `RunStrategy::AnalyzeOnly`, tested below the campaign driver.
    #[test]
    fn preseeded_read_numbering_matches_full_run_for_every_target(
        seed in any::<u64>(),
        n_files in 1usize..4,
        produce_readback in 0usize..3,
    ) {
        use ffis_core::{ArmedInjector, FaultSignature};
        use ffis_vfs::{FfisFs, ReadLedger};
        use std::sync::Arc;

        let files: Vec<(String, usize)> =
            (0..n_files).map(|f| (format!("/p/f{:02}.bin", f), 700 * (f + 1))).collect();
        let produce = |fs: &dyn FileSystem| {
            fs.mkdir("/p", 0o755).unwrap();
            for (p, len) in &files {
                let data: Vec<u8> = (0..*len).map(|i| (i as u64 * 13) as u8).collect();
                fs.write_file_chunked(p, &data, 512).unwrap();
            }
            // Best-effort verification read-back: data ignored, so the
            // write stream stays data-independent.
            for (p, _) in files.iter().take(produce_readback.min(n_files)) {
                let _ = fs.read_to_vec(p);
            }
        };
        let analyze = |fs: &dyn FileSystem| {
            for (p, _) in &files {
                let _ = fs.read_to_vec(p);
            }
        };

        // Golden run with the read ledger and the phase-boundary
        // counter snapshot — exactly what the campaign driver records.
        let base = Arc::new(MemFs::new());
        let ffs = FfisFs::mount(base.clone());
        let ledger = Arc::new(ReadLedger::new());
        ffs.attach(ledger.clone());
        produce(&*ffs);
        ledger.mark_produce_end();
        let boundary = ffs.counters();
        analyze(&*ffs);
        ffs.unmount();

        let eligible = ledger.len() as u64;
        let produce_eligible = ledger.produce_reads() as u64;
        prop_assert_eq!(produce_eligible as usize, produce_readback.min(n_files));
        prop_assert!(eligible > produce_eligible, "analyze always reads");

        let sig = FaultSignature::on_read(FaultModel::bit_flip());
        for k in 1..=eligible {
            // Reference: full re-execution armed on absolute instance k.
            let full_inj = Arc::new(ArmedInjector::new(sig.clone(), k, seed));
            let ffs = FfisFs::mount(Arc::new(MemFs::new()));
            ffs.attach(full_inj.clone());
            produce(&*ffs);
            analyze(&*ffs);
            ffs.unmount();
            let full = full_inj.record();
            prop_assert!(full.is_some(), "instance {} must fire on the full run", k);

            // Analyze-phase targets: fork the golden state, pre-seed
            // the boundary counters, resume eligible counting past the
            // produce-phase reads, run only analyze.
            if k > produce_eligible {
                let fast_inj =
                    Arc::new(ArmedInjector::resuming(sig.clone(), k, seed, produce_eligible));
                let ffs = FfisFs::mount(Arc::new(base.fork()));
                ffs.preseed_counters(&boundary);
                ffs.attach(fast_inj.clone());
                analyze(&*ffs);
                ffs.unmount();
                prop_assert_eq!(
                    fast_inj.record(), full,
                    "instance {} numbering diverged between the paths", k
                );
            }
        }
    }

    /// Engine law 1 + 3 (planner half): for arbitrary mixes of replay,
    /// analyze-only, and rerun strategies, the plan emits each run
    /// exactly once, the schedule is a permutation of the runs,
    /// rebuilding the plan reproduces
    /// the identical schedule (plan order cannot depend on `parallel`
    /// — the planner never even sees it), fast runs are scheduled
    /// shortest-work-first, and rerun runs keep their relative index
    /// order.
    #[test]
    fn execution_plan_emits_each_run_once_with_deterministic_schedule(
        raw in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        // Derive an arbitrary replay/analyze-only/rerun mix from the
        // raw words.
        let strategies: Vec<RunStrategy> = raw
            .iter()
            .map(|&w| match w % 5 {
                0 => RunStrategy::Replay {
                    checkpoint: (w >> 2) as usize % 8,
                    suffix_len: 1 + (w >> 5) as usize % 2000,
                },
                1 => RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault },
                2 => RunStrategy::AnalyzeOnly,
                3 => RunStrategy::IncrementalAnalyze { cost: 1 + (w >> 5) as u32 % 2000 },
                _ => RunStrategy::Rerun { reason: ReplayFallback::Disabled },
            })
            .collect();
        let mk = || {
            let runs: Vec<PlannedRun<u64>> = strategies
                .iter()
                .enumerate()
                .map(|(index, &strategy)| PlannedRun { index, strategy, spec: index as u64 })
                .collect();
            ExecutionPlan::new(runs)
        };
        let plan = mk();
        // Each run exactly once, in result order.
        for (i, r) in plan.runs().iter().enumerate() {
            prop_assert_eq!(r.index, i);
        }
        // Schedule is a permutation.
        let mut seen = plan.schedule().to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..strategies.len()).collect::<Vec<_>>());
        // Deterministic rebuild (no dependence on execution knobs).
        let rebuilt = mk();
        prop_assert_eq!(plan.schedule(), rebuilt.schedule());
        // Fast subsequence (replay + analyze-only +
        // incremental-analyze): cost keys nondecreasing on the shared
        // axis (suffix ops / live reads), with analyze-only runs (zero
        // cost) ahead of everything; rerun subsequence: index order
        // preserved.
        let mut last_cost = 0usize;
        let mut last_rerun = None::<usize>;
        for &pos in plan.schedule() {
            match plan.runs()[pos].strategy {
                RunStrategy::Replay { suffix_len, .. } => {
                    prop_assert!(suffix_len >= last_cost, "fast runs not shortest-work-first");
                    last_cost = suffix_len;
                }
                RunStrategy::IncrementalAnalyze { cost } => {
                    prop_assert!(cost as usize >= last_cost, "fast runs not shortest-work-first");
                    last_cost = cost as usize;
                }
                RunStrategy::AnalyzeOnly => {
                    prop_assert_eq!(last_cost, 0, "analyze-only runs lead the fast stream");
                }
                RunStrategy::Rerun { .. } => {
                    if let Some(prev) = last_rerun {
                        prop_assert!(pos > prev, "rerun relative order changed");
                    }
                    last_rerun = Some(pos);
                }
            }
        }
    }

    /// scalar.dat rendering always re-parses to the same rows.
    #[test]
    fn scalar_dat_roundtrip(
        energies in proptest::collection::vec(-10.0f64..10.0, 25..60),
    ) {
        let rows: Vec<qmc_sim::ScalarRow> = energies
            .iter()
            .enumerate()
            .map(|(i, &e)| qmc_sim::ScalarRow {
                index: i as u64,
                local_energy: e,
                variance: e.abs(),
                weight: 100.0,
                accept_ratio: 0.5,
            })
            .collect();
        let text = qmc_sim::render_scalar(&rows);
        let parsed = qmc_sim::parse_scalar(&text, 1).unwrap();
        prop_assert_eq!(parsed.rows.len(), rows.len());
        prop_assert_eq!(parsed.skipped, 0);
        for (a, b) in parsed.rows.iter().zip(&rows) {
            prop_assert!((a.local_energy - b.local_energy).abs() < 1e-9);
        }
    }
}

proptest! {
    // Ten models share the cases; each case is a few microseconds.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Read-site damage done in place is the write-site damage of a
    /// copy: for BIT FLIP of several widths and every SHORN keep × fill,
    /// `apply_to_read` over `buf[..n]` leaves the bytes
    /// `apply_to_buffer(&data[..n])` returns, with the same detail, the
    /// same not-applicable cases, the same RNG draws, and nothing past
    /// `n` touched. Both sites share one damage core, so the stale fill
    /// is also checked against an oracle: the torn range repeats the
    /// sector just before it, or is zeros at the head of the transfer.
    /// A `short` case ends the transfer under 600 bytes into a block,
    /// where nothing of a torn trailing block persists.
    #[test]
    fn read_damage_is_write_damage_of_a_copy(
        data in proptest::collection::vec(any::<u8>(), 0..3 * ffis_vfs::BLOCK_SIZE + 17),
        model_idx in 0usize..10,
        n_pick in any::<usize>(),
        short in any::<bool>(),
        tail in 0usize..600,
        seed in any::<u64>(),
    ) {
        use ffis_core::ReadMutation;
        let model = match model_idx {
            0..=3 => FaultModel::BitFlip { bits: [1, 2, 8, 64][model_idx] },
            i => FaultModel::ShornWrite {
                keep: [ShornKeep::ThreeEighths, ShornKeep::SevenEighths][(i - 4) % 2],
                fill: [ShornFill::Stale, ShornFill::Zeros, ShornFill::Random][(i - 4) / 2],
            },
        };
        let n = if short {
            (n_pick % 3 * ffis_vfs::BLOCK_SIZE + tail).min(data.len())
        } else {
            n_pick % (data.len() + 1)
        };
        let (mut rng1, mut rng2) = (Rng::seed_from(seed), Rng::seed_from(seed));
        let mut a = data.clone();
        let read = model.apply_to_read(&mut a, n, &mut rng1);
        let write = model.apply_to_buffer(&data[..n], &mut rng2);
        match (read, write) {
            (ReadMutation::Corrupted { detail: d }, Mutation::Replaced { buf: out, detail }) => {
                prop_assert_eq!(&d, &detail);
                prop_assert_eq!(&a[..n], &out[..], "{:?} n={} {}", model, n, d);
                if let FaultModel::ShornWrite { fill: ShornFill::Stale, .. } = model {
                    let torn = d.split("torn=[").nth(1).and_then(|t| t.split(')').next());
                    let (lo, hi) = torn.and_then(|t| t.split_once(',')).unwrap();
                    let (lo, hi): (usize, usize) = (lo.parse().unwrap(), hi.parse().unwrap());
                    for i in lo..hi {
                        let want = match lo.checked_sub(SECTOR_SIZE) {
                            Some(src) => data[src + (i - lo) % SECTOR_SIZE],
                            None => 0,
                        };
                        prop_assert_eq!(a[i], want, "stale byte {} of {}", i, d);
                    }
                }
            }
            (ReadMutation::NotApplicable, Mutation::NotApplicable) => {
                prop_assert_eq!(&a[..n], &data[..n]);
            }
            (r, w) => prop_assert!(false, "{:?} n={}: read {:?}, write {:?}", model, n, r, w),
        }
        prop_assert_eq!(&a[n..], &data[n..], "tail beyond the transfer untouched");
        prop_assert_eq!(rng1.next_u64(), rng2.next_u64(), "RNG streams diverged");
    }
}

/// Small paper-workload presets for the engine-level properties (the
/// same scales the differential pins use).
mod engine_apps {
    pub fn nyx() -> nyx_sim::NyxApp {
        nyx_sim::NyxApp::new(nyx_sim::NyxConfig {
            field: nyx_sim::FieldConfig { n: 12, ..Default::default() },
            ..Default::default()
        })
    }

    pub fn qmc() -> qmc_sim::QmcApp {
        qmc_sim::QmcApp::new(qmc_sim::QmcConfig {
            vmc: qmc_sim::VmcConfig { walkers: 32, warmup: 50, steps: 60, ..Default::default() },
            dmc: qmc_sim::DmcConfig {
                target_walkers: 32,
                warmup: 0,
                steps: 80,
                ..Default::default()
            },
            qmca: qmc_sim::QmcaConfig { equilibration_fraction: 0.2, min_rows: 10 },
            ..Default::default()
        })
    }

    pub fn montage() -> montage_sim::MontageApp {
        montage_sim::MontageApp::paper_default()
    }
}

proptest! {
    // App-level properties execute real campaigns; a handful of seeded
    // cases keeps them meaningful without dominating the suite.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Engine law 3, end to end on all three paper apps: a
    /// replay-backed write-site campaign and an analyze-only read-site
    /// one each produce byte-identical tallies, outcomes, instance
    /// choices, injection records, and crash messages with `parallel`
    /// on and off, for arbitrary seeds.
    #[test]
    fn engine_serial_equals_parallel_on_all_three_apps(
        seed in any::<u64>(),
        runs in 4usize..8,
    ) {
        use ffis_core::{Campaign, CampaignConfig, FaultSignature};

        // A macro (not a generic fn) so prop_assert's early return
        // lands in the enclosing property body for each app.
        macro_rules! check {
            ($app:expr) => {{
                let app = $app;
                for sig in [
                    FaultSignature::on_write(FaultModel::bit_flip()),
                    FaultSignature::on_read(FaultModel::bit_flip()),
                ] {
                    let mk = |parallel: bool| {
                        let mut cfg = CampaignConfig::new(sig.clone())
                            .with_runs(runs)
                            .with_seed(seed)
                            .with_replay(true);
                        cfg.parallel = parallel;
                        Campaign::new(&app, cfg).run().unwrap()
                    };
                    let serial = mk(false);
                    let parallel = mk(true);
                    prop_assert_eq!(serial.tally, parallel.tally);
                    prop_assert_eq!(serial.mode, parallel.mode);
                    prop_assert_eq!(serial.profile.eligible, parallel.profile.eligible);
                    prop_assert_eq!(serial.runs.len(), parallel.runs.len());
                    for (x, y) in serial.runs.iter().zip(&parallel.runs) {
                        prop_assert_eq!(x.run, y.run);
                        prop_assert_eq!(x.outcome, y.outcome);
                        prop_assert_eq!(x.target_instance, y.target_instance);
                        prop_assert_eq!(x.mode, y.mode);
                        prop_assert_eq!(&x.injection, &y.injection);
                        prop_assert_eq!(&x.crash_message, &y.crash_message);
                    }
                }
            }};
        }

        check!(engine_apps::nyx());
        check!(engine_apps::qmc());
        check!(engine_apps::montage());
    }

    /// Engine law 6 (the resume law) at a random kill point: journal a
    /// full campaign, truncate the journal to its state after the k-th
    /// record — plus an optional torn partial frame — exactly what a
    /// process killed mid-append leaves behind, and resume. Tallies,
    /// per-run records, and the FNV run digest must be byte-identical
    /// to the uninterrupted result, at the write site and the read
    /// site, on all three paper apps, serial and parallel.
    #[test]
    fn resume_from_any_kill_point_matches_the_uninterrupted_run(
        seed in any::<u64>(),
        kill_sel in any::<proptest::sample::Index>(),
        tear in 0u64..6,
        parallel in any::<bool>(),
    ) {
        use ffis_core::engine::journal;
        use ffis_core::{Campaign, CampaignConfig, CompletionStatus, FaultSignature};

        macro_rules! check {
            ($name:expr, $app:expr) => {{
                let app = $app;
                let dir = std::env::temp_dir().join(format!(
                    "ffis-resume-prop-{}-{}-{}-{}",
                    std::process::id(), $name, seed, parallel
                ));
                std::fs::create_dir_all(&dir).unwrap();
                for (site, sig) in [
                    ("write", FaultSignature::on_write(FaultModel::bit_flip())),
                    ("read", FaultSignature::on_read(FaultModel::bit_flip())),
                ] {
                    let jpath = dir.join(format!("{site}.journal"));
                    let mk = |journaled: bool, resume: bool| {
                        let mut cfg = CampaignConfig::new(sig.clone())
                            .with_runs(4)
                            .with_seed(seed)
                            .with_replay(true);
                        cfg.parallel = parallel;
                        if journaled {
                            cfg = cfg.with_journal(&jpath).with_resume(resume);
                        }
                        Campaign::new(&app, cfg).run().unwrap()
                    };
                    let control = mk(false, false);
                    let full = mk(true, false);
                    prop_assert_eq!(full.run_digest(), control.run_digest());

                    // Emulate death after k complete records (k ≥ 1;
                    // the journal scan exposes each record's end offset
                    // for exactly this), leaving a torn partial frame
                    // behind when the kill point sits mid-append.
                    let (_meta, ends) = journal::scan(&jpath).unwrap();
                    prop_assert_eq!(ends.len(), control.runs.len());
                    let k = 1 + kill_sel.index(ends.len());
                    let cut =
                        if k < ends.len() { ends[k - 1] + tear.min(7) } else { ends[k - 1] };
                    let file = std::fs::OpenOptions::new().write(true).open(&jpath).unwrap();
                    file.set_len(cut).unwrap();
                    drop(file);

                    let resumed = mk(true, true);
                    prop_assert_eq!(resumed.status, CompletionStatus::Complete);
                    prop_assert_eq!(resumed.resumed, k, "the torn tail must not count");
                    prop_assert_eq!(resumed.executed, control.runs.len() - k);
                    prop_assert_eq!(&resumed.tally, &control.tally);
                    prop_assert_eq!(resumed.run_digest(), control.run_digest());
                    for (x, y) in resumed.runs.iter().zip(&control.runs) {
                        prop_assert_eq!(x, y, "resume law: records byte-identical");
                    }
                }
                std::fs::remove_dir_all(&dir).ok();
            }};
        }

        check!("nyx", engine_apps::nyx());
        check!("qmc", engine_apps::qmc());
        check!("montage", engine_apps::montage());
    }

    /// Engine law 4: bounding the record reservoir never changes a
    /// campaign's tally, and the kept records are a seed-stable
    /// subsequence of the keep-all campaign's records — identical
    /// content at the selected indices, identical selection across
    /// reruns.
    #[test]
    fn bounded_reservoir_is_a_stable_subset_with_identical_tallies(
        seed in any::<u64>(),
        runs in 8usize..20,
        keep in 1usize..6,
    ) {
        use ffis_core::{Campaign, CampaignConfig, FaultSignature};

        let app = engine_apps::nyx();
        let mk = |keep_runs: Option<usize>| {
            let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::bit_flip()))
                .with_runs(runs)
                .with_seed(seed)
                .with_keep_runs(keep_runs);
            Campaign::new(&app, cfg).run().unwrap()
        };
        let all = mk(None);
        let bounded = mk(Some(keep));
        prop_assert_eq!(all.runs.len(), runs);
        prop_assert_eq!(bounded.runs.len(), keep.min(runs));
        prop_assert_eq!(all.tally, bounded.tally, "tallies must cover dropped runs");
        // Each kept record equals the keep-all record at its index.
        for r in &bounded.runs {
            let full = &all.runs[r.run];
            prop_assert_eq!(r.outcome, full.outcome);
            prop_assert_eq!(r.target_instance, full.target_instance);
            prop_assert_eq!(&r.injection, &full.injection);
            prop_assert_eq!(&r.crash_message, &full.crash_message);
        }
        // Seed-stable selection.
        let again = mk(Some(keep));
        let kept: Vec<usize> = bounded.runs.iter().map(|r| r.run).collect();
        let kept_again: Vec<usize> = again.runs.iter().map(|r| r.run).collect();
        prop_assert_eq!(kept, kept_again);
    }
}
