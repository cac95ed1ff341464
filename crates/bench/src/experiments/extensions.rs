//! Extension experiments beyond the paper's evaluation matrix:
//! the I/O-pattern profiles of the three workloads (the Figure 2
//! "I/O pattern profiler" component made visible), and read-path
//! fault injection (the abstract's "faults into the data returned
//! from underlying file systems").

use ffis_core::{FaultApp, FaultModel, FaultSignature, IoProfiler, Outcome, TargetFilter};
use ffis_vfs::Primitive;

use crate::cli::Options;
use crate::report::{Report, Table};

/// `repro profile` — fault-free I/O profiles (dynamic primitive
/// counts) for the three workloads.
pub fn profile(opts: &Options) -> Report {
    let mut report = Report::new("profile");
    report.line("I/O pattern profiles — fault-free dynamic primitive counts (Fig. 2/4 profiler)");
    report.blank();

    let nyx = crate::experiments::campaigns::nyx_app(opts);
    let qmc = qmc_sim::QmcApp::paper_default();
    let montage = montage_sim::MontageApp::paper_default();

    let mut table = Table::new();
    let mut header = vec!["primitive".to_string()];
    for name in ["NYX", "QMC", "MT"] {
        header.push(name.to_string());
    }
    table.row(&header.iter().map(String::as_str).collect::<Vec<_>>());

    let profiles: Vec<ffis_core::ProfileReport> = [
        IoProfiler::new(Primitive::Write, TargetFilter::Any)
            .profile(|fs| nyx.run(fs))
            .map(|(p, _)| p)
            .expect("nyx profile"),
        IoProfiler::new(Primitive::Write, TargetFilter::Any)
            .profile(|fs| qmc.run(fs))
            .map(|(p, _)| p)
            .expect("qmc profile"),
        IoProfiler::new(Primitive::Write, TargetFilter::Any)
            .profile(|fs| montage.run(fs))
            .map(|(p, _)| p)
            .expect("montage profile"),
    ]
    .into();

    for p in ffis_vfs::PRIMITIVES {
        let counts: Vec<u64> = profiles.iter().map(|r| r.counters.get(p)).collect();
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        let cells: Vec<String> = std::iter::once(p.ffis_name().to_string())
            .chain(counts.iter().map(|c| c.to_string()))
            .collect();
        table.row(&cells.iter().map(String::as_str).collect::<Vec<_>>());
    }
    report.line(table.render());
    report.line("The paper's common feature of the three applications: \"they all have a large");
    report.line("number of I/O operations\" — the FFIS_write rows carry the injection spaces.");
    report
}

/// `repro read-faults` — read-site BIT FLIP campaigns (2-bit flips in
/// the data returned by reads), uniformly over each workload's
/// eligible read instances, through the first-class campaign engine:
/// the exec column records `analyze-only` on every cell (all three
/// apps read only during analyze), or the phase-aware fallback reason
/// when the fast path cannot engage.
pub fn read_faults(opts: &Options) -> Report {
    use crate::experiments::campaigns::run_cell_sig;

    let runs = opts.runs.min(400);
    let mut report = Report::new("read_faults");
    report.line("Extension — read-site BIT FLIP campaigns (faults in data returned by reads)");
    report.line(format!("(runs per cell: {}, seed {:#x})", runs, opts.seed));
    report.blank();

    let nyx = crate::experiments::campaigns::nyx_app(opts);
    let qmc = qmc_sim::QmcApp::paper_default();
    let montage = montage_sim::MontageApp::paper_default();

    let mut table = Table::new();
    table.row(&["app", "benign%", "detected%", "SDC%", "crash%", "n", "eligible reads", "exec"]);
    let mut row = |name: String, result: Option<ffis_core::CampaignResult>| match result {
        Some(r) => table.row(&[
            &name,
            &format!("{:.1}", r.tally.rate_pct(Outcome::Benign)),
            &format!("{:.1}", r.tally.rate_pct(Outcome::Detected)),
            &format!("{:.1}", r.tally.rate_pct(Outcome::Sdc)),
            &format!("{:.1}", r.tally.rate_pct(Outcome::Crash)),
            &r.tally.total().to_string(),
            &r.profile.eligible.to_string(),
            &r.mode.to_string(),
        ]),
        None => table.row(&[&name, "-", "-", "-", "-", "0", "-", "-"]),
    };
    let sig = |target: TargetFilter| {
        let mut sig = FaultSignature::on_read(FaultModel::bit_flip());
        sig.target = target;
        sig
    };
    row(nyx.name(), run_cell_sig(&nyx, sig(TargetFilter::Any), runs, opts, 0x5EAD));
    row(qmc.name(), run_cell_sig(&qmc, sig(TargetFilter::Any), runs, opts, 0x5EAE));
    row(montage.name(), run_cell_sig(&montage, sig(TargetFilter::Any), runs, opts, 0x5EAF));
    // Scoped rows: each app's sensitive read channel, via the apps'
    // own target filters. QMC's checkpoint is the restart handoff —
    // every fault there lands in the walkers DMC restarts from.
    row(
        format!("{} (plotfile)", nyx.name()),
        run_cell_sig(&nyx, sig(nyx_sim::NyxApp::plotfile_filter()), runs, opts, 0x5EB0),
    );
    row(
        format!("{} (checkpoint)", qmc.name()),
        run_cell_sig(&qmc, sig(qmc_sim::QmcApp::checkpoint_filter()), runs, opts, 0x5EB1),
    );
    row(
        format!("{} (series)", qmc.name()),
        run_cell_sig(&qmc, sig(qmc_sim::QmcApp::series_filter()), runs, opts, 0x5EB3),
    );
    row(
        format!("{} (mosaic)", montage.name()),
        run_cell_sig(&montage, sig(montage_sim::MontageApp::mosaic_filter()), runs, opts, 0x5EB2),
    );
    report.line(table.render());
    report.line("Reads outnumber writes in multi-stage pipelines, so read-side corruption gives");
    report.line("Montage a larger injection surface than its write side; the stored files stay");
    report.line("clean, making every non-benign case silent at the device level. The scoped rows");
    report.line("isolate each app's sensitive read channel (Nyx plotfile, QMC restart checkpoint,");
    report.line("Montage mosaic) from its log/ancillary reads.");
    report
}

/// `repro param-faults` — Table I's non-write primitives: BIT FLIP on
/// the scalar parameters of `FFIS_mknod`, `FFIS_chmod` and
/// `FFIS_truncate` (Figure 3b's instrumentation), against a synthetic
/// staging workload that exercises all three.
pub fn param_faults(opts: &Options) -> Report {
    use ffis_core::prelude::*;
    use ffis_vfs::{FileSystem, FileSystemExt, NodeKind};

    /// A staging workload: creates a working tree, mknods a control
    /// FIFO, stages data files, chmods them read-only, truncates the
    /// journal, then reports the tree state.
    struct StagingApp;

    impl FaultApp for StagingApp {
        type Output = String;

        fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
            fs.mkdir("/stage", 0o755).map_err(|e| e.to_string())?;
            fs.mknod("/stage/control.fifo", NodeKind::Fifo, 0o600, 0).map_err(|e| e.to_string())?;
            fs.mknod("/stage/dev0", NodeKind::CharDev, 0o660, 0x0501).map_err(|e| e.to_string())?;
            for i in 0..6 {
                let p = format!("/stage/part{:02}.dat", i);
                fs.write_file_chunked(&p, &vec![i as u8; 8192], 4096).map_err(|e| e.to_string())?;
                fs.chmod(&p, 0o444).map_err(|e| e.to_string())?;
            }
            fs.write_file("/stage/journal.log", &vec![b'j'; 9000]).map_err(|e| e.to_string())?;
            fs.truncate("/stage/journal.log", 4096).map_err(|e| e.to_string())
        }

        fn analyze(&self, fs: &dyn FileSystem, _golden: Option<&String>) -> Result<String, String> {
            // Report: sorted listing with kind, mode, size, rdev.
            let mut lines = Vec::new();
            for e in fs.readdir("/stage").map_err(|e| e.to_string())? {
                let p = format!("/stage/{}", e.name);
                let m = fs.getattr(&p).map_err(|e| e.to_string())?;
                lines.push(format!("{} {:?} {:o} {} {}", e.name, m.kind, m.mode, m.size, m.rdev));
            }
            Ok(lines.join("\n"))
        }

        fn classify(&self, golden: &String, faulty: &String) -> Outcome {
            if golden == faulty {
                Outcome::Benign
            } else {
                // The listing itself is the detector: any deviation in
                // mode/size/rdev is visible metadata damage.
                Outcome::Detected
            }
        }

        fn name(&self) -> String {
            "STAGING".into()
        }
    }

    let mut report = Report::new("param_faults");
    report.line("Extension — BIT FLIP on FFIS_mknod / FFIS_chmod / FFIS_truncate parameters");
    report.line("(Table I's non-write primitives, Figure 3b's instrumentation)");
    report.blank();

    let mut table = Table::new();
    table.row(&["primitive", "benign%", "detected%", "SDC%", "crash%", "eligible instances"]);
    for prim in ["mknod", "chmod", "truncate"] {
        let mut fc = ffis_core::FaultConfig::model("bitflip");
        fc.primitive = Some(prim.to_string());
        let sig = fc.build().expect("valid");
        let cfg =
            CampaignConfig::new(sig).with_runs(opts.runs.min(300)).with_seed(opts.seed ^ 0x9A7A);
        match Campaign::new(&StagingApp, cfg).run() {
            Ok(r) => table.row(&[
                &format!("FFIS_{}", prim),
                &format!("{:.1}", r.tally.rate_pct(Outcome::Benign)),
                &format!("{:.1}", r.tally.rate_pct(Outcome::Detected)),
                &format!("{:.1}", r.tally.rate_pct(Outcome::Sdc)),
                &format!("{:.1}", r.tally.rate_pct(Outcome::Crash)),
                &r.profile.eligible.to_string(),
            ]),
            Err(e) => table.row(&[&format!("FFIS_{}", prim), "-", "-", "-", "-", &e.to_string()]),
        }
    }
    report.line(table.render());
    report.line("Mode/dev/size parameter flips surface as visible metadata deviations (detected)");
    report.line("rather than data corruption — one reason the paper's data-centric study focuses");
    report.line("its campaigns on FFIS_write.");
    report
}
