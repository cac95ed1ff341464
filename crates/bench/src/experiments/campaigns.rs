//! Figure 7 — the main characterization — and the average-value
//! protection variant (the figure's footnote).

use ffis_core::prelude::*;
use montage_sim::{MontageApp, Stage};
use nyx_sim::NyxApp;
use qmc_sim::QmcApp;

use crate::cli::Options;
use crate::report::{Report, Table};

/// The three paper fault models in Figure 7 order.
pub fn models() -> [(&'static str, FaultModel); 3] {
    [
        ("BF", FaultModel::bit_flip()),
        ("SW", FaultModel::shorn_write()),
        ("DW", FaultModel::dropped_write()),
    ]
}

/// The read-site mirror of [`models`]: the same three models hosted on
/// `FFIS_read`, labeled with the read-site vocabulary (`r:` marks the
/// site; BIT FLIP keeps its name at both sites).
pub fn read_models() -> [(&'static str, FaultModel); 3] {
    [
        ("r:BF", FaultModel::bit_flip()),
        ("r:SR", FaultModel::shorn_write()),
        ("r:DR", FaultModel::dropped_write()),
    ]
}

/// Build the Nyx app at the harness scale. The sieve-buffer write
/// size scales with the grid volume so the data-write count (and with
/// it the metadata-write hit probability, i.e. the crash share) stays
/// at the paper-scale proportion for smaller `--grid` values.
pub fn nyx_app(opts: &Options) -> NyxApp {
    // One grid/volume scaling rule for the whole workspace: the
    // harness and the daemon's spec executor must agree byte-for-byte
    // on what "Nyx at grid n" means, or an HTTP-submitted campaign
    // would diverge from its in-process control.
    ffis_daemon::apps::nyx_at_grid(opts.grid)
}

fn tally_row(table: &mut Table, cell: &str, model: &str, t: &OutcomeTally, mode: ExecutionMode) {
    table.row(&[
        cell,
        model,
        &format!("{:.1}", t.rate_pct(Outcome::Benign)),
        &format!("{:.1}", t.rate_pct(Outcome::Detected)),
        &format!("{:.1}", t.rate_pct(Outcome::Sdc)),
        &format!("{:.1}", t.rate_pct(Outcome::Crash)),
        &format!("{}", t.total()),
        &format!("±{:.1}", t.proportion(Outcome::Sdc).error_bar_pct()),
        &mode.to_string(),
    ]);
}

/// One campaign cell.
pub fn run_cell<A: FaultApp>(
    app: &A,
    model: FaultModel,
    target: TargetFilter,
    opts: &Options,
    salt: u64,
) -> OutcomeTally {
    run_cell_full(app, model, target, opts, salt).map(|r| r.tally).unwrap_or_default()
}

/// One campaign cell, returning the full result (per-run records,
/// crash breakdown, CSV access).
pub fn run_cell_full<A: FaultApp>(
    app: &A,
    model: FaultModel,
    target: TargetFilter,
    opts: &Options,
    salt: u64,
) -> Option<ffis_core::CampaignResult> {
    let mut sig = FaultSignature::on_write(model);
    sig.target = target;
    run_cell_sig(app, sig, opts.runs, opts, salt)
}

/// One campaign cell for an arbitrary (write- or read-site) fault
/// signature.
pub fn run_cell_sig<A: FaultApp>(
    app: &A,
    sig: FaultSignature,
    runs: usize,
    opts: &Options,
    salt: u64,
) -> Option<ffis_core::CampaignResult> {
    let cfg = CampaignConfig::new(sig).with_runs(runs).with_seed(opts.seed.wrapping_add(salt));
    match Campaign::new(app, cfg).run() {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("campaign failed for {}: {}", app.name(), e);
            None
        }
    }
}

/// Figure 7: outcome distribution for {NYX, QMC, MT1..MT4} × {BF, SW, DW}.
pub fn fig7(opts: &Options) -> Report {
    let mut report = Report::new("fig7");
    report.line("Figure 7 — Characterization result of I/O faults with Nyx, QMCPACK, and Montage");
    report.line(format!(
        "(runs per cell: {}, seed: {:#x}, Nyx grid: {}³)",
        opts.runs, opts.seed, opts.grid
    ));
    report.blank();

    let mut table = Table::new();
    table.row(&["cell", "model", "benign%", "detected%", "SDC%", "crash%", "n", "SDC CI", "exec"]);
    let mut csv = String::from(ffis_core::CampaignResult::csv_header());
    csv.push('\n');
    let mut crash_notes: Vec<String> = Vec::new();
    // Per-app Σ rows fold the cell tallies with OutcomeTally::merge
    // instead of re-walking run vectors (which a bounded-reservoir
    // campaign no longer retains in full).
    let mut group_tally = OutcomeTally::new();
    let mut record = |cell: &str,
                      label: &str,
                      result: Option<ffis_core::CampaignResult>,
                      table: &mut Table|
     -> Option<OutcomeTally> {
        let Some(result) = result else {
            table.row(&[cell, label, "-", "-", "-", "-", "0", "-", "-"]);
            return None;
        };
        tally_row(table, cell, label, &result.tally, result.mode);
        csv.push_str(&result.csv_row(&format!("{},{}", cell, label)));
        csv.push('\n');
        if result.tally.crash > 0 {
            let top: Vec<String> = result
                .crash_breakdown()
                .into_iter()
                .take(2)
                .map(|(m, c)| format!("{} ({}x)", m, c))
                .collect();
            crash_notes.push(format!("{} {}: {}", cell, label, top.join("; ")));
        }
        Some(result.tally)
    };
    fn sigma_row(table: &mut Table, cell: &str, t: &OutcomeTally) {
        table.row(&[
            cell,
            "Σ",
            &format!("{:.1}", t.rate_pct(Outcome::Benign)),
            &format!("{:.1}", t.rate_pct(Outcome::Detected)),
            &format!("{:.1}", t.rate_pct(Outcome::Sdc)),
            &format!("{:.1}", t.rate_pct(Outcome::Crash)),
            &format!("{}", t.total()),
            &format!("±{:.1}", t.proportion(Outcome::Sdc).error_bar_pct()),
            "-",
        ]);
    }

    let nyx = nyx_app(opts);
    for (i, (label, model)) in models().into_iter().enumerate() {
        let r = run_cell_full(&nyx, model, TargetFilter::Any, opts, 100 + i as u64);
        if let Some(t) = record("NYX", label, r, &mut table) {
            group_tally.merge(&t);
        }
    }
    sigma_row(&mut table, "NYX", &std::mem::take(&mut group_tally));

    // QMC.
    let qmc = QmcApp::paper_default();
    for (i, (label, model)) in models().into_iter().enumerate() {
        let r = run_cell_full(&qmc, model, TargetFilter::Any, opts, 200 + i as u64);
        if let Some(t) = record("QMC", label, r, &mut table) {
            group_tally.merge(&t);
        }
    }
    sigma_row(&mut table, "QMC", &std::mem::take(&mut group_tally));

    // MT1..MT4.
    let montage = MontageApp::paper_default();
    for (s, stage) in Stage::ALL.into_iter().enumerate() {
        for (i, (label, model)) in models().into_iter().enumerate() {
            let r = run_cell_full(
                &montage,
                model,
                MontageApp::stage_filter(stage),
                opts,
                300 + 10 * s as u64 + i as u64,
            );
            if let Some(t) = record(stage.label(), label, r, &mut table) {
                group_tally.merge(&t);
            }
        }
        sigma_row(&mut table, stage.label(), &std::mem::take(&mut group_tally));
    }

    // Read-site rows (reproduction extension): the same models hosted
    // on FFIS_read. All three apps declare produce_read_count == 0, so
    // every eligible read is analyze-phase and the exec column reads
    // analyze-only (the fast path that skips produce entirely);
    // produce-phase targets would surface as rerun(produce-read-fault)
    // instead — never silently.
    for (i, (label, model)) in read_models().into_iter().enumerate() {
        let r = run_cell_sig(&nyx, FaultSignature::on_read(model), opts.runs, opts, 400 + i as u64);
        let _ = record("NYX", label, r, &mut table);
    }
    for (i, (label, model)) in read_models().into_iter().enumerate() {
        let r = run_cell_sig(&qmc, FaultSignature::on_read(model), opts.runs, opts, 500 + i as u64);
        let _ = record("QMC", label, r, &mut table);
    }
    for (i, (label, model)) in read_models().into_iter().enumerate() {
        let r =
            run_cell_sig(&montage, FaultSignature::on_read(model), opts.runs, opts, 600 + i as u64);
        let _ = record("MT", label, r, &mut table);
    }

    report.line(table.render());
    crate::report::save_bytes(&opts.out, "fig7.csv", csv.as_bytes()).ok();
    if !crash_notes.is_empty() {
        report.header("Crash-source breakdown (top messages per cell)");
        for n in crash_notes {
            report.line(n);
        }
    }
    report.header("Paper reference points");
    report.line("NYX BF: 91.1% benign, 0.8% SDC (lowest SDC of the three apps)");
    report.line("NYX SW: 100% benign;  NYX DW: 100% SDC (1000/1000)");
    report.line("QMC BF: ~60% SDC, ~37% benign, 0.8% detected; SW: 54% SDC; DW: 8% SDC, 43% detected, 12% crash");
    report.line(
        "MT BF SDC by stage: 12.8/8/9/6.8%;  SW: 56.6/40/52.5/48.5%;  DW: 83.5/37.3/98.3/50.4%",
    );
    report
}

/// Wrapper applying the paper's average-value-based protection to the
/// Nyx classification (all SDCs become detected).
pub struct ProtectedNyx(pub NyxApp);

impl FaultApp for ProtectedNyx {
    type Output = nyx_sim::NyxOutput;

    fn produce(&self, fs: &dyn ffis_vfs::FileSystem) -> Result<(), String> {
        self.0.produce(fs)
    }

    fn analyze(
        &self,
        fs: &dyn ffis_vfs::FileSystem,
        golden: Option<&Self::Output>,
    ) -> Result<Self::Output, String> {
        self.0.analyze(fs, golden)
    }

    fn classify(&self, golden: &Self::Output, faulty: &Self::Output) -> Outcome {
        nyx_sim::protected_classify(golden, faulty, nyx_sim::MEAN_TOLERANCE)
    }

    fn name(&self) -> String {
        "NYX+avg".into()
    }
}

/// The protection experiment: Nyx campaigns classified with and
/// without the average-value method, same injections.
pub fn protect(opts: &Options) -> Report {
    let mut report = Report::new("protect");
    report.line("§V-B insight — average-value-based protection on Nyx");
    report.line("(same injections, classified without and with the mean check)");
    report.blank();

    let nyx = nyx_app(opts);
    let protected = ProtectedNyx(nyx_app(opts));

    let mut table = Table::new();
    table.row(&[
        "model",
        "SDC% (plain)",
        "SDC% (protected)",
        "detected% (plain)",
        "detected% (protected)",
    ]);
    for (i, (label, model)) in models().into_iter().enumerate() {
        let plain = run_cell(&nyx, model, TargetFilter::Any, opts, 100 + i as u64);
        let prot = run_cell(&protected, model, TargetFilter::Any, opts, 100 + i as u64);
        table.row(&[
            label,
            &format!("{:.1}", plain.rate_pct(Outcome::Sdc)),
            &format!("{:.1}", prot.rate_pct(Outcome::Sdc)),
            &format!("{:.1}", plain.rate_pct(Outcome::Detected)),
            &format!("{:.1}", prot.rate_pct(Outcome::Detected)),
        ]);
    }
    report.line(table.render());
    report.line("Paper: \"all SDC cases with Nyx will be changed to detected cases after using the average-value-based method\".");
    report
}
