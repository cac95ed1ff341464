//! Ablations and the repair evaluation: the paper's footnote-3 bit-width
//! study, the Table I shorn-keep feature, the shorn-fill model, and the
//! §V-A detection/correction methodology.

use ffis_core::{
    locate_write, ByteFlip, FaultModel, Outcome, ShornFill, ShornKeep, TargetFilter, WritePick,
};
use ffis_vfs::{FileSystem, FileSystemExt, MemFs};

use crate::cli::Options;
use crate::experiments::campaigns::{nyx_app, run_cell};
use crate::experiments::tables::{metadata_app, nyx_field_map};
use crate::report::{Report, Table};

/// Footnote 3 — "We also tested the 4-bit bit flip model and the SDC
/// rate remains minimal for Nyx." Sweep the flip width.
pub fn ablation_bits(opts: &Options) -> Report {
    let mut report = Report::new("ablation_bits");
    report.line("Ablation — BIT FLIP width sweep on Nyx (paper footnote 3)");
    report.blank();

    let app = nyx_app(opts);
    let mut t = Table::new();
    t.row(&["bits", "benign%", "detected%", "SDC%", "crash%"]);
    for bits in [1u32, 2, 4, 8] {
        let tally = run_cell(
            &app,
            FaultModel::BitFlip { bits },
            TargetFilter::Any,
            opts,
            400 + bits as u64,
        );
        t.row(&[
            &bits.to_string(),
            &format!("{:.1}", tally.rate_pct(Outcome::Benign)),
            &format!("{:.1}", tally.rate_pct(Outcome::Detected)),
            &format!("{:.1}", tally.rate_pct(Outcome::Sdc)),
            &format!("{:.1}", tally.rate_pct(Outcome::Crash)),
        ]);
    }
    report.line(t.render());
    report.line("Paper: the SDC rate remains minimal for Nyx at 4 bits.");
    report
}

/// Table I feature ablation — shorn keep fraction (3/8 vs 7/8) and
/// torn-region fill model (stale / zeros / random) on Nyx.
pub fn ablation_shorn(opts: &Options) -> Report {
    let mut report = Report::new("ablation_shorn");
    report.line("Ablation — SHORN WRITE keep fraction and torn-fill model (Nyx)");
    report.blank();

    let app = nyx_app(opts);
    let mut t = Table::new();
    t.row(&["keep", "fill", "benign%", "detected%", "SDC%", "crash%"]);
    for keep in [ShornKeep::SevenEighths, ShornKeep::ThreeEighths] {
        for fill in [ShornFill::Stale, ShornFill::Zeros, ShornFill::Random] {
            let tally = run_cell(
                &app,
                FaultModel::ShornWrite { keep, fill },
                TargetFilter::Any,
                opts,
                500 + keep.sectors_kept() as u64 * 10 + fill as u64,
            );
            t.row(&[
                &format!("{}/8", keep.sectors_kept()),
                &format!("{:?}", fill),
                &format!("{:.1}", tally.rate_pct(Outcome::Benign)),
                &format!("{:.1}", tally.rate_pct(Outcome::Detected)),
                &format!("{:.1}", tally.rate_pct(Outcome::Sdc)),
                &format!("{:.1}", tally.rate_pct(Outcome::Crash)),
            ]);
        }
    }
    report.line(t.render());
    report.line("The Stale fill reproduces the paper's \"undefined data within an order of");
    report.line("magnitude of the original\" observation (Nyx SW ~ benign); Zeros/Random fills");
    report.line("show how sensitive the result is to the torn-region content model.");
    report
}

/// Extension — metadata checksum seal: rerun the Table III byte scan
/// with the plotfile metadata protected by a Fletcher-32 seal, and
/// compare the outcome distribution. Quantifies the protection the
/// paper discusses qualitatively ("the metadata of HDF5 file format
/// itself has a certain degree of redundancy ... we do not choose to
/// replicate the metadata").
pub fn checksum(opts: &Options) -> Report {
    use ffis_core::{scan, ScanConfig};
    use nyx_sim::{NyxApp, NyxConfig};

    let mut report = Report::new("checksum");
    report.line("Extension — Table III scan with and without a metadata checksum seal");
    report.blank();

    let mut t = Table::new();
    t.row(&["format", "benign%", "detected%", "SDC%", "crash%", "n"]);
    for sealed in [false, true] {
        let mut cfg =
            NyxConfig { keep_field: false, seal_metadata: sealed, ..NyxConfig::default() };
        cfg.field.n = if opts.quick { 24 } else { 32 };
        let app = NyxApp::new(cfg);
        let mut scan_cfg = ScanConfig::new(TargetFilter::PathSuffix(".h5".into()));
        scan_cfg.stride = if opts.quick { 4 } else { 1 };
        let result = scan(&app, &scan_cfg).expect("scan");
        t.row(&[
            if sealed { "sealed (Fletcher-32)" } else { "plain v0 (paper)" },
            &format!("{:.1}", result.tally.rate_pct(Outcome::Benign)),
            &format!("{:.1}", result.tally.rate_pct(Outcome::Detected)),
            &format!("{:.1}", result.tally.rate_pct(Outcome::Sdc)),
            &format!("{:.1}", result.tally.rate_pct(Outcome::Crash)),
            &result.tally.total().to_string(),
        ]);
    }
    report.line(t.render());
    report.line("The seal eliminates every silent case (SDC -> 0) but converts the previously");
    report.line("harmless faults in reserved/unused bytes into integrity failures — the");
    report.line("availability-vs-integrity trade-off behind the paper's choice to exploit field");
    report.line("correlations instead of whole-metadata protection.");
    report
}

/// §V-A repair — inject each SDC-prone field, run the paper's
/// detection + auto-correction, verify the halo analysis recovers.
pub fn repair(opts: &Options) -> Report {
    let mut report = Report::new("repair");
    report.line("§V-A — Detection and auto-correction of faulty metadata fields");
    report.blank();

    let app = metadata_app(opts);
    let map = nyx_field_map(&app);
    let target = TargetFilter::PathSuffix(".h5".into());
    let (instance, _, _, golden) =
        locate_write(&app, &target, WritePick::Penultimate).expect("locatable");

    let cases: [(&str, &str, ByteFlip); 6] = [
        ("Mantissa Normalization (bit 5)", "MantissaNormalization", ByteFlip::Xor(0x20)),
        ("Exponent Location", "ExponentLocation", ByteFlip::Xor(0x02)),
        ("Mantissa Location", "MantissaLocation", ByteFlip::Xor(0x02)),
        ("Mantissa Size", "MantissaSize", ByteFlip::Xor(0x04)),
        ("Exponent Bias", "ExponentBias", ByteFlip::Xor(0x0C)),
        ("Address of Raw Data (ARD)", "AddressOfRawData", ByteFlip::Xor(0x40)),
    ];

    let mut t = Table::new();
    t.row(&[
        "field",
        "fault outcome",
        "diagnosis",
        "corrections",
        "mean before",
        "mean after",
        "halos recovered",
    ]);
    for (label, needle, flip) in cases {
        let span = map.find(needle)[0].clone();
        // Build a faulty file on a private filesystem (not via the
        // campaign machinery — we need the file to persist for repair).
        let fs = MemFs::new();
        {
            use ffis_core::{ByteFaultInjector, FaultApp};
            use std::sync::Arc;
            let ffs = ffis_vfs::FfisFs::mount(Arc::new(MemFs::new()));
            let inj = Arc::new(ByteFaultInjector::new(
                target.clone(),
                instance,
                span.start as usize,
                flip,
            ));
            ffs.attach(inj);
            let _ = app.run(&*ffs); // outcome irrelevant; we want the file
                                    // Copy the faulty plotfile onto the repair filesystem.
            let bytes = ffs.read_to_vec(nyx_sim::PLOTFILE).expect("plotfile exists");
            fs.mkdir("/run", 0o755).unwrap();
            fs.write_file(nyx_sim::PLOTFILE, &bytes).unwrap();
        }

        let fault_outcome = {
            use ffis_core::FaultApp;
            // What would the analysis say pre-repair?
            match hdf5lite::read_dataset(&fs, nyx_sim::PLOTFILE, nyx_sim::DATASET) {
                Ok(info) => {
                    let dims =
                        [info.dims[0] as usize, info.dims[1] as usize, info.dims[2] as usize];
                    let catalog = nyx_sim::find_halos(
                        &info.values,
                        dims,
                        &nyx_sim::HaloFinderConfig::default(),
                    );
                    let out = nyx_sim::NyxOutput {
                        catalog_text: catalog.render(),
                        catalog,
                        field: None,
                        dims,
                        extra: vec![],
                    };
                    app.classify(&golden, &out)
                }
                Err(_) => Outcome::Crash,
            }
        };

        match hdf5lite::repair_file(&fs, nyx_sim::PLOTFILE, nyx_sim::DATASET, 1.0) {
            Ok(rep) => {
                // Post-repair analysis.
                let recovered =
                    match hdf5lite::read_dataset(&fs, nyx_sim::PLOTFILE, nyx_sim::DATASET) {
                        Ok(info) => {
                            let dims = [
                                info.dims[0] as usize,
                                info.dims[1] as usize,
                                info.dims[2] as usize,
                            ];
                            let catalog = nyx_sim::find_halos(
                                &info.values,
                                dims,
                                &nyx_sim::HaloFinderConfig::default(),
                            );
                            catalog.render() == golden.catalog_text
                        }
                        Err(_) => false,
                    };
                let fields: Vec<&str> = rep.corrections.iter().map(|c| c.field.as_str()).collect();
                t.row(&[
                    label,
                    fault_outcome.name(),
                    &format!("{:?}", rep.diagnosis),
                    &if fields.is_empty() { "none".to_string() } else { fields.join("; ") },
                    &format!("{:.4}", rep.mean_before),
                    &format!("{:.4}", rep.mean_after),
                    if recovered { "yes" } else { "no" },
                ]);
            }
            Err(e) => {
                t.row(&[label, fault_outcome.name(), "unreadable", &e.to_string(), "-", "-", "no"]);
            }
        }
    }
    report.line(t.render());
    report.line("Paper: the average-value test identifies the faulty field class; the exponent");
    report.line("bias is re-scaled by the observed power of two; the float-field constraints");
    report.line("(expLoc == mantSize, mantSize + expSize == precision - 1) repair the datatype;");
    report.line("ARD is restored to the metadata size.");
    report
}
