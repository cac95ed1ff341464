//! Cross-crate metadata-study integration: the §IV-D scan machinery
//! (ffis-core) against the real hdf5lite-backed Nyx workload, with
//! field-map invariants and the Table III/IV structure.

use ffis_core::{
    attribute, fields_with_outcome, locate_write, run_with_byte_fault, scan, scan_detailed,
    ByteFlip, FieldMap, FieldSpan, Outcome, ScanConfig, TargetFilter, WritePick,
};
use nyx_sim::{FieldConfig, NyxApp, NyxConfig};

fn app() -> NyxApp {
    NyxApp::new(NyxConfig {
        field: FieldConfig { n: 24, ..Default::default() },
        keep_field: true,
        ..Default::default()
    })
}

fn field_map(app: &NyxApp) -> FieldMap {
    FieldMap::new(
        app.metadata_spans()
            .into_iter()
            .map(|s| FieldSpan { start: s.start, end: s.end, name: s.name })
            .collect(),
    )
    .expect("writer spans are disjoint")
}

#[test]
fn spans_tile_the_metadata_write_exactly() {
    let a = app();
    let map = field_map(&a);
    let (_, offset, len, _) =
        locate_write(&a, &TargetFilter::PathSuffix(".h5".into()), WritePick::Penultimate).unwrap();
    assert_eq!(offset, 0, "metadata write starts at the file head");
    assert_eq!(map.covered_bytes(), len as u64, "every metadata byte is labelled");
    // Every byte resolves to exactly one field.
    for b in 0..len as u64 {
        assert!(map.lookup(b).is_some(), "byte {} unlabelled", b);
    }
    assert!(map.lookup(len as u64).is_none());
}

#[test]
fn penultimate_write_is_the_metadata_block() {
    let a = app();
    let (_, offset, len, _) =
        locate_write(&a, &TargetFilter::PathSuffix(".h5".into()), WritePick::Penultimate).unwrap();
    assert_eq!(offset, 0);
    assert_eq!(len as u64, a.metadata_size());
    // The final write is the 8-byte EOF patch.
    let (_, off_last, len_last, _) =
        locate_write(&a, &TargetFilter::PathSuffix(".h5".into()), WritePick::Last).unwrap();
    assert_eq!(off_last, hdf5lite::EOF_ADDR_OFFSET);
    assert_eq!(len_last, 8);
}

#[test]
fn strided_scan_reproduces_table3_shape() {
    let a = app();
    let map = field_map(&a);
    let mut cfg = ScanConfig::new(TargetFilter::PathSuffix(".h5".into()));
    cfg.stride = 4; // ~550 injections
    let result = scan(&a, &cfg).expect("scan");
    let total = result.tally.total();
    assert!(total >= 500);
    // Table III shape: benign dominates, crash is the main failure
    // class, SDC is rare but present in the float/layout fields.
    assert!(result.tally.benign * 100 >= 75 * total, "{}", result.tally);
    assert!(result.tally.crash * 100 >= 5 * total, "{}", result.tally);
    assert!(result.tally.crash * 100 <= 25 * total, "{}", result.tally);

    let fields = attribute(&result, &map);
    let crash_fields = fields_with_outcome(&fields, Outcome::Crash);
    assert!(crash_fields.iter().any(|f| f.contains("Signature")));
    // Reserved/unused space is benign.
    for f in &fields {
        if f.name.contains("UnusedSlots") || f.name.contains("Scratch") {
            assert_eq!(f.tally.benign, f.tally.total(), "{} not benign", f.name);
        }
    }
}

#[test]
fn exponent_bias_fault_scales_masses_uniformly() {
    let a = app();
    let map = field_map(&a);
    let target = TargetFilter::PathSuffix(".h5".into());
    let (instance, _, _, golden) = locate_write(&a, &target, WritePick::Penultimate).unwrap();
    assert!(!golden.catalog.halos.is_empty(), "need halos for the comparison");
    let span = map.find("ExponentBias")[0].clone();
    let (outcome, faulty, _) = run_with_byte_fault(
        &a,
        &golden,
        &target,
        instance,
        span.start as usize,
        ByteFlip::Xor(0b0000_1100), // bias 127 -> 115: scale 2^12
    );
    assert_eq!(outcome, Outcome::Sdc);
    let faulty = faulty.unwrap();
    assert_eq!(faulty.catalog.halos.len(), golden.catalog.halos.len());
    for (g, f) in golden.catalog.halos.iter().zip(&faulty.catalog.halos) {
        assert!((f.mass / g.mass - 4096.0).abs() < 1.0, "mass not scaled: {} / {}", f.mass, g.mass);
        assert_eq!(f.center, g.center, "locations must be unchanged (Fig 5b)");
        assert_eq!(f.cells, g.cells);
    }
}

#[test]
fn ard_fault_shifts_locations_not_mass() {
    let a = app();
    let map = field_map(&a);
    let target = TargetFilter::PathSuffix(".h5".into());
    let (instance, _, _, golden) = locate_write(&a, &target, WritePick::Penultimate).unwrap();
    let span = map.find("AddressOfRawData")[0].clone();
    // +64 bytes = +16 f32 cells: a clean element-aligned shift.
    let (outcome, faulty, _) = run_with_byte_fault(
        &a,
        &golden,
        &target,
        instance,
        span.start as usize,
        ByteFlip::Xor(0b0100_0000),
    );
    assert_eq!(outcome, Outcome::Sdc);
    let faulty = faulty.unwrap();
    // Mean unchanged (the ARD case the average-value method cannot
    // see, §V-A).
    assert!((faulty.catalog.mean / golden.catalog.mean - 1.0).abs() < 5e-3);
    // At least one halo position moved.
    let moved =
        golden.catalog.halos.iter().zip(&faulty.catalog.halos).any(|(g, f)| g.center != f.center);
    assert!(moved, "ARD shift must move halos");
}

#[test]
fn scan_against_eof_patch_write_is_mostly_masked() {
    // Bytes of the metadata buffer in the EOF field region are
    // overwritten by the final patch write, so faults there are
    // benign — a subtlety the write-protocol design creates.
    let a = app();
    let target = TargetFilter::PathSuffix(".h5".into());
    let (instance, _, _, golden) = locate_write(&a, &target, WritePick::Penultimate).unwrap();
    for byte in hdf5lite::EOF_ADDR_OFFSET..hdf5lite::EOF_ADDR_OFFSET + 8 {
        let (outcome, _, _) =
            run_with_byte_fault(&a, &golden, &target, instance, byte as usize, ByteFlip::Xor(0xFF));
        assert_eq!(outcome, Outcome::Benign, "EOF byte {} not masked", byte);
    }
}

#[test]
fn scan_determinism_across_invocations() {
    let a = app();
    let mut cfg = ScanConfig::new(TargetFilter::PathSuffix(".h5".into()));
    cfg.stride = 16;
    let r1 = scan(&a, &cfg).unwrap();
    let r2 = scan(&a, &cfg).unwrap();
    assert_eq!(r1.tally, r2.tally);
    for (a, b) in r1.bytes.iter().zip(&r2.bytes) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.file_offset, b.file_offset);
    }
}

/// `scan` keeps no output; what it returns is still `scan_detailed`'s
/// result collapsed, field for field (crash messages included), on
/// either strategy and either schedule.
#[test]
fn scan_equals_detailed_scan_collapsed() {
    let a = NyxApp::new(NyxConfig {
        field: FieldConfig { n: 16, ..Default::default() },
        keep_field: true,
        ..Default::default()
    });
    let mut base = ScanConfig::new(TargetFilter::PathSuffix(".h5".into()));
    base.stride = 8;
    for (parallel, replay) in [(false, false), (false, true), (true, false), (true, true)] {
        let cfg = ScanConfig { parallel, replay, ..base.clone() };
        let plain = scan(&a, &cfg).unwrap();
        assert!(plain.tally.crash > 0 && plain.tally.benign > 0);
        let detailed = scan_detailed(&a, &cfg).unwrap();
        assert_eq!(detailed.used_replay(), replay);
        assert!(detailed.runs.iter().any(|r| r.output.as_ref().is_some_and(|o| o.field.is_some())));
        assert_eq!(plain, detailed.into_result(), "parallel {parallel}, replay {replay}");
    }
}
