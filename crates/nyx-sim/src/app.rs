//! The Nyx workload as a [`FaultApp`] (paper §IV-C.1).
//!
//! One run = simulate (deterministic field generation, done once and
//! cached — faults target the I/O path, not the physics), write the
//! plotfile through the filesystem under test using the HDF5 creation
//! protocol, read it back, and run the halo finder.
//!
//! Outcome classification (verbatim from the paper): "we compare the
//! output of the halo finder ... of the fault injected case with the
//! original output. If they are bit-wise identical, they are
//! classified as benign. If they differ, and there is no halo found,
//! the cases are detected and otherwise they are the SDC."

use ffis_core::par::*;
use ffis_core::{FaultApp, Outcome, SubstepSpec};
use ffis_vfs::FileSystem;
use hdf5lite::{Cells, Dataset, FileBuilder, WriteOptions};

use crate::field::{generate, FieldConfig};
use crate::halo::{find_halos, Halo, HaloCatalog, HaloFinderConfig};

/// Path of the plotfile within the mount.
pub const PLOTFILE: &str = "/run/plt00000.h5";

/// Path of plotfile `k` (`plt00000`, `plt00001`, ...); index 0 is the
/// legacy [`PLOTFILE`].
pub fn plotfile_path(k: usize) -> String {
    format!("/run/plt{:05}.h5", k)
}

/// Dataset path inside the plotfile (the real Nyx layout).
pub const DATASET: &str = "/native_fields/baryon_density";

/// Nyx workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct NyxConfig {
    /// Field generation parameters.
    pub field: FieldConfig,
    /// Halo finder parameters.
    pub finder: HaloFinderConfig,
    /// Keep the decoded field in the output (needed by the Figure 5/6
    /// visualizations; campaigns leave it off to save memory).
    pub keep_field: bool,
    /// Raw-data bytes per `pwrite`. Real HDF5 stages contiguous raw
    /// data through a sieve buffer (64 KiB by default), so each
    /// filesystem-level write carries many 4 KiB blocks; a DROPPED
    /// WRITE then erases a macroscopic slab of the field while a
    /// SHORN WRITE still tears only one 512 B-granular block tail —
    /// the size asymmetry behind the paper's "DW = 100% SDC vs SW =
    /// 100% benign" contrast.
    pub write_chunk: usize,
    /// Seal the plotfile metadata with a Fletcher-32 checksum
    /// (reproduction extension; quantifies how much of the paper's
    /// metadata SDC exposure a checksummed format removes).
    pub seal_metadata: bool,
    /// Number of plotfiles the run writes (`plt00000..`), each a
    /// snapshot of an independently-seeded field. `1` (the default)
    /// keeps the legacy single-plotfile layout byte for byte.
    /// Multi-plotfile runs declare one analyze sub-step per plotfile,
    /// so campaigns memoize the halo analyses a fault cannot reach
    /// (incremental analyze).
    pub plotfiles: usize,
}

impl Default for NyxConfig {
    fn default() -> Self {
        NyxConfig {
            field: FieldConfig::default(),
            finder: HaloFinderConfig::default(),
            keep_field: false,
            write_chunk: ffis_vfs::BLOCK_SIZE,
            seal_metadata: false,
            plotfiles: 1,
        }
    }
}

impl NyxConfig {
    /// Paper-regime preset: a grid large enough that (i) data writes
    /// vastly outnumber the metadata write (so crash rates stay near
    /// zero, as in Figure 7), (ii) a dropped 64 KiB sieve write always
    /// clips halo cells (DW → SDC), and (iii) a torn 512 B window
    /// almost never does (SW → benign).
    pub fn paper_scale() -> Self {
        NyxConfig {
            field: FieldConfig { n: 96, sigma: 1.8, smooth_passes: 3, ..Default::default() },
            finder: HaloFinderConfig::default(),
            keep_field: false,
            write_chunk: 64 * 1024,
            seal_metadata: false,
            plotfiles: 1,
        }
    }
}

/// Everything classification (and the deeper Table IV analyses) needs.
#[derive(Debug, Clone)]
pub struct NyxOutput {
    /// Rendered halo catalog of plotfile 0 (the legacy
    /// bitwise-comparison artifact).
    pub catalog_text: String,
    /// Structured catalog of plotfile 0.
    pub catalog: HaloCatalog,
    /// Decoded field, when `keep_field` is set.
    pub field: Option<Vec<f64>>,
    /// Grid dims.
    pub dims: [usize; 3],
    /// `(catalog_text, catalog)` of plotfiles `1..` (empty in the
    /// single-plotfile regime).
    pub extra: Vec<(String, HaloCatalog)>,
}

/// The Nyx application.
#[derive(Debug, Clone)]
pub struct NyxApp {
    config: NyxConfig,
    /// The simulated fields, one per plotfile, generated once
    /// (deterministic physics; the experiment perturbs only the
    /// storage path).
    fields: Vec<Vec<f32>>,
}

impl NyxApp {
    /// Build the app, running the (deterministic) simulation once per
    /// plotfile — side by side, kept in plotfile order.
    pub fn new(mut config: NyxConfig) -> Self {
        config.plotfiles = config.plotfiles.max(1);
        let fields =
            (0..config.plotfiles).into_par_iter().map(|k| Self::simulate(&config, k)).collect();
        NyxApp { config, fields }
    }

    /// The simulated field of plotfile `k` alone.
    fn simulate(config: &NyxConfig, k: usize) -> Vec<f32> {
        generate(&Self::file_field(config, k))
    }

    /// Paper-defaults app.
    pub fn paper_default() -> Self {
        Self::new(NyxConfig::default())
    }

    /// Field parameters of plotfile `k`: plotfile 0 keeps the
    /// configured seed (the single-plotfile regime stays
    /// byte-identical); later snapshots shift it.
    fn file_field(config: &NyxConfig, k: usize) -> FieldConfig {
        FieldConfig { seed: config.field.seed.wrapping_add(0x9E37 * k as u64), ..config.field }
    }

    /// Number of plotfiles this app writes.
    pub fn plotfiles(&self) -> usize {
        self.config.plotfiles
    }

    /// Grid side length.
    pub fn n(&self) -> usize {
        self.config.field.n
    }

    /// The pristine simulated field of plotfile 0 (f32, as written).
    pub fn simulated_field(&self) -> &[f32] {
        &self.fields[0]
    }

    /// Table II row.
    pub fn describe() -> (&'static str, &'static str, &'static str) {
        ("Nyx", "Astrophysics", "Adaptive mesh refinement (AMR) based cosmological simulation")
    }

    /// Fault-target filter scoping injections to the HDF5 plotfile —
    /// the workload's sole storage artifact, and the file the halo
    /// finder reads back, so the same filter addresses both write-site
    /// and read-site campaigns.
    pub fn plotfile_filter() -> ffis_core::TargetFilter {
        ffis_core::TargetFilter::PathSuffix(".h5".into())
    }

    /// The byte-exact metadata field map of the plotfile this app
    /// writes (paper §IV-D: "we refer to the HDF5 File Format
    /// Specification to capture the field information of each metadata
    /// byte"). Derived from the same builder the app uses, so it is
    /// correct by construction.
    pub fn metadata_spans(&self) -> Vec<hdf5lite::Span> {
        let n = self.config.field.n;
        let mut b = FileBuilder::new();
        b.add_dataset(DATASET, Dataset::f32("baryon_density", &[n as u64; 3], &self.fields[0]))
            .expect("same tree as run()");
        let plan = hdf5lite::plan(&b.into_root()).expect("plannable");
        let (_, spans) = hdf5lite::encode_metadata(&plan);
        spans
    }

    /// Size of the packed metadata block (== the correct ARD).
    pub fn metadata_size(&self) -> u64 {
        self.metadata_spans().last().map(|s| s.end).unwrap_or(0)
    }
}

/// One plotfile read back through the mount: the halo catalog, the
/// dataset dims, and (plotfile 0 with `keep_field` only) the decoded
/// field values.
type FileReadBack = (HaloCatalog, [usize; 3], Option<Vec<f64>>);

impl NyxApp {
    /// The post-analysis half of one plotfile: read it back through
    /// `fs` and run the halo finder — the per-plotfile unit of
    /// [`FaultApp::analyze`] and the body of the matching analyze
    /// sub-step (so the memo layer's stream-identity law holds by
    /// construction). Returns the catalog, dims, and (for plotfile 0
    /// with `keep_field`) the decoded values.
    ///
    /// Only that kept field is decoded into values of its own; every
    /// other read runs the finder on the cells `hdf5lite` hands out —
    /// the stored f32 cells where that is exact, the decoded values
    /// where a fault made a cell or the datatype special.
    fn read_back_file(&self, fs: &dyn FileSystem, k: usize) -> Result<FileReadBack, String> {
        let file = hdf5lite::open(fs, &plotfile_path(k)).map_err(|e| e.to_string())?;
        let finder = &self.config.finder;
        if k == 0 && self.config.keep_field {
            let info = file.read_dataset(DATASET).map_err(|e| e.to_string())?;
            let dims = grid_dims(&info.dims)?;
            return Ok((find_halos(&info.values, dims, finder), dims, Some(info.values)));
        }
        let (dims, cells) = file.read_cells(DATASET).map_err(|e| e.to_string())?;
        let dims = grid_dims(&dims)?;
        let catalog = match cells {
            Cells::Native(cells) => find_halos(cells, dims, finder),
            Cells::Decoded(values) => find_halos(&values, dims, finder),
        };
        Ok((catalog, dims, None))
    }
}

/// A rank-3 dataset's dims as a grid shape.
fn grid_dims(dims: &[u64]) -> Result<[usize; 3], String> {
    match *dims {
        [x, y, z] => Ok([x as usize, y as usize, z as usize]),
        _ => Err(format!("unexpected rank {}", dims.len())),
    }
}

/// Serialize one plotfile's halo analysis as a memoizable
/// analyze-sub-step artifact (dims + the structured catalog; the
/// rendered text is re-derived at assembly).
fn encode_catalog(dims: [usize; 3], catalog: &HaloCatalog) -> Vec<u8> {
    let mut out = Vec::with_capacity(48 + catalog.halos.len() * 40);
    for d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&catalog.mean.to_le_bytes());
    out.extend_from_slice(&catalog.threshold.to_le_bytes());
    out.extend_from_slice(&catalog.candidate_cells.to_le_bytes());
    out.extend_from_slice(&(catalog.halos.len() as u64).to_le_bytes());
    for h in &catalog.halos {
        for c in h.center {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&h.cells.to_le_bytes());
        out.extend_from_slice(&h.mass.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_catalog`].
fn decode_catalog(b: &[u8]) -> Result<([usize; 3], HaloCatalog), String> {
    let err = || "malformed plotfile artifact".to_string();
    let u = |at: usize| -> Result<u64, String> {
        Ok(u64::from_le_bytes(b.get(at..at + 8).ok_or_else(err)?.try_into().unwrap()))
    };
    let f = |at: usize| -> Result<f64, String> {
        Ok(f64::from_le_bytes(b.get(at..at + 8).ok_or_else(err)?.try_into().unwrap()))
    };
    let dims = [u(0)? as usize, u(8)? as usize, u(16)? as usize];
    let (mean, threshold, candidate_cells, n_halos) = (f(24)?, f(32)?, u(40)?, u(48)?);
    // `n_halos` is the artifact's word (a memo store can be a file): the
    // length it implies must be the slice's before anything is
    // allocated for it, and one past `usize` is malformed as well.
    let len = usize::try_from(n_halos)
        .ok()
        .and_then(|n| n.checked_mul(36)?.checked_add(56))
        .ok_or_else(err)?;
    if b.len() != len {
        return Err(err());
    }
    let halos = b[56..]
        .chunks_exact(36)
        .map(|h| {
            let f = |at: usize| f64::from_le_bytes(h[at..at + 8].try_into().unwrap());
            let cells = u32::from_le_bytes(h[24..28].try_into().unwrap());
            Halo { center: [f(0), f(8), f(16)], cells, mass: f(28) }
        })
        .collect();
    Ok((dims, HaloCatalog { mean, threshold, candidate_cells, halos }))
}

impl FaultApp for NyxApp {
    type Output = NyxOutput;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        let n = self.config.field.n;
        fs.mkdir("/run", 0o755).map_err(|e| e.to_string())?;
        for k in 0..self.config.plotfiles {
            // The simulation phase is deterministic, so every run
            // reuses the field simulated once in `NyxApp::new`.
            let field: &[f32] = &self.fields[k];
            // Write the plotfile through the (possibly fault-injected)
            // filesystem, exactly as the HDF5 library would.
            let mut b = FileBuilder::new();
            b.add_dataset(DATASET, Dataset::f32("baryon_density", &[n as u64; 3], field))
                .map_err(|e| e.to_string())?;
            let opts = WriteOptions {
                chunk_size: self.config.write_chunk,
                seal_metadata: self.config.seal_metadata,
            };
            hdf5lite::write_file(fs, &plotfile_path(k), &b.into_root(), &opts)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn analyze(
        &self,
        fs: &dyn FileSystem,
        _golden: Option<&NyxOutput>,
    ) -> Result<NyxOutput, String> {
        // Plotfiles in order — identical, read for read, to running
        // the per-plotfile sub-steps and assembling them.
        let (catalog, dims, field) = self.read_back_file(fs, 0)?;
        let mut extra = Vec::with_capacity(self.config.plotfiles - 1);
        for k in 1..self.config.plotfiles {
            let (c, _, _) = self.read_back_file(fs, k)?;
            extra.push((c.render(), c));
        }
        Ok(NyxOutput { catalog_text: catalog.render(), catalog, field, dims, extra })
    }

    fn analyze_substeps(&self) -> Option<Vec<SubstepSpec>> {
        // `keep_field` outputs carry the decoded field values, which a
        // memoized artifact does not — visualization runs stay on
        // whole-analyze.
        if self.config.plotfiles == 1 || self.config.keep_field {
            return None;
        }
        Some(
            (0..self.config.plotfiles)
                .map(|k| SubstepSpec::new(format!("plt{:05}", k), vec![plotfile_path(k)]))
                .collect(),
        )
    }

    fn analyze_substep(
        &self,
        fs: &dyn FileSystem,
        index: usize,
        _golden: Option<&NyxOutput>,
    ) -> Result<Vec<u8>, String> {
        if index >= self.config.plotfiles {
            return Err(format!("no plotfile {}", index));
        }
        let (catalog, dims, _) = self.read_back_file(fs, index)?;
        Ok(encode_catalog(dims, &catalog))
    }

    fn assemble(
        &self,
        artifacts: &[Vec<u8>],
        _golden: Option<&NyxOutput>,
    ) -> Result<NyxOutput, String> {
        if artifacts.len() != self.config.plotfiles {
            return Err(format!(
                "expected {} plotfile artifacts, got {}",
                self.config.plotfiles,
                artifacts.len()
            ));
        }
        let (dims, catalog) = decode_catalog(&artifacts[0])?;
        let mut extra = Vec::with_capacity(artifacts.len() - 1);
        for a in &artifacts[1..] {
            let (_, c) = decode_catalog(a)?;
            extra.push((c.render(), c));
        }
        Ok(NyxOutput { catalog_text: catalog.render(), catalog, field: None, dims, extra })
    }

    fn classify(&self, golden: &NyxOutput, faulty: &NyxOutput) -> Outcome {
        // Plotfile 0 (the legacy artifact) first, then the extra
        // snapshots in order: the first differing catalog decides via
        // the paper's no-halo test.
        if golden.catalog_text != faulty.catalog_text {
            return if faulty.catalog.halos.is_empty() { Outcome::Detected } else { Outcome::Sdc };
        }
        for ((gt, _), (ft, fc)) in golden.extra.iter().zip(&faulty.extra) {
            if gt != ft {
                return if fc.halos.is_empty() { Outcome::Detected } else { Outcome::Sdc };
            }
        }
        if golden.extra.len() != faulty.extra.len() {
            return Outcome::Detected;
        }
        Outcome::Benign
    }

    /// Nyx's produce phase streams the plotfile out and never reads it
    /// back — the halo finder's read-back lives entirely in
    /// [`FaultApp::analyze`] — so every read-site fault is an
    /// analyze-phase fault, eligible for the analyze-only fast path.
    fn produce_read_count(&self) -> Option<u64> {
        Some(0)
    }

    fn name(&self) -> String {
        "NYX".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_vfs::{FfisFs, MemFs, TraceRecorder};
    use std::sync::Arc;

    #[test]
    fn plotfiles_built_side_by_side_are_the_plotfiles_built_in_order() {
        let config = NyxConfig { plotfiles: 3, ..Default::default() };
        assert_eq!(config.field.n, 32);
        let in_order =
            NyxApp { config, fields: (0..3).map(|k| NyxApp::simulate(&config, k)).collect() };
        // Every mutating op `produce` issues, payloads included.
        let [built, serial] = [NyxApp::new(config), in_order].map(|app| {
            let ffs = FfisFs::mount(Arc::new(MemFs::new()));
            let recorder = Arc::new(TraceRecorder::new());
            ffs.attach(recorder.clone());
            app.produce(&*ffs).unwrap();
            ffs.unmount();
            recorder.take_ops()
        });
        assert_eq!(built, serial);
    }

    fn app() -> NyxApp {
        NyxApp::new(NyxConfig {
            field: FieldConfig { n: 24, ..Default::default() },
            ..Default::default()
        })
    }

    #[test]
    fn golden_run_finds_halos() {
        let a = app();
        let fs = MemFs::new();
        let out = a.run(&fs).unwrap();
        assert!(
            !out.catalog.halos.is_empty(),
            "default config must yield halos (candidates: {})",
            out.catalog.candidate_cells
        );
        assert!((out.catalog.mean - 1.0).abs() < 1e-4, "mass conservation");
        assert!(out.catalog_text.contains("# halos:"));
    }

    #[test]
    fn runs_are_bitwise_reproducible() {
        let a = app();
        let o1 = a.run(&MemFs::new()).unwrap();
        let o2 = a.run(&MemFs::new()).unwrap();
        assert_eq!(o1.catalog_text, o2.catalog_text);
        assert_eq!(a.classify(&o1, &o2), Outcome::Benign);
    }

    #[test]
    fn classification_rules() {
        let a = app();
        let golden = a.run(&MemFs::new()).unwrap();

        // Differ + no halos -> detected.
        let empty = NyxOutput {
            catalog_text: "# halos: 0\n# id x y z cells mass\n".into(),
            catalog: crate::halo::HaloCatalog {
                mean: f64::NAN,
                threshold: f64::NAN,
                candidate_cells: 0,
                halos: vec![],
            },
            field: None,
            dims: golden.dims,
            extra: vec![],
        };
        assert_eq!(a.classify(&golden, &empty), Outcome::Detected);

        // Differ + halos present -> SDC.
        let mut altered = golden.clone();
        altered.catalog_text.push('x');
        assert_eq!(a.classify(&golden, &altered), Outcome::Sdc);
    }

    #[test]
    fn keep_field_exposes_values() {
        let a = NyxApp::new(NyxConfig {
            field: FieldConfig { n: 16, ..Default::default() },
            keep_field: true,
            ..Default::default()
        });
        let out = a.run(&MemFs::new()).unwrap();
        let f = out.field.as_ref().unwrap();
        assert_eq!(f.len(), 16 * 16 * 16);
        assert_eq!(out.dims, [16, 16, 16]);
    }

    #[test]
    fn describe_matches_table_ii() {
        let (name, domain, method) = NyxApp::describe();
        assert_eq!(name, "Nyx");
        assert_eq!(domain, "Astrophysics");
        assert!(method.contains("cosmological"));
    }

    #[test]
    fn plotfile_filter_addresses_the_plotfile_only() {
        let f = NyxApp::plotfile_filter();
        assert!(f.matches(Some(PLOTFILE)));
        assert!(!f.matches(Some("/run/notes.txt")));
        assert!(!f.matches(None));
        // ...and every numbered snapshot of a multi-plotfile run.
        assert!(f.matches(Some(&plotfile_path(3))));
    }

    #[test]
    fn single_plotfile_declares_no_substeps() {
        assert_eq!(plotfile_path(0), PLOTFILE);
        assert!(NyxApp::paper_default().analyze_substeps().is_none());
    }

    #[test]
    fn multi_plotfile_substeps_match_whole_analyze() {
        let a = NyxApp::new(NyxConfig {
            field: FieldConfig { n: 24, ..Default::default() },
            plotfiles: 3,
            ..Default::default()
        });
        let specs = a.analyze_substeps().unwrap();
        assert_eq!(specs.len(), 3);
        assert!(specs[1].reads(&plotfile_path(1)));
        assert!(!specs[1].reads(PLOTFILE));

        let fs = MemFs::new();
        a.produce(&fs).unwrap();
        let whole = a.analyze(&fs, None).unwrap();
        assert_eq!(whole.extra.len(), 2);
        // Distinct seeds: the snapshots carry different catalogs.
        assert_ne!(whole.catalog_text, whole.extra[0].0);

        let arts: Vec<Vec<u8>> = (0..3).map(|k| a.analyze_substep(&fs, k, None).unwrap()).collect();
        let asm = a.assemble(&arts, None).unwrap();
        assert_eq!(whole.catalog_text, asm.catalog_text);
        assert_eq!(whole.dims, asm.dims);
        for ((gt, gc), (at, ac)) in whole.extra.iter().zip(&asm.extra) {
            assert_eq!(gt, at);
            assert_eq!(gc.render(), ac.render());
        }
        assert_eq!(a.classify(&whole, &asm), Outcome::Benign);
    }

    #[test]
    fn a_plotfile_artifact_with_a_hostile_count_is_malformed_not_an_abort() {
        let halo = |x: f64| Halo { center: [x, 2.0, 3.0], cells: 7, mass: 11.5 };
        let catalog = HaloCatalog {
            mean: 1.0,
            threshold: 81.0,
            candidate_cells: 14,
            halos: vec![halo(1.0), halo(4.0)],
        };
        let good = encode_catalog([24, 24, 24], &catalog);
        let (dims, back) = decode_catalog(&good).unwrap();
        assert_eq!(encode_catalog(dims, &back), good);
        // The count sits at byte 48; 2^40 halos would ask for 40 TB
        // before the length check, `u64::MAX` overflows the capacity.
        for count in [u64::MAX, 1 << 40, catalog.halos.len() as u64 + 1] {
            let mut bad = good.clone();
            bad[48..56].copy_from_slice(&count.to_le_bytes());
            assert_eq!(decode_catalog(&bad).unwrap_err(), "malformed plotfile artifact");
        }
    }

    #[test]
    fn multi_plotfile_classify_keys_on_first_differing_snapshot() {
        let a = NyxApp::new(NyxConfig {
            field: FieldConfig { n: 16, ..Default::default() },
            plotfiles: 2,
            ..Default::default()
        });
        let golden = a.run(&MemFs::new()).unwrap();
        let mut faulty = golden.clone();
        faulty.extra[0].0.push('x');
        assert_eq!(a.classify(&golden, &faulty), Outcome::Sdc);
        faulty.extra[0].1.halos.clear();
        assert_eq!(a.classify(&golden, &faulty), Outcome::Detected);
    }
}
