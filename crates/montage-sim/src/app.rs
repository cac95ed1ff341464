//! The Montage workload as a [`FaultApp`] (paper §IV-C.3).
//!
//! One run executes the full ten-step-equivalent pipeline (we model
//! the four I/O-intensive stages the paper injects into, plus the
//! final image-generation step used for classification):
//! raw inputs → mProjExec → mDiffExec → mBgExec → mAdd → final image.
//!
//! Outcome classification (verbatim §IV-C.3): bitwise-compare the
//! final image with the golden one — identical ⇒ *benign*; otherwise
//! apply the `min`-value test with a 10⁻² threshold (the paper's
//! `[82.82, 82.83]` acceptance band): in-band ⇒ *SDC*, out-of-band ⇒
//! *detected*; "for the cases where the target file cannot be created,
//! they are defined as crash".
//!
//! Per-stage injection (Figure 7's MT1..MT4 columns) is expressed by
//! scoping the fault signature to the stage's output directory via
//! [`MontageApp::stage_filter`].

use ffis_core::par::*;
use ffis_core::{FaultApp, Outcome, SubstepSpec, TargetFilter};
use ffis_vfs::{FileSystem, FileSystemExt};
use fitslite::{parse_fits, render_fits, reread, FitsImage};

use crate::stages::{
    apply_background, coadd, corr_area_path, corr_path, diff_path, make_raw_images, mosaic_wcs,
    pair_diff, plane_fit, proj_area_path, proj_path, project_image, raw_path, solve_background,
    stretch_mosaic, FinalImage, PipelineConfig, FINAL_IMAGE, MOSAIC, MOSAIC_AREA, NO_PAIRS,
};

/// Montage workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct MontageConfig {
    /// Pipeline parameters.
    pub pipeline: PipelineConfig,
    /// `min`-difference threshold separating SDC from detected
    /// (paper: 10⁻²).
    pub min_threshold: f64,
    /// Number of independent mosaic tiles (sky pointings). Each tile
    /// runs the full pipeline under its own `/tile<t>` directory
    /// prefix with a tile-specific sky seed; `1` (the default) keeps
    /// the legacy single-mosaic layout byte for byte. Multi-tile runs
    /// declare one analyze sub-step per tile, so campaigns memoize the
    /// tiles a fault cannot reach (incremental analyze).
    pub tiles: usize,
}

impl Default for MontageConfig {
    fn default() -> Self {
        MontageConfig { pipeline: PipelineConfig::default(), min_threshold: 1e-2, tiles: 1 }
    }
}

impl MontageConfig {
    /// Set the tile count (clamped to at least 1).
    pub fn with_tiles(mut self, tiles: usize) -> Self {
        self.tiles = tiles.max(1);
        self
    }
}

/// Classification artifacts.
#[derive(Debug, Clone)]
pub struct MontageOutput {
    /// Final stretched image of tile 0 (the legacy single-mosaic
    /// bitwise-comparison artifact).
    pub image: FinalImage,
    /// Final images of tiles `1..` (empty in the single-tile regime).
    pub extra_tiles: Vec<FinalImage>,
}

/// The golden pipeline, computed once at construction: for every file
/// the pipeline touches, both the exact serialized bytes a fault-free
/// execution writes (produce streams these; analyze compares read-back
/// bytes against them) and the parsed image a fault-free execution
/// would have *read back* before computing the next stage.
///
/// Compute always consumes the FITS-roundtripped form
/// (`parse(render(img))`), exactly as the monolithic pipeline consumed
/// `read_fits` of what it had just written — the WCS header cards
/// carry limited decimal precision, so skipping the roundtrip would
/// drift the downstream arithmetic off the reference trajectory.
///
/// Of the overlap pairs it keeps the plane fit, not the difference
/// image: a dirty cascade reuses the fit of every pair its fault did
/// not reach.
struct GoldenPipeline {
    raw_bytes: Vec<Vec<u8>>,
    projs: Vec<(FitsImage, FitsImage)>,
    proj_bytes: Vec<(Vec<u8>, Vec<u8>)>,
    /// The overlap pairs, in `(i, j)` order, and the plane fit of each.
    pairs: Vec<(usize, usize)>,
    fits: Vec<[f64; 3]>,
    diff_bytes: Vec<Vec<u8>>,
    corr_bytes: Vec<(Vec<u8>, Vec<u8>)>,
    mosaic_bytes: Vec<u8>,
    mosaic_area_bytes: Vec<u8>,
    image: FinalImage,
}

/// What the next stage reads back of an image the pipeline has just
/// written — [`fitslite::reread`], which never builds the bytes. The
/// analyze cascade needs only this half of a round trip.
///
/// Every image that reaches here comes out of a stage core or out of
/// `parse_fits`, so its pixel vector fills its shape and only the
/// reader's own checks (dimensions, `CDELT`) can fail.
fn read_back(img: &FitsImage) -> FitsImage {
    reread(img).expect("render/parse roundtrip")
}

/// Both halves of a round trip, for the golden build: the bytes are
/// what the pipeline writes (`produce` streams them, analyze compares
/// against them), the image is what the next stage reads.
fn roundtrip(img: &FitsImage) -> (Vec<u8>, FitsImage) {
    let bytes = render_fits(img).expect("golden images are well-formed");
    (bytes, read_back(img))
}

impl GoldenPipeline {
    fn build(raws: &[FitsImage], cfg: &PipelineConfig) -> Result<GoldenPipeline, String> {
        let mut raw_bytes = Vec::new();
        let mut raws_rt = Vec::new();
        for r in raws {
            let (b, rt) = roundtrip(r);
            raw_bytes.push(b);
            raws_rt.push(rt);
        }

        let mut projs = Vec::new();
        let mut proj_bytes = Vec::new();
        for raw in &raws_rt {
            let (data, area) = project_image(raw, cfg);
            let (db, d) = roundtrip(&data);
            let (ab, a) = roundtrip(&area);
            projs.push((d, a));
            proj_bytes.push((db, ab));
        }

        // The cascade's pair path, with every image fresh.
        let mut diff_bytes = Vec::new();
        let (pairs, fits) = fit_pairs(&projs.iter().collect::<Vec<_>>(), None, cfg, |diff| {
            let (b, d) = roundtrip(diff);
            diff_bytes.push(b);
            d
        })?;

        let planes = solve_background(&pairs, &fits, cfg.n_images())?;
        let mut corrs = Vec::new();
        let mut corr_bytes = Vec::new();
        for ((data, area), plane) in projs.iter().zip(&planes) {
            let corr = apply_background(data, *plane, cfg);
            let (cb, c) = roundtrip(&corr);
            let (ab, a) = roundtrip(area);
            corrs.push((c, a));
            corr_bytes.push((cb, ab));
        }

        let (mosaic, marea) = coadd(&corrs, cfg)?;
        let (mosaic_bytes, mosaic_rt) = roundtrip(&mosaic);
        let (mosaic_area_bytes, _) = roundtrip(&marea);
        let image = stretch_mosaic(&mosaic_rt)?;

        Ok(GoldenPipeline {
            raw_bytes,
            projs,
            proj_bytes,
            pairs,
            fits,
            diff_bytes,
            corr_bytes,
            mosaic_bytes,
            mosaic_area_bytes,
            image,
        })
    }
}

/// The Montage application.
pub struct MontageApp {
    config: MontageConfig,
    /// Golden stage products, one pipeline per tile (see
    /// [`GoldenPipeline`]).
    golden: Vec<GoldenPipeline>,
}

/// The four instrumented stages, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// MT1 — mProjExec.
    ProjExec,
    /// MT2 — mDiffExec.
    DiffExec,
    /// MT3 — mBgExec.
    BgExec,
    /// MT4 — mAdd.
    Add,
}

impl Stage {
    /// All stages in order.
    pub const ALL: [Stage; 4] = [Stage::ProjExec, Stage::DiffExec, Stage::BgExec, Stage::Add];

    /// Figure 7 column label ("MT1"..."MT4").
    pub fn label(self) -> &'static str {
        match self {
            Stage::ProjExec => "MT1",
            Stage::DiffExec => "MT2",
            Stage::BgExec => "MT3",
            Stage::Add => "MT4",
        }
    }

    /// Montage executable name.
    pub fn tool(self) -> &'static str {
        match self {
            Stage::ProjExec => "mProjExec",
            Stage::DiffExec => "mDiffExec",
            Stage::BgExec => "mBgExec",
            Stage::Add => "mAdd",
        }
    }
}

impl MontageApp {
    /// Build the app: renders the deterministic raw observations and
    /// runs the golden pipeline once, in memory. Panics on a pipeline
    /// configuration whose golden run cannot complete (no workload to
    /// inject into) — use [`MontageApp::try_new`] to handle that case.
    pub fn new(config: MontageConfig) -> Self {
        Self::try_new(config).expect("golden pipeline must run")
    }

    /// Fallible constructor: returns the golden pipeline's error for
    /// degenerate configurations (e.g. an overlap threshold that
    /// leaves no difference pairs) instead of panicking. Tiles are
    /// independent, so their pipelines build side by side; the app
    /// holds them in tile order and a failure reports the lowest
    /// failing tile's error, as a tile-by-tile loop would.
    pub fn try_new(mut config: MontageConfig) -> Result<Self, String> {
        config.tiles = config.tiles.max(1);
        let tiles: Vec<Result<GoldenPipeline, String>> =
            (0..config.tiles).into_par_iter().map(|t| Self::tile_golden(&config, t)).collect();
        let golden = tiles.into_iter().collect::<Result<_, _>>()?;
        Ok(MontageApp { config, golden })
    }

    /// The golden pipeline of tile `t` alone.
    fn tile_golden(config: &MontageConfig, t: usize) -> Result<GoldenPipeline, String> {
        let cfg = Self::tile_pipeline(config, t);
        GoldenPipeline::build(&make_raw_images(&cfg), &cfg)
    }

    /// Paper-defaults app.
    pub fn paper_default() -> Self {
        Self::new(MontageConfig::default())
    }

    /// Paper-defaults app with `tiles` independent mosaic tiles — the
    /// multi-file campaign workload of the incremental-analyze layer.
    pub fn multi_tile(tiles: usize) -> Self {
        Self::new(MontageConfig::default().with_tiles(tiles))
    }

    /// Number of tiles this app runs.
    pub fn tiles(&self) -> usize {
        self.config.tiles
    }

    /// Pipeline parameters of tile `t`: tile 0 keeps the configured
    /// seed (so the single-tile regime is byte-identical to the legacy
    /// layout); later tiles shift the sky seed to model distinct
    /// pointings.
    fn tile_pipeline(config: &MontageConfig, t: usize) -> PipelineConfig {
        PipelineConfig {
            seed: config.pipeline.seed.wrapping_add(0x711E * t as u64),
            ..config.pipeline
        }
    }

    /// Directory prefix of tile `t` (empty in the single-tile regime,
    /// preserving the legacy paths).
    fn tile_prefix(&self, t: usize) -> String {
        if self.config.tiles == 1 {
            String::new()
        } else {
            format!("/tile{}", t)
        }
    }

    /// Prefix a legacy pipeline path with tile `t`'s directory.
    fn tile_path(&self, t: usize, path: &str) -> String {
        format!("{}{}", self.tile_prefix(t), path)
    }

    /// Fault-target filter scoping injections to one stage's output
    /// directory. The same filter serves both sites: at the write site
    /// it selects the stage's *writes*; at the read site it selects
    /// the downstream stage's *read-back* of those files (analyze
    /// re-reads every layer, so each directory hosts eligible reads).
    pub fn stage_filter(stage: Stage) -> TargetFilter {
        TargetFilter::PathContains(
            match stage {
                Stage::ProjExec => "/proj/",
                Stage::DiffExec => "/diff/",
                Stage::BgExec => "/corr/",
                Stage::Add => "/mosaic/",
            }
            .to_string(),
        )
    }

    /// Fault-target filter scoping injections to the co-added mosaic —
    /// the artifact the final image-generation step reads, i.e. the
    /// read-site surface closest to the classified output.
    pub fn mosaic_filter() -> TargetFilter {
        TargetFilter::PathContains("/mosaic/".to_string())
    }

    /// Table II row.
    pub fn describe() -> (&'static str, &'static str, &'static str) {
        ("Montage", "Astronomy", "Astronomical image mosaic")
    }
}

/// How deep into the pipeline the first on-disk deviation from the
/// golden bytes sits — everything downstream is re-derived in memory
/// from that layer's read-back state.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum DirtyLayer {
    Raw,
    Proj,
    Diff,
    Corr,
    Mosaic,
}

/// Read a whole file, with the same error shape `read_fits` produces.
fn read_bytes(fs: &dyn FileSystem, path: &str) -> Result<Vec<u8>, String> {
    fs.read_to_vec(path).map_err(|e| format!("cannot read {}: {}", path, e))
}

fn parse_image(bytes: &[u8]) -> Result<FitsImage, String> {
    parse_fits(bytes).map_err(|e| e.to_string())
}

/// Read a file the golden run wrote as `golden`: `None` while it still
/// holds those bytes — they parse to the golden read-back image, which
/// the caller already has — and the parsed image once it does not.
fn read_fresh(fs: &dyn FileSystem, path: &str, golden: &[u8]) -> Result<Option<FitsImage>, String> {
    let bytes = read_bytes(fs, path)?;
    if bytes == golden {
        return Ok(None);
    }
    parse_image(&bytes).map(Some)
}

impl MontageApp {
    /// Locate the first pipeline layer of tile `t` whose on-disk bytes
    /// differ from the golden run's. Only files some downstream stage
    /// *reads* are compared (the mosaic area image, for example, has
    /// no consumer).
    fn first_dirty_layer(
        &self,
        fs: &dyn FileSystem,
        t: usize,
    ) -> Result<Option<DirtyLayer>, String> {
        let g = &self.golden[t];
        let n = self.config.pipeline.n_images();
        for i in 0..n {
            if read_bytes(fs, &self.tile_path(t, &raw_path(i)))? != g.raw_bytes[i] {
                return Ok(Some(DirtyLayer::Raw));
            }
        }
        for i in 0..n {
            if read_bytes(fs, &self.tile_path(t, &proj_path(i)))? != g.proj_bytes[i].0
                || read_bytes(fs, &self.tile_path(t, &proj_area_path(i)))? != g.proj_bytes[i].1
            {
                return Ok(Some(DirtyLayer::Proj));
            }
        }
        for (k, &(i, j)) in g.pairs.iter().enumerate() {
            if read_bytes(fs, &self.tile_path(t, &diff_path(i, j)))? != g.diff_bytes[k] {
                return Ok(Some(DirtyLayer::Diff));
            }
        }
        for i in 0..n {
            if read_bytes(fs, &self.tile_path(t, &corr_path(i)))? != g.corr_bytes[i].0
                || read_bytes(fs, &self.tile_path(t, &corr_area_path(i)))? != g.corr_bytes[i].1
            {
                return Ok(Some(DirtyLayer::Corr));
            }
        }
        if read_bytes(fs, &self.tile_path(t, MOSAIC))? != g.mosaic_bytes {
            return Ok(Some(DirtyLayer::Mosaic));
        }
        Ok(None)
    }

    /// Re-derive tile `t`'s final image from the first dirty layer's
    /// on-disk state, cascading the (possibly corrupted) values
    /// through the same stage cores a monolithic execution runs. Each
    /// recomputed intermediate is FITS-roundtripped before the next
    /// stage consumes it, because the monolithic pipeline always read
    /// its inputs back from disk.
    ///
    /// Every file of the layer is read, in order, but only what its
    /// fault reached is re-derived: a raw or projection file that still
    /// holds its golden bytes stands for the golden read-back
    /// projection, a pair of two such images keeps its golden verdict
    /// and plane fit, and a golden difference file its golden fit.
    /// Background model, correction and co-addition couple every image
    /// and run over all of them.
    fn recompute_from(
        &self,
        fs: &dyn FileSystem,
        t: usize,
        layer: DirtyLayer,
    ) -> Result<FinalImage, String> {
        let g = &self.golden[t];
        let cfg = &self.config.pipeline;
        let n = cfg.n_images();

        match layer {
            DirtyLayer::Raw | DirtyLayer::Proj => {
                // The projections that differ from the golden ones.
                let fresh: Vec<Option<(FitsImage, FitsImage)>> = if layer == DirtyLayer::Raw {
                    (0..n)
                        .map(|i| {
                            let path = self.tile_path(t, &raw_path(i));
                            Ok(read_fresh(fs, &path, &g.raw_bytes[i])?.map(|raw| {
                                let (data, area) = project_image(&raw, cfg);
                                (read_back(&data), read_back(&area))
                            }))
                        })
                        .collect::<Result<_, String>>()?
                } else {
                    // DirtyLayer::Proj — read back with the same shape
                    // check mDiffExec applies.
                    (0..n)
                        .map(|i| {
                            let (golden_data, golden_area) = &g.projs[i];
                            let (data_bytes, area_bytes) = &g.proj_bytes[i];
                            let data =
                                read_fresh(fs, &self.tile_path(t, &proj_path(i)), data_bytes)?;
                            let area =
                                read_fresh(fs, &self.tile_path(t, &proj_area_path(i)), area_bytes)?;
                            if data.is_none() && area.is_none() {
                                return Ok(None);
                            }
                            let data = data.unwrap_or_else(|| golden_data.clone());
                            let area = area.unwrap_or_else(|| golden_area.clone());
                            if area.width != data.width || area.height != data.height {
                                return Err(format!("area/data shape mismatch for image {}", i));
                            }
                            Ok(Some((data, area)))
                        })
                        .collect::<Result<_, String>>()?
                };
                let projs: Vec<&(FitsImage, FitsImage)> = fresh
                    .iter()
                    .zip(&g.projs)
                    .map(|(f, golden)| f.as_ref().unwrap_or(golden))
                    .collect();
                let is_fresh: Vec<bool> = fresh.iter().map(Option::is_some).collect();
                let (pairs, fits) = fit_pairs(&projs, Some((g, &is_fresh)), cfg, read_back)?;
                background_tail(&projs, &pairs, &fits, cfg)
            }
            DirtyLayer::Diff => {
                // mBgExec reads every difference image before it fits
                // any: a parse error comes before a fit error.
                let diffs: Vec<Option<FitsImage>> = g
                    .pairs
                    .iter()
                    .zip(&g.diff_bytes)
                    .map(|(&(i, j), golden)| {
                        read_fresh(fs, &self.tile_path(t, &diff_path(i, j)), golden)
                    })
                    .collect::<Result<_, String>>()?;
                let mwcs = mosaic_wcs(cfg);
                let fits: Vec<[f64; 3]> = g
                    .pairs
                    .iter()
                    .zip(&diffs)
                    .zip(&g.fits)
                    .map(|((&pair, diff), &fit)| match diff {
                        Some(diff) => plane_fit(pair, diff, &mwcs),
                        None => Ok(fit),
                    })
                    .collect::<Result<_, String>>()?;
                background_tail(&g.projs.iter().collect::<Vec<_>>(), &g.pairs, &fits, cfg)
            }
            DirtyLayer::Corr => {
                let corrs: Vec<(FitsImage, FitsImage)> = (0..n)
                    .map(|i| {
                        Ok((
                            parse_image(&read_bytes(fs, &self.tile_path(t, &corr_path(i)))?)?,
                            parse_image(&read_bytes(fs, &self.tile_path(t, &corr_area_path(i)))?)?,
                        ))
                    })
                    .collect::<Result<_, String>>()?;
                coadd_tail(&corrs, cfg)
            }
            DirtyLayer::Mosaic => {
                stretch_mosaic(&parse_image(&read_bytes(fs, &self.tile_path(t, MOSAIC))?)?)
            }
        }
    }

    /// The whole analyze pass of one tile: locate the first dirty
    /// layer and cascade from it, or — when every inter-stage input is
    /// golden — read back the final-image file. This single function
    /// is both the body of the per-tile analyze sub-step and the unit
    /// `analyze` iterates, so the memo layer's stream-identity law
    /// holds by construction.
    fn tile_analyze(&self, fs: &dyn FileSystem, t: usize) -> Result<FinalImage, String> {
        match self.first_dirty_layer(fs, t)? {
            Some(layer) => self.recompute_from(fs, t, layer),
            None => {
                // Every inter-stage input is golden, so the viewer
                // would have stretched the golden mosaic; the
                // classified raster is whatever the final-image file
                // holds (the one write a fault can still have hit).
                let g = &self.golden[t].image;
                let bytes = read_bytes(fs, &self.tile_path(t, FINAL_IMAGE))?;
                Ok(FinalImage { bytes, min: g.min, max: g.max, width: g.width, height: g.height })
            }
        }
    }
}

/// Serialize a [`FinalImage`] as a memoizable analyze-sub-step
/// artifact (length-prefixed raster + the stretch statistics).
fn encode_final(img: &FinalImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.bytes.len() + 40);
    out.extend_from_slice(&(img.bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&img.bytes);
    out.extend_from_slice(&img.min.to_le_bytes());
    out.extend_from_slice(&img.max.to_le_bytes());
    out.extend_from_slice(&(img.width as u64).to_le_bytes());
    out.extend_from_slice(&(img.height as u64).to_le_bytes());
    out
}

/// Inverse of [`encode_final`].
fn decode_final(b: &[u8]) -> Result<FinalImage, String> {
    let err = || "malformed tile artifact".to_string();
    let take_u64 = |at: usize| -> Result<u64, String> {
        Ok(u64::from_le_bytes(b.get(at..at + 8).ok_or_else(err)?.try_into().unwrap()))
    };
    let len = take_u64(0)? as usize;
    // `len` is the artifact's word (a memo store can be a file): an
    // end past the slice is malformed, one past `usize` as well.
    let at = len.checked_add(8).ok_or_else(err)?;
    let bytes = b.get(8..at).ok_or_else(err)?.to_vec();
    if b.len() != at + 32 {
        return Err(err());
    }
    Ok(FinalImage {
        bytes,
        min: f64::from_le_bytes(b[at..at + 8].try_into().unwrap()),
        max: f64::from_le_bytes(b[at + 8..at + 16].try_into().unwrap()),
        width: take_u64(at + 16)? as usize,
        height: take_u64(at + 24)? as usize,
    })
}

/// A tile's overlap pairs, in `(i, j)` order, and the plane fit of each.
type PairFits = (Vec<(usize, usize)>, Vec<[f64; 3]>);

/// mDiffExec + mFitplane over a tile's read-back projections, pair by
/// pair in `(i, j)` order. With `golden` — the tile's golden pipeline
/// and which images differ from its projections — a pair of two golden
/// images keeps its golden verdict and fit; any other pair is
/// differenced, its difference image read back through `read`, and
/// fitted, so it may join or leave the pair set. Without, every image
/// is fresh: the golden build.
///
/// The first degenerate fit in pair order is the error, as when every
/// pair was differenced first: a pair that fits is in the set, so an
/// empty set never follows one.
fn fit_pairs(
    projs: &[&(FitsImage, FitsImage)],
    golden: Option<(&GoldenPipeline, &[bool])>,
    cfg: &PipelineConfig,
    mut read: impl FnMut(&FitsImage) -> FitsImage,
) -> Result<PairFits, String> {
    let mwcs = mosaic_wcs(cfg);
    let n = projs.len();
    let mut pairs = Vec::new();
    let mut fits = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if let Some((g, _)) = golden.filter(|(_, fresh)| !fresh[i] && !fresh[j]) {
                if let Ok(k) = g.pairs.binary_search(&(i, j)) {
                    pairs.push((i, j));
                    fits.push(g.fits[k]);
                }
            } else if let Some(diff) = pair_diff(projs[i], projs[j], &mwcs, cfg) {
                fits.push(plane_fit((i, j), &read(&diff), &mwcs)?);
                pairs.push((i, j));
            }
        }
    }
    if pairs.is_empty() {
        return Err(NO_PAIRS.into());
    }
    Ok((pairs, fits))
}

/// The mBgModel → mBgExec → mAdd → viewer tail over in-memory inputs,
/// shared by every analyze-cascade entry point upstream of the corr
/// layer.
fn background_tail(
    projs: &[&(FitsImage, FitsImage)],
    pairs: &[(usize, usize)],
    fits: &[[f64; 3]],
    cfg: &PipelineConfig,
) -> Result<FinalImage, String> {
    let planes = solve_background(pairs, fits, projs.len())?;
    let corrs: Vec<(FitsImage, FitsImage)> = projs
        .iter()
        .zip(&planes)
        .map(|((data, area), plane)| {
            let corr = apply_background(data, *plane, cfg);
            (read_back(&corr), read_back(area))
        })
        .collect();
    coadd_tail(&corrs, cfg)
}

/// The mAdd → viewer tail over in-memory corrected images.
fn coadd_tail(
    corrs: &[(FitsImage, FitsImage)],
    cfg: &PipelineConfig,
) -> Result<FinalImage, String> {
    let (mosaic, _) = coadd(corrs, cfg)?;
    stretch_mosaic(&read_back(&mosaic))
}

impl FaultApp for MontageApp {
    type Output = MontageOutput;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        let n = self.config.pipeline.n_images();
        // Stream every stage's golden bytes in pipeline order, tile by
        // tile — the same files, chunking, and write sequence the
        // monolithic pipeline issues, without deriving any byte from a
        // read-back (the write-stream data-independence law). Fault
        // propagation through the inter-stage files is modelled in
        // `analyze`.
        for t in 0..self.config.tiles {
            let g = &self.golden[t];
            let w = |path: String, bytes: &[u8]| -> Result<(), String> {
                fs.write_file_chunked(&path, bytes, ffis_vfs::BLOCK_SIZE).map_err(|e| e.to_string())
            };
            let pre = self.tile_prefix(t);
            if !pre.is_empty() {
                fs.mkdir(&pre, 0o755).map_err(|e| e.to_string())?;
            }
            for d in ["/raw", "/proj", "/diff", "/corr", "/mosaic"] {
                fs.mkdir(&format!("{}{}", pre, d), 0o755).map_err(|e| e.to_string())?;
            }
            for i in 0..n {
                w(self.tile_path(t, &raw_path(i)), &g.raw_bytes[i])?;
            }
            for i in 0..n {
                w(self.tile_path(t, &proj_path(i)), &g.proj_bytes[i].0)?;
                w(self.tile_path(t, &proj_area_path(i)), &g.proj_bytes[i].1)?;
            }
            for (k, &(i, j)) in g.pairs.iter().enumerate() {
                w(self.tile_path(t, &diff_path(i, j)), &g.diff_bytes[k])?;
            }
            for i in 0..n {
                w(self.tile_path(t, &corr_path(i)), &g.corr_bytes[i].0)?;
                w(self.tile_path(t, &corr_area_path(i)), &g.corr_bytes[i].1)?;
            }
            w(self.tile_path(t, MOSAIC), &g.mosaic_bytes)?;
            w(self.tile_path(t, MOSAIC_AREA), &g.mosaic_area_bytes)?;
            w(self.tile_path(t, FINAL_IMAGE), &g.image.bytes)?;
        }
        Ok(())
    }

    fn analyze(
        &self,
        fs: &dyn FileSystem,
        _golden: Option<&MontageOutput>,
    ) -> Result<MontageOutput, String> {
        // Tiles in declaration order — identical, read for read, to
        // running the per-tile sub-steps and assembling them.
        let mut images = Vec::with_capacity(self.config.tiles);
        for t in 0..self.config.tiles {
            images.push(self.tile_analyze(fs, t)?);
        }
        let image = images.remove(0);
        Ok(MontageOutput { image, extra_tiles: images })
    }

    fn analyze_substeps(&self) -> Option<Vec<SubstepSpec>> {
        if self.config.tiles == 1 {
            return None;
        }
        let n = self.config.pipeline.n_images();
        Some(
            (0..self.config.tiles)
                .map(|t| {
                    // Everything tile_analyze may read: every layer the
                    // dirty scan compares plus the final-image raster.
                    // (The mosaic *area* image has no consumer, so a
                    // fault there dirties no sub-step — exactly as full
                    // analyze never observes it.)
                    let mut inputs = Vec::new();
                    for i in 0..n {
                        inputs.push(self.tile_path(t, &raw_path(i)));
                    }
                    for i in 0..n {
                        inputs.push(self.tile_path(t, &proj_path(i)));
                        inputs.push(self.tile_path(t, &proj_area_path(i)));
                    }
                    for &(i, j) in &self.golden[t].pairs {
                        inputs.push(self.tile_path(t, &diff_path(i, j)));
                    }
                    for i in 0..n {
                        inputs.push(self.tile_path(t, &corr_path(i)));
                        inputs.push(self.tile_path(t, &corr_area_path(i)));
                    }
                    inputs.push(self.tile_path(t, MOSAIC));
                    inputs.push(self.tile_path(t, FINAL_IMAGE));
                    SubstepSpec::new(format!("tile{}", t), inputs)
                })
                .collect(),
        )
    }

    fn analyze_substep(
        &self,
        fs: &dyn FileSystem,
        index: usize,
        _golden: Option<&MontageOutput>,
    ) -> Result<Vec<u8>, String> {
        if index >= self.config.tiles {
            return Err(format!("no tile {}", index));
        }
        self.tile_analyze(fs, index).map(|img| encode_final(&img))
    }

    fn assemble(
        &self,
        artifacts: &[Vec<u8>],
        _golden: Option<&MontageOutput>,
    ) -> Result<MontageOutput, String> {
        if artifacts.len() != self.config.tiles {
            return Err(format!(
                "expected {} tile artifacts, got {}",
                self.config.tiles,
                artifacts.len()
            ));
        }
        let mut images =
            artifacts.iter().map(|a| decode_final(a)).collect::<Result<Vec<_>, String>>()?;
        let image = images.remove(0);
        Ok(MontageOutput { image, extra_tiles: images })
    }

    /// Produce streams every stage's golden bytes in pipeline order
    /// without reading any inter-stage file back (the write-stream
    /// data-independence law); the inter-stage *reads* — and the fault
    /// cascade through them — all happen inside [`FaultApp::analyze`],
    /// so every read-site fault is an analyze-phase fault. (A
    /// monolithic Montage would read between stages; this split is
    /// exactly what the two-phase contract trades that for.)
    fn produce_read_count(&self) -> Option<u64> {
        Some(0)
    }

    fn classify(&self, golden: &MontageOutput, faulty: &MontageOutput) -> Outcome {
        // Tile by tile, in order: the first differing final image
        // decides via the paper's `min`-value test. The single-tile
        // regime reduces to the legacy whole-image comparison.
        let g = std::iter::once(&golden.image).chain(&golden.extra_tiles);
        let f = std::iter::once(&faulty.image).chain(&faulty.extra_tiles);
        for (gi, fi) in g.zip(f) {
            if gi.bytes != fi.bytes {
                return if (fi.min - gi.min).abs() <= self.config.min_threshold {
                    Outcome::Sdc
                } else {
                    Outcome::Detected
                };
            }
        }
        if golden.extra_tiles.len() != faulty.extra_tiles.len() {
            return Outcome::Detected;
        }
        Outcome::Benign
    }

    fn name(&self) -> String {
        "MT".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{diff_overlaps, fit_background};
    use ffis_vfs::{FfisFs, MemFs, TraceOp, TraceRecorder};
    use std::sync::Arc;

    /// Every mutating op `produce` issues, payloads included.
    fn produce_stream(app: &MontageApp) -> Vec<TraceOp> {
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        let recorder = Arc::new(TraceRecorder::new());
        ffs.attach(recorder.clone());
        app.produce(&*ffs).unwrap();
        ffs.unmount();
        recorder.take_ops()
    }

    #[test]
    fn tiles_built_side_by_side_are_the_tiles_built_in_order() {
        let app = MontageApp::multi_tile(5);
        let config = app.config;
        let golden = (0..5).map(|t| MontageApp::tile_golden(&config, t).unwrap()).collect();
        let in_order = MontageApp { config, golden };
        assert_eq!(produce_stream(&app), produce_stream(&in_order));
    }

    #[test]
    fn failing_tiles_report_tile_zero() {
        let mut config = MontageConfig::default().with_tiles(5);
        config.pipeline.min_overlap_px = usize::MAX;
        let first = MontageApp::tile_golden(&config, 0).err().expect("no pair overlaps that much");
        assert_eq!(MontageApp::try_new(config).err(), Some(first));
    }

    #[test]
    fn a_tile_artifact_with_a_hostile_length_is_malformed_not_a_panic() {
        let img = FinalImage {
            bytes: b"P5 2 1 255\n\x00\xff".to_vec(),
            min: 82.8,
            max: 91.0,
            width: 2,
            height: 1,
        };
        let good = encode_final(&img);
        assert_eq!(decode_final(&good).unwrap(), img);
        let len = img.bytes.len() as u64;
        for prefix in [u64::MAX, u64::MAX - 7, len + 1] {
            let mut bad = good.clone();
            bad[..8].copy_from_slice(&prefix.to_le_bytes());
            assert_eq!(decode_final(&bad).unwrap_err(), "malformed tile artifact");
        }
    }

    /// An image as its bits: blank pixels are NaN, which `==` rejects.
    fn bits(img: &FitsImage) -> (usize, usize, Vec<u64>, [u64; 6]) {
        let w = img.wcs;
        let wcs = [w.crval1, w.crval2, w.crpix1, w.crpix2, w.cdelt1, w.cdelt2];
        (
            img.width,
            img.height,
            img.data.iter().map(|v| v.to_bits()).collect(),
            wcs.map(f64::to_bits),
        )
    }

    /// The golden build of a 2-tile app again, stage by stage, with the
    /// slow composite as the oracle: on every product a stage hands to
    /// the next one (raw, proj, proj area, diff, corr, corr area,
    /// mosaic) the re-read is the image half of that round trip, bit for
    /// bit, and so is what `roundtrip` hands the golden build.
    #[test]
    fn the_reread_is_the_round_trip_on_every_golden_product() {
        let app = MontageApp::multi_tile(2);
        let checked = std::cell::Cell::new(0usize);
        let check = |img: &FitsImage| -> FitsImage {
            let oracle = parse_fits(&render_fits(img).unwrap()).unwrap();
            assert_eq!(bits(&read_back(img)), bits(&oracle));
            let (_, golden) = roundtrip(img);
            assert_eq!(bits(&golden), bits(&oracle));
            checked.set(checked.get() + 1);
            oracle
        };
        for t in 0..2 {
            let cfg = MontageApp::tile_pipeline(&app.config, t);
            let raws: Vec<FitsImage> = make_raw_images(&cfg).iter().map(check).collect();
            let projs: Vec<(FitsImage, FitsImage)> = raws
                .iter()
                .map(|raw| {
                    let (data, area) = project_image(raw, &cfg);
                    (check(&data), check(&area))
                })
                .collect();
            let (pairs, diffs): (Vec<_>, Vec<_>) = diff_overlaps(&projs, &cfg)
                .unwrap()
                .into_iter()
                .map(|(pair, diff)| (pair, check(&diff)))
                .unzip();
            let planes = fit_background(&pairs, &diffs, cfg.n_images(), &cfg).unwrap();
            let corrs: Vec<(FitsImage, FitsImage)> = projs
                .iter()
                .zip(&planes)
                .map(|((data, area), plane)| {
                    (check(&apply_background(data, *plane, &cfg)), check(area))
                })
                .collect();
            let (mosaic, marea) = coadd(&corrs, &cfg).unwrap();
            let mosaic_rt = check(&mosaic);
            check(&marea);
            // The walk arrived where the app's own build did.
            assert_eq!(stretch_mosaic(&mosaic_rt).unwrap(), app.golden[t].image);
            assert_eq!(pairs, app.golden[t].pairs);
        }
        let n = app.config.pipeline.n_images();
        let pairs: usize = app.golden.iter().map(|g| g.pairs.len()).sum();
        assert_eq!(checked.get(), 2 * (5 * n + 2) + pairs);
    }

    /// Tile `t`'s analyze as it ran layer by layer: every file of the
    /// first dirty layer parsed, every image re-projected, every pair
    /// differenced and fitted. `pairs_seen` receives the pair set it
    /// differenced, when it got that far. The oracle of
    /// `the_image_granular_cascade_is_the_whole_layer_cascade`.
    fn whole_layer_analyze(
        app: &MontageApp,
        fs: &dyn FileSystem,
        t: usize,
        pairs_seen: &mut Option<Vec<(usize, usize)>>,
    ) -> Result<FinalImage, String> {
        let Some(layer) = app.first_dirty_layer(fs, t)? else {
            return app.tile_analyze(fs, t);
        };
        let g = &app.golden[t];
        let cfg = &app.config.pipeline;
        let n = cfg.n_images();
        let read = |path: &str| parse_image(&read_bytes(fs, &app.tile_path(t, path))?);
        let tail = |projs: &[(FitsImage, FitsImage)], pairs: &[(usize, usize)], diffs: &[_]| {
            let planes = fit_background(pairs, diffs, n, cfg)?;
            let corrs: Vec<_> = projs
                .iter()
                .zip(&planes)
                .map(|((data, area), plane)| {
                    (read_back(&apply_background(data, *plane, cfg)), read_back(area))
                })
                .collect();
            coadd_tail(&corrs, cfg)
        };
        match layer {
            DirtyLayer::Raw | DirtyLayer::Proj => {
                let projs = (0..n)
                    .map(|i| {
                        if layer == DirtyLayer::Raw {
                            let (data, area) = project_image(&read(&raw_path(i))?, cfg);
                            return Ok((read_back(&data), read_back(&area)));
                        }
                        let (data, area) = (read(&proj_path(i))?, read(&proj_area_path(i))?);
                        if area.width != data.width || area.height != data.height {
                            return Err(format!("area/data shape mismatch for image {}", i));
                        }
                        Ok((data, area))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let (pairs, diffs): (Vec<_>, Vec<_>) = diff_overlaps(&projs, cfg)?
                    .into_iter()
                    .map(|(pair, diff)| (pair, read_back(&diff)))
                    .unzip();
                *pairs_seen = Some(pairs.clone());
                tail(&projs, &pairs, &diffs)
            }
            DirtyLayer::Diff => {
                let diffs: Vec<FitsImage> = g
                    .pairs
                    .iter()
                    .map(|&(i, j)| read(&diff_path(i, j)))
                    .collect::<Result<_, _>>()?;
                tail(&g.projs, &g.pairs, &diffs)
            }
            DirtyLayer::Corr => {
                let corrs = (0..n)
                    .map(|i| Ok((read(&corr_path(i))?, read(&corr_area_path(i))?)))
                    .collect::<Result<Vec<_>, String>>()?;
                coadd_tail(&corrs, cfg)
            }
            DirtyLayer::Mosaic => stretch_mosaic(&read(MOSAIC)?),
        }
    }

    /// A final image as its bits.
    type Bits = (Vec<u8>, u64, u64, usize, usize);

    fn image_bits(img: &FinalImage) -> Bits {
        (img.bytes.clone(), img.min.to_bits(), img.max.to_bits(), img.width, img.height)
    }

    fn output_bits(out: Result<MontageOutput, String>) -> Result<Vec<Bits>, String> {
        out.map(|o| std::iter::once(&o.image).chain(&o.extra_tiles).map(image_bits).collect())
    }

    /// FITS bytes with the first digit (`leading`) or the last one of
    /// card `key`'s value moved up by `by`, modulo 10.
    fn bump_digit(bytes: &[u8], key: &str, leading: bool, by: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = (0..36)
            .map(|c| c * 80)
            .find(|&at| out[at..].starts_with(key.as_bytes()) && out[at + key.len()] == b' ')
            .expect("the card is in the first header block");
        let value = &mut out[at + 10..at + 80];
        let digit = if leading {
            value.iter().position(u8::is_ascii_digit)
        } else {
            value.iter().rposition(u8::is_ascii_digit)
        };
        let d = &mut value[digit.expect("a numeric card")];
        *d = b'0' + (*d - b'0' + by) % 10;
        out
    }

    /// FITS bytes with pixel `k` replaced by `f(k, value)`.
    fn map_pixels(bytes: &[u8], f: impl Fn(usize, f64) -> f64) -> Vec<u8> {
        let mut img = parse_fits(bytes).unwrap();
        img.data = img.data.iter().enumerate().map(|(k, &v)| f(k, v)).collect();
        render_fits(&img).unwrap()
    }

    /// Every file of a 2-tile app the dirty scan compares — 10 raw, 20
    /// proj, 23 diff, 20 corr and the mosaic a tile — under every
    /// damage kind: a pixel bit flip, a `CRPIX1` moved by ten pixels, a
    /// data unit cut in half, an `NAXIS1` one less (or 9 more), and
    /// besides, for a projected area image every pixel NaN (its pairs
    /// fall below `min_overlap_px`) and for a difference image all but
    /// two pixels NaN (a degenerate plane fit). `analyze`, and the
    /// sub-steps with `assemble`, equal the whole-layer cascade: `Ok`
    /// images bit for bit, `Err` strings as strings.
    #[test]
    fn the_image_granular_cascade_is_the_whole_layer_cascade() {
        let app = MontageApp::multi_tile(2);
        let n = app.config.pipeline.n_images();
        let base = MemFs::new();
        app.produce(&base).unwrap();
        let (mut cases, mut errs, mut joined, mut left) = (0, 0, false, false);
        for (t, g) in app.golden.iter().enumerate() {
            // (path, golden bytes, the damage kinds special to it)
            let mut files = Vec::new();
            for i in 0..n {
                files.push((raw_path(i), &g.raw_bytes[i], vec![]));
            }
            for (i, (data, area)) in g.proj_bytes.iter().enumerate() {
                files.push((proj_path(i), data, vec![]));
                let nan = map_pixels(area, |_, _| f64::NAN);
                files.push((proj_area_path(i), area, vec![nan]));
            }
            for (&(i, j), diff) in g.pairs.iter().zip(&g.diff_bytes) {
                let two = map_pixels(diff, |k, v| if k < 2 { v } else { f64::NAN });
                files.push((diff_path(i, j), diff, vec![two]));
            }
            for (i, (data, area)) in g.corr_bytes.iter().enumerate() {
                files.push((corr_path(i), data, vec![]));
                files.push((corr_area_path(i), area, vec![]));
            }
            files.push((MOSAIC.to_string(), &g.mosaic_bytes, vec![]));

            for (path, golden, special) in files {
                let path = app.tile_path(t, &path);
                let mid = 2880 + 8 * (parse_fits(golden).unwrap().data.len() / 2);
                let mut flip = golden.to_vec();
                flip[mid] ^= 0x40;
                let general = [
                    flip,
                    bump_digit(golden, "CRPIX1", true, 1),
                    golden[..mid].to_vec(),
                    bump_digit(golden, "NAXIS1", false, 9),
                ];
                for bad in general.into_iter().chain(special) {
                    assert_ne!(&bad, golden, "{}", path);
                    let fs = base.fork();
                    fs.write_file(&path, &bad).unwrap();
                    let mut seen = None;
                    let expect: Vec<Result<FinalImage, String>> =
                        (0..2).map(|u| whole_layer_analyze(&app, &fs, u, &mut seen)).collect();
                    let expect_bits: Result<Vec<Bits>, String> = expect
                        .iter()
                        .map(|r| r.as_ref().map(image_bits).map_err(Clone::clone))
                        .collect();

                    assert_eq!(output_bits(app.analyze(&fs, None)), expect_bits, "{}", path);
                    let arts: Vec<Result<Vec<u8>, String>> =
                        (0..2).map(|u| app.analyze_substep(&fs, u, None)).collect();
                    for (art, e) in arts.iter().zip(&expect) {
                        let got = art.clone().and_then(|a| decode_final(&a));
                        assert_eq!(
                            got.as_ref().map(image_bits),
                            e.as_ref().map(image_bits),
                            "{}",
                            path
                        );
                    }
                    if let Ok(arts) = arts.into_iter().collect::<Result<Vec<_>, _>>() {
                        assert_eq!(output_bits(app.assemble(&arts, None)), expect_bits);
                    }

                    if let Some(pairs) = seen {
                        joined |= pairs.iter().any(|p| !g.pairs.contains(p));
                        left |= g.pairs.iter().any(|p| !pairs.contains(p));
                    }
                    errs += expect_bits.is_err() as usize;
                    cases += 1;
                }
            }
        }
        let pairs: usize = app.golden.iter().map(|g| g.pairs.len()).sum();
        assert_eq!(cases, 2 * (4 * (5 * n + 1) + n) + 5 * pairs);
        assert!(errs > 0 && errs < cases, "{} of {} cases fail", errs, cases);
        assert!(joined, "no damage made a pair join the pair set");
        assert!(left, "no damage made a pair leave the pair set");
    }

    #[test]
    fn golden_run_completes() {
        let app = MontageApp::paper_default();
        let out = app.run(&MemFs::new()).unwrap();
        assert!(out.image.min > 82.0 && out.image.min < 83.5, "min = {}", out.image.min);
    }

    /// The pair count DESIGN.md's cascade tables are built on: every
    /// default tile, in the single-tile app and in the 2- and 24-tile
    /// mosaics, differences and fits 23 overlap pairs.
    #[test]
    fn every_default_tile_has_23_overlap_pairs() {
        for app in
            [MontageApp::paper_default(), MontageApp::multi_tile(2), MontageApp::multi_tile(24)]
        {
            let counts: Vec<usize> = app.golden.iter().map(|g| g.pairs.len()).collect();
            assert_eq!(counts, vec![23; app.golden.len()]);
        }
    }

    #[test]
    fn runs_are_bitwise_reproducible() {
        let app = MontageApp::paper_default();
        let a = app.run(&MemFs::new()).unwrap();
        let b = app.run(&MemFs::new()).unwrap();
        assert_eq!(a.image.bytes, b.image.bytes);
        assert_eq!(app.classify(&a, &b), Outcome::Benign);
    }

    #[test]
    fn classification_rules() {
        let app = MontageApp::paper_default();
        let golden = app.run(&MemFs::new()).unwrap();
        // In-band min with differing bytes -> SDC.
        let mut sdc = golden.clone();
        sdc.image.bytes[20] ^= 0x01;
        sdc.image.min += 0.005;
        assert_eq!(app.classify(&golden, &sdc), Outcome::Sdc);
        // Out-of-band min -> detected.
        let mut det = golden.clone();
        det.image.bytes[20] ^= 0x01;
        det.image.min -= 5.0;
        assert_eq!(app.classify(&golden, &det), Outcome::Detected);
    }

    #[test]
    fn stage_filters_address_distinct_directories() {
        let filters: Vec<_> = Stage::ALL.iter().map(|&s| MontageApp::stage_filter(s)).collect();
        assert!(filters[0].matches(Some("/proj/proj_00.fits")));
        assert!(!filters[0].matches(Some("/diff/diff_00_01.fits")));
        assert!(filters[1].matches(Some("/diff/diff_00_01.fits")));
        assert!(filters[2].matches(Some("/corr/corr_05_area.fits")));
        assert!(filters[3].matches(Some("/mosaic/mosaic.fits")));
        assert!(!filters[3].matches(Some("/raw/raw_00.fits")));
        let mosaic = MontageApp::mosaic_filter();
        assert!(mosaic.matches(Some(MOSAIC)));
        assert!(mosaic.matches(Some(MOSAIC_AREA)));
        assert!(!mosaic.matches(Some("/corr/corr_00.fits")));
    }

    #[test]
    fn stage_labels_match_figure7() {
        let labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["MT1", "MT2", "MT3", "MT4"]);
        assert_eq!(Stage::ProjExec.tool(), "mProjExec");
    }

    #[test]
    fn describe_matches_table_ii() {
        let (name, domain, method) = MontageApp::describe();
        assert_eq!(name, "Montage");
        assert_eq!(domain, "Astronomy");
        assert!(method.contains("mosaic"));
    }

    #[test]
    fn single_tile_declares_no_substeps() {
        // The legacy regime keeps whole-analyze (and its pinned
        // campaign modes): no sub-steps, no memo engagement.
        assert!(MontageApp::paper_default().analyze_substeps().is_none());
    }

    #[test]
    fn multi_tile_substeps_match_whole_analyze() {
        let app = MontageApp::multi_tile(3);
        let specs = app.analyze_substeps().unwrap();
        assert_eq!(specs.len(), 3);
        assert!(specs[1].reads("/tile1/mosaic/mosaic.fits"));
        assert!(!specs[1].reads("/tile0/mosaic/mosaic.fits"));

        let fs = MemFs::new();
        app.produce(&fs).unwrap();
        let whole = app.analyze(&fs, None).unwrap();
        assert_eq!(whole.extra_tiles.len(), 2);
        // Distinct pointings: the tiles are different skies.
        assert_ne!(whole.image.bytes, whole.extra_tiles[0].bytes);

        let arts: Vec<Vec<u8>> =
            (0..3).map(|t| app.analyze_substep(&fs, t, None).unwrap()).collect();
        let assembled = app.assemble(&arts, None).unwrap();
        assert_eq!(whole.image.bytes, assembled.image.bytes);
        for (a, b) in whole.extra_tiles.iter().zip(&assembled.extra_tiles) {
            assert_eq!(a, b);
        }
        assert_eq!(app.classify(&whole, &assembled), Outcome::Benign);
    }

    #[test]
    fn multi_tile_classify_keys_on_first_differing_tile() {
        let app = MontageApp::multi_tile(2);
        let fs = MemFs::new();
        let golden = app.run(&fs).unwrap();
        let mut faulty = golden.clone();
        faulty.extra_tiles[0].bytes[20] ^= 0x01;
        faulty.extra_tiles[0].min += 0.005;
        assert_eq!(app.classify(&golden, &faulty), Outcome::Sdc);
        faulty.extra_tiles[0].min -= 5.0;
        assert_eq!(app.classify(&golden, &faulty), Outcome::Detected);
    }
}
