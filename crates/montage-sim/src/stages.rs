//! The four I/O-intensive Montage stages (paper §V-B.c).
//!
//! "(1) mProjExec for reprojecting each image, (2) mDiffExec for
//! subtracting each pair of overlapping images and creating difference
//! images, (3) mBgExec for applying background matching to each
//! reprojected image, (4) mAdd for generating a mosaic from
//! reprojected images."
//!
//! Every stage reads its inputs from, and writes its outputs to, the
//! filesystem under test — the channel through which injected faults
//! propagate (or are bounded: "different Montage stages seem to bound
//! the faults"). Like real Montage, data images travel with *area*
//! images that weight the co-addition; a corrupted/lost area region
//! silently drops pixels from the mosaic (an SDC path), while
//! corrupted data with intact area drags the mosaic values (a detected
//! path).

use ffis_core::Rng;
use ffis_vfs::{FileSystem, FileSystemExt};
use fitslite::{read_fits, write_fits, FitsImage, Wcs};

use crate::linalg::{fit_plane, solve};
use crate::sky::{SkyModel, M101_DEC, M101_RA};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Raw image side length (pixels).
    pub raw_size: usize,
    /// Mosaic side length (pixels).
    pub mosaic_size: usize,
    /// Pointing grid columns.
    pub n_cols: usize,
    /// Pointing grid rows.
    pub n_rows: usize,
    /// Pixel noise sigma.
    pub noise_sigma: f64,
    /// Master seed (sky, pointings, noise).
    pub seed: u64,
    /// Minimum overlap pixels for a difference image.
    pub min_overlap_px: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            raw_size: 30,
            mosaic_size: 96,
            n_cols: 5,
            n_rows: 2,
            noise_sigma: 0.02,
            seed: 0x4D54_3130,
            min_overlap_px: 120,
        }
    }
}

impl PipelineConfig {
    /// Number of raw images (the paper uses 10).
    pub fn n_images(&self) -> usize {
        self.n_cols * self.n_rows
    }
}

/// The common output projection (TAN around m101, 0.2° field).
pub fn mosaic_wcs(cfg: &PipelineConfig) -> Wcs {
    let n = cfg.mosaic_size as f64;
    Wcs {
        crval1: M101_RA,
        crval2: M101_DEC,
        crpix1: (n + 1.0) / 2.0,
        crpix2: (n + 1.0) / 2.0,
        cdelt1: -0.2 / n,
        cdelt2: 0.2 / n,
    }
}

/// Pointing WCS of raw image `i` (coarser plate scale, offset grid).
pub fn raw_wcs(cfg: &PipelineConfig, i: usize) -> Wcs {
    let col = (i % cfg.n_cols) as f64;
    let row = (i / cfg.n_cols) as f64;
    let n = cfg.raw_size as f64;
    Wcs {
        crval1: M101_RA + (col - (cfg.n_cols as f64 - 1.0) / 2.0) * 0.036,
        crval2: M101_DEC + (row - (cfg.n_rows as f64 - 1.0) / 2.0) * 0.05,
        crpix1: (n + 1.0) / 2.0,
        crpix2: (n + 1.0) / 2.0,
        cdelt1: -0.2 / cfg.mosaic_size as f64 * 1.3,
        cdelt2: 0.2 / cfg.mosaic_size as f64 * 1.3,
    }
}

/// Per-image instrumental background plane (`[offset, d/dx, d/dy]`).
/// Image 0 is the zero-gauge reference, as mBgModel fixes one image.
pub fn background_plane(cfg: &PipelineConfig, i: usize) -> [f64; 3] {
    if i == 0 {
        return [0.0; 3];
    }
    let mut rng = Rng::seed_from(cfg.seed.wrapping_add(0xB6 * i as u64));
    [rng.uniform(-0.6, 0.6), rng.uniform(-0.004, 0.004), rng.uniform(-0.004, 0.004)]
}

/// Generate the 10 deterministic raw observations.
pub fn make_raw_images(cfg: &PipelineConfig) -> Vec<FitsImage> {
    let sky = SkyModel::m101(cfg.seed);
    (0..cfg.n_images())
        .map(|i| {
            sky.render(
                raw_wcs(cfg, i),
                cfg.raw_size,
                cfg.raw_size,
                background_plane(cfg, i),
                cfg.noise_sigma,
                cfg.seed.wrapping_add(0x51 * i as u64 + 1),
            )
        })
        .collect()
}

pub(crate) fn raw_path(i: usize) -> String {
    format!("/raw/raw_{:02}.fits", i)
}

pub(crate) fn proj_path(i: usize) -> String {
    format!("/proj/proj_{:02}.fits", i)
}

pub(crate) fn proj_area_path(i: usize) -> String {
    format!("/proj/proj_{:02}_area.fits", i)
}

pub(crate) fn diff_path(i: usize, j: usize) -> String {
    format!("/diff/diff_{:02}_{:02}.fits", i, j)
}

pub(crate) fn corr_path(i: usize) -> String {
    format!("/corr/corr_{:02}.fits", i)
}

pub(crate) fn corr_area_path(i: usize) -> String {
    format!("/corr/corr_{:02}_area.fits", i)
}

/// Mosaic data product path.
pub const MOSAIC: &str = "/mosaic/mosaic.fits";
/// Mosaic area product path.
pub const MOSAIC_AREA: &str = "/mosaic/mosaic_area.fits";
/// Final stretched image path (the paper's `m101_mosaic.jpg`).
pub const FINAL_IMAGE: &str = "/mosaic/m101_mosaic.jpg";

/// Write the raw observations (pipeline inputs; not a paper stage).
pub fn write_raws(fs: &dyn FileSystem, raws: &[FitsImage]) -> Result<(), String> {
    for (i, img) in raws.iter().enumerate() {
        write_fits(fs, &raw_path(i), img).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Footprint of an image on the mosaic grid: `(x0, y0, w, h)`.
fn footprint(
    img_wcs: &Wcs,
    size: usize,
    mwcs: &Wcs,
    mosaic_size: usize,
) -> (usize, usize, usize, usize) {
    let mut xmin = f64::INFINITY;
    let mut xmax = f64::NEG_INFINITY;
    let mut ymin = f64::INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for &(cx, cy) in &[
        (0.0, 0.0),
        (size as f64 - 1.0, 0.0),
        (0.0, size as f64 - 1.0),
        (size as f64 - 1.0, size as f64 - 1.0),
    ] {
        let (ra, dec) = img_wcs.pix_to_sky(cx, cy);
        let (mx, my) = mwcs.sky_to_pix(ra, dec);
        xmin = xmin.min(mx);
        xmax = xmax.max(mx);
        ymin = ymin.min(my);
        ymax = ymax.max(my);
    }
    let x0 = xmin.floor().max(0.0) as usize;
    let y0 = ymin.floor().max(0.0) as usize;
    let x1 = (xmax.ceil() as usize).min(mosaic_size - 1);
    let y1 = (ymax.ceil() as usize).min(mosaic_size - 1);
    (x0, y0, x1.saturating_sub(x0) + 1, y1.saturating_sub(y0) + 1)
}

/// WCS for a sub-image whose (0,0) sits at mosaic pixel `(x0, y0)`.
fn sub_wcs(mwcs: &Wcs, x0: usize, y0: usize) -> Wcs {
    Wcs { crpix1: mwcs.crpix1 - x0 as f64, crpix2: mwcs.crpix2 - y0 as f64, ..*mwcs }
}

/// Mosaic pixel coordinates of a sub-image pixel.
fn to_mosaic_xy(img: &FitsImage, mwcs: &Wcs, x: usize, y: usize) -> (f64, f64) {
    let (ra, dec) = img.wcs.pix_to_sky(x as f64, y as f64);
    mwcs.sky_to_pix(ra, dec)
}

/// mProjExec's per-image core: reproject one raw image onto the
/// common projection, returning the (data, area) pair. Pure compute —
/// the fs-level stage and the replay-campaign analyze cascade share
/// it.
pub fn project_image(raw: &FitsImage, cfg: &PipelineConfig) -> (FitsImage, FitsImage) {
    let mwcs = mosaic_wcs(cfg);
    let (x0, y0, w, h) = footprint(&raw.wcs, cfg.raw_size, &mwcs, cfg.mosaic_size);
    let swcs = sub_wcs(&mwcs, x0, y0);
    let mut data = FitsImage::blank(w, h, swcs);
    let mut area = FitsImage::blank(w, h, swcs);
    for y in 0..h {
        for x in 0..w {
            let (ra, dec) = swcs.pix_to_sky(x as f64, y as f64);
            let (rx, ry) = raw.wcs.sky_to_pix(ra, dec);
            let v = raw.sample(rx, ry);
            if v.is_finite() {
                data.set(x, y, v);
                area.set(x, y, 1.0);
            } else {
                area.set(x, y, 0.0);
            }
        }
    }
    (data, area)
}

/// Stage 1 — mProjExec: reproject each raw image onto the common
/// projection; emit data + area images.
pub fn m_proj_exec(fs: &dyn FileSystem, cfg: &PipelineConfig) -> Result<(), String> {
    for i in 0..cfg.n_images() {
        let raw = read_fits(fs, &raw_path(i)).map_err(|e| e.to_string())?;
        let (data, area) = project_image(&raw, cfg);
        write_fits(fs, &proj_path(i), &data).map_err(|e| e.to_string())?;
        write_fits(fs, &proj_area_path(i), &area).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub(crate) fn read_proj(fs: &dyn FileSystem, i: usize) -> Result<(FitsImage, FitsImage), String> {
    let data = read_fits(fs, &proj_path(i)).map_err(|e| e.to_string())?;
    let area = read_fits(fs, &proj_area_path(i)).map_err(|e| e.to_string())?;
    if area.width != data.width || area.height != data.height {
        return Err(format!("area/data shape mismatch for image {}", i));
    }
    Ok((data, area))
}

/// One overlapping image pair `(i, j)` with its difference image.
pub type PairDiff = ((usize, usize), FitsImage);

/// The error of an overlap graph without an edge.
pub(crate) const NO_PAIRS: &str = "no overlapping pairs found";

/// mDiffExec's per-pair core: the difference image of two reprojected
/// `(data, area)` pairs over their overlap, or `None` when fewer than
/// `min_overlap_px` of its pixels are valid in both. Pure compute.
pub fn pair_diff(
    pi: &(FitsImage, FitsImage),
    pj: &(FitsImage, FitsImage),
    mwcs: &Wcs,
    cfg: &PipelineConfig,
) -> Option<FitsImage> {
    let (di, ai) = pi;
    let (dj, aj) = pj;
    // Intersection in mosaic coordinates.
    let (ix0, iy0) = to_mosaic_xy(di, mwcs, 0, 0);
    let (jx0, jy0) = to_mosaic_xy(dj, mwcs, 0, 0);
    let x0 = ix0.max(jx0).round() as i64;
    let y0 = iy0.max(jy0).round() as i64;
    let x1 = (ix0 + di.width as f64 - 1.0).min(jx0 + dj.width as f64 - 1.0).round() as i64;
    let y1 = (iy0 + di.height as f64 - 1.0).min(jy0 + dj.height as f64 - 1.0).round() as i64;
    if x1 < x0 || y1 < y0 {
        return None;
    }
    let (w, h) = ((x1 - x0 + 1) as usize, (y1 - y0 + 1) as usize);
    let swcs = sub_wcs(mwcs, x0 as usize, y0 as usize);
    let mut diff = FitsImage::blank(w, h, swcs);
    let mut count = 0usize;
    for y in 0..h {
        for x in 0..w {
            let gx = (x0 + x as i64) as f64;
            let gy = (y0 + y as i64) as f64;
            let lix = (gx - ix0).round() as i64;
            let liy = (gy - iy0).round() as i64;
            let ljx = (gx - jx0).round() as i64;
            let ljy = (gy - jy0).round() as i64;
            if lix < 0
                || liy < 0
                || ljx < 0
                || ljy < 0
                || lix >= di.width as i64
                || liy >= di.height as i64
                || ljx >= dj.width as i64
                || ljy >= dj.height as i64
            {
                continue;
            }
            let (lix, liy, ljx, ljy) = (lix as usize, liy as usize, ljx as usize, ljy as usize);
            let vi = di.get(lix, liy);
            let vj = dj.get(ljx, ljy);
            let wi = ai.get(lix, liy);
            let wj = aj.get(ljx, ljy);
            if vi.is_finite() && vj.is_finite() && wi > 0.5 && wj > 0.5 {
                diff.set(x, y, vi - vj);
                count += 1;
            }
        }
    }
    (count >= cfg.min_overlap_px).then_some(diff)
}

/// mDiffExec's core: difference image for every overlapping pair of
/// reprojected images. Returns `(pair, diff)` in pair order. Pure
/// compute over in-memory projections.
pub fn diff_overlaps(
    projs: &[(FitsImage, FitsImage)],
    cfg: &PipelineConfig,
) -> Result<Vec<PairDiff>, String> {
    let mwcs = mosaic_wcs(cfg);
    let n = projs.len();
    let mut out = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if let Some(diff) = pair_diff(&projs[i], &projs[j], &mwcs, cfg) {
                out.push(((i, j), diff));
            }
        }
    }
    if out.is_empty() {
        return Err(NO_PAIRS.into());
    }
    Ok(out)
}

/// Stage 2 — mDiffExec: difference image for every overlapping pair.
/// Returns the pair list (the background model's graph edges).
pub fn m_diff_exec(
    fs: &dyn FileSystem,
    cfg: &PipelineConfig,
) -> Result<Vec<(usize, usize)>, String> {
    let n = cfg.n_images();
    let mut projs = Vec::with_capacity(n);
    for i in 0..n {
        projs.push(read_proj(fs, i)?);
    }
    let mut pairs = Vec::new();
    for ((i, j), diff) in diff_overlaps(&projs, cfg)? {
        write_fits(fs, &diff_path(i, j), &diff).map_err(|e| e.to_string())?;
        pairs.push((i, j));
    }
    Ok(pairs)
}

/// mBgExec's model core (mFitplane + mBgModel): fit a plane to every
/// difference image and solve the least-squares background model
/// (image 0 fixed as gauge). Returns one correction plane per image.
/// Pure compute — `n` is the image count.
pub fn fit_background(
    pairs: &[(usize, usize)],
    diffs: &[FitsImage],
    n: usize,
    cfg: &PipelineConfig,
) -> Result<Vec<[f64; 3]>, String> {
    let mwcs = mosaic_wcs(cfg);
    let fits = pairs
        .iter()
        .zip(diffs)
        .map(|(&pair, diff)| plane_fit(pair, diff, &mwcs))
        .collect::<Result<Vec<_>, String>>()?;
    solve_background(pairs, &fits, n)
}

/// mFitplane's core: the plane `[offset, d/dx, d/dy]` fitted to the
/// valid pixels of `pair`'s difference image, in mosaic coordinates.
/// Pure compute.
pub fn plane_fit(pair: (usize, usize), diff: &FitsImage, mwcs: &Wcs) -> Result<[f64; 3], String> {
    let mut pts = Vec::new();
    for y in 0..diff.height {
        for x in 0..diff.width {
            let v = diff.get(x, y);
            if v.is_finite() {
                let (mx, my) = to_mosaic_xy(diff, mwcs, x, y);
                pts.push((mx, my, v));
            }
        }
    }
    fit_plane(&pts).ok_or_else(|| format!("degenerate plane fit for pair {}-{}", pair.0, pair.1))
}

/// mBgModel's core: solve the least-squares background model over the
/// plane fit of every pair (image 0 fixed as gauge). Returns one
/// correction plane per image. Pure compute — `n` is the image count.
pub fn solve_background(
    pairs: &[(usize, usize)],
    fits: &[[f64; 3]],
    n: usize,
) -> Result<Vec<[f64; 3]>, String> {
    // Least-squares background model: minimize Σ ||p_i − p_j − d_ij||²
    // with p_0 ≡ 0. The three plane coefficients decouple into three
    // identical graph-Laplacian systems.
    let unknowns = n - 1; // images 1..n
    let mut planes = vec![[0.0f64; 3]; n];
    for c in 0..3 {
        let mut a = vec![0.0f64; unknowns * unknowns];
        let mut b = vec![0.0f64; unknowns];
        for (&(i, j), d) in pairs.iter().zip(fits) {
            // Residual (p_i - p_j - d_ij).
            if i > 0 {
                a[(i - 1) * unknowns + (i - 1)] += 1.0;
                if j > 0 {
                    a[(i - 1) * unknowns + (j - 1)] -= 1.0;
                }
                b[i - 1] += d[c];
            }
            if j > 0 {
                a[(j - 1) * unknowns + (j - 1)] += 1.0;
                if i > 0 {
                    a[(j - 1) * unknowns + (i - 1)] -= 1.0;
                }
                b[j - 1] -= d[c];
            }
        }
        let x = solve(a, b).ok_or("singular background model (disconnected overlap graph?)")?;
        for (k, &v) in x.iter().enumerate() {
            planes[k + 1][c] = v;
        }
    }
    Ok(planes)
}

/// mBgExec's per-image core: subtract a correction plane from one
/// reprojected image. The area image passes through unchanged.
pub fn apply_background(data: &FitsImage, plane: [f64; 3], cfg: &PipelineConfig) -> FitsImage {
    let mwcs = mosaic_wcs(cfg);
    let mut corr = data.clone();
    for y in 0..corr.height {
        for x in 0..corr.width {
            let v = corr.get(x, y);
            if v.is_finite() {
                let (mx, my) = to_mosaic_xy(&corr, &mwcs, x, y);
                corr.set(x, y, v - (plane[0] + plane[1] * mx + plane[2] * my));
            }
        }
    }
    corr
}

/// Stage 3 — mBgExec (mFitplane + mBgModel + mBgExec): fit a plane to
/// every difference image, solve the least-squares background model
/// (image 0 fixed as gauge), and write corrected images.
pub fn m_bg_exec(
    fs: &dyn FileSystem,
    cfg: &PipelineConfig,
    pairs: &[(usize, usize)],
) -> Result<(), String> {
    let mut diffs = Vec::with_capacity(pairs.len());
    for &(i, j) in pairs {
        diffs.push(read_fits(fs, &diff_path(i, j)).map_err(|e| e.to_string())?);
    }
    let planes = fit_background(pairs, &diffs, cfg.n_images(), cfg)?;

    // Apply corrections.
    for (i, plane) in planes.iter().enumerate() {
        let (data, area) = read_proj(fs, i)?;
        let corr = apply_background(&data, *plane, cfg);
        write_fits(fs, &corr_path(i), &corr).map_err(|e| e.to_string())?;
        write_fits(fs, &corr_area_path(i), &area).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// mAdd's core: area-weighted co-addition of corrected images into
/// the mosaic (data, area) pair. Pure compute.
pub fn coadd(
    corrs: &[(FitsImage, FitsImage)],
    cfg: &PipelineConfig,
) -> Result<(FitsImage, FitsImage), String> {
    let mwcs = mosaic_wcs(cfg);
    let m = cfg.mosaic_size;
    let mut sum = vec![0.0f64; m * m];
    let mut wsum = vec![0.0f64; m * m];
    for (i, (data, area)) in corrs.iter().enumerate() {
        if area.width != data.width || area.height != data.height {
            return Err(format!("area/data shape mismatch for corrected image {}", i));
        }
        let (ox, oy) = to_mosaic_xy(data, &mwcs, 0, 0);
        for y in 0..data.height {
            for x in 0..data.width {
                let v = data.get(x, y);
                let w = area.get(x, y);
                if !v.is_finite() || !w.is_finite() || w <= 0.0 {
                    continue;
                }
                let gx = (ox + x as f64).round() as i64;
                let gy = (oy + y as f64).round() as i64;
                if gx < 0 || gy < 0 || gx >= m as i64 || gy >= m as i64 {
                    continue;
                }
                let idx = gy as usize * m + gx as usize;
                sum[idx] += v * w;
                wsum[idx] += w;
            }
        }
    }
    let mut mosaic = FitsImage::blank(m, m, mwcs);
    let mut marea = FitsImage::blank(m, m, mwcs);
    for idx in 0..m * m {
        if wsum[idx] > 0.0 {
            mosaic.data[idx] = sum[idx] / wsum[idx];
            marea.data[idx] = wsum[idx];
        } else {
            marea.data[idx] = 0.0;
        }
    }
    Ok((mosaic, marea))
}

/// Stage 4 — mAdd: area-weighted co-addition into the mosaic.
pub fn m_add(fs: &dyn FileSystem, cfg: &PipelineConfig) -> Result<(), String> {
    let mut corrs = Vec::with_capacity(cfg.n_images());
    for i in 0..cfg.n_images() {
        let data = read_fits(fs, &corr_path(i)).map_err(|e| e.to_string())?;
        let area = read_fits(fs, &corr_area_path(i)).map_err(|e| e.to_string())?;
        corrs.push((data, area));
    }
    let (mosaic, marea) = coadd(&corrs, cfg)?;
    write_fits(fs, MOSAIC, &mosaic).map_err(|e| e.to_string())?;
    write_fits(fs, MOSAIC_AREA, &marea).map_err(|e| e.to_string())?;
    Ok(())
}

/// Final-step product: the stretched image plus the `min`/`max`
/// statistics the paper's classification keys on.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalImage {
    /// Stretched grayscale raster bytes (PGM payload standing in for
    /// the paper's JPEG — lossless, so bitwise comparison is exact).
    pub bytes: Vec<u8>,
    /// Minimum of the mosaic ("the 'min' value in the output greatly
    /// correlates with the correctness of the final image").
    pub min: f64,
    /// Maximum of the mosaic.
    pub max: f64,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
}

/// The viewer's core: min–max stretch of a mosaic into the PGM raster
/// plus the statistics classification keys on. Pure compute.
pub fn stretch_mosaic(mosaic: &FitsImage) -> Result<FinalImage, String> {
    let min = mosaic.min();
    let max = mosaic.max();
    if !min.is_finite() || !max.is_finite() || max <= min {
        return Err(format!("degenerate mosaic stretch range [{}, {}]", min, max));
    }
    let scale = 255.0 / (max - min);
    let mut bytes = format!("P5 {} {} 255\n", mosaic.width, mosaic.height).into_bytes();
    for &v in &mosaic.data {
        let b = if v.is_finite() { ((v - min) * scale).clamp(0.0, 255.0) as u8 } else { 0 };
        bytes.push(b);
    }
    Ok(FinalImage { bytes, min, max, width: mosaic.width, height: mosaic.height })
}

/// Final step — generate the stretched image from the mosaic FITS.
pub fn m_viewer(fs: &dyn FileSystem, _cfg: &PipelineConfig) -> Result<FinalImage, String> {
    let mosaic = read_fits(fs, MOSAIC).map_err(|e| e.to_string())?;
    let image = stretch_mosaic(&mosaic)?;
    fs.write_file_chunked(FINAL_IMAGE, &image.bytes, ffis_vfs::BLOCK_SIZE)
        .map_err(|e| e.to_string())?;
    let readback = fs.read_to_vec(FINAL_IMAGE).map_err(|e| e.to_string())?;
    Ok(FinalImage { bytes: readback, ..image })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_vfs::MemFs;

    fn run_pipeline(cfg: &PipelineConfig) -> (MemFs, FinalImage) {
        let fs = MemFs::new();
        for d in ["/raw", "/proj", "/diff", "/corr", "/mosaic"] {
            fs.mkdir(d, 0o755).unwrap();
        }
        let raws = make_raw_images(cfg);
        write_raws(&fs, &raws).unwrap();
        m_proj_exec(&fs, cfg).unwrap();
        let pairs = m_diff_exec(&fs, cfg).unwrap();
        m_bg_exec(&fs, cfg, &pairs).unwrap();
        m_add(&fs, cfg).unwrap();
        let out = m_viewer(&fs, cfg).unwrap();
        (fs, out)
    }

    #[test]
    fn full_pipeline_produces_mosaic() {
        let cfg = PipelineConfig::default();
        let (fs, out) = run_pipeline(&cfg);
        assert!(fs.exists(MOSAIC));
        assert!(fs.exists(MOSAIC_AREA));
        assert!(fs.exists(FINAL_IMAGE));
        assert_eq!(out.width, cfg.mosaic_size);
        assert!(out.min.is_finite() && out.max.is_finite());
        assert!(out.max > out.min + 1.0, "galaxy should create dynamic range");
        assert_eq!(out.bytes.len(), cfg.mosaic_size * cfg.mosaic_size + b"P5 96 96 255\n".len());
    }

    #[test]
    fn mosaic_min_lands_near_paper_range() {
        // The paper's golden min sat in [82.82, 82.83]; our sky model
        // is calibrated to the same neighbourhood.
        let (_, out) = run_pipeline(&PipelineConfig::default());
        assert!(
            out.min > 82.0 && out.min < 83.5,
            "golden mosaic min {} should sit near the paper's 82.8 regime",
            out.min
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let cfg = PipelineConfig::default();
        let (_, a) = run_pipeline(&cfg);
        let (_, b) = run_pipeline(&cfg);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.min, b.min);
    }

    #[test]
    fn background_matching_removes_offsets() {
        // With per-image background planes injected, the corrected
        // mosaic should be close to a run with no offsets at all.
        let cfg = PipelineConfig::default();
        let (_, with_bg) = run_pipeline(&cfg);

        // Reference: same sky, but strip the background planes by
        // rendering image 0's gauge everywhere. The min values should
        // agree to within the noise scale — far tighter than the
        // ±0.6 offsets injected.
        let fs = MemFs::new();
        for d in ["/raw", "/proj", "/diff", "/corr", "/mosaic"] {
            fs.mkdir(d, 0o755).unwrap();
        }
        let sky = SkyModel::m101(cfg.seed);
        let raws: Vec<FitsImage> = (0..cfg.n_images())
            .map(|i| {
                sky.render(
                    raw_wcs(&cfg, i),
                    cfg.raw_size,
                    cfg.raw_size,
                    [0.0; 3],
                    cfg.noise_sigma,
                    cfg.seed.wrapping_add(0x51 * i as u64 + 1),
                )
            })
            .collect();
        write_raws(&fs, &raws).unwrap();
        m_proj_exec(&fs, &cfg).unwrap();
        let pairs = m_diff_exec(&fs, &cfg).unwrap();
        m_bg_exec(&fs, &cfg, &pairs).unwrap();
        m_add(&fs, &cfg).unwrap();
        let clean = m_viewer(&fs, &cfg).unwrap();

        assert!(
            (with_bg.min - clean.min).abs() < 0.1,
            "background matching failed: {} vs {}",
            with_bg.min,
            clean.min
        );
    }

    #[test]
    fn overlap_graph_is_connected_enough() {
        let cfg = PipelineConfig::default();
        let fs = MemFs::new();
        for d in ["/raw", "/proj", "/diff", "/corr", "/mosaic"] {
            fs.mkdir(d, 0o755).unwrap();
        }
        write_raws(&fs, &make_raw_images(&cfg)).unwrap();
        m_proj_exec(&fs, &cfg).unwrap();
        let pairs = m_diff_exec(&fs, &cfg).unwrap();
        // At least the horizontal chain + vertical links.
        assert!(pairs.len() >= cfg.n_images() - 1, "pairs: {:?}", pairs);
        // Connectivity: union-find over pairs.
        let mut parent: Vec<usize> = (0..cfg.n_images()).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        for &(i, j) in &pairs {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            parent[ri] = rj;
        }
        let root = find(&mut parent, 0);
        for i in 1..cfg.n_images() {
            assert_eq!(find(&mut parent, i), root, "image {} disconnected", i);
        }
    }

    #[test]
    fn mosaic_covers_center() {
        let cfg = PipelineConfig::default();
        let fs = MemFs::new();
        for d in ["/raw", "/proj", "/diff", "/corr", "/mosaic"] {
            fs.mkdir(d, 0o755).unwrap();
        }
        write_raws(&fs, &make_raw_images(&cfg)).unwrap();
        m_proj_exec(&fs, &cfg).unwrap();
        let pairs = m_diff_exec(&fs, &cfg).unwrap();
        m_bg_exec(&fs, &cfg, &pairs).unwrap();
        m_add(&fs, &cfg).unwrap();
        let mosaic = read_fits(&fs, MOSAIC).unwrap();
        let c = cfg.mosaic_size / 2;
        assert!(mosaic.get(c, c).is_finite(), "center uncovered");
        // The galaxy makes the center bright.
        assert!(mosaic.get(c, c) > mosaic.min() + 5.0);
    }

    #[test]
    fn footprints_are_within_mosaic() {
        let cfg = PipelineConfig::default();
        let mwcs = mosaic_wcs(&cfg);
        for i in 0..cfg.n_images() {
            let (x0, y0, w, h) = footprint(&raw_wcs(&cfg, i), cfg.raw_size, &mwcs, cfg.mosaic_size);
            assert!(x0 + w <= cfg.mosaic_size);
            assert!(y0 + h <= cfg.mosaic_size);
            assert!(w > 10 && h > 10, "footprint {}x{} too small", w, h);
        }
    }
}
