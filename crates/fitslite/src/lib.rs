//! # fitslite — a minimal FITS reader/writer over `ffis-vfs`
//!
//! Montage assembles Flexible Image Transport System (FITS) images
//! into mosaics (paper §IV-C.3). This crate implements the subset the
//! Montage workload exercises: a primary HDU with 80-character header
//! cards in 2880-byte blocks, `BITPIX = -64` (big-endian IEEE doubles)
//! image data, a linear small-angle WCS (`CRVAL/CRPIX/CDELT`), and
//! NaN-blank pixels.
//!
//! The reader validates the mandatory cards (`SIMPLE`, `BITPIX`,
//! `NAXIS*`) and the data length; violations surface as errors — the
//! paper's *crash* class ("for the cases where the target file cannot
//! be created, they are defined as crash").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ffis_vfs::{FileSystem, FileSystemExt};

/// FITS block size: headers and data are padded to this.
pub const FITS_BLOCK: usize = 2880;

/// Card image length.
pub const CARD_LEN: usize = 80;

/// Error type for FITS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitsError(pub String);

impl std::fmt::Display for FitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FITS error: {}", self.0)
    }
}

impl std::error::Error for FitsError {}

impl From<ffis_vfs::FsError> for FitsError {
    fn from(e: ffis_vfs::FsError) -> Self {
        FitsError(format!("I/O failure: {}", e))
    }
}

/// Result alias.
pub type FitsResult<T> = Result<T, FitsError>;

/// Linear small-angle world coordinate system (the TAN projection in
/// its small-field limit): `sky = crval + (pix − crpix) · cdelt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wcs {
    /// Reference RA (degrees).
    pub crval1: f64,
    /// Reference Dec (degrees).
    pub crval2: f64,
    /// Reference pixel x (1-based, FITS convention).
    pub crpix1: f64,
    /// Reference pixel y (1-based).
    pub crpix2: f64,
    /// Degrees per pixel in x.
    pub cdelt1: f64,
    /// Degrees per pixel in y.
    pub cdelt2: f64,
}

impl Wcs {
    /// Pixel (0-based) → sky coordinates.
    pub fn pix_to_sky(&self, x: f64, y: f64) -> (f64, f64) {
        (
            self.crval1 + (x + 1.0 - self.crpix1) * self.cdelt1,
            self.crval2 + (y + 1.0 - self.crpix2) * self.cdelt2,
        )
    }

    /// Sky coordinates → pixel (0-based).
    pub fn sky_to_pix(&self, ra: f64, dec: f64) -> (f64, f64) {
        (
            (ra - self.crval1) / self.cdelt1 + self.crpix1 - 1.0,
            (dec - self.crval2) / self.cdelt2 + self.crpix2 - 1.0,
        )
    }
}

/// An in-memory FITS image (primary HDU, `BITPIX = -64`).
#[derive(Debug, Clone, PartialEq)]
pub struct FitsImage {
    /// Width (NAXIS1).
    pub width: usize,
    /// Height (NAXIS2).
    pub height: usize,
    /// Row-major pixel data (NaN = blank).
    pub data: Vec<f64>,
    /// World coordinate system.
    pub wcs: Wcs,
}

impl FitsImage {
    /// Blank (NaN-filled) image.
    pub fn blank(width: usize, height: usize, wcs: Wcs) -> Self {
        FitsImage { width, height, data: vec![f64::NAN; width * height], wcs }
    }

    /// Pixel accessor (row-major).
    pub fn get(&self, x: usize, y: usize) -> f64 {
        self.data[y * self.width + x]
    }

    /// Mutable pixel accessor.
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        self.data[y * self.width + x] = v;
    }

    /// Bilinear sample at fractional pixel coordinates; NaN outside
    /// bounds or when any contributing pixel is blank.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        if x < 0.0 || y < 0.0 || x > (self.width - 1) as f64 || y > (self.height - 1) as f64 {
            return f64::NAN;
        }
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let fx = x - x0 as f64;
        let fy = y - y0 as f64;
        let v00 = self.get(x0, y0);
        let v10 = self.get(x1, y0);
        let v01 = self.get(x0, y1);
        let v11 = self.get(x1, y1);
        v00 * (1.0 - fx) * (1.0 - fy)
            + v10 * fx * (1.0 - fy)
            + v01 * (1.0 - fx) * fy
            + v11 * fx * fy
    }

    /// Minimum over non-blank pixels (the statistic Montage's final
    /// step reports — the paper's SDC/detected discriminator).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().filter(|v| v.is_finite()).fold(f64::INFINITY, f64::min)
    }

    /// Maximum over non-blank pixels.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().filter(|v| v.is_finite()).fold(f64::NEG_INFINITY, f64::max)
    }
}

/// One 80-byte card image: `KEYWORD = value`, the value right-aligned
/// to 20 columns, or the bare keyword when `value` is empty.
///
/// The value field is bytes 10..80. A value longer than those 70
/// bytes is **cut**, not rejected: the card keeps its first 70 bytes
/// and the reader parses what is left (`f64::MAX` at `{:.10}` reads
/// back as a 70-digit number near 1.8e69). That is pinned behaviour —
/// what analyze computes from a corrupted WCS, and so every digest
/// downstream of one, depends on it — and [`reread`] reproduces it by
/// going through this function.
fn card(key: &str, value: &str) -> [u8; CARD_LEN] {
    debug_assert!(key.len() <= 8 && key.is_ascii() && value.is_ascii());
    let mut c = [b' '; CARD_LEN];
    c[..key.len()].copy_from_slice(key.as_bytes());
    if !value.is_empty() {
        c[8] = b'=';
        let at = 10 + 20usize.saturating_sub(value.len());
        let kept = value.len().min(CARD_LEN - at);
        c[at..at + kept].copy_from_slice(&value.as_bytes()[..kept]);
    }
    c
}

/// Keyword and decimals of the six WCS cards, in header order: ten
/// decimals for sky coordinates and scales, four for pixels.
const WCS_CARDS: [(&str, usize); 6] =
    [("CRVAL1", 10), ("CRVAL2", 10), ("CRPIX1", 4), ("CRPIX2", 4), ("CDELT1", 10), ("CDELT2", 10)];

/// The six WCS cards, in [`WCS_CARDS`] order — the one place their
/// values become text. [`render_fits`] appends them to the header;
/// [`reread`] reads each value back off its card.
fn wcs_cards(wcs: &Wcs) -> [[u8; CARD_LEN]; 6] {
    use std::fmt::Write;
    let values = [wcs.crval1, wcs.crval2, wcs.crpix1, wcs.crpix2, wcs.cdelt1, wcs.cdelt2];
    let mut text = String::new();
    std::array::from_fn(|i| {
        let (key, decimals) = WCS_CARDS[i];
        text.clear();
        write!(text, "{:.*}", decimals, values[i]).expect("writing to a String");
        card(key, &text)
    })
}

/// The writer's one check: the pixel vector fills the declared shape.
fn check_data_len(img: &FitsImage) -> FitsResult<()> {
    if img.data.len() != img.width * img.height {
        return Err(FitsError(format!(
            "data length {} != {}x{}",
            img.data.len(),
            img.width,
            img.height
        )));
    }
    Ok(())
}

/// Serialize an image to FITS bytes.
pub fn render_fits(img: &FitsImage) -> FitsResult<Vec<u8>> {
    check_data_len(img)?;
    let mut header = Vec::with_capacity(FITS_BLOCK);
    let [crval1, crval2, crpix1, crpix2, cdelt1, cdelt2] = wcs_cards(&img.wcs);
    let cards = [
        card("SIMPLE", "T"),
        card("BITPIX", "-64"),
        card("NAXIS", "2"),
        card("NAXIS1", &img.width.to_string()),
        card("NAXIS2", &img.height.to_string()),
        crval1,
        crval2,
        crpix1,
        crpix2,
        cdelt1,
        cdelt2,
        card("CTYPE1", "'RA---TAN'"),
        card("CTYPE2", "'DEC--TAN'"),
        card("END", ""),
    ];
    for c in &cards {
        header.extend_from_slice(c);
    }
    header.resize(FITS_BLOCK * header.len().div_ceil(FITS_BLOCK), b' ');

    let mut out = header;
    for &v in &img.data {
        out.extend_from_slice(&v.to_be_bytes());
    }
    let padded = FITS_BLOCK * out.len().div_ceil(FITS_BLOCK);
    out.resize(padded, 0);
    Ok(out)
}

/// Write an image to the filesystem in stdio-sized (4 KiB) chunks.
pub fn write_fits(fs: &dyn FileSystem, path: &str, img: &FitsImage) -> FitsResult<()> {
    let bytes = render_fits(img)?;
    fs.write_file_chunked(path, &bytes, ffis_vfs::BLOCK_SIZE)?;
    Ok(())
}

/// Hand `f` the value field of a card image as the reader takes it:
/// bytes 10..80, trimmed.
fn with_card_value<T>(c: &[u8], f: impl FnOnce(&str) -> T) -> T {
    f(String::from_utf8_lossy(&c[10..]).trim())
}

fn parse_value(key: &str, value: &str) -> FitsResult<f64> {
    value.parse::<f64>().map_err(|_| FitsError(format!("unparsable {} card", key)))
}

fn parse_card_value(
    cards: &std::collections::HashMap<String, String>,
    key: &str,
) -> FitsResult<f64> {
    parse_value(key, cards.get(key).ok_or_else(|| FitsError(format!("missing {} card", key)))?)
}

/// The reader's shape check on the `NAXIS1` / `NAXIS2` values.
fn check_dimensions(width: i64, height: i64) -> FitsResult<(usize, usize)> {
    if width <= 0 || height <= 0 || width > 1 << 16 || height > 1 << 16 {
        return Err(FitsError(format!("implausible dimensions {}x{}", width, height)));
    }
    Ok((width as usize, height as usize))
}

/// The reader's last step: six parsed WCS values, in [`WCS_CARDS`]
/// order (each an error of its own card), and the `CDELT` check.
fn check_wcs(v: [FitsResult<f64>; 6]) -> FitsResult<Wcs> {
    let [crval1, crval2, crpix1, crpix2, cdelt1, cdelt2] = v;
    let wcs = Wcs {
        crval1: crval1?,
        crval2: crval2?,
        crpix1: crpix1?,
        crpix2: crpix2?,
        cdelt1: cdelt1?,
        cdelt2: cdelt2?,
    };
    if wcs.cdelt1 == 0.0 || wcs.cdelt2 == 0.0 {
        return Err(FitsError("degenerate CDELT".into()));
    }
    Ok(wcs)
}

/// Parse FITS bytes.
pub fn parse_fits(bytes: &[u8]) -> FitsResult<FitsImage> {
    if bytes.len() < FITS_BLOCK {
        return Err(FitsError("file smaller than one FITS block".into()));
    }
    // Walk header cards until END.
    let mut cards = std::collections::HashMap::new();
    let mut pos = 0usize;
    let mut end_found = false;
    'blocks: while pos + FITS_BLOCK <= bytes.len() {
        for i in 0..FITS_BLOCK / CARD_LEN {
            let c = &bytes[pos + i * CARD_LEN..pos + (i + 1) * CARD_LEN];
            let key = String::from_utf8_lossy(&c[..8]).trim().to_string();
            if key == "END" {
                end_found = true;
                pos += FITS_BLOCK;
                break 'blocks;
            }
            if c.len() > 10 && c[8] == b'=' {
                cards.insert(key, with_card_value(c, str::to_string));
            }
        }
        pos += FITS_BLOCK;
    }
    if !end_found {
        return Err(FitsError("END card not found".into()));
    }
    if cards.get("SIMPLE").map(String::as_str) != Some("T") {
        return Err(FitsError("not a standard FITS file (SIMPLE != T)".into()));
    }
    let bitpix = parse_card_value(&cards, "BITPIX")? as i64;
    if bitpix != -64 {
        return Err(FitsError(format!("unsupported BITPIX {}", bitpix)));
    }
    let naxis = parse_card_value(&cards, "NAXIS")? as i64;
    if naxis != 2 {
        return Err(FitsError(format!("unsupported NAXIS {}", naxis)));
    }
    let width = parse_card_value(&cards, "NAXIS1")? as i64;
    let height = parse_card_value(&cards, "NAXIS2")? as i64;
    let (width, height) = check_dimensions(width, height)?;
    let need = width * height * 8;
    if bytes.len() < pos + need {
        return Err(FitsError(format!(
            "data truncated: need {} bytes, have {}",
            need,
            bytes.len() - pos
        )));
    }
    let data = bytes[pos..pos + need]
        .chunks_exact(8)
        .map(|b| f64::from_be_bytes(b.try_into().expect("chunks of 8")))
        .collect();
    let wcs = check_wcs(WCS_CARDS.map(|(key, _)| parse_card_value(&cards, key)))?;
    Ok(FitsImage { width, height, data, wcs })
}

/// What [`parse_fits`] makes of what [`render_fits`] writes for `img`
/// — the image the next stage of a pipeline reads back — without
/// building the bytes: `reread(img)` equals
/// `render_fits(img).and_then(|b| parse_fits(&b))`, errors and their
/// strings included.
///
/// * The pixels are copied: big-endian IEEE there and back is the
///   identity on every bit pattern, NaN payloads included.
/// * Each WCS value goes through the text its card carries (ten
///   decimals, four for `CRPIXn`; right-aligned to 20, cut at 70
///   bytes), then through the reader's trim and parse — this is where a value
///   loses precision, or most of its digits when the text overruns.
/// * Of the reader's error sites only two can fire on bytes the
///   writer wrote, and they fire here in the reader's order, after
///   the writer's own `data length` check: `implausible dimensions`
///   (a side of 0 or above 65,536) and `degenerate CDELT` (an
///   |cdelt| that prints as zero at ten decimals: 4e-11 does, 5e-11
///   does not). The writer always emits one whole
///   header block with `SIMPLE`, `BITPIX`, `NAXIS`, every card the
///   reader asks for and `END`, a data unit of the declared length,
///   and number text Rust's `f64` parser accepts (`NaN`, `inf`, a cut
///   that ends in `.` included), so `smaller than one block`, `END not
///   found`, `SIMPLE`, `BITPIX`, `NAXIS`, `missing`, `unparsable` and
///   `data truncated` cannot.
pub fn reread(img: &FitsImage) -> FitsResult<FitsImage> {
    check_data_len(img)?;
    // `NAXISn` holds the side in decimal and is read as an `f64` cut
    // to `i64`: both conversions round to nearest-even and saturate.
    let (width, height) = check_dimensions(img.width as f64 as i64, img.height as f64 as i64)?;
    let cards = wcs_cards(&img.wcs);
    let wcs = check_wcs(std::array::from_fn(|i| {
        with_card_value(&cards[i], |value| parse_value(WCS_CARDS[i].0, value))
    }))?;
    Ok(FitsImage { width, height, data: img.data.clone(), wcs })
}

/// Read an image from the filesystem.
pub fn read_fits(fs: &dyn FileSystem, path: &str) -> FitsResult<FitsImage> {
    let bytes =
        fs.read_to_vec(path).map_err(|e| FitsError(format!("cannot read {}: {}", path, e)))?;
    parse_fits(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_vfs::MemFs;
    use proptest::prelude::*;

    fn wcs() -> Wcs {
        Wcs {
            crval1: 210.8,
            crval2: 54.35,
            crpix1: 24.5,
            crpix2: 24.5,
            cdelt1: -0.001,
            cdelt2: 0.001,
        }
    }

    fn image() -> FitsImage {
        let mut img = FitsImage::blank(48, 32, wcs());
        for y in 0..32 {
            for x in 0..48 {
                img.set(x, y, 83.0 + x as f64 * 0.1 + y as f64 * 0.01);
            }
        }
        img
    }

    #[test]
    fn roundtrip_through_fs() {
        let fs = MemFs::new();
        let img = image();
        write_fits(&fs, "/m101.fits", &img).unwrap();
        let back = read_fits(&fs, "/m101.fits").unwrap();
        assert_eq!(back.width, 48);
        assert_eq!(back.height, 32);
        assert_eq!(back.data, img.data);
        assert!((back.wcs.crval1 - 210.8).abs() < 1e-9);
        assert!((back.wcs.cdelt1 + 0.001).abs() < 1e-12);
    }

    #[test]
    fn file_is_block_aligned() {
        let fs = MemFs::new();
        write_fits(&fs, "/a.fits", &image()).unwrap();
        let size = fs.getattr("/a.fits").unwrap().size;
        assert_eq!(size % FITS_BLOCK as u64, 0);
    }

    #[test]
    fn nan_blanks_survive() {
        let fs = MemFs::new();
        let mut img = image();
        img.set(3, 3, f64::NAN);
        write_fits(&fs, "/n.fits", &img).unwrap();
        let back = read_fits(&fs, "/n.fits").unwrap();
        assert!(back.get(3, 3).is_nan());
        assert!(back.min().is_finite());
    }

    #[test]
    fn corrupt_simple_card_is_crash() {
        let fs = MemFs::new();
        write_fits(&fs, "/a.fits", &image()).unwrap();
        let mut bytes = fs.read_to_vec("/a.fits").unwrap();
        bytes[0] ^= 0xFF; // SIMPLE keyword
        assert!(parse_fits(&bytes).is_err());
    }

    #[test]
    fn corrupt_naxis_is_crash() {
        let fs = MemFs::new();
        write_fits(&fs, "/a.fits", &image()).unwrap();
        let bytes = fs.read_to_vec("/a.fits").unwrap();
        // Find the NAXIS1 card's value region and damage it.
        let pos = (0..FITS_BLOCK / CARD_LEN)
            .find(|&i| &bytes[i * CARD_LEN..i * CARD_LEN + 6] == b"NAXIS1")
            .unwrap();
        let mut bad = bytes.clone();
        bad[pos * CARD_LEN + 29] = b'X';
        assert!(parse_fits(&bad).is_err());
        // Dimension inflated past the data length -> truncation error.
        let mut bigger = bytes;
        bigger[pos * CARD_LEN + 25] = b'9';
        assert!(parse_fits(&bigger).is_err());
    }

    #[test]
    fn truncated_data_is_crash() {
        let img = image();
        let bytes = render_fits(&img).unwrap();
        assert!(parse_fits(&bytes[..bytes.len() - FITS_BLOCK]).is_err());
        assert!(parse_fits(&bytes[..100]).is_err());
        assert!(parse_fits(b"").is_err());
    }

    #[test]
    fn missing_end_card_is_crash() {
        let mut bytes = render_fits(&image()).unwrap();
        // Overwrite END with spaces.
        for i in 0..FITS_BLOCK / CARD_LEN {
            if &bytes[i * CARD_LEN..i * CARD_LEN + 3] == b"END" {
                bytes[i * CARD_LEN..i * CARD_LEN + 3].copy_from_slice(b"   ");
            }
        }
        assert!(parse_fits(&bytes).is_err());
    }

    #[test]
    fn wcs_roundtrip() {
        let w = wcs();
        let (ra, dec) = w.pix_to_sky(10.0, 20.0);
        let (x, y) = w.sky_to_pix(ra, dec);
        assert!((x - 10.0).abs() < 1e-9);
        assert!((y - 20.0).abs() < 1e-9);
        // Reference pixel maps to reference value (1-based convention).
        let (ra0, dec0) = w.pix_to_sky(w.crpix1 - 1.0, w.crpix2 - 1.0);
        assert!((ra0 - w.crval1).abs() < 1e-12);
        assert!((dec0 - w.crval2).abs() < 1e-12);
    }

    #[test]
    fn bilinear_sampling() {
        let mut img = FitsImage::blank(4, 4, wcs());
        for y in 0..4 {
            for x in 0..4 {
                img.set(x, y, (x + y) as f64);
            }
        }
        assert_eq!(img.sample(1.0, 1.0), 2.0);
        assert!((img.sample(1.5, 1.5) - 3.0).abs() < 1e-12);
        assert!(img.sample(-0.1, 0.0).is_nan());
        assert!(img.sample(3.5, 0.0).is_nan());
    }

    #[test]
    fn min_max_ignore_blanks() {
        let mut img = FitsImage::blank(2, 2, wcs());
        img.set(0, 0, 5.0);
        img.set(1, 1, -3.0);
        assert_eq!(img.min(), -3.0);
        assert_eq!(img.max(), 5.0);
    }

    #[test]
    fn a_card_is_its_format_string_cut_at_80_bytes() {
        let values = ["", "T", "-64", "'RA---TAN'", "-0.0010000000", "NaN", "-inf"];
        let long: Vec<String> =
            [19, 20, 21, 69, 70, 71, 320].map(|n| "1234567890".repeat(32)[..n].into()).into();
        for value in values.into_iter().chain(long.iter().map(String::as_str)) {
            for key in ["END", "NAXIS1", "BITPIX"] {
                let text = if value.is_empty() {
                    key.to_string()
                } else {
                    format!("{:<8}= {:>20}", key, value)
                };
                let mut want = [b' '; CARD_LEN];
                let n = text.len().min(CARD_LEN);
                want[..n].copy_from_slice(&text.as_bytes()[..n]);
                assert_eq!(card(key, value), want, "{key} {value}");
            }
        }
    }

    /// The slow composite [`reread`] replaces — kept as its oracle.
    fn roundtrip(img: &FitsImage) -> FitsResult<FitsImage> {
        render_fits(img).and_then(|b| parse_fits(&b))
    }

    /// `Ok` sides equal bit for bit, `Err` sides equal as errors.
    fn assert_reread_is_roundtrip(img: &FitsImage) -> Result<(), String> {
        let bits = |r: FitsResult<FitsImage>| {
            r.map(|i| {
                let w = i.wcs;
                let wcs = [w.crval1, w.crval2, w.crpix1, w.crpix2, w.cdelt1, w.cdelt2];
                let data: Vec<u64> = i.data.iter().map(|v| v.to_bits()).collect();
                (i.width, i.height, data, wcs.map(f64::to_bits))
            })
        };
        prop_assert_eq!(bits(reread(img)), bits(roundtrip(img)));
        Ok(())
    }

    /// Values that reach every branch of a WCS card's way out and back:
    /// text that overruns the 70-byte value field (and `1e58`, the last
    /// that fits at `{:.10}`), specials, signed zeros, and |cdelt| on
    /// either side of printing as zero.
    const EDGE: [f64; 17] = [
        1e58,
        1e59,
        1e60,
        f64::MAX,
        -1e300,
        1e64,
        1e65,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        4e-11,
        -4e-11,
        5e-11,
        -5e-11,
        f64::MIN_POSITIVE,
    ];

    fn draw_f64(rng: &mut TestRng) -> f64 {
        match rng.next_u64() % 4 {
            0 => EDGE[(rng.next_u64() % EDGE.len() as u64) as usize],
            1 => (rng.unit_f64() - 0.5) * 400.0,
            _ => f64::arbitrary(rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn reread_is_render_then_parse(seed in any::<u64>(), shape in 0u8..8) {
            let rng = &mut TestRng::new(seed);
            let (width, height) = match shape {
                0 => (0, (rng.next_u64() % 4) as usize),
                1 => ((rng.next_u64() % 4) as usize, 0),
                _ => (1 + (rng.next_u64() % 12) as usize, 1 + (rng.next_u64() % 12) as usize),
            };
            // One shape in eight carries a pixel vector of another length.
            let len = if shape == 2 { (rng.next_u64() % 150) as usize } else { width * height };
            let mut v = [0.0; 6];
            v.fill_with(|| draw_f64(rng));
            let wcs = Wcs {
                crval1: v[0], crval2: v[1], crpix1: v[2], crpix2: v[3], cdelt1: v[4], cdelt2: v[5],
            };
            let data = (0..len).map(|_| draw_f64(rng)).collect();
            assert_reread_is_roundtrip(&FitsImage { width, height, data, wcs })?;
        }
    }

    #[test]
    fn reread_fails_where_the_round_trip_fails() {
        let err = |img: &FitsImage| reread(img).unwrap_err().0;
        let mut img = image();
        img.data.pop();
        assert_eq!(err(&img), "data length 1535 != 48x32");
        // The shape check comes before the WCS, as in the reader.
        let bad_wcs = Wcs { cdelt1: 0.0, ..wcs() };
        for (w, h) in [(0, 0), (0, 5), (5, 0), (65_537, 0), ((1 << 53) + 1, 0), (usize::MAX, 0)] {
            let img = FitsImage { width: w, height: h, data: Vec::new(), wcs: bad_wcs };
            assert!(err(&img).starts_with("implausible dimensions"), "{w}x{h}");
            assert_reread_is_roundtrip(&img).unwrap();
        }
        assert_eq!(err(&FitsImage::blank(65_537, 0, wcs())), "implausible dimensions 65537x0");
        assert_eq!(
            err(&FitsImage::blank(usize::MAX, 0, wcs())),
            format!("implausible dimensions {}x0", i64::MAX)
        );
        assert!(reread(&FitsImage::blank(65_536, 1, wcs())).is_ok());
        for cdelt in [0.0, -0.0, 4e-11, -4e-11, f64::MIN_POSITIVE] {
            assert_eq!(
                err(&FitsImage::blank(2, 2, Wcs { cdelt2: cdelt, ..wcs() })),
                "degenerate CDELT"
            );
        }
        assert!(reread(&FitsImage::blank(2, 2, Wcs { cdelt2: 5e-11, ..wcs() })).is_ok());
    }

    #[test]
    fn a_value_past_the_card_is_cut_not_rejected() {
        // Pinned: digests downstream of a corrupted WCS depend on it.
        let back = |v: f64| reread(&FitsImage::blank(1, 1, Wcs { crval1: v, crpix1: v, ..wcs() }));
        // 59 digits + 11 fill the 70 bytes exactly; one more loses a zero.
        assert_eq!(back(1e58).unwrap().wcs.crval1, 1e58);
        assert_eq!(back(1e60).unwrap().wcs.crval1, 1e60);
        // 309 digits, then 300 after a sign: the first 70 bytes are
        // read as a whole number.
        for v in [f64::MAX, -1e300] {
            let text = format!("{:.10}", v);
            assert!(text.len() > 300);
            let cut = back(v).unwrap().wcs;
            assert_eq!(cut.crval1, text[..70].parse::<f64>().unwrap());
            assert_eq!(cut.crpix1, cut.crval1);
        }
        assert!((1.79e69..1.80e69).contains(&back(f64::MAX).unwrap().wcs.crval1));
        assert!((-1.01e68..-0.99e68).contains(&back(-1e300).unwrap().wcs.crval1));
        let nan = back(f64::NAN).unwrap().wcs;
        assert!(nan.crval1.is_nan() && nan.crpix1.is_nan());
        assert_eq!(back(f64::NEG_INFINITY).unwrap().wcs.crpix1, f64::NEG_INFINITY);
        assert!(back(-0.0).unwrap().wcs.crval1.is_sign_negative());
        for v in [1e58, 1e60, f64::MAX, -1e300, f64::NAN, -0.0] {
            assert_reread_is_roundtrip(&FitsImage::blank(
                1,
                1,
                Wcs { crval1: v, crpix1: v, ..wcs() },
            ))
            .unwrap();
        }
    }
}
