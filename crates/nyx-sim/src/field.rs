//! Synthetic baryon-density field generation.
//!
//! Nyx evolves baryonic gas on a 3-D Eulerian mesh; its plotfiles
//! carry a `baryon_density` field whose distribution is close to
//! log-normal (the standard approximation for the cosmic density
//! field) and whose mean is pinned to 1.0 in code units by mass
//! conservation — the invariant the paper's average-value detection
//! method builds on (§V-A).
//!
//! The generator draws a white Gaussian field, smooths it with a
//! separable box filter to introduce the spatial correlation that
//! makes over-densities *clump* (so the Friends-of-Friends finder has
//! halos to find), exponentiates, and normalizes the mean to exactly
//! 1.0 (in f32, matching what the file stores).

use ffis_core::par::*;
use ffis_core::Rng;

/// Field generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FieldConfig {
    /// Grid side length (the field is `n³`).
    pub n: usize,
    /// RNG seed (field is fully determined by the config).
    pub seed: u64,
    /// Log-normal σ — controls how heavy the over-density tail is and
    /// therefore how rare halo-candidate cells are.
    pub sigma: f64,
    /// Box-smoothing passes (each pass averages the 6-neighbourhood).
    pub smooth_passes: usize,
}

impl Default for FieldConfig {
    fn default() -> Self {
        FieldConfig { n: 32, seed: 0x4E59_5821, sigma: 2.2, smooth_passes: 3 }
    }
}

/// Cells per parallel chunk of the element-wise stages (and the least
/// a chunk of smoothing planes holds), so a grid of at most this many
/// cells is built on the calling thread alone.
const CHUNK: usize = 16 * 1024;

/// Generate the baryon-density grid (row-major, `x` fastest).
///
/// The returned values are f32-quantized (the precision the HDF5 file
/// stores) and their f64 mean is ≈ 1.0 to within f32 rounding.
///
/// Every element-wise stage — the normal draw's transcendentals, the
/// smoothing, the `exp` map, the normalize-and-cast — runs on every
/// core. The three sums stay serial in index order: their rounding is
/// part of the output, which is bit-identical to a serial build.
pub fn generate(cfg: &FieldConfig) -> Vec<f32> {
    simulate(cfg, |v| v as f32)
}

/// The field with each normalized f64 cell stored through `store`.
/// Generic so the tests can hold the f64 cells to their oracle: the
/// cast to f32 would hide a last-bit slip in any stage before it.
fn simulate<T>(cfg: &FieldConfig, store: impl Fn(f64) -> T + Sync) -> Vec<T>
where
    T: Copy + Default + Send,
{
    let n = cfg.n;
    let len = n * n * n;
    let mut g = vec![0.0f64; len];
    Rng::seed_from(cfg.seed).fill_normal(&mut g);

    // Separable 6-neighbour smoothing with periodic wrap: correlates
    // nearby cells so threshold crossings form connected clumps.
    let mut tmp = vec![0.0f64; len];
    for _ in 0..cfg.smooth_passes {
        smooth_pass(&g, &mut tmp, n);
        std::mem::swap(&mut g, &mut tmp);
    }

    // Restore unit variance (smoothing shrinks it), then exponentiate.
    let mean_g: f64 = g.iter().sum::<f64>() / len as f64;
    let var_g: f64 = g.iter().map(|v| (v - mean_g) * (v - mean_g)).sum::<f64>() / len as f64;
    let inv_sd = if var_g > 0.0 { 1.0 / var_g.sqrt() } else { 1.0 };

    let mut rho = tmp;
    rho.par_chunks_mut(CHUNK).enumerate().for_each(|(i, out)| {
        for (r, &v) in out.iter_mut().zip(&g[i * CHUNK..]) {
            *r = (cfg.sigma * (v - mean_g) * inv_sd).exp();
        }
    });

    // Mass conservation: normalize the mean to exactly 1 (a division,
    // not a multiply by the reciprocal, which rounds differently).
    let mean_rho: f64 = rho.iter().sum::<f64>() / len as f64;
    let mut field = vec![T::default(); len];
    field.par_chunks_mut(CHUNK).enumerate().for_each(|(i, out)| {
        for (f, &v) in out.iter_mut().zip(&rho[i * CHUNK..]) {
            *f = store(v / mean_rho);
        }
    });
    field
}

/// One smoothing pass: every cell becomes `0.5·c + 0.5·(sum / 6)` over
/// its six periodic neighbours, summed in the order x−1, x+1, y−1,
/// y+1, z−1, z+1. Whole z-planes are split across cores; each `(y, z)`
/// slices its five source rows once, and the wrap is a compare.
fn smooth_pass(src: &[f64], dst: &mut [f64], n: usize) {
    if n == 0 {
        return;
    }
    let below = |v: usize| if v == 0 { n - 1 } else { v - 1 };
    let above = |v: usize| if v == n - 1 { 0 } else { v + 1 };
    let row = |y: usize, z: usize| &src[(z * n + y) * n..][..n];
    let plane = n * n;
    let planes_per_chunk = CHUNK.div_ceil(plane);
    dst.par_chunks_mut(planes_per_chunk * plane).enumerate().for_each(|(i, planes)| {
        for (dz, out_plane) in planes.chunks_exact_mut(plane).enumerate() {
            let z = i * planes_per_chunk + dz;
            for (y, out) in out_plane.chunks_exact_mut(n).enumerate() {
                let c = row(y, z);
                let (y_lo, y_hi) = (row(below(y), z), row(above(y), z));
                let (z_lo, z_hi) = (row(y, below(z)), row(y, above(z)));
                for (x, cell) in out.iter_mut().enumerate() {
                    let sum = c[below(x)] + c[above(x)] + y_lo[x] + y_hi[x] + z_lo[x] + z_hi[x];
                    *cell = 0.5 * c[x] + 0.5 * (sum / 6.0);
                }
            }
        }
    });
}

/// Mean of an f32 field in f64.
pub fn mean(values: &[f32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial generator the parallel one replaced, kept verbatim
    /// as its oracle up to its last line, the cast to f32
    /// (`rho.iter().map(|&v| v as f32).collect()`).
    fn density_reference(cfg: &FieldConfig) -> Vec<f64> {
        let n = cfg.n;
        let len = n * n * n;
        let mut rng = Rng::seed_from(cfg.seed);
        let mut g: Vec<f64> = (0..len).map(|_| rng.normal()).collect();

        // Separable 6-neighbour smoothing with periodic wrap: correlates
        // nearby cells so threshold crossings form connected clumps.
        let mut tmp = vec![0.0f64; len];
        for _ in 0..cfg.smooth_passes {
            smooth_pass_reference(&g, &mut tmp, n);
            std::mem::swap(&mut g, &mut tmp);
        }

        // Restore unit variance (smoothing shrinks it), then exponentiate.
        let mean_g: f64 = g.iter().sum::<f64>() / len as f64;
        let var_g: f64 = g.iter().map(|v| (v - mean_g) * (v - mean_g)).sum::<f64>() / len as f64;
        let inv_sd = if var_g > 0.0 { 1.0 / var_g.sqrt() } else { 1.0 };

        let mut rho: Vec<f64> =
            g.iter().map(|&v| (cfg.sigma * (v - mean_g) * inv_sd).exp()).collect();

        // Mass conservation: normalize the mean to exactly 1.
        let mean_rho: f64 = rho.iter().sum::<f64>() / len as f64;
        for v in &mut rho {
            *v /= mean_rho;
        }
        rho
    }

    fn smooth_pass_reference(src: &[f64], dst: &mut [f64], n: usize) {
        let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
        let wrap =
            |v: usize, d: isize| -> usize { ((v as isize + d).rem_euclid(n as isize)) as usize };
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let c = src[idx(x, y, z)];
                    let sum = src[idx(wrap(x, -1), y, z)]
                        + src[idx(wrap(x, 1), y, z)]
                        + src[idx(x, wrap(y, -1), z)]
                        + src[idx(x, wrap(y, 1), z)]
                        + src[idx(x, y, wrap(z, -1))]
                        + src[idx(x, y, wrap(z, 1))];
                    dst[idx(x, y, z)] = 0.5 * c + 0.5 * (sum / 6.0);
                }
            }
        }
    }

    /// Both the stored f32 field and the f64 cells it is cast from are
    /// the serial generator's, bit for bit.
    #[test]
    fn the_parallel_field_is_the_serial_field() {
        let bits32 = |f: &[f32]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let bits64 = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 2, 3, 7, 16, 31, 33, 48, 96] {
            for seed in [0x4E59_5821, 7, 0xFFFF_FFFF_FFFF_FFFF] {
                for smooth_passes in [0, 1, 3] {
                    for sigma in [2.2, 1.8] {
                        let cfg = FieldConfig { n, seed, sigma, smooth_passes };
                        let density = density_reference(&cfg);
                        assert_eq!(bits64(&simulate(&cfg, |v| v)), bits64(&density), "{:?}", cfg);
                        let stored: Vec<f32> = density.iter().map(|&v| v as f32).collect();
                        assert_eq!(bits32(&generate(&cfg)), bits32(&stored), "{:?}", cfg);
                    }
                }
            }
        }
    }

    #[test]
    fn mean_is_one_by_mass_conservation() {
        let f = generate(&FieldConfig::default());
        let m = mean(&f);
        assert!((m - 1.0).abs() < 1e-5, "mean = {}", m);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&FieldConfig::default());
        let b = generate(&FieldConfig::default());
        assert_eq!(a, b);
        let c = generate(&FieldConfig { seed: 999, ..FieldConfig::default() });
        assert_ne!(a, c);
    }

    #[test]
    fn all_positive_and_finite() {
        let f = generate(&FieldConfig::default());
        assert!(f.iter().all(|&v| v.is_finite() && v > 0.0));
    }

    #[test]
    fn overdensity_tail_exists_but_is_rare() {
        // The halo threshold is 81.66 × mean; candidate cells must
        // exist (halos to find) but be rare (so torn 512-byte windows
        // rarely touch one — the paper's Nyx SHORN WRITE = benign).
        let cfg = FieldConfig { n: 48, ..FieldConfig::default() };
        let f = generate(&cfg);
        let m = mean(&f);
        let candidates = f.iter().filter(|&&v| (v as f64) >= 81.66 * m).count();
        let frac = candidates as f64 / f.len() as f64;
        assert!(candidates > 0, "no halo candidates at all");
        assert!(frac < 0.005, "candidate fraction {} too high", frac);
    }

    #[test]
    fn smoothing_creates_spatial_correlation() {
        let cfg = FieldConfig::default();
        let f = generate(&cfg);
        let n = cfg.n;
        let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
        // Correlation between neighbours should beat distant pairs.
        let mut num_nb = 0.0;
        let mut num_far = 0.0;
        let mut count = 0.0;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n - 1 {
                    let a = (f[idx(x, y, z)] as f64).ln();
                    let b = (f[idx(x + 1, y, z)] as f64).ln();
                    let c = (f[idx((x + n / 2) % n, y, z)] as f64).ln();
                    num_nb += a * b;
                    num_far += a * c;
                    count += 1.0;
                }
            }
        }
        assert!(num_nb / count > num_far / count, "no neighbour correlation");
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }
}
