//! Friends-of-Friends halo finder (the paper's HALO FINDER post-analysis).
//!
//! "The halo-finder algorithm searches for the halos from all the
//! simulated data, with the following two criteria: (1) the mass of an
//! object(s) must be greater than a threshold (e.g., 81.66 times the
//! average mass of the whole dataset) to become a halo cell candidate,
//! and (2) there must be enough halo cell candidates in a certain area
//! to form a halo." (§V-B)
//!
//! The threshold is *relative to the dataset mean* — the property that
//! drives the paper's entire Nyx outcome taxonomy: a single wildly
//! corrupted cell inflates the mean, scales the threshold past every
//! cell, and yields the "no halos found → detected" case; a uniform
//! power-of-two scale (faulty Exponent Bias) leaves candidacy intact
//! but scales every halo mass (SDC); moderate local damage is simply
//! absorbed (benign).

/// Halo finder parameters.
#[derive(Debug, Clone, Copy)]
pub struct HaloFinderConfig {
    /// Candidate threshold as a multiple of the dataset mean
    /// (paper value: 81.66).
    pub threshold_factor: f64,
    /// Minimum connected candidate cells to form a halo.
    pub min_cells: u32,
}

impl Default for HaloFinderConfig {
    fn default() -> Self {
        HaloFinderConfig { threshold_factor: 81.66, min_cells: 2 }
    }
}

/// One identified halo.
#[derive(Debug, Clone, PartialEq)]
pub struct Halo {
    /// Centre of mass (grid coordinates).
    pub center: [f64; 3],
    /// Number of member cells.
    pub cells: u32,
    /// Total mass (sum of member densities).
    pub mass: f64,
}

/// Full halo-finder result.
#[derive(Debug, Clone)]
pub struct HaloCatalog {
    /// Dataset mean used for the threshold.
    pub mean: f64,
    /// Absolute candidate threshold (`mean × factor`).
    pub threshold: f64,
    /// Number of candidate cells (Figure 6's boxes).
    pub candidate_cells: u64,
    /// Halos, sorted by descending mass then centre (deterministic).
    pub halos: Vec<Halo>,
}

impl HaloCatalog {
    /// Render the catalog in the fixed text format used for bitwise
    /// output comparison (the paper compares halo-finder outputs
    /// byte-for-byte to decide *benign*).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        // Writing into a `String` cannot fail.
        let _ = writeln!(s, "# halos: {}", self.halos.len());
        s.push_str("# id x y z cells mass\n");
        for (i, h) in self.halos.iter().enumerate() {
            let _ = writeln!(
                s,
                "{} {:.6e} {:.6e} {:.6e} {} {:.6e}",
                i, h.center[0], h.center[1], h.center[2], h.cells, h.mass
            );
        }
        s
    }
}

/// Does a cell exceed the threshold? (NaN and ±∞ never do.)
fn is_candidate(v: f64, threshold: f64) -> bool {
    v >= threshold && v.is_finite()
}

/// The candidate mask: true where a cell exceeds the threshold. Used
/// directly for the Figure 6 visualization.
pub fn candidate_mask(values: &[f64], threshold: f64) -> Vec<bool> {
    values.iter().map(|&v| is_candidate(v, threshold)).collect()
}

/// Cells per bitset word, and per block maximum.
const BLOCK: usize = 64;

/// The sum of `values` in index order — bit for bit
/// `values.iter().sum::<f64>()`, whose identity is `-0.0` — and the
/// largest non-NaN value of every [`BLOCK`]-cell block (`-∞` for a
/// block of NaNs). The sum is a dependent chain of additions whose
/// rounding is output and may not be reordered; the maxima are an
/// independent chain per block and cost nothing beside it.
fn sum_and_block_maxima(values: &[f64]) -> (f64, Vec<f64>) {
    let mut sum = -0.0;
    let maxima = values
        .chunks(BLOCK)
        .map(|cells| {
            let mut max = f64::NEG_INFINITY;
            for &v in cells {
                sum += v;
                // False for a NaN `v`: the maximum ignores it.
                if v > max {
                    max = v;
                }
            }
            max
        })
        .collect();
    (sum, maxima)
}

/// [`candidate_mask`] packed [`BLOCK`] cells to a word, cell `i` at bit
/// `i % 64` of word `i / 64`. Only a block whose maximum reaches the
/// threshold is opened, the others get a zero word: `max >= threshold`
/// is false exactly when `v >= threshold` is false for every cell (no
/// non-NaN cell exceeds the maximum, a NaN cell or threshold compares
/// false either way), and then no cell is a candidate. A `+∞` cell
/// opens its block without being one.
fn candidate_bits(values: &[f64], block_maxima: &[f64], threshold: f64) -> Vec<u64> {
    values
        .chunks(BLOCK)
        .zip(block_maxima)
        .map(|(cells, &max)| {
            if max >= threshold {
                cells.iter().enumerate().fold(0u64, |word, (bit, &v)| {
                    word | (u64::from(is_candidate(v, threshold)) << bit)
                })
            } else {
                0
            }
        })
        .collect()
}

/// Run the Friends-of-Friends finder on a `dims[0]×dims[1]×dims[2]`
/// row-major grid (x fastest). 6-connectivity, non-periodic linking.
///
/// Two passes read the grid. The first sums it in index order (the
/// mean's rounding is output) and records each 64-cell block's
/// maximum; the second packs the candidates into a bitset, testing
/// cells only in blocks whose maximum reaches the threshold — at
/// 81.66 × the mean that is 3 blocks in a hundred of a 64³ field, and
/// every block when a fault drives the mean negative. After that work is
/// proportional to the candidates: a set bit is a candidate no
/// component has claimed, seeds are each word's lowest set bit in turn
/// — ascending linear index, the (z, y, x) scan order — and the fill
/// clears what it pushes.
pub fn find_halos(values: &[f64], dims: [usize; 3], cfg: &HaloFinderConfig) -> HaloCatalog {
    let len = dims[0] * dims[1] * dims[2];
    assert_eq!(values.len(), len, "grid/dims mismatch");
    let (sum, block_maxima) = sum_and_block_maxima(values);
    let mean = if len == 0 { 0.0 } else { sum / len as f64 };
    let threshold = mean * cfg.threshold_factor;
    let mut unclaimed = candidate_bits(values, &block_maxima, threshold);
    let candidate_cells = unclaimed.iter().map(|w| u64::from(w.count_ones())).sum();

    let (nx, ny, nz) = (dims[0], dims[1], dims[2]);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut halos: Vec<Halo> = Vec::new();
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();

    for word in 0..unclaimed.len() {
        while unclaimed[word] != 0 {
            // Flood-fill one connected component from the lowest
            // unclaimed candidate, claiming it.
            let i0 = word * 64 + unclaimed[word].trailing_zeros() as usize;
            unclaimed[word] &= unclaimed[word] - 1;
            stack.clear();
            stack.push((i0 % nx, i0 / nx % ny, i0 / (nx * ny)));
            let mut cells = 0u32;
            let mut mass = 0.0f64;
            let mut com = [0.0f64; 3];
            while let Some((cx, cy, cz)) = stack.pop() {
                let v = values[idx(cx, cy, cz)];
                cells += 1;
                mass += v;
                com[0] += v * cx as f64;
                com[1] += v * cy as f64;
                com[2] += v * cz as f64;
                let mut push = |nx_: usize, ny_: usize, nz_: usize| {
                    let ni = idx(nx_, ny_, nz_);
                    let bit = 1u64 << (ni % 64);
                    if unclaimed[ni / 64] & bit != 0 {
                        unclaimed[ni / 64] &= !bit;
                        stack.push((nx_, ny_, nz_));
                    }
                };
                if cx > 0 {
                    push(cx - 1, cy, cz);
                }
                if cx + 1 < nx {
                    push(cx + 1, cy, cz);
                }
                if cy > 0 {
                    push(cx, cy - 1, cz);
                }
                if cy + 1 < ny {
                    push(cx, cy + 1, cz);
                }
                if cz > 0 {
                    push(cx, cy, cz - 1);
                }
                if cz + 1 < nz {
                    push(cx, cy, cz + 1);
                }
            }
            if cells >= cfg.min_cells && mass > 0.0 {
                halos.push(Halo {
                    center: [com[0] / mass, com[1] / mass, com[2] / mass],
                    cells,
                    mass,
                });
            }
        }
    }

    // Deterministic ordering: heaviest first, centre as tiebreak.
    halos.sort_by(|a, b| {
        b.mass
            .partial_cmp(&a.mass)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.center.partial_cmp(&b.center).unwrap_or(std::cmp::Ordering::Equal))
    });
    HaloCatalog { mean, threshold, candidate_cells, halos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform_grid(dims: [usize; 3], v: f64) -> Vec<f64> {
        vec![v; dims[0] * dims[1] * dims[2]]
    }

    #[test]
    fn empty_background_has_no_halos() {
        let g = uniform_grid([8, 8, 8], 1.0);
        let cat = find_halos(&g, [8, 8, 8], &HaloFinderConfig::default());
        assert_eq!(cat.halos.len(), 0);
        assert_eq!(cat.candidate_cells, 0);
        assert!((cat.mean - 1.0).abs() < 1e-12);
        assert!((cat.threshold - 81.66).abs() < 1e-9);
    }

    #[test]
    fn single_blob_found_with_mass_and_center() {
        let dims = [16, 16, 16];
        let mut g = uniform_grid(dims, 1.0);
        let idx = |x: usize, y: usize, z: usize| (z * 16 + y) * 16 + x;
        // A 3-cell line of huge density at (5..8, 6, 7).
        for x in 5..8 {
            g[idx(x, 6, 7)] = 2000.0;
        }
        let cat = find_halos(&g, dims, &HaloFinderConfig::default());
        assert_eq!(cat.candidate_cells, 3);
        assert_eq!(cat.halos.len(), 1);
        let h = &cat.halos[0];
        assert_eq!(h.cells, 3);
        assert!((h.mass - 6000.0).abs() < 1e-6);
        assert!((h.center[0] - 6.0).abs() < 1e-9);
        assert!((h.center[1] - 6.0).abs() < 1e-9);
        assert!((h.center[2] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn min_cells_filters_isolated_candidates() {
        let dims = [8, 8, 8];
        let mut g = uniform_grid(dims, 1.0);
        g[0] = 5000.0; // single isolated candidate
        let cfg = HaloFinderConfig { min_cells: 2, ..Default::default() };
        let cat = find_halos(&g, dims, &cfg);
        assert_eq!(cat.candidate_cells, 1);
        assert_eq!(cat.halos.len(), 0);
        let cfg1 = HaloFinderConfig { min_cells: 1, ..Default::default() };
        assert_eq!(find_halos(&g, dims, &cfg1).halos.len(), 1);
    }

    #[test]
    fn diagonal_cells_are_not_linked() {
        let dims = [8, 8, 8];
        let mut g = uniform_grid(dims, 1.0);
        let idx = |x: usize, y: usize, z: usize| (z * 8 + y) * 8 + x;
        g[idx(2, 2, 2)] = 3000.0;
        g[idx(3, 3, 2)] = 3000.0; // diagonal neighbour
        let cfg = HaloFinderConfig { min_cells: 1, ..Default::default() };
        let cat = find_halos(&g, dims, &cfg);
        assert_eq!(cat.halos.len(), 2, "6-connectivity must not link diagonals");
    }

    #[test]
    fn two_halos_sorted_by_mass() {
        let dims = [16, 16, 16];
        let mut g = uniform_grid(dims, 1.0);
        let idx = |x: usize, y: usize, z: usize| (z * 16 + y) * 16 + x;
        for x in 0..2 {
            g[idx(x, 0, 0)] = 2000.0;
        }
        for x in 8..12 {
            g[idx(x, 8, 8)] = 2000.0;
        }
        let cat = find_halos(&g, dims, &HaloFinderConfig::default());
        assert_eq!(cat.halos.len(), 2);
        assert!(cat.halos[0].mass > cat.halos[1].mass);
        assert_eq!(cat.halos[0].cells, 4);
    }

    #[test]
    fn mean_scaling_preserves_halos_but_scales_mass() {
        // The Exponent-Bias SDC signature (Fig. 5b): a global power-of
        // -two scale leaves locations intact and scales the masses.
        let dims = [16, 16, 16];
        let mut g = uniform_grid(dims, 1.0);
        let idx = |x: usize, y: usize, z: usize| (z * 16 + y) * 16 + x;
        for x in 4..7 {
            g[idx(x, 5, 5)] = 1500.0;
        }
        let base = find_halos(&g, dims, &HaloFinderConfig::default());
        let scaled: Vec<f64> = g.iter().map(|v| v * 4096.0).collect();
        let cat = find_halos(&scaled, dims, &HaloFinderConfig::default());
        assert_eq!(cat.halos.len(), base.halos.len());
        assert_eq!(cat.halos[0].center, base.halos[0].center);
        assert_eq!(cat.halos[0].cells, base.halos[0].cells);
        assert!((cat.halos[0].mass / base.halos[0].mass - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn one_huge_corruption_erases_all_halos() {
        // The BIT FLIP "detected" mechanism: one cell at 2^100 drags
        // the mean (and threshold) past every legitimate halo cell.
        let dims = [16, 16, 16];
        let mut g = uniform_grid(dims, 1.0);
        let idx = |x: usize, y: usize, z: usize| (z * 16 + y) * 16 + x;
        for x in 4..7 {
            g[idx(x, 5, 5)] = 1500.0;
        }
        assert_eq!(find_halos(&g, dims, &HaloFinderConfig::default()).halos.len(), 1);
        g[0] = 2f64.powi(100);
        let cat = find_halos(&g, dims, &HaloFinderConfig::default());
        assert_eq!(cat.halos.len(), 0, "threshold scaled past all cells");
    }

    #[test]
    fn nan_poisoning_yields_no_halos() {
        let dims = [8, 8, 8];
        let mut g = uniform_grid(dims, 1.0);
        g[10] = f64::NAN;
        let cat = find_halos(&g, dims, &HaloFinderConfig::default());
        assert_eq!(cat.halos.len(), 0);
        assert_eq!(cat.candidate_cells, 0);
    }

    #[test]
    fn render_is_deterministic_and_parsable() {
        let dims = [16, 16, 16];
        let mut g = uniform_grid(dims, 1.0);
        for x in 4..7 {
            g[(5 * 16 + 5) * 16 + x] = 1500.0;
        }
        let a = find_halos(&g, dims, &HaloFinderConfig::default()).render();
        let b = find_halos(&g, dims, &HaloFinderConfig::default()).render();
        assert_eq!(a, b);
        assert!(a.starts_with("# halos: 1\n"));
        assert_eq!(a.lines().count(), 3);
    }

    /// The dense finder `find_halos` replaced, kept as its oracle: a
    /// `bool` mask, a separate count pass, a `visited` array and an
    /// O(cells) seed loop in (z, y, x) order.
    fn find_halos_dense(values: &[f64], dims: [usize; 3], cfg: &HaloFinderConfig) -> HaloCatalog {
        let len = dims[0] * dims[1] * dims[2];
        assert_eq!(values.len(), len, "grid/dims mismatch");
        let mean = if len == 0 { 0.0 } else { values.iter().sum::<f64>() / len as f64 };
        let threshold = mean * cfg.threshold_factor;
        let mask = candidate_mask(values, threshold);
        let candidate_cells = mask.iter().filter(|&&m| m).count() as u64;

        let (nx, ny, nz) = (dims[0], dims[1], dims[2]);
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut visited = vec![false; len];
        let mut halos: Vec<Halo> = Vec::new();
        let mut stack: Vec<(usize, usize, usize)> = Vec::new();

        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i0 = idx(x, y, z);
                    if !mask[i0] || visited[i0] {
                        continue;
                    }
                    stack.clear();
                    stack.push((x, y, z));
                    visited[i0] = true;
                    let mut cells = 0u32;
                    let mut mass = 0.0f64;
                    let mut com = [0.0f64; 3];
                    while let Some((cx, cy, cz)) = stack.pop() {
                        let ci = idx(cx, cy, cz);
                        let v = values[ci];
                        cells += 1;
                        mass += v;
                        com[0] += v * cx as f64;
                        com[1] += v * cy as f64;
                        com[2] += v * cz as f64;
                        let mut push = |nx_: usize, ny_: usize, nz_: usize| {
                            let ni = idx(nx_, ny_, nz_);
                            if mask[ni] && !visited[ni] {
                                visited[ni] = true;
                                stack.push((nx_, ny_, nz_));
                            }
                        };
                        if cx > 0 {
                            push(cx - 1, cy, cz);
                        }
                        if cx + 1 < nx {
                            push(cx + 1, cy, cz);
                        }
                        if cy > 0 {
                            push(cx, cy - 1, cz);
                        }
                        if cy + 1 < ny {
                            push(cx, cy + 1, cz);
                        }
                        if cz > 0 {
                            push(cx, cy, cz - 1);
                        }
                        if cz + 1 < nz {
                            push(cx, cy, cz + 1);
                        }
                    }
                    if cells >= cfg.min_cells && mass > 0.0 {
                        halos.push(Halo {
                            center: [com[0] / mass, com[1] / mass, com[2] / mass],
                            cells,
                            mass,
                        });
                    }
                }
            }
        }

        halos.sort_by(|a, b| {
            b.mass
                .partial_cmp(&a.mass)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.center.partial_cmp(&b.center).unwrap_or(std::cmp::Ordering::Equal))
        });
        HaloCatalog { mean, threshold, candidate_cells, halos }
    }

    /// A random grid of one of four kinds, with its threshold factor.
    fn random_grid(kind: u8, len: usize, rng: &mut TestRng) -> (Vec<f64>, f64) {
        let mut draw = |n: u64| rng.next_u64() % n;
        match kind {
            // Plateaus exactly on the threshold. Every cell is a
            // multiple of 1/8, so every sum is exact in any order; the
            // last cell is ballast that makes the mean a multiple of
            // 1/8 too, and the factor a small dyadic, so `threshold`
            // is exact and runs of cells can be set to it — ballast
            // absorbing the difference, going negative if it must.
            0 => {
                let mut g: Vec<f64> = (0..len).map(|_| draw(32) as f64 / 8.0).collect();
                let eighths: u64 = g.iter().map(|v| (v * 8.0) as u64).sum();
                g[len - 1] += ((len as u64 - eighths % len as u64) % len as u64) as f64 / 8.0;
                if eighths == 0 {
                    g[len - 1] += len as f64 / 8.0;
                }
                let mean = g.iter().sum::<f64>() / len as f64;
                let factor = [1.0, 1.5, 2.0, 2.5][draw(4) as usize];
                for _ in 0..draw(4) {
                    let start = draw(len as u64) as usize;
                    for i in start..(start + 1 + draw(5) as usize).min(len - 1) {
                        g[len - 1] += g[i] - mean * factor;
                        g[i] = mean * factor;
                    }
                }
                (g, factor)
            }
            // Finite cells of both signs around a positive mean, then
            // around a negative one (nearly every cell a candidate, and
            // components of non-positive mass rejected).
            1 => ((0..len).map(|_| draw(5000) as f64 / 1000.0 - 1.0).collect(), 1.25),
            2 => ((0..len).map(|_| draw(5000) as f64 / 1000.0 - 4.0).collect(), 0.5),
            // Mostly tame cells with a few arbitrary bit patterns: NaN
            // payloads, infinities, subnormals, huge magnitudes.
            _ => {
                let mut g: Vec<f64> = (0..len).map(|_| draw(4000) as f64 / 1000.0).collect();
                for _ in 0..draw(3) {
                    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300];
                    let v = if draw(2) == 0 {
                        special[draw(5) as usize]
                    } else {
                        f64::from_bits(draw(u64::MAX))
                    };
                    g[draw(len as u64) as usize] = v;
                }
                (g, 1.5)
            }
        }
    }

    /// The packed bitset is `candidate_mask` bit for bit, and a block's
    /// recorded maximum is the largest of its non-NaN cells. Returns
    /// (blocks opened, non-zero words).
    fn assert_bits_equal_mask(grid: &[f64], threshold: f64) -> (usize, usize) {
        let (_, maxima) = sum_and_block_maxima(grid);
        for (cells, &max) in grid.chunks(BLOCK).zip(&maxima) {
            assert_eq!(max, cells.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
        let packed = candidate_bits(grid, &maxima, threshold);
        assert_eq!(packed.len(), grid.len().div_ceil(BLOCK));
        let unpacked: Vec<bool> =
            (0..grid.len()).map(|i| packed[i / 64] >> (i % 64) & 1 == 1).collect();
        assert_eq!(unpacked, candidate_mask(grid, threshold), "threshold {threshold}");
        let tail = grid.len() % BLOCK;
        if tail != 0 {
            assert_eq!(packed[packed.len() - 1] >> tail, 0, "bits past the last cell");
        }
        let opened = maxima.iter().filter(|&&max| max >= threshold).count();
        (opened, packed.iter().filter(|&&word| word != 0).count())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bitset finder returns the dense finder's catalog bit for
        /// bit, and its bitset is `candidate_mask` packed. Lengths run
        /// from under one block to a dozen, most of them multiples of
        /// neither 8 nor 64, so a short last block is the common case.
        #[test]
        fn find_halos_equals_the_dense_finder(
            nx in 1usize..131,
            ny in 1usize..6,
            nz in 1usize..5,
            kind in 0u8..4,
            min_cells in 1u32..=3,
            seed in any::<u64>(),
        ) {
            let dims = [nx, ny, nz];
            let (grid, threshold_factor) = random_grid(kind, nx * ny * nz, &mut TestRng::new(seed));
            let cfg = HaloFinderConfig { threshold_factor, min_cells };
            let (got, want) = (find_halos(&grid, dims, &cfg), find_halos_dense(&grid, dims, &cfg));
            prop_assert_eq!(got.mean.to_bits(), want.mean.to_bits());
            prop_assert_eq!(got.threshold.to_bits(), want.threshold.to_bits());
            prop_assert_eq!(got.candidate_cells, want.candidate_cells);
            let bits = |c: &HaloCatalog| -> Vec<[u64; 5]> {
                c.halos
                    .iter()
                    .map(|h| [h.center[0], h.center[1], h.center[2], f64::from(h.cells), h.mass])
                    .map(|h| h.map(f64::to_bits))
                    .collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got.render(), want.render());

            assert_bits_equal_mask(&grid, got.threshold);
            if kind == 0 {
                // The construction held: the mean is a whole number of
                // eighths, so cells set to the threshold sit on it.
                prop_assert_eq!((got.mean * 8.0).fract(), 0.0);
            }
        }

        /// The sum that rides with the block maxima is the plain
        /// in-order sum (the dense oracle keeps its own), whatever the
        /// magnitudes cancel or absorb and wherever NaN and ±∞ fall.
        #[test]
        fn the_helper_sum_is_the_in_order_sum(len in 0usize..700, seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let grid: Vec<f64> = (0..len)
                .map(|_| match rng.next_u64() % 40 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    k => {
                        let magnitude = 10f64.powi((rng.next_u64() % 61) as i32 - 30);
                        (rng.unit_f64() + 0.5) * magnitude * if k % 2 == 0 { 1.0 } else { -1.0 }
                    }
                })
                .collect();
            // One draw in ten is a special, and past the first NaN the sum
            // is NaN: also the same grid without its specials.
            let finite: Vec<f64> = grid.iter().map(|&v| if v.is_finite() { v } else { 1e-30 }).collect();
            for grid in [&grid, &finite] {
                let (sum, _) = sum_and_block_maxima(grid);
                prop_assert_eq!(sum.to_bits(), grid.iter().sum::<f64>().to_bits());
            }
        }
    }

    #[test]
    fn the_helper_sum_starts_from_the_iterator_s_identity() {
        for grid in [vec![], vec![-0.0; 3], vec![-0.0; 130], vec![0.0; 65]] {
            let (sum, _) = sum_and_block_maxima(&grid);
            assert_eq!(sum.to_bits(), grid.iter().sum::<f64>().to_bits(), "{} cells", grid.len());
        }
    }

    /// Every value a block filter could mishandle, at both ends of a
    /// full block, the start of the next and the end of a short last
    /// one, under every kind of threshold.
    #[test]
    fn candidate_bits_equal_the_mask_at_block_edges_under_any_threshold() {
        let len = 64 * 3 + 5;
        let mut base = vec![1.0f64; len];
        base[70] = 500.0;
        base[len - 2] = 90.0;
        let real = find_halos(&base, [len, 1, 1], &HaloFinderConfig::default()).threshold;
        let places = [0, 63, 64, len - 1];
        for threshold in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.5, 81.66, real] {
            assert_bits_equal_mask(&base, threshold);
            // The first puts the cell exactly on the threshold.
            for special in [threshold, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, -0.0] {
                // One place at a time, then all four at once.
                for at in places.iter().map(std::slice::from_ref).chain([&places[..]]) {
                    // Among ordinary cells, then alone in its block: the
                    // block's maximum is the special itself (-inf for NaN).
                    for mut grid in [base.clone(), vec![f64::NAN; len]] {
                        for &i in at {
                            grid[i] = special;
                        }
                        assert_bits_equal_mask(&grid, threshold);
                    }
                }
            }
        }
    }

    /// The filter is exact when no cell is +inf: a block is opened if
    /// and only if it holds a candidate. On the golden 32^3 field that
    /// is 32 blocks of 512 and on a paper-shaped 64^3 one 113 of 4,096
    /// — the host-independent form of "the second pass reads little".
    #[test]
    fn opened_blocks_are_the_blocks_with_a_candidate() {
        use crate::field::{generate, FieldConfig};
        let golden = FieldConfig::default();
        let paper = FieldConfig { n: 64, sigma: 1.8, ..golden };
        for field in [golden, paper] {
            let grid: Vec<f64> = generate(&field).iter().map(|&v| f64::from(v)).collect();
            let cat = find_halos(&grid, [field.n; 3], &HaloFinderConfig::default());
            let (opened, nonzero) = assert_bits_equal_mask(&grid, cat.threshold);
            assert_eq!(opened, nonzero);
            assert!(cat.candidate_cells > 0 && nonzero as u64 <= cat.candidate_cells);
            let blocks = grid.len() / BLOCK;
            assert!(opened * 10 < blocks, "{opened} of {blocks} blocks opened at n = {}", field.n);
        }
    }

    #[test]
    fn candidate_mask_matches_threshold() {
        let g = [1.0, 100.0, 81.0, 82.0];
        let mask = candidate_mask(&g, 81.66);
        assert_eq!(mask, vec![false, true, false, true]);
    }
}
