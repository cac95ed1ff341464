//! Deterministic pseudo-random number generation.
//!
//! Fault-injection campaigns must be *replayable*: given a seed, the
//! same runs select the same write instances, bit positions and
//! walker moves on every platform and every rerun (the paper repeats
//! 1,000-run campaigns and reports 95% confidence intervals; debugging
//! a single SDC case requires replaying exactly that case). We
//! therefore carry our own small generator rather than depend on an
//! external crate whose stream might change across versions:
//! xoshiro256++ (Blackman & Vigna) seeded via SplitMix64, the standard
//! pairing recommended by the algorithm authors.

use rayon::prelude::*;

/// Box–Muller pairs per parallel chunk of [`Rng::fill_normal`].
const NORMAL_CHUNK_PAIRS: usize = 8 * 1024;

/// SplitMix64 — used to expand a 64-bit seed into generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// New stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workhorse generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Seed deterministically from a single `u64`.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s, gauss_spare: None }
    }

    /// Derive an independent child stream (run `i` of a campaign).
    pub fn child(&self, i: u64) -> Rng {
        // Wash the child index through its own SplitMix64 stream before
        // mixing with the parent state, so consecutive indices yield
        // well-separated seeds.
        let washed = {
            let mut sm = SplitMix64::new(i);
            sm.next_u64() ^ sm.next_u64().rotate_left(31)
        };
        let mut sm = SplitMix64::new(self.s[0] ^ self.s[1].rotate_left(17) ^ washed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        Rng { s, gauss_spare: None }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift with a
    /// rejection step to avoid modulo bias. Panics when `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0) is meaningless");
        // 128-bit multiply-high technique.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate (Box–Muller, caching the spare value).
    // Inlined into callers in other crates: QMC draws one per walker
    // coordinate and Montage one per sky pixel.
    #[inline]
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let u1 = self.box_muller_u1();
        let u2 = self.next_f64();
        let (z, spare) = box_muller(u1, u2);
        self.gauss_spare = Some(spare);
        z
    }

    /// Fill `out` with exactly what `out.len()` successive [`normal`]
    /// calls would return, leaving the generator (spare included) where
    /// they would. The uniforms are drawn serially, in stream order,
    /// into the output slots themselves; the transcendentals then run on
    /// every core.
    ///
    /// [`normal`]: Rng::normal
    pub fn fill_normal(&mut self, mut out: &mut [f64]) {
        if let Some(z) = self.gauss_spare {
            let Some((first, rest)) = out.split_first_mut() else { return };
            *first = z;
            self.gauss_spare = None;
            out = rest;
        }
        let (pairs, odd) = out.split_at_mut(out.len() & !1);
        for pair in pairs.chunks_exact_mut(2) {
            pair[0] = self.box_muller_u1();
            pair[1] = self.next_f64();
        }
        pairs.par_chunks_mut(2 * NORMAL_CHUNK_PAIRS).enumerate().for_each(|(_, chunk)| {
            for pair in chunk.chunks_exact_mut(2) {
                (pair[0], pair[1]) = box_muller(pair[0], pair[1]);
            }
        });
        if let [last] = odd {
            *last = self.normal();
        }
    }

    /// The first uniform of a Box–Muller pair, redrawn until it is far
    /// enough from 0 that its log is finite.
    #[inline]
    fn box_muller_u1(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(slice.len() as u64) as usize])
        }
    }
}

/// The Box–Muller transform of one uniform pair: `(r·cos θ, r·sin θ)`,
/// the deviate [`Rng::normal`] returns and the spare it caches. The one
/// definition both [`Rng::normal`] and [`Rng::fill_normal`] call.
#[inline]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn child_streams_are_independent_and_deterministic() {
        let root = Rng::seed_from(7);
        let mut c1 = root.child(1);
        let mut c1b = root.child(1);
        let mut c2 = root.child(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        let x1 = c1.next_u64();
        let x2 = c2.next_u64();
        assert_ne!(x1, x2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = Rng::seed_from(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.gen_range(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn gen_range_uniformity_chi_square() {
        let mut r = Rng::seed_from(5);
        const K: usize = 10;
        const N: usize = 100_000;
        let mut counts = [0usize; K];
        for _ in 0..N {
            counts[r.gen_range(K as u64) as usize] += 1;
        }
        let expected = N as f64 / K as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 9 degrees of freedom; 99.9th percentile ≈ 27.88.
        assert!(chi2 < 27.88, "chi2 = {}", chi2);
    }

    #[test]
    #[should_panic]
    fn gen_range_zero_panics() {
        Rng::seed_from(0).gen_range(0);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from(9);
        const N: usize = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..N {
            let z = r.normal();
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / N as f64;
        let var = sum2 / N as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {}", mean);
        assert!((var - 1.0).abs() < 0.02, "var = {}", var);
    }

    #[test]
    fn a_bulk_draw_is_successive_draws() {
        let lengths = (0..=9).chain([4_097, 100_001]);
        for (len, spare_on_entry) in lengths.flat_map(|len| [(len, false), (len, true)]) {
            let mut bulk = Rng::seed_from(0xB0C5 + len as u64);
            if spare_on_entry {
                bulk.normal();
            }
            let mut serial = bulk.clone();
            let mut got = vec![f64::NAN; len];
            bulk.fill_normal(&mut got);
            let want: Vec<f64> = (0..len).map(|_| serial.normal()).collect();
            let bits = |v: &[f64]| v.iter().map(|z| z.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "len {} spare {}", len, spare_on_entry);
            assert_eq!(bulk, serial, "state after len {} spare {}", len, spare_on_entry);
            assert_eq!(bulk.normal().to_bits(), serial.normal().to_bits());
            assert_eq!(bulk.next_u64(), serial.next_u64());
        }
    }

    #[test]
    fn normal_with_scales() {
        let mut r = Rng::seed_from(13);
        const N: usize = 50_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..N {
            let z = r.normal_with(10.0, 2.0);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / N as f64;
        let var = sum2 / N as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "seed 17 should move something");
    }

    #[test]
    fn choose_behaviour() {
        let mut r = Rng::seed_from(23);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let one = [42u8];
        assert_eq!(r.choose(&one), Some(&42));
        let many = [1u8, 2, 3];
        for _ in 0..100 {
            assert!(many.contains(r.choose(&many).unwrap()));
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 from the reference implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn uniform_range() {
        let mut r = Rng::seed_from(29);
        for _ in 0..1000 {
            let x = r.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(31);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
