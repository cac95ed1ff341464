//! The sink layer: streaming tallies and bounded, seed-stable record
//! retention.

use crate::outcome::{Outcome, OutcomeTally};
use crate::rng::Rng;

/// Salt separating the reservoir's RNG stream from the campaign's
/// per-run injection streams (which derive from the same root seed).
const RESERVOIR_SALT: u64 = 0x5EED_0FC0_11EC_7000;

/// Which run indices retain their full record: `None` = keep all;
/// otherwise a boolean mask with exactly `min(keep, total)` bits set,
/// chosen by seeded reservoir sampling (Algorithm R) over
/// `0..total` — a pure function of `(seed, total, keep)`, so the kept
/// set is identical across reruns and parallel schedules (engine law
/// 3) and uniformly representative of the whole campaign.
pub fn reservoir_mask(seed: u64, total: usize, keep: Option<usize>) -> Option<Vec<bool>> {
    let keep = keep?;
    if keep >= total {
        return None;
    }
    let mut rng = Rng::seed_from(seed ^ RESERVOIR_SALT);
    let mut slots: Vec<usize> = (0..keep).collect();
    for i in keep..total {
        let j = rng.gen_range(i as u64 + 1) as usize;
        if j < keep {
            slots[j] = i;
        }
    }
    let mut mask = vec![false; total];
    for i in slots {
        mask[i] = true;
    }
    Some(mask)
}

/// Streaming aggregation of finished runs: the [`OutcomeTally`] folds
/// online, and retained payloads accumulate in index-sorted order. The
/// sink owns the one `no_fire` definition (armed fault never executed
/// *and* the run classified benign) every frontend shares.
pub struct RunSink<R> {
    tally: OutcomeTally,
    kept: Vec<(usize, R)>,
}

impl<R> Default for RunSink<R> {
    fn default() -> Self {
        RunSink { tally: OutcomeTally::new(), kept: Vec::new() }
    }
}

impl<R> RunSink<R> {
    /// Fold one finished run: tally always; retain the payload only
    /// when the plan-time keep mask selected this index.
    pub fn absorb(&mut self, index: usize, outcome: Outcome, fired: bool, payload: Option<R>) {
        if !fired && outcome == Outcome::Benign {
            // A crash before the fire point still counts — mount-time
            // effects are real.
            self.tally.no_fire += 1;
        }
        self.tally.record(outcome);
        if let Some(p) = payload {
            self.kept.push((index, p));
        }
    }

    /// Finish: kept payloads in index order, and the tally.
    pub fn finish(mut self) -> (Vec<R>, OutcomeTally) {
        self.kept.sort_by_key(|(i, _)| *i);
        (self.kept.into_iter().map(|(_, p)| p).collect(), self.tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_all_is_no_mask() {
        assert!(reservoir_mask(1, 10, None).is_none());
        assert!(reservoir_mask(1, 10, Some(10)).is_none());
        assert!(reservoir_mask(1, 10, Some(99)).is_none());
    }

    #[test]
    fn mask_has_exactly_keep_bits_and_is_seed_stable() {
        for keep in [1usize, 3, 7] {
            let a = reservoir_mask(42, 50, Some(keep)).unwrap();
            let b = reservoir_mask(42, 50, Some(keep)).unwrap();
            assert_eq!(a, b, "same seed must choose the same reservoir");
            assert_eq!(a.iter().filter(|&&k| k).count(), keep);
            assert_eq!(a.len(), 50);
        }
        let c = reservoir_mask(43, 50, Some(7)).unwrap();
        assert_ne!(reservoir_mask(42, 50, Some(7)).unwrap(), c, "seed moves the reservoir");
    }

    #[test]
    fn sink_streams_tallies_and_bounds_records() {
        let mut sink: RunSink<&'static str> = RunSink::default();
        sink.absorb(2, Outcome::Sdc, true, None);
        sink.absorb(0, Outcome::Benign, false, Some("kept-0"));
        sink.absorb(1, Outcome::Crash, true, Some("kept-1"));
        let (kept, total) = sink.finish();
        assert_eq!(kept, vec!["kept-0", "kept-1"], "kept payloads sort into index order");
        assert_eq!((total.sdc, total.crash, total.benign), (1, 1, 1));
        assert_eq!(total.no_fire, 1, "no-fire law: unfired + benign");
        assert_eq!(total.total(), 3);
    }
}
