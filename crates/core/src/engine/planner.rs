//! The planner layer: per-run strategies resolved up front, plus the
//! wall-clock-optimizing schedule.

use crate::campaign::{ExecutionMode, ReplayFallback};

/// How one scheduled run will execute, resolved at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStrategy {
    /// Checkpointed golden-trace replay: fork checkpoint `checkpoint`
    /// (a position into the trace cache's checkpoint list) and replay
    /// the `suffix_len`-op trace suffix through the armed injector.
    Replay {
        /// Position of the starting snapshot in
        /// `TraceCheckpoints::points()`.
        checkpoint: usize,
        /// Ops left to replay from that snapshot — the run's cost
        /// proxy, which the scheduler sorts ascending.
        suffix_len: usize,
    },
    /// Analyze-only re-execution for an analyze-phase read-site
    /// target: fork the golden post-produce filesystem, pre-seed the
    /// mount's counters with the golden produce-phase counts, and run
    /// only the application's analyze phase with the fault armed. No
    /// trace is replayed at all — the golden state *is* the
    /// checkpoint.
    AnalyzeOnly,
    /// Memoized analyze for an analyze-phase read-site target whose
    /// workload declares analyze sub-steps: fork the golden
    /// post-produce filesystem, pre-seed the counters captured at the
    /// *dirty* sub-step's start, re-run only that sub-step with the
    /// fault armed, and assemble its artifact with the cached golden
    /// artifacts of every clean sub-step (engine law 8).
    IncrementalAnalyze {
        /// Read records the dirty sub-step replays live — the run's
        /// cost proxy, which the scheduler sorts ascending.
        cost: u32,
    },
    /// Full application re-execution, with the recorded reason the
    /// replay fast path did not engage.
    Rerun {
        /// Why this run re-executes instead of replaying.
        reason: ReplayFallback,
    },
}

impl RunStrategy {
    /// Does this run take the replay fast path?
    pub fn is_replay(self) -> bool {
        matches!(self, RunStrategy::Replay { .. })
    }

    /// Does this run skip re-executing the produce phase (replay or
    /// analyze-only)?
    pub fn is_fast(self) -> bool {
        !matches!(self, RunStrategy::Rerun { .. })
    }

    /// Grouping key for checkpoint-shared batch execution: replay
    /// runs forking the same checkpoint batch together so the
    /// checkpoint's fork/mount/preseed setup is amortized
    /// fork-once-replay-many (engine law 9). Non-replay strategies
    /// never batch.
    pub fn batch_key(self) -> Option<usize> {
        match self {
            RunStrategy::Replay { checkpoint, .. } => Some(checkpoint),
            _ => None,
        }
    }

    /// The [`ExecutionMode`] this strategy records on its run result.
    pub fn mode(self) -> ExecutionMode {
        match self {
            RunStrategy::Replay { .. } => ExecutionMode::Replay,
            RunStrategy::AnalyzeOnly => ExecutionMode::AnalyzeOnly,
            RunStrategy::IncrementalAnalyze { .. } => ExecutionMode::IncrementalAnalyze,
            RunStrategy::Rerun { reason } => ExecutionMode::FullRerun { reason },
        }
    }
}

/// One fully planned run: its result slot (`index`), its resolved
/// [`RunStrategy`], and the frontend-specific spec (target instance +
/// injection seed for campaigns, the byte's flip for the metadata
/// scanner) whose random draws were made at plan time.
#[derive(Debug, Clone)]
pub struct PlannedRun<S> {
    /// Result-order position; `plan.runs()[i].index == i` always.
    pub index: usize,
    /// Resolved execution strategy.
    pub strategy: RunStrategy,
    /// Frontend-specific per-run data.
    pub spec: S,
}

/// The complete, immutable plan of a campaign's execution phase.
///
/// `runs` is in result order (law 1: each index exactly once);
/// `schedule` is the execution-order permutation the executor walks.
/// The schedule depends only on the planned strategies — never on
/// `parallel`, thread count, or timing — so plan order is
/// reproducible by construction (law 3).
#[derive(Debug)]
pub struct ExecutionPlan<S> {
    runs: Vec<PlannedRun<S>>,
    schedule: Vec<usize>,
}

impl<S> ExecutionPlan<S> {
    /// Build the plan: validate result ordering and fix the schedule —
    /// fast runs (replay and analyze-only) shortest-work-first (cheap
    /// forks drain the pool densely; analyze-only runs replay no trace
    /// at all and sort ahead of every suffix replay), rerun runs
    /// interleaved proportionally (the expensive re-executions start
    /// early rather than queuing at either end).
    pub fn new(runs: Vec<PlannedRun<S>>) -> Self {
        // Law 1 is load-bearing for slot addressing and the keep mask;
        // validate it in release builds too (O(n), negligible next to
        // the runs themselves).
        assert!(
            runs.iter().enumerate().all(|(i, r)| r.index == i),
            "planned runs must arrive in result order"
        );
        let mut fast: Vec<usize> = Vec::new();
        let mut rerun: Vec<usize> = Vec::new();
        for (i, r) in runs.iter().enumerate() {
            match r.strategy {
                RunStrategy::Replay { .. }
                | RunStrategy::AnalyzeOnly
                | RunStrategy::IncrementalAnalyze { .. } => fast.push(i),
                RunStrategy::Rerun { .. } => rerun.push(i),
            }
        }
        fast.sort_by_key(|&i| match runs[i].strategy {
            RunStrategy::Replay { suffix_len, .. } => (suffix_len, i),
            // An analyze-only run replays zero trace ops; its cost key
            // is the minimum.
            RunStrategy::AnalyzeOnly => (0, i),
            // An incremental-analyze run re-reads only its dirty
            // sub-step; its live read count shares the cost axis with
            // replay suffix lengths.
            RunStrategy::IncrementalAnalyze { cost } => (cost as usize, i),
            RunStrategy::Rerun { .. } => unreachable!("partitioned above"),
        });
        let schedule = interleave(&fast, &rerun);
        ExecutionPlan { runs, schedule }
    }

    /// All planned runs, in result order.
    pub fn runs(&self) -> &[PlannedRun<S>] {
        &self.runs
    }

    /// Execution order: a permutation of `0..runs().len()`.
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// Total scheduled runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Shard a plan of `total` runs across `workers` processes:
/// contiguous, non-overlapping, half-open `[start, end)` ranges that
/// cover `0..total` exactly, longest-first (the first `total % workers`
/// ranges hold one extra run). Empty ranges are never produced —
/// `workers > total` yields `total` singleton ranges — so a
/// coordinator can spawn one worker per returned range without
/// special-casing idle processes.
///
/// Because every run's result is a pure function of its plan-time spec
/// (engine laws 2 and 3), partitioning by index range is *complete*
/// and *disjoint*: merging the per-range journals index-addressed
/// reproduces the single-process campaign byte for byte (law 7).
pub fn index_ranges(total: usize, workers: usize) -> Vec<(usize, usize)> {
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(total);
    let base = total / workers;
    let extra = total % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Proportional two-stream merge: at every position, take from the
/// stream whose progress fraction is behind (ties prefer `a`), so `b`
/// items spread evenly through `a` instead of clumping.
fn interleave(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let take_a = if i >= a.len() {
            false
        } else if j >= b.len() {
            true
        } else {
            // (i+1)/|a| <= (j+1)/|b|  ⇔  (i+1)·|b| <= (j+1)·|a|
            (i + 1) * b.len() <= (j + 1) * a.len()
        };
        if take_a {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(strategies: Vec<RunStrategy>) -> ExecutionPlan<()> {
        let runs = strategies
            .into_iter()
            .enumerate()
            .map(|(index, strategy)| PlannedRun { index, strategy, spec: () })
            .collect();
        ExecutionPlan::new(runs)
    }

    #[test]
    fn schedule_is_a_permutation() {
        let plan = planned(vec![
            RunStrategy::Replay { checkpoint: 0, suffix_len: 10 },
            RunStrategy::Rerun { reason: ReplayFallback::Disabled },
            RunStrategy::Replay { checkpoint: 1, suffix_len: 3 },
            RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault },
            RunStrategy::Replay { checkpoint: 0, suffix_len: 7 },
        ]);
        let mut seen = plan.schedule().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn replay_runs_schedule_shortest_suffix_first() {
        let plan = planned(vec![
            RunStrategy::Replay { checkpoint: 0, suffix_len: 10 },
            RunStrategy::Replay { checkpoint: 1, suffix_len: 3 },
            RunStrategy::Replay { checkpoint: 0, suffix_len: 7 },
        ]);
        assert_eq!(plan.schedule(), &[1, 2, 0]);
    }

    #[test]
    fn reruns_interleave_proportionally() {
        let plan = planned(vec![
            RunStrategy::Replay { checkpoint: 0, suffix_len: 1 },
            RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault },
            RunStrategy::Replay { checkpoint: 0, suffix_len: 2 },
            RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault },
            RunStrategy::Replay { checkpoint: 0, suffix_len: 3 },
            RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault },
        ]);
        // Equal stream lengths alternate, starting with replay.
        assert_eq!(plan.schedule(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn analyze_only_runs_schedule_with_the_fast_class() {
        let plan = planned(vec![
            RunStrategy::Replay { checkpoint: 0, suffix_len: 5 },
            RunStrategy::AnalyzeOnly,
            RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault },
            RunStrategy::AnalyzeOnly,
        ]);
        // Analyze-only runs carry the minimum cost key, so they lead
        // the fast stream (in index order), ahead of suffix replays;
        // the rerun interleaves proportionally.
        assert_eq!(plan.schedule(), &[1, 3, 0, 2]);
        assert!(RunStrategy::AnalyzeOnly.is_fast());
        assert!(!RunStrategy::AnalyzeOnly.is_replay());
        assert!(!RunStrategy::Rerun { reason: ReplayFallback::Disabled }.is_fast());
    }

    #[test]
    fn incremental_analyze_runs_sort_by_live_read_cost() {
        let plan = planned(vec![
            RunStrategy::Replay { checkpoint: 0, suffix_len: 4 },
            RunStrategy::IncrementalAnalyze { cost: 9 },
            RunStrategy::IncrementalAnalyze { cost: 2 },
            RunStrategy::AnalyzeOnly,
            RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault },
        ]);
        // Cost keys: analyze-only 0, then IA cost 2, replay suffix 4,
        // IA cost 9; the single rerun lands after the fast stream has
        // kept proportional pace.
        assert_eq!(plan.schedule(), &[3, 2, 0, 1, 4]);
        assert!(RunStrategy::IncrementalAnalyze { cost: 2 }.is_fast());
        assert!(!RunStrategy::IncrementalAnalyze { cost: 2 }.is_replay());
        assert_eq!(
            RunStrategy::IncrementalAnalyze { cost: 2 }.mode(),
            ExecutionMode::IncrementalAnalyze
        );
    }

    #[test]
    fn all_rerun_plan_keeps_index_order() {
        let plan = planned(vec![RunStrategy::Rerun { reason: ReplayFallback::Disabled }; 4]);
        assert_eq!(plan.schedule(), &[0, 1, 2, 3]);
    }

    #[test]
    fn index_ranges_partition_exactly() {
        for total in [0usize, 1, 2, 5, 64, 192, 193] {
            for workers in [0usize, 1, 2, 3, 7, 200] {
                let ranges = index_ranges(total, workers);
                if total == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), workers.max(1).min(total));
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, total);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                assert!(ranges.iter().all(|&(s, e)| s < e), "no empty range");
                let lens: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "near-even split: {lens:?}");
            }
        }
        assert_eq!(index_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
    }

    #[test]
    fn strategy_mode_mapping() {
        assert_eq!(
            RunStrategy::Replay { checkpoint: 0, suffix_len: 1 }.mode(),
            ExecutionMode::Replay
        );
        assert!(RunStrategy::Replay { checkpoint: 0, suffix_len: 1 }.is_replay());
        assert_eq!(
            RunStrategy::Rerun { reason: ReplayFallback::Disabled }.mode(),
            ExecutionMode::FullRerun { reason: ReplayFallback::Disabled }
        );
    }
}
