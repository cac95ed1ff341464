//! The executor layer: one serial/parallel fan-out shared by every
//! campaign frontend.

use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use super::control::{CancelToken, CompletionStatus};
use super::planner::{ExecutionPlan, PlannedRun};
use super::sink::{reservoir_mask, RunSink};
use crate::outcome::{Outcome, OutcomeTally};

/// Execution knobs shared by every frontend.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Fan the schedule out across the rayon thread pool.
    pub parallel: bool,
    /// Retain at most this many full run records (`None` = all). The
    /// kept set is a seed-stable reservoir chosen at plan time;
    /// tallies always cover every run.
    pub keep_runs: Option<usize>,
    /// Seed the reservoir derives from (the campaign's root seed).
    pub keep_seed: u64,
}

/// What a frontend's run function hands back to the engine: the
/// classification the sink tallies, whether the armed fault fired (the
/// `no_fire` law input), and the full record — which the executor
/// drops *immediately, inside the worker* unless the reservoir keeps
/// this index, so per-run record memory never accumulates past the
/// keep bound.
pub struct RunRecord<R> {
    /// Classified outcome of the run.
    pub outcome: Outcome,
    /// Did the armed injector fire?
    pub fired: bool,
    /// The frontend's full run record.
    pub payload: R,
}

/// Aggregated engine output.
#[derive(Debug, Clone)]
pub struct EngineResult<R> {
    /// Retained run records, in run-index order; bounded by
    /// [`EngineConfig::keep_runs`].
    pub kept: Vec<R>,
    /// Tally over *all* completed runs (kept or not).
    pub tally: OutcomeTally,
    /// Total runs in the plan.
    pub scheduled: usize,
    /// Runs actually executed by this invocation (excludes resumed
    /// and cancellation-skipped runs) — the resume-law tests assert
    /// journaled runs are *not* re-executed through this counter.
    pub executed: usize,
    /// Runs replayed from a journal at cost 0.
    pub resumed: usize,
    /// Did the plan drain fully, or did cancellation stop it early?
    pub status: CompletionStatus,
}

/// One run's contribution as it lands, streamed to
/// [`Durability::observe`] — the event feed the daemon's NDJSON
/// `/jobs/:id/stream` endpoint and live tally counters hang off.
///
/// Observation is a tap on the sink layer, not part of it: the engine
/// emits exactly one event per plan index (resumed indices included,
/// so a subscriber's event-derived tally matches the final
/// [`OutcomeTally`] even across a resume) and never lets the observer
/// alter what the sink absorbs.
pub struct RunEvent<'a, R> {
    /// Plan index of the run.
    pub index: usize,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Did the armed injector fire?
    pub fired: bool,
    /// `true` when the result was replayed from a journal at cost 0
    /// rather than executed by this invocation.
    pub resumed: bool,
    /// The frontend's full run record (borrowed; dropped records are
    /// observable even when the reservoir does not keep them).
    pub payload: &'a R,
}

/// Durability hooks for [`execute_durable`]: journaled results to
/// replay, a cooperative cancel token, a persistence callback, and a
/// run-event observer.
///
/// The engine stays serialization-agnostic — the frontend decodes its
/// journal into `resumed` and encodes each completed run inside
/// `persist` (typically appending to a `Mutex<RunJournal>`; the
/// parallel fan-out calls it from worker threads).
pub struct Durability<'a, R> {
    /// Journal-recovered results keyed by plan index. These indices
    /// are *not* re-executed: their results feed the sink directly,
    /// which is sound because a run's result depends only on its
    /// plan-time spec (engine laws 2 and 3).
    pub resumed: HashMap<usize, (Outcome, bool, R)>,
    /// Cooperative cancellation, checked before each run starts.
    pub cancel: Option<&'a CancelToken>,
    /// Called once per *executed* run, from the worker that ran it,
    /// before the run counts as complete.
    #[allow(clippy::type_complexity)]
    pub persist: Option<&'a (dyn Fn(usize, Outcome, bool, &R) + Sync)>,
    /// Called once per plan index: for resumed indices up front (in
    /// index order, before any pending run executes), then for each
    /// executed run from the worker that ran it, after `persist`.
    #[allow(clippy::type_complexity)]
    pub observe: Option<&'a (dyn Fn(RunEvent<'_, R>) + Sync)>,
    /// Restrict execution to the half-open plan-index range `[start,
    /// end)` — one fan-out worker's shard of a distributed campaign
    /// (engine law 7). Indices outside the range are neither executed
    /// nor resumed, and completion is judged against the range: the
    /// result is [`CompletionStatus::Complete`] when every *in-range*
    /// index landed, so a worker's partial sink reports honestly while
    /// the coordinator owns the whole-plan merge. `None` = the whole
    /// plan (the single-process default).
    pub index_range: Option<(usize, usize)>,
}

impl<R> Default for Durability<'_, R> {
    fn default() -> Self {
        Durability {
            resumed: HashMap::new(),
            cancel: None,
            persist: None,
            observe: None,
            index_range: None,
        }
    }
}

/// What one executed run contributes to the sink — `(index, outcome,
/// fired, kept payload)` — or `None` when cancellation tripped before
/// the run started.
type RunSummary<R> = Option<(usize, Outcome, bool, Option<R>)>;

/// Execute every planned run — in schedule order serially, fanned out
/// over the schedule in parallel — and stream the results through the
/// sink. `run_fn` receives each [`PlannedRun`] exactly once; results
/// land in index-addressed slots, so serial and parallel execution are
/// byte-identical (engine law 3).
pub fn execute<S, R, F>(plan: &ExecutionPlan<S>, cfg: &EngineConfig, run_fn: F) -> EngineResult<R>
where
    S: Sync,
    R: Send,
    F: Fn(&PlannedRun<S>) -> RunRecord<R> + Sync,
{
    execute_durable(plan, cfg, Durability::default(), run_fn)
}

/// [`execute`] with durability: resume journaled indices at cost 0,
/// persist each completed run, and stop early (between runs) on
/// cancellation — the engine's half of the resume law (engine law 6).
pub fn execute_durable<S, R, F>(
    plan: &ExecutionPlan<S>,
    cfg: &EngineConfig,
    durability: Durability<'_, R>,
    run_fn: F,
) -> EngineResult<R>
where
    S: Sync,
    R: Send,
    F: Fn(&PlannedRun<S>) -> RunRecord<R> + Sync,
{
    execute_durable_batched(
        plan,
        cfg,
        durability,
        |_| None::<()>,
        |_| None::<()>,
        |pr, _ctx| run_fn(pr),
    )
}

/// Shared per-batch context for runs grouped under one batch key.
///
/// The context is built lazily by whichever member executes first
/// (single-flighted under the slot mutex) and dropped as soon as the
/// last member finishes, so batch state never outlives its batch.
struct BatchSlot<B> {
    /// Plan indices of the member runs, in schedule order.
    members: Vec<usize>,
    /// `(built, context)`: `built` distinguishes "not yet attempted"
    /// from "attempted and declined" (`make_batch` returned `None`).
    ctx: Mutex<(bool, Option<Arc<B>>)>,
    /// Members still to finish; the context is freed at zero.
    remaining: AtomicUsize,
}

/// [`execute_durable`] with checkpoint-grouped batch execution
/// (engine law 9): runs whose `batch_key` matches share one lazily
/// built context (e.g. a replay batch that advances a trace
/// checkpoint once and forks per-target mini-snapshots), amortizing
/// per-checkpoint setup fork-once-replay-many.
///
/// Batching changes *nothing observable*: the schedule, the result
/// slots, and every run's record are identical to the unbatched
/// execution — `run_fn` must produce the same [`RunRecord`] whether
/// its context is `Some` (the batch engaged) or `None` (`batch_key`
/// returned `None`, `make_batch` declined, or the run is a batch of
/// one). Grouping is computed over the *pending* runs only, so a
/// resumed or range-restricted invocation groups exactly the runs it
/// will execute.
pub fn execute_durable_batched<S, R, B, BK, KF, MF, F>(
    plan: &ExecutionPlan<S>,
    cfg: &EngineConfig,
    durability: Durability<'_, R>,
    batch_key: KF,
    make_batch: MF,
    run_fn: F,
) -> EngineResult<R>
where
    S: Sync,
    R: Send,
    B: Send + Sync,
    BK: std::hash::Hash + Eq,
    KF: Fn(&PlannedRun<S>) -> Option<BK>,
    MF: Fn(&[usize]) -> Option<B> + Sync,
    F: Fn(&PlannedRun<S>, Option<&B>) -> RunRecord<R> + Sync,
{
    let Durability { mut resumed, cancel, persist, observe, index_range } = durability;
    let in_range =
        |index: usize| index_range.is_none_or(|(start, end)| index >= start && index < end);
    // A journal can only hold indices of the plan it fingerprints,
    // but a decoded index is still external input: drop any that
    // cannot address a slot rather than panicking on it. A fan-out
    // worker additionally ignores journaled results outside its shard
    // — they belong to (and are re-merged by) the coordinator.
    resumed.retain(|&index, _| index < plan.len() && in_range(index));

    // Resumed indices are observed first, in index order: a stream
    // subscriber sees the journal-recovered prefix before any newly
    // executed run, so its event-derived tally converges on the final
    // one regardless of where the previous process died.
    if let Some(observe) = observe {
        let mut journaled: Vec<usize> = resumed.keys().copied().collect();
        journaled.sort_unstable();
        for index in journaled {
            let (outcome, fired, payload) = &resumed[&index];
            observe(RunEvent { index, outcome: *outcome, fired: *fired, resumed: true, payload });
        }
    }
    let keep = reservoir_mask(cfg.keep_seed, plan.len(), cfg.keep_runs);
    let keep_index = |index: usize| keep.as_ref().is_none_or(|m| m[index]);

    // Pending = schedule order minus the journal-recovered indices,
    // restricted to this worker's shard of the plan.
    let pending: Vec<usize> = plan
        .schedule()
        .iter()
        .copied()
        .filter(|&pos| {
            let index = plan.runs()[pos].index;
            in_range(index) && !resumed.contains_key(&index)
        })
        .collect();

    // Group the pending runs into batch slots. Only groups of two or
    // more get a slot: a batch of one amortizes nothing, so it runs
    // the classic per-run path.
    let mut groups: HashMap<BK, Vec<usize>> = HashMap::new();
    for &pos in &pending {
        let pr = &plan.runs()[pos];
        if let Some(key) = batch_key(pr) {
            groups.entry(key).or_default().push(pr.index);
        }
    }
    let mut slots: Vec<BatchSlot<B>> = Vec::new();
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    for (_, members) in groups {
        if members.len() < 2 {
            continue;
        }
        for &index in &members {
            slot_of.insert(index, slots.len());
        }
        let remaining = AtomicUsize::new(members.len());
        slots.push(BatchSlot { members, ctx: Mutex::new((false, None)), remaining });
    }

    // `None` = skipped because cancellation tripped before the run
    // started; the run is simply absent from the sink.
    let exec_one = |pos: &usize| -> RunSummary<R> {
        if cancel.is_some_and(|c| !c.try_start_run()) {
            return None;
        }
        let pr = &plan.runs()[*pos];
        let slot = slot_of.get(&pr.index).map(|&si| &slots[si]);
        let ctx: Option<Arc<B>> = slot.and_then(|slot| {
            let mut g = slot.ctx.lock().unwrap_or_else(|e| e.into_inner());
            if !g.0 {
                g.0 = true;
                g.1 = make_batch(&slot.members).map(Arc::new);
            }
            g.1.clone()
        });
        let rec = run_fn(pr, ctx.as_deref());
        drop(ctx);
        if let Some(slot) = slot {
            // Last member out frees the batch context immediately
            // instead of letting it live to the end of the plan.
            if slot.remaining.fetch_sub(1, std::sync::atomic::Ordering::AcqRel) == 1 {
                slot.ctx.lock().unwrap_or_else(|e| e.into_inner()).1 = None;
            }
        }
        if let Some(persist) = persist {
            persist(pr.index, rec.outcome, rec.fired, &rec.payload);
        }
        if let Some(observe) = observe {
            observe(RunEvent {
                index: pr.index,
                outcome: rec.outcome,
                fired: rec.fired,
                resumed: false,
                payload: &rec.payload,
            });
        }
        // The keep decision happens here, in the worker: a dropped
        // record frees its buffers before the next run starts.
        let payload = if keep_index(pr.index) { Some(rec.payload) } else { None };
        Some((pr.index, rec.outcome, rec.fired, payload))
    };
    let summaries: Vec<RunSummary<R>> = if cfg.parallel {
        pending.par_iter().map(exec_one).collect()
    } else {
        pending.iter().map(exec_one).collect()
    };

    let mut sink = RunSink::default();
    let scheduled = plan.len();
    let resumed_count = resumed.len();
    for (index, (outcome, fired, payload)) in resumed {
        sink.absorb(index, outcome, fired, keep_index(index).then_some(payload));
    }
    let mut executed = 0usize;
    for (index, outcome, fired, payload) in summaries.into_iter().flatten() {
        executed += 1;
        sink.absorb(index, outcome, fired, payload);
    }
    // Completion is judged against what this invocation was asked to
    // cover: the whole plan, or one worker's index range.
    let target = match index_range {
        Some((start, end)) => end.min(plan.len()).saturating_sub(start.min(plan.len())),
        None => scheduled,
    };
    let status = if executed + resumed_count == target {
        CompletionStatus::Complete
    } else {
        CompletionStatus::Interrupted
    };
    let (kept, tally) = sink.finish();
    EngineResult { kept, tally, scheduled, executed, resumed: resumed_count, status }
}

#[cfg(test)]
mod tests {
    use super::super::planner::RunStrategy;
    use super::*;
    use crate::campaign::ReplayFallback;

    fn plan(n: usize) -> ExecutionPlan<u64> {
        let runs = (0..n)
            .map(|index| PlannedRun {
                index,
                // Reverse suffix lengths so the schedule differs from
                // index order — exercising slot addressing — over three
                // checkpoints, so batching has several groups to form.
                strategy: if index % 2 == 0 {
                    RunStrategy::Replay { checkpoint: index % 3, suffix_len: n - index }
                } else {
                    RunStrategy::Rerun { reason: ReplayFallback::ProduceReadFault }
                },
                spec: index as u64 * 10,
            })
            .collect();
        ExecutionPlan::new(runs)
    }

    fn run_one(pr: &PlannedRun<u64>) -> RunRecord<(usize, u64)> {
        let outcome = match pr.index % 4 {
            0 => Outcome::Benign,
            1 => Outcome::Detected,
            2 => Outcome::Sdc,
            _ => Outcome::Crash,
        };
        RunRecord { outcome, fired: !pr.index.is_multiple_of(5), payload: (pr.index, pr.spec) }
    }

    #[test]
    fn serial_equals_parallel_and_results_are_index_ordered() {
        let p = plan(23);
        let mk = |parallel| {
            execute(&p, &EngineConfig { parallel, keep_runs: None, keep_seed: 9 }, run_one)
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a.kept, b.kept);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.scheduled, 23);
        for (i, &(index, spec)) in a.kept.iter().enumerate() {
            assert_eq!(index, i, "kept results in run-index order");
            assert_eq!(spec, i as u64 * 10);
        }
    }

    #[test]
    fn bounded_keep_is_a_stable_subset_with_full_tallies() {
        let p = plan(40);
        let all =
            execute(&p, &EngineConfig { parallel: false, keep_runs: None, keep_seed: 7 }, run_one);
        let some = execute(
            &p,
            &EngineConfig { parallel: true, keep_runs: Some(6), keep_seed: 7 },
            run_one,
        );
        assert_eq!(some.kept.len(), 6);
        assert_eq!(some.tally, all.tally, "tallies cover dropped runs too");
        // Kept records are a subsequence of the keep-all records.
        let mut cursor = all.kept.iter();
        for k in &some.kept {
            assert!(cursor.any(|a| a == k), "kept record {:?} missing from keep-all order", k);
        }
        // Stable across reruns and parallelism.
        let again = execute(
            &p,
            &EngineConfig { parallel: false, keep_runs: Some(6), keep_seed: 7 },
            run_one,
        );
        assert_eq!(some.kept, again.kept);
    }

    #[test]
    fn resumed_indices_are_not_reexecuted_and_results_match() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let p = plan(23);
        let cfg = EngineConfig { parallel: false, keep_runs: None, keep_seed: 9 };
        let full = execute(&p, &cfg, run_one);
        assert_eq!(full.status, CompletionStatus::Complete);
        assert_eq!(full.executed, 23);
        assert_eq!(full.resumed, 0);

        // Pretend runs 0..11 were journaled by a previous process.
        let resumed: HashMap<usize, (Outcome, bool, (usize, u64))> = p.runs()[..11]
            .iter()
            .map(|pr| {
                let rec = run_one(pr);
                (pr.index, (rec.outcome, rec.fired, rec.payload))
            })
            .collect();
        let calls = AtomicUsize::new(0);
        let out = execute_durable(
            &p,
            &cfg,
            Durability { resumed, cancel: None, persist: None, observe: None, index_range: None },
            |pr| {
                calls.fetch_add(1, Ordering::SeqCst);
                assert!(pr.index >= 11, "journaled index {} re-executed", pr.index);
                run_one(pr)
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 12);
        assert_eq!(out.executed, 12);
        assert_eq!(out.resumed, 11);
        assert_eq!(out.status, CompletionStatus::Complete);
        assert_eq!(out.kept, full.kept, "resume law: byte-identical kept records");
        assert_eq!(out.tally, full.tally);
    }

    #[test]
    fn cancellation_stops_between_runs_with_partial_tallies() {
        let p = plan(20);
        let cancel = super::super::control::CancelToken::after_runs(7);
        let out = execute_durable(
            &p,
            &EngineConfig { parallel: false, keep_runs: None, keep_seed: 1 },
            Durability {
                resumed: HashMap::new(),
                cancel: Some(&cancel),
                persist: None,
                observe: None,
                index_range: None,
            },
            run_one,
        );
        assert_eq!(out.status, CompletionStatus::Interrupted);
        assert_eq!(out.executed, 7);
        assert_eq!(out.tally.total(), 7, "tallies cover only completed runs");
        assert_eq!(out.scheduled, 20);
    }

    /// `after_runs(n)` gates run *starts* with atomic tickets, so a
    /// parallel fan-out executes exactly `n` runs — never `n + 1`
    /// because a worker slipped past the flag while run `n` was still
    /// in flight.
    #[test]
    fn after_runs_executes_exactly_n_under_parallelism() {
        let p = plan(64);
        for round in 0..200 {
            let cancel = super::super::control::CancelToken::after_runs(7);
            let out = execute_durable(
                &p,
                &EngineConfig { parallel: true, keep_runs: None, keep_seed: 1 },
                Durability { cancel: Some(&cancel), ..Durability::default() },
                run_one,
            );
            assert_eq!(out.status, CompletionStatus::Interrupted, "round {round}");
            assert_eq!(out.executed, 7, "round {round}");
            assert_eq!(out.tally.total(), 7, "round {round}");
        }
    }

    #[test]
    fn persist_sees_every_executed_run_exactly_once() {
        use std::sync::Mutex;
        let p = plan(15);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let persist = |index: usize, _o: Outcome, _f: bool, _r: &(usize, u64)| {
            seen.lock().unwrap().push(index);
        };
        let out = execute_durable(
            &p,
            &EngineConfig { parallel: true, keep_runs: Some(3), keep_seed: 5 },
            Durability {
                resumed: HashMap::new(),
                cancel: None,
                persist: Some(&persist),
                observe: None,
                index_range: None,
            },
            run_one,
        );
        assert_eq!(out.executed, 15);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn observe_sees_every_index_once_resumed_prefix_first() {
        use std::sync::Mutex;
        let p = plan(17);
        let cfg = EngineConfig { parallel: true, keep_runs: Some(4), keep_seed: 3 };
        // Runs 0..6 journaled; the rest execute live.
        let resumed: HashMap<usize, (Outcome, bool, (usize, u64))> = p.runs()[..6]
            .iter()
            .map(|pr| {
                let rec = run_one(pr);
                (pr.index, (rec.outcome, rec.fired, rec.payload))
            })
            .collect();
        let events: Mutex<Vec<(usize, bool, u64)>> = Mutex::new(Vec::new());
        let observe = |ev: RunEvent<'_, (usize, u64)>| {
            assert_eq!(ev.payload.0, ev.index, "payload borrowed for the right index");
            events.lock().unwrap().push((ev.index, ev.resumed, ev.payload.1));
        };
        let out = execute_durable(
            &p,
            &cfg,
            Durability {
                resumed,
                cancel: None,
                persist: None,
                observe: Some(&observe),
                index_range: None,
            },
            run_one,
        );
        assert_eq!(out.executed, 11);
        assert_eq!(out.resumed, 6);
        let events = events.into_inner().unwrap();
        assert_eq!(events.len(), 17, "one event per plan index, kept or dropped");
        // Journal-recovered prefix first, in index order.
        let head: Vec<usize> = events[..6].iter().map(|e| e.0).collect();
        assert_eq!(head, (0..6).collect::<Vec<_>>());
        assert!(events[..6].iter().all(|e| e.1), "prefix events flagged resumed");
        assert!(events[6..].iter().all(|e| !e.1), "live events flagged executed");
        let mut indices: Vec<usize> = events.iter().map(|e| e.0).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..17).collect::<Vec<_>>());
        // Event-derived tallies equal the sink's (observation is a tap,
        // not a filter).
        let mut tally = OutcomeTally::default();
        for &(index, _, _) in &events {
            let rec = run_one(&p.runs()[index]);
            if !rec.fired && rec.outcome == Outcome::Benign {
                tally.no_fire += 1;
            }
            tally.record(rec.outcome);
        }
        assert_eq!(tally, out.tally);
    }

    #[test]
    fn out_of_range_resumed_indices_are_ignored() {
        let p = plan(5);
        let mut resumed = HashMap::new();
        resumed.insert(99usize, (Outcome::Benign, true, (99usize, 0u64)));
        let out = execute_durable(
            &p,
            &EngineConfig { parallel: false, keep_runs: None, keep_seed: 0 },
            Durability { resumed, cancel: None, persist: None, observe: None, index_range: None },
            run_one,
        );
        assert_eq!(out.resumed, 0);
        assert_eq!(out.executed, 5);
        assert_eq!(out.status, CompletionStatus::Complete);
    }

    #[test]
    fn index_range_executes_only_its_shard_and_completes_relative_to_it() {
        use super::super::planner::index_ranges;
        use std::sync::Mutex;
        let p = plan(23);
        let cfg = EngineConfig { parallel: false, keep_runs: None, keep_seed: 9 };
        let full = execute(&p, &cfg, run_one);

        // Run each worker's range in isolation, journaling via persist.
        type SegmentMap = HashMap<usize, (Outcome, bool, (usize, u64))>;
        let journal: Mutex<SegmentMap> = Mutex::new(HashMap::new());
        for range in index_ranges(p.len(), 3) {
            let persist = |index: usize, o: Outcome, f: bool, r: &(usize, u64)| {
                journal.lock().unwrap().insert(index, (o, f, *r));
            };
            let out = execute_durable(
                &p,
                &cfg,
                Durability {
                    resumed: HashMap::new(),
                    cancel: None,
                    persist: Some(&persist),
                    observe: None,
                    index_range: Some(range),
                },
                |pr| {
                    assert!(
                        pr.index >= range.0 && pr.index < range.1,
                        "index {} escaped range {range:?}",
                        pr.index
                    );
                    run_one(pr)
                },
            );
            assert_eq!(out.status, CompletionStatus::Complete, "complete relative to the range");
            assert_eq!(out.executed, range.1 - range.0);
            assert_eq!(out.resumed, 0);
            assert_eq!(
                out.tally.total() as usize,
                range.1 - range.0,
                "partial tally covers the shard"
            );
        }

        // The coordinator's merge: feed every worker's journaled
        // results back as resumed — nothing re-executes, and the
        // result is byte-identical to the single-process run (law 7).
        let resumed = journal.into_inner().unwrap();
        assert_eq!(resumed.len(), 23, "ranges partition the plan exactly");
        let out = execute_durable(
            &p,
            &cfg,
            Durability { resumed, cancel: None, persist: None, observe: None, index_range: None },
            |pr| panic!("index {} re-executed after distributed merge", pr.index),
        );
        assert_eq!(out.executed, 0);
        assert_eq!(out.resumed, 23);
        assert_eq!(out.status, CompletionStatus::Complete);
        assert_eq!(out.kept, full.kept);
        assert_eq!(out.tally, full.tally);
    }

    #[test]
    fn batched_execution_is_byte_identical_and_frees_contexts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let p = plan(24);
        let cfg = EngineConfig { parallel: true, keep_runs: None, keep_seed: 9 };
        let unbatched = execute(&p, &cfg, run_one);

        let builds = AtomicUsize::new(0);
        let with_ctx = AtomicUsize::new(0);
        let out = execute_durable_batched(
            &p,
            &cfg,
            Durability::default(),
            |pr| pr.strategy.batch_key(),
            |members: &[usize]| {
                builds.fetch_add(1, Ordering::SeqCst);
                assert!(members.len() >= 2, "singleton groups never build a context");
                Some(members.to_vec())
            },
            |pr, ctx: Option<&Vec<usize>>| {
                if let Some(members) = ctx {
                    with_ctx.fetch_add(1, Ordering::SeqCst);
                    assert!(members.contains(&pr.index), "context shared with the right batch");
                }
                run_one(pr)
            },
        );
        assert_eq!(out.kept, unbatched.kept, "law 9: batching is invisible to results");
        assert_eq!(out.tally, unbatched.tally);
        // plan(24): the 12 even indices replay from checkpoints 0, 2
        // and 1 in turn — three groups of four. Every replay run saw a
        // context and each checkpoint's group built exactly once.
        assert_eq!(with_ctx.load(Ordering::SeqCst), 12);
        assert_eq!(builds.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn batching_respects_resume_and_declined_contexts() {
        let p = plan(20);
        let cfg = EngineConfig { parallel: false, keep_runs: None, keep_seed: 2 };
        let full = execute(&p, &cfg, run_one);
        // Journal half the runs; the batch grouping must only cover
        // what actually executes, and a declining make_batch leaves
        // every run on the classic path.
        let resumed: HashMap<usize, (Outcome, bool, (usize, u64))> = p
            .runs()
            .iter()
            .filter(|pr| pr.index % 2 == 1 || pr.index < 6)
            .map(|pr| {
                let rec = run_one(pr);
                (pr.index, (rec.outcome, rec.fired, rec.payload))
            })
            .collect();
        let expected_live: Vec<usize> = (0..20).filter(|i| i % 2 == 0 && *i >= 6).collect();
        let out = execute_durable_batched(
            &p,
            &cfg,
            Durability { resumed, ..Durability::default() },
            |pr| pr.strategy.batch_key(),
            |members: &[usize]| {
                for m in members {
                    assert!(expected_live.contains(m), "batch covers only pending runs");
                }
                None::<()>
            },
            |pr, ctx| {
                assert!(ctx.is_none(), "declined context reaches runs as None");
                assert!(expected_live.contains(&pr.index));
                run_one(pr)
            },
        );
        assert_eq!(out.kept, full.kept);
        assert_eq!(out.tally, full.tally);
        assert_eq!(out.resumed, 20 - expected_live.len());
    }

    #[test]
    fn no_fire_law_counts_only_unfired_benign_runs() {
        let p = plan(10);
        let out =
            execute(&p, &EngineConfig { parallel: false, keep_runs: None, keep_seed: 0 }, |pr| {
                let outcome = if pr.index == 1 { Outcome::Crash } else { Outcome::Benign };
                RunRecord { outcome, fired: pr.index > 1, payload: () }
            });
        // Run 0 is the only unfired benign run; run 1 never fired but
        // crashed, which still counts as a crash.
        assert_eq!(out.tally.no_fire, 1);
        assert_eq!((out.tally.benign, out.tally.crash), (9, 1));
    }
}
