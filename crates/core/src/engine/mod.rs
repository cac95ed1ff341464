//! The shared campaign execution engine: **planner → executor → sink**.
//!
//! The paper's methodology is one pipeline — profile → inject × N →
//! classify → tally. This module is the one implementation of its
//! scheduling half: [`crate::Campaign`] (one fault signature) plans
//! its runs here, and the §IV-D byte scan
//! ([`crate::metadata_scan::scan_detailed`]) plans one run per scanned
//! byte the same way — one serial/parallel fan-out, one streaming
//! sink. What a planned run *does* is the run frame of
//! [`crate::campaign`] (start → advance → analyze under one
//! injector / `catch_unwind` / unmount bracket), shared by both: a
//! campaign arms a fault signature on it, a scan a byte flip.
//!
//! * **Planner** ([`ExecutionPlan`]) — maps every scheduled run
//!   `(index, spec)` to a [`RunStrategy`] — `Replay` with its
//!   starting checkpoint and suffix length, or `Rerun` with the
//!   recorded [`crate::ReplayFallback`] reason — *up front*, before
//!   anything executes, and fixes a wall-clock-optimizing schedule:
//!   replay runs shortest-suffix-first, rerun runs interleaved
//!   proportionally so the expensive re-executions start early instead
//!   of queuing behind the cheap replays.
//! * **Executor** ([`execute`]) — one serial/parallel (rayon) fan-out
//!   over the schedule. Results are keyed by run index, never by
//!   completion order.
//! * **Sink** ([`RunSink`]) — streaming aggregation: the
//!   [`crate::OutcomeTally`] folds online (`OutcomeTally::record` per
//!   run), and full run records are retained only for a seed-stable
//!   bounded reservoir
//!   ([`reservoir_mask`]) so a paper-scale campaign holds
//!   O(`keep_runs`) — not O(runs) — record memory.
//!
//! ## Engine laws
//!
//! These mirror the fidelity contract of `ffis_vfs::trace`; the
//! property tests in `tests/properties.rs` pin them:
//!
//! 1. **Single emission** — the plan contains each run index exactly
//!    once, and the schedule is a permutation of the plan: every
//!    planned run executes exactly once.
//! 2. **Plan-time randomness** — all per-run random draws (target
//!    instance, injection seed, flip mask) happen while *building* the
//!    plan, each run from its own child stream: `root.child(run)` in a
//!    campaign, `root.child(byte)` in a scan. Execution order can never
//!    affect a draw.
//! 3. **Order independence** — the schedule is a pure wall-clock
//!    optimization. Serial and parallel execution of the same plan
//!    produce byte-identical tallies, kept records, injection records,
//!    and crash messages, because every result lands in its
//!    index-addressed slot and the sink's retention set is chosen at
//!    plan time ([`reservoir_mask`] is a function of seed and counts
//!    only, never of completion order).
//! 4. **Sink bounds** — the sink retains at most `keep_runs` full run
//!    records (default: all, preserving the historical API); dropped
//!    records still contribute to every tally, which is therefore
//!    always computed over *all* runs. `no_fire` accounting (armed
//!    fault never executed *and* output matched) is part of the sink,
//!    so the one definition serves every frontend.
//! 5. **Strategy fidelity** — `Replay` and `Rerun` produce
//!    byte-identical run results for the same `(signature, instance,
//!    seed)` (pinned by `tests/replay_equivalence.rs`), so the
//!    scheduler may mix the two strategies freely within one campaign.
//! 6. **Resume law** — *interrupted + resumed == uninterrupted, byte
//!    for byte.* A campaign killed at any point and resumed from its
//!    [`RunJournal`] produces tallies, kept records, injection
//!    records, and run digests identical to an uninterrupted run.
//!    This follows from laws 2 and 3: a run's result is a pure
//!    function of its plan-time spec, so journaled results can feed
//!    the sink directly and only the pending set re-executes
//!    ([`execute_durable`] asserts journaled indices are never run
//!    again). Pinned by `tests/resume_durability.rs` (which SIGKILLs
//!    a child mid-campaign) and the kill-point proptest in
//!    `tests/properties.rs`.
//! 7. **Distributed merge law** — *serial == parallel == distributed,
//!    byte for byte.* Sharding a plan by index range
//!    ([`index_ranges`]) across worker processes, executing each range
//!    with [`Durability::index_range`] against its own journal
//!    segment, merging the segments index-addressed
//!    ([`journal::merge_segments`], first-wins like resume), and
//!    resuming the merged journal produces tallies, kept records, and
//!    run digests identical to the single-process campaign. This is
//!    laws 2, 3, and 6 composed: ranges partition the plan (each index
//!    lands exactly once), every run's result is a pure function of
//!    its plan-time spec (so *which process* executes it cannot matter
//!    — every process derives the same plan, and from it the same
//!    demand-placed checkpoint set; nothing but the memo tier is
//!    shared between them), and the coordinator's final resume
//!    re-derives the result from the merged journal exactly as a
//!    crash-resume would. A worker judges [`CompletionStatus`]
//!    against its own range, so partial sinks report honestly; only
//!    the coordinator speaks for the whole plan. Pinned by the
//!    distributed differential tests in `crates/daemon/tests/` and the
//!    fan-out step of the `scale-smoke` CI job.
//! 8. **Memoization law** — *memoized analyze == full analyze, byte
//!    for byte.* When an application declares analyze sub-steps with
//!    their read file-sets ([`crate::SubstepSpec`]) and the campaign
//!    enables `memo`, the engine may serve any clean sub-step (one
//!    whose `ffis_vfs` read-ledger fingerprints the armed fault cannot
//!    have changed) from the content-addressed memo store instead of
//!    re-executing it, recomputing only the dirty cascade — and the
//!    resulting tallies, kept records, injection records, and run
//!    digests are identical to whole-run analyze. The memo layer is
//!    gated by a golden-run validation (the sub-step laws, decided
//!    once per golden run): the concatenated sub-step read streams must
//!    reproduce the whole analyze's ledger exactly, or the campaign
//!    falls back to whole analyze with the reason always recorded in
//!    [`crate::MemoReport`] (`memo-disabled`, `no-substeps`,
//!    `not-fast-path`, `liveness-watchdog`, `substep-inputs`,
//!    `substep-stream`, `substep-identity`) — there is no silent
//!    regime mixing. Pinned by `tests/memo_equivalence.rs` (all three
//!    apps × both sites × cold/warm stores, the dirty-cascade
//!    counters, plus a seed proptest).
//! 9. **Amortized-fork batching law** — *batched == unbatched, byte
//!    for byte.* The executor may group pending replay runs that fork
//!    the same trace checkpoint ([`RunStrategy::batch_key`]) and hand
//!    them a shared, lazily built batch context
//!    ([`execute_durable_batched`]) so the checkpoint's per-run setup
//!    — `MemFs` fork, mount, descriptor adoption, counter preseed —
//!    is paid once per batch instead of once per run. Batching is a
//!    grouping of the *existing* schedule, never a reordering: the
//!    shortest-suffix-first schedule, the index-addressed result
//!    slots, and every run's record are identical whether the batch
//!    context engaged, declined, or the run executed solo — which is
//!    what keeps laws 3, 6, and 7 intact (a resumed or
//!    range-restricted invocation simply groups the runs it actually
//!    executes). Batch contexts (and the suffix coalescing they
//!    enable) are disabled under liveness watchdogs, whose fuel
//!    accounting counts per-op mount crossings. Pinned by the batched
//!    schedule proptest in `tests/properties.rs` and
//!    `tests/replay_equivalence.rs::plan_aware_replay_equals_the_unbatched_control`.
//!
//! ## Liveness: fuel budgets and cancellation
//!
//! Two mechanisms keep a campaign from wedging or losing work:
//!
//! * **I/O-op fuel** (`ffis_vfs::FfisFs::set_fuel`) — each injection
//!   run's mount gets a budget of primitive crossings; a run wedged in
//!   an I/O loop by corrupted data exhausts it and unwinds into the
//!   normal crash classification as a
//!   [`crate::RunAborted::FuelExhausted`] outcome. Fuel counts
//!   crossings, not seconds, so exhaustion is deterministic and the
//!   resume law still holds for aborted runs. An optional wall-clock
//!   deadline backstops the parallel path (non-deterministic, off by
//!   default; a run that loops without ever touching the mount is
//!   beyond both detectors).
//! * **Cooperative cancellation** ([`CancelToken`]) — consulted
//!   before each run starts, never mid-run
//!   ([`CancelToken::after_runs`] hands out exactly `n` start
//!   tickets): an interrupted campaign flushes every
//!   completed record to its journal and reports partial tallies with
//!   [`CompletionStatus::Interrupted`].

//!
//! ## The job layer
//!
//! [`job`] is the engine's service-facing vocabulary: one serializable
//! [`job::CampaignSpec`] shared by the `ffis-daemon`
//! REST API, the `repro daemon` CLI flags, and `repro scale`, plus the
//! [`job::JobState`]/[`job::JobFailure`]
//! lifecycle types a job queue parks campaigns in. The live event feed
//! those services stream ([`RunEvent`] via [`Durability::observe`])
//! taps the sink layer: one event per plan index, resumed prefix
//! first, so an event-derived tally always converges on the final one.

mod control;
mod executor;
pub mod job;
pub mod journal;
mod planner;
mod sink;

pub use control::{CancelToken, CompletionStatus};
pub use executor::{
    execute, execute_durable, execute_durable_batched, Durability, EngineConfig, EngineResult,
    RunEvent, RunRecord,
};
pub use job::{CampaignSpec, JobFailure, JobState, MIN_GRID};
pub use journal::{merge_segments, JournalEntry, JournalError, JournalMeta, RunJournal};
pub use planner::{index_ranges, ExecutionPlan, PlannedRun, RunStrategy};
pub use sink::{reservoir_mask, RunSink};
