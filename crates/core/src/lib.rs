//! # ffis-core — FUSE-based Fault Injection for Storage
//!
//! Reproduction of the FFIS framework from *"Characterizing Impacts of
//! Storage Faults on HPC Applications: A Methodology and Insights"*
//! (CLUSTER 2021). FFIS models SSD partial-failure manifestations as
//! software-implemented faults planted on an application's I/O path,
//! without modifying the application (paper requirements R1–R4).
//!
//! The framework has the paper's three components (§III-C, Figure 4):
//!
//! * **Fault generator** ([`generator`]) — user configuration →
//!   validated [`FaultSignature`] (model + primitive + feature).
//! * **I/O profiler** ([`profiler`]) — fault-free run counting the
//!   dynamic executions of the target primitive.
//! * **Fault injector** ([`injector`]) — fires the fault at a
//!   uniformly random instance of the primitive.
//!
//! [`campaign`] orchestrates them into statistically significant
//! campaigns (1,000 runs with ~1–2% error bars at 95% confidence), and
//! [`metadata_scan`] implements the byte-by-byte scientific-file-format
//! metadata study of §IV-D. There is one driver and one run pipeline:
//! [`Campaign`] (one fault signature — the paper's cell; campaigns
//! over one application share a golden run through a [`GoldenCache`])
//! owns the golden run, the fast-path gates and the per-run frame
//! (start → advance → analyze), and
//! [`metadata_scan::scan_detailed`] is a caller of those same pieces
//! with a byte injector armed — it keeps no golden capture, gate,
//! replay loop or crash classifier of its own. Both schedule their
//! runs through the shared [`engine`] (planner → executor → sink):
//! per-run strategies and random draws are resolved up front,
//! one serial/parallel fan-out schedules replay runs
//! shortest-suffix-first with reruns interleaved, and tallies stream
//! through a sink whose full-record retention can be bounded
//! (`CampaignConfig::keep_runs`) for paper-scale grids; see the
//! [`engine`] module docs for the engine laws.
//!
//! ## The two-phase contract and the replay fast path
//!
//! Every injection run repeats the same fault-free prefix before its
//! fault fires. The application contract makes that redundancy
//! removable *by construction*: a [`FaultApp`] is two separable
//! phases — [`FaultApp::produce`] (the write half) and
//! [`FaultApp::analyze`] (the read-back/classification half) — and
//! `run` is simply produce-then-analyze. Campaigns default to the
//! replay strategy: the golden run's mutating I/O is captured once as
//! a replayable trace (`ffis_vfs::trace`), log-spaced mid-trace
//! checkpoints fork the rebuilt state
//! ([`ffis_vfs::TraceCheckpoints`]), and each injection run forks the
//! nearest checkpoint preceding its target instance, replays only the
//! trace suffix — through the armed injector — at raw memcpy speed,
//! and executes application logic only in the analyze phase.
//! [`metadata_scan::scan`] is the same strategy with a demand of one:
//! its checkpoint set is placed for the (fixed) metadata write alone,
//! so every byte forks a snapshot sitting exactly before it.
//! Read-site campaigns have their own fast path: the golden run's
//! read ledger
//! ([`ffis_vfs::ReadLedger`]) locates the produce/analyze seam in the
//! eligible-read instance space, and analyze-phase targets skip
//! produce entirely ([`campaign::ExecutionMode::AnalyzeOnly`] — fork
//! the golden post-produce state, pre-seed the phase-boundary
//! counters, run only analyze with the fault armed), while
//! produce-phase targets rerun under
//! [`campaign::ReplayFallback::ProduceReadFault`]. Outcomes, injection
//! records, and crash messages are byte-identical to full
//! re-execution; the engine self-checks per campaign/scan and falls
//! back — recording why in [`campaign::ExecutionMode`] — when a law
//! is violated. `benchmark/` measures the speedups
//! (`metadata_scan.{replay,rerun}_byte_us`, the `nyx_write` and
//! `nyx_read` workloads) and `tests/replay_equivalence.rs` plus the
//! analyze-only differential pins hold the equivalence across all
//! three paper workloads.
//!
//! ## Fault models (§III-B, Table I)
//!
//! | Model | Behaviour |
//! |---|---|
//! | BIT FLIP | flip 2 (configurable) consecutive bits of the write buffer |
//! | SHORN WRITE | persist only the first 3/8 or 7/8 of a 4 KiB block, at 512 B sector granularity, while reporting full success |
//! | DROPPED WRITE | ignore the write, report success |
//!
//! ```
//! use ffis_core::prelude::*;
//! use ffis_vfs::{FileSystem, FileSystemExt};
//!
//! // A miniature two-phase "application": produce writes a file;
//! // analyze reads it back and sums it. Every app written this way is
//! // replay-capable by construction.
//! struct Sum;
//! impl FaultApp for Sum {
//!     type Output = u64;
//!     fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
//!         fs.write_file_chunked("/data", &[1u8; 8192], 4096).map_err(|e| e.to_string())
//!     }
//!     fn analyze(&self, fs: &dyn FileSystem, _golden: Option<&u64>) -> Result<u64, String> {
//!         Ok(fs.read_to_vec("/data").map_err(|e| e.to_string())?
//!             .iter().map(|&b| b as u64).sum())
//!     }
//!     fn classify(&self, g: &u64, f: &u64) -> Outcome {
//!         if g == f { Outcome::Benign } else { Outcome::Sdc }
//!     }
//!     fn name(&self) -> String { "SUM".into() }
//! }
//!
//! // Campaigns run on the checkpointed replay fast path by default:
//! // produce executes once (golden capture); each injection run forks
//! // the nearest mid-trace checkpoint, replays the suffix through the
//! // armed injector, and analyzes.
//! let cfg = CampaignConfig::new(FaultSignature::on_write(FaultModel::dropped_write()))
//!     .with_runs(10).with_seed(7).with_replay(true);
//! let fast = Campaign::new(&Sum, cfg.clone()).run().unwrap();
//! assert_eq!(fast.mode, ExecutionMode::Replay);
//! assert_eq!(fast.tally.sdc, 10); // every dropped 4 KiB block changes the sum
//!
//! // The reference full-rerun strategy produces identical results —
//! // and records why it ran.
//! let slow = Campaign::new(&Sum, cfg.with_replay(false)).run().unwrap();
//! assert_eq!(slow.mode, ExecutionMode::FullRerun { reason: ReplayFallback::Disabled });
//! assert_eq!(slow.tally, fast.tally);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod engine;
pub mod fault;
pub mod generator;
mod golden;
pub mod injector;
pub mod metadata_scan;
pub mod outcome;
pub mod profiler;
pub mod rng;
pub mod stats;

pub use campaign::{
    replay_default, Campaign, CampaignConfig, CampaignError, CampaignResult, ExecutionMode,
    MemoFallback, MemoReport, ReplayFallback, ReplayOptReport, RunAborted, RunObserver, RunResult,
};
pub use engine::{
    CampaignSpec, CancelToken, CompletionStatus, ExecutionPlan, JobFailure, JobState, JournalEntry,
    JournalError, JournalMeta, PlannedRun, RunJournal, RunStrategy, MIN_GRID,
};
pub use fault::{
    FaultModel, FaultSignature, InjectionSite, Mutation, ReadMutation, ShornFill, ShornKeep,
    TargetFilter,
};
pub use generator::{paper_signatures, read_signatures, FaultConfig};
pub use golden::GoldenCache;
pub use injector::{ArmedInjector, ByteFaultInjector, ByteFlip, InjectionRecord};
pub use metadata_scan::{
    attribute, fields_with_outcome, locate_write, run_with_byte_fault, scan, scan_detailed,
    ByteOutcome, DetailedScanResult, FieldMap, FieldOutcome, FieldSpan, FlipMode, ScanConfig,
    ScanResult, ScanRun, WritePick,
};
pub use outcome::{FaultApp, Outcome, OutcomeTally, SubstepSpec, OUTCOMES};
pub use profiler::{EligibleCounter, IoProfiler, ProfileReport};
/// The order-preserving parallel iterators the executor fans runs out
/// with (`into_par_iter().map(..).collect()`), for applications that
/// build their per-file goldens the same way.
pub use rayon::prelude as par;
pub use rng::Rng;
pub use stats::{blocking_error, mean_std, wilson, Accumulator, Histogram, Proportion};

/// Convenient glob import for applications and harnesses.
pub mod prelude {
    pub use crate::campaign::{
        Campaign, CampaignConfig, CampaignResult, ExecutionMode, MemoFallback, MemoReport,
        ReplayFallback, RunAborted,
    };
    pub use crate::engine::{CancelToken, CompletionStatus};
    pub use crate::fault::{
        FaultModel, FaultSignature, InjectionSite, ShornFill, ShornKeep, TargetFilter,
    };
    pub use crate::outcome::{FaultApp, Outcome, OutcomeTally};
    pub use crate::rng::Rng;
}
