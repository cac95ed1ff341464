//! Golden-trace capture and replay.
//!
//! A fault-injection campaign repeats the *same* fault-free prefix a
//! thousand times: every run re-executes the application (HDF5
//! encoding, checksums, float packing, halo finding) up to the
//! injection point just to rebuild identical filesystem state. This
//! module removes that redundancy:
//!
//! * [`TraceOp`] — one state-mutating primitive invocation with every
//!   parameter needed to re-issue it (paths, flags, the full write
//!   buffer, descriptor identity).
//! * [`TraceRecorder`] — an [`Interceptor`] that captures the golden
//!   run's mutating operations once, through the
//!   [`Interceptor::on_op`] hook [`crate::FfisFs`] feeds.
//! * [`ReplayCursor`] — re-issues a recorded op stream against any
//!   [`FileSystem`]: a bare [`crate::MemFs`] (building a snapshot at
//!   raw memcpy speed) or a mounted [`crate::FfisFs`] with an armed
//!   injector (so the fault lands in exactly the targeted instance
//!   while every other op replays byte-identically).
//!
//! Combined with [`crate::MemFs::fork`], an injection run becomes:
//! fork the pre-injection snapshot (O(1): the inode table is shared),
//! replay the trace suffix through the injector (O(suffix bytes)), and
//! run only the application's analyze phase — instead of re-running the
//! whole application.
//!
//! ## Mid-trace checkpoints
//!
//! The metadata scanner injects into one *fixed* write, so a single
//! pre-injection snapshot serves every scanned byte. Campaign targets
//! vary per run; [`TraceCheckpoints`] generalizes the snapshot into a
//! checkpoint cache over the whole stream. Each [`TraceCheckpoint`]
//! holds a CoW fork of the filesystem, the descriptor map, and the
//! per-primitive counts after its prefix; [`TraceCheckpoint::mount_fork`]
//! rebuilds a mount whose suffix replay is indistinguishable — paths,
//! instance numbering, `prim_seq` — from a full-trace replay.
//!
//! Placement comes in two modes:
//!
//! * **Log-spaced** ([`TraceCheckpoints::build`]) — when the fork
//!   offsets are unknown, snapshots go at `n − n/2ᵏ`, log-spaced
//!   *from the end* (every run must replay through the end of the
//!   trace anyway). The replayed suffix is then at most ~2× the
//!   minimal `n − target` for any target, with O(log n) snapshots.
//! * **Demand-driven** ([`TraceCheckpoints::build_for_demand`]) — a
//!   campaign planner resolves every run's injection offset *before*
//!   execution (plan-time determinism), so it can hand the builder the
//!   actual fork-offset histogram. With enough budget each demanded
//!   offset gets its own snapshot (zero overshoot); over budget, a
//!   weighted k-median placement minimizes total overshoot across the
//!   demanded offsets. Falls back to log-spaced when the demand is
//!   empty.
//!
//! Either way the checkpoint set is a pure wall-clock optimization:
//! which snapshot a run forks from is invisible to every digest.
//!
//! ## Suffix write coalescing
//!
//! [`ReplayCursor::replay_coalesced`] merges maximal runs of adjacent
//! same-descriptor writes (all cursor-sequential, or all positioned
//! and byte-contiguous) into single vectored applications
//! ([`FileSystem::writev`] / [`FileSystem::pwritev`]). The merged
//! application is byte-identical to the op-at-a-time replay; it is
//! only legal where no observer needs per-op visibility — an armed
//! injector's window, an interceptor that `wants_read_snapshot`, or a
//! liveness watchdog counting mount crossings all gate coalescing off
//! for the ops they must see individually. Callers enforce the gate;
//! the cursor just applies the stream.
//!
//! ## Fidelity contract
//!
//! The recorder captures operations *as issued by the application*
//! (pre-interception), only when they succeed, and only when they can
//! change filesystem state (read-only opens and reads are skipped).
//! Replay therefore assumes the workload's sequential-`write` cursors
//! are not advanced by interleaved reads on the same descriptor — true
//! for every workload in this workspace, which positions data with
//! `pwrite`.
//!
//! ### Why read-site faults are non-replayable — the refined claim
//!
//! The golden trace records *pristine* reads — or rather, it records
//! no reads at all: a read cannot change filesystem state, so the
//! recorder skips it, and every byte the golden run read was by
//! definition uncorrupted. The original conclusion — "read-site fault
//! signatures are non-replayable by construction" — is therefore true
//! of *trace replay*, but it is not the whole story. Eligible reads
//! split along the two-phase contract's seam, and the seam decides:
//!
//! * **Produce-phase read faults stay non-replayable.** The fault
//!   fires while the application is still writing, so the rest of the
//!   run is downstream of the corrupted transfer; only a full
//!   produce+analyze rerun can model it. Campaign drivers record
//!   `ffis_core::ReplayFallback::ProduceReadFault` for these targets —
//!   structural, not a failed self-check.
//! * **Analyze-phase read faults are exactly re-executable from the
//!   golden checkpoint.** A read fault never touches device state, and
//!   produce's writes are data-independent by law — so a rerun's
//!   produce phase rebuilds *byte-for-byte* the filesystem the golden
//!   run already left behind. Forking that state ([`crate::MemFs::fork`]
//!   of the golden snapshot), pre-seeding the mount's counters with
//!   the golden produce-phase [`CounterSnapshot`]
//!   ([`crate::FfisFs::preseed_counters`]), and arming the injector
//!   with the produce-phase eligible-read count already "seen"
//!   reproduces a full rerun's analyze phase exactly — instance
//!   numbering, `prim_seq`, `seq` and all. This is the
//!   `AnalyzeOnly` strategy in `ffis_core`, and the [`ReadLedger`]
//!   below is the instrument that locates the phase seam in the
//!   eligible-read instance space.
//!
//! The three original grounds map onto the refined taxonomy like so:
//!
//! * *"a replay re-issues only the mutating op stream, so instance
//!   numbering diverges"* — true for trace replay; the analyze-only
//!   path does not replay the trace at all. It re-executes analyze
//!   live on the forked golden state, and counter pre-seeding keeps
//!   the numbering identical to a full execution's. Produce-phase
//!   reads never happen on this path either — which is exactly why
//!   only *analyze-phase* targets are eligible for it.
//! * *"the artifact a read fault damages is the transfer, which exists
//!   only while the application actually issues the read"* — the
//!   analyze-only run *does* issue its reads (analyze executes live),
//!   so the transfer exists and the armed injector corrupts it as in
//!   any rerun. For produce-phase targets the transfer still only
//!   exists inside a full rerun: `ProduceReadFault`.
//! * *"a produce-phase read fault could steer the real application's
//!   control flow in ways no trace of the fault-free run can predict"*
//!   — this ground is untouched and is the `ProduceReadFault` fallback
//!   verbatim. Analyze-phase faults fire after produce finished, so
//!   there is no produce control flow left to steer; whatever they
//!   steer inside analyze happens identically in the live analyze the
//!   fast path runs.
//!
//! Two consequences matter to consumers that must match legacy
//! re-execution exactly (both are enforced by the gates in
//! `ffis_core`):
//!
//! * ops that *failed* during capture are absent from the trace, while
//!   interceptor-level counters count every attempt — compare the two
//!   counts and fall back to re-execution on mismatch;
//! * replay is straight-line: an op that fails mid-replay aborts with
//!   a [`ReplayError`] instead of modeling whatever error handling the
//!   real application would have applied, so only fault models that
//!   cannot make a replayed op fail (buffer-level write faults —
//!   `Replace` preserves the length, `Drop` skips the device write)
//!   are eligible for trace-based campaigns;
//! * replayed payloads are the golden run's bytes verbatim: this is
//!   the **write-stream data-independence law** — the byte content a
//!   workload's produce phase writes must not depend on data read back
//!   through the filesystem earlier in the same run, because a real
//!   rerun would derive those writes from fault-corrupted reads while
//!   a replay re-issues golden-derived ones. Every
//!   `ffis_core::FaultApp::produce` implementation asserts this law by
//!   construction (the two-phase contract confines read-back to the
//!   analyze phase, which never writes); a produce phase that must
//!   consume its own on-disk output re-derives the dependent artifacts
//!   inside analyze instead (see `qmc_sim`'s checkpoint handoff and
//!   `montage_sim`'s stage cascade for the pattern).
//!
//! ## Read fingerprints as sub-step reachability
//!
//! The [`ReadLedger`] does more than locate the produce/analyze seam:
//! each [`ReadRecord`] carries the path and the [`content_fingerprint`]
//! of the bytes the read returned, so the golden ledger is a complete,
//! content-addressed map of *what analyze actually consumed, in
//! order*. That map is what makes incremental analyze sound. An
//! application that declares analyze sub-steps with their read
//! file-sets (`ffis_core::SubstepSpec`) is claiming a partition: sub-
//! step `d` reads only its declared files, and running the sub-steps
//! in order is read-for-read identical to whole analyze. The memo
//! layer *checks* that claim against the ledger before trusting it —
//! it runs each sub-step once on a fork of the golden state, records
//! its own ledger, and requires (a) every recorded path to fall
//! inside the declared file-set, and (b) the concatenated per-sub-step
//! `(path, fingerprint)` streams to reproduce the whole-analyze
//! ledger exactly, fingerprint for fingerprint.
//!
//! Once validated, the declared file-sets define **reachability for a
//! fault**: an armed read fault corrupts one eligible read instance,
//! the ledger says which sub-step's range that instance falls in, and
//! every *other* sub-step's inputs are — by the validated partition —
//! byte-identical to golden, so its memoized artifact (keyed on the
//! sub-step's golden fingerprint stream) replays at zero cost. Only
//! the dirty sub-step re-executes. Write-site faults reuse the same
//! partition through the replayed device state's content fingerprints.
//!
//! When any check fails — no sub-steps declared, an undeclared read,
//! a fingerprint stream that doesn't reconstruct whole analyze, a
//! liveness watchdog armed (fuel/wall limits make sub-step streams
//! nondeterministic), or the fast paths disabled — the campaign falls
//! back to whole-run analyze and *records the reason* in
//! `ffis_core::MemoReport`; engine law 8 (`ffis_core::engine`) pins
//! that the fallback and the memoized path are byte-identical, so the
//! memo layer is a pure wall-clock optimization, never a regime.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::blobs::{BlobHash, BlobStats, BlobStore};
use crate::error::{FsError, FsResult};
use crate::ffisfs::{CounterSnapshot, FfisFs};
use crate::file::{Page, BLOCK_SIZE};
use crate::fingerprint::{content_fingerprint, EMPTY_FINGERPRINT};
use crate::frame::{FrameDir, SingleFlight};
use crate::fs::{Fd, FileSystem, LockKind, NodeKind, OpenFlags};
use crate::interceptor::{Interceptor, Primitive};
use crate::memfs::{self, MemFs};
use crate::wire;

/// One recorded state-mutating primitive invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// `mknod`.
    Mknod {
        /// Target path.
        path: String,
        /// Node kind.
        kind: NodeKind,
        /// Permission bits.
        mode: u32,
        /// Device number.
        dev: u64,
    },
    /// `mkdir`.
    Mkdir {
        /// Target path.
        path: String,
        /// Permission bits.
        mode: u32,
    },
    /// `unlink`.
    Unlink {
        /// Target path.
        path: String,
    },
    /// `rmdir`.
    Rmdir {
        /// Target path.
        path: String,
    },
    /// `rename`.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// `chmod`.
    Chmod {
        /// Target path.
        path: String,
        /// Permission bits.
        mode: u32,
    },
    /// `truncate` by path.
    Truncate {
        /// Target path.
        path: String,
        /// New size.
        size: u64,
    },
    /// `create` — returns a descriptor.
    Create {
        /// Target path.
        path: String,
        /// Permission bits.
        mode: u32,
        /// Descriptor the golden run received.
        fd: Fd,
    },
    /// Write-capable `open` — returns a descriptor.
    Open {
        /// Target path.
        path: String,
        /// Open flags (always write-capable; read-only opens are not
        /// recorded).
        flags: OpenFlags,
        /// Descriptor the golden run received.
        fd: Fd,
    },
    /// `write` / `pwrite` — the payload-carrying op.
    Write {
        /// Descriptor (golden-run numbering).
        fd: Fd,
        /// Target path at record time (for filter matching without a
        /// descriptor table).
        path: Option<String>,
        /// Byte offset; `None` for sequential cursor writes.
        offset: Option<u64>,
        /// The application's buffer, verbatim.
        data: Vec<u8>,
    },
    /// `fsync`.
    Fsync {
        /// Descriptor (golden-run numbering).
        fd: Fd,
    },
    /// `release`.
    Release {
        /// Descriptor (golden-run numbering).
        fd: Fd,
    },
    /// Advisory `lock`.
    Lock {
        /// Descriptor (golden-run numbering).
        fd: Fd,
        /// Lock kind.
        kind: LockKind,
    },
    /// Advisory `unlock`.
    Unlock {
        /// Descriptor (golden-run numbering).
        fd: Fd,
    },
}

impl TraceOp {
    /// Is this a `write`/`pwrite` op?
    pub fn is_write(&self) -> bool {
        matches!(self, TraceOp::Write { .. })
    }

    /// The primitive a replay of this op executes — the counter it
    /// advances when re-issued through a mounted [`FfisFs`].
    pub fn primitive(&self) -> Primitive {
        match self {
            TraceOp::Mknod { .. } => Primitive::Mknod,
            TraceOp::Mkdir { .. } => Primitive::Mkdir,
            TraceOp::Unlink { .. } => Primitive::Unlink,
            TraceOp::Rmdir { .. } => Primitive::Rmdir,
            TraceOp::Rename { .. } => Primitive::Rename,
            TraceOp::Chmod { .. } => Primitive::Chmod,
            TraceOp::Truncate { .. } => Primitive::Truncate,
            TraceOp::Create { .. } => Primitive::Create,
            TraceOp::Open { .. } => Primitive::Open,
            TraceOp::Write { .. } => Primitive::Write,
            TraceOp::Fsync { .. } => Primitive::Fsync,
            TraceOp::Release { .. } => Primitive::Release,
            TraceOp::Lock { .. } => Primitive::Lock,
            TraceOp::Unlock { .. } => Primitive::Unlock,
        }
    }

    /// Target path of a write op, when tracked at record time.
    pub fn write_path(&self) -> Option<&str> {
        match self {
            TraceOp::Write { path, .. } => path.as_deref(),
            _ => None,
        }
    }

    /// Payload length carried toward the device (0 for non-writes).
    pub fn payload_len(&self) -> usize {
        match self {
            TraceOp::Write { data, .. } => data.len(),
            _ => 0,
        }
    }

    /// The descriptor of a state-neutral bookkeeping op
    /// (`fsync`/`release`/`lock`/`unlock`), or `None` for every op
    /// that can change filesystem state. This is the op class
    /// [`ReplayCursor::step`] silently skips when the descriptor is
    /// unmapped — checkpoint counter preseeding and the campaign's
    /// read-only-analyze gate both key off the same predicate so the
    /// three sites cannot drift apart.
    pub fn bookkeeping_fd(&self) -> Option<Fd> {
        match self {
            TraceOp::Fsync { fd }
            | TraceOp::Release { fd }
            | TraceOp::Lock { fd, .. }
            | TraceOp::Unlock { fd } => Some(*fd),
            _ => None,
        }
    }
}

/// Interceptor capturing every mutating op crossing the mount.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    ops: Mutex<Vec<TraceOp>>,
}

impl TraceRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the recorded golden trace.
    pub fn ops(&self) -> Vec<TraceOp> {
        self.ops.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Drain the recorded golden trace without copying it. The trace
    /// carries every write payload, so consumers that own the recorder
    /// (the campaign/scan drivers) take it instead of cloning
    /// workload-sized buffers.
    pub fn take_ops(&self) -> Vec<TraceOp> {
        std::mem::take(&mut *self.ops.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of ops recorded so far.
    pub fn len(&self) -> usize {
        self.ops.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes across recorded writes.
    pub fn payload_bytes(&self) -> u64 {
        self.ops
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|op| op.payload_len() as u64)
            .sum()
    }
}

impl Interceptor for TraceRecorder {
    fn wants_ops(&self) -> bool {
        true
    }

    fn on_op(&self, op: &TraceOp) {
        self.ops.lock().unwrap_or_else(|e| e.into_inner()).push(op.clone());
    }
}

/// Open-descriptor state carried across a replay.
#[derive(Debug, Clone)]
struct ReplayFd {
    /// Descriptor in the filesystem being replayed into.
    fd: Fd,
    /// Path the descriptor addresses.
    path: String,
}

/// Replays a [`TraceOp`] stream into a filesystem, mapping golden-run
/// descriptor numbers to the descriptors the target filesystem hands
/// out.
///
/// A cursor is cheap to [`Clone`]: forked replays share the captured
/// trace and clone only the (small) descriptor map — the pattern the
/// metadata scanner uses to replay the same suffix thousands of times
/// from one mid-run snapshot.
#[derive(Debug, Clone, Default)]
pub struct ReplayCursor {
    fds: HashMap<Fd, ReplayFd>,
}

impl ReplayCursor {
    /// Cursor with no live descriptors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-issue one recorded op against `fs`.
    ///
    /// Ops addressing descriptors this cursor never saw (e.g. a
    /// `release` of an unrecorded read-only open) are skipped — they
    /// cannot change state.
    pub fn step(&mut self, fs: &dyn FileSystem, op: &TraceOp) -> FsResult<()> {
        match op {
            TraceOp::Mknod { path, kind, mode, dev } => fs.mknod(path, *kind, *mode, *dev),
            TraceOp::Mkdir { path, mode } => fs.mkdir(path, *mode),
            TraceOp::Unlink { path } => fs.unlink(path),
            TraceOp::Rmdir { path } => fs.rmdir(path),
            TraceOp::Rename { from, to } => fs.rename(from, to),
            TraceOp::Chmod { path, mode } => fs.chmod(path, *mode),
            TraceOp::Truncate { path, size } => fs.truncate(path, *size),
            TraceOp::Create { path, mode, fd } => {
                let new = fs.create(path, *mode)?;
                self.fds.insert(*fd, ReplayFd { fd: new, path: path.clone() });
                Ok(())
            }
            TraceOp::Open { path, flags, fd } => {
                let new = fs.open(path, *flags)?;
                self.fds.insert(*fd, ReplayFd { fd: new, path: path.clone() });
                Ok(())
            }
            TraceOp::Write { fd, offset, data, .. } => {
                let Some(entry) = self.fds.get(fd) else {
                    return Err(FsError::BadFd);
                };
                let n = match offset {
                    Some(off) => fs.pwrite(entry.fd, data, *off)?,
                    None => fs.write(entry.fd, data)?,
                };
                // Short device writes cannot be hidden from the
                // original application either; surface them.
                if n != data.len() {
                    return Err(FsError::Io);
                }
                Ok(())
            }
            TraceOp::Fsync { fd } => match self.fds.get(fd) {
                Some(entry) => fs.fsync(entry.fd),
                None => Ok(()),
            },
            TraceOp::Release { fd } => match self.fds.remove(fd) {
                Some(entry) => fs.release(entry.fd),
                None => Ok(()),
            },
            TraceOp::Lock { fd, kind } => match self.fds.get(fd) {
                Some(entry) => fs.lock(entry.fd, *kind),
                None => Ok(()),
            },
            TraceOp::Unlock { fd } => match self.fds.get(fd) {
                Some(entry) => fs.unlock(entry.fd),
                None => Ok(()),
            },
        }
    }

    /// Replay a slice of ops in order. On error, reports the index of
    /// the failing op alongside the error.
    pub fn replay(&mut self, fs: &dyn FileSystem, ops: &[TraceOp]) -> Result<(), ReplayError> {
        for (i, op) in ops.iter().enumerate() {
            self.step(fs, op).map_err(|error| ReplayError { index: i, error })?;
        }
        Ok(())
    }

    /// Register this cursor's live descriptors with a freshly mounted
    /// [`FfisFs`] so fd-addressed ops replayed through the mount carry
    /// their target path in the [`crate::CallContext`] — required for
    /// path-filtered injectors to see suffix writes. Call after
    /// mounting over a fork that was snapshotted mid-trace.
    pub fn seed_mount(&self, ffs: &FfisFs) {
        for entry in self.fds.values() {
            ffs.adopt_fd(entry.fd, &entry.path);
        }
    }

    /// Number of descriptors currently live in the replay.
    pub fn open_fds(&self) -> usize {
        self.fds.len()
    }

    /// Does replaying `op` from this cursor issue its primitive?
    /// Bookkeeping ops (`fsync`/`release`/`lock`/`unlock`) addressing a
    /// descriptor the cursor never saw are skipped by
    /// [`ReplayCursor::step`] without touching the filesystem —
    /// checkpoint passes count only the primitives a replay issues.
    fn issues(&self, op: &TraceOp) -> bool {
        op.bookkeeping_fd().is_none_or(|fd| self.fds.contains_key(&fd))
    }

    /// Replay a slice of ops, merging maximal runs of adjacent
    /// same-descriptor writes into single vectored applications.
    ///
    /// Two write shapes coalesce (never mixed within one run):
    ///
    /// * all cursor-sequential (`offset == None`) — applied with one
    ///   [`FileSystem::writev`];
    /// * all positioned (`offset == Some`) and byte-contiguous
    ///   (each op starts where the previous one ended) — applied with
    ///   one [`FileSystem::pwritev`] at the run's first offset.
    ///
    /// The result is byte-identical to [`ReplayCursor::replay`]; only
    /// the number of filesystem calls changes. Callers must ensure no
    /// observer needs per-op visibility over the slice (see the
    /// module docs) — typically by applying it to the mount's inner
    /// filesystem after the armed window has passed. On error, the
    /// reported index is the first op of the failing application.
    pub fn replay_coalesced(
        &mut self,
        fs: &dyn FileSystem,
        ops: &[TraceOp],
    ) -> Result<CoalesceStats, ReplayError> {
        let mut stats = CoalesceStats::default();
        let mut i = 0;
        while i < ops.len() {
            let run = coalescable_run(&ops[i..]);
            if run < 2 {
                self.step(fs, &ops[i]).map_err(|error| ReplayError { index: i, error })?;
                stats.replayed_ops += 1;
                i += 1;
                continue;
            }
            let (fd, offset) = match &ops[i] {
                TraceOp::Write { fd, offset, .. } => (*fd, *offset),
                _ => unreachable!("coalescable runs contain only writes"),
            };
            let entry = self.fds.get(&fd).ok_or(ReplayError { index: i, error: FsError::BadFd })?;
            let bufs: Vec<&[u8]> = ops[i..i + run]
                .iter()
                .map(|op| match op {
                    TraceOp::Write { data, .. } => data.as_slice(),
                    _ => unreachable!("coalescable runs contain only writes"),
                })
                .collect();
            let total: usize = bufs.iter().map(|b| b.len()).sum();
            let n = match offset {
                Some(off) => fs.pwritev(entry.fd, &bufs, off),
                None => fs.writev(entry.fd, &bufs),
            }
            .map_err(|error| ReplayError { index: i, error })?;
            if n != total {
                return Err(ReplayError { index: i, error: FsError::Io });
            }
            stats.replayed_ops += run;
            stats.coalesced_calls += 1;
            stats.coalesced_ops += run;
            i += run;
        }
        Ok(stats)
    }

    /// Replay the tail `trace[start..]` applying only the ops that
    /// address a path in one of the `kept` sets, coalescing the kept
    /// stretches exactly like [`ReplayCursor::replay_coalesced`].
    ///
    /// Which path an op addresses is read off the trace's
    /// [`PathIndex`] — resolved once per trace, so a run pays one
    /// indexed load per tail op and no hashing. The filter is
    /// path-attributed and conservative:
    ///
    /// * `create`/`open` of a dropped path also drops every later op
    ///   addressing the descriptor it would have mapped;
    /// * `write` and bookkeeping ops follow the `create`/`open` that
    ///   last bound their descriptor number in the stream — before
    ///   `start` or after it; for a cursor that replayed
    ///   `trace[..start]` that is the path the cursor maps a live
    ///   descriptor to. A `release` does not end the attribution: an
    ///   op on a number already released still follows the path it
    ///   last named, so whatever is applied finds the descriptor in
    ///   the state a full replay leaves it in ([`ReplayCursor::step`]
    ///   skips a bookkeeping op there and fails a `write` with
    ///   `BadFd`);
    /// * an op on a descriptor number nothing in the stream has bound
    ///   is applied, so a full replay's error surfaces unchanged;
    /// * path-addressed metadata ops (`truncate`/`chmod`) follow their
    ///   path; `mknod`/`mkdir` always apply — they are rare, cheap,
    ///   and keep parent directories present for kept files;
    /// * namespace ops that move or destroy state
    ///   (`rename`/`unlink`/`rmdir`) defeat path attribution: one at
    ///   or after `start` disables filtering and the whole tail
    ///   applies (one before `start` is the prefix's business).
    ///
    /// The filesystem state left behind differs from a full replay
    /// only on dropped paths; everything the sets select is
    /// byte-identical. Callers must therefore guarantee nothing
    /// downstream observes a dropped path — the memoized batched
    /// replay arm does so by construction, because dropped paths are
    /// exactly those no dirty analyze sub-step declares as input.
    /// Error indices count from `start`. The sets must come from this
    /// trace's index ([`PathIndex::select`]).
    pub fn replay_tail_filtered(
        &mut self,
        fs: &dyn FileSystem,
        trace: &SharedTrace,
        start: usize,
        kept: &[&PathSet],
    ) -> Result<CoalesceStats, ReplayError> {
        let index = trace.path_index();
        let ops = &trace[start..];
        if index.namespace_end > start {
            return self.replay_coalesced(fs, ops);
        }
        assert!(
            kept.iter().all(|set| set.0.len() == index.ids.len()),
            "path sets selected from another trace"
        );
        let keeps = |i: usize| index.keeps(start + i, kept);
        // Each maximal kept stretch goes through the ordinary
        // coalescing replay, with error indices mapped back to the
        // tail's numbering.
        let mut stats = CoalesceStats::default();
        let mut i = 0;
        while i < ops.len() {
            if !keeps(i) {
                stats.skipped_ops += 1;
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < ops.len() && keeps(j) {
                j += 1;
            }
            let sub = self
                .replay_coalesced(fs, &ops[i..j])
                .map_err(|e| ReplayError { index: e.index + i, error: e.error })?;
            stats.replayed_ops += sub.replayed_ops;
            stats.coalesced_calls += sub.coalesced_calls;
            stats.coalesced_ops += sub.coalesced_ops;
            i = j;
        }
        Ok(stats)
    }
}

/// Length of the maximal coalescable write run at the head of `ops`
/// (1 when the head op stands alone).
fn coalescable_run(ops: &[TraceOp]) -> usize {
    let TraceOp::Write { fd, offset, data, .. } = &ops[0] else {
        return 1;
    };
    let mut end = offset.as_ref().map(|off| off + data.len() as u64);
    let mut run = 1;
    for op in &ops[1..] {
        let TraceOp::Write { fd: f, offset: o, data: d, .. } = op else {
            break;
        };
        if f != fd {
            break;
        }
        match (end, o) {
            // Positioned run: next op must start where this one ended.
            (Some(e), Some(next)) if *next == e => end = Some(e + d.len() as u64),
            // Sequential run: cursor writes chain unconditionally.
            (None, None) => {}
            _ => break,
        }
        run += 1;
    }
    run
}

/// Accounting from one [`ReplayCursor::replay_coalesced`] (or
/// [`ReplayCursor::replay_tail_filtered`]) pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Trace ops applied (coalesced or not).
    pub replayed_ops: usize,
    /// Vectored filesystem calls issued for coalesced runs.
    pub coalesced_calls: usize,
    /// Trace ops absorbed into those vectored calls.
    pub coalesced_ops: usize,
    /// Trace ops dropped by the path filter (always 0 for the
    /// unfiltered pass).
    pub skipped_ops: usize,
}

/// A replay failure: which op failed and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the failing op within the replayed slice.
    pub index: usize,
    /// The filesystem error.
    pub error: FsError,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay op {} failed: {}", self.index, self.error)
    }
}

impl std::error::Error for ReplayError {}

/// A golden op stream behind one shared allocation.
///
/// Every consumer of a golden trace — each checkpoint set placed over
/// it, each campaign planning against it — holds this handle, so write
/// payloads are never copied out of the run that recorded them.
/// Anything that accepts a trace accepts a plain `Vec<TraceOp>` too
/// (`From`). The content fingerprint a [`CheckpointStore`] keys on and
/// the [`PathIndex`] the filtered tail reads are each computed at most
/// once per allocation, on first use, and travel with it.
#[derive(Clone)]
pub struct SharedTrace(Arc<TraceInner>);

struct TraceInner {
    ops: Vec<TraceOp>,
    fingerprint: OnceLock<u64>,
    paths: OnceLock<PathIndex>,
}

impl SharedTrace {
    /// Content fingerprint of the stream (see [`trace_fingerprint`]),
    /// hashed on first use.
    fn fingerprint(&self) -> u64 {
        *self.0.fingerprint.get_or_init(|| trace_fingerprint(&self.0.ops))
    }

    /// Which path every op addresses, resolved on first use.
    pub fn path_index(&self) -> &PathIndex {
        self.0.paths.get_or_init(|| PathIndex::build(&self.0.ops))
    }

    /// Has anything asked for [`SharedTrace::path_index`] yet? Only a
    /// memoized write-site campaign should.
    pub fn path_index_built(&self) -> bool {
        self.0.paths.get().is_some()
    }

    /// Do both handles name one allocation?
    pub fn ptr_eq(&self, other: &SharedTrace) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Op-for-op equality, decided by the pointers when they agree
    /// and by comparing every op, payloads included, when they do not.
    fn same_ops(&self, other: &SharedTrace) -> bool {
        self.ptr_eq(other) || self.0.ops == other.0.ops
    }
}

impl From<Vec<TraceOp>> for SharedTrace {
    fn from(ops: Vec<TraceOp>) -> Self {
        SharedTrace(Arc::new(TraceInner {
            ops,
            fingerprint: OnceLock::new(),
            paths: OnceLock::new(),
        }))
    }
}

impl std::ops::Deref for SharedTrace {
    type Target = [TraceOp];

    fn deref(&self) -> &[TraceOp] {
        &self.0.ops
    }
}

/// Which path each op of a stream addresses, as a dense id — what
/// [`ReplayCursor::replay_tail_filtered`] indexes instead of hashing
/// descriptors and comparing path strings per op and per run.
///
/// A function of the ops alone: a descriptor number is resolved to
/// the stream's last `create`/`open` of it, so one table serves every
/// start index. Ids number the distinct paths that `create`, `open`,
/// `truncate` and `chmod` name, in order of first appearance.
pub struct PathIndex {
    ids: HashMap<String, u32>,
    /// Per op, the id of the path it addresses, or [`APPLIED`] when
    /// no path verdict governs it (`mknod`/`mkdir`, namespace ops, an
    /// op on a descriptor number the stream never bound).
    op_path: Vec<u32>,
    /// One past the last `rename`/`unlink`/`rmdir`; 0 without one.
    namespace_end: usize,
}

/// [`PathIndex::op_path`] of an op no path set can drop.
const APPLIED: u32 = u32::MAX;

/// A set of a trace's paths, by [`PathIndex`] id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSet(Vec<bool>);

impl PathIndex {
    fn build(ops: &[TraceOp]) -> PathIndex {
        fn intern(ids: &mut HashMap<String, u32>, path: &str) -> u32 {
            if let Some(&id) = ids.get(path) {
                return id;
            }
            let id = u32::try_from(ids.len()).expect("fewer than 2^32 paths");
            ids.insert(path.to_string(), id);
            id
        }
        let mut ids = HashMap::new();
        let mut bound: HashMap<Fd, u32> = HashMap::new();
        let mut namespace_end = 0;
        let mut op_path = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            op_path.push(match op {
                TraceOp::Rename { .. } | TraceOp::Unlink { .. } | TraceOp::Rmdir { .. } => {
                    namespace_end = i + 1;
                    APPLIED
                }
                TraceOp::Mknod { .. } | TraceOp::Mkdir { .. } => APPLIED,
                TraceOp::Create { path, fd, .. } | TraceOp::Open { path, fd, .. } => {
                    let id = intern(&mut ids, path);
                    bound.insert(*fd, id);
                    id
                }
                TraceOp::Truncate { path, .. } | TraceOp::Chmod { path, .. } => {
                    intern(&mut ids, path)
                }
                TraceOp::Write { fd, .. }
                | TraceOp::Fsync { fd }
                | TraceOp::Release { fd }
                | TraceOp::Lock { fd, .. }
                | TraceOp::Unlock { fd } => bound.get(fd).copied().unwrap_or(APPLIED),
            });
        }
        PathIndex { ids, op_path, namespace_end }
    }

    /// Those of `paths` the stream addresses, as a set of ids; a path
    /// the stream never names has no op to keep.
    pub fn select<'a>(&self, paths: impl IntoIterator<Item = &'a str>) -> PathSet {
        let mut set = vec![false; self.ids.len()];
        for path in paths {
            if let Some(&id) = self.ids.get(path) {
                set[id as usize] = true;
            }
        }
        PathSet(set)
    }

    /// Does op `i` survive a filter keeping the paths in `kept`?
    fn keeps(&self, i: usize, kept: &[&PathSet]) -> bool {
        let id = self.op_path[i];
        id == APPLIED || kept.iter().any(|set| set.0[id as usize])
    }
}

/// One mid-trace snapshot of a golden replay stream: the filesystem
/// state, descriptor map, and per-primitive counts after applying
/// `ops[..index]`.
///
/// The filesystem is held behind an [`Arc`] so thousands of injection
/// runs can [`MemFs::fork`] it concurrently; each fork shares the whole
/// inode table and costs the same whatever the state holds.
pub struct TraceCheckpoint {
    index: usize,
    fs: Arc<MemFs>,
    cursor: ReplayCursor,
    counters: CounterSnapshot,
}

impl TraceCheckpoint {
    /// Number of ops applied to reach this snapshot (`ops[..index]`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Per-primitive counts of the ops a replay of the prefix issues.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters
    }

    /// Fork the snapshot and mount it for a suffix replay: the
    /// returned [`FfisFs`] has the checkpoint's descriptors adopted
    /// (so fd-addressed suffix ops carry their target path into
    /// [`crate::CallContext`]) and its per-primitive counters
    /// pre-seeded with the prefix counts (so suffix ops observe the
    /// same `prim_seq` numbering a full-trace replay would produce).
    /// The returned cursor is positioned at `index`; replay
    /// `ops[index..]` through it.
    pub fn mount_fork(&self) -> (Arc<FfisFs>, ReplayCursor) {
        let ffs = FfisFs::mount(Arc::new(self.fs.fork()));
        let cursor = self.cursor.clone();
        cursor.seed_mount(&ffs);
        ffs.preseed_counters(&self.counters);
        (ffs, cursor)
    }
}

/// How a [`TraceCheckpoints`] set chose its snapshot indices.
///
/// Demand-placed and log-spaced sets over the *same* trace are
/// distinct cache entries (see
/// [`CheckpointStore::get_or_build_for_demand`]): the placement is
/// part of the identity, so the two coexist in the store without
/// invalidating each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Log-spaced from the end (`{0} ∪ {n − n/2ᵏ}`); the
    /// demand-oblivious default with ≤ ~2× suffix overshoot.
    LogSpaced,
    /// Placed against a campaign's fork-offset demand (the sorted,
    /// in-range offsets the builder was given).
    Demand(Vec<usize>),
}

/// Mid-trace [`TraceCheckpoint`]s over a golden op stream — the
/// campaign-side analogue of the metadata scanner's single
/// pre-injection snapshot.
///
/// A campaign run targeting the op at index `t` must replay every op
/// from its starting snapshot through the end of the trace (`n - c`
/// ops from a checkpoint at `c ≤ t`), so the best any snapshot can do
/// for that run is `n - t`. [`TraceCheckpoints::build`] places
/// snapshots log-spaced *from the end* — at indices
/// `n - n/2, n - n/4, …` — which guarantees the replayed suffix is at
/// most ~2× the minimal possible one for *every* target with only
/// O(log n) snapshots, without knowing any target in advance.
/// [`TraceCheckpoints::build_for_demand`] instead takes the campaign's
/// actual fork-offset histogram and places snapshots to minimize the
/// *total* overshoot over those offsets — zero when the distinct
/// offsets fit the snapshot budget. Either way each checkpoint is a
/// CoW fork sharing all file pages with its neighbours.
pub struct TraceCheckpoints {
    ops: SharedTrace,
    points: Vec<TraceCheckpoint>,
    placement: Placement,
    /// Per-primitive counts a replay of the whole stream issues: what
    /// every batch measures its tails against. Known from the build
    /// pass; a set decoded from disk replays its last segment for them
    /// on first use (see [`TraceCheckpoints::end_counters`]).
    end_counters: OnceLock<CounterSnapshot>,
}

/// Default cap on the number of snapshots [`TraceCheckpoints::build`]
/// materializes (covers traces up to ~2²⁰ ops at 2×-overshoot).
pub const DEFAULT_MAX_CHECKPOINTS: usize = 20;

/// Above this many distinct demanded offsets, the k-median placement
/// coarsens the demand histogram by merging adjacent offsets so the
/// O(k·m²) placement stays cheap.
const DEMAND_DP_LIMIT: usize = 1024;

impl TraceCheckpoints {
    /// Build log-spaced checkpoints with the default cap.
    pub fn build(ops: impl Into<SharedTrace>) -> Result<Self, ReplayError> {
        Self::build_with(ops, DEFAULT_MAX_CHECKPOINTS)
    }

    /// Build checkpoints at indices `{0} ∪ {n − n/2ᵏ}`, capped at
    /// `max_points` snapshots, by replaying the stream once on a bare
    /// [`MemFs`]. Fails with the first replay error (a stream that
    /// cannot rebuild cleanly cannot anchor injection runs).
    pub fn build_with(ops: impl Into<SharedTrace>, max_points: usize) -> Result<Self, ReplayError> {
        let ops = ops.into();
        let n = ops.len();
        let mut wanted = std::collections::BTreeSet::new();
        wanted.insert(0usize);
        let mut seg = n;
        while wanted.len() < max_points.max(1) && seg > 1 {
            seg /= 2;
            wanted.insert(n - seg);
        }
        Self::build_at(ops, &wanted, Placement::LogSpaced)
    }

    /// Build checkpoints placed against a campaign's fork-offset
    /// demand, with the default snapshot cap.
    ///
    /// `demand` holds one entry per planned replay run: the op index
    /// that run forks at (its injection target). Out-of-range entries
    /// (`0` or `≥ n`) are ignored; an effectively empty demand falls
    /// back to log-spaced placement.
    pub fn build_for_demand(
        ops: impl Into<SharedTrace>,
        demand: &[usize],
    ) -> Result<Self, ReplayError> {
        Self::build_for_demand_with(ops, demand, DEFAULT_MAX_CHECKPOINTS)
    }

    /// [`TraceCheckpoints::build_for_demand`] with an explicit
    /// snapshot cap. When the distinct demanded offsets fit within
    /// `max_points - 1` (index 0 is always snapshotted), every
    /// demanded offset gets its own checkpoint — zero overshoot.
    /// Otherwise a weighted k-median placement over the demand
    /// histogram minimizes the total replayed-op overshoot.
    pub fn build_for_demand_with(
        ops: impl Into<SharedTrace>,
        demand: &[usize],
        max_points: usize,
    ) -> Result<Self, ReplayError> {
        let ops = ops.into();
        let n = ops.len();
        let mut sorted: Vec<usize> = demand.iter().copied().filter(|&d| d > 0 && d < n).collect();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return Self::build_with(ops, max_points);
        }
        let budget = max_points.max(2) - 1;
        let mut wanted: std::collections::BTreeSet<usize> = [0usize].into();
        let mut distinct: Vec<(usize, u64)> = Vec::new();
        for &d in &sorted {
            match distinct.last_mut() {
                Some((v, w)) if *v == d => *w += 1,
                _ => distinct.push((d, 1)),
            }
        }
        if distinct.len() <= budget {
            wanted.extend(distinct.iter().map(|&(v, _)| v));
        } else {
            wanted.extend(demand_placement(&distinct, budget));
        }
        Self::build_at(ops, &wanted, Placement::Demand(sorted))
    }

    /// Snapshot at every index in `wanted` while replaying the stream
    /// once on a bare [`MemFs`].
    fn build_at(
        ops: SharedTrace,
        wanted: &std::collections::BTreeSet<usize>,
        placement: Placement,
    ) -> Result<Self, ReplayError> {
        let origin = TraceCheckpoint {
            index: 0,
            fs: Arc::new(MemFs::new()),
            cursor: ReplayCursor::new(),
            counters: CounterSnapshot::default(),
        };
        let (points, end) = snapshot_pass(&ops, &origin, wanted.iter().copied())?;
        Ok(TraceCheckpoints { ops, points, placement, end_counters: end.into() })
    }

    /// The counters at the end of the stream, replaying
    /// `ops[last checkpoint..]` for them if this set never has.
    fn end_counters(&self) -> Result<CounterSnapshot, ReplayError> {
        if let Some(end) = self.end_counters.get() {
            return Ok(*end);
        }
        let last = self.points.last().expect("a set always holds its zero checkpoint");
        let (_, end) = snapshot_pass(&self.ops, last, [])?;
        Ok(*self.end_counters.get_or_init(|| end))
    }

    /// The full golden op stream.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// The shared handle to that stream.
    pub fn trace(&self) -> &SharedTrace {
        &self.ops
    }

    /// How this set's snapshot indices were chosen.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Total replayed-op overshoot this set incurs over a fork-offset
    /// demand: `Σ (target − nearest checkpoint ≤ target)`. Zero means
    /// every demanded offset forks exactly at its target.
    pub fn overshoot_for(&self, demand: &[usize]) -> u64 {
        demand
            .iter()
            .filter(|&&d| d < self.ops.len().max(1))
            .map(|&d| (d - self.nearest_before(d).index()) as u64)
            .sum()
    }

    /// All checkpoints, ascending by index (always starts at 0).
    pub fn points(&self) -> &[TraceCheckpoint] {
        &self.points
    }

    /// The nearest checkpoint at or before op index `target` — the
    /// starting snapshot for a run injecting into `ops[target]`.
    pub fn nearest_before(&self, target: usize) -> &TraceCheckpoint {
        let idx = self.points.partition_point(|p| p.index <= target);
        &self.points[idx.saturating_sub(1)]
    }

    /// The trace suffix still to replay from `point`.
    pub fn suffix(&self, point: &TraceCheckpoint) -> &[TraceOp] {
        &self.ops[point.index..]
    }

    /// Materialize per-target mini-checkpoints for a batch of replay
    /// runs that share the starting checkpoint `checkpoint`: one bare
    /// replay pass advances from that snapshot to the batch's last
    /// in-range target and stops there, forking a [`TraceCheckpoint`]
    /// at every distinct in-range target index (state just *before*
    /// the target op, counters included) and recording, per target,
    /// the additive counter delta of the remaining tail
    /// `ops[target + 1..]` — what a run must pre-seed after applying
    /// that tail off-mount so analyze observes full-replay `prim_seq`
    /// numbering. The delta is measured against the set's
    /// end-of-stream counters, which the pass that built the set
    /// already counted (a set loaded from disk replays
    /// `ops[last checkpoint..]` for them once, on its first batch);
    /// no batch replays past its last target to learn them again.
    ///
    /// This is the fork-once-replay-many amortization behind engine
    /// law 9: the shared prefix `checkpoint → max(target)` is replayed
    /// once per batch instead of once per run, and each run then pays
    /// only one mounted crossing (its target op) plus the off-mount
    /// tail. Targets below the checkpoint's index or outside the trace
    /// are skipped — callers fall back to the classic per-run arm for
    /// those.
    pub fn fork_at_targets(
        &self,
        checkpoint: usize,
        targets: &[usize],
    ) -> Result<BatchForks, ReplayError> {
        let n = self.ops.len();
        let point = &self.points[checkpoint];
        let mut wanted: Vec<usize> =
            targets.iter().copied().filter(|&t| t >= point.index && t < n).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let Some(&stop) = wanted.last() else {
            return Ok(BatchForks { forks: Vec::new() });
        };

        let (points, _) = snapshot_pass(&self.ops[..stop], point, wanted)?;
        Ok(self.batch_forks(points, self.end_counters()?))
    }

    /// Pair each mini-checkpoint of a batch pass with what its run
    /// pre-seeds for the tail `ops[target + 1..]`: everything a replay
    /// of the whole stream counts (`end`), less the prefix and the
    /// target op itself.
    fn batch_forks(&self, points: Vec<TraceCheckpoint>, end: CounterSnapshot) -> BatchForks {
        let forks = points
            .into_iter()
            .map(|point| {
                let mut seen = point.counters;
                let target = &self.ops[point.index];
                if point.cursor.issues(target) {
                    seen.bump(target.primitive(), 1);
                }
                BatchFork { point, tail_counters: end.diff(&seen) }
            })
            .collect();
        BatchForks { forks }
    }
}

/// The one bare replay pass behind every checkpoint: advance a fork of
/// `start` through `ops[start.index..]`, forking a [`TraceCheckpoint`]
/// (state and counters after `ops[..i]`) at every `i` in `wanted` —
/// ascending, distinct, `start.index ≤ i ≤ ops.len()` — and return the
/// points with the counters at the end of `ops` (a caller that wants
/// the pass to stop early hands it a prefix of the stream). An empty
/// stream still yields its zero checkpoint. Fails with the first replay
/// error (a stream that cannot rebuild cleanly cannot anchor injection
/// runs).
fn snapshot_pass(
    ops: &[TraceOp],
    start: &TraceCheckpoint,
    wanted: impl IntoIterator<Item = usize>,
) -> Result<(Vec<TraceCheckpoint>, CounterSnapshot), ReplayError> {
    let working = start.fs.fork();
    let mut cursor = start.cursor.clone();
    let mut counters = start.counters;
    let mut wanted = wanted.into_iter().peekable();
    let mut points = Vec::with_capacity(wanted.size_hint().0);
    for i in start.index..=ops.len() {
        if wanted.next_if_eq(&i).is_some() {
            points.push(TraceCheckpoint {
                index: i,
                fs: Arc::new(working.fork()),
                cursor: cursor.clone(),
                counters,
            });
        }
        let Some(op) = ops.get(i) else { break };
        let issued = cursor.issues(op);
        cursor.step(&working, op).map_err(|error| ReplayError { index: i, error })?;
        if issued {
            counters.bump(op.primitive(), 1);
        }
    }
    Ok((points, counters))
}

/// One target's slice of a [`TraceCheckpoints::fork_at_targets`]
/// batch: the pre-target snapshot to fork plus the counter delta of
/// the post-target tail.
pub struct BatchFork {
    point: TraceCheckpoint,
    tail_counters: CounterSnapshot,
}

impl BatchFork {
    /// The mini-checkpoint at the target op (state after
    /// `ops[..target]`; [`TraceCheckpoint::index`] is the target).
    pub fn point(&self) -> &TraceCheckpoint {
        &self.point
    }

    /// Per-primitive counts the tail `ops[target + 1..]` would issue
    /// through a mount — the additive
    /// [`FfisFs::preseed_counters`] delta a batched run applies after
    /// replaying that tail against the mount's inner filesystem
    /// directly.
    pub fn tail_counters(&self) -> CounterSnapshot {
        self.tail_counters
    }
}

/// Mini-checkpoints for one checkpoint-grouped replay batch, ascending
/// by target index (see [`TraceCheckpoints::fork_at_targets`]).
pub struct BatchForks {
    forks: Vec<BatchFork>,
}

impl BatchForks {
    /// The fork whose snapshot sits exactly at `target`, if the batch
    /// pass materialized one.
    pub fn for_target(&self, target: usize) -> Option<&BatchFork> {
        let i = self.forks.partition_point(|f| f.point.index < target);
        self.forks.get(i).filter(|f| f.point.index == target)
    }

    /// Number of materialized target forks.
    pub fn len(&self) -> usize {
        self.forks.len()
    }

    /// Whether the pass materialized no forks (every target was out of
    /// range).
    pub fn is_empty(&self) -> bool {
        self.forks.is_empty()
    }
}

/// Choose up to `budget` checkpoint indices for a demand histogram of
/// `(offset, weight)` pairs (sorted ascending, distinct), minimizing
/// the weighted total overshoot `Σ w·(offset − nearest chosen ≤
/// offset)` given that index 0 is always available as a free
/// fallback facility. Classic k-median-on-a-line DP, O(budget·m²)
/// after coarsening the histogram to at most [`DEMAND_DP_LIMIT`]
/// entries (adjacent offsets merge onto the smaller one, which keeps
/// every merged target servable by the kept index).
fn demand_placement(histogram: &[(usize, u64)], budget: usize) -> Vec<usize> {
    let mut hist: Vec<(usize, u64)> = histogram.to_vec();
    while hist.len() > DEMAND_DP_LIMIT {
        hist = hist.chunks(2).map(|pair| (pair[0].0, pair.iter().map(|&(_, w)| w).sum())).collect();
    }
    let m = hist.len();
    let k = budget.min(m);
    // Prefix sums over weights and weight·offset products.
    let mut wsum = vec![0u64; m + 1];
    let mut wvsum = vec![0u64; m + 1];
    for (i, &(v, w)) in hist.iter().enumerate() {
        wsum[i + 1] = wsum[i] + w;
        wvsum[i + 1] = wvsum[i] + w * v as u64;
    }
    // Cost of serving hist[i..j] from a facility at hist[i].0.
    let seg = |i: usize, j: usize| -> u64 {
        (wvsum[j] - wvsum[i]) - hist[i].0 as u64 * (wsum[j] - wsum[i])
    };
    // f[p][j]: min cost of serving hist[..j] with p facilities placed
    // (plus the free facility at index 0 serving any leading stretch);
    // from[p][j] records where the last facility segment started.
    let mut f = vec![vec![u64::MAX; m + 1]; k + 1];
    let mut from = vec![vec![usize::MAX; m + 1]; k + 1];
    f[0][..=m].copy_from_slice(&wvsum[..=m]); // served entirely by the index-0 fallback
    for p in 1..=k {
        f[p][0] = 0;
        for j in 1..=m {
            f[p][j] = f[p - 1][j];
            from[p][j] = usize::MAX;
            for i in 0..j {
                if f[p - 1][i] == u64::MAX {
                    continue;
                }
                let cost = f[p - 1][i] + seg(i, j);
                if cost < f[p][j] {
                    f[p][j] = cost;
                    from[p][j] = i;
                }
            }
        }
    }
    let mut chosen = Vec::with_capacity(k);
    let (mut p, mut j) = (k, m);
    while p > 0 && j > 0 {
        let i = from[p][j];
        if i == usize::MAX {
            p -= 1; // this level used fewer facilities
            continue;
        }
        chosen.push(hist[i].0);
        j = i;
        p -= 1;
    }
    chosen
}

/// Content fingerprint of a fork-offset demand (order-insensitive:
/// the multiset is sorted before hashing). Combined with the trace
/// fingerprint it keys demand-placed checkpoint sets in a
/// [`CheckpointStore`] so they coexist with the log-spaced set for
/// the same trace.
pub fn demand_fingerprint(demand: &[usize]) -> u64 {
    let mut sorted: Vec<usize> = demand.to_vec();
    sorted.sort_unstable();
    let mut h = Fnv::new();
    h.eat_u64(sorted.len() as u64);
    for d in sorted {
        h.eat_u64(d as u64);
    }
    h.0
}

/// One eligible `FFIS_read` crossing observed by a [`ReadLedger`]:
/// the call identity (numbering, addressing) plus a content
/// fingerprint of the bytes the read returned.
///
/// Entries are appended at call *entry* (the attempt-based numbering
/// the profiler and the armed injector both use), so a read that fails
/// still occupies its slot — `returned` stays `None` and the
/// fingerprint stays at [`EMPTY_FINGERPRINT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// Per-primitive dynamic count of this `FFIS_read` (1-based).
    pub prim_seq: u64,
    /// Global call-sequence number of the crossing.
    pub seq: u64,
    /// Target path, when the descriptor is tracked by the mount.
    pub path: Option<String>,
    /// Byte offset for positioned reads (`None` = cursor read).
    pub offset: Option<u64>,
    /// Requested buffer length.
    pub len: usize,
    /// Bytes the inner filesystem returned; `None` when the read
    /// failed (the crossing was counted but never filled a buffer).
    pub returned: Option<usize>,
    /// [`content_fingerprint`] of the returned bytes
    /// ([`EMPTY_FINGERPRINT`] when none).
    pub fingerprint: u64,
}

/// The trace capture's **read ledger**: counts and fingerprints every
/// `FFIS_read` crossing the mount, with a phase watermark separating
/// the produce-phase reads from the analyze-phase reads.
///
/// The golden trace deliberately records no reads (they cannot change
/// state), which is what makes read-site faults non-*replayable* — but
/// the campaign planner still needs to know, for a read-site signature
/// targeting eligible instance *k*, whether that instance fires during
/// produce or during analyze. The ledger answers that: attach it to
/// the golden run alongside the [`TraceRecorder`], call
/// [`ReadLedger::mark_produce_end`] at the phase boundary, and the
/// entry index space splits into `[0, produce_reads)` (produce-phase)
/// and `[produce_reads, len)` (analyze-phase). Fingerprints let the
/// drivers verify that a re-executed analyze phase re-issues the exact
/// golden read stream before trusting the fast path.
#[derive(Debug)]
pub struct ReadLedger {
    entries: Mutex<Vec<ReadRecord>>,
    /// Entry count at the produce/analyze boundary; `usize::MAX`
    /// until [`ReadLedger::mark_produce_end`] runs (conservatively:
    /// every read counts as produce-phase when unmarked).
    boundary: std::sync::atomic::AtomicUsize,
}

impl Default for ReadLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadLedger {
    /// Empty ledger, boundary unmarked.
    pub fn new() -> Self {
        ReadLedger {
            entries: Mutex::new(Vec::new()),
            boundary: std::sync::atomic::AtomicUsize::new(usize::MAX),
        }
    }

    /// Mark the produce/analyze phase boundary at the current entry
    /// count and return it. Call between the two phases of the golden
    /// run.
    pub fn mark_produce_end(&self) -> usize {
        let n = self.len();
        self.boundary.store(n, std::sync::atomic::Ordering::SeqCst);
        n
    }

    /// Number of reads issued during the produce phase. When the
    /// boundary was never marked, every recorded read counts as
    /// produce-phase (the conservative answer: nothing qualifies for
    /// an analyze-only re-execution).
    pub fn produce_reads(&self) -> usize {
        self.boundary.load(std::sync::atomic::Ordering::SeqCst).min(self.len())
    }

    /// Snapshot the recorded entries (in call order).
    pub fn records(&self) -> Vec<ReadRecord> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of reads recorded so far.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no read has crossed the mount yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Interceptor for ReadLedger {
    fn on_call(&self, cx: &crate::interceptor::CallContext) {
        if cx.primitive != Primitive::Read {
            return;
        }
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).push(ReadRecord {
            prim_seq: cx.prim_seq,
            seq: cx.seq,
            path: cx.path.clone(),
            offset: cx.offset,
            len: cx.len,
            returned: None,
            fingerprint: EMPTY_FINGERPRINT,
        });
    }

    fn on_read(
        &self,
        cx: &crate::interceptor::CallContext,
        buf: &mut [u8],
        n: usize,
    ) -> crate::interceptor::ReadAction {
        // Hash before taking the lock: the buffer is this caller's.
        let fingerprint = content_fingerprint(&buf[..n]);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        // The matching entry is almost always the last one (golden
        // runs are single-threaded); search backwards by `seq` to stay
        // correct regardless.
        if let Some(entry) = entries.iter_mut().rev().find(|e| e.seq == cx.seq) {
            entry.returned = Some(n);
            entry.fingerprint = fingerprint;
        }
        crate::interceptor::ReadAction::Forward
    }
}

/// FNV-1a accumulator — the workspace's *identity* digest: demand
/// fingerprints and the fixed fields of a trace key here, plan
/// fingerprints, run digests and the golden memo key in `ffis-core`.
/// Its values are pinned by tests and echoed in journals. It never
/// sees a payload — a read buffer or a write op's `data` goes through
/// [`content_fingerprint`]. The field is the running hash.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a 64-bit offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    /// Fold `bytes` into the hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    /// Fold a little-endian `u64`.
    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// Content fingerprint of a golden op stream: FNV over every op's
/// [`encode_op`] bytes, in order, with each write payload standing in
/// as its [`content_fingerprint`]. Campaigns whose golden runs are
/// byte-identical (the common case: several fault models over one
/// deterministic workload) hash to the same key. A private cache key:
/// hits are re-checked by op equality, so its value may change freely.
fn trace_fingerprint(ops: &[TraceOp]) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(ops.len() as u64);
    let mut fields = Vec::new();
    for op in ops {
        fields.clear();
        encode_op(op, &mut fields, &mut |fields, data| {
            wire::put_u64(fields, content_fingerprint(data));
        });
        h.eat(&fields);
    }
    h.0
}

/// Checkpoint-manifest files are [`crate::frame`] records sealed with
/// this magic; the CRC-covered body opens with the schema and the
/// cache key the file is named after (see [`encode_manifest`]).
/// `FFISCKM1` files kept both outside the CRC; they fail `open` and
/// are rebuilt.
const MANIFEST_MAGIC: &[u8; 8] = b"FFISCKM2";
const MANIFEST_SCHEMA: u32 = 2;

/// Serialize one trace op — the only field-by-field walk of
/// [`TraceOp`]; tag bytes follow its variant order. A write's payload
/// is not appended: after the fixed fields and the payload length,
/// `payload(buf, data)` decides what stands for the bytes (the
/// manifest appends blob hashes, the fingerprint hashes them).
fn encode_op(op: &TraceOp, buf: &mut Vec<u8>, payload: &mut dyn FnMut(&mut Vec<u8>, &[u8])) {
    match op {
        TraceOp::Mknod { path, kind, mode, dev } => {
            wire::put_u8(buf, 0);
            wire::put_str(buf, path);
            wire::put_u8(buf, memfs::kind_code(*kind));
            wire::put_u32(buf, *mode);
            wire::put_u64(buf, *dev);
        }
        TraceOp::Mkdir { path, mode } => {
            wire::put_u8(buf, 1);
            wire::put_str(buf, path);
            wire::put_u32(buf, *mode);
        }
        TraceOp::Unlink { path } => {
            wire::put_u8(buf, 2);
            wire::put_str(buf, path);
        }
        TraceOp::Rmdir { path } => {
            wire::put_u8(buf, 3);
            wire::put_str(buf, path);
        }
        TraceOp::Rename { from, to } => {
            wire::put_u8(buf, 4);
            wire::put_str(buf, from);
            wire::put_str(buf, to);
        }
        TraceOp::Chmod { path, mode } => {
            wire::put_u8(buf, 5);
            wire::put_str(buf, path);
            wire::put_u32(buf, *mode);
        }
        TraceOp::Truncate { path, size } => {
            wire::put_u8(buf, 6);
            wire::put_str(buf, path);
            wire::put_u64(buf, *size);
        }
        TraceOp::Create { path, mode, fd } => {
            wire::put_u8(buf, 7);
            wire::put_str(buf, path);
            wire::put_u32(buf, *mode);
            wire::put_u64(buf, *fd);
        }
        TraceOp::Open { path, flags, fd } => {
            wire::put_u8(buf, 8);
            wire::put_str(buf, path);
            wire::put_u8(buf, memfs::flags_code(flags));
            wire::put_u64(buf, *fd);
        }
        TraceOp::Write { fd, path, offset, data } => {
            wire::put_u8(buf, 9);
            wire::put_u64(buf, *fd);
            wire::put_opt_str(buf, path.as_deref());
            match offset {
                Some(o) => {
                    wire::put_u8(buf, 1);
                    wire::put_u64(buf, *o);
                }
                None => wire::put_u8(buf, 0),
            }
            wire::put_u32(buf, data.len() as u32);
            payload(buf, data);
        }
        TraceOp::Fsync { fd } => {
            wire::put_u8(buf, 10);
            wire::put_u64(buf, *fd);
        }
        TraceOp::Release { fd } => {
            wire::put_u8(buf, 11);
            wire::put_u64(buf, *fd);
        }
        TraceOp::Lock { fd, kind } => {
            wire::put_u8(buf, 12);
            wire::put_u64(buf, *fd);
            wire::put_u8(
                buf,
                match kind {
                    LockKind::Shared => 1,
                    LockKind::Exclusive => 2,
                },
            );
        }
        TraceOp::Unlock { fd } => {
            wire::put_u8(buf, 13);
            wire::put_u64(buf, *fd);
        }
    }
}

/// The manifest's stand-in for a write payload: the bytes go to
/// `blobs` as ≤ one-page content-addressed chunks, the chunk count and
/// their hashes to `buf`.
fn externalize(blobs: &BlobStore, buf: &mut Vec<u8>, data: &[u8]) {
    wire::put_u32(buf, data.chunks(BLOCK_SIZE).len() as u32);
    for chunk in data.chunks(BLOCK_SIZE) {
        buf.extend_from_slice(&blobs.put(chunk));
    }
}

/// Inverse of [`encode_op`] with [`externalize`]d payloads; `None` on
/// any malformed field or a write chunk missing from / corrupted in
/// the blob store.
fn decode_op(r: &mut wire::Reader<'_>, blobs: &BlobStore) -> Option<TraceOp> {
    Some(match r.u8()? {
        0 => TraceOp::Mknod {
            path: r.str()?,
            kind: memfs::kind_from_code(r.u8()?)?,
            mode: r.u32()?,
            dev: r.u64()?,
        },
        1 => TraceOp::Mkdir { path: r.str()?, mode: r.u32()? },
        2 => TraceOp::Unlink { path: r.str()? },
        3 => TraceOp::Rmdir { path: r.str()? },
        4 => TraceOp::Rename { from: r.str()?, to: r.str()? },
        5 => TraceOp::Chmod { path: r.str()?, mode: r.u32()? },
        6 => TraceOp::Truncate { path: r.str()?, size: r.u64()? },
        7 => TraceOp::Create { path: r.str()?, mode: r.u32()?, fd: r.u64()? },
        8 => {
            TraceOp::Open { path: r.str()?, flags: memfs::flags_from_code(r.u8()?)?, fd: r.u64()? }
        }
        9 => {
            let fd = r.u64()?;
            let path = r.opt_str()?;
            let offset = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return None,
            };
            let total = r.u32()? as usize;
            let n_chunks = r.u32()? as usize;
            // `total` is on-disk input: bound it by what the chunk
            // hashes actually present could hold before allocating.
            if n_chunks.checked_mul(32)? > r.remaining() || total > n_chunks * BLOCK_SIZE {
                return None;
            }
            let mut data = Vec::with_capacity(total);
            for _ in 0..n_chunks {
                let hash: [u8; 32] = r.bytes(32)?.try_into().ok()?;
                data.extend_from_slice(&blobs.get(&hash)?);
            }
            if data.len() != total {
                return None;
            }
            TraceOp::Write { fd, path, offset, data }
        }
        10 => TraceOp::Fsync { fd: r.u64()? },
        11 => TraceOp::Release { fd: r.u64()? },
        12 => TraceOp::Lock {
            fd: r.u64()?,
            kind: match r.u8()? {
                1 => LockKind::Shared,
                2 => LockKind::Exclusive,
                _ => return None,
            },
        },
        13 => TraceOp::Unlock { fd: r.u64()? },
        _ => return None,
    })
}

/// Serialize a built checkpoint set into a manifest body: `schema u32
/// | key u64`, the placement, the op stream, then each checkpoint's
/// state. Write payloads and filesystem pages land in `blobs` as
/// content-addressed chunks; the manifest stores only their hashes, so
/// checkpoints sharing page content (log-spaced snapshots of one
/// growing file, or sibling campaigns over the same workload) dedupe
/// on disk.
fn encode_manifest(key: u64, cks: &TraceCheckpoints, blobs: &BlobStore) -> Vec<u8> {
    let mut body = Vec::new();
    wire::put_u32(&mut body, MANIFEST_SCHEMA);
    wire::put_u64(&mut body, key);
    match &cks.placement {
        Placement::LogSpaced => wire::put_u8(&mut body, 0),
        Placement::Demand(demand) => {
            wire::put_u8(&mut body, 1);
            wire::put_u32(&mut body, demand.len() as u32);
            for &d in demand {
                wire::put_u64(&mut body, d as u64);
            }
        }
    }
    wire::put_u32(&mut body, cks.ops.len() as u32);
    for op in cks.ops.iter() {
        encode_op(op, &mut body, &mut |body, data| externalize(blobs, body, data));
    }
    // The points of one set share almost all of their pages by `Arc`
    // (CoW forks of one replay), so each distinct allocation is hashed
    // and stored once and every further reference to it is only
    // accounted — the write-side twin of `decode_manifest`'s
    // `page_cache`. An entry holds its page: the address cannot be
    // reused while it keys the map, and a holder of the last other
    // reference would copy on write, not write in place.
    let mut hashed: HashMap<*const Page, (Arc<Page>, BlobHash)> = HashMap::new();
    wire::put_u32(&mut body, cks.points.len() as u32);
    for point in &cks.points {
        wire::put_u64(&mut body, point.index as u64);
        let counts = point.counters.to_raw();
        wire::put_u32(&mut body, counts.len() as u32);
        for c in counts {
            wire::put_u64(&mut body, c);
        }
        let mut fds: Vec<_> = point.cursor.fds.iter().collect();
        fds.sort_by_key(|(golden, _)| **golden);
        wire::put_u32(&mut body, fds.len() as u32);
        for (golden, live) in fds {
            wire::put_u64(&mut body, *golden);
            wire::put_u64(&mut body, live.fd);
            wire::put_str(&mut body, &live.path);
        }
        let image = point.fs.export_image(&mut |page| match hashed.entry(Arc::as_ptr(page)) {
            Entry::Occupied(seen) => {
                blobs.credit_repeat(BLOCK_SIZE);
                seen.get().1
            }
            Entry::Vacant(slot) => slot.insert((Arc::clone(page), blobs.put(&page[..]))).1,
        });
        wire::put_u32(&mut body, image.len() as u32);
        body.extend_from_slice(&image);
    }
    body
}

/// Decode and fully verify a manifest body (the frame's magic and CRC
/// already held): schema and key echo, op stream, and every
/// checkpoint's counters, cursor, and filesystem image (each page
/// re-fetched — and content-verified — from the blob store). Any
/// failure yields `None`; callers treat that as a cache miss and
/// rebuild.
fn decode_manifest(body: &[u8], key: u64, blobs: &BlobStore) -> Option<TraceCheckpoints> {
    let mut r = wire::Reader::new(body);
    if r.u32()? != MANIFEST_SCHEMA || r.u64()? != key {
        return None;
    }
    let placement = match r.u8()? {
        0 => Placement::LogSpaced,
        1 => {
            let n_demand = r.u32()? as usize;
            let mut demand = Vec::with_capacity(n_demand.min(1 << 16));
            for _ in 0..n_demand {
                demand.push(r.u64()? as usize);
            }
            Placement::Demand(demand)
        }
        _ => return None,
    };
    let n_ops = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n_ops.min(1 << 16));
    for _ in 0..n_ops {
        ops.push(decode_op(&mut r, blobs)?);
    }

    // Pages are shared across checkpoints in memory exactly as a fresh
    // build's CoW forks would share them: one Arc per distinct hash.
    let mut page_cache: HashMap<[u8; 32], Arc<Page>> = HashMap::new();
    let n_points = r.u32()? as usize;
    let mut points = Vec::with_capacity(n_points.min(1 << 10));
    for _ in 0..n_points {
        let index = r.u64()? as usize;
        let n_counts = r.u32()? as usize;
        let mut counts = Vec::with_capacity(n_counts.min(64));
        for _ in 0..n_counts {
            counts.push(r.u64()?);
        }
        let counters = CounterSnapshot::from_raw(&counts)?;
        let n_fds = r.u32()? as usize;
        let mut fds = HashMap::with_capacity(n_fds.min(1 << 10));
        for _ in 0..n_fds {
            let golden = r.u64()?;
            let fd = r.u64()?;
            let path = r.str()?;
            fds.insert(golden, ReplayFd { fd, path });
        }
        let image_len = r.u32()? as usize;
        let image = r.bytes(image_len)?;
        let fs = MemFs::import_image(image, &mut |hash| {
            if let Some(hit) = page_cache.get(hash) {
                return Some(hit.clone());
            }
            let blob = blobs.get(hash)?;
            if blob.len() != BLOCK_SIZE {
                return None;
            }
            let mut page = [0u8; BLOCK_SIZE];
            page.copy_from_slice(&blob);
            let page = Arc::new(page);
            page_cache.insert(*hash, page.clone());
            Some(page)
        })?;
        points.push(TraceCheckpoint {
            index,
            fs: Arc::new(fs),
            cursor: ReplayCursor { fds },
            counters,
        });
    }
    if r.remaining() != 0 {
        return None;
    }
    // Structural sanity on the checkpoint spine: non-empty, starts at
    // the mount snapshot, strictly ascending, within the trace.
    if points.first().map(|p| p.index) != Some(0) {
        return None;
    }
    if !points.windows(2).all(|w| w[0].index < w[1].index) {
        return None;
    }
    if points.last().is_some_and(|p| p.index > ops.len()) {
        return None;
    }
    Some(TraceCheckpoints { ops: ops.into(), points, placement, end_counters: OnceLock::new() })
}

/// The disk tier of a [`CheckpointStore`]: content-addressed page and
/// write-payload blobs plus per-trace manifest files.
struct DiskTier {
    blobs: BlobStore,
    manifests: FrameDir,
}

/// A concurrent memoizing store of built [`TraceCheckpoints`], keyed
/// by golden-trace content, with an optional content-addressed disk
/// tier.
///
/// Building a checkpoint cache replays the whole trace once and forks
/// O(log n) CoW snapshots. A repro experiment runs *several* campaigns
/// over the same deterministic workload (one per fault model), and
/// every one of them records an identical golden trace — so the store
/// lets them share a single [`TraceCheckpoints`] instead of each
/// rebuilding its own: the first [`CheckpointStore::get_or_build`]
/// with a given trace builds, every later identical trace returns the
/// same [`Arc`].
///
/// Concurrent callers are single-flighted ([`SingleFlight`]): the
/// first thread to miss claims the key and builds; every other thread
/// requesting the same trace blocks and receives the winner's `Arc` —
/// never a duplicate build. A build that fails (or panics) releases
/// the claim and wakes the waiters, which then race to claim it
/// themselves.
///
/// A store created with [`CheckpointStore::with_dir`] additionally
/// persists every build as a sealed [`crate::frame`] record — the
/// manifest, echoing its cache key inside the CRC — whose pages and write
/// payloads live in a shared content-addressed [`BlobStore`] —
/// identical pages across checkpoints and campaigns are stored once.
/// Fresh processes (daemon restarts, fan-out workers) load checkpoints
/// from disk instead of replaying; torn or bit-rotted files fail
/// verification, are deleted, and trigger a rebuild — never a crash.
///
/// Lookups key on a content fingerprint of the full op stream
/// (including write payloads) and verify the hit's ops compare equal
/// before returning it, so a fingerprint collision can never hand a
/// campaign someone else's checkpoints — it just builds fresh,
/// uncached.
#[derive(Default)]
pub struct CheckpointStore {
    ready: Mutex<HashMap<u64, Arc<TraceCheckpoints>>>,
    flight: SingleFlight<u64>,
    disk: Option<DiskTier>,
    builds: AtomicUsize,
    hits: AtomicUsize,
    disk_hits: AtomicUsize,
}

impl CheckpointStore {
    /// Empty in-memory store (no disk tier).
    pub fn new() -> Self {
        Self::default()
    }

    /// Store backed by a disk tier rooted at `dir` (created if
    /// missing): blobs under `dir/blobs`, manifests under
    /// `dir/manifests/<2 hex>/<16 hex key>.manifest`. Several stores —
    /// including ones in different processes — may share a root; blob
    /// and manifest writes are idempotent atomic renames.
    pub fn with_dir(dir: &Path) -> std::io::Result<Self> {
        let blobs = BlobStore::at_dir(&dir.join("blobs"))?;
        let manifests = dir.join("manifests");
        std::fs::create_dir_all(&manifests)?;
        let manifests = FrameDir::new(manifests, MANIFEST_MAGIC, "manifest");
        let mut store = Self::new();
        store.disk = Some(DiskTier { blobs, manifests });
        Ok(store)
    }

    /// The shared checkpoints for `ops`: a cached instance when an
    /// identical trace was built before (waiting out an in-flight
    /// build if necessary), a disk-tier load when a sibling process
    /// already persisted it, and a fresh build otherwise.
    pub fn get_or_build(
        &self,
        ops: impl Into<SharedTrace>,
    ) -> Result<Arc<TraceCheckpoints>, ReplayError> {
        let ops = ops.into();
        self.get_or_build_keyed(ops.fingerprint(), ops, None)
    }

    /// Demand-placed shared checkpoints for `ops` (see
    /// [`TraceCheckpoints::build_for_demand`]). The cache key mixes a
    /// [`demand_fingerprint`] into the trace fingerprint, so
    /// demand-placed sets for different campaigns — and the log-spaced
    /// set — coexist in the store (and its content-addressed disk
    /// tier, where their snapshots dedupe page-for-page) without
    /// invalidating one another. An effectively empty demand (no
    /// in-range offsets) delegates to [`CheckpointStore::get_or_build`].
    pub fn get_or_build_for_demand(
        &self,
        ops: impl Into<SharedTrace>,
        demand: &[usize],
    ) -> Result<Arc<TraceCheckpoints>, ReplayError> {
        let ops = ops.into();
        let n = ops.len();
        let mut sorted: Vec<usize> = demand.iter().copied().filter(|&d| d > 0 && d < n).collect();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return self.get_or_build(ops);
        }
        let mut h = Fnv::new();
        h.eat_u64(ops.fingerprint());
        h.eat_u64(demand_fingerprint(&sorted));
        self.get_or_build_keyed(h.0, ops, Some(sorted))
    }

    /// Single-flighted lookup/build for one `(trace, placement)` key.
    /// `demand: None` builds/validates the log-spaced set; `Some`
    /// builds/validates the demand-placed set for those offsets.
    fn get_or_build_keyed(
        &self,
        key: u64,
        ops: SharedTrace,
        demand: Option<Vec<usize>>,
    ) -> Result<Arc<TraceCheckpoints>, ReplayError> {
        let build = |ops: SharedTrace| match &demand {
            Some(d) => TraceCheckpoints::build_for_demand(ops, d),
            None => TraceCheckpoints::build(ops),
        };
        let placement_ok = |hit: &TraceCheckpoints| match &demand {
            Some(d) => matches!(hit.placement(), Placement::Demand(got) if got == d),
            None => hit.placement() == &Placement::LogSpaced,
        };
        let cached = || self.ready.lock().unwrap_or_else(|e| e.into_inner()).get(&key).cloned();
        // Held until this call returns, so an erroring or panicking
        // build frees the key for the waiters.
        let _claim = match self.flight.get_or_claim(&key, cached) {
            Ok(hit) if hit.trace().same_ops(&ops) && placement_ok(&hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            // Fingerprint collision (ops or placement differ): the
            // slot is taken, so build fresh, uncached.
            Ok(_) => {
                let built = Arc::new(build(ops)?);
                self.builds.fetch_add(1, Ordering::Relaxed);
                return Ok(built);
            }
            Err(claim) => claim,
        };

        // Sole builder for this key from here on. The disk tier gets
        // full verification — frame, key echo, per-page content
        // hashes, the decoded ops comparing equal to the requested
        // ones, the decoded placement — and any mismatch deletes the
        // manifest, so the rebuild below re-persists it.
        let name = format!("{key:016x}");
        let loaded = self.disk.as_ref().and_then(|disk| {
            disk.manifests.load(&name, |body| {
                let cks = decode_manifest(body, key, &disk.blobs)?;
                (cks.trace().same_ops(&ops) && placement_ok(&cks)).then(|| Arc::new(cks))
            })
        });
        let built = match loaded {
            Some(loaded) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                loaded
            }
            None => {
                let built = Arc::new(build(ops)?);
                self.builds.fetch_add(1, Ordering::Relaxed);
                if let Some(disk) = &self.disk {
                    // Best-effort: a failed write leaves this key
                    // memory-only.
                    let _ =
                        disk.manifests.publish(&name, &encode_manifest(key, &built, &disk.blobs));
                }
                built
            }
        };
        self.ready.lock().unwrap_or_else(|e| e.into_inner()).insert(key, built.clone());
        Ok(built)
    }

    /// Number of checkpoint caches built by trace replay (misses in
    /// both the memory and disk tiers).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of lookups served from the in-memory cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups served by loading a persisted manifest from
    /// the disk tier (no replay).
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Blob accounting for the disk tier; `None` for memory-only
    /// stores.
    pub fn blob_stats(&self) -> Option<BlobStats> {
        self.disk.as_ref().map(|d| d.blobs.stats())
    }

    /// Root directory of the disk tier, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().and_then(|d| d.blobs.dir().and_then(Path::parent))
    }
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("builds", &self.builds())
            .field("hits", &self.hits())
            .field("disk_hits", &self.disk_hits())
            .field("disk", &self.dir())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blobs::{hash_hex, sha256};
    use crate::fs::FileSystemExt;
    use std::path::PathBuf;

    /// Run a small workload through a recording mount and return the
    /// trace plus the final state.
    fn record_workload() -> (Vec<TraceOp>, Arc<MemFs>) {
        let base = Arc::new(MemFs::new());
        let ffs = FfisFs::mount(base.clone());
        let rec = Arc::new(TraceRecorder::new());
        ffs.attach(rec.clone());

        ffs.mkdir("/out", 0o755).unwrap();
        ffs.write_file_chunked("/out/data.bin", &[7u8; 10_000], 4096).unwrap();
        let fd = ffs.open("/out/data.bin", OpenFlags::read_write()).unwrap();
        ffs.lock(fd, LockKind::Exclusive).unwrap();
        ffs.pwrite(fd, b"patch", 100).unwrap();
        ffs.unlock(fd).unwrap();
        ffs.release(fd).unwrap();
        ffs.write_file("/out/log.txt", b"done\n").unwrap();
        ffs.rename("/out/log.txt", "/out/run.log").unwrap();
        // Read-back must NOT be recorded.
        assert_eq!(ffs.read_to_vec("/out/data.bin").unwrap().len(), 10_000);
        ffs.unmount();
        (rec.ops(), base)
    }

    #[test]
    fn recorder_captures_mutating_ops_only() {
        let (ops, _) = record_workload();
        assert!(ops.iter().any(|o| matches!(o, TraceOp::Mkdir { .. })));
        assert!(ops.iter().any(|o| matches!(o, TraceOp::Lock { .. })));
        assert!(ops.iter().any(|o| matches!(o, TraceOp::Rename { .. })));
        // 3 chunks + patch + log = 5 writes; read-only open skipped.
        assert_eq!(ops.iter().filter(|o| o.is_write()).count(), 5);
        assert!(ops.iter().all(|o| !matches!(o, TraceOp::Open { flags, .. } if !flags.write)));
        // Write paths travel with the ops.
        assert!(ops.iter().filter(|o| o.is_write()).all(|o| o.write_path().is_some()));
    }

    #[test]
    fn replay_rebuilds_identical_state() {
        let (ops, golden) = record_workload();
        let rebuilt = MemFs::new();
        ReplayCursor::new().replay(&rebuilt, &ops).unwrap();
        assert_eq!(
            rebuilt.snapshot("/out/data.bin").unwrap(),
            golden.snapshot("/out/data.bin").unwrap()
        );
        assert_eq!(rebuilt.snapshot("/out/run.log").unwrap(), b"done\n");
        assert_eq!(rebuilt.open_handles(), 0, "all recorded fds released");
    }

    #[test]
    fn replay_through_mount_counts_primitives() {
        use crate::interceptor::Primitive;
        let (ops, _) = record_workload();
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        ReplayCursor::new().replay(&*ffs, &ops).unwrap();
        assert_eq!(ffs.counters().get(Primitive::Write), 5);
        assert_eq!(ffs.counters().get(Primitive::Mkdir), 1);
        // Replay skips the read-only open and the preads.
        assert_eq!(ffs.counters().get(Primitive::Read), 0);
    }

    #[test]
    fn mid_trace_fork_and_suffix_replay() {
        let (ops, golden) = record_workload();
        // Split at the patch write (the 4th write).
        let split =
            ops.iter().enumerate().filter(|(_, o)| o.is_write()).nth(3).map(|(i, _)| i).unwrap();

        // Build the pre-split snapshot on a bare MemFs.
        let base = MemFs::new();
        let mut cursor = ReplayCursor::new();
        cursor.replay(&base, &ops[..split]).unwrap();
        assert!(cursor.open_fds() > 0, "split lands inside an open file");

        // Fork twice and replay the suffix through instrumented mounts.
        for _ in 0..2 {
            let ffs = FfisFs::mount(Arc::new(base.fork()));
            let mut c = cursor.clone();
            c.seed_mount(&ffs);
            c.replay(&*ffs, &ops[split..]).unwrap();
            let inner = ffs.inner().clone();
            let got = {
                let mut v = vec![0u8; 10];
                let fd = inner.open("/out/data.bin", OpenFlags::read_only()).unwrap();
                inner.pread(fd, &mut v, 100).unwrap();
                inner.release(fd).unwrap();
                v
            };
            assert_eq!(&got[..5], b"patch");
        }

        // The snapshot itself was never polluted by the suffix.
        assert!(!base.exists("/out/run.log"));
        assert_eq!(golden.snapshot("/out/run.log").unwrap(), b"done\n");
    }

    #[test]
    fn seeded_mount_carries_paths_for_fd_ops() {
        let (ops, _) = record_workload();
        let split = ops.iter().position(|o| o.is_write()).unwrap();
        let base = MemFs::new();
        let mut cursor = ReplayCursor::new();
        cursor.replay(&base, &ops[..split]).unwrap();

        let ffs = FfisFs::mount(Arc::new(base.fork()));
        cursor.seed_mount(&ffs);
        let trace = Arc::new(crate::counting::TraceInterceptor::new());
        ffs.attach(trace.clone());
        cursor.replay(&*ffs, &ops[split..]).unwrap();
        let writes = trace.records_of(crate::interceptor::Primitive::Write);
        assert!(!writes.is_empty());
        assert!(writes.iter().all(|w| w.path.is_some()), "adopted fds resolve to paths");
    }

    #[test]
    fn replay_error_carries_index() {
        let ops = vec![
            TraceOp::Mkdir { path: "/d".into(), mode: 0o755 },
            TraceOp::Mkdir { path: "/d".into(), mode: 0o755 }, // EEXIST
        ];
        let fs = MemFs::new();
        let err = ReplayCursor::new().replay(&fs, &ops).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.error, FsError::Exists);
        assert!(err.to_string().contains("replay op 1"));
    }

    #[test]
    fn unknown_fd_write_is_an_error_but_bookkeeping_ops_skip() {
        let fs = MemFs::new();
        let mut c = ReplayCursor::new();
        assert!(c.step(&fs, &TraceOp::Release { fd: 99 }).is_ok());
        assert!(c.step(&fs, &TraceOp::Fsync { fd: 99 }).is_ok());
        assert_eq!(
            c.step(&fs, &TraceOp::Write { fd: 99, path: None, offset: Some(0), data: vec![1] }),
            Err(FsError::BadFd)
        );
    }

    #[test]
    fn payload_accounting() {
        let rec = TraceRecorder::new();
        assert!(rec.is_empty());
        rec.on_op(&TraceOp::Write { fd: 3, path: None, offset: Some(0), data: vec![0; 123] });
        rec.on_op(&TraceOp::Fsync { fd: 3 });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.payload_bytes(), 123);
    }

    #[test]
    fn checkpoints_are_log_spaced_from_the_end() {
        let (ops, _) = record_workload();
        let n = ops.len();
        let cache = TraceCheckpoints::build(ops).unwrap();
        let idx: Vec<usize> = cache.points().iter().map(|p| p.index()).collect();
        assert_eq!(idx[0], 0, "a zero checkpoint always exists");
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending: {:?}", idx);
        assert!(*idx.last().unwrap() < n);
        // The 2x-overshoot guarantee: for every target, the suffix
        // from the nearest checkpoint is at most twice the minimum
        // possible suffix (n - target), up to the final +-1 segment.
        for target in 0..n {
            let c = cache.nearest_before(target).index();
            assert!(c <= target);
            assert!(n - c <= 2 * (n - target) + 1, "target {} -> checkpoint {}", target, c);
        }
    }

    #[test]
    fn checkpoint_suffix_replay_matches_full_replay() {
        let (ops, golden) = record_workload();
        let cache = TraceCheckpoints::build(ops.clone()).unwrap();
        assert!(cache.points().len() >= 3, "workload long enough for several checkpoints");
        for point in cache.points() {
            let (ffs, mut cursor) = point.mount_fork();
            cursor.replay(&*ffs, cache.suffix(point)).unwrap();
            let inner = ffs.inner();
            for path in ["/out/data.bin", "/out/run.log"] {
                let got = {
                    let fd = inner.open(path, OpenFlags::read_only()).unwrap();
                    let mut v = vec![0u8; golden.snapshot(path).unwrap().len()];
                    inner.pread(fd, &mut v, 0).unwrap();
                    inner.release(fd).unwrap();
                    v
                };
                assert_eq!(
                    got,
                    golden.snapshot(path).unwrap(),
                    "checkpoint {} diverged on {}",
                    point.index(),
                    path
                );
            }
        }
    }

    #[test]
    fn checkpoint_mounts_preseed_prim_seq_numbering() {
        use crate::interceptor::Primitive;
        let (ops, _) = record_workload();
        let full_writes = ops.iter().filter(|o| o.is_write()).count() as u64;
        let cache = TraceCheckpoints::build(ops).unwrap();
        // From any checkpoint, suffix replay must leave the mount's
        // Write counter at the same value a full-trace replay reaches,
        // because the prefix counts were pre-seeded.
        for point in cache.points() {
            let (ffs, mut cursor) = point.mount_fork();
            cursor.replay(&*ffs, cache.suffix(point)).unwrap();
            assert_eq!(
                ffs.counters().get(Primitive::Write),
                full_writes,
                "checkpoint {}",
                point.index()
            );
        }
    }

    #[test]
    fn empty_trace_still_has_the_zero_checkpoint() {
        let cache = TraceCheckpoints::build(Vec::new()).unwrap();
        assert_eq!(cache.points().len(), 1);
        assert_eq!(cache.nearest_before(0).index(), 0);
        assert!(cache.suffix(cache.nearest_before(0)).is_empty());
        let (ffs, _) = cache.points()[0].mount_fork();
        assert_eq!(ffs.counters().total(), 0);
    }

    #[test]
    fn checkpoint_build_propagates_replay_errors() {
        let ops = vec![
            TraceOp::Mkdir { path: "/d".into(), mode: 0o755 },
            TraceOp::Mkdir { path: "/d".into(), mode: 0o755 },
        ];
        let err = TraceCheckpoints::build(ops).err().unwrap();
        assert_eq!(err.index, 1);
    }

    #[test]
    fn read_ledger_counts_and_fingerprints_per_phase() {
        let base = Arc::new(MemFs::new());
        let ffs = FfisFs::mount(base.clone());
        let ledger = Arc::new(ReadLedger::new());
        ffs.attach(ledger.clone());

        // "Produce": one write, one read-back.
        ffs.write_file_chunked("/d.bin", &[3u8; 4096], 4096).unwrap();
        assert_eq!(ffs.read_to_vec("/d.bin").unwrap().len(), 4096);
        assert_eq!(ledger.mark_produce_end(), 1);

        // "Analyze": two reads, one of them failing (bad descriptor).
        let mut buf = [0u8; 8];
        assert!(ffs.pread(9999, &mut buf, 0).is_err());
        assert_eq!(ffs.read_to_vec("/d.bin").unwrap().len(), 4096);
        ffs.unmount();

        let entries = ledger.records();
        assert_eq!(entries.len(), 3);
        assert_eq!(ledger.produce_reads(), 1);
        // Entries carry the profiler's attempt-based numbering.
        assert_eq!(entries[0].prim_seq, 1);
        assert_eq!(entries[1].prim_seq, 2);
        assert_eq!(entries[2].prim_seq, 3);
        // The failed attempt occupies its slot with no returned bytes.
        assert_eq!(entries[1].returned, None);
        assert_eq!(entries[1].fingerprint, EMPTY_FINGERPRINT);
        // Successful reads of the same bytes fingerprint identically.
        assert_eq!(entries[0].returned, entries[2].returned);
        assert_eq!(entries[0].fingerprint, entries[2].fingerprint);
        assert_ne!(entries[0].fingerprint, EMPTY_FINGERPRINT);
        // Paths resolve through the mount's fd tracking.
        assert_eq!(entries[0].path.as_deref(), Some("/d.bin"));
    }

    #[test]
    fn read_ledger_fingerprints_tell_one_flipped_bit() {
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        let ledger = Arc::new(ReadLedger::new());
        ffs.attach(ledger.clone());
        let clean: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut flipped = clean.clone();
        flipped[7_777] ^= 0x10;
        ffs.write_file_chunked("/a.bin", &clean, 4096).unwrap();
        ffs.write_file_chunked("/same.bin", &clean, 1000).unwrap();
        ffs.write_file_chunked("/flipped.bin", &flipped, 4096).unwrap();
        for path in ["/a.bin", "/same.bin", "/flipped.bin"] {
            assert_eq!(ffs.read_to_vec(path).unwrap().len(), clean.len());
        }
        ffs.unmount();

        let entries = ledger.records();
        assert_eq!(entries.len(), 3, "one whole-file read each");
        assert_eq!(entries[0].fingerprint, content_fingerprint(&clean));
        assert_eq!(entries[0].fingerprint, entries[1].fingerprint);
        assert_eq!(entries[0].returned, entries[2].returned);
        assert_ne!(entries[0].fingerprint, entries[2].fingerprint);
    }

    #[test]
    fn read_ledger_unmarked_boundary_is_conservative() {
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        let ledger = Arc::new(ReadLedger::new());
        ffs.attach(ledger.clone());
        ffs.write_file("/x", b"abc").unwrap();
        let _ = ffs.read_to_vec("/x").unwrap();
        // Never marked: every read counts as produce-phase.
        assert_eq!(ledger.produce_reads(), ledger.len());
        assert!(!ledger.is_empty());
        // Default must share new()'s unmarked-boundary invariant.
        let defaulted = ReadLedger::default();
        defaulted.on_call(&crate::interceptor::CallContext {
            primitive: Primitive::Read,
            seq: 1,
            prim_seq: 1,
            path: None,
            fd: Some(3),
            offset: Some(0),
            len: 4,
        });
        assert_eq!(defaulted.produce_reads(), 1, "unmarked Default ledger is conservative");
    }

    #[test]
    fn take_ops_drains() {
        let rec = TraceRecorder::new();
        rec.on_op(&TraceOp::Fsync { fd: 3 });
        let ops = rec.take_ops();
        assert_eq!(ops.len(), 1);
        assert!(rec.is_empty());
        assert!(rec.take_ops().is_empty());
    }

    /// Fresh per-test scratch directory under the system temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffis-ckstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every file of a [`FrameDir`] rooted at `root`, sorted.
    fn sealed_files(root: &Path) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for shard in std::fs::read_dir(root).unwrap() {
            for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                files.push(f.unwrap().path());
            }
        }
        files.sort();
        files
    }

    #[test]
    fn store_caches_and_detects_identical_traces() {
        let (ops, _) = record_workload();
        let store = CheckpointStore::new();
        let a = store.get_or_build(ops.clone()).unwrap();
        let b = store.get_or_build(ops).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.builds(), 1);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.disk_hits(), 0);
        assert!(store.blob_stats().is_none());
    }

    #[test]
    fn store_hits_by_pointer_before_it_compares_ops() {
        let (ops, _) = record_workload();
        let shared = SharedTrace::from(ops.clone());
        assert!(shared.0.fingerprint.get().is_none(), "hashed on first use, not at wrap time");
        let store = CheckpointStore::new();
        let built = store.get_or_build(shared.clone()).unwrap();
        // The set holds the caller's allocation, not a copy of it.
        assert!(built.trace().ptr_eq(&shared));
        let fingerprint = *shared.0.fingerprint.get().expect("the lookup hashed the trace");

        // Same allocation again: the fingerprint is carried, and
        // `same_ops` is settled by the pointers.
        let by_pointer = store.get_or_build(shared.clone()).unwrap();
        assert!(Arc::ptr_eq(&built, &by_pointer));
        assert_eq!(shared.fingerprint(), fingerprint);
        assert!(shared.same_ops(built.trace()));

        // An equal trace in another allocation hashes to the same key
        // and hits through the op-for-op compare.
        let distinct = SharedTrace::from(ops.clone());
        assert!(!distinct.ptr_eq(&shared));
        let by_compare = store.get_or_build(distinct.clone()).unwrap();
        assert!(Arc::ptr_eq(&built, &by_compare));
        assert!(!by_compare.trace().ptr_eq(&distinct));
        assert_eq!((store.builds(), store.hits()), (1, 2));

        // A trace that differs in one op is neither.
        let mut other = ops;
        other.pop();
        let other = store.get_or_build(other).unwrap();
        assert!(!Arc::ptr_eq(&built, &other));
        assert_eq!((store.builds(), store.hits()), (2, 2));
    }

    #[test]
    fn store_single_flights_concurrent_identical_builds() {
        let (ops, _) = record_workload();
        let store = Arc::new(CheckpointStore::new());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let joins: Vec<_> = (0..8)
            .map(|_| {
                let store = store.clone();
                let ops = ops.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    store.get_or_build(ops).unwrap()
                })
            })
            .collect();
        let arcs: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(store.builds(), 1, "losers wait for the winner instead of duplicating");
        assert_eq!(store.hits(), 7);
        assert!(
            arcs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "every caller receives the winner's Arc"
        );
    }

    #[test]
    fn store_failed_build_releases_the_inflight_claim() {
        let bad = vec![
            TraceOp::Mkdir { path: "/d".into(), mode: 0o755 },
            TraceOp::Mkdir { path: "/d".into(), mode: 0o755 },
        ];
        let store = CheckpointStore::new();
        assert!(store.get_or_build(bad.clone()).is_err());
        // The failed claim is gone: a retry errors again (no deadlock,
        // no stale Building slot) and unrelated traces still build.
        assert!(store.get_or_build(bad).is_err());
        let (ops, _) = record_workload();
        assert!(store.get_or_build(ops).is_ok());
        assert_eq!(store.builds(), 1);
    }

    #[test]
    fn store_disk_tier_roundtrips_across_processes() {
        let dir = scratch("roundtrip");
        let (ops, golden) = record_workload();

        let first = CheckpointStore::with_dir(&dir).unwrap();
        let built = first.get_or_build(ops.clone()).unwrap();
        assert_eq!((first.builds(), first.disk_hits()), (1, 0));

        // A fresh store over the same root — a restarted daemon or a
        // sibling fan-out worker — loads instead of replaying.
        let second = CheckpointStore::with_dir(&dir).unwrap();
        let loaded = second.get_or_build(ops.clone()).unwrap();
        assert_eq!((second.builds(), second.disk_hits()), (0, 1), "served from disk");
        assert_eq!(loaded.ops(), built.ops());
        assert_eq!(loaded.points().len(), built.points().len());
        for (l, b) in loaded.points().iter().zip(built.points()) {
            assert_eq!(l.index(), b.index());
            assert_eq!(l.counters(), b.counters());
        }
        // Loaded checkpoints must drive suffix replay to the same
        // final state a fresh build would.
        for point in loaded.points() {
            let (ffs, mut cursor) = point.mount_fork();
            cursor.replay(&*ffs, loaded.suffix(point)).unwrap();
            assert_eq!(
                ffs.read_to_vec("/out/data.bin").unwrap(),
                golden.snapshot("/out/data.bin").unwrap()
            );
            assert_eq!(ffs.read_to_vec("/out/run.log").unwrap(), b"done\n");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_corrupt_manifest_and_blobs_rebuild_not_crash() {
        let dir = scratch("corrupt");
        let (ops, _) = record_workload();
        CheckpointStore::with_dir(&dir).unwrap().get_or_build(ops.clone()).unwrap();

        // Bit-rot the manifest body: CRC fails, the store deletes the
        // file, rebuilds, and re-persists.
        let manifest = sealed_files(&dir.join("manifests")).pop().unwrap();
        let mut raw = std::fs::read(&manifest).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&manifest, &raw).unwrap();
        let s2 = CheckpointStore::with_dir(&dir).unwrap();
        s2.get_or_build(ops.clone()).unwrap();
        assert_eq!((s2.builds(), s2.disk_hits()), (1, 0), "corrupt manifest forces a rebuild");
        assert_eq!(s2.disk.as_ref().unwrap().manifests.discards(), 1);
        assert_eq!(sealed_files(&dir.join("manifests")), [manifest], "re-persisted");

        // The rebuild healed the tier: the next store loads cleanly.
        let s3 = CheckpointStore::with_dir(&dir).unwrap();
        s3.get_or_build(ops.clone()).unwrap();
        assert_eq!((s3.builds(), s3.disk_hits()), (0, 1));

        // Tear one blob (truncated frame). Decode misses, the blob is
        // discarded, and the manifest load falls back to a rebuild.
        let blob = sealed_files(&dir.join("blobs")).remove(0);
        let raw = std::fs::read(&blob).unwrap();
        std::fs::write(&blob, &raw[..raw.len() / 2]).unwrap();
        let s4 = CheckpointStore::with_dir(&dir).unwrap();
        s4.get_or_build(ops.clone()).unwrap();
        assert_eq!((s4.builds(), s4.disk_hits()), (1, 0), "torn blob forces a rebuild");
        assert_eq!(s4.blob_stats().unwrap().corrupt_discards, 1);

        let s5 = CheckpointStore::with_dir(&dir).unwrap();
        s5.get_or_build(ops).unwrap();
        assert_eq!((s5.builds(), s5.disk_hits()), (0, 1), "rebuild restored the torn blob");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_write_length_is_rejected_before_allocating() {
        // A write op claiming 4 GiB of payload backed by no chunk
        // hashes at all; the frame CRC would pass, since the attacker
        // (or the bit flip) is upstream of it.
        let mut body = Vec::new();
        wire::put_u8(&mut body, 9);
        wire::put_u64(&mut body, 3); // fd
        wire::put_opt_str(&mut body, None);
        wire::put_u8(&mut body, 0); // no offset
        wire::put_u32(&mut body, u32::MAX); // total
        wire::put_u32(&mut body, 0); // n_chunks
        let blobs = BlobStore::in_memory();
        assert_eq!(decode_op(&mut wire::Reader::new(&body), &blobs), None);
        // More chunk hashes promised than bytes remain.
        let n = body.len();
        body[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_op(&mut wire::Reader::new(&body), &blobs), None);
        // The honest encoding of the same op still round-trips.
        let op = TraceOp::Write { fd: 3, path: None, offset: None, data: vec![5; BLOCK_SIZE + 1] };
        let mut good = Vec::new();
        encode_op(&op, &mut good, &mut |buf, data| externalize(&blobs, buf, data));
        assert_eq!(decode_op(&mut wire::Reader::new(&good), &blobs), Some(op));
    }

    #[test]
    fn store_dedupes_pages_across_campaigns() {
        let dir = scratch("dedup");
        let store = CheckpointStore::with_dir(&dir).unwrap();

        // Two *different* workloads (distinct traces, distinct
        // fingerprints) producing the same large data file.
        let trace_with_log = |log: &[u8]| {
            let ffs = FfisFs::mount(Arc::new(MemFs::new()));
            let rec = Arc::new(TraceRecorder::new());
            ffs.attach(rec.clone());
            ffs.mkdir("/out", 0o755).unwrap();
            ffs.write_file_chunked("/out/data.bin", &[7u8; 10 * 4096], 4096).unwrap();
            ffs.write_file("/out/log.txt", log).unwrap();
            ffs.unmount();
            rec.ops()
        };

        store.get_or_build(trace_with_log(b"campaign-a\n")).unwrap();
        let before = store.blob_stats().unwrap();
        assert!(before.dedup_ratio() > 1.0, "log-spaced checkpoints share pages");

        store.get_or_build(trace_with_log(b"campaign-b: different trace\n")).unwrap();
        let after = store.blob_stats().unwrap();
        assert_eq!(store.builds(), 2, "distinct traces each build once");
        assert!(
            after.dedup_hits > before.dedup_hits,
            "the second campaign's data pages were already in the store"
        );
        // The shared 40 KiB dominates: physical grows far less than
        // logical between the two campaigns.
        assert!(
            after.physical_bytes - before.physical_bytes
                < (after.logical_bytes - before.logical_bytes) / 2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A trace whose demand-placed checkpoints share almost every
    /// page by `Arc`: 24 one-page chunks of one file, a sparse tail
    /// (zero pages) and a small log — with the demand that places a
    /// checkpoint every few chunks.
    fn paged_workload() -> (Vec<TraceOp>, Vec<usize>) {
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        let rec = Arc::new(TraceRecorder::new());
        ffs.attach(rec.clone());
        ffs.mkdir("/out", 0o755).unwrap();
        let data: Vec<u8> =
            (0..24 * BLOCK_SIZE).map(|i| (i / BLOCK_SIZE * 7 + i % 251) as u8).collect();
        ffs.write_file_chunked("/out/data.bin", &data, BLOCK_SIZE).unwrap();
        let fd = ffs.open("/out/data.bin", OpenFlags::read_write()).unwrap();
        ffs.pwrite(fd, b"tail", 40 * BLOCK_SIZE as u64).unwrap();
        ffs.release(fd).unwrap();
        ffs.write_file("/out/log.txt", b"done\n").unwrap();
        ffs.unmount();
        let ops = rec.ops();
        let demand = vec![6, 10, 14, 18, 22, 26, ops.len() - 2];
        (ops, demand)
    }

    /// What the page-by-page encoder (one `BlobStore::put`, so one
    /// SHA-256, per page *reference*) left behind for
    /// [`paged_workload`], taken from the commit before the encoder
    /// learned to hash each distinct `Arc<Page>` once:
    /// `(logical_bytes, dedup_hits, physical_bytes, blobs)`, the
    /// SHA-256 of the sorted blob file names, and the SHA-256 of the
    /// manifest file. The manifest echoes its cache key, so its digest
    /// was taken again when write payloads moved to
    /// [`content_fingerprint`]: against that commit's file the bytes
    /// differ in the 8-byte key and the 4-byte frame CRC, nowhere else.
    const PAGE_BY_PAGE: ((u64, u64, u64, usize), &str, &str) = (
        (614_409, 123, 110_601, 29),
        "3a528f67b8b26d59c6c8e2534271f88b3e8b6fc5de804290524666be41d93744",
        "0e8c1b526544261a478ff23bb6e633041fc7839defecfdc86acf46eb1632345d",
    );

    #[test]
    fn hash_once_encode_is_the_page_by_page_encode() {
        let dir = scratch("hash-once");
        let (ops, demand) = paged_workload();
        let first = CheckpointStore::with_dir(&dir).unwrap();
        let built = first.get_or_build_for_demand(ops.clone(), &demand).unwrap();
        assert!(built.points().len() >= 4, "{} checkpoints", built.points().len());
        let shared: usize = built.points().iter().map(|p| p.fs.shared_pages()).sum();
        assert!(shared > 100, "checkpoints share pages by Arc ({shared} shared references)");

        // Same accounting, same files, same bytes as hashing every
        // reference: the dedup ratio and the disk tier do not move.
        let stats = first.blob_stats().unwrap();
        let names: Vec<String> = sealed_files(&dir.join("blobs"))
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        let manifests = sealed_files(&dir.join("manifests"));
        assert_eq!(manifests.len(), 1);
        let manifest = std::fs::read(&manifests[0]).unwrap();
        assert_eq!(
            (
                (stats.logical_bytes, stats.dedup_hits, stats.physical_bytes, stats.blobs),
                hash_hex(&sha256(names.join("\n").as_bytes())).as_str(),
                hash_hex(&sha256(&manifest)).as_str(),
            ),
            PAGE_BY_PAGE
        );
        assert_eq!(names.len(), stats.blobs, "one file per distinct blob");

        // A second store over the directory loads the set, and every
        // checkpoint's files are those of a fresh build.
        let second = CheckpointStore::with_dir(&dir).unwrap();
        let loaded = second.get_or_build_for_demand(ops.clone(), &demand).unwrap();
        assert_eq!((second.builds(), second.disk_hits()), (0, 1));
        let fresh = TraceCheckpoints::build_for_demand(ops, &demand).unwrap();
        assert_eq!(loaded.points().len(), fresh.points().len());
        for (l, f) in loaded.points().iter().zip(fresh.points()) {
            assert_eq!(l.index(), f.index());
            for path in ["/out/data.bin", "/out/log.txt"] {
                assert_eq!(
                    l.fs.snapshot(path).ok(),
                    f.fs.snapshot(path).ok(),
                    "{path} @ {}",
                    l.index()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demand_within_budget_places_every_target_exactly() {
        let (ops, _) = record_workload();
        let n = ops.len();
        let demand = vec![n / 2, n / 4, n / 2, n - 1];
        let cache = TraceCheckpoints::build_for_demand(ops, &demand).unwrap();
        let idx: Vec<usize> = cache.points().iter().map(|p| p.index()).collect();
        assert_eq!(idx[0], 0);
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending: {idx:?}");
        for &d in &demand {
            assert!(idx.contains(&d), "demanded offset {d} snapshotted: {idx:?}");
        }
        assert_eq!(cache.overshoot_for(&demand), 0, "exact placement has zero overshoot");
        let mut sorted = demand.clone();
        sorted.sort_unstable();
        assert_eq!(cache.placement(), &Placement::Demand(sorted));
    }

    #[test]
    fn demand_over_budget_beats_log_spaced_overshoot() {
        let (ops, _) = record_workload();
        let n = ops.len();
        // A demand clustered near the middle of the trace — the worst
        // case for end-biased log spacing.
        let demand: Vec<usize> = (0..64).map(|i| n / 3 + (i % 7)).filter(|&d| d < n).collect();
        let budget = 4;
        let placed = TraceCheckpoints::build_for_demand_with(ops.clone(), &demand, budget).unwrap();
        let log = TraceCheckpoints::build_with(ops, budget).unwrap();
        assert!(placed.points().len() <= budget);
        assert!(
            placed.overshoot_for(&demand) <= log.overshoot_for(&demand),
            "demand placement ({}) must not lose to log spacing ({})",
            placed.overshoot_for(&demand),
            log.overshoot_for(&demand)
        );
    }

    #[test]
    fn empty_demand_falls_back_to_log_spaced() {
        let (ops, _) = record_workload();
        let n = ops.len();
        let log = TraceCheckpoints::build(ops.clone()).unwrap();
        // Out-of-range entries are filtered; what's left is empty.
        let cache = TraceCheckpoints::build_for_demand(ops, &[0, n, n + 7]).unwrap();
        assert_eq!(cache.placement(), &Placement::LogSpaced);
        let idx = |c: &TraceCheckpoints| c.points().iter().map(|p| p.index()).collect::<Vec<_>>();
        assert_eq!(idx(&cache), idx(&log));
    }

    #[test]
    fn demand_checkpoints_replay_to_identical_state() {
        let (ops, golden) = record_workload();
        let n = ops.len();
        let demand = vec![1, n / 3, n / 2, n - 2, n - 1];
        let cache = TraceCheckpoints::build_for_demand(ops, &demand).unwrap();
        for point in cache.points() {
            let (ffs, mut cursor) = point.mount_fork();
            cursor.replay(&*ffs, cache.suffix(point)).unwrap();
            assert_eq!(
                ffs.read_to_vec("/out/data.bin").unwrap(),
                golden.snapshot("/out/data.bin").unwrap()
            );
            assert_eq!(ffs.read_to_vec("/out/run.log").unwrap(), b"done\n");
        }
    }

    #[test]
    fn batch_forks_replay_to_identical_state_and_counters() {
        let (ops, golden) = record_workload();
        let writes: Vec<usize> =
            ops.iter().enumerate().filter(|(_, op)| op.is_write()).map(|(i, _)| i).collect();
        let cache = TraceCheckpoints::build(ops).unwrap();
        let targets = [writes[1], writes[writes.len() / 2], writes[writes.len() - 1]];
        let batch = cache.fork_at_targets(0, &targets).unwrap();
        assert_eq!(batch.len(), 3);
        for &t in &targets {
            // Reference: full mounted replay from the checkpoint.
            let point = &cache.points()[0];
            let (ref_ffs, mut ref_cursor) = point.mount_fork();
            ref_cursor.replay(&*ref_ffs, cache.suffix(point)).unwrap();

            // Batched: mount the mini-point, step only the target
            // through the mount, apply the tail off-mount (coalesced),
            // then pre-seed the tail counter delta.
            let fork = batch.for_target(t).unwrap();
            assert_eq!(fork.point().index(), t);
            let (ffs, mut cursor) = fork.point().mount_fork();
            cursor.step(&*ffs, &cache.ops()[t]).unwrap();
            cursor.replay_coalesced(&**ffs.inner(), &cache.ops()[t + 1..]).unwrap();
            ffs.preseed_counters(&fork.tail_counters());

            for p in crate::PRIMITIVES {
                assert_eq!(ffs.counters().get(p), ref_ffs.counters().get(p), "{:?}", p);
            }
            assert_eq!(
                ffs.read_to_vec("/out/data.bin").unwrap(),
                golden.snapshot("/out/data.bin").unwrap()
            );
            assert_eq!(ffs.read_to_vec("/out/run.log").unwrap(), b"done\n");
        }
    }

    #[test]
    fn batch_forks_skip_out_of_range_targets() {
        let (ops, _) = record_workload();
        let n = ops.len();
        let cache = TraceCheckpoints::build(ops).unwrap();
        let last = cache.points().len() - 1;
        let ck_index = cache.points()[last].index();
        // Targets below the checkpoint or past the trace are skipped.
        let batch =
            cache.fork_at_targets(last, &[0, ck_index.saturating_sub(1), n, n + 5]).unwrap();
        assert!(batch.is_empty());
        assert!(batch.for_target(n).is_none());
    }

    /// [`TraceCheckpoints::fork_at_targets`] as it was before it knew
    /// where to stop: the pass runs from the checkpoint to the end of
    /// the trace and reads the end-of-stream counters off its own
    /// tail. The reference the bounded pass must equal.
    fn fork_at_targets_to_the_end(
        cks: &TraceCheckpoints,
        checkpoint: usize,
        targets: &[usize],
    ) -> BatchForks {
        let n = cks.ops.len();
        let point = &cks.points[checkpoint];
        let mut wanted: Vec<usize> =
            targets.iter().copied().filter(|&t| t >= point.index && t < n).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let (points, end) = snapshot_pass(&cks.ops, point, wanted).unwrap();
        cks.batch_forks(points, end)
    }

    /// Everything a run can observe of one batch fork: target index,
    /// both counter sets, the descriptor map, and the whole filesystem
    /// state (files, cursors, locks, clock) as its canonical image.
    fn observable(fork: &BatchFork) -> (usize, CounterSnapshot, CounterSnapshot, Vec<Fd>, Vec<u8>) {
        let mut fds: Vec<Fd> = fork.point.cursor.fds.keys().copied().collect();
        fds.sort_unstable();
        let image = fork.point.fs.export_image(&mut |page| sha256(&page[..]));
        (fork.point.index, fork.point.counters, fork.tail_counters, fds, image)
    }

    #[test]
    fn bounded_batch_pass_equals_the_pass_to_the_end() {
        let dir = scratch("bounded-pass");
        let (paged, demand) = paged_workload();
        let (recorded, _) = record_workload();
        let store = CheckpointStore::with_dir(&dir).unwrap();
        let built = [
            store.get_or_build_for_demand(paged.clone(), &demand).unwrap(),
            store.get_or_build(recorded.clone()).unwrap(),
        ];
        let second = CheckpointStore::with_dir(&dir).unwrap();
        let loaded = [
            second.get_or_build_for_demand(paged, &demand).unwrap(),
            second.get_or_build(recorded).unwrap(),
        ];
        assert_eq!((store.builds(), second.builds(), second.disk_hits()), (2, 0, 2));

        let mut rng = proptest::test_rng("bounded_batch_pass_equals_the_pass_to_the_end");
        for (built, loaded) in built.iter().zip(&loaded) {
            let n = built.ops().len();
            assert!(built.points().len() >= 4, "{} checkpoints", built.points().len());
            assert!(built.end_counters.get().is_some(), "the build pass counted to the end");
            assert!(loaded.end_counters.get().is_none(), "a decoded set has replayed nothing");

            for (c, point) in built.points().iter().enumerate() {
                // No target in range: nothing forked, nothing replayed
                // — not even the decoded set's last segment.
                let below = point.index().saturating_sub(1);
                for cks in [built, loaded] {
                    assert!(cks.fork_at_targets(c, &[]).unwrap().is_empty());
                    let skipped = if c == 0 { vec![n, n + 9] } else { vec![below, n, n + 9] };
                    assert!(cks.fork_at_targets(c, &skipped).unwrap().is_empty());
                }
                if c == 0 {
                    assert!(loaded.end_counters.get().is_none());
                }

                let mut batches = vec![
                    vec![point.index()],
                    vec![n - 1],
                    vec![point.index(), n - 1, n - 1, point.index(), n, below, n + 9],
                ];
                for _ in 0..12 {
                    let len = rng.next_u64() % 9;
                    batches.push(
                        (0..len).map(|_| (rng.next_u64() % (n as u64 + 3)) as usize).collect(),
                    );
                }
                for targets in &batches {
                    let want = fork_at_targets_to_the_end(built, c, targets);
                    for cks in [built, loaded] {
                        let got = cks.fork_at_targets(c, targets).unwrap();
                        assert_eq!(got.len(), want.len(), "checkpoint {c}, targets {targets:?}");
                        for (g, w) in got.forks.iter().zip(&want.forks) {
                            assert_eq!(
                                observable(g),
                                observable(w),
                                "checkpoint {c}, targets {targets:?}"
                            );
                        }
                    }
                }
            }
            assert_eq!(loaded.end_counters.get(), built.end_counters.get());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demand_fingerprint_is_order_insensitive() {
        assert_eq!(demand_fingerprint(&[5, 2, 9]), demand_fingerprint(&[9, 5, 2]));
        assert_ne!(demand_fingerprint(&[5, 2, 9]), demand_fingerprint(&[5, 2]));
        assert_ne!(demand_fingerprint(&[5, 2, 9]), demand_fingerprint(&[5, 2, 2, 9]));
    }

    #[test]
    fn store_keeps_demand_and_log_spaced_sets_side_by_side() {
        let dir = scratch("demand-coexist");
        let (ops, _) = record_workload();
        let n = ops.len();
        let demand = vec![n / 2, n - 1];

        let store = CheckpointStore::with_dir(&dir).unwrap();
        let log = store.get_or_build(ops.clone()).unwrap();
        let placed = store.get_or_build_for_demand(ops.clone(), &demand).unwrap();
        assert_eq!(store.builds(), 2, "distinct placements build separately");
        assert!(!Arc::ptr_eq(&log, &placed));
        assert_eq!(placed.overshoot_for(&demand), 0);
        // Re-requesting either placement hits its own entry.
        assert!(Arc::ptr_eq(&store.get_or_build(ops.clone()).unwrap(), &log));
        assert!(Arc::ptr_eq(
            &store.get_or_build_for_demand(ops.clone(), &demand).unwrap(),
            &placed
        ));
        assert_eq!(store.builds(), 2);

        // A fresh store over the same root loads both from disk.
        let second = CheckpointStore::with_dir(&dir).unwrap();
        let log2 = second.get_or_build(ops.clone()).unwrap();
        let placed2 = second.get_or_build_for_demand(ops.clone(), &demand).unwrap();
        assert_eq!((second.builds(), second.disk_hits()), (0, 2));
        assert_eq!(log2.placement(), &Placement::LogSpaced);
        assert_eq!(placed2.placement(), placed.placement());
        assert_eq!(
            placed2.points().iter().map(|p| p.index()).collect::<Vec<_>>(),
            placed.points().iter().map(|p| p.index()).collect::<Vec<_>>()
        );

        // An effectively empty demand is the log-spaced entry, not a
        // third build.
        let empty = second.get_or_build_for_demand(ops, &[0, n + 1]).unwrap();
        assert!(Arc::ptr_eq(&empty, &log2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coalesced_replay_is_byte_identical_to_op_at_a_time() {
        let (ops, golden) = record_workload();
        let reference = MemFs::new();
        ReplayCursor::new().replay(&reference, &ops).unwrap();

        let coalesced = MemFs::new();
        let stats = ReplayCursor::new().replay_coalesced(&coalesced, &ops).unwrap();
        assert_eq!(stats.replayed_ops, ops.len());
        assert!(stats.coalesced_calls > 0, "chunked writes form a contiguous run");
        assert!(stats.coalesced_ops > stats.coalesced_calls);
        for path in ["/out/data.bin", "/out/run.log"] {
            assert_eq!(coalesced.snapshot(path).unwrap(), reference.snapshot(path).unwrap());
            assert_eq!(
                coalesced.getattr(path).unwrap().mtime,
                reference.getattr(path).unwrap().mtime,
                "coalescing must not skip clock ticks ({path})"
            );
        }
        assert_eq!(coalesced.snapshot("/out/data.bin").unwrap(), {
            let mut want = vec![7u8; 10_000];
            want[100..105].copy_from_slice(b"patch");
            want
        });
        let _ = golden;
    }

    #[test]
    fn coalescing_merges_sequential_and_contiguous_runs_only() {
        let seq =
            |fd: Fd, byte: u8| TraceOp::Write { fd, path: None, offset: None, data: vec![byte; 3] };
        let at = |fd: Fd, off: u64, byte: u8| TraceOp::Write {
            fd,
            path: None,
            offset: Some(off),
            data: vec![byte; 4],
        };
        let ops = vec![
            TraceOp::Create { path: "/a".into(), mode: 0o644, fd: 10 },
            TraceOp::Create { path: "/b".into(), mode: 0o644, fd: 11 },
            // Sequential run on fd 10 (3 ops -> 1 writev).
            seq(10, 1),
            seq(10, 2),
            seq(10, 3),
            // fd switch breaks the run.
            seq(11, 4),
            // Contiguous positioned run on fd 11 (2 ops -> 1 pwritev)…
            at(11, 3, 5),
            at(11, 7, 6),
            // …broken by a gap: stands alone.
            at(11, 20, 7),
            TraceOp::Release { fd: 10 },
            TraceOp::Release { fd: 11 },
        ];
        let reference = MemFs::new();
        ReplayCursor::new().replay(&reference, &ops).unwrap();
        let fs = MemFs::new();
        let stats = ReplayCursor::new().replay_coalesced(&fs, &ops).unwrap();
        assert_eq!(stats.replayed_ops, ops.len());
        assert_eq!(stats.coalesced_calls, 2);
        assert_eq!(stats.coalesced_ops, 5);
        for path in ["/a", "/b"] {
            assert_eq!(fs.snapshot(path).unwrap(), reference.snapshot(path).unwrap());
        }
    }

    /// The verdict pass [`ReplayCursor::replay_tail_filtered`]
    /// replaced, kept as its oracle: one verdict per tail op, every
    /// descriptor op decided by hashing its number — first among the
    /// descriptors opened within the tail, then in the cursor's map —
    /// and every path by asking `keep`. `None` when a namespace op
    /// switches filtering off.
    fn oracle_verdicts(
        cursor: &ReplayCursor,
        ops: &[TraceOp],
        keep: &dyn Fn(&str) -> bool,
    ) -> Option<Vec<bool>> {
        let mut tail_opened: HashMap<Fd, bool> = HashMap::new();
        let mut kept = Vec::with_capacity(ops.len());
        for op in ops {
            kept.push(match op {
                TraceOp::Rename { .. } | TraceOp::Unlink { .. } | TraceOp::Rmdir { .. } => {
                    return None;
                }
                TraceOp::Mknod { .. } | TraceOp::Mkdir { .. } => true,
                TraceOp::Create { path, fd, .. } | TraceOp::Open { path, fd, .. } => {
                    let k = keep(path);
                    tail_opened.insert(*fd, k);
                    k
                }
                TraceOp::Truncate { path, .. } | TraceOp::Chmod { path, .. } => keep(path),
                TraceOp::Write { fd, .. }
                | TraceOp::Fsync { fd }
                | TraceOp::Release { fd }
                | TraceOp::Lock { fd, .. }
                | TraceOp::Unlock { fd } => match tail_opened.get(fd) {
                    Some(&k) => k,
                    None => cursor.fds.get(fd).is_none_or(|entry| keep(&entry.path)),
                },
            });
        }
        Some(kept)
    }

    /// The old application pass over `kept`: each maximal kept stretch
    /// through the coalescing replay.
    fn oracle_apply(
        cursor: &mut ReplayCursor,
        fs: &dyn FileSystem,
        ops: &[TraceOp],
        kept: &[bool],
    ) -> Result<CoalesceStats, ReplayError> {
        let mut stats = CoalesceStats::default();
        let mut i = 0;
        while i < ops.len() {
            if !kept[i] {
                stats.skipped_ops += 1;
                i += 1;
                continue;
            }
            let j = (i..ops.len()).find(|&j| !kept[j]).unwrap_or(ops.len());
            let sub = cursor
                .replay_coalesced(fs, &ops[i..j])
                .map_err(|e| ReplayError { index: e.index + i, error: e.error })?;
            stats.replayed_ops += sub.replayed_ops;
            stats.coalesced_calls += sub.coalesced_calls;
            stats.coalesced_ops += sub.coalesced_ops;
            i = j;
        }
        Ok(stats)
    }

    const FILTER_PATHS: [&str; 6] = ["/p0", "/p1", "/p2", "/p3", "/p4", "/p5"];

    /// A stream a descriptor table could have produced — numbers come
    /// from a pool of five and are reused once released — over six
    /// files and a few directories. Returns the ops and the positions
    /// of bookkeeping ops drawn on a number that is *not* bound (never
    /// opened, or released): among them is the one place the path
    /// table departs from the oracle.
    fn filter_stream(rng: &mut proptest::TestRng, stale_ops: bool) -> (Vec<TraceOp>, Vec<usize>) {
        let mut ops = Vec::new();
        let mut stale = Vec::new();
        let mut exists = [false; 6];
        let mut live: Vec<Fd> = Vec::new();
        let mut dirs = 0;
        let len = 4 + rng.next_u64() % 36;
        while (ops.len() as u64) < len {
            let pick = (rng.next_u64() % 6) as usize;
            let path = FILTER_PATHS[pick].to_string();
            let free: Vec<Fd> = (3..8).filter(|fd| !live.contains(fd)).collect();
            let a_live =
                (!live.is_empty()).then(|| live[(rng.next_u64() % live.len() as u64) as usize]);
            let data = vec![rng.next_u64() as u8; 1 + (rng.next_u64() % 9) as usize];
            match (rng.next_u64() % 12, a_live) {
                (0, _) => {
                    dirs += 1;
                    ops.push(TraceOp::Mkdir { path: format!("/d{dirs}"), mode: 0o755 });
                }
                (1 | 2, _) if !free.is_empty() => {
                    let fd = free[(rng.next_u64() % free.len() as u64) as usize];
                    ops.push(if exists[pick] && bool::arbitrary(rng) {
                        TraceOp::Open { path, flags: OpenFlags::read_write(), fd }
                    } else {
                        TraceOp::Create { path, mode: 0o644, fd }
                    });
                    exists[pick] = true;
                    live.push(fd);
                }
                (3..=5, Some(fd)) => {
                    // Sequential writes, often several in a row: the
                    // coalescer's food.
                    ops.push(TraceOp::Write { fd, path: None, offset: None, data });
                }
                (6, Some(fd)) => {
                    let offset = Some(rng.next_u64() % 24);
                    ops.push(TraceOp::Write { fd, path: None, offset, data });
                }
                (7, Some(fd)) => ops.push(TraceOp::Fsync { fd }),
                (8, Some(fd)) => {
                    live.retain(|&l| l != fd);
                    ops.push(TraceOp::Release { fd });
                }
                (9, _) if exists[pick] => {
                    ops.push(TraceOp::Truncate { path, size: rng.next_u64() % 16 });
                }
                (10, _) if exists[pick] => ops.push(TraceOp::Chmod { path, mode: 0o600 }),
                (11, _) if stale_ops && !free.is_empty() => {
                    let fd = free[(rng.next_u64() % free.len() as u64) as usize];
                    stale.push(ops.len());
                    ops.push(if bool::arbitrary(rng) {
                        TraceOp::Fsync { fd }
                    } else {
                        TraceOp::Release { fd }
                    });
                }
                _ => {}
            }
        }
        (ops, stale)
    }

    /// Everything a kept path shows: bytes (or the error) and mode.
    fn image(fs: &MemFs, keep: &dyn Fn(&str) -> bool) -> Vec<(FsResult<Vec<u8>>, Option<u32>)> {
        FILTER_PATHS
            .iter()
            .filter(|p| keep(p))
            .map(|p| (fs.snapshot(p), fs.getattr(p).ok().map(|a| a.mode)))
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// At every start index and under a random `keep`, the path
        /// table gives the oracle's verdicts, counters and — on kept
        /// paths — filesystem, from a cursor that replayed the prefix.
        #[test]
        fn the_path_index_is_the_verdict_pass(seed in any::<u64>(), mask in 0u8..64, stale_ops in any::<bool>()) {
            let rng = &mut TestRng::new(seed);
            let (ops, stale) = filter_stream(rng, stale_ops);
            let trace: SharedTrace = ops.clone().into();
            let keep = |p: &str| FILTER_PATHS.iter().position(|q| *q == p).is_some_and(|i| mask >> i & 1 == 1);
            // The kept paths as two sets, to exercise their union.
            let index = trace.path_index();
            let halves = [0, 1].map(|h| {
                index.select(FILTER_PATHS.iter().enumerate().filter(|(i, p)| i % 2 == h && keep(p)).map(|(_, p)| *p))
            });
            let kept = [&halves[0], &halves[1]];

            for start in 0..=ops.len() {
                let base = MemFs::new();
                let mut prefix = ReplayCursor::new();
                prefix.replay(&base, &ops[..start]).unwrap();
                let tail = &ops[start..];

                let want = oracle_verdicts(&prefix, tail, &keep).expect("no namespace op is drawn");
                let got: Vec<bool> = (start..ops.len()).map(|i| index.keeps(i, &kept)).collect();
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    // A bookkeeping op on a released number follows
                    // the path it last named; the oracle applied it
                    // (to no effect) when open and release both
                    // preceded the start. Nowhere else.
                    prop_assert!(w == g || (*w && stale.contains(&(start + i))), "op {} from {}", start + i, start);
                }

                let (old_fs, new_fs, full_fs) = (base.fork(), base.fork(), base.fork());
                let old = oracle_apply(&mut prefix.clone(), &old_fs, tail, &want).unwrap();
                let new = prefix.clone().replay_tail_filtered(&new_fs, &trace, start, &kept).unwrap();
                prefix.clone().replay(&full_fs, tail).unwrap();
                prop_assert_eq!(new.replayed_ops + new.skipped_ops, tail.len());
                prop_assert_eq!((new.coalesced_calls, new.coalesced_ops), (old.coalesced_calls, old.coalesced_ops));
                if want == got {
                    prop_assert_eq!(new, old);
                }
                prop_assert_eq!(image(&new_fs, &keep), image(&old_fs, &keep));
                prop_assert_eq!(image(&new_fs, &keep), image(&full_fs, &keep));
                for d in 1..=ops.iter().filter(|op| matches!(op, TraceOp::Mkdir { .. })).count() {
                    prop_assert_eq!(new_fs.exists(&format!("/d{d}")), full_fs.exists(&format!("/d{d}")));
                }
            }
        }
    }

    fn create(path: &str, fd: Fd) -> TraceOp {
        TraceOp::Create { path: path.into(), mode: 0o644, fd }
    }

    fn write(fd: Fd, data: &[u8]) -> TraceOp {
        TraceOp::Write { fd, path: None, offset: None, data: data.to_vec() }
    }

    /// Replay `ops[..start]` whole, then the tail keeping `paths`.
    fn filtered_from(
        ops: &[TraceOp],
        start: usize,
        paths: &[&str],
    ) -> (MemFs, Result<CoalesceStats, ReplayError>) {
        let trace: SharedTrace = ops.to_vec().into();
        let fs = MemFs::new();
        let mut cursor = ReplayCursor::new();
        cursor.replay(&fs, &ops[..start]).unwrap();
        let kept = trace.path_index().select(paths.iter().copied());
        let stats = cursor.replay_tail_filtered(&fs, &trace, start, &[&kept]);
        (fs, stats)
    }

    #[test]
    fn a_descriptor_live_at_the_start_follows_the_path_it_was_opened_on() {
        let ops = [
            create("/a", 3),
            create("/b", 4),
            write(3, b"a1"),
            write(4, b"b1"),
            write(3, b"a2"),
            TraceOp::Release { fd: 3 },
            TraceOp::Release { fd: 4 },
        ];
        // Both opens sit before the start; only /b is kept.
        let (fs, stats) = filtered_from(&ops, 2, &["/b"]);
        let stats = stats.unwrap();
        assert_eq!((stats.replayed_ops, stats.skipped_ops), (2, 3));
        assert_eq!(fs.snapshot("/a").unwrap(), b"");
        assert_eq!(fs.snapshot("/b").unwrap(), b"b1");
    }

    #[test]
    fn an_unmapped_descriptor_is_applied_and_fails_like_the_full_replay() {
        // fd 9 is never opened.
        let ops = [
            create("/a", 3),
            write(3, b"a"),
            TraceOp::Release { fd: 3 },
            create("/b", 4),
            write(9, b"x"),
            TraceOp::Release { fd: 4 },
        ];
        for start in 0..=4 {
            let full = {
                let fs = MemFs::new();
                let mut cursor = ReplayCursor::new();
                cursor.replay(&fs, &ops[..start]).unwrap();
                cursor.replay_coalesced(&fs, &ops[start..]).unwrap_err()
            };
            assert_eq!(full, ReplayError { index: 4 - start, error: FsError::BadFd });
            // Whatever the filter keeps, the error is the same one.
            for paths in [&[][..], &["/a"], &["/b"], &["/a", "/b"]] {
                assert_eq!(filtered_from(&ops, start, paths).1.unwrap_err(), full);
            }
        }
    }

    #[test]
    fn a_namespace_op_in_the_tail_applies_all_of_it_one_before_the_tail_does_not() {
        let ops = [
            create("/a", 3),
            TraceOp::Release { fd: 3 },
            TraceOp::Rename { from: "/a".into(), to: "/c".into() },
            create("/a", 3),
            write(3, b"a"),
            TraceOp::Release { fd: 3 },
            create("/b", 4),
            write(4, b"b"),
            TraceOp::Release { fd: 4 },
        ];
        // The rename is at index 2: a tail from 0, 1 or 2 holds it.
        for start in 0..=2 {
            let (fs, stats) = filtered_from(&ops, start, &["/b"]);
            assert_eq!(stats.unwrap().skipped_ops, 0);
            assert_eq!(fs.snapshot("/a").unwrap(), b"a");
            assert!(fs.exists("/c"));
        }
        // From 3 on it is the prefix's business and filtering is on.
        let (fs, stats) = filtered_from(&ops, 3, &["/b"]);
        assert_eq!(stats.unwrap().skipped_ops, 3);
        assert!(!fs.exists("/a") && fs.exists("/c"));
        assert_eq!(fs.snapshot("/b").unwrap(), b"b");
    }

    /// The one place the path table is not the old verdict pass: an op
    /// on a descriptor number whose binding a `release` has ended
    /// still follows the path it last named, wherever the start is —
    /// where the old pass did so only for an open at or after the
    /// start, or a release at or after it, and *applied* the op when
    /// both preceded the start. A bookkeeping op there is skipped by
    /// `step` when it is applied, so no state can differ; only
    /// `replayed_ops` / `skipped_ops` count it differently. What is
    /// applied finds the descriptor as a full replay leaves it: a
    /// `write` on a released number fails with `BadFd` when its path
    /// is kept, and is dropped with its path otherwise.
    #[test]
    fn an_op_on_a_released_descriptor_follows_the_path_it_last_named() {
        let ops = [
            create("/a", 3),
            write(3, b"a"),
            TraceOp::Release { fd: 3 },
            TraceOp::Fsync { fd: 3 },
            TraceOp::Release { fd: 3 },
        ];
        for start in 0..=3 {
            let (fs, stats) = filtered_from(&ops, start, &[]);
            assert_eq!(
                stats.unwrap(),
                CoalesceStats { skipped_ops: 5 - start, ..Default::default() }
            );
            assert_eq!(
                fs.snapshot("/a").ok(),
                [None, Some(vec![]), Some(b"a".to_vec())][start.min(2)]
            );
            let (fs, stats) = filtered_from(&ops, start, &["/a"]);
            assert_eq!(
                stats.unwrap(),
                CoalesceStats { replayed_ops: 5 - start, ..Default::default() }
            );
            assert_eq!(fs.snapshot("/a").unwrap(), b"a");
        }
        // The old pass agrees while the open or the release is in the
        // tail, and applies both stale ops once neither is.
        let old = |start: usize| {
            let mut prefix = ReplayCursor::new();
            prefix.replay(&MemFs::new(), &ops[..start]).unwrap();
            oracle_verdicts(&prefix, &ops[start..], &|_| false).unwrap()
        };
        assert_eq!(old(0), [false; 5]);
        assert_eq!(old(2), [false; 3]);
        assert_eq!(old(3), [true; 2]);

        // A write where the fsync was: the full replay's error when
        // /a is kept, nothing when it is dropped.
        let mut ops = ops;
        ops[3] = write(3, b"late");
        for start in 0..=3 {
            let err = ReplayError { index: 3 - start, error: FsError::BadFd };
            assert_eq!(filtered_from(&ops, start, &["/a"]).1.unwrap_err(), err);
            assert!(filtered_from(&ops, start, &[]).1.is_ok());
        }
    }

    #[test]
    fn the_path_index_is_built_once_per_allocation_and_only_when_asked_for() {
        let (ops, _) = record_workload();
        let trace: SharedTrace = ops.clone().into();
        // Two campaigns' worth of consumers over one allocation.
        let a = TraceCheckpoints::build(trace.clone()).unwrap();
        let b = TraceCheckpoints::build_for_demand(trace.clone(), &[3, 5]).unwrap();
        assert!(a.trace().ptr_eq(b.trace()));
        // Placing and forking checkpoints never asks for it.
        assert!(!trace.path_index_built());
        let first: *const PathIndex = a.trace().path_index();
        assert!(b.trace().path_index_built());
        assert!(std::ptr::eq(first, b.trace().path_index()));
        assert!(std::ptr::eq(first, trace.path_index()));
        // Another allocation of the same ops builds its own.
        let other: SharedTrace = ops.into();
        assert!(!other.path_index_built());
        assert!(!std::ptr::eq(first, other.path_index()));
    }
}
