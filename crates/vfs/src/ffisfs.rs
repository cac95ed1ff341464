//! `FfisFs` — the FFISFS mount layer.
//!
//! "FFISFS works similarly to what \[a\] normal FUSE-based file system
//! does: at the time the FFISFS file system is mounted, the file system
//! handler is registered with the OS kernel. If an application issues,
//! for example read/write/stat requests for the mounted FFISFS, the
//! kernel forwards these IO-requests to the handler" (paper §III-A).
//!
//! Here the "kernel forwarding" is a direct trait-object call: the
//! application holds a `&dyn FileSystem` that happens to be an
//! [`FfisFs`], which forwards each primitive to the inner filesystem
//! through the attached [`Interceptor`] chain while maintaining
//! per-primitive dynamic execution counters. `mount`/`unmount` bracket
//! each fault-injection run, as in the paper ("in each run, FFISFS
//! would be mounted and unmounted to mimic the real scenario").

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::error::{FsError, FsResult};
use crate::fs::{DirEntry, Fd, FileSystem, LockKind, Metadata, NodeKind, OpenFlags, StatFs};
use crate::interceptor::{
    CallContext, Interceptor, Primitive, ReadAction, WriteAction, PRIMITIVES,
};
use crate::trace::TraceOp;

/// Snapshot of the per-primitive dynamic execution counters — the
/// output of the paper's I/O profiler stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    counts: [u64; PRIMITIVES.len()],
}

impl CounterSnapshot {
    /// Dynamic count for one primitive.
    pub fn get(&self, p: Primitive) -> u64 {
        self.counts[p.index()]
    }

    /// Total calls across all primitives.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterate `(primitive, count)` pairs with non-zero counts.
    pub fn nonzero(&self) -> impl Iterator<Item = (Primitive, u64)> + '_ {
        PRIMITIVES.iter().copied().map(move |p| (p, self.get(p))).filter(|&(_, c)| c > 0)
    }

    /// Add `n` to one primitive's count (checkpoint builders
    /// accumulate replay-issued ops into a snapshot).
    pub(crate) fn bump(&mut self, p: Primitive, n: u64) {
        self.counts[p.index()] += n;
    }

    /// Per-primitive difference `self − earlier` (saturating at 0).
    /// Batched replay uses this to turn two absolute snapshots into
    /// the additive [`FfisFs::preseed_counters`] delta that restores
    /// full-replay numbering after a suffix is applied off-mount.
    pub fn diff(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut counts = [0u64; PRIMITIVES.len()];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        CounterSnapshot { counts }
    }

    /// Raw counts in [`PRIMITIVES`] order (checkpoint serialization).
    pub(crate) fn to_raw(self) -> [u64; PRIMITIVES.len()] {
        self.counts
    }

    /// Rebuild from raw counts in [`PRIMITIVES`] order; `None` when
    /// the slice length disagrees (a corrupt or cross-version image).
    pub(crate) fn from_raw(counts: &[u64]) -> Option<Self> {
        let counts: [u64; PRIMITIVES.len()] = counts.try_into().ok()?;
        Some(CounterSnapshot { counts })
    }
}

/// Panic payload thrown by [`FfisFs`] when an armed I/O-op fuel
/// budget runs out ([`FfisFs::set_fuel`]).
///
/// Fuel exhaustion is the mount's deterministic hang detector: a run
/// wedged in an I/O loop (an infinite retry induced by corrupted
/// data) keeps crossing the mount, burns its budget, and unwinds here
/// — landing in the campaign's existing `catch_unwind` crash
/// classification instead of hanging the executor. Because the budget
/// counts primitive crossings, not wall-clock time, the same run
/// exhausts at the same crossing on every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuelExhausted {
    /// The budget that was armed ([`FfisFs::set_fuel`]).
    pub budget: u64,
}

/// Panic payload thrown by [`FfisFs`] when the optional wall-clock
/// backstop elapses ([`FfisFs::set_deadline`]).
///
/// Unlike [`FuelExhausted`] this is *not* deterministic — it exists as
/// a second line of defense for the parallel path, where a run hung
/// *between* mount crossings (a pure CPU spin) would never burn fuel.
/// It only fires when the hung run eventually crosses the mount again;
/// a loop that performs no I/O at all is out of reach of both
/// detectors by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// The armed limit, in milliseconds.
    pub limit_ms: u64,
}

/// The FFISFS mount: an interceptable pass-through [`FileSystem`].
pub struct FfisFs {
    inner: Arc<dyn FileSystem>,
    interceptors: RwLock<Vec<Arc<dyn Interceptor>>>,
    mounted: AtomicBool,
    seq: AtomicU64,
    counters: [AtomicU64; PRIMITIVES.len()],
    /// True when some attached interceptor wants [`TraceOp`]s;
    /// cached so the hot path skips op materialization (which clones
    /// write buffers) entirely when nothing records.
    ops_wanted: AtomicBool,
    /// fd → path, so fd-addressed primitives (write/pwrite/...) carry
    /// their target path in the [`CallContext`] — fault signatures can
    /// then be scoped to specific files, as FFIS scopes injections to
    /// files residing in the FFISFS mount point.
    fd_paths: RwLock<HashMap<Fd, String>>,
    /// Remaining I/O-op fuel; `u64::MAX` means no budget armed.
    fuel: AtomicU64,
    /// The armed budget (for the panic payload); `u64::MAX` = unarmed.
    fuel_budget: AtomicU64,
    /// Wall-clock backstop: `(deadline, limit_ms)` when armed.
    deadline: RwLock<Option<(Instant, u64)>>,
    /// Cached "deadline armed" flag so the hot path skips the lock.
    deadline_armed: AtomicBool,
}

impl FfisFs {
    /// Mount FFISFS over an inner filesystem. The returned handle *is*
    /// a [`FileSystem`]; hand it to the application.
    pub fn mount(inner: Arc<dyn FileSystem>) -> Arc<Self> {
        Arc::new(FfisFs {
            inner,
            interceptors: RwLock::new(Vec::new()),
            mounted: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            ops_wanted: AtomicBool::new(false),
            fd_paths: RwLock::new(HashMap::new()),
            fuel: AtomicU64::new(u64::MAX),
            fuel_budget: AtomicU64::new(u64::MAX),
            deadline: RwLock::new(None),
            deadline_armed: AtomicBool::new(false),
        })
    }

    /// Arm an I/O-op fuel budget: the mount allows `budget` further
    /// primitive crossings, then unwinds with a [`FuelExhausted`]
    /// panic payload on the crossing after the budget is spent. The
    /// paper's fault models can corrupt data into shapes that send an
    /// analysis phase into an unbounded I/O loop; fuel turns that hang
    /// into a deterministic, classifiable abort (see
    /// `ffis_core::RunAborted`). A budget of `u64::MAX` disarms.
    pub fn set_fuel(&self, budget: u64) {
        self.fuel.store(budget, Ordering::SeqCst);
        self.fuel_budget.store(budget, Ordering::SeqCst);
    }

    /// Remaining fuel, or `None` when no budget is armed.
    pub fn fuel_remaining(&self) -> Option<u64> {
        let b = self.fuel_budget.load(Ordering::SeqCst);
        (b != u64::MAX).then(|| self.fuel.load(Ordering::SeqCst))
    }

    /// Arm the wall-clock backstop: any primitive crossing after
    /// `limit` has elapsed (measured from now) unwinds with a
    /// [`DeadlineExceeded`] panic payload. Non-deterministic by
    /// nature — prefer [`FfisFs::set_fuel`]; this exists so a parallel
    /// campaign has a second, time-based bound.
    pub fn set_deadline(&self, limit: Duration) {
        let limit_ms = limit.as_millis().min(u64::MAX as u128) as u64;
        *self.deadline.write().unwrap_or_else(|e| e.into_inner()) =
            Some((Instant::now() + limit, limit_ms));
        self.deadline_armed.store(true, Ordering::SeqCst);
    }

    /// Burn one unit of fuel and check the deadline; unwinds with
    /// [`FuelExhausted`] / [`DeadlineExceeded`] when a bound is hit.
    /// Runs on every primitive crossing, before the interceptors —
    /// a wedged run cannot fire further faults once out of fuel.
    fn check_liveness(&self) {
        if self.fuel_budget.load(Ordering::Relaxed) != u64::MAX {
            let spent = self
                .fuel
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_err();
            if spent {
                std::panic::panic_any(FuelExhausted {
                    budget: self.fuel_budget.load(Ordering::SeqCst),
                });
            }
        }
        if self.deadline_armed.load(Ordering::Relaxed) {
            let armed = *self.deadline.read().unwrap_or_else(|e| e.into_inner());
            if let Some((deadline, limit_ms)) = armed {
                if Instant::now() >= deadline {
                    std::panic::panic_any(DeadlineExceeded { limit_ms });
                }
            }
        }
    }

    /// Unmount: all subsequent primitives fail with `ENODEV`. Ends an
    /// injection run; the paper unmounts FFISFS after every run.
    pub fn unmount(&self) {
        self.mounted.store(false, Ordering::SeqCst);
    }

    /// Is the mount live?
    pub fn is_mounted(&self) -> bool {
        self.mounted.load(Ordering::SeqCst)
    }

    /// Attach an interceptor. Interceptors run in attachment order;
    /// for write-class calls the first non-`Forward` action wins.
    pub fn attach(&self, i: Arc<dyn Interceptor>) {
        if i.wants_ops() {
            self.ops_wanted.store(true, Ordering::SeqCst);
        }
        self.interceptors.write().unwrap_or_else(|e| e.into_inner()).push(i);
    }

    /// Pre-seed the dynamic execution counters (and the global call
    /// sequence) with counts accumulated *before* this mount existed —
    /// i.e. by the trace prefix behind a mid-trace checkpoint. Suffix
    /// ops replayed through this mount then observe the same
    /// `prim_seq`/`seq` numbering a full-trace replay would produce,
    /// so injection records stay comparable across execution
    /// strategies. See [`crate::trace::TraceCheckpoint::mount_fork`].
    pub fn preseed_counters(&self, snap: &CounterSnapshot) {
        for p in PRIMITIVES {
            let n = snap.get(p);
            if n > 0 {
                self.counters[p.index()].fetch_add(n, Ordering::SeqCst);
            }
        }
        self.seq.fetch_add(snap.total(), Ordering::SeqCst);
    }

    /// Snapshot the dynamic execution counters.
    pub fn counters(&self) -> CounterSnapshot {
        let mut snap = CounterSnapshot::default();
        for (i, c) in self.counters.iter().enumerate() {
            snap.counts[i] = c.load(Ordering::SeqCst);
        }
        snap
    }

    /// Borrow the inner filesystem (post-run inspection).
    pub fn inner(&self) -> &Arc<dyn FileSystem> {
        &self.inner
    }

    fn check_mounted(&self) -> FsResult<()> {
        if self.is_mounted() {
            Ok(())
        } else {
            Err(FsError::NotMounted)
        }
    }

    /// Path behind an open descriptor, if tracked.
    pub fn path_of_fd(&self, fd: Fd) -> Option<String> {
        self.fd_paths.read().unwrap_or_else(|e| e.into_inner()).get(&fd).cloned()
    }

    /// Register a descriptor that was opened *before* this mount
    /// existed — i.e. a descriptor carried into a forked filesystem by
    /// a mid-trace snapshot. Without adoption, fd-addressed primitives
    /// replayed on that descriptor would cross the mount with no
    /// target path, making them invisible to path-filtered injectors.
    /// See [`crate::trace::ReplayCursor::seed_mount`].
    pub fn adopt_fd(&self, fd: Fd, path: &str) {
        self.track_fd(fd, path);
    }

    /// Deliver a [`TraceOp`] to recording interceptors. `build` runs
    /// only when recording is active, so the hot path never clones
    /// write buffers.
    fn emit_op(&self, build: impl FnOnce() -> TraceOp) {
        if !self.ops_wanted.load(Ordering::Relaxed) {
            return;
        }
        let op = build();
        let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
        for i in guards.iter() {
            if i.wants_ops() {
                i.on_op(&op);
            }
        }
    }

    fn track_fd(&self, fd: Fd, path: &str) {
        self.fd_paths
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(fd, crate::path::normalize(path).unwrap_or_else(|_| path.to_string()));
    }

    fn untrack_fd(&self, fd: Fd) {
        self.fd_paths.write().unwrap_or_else(|e| e.into_inner()).remove(&fd);
    }

    /// Count the call and build its context.
    fn enter(
        &self,
        primitive: Primitive,
        path: Option<&str>,
        fd: Option<Fd>,
        offset: Option<u64>,
        len: usize,
    ) -> FsResult<CallContext> {
        self.check_mounted()?;
        self.check_liveness();
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let prim_seq = self.counters[primitive.index()].fetch_add(1, Ordering::SeqCst) + 1;
        let path = path.map(str::to_string).or_else(|| fd.and_then(|fd| self.path_of_fd(fd)));
        let cx = CallContext { primitive, seq, prim_seq, path, fd, offset, len };
        let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
        for i in guards.iter() {
            i.on_call(&cx);
        }
        Ok(cx)
    }

    /// Run the write-action pipeline: first interceptor that returns a
    /// non-`Forward` action decides the fate of the buffer.
    fn write_action(&self, cx: &CallContext, buf: &[u8]) -> WriteAction {
        let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
        for i in guards.iter() {
            match i.on_write(cx, buf) {
                WriteAction::Forward => continue,
                other => return other,
            }
        }
        WriteAction::Forward
    }

    /// Ask the interceptor chain whether this read crossing needs a
    /// pre-call buffer snapshot ([`ReadAction::Stale`]'s restore
    /// source). Runs after [`Interceptor::on_call`], so an injector
    /// can answer `true` for exactly its armed instance and no other
    /// read of the run pays the copy.
    fn read_snapshot_wanted(&self, cx: &CallContext) -> bool {
        let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
        guards.iter().any(|i| i.wants_read_snapshot(cx))
    }

    /// Run the read-action pipeline over the filled buffer and apply
    /// the winning action, returning the byte count reported to the
    /// caller (never more than the inner filesystem's `n` — a fault
    /// can lie about content, not conjure bytes). `pre` is the
    /// pre-call snapshot of the buffer (present when some interceptor
    /// opted in via [`Interceptor::wants_read_snapshot`]); a stale
    /// region beyond the reported length — or a dropped transfer — is
    /// restored from it, degrading to zeros without one.
    fn finish_read(
        &self,
        cx: &CallContext,
        buf: &mut [u8],
        n: usize,
        pre: Option<Vec<u8>>,
    ) -> usize {
        let action = {
            let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
            let mut action = ReadAction::Forward;
            for i in guards.iter() {
                match i.on_read(cx, buf, n) {
                    ReadAction::Forward => continue,
                    other => {
                        action = other;
                        break;
                    }
                }
            }
            action
        };
        let restore = |buf: &mut [u8], from: usize| match &pre {
            Some(pre) => buf[from..n].copy_from_slice(&pre[from..n]),
            None => buf[from..n].fill(0),
        };
        match action {
            ReadAction::Forward => n,
            ReadAction::Stale { reported_len } => {
                restore(buf, 0);
                reported_len.min(n)
            }
            ReadAction::Short { reported_len } => {
                let keep = reported_len.min(n);
                restore(buf, keep);
                keep
            }
        }
    }
}

impl FileSystem for FfisFs {
    fn getattr(&self, path: &str) -> FsResult<Metadata> {
        self.enter(Primitive::Getattr, Some(path), None, None, 0)?;
        self.inner.getattr(path)
    }

    fn mknod(&self, path: &str, kind: NodeKind, mode: u32, dev: u64) -> FsResult<()> {
        let cx = self.enter(Primitive::Mknod, Some(path), None, None, 0)?;
        let issued_mode = mode;
        let issued_dev = dev;
        let mut mode = mode;
        let mut dev = dev;
        {
            let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
            for i in guards.iter() {
                i.on_mknod(&cx, &mut mode, &mut dev);
            }
        }
        self.inner.mknod(path, kind, mode, dev)?;
        // Recorded as-issued (pre-interception): the replay mount's
        // own interceptors get their chance to rewrite the parameters.
        self.emit_op(|| TraceOp::Mknod {
            path: path.to_string(),
            kind,
            mode: issued_mode,
            dev: issued_dev,
        });
        Ok(())
    }

    fn mkdir(&self, path: &str, mode: u32) -> FsResult<()> {
        self.enter(Primitive::Mkdir, Some(path), None, None, 0)?;
        self.inner.mkdir(path, mode)?;
        self.emit_op(|| TraceOp::Mkdir { path: path.to_string(), mode });
        Ok(())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.enter(Primitive::Unlink, Some(path), None, None, 0)?;
        self.inner.unlink(path)?;
        self.emit_op(|| TraceOp::Unlink { path: path.to_string() });
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.enter(Primitive::Rmdir, Some(path), None, None, 0)?;
        self.inner.rmdir(path)?;
        self.emit_op(|| TraceOp::Rmdir { path: path.to_string() });
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.enter(Primitive::Rename, Some(from), None, None, 0)?;
        self.inner.rename(from, to)?;
        self.emit_op(|| TraceOp::Rename { from: from.to_string(), to: to.to_string() });
        Ok(())
    }

    fn chmod(&self, path: &str, mode: u32) -> FsResult<()> {
        let cx = self.enter(Primitive::Chmod, Some(path), None, None, 0)?;
        let issued_mode = mode;
        let mut mode = mode;
        {
            let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
            for i in guards.iter() {
                i.on_chmod(&cx, &mut mode);
            }
        }
        self.inner.chmod(path, mode)?;
        self.emit_op(|| TraceOp::Chmod { path: path.to_string(), mode: issued_mode });
        Ok(())
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let cx = self.enter(Primitive::Truncate, Some(path), None, None, 0)?;
        let issued_size = size;
        let mut size = size;
        {
            let guards = self.interceptors.read().unwrap_or_else(|e| e.into_inner());
            for i in guards.iter() {
                i.on_truncate(&cx, &mut size);
            }
        }
        self.inner.truncate(path, size)?;
        self.emit_op(|| TraceOp::Truncate { path: path.to_string(), size: issued_size });
        Ok(())
    }

    fn create(&self, path: &str, mode: u32) -> FsResult<Fd> {
        self.enter(Primitive::Create, Some(path), None, None, 0)?;
        let fd = self.inner.create(path, mode)?;
        self.track_fd(fd, path);
        self.emit_op(|| TraceOp::Create { path: path.to_string(), mode, fd });
        Ok(fd)
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.enter(Primitive::Open, Some(path), None, None, 0)?;
        let fd = self.inner.open(path, flags)?;
        self.track_fd(fd, path);
        // Read-only opens cannot mutate state and are not replayed.
        if flags.write {
            self.emit_op(|| TraceOp::Open { path: path.to_string(), flags, fd });
        }
        Ok(fd)
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let cx = self.enter(Primitive::Read, None, Some(fd), None, buf.len())?;
        let pre = self.read_snapshot_wanted(&cx).then(|| buf.to_vec());
        let n = self.inner.read(fd, buf)?;
        Ok(self.finish_read(&cx, buf, n, pre))
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        let cx = self.enter(Primitive::Read, None, Some(fd), Some(offset), buf.len())?;
        let pre = self.read_snapshot_wanted(&cx).then(|| buf.to_vec());
        let n = self.inner.pread(fd, buf, offset)?;
        Ok(self.finish_read(&cx, buf, n, pre))
    }

    fn write(&self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
        let cx = self.enter(Primitive::Write, None, Some(fd), None, buf.len())?;
        let n = match self.write_action(&cx, buf) {
            WriteAction::Forward => self.inner.write(fd, buf)?,
            WriteAction::Replace { buf: replaced, reported_len } => {
                self.inner.write(fd, &replaced)?;
                reported_len
            }
            WriteAction::Drop { reported_len } => reported_len,
        };
        self.emit_op(|| TraceOp::Write {
            fd,
            path: cx.path.clone(),
            offset: None,
            data: buf.to_vec(),
        });
        Ok(n)
    }

    fn pwrite(&self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize> {
        let cx = self.enter(Primitive::Write, None, Some(fd), Some(offset), buf.len())?;
        let n = match self.write_action(&cx, buf) {
            WriteAction::Forward => self.inner.pwrite(fd, buf, offset)?,
            WriteAction::Replace { buf: replaced, reported_len } => {
                self.inner.pwrite(fd, &replaced, offset)?;
                reported_len
            }
            WriteAction::Drop { reported_len } => reported_len,
        };
        self.emit_op(|| TraceOp::Write {
            fd,
            path: cx.path.clone(),
            offset: Some(offset),
            data: buf.to_vec(),
        });
        Ok(n)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.enter(Primitive::Fsync, None, Some(fd), None, 0)?;
        self.inner.fsync(fd)?;
        self.emit_op(|| TraceOp::Fsync { fd });
        Ok(())
    }

    fn release(&self, fd: Fd) -> FsResult<()> {
        self.enter(Primitive::Release, None, Some(fd), None, 0)?;
        let r = self.inner.release(fd);
        if r.is_ok() {
            self.untrack_fd(fd);
            self.emit_op(|| TraceOp::Release { fd });
        }
        r
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.enter(Primitive::Readdir, Some(path), None, None, 0)?;
        self.inner.readdir(path)
    }

    fn statfs(&self) -> FsResult<StatFs> {
        self.enter(Primitive::Statfs, None, None, None, 0)?;
        self.inner.statfs()
    }

    fn lock(&self, fd: Fd, kind: LockKind) -> FsResult<()> {
        self.enter(Primitive::Lock, None, Some(fd), None, 0)?;
        self.inner.lock(fd, kind)?;
        self.emit_op(|| TraceOp::Lock { fd, kind });
        Ok(())
    }

    fn unlock(&self, fd: Fd) -> FsResult<()> {
        self.enter(Primitive::Unlock, None, Some(fd), None, 0)?;
        self.inner.unlock(fd)?;
        self.emit_op(|| TraceOp::Unlock { fd });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FileSystemExt;
    use crate::memfs::MemFs;
    use std::sync::Mutex;

    fn mounted() -> Arc<FfisFs> {
        FfisFs::mount(Arc::new(MemFs::new()))
    }

    #[test]
    fn passthrough_when_no_interceptor() {
        let fs = mounted();
        fs.write_file("/a", b"payload").unwrap();
        assert_eq!(fs.read_to_vec("/a").unwrap(), b"payload");
    }

    #[test]
    fn counters_track_primitives() {
        let fs = mounted();
        fs.write_file_chunked("/a", &[0u8; 10], 2).unwrap(); // create + 5 pwrites + fsync + release
        let snap = fs.counters();
        assert_eq!(snap.get(Primitive::Create), 1);
        assert_eq!(snap.get(Primitive::Write), 5);
        assert_eq!(snap.get(Primitive::Fsync), 1);
        assert_eq!(snap.get(Primitive::Release), 1);
        assert_eq!(snap.get(Primitive::Mknod), 0);
        assert!(snap.total() >= 8);
        let nz: Vec<_> = snap.nonzero().collect();
        assert!(nz.contains(&(Primitive::Write, 5)));
    }

    #[test]
    fn unmount_fails_all_primitives() {
        let fs = mounted();
        fs.write_file("/a", b"x").unwrap();
        fs.unmount();
        assert_eq!(fs.getattr("/a"), Err(FsError::NotMounted));
        assert_eq!(fs.create("/b", 0o644), Err(FsError::NotMounted));
    }

    /// Interceptor that replaces byte 0 of the Nth write with 0xFF.
    struct FlipFirstByte {
        target: u64,
        fired: Mutex<bool>,
    }

    impl Interceptor for FlipFirstByte {
        fn on_write(&self, cx: &CallContext, buf: &[u8]) -> WriteAction {
            if cx.prim_seq == self.target && !buf.is_empty() {
                *self.fired.lock().unwrap() = true;
                let mut b = buf.to_vec();
                b[0] = 0xFF;
                return WriteAction::Replace { buf: b, reported_len: buf.len() };
            }
            WriteAction::Forward
        }
    }

    #[test]
    fn replace_action_corrupts_silently() {
        let fs = mounted();
        let flip = Arc::new(FlipFirstByte { target: 2, fired: Mutex::new(false) });
        fs.attach(flip.clone());
        let fd = fs.create("/f", 0o644).unwrap();
        assert_eq!(fs.pwrite(fd, b"AA", 0).unwrap(), 2);
        // Second write gets corrupted but still reports success (silent).
        assert_eq!(fs.pwrite(fd, b"BB", 2).unwrap(), 2);
        fs.release(fd).unwrap();
        assert!(*flip.fired.lock().unwrap());
        assert_eq!(fs.read_to_vec("/f").unwrap(), b"AA\xFFB");
    }

    struct DropAll;
    impl Interceptor for DropAll {
        fn on_write(&self, _cx: &CallContext, buf: &[u8]) -> WriteAction {
            WriteAction::Drop { reported_len: buf.len() }
        }
    }

    #[test]
    fn drop_action_skips_device_write_but_reports_success() {
        let fs = mounted();
        fs.attach(Arc::new(DropAll));
        let fd = fs.create("/f", 0o644).unwrap();
        assert_eq!(fs.pwrite(fd, b"disappears", 0).unwrap(), 10);
        fs.release(fd).unwrap();
        assert_eq!(fs.getattr("/f").unwrap().size, 0);
    }

    struct ModeZeroer;
    impl Interceptor for ModeZeroer {
        fn on_mknod(&self, _cx: &CallContext, mode: &mut u32, _dev: &mut u64) {
            *mode = 0;
        }
        fn on_chmod(&self, _cx: &CallContext, mode: &mut u32) {
            *mode |= 0o111;
        }
        fn on_truncate(&self, _cx: &CallContext, size: &mut u64) {
            *size += 1;
        }
    }

    #[test]
    fn param_hooks_rewrite_scalars() {
        let fs = mounted();
        fs.attach(Arc::new(ModeZeroer));
        fs.mknod("/n", NodeKind::File, 0o644, 0).unwrap();
        assert_eq!(fs.getattr("/n").unwrap().mode, 0);
        fs.chmod("/n", 0o600).unwrap();
        assert_eq!(fs.getattr("/n").unwrap().mode, 0o711);
        fs.truncate("/n", 4).unwrap();
        assert_eq!(fs.getattr("/n").unwrap().size, 5);
    }

    #[test]
    fn first_nonforward_interceptor_wins() {
        struct A;
        impl Interceptor for A {
            fn on_write(&self, _cx: &CallContext, _buf: &[u8]) -> WriteAction {
                WriteAction::Drop { reported_len: 3 }
            }
        }
        struct B;
        impl Interceptor for B {
            fn on_write(&self, _cx: &CallContext, buf: &[u8]) -> WriteAction {
                WriteAction::Replace { buf: buf.to_vec(), reported_len: 99 }
            }
        }
        let fs = mounted();
        fs.attach(Arc::new(A));
        fs.attach(Arc::new(B));
        let fd = fs.create("/f", 0o644).unwrap();
        assert_eq!(fs.pwrite(fd, b"xyz", 0).unwrap(), 3); // A's Drop wins
        fs.release(fd).unwrap();
        assert_eq!(fs.getattr("/f").unwrap().size, 0);
    }

    #[test]
    fn sequential_write_also_intercepted() {
        let fs = mounted();
        fs.attach(Arc::new(DropAll));
        let fd = fs.create("/s", 0o644).unwrap();
        assert_eq!(fs.write(fd, b"gone").unwrap(), 4);
        fs.release(fd).unwrap();
        assert_eq!(fs.getattr("/s").unwrap().size, 0);
        // Both write entry points count as the Write primitive.
        assert_eq!(fs.counters().get(Primitive::Write), 1);
    }

    #[test]
    fn read_and_pread_count_as_read() {
        let fs = mounted();
        fs.write_file("/r", b"abcdef").unwrap();
        let fd = fs.open("/r", OpenFlags::read_only()).unwrap();
        let mut b = [0u8; 2];
        fs.read(fd, &mut b).unwrap();
        fs.pread(fd, &mut b, 4).unwrap();
        fs.release(fd).unwrap();
        assert_eq!(fs.counters().get(Primitive::Read), 2);
    }

    /// Interceptor driving the read-action pipeline directly: drops
    /// the first read (stale restore) and shortens the second.
    struct ReadActor;
    impl Interceptor for ReadActor {
        fn wants_read_snapshot(&self, cx: &CallContext) -> bool {
            cx.prim_seq == 1
        }
        fn on_read(&self, cx: &CallContext, _buf: &mut [u8], _n: usize) -> ReadAction {
            match cx.prim_seq {
                1 => ReadAction::Stale { reported_len: usize::MAX }, // clamped to n
                2 => ReadAction::Short { reported_len: 2 },
                _ => ReadAction::Forward,
            }
        }
    }

    #[test]
    fn read_actions_restore_stale_bytes_and_clamp_lengths() {
        let fs = mounted();
        fs.write_file("/r", b"abcdef").unwrap();
        fs.attach(Arc::new(ReadActor));
        let fd = fs.open("/r", OpenFlags::read_only()).unwrap();
        // Read #1: dropped transfer — pre-call bytes restored, success
        // reported for the full (clamped) inner count.
        let mut buf = [0x11u8; 6];
        assert_eq!(fs.pread(fd, &mut buf, 0).unwrap(), 6);
        assert_eq!(buf, [0x11u8; 6], "stale caller bytes restored");
        // Read #2: short transfer — prefix delivered, tail zeroed
        // (this crossing opted out of the snapshot).
        let mut buf = [0x22u8; 6];
        assert_eq!(fs.pread(fd, &mut buf, 0).unwrap(), 2);
        assert_eq!(&buf[..2], b"ab");
        assert!(buf[2..].iter().all(|&b| b == 0), "tail zeroed without a snapshot");
        // Read #3: forward — clean.
        let mut buf = [0u8; 6];
        assert_eq!(fs.pread(fd, &mut buf, 0).unwrap(), 6);
        assert_eq!(&buf, b"abcdef");
        fs.release(fd).unwrap();
        // The device never changed.
        assert_eq!(fs.read_to_vec("/r").unwrap(), b"abcdef");
    }

    #[test]
    fn fd_paths_tracked_for_write_contexts() {
        use crate::counting::TraceInterceptor;
        let fs = mounted();
        let trace = Arc::new(TraceInterceptor::new());
        fs.attach(trace.clone());
        let fd = fs.create("/deep.h5", 0o644).unwrap();
        fs.pwrite(fd, b"1234", 0).unwrap();
        fs.release(fd).unwrap();
        let writes = trace.records_of(Primitive::Write);
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].path.as_deref(), Some("/deep.h5"));
        // After release the mapping is gone.
        assert_eq!(fs.path_of_fd(fd), None);
    }

    #[test]
    fn fuel_budget_unwinds_after_exhaustion() {
        let fs = mounted();
        fs.set_fuel(3);
        assert_eq!(fs.fuel_remaining(), Some(3));
        // create + 2 pwrites = 3 crossings: exactly the budget.
        let fd = fs.create("/f", 0o644).unwrap();
        fs.pwrite(fd, b"a", 0).unwrap();
        fs.pwrite(fd, b"b", 1).unwrap();
        assert_eq!(fs.fuel_remaining(), Some(0));
        // The 4th crossing unwinds with the typed payload.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fs.pwrite(fd, b"c", 2);
        }))
        .unwrap_err();
        let payload = err.downcast_ref::<FuelExhausted>().expect("typed payload");
        assert_eq!(payload.budget, 3);
    }

    #[test]
    fn fuel_exhaustion_is_deterministic_across_runs() {
        let survived = |budget: u64| {
            let fs = mounted();
            fs.set_fuel(budget);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fs.write_file_chunked("/f", &[0u8; 16], 4).unwrap();
            }))
            .is_ok()
        };
        // Same workload, same budget → same verdict, every time.
        for _ in 0..3 {
            assert!(!survived(2));
            assert!(survived(64));
        }
    }

    #[test]
    fn unarmed_mount_never_burns_fuel() {
        let fs = mounted();
        assert_eq!(fs.fuel_remaining(), None);
        fs.write_file("/a", b"x").unwrap();
        assert_eq!(fs.fuel_remaining(), None);
    }

    #[test]
    fn deadline_backstop_unwinds_on_late_crossing() {
        let fs = mounted();
        fs.set_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fs.getattr("/");
        }))
        .unwrap_err();
        let payload = err.downcast_ref::<DeadlineExceeded>().expect("typed payload");
        assert_eq!(payload.limit_ms, 0);
    }

    #[test]
    fn inner_is_reachable_for_inspection() {
        let mem = Arc::new(MemFs::new());
        let fs = FfisFs::mount(mem.clone());
        fs.write_file("/a", b"z").unwrap();
        assert_eq!(mem.snapshot("/a").unwrap(), b"z");
        assert_eq!(fs.inner().getattr("/a").unwrap().size, 1);
    }
}
