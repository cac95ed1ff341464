//! Benchmark-side tracing wrappers: [`TracedApp`] around any
//! [`FaultApp`] and [`TracedFs`] around the filesystem the engine
//! hands it. Both only delegate and record; nothing under `crates/`
//! is instrumented. Transparency (wrapped digest == unwrapped digest)
//! is pinned by a unit test.

use std::time::Instant;

use ffis_core::{FaultApp, Outcome, SubstepSpec};
use ffis_vfs::{
    DirEntry, Fd, FileSystem, FsResult, LockKind, Metadata, NodeKind, OpenFlags, StatFs,
};

use crate::spans::Recorder;

/// Closes its span on drop, so a run that unwinds through the
/// application (a crash outcome) still leaves a well-formed tree.
struct SpanGuard<'a> {
    rec: &'a Recorder,
    id: usize,
}

impl<'a> SpanGuard<'a> {
    fn open(rec: &'a Recorder, name: &'static str) -> Self {
        SpanGuard { rec, id: rec.open(name) }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.close(self.id);
    }
}

/// A [`FaultApp`] that records one span per trait call and hands the
/// inner application a [`TracedFs`].
pub struct TracedApp<'a, A: FaultApp> {
    inner: &'a A,
    rec: &'a Recorder,
    golden_ends_setup: bool,
}

impl<'a, A: FaultApp> TracedApp<'a, A> {
    pub fn new(inner: &'a A, rec: &'a Recorder) -> Self {
        TracedApp { inner, rec, golden_ends_setup: false }
    }

    /// For drivers without run events (the metadata scan): the
    /// set-up phase ends when the golden run's analyze returns.
    pub fn golden_ends_setup(mut self) -> Self {
        self.golden_ends_setup = true;
        self
    }
}

impl<A: FaultApp> FaultApp for TracedApp<'_, A> {
    type Output = A::Output;

    fn produce(&self, fs: &dyn FileSystem) -> Result<(), String> {
        let _span = SpanGuard::open(self.rec, "produce");
        self.inner.produce(&TracedFs { inner: fs, rec: self.rec })
    }

    fn analyze(
        &self,
        fs: &dyn FileSystem,
        golden: Option<&Self::Output>,
    ) -> Result<Self::Output, String> {
        // The golden run is the only caller without a golden output.
        let name = if golden.is_some() { "analyze" } else { "analyze_golden" };
        let span = SpanGuard::open(self.rec, name);
        let out = self.inner.analyze(&TracedFs { inner: fs, rec: self.rec }, golden);
        drop(span);
        if golden.is_none() && self.golden_ends_setup {
            self.rec.mark_setup_end();
        }
        out
    }

    // `run` keeps its provided body (produce, then analyze, on this
    // wrapper), which is the only body the contract allows.

    fn produce_read_count(&self) -> Option<u64> {
        self.inner.produce_read_count()
    }

    fn classify(&self, golden: &Self::Output, faulty: &Self::Output) -> Outcome {
        let _span = SpanGuard::open(self.rec, "classify");
        self.inner.classify(golden, faulty)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn analyze_substeps(&self) -> Option<Vec<SubstepSpec>> {
        self.inner.analyze_substeps()
    }

    fn analyze_substep(
        &self,
        fs: &dyn FileSystem,
        index: usize,
        golden: Option<&Self::Output>,
    ) -> Result<Vec<u8>, String> {
        let _span = SpanGuard::open(self.rec, "analyze_substep");
        self.inner.analyze_substep(&TracedFs { inner: fs, rec: self.rec }, index, golden)
    }

    fn assemble(
        &self,
        artifacts: &[Vec<u8>],
        golden: Option<&Self::Output>,
    ) -> Result<Self::Output, String> {
        let _span = SpanGuard::open(self.rec, "assemble");
        self.inner.assemble(artifacts, golden)
    }
}

/// A [`FileSystem`] that times and counts each of the 22 primitives
/// and delegates it unchanged.
pub struct TracedFs<'a> {
    inner: &'a dyn FileSystem,
    rec: &'a Recorder,
}

impl<'a> TracedFs<'a> {
    pub fn new(inner: &'a dyn FileSystem, rec: &'a Recorder) -> Self {
        TracedFs { inner, rec }
    }

    /// Time one delegated call; `bytes` reads the transfer size off
    /// the result. Accounting happens in a guard so a primitive that
    /// unwinds (fuel exhaustion) is still counted.
    fn call<T>(&self, prim: usize, bytes: impl Fn(&T) -> u64, f: impl FnOnce() -> T) -> T {
        struct Account<'r> {
            rec: &'r Recorder,
            prim: usize,
            bytes: u64,
            start: Instant,
        }
        impl Drop for Account<'_> {
            fn drop(&mut self) {
                self.rec.fs_op(self.prim, self.bytes, self.start.elapsed().as_nanos() as u64);
            }
        }
        let mut account = Account { rec: self.rec, prim, bytes: 0, start: Instant::now() };
        let out = f();
        account.bytes = bytes(&out);
        out
    }
}

fn none<T>(_: &T) -> u64 {
    0
}

fn transferred(r: &FsResult<usize>) -> u64 {
    r.as_ref().map_or(0, |&n| n as u64)
}

// Primitive indices follow `spans::PRIMITIVES`.
impl FileSystem for TracedFs<'_> {
    fn getattr(&self, path: &str) -> FsResult<Metadata> {
        self.call(0, none, || self.inner.getattr(path))
    }
    fn mknod(&self, path: &str, kind: NodeKind, mode: u32, dev: u64) -> FsResult<()> {
        self.call(1, none, || self.inner.mknod(path, kind, mode, dev))
    }
    fn mkdir(&self, path: &str, mode: u32) -> FsResult<()> {
        self.call(2, none, || self.inner.mkdir(path, mode))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.call(3, none, || self.inner.unlink(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.call(4, none, || self.inner.rmdir(path))
    }
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.call(5, none, || self.inner.rename(from, to))
    }
    fn chmod(&self, path: &str, mode: u32) -> FsResult<()> {
        self.call(6, none, || self.inner.chmod(path, mode))
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.call(7, none, || self.inner.truncate(path, size))
    }
    fn create(&self, path: &str, mode: u32) -> FsResult<Fd> {
        self.call(8, none, || self.inner.create(path, mode))
    }
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.call(9, none, || self.inner.open(path, flags))
    }
    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        self.call(10, transferred, || self.inner.read(fd, buf))
    }
    fn pread(&self, fd: Fd, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        self.call(11, transferred, || self.inner.pread(fd, buf, offset))
    }
    fn write(&self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
        self.call(12, transferred, || self.inner.write(fd, buf))
    }
    fn pwrite(&self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize> {
        self.call(13, transferred, || self.inner.pwrite(fd, buf, offset))
    }
    fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> FsResult<usize> {
        self.call(14, transferred, || self.inner.writev(fd, bufs))
    }
    fn pwritev(&self, fd: Fd, bufs: &[&[u8]], offset: u64) -> FsResult<usize> {
        self.call(15, transferred, || self.inner.pwritev(fd, bufs, offset))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.call(16, none, || self.inner.fsync(fd))
    }
    fn release(&self, fd: Fd) -> FsResult<()> {
        self.call(17, none, || self.inner.release(fd))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.call(18, none, || self.inner.readdir(path))
    }
    fn statfs(&self) -> FsResult<StatFs> {
        self.call(19, none, || self.inner.statfs())
    }
    fn lock(&self, fd: Fd, kind: LockKind) -> FsResult<()> {
        self.call(20, none, || self.inner.lock(fd, kind))
    }
    fn unlock(&self, fd: Fd) -> FsResult<()> {
        self.call(21, none, || self.inner.unlock(fd))
    }
}
