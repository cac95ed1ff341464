//! The I/O profiler (paper §III-C).
//!
//! "The goal of the I/O profiler is to count the number of times that
//! the primitive (i.e. configured in the fault signature) gets
//! executed during the execution. To this end, the I/O profiler
//! instruments the primitive inside the FUSE and executes the
//! application fault-free to obtain the total count."
//!
//! [`IoProfiler`] runs the workload once on a fresh FFISFS mount with
//! no faults armed, then reports per-primitive dynamic counts, the
//! count of *eligible* instances under a target filter, and the full
//! primitive trace. A campaign's golden run builds the same
//! [`ProfileReport`] on a mount of its own; each campaign counts its
//! signature's eligible instances from that trace, and the HDF5
//! metadata scanner locates the metadata write in it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ffis_vfs::{
    CallContext, CounterSnapshot, FfisFs, FileSystem, Interceptor, MemFs, Primitive,
    TraceInterceptor, TraceRecord, WriteAction,
};

use crate::fault::TargetFilter;

/// Counts invocations that match `(primitive, filter)` — the eligible
/// instance population the injector samples from (requirement R4:
/// uniform coverage over the corresponding file operations).
pub struct EligibleCounter {
    primitive: Primitive,
    filter: TargetFilter,
    count: AtomicU64,
}

impl EligibleCounter {
    /// New counter for a signature scope.
    pub fn new(primitive: Primitive, filter: TargetFilter) -> Self {
        EligibleCounter { primitive, filter, count: AtomicU64::new(0) }
    }

    /// Eligible instances observed.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }
}

impl Interceptor for EligibleCounter {
    fn on_call(&self, cx: &CallContext) {
        if cx.primitive == self.primitive && self.filter.matches(cx.path.as_deref()) {
            self.count.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn on_write(&self, _cx: &CallContext, _buf: &[u8]) -> WriteAction {
        WriteAction::Forward
    }
}

/// Result of a fault-free profiling run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Per-primitive dynamic execution counts.
    pub counters: CounterSnapshot,
    /// Eligible-instance count for the profiled signature scope.
    pub eligible: u64,
    /// Full primitive trace of the run.
    pub trace: Vec<TraceRecord>,
}

impl ProfileReport {
    /// Write records (ordered) touching paths that match `filter`.
    pub fn writes_matching(&self, filter: &TargetFilter) -> Vec<&TraceRecord> {
        self.trace
            .iter()
            .filter(|r| r.primitive == Primitive::Write && filter.matches(r.path.as_deref()))
            .collect()
    }

    /// Render a profile table (one row per exercised primitive).
    pub fn table(&self) -> String {
        let mut s = String::from("primitive        count\n");
        for (p, c) in self.counters.nonzero() {
            s.push_str(&format!("{:<16} {}\n", p.ffis_name(), c));
        }
        s
    }
}

/// The I/O profiler: runs a workload fault-free and counts primitives.
pub struct IoProfiler {
    primitive: Primitive,
    filter: TargetFilter,
}

impl IoProfiler {
    /// Profiler for a signature scope.
    pub fn new(primitive: Primitive, filter: TargetFilter) -> Self {
        IoProfiler { primitive, filter }
    }

    /// Execute `workload` on a fresh mount with counting and tracing
    /// interceptors attached, fault-free. Returns `Err` if the workload
    /// itself fails (a workload that cannot run clean cannot be
    /// profiled).
    pub fn profile<T>(
        &self,
        workload: impl FnOnce(&dyn FileSystem) -> Result<T, String>,
    ) -> Result<(ProfileReport, T), String> {
        let ffs = FfisFs::mount(Arc::new(MemFs::new()));
        let counter = Arc::new(EligibleCounter::new(self.primitive, self.filter.clone()));
        let trace = Arc::new(TraceInterceptor::new());
        ffs.attach(counter.clone());
        ffs.attach(trace.clone());
        let out = workload(&*ffs)?;
        ffs.unmount();
        Ok((
            ProfileReport {
                counters: ffs.counters(),
                eligible: counter.count(),
                trace: trace.records(),
            },
            out,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffis_vfs::FileSystemExt;

    fn workload(fs: &dyn FileSystem) -> Result<u32, String> {
        fs.mkdir("/out", 0o755).map_err(|e| e.to_string())?;
        fs.write_file_chunked("/out/data.h5", &[0u8; 4096 * 3], 4096).map_err(|e| e.to_string())?;
        fs.write_file("/out/run.log", b"done\n").map_err(|e| e.to_string())?;
        Ok(7)
    }

    #[test]
    fn profiles_counts_and_returns_output() {
        let prof = IoProfiler::new(Primitive::Write, TargetFilter::Any);
        let (report, out) = prof.profile(workload).unwrap();
        assert_eq!(out, 7);
        assert_eq!(report.counters.get(Primitive::Write), 4); // 3 chunks + 1 log
        assert_eq!(report.counters.get(Primitive::Mkdir), 1);
        assert_eq!(report.eligible, 4);
        assert!(report.table().contains("FFIS_write"));
    }

    #[test]
    fn eligible_respects_filter() {
        let prof = IoProfiler::new(Primitive::Write, TargetFilter::PathSuffix(".h5".into()));
        let (report, _) = prof.profile(workload).unwrap();
        assert_eq!(report.eligible, 3);
        let writes = report.writes_matching(&TargetFilter::PathSuffix(".h5".into()));
        assert_eq!(writes.len(), 3);
        assert_eq!(writes[0].offset, Some(0));
        assert_eq!(writes[2].offset, Some(8192));
    }

    #[test]
    fn failing_workload_propagates_error() {
        let prof = IoProfiler::new(Primitive::Write, TargetFilter::Any);
        let r = prof.profile(|_fs| Err::<(), _>("boom".to_string()));
        assert_eq!(r.err().unwrap(), "boom");
    }

    #[test]
    fn profile_is_deterministic() {
        let prof = IoProfiler::new(Primitive::Write, TargetFilter::Any);
        let (a, _) = prof.profile(workload).unwrap();
        let (b, _) = prof.profile(workload).unwrap();
        assert_eq!(a.eligible, b.eligible);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn eligible_counter_counts_mknod_scope() {
        let prof = IoProfiler::new(Primitive::Mknod, TargetFilter::Any);
        let (report, _) = prof
            .profile(|fs| {
                fs.mknod("/a", ffis_vfs::NodeKind::Fifo, 0o644, 0).map_err(|e| e.to_string())?;
                fs.mknod("/b", ffis_vfs::NodeKind::Fifo, 0o644, 0).map_err(|e| e.to_string())?;
                Ok(())
            })
            .unwrap();
        assert_eq!(report.eligible, 2);
    }
}
