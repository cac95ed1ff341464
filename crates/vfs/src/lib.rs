//! # ffis-vfs — user-space filesystem substrate for FFIS
//!
//! The FFIS paper ("Characterizing Impacts of Storage Faults on HPC
//! Applications", CLUSTER 2021) interposes on application I/O with a
//! FUSE-based user-space filesystem ("FFISFS"). FUSE's role there is
//! purely to provide a *chokepoint*: every file-operation primitive
//! (`open`, `read`, `write`, `mknod`, `chmod`, ...) issued by an
//! unmodified application passes through user-space callbacks where
//! faults can be planted (paper §II, §III-A, requirements R1/R2).
//!
//! This crate reproduces that chokepoint in-process:
//!
//! * [`FileSystem`] — the FUSE primitive vocabulary as an object-safe
//!   trait. Applications in this workspace are written once against
//!   `&dyn FileSystem` and never know whether they run on a pristine
//!   filesystem or a fault-injected mount (transparency, R1).
//! * [`MemFs`] — the reference implementation: a thread-safe in-memory
//!   inode filesystem with 512-byte sector granularity on file contents
//!   (so shorn writes have a physical granularity to respect), POSIX-ish
//!   semantics (short reads at EOF, `O_APPEND`, advisory file locks used
//!   by the HDF5 writer's lock/write/unlock protocol).
//! * [`FfisFs`] — the mountable wrapper ("FFISFS"): forwards every
//!   primitive to an inner [`FileSystem`] through a chain of
//!   [`Interceptor`]s, maintains per-primitive dynamic execution
//!   counters (the I/O profiler's data source), and enforces the
//!   mount/unmount-per-run lifecycle the paper uses.
//! * [`Interceptor`] — observe or rewrite a primitive invocation:
//!   forward unchanged, replace the buffer (bit flips, shorn writes),
//!   drop the device write while reporting success (dropped writes),
//!   or corrupt the data *returned* by a read while the stored bytes
//!   stay pristine ([`ReadAction`] — the read-site fault surface).
//!
//! ## Snapshot forking and golden-trace replay
//!
//! Injection campaigns repeat the same fault-free prefix thousands of
//! times. Two mechanisms in this crate collapse that cost:
//!
//! * **Copy-on-write forking** — [`MemFs`] keeps its inode table, its
//!   inodes and each file's 4-KiB page extents ([`SectorFile`]) behind
//!   `Arc`s, so [`MemFs::fork`] clones a whole filesystem — open
//!   descriptors and all — by sharing the table. A write un-shares the
//!   one inode and the one page it lands in; an injection run that
//!   corrupts one metadata byte dirties exactly one page of the shared
//!   golden snapshot, and a run that only reads copies nothing.
//! * **Golden-trace capture/replay** ([`trace`]) — a [`TraceRecorder`]
//!   attached to the golden run captures every state-mutating
//!   primitive (with its full write payload) as a replayable
//!   [`TraceOp`] stream; a [`ReplayCursor`] re-issues any slice of
//!   that stream against a bare [`MemFs`] (snapshot construction at
//!   memcpy speed) or through a mounted [`FfisFs`] with an armed
//!   injector (the fault lands in exactly the targeted instance).
//!
//! Together they turn a per-run cost of "re-execute the application"
//! into "fork + replay the post-injection suffix + verify" — see
//! `ffis_core::metadata_scan` for the end-to-end fast path.
//!
//! The fault *models* themselves live in `ffis-core`; this crate only
//! provides the mechanism.
//!
//! ```
//! use ffis_vfs::{MemFs, FfisFs, FileSystem, OpenFlags};
//! use std::sync::Arc;
//!
//! let ffs = FfisFs::mount(Arc::new(MemFs::new()));
//! let fd = ffs.create("/data.bin", 0o644).unwrap();
//! ffs.pwrite(fd, b"hello storage faults", 0).unwrap();
//! ffs.release(fd).unwrap();
//!
//! let fd = ffs.open("/data.bin", OpenFlags::read_only()).unwrap();
//! let mut buf = vec![0u8; 20];
//! let n = ffs.pread(fd, &mut buf, 0).unwrap();
//! assert_eq!(&buf[..n], b"hello storage faults");
//! ffs.unmount();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blobs;
pub mod bufio;
pub mod counting;
pub mod error;
pub mod ffisfs;
pub mod file;
pub mod fingerprint;
pub mod frame;
pub mod fs;
pub mod inode;
pub mod interceptor;
pub mod memfs;
pub mod memo;
pub mod path;
pub mod trace;
pub mod wire;

pub use blobs::{BlobHash, BlobStats, BlobStore};
pub use bufio::BufFile;
pub use counting::{TraceInterceptor, TraceRecord};
pub use error::{FsError, FsResult};
pub use ffisfs::{CounterSnapshot, DeadlineExceeded, FfisFs, FuelExhausted};
pub use file::{SectorFile, BLOCK_SIZE, SECTOR_SIZE};
pub use fingerprint::{content_fingerprint, EMPTY_FINGERPRINT};
pub use fs::{
    DirEntry, Fd, FileSystem, FileSystemExt, LockKind, Metadata, NodeKind, OpenFlags, StatFs,
};
pub use interceptor::{CallContext, Interceptor, Primitive, ReadAction, WriteAction, PRIMITIVES};
pub use memfs::MemFs;
pub use memo::{MemoStats, MemoStore};
pub use trace::{
    BatchFork, BatchForks, CheckpointStore, CoalesceStats, Fnv, PathIndex, PathSet, Placement,
    ReadLedger, ReadRecord, ReplayCursor, ReplayError, SharedTrace, TraceCheckpoint,
    TraceCheckpoints, TraceOp, TraceRecorder,
};
