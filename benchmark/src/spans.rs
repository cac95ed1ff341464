//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's side of each layer
//! boundary (see `traced.rs`): name, start, end, the span that caused
//! it, and the run it belongs to. Filesystem primitives are far too
//! many to keep one span each, so they are aggregated per run ×
//! primitive as count / bytes / time, and their time is folded into
//! the enclosing application span as covered child time. The traced
//! pass is serial, so one open-span stack is the whole call tree.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Run index, stamped by the next run event after the span closed.
    pub run: Option<usize>,
    /// Time inside this span spent in aggregated filesystem
    /// primitives (children that are not spans of their own).
    pub folded_child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time is its duration minus the part of that interval
/// its children cover: child spans plus folded primitive time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: Vec<u64> = spans.iter().map(|s| s.folded_child_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// The three groups filesystem primitives are reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FsClass {
    Read,
    Write,
    Meta,
}

/// The 22 `FileSystem` primitives, in trait order.
pub const PRIMITIVES: [(&str, FsClass); 22] = [
    ("getattr", FsClass::Meta),
    ("mknod", FsClass::Meta),
    ("mkdir", FsClass::Meta),
    ("unlink", FsClass::Meta),
    ("rmdir", FsClass::Meta),
    ("rename", FsClass::Meta),
    ("chmod", FsClass::Meta),
    ("truncate", FsClass::Meta),
    ("create", FsClass::Meta),
    ("open", FsClass::Meta),
    ("read", FsClass::Read),
    ("pread", FsClass::Read),
    ("write", FsClass::Write),
    ("pwrite", FsClass::Write),
    ("writev", FsClass::Write),
    ("pwritev", FsClass::Write),
    ("fsync", FsClass::Meta),
    ("release", FsClass::Meta),
    ("readdir", FsClass::Meta),
    ("statfs", FsClass::Meta),
    ("lock", FsClass::Meta),
    ("unlock", FsClass::Meta),
];

/// Count / bytes / time of one primitive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsAgg {
    pub ops: u64,
    pub bytes: u64,
    pub ns: u64,
}

impl FsAgg {
    fn add(&mut self, other: &FsAgg) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.ns += other.ns;
    }
}

/// Primitive totals recorded between two run events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFs {
    /// The run the closing event named (`None`: set-up, or the tail
    /// after the last event).
    pub run: Option<usize>,
    /// Recorded after the set-up phase ended.
    pub after_setup: bool,
    pub prims: [FsAgg; 22],
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// First span not yet stamped with a run index.
    unstamped_from: usize,
    current_fs: [FsAgg; 22],
    per_run: Vec<RunFs>,
    setup_end_ns: Option<u64>,
}

/// The recorder one traced pass shares between the application
/// wrapper, the filesystem wrapper and the run observer.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), inner: Mutex::new(Inner::default()) }
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("span recorder poisoned: a traced call panicked while recording")
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the currently open one; returns its index.
    pub fn open(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut g = self.lock();
        let parent = g.stack.last().copied();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: None,
            folded_child_ns: 0,
        });
        let id = g.spans.len() - 1;
        g.stack.push(id);
        id
    }

    /// Close span `id`. Spans opened above it that never closed (the
    /// application unwound through them) are closed with it.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        let mut g = self.lock();
        while let Some(top) = g.stack.pop() {
            g.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Account one filesystem primitive call (`prim` indexes
    /// [`PRIMITIVES`]) and fold its time into the open span.
    pub fn fs_op(&self, prim: usize, bytes: u64, ns: u64) {
        let mut g = self.lock();
        g.current_fs[prim].add(&FsAgg { ops: 1, bytes, ns });
        if let Some(&top) = g.stack.last() {
            g.spans[top].folded_child_ns += ns;
        }
    }

    /// The set-up phase ends now (the first result arrived, or a
    /// scan's golden run returned): what was recorded so far is
    /// set-up. Later calls change nothing.
    pub fn mark_setup_end(&self) {
        if self.setup_end_ns().is_none() {
            self.stamp(None);
            self.lock().setup_end_ns = Some(self.now_ns());
        }
    }

    /// When the set-up phase ended, if it has.
    pub fn setup_end_ns(&self) -> Option<u64> {
        self.lock().setup_end_ns
    }

    /// A run event arrived: everything recorded since the previous
    /// event belongs to `run`.
    pub fn stamp(&self, run: Option<usize>) {
        let mut g = self.lock();
        let from = g.unstamped_from;
        // Spans still open belong to whatever is recorded next.
        let upto = g.stack.first().copied().unwrap_or(g.spans.len());
        for s in &mut g.spans[from..upto] {
            s.run = run;
        }
        g.unstamped_from = upto;
        let prims = std::mem::take(&mut g.current_fs);
        if prims.iter().any(|a| a.ops > 0) {
            let after_setup = g.setup_end_ns.is_some();
            g.per_run.push(RunFs { run, after_setup, prims });
        }
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Per-run primitive totals recorded so far.
    #[cfg(test)]
    pub fn per_run_fs(&self) -> Vec<RunFs> {
        self.lock().per_run.clone()
    }

    /// Primitive totals by class over the runs selected by `keep`.
    pub fn fs_totals(&self, keep: impl Fn(&RunFs) -> bool) -> [FsAgg; 3] {
        let mut out = [FsAgg::default(); 3];
        for r in self.lock().per_run.iter().filter(|r| keep(r)) {
            for (agg, (_, class)) in r.prims.iter().zip(PRIMITIVES) {
                out[class as usize].add(agg);
            }
        }
        out
    }

    /// Append spans and per-run primitive totals to `path` as NDJSON.
    pub fn append_ndjson(&self, path: &Path, cell: &str) -> std::io::Result<()> {
        let g = self.lock();
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = std::io::BufWriter::new(file);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in g.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"cell\":\"{}\",\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{},\"fs_ns\":{}}}",
                cell, i, s.name, s.start_ns, s.end_ns, opt(s.parent), opt(s.run), s.folded_child_ns
            )?;
        }
        for r in &g.per_run {
            for (agg, (name, _)) in r.prims.iter().zip(PRIMITIVES).filter(|(a, _)| a.ops > 0) {
                writeln!(
                    out,
                    "{{\"cell\":\"{}\",\"run\":{},\"fs\":\"{}\",\"ops\":{},\"bytes\":{},\"ns\":{}}}",
                    cell,
                    opt(r.run),
                    name,
                    agg.ops,
                    agg.bytes,
                    agg.ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>, folded: u64) -> Span {
        Span { name: "t", start_ns: start, end_ns: end, parent, run: None, folded_child_ns: folded }
    }

    #[test]
    fn self_time_subtracts_children_and_folded_primitives() {
        let spans = vec![
            span(0, 100, None, 0),     // root: children cover 60
            span(10, 50, Some(0), 5),  // child: 40 long, 5 in primitives, grandchild 10
            span(20, 30, Some(1), 0),  // grandchild
            span(60, 80, Some(0), 20), // child: wholly primitives
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 10, 0]);
        // Self times of a tree sum to the root's duration minus folded time.
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100 - 25);
    }

    #[test]
    fn recorder_nests_stamps_and_aggregates() {
        let rec = Recorder::new();
        let a = rec.open("analyze");
        rec.fs_op(11, 4096, 700); // pread
        let b = rec.open("substep");
        rec.fs_op(11, 100, 300);
        rec.close(b);
        rec.close(a);
        assert_eq!(rec.setup_end_ns(), None);
        rec.mark_setup_end();
        rec.fs_op(11, 1, 1);
        rec.stamp(Some(7));
        let c = rec.open("classify");
        rec.close(c);
        rec.stamp(Some(3));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].folded_child_ns, 700);
        assert_eq!(spans[1].folded_child_ns, 300);
        assert_eq!((spans[0].run, spans[1].run, spans[2].run), (None, None, Some(3)));
        assert!(rec.setup_end_ns().is_some());
        let per_run = rec.per_run_fs();
        assert_eq!(per_run.len(), 2);
        assert_eq!((per_run[0].run, per_run[0].after_setup), (None, false));
        assert_eq!(per_run[0].prims[11], FsAgg { ops: 2, bytes: 4196, ns: 1000 });
        assert_eq!((per_run[1].run, per_run[1].after_setup), (Some(7), true));
        let totals = rec.fs_totals(|r| r.after_setup);
        assert_eq!(totals[FsClass::Read as usize].ops, 1);
        assert_eq!(totals[FsClass::Write as usize].ops, 0);
    }

    #[test]
    fn closing_an_outer_span_closes_abandoned_inner_ones() {
        let rec = Recorder::new();
        let outer = rec.open("produce");
        let _inner = rec.open("abandoned");
        rec.close(outer);
        let next = rec.open("analyze");
        rec.close(next);
        let spans = rec.spans();
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].end_ns >= spans[1].start_ns);
    }
}
