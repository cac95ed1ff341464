//! The fault injector (paper §III-C).
//!
//! "For each fault injection run, it first generates a random number
//! from 0 to count-1, and executes the application normally. When the
//! execution count of the target primitive hits that random number,
//! the fault injector applies the fault based on the fault signature."
//!
//! [`ArmedInjector`] is an [`Interceptor`] armed with a fault
//! signature and a target instance number; it counts *eligible*
//! invocations (primitive matches, target filter matches) and fires
//! exactly once. [`ByteFaultInjector`] is the precision variant used
//! by the HDF5 metadata scan (§IV-D): it targets one specific write
//! instance and damages one specific byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ffis_vfs::{CallContext, Interceptor, Primitive, ReadAction, WriteAction};

use crate::fault::{FaultModel, FaultSignature, Mutation, ReadMutation};
use crate::rng::Rng;

/// What actually happened when the fault fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Primitive that hosted the fault.
    pub primitive: Primitive,
    /// Eligible-instance number that fired (1-based).
    pub instance: u64,
    /// Per-primitive dynamic sequence number at fire time.
    pub prim_seq: u64,
    /// Target file path, when known.
    pub path: Option<String>,
    /// Byte offset of the hosting write, when applicable.
    pub offset: Option<u64>,
    /// Buffer length of the hosting write, when applicable.
    pub len: usize,
    /// Damage description from the fault model.
    pub detail: String,
}

/// Interceptor that fires one fault at the `target_instance`-th
/// eligible invocation of the signature's primitive.
pub struct ArmedInjector {
    signature: FaultSignature,
    target_instance: u64,
    eligible_seen: AtomicU64,
    /// Global call-sequence number of the armed read crossing (0 =
    /// none armed yet). Read-site eligibility is counted at call
    /// *entry* ([`Interceptor::on_call`], before the inner op — the
    /// same attempt-based numbering the profiler uses), while the
    /// mutation can only apply after the inner read filled the buffer;
    /// the `seq` ties the two halves to the same crossing, so a read
    /// that *fails* still consumes its instance instead of silently
    /// shifting every later one off the profiled space.
    armed_read_seq: AtomicU64,
    rng: Mutex<Rng>,
    record: Mutex<Option<InjectionRecord>>,
}

impl ArmedInjector {
    /// Arm an injector: fire at the `target_instance`-th (1-based)
    /// eligible invocation, drawing random fault features from a
    /// stream seeded with `seed`.
    pub fn new(signature: FaultSignature, target_instance: u64, seed: u64) -> Self {
        Self::resuming(signature, target_instance, seed, 0)
    }

    /// Arm an injector that resumes counting mid-run: `already_seen`
    /// eligible invocations happened before this mount existed (the
    /// trace prefix behind a mid-trace checkpoint), so the injector
    /// still fires at the *absolute* `target_instance`-th eligible
    /// invocation and records that absolute instance number — the
    /// checkpointed suffix replay stays indistinguishable from a full
    /// execution.
    pub fn resuming(
        signature: FaultSignature,
        target_instance: u64,
        seed: u64,
        already_seen: u64,
    ) -> Self {
        debug_assert!(target_instance >= 1, "instances are 1-based");
        debug_assert!(already_seen < target_instance, "checkpoint must precede the target");
        ArmedInjector {
            signature,
            target_instance,
            eligible_seen: AtomicU64::new(already_seen),
            armed_read_seq: AtomicU64::new(0),
            rng: Mutex::new(Rng::seed_from(seed)),
            record: Mutex::new(None),
        }
    }

    /// The injection record, if the fault fired.
    pub fn record(&self) -> Option<InjectionRecord> {
        self.record.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Did the fault fire?
    pub fn fired(&self) -> bool {
        self.record().is_some()
    }

    /// Number of eligible invocations observed so far.
    pub fn eligible_seen(&self) -> u64 {
        self.eligible_seen.load(Ordering::SeqCst)
    }

    /// Check eligibility and return this invocation's eligible-instance
    /// number when it is the armed one.
    fn hit(&self, cx: &CallContext, primitive: Primitive) -> Option<u64> {
        if self.signature.primitive != primitive {
            return None;
        }
        if !self.signature.target.matches(cx.path.as_deref()) {
            return None;
        }
        let k = self.eligible_seen.fetch_add(1, Ordering::SeqCst) + 1;
        (k == self.target_instance).then_some(k)
    }

    fn store_record(&self, cx: &CallContext, instance: u64, detail: String) {
        *self.record.lock().unwrap_or_else(|e| e.into_inner()) = Some(InjectionRecord {
            primitive: cx.primitive,
            instance,
            prim_seq: cx.prim_seq,
            path: cx.path.clone(),
            offset: cx.offset,
            len: cx.len,
            detail,
        });
    }
}

impl Interceptor for ArmedInjector {
    fn on_call(&self, cx: &CallContext) {
        // Read-site eligibility counts *attempts* at call entry,
        // mirroring the profiler's `EligibleCounter` (and the write
        // site, whose on_write hook also runs before the inner op) —
        // see `armed_read_seq`.
        if self.signature.primitive != Primitive::Read || cx.primitive != Primitive::Read {
            return;
        }
        if !self.signature.target.matches(cx.path.as_deref()) {
            return;
        }
        let k = self.eligible_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if k == self.target_instance {
            self.armed_read_seq.store(cx.seq, Ordering::SeqCst);
        }
    }

    fn wants_read_snapshot(&self, cx: &CallContext) -> bool {
        // Only DROPPED READ needs the pre-call buffer (to hand the
        // application its stale bytes back), and only for the single
        // armed crossing — every other read of the run skips the copy.
        matches!(self.signature.model, FaultModel::DroppedWrite)
            && self.armed_read_seq.load(Ordering::SeqCst) == cx.seq
    }

    fn on_read(&self, cx: &CallContext, buf: &mut [u8], n: usize) -> ReadAction {
        if self.armed_read_seq.load(Ordering::SeqCst) != cx.seq {
            return ReadAction::Forward;
        }
        let mutation = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            self.signature.model.apply_to_read(buf, n, &mut rng)
        };
        match mutation {
            ReadMutation::Corrupted { detail } => {
                self.store_record(cx, self.target_instance, detail);
                // The application sees the device's byte count — the
                // corruption is silent at the filesystem interface.
                ReadAction::Forward
            }
            ReadMutation::Dropped { detail } => {
                self.store_record(cx, self.target_instance, detail);
                // Stale buffer, full success reported: the mirror of
                // DROPPED WRITE's "ignored ... sets the return value
                // to the original size".
                ReadAction::Stale { reported_len: n }
            }
            ReadMutation::NotApplicable => ReadAction::Forward,
        }
    }

    fn on_write(&self, cx: &CallContext, buf: &[u8]) -> WriteAction {
        let Some(instance) = self.hit(cx, Primitive::Write) else {
            return WriteAction::Forward;
        };
        let mutation = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            self.signature.model.apply_to_buffer(buf, &mut rng)
        };
        match mutation {
            Mutation::Replaced { buf: out, detail } => {
                self.store_record(cx, instance, detail);
                // The application is told the full write succeeded —
                // the corruption is silent at the filesystem interface.
                WriteAction::Replace { buf: out, reported_len: buf.len() }
            }
            Mutation::Dropped => {
                self.store_record(cx, instance, "dropped".into());
                WriteAction::Drop { reported_len: buf.len() }
            }
            Mutation::NotApplicable => WriteAction::Forward,
        }
    }

    fn on_mknod(&self, cx: &CallContext, mode: &mut u32, dev: &mut u64) {
        let Some(instance) = self.hit(cx, Primitive::Mknod) else {
            return;
        };
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        // Fault lands in either parameter (Fig. 3b shows both `mode`
        // and `dev` instrumented); pick uniformly.
        if rng.chance(0.5) {
            if let Some((v, d)) =
                self.signature.model.apply_to_scalar(u64::from(*mode), 12, &mut rng)
            {
                *mode = (v & 0o7777) as u32;
                self.store_record(cx, instance, format!("mknod.mode {}", d));
            }
        } else if let Some((v, d)) = self.signature.model.apply_to_scalar(*dev, 32, &mut rng) {
            *dev = v;
            self.store_record(cx, instance, format!("mknod.dev {}", d));
        }
    }

    fn on_chmod(&self, cx: &CallContext, mode: &mut u32) {
        let Some(instance) = self.hit(cx, Primitive::Chmod) else {
            return;
        };
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((v, d)) = self.signature.model.apply_to_scalar(u64::from(*mode), 12, &mut rng) {
            *mode = (v & 0o7777) as u32;
            self.store_record(cx, instance, format!("chmod.mode {}", d));
        }
    }

    fn on_truncate(&self, cx: &CallContext, size: &mut u64) {
        let Some(instance) = self.hit(cx, Primitive::Truncate) else {
            return;
        };
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((v, d)) = self.signature.model.apply_to_scalar(*size, 32, &mut rng) {
            *size = v;
            self.store_record(cx, instance, format!("truncate.size {}", d));
        }
    }
}

// (The former `ReadFaultInjector` — a bitflip-only read injector with
// success-based instance counting — is subsumed by arming an
// [`ArmedInjector`] with `FaultSignature::on_read`, which hosts all
// three models and counts eligible reads at call entry, matching the
// profiler.)

/// Byte-precise flip applied to one byte of one specific write —
/// the HDF5 metadata-scan workhorse (§IV-D: "perform a fault injection
/// starting from the offset value specified by the fwrite and till the
/// end of the buffer byte-by-byte").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteFlip {
    /// XOR the byte with a mask (e.g. `0b11 << k` = 2 consecutive bits).
    Xor(u8),
    /// Overwrite the byte with a value.
    Set(u8),
}

impl ByteFlip {
    /// Apply to a byte.
    pub fn apply(self, b: u8) -> u8 {
        match self {
            ByteFlip::Xor(m) => b ^ m,
            ByteFlip::Set(v) => v,
        }
    }
}

/// Interceptor damaging `byte_index` of the write whose *eligible*
/// instance number (writes matching `filter`) equals `write_instance`.
pub struct ByteFaultInjector {
    filter: crate::fault::TargetFilter,
    write_instance: u64,
    byte_index: usize,
    flip: ByteFlip,
    eligible_seen: AtomicU64,
    record: Mutex<Option<InjectionRecord>>,
}

impl ByteFaultInjector {
    /// Arm for the `write_instance`-th (1-based) matching write.
    pub fn new(
        filter: crate::fault::TargetFilter,
        write_instance: u64,
        byte_index: usize,
        flip: ByteFlip,
    ) -> Self {
        Self::resuming(filter, write_instance, byte_index, flip, 0)
    }

    /// [`ByteFaultInjector::new`] for a mount started from a mid-trace
    /// checkpoint: `already_seen` matching writes precede it, so the
    /// fault still lands on — and records — the absolute
    /// `write_instance` (see [`ArmedInjector::resuming`]).
    pub(crate) fn resuming(
        filter: crate::fault::TargetFilter,
        write_instance: u64,
        byte_index: usize,
        flip: ByteFlip,
        already_seen: u64,
    ) -> Self {
        ByteFaultInjector {
            filter,
            write_instance,
            byte_index,
            flip,
            eligible_seen: AtomicU64::new(already_seen),
            record: Mutex::new(None),
        }
    }

    /// The injection record, if the fault fired.
    pub fn record(&self) -> Option<InjectionRecord> {
        self.record.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Interceptor for ByteFaultInjector {
    fn on_write(&self, cx: &CallContext, buf: &[u8]) -> WriteAction {
        if !self.filter.matches(cx.path.as_deref()) {
            return WriteAction::Forward;
        }
        let k = self.eligible_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if k != self.write_instance || self.byte_index >= buf.len() {
            return WriteAction::Forward;
        }
        let mut out = buf.to_vec();
        let before = out[self.byte_index];
        out[self.byte_index] = self.flip.apply(before);
        if out[self.byte_index] == before {
            return WriteAction::Forward; // Set() to the same value: no fault.
        }
        *self.record.lock().unwrap_or_else(|e| e.into_inner()) = Some(InjectionRecord {
            primitive: Primitive::Write,
            instance: k,
            prim_seq: cx.prim_seq,
            path: cx.path.clone(),
            offset: cx.offset,
            len: cx.len,
            detail: format!(
                "byte[{}] {:#04x} -> {:#04x} ({:?})",
                self.byte_index, before, out[self.byte_index], self.flip
            ),
        });
        WriteAction::Replace { buf: out, reported_len: buf.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, TargetFilter};
    use ffis_vfs::{FfisFs, FileSystem, FileSystemExt, MemFs};
    use std::sync::Arc;

    fn mount() -> Arc<FfisFs> {
        FfisFs::mount(Arc::new(MemFs::new()))
    }

    #[test]
    fn fires_on_exact_instance_only() {
        let fs = mount();
        let inj = Arc::new(ArmedInjector::new(
            FaultSignature::on_write(FaultModel::dropped_write()),
            3,
            42,
        ));
        fs.attach(inj.clone());
        let fd = fs.create("/f", 0o644).unwrap();
        for i in 0..5u64 {
            fs.pwrite(fd, &[i as u8; 4], i * 4).unwrap();
        }
        fs.release(fd).unwrap();
        let rec = inj.record().expect("fired");
        assert_eq!(rec.instance, 3);
        assert_eq!(rec.offset, Some(8));
        assert_eq!(rec.detail, "dropped");
        assert_eq!(inj.eligible_seen(), 5);
        // Third write dropped; others persisted.
        let data = fs.read_to_vec("/f").unwrap();
        assert_eq!(&data[0..4], &[0u8; 4]);
        assert_eq!(&data[4..8], &[1u8; 4]);
        assert_eq!(&data[8..12], &[0u8; 4], "dropped region stays zero");
        assert_eq!(&data[12..16], &[3u8; 4]);
    }

    #[test]
    fn path_filter_limits_eligibility() {
        let fs = mount();
        let inj = Arc::new(ArmedInjector::new(
            FaultSignature {
                model: FaultModel::dropped_write(),
                primitive: Primitive::Write,
                target: TargetFilter::PathSuffix(".h5".into()),
            },
            1,
            7,
        ));
        fs.attach(inj.clone());
        fs.write_file("/log.txt", b"logline").unwrap(); // not eligible
        fs.write_file("/data.h5", b"hdf5data").unwrap(); // eligible -> dropped
        assert_eq!(inj.eligible_seen(), 1);
        assert_eq!(fs.read_to_vec("/log.txt").unwrap(), b"logline");
        assert_eq!(fs.getattr("/data.h5").unwrap().size, 0);
        assert_eq!(inj.record().unwrap().path.as_deref(), Some("/data.h5"));
    }

    #[test]
    fn bitflip_corrupts_exactly_two_bits_and_reports_success() {
        let fs = mount();
        let inj =
            Arc::new(ArmedInjector::new(FaultSignature::on_write(FaultModel::bit_flip()), 1, 99));
        fs.attach(inj.clone());
        let payload = vec![0u8; 256];
        fs.write_file("/b", &payload).unwrap();
        let out = fs.read_to_vec("/b").unwrap();
        let flipped: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 2);
        assert!(inj.record().unwrap().detail.contains("bitflip bits=2"));
    }

    #[test]
    fn does_not_fire_when_instance_out_of_range() {
        let fs = mount();
        let inj =
            Arc::new(ArmedInjector::new(FaultSignature::on_write(FaultModel::bit_flip()), 100, 1));
        fs.attach(inj.clone());
        fs.write_file("/x", b"only one write").unwrap();
        assert!(!inj.fired());
        assert_eq!(inj.eligible_seen(), 1);
    }

    #[test]
    fn mknod_param_fault_changes_mode_or_dev() {
        // With BIT FLIP on FFIS_mknod the node's mode or dev deviates.
        let mut changed = 0;
        for seed in 0..20u64 {
            let fs = mount();
            let inj = Arc::new(ArmedInjector::new(
                FaultSignature {
                    model: FaultModel::bit_flip(),
                    primitive: Primitive::Mknod,
                    target: TargetFilter::Any,
                },
                1,
                seed,
            ));
            fs.attach(inj.clone());
            fs.mknod("/node", ffis_vfs::NodeKind::CharDev, 0o600, 0x0102).unwrap();
            let m = fs.getattr("/node").unwrap();
            if m.mode != 0o600 || m.rdev != 0x0102 {
                changed += 1;
                assert!(inj.fired());
            }
        }
        assert!(changed >= 15, "mknod faults should usually change state ({}/20)", changed);
    }

    #[test]
    fn chmod_param_fault() {
        let fs = mount();
        fs.write_file("/c", b"x").unwrap();
        let inj = Arc::new(ArmedInjector::new(
            FaultSignature {
                model: FaultModel::bit_flip(),
                primitive: Primitive::Chmod,
                target: TargetFilter::Any,
            },
            1,
            5,
        ));
        fs.attach(inj.clone());
        fs.chmod("/c", 0o644).unwrap();
        assert!(inj.fired());
        assert_ne!(fs.getattr("/c").unwrap().mode, 0o644);
    }

    #[test]
    fn truncate_param_fault() {
        let fs = mount();
        fs.write_file("/t", &[1u8; 100]).unwrap();
        let inj = Arc::new(ArmedInjector::new(
            FaultSignature {
                model: FaultModel::bit_flip(),
                primitive: Primitive::Truncate,
                target: TargetFilter::Any,
            },
            1,
            6,
        ));
        fs.attach(inj.clone());
        fs.truncate("/t", 50).unwrap();
        assert!(inj.fired());
        assert_ne!(fs.getattr("/t").unwrap().size, 50);
    }

    #[test]
    fn byte_injector_damages_one_byte_of_one_write() {
        let fs = mount();
        let inj =
            Arc::new(ByteFaultInjector::new(TargetFilter::Any, 2, 5, ByteFlip::Xor(0b0000_0110)));
        fs.attach(inj.clone());
        let fd = fs.create("/m", 0o644).unwrap();
        fs.pwrite(fd, &[0u8; 16], 0).unwrap();
        fs.pwrite(fd, &[0u8; 16], 16).unwrap();
        fs.release(fd).unwrap();
        let data = fs.read_to_vec("/m").unwrap();
        assert_eq!(data[16 + 5], 0b0000_0110);
        assert_eq!(data.iter().filter(|&&b| b != 0).count(), 1);
        let rec = inj.record().unwrap();
        assert_eq!(rec.instance, 2);
        assert!(rec.detail.contains("byte[5]"));
    }

    #[test]
    fn byte_injector_set_same_value_counts_as_no_fault() {
        let fs = mount();
        let inj = Arc::new(ByteFaultInjector::new(TargetFilter::Any, 1, 0, ByteFlip::Set(0xAB)));
        fs.attach(inj.clone());
        fs.write_file("/m", &[0xAB, 0x00]).unwrap();
        assert!(inj.record().is_none());
        assert_eq!(fs.read_to_vec("/m").unwrap(), vec![0xAB, 0x00]);
    }

    #[test]
    fn byte_injector_index_out_of_buffer_forwards() {
        let fs = mount();
        let inj = Arc::new(ByteFaultInjector::new(TargetFilter::Any, 1, 100, ByteFlip::Xor(0xFF)));
        fs.attach(inj.clone());
        fs.write_file("/m", b"short").unwrap();
        assert!(inj.record().is_none());
        assert_eq!(fs.read_to_vec("/m").unwrap(), b"short");
    }

    /// What [`ArmedInjector::resuming`] promises, for the scan's
    /// injector: armed on a checkpoint-started mount it records the
    /// instance, `prim_seq`, offset and detail a full execution does.
    #[test]
    fn byte_injector_resumed_on_a_checkpoint_records_what_a_full_execution_does() {
        use ffis_vfs::{TraceCheckpoints, TraceRecorder};
        let workload = |fs: &FfisFs| {
            fs.write_file("/run.log", b"start").unwrap();
            let fd = fs.create("/d.h5", 0o644).unwrap();
            for i in 0..4u64 {
                fs.pwrite(fd, &[i as u8; 16], i * 16).unwrap();
                fs.write_file("/run.log", b"step").unwrap();
            }
            fs.release(fd).unwrap();
        };
        let filter = TargetFilter::PathSuffix(".h5".into());
        let (instance, byte, flip) = (3, 5, ByteFlip::Xor(0b0110_0000));

        let full = Arc::new(ByteFaultInjector::new(filter.clone(), instance, byte, flip));
        let fs = mount();
        fs.attach(full.clone());
        workload(&fs);
        let full_record = full.record().expect("fired");
        assert_eq!((full_record.instance, full_record.offset), (3, Some(32)));

        let recorder = Arc::new(TraceRecorder::new());
        let golden = mount();
        golden.attach(recorder.clone());
        workload(&golden);
        let ops = recorder.take_ops();
        let eligible: Vec<usize> = (0..ops.len())
            .filter(|&i| ops[i].is_write() && filter.matches(ops[i].write_path()))
            .collect();
        let target_op = eligible[instance as usize - 1];
        let cache = TraceCheckpoints::build_for_demand(ops, &[target_op]).unwrap();
        let point = cache.nearest_before(target_op);
        assert_eq!(point.index(), target_op, "a demanded op gets its own checkpoint");

        let (ffs, mut cursor) = point.mount_fork();
        let resumed =
            Arc::new(ByteFaultInjector::resuming(filter, instance, byte, flip, instance - 1));
        ffs.attach(resumed.clone());
        cursor.replay(&*ffs, cache.suffix(point)).unwrap();
        assert_eq!(resumed.record(), Some(full_record));
        assert_eq!(ffs.read_to_vec("/d.h5").unwrap(), fs.read_to_vec("/d.h5").unwrap());
    }

    #[test]
    fn byteflip_apply() {
        assert_eq!(ByteFlip::Xor(0b11).apply(0b0000_0001), 0b0000_0010);
        assert_eq!(ByteFlip::Set(0x7F).apply(0x00), 0x7F);
    }

    #[test]
    fn armed_injector_read_site_corrupts_transfer_not_device() {
        use crate::fault::FaultSignature;
        for model in
            [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()]
        {
            let fs = mount();
            // Non-uniform payload: SHORN READ's stale fill replicates a
            // neighbouring sector, which is invisible on constant data.
            let payload: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
            fs.write_file("/d.bin", &payload).unwrap();
            let inj = Arc::new(ArmedInjector::new(FaultSignature::on_read(model), 1, 77));
            fs.attach(inj.clone());
            let corrupted = fs.read_to_vec("/d.bin").unwrap();
            let rec = inj.record().unwrap_or_else(|| panic!("{:?} must fire", model));
            assert_eq!(rec.primitive, Primitive::Read);
            assert_eq!(rec.instance, 1);
            assert_ne!(corrupted, payload, "{:?} must damage the returned data", model);
            // The device is pristine: the next (uninjected) read of the
            // same mount returns the original bytes.
            assert_eq!(fs.read_to_vec("/d.bin").unwrap(), payload, "{:?}", model);
        }
    }

    #[test]
    fn dropped_read_restores_stale_caller_buffer() {
        use crate::fault::FaultSignature;
        use ffis_vfs::OpenFlags;
        let fs = mount();
        fs.write_file("/s.bin", &[1u8; 64]).unwrap();
        let inj = Arc::new(ArmedInjector::new(
            FaultSignature::on_read(FaultModel::dropped_write()),
            1,
            3,
        ));
        fs.attach(inj.clone());
        let fd = fs.open("/s.bin", OpenFlags::read_only()).unwrap();
        // The caller's buffer carries stale application data (0xEE);
        // the dropped transfer must hand exactly those bytes back while
        // reporting full success.
        let mut buf = [0xEEu8; 64];
        let n = fs.pread(fd, &mut buf, 0).unwrap();
        fs.release(fd).unwrap();
        assert_eq!(n, 64, "success reported for the full transfer");
        assert!(buf.iter().all(|&b| b == 0xEE), "stale buffer preserved");
        assert!(inj.record().unwrap().detail.contains("dropped read"));
    }

    #[test]
    fn read_site_instance_counting_spans_produce_and_analyze_reads() {
        use crate::fault::FaultSignature;
        let fs = mount();
        fs.write_file("/a", &[1u8; 32]).unwrap();
        fs.write_file("/b", &[2u8; 32]).unwrap();
        let inj =
            Arc::new(ArmedInjector::new(FaultSignature::on_read(FaultModel::bit_flip()), 3, 11));
        fs.attach(inj.clone());
        let _ = fs.read_to_vec("/a").unwrap(); // eligible #1
        let _ = fs.read_to_vec("/b").unwrap(); // eligible #2
        let third = fs.read_to_vec("/a").unwrap(); // eligible #3: fires
        assert!(inj.fired());
        assert_eq!(inj.eligible_seen(), 3);
        assert_ne!(third, vec![1u8; 32]);
    }

    #[test]
    fn failed_read_attempts_consume_their_instance_like_the_profiler() {
        use crate::fault::FaultSignature;
        // The profiler counts read *attempts* (on_call fires at entry,
        // before the inner op), so the injector must too: a failed
        // read consumes its eligible instance.
        let fs = mount();
        fs.write_file("/ok.bin", &[3u8; 16]).unwrap();

        // Armed on instance 1 — which turns out to be a failing read
        // (bad descriptor): the fault can never apply, so the run is a
        // no-fire, not a shifted hit on the next read.
        let inj =
            Arc::new(ArmedInjector::new(FaultSignature::on_read(FaultModel::bit_flip()), 1, 21));
        fs.attach(inj.clone());
        let mut buf = [0u8; 4];
        assert!(fs.pread(9999, &mut buf, 0).is_err(), "bad descriptor read must fail");
        let clean = fs.read_to_vec("/ok.bin").unwrap();
        assert_eq!(clean, vec![3u8; 16], "instance 2 is untouched");
        assert_eq!(inj.eligible_seen(), 2, "failed attempt + successful read both counted");
        assert!(!inj.fired(), "a fault armed on a failed read never fires");

        // Armed on instance 2 with the same call pattern: the fault
        // lands on the first *successful* read, exactly where the
        // profiled numbering says instance 2 sits.
        let fs = mount();
        fs.write_file("/ok.bin", &[3u8; 16]).unwrap();
        let inj =
            Arc::new(ArmedInjector::new(FaultSignature::on_read(FaultModel::bit_flip()), 2, 21));
        fs.attach(inj.clone());
        let mut buf = [0u8; 4];
        assert!(fs.pread(9999, &mut buf, 0).is_err());
        let corrupted = fs.read_to_vec("/ok.bin").unwrap();
        assert_ne!(corrupted, vec![3u8; 16]);
        assert_eq!(inj.record().unwrap().instance, 2);
    }

    #[test]
    fn read_site_injector_respects_path_filter() {
        use crate::fault::FaultSignature;
        let fs = mount();
        fs.write_file("/a.h5", &[1u8; 16]).unwrap();
        fs.write_file("/b.log", &[2u8; 16]).unwrap();
        let mut sig = FaultSignature::on_read(FaultModel::bit_flip());
        sig.target = TargetFilter::PathSuffix(".h5".into());
        let inj = Arc::new(ArmedInjector::new(sig, 2, 9));
        fs.attach(inj.clone());
        let _ = fs.read_to_vec("/b.log").unwrap(); // not eligible
        let first = fs.read_to_vec("/a.h5").unwrap(); // eligible #1: clean
        assert!(first.iter().all(|&b| b == 1));
        let second = fs.read_to_vec("/a.h5").unwrap(); // eligible #2: corrupted
        assert_ne!(second, first);
        assert_eq!(inj.eligible_seen(), 2);
        assert_eq!(inj.record().unwrap().path.as_deref(), Some("/a.h5"));
    }
}
