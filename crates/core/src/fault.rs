//! Fault models and fault signatures (paper §III-B, Table I, §IV-B).
//!
//! FFIS supports three fault models, each corresponding to a
//! manifestation of SSD partial failures:
//!
//! * [`FaultModel::BitFlip`] — "flip consecutive multiple bits" in the
//!   buffer passed to `pwrite` (default 2 bits, per §IV-B; footnote 3
//!   also evaluates a 4-bit variant — exposed here as `bits`).
//! * [`FaultModel::ShornWrite`] — "completely write the first 3/8th of
//!   \[a\] 4KB block or first 7/8th of \[a\] 4KB block to the device at
//!   the granularity of 512B"; the reported size stays the original,
//!   so the torn tail silently carries *undefined* device data.
//! * [`FaultModel::DroppedWrite`] — "the write operation is ignored"
//!   while success is reported.
//!
//! Each model can be hosted at either **injection site** of the data
//! path ([`InjectionSite`]): the write site (the paper's principal
//! campaigns — corrupt what reaches the device) or the read site
//! (corrupt what the device *returns* while the stored bytes stay
//! pristine — the uncorrectable-read-error regime that slips past the
//! device ECC). At the read site the torn and dropped models go by
//! their read names, SHORN READ and DROPPED READ; the site-aware
//! [`FaultModel::label_at`] / [`FaultModel::name_at`] /
//! [`FaultModel::feature_description_at`] render either vocabulary.

use crate::rng::Rng;
use ffis_vfs::{Primitive, BLOCK_SIZE, SECTOR_SIZE};

/// Which side of the data path hosts the fault: the buffer travelling
/// *to* the device (write site) or the buffer returned *from* it
/// (read site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionSite {
    /// Corrupt the data handed to the device (`FFIS_write` and the
    /// scalar-parameter primitives). Persistent: the damage lands on
    /// the device and every later read observes it.
    Write,
    /// Corrupt the data returned to the application (`FFIS_read`).
    /// Transient: the device state stays byte-identical; only this
    /// transfer's copy is damaged.
    Read,
}

impl InjectionSite {
    /// Lower-case site token used in reports.
    pub fn token(self) -> &'static str {
        match self {
            InjectionSite::Write => "write",
            InjectionSite::Read => "read",
        }
    }
}

impl std::fmt::Display for InjectionSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// How much of each 4 KiB block a shorn write persists (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShornKeep {
    /// First 3/8 of the block (3 sectors of 8).
    ThreeEighths,
    /// First 7/8 of the block (7 sectors of 8) — the §IV-B default
    /// ("lose the last 1/8th of the data").
    SevenEighths,
}

impl ShornKeep {
    /// Sectors persisted per 8-sector block.
    pub fn sectors_kept(self) -> usize {
        match self {
            ShornKeep::ThreeEighths => 3,
            ShornKeep::SevenEighths => 7,
        }
    }

    /// Fraction of the block persisted.
    pub fn fraction(self) -> f64 {
        self.sectors_kept() as f64 / 8.0
    }
}

/// What the torn tail of a shorn write contains.
///
/// The paper observes (§V-B, Nyx analysis) that the "undefined data"
/// landing in the torn region was "within an order of magnitude
/// difference from the original data" — i.e. stale content resembling
/// neighbouring data, not zeros. `Stale` models that (it replicates
/// the preceding persisted sector); `Zeros` and `Random` are exposed
/// for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShornFill {
    /// Torn sectors repeat the last successfully persisted sector —
    /// stale flash content from the same neighbourhood (default).
    Stale,
    /// Torn sectors read back as zeros (freshly trimmed block).
    Zeros,
    /// Torn sectors carry uniform random bytes.
    Random,
}

/// A fault model with its feature parameters (Table I "Features").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Flip `bits` consecutive bits at a uniformly random bit position
    /// of the write buffer.
    BitFlip {
        /// Number of consecutive bits to flip (paper default: 2).
        bits: u32,
    },
    /// Tear the write at sector granularity.
    ShornWrite {
        /// Fraction of each block persisted.
        keep: ShornKeep,
        /// Contents of the torn region.
        fill: ShornFill,
    },
    /// Ignore the write, report success.
    DroppedWrite,
}

impl FaultModel {
    /// The paper's default BIT FLIP (2 consecutive bits).
    pub fn bit_flip() -> Self {
        FaultModel::BitFlip { bits: 2 }
    }

    /// The paper's default SHORN WRITE (keep 7/8, stale fill).
    pub fn shorn_write() -> Self {
        FaultModel::ShornWrite { keep: ShornKeep::SevenEighths, fill: ShornFill::Stale }
    }

    /// DROPPED WRITE.
    pub fn dropped_write() -> Self {
        FaultModel::DroppedWrite
    }

    /// Short label used in result tables ("BF", "SW", "DW" — the
    /// abbreviations of Figure 7). Write-site vocabulary; read-site
    /// tables use [`FaultModel::label_at`].
    pub fn label(&self) -> &'static str {
        self.label_at(InjectionSite::Write)
    }

    /// Site-aware short label: BIT FLIP is "BF" at either site, while
    /// the torn and dropped models read "SR" / "DR" at the read site.
    pub fn label_at(&self, site: InjectionSite) -> &'static str {
        match (self, site) {
            (FaultModel::BitFlip { .. }, _) => "BF",
            (FaultModel::ShornWrite { .. }, InjectionSite::Write) => "SW",
            (FaultModel::ShornWrite { .. }, InjectionSite::Read) => "SR",
            (FaultModel::DroppedWrite, InjectionSite::Write) => "DW",
            (FaultModel::DroppedWrite, InjectionSite::Read) => "DR",
        }
    }

    /// Human-readable name matching the paper's typography (write-site
    /// vocabulary; read-site tables use [`FaultModel::name_at`]).
    pub fn name(&self) -> &'static str {
        self.name_at(InjectionSite::Write)
    }

    /// Site-aware display name ("SHORN WRITE" vs "SHORN READ", ...).
    pub fn name_at(&self, site: InjectionSite) -> &'static str {
        match (self, site) {
            (FaultModel::BitFlip { .. }, _) => "BIT FLIP",
            (FaultModel::ShornWrite { .. }, InjectionSite::Write) => "SHORN WRITE",
            (FaultModel::ShornWrite { .. }, InjectionSite::Read) => "SHORN READ",
            (FaultModel::DroppedWrite, InjectionSite::Write) => "DROPPED WRITE",
            (FaultModel::DroppedWrite, InjectionSite::Read) => "DROPPED READ",
        }
    }

    /// Table I "Features" column text (write-site vocabulary).
    pub fn feature_description(&self) -> String {
        self.feature_description_at(InjectionSite::Write)
    }

    /// Site-aware Table I "Features" text: the read-site rows describe
    /// the damage to the *returned* buffer rather than the device.
    pub fn feature_description_at(&self, site: InjectionSite) -> String {
        match (self, site) {
            (FaultModel::BitFlip { bits }, InjectionSite::Write) => {
                format!("flip consecutive multiple bits ({} bits)", bits)
            }
            (FaultModel::BitFlip { bits }, InjectionSite::Read) => format!(
                "flip consecutive multiple bits ({} bits) in the data returned by the read",
                bits
            ),
            (FaultModel::ShornWrite { keep, fill }, InjectionSite::Write) => format!(
                "completely write the first {}/8th of 4KB block to the device at the granularity of 512B (torn fill: {:?})",
                keep.sectors_kept(),
                fill
            ),
            (FaultModel::ShornWrite { keep, fill }, InjectionSite::Read) => format!(
                "return only the first {}/8th of a 4KB block of the read buffer intact at the granularity of 512B (torn fill: {:?}); the device bytes stay pristine",
                keep.sectors_kept(),
                fill
            ),
            (FaultModel::DroppedWrite, InjectionSite::Write) => {
                "the write operation is ignored".to_string()
            }
            (FaultModel::DroppedWrite, InjectionSite::Read) => {
                "the read transfer is ignored: the application keeps its stale buffer while full success is reported".to_string()
            }
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a fault application did to a buffer (for injection records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Buffer replaced; detail records the damage.
    Replaced {
        /// Mutated buffer to forward to the device.
        buf: Vec<u8>,
        /// Description of the damage (bit position, torn range, ...).
        detail: String,
    },
    /// Write suppressed entirely.
    Dropped,
    /// Model could not apply (e.g. empty buffer); forward unchanged.
    NotApplicable,
}

impl FaultModel {
    /// Apply the model to a write buffer, using `rng` for the random
    /// feature choices (bit position, affected block). This is the
    /// instrumentation of Figure 3a: the returned mutation is what
    /// FFIS forwards to the underlying `pwrite`. The caller's buffer is
    /// borrowed, so the damage lands on one copy of it — made only once
    /// the model is known to apply.
    pub fn apply_to_buffer(&self, buf: &[u8], rng: &mut Rng) -> Mutation {
        if let FaultModel::DroppedWrite = self {
            return Mutation::Dropped;
        }
        match self.plan_damage(buf.len(), rng) {
            Some(damage) => {
                let mut out = buf.to_vec();
                let detail = damage.apply(&mut out, rng);
                Mutation::Replaced { buf: out, detail }
            }
            None => Mutation::NotApplicable,
        }
    }

    /// Draw where BIT FLIP or SHORN damages a buffer of `len` bytes,
    /// touching no byte; `None` when the model cannot apply (an empty
    /// buffer, a zero-width flip, DROPPED WRITE). Together with
    /// [`Damage::apply`] this is the one damage core of both sites.
    fn plan_damage(&self, len: usize, rng: &mut Rng) -> Option<Damage> {
        match *self {
            FaultModel::BitFlip { bits } => {
                if len == 0 || bits == 0 {
                    return None;
                }
                let total_bits = len as u64 * 8;
                let bits = u64::from(bits).min(total_bits);
                let start = rng.gen_range(total_bits - bits + 1);
                Some(Damage::Flip { start, bits })
            }
            FaultModel::ShornWrite { keep, fill } => {
                if len == 0 {
                    return None;
                }
                // Choose the torn block: writes larger than one block
                // lose the tail of one uniformly random 4 KiB block;
                // smaller writes are torn as a single (partial) block.
                let nblocks = len.div_ceil(BLOCK_SIZE);
                let blk = rng.gen_range(nblocks as u64) as usize;
                let blk_start = blk * BLOCK_SIZE;
                let blk_end = (blk_start + BLOCK_SIZE).min(len);
                let blk_len = blk_end - blk_start;
                // Keep the first `sectors_kept` sectors of the block,
                // scaled down for partial blocks; always sector-aligned.
                let keep_bytes = if blk_len >= BLOCK_SIZE {
                    keep.sectors_kept() * SECTOR_SIZE
                } else {
                    // Partial trailing block: keep the same fraction,
                    // rounded down to sector granularity.
                    (blk_len * keep.sectors_kept() / 8) / SECTOR_SIZE * SECTOR_SIZE
                };
                let torn_start = blk_start + keep_bytes.min(blk_len);
                if torn_start >= blk_end {
                    return None;
                }
                Some(Damage::Tear { keep, fill, torn: torn_start..blk_end })
            }
            FaultModel::DroppedWrite => None,
        }
    }

    /// Apply the model to a scalar parameter (`mode`/`dev`/`size`
    /// of `mknod`/`chmod`/`truncate` — Figure 3b). Only BIT FLIP is
    /// meaningful for scalars; the torn/dropped models leave the value
    /// unchanged and report `NotApplicable`.
    pub fn apply_to_scalar(
        &self,
        value: u64,
        value_bits: u32,
        rng: &mut Rng,
    ) -> Option<(u64, String)> {
        match *self {
            FaultModel::BitFlip { bits } => {
                if bits == 0 || value_bits == 0 {
                    return None;
                }
                let bits = bits.min(value_bits);
                let start = rng.gen_range(u64::from(value_bits - bits + 1)) as u32;
                let mask = if bits >= 64 { u64::MAX } else { ((1u64 << bits) - 1) << start };
                Some((value ^ mask, format!("bitflip bits={} at bit {}", bits, start)))
            }
            _ => None,
        }
    }
}

/// Where one BIT FLIP or SHORN application lands, drawn by
/// [`FaultModel::plan_damage`] before any byte is touched.
enum Damage {
    /// Flip `bits` consecutive bits starting at bit `start`.
    Flip { start: u64, bits: u64 },
    /// Replace the `torn` range of a block that kept `keep` per `fill`.
    Tear { keep: ShornKeep, fill: ShornFill, torn: std::ops::Range<usize> },
}

impl Damage {
    /// Damage `buf` in place and describe it. A random fill draws its
    /// bytes from `rng` here, after the plan's draws.
    fn apply(self, buf: &mut [u8], rng: &mut Rng) -> String {
        match self {
            Damage::Flip { start, bits } => {
                for b in start..start + bits {
                    buf[(b / 8) as usize] ^= 1u8 << (b % 8);
                }
                format!("bitflip bits={} at bit {}", bits, start)
            }
            Damage::Tear { keep, fill, torn } => {
                let (torn_start, end) = (torn.start, torn.end);
                // A stale fill repeats the sector just before the tear:
                // the last persisted sector of the block or, if nothing
                // of it persisted, the one before the block (the kept
                // prefix is whole sectors). It ends at or before the
                // tear, so it holds original bytes throughout.
                let fill_name = match (fill, torn_start.checked_sub(SECTOR_SIZE)) {
                    (ShornFill::Zeros, _) => {
                        buf[torn].fill(0);
                        "Zeros"
                    }
                    (ShornFill::Random, _) => {
                        for b in &mut buf[torn] {
                            *b = rng.gen_range(256) as u8;
                        }
                        "Random"
                    }
                    (ShornFill::Stale, Some(src)) => {
                        for at in torn.step_by(SECTOR_SIZE) {
                            let len = SECTOR_SIZE.min(end - at);
                            buf.copy_within(src..src + len, at);
                        }
                        "Stale"
                    }
                    (ShornFill::Stale, None) => {
                        // No earlier data: stale content of a fresh
                        // device region is zeros.
                        buf[torn].fill(0);
                        "zeros(no-stale-source)"
                    }
                };
                format!(
                    "shorn keep={}/8 torn=[{},{}) fill={}",
                    keep.sectors_kept(),
                    torn_start,
                    end,
                    fill_name
                )
            }
        }
    }
}

/// What a read-site fault application did to the buffer a read is
/// about to return (for injection records). The device state is never
/// touched by construction — read faults damage only the copy handed
/// back to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadMutation {
    /// The returned bytes were mutated in place; the reported length
    /// stays the device's.
    Corrupted {
        /// Description of the damage (bit position, torn range, ...).
        detail: String,
    },
    /// The transfer was dropped: the application keeps its stale
    /// pre-call buffer while full success is reported — DROPPED READ.
    Dropped {
        /// Description of the drop.
        detail: String,
    },
    /// Model could not apply (e.g. empty transfer); forward unchanged.
    NotApplicable,
}

impl FaultModel {
    /// Apply the model to the `n` bytes a read is returning, mutating
    /// `buf[..n]` in place (Figure 3a's instrumentation mirrored onto
    /// the return path: the mutation is what FFIS hands back to the
    /// application, while the device bytes stay pristine).
    ///
    /// * BIT FLIP — flip `bits` consecutive bits of the returned data.
    /// * SHORN READ — one 4 KiB block of the returned buffer arrives
    ///   torn at 512 B sector granularity (same tear geometry as the
    ///   write-site model, applied to the transfer instead of the
    ///   device).
    /// * DROPPED READ — the transfer is ignored; the caller applies
    ///   the stale-buffer semantics ([`ReadMutation::Dropped`]).
    pub fn apply_to_read(&self, buf: &mut [u8], n: usize, rng: &mut Rng) -> ReadMutation {
        if n == 0 {
            // A zero-length transfer (EOF probe) carries nothing any
            // model could damage — DROPPED READ included, so an armed
            // fault on such an instance counts as no-fire exactly like
            // the other models.
            return ReadMutation::NotApplicable;
        }
        if let FaultModel::DroppedWrite = self {
            return ReadMutation::Dropped { detail: "dropped read (stale buffer)".into() };
        }
        // BIT FLIP and SHORN READ share the exact buffer-damage
        // geometry of their write-site counterparts, applied to the
        // transfer where it lies.
        match self.plan_damage(n, rng) {
            Some(damage) => ReadMutation::Corrupted { detail: damage.apply(&mut buf[..n], rng) },
            None => ReadMutation::NotApplicable,
        }
    }
}

/// A complete fault signature: model + primitive + target scope
/// (paper §III-C: "the fault model, the file system primitive where
/// the fault would be injected ... and the choice of the feature").
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSignature {
    /// Which fault model.
    pub model: FaultModel,
    /// Which FUSE primitive hosts the fault.
    pub primitive: Primitive,
    /// Scope filter over target files (FFIS requires the requested
    /// files to reside in the FFISFS mount point; this narrows further
    /// to e.g. a single output file).
    pub target: TargetFilter,
}

impl FaultSignature {
    /// Signature for the paper's standard campaigns: the given model on
    /// `FFIS_write`, across all files.
    pub fn on_write(model: FaultModel) -> Self {
        FaultSignature { model, primitive: Primitive::Write, target: TargetFilter::Any }
    }

    /// Read-site signature: the given model on `FFIS_read`, across all
    /// files — the model damages the data *returned* to the
    /// application while the device bytes stay pristine.
    pub fn on_read(model: FaultModel) -> Self {
        FaultSignature { model, primitive: Primitive::Read, target: TargetFilter::Any }
    }

    /// Which side of the data path this signature injects into,
    /// derived from the hosting primitive.
    pub fn site(&self) -> InjectionSite {
        if self.primitive == Primitive::Read {
            InjectionSite::Read
        } else {
            InjectionSite::Write
        }
    }

    /// Site-aware short label for result tables ("BF"/"SW"/"DW" at the
    /// write site, "BF"/"SR"/"DR" at the read site).
    pub fn label(&self) -> &'static str {
        self.model.label_at(self.site())
    }

    /// Injectable primitives (buffer- or scalar-carrying, plus the
    /// read return path).
    pub fn primitive_is_injectable(p: Primitive) -> bool {
        matches!(
            p,
            Primitive::Write
                | Primitive::Read
                | Primitive::Mknod
                | Primitive::Chmod
                | Primitive::Truncate
        )
    }

    /// Validate the signature.
    pub fn validate(&self) -> Result<(), String> {
        if !Self::primitive_is_injectable(self.primitive) {
            return Err(format!("{} is not an injectable primitive", self.primitive));
        }
        // The buffer-carrying primitives (write and read) host all
        // three models; the scalar-parameter primitives host BIT FLIP
        // only.
        if !matches!(self.primitive, Primitive::Write | Primitive::Read)
            && !matches!(self.model, FaultModel::BitFlip { .. })
        {
            return Err(format!(
                "{} only hosts BIT FLIP faults (shorn/dropped models need a data buffer)",
                self.primitive
            ));
        }
        if let FaultModel::BitFlip { bits } = self.model {
            if bits == 0 {
                return Err("bit flip width must be >= 1".into());
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for FaultSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {} ({})", self.model.name_at(self.site()), self.primitive, self.target)
    }
}

/// Scope filter selecting which primitive invocations are eligible
/// injection sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetFilter {
    /// Every invocation of the primitive.
    Any,
    /// Invocations whose target path contains the substring.
    PathContains(String),
    /// Invocations whose target path ends with the suffix.
    PathSuffix(String),
}

impl TargetFilter {
    /// Does an invocation on `path` match?
    pub fn matches(&self, path: Option<&str>) -> bool {
        match self {
            TargetFilter::Any => true,
            TargetFilter::PathContains(s) => path.map(|p| p.contains(s.as_str())).unwrap_or(false),
            TargetFilter::PathSuffix(s) => path.map(|p| p.ends_with(s.as_str())).unwrap_or(false),
        }
    }
}

impl std::fmt::Display for TargetFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetFilter::Any => f.write_str("all files"),
            TargetFilter::PathContains(s) => write!(f, "paths containing '{}'", s),
            TargetFilter::PathSuffix(s) => write!(f, "paths ending in '{}'", s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(1234)
    }

    #[test]
    fn bitflip_flips_exactly_n_consecutive_bits() {
        let buf = vec![0u8; 64];
        for bits in [1u32, 2, 4, 8] {
            let mut r = rng();
            match (FaultModel::BitFlip { bits }).apply_to_buffer(&buf, &mut r) {
                Mutation::Replaced { buf: out, detail } => {
                    let flipped: u32 = out.iter().map(|b| b.count_ones()).sum();
                    assert_eq!(flipped, bits, "detail: {}", detail);
                    // Consecutiveness: collect flipped bit indices.
                    let mut idx = Vec::new();
                    for (i, b) in out.iter().enumerate() {
                        for k in 0..8 {
                            if b & (1 << k) != 0 {
                                idx.push(i * 8 + k);
                            }
                        }
                    }
                    for w in idx.windows(2) {
                        assert_eq!(w[1], w[0] + 1);
                    }
                }
                other => panic!("unexpected {:?}", other),
            }
        }
    }

    #[test]
    fn bitflip_positions_cover_buffer_uniformly() {
        let buf = vec![0u8; 16];
        let mut first_byte = 0;
        let mut last_byte = 0;
        for seed in 0..2000u64 {
            let mut r = Rng::seed_from(seed);
            if let Mutation::Replaced { buf: out, .. } =
                FaultModel::bit_flip().apply_to_buffer(&buf, &mut r)
            {
                if out[0] != 0 {
                    first_byte += 1;
                }
                if out[15] != 0 {
                    last_byte += 1;
                }
            }
        }
        assert!(first_byte > 50, "first byte hit {} times", first_byte);
        assert!(last_byte > 50, "last byte hit {} times", last_byte);
    }

    #[test]
    fn bitflip_empty_buffer_not_applicable() {
        let mut r = rng();
        assert_eq!(FaultModel::bit_flip().apply_to_buffer(&[], &mut r), Mutation::NotApplicable);
    }

    #[test]
    fn bitflip_single_byte_buffer() {
        let mut r = rng();
        match FaultModel::bit_flip().apply_to_buffer(&[0xAA], &mut r) {
            Mutation::Replaced { buf, .. } => {
                assert_eq!(buf.len(), 1);
                assert_eq!((buf[0] ^ 0xAA).count_ones(), 2);
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn shorn_write_full_block_keeps_prefix() {
        let buf: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        let mut r = rng();
        match FaultModel::shorn_write().apply_to_buffer(&buf, &mut r) {
            Mutation::Replaced { buf: out, detail } => {
                let kept = 7 * SECTOR_SIZE;
                assert_eq!(&out[..kept], &buf[..kept], "prefix persisted: {}", detail);
                assert_ne!(&out[kept..], &buf[kept..], "tail torn");
                // Stale fill: torn tail repeats the last kept sector.
                assert_eq!(&out[kept..kept + SECTOR_SIZE], &buf[kept - SECTOR_SIZE..kept]);
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn shorn_three_eighths_keeps_three_sectors() {
        let buf: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i / SECTOR_SIZE) as u8 + 1).collect();
        let mut r = rng();
        let model =
            FaultModel::ShornWrite { keep: ShornKeep::ThreeEighths, fill: ShornFill::Zeros };
        match model.apply_to_buffer(&buf, &mut r) {
            Mutation::Replaced { buf: out, .. } => {
                let kept = 3 * SECTOR_SIZE;
                assert_eq!(&out[..kept], &buf[..kept]);
                assert!(out[kept..].iter().all(|&b| b == 0));
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn shorn_random_fill_changes_tail() {
        let buf = vec![0x55u8; BLOCK_SIZE];
        let mut r = rng();
        let model =
            FaultModel::ShornWrite { keep: ShornKeep::SevenEighths, fill: ShornFill::Random };
        match model.apply_to_buffer(&buf, &mut r) {
            Mutation::Replaced { buf: out, .. } => {
                let tail = &out[7 * SECTOR_SIZE..];
                assert!(tail.iter().any(|&b| b != 0x55));
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn shorn_multi_block_tears_exactly_one_block() {
        let buf: Vec<u8> = (0..BLOCK_SIZE * 4).map(|i| (i % 239) as u8).collect();
        let mut torn_blocks_seen = std::collections::HashSet::new();
        for seed in 0..64 {
            let mut r = Rng::seed_from(seed);
            if let Mutation::Replaced { buf: out, .. } =
                FaultModel::shorn_write().apply_to_buffer(&buf, &mut r)
            {
                let mut torn = Vec::new();
                for blk in 0..4 {
                    let s = blk * BLOCK_SIZE;
                    if out[s..s + BLOCK_SIZE] != buf[s..s + BLOCK_SIZE] {
                        torn.push(blk);
                    }
                }
                assert_eq!(torn.len(), 1, "exactly one block torn");
                torn_blocks_seen.insert(torn[0]);
            }
        }
        assert_eq!(torn_blocks_seen.len(), 4, "all blocks eventually chosen");
    }

    #[test]
    fn shorn_small_buffer_tears_whole_write_with_zero_fallback() {
        // A 100-byte write has no sector-aligned prefix to keep; with
        // no earlier data, stale fill degrades to zeros.
        let buf = vec![9u8; 100];
        let mut r = rng();
        match FaultModel::shorn_write().apply_to_buffer(&buf, &mut r) {
            Mutation::Replaced { buf: out, detail } => {
                assert!(out.iter().all(|&b| b == 0), "detail {}", detail);
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn dropped_write_drops() {
        let mut r = rng();
        assert_eq!(
            FaultModel::dropped_write().apply_to_buffer(b"anything", &mut r),
            Mutation::Dropped
        );
    }

    #[test]
    fn scalar_bitflip_changes_value_within_width() {
        let mut r = rng();
        let (v, d) = FaultModel::bit_flip().apply_to_scalar(0o644, 12, &mut r).unwrap();
        assert_ne!(v, 0o644);
        assert!(v < (1 << 13), "stays within 12-bit neighbourhood: {} ({})", v, d);
        assert!(FaultModel::dropped_write().apply_to_scalar(1, 12, &mut r).is_none());
        assert!(FaultModel::shorn_write().apply_to_scalar(1, 12, &mut r).is_none());
    }

    #[test]
    fn signature_validation() {
        assert!(FaultSignature::on_write(FaultModel::bit_flip()).validate().is_ok());
        assert!(FaultSignature::on_write(FaultModel::shorn_write()).validate().is_ok());
        let bad_prim = FaultSignature {
            model: FaultModel::bit_flip(),
            primitive: Primitive::Open,
            target: TargetFilter::Any,
        };
        assert!(bad_prim.validate().is_err());
        let shorn_on_chmod = FaultSignature {
            model: FaultModel::shorn_write(),
            primitive: Primitive::Chmod,
            target: TargetFilter::Any,
        };
        assert!(shorn_on_chmod.validate().is_err());
        let zero_bits = FaultSignature::on_write(FaultModel::BitFlip { bits: 0 });
        assert!(zero_bits.validate().is_err());
    }

    #[test]
    fn target_filter_matching() {
        assert!(TargetFilter::Any.matches(Some("/x")));
        assert!(TargetFilter::Any.matches(None));
        let c = TargetFilter::PathContains("plt".into());
        assert!(c.matches(Some("/out/plt00000.h5")));
        assert!(!c.matches(Some("/out/run.log")));
        assert!(!c.matches(None));
        let s = TargetFilter::PathSuffix(".h5".into());
        assert!(s.matches(Some("/a/b.h5")));
        assert!(!s.matches(Some("/a/b.h5.tmp")));
    }

    #[test]
    fn labels_and_names() {
        assert_eq!(FaultModel::bit_flip().label(), "BF");
        assert_eq!(FaultModel::shorn_write().label(), "SW");
        assert_eq!(FaultModel::dropped_write().label(), "DW");
        assert_eq!(FaultModel::bit_flip().name(), "BIT FLIP");
        assert!(FaultModel::bit_flip().feature_description().contains("2 bits"));
        assert!(FaultModel::shorn_write().feature_description().contains("7/8th"));
    }

    #[test]
    fn site_aware_labels_and_names() {
        use InjectionSite::{Read, Write};
        // Write-site vocabulary is untouched by the site refactor.
        assert_eq!(FaultModel::shorn_write().label_at(Write), "SW");
        assert_eq!(FaultModel::dropped_write().label_at(Write), "DW");
        assert_eq!(FaultModel::shorn_write().name_at(Write), "SHORN WRITE");
        // Read-site vocabulary: SR / DR, BIT FLIP stays BF.
        assert_eq!(FaultModel::bit_flip().label_at(Read), "BF");
        assert_eq!(FaultModel::shorn_write().label_at(Read), "SR");
        assert_eq!(FaultModel::dropped_write().label_at(Read), "DR");
        assert_eq!(FaultModel::shorn_write().name_at(Read), "SHORN READ");
        assert_eq!(FaultModel::dropped_write().name_at(Read), "DROPPED READ");
        let feat = FaultModel::shorn_write().feature_description_at(Read);
        assert!(feat.contains("pristine"), "{}", feat);
        assert!(FaultModel::dropped_write().feature_description_at(Read).contains("stale"));
        assert_eq!(InjectionSite::Read.to_string(), "read");
        assert_eq!(InjectionSite::Write.to_string(), "write");
    }

    #[test]
    fn read_signatures_validate_and_display_site_vocabulary() {
        for model in
            [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()]
        {
            let sig = FaultSignature::on_read(model);
            assert!(sig.validate().is_ok(), "{:?}", model);
            assert_eq!(sig.site(), InjectionSite::Read);
        }
        assert_eq!(
            FaultSignature::on_write(FaultModel::shorn_write()).site(),
            InjectionSite::Write
        );
        assert_eq!(FaultSignature::on_read(FaultModel::shorn_write()).label(), "SR");
        assert_eq!(FaultSignature::on_write(FaultModel::shorn_write()).label(), "SW");
        let display = FaultSignature::on_read(FaultModel::dropped_write()).to_string();
        assert!(display.contains("DROPPED READ on FFIS_read"), "{}", display);
        let display = FaultSignature::on_write(FaultModel::dropped_write()).to_string();
        assert!(display.contains("DROPPED WRITE on FFIS_write"), "{}", display);
    }

    #[test]
    fn read_bitflip_flips_exactly_n_bits_within_transfer() {
        let mut buf = vec![0u8; 64];
        let mut r = rng();
        match FaultModel::bit_flip().apply_to_read(&mut buf, 32, &mut r) {
            ReadMutation::Corrupted { detail } => {
                let flipped: u32 = buf.iter().map(|b| b.count_ones()).sum();
                assert_eq!(flipped, 2, "{}", detail);
                assert!(buf[32..].iter().all(|&b| b == 0), "damage confined to the transfer");
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn shorn_read_tears_returned_block_sector_aligned() {
        let mut buf: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        let original = buf.clone();
        let mut r = rng();
        let model =
            FaultModel::ShornWrite { keep: ShornKeep::SevenEighths, fill: ShornFill::Zeros };
        match model.apply_to_read(&mut buf, BLOCK_SIZE, &mut r) {
            ReadMutation::Corrupted { .. } => {
                let kept = 7 * SECTOR_SIZE;
                assert_eq!(&buf[..kept], &original[..kept]);
                assert!(buf[kept..].iter().all(|&b| b == 0));
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn dropped_read_reports_drop_and_empty_transfer_not_applicable() {
        let mut buf = vec![7u8; 16];
        let mut r = rng();
        match FaultModel::dropped_write().apply_to_read(&mut buf, 16, &mut r) {
            ReadMutation::Dropped { detail } => assert!(detail.contains("stale")),
            other => panic!("unexpected {:?}", other),
        }
        // The model itself never touches the buffer — the mount's
        // stale-restore applies the drop.
        assert!(buf.iter().all(|&b| b == 7));
        // Zero-length transfers are NotApplicable for every model,
        // DROPPED READ included (no-fire, same as the other models).
        for model in
            [FaultModel::bit_flip(), FaultModel::shorn_write(), FaultModel::dropped_write()]
        {
            assert_eq!(
                model.apply_to_read(&mut buf, 0, &mut r),
                ReadMutation::NotApplicable,
                "{:?}",
                model
            );
        }
    }
}
