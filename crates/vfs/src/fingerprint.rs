//! The workspace's one **content fingerprint**: 64 bits that stand for
//! a payload wherever two payloads are only ever compared for
//! equality — what a ledgered read returned ([`crate::ReadRecord`]),
//! and through it the golden read-stream laws and the memo keys of
//! `ffis_core`; a write op's `data` inside a checkpoint-store key.
//!
//! It is not an identity digest. [`crate::Fnv`] keeps that job (run
//! digests, plan and demand fingerprints: values that are pinned in
//! tests and echoed in journals). This function's value is private to
//! a process and to the memo entries keyed on it, so it may change
//! with a bump of the memo key namespace — and it is built for
//! throughput: FNV-1a chains one multiply per *byte*; this chains one
//! per 32 bytes in each of four independent lanes.

/// The fingerprint of no bytes: what [`content_fingerprint`] returns
/// for the empty slice, and so what a [`crate::ReadRecord`] carries
/// when its read failed or returned nothing.
pub const EMPTY_FINGERPRINT: u64 = 0x889C_90A6_8CCE_6156;

const LANE_SEEDS: [u64; 4] =
    [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];
const MUL_WORD: u64 = 0xC2B2_AE3D_27D4_EB4F;
const MUL_LANE: u64 = 0x9E37_79B1_85EB_CA87;
const MUL_FINAL: u64 = 0x1656_67B1_9E37_79F9;

/// Fold one 32-byte block into the lanes, 8 little-endian bytes each.
/// A lane step is a bijection of the lane's state for a fixed word and
/// of the word for a fixed state (odd multiplies, a wrapping add, a
/// rotation), so two inputs that differ in a single word leave that
/// lane — and nothing else — different, however much input follows.
fn absorb(lanes: &mut [u64; 4], block: &[u8; 32]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        *lane =
            lane.wrapping_add(word.wrapping_mul(MUL_WORD)).rotate_left(31).wrapping_mul(MUL_LANE);
    }
}

/// 64-bit fingerprint of `bytes`.
///
/// Two slices that differ only inside one aligned 8-byte word — every
/// BIT FLIP — fingerprint differently *with certainty*, the guarantee
/// byte-wise FNV-1a gave: the lanes are combined by a sum of rotations
/// (a bijection of each lane for fixed others), then the length is
/// folded in and the result avalanched, all bijections. Wider
/// differences (a SHORN or DROPPED sector, an appended byte) collide
/// with the usual 2⁻⁶⁴.
///
/// The trailing partial block is zero-padded; the length tells a
/// padded zero from a real one.
pub fn content_fingerprint(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block.try_into().expect("chunks_exact(32)"));
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 32];
        last[..rest.len()].copy_from_slice(rest);
        absorb(&mut lanes, &last);
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    h ^= bytes.len() as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(MUL_WORD);
    h ^= h >> 29;
    h = h.wrapping_mul(MUL_FINAL);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic filler with no period a 32-byte block could
    /// share: byte `i` of a SplitMix64 stream.
    fn filler(len: usize) -> Vec<u8> {
        let mut state = 0x5EED_u64;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// These vectors *are* the function (computed by an independent
    /// implementation, not copied from this one's output): a change to
    /// any of them orphans every memo entry on disk and needs the key
    /// namespace (`ffis-memo-vN`) bumped with it.
    #[test]
    fn known_answers_freeze_the_function() {
        let data = filler(4096);
        let expected: [(usize, u64); 8] = [
            (0, EMPTY_FINGERPRINT),
            (1, 0x6586_1603_6F80_3D0E),
            (7, 0xDBBC_0E77_576F_2B1A),
            (8, 0x857F_928F_265A_B455),
            (63, 0x6FA5_A771_C398_FDE1),
            (64, 0x4CB8_9457_89E4_31F6),
            (65, 0x2DB4_FF25_AEF1_BB1F),
            (4096, 0x9FCF_FDE0_3C06_8660),
        ];
        for (len, want) in expected {
            let got = content_fingerprint(&data[..len]);
            assert_eq!(got, want, "len {len}: got {got:#018X}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_fingerprint() {
        // 4,109 = 128 whole blocks + a 13-byte tail: flips land in
        // every lane, in whole words and in the padded one.
        let mut data = filler(4109);
        let clean = content_fingerprint(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(content_fingerprint(&data), clean, "byte {byte} bit {bit}");
                data[byte] ^= 1 << bit;
            }
        }
        assert_eq!(content_fingerprint(&data), clean);
    }

    #[test]
    fn an_appended_zero_byte_changes_the_fingerprint() {
        for base in [filler(72), vec![0u8; 72]] {
            for len in 0..=72 {
                let mut longer = base[..len].to_vec();
                longer.push(0);
                assert_ne!(
                    content_fingerprint(&base[..len]),
                    content_fingerprint(&longer),
                    "len {len}"
                );
            }
        }
    }

    /// The SHORN / DROPPED shapes: a sector that reads back as zeros,
    /// or as the sector before it (stale data).
    #[test]
    fn a_zeroed_or_replaced_sector_changes_the_fingerprint() {
        const SECTOR: usize = 512;
        let data = filler(64 * 1024);
        let clean = content_fingerprint(&data);
        for s in 0..data.len() / SECTOR {
            let at = s * SECTOR;
            let mut zeroed = data.clone();
            zeroed[at..at + SECTOR].fill(0);
            assert_ne!(content_fingerprint(&zeroed), clean, "sector {s} zeroed");

            let from = if s == 0 { data.len() - SECTOR } else { at - SECTOR };
            let mut stale = data.clone();
            stale.copy_within(from..from + SECTOR, at);
            assert_ne!(content_fingerprint(&stale), clean, "sector {s} replaced");
        }
    }
}
