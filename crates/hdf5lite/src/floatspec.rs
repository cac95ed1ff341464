//! Floating-point datatype properties and the generic codec.
//!
//! The HDF5 datatype message for class-1 (floating point) types stores
//! a complete *description* of the bit layout (Figure 1 of the paper,
//! bottom panel): bit offset, bit precision, sign location, exponent
//! location/size, mantissa location/size, exponent bias, and the
//! mantissa-normalization policy. The library decodes stored values
//! *through* these fields — which is exactly why the paper finds that
//! silent corruption of:
//!
//! * **Exponent Bias** scales every value by a power of two (Fig. 5b),
//! * **Mantissa Normalization** (losing the implied leading 1) roughly
//!   halves every value (Table IV: average 1 → 0.55),
//! * **Exponent/Mantissa Location/Size** garble the decode (averages
//!   drifting into [1.04, 1.55]),
//!
//! while **Bit Offset**/**Bit Precision** mostly do not participate in
//! the arithmetic and stay benign. This module is that decode path.

use crate::types::{Hdf5Error, Hdf5Result};

/// Mantissa normalization policy (datatype class bit-field bits 4–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalization {
    /// No normalization: value = mantissa · 2^(exp − bias).
    None,
    /// MSB of the mantissa is always set (stored).
    MsbSet,
    /// MSB is implied (not stored) and set — the IEEE 754 convention:
    /// value = (1 + mantissa/2^msize) · 2^(exp − bias).
    Implied,
}

impl Normalization {
    /// Wire encoding (bits 4–5 of class bit field byte 0).
    pub fn bits(self) -> u8 {
        match self {
            Normalization::None => 0,
            Normalization::MsbSet => 1,
            Normalization::Implied => 2,
        }
    }

    /// Decode bits 4–5. Value 3 is reserved; per the HDF5 library we
    /// treat unknown policies as `None` rather than failing (this is
    /// what lets a bit-5 flip silently change the decode — Table IV's
    /// "Bit-5 of Mantissa Normalization" SDC).
    pub fn from_bits(b: u8) -> Normalization {
        match b & 0b11 {
            1 => Normalization::MsbSet,
            2 => Normalization::Implied,
            _ => Normalization::None,
        }
    }
}

/// Complete floating-point datatype property set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloatSpec {
    /// Element size in bytes (datatype message Size field).
    pub size: u32,
    /// Bit offset of the first significant bit.
    pub bit_offset: u16,
    /// Number of significant bits.
    pub bit_precision: u16,
    /// Bit position of the sign bit.
    pub sign_location: u8,
    /// Bit position of the exponent field.
    pub exponent_location: u8,
    /// Exponent width in bits.
    pub exponent_size: u8,
    /// Bit position of the mantissa field.
    pub mantissa_location: u8,
    /// Mantissa width in bits.
    pub mantissa_size: u8,
    /// Exponent bias.
    pub exponent_bias: u32,
    /// Mantissa normalization policy.
    pub normalization: Normalization,
}

impl FloatSpec {
    /// IEEE 754 single precision (HDF5 `H5T_IEEE_F32LE`).
    pub fn ieee_f32() -> Self {
        FloatSpec {
            size: 4,
            bit_offset: 0,
            bit_precision: 32,
            sign_location: 31,
            exponent_location: 23,
            exponent_size: 8,
            mantissa_location: 0,
            mantissa_size: 23,
            exponent_bias: 127,
            normalization: Normalization::Implied,
        }
    }

    /// IEEE 754 double precision (HDF5 `H5T_IEEE_F64LE`).
    pub fn ieee_f64() -> Self {
        FloatSpec {
            size: 8,
            bit_offset: 0,
            bit_precision: 64,
            sign_location: 63,
            exponent_location: 52,
            exponent_size: 11,
            mantissa_location: 0,
            mantissa_size: 52,
            exponent_bias: 1023,
            normalization: Normalization::Implied,
        }
    }

    /// Structural sanity only — mirrors the (loose) validation the
    /// HDF5 library applies. Deliberately does *not* enforce the
    /// cross-field constraints (`exponent_location == mantissa_size`,
    /// `mantissa_size + exponent_size == precision − 1`): the library
    /// accepts such specs silently, which is what creates the SDC
    /// exposure; [`crate::repair`] enforces them on demand.
    pub fn validate(&self) -> Hdf5Result<()> {
        if self.size == 0 || self.size > 8 {
            return Err(Hdf5Error::new(format!("unsupported float size {}", self.size)));
        }
        if self.exponent_size == 0 {
            return Err(Hdf5Error::new("zero-width exponent"));
        }
        Ok(())
    }

    /// Decode one element from its raw little-endian bytes.
    ///
    /// The decode is deliberately tolerant: out-of-range locations are
    /// masked into the available bits rather than rejected, because
    /// the HDF5 general float-conversion path computes with whatever
    /// field values the message carries. Unrepresentable magnitudes
    /// saturate to ±∞ (which downstream analyses then observe).
    pub fn decode(&self, bytes: &[u8]) -> Hdf5Result<f64> {
        let size = self.size as usize;
        if bytes.len() < size {
            return Err(Hdf5Error::new("element extends past end of raw data"));
        }
        let mut raw: u64 = 0;
        for (i, &b) in bytes[..size].iter().enumerate() {
            raw |= (b as u64) << (8 * i);
        }
        let total_bits = (size * 8) as u32;
        // Bit offset shifts the significant window.
        let bits = raw >> (self.bit_offset as u32 % total_bits.max(1)).min(63);

        let sign = (bits >> (self.sign_location as u32 % 64)) & 1;
        let exp_size = u32::from(self.exponent_size).min(63);
        let exp_mask = (1u64 << exp_size) - 1;
        let exponent = (bits >> (self.exponent_location as u32 % 64)) & exp_mask;
        let mant_size = u32::from(self.mantissa_size).min(63);
        let mant_mask = if mant_size == 0 { 0 } else { (1u64 << mant_size) - 1 };
        let mantissa = (bits >> (self.mantissa_location as u32 % 64)) & mant_mask;

        // Zero (and IEEE subnormals, which our workloads never write).
        if exponent == 0 && mantissa == 0 {
            return Ok(if sign == 1 { -0.0 } else { 0.0 });
        }
        // All-ones exponent: infinity / NaN in IEEE-like layouts.
        if self.normalization == Normalization::Implied && exponent == exp_mask {
            return Ok(if mantissa == 0 {
                if sign == 1 {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            } else {
                f64::NAN
            });
        }

        let frac = if mant_size == 0 { 0.0 } else { mantissa as f64 / (1u64 << mant_size) as f64 };
        let m = match self.normalization {
            Normalization::Implied => 1.0 + frac,
            Normalization::MsbSet | Normalization::None => frac,
        };
        let e = exponent as i64 - self.exponent_bias as i64;
        let value = m * pow2(e);
        Ok(if sign == 1 { -value } else { value })
    }

    /// Encode an `f64` value into `size` little-endian bytes per this
    /// spec. Values outside the representable range saturate.
    pub fn encode(&self, value: f64) -> Hdf5Result<Vec<u8>> {
        self.validate()?;
        let size = self.size as usize;
        let exp_size = u32::from(self.exponent_size).min(63);
        let mant_size = u32::from(self.mantissa_size).min(63);
        let exp_max = (1u64 << exp_size) - 1;

        let sign = if value.is_sign_negative() { 1u64 } else { 0 };
        let mag = value.abs();

        let (exponent, mantissa) = if mag == 0.0 || !mag.is_finite() && mag.is_nan() {
            (0u64, 0u64)
        } else if mag.is_infinite() {
            (exp_max, 0)
        } else {
            // mag = m * 2^e with m in [1, 2).
            let e = mag.log2().floor() as i64;
            let biased = e + self.exponent_bias as i64;
            if biased <= 0 {
                (0, 0) // underflow to zero
            } else if biased as u64 >= exp_max {
                (exp_max, 0) // overflow to infinity
            } else {
                let m = mag / pow2(e); // in [1, 2)
                let frac = match self.normalization {
                    Normalization::Implied => m - 1.0,
                    Normalization::MsbSet | Normalization::None => m / 2.0,
                };
                let mant = (frac * (1u64 << mant_size) as f64).round() as u64;
                let mant = mant.min((1u64 << mant_size) - 1);
                (biased as u64, mant)
            }
        };

        let mut bits: u64 = 0;
        bits |= sign << (self.sign_location as u32 % 64);
        bits |= exponent << (self.exponent_location as u32 % 64);
        bits |= mantissa << (self.mantissa_location as u32 % 64);
        bits <<= self.bit_offset as u32 % 64;

        let mut out = vec![0u8; size];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = ((bits >> (8 * i)) & 0xFF) as u8;
        }
        Ok(out)
    }

    /// Decode a whole raw buffer into `f64`s.
    ///
    /// Pristine IEEE layouts take a hardware-conversion fast path
    /// (bit-identical to the generic field-by-field decode for every
    /// normal value, zero, and negative zero); any spec a metadata
    /// fault has perturbed — and the rare subnormal/non-finite
    /// encodings — go through the general decode, preserving the
    /// paper's corruption semantics exactly. This is the hottest loop
    /// of every campaign verify phase.
    pub fn decode_all(&self, raw: &[u8], count: usize) -> Hdf5Result<Vec<f64>> {
        let size = self.size as usize;
        if size == 0 || size > 8 {
            return Err(Hdf5Error::new(format!("unsupported float size {}", self.size)));
        }
        let need = count.checked_mul(size).ok_or_else(|| {
            Hdf5Error::new(format!("{} elements of {} bytes overflow an address", count, size))
        })?;
        if raw.len() < need {
            return Err(Hdf5Error::new(format!(
                "raw data too small: need {} bytes, have {}",
                need,
                raw.len()
            )));
        }
        if *self == Self::ieee_f32() {
            let convert = |b| f64::from(f32::from_le_bytes(b));
            return self.decode_ieee(&raw[..need], convert, is_special_f32);
        }
        if *self == Self::ieee_f64() {
            // Neither zero nor normal: a subnormal, an infinity or a NaN.
            let special = |b| !f64::from_le_bytes(b).is_normal() & (f64::from_le_bytes(b) != 0.0);
            return self.decode_ieee(&raw[..need], f64::from_le_bytes, special);
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(self.decode(&raw[i * size..(i + 1) * size])?);
        }
        Ok(out)
    }

    /// The IEEE fast path over `N`-byte elements: one branch-free pass
    /// converts every element in hardware and, on the bytes it already
    /// holds, ORs `special` (the subnormal and non-finite bit patterns,
    /// which the hardware and the general decode read differently);
    /// only when that saw one does a fix-up pass route exactly those
    /// elements through [`FloatSpec::decode`].
    fn decode_ieee<const N: usize>(
        &self,
        raw: &[u8],
        convert: impl Fn([u8; N]) -> f64,
        special: impl Fn([u8; N]) -> bool,
    ) -> Hdf5Result<Vec<f64>> {
        let (elements, _) = raw.as_chunks::<N>();
        let mut any_special = false;
        let mut out: Vec<f64> = elements
            .iter()
            .map(|&e| {
                any_special |= special(e);
                convert(e)
            })
            .collect();
        if any_special {
            for (slot, e) in out.iter_mut().zip(elements) {
                if special(*e) {
                    *slot = self.decode(e)?;
                }
            }
        }
        Ok(out)
    }
}

/// Is this IEEE single-precision cell one the hardware conversion and
/// [`FloatSpec::decode`] read differently — a subnormal, an infinity or
/// a NaN (an all-zero or all-ones exponent that is not ±0)? A pure bit
/// test with no branch, so a scan over a whole dataset vectorizes.
pub(crate) fn is_special_f32(cell: [u8; 4]) -> bool {
    let bits = u32::from_le_bytes(cell);
    let exponent = bits & 0x7F80_0000;
    (exponent == 0x7F80_0000) | ((exponent == 0) & (bits << 1 != 0))
}

/// 2^e as f64, saturating to ∞ above 2^1023 and to 0 below 2^-1074,
/// built from its bits: a normal power sets the biased exponent, a
/// subnormal one a single mantissa bit. (`f64::powi` is not this: at
/// run time it returns 0 for every e ≤ −1024.)
fn pow2(e: i64) -> f64 {
    if e > 1023 {
        f64::INFINITY
    } else if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e >= -1074 {
        f64::from_bits(1 << (e + 1074))
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ieee_f32_decode_matches_native() {
        let spec = FloatSpec::ieee_f32();
        for v in [
            0.0f32,
            1.0,
            -1.0,
            0.5,
            2.0,
            std::f32::consts::PI,
            -123.456,
            1e-10,
            1e10,
            81.66,
            0.9983,
        ] {
            let bytes = v.to_le_bytes();
            let got = spec.decode(&bytes).unwrap();
            assert!((got - v as f64).abs() <= (v as f64).abs() * 1e-6, "{} decoded as {}", v, got);
        }
    }

    #[test]
    fn ieee_f32_special_values() {
        let spec = FloatSpec::ieee_f32();
        assert_eq!(spec.decode(&f32::INFINITY.to_le_bytes()).unwrap(), f64::INFINITY);
        assert_eq!(spec.decode(&f32::NEG_INFINITY.to_le_bytes()).unwrap(), f64::NEG_INFINITY);
        assert!(spec.decode(&f32::NAN.to_le_bytes()).unwrap().is_nan());
        assert_eq!(spec.decode(&(-0.0f32).to_le_bytes()).unwrap(), 0.0);
        assert!(spec.decode(&(-0.0f32).to_le_bytes()).unwrap().is_sign_negative());
    }

    #[test]
    fn ieee_f64_decode_matches_native() {
        let spec = FloatSpec::ieee_f64();
        for v in [0.0f64, 1.0, -2.90372, 82.825, 1e-300, 1e300] {
            let got = spec.decode(&v.to_le_bytes()).unwrap();
            assert!((got - v).abs() <= v.abs() * 1e-12, "{} -> {}", v, got);
        }
    }

    #[test]
    fn encode_decode_roundtrip_f32() {
        let spec = FloatSpec::ieee_f32();
        for v in [1.0f64, 0.25, -7.5, 81.66, 1234.5678, 1e-5] {
            let bytes = spec.encode(v).unwrap();
            let native = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            assert!(((native as f64) - v).abs() <= v.abs() * 1e-6, "{} encoded as {}", v, native);
            let back = spec.decode(&bytes).unwrap();
            assert!((back - v).abs() <= v.abs() * 1e-6);
        }
    }

    #[test]
    fn corrupted_exponent_bias_scales_by_power_of_two() {
        // The paper's §V-A example: bias 0x7F -> 0x73 scales data by 2^12.
        let mut spec = FloatSpec::ieee_f32();
        let bytes = 1.5f32.to_le_bytes();
        assert_eq!(spec.decode(&bytes).unwrap(), 1.5);
        spec.exponent_bias = 0x73;
        assert_eq!(spec.decode(&bytes).unwrap(), 1.5 * 4096.0);
        spec.exponent_bias = 0x7F + 3;
        assert_eq!(spec.decode(&bytes).unwrap(), 1.5 / 8.0);
    }

    #[test]
    fn lost_implied_bit_roughly_halves_values() {
        // Table IV: Mantissa Normalization bit-5 flip, average 1 -> 0.55.
        let spec_ok = FloatSpec::ieee_f32();
        let mut spec_bad = spec_ok;
        spec_bad.normalization = Normalization::None;
        let xs = [1.0f32, 1.3, 1.9, 1.1, 1.6];
        let mean_ok: f64 =
            xs.iter().map(|v| spec_ok.decode(&v.to_le_bytes()).unwrap()).sum::<f64>() / 5.0;
        let mean_bad: f64 =
            xs.iter().map(|v| spec_bad.decode(&v.to_le_bytes()).unwrap()).sum::<f64>() / 5.0;
        assert!((mean_ok - 1.38).abs() < 0.01);
        // Dropping the implied 1 keeps only the fractional part.
        assert!((mean_bad - 0.38).abs() < 0.01, "mean_bad = {}", mean_bad);
    }

    #[test]
    fn corrupted_mantissa_size_changes_decode() {
        let mut spec = FloatSpec::ieee_f32();
        spec.mantissa_size = 19; // flipped bit in the size byte
        let v = 1.75f32;
        let got = spec.decode(&v.to_le_bytes()).unwrap();
        assert_ne!(got, 1.75);
        assert!(got.is_finite());
    }

    #[test]
    fn normalization_bits_roundtrip() {
        for n in [Normalization::None, Normalization::MsbSet, Normalization::Implied] {
            assert_eq!(Normalization::from_bits(n.bits()), n);
        }
        // Reserved value 3 degrades to None (silently — SDC exposure).
        assert_eq!(Normalization::from_bits(3), Normalization::None);
    }

    #[test]
    fn decode_all_bulk() {
        let spec = FloatSpec::ieee_f32();
        let mut raw = Vec::new();
        for v in [1.0f32, 2.0, 3.0] {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let vals = spec.decode_all(&raw, 3).unwrap();
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        assert!(spec.decode_all(&raw, 4).is_err());
    }

    /// A count whose byte length wraps `usize` is an error on every
    /// path: the IEEE fast paths used to return `Ok` with no values and
    /// the generic path to abort in `Vec::with_capacity`.
    #[test]
    fn decode_all_rejects_a_count_that_overflows() {
        let raw = [0x3Fu8; 8];
        let mut perturbed = FloatSpec::ieee_f32();
        perturbed.exponent_bias = 0x73;
        for spec in [FloatSpec::ieee_f32(), perturbed] {
            assert!(spec.decode_all(&raw, usize::MAX / 4 + 1).is_err());
            assert!(spec.decode_all(&raw, usize::MAX).is_err());
        }
        assert!(FloatSpec::ieee_f64().decode_all(&raw, usize::MAX / 8 + 1).is_err());
    }

    /// `decode_all` must return, bit for bit, what `decode` returns
    /// element by element.
    fn assert_bulk_equals_per_element(spec: &FloatSpec, raw: &[u8]) {
        let size = spec.size as usize;
        let count = raw.len() / size;
        let bulk = spec.decode_all(raw, count).unwrap();
        assert_eq!(bulk.len(), count);
        for (i, (b, chunk)) in bulk.iter().zip(raw.chunks_exact(size)).enumerate() {
            let one = spec.decode(chunk).unwrap();
            assert_eq!(
                b.to_bits(),
                one.to_bits(),
                "size {size} element {i} ({chunk:02x?}): bulk {b} != per-element {one}"
            );
        }
    }

    /// Over `normals` (no special element), `decode_ieee` asks `special`
    /// once per element: the detect rides the convert pass and no
    /// fix-up pass runs. With one of `specials` at the first, a middle
    /// or the last element it asks twice — one fix-up pass — and bulk
    /// equals per-element throughout.
    fn assert_one_special_costs_one_fixup<const N: usize>(
        spec: &FloatSpec,
        mut raw: Vec<u8>,
        specials: &[[u8; N]],
        convert: impl Fn([u8; N]) -> f64,
        special: impl Fn([u8; N]) -> bool,
    ) {
        let count = raw.len() / N;
        let asked = std::cell::Cell::new(0usize);
        let counted = |b| {
            asked.set(asked.get() + 1);
            special(b)
        };
        assert_bulk_equals_per_element(spec, &raw);
        spec.decode_ieee(&raw, &convert, counted).unwrap();
        assert_eq!(asked.replace(0), count, "no special element, no fix-up pass");
        for at in [0, count / 2, count - 1] {
            for special in specials {
                let normal: [u8; N] = raw[at * N..][..N].try_into().unwrap();
                raw[at * N..][..N].copy_from_slice(special);
                assert_bulk_equals_per_element(spec, &raw);
                spec.decode_ieee(&raw, &convert, counted).unwrap();
                assert_eq!(asked.replace(0), 2 * count, "one special at {at}, one fix-up pass");
                raw[at * N..][..N].copy_from_slice(&normal);
            }
        }
    }

    #[test]
    fn decode_all_fast_path_matches_generic_decode() {
        // Every exponent x sampled mantissas x both signs: the zeros,
        // every subnormal and non-finite class the fix-up pass routes
        // through the generic decode (NaN payloads included), and all
        // the normals the hardware converts.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut f32s: Vec<u32> = Vec::new();
        for exp in 0..=0xFFu32 {
            let random = [next() as u32 & 0x007F_FFFF, next() as u32 & 0x007F_FFFF];
            for mant in [0, 1, 0x0040_0000, 0x007F_FFFF].into_iter().chain(random) {
                for sign in [0, 1u32 << 31] {
                    f32s.push(sign | (exp << 23) | mant);
                }
            }
        }
        let mut f64s: Vec<u64> = Vec::new();
        for exp in 0..=0x7FFu64 {
            let random = [next() & 0x000F_FFFF_FFFF_FFFF, next() & 0x000F_FFFF_FFFF_FFFF];
            for mant in [0, 1, 1 << 51, 0x000F_FFFF_FFFF_FFFF].into_iter().chain(random) {
                for sign in [0, 1u64 << 63] {
                    f64s.push(sign | (exp << 52) | mant);
                }
            }
        }
        let raw32: Vec<u8> = f32s.iter().flat_map(|b| b.to_le_bytes()).collect();
        let raw64: Vec<u8> = f64s.iter().flat_map(|b| b.to_le_bytes()).collect();
        assert_bulk_equals_per_element(&FloatSpec::ieee_f32(), &raw32);
        assert_bulk_equals_per_element(&FloatSpec::ieee_f64(), &raw64);

        // Normals and zeros only: the detect pass sees nothing and no
        // fix-up runs. Then one special element at either end.
        let normal32: Vec<u8> = f32s
            .iter()
            .filter(|&&b| f32::from_bits(b).is_normal() || b << 1 == 0)
            .flat_map(|b| b.to_le_bytes())
            .collect();
        assert_bulk_equals_per_element(&FloatSpec::ieee_f32(), &normal32);
        for special in [1u32, 0x7F80_0000, 0xFF80_0000, 0x7FC0_0001, 0xFFFF_FFFF] {
            let mut raw = normal32.clone();
            raw[..4].copy_from_slice(&special.to_le_bytes());
            assert_bulk_equals_per_element(&FloatSpec::ieee_f32(), &raw);
            let mut raw = normal32.clone();
            let end = raw.len();
            raw[end - 4..].copy_from_slice(&special.to_le_bytes());
            assert_bulk_equals_per_element(&FloatSpec::ieee_f32(), &raw);
        }

        // A dataset-sized buffer of normals, then exactly one special
        // in it at a time.
        const LONG: usize = (1 << 16) + 3;
        let long32: Vec<u8> = (0..LONG)
            .map(|_| (next() as u32 & 0x807F_FFFF) | ((1 + next() as u32 % 0xFE) << 23))
            .flat_map(u32::to_le_bytes)
            .collect();
        let long64: Vec<u8> = (0..LONG)
            .map(|_| (next() & 0x800F_FFFF_FFFF_FFFF) | ((1 + next() % 0x7FE) << 52))
            .flat_map(u64::to_le_bytes)
            .collect();
        assert_one_special_costs_one_fixup(
            &FloatSpec::ieee_f32(),
            long32,
            &[1u32, 0x807F_FFFF, 0x7F80_0000, 0xFF80_0000, 0x7FC0_0001, 0xFFBF_FFFF]
                .map(u32::to_le_bytes),
            |b| f32::from_le_bytes(b) as f64,
            is_special_f32,
        );
        assert_one_special_costs_one_fixup(
            &FloatSpec::ieee_f64(),
            long64,
            &[
                1u64,
                0x800F_FFFF_FFFF_FFFF,
                0x7FF0_0000_0000_0000,
                0xFFF0_0000_0000_0000,
                0x7FF8_0000_0000_0001,
                0xFFF7_FFFF_FFFF_FFFF,
            ]
            .map(u64::to_le_bytes),
            f64::from_le_bytes,
            |b| !f64::from_le_bytes(b).is_normal() & (f64::from_le_bytes(b) != 0.0),
        );

        // A perturbed (non-IEEE) spec never enters the fast path: the
        // same bytes still decode element by element.
        let mut bias = FloatSpec::ieee_f32();
        bias.exponent_bias = 0x73;
        assert_bulk_equals_per_element(&bias, &raw32);
        let mut norm = FloatSpec::ieee_f64();
        norm.normalization = Normalization::None;
        assert_bulk_equals_per_element(&norm, &raw64);
    }

    /// The bit test is `!is_normal() && != 0.0` over a sweep of every
    /// 251st f32 pattern (every exponent) and both signs of each.
    #[test]
    fn the_special_bit_test_is_neither_zero_nor_normal() {
        for bits in (0..=u32::MAX).step_by(251).chain([0, 1, 0x007F_FFFF, 0x0080_0000, u32::MAX]) {
            for bits in [bits, bits ^ 0x8000_0000] {
                let v = f32::from_bits(bits);
                assert_eq!(
                    is_special_f32(bits.to_le_bytes()),
                    !v.is_normal() && v != 0.0,
                    "{bits:#010x}"
                );
            }
        }
    }

    /// `pow2` is 2^e from −1100 to 1100, against repeated doubling and
    /// halving from 1 — exact down to 2^-1074 and up to 2^1023, then 0
    /// and ∞. A run-time `powi` returned 0 from 2^-1024 down.
    #[test]
    fn pow2_is_exact_through_the_subnormals() {
        let mut up = 1.0f64;
        let mut down = 1.0f64;
        for e in 0..=1100i64 {
            assert_eq!(pow2(e).to_bits(), up.to_bits(), "2^{e}");
            assert_eq!(pow2(-e).to_bits(), down.to_bits(), "2^-{e}");
            up *= 2.0;
            down /= 2.0;
        }
        assert_eq!(pow2(1024), f64::INFINITY);
        assert_eq!(pow2(-1074), f64::from_bits(1));
        assert_eq!(pow2(-1075), 0.0);
        // Bias 1151 (127 with bit 10 flipped) puts 1.5f32 at 1.5 · 2^-1024.
        let mut spec = FloatSpec::ieee_f32();
        spec.exponent_bias = 1151;
        let got = spec.decode(&1.5f32.to_le_bytes()).unwrap();
        assert_eq!(got.to_bits(), (1.5 * pow2(-1024)).to_bits());
        assert!(got > 8.3e-309 && got < 8.4e-309, "{got:e}");
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut s = FloatSpec::ieee_f32();
        s.size = 0;
        assert!(s.validate().is_err());
        let mut s2 = FloatSpec::ieee_f32();
        s2.size = 9;
        assert!(s2.validate().is_err());
        let mut s3 = FloatSpec::ieee_f32();
        s3.exponent_size = 0;
        assert!(s3.validate().is_err());
    }

    #[test]
    fn encode_saturates_overflow_and_underflow() {
        let spec = FloatSpec::ieee_f32();
        let inf = spec.encode(1e300).unwrap();
        assert_eq!(f32::from_le_bytes([inf[0], inf[1], inf[2], inf[3]]), f32::INFINITY);
        let zero = spec.encode(1e-300).unwrap();
        assert_eq!(f32::from_le_bytes([zero[0], zero[1], zero[2], zero[3]]), 0.0);
    }

    #[test]
    fn element_too_short_is_error() {
        let spec = FloatSpec::ieee_f32();
        assert!(spec.decode(&[1, 2, 3]).is_err());
    }
}
