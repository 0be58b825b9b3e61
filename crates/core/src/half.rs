//! IEEE 754 binary16 ("half precision"), implemented from scratch.
//!
//! §4 of the paper: *"CuMF_SGD uses half-precision to store feature
//! matrices, which halves the memory bandwidth need"*. On GPUs the
//! conversion is a hardware instruction; here we implement the conversion
//! pair in software with round-to-nearest-even, the same rounding CUDA's
//! `__float2half_rn` performs.
//!
//! Only storage conversions are needed — all arithmetic happens in f32,
//! exactly as in the CUDA kernel (loads widen to f32 registers, stores
//! narrow back).
//!
//! # Why the conversions are branch-free and `#[inline]`
//!
//! A factor row is loaded and stored as a loop of k conversions
//! ([`crate::FactorMatrix::load_row`]/`store_row`), so the conversions
//! must be something LLVM can vectorize: straight-line bit arithmetic
//! whose three cases (normal, subnormal, Inf/NaN) are all computed and
//! then picked with selects. That works on the baseline x86-64 target,
//! without `unsafe`, target features, or intrinsics.
//!
//! `#[inline]` is load-bearing. `from_f32`/`to_f32` are non-generic, so
//! without it they are compiled once inside `cumf-core` and every other
//! crate — the benchmark, the serving layer — calls them out of line
//! once per element, which also rules out vectorizing the row loop there
//! (the `#[inline(always)]` on the [`crate::feature::Element`] wrappers
//! cannot inline a body it cannot see).
//!
//! The narrowing uses F. Giesen's round-to-nearest-even scheme. Normals
//! rebias the exponent and add `0xFFF` plus the kept mantissa's odd bit
//! before shifting out 13 bits. Subnormal results come from the FPU
//! itself: `|x| + 0.5` puts the f32 ulp of the sum (2⁻²⁴, since the sum
//! lies in [0.5, 1)) on the binary16 subnormal step, so the add rounds
//! `|x|` to a multiple of 2⁻²⁴ and the sum's mantissa bits are the
//! binary16 result. The add always rounds this way because Rust code
//! runs in the default floating-point environment (the compiler treats
//! a changed rounding mode, or FTZ/DAZ, as undefined behaviour): every
//! f32 add rounds to nearest-even and subnormal inputs are not flushed.
//! Widening is exact in all cases; subnormal inputs become `m · 2⁻²⁴`,
//! an ordinary f32 normal.
//!
//! Both directions agree bit for bit with the original branchy
//! converters on every input (all 2³² f32 patterns, all 2¹⁶ binary16
//! patterns); `crates/core/tests/half_conformance.rs` keeps those as its
//! oracle.

/// An IEEE 754 binary16 value: 1 sign bit, 5 exponent bits, 10 mantissa
/// bits. Range ±65504, ~3 decimal digits of precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// The largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// The smallest positive normal value, 2⁻¹⁴.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);

    /// Creates from the raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from f32 with round-to-nearest-even.
    ///
    /// Branch-free (see the module docs): every lane computes the normal,
    /// subnormal and Inf/NaN candidates and a select picks one, so a loop
    /// over a row vectorizes.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let abs = bits & 0x7FFF_FFFF;
        // Normal: rebias the exponent 127 → 15, then add 0xFFF plus the
        // kept mantissa's lowest bit, so the 13 dropped bits round half to
        // even; a mantissa carry ripples into the exponent (and from 65504
        // up into 0x7C00, infinity).
        let odd = (abs >> 13) & 1;
        let normal = abs.wrapping_sub(112 << 23).wrapping_add(0xFFF + odd) >> 13;
        // Subnormal or zero: adding 0.5 aligns the f32 ulp (2⁻²⁴ at 0.5)
        // with the binary16 subnormal step, so the FPU's round-to-nearest-
        // even add does the rounding; the mantissa bits are the result.
        let subnormal = (f32::from_bits(abs) + 0.5)
            .to_bits()
            .wrapping_sub(126 << 23);
        // NaN (any payload) becomes the quiet NaN 0x7E00; ±∞ and every
        // finite |x| ≥ 65536 become infinity.
        let special = if abs > 0x7F80_0000 { 0x7E00 } else { 0x7C00 };
        let half = if abs >= 143 << 23 {
            special
        } else if abs < 113 << 23 {
            subnormal
        } else {
            normal
        };
        F16(sign | half as u16)
    }

    /// Converts to f32 exactly (every f16 value is representable in f32).
    ///
    /// Branch-free, like [`F16::from_f32`].
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = u32::from(self.0);
        let sign = (h & 0x8000) << 16;
        let em = h & 0x7FFF;
        // Normal: shift exponent and mantissa into place, rebias 15 → 127.
        let normal = (em << 13) + (112 << 23);
        // Inf/NaN: rebias once more so the exponent field saturates at
        // 0xFF; the NaN payload rides along in the mantissa.
        let special = normal + (112 << 23);
        // Subnormal or zero: m · 2⁻²⁴, exact, and never an f32 denormal.
        let subnormal = ((em as i32 as f32) * (1.0 / 16_777_216.0)).to_bits();
        let bits = if em >= 0x7C00 {
            special
        } else if em < 0x0400 {
            subnormal
        } else {
            normal
        };
        f32::from_bits(sign | bits)
    }

    /// `value` rounded to the nearest binary16 value, as f32: bit for bit
    /// `F16::from_f32(value).to_f32()`, without the round trip through
    /// the 16-bit pattern. What the stale-additive engine writes into its
    /// f32 working rows when P and Q are stored in binary16.
    ///
    /// Branch-free like [`F16::from_f32`], and one rounding add for every
    /// finite input: for `|x|` in `[2^e, 2^(e+1))`, adding `m = 2^(e+13)`
    /// puts the f32 ulp of the sum on the binary16 step `2^(e−10)`, so the
    /// FPU's round-to-nearest-even add rounds `|x|` onto the binary16
    /// grid, and subtracting `m` again is exact. Below 2⁻¹⁴ the step stays
    /// 2⁻²⁴, so `e` is clamped at −14 (`m = 0.5`, `from_f32`'s subnormal
    /// add). A result of 65536 or more is out of range and becomes ±∞;
    /// NaN (any payload) becomes the quiet NaN `from_f32` produces,
    /// widened.
    #[inline]
    pub fn round_f32(value: f32) -> f32 {
        let bits = value.to_bits();
        let sign = bits & 0x8000_0000;
        let abs = bits & 0x7FFF_FFFF;
        let exp = abs & 0x7F80_0000;
        let m = if exp > 113 << 23 { exp } else { 113 << 23 } + (13 << 23);
        let m = f32::from_bits(m);
        let rounded = ((f32::from_bits(abs) + m) - m).to_bits();
        let out = if abs > 0x7F80_0000 {
            0x7FC0_0000
        } else if rounded >= 143 << 23 {
            0x7F80_0000
        } else {
            rounded
        };
        f32::from_bits(sign | out)
    }

    /// True if this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if this value is ±∞.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True if the value is neither NaN nor infinite.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Maximum relative quantisation error of a round trip through f16 for
/// values in the normal range: half an ulp = 2⁻¹¹.
pub const F16_MAX_RELATIVE_ERROR: f32 = 1.0 / 2048.0;

/// The largest finite binary16 magnitude, as f32: any stored value with
/// `|x| > 65504 + 16` (the rounding boundary is 65520) overflows to ±∞.
/// The FP16 range-analysis pass proves stored intermediates stay below
/// this.
pub const F16_MAX_F32: f32 = 65504.0;

/// The smallest positive *normal* binary16 value (2⁻¹⁴) as f32; below it
/// precision degrades gradually through the subnormal range.
pub const F16_MIN_POSITIVE_NORMAL_F32: f32 = 6.103_515_6e-5;

/// The smallest positive subnormal binary16 value (2⁻²⁴) as f32; stores
/// with magnitude under half of it flush to zero — the floor under which
/// SGD updates silently stagnate in half precision.
pub const F16_MIN_POSITIVE_SUBNORMAL_F32: f32 = 5.960_464_5e-8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(F16::from_f32(-1e6).is_infinite());
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
        // 65520 rounds to inf (midpoint rounds to even = inf),
        // 65519 rounds down to MAX.
        assert!(F16::from_f32(65520.0).is_infinite());
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!F16::from_f32(1.0).is_nan());
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), tiny);
        // Largest subnormal: (1023/1024) * 2^-14.
        let big_sub = (1023.0 / 1024.0) * 2.0f32.powi(-14);
        assert_eq!(F16::from_f32(big_sub).to_bits(), 0x03FF);
        assert_eq!(F16::from_bits(0x03FF).to_f32(), big_sub);
        // Below half the smallest subnormal underflows to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)), F16::ZERO);
        // MIN_POSITIVE normal round trips.
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16
        // (1 + 2^-10); RNE keeps the even mantissa -> 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between (1+2^-10) and (1+2^-9); RNE picks
        // the even mantissa (1+2^-9, bits ...10).
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway2).to_bits(), 0x3C02);
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_bits(), 0x3C01);
    }

    #[test]
    fn relative_error_bound_on_normal_range() {
        // Sweep pseudo-random values across the normal f16 range and check
        // the round-trip error bound.
        let mut x = 0.000_061_5f32; // just above min normal
        while x < 60000.0 {
            for sign in [1.0f32, -1.0] {
                let v = x * sign;
                let rt = F16::from_f32(v).to_f32();
                let rel = ((rt - v) / v).abs();
                assert!(
                    rel <= F16_MAX_RELATIVE_ERROR,
                    "x = {v}, round trip {rt}, rel err {rel}"
                );
            }
            x *= 1.37;
        }
    }

    #[test]
    fn all_f16_bit_patterns_round_trip_exactly() {
        // f16 -> f32 -> f16 must be the identity for every finite pattern.
        for bits in 0..=0xFFFFu16 {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
                continue;
            }
            let rt = F16::from_f32(h.to_f32());
            assert_eq!(rt.to_bits(), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn range_constants_match_bit_patterns() {
        assert_eq!(F16::MAX.to_f32(), F16_MAX_F32);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), F16_MIN_POSITIVE_NORMAL_F32);
        assert_eq!(
            F16::from_bits(0x0001).to_f32(),
            F16_MIN_POSITIVE_SUBNORMAL_F32
        );
        assert_eq!(F16_MIN_POSITIVE_NORMAL_F32, 2.0f32.powi(-14));
        assert_eq!(F16_MIN_POSITIVE_SUBNORMAL_F32, 2.0f32.powi(-24));
    }

    #[test]
    fn feature_scale_values_are_well_represented() {
        // Feature values live in roughly [-2, 2] after the paper's
        // "parameter scaling"; quantisation there is harmless.
        for i in 0..1000 {
            let x = -2.0 + 4.0 * (i as f32) / 999.0;
            let rt = F16::from_f32(x).to_f32();
            assert!((rt - x).abs() <= 2.0 * F16_MAX_RELATIVE_ERROR * x.abs().max(0.25));
        }
    }
}
