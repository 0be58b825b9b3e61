//! Exhaustive conformance suite for the from-scratch IEEE 754 binary16
//! implementation in `cumf_core::half`.
//!
//! The reference converter here is *independent* of `half.rs`: it
//! decodes bit patterns with textbook field arithmetic in `f64` and
//! rounds `f32 → f16` by binary-searching the (monotone) positive
//! pattern space and adjudicating ties to the even pattern. Agreement
//! is then checked exhaustively:
//!
//! * all 2¹⁶ bit patterns round-trip `f16 → f32 → f16` bit-for-bit;
//! * `from_f32` matches the reference on every pattern's value, every
//!   midpoint between consecutive representable values (the RNE tie
//!   cases, subnormals included), both overflow boundaries around
//!   65504/65520, and a deterministic pseudo-random f32 sweep;
//! * NaNs stay NaN in both directions.
//!
//! A second oracle, `legacy_from_f32`/`legacy_to_f32`, is the original
//! branchy field-by-field converter pair that `half.rs` shipped before
//! its conversions became branch-free. The production pair must match it
//! bit for bit, NaN payloads and signs included: on a strided subset of
//! the f32 space by default, and on all 2³² inputs in the `#[ignore]`d
//! exhaustive test (run it in release:
//! `cargo test --release -p cumf-core --test half_conformance -- --ignored`).
//!
//! The store rounding `F16::round_f32`, which the stale-additive engine
//! applies to its f32 working rows, must equal `from_f32` then `to_f32`
//! bit for bit on the same two input sets.

use cumf_core::half::{F16_MAX_F32, F16_MIN_POSITIVE_SUBNORMAL_F32};
use cumf_core::F16;

/// The original `F16::from_f32`, kept verbatim as an oracle: decode the
/// f32 fields, then round each exponent range with explicit branches.
fn legacy_from_f32(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN. Preserve NaN-ness with a quiet-NaN payload bit.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00
        };
    }

    // Unbiased exponent; f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflow -> infinity.
        return sign | 0x7C00;
    }
    if unbiased >= -14 {
        // Normal range: drop 13 mantissa bits with RNE.
        let mant16 = (mant >> 13) as u16;
        let half_exp = ((unbiased + 15) as u16) << 10;
        let rest = mant & 0x1FFF;
        let mut out = sign | half_exp | mant16;
        // Round: up if remainder > half, or exactly half and LSB set.
        if rest > 0x1000 || (rest == 0x1000 && (mant16 & 1) == 1) {
            out += 1; // Carries correctly into the exponent on overflow.
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal f16: the target is mant16 = round(value / 2^-24)
        // = round(full_mant * 2^(unbiased+1)), i.e. a right shift of
        // the 24-bit significand by (-unbiased - 1) ∈ 14..=24.
        // unbiased == -25 is included: mant16 shifts to 0, but a
        // value strictly above 2^-25 (rest > half) must round up to
        // the smallest subnormal, not flush to zero; exactly 2^-25
        // ties to the even pattern 0x0000.
        let full_mant = mant | 0x0080_0000;
        let shift = (-1 - unbiased) as u32;
        let mant16 = (full_mant >> shift) as u16;
        let rest = full_mant & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut out = sign | mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1;
        }
        return out;
    }
    // Underflow to (signed) zero.
    sign
}

/// The original `F16::to_f32`, kept verbatim as an oracle.
fn legacy_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign, // signed zero
        (0, m) => {
            // Subnormal: renormalise. Zeros before the leading one
            // within the 10-bit field = u32 leading zeros - 22.
            let lz = m.leading_zeros() - 22;
            let shifted = m << (lz + 1); // leading one lands at bit 10
            let exp32 = 127 - 15 - lz; // = 112 - field_lz
            sign | (exp32 << 23) | ((shifted & 0x03FF) << 13)
        }
        (0x1F, 0) => sign | 0x7F80_0000,             // infinity
        (0x1F, m) => sign | 0x7F80_0000 | (m << 13), // NaN
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Asserts the production narrowing matches the legacy oracle on the
/// f32 with bit pattern `bits`.
fn assert_narrow_matches_legacy(bits: u32) {
    let x = f32::from_bits(bits);
    assert_eq!(
        F16::from_f32(x).to_bits(),
        legacy_from_f32(x),
        "f32 bits {bits:#010x}"
    );
}

/// Asserts the fused store rounding equals narrowing then widening on
/// the f32 with bit pattern `bits`, NaN payloads and signs included.
fn assert_round_matches_narrow_widen(bits: u32) {
    let x = f32::from_bits(bits);
    assert_eq!(
        F16::round_f32(x).to_bits(),
        F16::from_f32(x).to_f32().to_bits(),
        "f32 bits {bits:#010x}"
    );
}

#[test]
fn widen_matches_legacy_on_all_patterns() {
    for h in 0..=u16::MAX {
        assert_eq!(
            F16::from_bits(h).to_f32().to_bits(),
            legacy_to_f32(h).to_bits(),
            "f16 bits {h:#06x}"
        );
    }
}

#[test]
fn narrow_matches_legacy_on_strided_f32_space() {
    // Every binary16 value and every midpoint between neighbours (the
    // rounding boundaries), each ±2 f32 ulps, in both signs, including
    // the overflow midpoint 65520 and the Inf/NaN patterns …
    for h in 0..=0x7C00u16 {
        let value = legacy_to_f32(h).to_bits();
        let next = if h == 0x7BFF {
            65536.0
        } else {
            f64::from(legacy_to_f32(h + 1))
        };
        let mid = ((f64::from(legacy_to_f32(h)) + next) / 2.0) as f32;
        for centre in [value, mid.to_bits()] {
            for delta in -2i32..=2 {
                let bits = centre.wrapping_add_signed(delta);
                assert_narrow_matches_legacy(bits);
                assert_narrow_matches_legacy(bits ^ 0x8000_0000);
            }
        }
    }
    // … plus every 4099th f32 bit pattern (4099 is prime, so the stride
    // walks through every residue of the low mantissa bits).
    for bits in (0..=u32::MAX).step_by(4099) {
        assert_narrow_matches_legacy(bits);
    }
}

#[test]
#[ignore = "all 2^32 f32 inputs: run in release"]
fn narrow_matches_legacy_on_every_f32() {
    for bits in 0..=u32::MAX {
        assert_narrow_matches_legacy(bits);
    }
}

#[test]
fn store_rounding_matches_narrow_widen_on_strided_f32_space() {
    // Every binary16 value and every midpoint between neighbours, each
    // ±2 f32 ulps, in both signs (the overflow midpoint 65520 and the
    // Inf/NaN patterns included), then every 4099th f32 bit pattern.
    for h in 0..=0x7C00u16 {
        let value = F16::from_bits(h).to_f32();
        let next = if h == 0x7BFF {
            65536.0
        } else {
            f64::from(F16::from_bits(h + 1).to_f32())
        };
        let mid = ((f64::from(value) + next) / 2.0) as f32;
        for centre in [value.to_bits(), mid.to_bits()] {
            for delta in -2i32..=2 {
                let bits = centre.wrapping_add_signed(delta);
                assert_round_matches_narrow_widen(bits);
                assert_round_matches_narrow_widen(bits ^ 0x8000_0000);
            }
        }
    }
    for bits in (0..=u32::MAX).step_by(4099) {
        assert_round_matches_narrow_widen(bits);
    }
}

#[test]
#[ignore = "all 2^32 f32 inputs: run in release"]
fn store_rounding_matches_narrow_widen_on_every_f32() {
    for bits in 0..=u32::MAX {
        assert_round_matches_narrow_widen(bits);
    }
}

/// Independent binary16 decode: sign × 2^(e−15) × (1 + m/1024) for
/// normals, sign × 2^(−14) × (m/1024) for subnormals. Exact in `f64`.
fn ref_decode(bits: u16) -> f64 {
    let sign = if bits & 0x8000 != 0 { -1.0 } else { 1.0 };
    let exp = (bits >> 10) & 0x1F;
    let man = f64::from(bits & 0x3FF);
    match exp {
        0 => sign * man / 1024.0 * (2.0f64).powi(-14),
        0x1F => {
            if man == 0.0 {
                sign * f64::INFINITY
            } else {
                f64::NAN
            }
        }
        _ => sign * (1.0 + man / 1024.0) * (2.0f64).powi(i32::from(exp) - 15),
    }
}

/// Independent `f32 → f16` with round-to-nearest-even.
///
/// Positive finite binary16 patterns `0x0000..=0x7BFF` decode to
/// strictly increasing values, so nearest-even reduces to a binary
/// search for the bracketing pair plus exact `f64` distance
/// comparison; a tie picks the even (LSB-zero) pattern. The overflow
/// tie at 65520 = (65504 + 65536)/2 rounds to infinity because the
/// infinity pattern `0x7C00` is even.
fn ref_encode(x: f32) -> u16 {
    if x.is_nan() {
        return 0x7E00; // canonical quiet NaN
    }
    let sign = if x.is_sign_negative() { 0x8000u16 } else { 0 };
    let mag = f64::from(x.abs());
    if mag == 0.0 {
        return sign;
    }
    // Overflow region: the largest finite value is 65504; the next
    // representable step would be 65536, so the rounding boundary is
    // their midpoint 65520.
    if mag > 65520.0 {
        return sign | 0x7C00;
    }
    if mag == 65520.0 {
        return sign | 0x7C00; // tie: 0x7C00 is even, 0x7BFF is odd
    }
    if mag > f64::from(F16_MAX_F32) {
        return sign | 0x7BFF;
    }
    // Binary search the monotone positive patterns for the largest
    // value ≤ mag.
    let (mut lo, mut hi) = (0u16, 0x7BFFu16);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if ref_decode(mid) <= mag {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let below = ref_decode(lo);
    let above = if lo == 0x7BFF {
        65536.0
    } else {
        ref_decode(lo + 1)
    };
    let (d_below, d_above) = (mag - below, above - mag);
    let pick = if d_below < d_above {
        lo
    } else if d_above < d_below {
        lo + 1
    } else if lo % 2 == 0 {
        lo // tie → even pattern
    } else {
        lo + 1
    };
    if pick == 0x7C00 {
        return sign | 0x7C00; // rounded up past MAX → infinity
    }
    sign | pick
}

#[test]
fn all_patterns_round_trip_bit_for_bit() {
    for bits in 0..=u16::MAX {
        let h = F16::from_bits(bits);
        let f = h.to_f32();
        if f.is_nan() {
            // NaN payloads need not survive, but NaN-ness must.
            assert!(F16::from_f32(f).is_nan(), "bits {bits:#06x}");
            continue;
        }
        let back = F16::from_f32(f);
        assert_eq!(
            back.to_bits(),
            bits,
            "bits {bits:#06x} → {f} → {:#06x}",
            back.to_bits()
        );
    }
}

#[test]
fn decode_matches_reference_on_all_patterns() {
    for bits in 0..=u16::MAX {
        let ours = f64::from(F16::from_bits(bits).to_f32());
        let reference = ref_decode(bits);
        if reference.is_nan() {
            assert!(ours.is_nan(), "bits {bits:#06x}");
        } else {
            assert_eq!(ours, reference, "bits {bits:#06x}");
        }
    }
}

#[test]
fn encode_matches_reference_on_all_pattern_values() {
    for bits in 0..=u16::MAX {
        let f = F16::from_bits(bits).to_f32();
        if f.is_nan() {
            continue;
        }
        assert_eq!(
            F16::from_f32(f).to_bits(),
            ref_encode(f),
            "value {f} (from {bits:#06x})"
        );
    }
}

#[test]
fn midpoints_tie_to_even_everywhere() {
    // Every midpoint between consecutive positive finite values (both
    // subnormal and normal ranges) is exactly representable in f32 and
    // must round to the even neighbour — in both implementations.
    for bits in 0..0x7BFFu16 {
        let mid64 = (ref_decode(bits) + ref_decode(bits + 1)) / 2.0;
        let mid = mid64 as f32;
        assert_eq!(f64::from(mid), mid64, "midpoint not exact at {bits:#06x}");
        let expect = if bits % 2 == 0 { bits } else { bits + 1 };
        assert_eq!(ref_encode(mid), expect, "reference tie at {bits:#06x}");
        assert_eq!(
            F16::from_f32(mid).to_bits(),
            expect,
            "tie at {bits:#06x}: midpoint {mid}"
        );
        // Negative mirror.
        assert_eq!(F16::from_f32(-mid).to_bits(), 0x8000 | expect);
    }
}

#[test]
fn overflow_boundary_is_exact() {
    // 65519.996… < 65520 stays MAX; ≥ 65520 becomes infinity.
    assert_eq!(F16::from_f32(65504.0), F16::MAX);
    assert_eq!(F16::from_f32(65519.0).to_bits(), F16::MAX.to_bits());
    assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
    assert_eq!(F16::from_f32(-65520.0), F16::NEG_INFINITY);
    assert_eq!(F16::from_f32(1e30), F16::INFINITY);
    assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
    assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
}

#[test]
fn underflow_boundary_is_exact() {
    let min_sub = f64::from(F16_MIN_POSITIVE_SUBNORMAL_F32);
    // Half the smallest subnormal ties to zero (even); just above it
    // rounds up to the smallest subnormal.
    assert_eq!(F16::from_f32((min_sub / 2.0) as f32).to_bits(), 0x0000);
    assert_eq!(F16::from_f32((min_sub * 0.6) as f32).to_bits(), 0x0001);
    assert_eq!(F16::from_f32(min_sub as f32).to_bits(), 0x0001);
}

#[test]
fn nan_payloads_stay_nan() {
    for bits in [0x7C01u16, 0x7DFF, 0x7E00, 0x7FFF, 0xFC01, 0xFFFF] {
        let h = F16::from_bits(bits);
        assert!(h.is_nan(), "{bits:#06x}");
        assert!(h.to_f32().is_nan(), "{bits:#06x}");
        assert!(F16::from_f32(h.to_f32()).is_nan(), "{bits:#06x}");
    }
    // f32 NaNs with arbitrary payloads must encode to an f16 NaN.
    for payload in [1u32, 0x7FFFFF, 0x400001] {
        let nan = f32::from_bits(0x7F80_0000 | payload);
        assert!(nan.is_nan());
        assert!(F16::from_f32(nan).is_nan(), "payload {payload:#x}");
    }
}

#[test]
fn random_f32_sweep_matches_reference() {
    // Deterministic splitmix64-driven sweep across the f32 range the
    // solver actually inhabits (plus scattered extremes).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut checked = 0u32;
    while checked < 200_000 {
        let f = f32::from_bits(next() as u32);
        if f.is_nan() {
            continue;
        }
        assert_eq!(
            F16::from_f32(f).to_bits(),
            ref_encode(f),
            "value {f} ({:#010x})",
            f.to_bits()
        );
        checked += 1;
    }
}
