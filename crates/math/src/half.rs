//! Software IEEE-754 binary16 ("half") arithmetic.
//!
//! The GBU Row-Centric Tile Engine computes in FP-16 (Sec. VI-B), which is
//! the source of the paper's tiny quality loss (<0.1 PSNR in Tab. IV). This
//! module models that datapath in software: every arithmetic operation
//! rounds its result to binary16 (round-to-nearest-even), exactly like a
//! hardware FP-16 FMA chain with per-operation rounding.
//!
//! The implementation covers normals, subnormals, infinities and NaN; it is
//! validated against `f32` reference behaviour by unit and property tests.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An IEEE-754 binary16 floating-point number.
///
/// Stored as the raw 16-bit pattern; all arithmetic is performed by
/// converting to `f32`, operating, and rounding back — the same numerical
/// behaviour as a native half-precision ALU with per-op rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

const FRAC_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;

impl F16 {
    /// Positive zero.
    pub const ZERO: Self = Self(0x0000);
    /// One.
    pub const ONE: Self = Self(0x3C00);
    /// Positive infinity.
    pub const INFINITY: Self = Self(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Self = Self(0xFC00);
    /// A quiet NaN.
    pub const NAN: Self = Self(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: Self = Self(0x7BFF);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: Self = Self(0x0400);

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Self(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness with a quiet payload.
            return if frac != 0 { Self(sign | 0x7E00) } else { Self(sign | 0x7C00) };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        if unbiased > EXP_BIAS {
            // Overflows half range -> infinity.
            return Self(sign | 0x7C00);
        }

        if unbiased >= -14 {
            // Normal half. Keep the implicit leading 1; round the 13
            // truncated fraction bits to nearest-even.
            let half_exp = ((unbiased + EXP_BIAS) as u16) << FRAC_BITS;
            let shifted = frac >> 13;
            let round_bits = frac & 0x1FFF;
            let mut out = sign | half_exp | (shifted as u16);
            if round_bits > 0x1000 || (round_bits == 0x1000 && (shifted & 1) == 1) {
                // Carry may ripple into the exponent; that is correct
                // behaviour (may round up to infinity).
                out = out.wrapping_add(1);
            }
            return Self(out);
        }

        // Subnormal half (or zero). The significand including the implicit
        // bit, shifted right depending on how far below the normal range we
        // are.
        if unbiased < -14 - FRAC_BITS as i32 - 1 {
            // Too small even for a subnormal: flush to signed zero.
            return Self(sign);
        }
        let significand = frac | 0x0080_0000; // implicit leading 1
        let shift = (-14 - unbiased) as u32 + 13;
        let shifted = (significand >> shift) as u16;
        let remainder = significand & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | shifted;
        if remainder > halfway || (remainder == halfway && (shifted & 1) == 1) {
            out = out.wrapping_add(1);
        }
        Self(out)
    }

    /// Rounds an `f32` to the nearest binary16 value and returns it as an
    /// `f32`: bit for bit `F16::from_f32(x).to_f32()`, without the trip
    /// through the 16-bit encoding. Lets a datapath hold binary16 values
    /// in `f32` registers and round once per operation.
    ///
    /// Branch-free: the normal, subnormal and inf/NaN results are all
    /// computed and the right one is selected by bit masks, so the cost
    /// does not depend on the value being rounded.
    #[inline]
    pub fn round_f32(x: f32) -> f32 {
        /// All ones when `cond` holds, else zero.
        #[inline(always)]
        fn mask(cond: bool) -> u32 {
            (cond as u32).wrapping_neg()
        }
        let bits = x.to_bits();
        let sign = bits & 0x8000_0000;
        let abs = bits & 0x7FFF_FFFF;
        // Normal half (|x| >= 2^-14): round the 13 dropped fraction bits
        // to nearest-even; a carry may ripple into the exponent, and 2^16
        // and above overflow the half range to inf.
        let normal = (abs + 0x0FFF + ((abs >> 13) & 1)) & !0x1FFF;
        let overflow = mask(normal >= 0x4780_0000);
        let normal = (normal & !overflow) | (0x7F80_0000 & overflow);
        // Subnormal half: a multiple of 2^-24. Adding 0.5 (whose f32 ulp
        // is 2^-24) rounds to nearest-even there; taking 0.5 away again is
        // exact.
        let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
        // Inf stays; every NaN becomes the quiet NaN `to_f32` emits.
        let special = 0x7F80_0000 | (u32::from(abs > 0x7F80_0000) << 22);
        let is_special = mask(abs >= 0x7F80_0000);
        let is_normal = mask(abs >= 0x3880_0000) & !is_special;
        let is_subnormal = !(is_special | is_normal);
        let rounded = (special & is_special) | (normal & is_normal) | (subnormal & is_subnormal);
        f32::from_bits(sign | rounded)
    }

    /// Converts to `f32` (exact: every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> FRAC_BITS) & 0x1F) as u32;
        let frac = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalise the fraction. A subnormal half is
                // frac × 2⁻²⁴; after k left-shifts bring the leading 1 to
                // bit 10, the value is 1.f' × 2^(-14-k), i.e. f32 exponent
                // field 113 - k = 114 + e with e = -1 - k.
                let mut e = -1i32;
                let mut f = frac;
                while f & 0x0400 == 0 {
                    f <<= 1;
                    e -= 1;
                }
                f &= 0x03FF;
                let exp32 = (e + 114) as u32;
                sign | (exp32 << 23) | (f << 13)
            }
        } else if exp == 0x1F {
            if frac == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000 | (frac << 13)
            }
        } else {
            let exp32 = exp as i32 - EXP_BIAS + 127;
            sign | ((exp32 as u32) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// `true` for ±infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// `true` for finite values (neither infinite nor NaN).
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Fused sequence `self * a + b` with a *single* rounding at the end,
    /// modelling the Row PE's FMA units.
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self::from_f32(self.to_f32() * a.to_f32() + b.to_f32())
    }

    /// `e^{-self}` rounded to binary16, modelling the Row PE's exponent LUT
    /// (Fig. 11(d) shows an `LUT` feeding the opacity path).
    pub fn exp_neg(self) -> Self {
        Self::from_f32((-self.to_f32()).exp())
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0 & 0x7FFF)
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        Self::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl Add for F16 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for F16 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F16 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F16 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0_f32.powi(-14));
        assert!(F16::INFINITY.to_f32().is_infinite());
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn simple_values_exact() {
        for &v in &[0.5, 1.0, 2.0, -3.25, 0.125, 1024.0, -0.0078125] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v} should be exact in f16");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half value
        // (1 + 2^-10); ties round to even (1.0, whose mantissa LSB is 0).
        let halfway = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0_f32.powi(-10));
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(70000.0).is_infinite());
        assert!(F16::from_f32(-70000.0).to_f32().is_infinite());
        assert!(F16::from_f32(-70000.0).to_f32() < 0.0);
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(2.0_f32.powi(-26)).to_f32(), 0.0);
        // A mid-range subnormal.
        let sub = 3.0 * 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn arithmetic_rounds_per_op() {
        // 1 + 2^-12 rounds back to 1 in f16 (the addend is below half ULP).
        let one = F16::ONE;
        let small = F16::from_f32(2.0_f32.powi(-12));
        assert_eq!(one + small, one);
        // But 2^-12 itself is representable.
        assert_eq!(small.to_f32(), 2.0_f32.powi(-12));
    }

    #[test]
    fn mul_add_single_rounding() {
        // Choose values where fused vs separate rounding differ:
        // a*b = 1 + 2^-11 exactly; fused with c = 2^-13 keeps the low bits
        // alive until the single final rounding.
        let a = F16::from_f32(1.0 + 2.0_f32.powi(-10));
        let b = F16::from_f32(1.0 + 2.0_f32.powi(-10));
        let c = F16::from_f32(2.0_f32.powi(-9));
        let fused = a.mul_add(b, c);
        let expected = F16::from_f32(a.to_f32() * b.to_f32() + c.to_f32());
        assert_eq!(fused, expected);
    }

    #[test]
    fn exp_neg_matches_f32_within_half_ulp_scale() {
        for &q in &[0.0f32, 0.5, 1.0, 2.5, 8.0] {
            let got = F16::from_f32(q).exp_neg().to_f32();
            let want = (-q).exp();
            assert!((got - want).abs() <= want * 1e-3 + 1e-4, "exp(-{q}): {got} vs {want}");
        }
    }

    #[test]
    fn ordering_matches_f32() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.5);
        assert!(a < b);
        assert!(b > a);
        assert!(F16::NAN.partial_cmp(&a).is_none());
    }

    #[test]
    fn abs_clears_sign() {
        assert_eq!(F16::from_f32(-3.5).abs().to_f32(), 3.5);
        assert_eq!(F16::from_f32(3.5).abs().to_f32(), 3.5);
    }

    /// `round_f32(x)` must be `from_f32(x).to_f32()` bit for bit.
    fn assert_round_f32_matches(x: f32) {
        let want = F16::from_f32(x).to_f32().to_bits();
        let got = F16::round_f32(x).to_bits();
        assert_eq!(got, want, "round_f32({x:e}) [{:#010x}]", x.to_bits());
    }

    /// The f32 values one ulp either side of `x` (and `x` itself).
    fn with_neighbours(x: f32) -> [f32; 3] {
        let b = x.to_bits();
        [x, f32::from_bits(b.wrapping_sub(1)), f32::from_bits(b.wrapping_add(1))]
    }

    #[test]
    fn round_f32_matches_the_encoding_round_trip_at_every_edge() {
        let mut values = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        // NaN payloads, signalling and quiet, both signs.
        values.extend(
            [0x7F80_0001u32, 0x7FBF_FFFF, 0x7FC0_0001, 0xFF80_0001, 0xFFFF_FFFF]
                .map(f32::from_bits),
        );
        // The overflow edge: the largest half, the tie to 2^16, beyond.
        values.extend([65504.0f32, 65520.0, 65536.0, 1e10, f32::MAX]);
        // f32 subnormals and the flush-to-zero edge around 2^-25.
        values.extend([f32::from_bits(1), f32::MIN_POSITIVE, 2f32.powi(-25), 2f32.powi(-26)]);
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let x = h.to_f32();
            values.push(x);
            // The round-half boundary to the next binary16 value up in
            // magnitude (exact in f32: a half has 11 significant bits).
            let next = F16::from_bits(bits.wrapping_add(1));
            if h.is_finite() && !next.is_nan() {
                let up = if next.is_infinite() { x.signum() * 65536.0 } else { next.to_f32() };
                values.push((x + up) / 2.0);
            }
        }
        for &x in &values {
            for v in with_neighbours(x) {
                assert_round_f32_matches(v);
                assert_round_f32_matches(-v);
            }
        }
    }

    /// Every one of the 2^32 f32 bit patterns (~30 s in release; run with
    /// `cargo test --release -p gbu_math -- --ignored`).
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn round_f32_matches_the_encoding_round_trip_exhaustively() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            if F16::round_f32(x).to_bits() != F16::from_f32(x).to_f32().to_bits() {
                assert_round_f32_matches(x);
            }
        }
    }

    #[test]
    fn exhaustive_round_trip_all_finite_bit_patterns() {
        // Every finite f16 bit pattern must survive f16 -> f32 -> f16 exactly.
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }
}
