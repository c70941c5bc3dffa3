//! Software-emulated IEEE 754 binary16 ("half precision").
//!
//! The paper's conclusion: *"if one uses half precision strategically
//! for parts of operations in the blue region in algorithm 3, one can
//! expect an even higher speedup. This will be addressed in future
//! work."* This type makes that future work runnable today: [`Half`]
//! implements [`crate::Scalar`], so the entire solver stack — ELL
//! SpMV, multicolor Gauss–Seidel, the multigrid cycle, CGS2, the whole
//! GMRES-IR inner solve — can be instantiated at 16-bit precision and
//! its convergence behaviour studied, while the performance model
//! projects the bandwidth-side gain (2 bytes/value).
//!
//! Storage is a `u16` with IEEE binary16 layout; arithmetic widens to
//! `f32`, computes, and rounds back to nearest-even — the semantics of
//! hardware FP16 units that compute in higher-precision accumulators.

use crate::scalar::{PrecKind, Scalar};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An IEEE 754 binary16 value.
///
/// `repr(transparent)` over the bit pattern: a `&[Half]` reinterprets
/// soundly as `&[u16]`, which is what lets the SIMD layer feed slices
/// of this type straight to the F16C conversion units (see
/// [`as_bits`] / [`as_bits_mut`]).
#[derive(Copy, Clone, Default, PartialEq, PartialOrd)]
#[repr(transparent)]
pub struct Half(u16);

/// Convert an `f32` to binary16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp == 255 {
        // Inf / NaN (preserve a quiet-NaN payload bit).
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal range: keep 10 mantissa bits, round the lost 13.
        let mut m = man >> 13;
        let rest = man & 0x1fff;
        if rest > 0x1000 || (rest == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut e = (unbiased + 15) as u32;
        if m == 0x400 {
            m = 0;
            e += 1;
            if e >= 31 {
                return sign | 0x7c00;
            }
        }
        return sign | ((e as u16) << 10) | (m as u16);
    }
    if unbiased >= -25 {
        // Subnormal range: the result is M · 2⁻²⁴ with
        // M = round(full · 2^(unbiased+1)), full the 24-bit significand.
        let total_shift = (-1 - unbiased) as u32; // 14..=24
        let full = man | 0x0080_0000;
        let mut m = full >> total_shift;
        let half_ulp = 1u32 << (total_shift - 1);
        let rest = full & ((1u32 << total_shift) - 1);
        if rest > half_ulp || (rest == half_ulp && (m & 1) == 1) {
            m += 1;
        }
        // A carry into bit 10 lands exactly on the smallest normal.
        return sign | (m as u16);
    }
    sign // underflow → ±0
}

/// Convert binary16 bits to an `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = if h & 0x8000 != 0 { -1.0f32 } else { 1.0 };
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x3ff) as u32;
    match exp {
        0 => sign * (man as f32) * f32::powi(2.0, -24),
        31 => {
            if man == 0 {
                sign * f32::INFINITY
            } else {
                f32::NAN
            }
        }
        _ => {
            let bits =
                (((h as u32) & 0x8000) << 16) | (((exp as u32) + 127 - 15) << 23) | (man << 13);
            f32::from_bits(bits)
        }
    }
}

impl Half {
    /// Largest finite binary16 value (65 504).
    pub const MAX: Half = Half(0x7bff);
    /// Smallest positive normal value (≈6.1e-5).
    pub const MIN_POSITIVE: Half = Half(0x0400);

    /// Round an `f32` into binary16.
    #[inline]
    pub fn from_f32(x: f32) -> Half {
        Half(f32_to_f16_bits(x))
    }

    /// Widen to `f32` exactly.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// From raw bits.
    pub fn from_bits(bits: u16) -> Half {
        Half(bits)
    }

    /// Whether this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x3ff) != 0
    }
}

/// View an fp16 slice as its raw bit patterns (sound by
/// `repr(transparent)`).
#[inline]
pub fn as_bits(src: &[Half]) -> &[u16] {
    // SAFETY: Half is repr(transparent) over u16.
    unsafe { std::slice::from_raw_parts(src.as_ptr() as *const u16, src.len()) }
}

/// Mutable bit-pattern view of an fp16 slice.
#[inline]
pub fn as_bits_mut(src: &mut [Half]) -> &mut [u16] {
    // SAFETY: Half is repr(transparent) over u16, and any u16 pattern
    // is a valid Half.
    unsafe { std::slice::from_raw_parts_mut(src.as_mut_ptr() as *mut u16, src.len()) }
}

/// Widen an fp16 slice into `f32` exactly (the load half of a
/// "fp16-stored, f32-accumulated" kernel: values live in 2-byte
/// storage and are expanded on the fly). Batched through the SIMD
/// layer; handles unaligned heads and ragged tails of any length.
pub fn widen_f16_slice(src: &[Half], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    crate::simd::widen_f16_f32(as_bits(src), dst);
}

/// Round an `f32` slice into fp16 storage (the store half; one
/// round-to-nearest-even per element). Batched through the SIMD layer.
pub fn narrow_f32_slice(src: &[f32], dst: &mut [Half]) {
    assert_eq!(src.len(), dst.len());
    crate::simd::narrow_f32_f16(src, as_bits_mut(dst));
}

/// Slice dot product in fp16 storage: the lane-blocked reduction of
/// `blas::dot` with operands widened exactly and accumulated in f32 —
/// each block's sum narrowed **once**, instead of the generic
/// arithmetic's per-element round-trip through fp16, which rounds
/// every partial sum.
pub fn dot_f16(x: &[Half], y: &[Half]) -> Half {
    crate::blas::dot(x, y)
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

macro_rules! half_binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl $trait for Half {
            type Output = Half;
            #[inline]
            fn $method(self, rhs: Half) -> Half {
                Half::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for Half {
            #[inline]
            fn $assign_method(&mut self, rhs: Half) {
                *self = *self $op rhs;
            }
        }
    };
}

half_binop!(Add, add, +, AddAssign, add_assign);
half_binop!(Sub, sub, -, SubAssign, sub_assign);
half_binop!(Mul, mul, *, MulAssign, mul_assign);
half_binop!(Div, div, /, DivAssign, div_assign);

impl Neg for Half {
    type Output = Half;
    #[inline]
    fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }
}

impl Sum for Half {
    fn sum<I: Iterator<Item = Half>>(iter: I) -> Half {
        // Accumulate in f32, as a hardware FP16 dot unit would.
        Half::from_f32(iter.map(|h| h.to_f32()).sum())
    }
}

impl Scalar for Half {
    const ZERO: Self = Half(0);
    const ONE: Self = Half(0x3c00);
    const BYTES: usize = 2;
    const NAME: &'static str = "fp16";
    const EPSILON: Self = Half(0x1400); // 2^-10
    const KIND: PrecKind = PrecKind::F16;

    #[inline]
    fn from_f64(v: f64) -> Self {
        Half::from_f32(v as f32)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }
    #[inline]
    fn abs(self) -> Self {
        Half(self.0 & 0x7fff)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Half::from_f32(self.to_f32().sqrt())
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Fused in f32 (one rounding), as tensor-core style FMA units do.
        Half::from_f32(self.to_f32().mul_add(a.to_f32(), b.to_f32()))
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        assert_eq!(Half::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f32(1.0).to_bits(), 0x3c00);
        assert_eq!(Half::from_f32(-2.0).to_bits(), 0xc000);
        assert_eq!(Half::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(Half::from_f32(65504.0).to_bits(), 0x7bff);
        assert_eq!(Half::from_f32(f32::INFINITY).to_bits(), 0x7c00);
        assert!(Half::from_f32(f32::NAN).is_nan());
        // Benchmark matrix values are exact in fp16.
        assert_eq!(Half::from_f32(26.0).to_f32(), 26.0);
        assert_eq!(Half::from_f32(-1.0).to_f32(), -1.0);
    }

    #[test]
    fn all_finite_bit_patterns_roundtrip() {
        // f16 → f32 is exact, so converting back must be the identity
        // for every non-NaN pattern.
        for bits in 0u16..=0xffff {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let back = Half::from_f32(h.to_f32());
            assert_eq!(back.to_bits(), bits, "pattern {:#06x}", bits);
        }
    }

    #[test]
    fn overflow_and_underflow() {
        assert_eq!(Half::from_f32(1e6).to_bits(), 0x7c00); // +inf
        assert_eq!(Half::from_f32(-1e6).to_bits(), 0xfc00);
        assert_eq!(Half::from_f32(1e-10).to_bits(), 0x0000);
        // Largest subnormal ≈ 6.0976e-5.
        let sub = Half::from_bits(0x03ff);
        assert!((sub.to_f32() - 6.0976e-5).abs() < 1e-8);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10:
        // nearest-even rounds down to 1.0.
        let x = 1.0f32 + f32::powi(2.0, -11);
        assert_eq!(Half::from_f32(x).to_bits(), 0x3c00);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds up
        // to the even 1+2^-9.
        let y = 1.0f32 + 3.0 * f32::powi(2.0, -11);
        assert_eq!(Half::from_f32(y).to_bits(), 0x3c02);
    }

    #[test]
    fn arithmetic_matches_f32_with_rounding() {
        let a = Half::from_f32(1.5);
        let b = Half::from_f32(0.25);
        assert_eq!((a + b).to_f32(), 1.75);
        assert_eq!((a - b).to_f32(), 1.25);
        assert_eq!((a * b).to_f32(), 0.375);
        assert_eq!((a / b).to_f32(), 6.0);
        assert_eq!((-a).to_f32(), -1.5);
        let mut c = a;
        c += b;
        assert_eq!(c.to_f32(), 1.75);
    }

    #[test]
    fn scalar_trait_constants() {
        assert_eq!(<Half as Scalar>::BYTES, 2);
        assert_eq!(<Half as Scalar>::NAME, "fp16");
        assert_eq!(Half::ZERO.to_f32(), 0.0);
        assert_eq!(Half::ONE.to_f32(), 1.0);
        assert_eq!(<Half as Scalar>::EPSILON.to_f32(), f32::powi(2.0, -10));
    }

    #[test]
    fn generic_kernels_run_at_fp16() {
        // The same generic code paths used by the solver.
        let x: Vec<Half> = (0..50).map(|i| Half::from_f64(0.01 * i as f64)).collect();
        let y: Vec<Half> = (0..50).map(|i| Half::from_f64(0.02 * i as f64)).collect();
        let d = crate::blas::dot(&x, &y);
        let exact: f64 = (0..50).map(|i| 0.01 * i as f64 * 0.02 * i as f64).sum();
        assert!((d.to_f64() - exact).abs() < exact * 0.01, "{} vs {}", d, exact);

        let mut w = vec![Half::ZERO; 50];
        crate::blas::waxpby(Half::from_f64(2.0), &x, Half::from_f64(-1.0), &y, &mut w);
        for wi in &w {
            assert!(wi.to_f32().abs() < 1e-3, "2*0.01i - 0.02i = 0");
        }
    }

    #[test]
    fn fp16_spmv_on_benchmark_stencil() {
        use crate::csr::CsrBuilder;
        // A weakly dominant row like the benchmark's: 26 - 4*1 ≠ 0.
        let mut b = CsrBuilder::new(2, 2, 4);
        b.push_row([(0u32, Half::from_f64(26.0)), (1, Half::from_f64(-1.0))]);
        b.push_row([(0u32, Half::from_f64(-1.0)), (1, Half::from_f64(26.0))]);
        let a = b.finish();
        let x = vec![Half::ONE; 2];
        let mut y = vec![Half::ZERO; 2];
        a.spmv(&x, &mut y);
        assert_eq!(y[0].to_f32(), 25.0);
        assert_eq!(y[1].to_f32(), 25.0);
    }

    #[test]
    fn slice_widen_narrow_roundtrip() {
        let h: Vec<Half> = (0..64).map(|i| Half::from_f32(i as f32 * 0.25 - 4.0)).collect();
        let mut wide = vec![0.0f32; 64];
        widen_f16_slice(&h, &mut wide);
        for (w, x) in wide.iter().zip(h.iter()) {
            assert_eq!(*w, x.to_f32(), "widening is exact");
        }
        let mut back = vec![Half::ZERO; 64];
        narrow_f32_slice(&wide, &mut back);
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            h.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // Narrowing rounds to nearest-even.
        narrow_f32_slice(&[1.0 + f32::powi(2.0, -11)], &mut back[..1]);
        assert_eq!(back[0].to_bits(), 0x3c00);
    }

    #[test]
    fn slice_helpers_handle_ragged_heads_and_tails() {
        // Every length around the 8-lane vector width and some larger
        // odd sizes, at offset slices, must match the per-element path.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 255, 256, 257] {
            let h: Vec<Half> =
                (0..len + 3).map(|i| Half::from_f32((i as f32 - 7.0) * 0.31)).collect();
            for off in 0..3usize.min(h.len()) {
                let src = &h[off..(off + len).min(h.len())];
                let mut wide = vec![0.0f32; src.len()];
                widen_f16_slice(src, &mut wide);
                for (w, s) in wide.iter().zip(src.iter()) {
                    assert_eq!(w.to_bits(), s.to_f32().to_bits());
                }
                let mut back = vec![Half::ZERO; src.len()];
                narrow_f32_slice(&wide, &mut back);
                for (b, s) in back.iter().zip(src.iter()) {
                    assert_eq!(b.to_bits(), s.to_bits());
                }
            }
        }
    }

    #[test]
    fn dot_f16_accumulates_in_f32_lanes_and_narrows_once() {
        // Within one block: the f32 lane-blocked sum of the widened
        // operands, rounded to fp16 exactly once.
        for len in [0usize, 1, 8, 9, 31, 32, 33, 256, 257, 600] {
            let x: Vec<Half> = (0..len).map(|i| Half::from_f32((i as f32 * 0.23).cos())).collect();
            let y: Vec<Half> = (0..len).map(|i| Half::from_f32((i as f32 * 0.11).sin())).collect();
            // The f32 lane dot of the widened operands has the same shape.
            let (xw, yw): (Vec<f32>, Vec<f32>) =
                x.iter().zip(&y).map(|(a, b)| (a.to_f32(), b.to_f32())).unzip();
            let acc = crate::simd::lane_dot(&xw, &yw);
            assert_eq!(dot_f16(&x, &y).to_bits(), Half::from_f32(acc).to_bits(), "len {len}");
        }
    }

    #[test]
    fn sum_accumulates_in_f32() {
        // 4096 copies of 1.0 sum exactly (fits fp16 range via f32 acc;
        // naive fp16 accumulation would stall at 2048).
        let v = vec![Half::ONE; 4096];
        let s: Half = v.into_iter().sum();
        assert_eq!(s.to_f32(), 4096.0);
    }
}
