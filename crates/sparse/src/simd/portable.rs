//! Portable scalar reference implementations of the fp16 batch
//! conversion primitives.
//!
//! These are the *definitions* of what the F16C converters in
//! `x86.rs` must compute: one IEEE round-to-nearest-even per narrowing
//! element and exact widening. The hardware paths are verified against
//! these functions bit-for-bit over every non-NaN input (see the
//! exhaustive tests in [`super`]); when runtime dispatch selects
//! [`super::SimdLevel::Scalar`] these run directly.

use crate::half::{f16_bits_to_f32, f32_to_f16_bits};

/// Exact fp16 → f32 widening, one element at a time.
pub fn widen_f16_f32(src: &[u16], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = f16_bits_to_f32(*s);
    }
}

/// f32 → fp16 narrowing (round-to-nearest-even), one element at a time.
pub fn narrow_f32_f16(src: &[f32], dst: &mut [u16]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = f32_to_f16_bits(*s);
    }
}

/// Exact fp16 → f64 widening (through f32, both steps exact).
pub fn widen_f16_f64(src: &[u16], dst: &mut [f64]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = f16_bits_to_f32(*s) as f64;
    }
}

/// f64 → fp16 narrowing. Deliberately the same double rounding as
/// `Half::from_f64` (f64 → f32 → f16, nearest-even at each step), which
/// is also what the paired `vcvtpd2ps` + `vcvtps2ph` hardware sequence
/// computes.
pub fn narrow_f64_f16(src: &[f64], dst: &mut [u16]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = f32_to_f16_bits(*s as f32);
    }
}
