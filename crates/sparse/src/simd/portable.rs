//! Portable scalar reference implementations of the batch conversion
//! primitives and of the one local reduction.
//!
//! These are the *definitions* of what the vectorized paths in
//! [`super::x86`] must compute: one IEEE round-to-nearest-even per
//! narrowing element, exact widening, and the lane-blocked dot shape of
//! [`lane_dot`]. The hardware paths are verified against these
//! functions bit-for-bit over every non-NaN input (see the exhaustive
//! tests in [`super`]); when runtime dispatch selects
//! [`super::SimdLevel::Scalar`] these run directly.

use crate::half::{f16_bits_to_f32, f32_to_f16_bits};
use crate::scalar::Scalar;

/// Vector registers the lane-blocked dot keeps in flight: a block's
/// `UNROLL × lanes` accumulators, with 4 lanes at f64 and 8 at f32
/// (the AVX2 widths; fp16 operands accumulate in f32).
pub const UNROLL: usize = 4;

/// The repo's one deterministic local reduction, `Σ widen(x[i]) ·
/// widen(y[i])` accumulated in `A` over `W` accumulators:
///
/// 1. the longest prefix whose length is a multiple of `W` is spread
///    over the accumulators — element `i` always feeds accumulator
///    `i % W`, one fused multiply-add per element in ascending `i`;
/// 2. the accumulators are combined by the pairwise tree of
///    [`lane_fold`] — the same tree `blas` sums the block partials by;
/// 3. the ragged tail is folded into the root in index order.
///
/// The shape depends on the length alone, so the AVX2 kernels (one
/// register per `lanes` accumulators) reproduce it bit for bit.
#[inline]
pub fn lane_dot<T: Copy, A: Scalar, const W: usize>(x: &[T], y: &[T], widen: impl Fn(T) -> A) -> A {
    let m = x.len() - x.len() % W;
    let mut acc = [A::ZERO; W];
    for (xc, yc) in x[..m].chunks_exact(W).zip(y[..m].chunks_exact(W)) {
        for l in 0..W {
            acc[l] = widen(xc[l]).mul_add(widen(yc[l]), acc[l]);
        }
    }
    lane_fold(acc, &x[m..], &y[m..], widen)
}

/// Steps 2–3 of [`lane_dot`], shared verbatim by the vector kernels:
/// neighbours are added level by level (`acc[2l] + acc[2l + 1]`, so
/// `((a0 + a1) + (a2 + a3)) + …` for power-of-two `W`), then the tail
/// `xt · yt` is fused into the root in index order.
#[inline]
pub fn lane_fold<T: Copy, A: Scalar, const W: usize>(
    mut acc: [A; W],
    xt: &[T],
    yt: &[T],
    widen: impl Fn(T) -> A,
) -> A {
    let mut w = W;
    while w > 1 {
        for l in 0..w / 2 {
            acc[l] = acc[2 * l] + acc[2 * l + 1];
        }
        w /= 2;
    }
    xt.iter().zip(yt).fold(acc[0], |s, (&a, &b)| widen(a).mul_add(widen(b), s))
}

/// Lane-blocked f64 dot (4 lanes × [`UNROLL`]).
pub fn dot_f64(x: &[f64], y: &[f64]) -> f64 {
    lane_dot::<_, _, { 4 * UNROLL }>(x, y, |v| v)
}

/// Lane-blocked f32 dot (8 lanes × [`UNROLL`]).
pub fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
    lane_dot::<_, _, { 8 * UNROLL }>(x, y, |v| v)
}

/// Lane-blocked fp16 dot, widened exactly and accumulated in f32.
pub fn dot_f16(x: &[u16], y: &[u16]) -> f32 {
    lane_dot::<_, _, { 8 * UNROLL }>(x, y, f16_bits_to_f32)
}

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

/// Exact f32 → f64 widening.
pub fn widen_f32_f64(src: &[f32], dst: &mut [f64]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = *s as f64;
    }
}

/// f64 → f32 narrowing (round-to-nearest-even).
pub fn narrow_f64_f32(src: &[f64], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = *s as f32;
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
