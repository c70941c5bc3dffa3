//! AVX2 + FMA + F16C implementations of the batch converters and the
//! ELL tile kernel: the kernels that need an instruction LLVM does not
//! emit from plain stable Rust (`vcvtph2ps`/`vcvtps2ph`, the gathers).
//!
//! Every function here carries `#[target_feature(enable = "avx2,fma,f16c")]`
//! and must only be reached through the dispatch layer in [`super`],
//! which verifies the features at runtime. The kernels are written to
//! be **bit-identical** to their scalar counterparts for non-NaN data:
//!
//! * row groups are vectorized *across* rows — each lane owns one row's
//!   accumulator and performs exactly the scalar sequence of fused
//!   multiply-adds in ascending slab order (`vfmadd` fuses like
//!   `f64::mul_add`),
//! * widening conversions (`vcvtph2ps`, `vcvtps2pd`) are exact, and the
//!   narrowing ones (`vcvtpd2ps`, `vcvtps2ph`) round to nearest-even —
//!   the same rounding as `as f32` / `f32_to_f16_bits` for every finite
//!   and infinite value (NaN *payload* bits may differ; the software
//!   narrower canonicalizes, the hardware one preserves),
//! * the add/mul lanes are IEEE correctly-rounded, matching the scalar
//!   operators.
//!
//! Loose tails (`len % lane_count`) always run the same scalar
//! expressions as the portable fallback.
//!
//! No kernel clears the upper ymm halves itself: LLVM puts a
//! `vzeroupper` before every return that would leave them dirty, which
//! `scripts/asm_check.sh` checks for each kernel here.
//!
//! Safety contracts (callers — i.e. the dispatch layer — must ensure):
//! every gathered index is in bounds for its base slice, every index
//! fits in `i32` (gathers sign-extend), and the CPU supports
//! avx2+fma+f16c.

use super::reads_slab;
use crate::half::{f16_bits_to_f32, f32_to_f16_bits};
use core::arch::x86_64::*;

/// Rounding control for `vcvtps2ph`: round to nearest even — the
/// rounding `f32_to_f16_bits` implements. (The 3-bit immediate has no
/// room for `_MM_FROUND_NO_EXC`; conversion never traps here anyway.)
const ROUND_NE: i32 = _MM_FROUND_TO_NEAREST_INT;

// ---------------------------------------------------------------------------
// Scalar widening helpers for loop tails (exact; same arithmetic as
// `Acc::from_scalar` for the corresponding type pair).
// ---------------------------------------------------------------------------

#[inline(always)]
fn w64_f64(v: f64) -> f64 {
    v
}
#[inline(always)]
fn w64_f32(v: f32) -> f64 {
    v as f64
}
#[inline(always)]
fn w64_f16(v: u16) -> f64 {
    f16_bits_to_f32(v) as f64
}
#[inline(always)]
fn w32_f32(v: f32) -> f32 {
    v
}
#[inline(always)]
fn w32_f16(v: u16) -> f32 {
    f16_bits_to_f32(v)
}
#[inline(always)]
fn w32_f64(v: f64) -> f32 {
    v as f32
}

// ---------------------------------------------------------------------------
// Contiguous widening loads: `lane_count` stored values → one Acc vector.
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn ld4_f64(p: *const f64) -> __m256d {
    _mm256_loadu_pd(p)
}

#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn ld4_f64_from_f32(p: *const f32) -> __m256d {
    _mm256_cvtps_pd(_mm_loadu_ps(p))
}

#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn ld4_f64_from_f16(p: *const u16) -> __m256d {
    _mm256_cvtps_pd(_mm_cvtph_ps(_mm_loadl_epi64(p as *const __m128i)))
}

#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn ld8_f32(p: *const f32) -> __m256 {
    _mm256_loadu_ps(p)
}

#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn ld8_f32_from_f16(p: *const u16) -> __m256 {
    _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i))
}

#[target_feature(enable = "avx2,fma,f16c")]
#[inline]
unsafe fn ld8_f32_from_f64(p: *const f64) -> __m256 {
    let lo = _mm256_cvtpd_ps(_mm256_loadu_pd(p));
    let hi = _mm256_cvtpd_ps(_mm256_loadu_pd(p.add(4)));
    _mm256_set_m128(hi, lo)
}

// ---------------------------------------------------------------------------
// Batch conversions (the primitives the wire encoder, `half.rs` slice
// helpers, and `convert_slice` ride on).
// ---------------------------------------------------------------------------

/// Exact fp16 → f32 widening (`vcvtph2ps`), 8 lanes at a time.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn widen_f16_f32(src: &[u16], dst: &mut [f32]) {
    let n = dst.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
        _mm256_storeu_ps(dp.add(i), _mm256_cvtph_ps(h));
        i += 8;
    }
    while i < n {
        *dp.add(i) = f16_bits_to_f32(*sp.add(i));
        i += 1;
    }
}

/// f32 → fp16 narrowing (`vcvtps2ph`, nearest-even), 8 lanes at a time.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn narrow_f32_f16(src: &[f32], dst: &mut [u16]) {
    let n = dst.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(sp.add(i));
        _mm_storeu_si128(dp.add(i) as *mut __m128i, _mm256_cvtps_ph::<ROUND_NE>(v));
        i += 8;
    }
    while i < n {
        *dp.add(i) = f32_to_f16_bits(*sp.add(i));
        i += 1;
    }
}

/// Exact fp16 → f64 widening (two exact steps), 4 lanes at a time.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn widen_f16_f64(src: &[u16], dst: &mut [f64]) {
    let n = dst.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(dp.add(i), ld4_f64_from_f16(sp.add(i)));
        i += 4;
    }
    while i < n {
        *dp.add(i) = w64_f16(*sp.add(i));
        i += 1;
    }
}

/// f64 → fp16 narrowing, the same f64 → f32 → f16 double rounding as
/// `Half::from_f64`, 4 lanes at a time.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn narrow_f64_f16(src: &[f64], dst: &mut [u16]) {
    let n = dst.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        let ps = _mm256_cvtpd_ps(_mm256_loadu_pd(sp.add(i)));
        _mm_storel_epi64(dp.add(i) as *mut __m128i, _mm_cvtps_ph::<ROUND_NE>(ps));
        i += 4;
    }
    while i < n {
        *dp.add(i) = f32_to_f16_bits(*sp.add(i) as f32);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// ELL tile: `acc[j] = Σ_k fma(widen(vs[k·stride + j]), x[cs[k·stride + j]])`
// for a run of consecutive positions — every slab's segment of the
// tile, ascending `k`, in one call. Four (f64) / eight (f32) positions
// advance together, each lane holding its own row's accumulator in a
// register across all slabs, so per-row rounding order is that of the
// scalar walk.
// ---------------------------------------------------------------------------

/// The row loop of one tile, with `$slabs` the slabs to read (an
/// iterator expression, evaluated once per row group).
macro_rules! ell_tile_rows {
    ($vs:ident, $cs:ident, $stride:ident, $x:ident, $acc:ident, $slabs:expr,
     $lanes:literal, $zero:ident, $gather:ident, $fmadd:ident, $store:ident, $ld:ident, $wide:ident,
     $T:ty) => {{
        let len = $acc.len();
        let (xp, vp, cp, yp) = ($x.as_ptr(), $vs.as_ptr(), $cs.as_ptr(), $acc.as_mut_ptr());
        let mut j = 0usize;
        while j + $lanes <= len {
            let mut a = $zero();
            for k in $slabs {
                let o = k * $stride + j;
                a = $fmadd($ld(vp.add(o)), $gather!(xp, cp.add(o)), a);
            }
            $store(yp.add(j), a);
            j += $lanes;
        }
        while j < len {
            let mut a: $T = 0.0;
            for k in $slabs {
                let o = k * $stride + j;
                a = $wide(*vp.add(o)).mul_add(*xp.add(*cp.add(o) as usize), a);
            }
            *yp.add(j) = a;
            j += 1;
        }
    }};
}

/// Gather four `f64` at the indices `c[0..4]`.
macro_rules! gather4_f64 {
    ($xp:expr, $c:expr) => {
        _mm256_i32gather_pd::<8>($xp, _mm_loadu_si128($c as *const __m128i))
    };
}

/// Gather eight `f32` at the indices `c[0..8]`.
macro_rules! gather8_f32 {
    ($xp:expr, $c:expr) => {
        _mm256_i32gather_ps::<4>($xp, _mm256_loadu_si256($c as *const __m256i))
    };
}

macro_rules! ell_tile_into_f64 {
    ($name:ident, $S:ty, $ld:ident, $wide:ident) => {
        /// # Safety
        /// With `len = acc.len()` and `width > 0`: `vs` and `cs` hold at
        /// least `(width - 1) * stride + len` entries, every
        /// `cs[k * stride + j]` (`k < width`, `j < len`) is `< x.len()`,
        /// and `x.len() <= i32::MAX`. Only the slabs `mask` selects are
        /// read ([`reads_slab`]); the full pass keeps a plain slab loop.
        #[target_feature(enable = "avx2,fma,f16c")]
        pub unsafe fn $name(
            vs: &[$S],
            cs: &[u32],
            stride: usize,
            width: usize,
            mask: u32,
            x: &[f64],
            acc: &mut [f64],
        ) {
            if mask == u32::MAX {
                ell_tile_rows! {
                    vs, cs, stride, x, acc, 0..width,
                    4, _mm256_setzero_pd, gather4_f64, _mm256_fmadd_pd, _mm256_storeu_pd,
                    $ld, $wide, f64
                }
            } else {
                ell_tile_rows! {
                    vs, cs, stride, x, acc, (0..width).filter(|&k| reads_slab(mask, k)),
                    4, _mm256_setzero_pd, gather4_f64, _mm256_fmadd_pd, _mm256_storeu_pd,
                    $ld, $wide, f64
                }
            }
        }
    };
}

macro_rules! ell_tile_into_f32 {
    ($name:ident, $S:ty, $ld:ident, $wide:ident) => {
        /// # Safety
        /// Same contract as the f64-accumulating variant.
        #[target_feature(enable = "avx2,fma,f16c")]
        pub unsafe fn $name(
            vs: &[$S],
            cs: &[u32],
            stride: usize,
            width: usize,
            mask: u32,
            x: &[f32],
            acc: &mut [f32],
        ) {
            if mask == u32::MAX {
                ell_tile_rows! {
                    vs, cs, stride, x, acc, 0..width,
                    8, _mm256_setzero_ps, gather8_f32, _mm256_fmadd_ps, _mm256_storeu_ps,
                    $ld, $wide, f32
                }
            } else {
                ell_tile_rows! {
                    vs, cs, stride, x, acc, (0..width).filter(|&k| reads_slab(mask, k)),
                    8, _mm256_setzero_ps, gather8_f32, _mm256_fmadd_ps, _mm256_storeu_ps,
                    $ld, $wide, f32
                }
            }
        }
    };
}

ell_tile_into_f64!(ell_tile_f64_f64, f64, ld4_f64, w64_f64);
ell_tile_into_f64!(ell_tile_f32_f64, f32, ld4_f64_from_f32, w64_f32);
ell_tile_into_f64!(ell_tile_f16_f64, u16, ld4_f64_from_f16, w64_f16);
ell_tile_into_f32!(ell_tile_f32_f32, f32, ld8_f32, w32_f32);
ell_tile_into_f32!(ell_tile_f16_f32, u16, ld8_f32_from_f16, w32_f16);
ell_tile_into_f32!(ell_tile_f64_f32, f64, ld8_f32_from_f64, w32_f64);
