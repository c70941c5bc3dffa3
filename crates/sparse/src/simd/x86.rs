//! AVX2 + FMA + F16C implementations of the batch primitives and the
//! vectorized motif kernels.
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
//! Every kernel ends with `_mm256_zeroupper()`: rustc does **not**
//! insert `vzeroupper` on `#[target_feature]` function exits, and
//! returning with dirty upper YMM state makes every subsequent legacy
//! SSE/VEX-mixing instruction in the scalar code (including libm's
//! `fma` behind `f64::mul_add`) pay the AVX→SSE state-transition
//! penalty — measured at ~40x on the surrounding scalar loops.
//!
//! Safety contracts (callers — i.e. the dispatch layer — must ensure):
//! every gathered index is in bounds for its base slice, every index
//! fits in `i32` (gathers sign-extend), and the CPU supports
//! avx2+fma+f16c.

use super::portable::{lane_fold, UNROLL};
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
    _mm256_zeroupper();
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
    _mm256_zeroupper();
}

/// Exact f32 → f64 widening (`vcvtps2pd`), 4 lanes at a time.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn widen_f32_f64(src: &[f32], dst: &mut [f64]) {
    let n = dst.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(dp.add(i), _mm256_cvtps_pd(_mm_loadu_ps(sp.add(i))));
        i += 4;
    }
    while i < n {
        *dp.add(i) = *sp.add(i) as f64;
        i += 1;
    }
    _mm256_zeroupper();
}

/// f64 → f32 narrowing (`vcvtpd2ps`, nearest-even), 4 lanes at a time.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn narrow_f64_f32(src: &[f64], dst: &mut [f32]) {
    let n = dst.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        _mm_storeu_ps(dp.add(i), _mm256_cvtpd_ps(_mm256_loadu_pd(sp.add(i))));
        i += 4;
    }
    while i < n {
        *dp.add(i) = *sp.add(i) as f32;
        i += 1;
    }
    _mm256_zeroupper();
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
    _mm256_zeroupper();
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
    _mm256_zeroupper();
}

// ---------------------------------------------------------------------------
// Streaming BLAS-1 kernels. Vector lanes perform exactly the scalar
// expression per element; tails run the scalar expression itself.
// ---------------------------------------------------------------------------

/// `y[i] = fma(alpha, widen(x[i]), y[i])` with f64 accumulation.
macro_rules! axpy_into_f64 {
    ($name:ident, $S:ty, $ld:ident, $wide:ident) => {
        #[target_feature(enable = "avx2,fma,f16c")]
        pub unsafe fn $name(alpha: f64, x: &[$S], y: &mut [f64]) {
            let n = y.len();
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let av = _mm256_set1_pd(alpha);
            let mut i = 0usize;
            while i + 4 <= n {
                let yv = _mm256_loadu_pd(yp.add(i));
                _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(av, $ld(xp.add(i)), yv));
                i += 4;
            }
            while i < n {
                *yp.add(i) = alpha.mul_add($wide(*xp.add(i)), *yp.add(i));
                i += 1;
            }
            _mm256_zeroupper();
        }
    };
}

/// `y[i] = fma(alpha, widen(x[i]), y[i])` with f32 accumulation.
macro_rules! axpy_into_f32 {
    ($name:ident, $S:ty, $ld:ident, $wide:ident) => {
        #[target_feature(enable = "avx2,fma,f16c")]
        pub unsafe fn $name(alpha: f32, x: &[$S], y: &mut [f32]) {
            let n = y.len();
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let av = _mm256_set1_ps(alpha);
            let mut i = 0usize;
            while i + 8 <= n {
                let yv = _mm256_loadu_ps(yp.add(i));
                _mm256_storeu_ps(yp.add(i), _mm256_fmadd_ps(av, $ld(xp.add(i)), yv));
                i += 8;
            }
            while i < n {
                *yp.add(i) = alpha.mul_add($wide(*xp.add(i)), *yp.add(i));
                i += 1;
            }
            _mm256_zeroupper();
        }
    };
}

axpy_into_f64!(axpy_f64_f64, f64, ld4_f64, w64_f64);
axpy_into_f64!(axpy_f32_f64, f32, ld4_f64_from_f32, w64_f32);
axpy_into_f64!(axpy_f16_f64, u16, ld4_f64_from_f16, w64_f16);
axpy_into_f32!(axpy_f32_f32, f32, ld8_f32, w32_f32);

// ---------------------------------------------------------------------------
// The lane-blocked dot of `portable::lane_dot`: `UNROLL` registers of
// `lanes` accumulators, register `u` lane `l` holding accumulator
// `u·lanes + l`, so element `i` of the main part feeds accumulator
// `i % (UNROLL·lanes)` exactly as in the definition. The registers are
// spilled to that accumulator array and finished by the shared
// `portable::lane_fold` (pairwise tree, then the tail).
// ---------------------------------------------------------------------------

macro_rules! lane_dot {
    ($name:ident, $S:ty, $Acc:ty, $lanes:literal, $zero:ident, $fma:ident, $st:ident, $ld:ident, $wide:ident) => {
        /// # Safety
        /// `x.len() == y.len()`.
        #[target_feature(enable = "avx2,fma,f16c")]
        pub unsafe fn $name(x: &[$S], y: &[$S]) -> $Acc {
            const W: usize = UNROLL * $lanes;
            let m = x.len() - x.len() % W;
            let (xp, yp) = (x.as_ptr(), y.as_ptr());
            let mut r = [$zero(); UNROLL];
            let mut i = 0usize;
            while i < m {
                for (u, ru) in r.iter_mut().enumerate() {
                    let o = i + u * $lanes;
                    *ru = $fma($ld(xp.add(o)), $ld(yp.add(o)), *ru);
                }
                i += W;
            }
            let mut acc = [0.0 as $Acc; W];
            for (u, ru) in r.iter().enumerate() {
                $st(acc.as_mut_ptr().add(u * $lanes), *ru);
            }
            _mm256_zeroupper();
            lane_fold(acc, &x[m..], &y[m..], $wide)
        }
    };
}

lane_dot!(
    dot_f64,
    f64,
    f64,
    4,
    _mm256_setzero_pd,
    _mm256_fmadd_pd,
    _mm256_storeu_pd,
    ld4_f64,
    w64_f64
);
lane_dot!(
    dot_f32,
    f32,
    f32,
    8,
    _mm256_setzero_ps,
    _mm256_fmadd_ps,
    _mm256_storeu_ps,
    ld8_f32,
    w32_f32
);
lane_dot!(
    dot_f16,
    u16,
    f32,
    8,
    _mm256_setzero_ps,
    _mm256_fmadd_ps,
    _mm256_storeu_ps,
    ld8_f32_from_f16,
    w32_f16
);

/// `w = alpha*x + beta*y` in f64: two rounded multiplies and one
/// rounded add per element — exactly the scalar
/// `(alpha * x).mul_add(ONE, beta * y)` (the `* ONE` is exact).
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn waxpby_f64(alpha: f64, x: &[f64], beta: f64, y: &[f64], w: &mut [f64]) {
    let n = w.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let wp = w.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let bv = _mm256_set1_pd(beta);
    let mut i = 0usize;
    while i + 4 <= n {
        let t = _mm256_add_pd(
            _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            _mm256_mul_pd(bv, _mm256_loadu_pd(yp.add(i))),
        );
        _mm256_storeu_pd(wp.add(i), t);
        i += 4;
    }
    while i < n {
        *wp.add(i) = (alpha * *xp.add(i)).mul_add(1.0, beta * *yp.add(i));
        i += 1;
    }
    _mm256_zeroupper();
}

/// `w = alpha*x + beta*y` in f32 (see [`waxpby_f64`]).
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn waxpby_f32(alpha: f32, x: &[f32], beta: f32, y: &[f32], w: &mut [f32]) {
    let n = w.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let wp = w.as_mut_ptr();
    let av = _mm256_set1_ps(alpha);
    let bv = _mm256_set1_ps(beta);
    let mut i = 0usize;
    while i + 8 <= n {
        let t = _mm256_add_ps(
            _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))),
            _mm256_mul_ps(bv, _mm256_loadu_ps(yp.add(i))),
        );
        _mm256_storeu_ps(wp.add(i), t);
        i += 8;
    }
    while i < n {
        *wp.add(i) = (alpha * *xp.add(i)).mul_add(1.0, beta * *yp.add(i));
        i += 1;
    }
    _mm256_zeroupper();
}

/// `x *= alpha` in f64.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn scal_f64(alpha: f64, x: &mut [f64]) {
    let n = x.len();
    let xp = x.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), av));
        i += 4;
    }
    while i < n {
        *xp.add(i) *= alpha;
        i += 1;
    }
    _mm256_zeroupper();
}

/// `x *= alpha` in f32.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn scal_f32(alpha: f32, x: &mut [f32]) {
    let n = x.len();
    let xp = x.as_mut_ptr();
    let av = _mm256_set1_ps(alpha);
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(xp.add(i), _mm256_mul_ps(_mm256_loadu_ps(xp.add(i)), av));
        i += 8;
    }
    while i < n {
        *xp.add(i) *= alpha;
        i += 1;
    }
    _mm256_zeroupper();
}

/// `lo = hi * alpha` with `lo` in f64 (the identity "narrowing" of
/// `scale_f64_into_lo::<f64>`: one rounded multiply).
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn scale_f64_to_f64(alpha: f64, hi: &[f64], lo: &mut [f64]) {
    let n = lo.len();
    let hp = hi.as_ptr();
    let lp = lo.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(lp.add(i), _mm256_mul_pd(_mm256_loadu_pd(hp.add(i)), av));
        i += 4;
    }
    while i < n {
        *lp.add(i) = *hp.add(i) * alpha;
        i += 1;
    }
    _mm256_zeroupper();
}

/// `lo = (hi * alpha) as f32`: rounded f64 multiply, then one
/// nearest-even narrowing — the scalar `f32::from_f64(h * alpha)`.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn scale_f64_to_f32(alpha: f64, hi: &[f64], lo: &mut [f32]) {
    let n = lo.len();
    let hp = hi.as_ptr();
    let lp = lo.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        let t = _mm256_mul_pd(_mm256_loadu_pd(hp.add(i)), av);
        _mm_storeu_ps(lp.add(i), _mm256_cvtpd_ps(t));
        i += 4;
    }
    while i < n {
        *lp.add(i) = (*hp.add(i) * alpha) as f32;
        i += 1;
    }
    _mm256_zeroupper();
}

/// `lo = Half::from_f64(hi * alpha)` bits: rounded f64 multiply, then
/// the f64 → f32 → f16 double rounding of `Half::from_f64`.
#[target_feature(enable = "avx2,fma,f16c")]
pub unsafe fn scale_f64_to_f16(alpha: f64, hi: &[f64], lo: &mut [u16]) {
    let n = lo.len();
    let hp = hi.as_ptr();
    let lp = lo.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0usize;
    while i + 4 <= n {
        let t = _mm256_mul_pd(_mm256_loadu_pd(hp.add(i)), av);
        let ps = _mm256_cvtpd_ps(t);
        _mm_storel_epi64(lp.add(i) as *mut __m128i, _mm_cvtps_ph::<ROUND_NE>(ps));
        i += 4;
    }
    while i < n {
        *lp.add(i) = f32_to_f16_bits((*hp.add(i) * alpha) as f32);
        i += 1;
    }
    _mm256_zeroupper();
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
        _mm256_zeroupper();
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
