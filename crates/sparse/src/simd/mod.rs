//! Runtime-dispatched SIMD primitives for the split-precision motif
//! kernels.
//!
//! The dispatch contract:
//!
//! * CPU features (AVX2 / FMA / F16C) are detected once and cached in a
//!   [`OnceLock`]; all three must be present for the vector path.
//! * `HPGMXP_SIMD=auto|avx2|scalar` overrides detection: `auto` (or
//!   unset) picks the best supported path, `scalar` forces the portable
//!   reference path, `avx2` demands the vector path and panics if the
//!   CPU lacks it (a silent fallback would invalidate any benchmark
//!   that claims to have measured it).
//! * Tests and benches can force either path in-process via
//!   [`set_level_override`] without touching the environment.
//!
//! Determinism contract: for `Stored == Acc` kernels the vector path is
//! bit-identical to the scalar path over non-NaN data (lanes own whole
//! rows/elements, every lane op is the IEEE correctly-rounded scalar
//! op). Split `(Stored, Acc)` kernels widen exactly in-register, so
//! they too match the scalar sequence bit-for-bit; the existing
//! eps bounds in the proptests remain valid unchanged.
//!
//! This layer also owns the *shape* of every dot product: [`lane_dot`]
//! is the one per-block reduction (`portable::lane_dot` defines it,
//! the AVX2 kernels reproduce it), and `blas::dot`/`dot_par`/
//! `Basis::project_local` combine its `DOT_BLOCK` partials by a
//! pairwise tree shaped by the length alone — so neither the dispatch
//! level nor the thread count moves a bit. The per-motif byte counters
//! are not touched by this layer.
//!
//! Every `try_*` kernel returns `false` when dispatch (or a safety
//! precondition) rules the vector path out — callers keep their scalar
//! loop as the fallback arm, which doubles as the reference
//! implementation.

pub mod portable;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::half::Half;
use crate::scalar::Scalar;
use core::any::TypeId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel family runtime dispatch selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar reference path.
    Scalar,
    /// AVX2 + FMA + F16C vector path.
    Avx2,
}

impl SimdLevel {
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// CPU features relevant to the vector kernels, as detected at runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    pub avx2: bool,
    pub fma: bool,
    pub f16c: bool,
}

impl CpuFeatures {
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
                f16c: std::arch::is_x86_feature_detected!("f16c"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures::default()
        }
    }

    /// The vector path needs all of AVX2 (gathers), FMA (fused lanes
    /// matching `mul_add`), and F16C (fp16 converts).
    pub fn supports_avx2_path(self) -> bool {
        self.avx2 && self.fma && self.f16c
    }

    /// Compact rendering for host metadata, e.g. `"avx2+fma+f16c"`.
    pub fn summary(self) -> String {
        let mut parts = Vec::new();
        if self.avx2 {
            parts.push("avx2");
        }
        if self.fma {
            parts.push("fma");
        }
        if self.f16c {
            parts.push("f16c");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

struct Resolved {
    features: CpuFeatures,
    level: SimdLevel,
    env: Option<String>,
}

fn resolved() -> &'static Resolved {
    static RESOLVED: OnceLock<Resolved> = OnceLock::new();
    RESOLVED.get_or_init(|| {
        let features = CpuFeatures::detect();
        let env = std::env::var("HPGMXP_SIMD").ok().filter(|v| !v.is_empty());
        let level = match env.as_deref() {
            None | Some("auto") => {
                if features.supports_avx2_path() {
                    SimdLevel::Avx2
                } else {
                    SimdLevel::Scalar
                }
            }
            Some("scalar") => SimdLevel::Scalar,
            Some("avx2") => {
                assert!(
                    features.supports_avx2_path(),
                    "HPGMXP_SIMD=avx2 requested but CPU features are {} (need avx2+fma+f16c)",
                    features.summary()
                );
                SimdLevel::Avx2
            }
            Some(other) => {
                panic!("HPGMXP_SIMD={other:?} not understood (expected auto|avx2|scalar)")
            }
        };
        Resolved { features, level, env }
    })
}

/// In-process dispatch override: 0 = none, 1 = scalar, 2 = avx2.
/// Checked before the environment-resolved level so tests and benches
/// can exercise both paths in one run.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The detected CPU feature set (cached).
pub fn features() -> CpuFeatures {
    resolved().features
}

/// The `HPGMXP_SIMD` value the dispatch was resolved from, if set.
pub fn env_override() -> Option<&'static str> {
    resolved().env.as_deref()
}

/// The kernel family every `try_*` entry point will use right now.
pub fn level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        _ => resolved().level,
    }
}

/// Force a dispatch level in-process (tests/benches), or `None` to
/// return to the environment-resolved level. Panics if `Avx2` is
/// forced on a CPU without the features. Global: callers that flip it
/// concurrently must serialize (the test suites hold a mutex).
pub fn set_level_override(level: Option<SimdLevel>) {
    let v = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Avx2) => {
            assert!(
                CpuFeatures::detect().supports_avx2_path(),
                "cannot force the avx2 path: CPU features are {}",
                CpuFeatures::detect().summary()
            );
            2
        }
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// Hardware gathers sign-extend i32 element indices, so any slice we
/// gather from must be indexable by i32.
const MAX_GATHER_LEN: usize = i32::MAX as usize;

// ---------------------------------------------------------------------------
// TypeId-based slice views: resolve the generic `Scalar` parameter to a
// concrete lane type on stable Rust. `Half` is `#[repr(transparent)]`
// over `u16`, so a `&[Half]` reinterprets soundly as `&[u16]`.
// ---------------------------------------------------------------------------

#[inline(always)]
fn is<S: Scalar, T: 'static>() -> bool {
    TypeId::of::<S>() == TypeId::of::<T>()
}

macro_rules! slice_view {
    ($name:ident, $name_mut:ident, $Marker:ty, $Lane:ty) => {
        #[inline(always)]
        fn $name<S: Scalar>(x: &[S]) -> Option<&[$Lane]> {
            if is::<S, $Marker>() {
                // SAFETY: S is exactly $Marker, whose layout is $Lane
                // (identical type, or repr(transparent) for Half/u16).
                Some(unsafe { core::slice::from_raw_parts(x.as_ptr() as *const $Lane, x.len()) })
            } else {
                None
            }
        }
        #[inline(always)]
        fn $name_mut<S: Scalar>(x: &mut [S]) -> Option<&mut [$Lane]> {
            if is::<S, $Marker>() {
                // SAFETY: as above, and the &mut borrow is carried over.
                Some(unsafe {
                    core::slice::from_raw_parts_mut(x.as_mut_ptr() as *mut $Lane, x.len())
                })
            } else {
                None
            }
        }
    };
}

slice_view!(as_f64s, as_f64s_mut, f64, f64);
slice_view!(as_f32s, as_f32s_mut, f32, f32);
slice_view!(as_f16s, as_f16s_mut, Half, u16);

// ---------------------------------------------------------------------------
// Batch conversions. These always produce the portable path's bits for
// non-NaN inputs regardless of dispatch level.
// ---------------------------------------------------------------------------

macro_rules! dispatch_convert {
    ($name:ident, $Src:ty, $Dst:ty) => {
        #[doc = concat!("Batch `", stringify!($name), "`; dispatch-independent bits for non-NaN data.")]
        pub fn $name(src: &[$Src], dst: &mut [$Dst]) {
            assert_eq!(src.len(), dst.len());
            #[cfg(target_arch = "x86_64")]
            if level() == SimdLevel::Avx2 {
                // SAFETY: features verified by `level()`; slices are
                // equal-length and contiguous.
                unsafe { x86::$name(src, dst) };
                return;
            }
            portable::$name(src, dst);
        }
    };
}

dispatch_convert!(widen_f16_f32, u16, f32);
dispatch_convert!(narrow_f32_f16, f32, u16);
dispatch_convert!(widen_f32_f64, f32, f64);
dispatch_convert!(narrow_f64_f32, f64, f32);
dispatch_convert!(widen_f16_f64, u16, f64);
dispatch_convert!(narrow_f64_f16, f64, u16);

/// Batch `dst[i] = Dst::from_scalar(src[i])` for every shipped
/// `(Src, Dst)` precision pair. Returns `false` for combinations with
/// no batch kernel (the caller runs its scalar loop).
pub fn convert_slice_fast<Src: Scalar, Dst: Scalar>(src: &[Src], dst: &mut [Dst]) -> bool {
    assert_eq!(src.len(), dst.len());
    // Identity: plain copy (for non-NaN data `from_f64(to_f64(v))` is
    // the identity on every shipped scalar).
    if is::<Src, f64>() && is::<Dst, f64>() {
        as_f64s_mut(dst).unwrap().copy_from_slice(as_f64s(src).unwrap());
        return true;
    }
    if is::<Src, f32>() && is::<Dst, f32>() {
        as_f32s_mut(dst).unwrap().copy_from_slice(as_f32s(src).unwrap());
        return true;
    }
    if is::<Src, Half>() && is::<Dst, Half>() {
        as_f16s_mut(dst).unwrap().copy_from_slice(as_f16s(src).unwrap());
        return true;
    }
    if let (Some(s), Some(d)) = (as_f16s(src), as_f32s_mut(dst)) {
        widen_f16_f32(s, d);
        return true;
    }
    if let (Some(s), Some(d)) = (as_f32s(src), as_f16s_mut(dst)) {
        narrow_f32_f16(s, d);
        return true;
    }
    if let (Some(s), Some(d)) = (as_f32s(src), as_f64s_mut(dst)) {
        widen_f32_f64(s, d);
        return true;
    }
    if let (Some(s), Some(d)) = (as_f64s(src), as_f32s_mut(dst)) {
        narrow_f64_f32(s, d);
        return true;
    }
    if let (Some(s), Some(d)) = (as_f16s(src), as_f64s_mut(dst)) {
        widen_f16_f64(s, d);
        return true;
    }
    if let (Some(s), Some(d)) = (as_f64s(src), as_f16s_mut(dst)) {
        narrow_f64_f16(s, d);
        return true;
    }
    false
}

// ---------------------------------------------------------------------------
// The one local reduction.
// ---------------------------------------------------------------------------

macro_rules! dispatch_dot {
    ($name:ident, $T:ty, $Acc:ty) => {
        fn $name(x: &[$T], y: &[$T]) -> $Acc {
            #[cfg(target_arch = "x86_64")]
            if level() == SimdLevel::Avx2 {
                // SAFETY: features verified by `level()`; `lane_dot`
                // checked the lengths are equal.
                return unsafe { x86::$name(x, y) };
            }
            portable::$name(x, y)
        }
    };
}

dispatch_dot!(dot_f64, f64, f64);
dispatch_dot!(dot_f32, f32, f32);
dispatch_dot!(dot_f16, u16, f32);

/// `x · y` over one block in the lane-blocked shape of
/// [`portable::lane_dot`]: 16 f64 or 32 f32 accumulators, fp16
/// operands widened into f32 and the result narrowed once. The same
/// bits on every dispatch level; callers keep blocks at most
/// `blas::DOT_BLOCK` long and combine them pairwise.
pub fn lane_dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len());
    if let (Some(a), Some(b)) = (as_f64s(x), as_f64s(y)) {
        return S::from_f64(dot_f64(a, b));
    }
    if let (Some(a), Some(b)) = (as_f32s(x), as_f32s(y)) {
        return S::from_f64(dot_f32(a, b) as f64);
    }
    if let (Some(a), Some(b)) = (as_f16s(x), as_f16s(y)) {
        return S::from_f64(dot_f16(a, b) as f64);
    }
    // Any other precision: the same shape in its own arithmetic.
    portable::lane_dot::<_, _, 16>(x, y, |v| v)
}

// ---------------------------------------------------------------------------
// Streaming BLAS-1 entry points.
// ---------------------------------------------------------------------------

/// Vectorized `y[i] = alpha.mul_add(x[i], y[i])` over `y.len()`
/// elements (uniform precision). Bit-identical to the scalar loop.
pub fn try_axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if level() != SimdLevel::Avx2 || x.len() < y.len() {
            return false;
        }
        if let Some(yv) = as_f64s_mut(y) {
            let n = yv.len();
            // SAFETY: avx2+fma+f16c verified; x covers y's length.
            unsafe { x86::axpy_f64_f64(alpha.to_f64(), &as_f64s(x).unwrap()[..n], yv) };
            return true;
        }
        if let Some(yv) = as_f32s_mut(y) {
            let n = yv.len();
            // SAFETY: as above.
            unsafe { x86::axpy_f32_f32(alpha.to_f64() as f32, &as_f32s(x).unwrap()[..n], yv) };
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (alpha, x, y);
        false
    }
}

/// Vectorized `y[i] = alpha.mul_add(x[i].to_f64(), y[i])`: the
/// widening axpy of `axpy_lo_into_f64`.
pub fn try_axpy_into_f64<Lo: Scalar>(alpha: f64, x: &[Lo], y: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if level() != SimdLevel::Avx2 || x.len() < y.len() {
            return false;
        }
        let n = y.len();
        // SAFETY (all arms): features verified; x covers y's length.
        if let Some(xv) = as_f64s(x) {
            unsafe { x86::axpy_f64_f64(alpha, &xv[..n], y) };
            return true;
        }
        if let Some(xv) = as_f32s(x) {
            unsafe { x86::axpy_f32_f64(alpha, &xv[..n], y) };
            return true;
        }
        if let Some(xv) = as_f16s(x) {
            unsafe { x86::axpy_f16_f64(alpha, &xv[..n], y) };
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (alpha, x, y);
        false
    }
}

/// Vectorized `w[i] = (alpha * x[i]).mul_add(ONE, beta * y[i])` over
/// `w.len()` elements. Bit-identical to the scalar loop (the `* ONE`
/// is exact, so fma(a*x, 1, b*y) == a*x + b*y lane-wise).
pub fn try_waxpby<S: Scalar>(alpha: S, x: &[S], beta: S, y: &[S], w: &mut [S]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if level() != SimdLevel::Avx2 || x.len() < w.len() || y.len() < w.len() {
            return false;
        }
        if let Some(wv) = as_f64s_mut(w) {
            let n = wv.len();
            // SAFETY: features verified; x and y cover w's length.
            unsafe {
                x86::waxpby_f64(
                    alpha.to_f64(),
                    &as_f64s(x).unwrap()[..n],
                    beta.to_f64(),
                    &as_f64s(y).unwrap()[..n],
                    wv,
                )
            };
            return true;
        }
        if let Some(wv) = as_f32s_mut(w) {
            let n = wv.len();
            // SAFETY: as above.
            unsafe {
                x86::waxpby_f32(
                    alpha.to_f64() as f32,
                    &as_f32s(x).unwrap()[..n],
                    beta.to_f64() as f32,
                    &as_f32s(y).unwrap()[..n],
                    wv,
                )
            };
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (alpha, x, beta, y, w);
        false
    }
}

/// Vectorized `x[i] *= alpha`. Bit-identical to the scalar loop.
pub fn try_scal<S: Scalar>(alpha: S, x: &mut [S]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if level() != SimdLevel::Avx2 {
            return false;
        }
        if let Some(xv) = as_f64s_mut(x) {
            // SAFETY: features verified.
            unsafe { x86::scal_f64(alpha.to_f64(), xv) };
            return true;
        }
        if let Some(xv) = as_f32s_mut(x) {
            // SAFETY: features verified.
            unsafe { x86::scal_f32(alpha.to_f64() as f32, xv) };
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (alpha, x);
        false
    }
}

/// Vectorized `lo[i] = Lo::from_f64(hi[i] * alpha)`: the narrowing
/// scale of `scale_f64_into_lo`.
pub fn try_scale_narrow<Lo: Scalar>(alpha: f64, hi: &[f64], lo: &mut [Lo]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if level() != SimdLevel::Avx2 || hi.len() < lo.len() {
            return false;
        }
        let n = lo.len();
        // SAFETY (all arms): features verified; hi covers lo's length.
        if let Some(lv) = as_f64s_mut(lo) {
            unsafe { x86::scale_f64_to_f64(alpha, &hi[..n], lv) };
            return true;
        }
        if let Some(lv) = as_f32s_mut(lo) {
            unsafe { x86::scale_f64_to_f32(alpha, &hi[..n], lv) };
            return true;
        }
        if let Some(lv) = as_f16s_mut(lo) {
            unsafe { x86::scale_f64_to_f16(alpha, &hi[..n], lv) };
            return true;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (alpha, hi, lo);
        false
    }
}

// ---------------------------------------------------------------------------
// ELL kernel entry points.
// ---------------------------------------------------------------------------

/// Vectorized row dots of one ELL tile — the kernel under every ELL
/// traversal, SpMV and Gauss–Seidel alike:
/// `acc[j] = Σ_k widen(vs[k * stride + j]) * x[cs[k * stride + j]]` for
/// `j < acc.len()`, `k` ascending from zero over `width` slabs (`vs`
/// and `cs` start at the tile's first position of slab 0). The vector
/// path keeps each row's accumulator in a register across the slabs,
/// with the scalar walk's per-row operation sequence. Lengths are
/// checked here.
///
/// # Safety
/// Every column index the tile reads, `cs[k * stride + j]` for
/// `k < width` and `j < acc.len()`, must be `< x.len()`.
pub(crate) unsafe fn try_ell_tile<S: Scalar, Acc: Scalar>(
    vs: &[S],
    cs: &[u32],
    stride: usize,
    width: usize,
    x: &[Acc],
    acc: &mut [Acc],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if level() != SimdLevel::Avx2 || x.len() > MAX_GATHER_LEN {
            return false;
        }
        // The tile reads slots up to `(width - 1) * stride + len - 1`.
        let need =
            width.saturating_sub(1).checked_mul(stride).and_then(|e| e.checked_add(acc.len()));
        match need {
            Some(need) if width > 0 && vs.len() >= need && cs.len() >= need => {}
            _ => return false,
        }
        if let Some(av) = as_f64s_mut(acc) {
            let xv = as_f64s(x).unwrap();
            // SAFETY (all arms): features verified; vs/cs cover every
            // slot the tile reads (checked above); every index read is
            // `< x.len() <= i32::MAX` by the caller's contract.
            if let Some(v) = as_f64s(vs) {
                unsafe { x86::ell_tile_f64_f64(v, cs, stride, width, xv, av) };
                return true;
            }
            if let Some(v) = as_f32s(vs) {
                unsafe { x86::ell_tile_f32_f64(v, cs, stride, width, xv, av) };
                return true;
            }
            if let Some(v) = as_f16s(vs) {
                unsafe { x86::ell_tile_f16_f64(v, cs, stride, width, xv, av) };
                return true;
            }
            return false;
        }
        if let Some(av) = as_f32s_mut(acc) {
            let xv = as_f32s(x).unwrap();
            if let Some(v) = as_f32s(vs) {
                unsafe { x86::ell_tile_f32_f32(v, cs, stride, width, xv, av) };
                return true;
            }
            if let Some(v) = as_f16s(vs) {
                unsafe { x86::ell_tile_f16_f32(v, cs, stride, width, xv, av) };
                return true;
            }
            if let Some(v) = as_f64s(vs) {
                unsafe { x86::ell_tile_f64_f32(v, cs, stride, width, xv, av) };
                return true;
            }
            return false;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (vs, cs, stride, width, x, acc);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f16_inputs() -> Vec<u16> {
        // Every finite/infinite bit pattern (NaNs excluded: payload
        // bits legitimately differ between software and hardware).
        (0u16..=u16::MAX)
            .filter(|&b| {
                let exp = (b >> 10) & 0x1f;
                let man = b & 0x3ff;
                !(exp == 0x1f && man != 0)
            })
            .collect()
    }

    fn f32_inputs() -> Vec<f32> {
        let mut v: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1.5,
            65504.0,
            65520.0,
            -65520.0,
            1e-8,
            -1e-8,
            6.1e-5,
            5.96e-8,
            2.98e-8,
            3.0e-8,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::EPSILON,
        ];
        // Deterministic pseudo-random sweep over the f32 bit space.
        let mut s = 0x2545f491u32;
        for _ in 0..4096 {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            let f = f32::from_bits(s);
            if f.is_nan() {
                continue;
            }
            v.push(f);
        }
        v
    }

    fn f64_inputs() -> Vec<f64> {
        let mut v: Vec<f64> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e300,
            -1e300,
            1e-300,
            65519.999,
            65520.0,
            65520.0001,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0f64.powi(-150),
        ];
        let mut s = 0x9e3779b97f4a7c15u64;
        for _ in 0..4096 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let f = f64::from_bits(s);
            if f.is_nan() {
                continue;
            }
            v.push(f);
        }
        v
    }

    /// The six vector converters must reproduce the portable reference
    /// bit-for-bit over non-NaN inputs, at every alignment offset.
    #[test]
    fn x86_converters_match_portable_bitwise() {
        if !CpuFeatures::detect().supports_avx2_path() {
            eprintln!("skipping: no avx2+fma+f16c on this host");
            return;
        }
        macro_rules! check {
            ($src:expr, $Dst:ty, $f:ident) => {
                let src = $src;
                for off in 0..3usize {
                    let s = &src[off.min(src.len())..];
                    let mut a: Vec<$Dst> = vec![Default::default(); s.len()];
                    let mut b: Vec<$Dst> = vec![Default::default(); s.len()];
                    portable::$f(s, &mut a);
                    unsafe { x86::$f(s, &mut b) };
                    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{} lane {i} (offset {off}): portable {x:?} vs x86 {y:?}",
                            stringify!($f)
                        );
                    }
                }
            };
        }
        trait Bits {
            type B: PartialEq + core::fmt::Debug;
            fn to_bits(&self) -> Self::B;
        }
        impl Bits for u16 {
            type B = u16;
            fn to_bits(&self) -> u16 {
                *self
            }
        }
        impl Bits for f32 {
            type B = u32;
            fn to_bits(&self) -> u32 {
                f32::to_bits(*self)
            }
        }
        impl Bits for f64 {
            type B = u64;
            fn to_bits(&self) -> u64 {
                f64::to_bits(*self)
            }
        }
        check!(f16_inputs(), f32, widen_f16_f32);
        check!(f16_inputs(), f64, widen_f16_f64);
        check!(f32_inputs(), u16, narrow_f32_f16);
        check!(f32_inputs(), f64, widen_f32_f64);
        check!(f64_inputs(), f32, narrow_f64_f32);
        check!(f64_inputs(), u16, narrow_f64_f16);
    }

    #[test]
    fn feature_summary_renders() {
        assert_eq!(CpuFeatures::default().summary(), "none");
        assert_eq!(CpuFeatures { avx2: true, fma: true, f16c: true }.summary(), "avx2+fma+f16c");
    }

    #[test]
    fn convert_slice_fast_covers_all_shipped_pairs() {
        use crate::half::Half;
        let h: Vec<Half> = (0..67).map(|i| Half::from_f32(i as f32 * 0.25 - 4.0)).collect();
        let f: Vec<f32> = (0..67).map(|i| i as f32 * 0.3 - 7.0).collect();
        let d: Vec<f64> = (0..67).map(|i| i as f64 * 0.7 - 11.0).collect();
        macro_rules! pair {
            ($src:expr, $Dst:ty) => {{
                let src = $src;
                let mut fast: Vec<$Dst> = vec![<$Dst as Scalar>::ZERO; src.len()];
                assert!(convert_slice_fast(&src[..], &mut fast));
                for (i, s) in src.iter().enumerate() {
                    let want = <$Dst as Scalar>::from_scalar(*s);
                    assert!(
                        fast[i].to_f64().to_bits() == want.to_f64().to_bits(),
                        "lane {i}: {} vs {}",
                        fast[i].to_f64(),
                        want.to_f64()
                    );
                }
            }};
        }
        pair!(h.clone(), Half);
        pair!(h.clone(), f32);
        pair!(h.clone(), f64);
        pair!(f.clone(), Half);
        pair!(f.clone(), f32);
        pair!(f.clone(), f64);
        pair!(d.clone(), Half);
        pair!(d.clone(), f32);
        pair!(d.clone(), f64);
    }
}
