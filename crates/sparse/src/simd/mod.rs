//! Runtime-dispatched SIMD for the split-precision motif kernels.
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
//! Three kinds of kernel sit behind [`level()`]:
//!
//! * **Plain-Rust bodies** — the BLAS-1 shapes (the lane-blocked
//!   [`lane_dot`] here, and `blas`'s AXPY, WAXPBY, SCAL, widening AXPY and
//!   narrowing scale) and the f32↔f64 batch converters — are each one
//!   body, built twice by `twice!`: under
//!   `#[target_feature(enable = "avx2,fma")]` and for the baseline. There
//!   is no scalar twin to keep in step: the baseline instance *is* the
//!   reference, and the two instances give the same bits.
//! * **The fp16 batch converters** (f16↔f32, f16↔f64) use F16C
//!   intrinsics in `x86.rs` — `f16` is not a stable Rust type, so LLVM
//!   cannot be asked for `vcvtph2ps` — against the references in
//!   [`portable`], bit for bit over every non-NaN input.
//! * **The ELL tile** (`try_ell_tile`) is hand-written AVX2 with
//!   gathers. It returns `false` when dispatch or a length check rules
//!   the vector path out, and its caller's scalar walk is both the
//!   fallback and the reference.
//!
//! Determinism contract: for `Stored == Acc` kernels the vector path is
//! bit-identical to the scalar path over non-NaN data (lanes own whole
//! rows/elements, every lane op is the IEEE correctly-rounded scalar
//! op). Split `(Stored, Acc)` kernels widen exactly in-register, so
//! they too match the scalar sequence bit-for-bit.
//!
//! This layer also owns the *shape* of every dot product: [`lane_dot`]
//! is the one per-block reduction, and `blas::dot`/`dot_par`/
//! `Basis::project_local` combine its `DOT_BLOCK` partials by a
//! pairwise tree shaped by the length alone — so neither the dispatch
//! level nor the thread count moves a bit. The per-motif byte counters
//! are not touched by this layer.

pub mod portable;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::half::Half;
use crate::scalar::{PrecKind, Scalar};
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

// ---------------------------------------------------------------------------
// One plain-Rust body, compiled twice.
// ---------------------------------------------------------------------------

/// Define `fn $name`, generic over `S: Scalar` or not, from one plain-Rust
/// body compiled twice:
/// inside `#[target_feature(enable = "avx2,fma")]`, where LLVM
/// vectorizes it on ymm registers, and for the baseline target.
/// [`level()`] picks the instance at every call, so `HPGMXP_SIMD=scalar`
/// and [`set_level_override`] select the baseline one.
///
/// Both instances compute the same bits: LLVM neither reassociates nor
/// contracts floating-point operations, so the vector lanes run the
/// body's own operation sequence, and `mul_add` is one fused operation
/// in both (`vfmadd`, or libm's `fma` on the baseline).
macro_rules! twice {
    ($(#[$attr:meta])* $vis:vis fn $name:ident $(<$S:ident: Scalar>)?
     ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block) => {
        $(#[$attr])*
        $vis fn $name$(<$S: $crate::Scalar>)?($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body$(<$S: $crate::Scalar>)?($($arg: $ty),*) $(-> $ret)? $body
            #[cfg(target_arch = "x86_64")]
            if $crate::simd::level() == $crate::simd::SimdLevel::Avx2 {
                #[target_feature(enable = "avx2,fma")]
                fn avx2$(<$S: $crate::Scalar>)?($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }
                // SAFETY: `level()` reports Avx2 only on a CPU with avx2 and fma.
                return unsafe { avx2($($arg),*) };
            }
            body($($arg),*)
        }
    };
}
pub(crate) use twice;

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
// Batch conversions. These produce the same bits for non-NaN inputs
// regardless of dispatch level.
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
dispatch_convert!(widen_f16_f64, u16, f64);
dispatch_convert!(narrow_f64_f16, f64, u16);

twice! {
    /// Batch exact f32 → f64 widening (`vcvtps2pd` in the avx2 instance).
    pub fn widen_f32_f64(src: &[f32], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s as f64;
        }
    }
}

twice! {
    /// Batch f64 → f32 narrowing, round to nearest even (`vcvtpd2ps` in
    /// the avx2 instance).
    pub fn narrow_f64_f32(src: &[f64], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s as f32;
        }
    }
}

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
// The lane-blocked dot.
// ---------------------------------------------------------------------------

/// Vector registers the lane-blocked dot keeps in flight.
const UNROLL: usize = 4;

twice! {
    /// `x · y` over one block — the repo's one deterministic local
    /// reduction, `Σ widen(x[i]) · widen(y[i])` over `L × UNROLL`
    /// accumulators: 4 × 4 in f64, 8 × 4 in f32, and fp16 operands
    /// widened exactly into f32 accumulators, the result narrowed once.
    ///
    /// 1. The longest prefix whose length is a multiple of `L × UNROLL`
    ///    is spread over the accumulators: element `i` feeds accumulator
    ///    `i % (L × UNROLL)`, one fused multiply-add per element in
    ///    ascending `i`.
    /// 2. The accumulators are added pairwise, neighbours first
    ///    (`((a0 + a1) + (a2 + a3)) + …`), the tree `blas` sums the block
    ///    partials by.
    /// 3. The ragged tail is fused into the root in index order.
    ///
    /// The shape depends on the length alone. Callers keep blocks at most
    /// `blas::DOT_BLOCK` long and combine them pairwise.
    pub fn lane_dot<S: Scalar>(x: &[S], y: &[S]) -> S {
        assert_eq!(x.len(), y.len());
        match S::KIND {
            PrecKind::F64 => lanes::<S, S, 4>(x, y),
            PrecKind::F32 => lanes::<S, S, 8>(x, y),
            PrecKind::F16 => S::from_scalar(lanes::<S, f32, 8>(x, y)),
        }
    }
}

/// [`lane_dot`] with `L` lanes per register, accumulated in `A`. The
/// `[[A; L]; UNROLL]` accumulators are `UNROLL` ymm registers in the
/// avx2 instance.
#[inline(always)]
fn lanes<T: Scalar, A: Scalar, const L: usize>(x: &[T], y: &[T]) -> A {
    let w = L * UNROLL;
    let m = x.len() - x.len() % w;
    let mut regs = [[A::ZERO; L]; UNROLL];
    for (xc, yc) in x[..m].chunks_exact(w).zip(y[..m].chunks_exact(w)) {
        for (u, reg) in regs.iter_mut().enumerate() {
            for (l, a) in reg.iter_mut().enumerate() {
                let i = u * L + l;
                *a = A::from_scalar(xc[i]).mul_add(A::from_scalar(yc[i]), *a);
            }
        }
    }
    let root = pairwise_root(regs.as_flattened_mut());
    let tail = x[m..].iter().zip(&y[m..]);
    tail.fold(root, |s, (&a, &b)| A::from_scalar(a).mul_add(A::from_scalar(b), s))
}

/// Add a power-of-two count of accumulators level by level, neighbours
/// first, and return the root. Out of line on purpose: inlined after
/// the loop of [`lanes`], LLVM's SLP vectorizer pairs these neighbouring
/// adds with the loop's accumulators and turns its four ymm FMAs into
/// xmm shuffles. Called once per block.
#[inline(never)]
fn pairwise_root<A: Scalar>(acc: &mut [A]) -> A {
    let mut n = acc.len();
    while n > 1 {
        for l in 0..n / 2 {
            acc[l] = acc[2 * l] + acc[2 * l + 1];
        }
        n /= 2;
    }
    acc[0]
}

// ---------------------------------------------------------------------------
// ELL kernel entry points.
// ---------------------------------------------------------------------------

/// Whether a tile traversal under slab mask `mask` reads slab `k`: bit
/// `k` selects slab `k`, and slabs from 32 on are always read, so
/// `u32::MAX` is the full pass at any width.
#[inline(always)]
pub(crate) fn reads_slab(mask: u32, k: usize) -> bool {
    k >= 32 || mask & (1 << k) != 0
}

/// Vectorized row dots of one ELL tile — the kernel under every ELL
/// traversal, SpMV and Gauss–Seidel alike:
/// `acc[j] = Σ_k widen(vs[k * stride + j]) * x[cs[k * stride + j]]` for
/// `j < acc.len()`, `k` ascending from zero over the `width` slabs that
/// `mask` selects ([`reads_slab`]; `vs` and `cs` start at the tile's
/// first position of slab 0). The vector path keeps each row's
/// accumulator in a register across the slabs, with the scalar walk's
/// per-row operation sequence. Lengths are checked here.
///
/// # Safety
/// Every column index the tile reads, `cs[k * stride + j]` for
/// `k < width` and `j < acc.len()`, must be `< x.len()`.
pub(crate) unsafe fn try_ell_tile<S: Scalar, Acc: Scalar>(
    vs: &[S],
    cs: &[u32],
    stride: usize,
    width: usize,
    mask: u32,
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
                unsafe { x86::ell_tile_f64_f64(v, cs, stride, width, mask, xv, av) };
                return true;
            }
            if let Some(v) = as_f32s(vs) {
                unsafe { x86::ell_tile_f32_f64(v, cs, stride, width, mask, xv, av) };
                return true;
            }
            if let Some(v) = as_f16s(vs) {
                unsafe { x86::ell_tile_f16_f64(v, cs, stride, width, mask, xv, av) };
                return true;
            }
            return false;
        }
        if let Some(av) = as_f32s_mut(acc) {
            let xv = as_f32s(x).unwrap();
            if let Some(v) = as_f32s(vs) {
                unsafe { x86::ell_tile_f32_f32(v, cs, stride, width, mask, xv, av) };
                return true;
            }
            if let Some(v) = as_f16s(vs) {
                unsafe { x86::ell_tile_f16_f32(v, cs, stride, width, mask, xv, av) };
                return true;
            }
            if let Some(v) = as_f64s(vs) {
                unsafe { x86::ell_tile_f64_f32(v, cs, stride, width, mask, xv, av) };
                return true;
            }
            return false;
        }
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (vs, cs, stride, width, mask, x, acc);
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

    /// The four F16C converters must reproduce the portable reference
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
        check!(f64_inputs(), u16, narrow_f64_f16);
    }

    /// `lane_dot` against its definition spelled out: element `i` of the
    /// prefix into accumulator `i % w`, the accumulators added neighbours
    /// first, the tail fused into the root in index order.
    #[test]
    fn lane_dot_is_the_lane_blocked_shape() {
        fn reference<S: Scalar, A: Scalar>(x: &[S], y: &[S], w: usize) -> A {
            let fma = |i: usize, s: A| A::from_scalar(x[i]).mul_add(A::from_scalar(y[i]), s);
            let m = x.len() - x.len() % w;
            let mut acc = vec![A::ZERO; w];
            for i in 0..m {
                acc[i % w] = fma(i, acc[i % w]);
            }
            while acc.len() > 1 {
                acc = acc.chunks(2).map(|p| p[0] + p[1]).collect();
            }
            (m..x.len()).fold(acc[0], |s, i| fma(i, s))
        }
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let x: Vec<f64> = (0..len).map(|i| ((i * 37 % 101) as f64).sin()).collect();
            let y: Vec<f64> = (0..len).map(|i| ((i * 53 % 97) as f64).cos()).collect();
            assert_eq!(lane_dot(&x, &y).to_bits(), reference::<_, f64>(&x, &y, 16).to_bits());
            let (x, y): (Vec<f32>, Vec<f32>) =
                x.iter().zip(&y).map(|(&a, &b)| (a as f32, b as f32)).unzip();
            assert_eq!(lane_dot(&x, &y).to_bits(), reference::<_, f32>(&x, &y, 32).to_bits());
            let (x, y): (Vec<Half>, Vec<Half>) =
                x.iter().zip(&y).map(|(&a, &b)| (Half::from_f32(a), Half::from_f32(b))).unzip();
            let want = Half::from_f32(reference::<_, f32>(&x, &y, 32));
            assert_eq!(lane_dot(&x, &y).to_bits(), want.to_bits(), "len {len}");
        }
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
