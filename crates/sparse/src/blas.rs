//! Dense vector kernels: DOT, NRM2, WAXPBY, AXPY and the blocked
//! GEMV/GEMV-T pair that CGS2 orthogonalization batches its inner
//! products into (§3, §4.1).
//!
//! All kernels are generic over the working precision, and the mixed
//! `f64`/`f32` fused variants the optimized implementation runs on the
//! device (§3.2.5, removing the reference code's host round-trips) are
//! provided explicitly.
//!
//! Every inner product has **one shape**: the vector is cut into
//! [`DOT_BLOCK`]-element blocks, each block is reduced by the
//! lane-blocked kernel [`simd::lane_dot`] (fixed lanes × unroll
//! accumulators summed pairwise, then the ragged tail), and the block
//! partials are summed by the same pairwise tree, shaped by the block
//! count alone. [`dot`], [`dot_par`], [`norm2_sq`], [`norm2_sq_par`]
//! and [`Basis::project_local`] are instances of it, so their bits
//! depend on neither the SIMD dispatch level nor the thread count, and
//! `project_local(k)[j]` is bitwise `dot_par(col j, col k)`.
//!
//! Only *local* (per-rank) arithmetic lives here; distributed reductions
//! compose these with an all-reduce in the solver layer.

use crate::scalar::Scalar;
use crate::simd;
use core::ops::Range;
use rayon::prelude::*;

/// Fixed reduction block: partial sums are always computed over
/// `DOT_BLOCK`-element blocks regardless of thread count, so the
/// summation tree — and the bits of the result — depend only on the
/// vector length.
pub const DOT_BLOCK: usize = 1 << 14;

/// Leaf size for parallel elementwise kernels. Elementwise updates are
/// bit-identical at any chunking; this only tunes scheduling
/// granularity (32 KiB of f64 per leaf).
const ELEM_CHUNK: usize = 4096;

/// Element range of block `b` of a length-`n` vector.
fn block(b: usize, n: usize) -> Range<usize> {
    b * DOT_BLOCK..((b + 1) * DOT_BLOCK).min(n)
}

/// Deterministic pairwise sum of `leaf(i)` over `range`: split at half
/// the length, recursively, so the tree depends only on the length.
/// With `par` the halves run under `rayon::join` — the same tree, the
/// same bits, and no allocation.
fn pairwise<S: Scalar>(range: Range<usize>, par: bool, leaf: &(impl Fn(usize) -> S + Sync)) -> S {
    match range.len() {
        0 => S::ZERO,
        1 => leaf(range.start),
        len => {
            let (lo, hi) = (range.start..range.start + len / 2, range.start + len / 2..range.end);
            let (a, b) = if par {
                rayon::join(|| pairwise(lo, par, leaf), || pairwise(hi, par, leaf))
            } else {
                (pairwise(lo, par, leaf), pairwise(hi, par, leaf))
            };
            a + b
        }
    }
}

fn blocked_dot<S: Scalar>(x: &[S], y: &[S], par: bool) -> S {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    pairwise(0..n.div_ceil(DOT_BLOCK), par, &|b| simd::lane_dot(&x[block(b, n)], &y[block(b, n)]))
}

/// Local dot product `x · y`, sequential, in the module's one shape:
/// lane-blocked [`DOT_BLOCK`] partials summed pairwise. `S = Half`
/// accumulates each block in f32 and rounds it to fp16 once.
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    blocked_dot(x, y, false)
}

/// Parallel local dot product, bitwise equal to [`dot`]: the block
/// partials are computed in parallel but combined by the same pairwise
/// tree, so the result is identical for every `RAYON_NUM_THREADS` —
/// which is what keeps GMRES residual histories reproducible across
/// thread counts.
pub fn dot_par<S: Scalar>(x: &[S], y: &[S]) -> S {
    blocked_dot(x, y, true)
}

/// Local squared 2-norm.
pub fn norm2_sq<S: Scalar>(x: &[S]) -> S {
    dot(x, x)
}

/// Parallel local squared 2-norm (see [`dot_par`]).
pub fn norm2_sq_par<S: Scalar>(x: &[S]) -> S {
    dot_par(x, x)
}

/// `y[i] = alpha.mul_add(x[i], y[i])` on one chunk: the elementwise
/// step under every AXPY-shaped kernel here.
fn axpy_chunk<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    if simd::try_axpy(alpha, x, y) {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha.mul_add(*xi, *yi);
    }
}

/// `w = alpha*x + beta*y` (HPCG's WAXPBY motif), parallel over chunks.
/// Elementwise, so the result is bit-identical at every thread count.
pub fn waxpby<S: Scalar>(alpha: S, x: &[S], beta: S, y: &[S], w: &mut [S]) {
    assert!(x.len() == y.len() && y.len() == w.len());
    w.par_chunks_mut(ELEM_CHUNK)
        .zip(x.par_chunks(ELEM_CHUNK))
        .zip(y.par_chunks(ELEM_CHUNK))
        .for_each(|((wc, xc), yc)| {
            if simd::try_waxpby(alpha, xc, beta, yc, wc) {
                return;
            }
            for ((wi, xi), yi) in wc.iter_mut().zip(xc).zip(yc) {
                *wi = (alpha * *xi).mul_add(S::ONE, beta * *yi);
            }
        });
}

/// `y += alpha * x`, parallel over chunks (bit-identical at every
/// thread count).
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len());
    y.par_chunks_mut(ELEM_CHUNK)
        .zip(x.par_chunks(ELEM_CHUNK))
        .for_each(|(yc, xc)| axpy_chunk(alpha, xc, yc));
}

/// `x *= alpha`, parallel over chunks.
pub fn scal<S: Scalar>(alpha: S, x: &mut [S]) {
    x.par_chunks_mut(ELEM_CHUNK).for_each(|xc| {
        if simd::try_scal(alpha, xc) {
            return;
        }
        for xi in xc.iter_mut() {
            *xi *= alpha;
        }
    });
}

/// `y = x` for equal-length slices.
pub fn copy<S: Copy>(x: &[S], y: &mut [S]) {
    y.copy_from_slice(x);
}

/// Mixed-precision AXPY: `y (f64) += alpha * x (f32)`.
///
/// This is the solution-update kernel of GMRES-IR (line 47 of
/// Algorithm 3): the correction comes from the low-precision inner
/// solve, the accumulation happens in double. One code path: this is
/// the generic [`axpy_lo_into_f64`] instantiated at `f32` (same bits —
/// `f32::to_f64` is the `as f64` widening).
pub fn axpy_f32_into_f64(alpha: f64, x: &[f32], y: &mut [f64]) {
    axpy_lo_into_f64(alpha, x, y);
}

/// Mixed-precision scaled conversion: `lo = (hi * alpha) as f32`,
/// the residual hand-off kernel of GMRES-IR (f64 outer residual scaled
/// and narrowed into the f32 Krylov space). One code path: the generic
/// [`scale_f64_into_lo`] at `f32` (same bits — `f32::from_f64` is the
/// `as f32` rounding).
pub fn scale_f64_into_f32(alpha: f64, hi: &[f64], lo: &mut [f32]) {
    scale_f64_into_lo(alpha, hi, lo);
}

/// Generic narrowing hand-off `lo = (hi * alpha) as S` — lets GMRES-IR
/// run its inner solve at any low precision (f32 today, fp16 for the
/// paper's future-work study).
pub fn scale_f64_into_lo<S: Scalar>(alpha: f64, hi: &[f64], lo: &mut [S]) {
    assert_eq!(hi.len(), lo.len());
    lo.par_chunks_mut(ELEM_CHUNK).zip(hi.par_chunks(ELEM_CHUNK)).for_each(|(lc, hc)| {
        if simd::try_scale_narrow(alpha, hc, lc) {
            return;
        }
        for (l, h) in lc.iter_mut().zip(hc) {
            *l = S::from_f64(h * alpha);
        }
    });
}

/// Generic mixed AXPY: `y (f64) += alpha * x (S)` — the widening
/// counterpart of [`scale_f64_into_lo`] (Algorithm 3 line 47 at any
/// inner precision).
pub fn axpy_lo_into_f64<S: Scalar>(alpha: f64, x: &[S], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    y.par_chunks_mut(ELEM_CHUNK).zip(x.par_chunks(ELEM_CHUNK)).for_each(|(yc, xc)| {
        if simd::try_axpy_into_f64(alpha, xc, yc) {
            return;
        }
        for (yi, xi) in yc.iter_mut().zip(xc) {
            *yi = alpha.mul_add(xi.to_f64(), *yi);
        }
    });
}

/// `w -= Q[:, 0..h.len()] · h`, `w` the column right after them: each
/// row chunk of `w` applies the columns in order, so the result is
/// bit-identical to the sequential double loop.
fn subtract_cols<S: Scalar>(data: &mut [S], n: usize, h: &[S]) {
    let (head, tail) = data.split_at_mut(h.len() * n);
    let head = &*head;
    tail[..n].par_chunks_mut(ELEM_CHUNK).enumerate().for_each(|(ci, wc)| {
        let off = ci * ELEM_CHUNK;
        for (j, &hj) in h.iter().enumerate() {
            axpy_chunk(-hj, &head[j * n + off..][..wc.len()], wc);
        }
    });
}

/// Column-major Krylov basis storage `Q ∈ R^{n × max_cols}`, plus the
/// coefficient workspace orthogonalization runs in, so projecting a
/// column against the block allocates nothing.
///
/// GMRES stores every basis vector of the current restart cycle; CGS2
/// works on the block, which is why the paper calls orthogonalization a
/// dense BLAS-2 motif that benefits maximally from lower precision.
#[derive(Debug, Clone)]
pub struct Basis<S> {
    n: usize,
    max_cols: usize,
    data: Vec<S>,
    /// [`Basis::project_local`]'s per-tile partials, tile-major:
    /// `max_cols` slots per [`DOT_BLOCK`] tile of a column.
    partials: Vec<S>,
    /// Projection coefficients in the working precision.
    hs: Vec<S>,
    /// The same coefficients in f64: the all-reduce buffer.
    hf: Vec<f64>,
    /// Hessenberg column of the last orthogonalized vector.
    h: Vec<f64>,
}

impl<S: Scalar> Basis<S> {
    /// Allocate an `n × max_cols` basis initialized to zero, with its
    /// `⌈n / DOT_BLOCK⌉ × max_cols` projection workspace.
    pub fn new(n: usize, max_cols: usize) -> Self {
        Basis {
            n,
            max_cols,
            data: vec![S::ZERO; n * max_cols],
            partials: vec![S::ZERO; n.div_ceil(DOT_BLOCK) * max_cols],
            hs: vec![S::ZERO; max_cols],
            hf: vec![0.0; max_cols],
            h: vec![0.0; max_cols],
        }
    }

    /// Local vector length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Capacity in columns.
    pub fn max_cols(&self) -> usize {
        self.max_cols
    }

    /// Column `k` as a slice.
    #[inline]
    pub fn col(&self, k: usize) -> &[S] {
        &self.data[k * self.n..(k + 1) * self.n]
    }

    /// Column `k` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, k: usize) -> &mut [S] {
        &mut self.data[k * self.n..(k + 1) * self.n]
    }

    /// GEMV-T: local part of `h = Q[:, 0..k]ᵀ · (col k)` — the batched
    /// inner products of one CGS2 pass — into the basis' workspace.
    /// Row-tiled: each [`DOT_BLOCK`] tile of column `k` is reduced
    /// against all `k` columns while it sits in cache, so it streams
    /// from memory once per pass, and each column's tile partials are
    /// summed by [`dot_par`]'s tree: entry `j` is bitwise
    /// `dot_par(col j, col k)`. The caller all-reduces `h` before the
    /// subtraction.
    pub fn project_local(&mut self, k: usize) -> &[S] {
        let (n, stride, tiles) = (self.n, self.max_cols, self.n.div_ceil(DOT_BLOCK));
        let (head, tail) = self.data.split_at(k * n);
        let w = &tail[..n];
        self.partials.par_chunks_mut(stride).enumerate().for_each(|(t, row)| {
            let r = block(t, n);
            for (j, p) in row[..k].iter_mut().enumerate() {
                *p = simd::lane_dot(&head[j * n..][r.clone()], &w[r.clone()]);
            }
        });
        let partials = &self.partials;
        for (j, hj) in self.hs[..k].iter_mut().enumerate() {
            *hj = pairwise(0..tiles, false, &|t| partials[t * stride + j]);
        }
        &self.hs[..k]
    }

    /// GEMV: `col k -= Q[:, 0..k] · h` — the update half of a CGS2
    /// pass. Parallel over row blocks of the target column; each block
    /// applies all `k` column updates in order, so the result is
    /// bit-identical to the sequential double loop.
    pub fn subtract(&mut self, k: usize, h: &[S]) {
        assert_eq!(h.len(), k);
        subtract_cols(&mut self.data, self.n, h);
    }

    /// Both classical Gram–Schmidt passes of CGS2 on column `k` (the
    /// "2"), in the basis' workspace. Each pass runs
    /// [`project_local`](Self::project_local), hands the `k`
    /// coefficients to `reduce` in f64 (the caller's all-reduce),
    /// subtracts them rounded to the working precision, and adds them
    /// to the [`hessenberg`](Self::hessenberg) column.
    pub fn cgs2_passes<E>(
        &mut self,
        k: usize,
        mut reduce: impl FnMut(&mut [f64]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.h[..k].fill(0.0);
        for _pass in 0..2 {
            self.project_local(k);
            let (hs, hf) = (&mut self.hs[..k], &mut self.hf[..k]);
            for (f, s) in hf.iter_mut().zip(hs.iter()) {
                *f = s.to_f64();
            }
            reduce(hf)?;
            for ((s, f), h) in hs.iter_mut().zip(hf.iter()).zip(&mut self.h) {
                *s = S::from_f64(*f);
                *h += f;
            }
            subtract_cols(&mut self.data, self.n, hs);
        }
        Ok(())
    }

    /// The Hessenberg column `h_{0..k}` of the last orthogonalized
    /// vector, in f64 for the Givens QR.
    pub fn hessenberg(&self, k: usize) -> &[f64] {
        &self.h[..k]
    }

    /// Mutable [`hessenberg`](Self::hessenberg) column, for
    /// orthogonalizations that fill it entry by entry (MGS).
    pub fn hessenberg_mut(&mut self, k: usize) -> &mut [f64] {
        &mut self.h[..k]
    }

    /// `col dst -= alpha · col src` with `src < dst` — the elementary
    /// update of modified Gram–Schmidt.
    pub fn axpy_cols(&mut self, src: usize, dst: usize, alpha: S) {
        assert!(src < dst, "source column must precede destination");
        let (head, tail) = self.data.split_at_mut(dst * self.n);
        let s = &head[src * self.n..(src + 1) * self.n];
        let d = &mut tail[..self.n];
        d.par_chunks_mut(ELEM_CHUNK)
            .zip(s.par_chunks(ELEM_CHUNK))
            .for_each(|(dc, sc)| axpy_chunk(-alpha, sc, dc));
    }

    /// `out = Q[:, 0..k] · t` (the restart-time basis combination,
    /// line 46 of Algorithm 3). One pass over row chunks of `out`, each
    /// zeroed and then updated by columns `0..k` in order — the
    /// per-element FMA sequence of `k` column-by-column AXPYs, with
    /// `out` streamed once.
    pub fn combine(&self, k: usize, t: &[S], out: &mut [S]) {
        assert_eq!(t.len(), k);
        assert_eq!(out.len(), self.n);
        let (n, data) = (self.n, &self.data);
        out.par_chunks_mut(ELEM_CHUNK).enumerate().for_each(|(ci, oc)| {
            let off = ci * ELEM_CHUNK;
            oc.fill(S::ZERO);
            for (j, &tj) in t.iter().enumerate() {
                axpy_chunk(tj, &data[j * n + off..][..oc.len()], oc);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::Half;

    #[test]
    fn dot_and_norm() {
        let x = vec![1.0f64, 2.0, 3.0];
        let y = vec![4.0f64, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 4.0 - 10.0 + 18.0);
        assert_eq!(norm2_sq(&x), 14.0);
        assert_eq!(dot_par(&x, &y), dot(&x, &y));
    }

    #[test]
    fn dot_par_large_matches_serial_closely() {
        // One shape for both: equal to the last bit, not just closely.
        let x: Vec<f64> = (0..100_000).map(|i| ((i % 97) as f64) * 1e-3).collect();
        let y: Vec<f64> = (0..100_000).map(|i| ((i % 89) as f64) * 1e-3 - 0.04).collect();
        assert_eq!(dot(&x, &y).to_bits(), dot_par(&x, &y).to_bits());
        let exact: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - exact).abs() < 1e-9 * exact.abs().max(1.0));
    }

    #[test]
    fn dot_is_pairwise_over_lane_blocked_partials() {
        // The definition, spelled out: portable lane dots per block,
        // combined ((b0 + b1) + (b2 + b3)) for four blocks.
        let x: Vec<f64> = (0..3 * DOT_BLOCK + 17).map(|i| ((i * 37 % 1013) as f64).sin()).collect();
        let y: Vec<f64> = (0..x.len()).map(|i| ((i * 53 % 997) as f64).cos()).collect();
        let b: Vec<f64> = (0..4)
            .map(|i| simd::portable::dot_f64(&x[block(i, x.len())], &y[block(i, x.len())]))
            .collect();
        assert_eq!(dot(&x, &y).to_bits(), ((b[0] + b[1]) + (b[2] + b[3])).to_bits());
    }

    #[test]
    fn dot_par_is_bit_identical_across_thread_counts() {
        let x: Vec<f64> = (0..3 * DOT_BLOCK + 17).map(|i| ((i * 37 % 1013) as f64).sin()).collect();
        let y: Vec<f64> = (0..x.len()).map(|i| ((i * 53 % 997) as f64).cos()).collect();
        let reference = dot_par(&x, &y);
        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPool::new(threads);
            let d = pool.install(|| dot_par(&x, &y));
            assert_eq!(d.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn dot_par_below_one_block_equals_serial_exactly() {
        let x: Vec<f64> = (0..4096).map(|i| (i as f64).sqrt()).collect();
        assert_eq!(dot_par(&x, &x).to_bits(), dot(&x, &x).to_bits());
    }

    #[test]
    fn waxpby_axpy_scal() {
        let x = vec![1.0f64, 2.0];
        let y = vec![10.0f64, 20.0];
        let mut w = vec![0.0f64; 2];
        waxpby(2.0, &x, 0.5, &y, &mut w);
        assert_eq!(w, vec![7.0, 14.0]);
        let mut y2 = y.clone();
        axpy(3.0, &x, &mut y2);
        assert_eq!(y2, vec![13.0, 26.0]);
        scal(0.5, &mut y2);
        assert_eq!(y2, vec![6.5, 13.0]);
    }

    #[test]
    fn mixed_axpy_accumulates_in_double() {
        // A correction of 1e-9 is far below f32 resolution around 1.0
        // but must survive in the f64 accumulator.
        let x = vec![1.0f32; 4];
        let mut y = vec![1.0f64; 4];
        axpy_f32_into_f64(1e-9, &x, &mut y);
        for v in &y {
            assert!((v - (1.0 + 1e-9)).abs() < 1e-16);
            // The same update in f32 would have been lost entirely.
            assert_eq!(1.0f32 + 1e-9f32, 1.0f32);
        }
    }

    #[test]
    fn scaled_narrowing() {
        let hi = vec![2.0f64, -4.0, 8.0];
        let mut lo = vec![0.0f32; 3];
        scale_f64_into_f32(0.5, &hi, &mut lo);
        assert_eq!(lo, vec![1.0f32, -2.0, 4.0]);
    }

    #[test]
    fn generic_narrowing_matches_specialized() {
        let hi = vec![2.0f64, -4.0, 8.0];
        let mut a = vec![0.0f32; 3];
        let mut b = vec![0.0f32; 3];
        scale_f64_into_f32(0.25, &hi, &mut a);
        scale_f64_into_lo(0.25, &hi, &mut b);
        assert_eq!(a, b);
        // And round-trips through f64 via the generic widening axpy.
        let mut back = vec![0.0f64; 3];
        axpy_lo_into_f64(4.0, &b, &mut back);
        assert_eq!(back, hi);
    }

    #[test]
    fn generic_axpy_keeps_f64_resolution() {
        let x = vec![1.0f32; 2];
        let mut y = vec![1.0f64; 2];
        axpy_lo_into_f64(1e-9, &x, &mut y);
        for v in &y {
            assert!((v - (1.0 + 1e-9)).abs() < 1e-16);
        }
    }

    #[test]
    fn widening_dot_accumulates_past_the_storage_precision() {
        // 4096 fp16 ones dotted with themselves: fp16 accumulation
        // would saturate at 2048; the f32 lane accumulators are exact
        // and 4096 rounds into fp16 unchanged.
        let x: Vec<Half> = vec![Half::ONE; 4096];
        assert_eq!(dot(&x, &x).to_f32(), 4096.0);
        assert_eq!(norm2_sq_par(&x).to_f32(), 4096.0);
    }

    #[test]
    fn widening_axpy_keeps_accumulator_resolution() {
        let x = vec![Half::ONE; 8];
        let mut y = vec![1.0f64; 8];
        // 1e-9 is far below fp16 resolution around 1.0 but must
        // survive in the f64 accumulator.
        axpy_lo_into_f64(1e-9, &x, &mut y);
        for v in &y {
            assert_eq!(*v, 1.0 + 1e-9);
        }
    }

    #[test]
    fn basis_projection_and_subtraction_orthogonalize() {
        // Two orthonormal columns; a third gets CGS-projected against them.
        let n = 4;
        let mut q: Basis<f64> = Basis::new(n, 3);
        q.col_mut(0).copy_from_slice(&[1.0, 0.0, 0.0, 0.0]);
        q.col_mut(1).copy_from_slice(&[0.0, 1.0, 0.0, 0.0]);
        q.col_mut(2).copy_from_slice(&[3.0, 4.0, 5.0, 0.0]);
        let h = q.project_local(2).to_vec();
        assert_eq!(h, vec![3.0, 4.0]);
        q.subtract(2, &h);
        assert_eq!(q.col(2), &[0.0, 0.0, 5.0, 0.0]);
        // Now orthogonal to both prior columns.
        assert_eq!(dot(q.col(2), q.col(0)), 0.0);
        assert_eq!(dot(q.col(2), q.col(1)), 0.0);
    }

    #[test]
    fn basis_combine() {
        let n = 3;
        let mut q: Basis<f64> = Basis::new(n, 2);
        q.col_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        q.col_mut(1).copy_from_slice(&[0.0, 1.0, 0.0]);
        let mut out = vec![0.0; 3];
        q.combine(2, &[2.0, -1.0], &mut out);
        assert_eq!(out, vec![2.0, 3.0, 6.0]);
    }

    #[test]
    fn basis_combine_matches_column_by_column_axpy() {
        // The one-pass combination against the loop it replaced: zero
        // `out`, then one full-length parallel AXPY per column.
        let (n, k) = (3 * ELEM_CHUNK + 5, 6);
        let mut q: Basis<f32> = Basis::new(n, k);
        for j in 0..k {
            for (i, v) in q.col_mut(j).iter_mut().enumerate() {
                *v = ((i * 31 + j * 7) % 211) as f32 * 0.013 - 1.3;
            }
        }
        let t: Vec<f32> = (0..k).map(|j| 0.7 - j as f32 * 0.31).collect();
        let mut want = vec![0.0f32; n];
        for (j, &tj) in t.iter().enumerate() {
            axpy(tj, q.col(j), &mut want);
        }
        let mut got = vec![1.0f32; n];
        q.combine(k, &t, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn basis_generic_over_f32() {
        let mut q: Basis<f32> = Basis::new(2, 2);
        q.col_mut(0).copy_from_slice(&[0.6, 0.8]);
        q.col_mut(1).copy_from_slice(&[1.0, 0.0]);
        let h = q.project_local(1).to_vec();
        assert!((h[0] - 0.6).abs() < 1e-6);
        q.subtract(1, &h);
        let c = q.col(1);
        assert!((dot(c, q.col(0))).abs() < 1e-6);
    }
}
