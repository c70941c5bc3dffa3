//! Gauss–Seidel sweeps: the benchmark's smoother in all its variants.
//!
//! The HPG-MxP preconditioner is one geometric-multigrid cycle with a
//! *forward* Gauss–Seidel smoother; the HPCG baseline uses *symmetric*
//! Gauss–Seidel. This module implements the sweep in the three forms the
//! paper discusses:
//!
//! * the sequential lexicographic sweep (the mathematical definition),
//! * the reference implementation's two-kernel form — an SpMV with the
//!   strictly-upper part followed by a level-scheduled lower triangular
//!   solve (§3.1, items 1–2) — which is bit-identical to the sequential
//!   sweep but exposes only limited parallelism,
//! * the optimized *multicolor relaxation* form (§3.2.1): one sweep over
//!   the color-block ordered ELL matrix, colors processed in sequence,
//!   each color's contiguous range of slab positions updated in
//!   parallel — from a zero guess reading only the slabs that hold
//!   earlier colors ([`zero_guess_masks`], [`gs_range_masked`]).
//!
//! All sweeps use the relaxation update
//! `x_i ← x_i + (r_i − Σ_j a_ij x_j) / a_ii`,
//! which completes forward Gauss–Seidel in a single pass over the matrix
//! (the first optimization of §3.2.1). Ghost entries of `x` (columns
//! `>= nrows`) are frozen inputs during a sweep, exactly as in the MPI
//! benchmark where each rank smooths its subdomain with the latest halo
//! values.

use crate::csr::{CsrBuilder, CsrMatrix};
use crate::ell::{EllMatrix, ROW_BLOCK};
use crate::levels::LevelSchedule;
use crate::ordering::ColorRange;
use crate::scalar::Scalar;
use rayon::prelude::*;
use std::ops::Range;

/// Matrix access needed by a Gauss–Seidel sweep, implemented by both
/// storage formats so every variant runs on CSR and ELL alike.
///
/// The trait is parameterized by the **accumulate** precision `Acc` of
/// the sweep vectors, and implemented for matrices of *every* stored
/// precision: values are widened from storage on load and all
/// arithmetic (including the diagonal divide) runs in `Acc`. A
/// same-precision sweep (`Acc ==` stored) is bit-identical to the
/// pre-split kernels; a split sweep (e.g. f32-stored, f64-accumulated)
/// halves the dominant matrix-value traffic — the storage/compute
/// decoupling of the precision-policy engine.
pub trait SweepMatrix<Acc: Scalar>: Sync {
    /// Owned row count.
    fn nrows(&self) -> usize;
    /// Column-space size (owned + ghost).
    fn ncols(&self) -> usize;
    /// Diagonal value of row `i`, widened to the accumulate precision.
    fn diag(&self, i: usize) -> Acc;
    /// `Σ_j a_ij x[j]` over all stored entries of row `i`, accumulated
    /// in `Acc`.
    fn row_dot(&self, i: usize, x: &[Acc]) -> Acc;
}

impl<Stored: Scalar, Acc: Scalar> SweepMatrix<Acc> for CsrMatrix<Stored> {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }
    #[inline]
    fn diag(&self, i: usize) -> Acc {
        Acc::from_scalar(CsrMatrix::diag(self, i))
    }
    #[inline]
    fn row_dot(&self, i: usize, x: &[Acc]) -> Acc {
        let (cols, vals) = self.row(i);
        let mut acc = Acc::ZERO;
        for (c, v) in cols.iter().zip(vals.iter()) {
            acc = Acc::from_scalar(*v).mul_add(x[*c as usize], acc);
        }
        acc
    }
}

impl<Stored: Scalar, Acc: Scalar> SweepMatrix<Acc> for EllMatrix<Stored> {
    fn nrows(&self) -> usize {
        EllMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        EllMatrix::ncols(self)
    }
    #[inline]
    fn diag(&self, i: usize) -> Acc {
        Acc::from_scalar(EllMatrix::diag(self, i))
    }
    #[inline]
    fn row_dot(&self, i: usize, x: &[Acc]) -> Acc {
        let mut acc = Acc::ZERO;
        for k in 0..self.width() {
            let (c, v) = self.entry(i, k);
            acc = Acc::from_scalar(v).mul_add(x[c as usize], acc);
        }
        acc
    }
}

/// Relaxation update of one row, in place.
#[inline(always)]
fn relax_row<S: Scalar, M: SweepMatrix<S>>(a: &M, i: usize, r: &[S], x: &mut [S]) {
    let acc = a.row_dot(i, x);
    x[i] += (r[i] - acc) / a.diag(i);
}

/// Sequential forward sweep over rows `0..n` (lexicographic order).
pub fn gs_forward<S: Scalar, M: SweepMatrix<S>>(a: &M, r: &[S], x: &mut [S]) {
    assert!(x.len() >= a.ncols() && r.len() >= a.nrows());
    for i in 0..a.nrows() {
        relax_row(a, i, r, x);
    }
}

/// Sequential backward sweep over rows `n..0`.
pub fn gs_backward<S: Scalar, M: SweepMatrix<S>>(a: &M, r: &[S], x: &mut [S]) {
    assert!(x.len() >= a.ncols() && r.len() >= a.nrows());
    for i in (0..a.nrows()).rev() {
        relax_row(a, i, r, x);
    }
}

/// Symmetric sweep (forward then backward) — the HPCG smoother.
pub fn gs_symmetric<S: Scalar, M: SweepMatrix<S>>(a: &M, r: &[S], x: &mut [S]) {
    gs_forward(a, r, x);
    gs_backward(a, r, x);
}

/// Sequential sweep over an explicit row order — the reference the
/// multicolor sweep is tested against, rows taken in color order.
pub fn gs_rows_ordered<S: Scalar, M: SweepMatrix<S>>(a: &M, rows: &[u32], r: &[S], x: &mut [S]) {
    assert!(x.len() >= a.ncols());
    for &i in rows {
        relax_row(a, i as usize, r, x);
    }
}

/// Relax the rows stored at positions `pos` of a color-block ordered
/// ELL matrix in parallel: the slab tiles of [`EllMatrix`]'s shared
/// traversal, then the fused epilogue `x[i] += (r[i] − dot_i) / a_ii`
/// per tile (the body of the multicolor sweep; exposed so the solver
/// can interleave a color's interior and boundary positions with halo
/// communication).
///
/// The rows at `pos` must be an independent set of `a`'s graph — all
/// of one color: no two of them may be coupled by a stored entry.
pub fn gs_range<S: Scalar, Acc: Scalar>(
    a: &EllMatrix<S>,
    pos: Range<usize>,
    r: &[Acc],
    x: &mut [Acc],
) {
    relax_positions(a, pos, None, r, x);
}

/// [`gs_range`] reading, in the `t`-th tile of `pos`, only the slabs
/// `masks[t]` selects (see [`EllMatrix::row_dots_masked`]). Exact, bit
/// for bit, when every entry a mask drops multiplies an `x` entry that
/// is `+0`: the dropped fused multiply-add would have added a zero.
/// [`zero_guess_masks`] gives such masks for a sweep from `x = 0`.
pub fn gs_range_masked<S: Scalar, Acc: Scalar>(
    a: &EllMatrix<S>,
    pos: Range<usize>,
    masks: &[u32],
    r: &[Acc],
    x: &mut [Acc],
) {
    relax_positions(a, pos, Some(masks), r, x);
}

fn relax_positions<S: Scalar, Acc: Scalar>(
    a: &EllMatrix<S>,
    pos: Range<usize>,
    masks: Option<&[u32]>,
    r: &[Acc],
    x: &mut [Acc],
) {
    assert!(x.len() >= a.ncols() && r.len() >= a.nrows());
    let d = a.diag_by_position();
    let shared = crate::shared::SharedMut::new(x);
    let xs = &shared;
    // SAFETY: within one color the rows form an independent set of the
    // matrix graph. Each tile writes only `x[i]` for the rows `i` it
    // holds (positions are handed to exactly one tile, `i < nrows`),
    // and reads `x[j]` only for stored columns `j` of its rows — which
    // by the coloring invariant are never rows of the *same* color
    // (other than the row itself, read before it is written). Hence all
    // concurrent writes are disjoint and no element is concurrently
    // read and written.
    let x_read = unsafe { xs.slice() };
    let epilogue = |p0: usize, dots: &[Acc]| {
        for (j, &dot) in dots.iter().enumerate() {
            let i = a.order().old_of_new(p0 + j);
            // SAFETY: see above — row `i` belongs to this tile alone.
            unsafe { *xs.get_mut(i) += (r[i] - dot) / Acc::from_scalar(d[p0 + j]) };
        }
    };
    match masks {
        None => a.row_dots(std::iter::once(pos), x_read, epilogue),
        Some(m) => a.row_dots_masked(std::iter::once(pos), m, x_read, epilogue),
    }
}

/// The slab masks of a forward multicolor sweep from `x = 0`, for
/// [`gs_range_masked`]: per color, one mask per [`ROW_BLOCK`] tile of
/// its range, with bit `k` set when some row of the tile holds at slab
/// `k` an owned column of an earlier color. Every other entry — the
/// diagonal and padding (the row itself, still zero when it is
/// relaxed), later colors and ghosts (still zero) — multiplies a zero,
/// so the first color reads no slab at all. `colors[c]` are color
/// `c`'s positions and `color_of` the colors by row; `a` must be
/// at most 32 slabs wide.
pub fn zero_guess_masks<S: Scalar>(
    a: &EllMatrix<S>,
    colors: &[ColorRange],
    color_of: &[u32],
) -> Vec<Vec<u32>> {
    assert!(a.width() <= 32, "a slab mask covers at most 32 slabs, not {}", a.width());
    let n = a.nrows();
    colors
        .iter()
        .enumerate()
        .map(|(c, range)| {
            let mut masks = vec![0u32; range.all().len().div_ceil(ROW_BLOCK)];
            masks.par_iter_mut().enumerate().for_each(|(t, mask)| {
                let p0 = range.start + t * ROW_BLOCK;
                let tile = p0..range.end.min(p0 + ROW_BLOCK);
                for k in 0..a.width() {
                    let cols = &a.slab_cols(k)[tile.clone()];
                    debug_assert!(
                        cols.iter().zip(tile.clone()).all(|(&col, p)| {
                            let col = col as usize;
                            col >= n
                                || col == a.order().old_of_new(p)
                                || color_of[col] as usize != c
                        }),
                        "color {c} couples two of its rows"
                    );
                    let earlier = cols
                        .iter()
                        .any(|&col| (col as usize) < n && (color_of[col as usize] as usize) < c);
                    *mask |= u32::from(earlier) << k;
                }
            });
            masks
        })
        .collect()
}

/// Multicolor forward Gauss–Seidel over a color-block ordered ELL
/// matrix: colors in sequence, each color's contiguous position range
/// relaxed in parallel (§3.2.1's optimized smoother). `colors` are the
/// ranges of the color-block order the matrix is stored in
/// ([`crate::ordering::color_block_order`]).
pub fn gs_multicolor<S: Scalar, Acc: Scalar>(
    a: &EllMatrix<S>,
    colors: &[ColorRange],
    r: &[Acc],
    x: &mut [Acc],
) {
    for c in colors {
        gs_range(a, c.all(), r, x);
    }
}

/// Split a local matrix into `(D + L, U)`: the lower-triangular-plus-
/// diagonal factor and the strictly upper part. Ghost columns belong to
/// `U` (they are frozen inputs of a local sweep). This is the data
/// layout the *reference* implementation feeds to its
/// SpMV-then-triangular-solve Gauss–Seidel (§3.1 item 2).
pub fn split_lower_upper<S: Scalar>(a: &CsrMatrix<S>) -> (CsrMatrix<S>, CsrMatrix<S>) {
    let n = a.nrows();
    let mut lb = CsrBuilder::new(n, n, a.nnz() / 2 + n);
    let mut ub = CsrBuilder::new(n, a.ncols(), a.nnz() / 2 + n);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        let lower: Vec<(u32, S)> = cols
            .iter()
            .zip(vals)
            .filter(|(c, _)| (**c as usize) <= i)
            .map(|(c, v)| (*c, *v))
            .collect();
        // U rows keep a zero diagonal so the CSR invariant (every row
        // carries its diagonal) holds; the value does not contribute.
        let mut upper: Vec<(u32, S)> = vec![(i as u32, S::ZERO)];
        upper.extend(
            cols.iter().zip(vals).filter(|(c, _)| (**c as usize) > i).map(|(c, v)| (*c, *v)),
        );
        lb.push_row(lower);
        ub.push_row(upper);
    }
    (lb.finish(), ub.finish())
}

/// Level-scheduled lower-triangular solve `(D + L) x = rhs`, levels in
/// sequence, rows within a level in parallel.
///
/// Mathematically identical to the sequential forward substitution; the
/// limited level widths of stencil matrices are what §3.1 identifies as
/// the reference implementation's utilization problem.
pub fn sptrsv_lower_level_scheduled<Stored: Scalar, Acc: Scalar>(
    l: &CsrMatrix<Stored>,
    schedule: &LevelSchedule,
    rhs: &[Acc],
    x: &mut [Acc],
) {
    assert!(x.len() >= l.nrows() && rhs.len() >= l.nrows());
    for level in &schedule.levels {
        let shared = crate::shared::SharedMut::new(x);
        let xs = &shared;
        level.par_iter().for_each(move |&iw| {
            let i = iw as usize;
            let (cols, vals) = l.row(i);
            // SAFETY: a row only reads columns `< i` that live in
            // strictly earlier levels (LevelSchedule invariant), so no
            // concurrent read/write aliasing occurs within a level.
            unsafe {
                let xslice = xs.slice();
                let mut acc = Acc::ZERO;
                let mut diag = Acc::ONE;
                for (c, v) in cols.iter().zip(vals.iter()) {
                    if (*c as usize) < i {
                        acc = Acc::from_scalar(*v).mul_add(xslice[*c as usize], acc);
                    } else {
                        diag = Acc::from_scalar(*v);
                    }
                }
                *xs.get_mut(i) = (rhs[i] - acc) / diag;
            }
        });
    }
}

/// The reference implementation's forward Gauss–Seidel for `A z = r`
/// (§3.1): `t = r − U x`, then solve `(D + L) x = t` with the
/// level-scheduled triangular kernel. Produces exactly the sequential
/// forward sweep's result, at the cost of a second pass over the matrix.
pub fn gs_forward_reference<Stored: Scalar, Acc: Scalar>(
    l: &CsrMatrix<Stored>,
    u: &CsrMatrix<Stored>,
    schedule: &LevelSchedule,
    r: &[Acc],
    x: &mut [Acc],
) {
    let n = l.nrows();
    let mut t = vec![Acc::ZERO; n];
    u.spmv(x, &mut t);
    for i in 0..n {
        t[i] = r[i] - t[i];
    }
    sptrsv_lower_level_scheduled(l, schedule, &t, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::greedy_coloring;
    use crate::csr::CsrBuilder;
    use crate::ordering::color_block_order;

    /// 2D 5-point Laplacian with an extra ghost column per boundary row,
    /// to exercise frozen halo values.
    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let mut b = CsrBuilder::new(n, n, 5 * n);
        for j in 0..ny {
            for i in 0..nx {
                let row = j * nx + i;
                let mut e = Vec::new();
                if j > 0 {
                    e.push(((row - nx) as u32, -1.0));
                }
                if i > 0 {
                    e.push(((row - 1) as u32, -1.0));
                }
                e.push((row as u32, 4.0));
                if i + 1 < nx {
                    e.push(((row + 1) as u32, -1.0));
                }
                if j + 1 < ny {
                    e.push(((row + nx) as u32, -1.0));
                }
                b.push_row(e);
            }
        }
        b.finish()
    }

    fn residual_norm(a: &CsrMatrix<f64>, r: &[f64], x: &[f64]) -> f64 {
        let mut ax = vec![0.0; a.nrows()];
        a.spmv(x, &mut ax);
        r.iter().zip(ax.iter()).map(|(ri, axi)| (ri - axi) * (ri - axi)).sum::<f64>().sqrt()
    }

    #[test]
    fn forward_sweep_reduces_residual() {
        let a = laplacian_2d(8, 8);
        let r: Vec<f64> = (0..64).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut x = vec![0.0; 64];
        let r0 = residual_norm(&a, &r, &x);
        gs_forward(&a, &r, &mut x);
        let r1 = residual_norm(&a, &r, &x);
        assert!(r1 < r0 * 0.8, "one sweep must smooth: {} -> {}", r0, r1);
        gs_forward(&a, &r, &mut x);
        assert!(residual_norm(&a, &r, &x) < r1);
    }

    #[test]
    fn repeated_sweeps_converge_to_solution() {
        let a = laplacian_2d(4, 4);
        let x_exact: Vec<f64> = (0..16).map(|i| (i as f64).cos()).collect();
        let mut r = vec![0.0; 16];
        a.spmv(&x_exact, &mut r);
        let mut x = vec![0.0; 16];
        for _ in 0..400 {
            gs_forward(&a, &r, &mut x);
        }
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-10);
        }
    }

    #[test]
    fn multicolor_matches_color_ordered_sequential() {
        // A multicolor parallel sweep must equal the sequential sweep
        // taken in color order (same update sequence semantics).
        let a = laplacian_2d(6, 5);
        let coloring = greedy_coloring(&a);
        assert!(coloring.verify(&a));
        let (order, bounds) = color_block_order(&coloring.color_of, 2, |i| (i % 4 == 0) as usize);
        let colors: Vec<ColorRange> = bounds
            .windows(3)
            .step_by(2)
            .map(|w| ColorRange { start: w[0], split: w[1], end: w[2] })
            .collect();
        let e = EllMatrix::from_csr_ordered(&a, order);
        let r: Vec<f64> = (0..30).map(|i| (i as f64) * 0.1 - 1.0).collect();

        let mut x_par = vec![0.5; 30];
        gs_multicolor(&e, &colors, &r, &mut x_par);

        let mut x_seq = vec![0.5; 30];
        let rows: Vec<u32> = (0..30).map(|p| e.order().old_of_new(p) as u32).collect();
        gs_rows_ordered(&e, &rows, &r, &mut x_seq);
        assert_eq!(x_par, x_seq);
    }

    #[test]
    fn reference_two_kernel_path_matches_sequential() {
        let a = laplacian_2d(5, 5);
        let (l, u) = split_lower_upper(&a);
        let schedule = LevelSchedule::build(&a);
        let r: Vec<f64> = (0..25).map(|i| 1.0 + (i % 3) as f64).collect();

        let mut x_ref = vec![0.25; 25];
        gs_forward_reference(&l, &u, &schedule, &r, &mut x_ref);

        let mut x_seq = vec![0.25; 25];
        gs_forward(&a, &r, &mut x_seq);

        for (a_, b_) in x_ref.iter().zip(x_seq.iter()) {
            assert!((a_ - b_).abs() < 1e-13, "{} vs {}", a_, b_);
        }
    }

    #[test]
    fn split_partitions_entries() {
        let a = laplacian_2d(4, 4);
        let (l, u) = split_lower_upper(&a);
        // L keeps diag + strictly lower; U got a structural zero diag.
        assert_eq!(l.nnz() + u.nnz() - a.nrows(), a.nnz());
        let dense_a = a.to_dense();
        let dense_l = l.to_dense();
        let dense_u = u.to_dense();
        for i in 0..16 {
            for j in 0..16 {
                assert!((dense_l[i][j] + dense_u[i][j] - dense_a[i][j]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn symmetric_sweep_matches_forward_backward() {
        let a = laplacian_2d(5, 4);
        let r: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let mut x1 = vec![0.0; 20];
        gs_symmetric(&a, &r, &mut x1);
        let mut x2 = vec![0.0; 20];
        gs_forward(&a, &r, &mut x2);
        gs_backward(&a, &r, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn ell_sweep_matches_csr_sweep() {
        let a = laplacian_2d(6, 6);
        let e = EllMatrix::from_csr(&a);
        let r: Vec<f64> = (0..36).map(|i| (i as f64) * 0.3).collect();
        let mut xc = vec![0.1; 36];
        let mut xe = vec![0.1; 36];
        gs_forward(&a, &r, &mut xc);
        gs_forward(&e, &r, &mut xe);
        for (c, el) in xc.iter().zip(xe.iter()) {
            assert!((c - el).abs() < 1e-14);
        }
    }

    #[test]
    fn ghost_values_stay_frozen() {
        // One row referencing a ghost column: the sweep must read but
        // never write the ghost slot.
        let mut b = CsrBuilder::new(1, 2, 2);
        b.push_row([(0u32, 2.0), (1, -1.0)]);
        let a = b.finish();
        let r = vec![3.0];
        let mut x = vec![0.0, 5.0];
        gs_forward(&a, &r, &mut x);
        // x0 = (3 - (-1*5)) / 2 = 4, ghost untouched.
        assert_eq!(x, vec![4.0, 5.0]);
    }

    #[test]
    fn f32_sweep_tracks_f64() {
        let a = laplacian_2d(4, 4);
        let a32: CsrMatrix<f32> = a.convert();
        let r64: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let r32: Vec<f32> = r64.iter().map(|&v| v as f32).collect();
        let mut x64 = vec![0.0f64; 16];
        let mut x32 = vec![0.0f32; 16];
        for _ in 0..3 {
            gs_forward(&a, &r64, &mut x64);
            gs_forward(&a32, &r32, &mut x32);
        }
        for (h, l) in x64.iter().zip(x32.iter()) {
            assert!((h - *l as f64).abs() < 1e-4);
        }
    }

    #[test]
    fn sptrsv_solves_lower_system() {
        let a = laplacian_2d(4, 4);
        let (l, _) = split_lower_upper(&a);
        let schedule = LevelSchedule::build(&a);
        let x_exact: Vec<f64> = (0..16).map(|i| 1.0 + i as f64).collect();
        let mut rhs = vec![0.0; 16];
        l.spmv(&x_exact, &mut rhs);
        let mut x = vec![0.0; 16];
        sptrsv_lower_level_scheduled(&l, &schedule, &rhs, &mut x);
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }
}
