//! ELLPACK (ELL) sparse storage — the paper's optimized format (§3.2.2).
//!
//! ELL pads every row to the same width and stores values and column
//! indices column-major (all first entries of every row contiguously,
//! then all second entries, …). On GPUs this lets a warp of consecutive
//! threads read consecutive memory for consecutive rows; we keep the
//! exact layout so the byte-traffic accounting, padding overhead, and
//! access pattern studied by the paper are faithfully reproduced.
//!
//! Rows are stored in a chosen *storage order*: position `p` of every
//! slab holds row `order().old_of_new(p)`. The solver stores each
//! level's operator color-block ordered (§3.2.1), so one color is one
//! contiguous range of positions and a Gauss–Seidel color sweep streams
//! contiguous slab segments instead of gathering through a row list.
//! Only the storage moves: row and column numbering, and therefore every
//! vector the kernels read or write, stay natural.
//!
//! Padding convention: a padded slot stores column `= row index` with
//! value `0`, so kernels need no branch on a sentinel (the extra
//! multiply-add contributes exactly zero). [`EllMatrix::from_csr`] pads
//! at the end of each row; the solver's generated operators
//! ([`EllMatrix::from_slabs`]) keep one stencil offset per slab and so
//! interleave a boundary row's pads at the slabs of the offsets that
//! leave the domain — every row's slot `k` means the same coupling.
//!
//! A traversal may read only some slabs of a tile: a `u32` slab mask
//! selects slabs `0..32` ([`EllMatrix::row_dots_masked`]); `u32::MAX` is
//! the full pass.

use crate::csr::CsrMatrix;
use crate::ordering::Permutation;
use crate::scalar::Scalar;
use crate::shared::SharedMut;
use crate::simd;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Tile length of every traversal: 64 positions keep the `x` entries
/// one color's tile gathers (rows about one color-count apart, plus
/// their stencil neighbors) within L1, while each kernel call still
/// streams every slab's segment of the tile.
pub const ROW_BLOCK: usize = 64;

/// An ELLPACK matrix with scalar type `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix<S> {
    nrows: usize,
    ncols: usize,
    width: usize,
    /// Column-major `width × nrows` indices: entry `k` of the row at
    /// position `p` is at `k * nrows + p`. Invariant: every index is
    /// `< ncols` (CSR columns are checked on insertion; padding repeats
    /// the row index) — the vector tile kernel relies on it. Shared,
    /// like `order`, by the copies of one operator at other storage
    /// precisions: a copy owns only its values and diagonal.
    col_idx: Arc<[u32]>,
    /// Column-major values, same layout as `col_idx`.
    values: Vec<S>,
    /// Diagonal value of the row at each position.
    diag: Vec<S>,
    /// Storage order: new index = position, old index = row. Shared by
    /// the copies of one operator at other storage precisions.
    order: Arc<Permutation>,
    /// True (unpadded) nonzero count, for FLOP accounting.
    nnz: usize,
}

impl<S: Scalar> EllMatrix<S> {
    /// Convert from CSR, padding to the maximum row width; rows are
    /// stored in natural order.
    pub fn from_csr(a: &CsrMatrix<S>) -> Self {
        Self::from_csr_ordered(a, Permutation::identity(a.nrows()))
    }

    /// Convert from CSR, storing row `order.old_of_new(p)` at position
    /// `p` — one pass over the CSR, as [`EllMatrix::from_csr`]. Copies
    /// at other precisions come from [`EllMatrix::convert`].
    pub fn from_csr_ordered(a: &CsrMatrix<S>, order: Permutation) -> Self {
        let nrows = a.nrows();
        assert_eq!(order.len(), nrows, "storage order must cover every row");
        let width = a.max_row_nnz();
        // Filled in place: one allocation (`Vec -> Arc` would copy it).
        let mut col_idx: Arc<[u32]> = std::iter::repeat_n(0, width * nrows).collect();
        let col_idx_mut = Arc::get_mut(&mut col_idx).expect("a fresh Arc has one owner");
        let mut values = vec![S::ZERO; width * nrows];
        let mut diag = vec![S::ZERO; nrows];
        for (p, dp) in diag.iter_mut().enumerate() {
            let i = order.old_of_new(p);
            let (cols, vals) = a.row(i);
            for k in 0..width {
                let slot = k * nrows + p;
                if k < cols.len() {
                    col_idx_mut[slot] = cols[k];
                    values[slot] = vals[k];
                    if cols[k] as usize == i {
                        *dp = vals[k];
                    }
                } else {
                    col_idx_mut[slot] = i as u32;
                }
            }
        }
        let order = Arc::new(order);
        EllMatrix { nrows, ncols: a.ncols(), width, col_idx, values, diag, order, nnz: a.nnz() }
    }

    /// Build slab by slab, in parallel: `fill(k, order, cols, values)`
    /// writes slab `k` — entry `k` of row `i` at position
    /// `order.new_of_old(i)`, for every row — and returns how many of
    /// its entries are not padding. `diag` is the diagonal in position
    /// order. Every column written must be `< ncols` (checked).
    pub fn from_slabs<F>(
        ncols: usize,
        width: usize,
        order: Permutation,
        diag: Vec<S>,
        fill: F,
    ) -> Self
    where
        F: Fn(usize, &Permutation, &mut [u32], &mut [S]) -> usize + Sync,
    {
        let nrows = order.len();
        assert_eq!(diag.len(), nrows, "one diagonal value per position");
        assert!(nrows > 0 && width > 0, "an ELL matrix has rows and slabs");
        // Filled in place: one allocation (`Vec -> Arc` would copy it).
        let mut col_idx: Arc<[u32]> = std::iter::repeat_n(0, width * nrows).collect();
        let col_idx_mut = Arc::get_mut(&mut col_idx).expect("a fresh Arc has one owner");
        let mut values = vec![S::ZERO; width * nrows];
        let nnz = col_idx_mut
            .par_chunks_mut(nrows)
            .zip(values.par_chunks_mut(nrows))
            .enumerate()
            .map(|(k, (cols, vals))| {
                let stored = fill(k, &order, cols, vals);
                assert!(cols.iter().all(|&c| (c as usize) < ncols), "slab {k}: column >= {ncols}");
                stored
            })
            .sum();
        let order = Arc::new(order);
        EllMatrix { nrows, ncols, width, col_idx, values, diag, order, nnz }
    }

    /// Number of owned rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of referenceable columns (owned + ghost).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Padded row width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// True nonzero count (excludes padding).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Stored entry count including padding (`width * nrows`).
    pub fn stored_entries(&self) -> usize {
        self.width * self.nrows
    }

    /// The storage order: position `p` holds row `order().old_of_new(p)`
    /// and row `i` lives at position `order().new_of_old(i)`.
    pub fn order(&self) -> &Permutation {
        &self.order
    }

    /// Diagonal value of row `i`.
    #[inline]
    pub fn diag(&self, i: usize) -> S {
        self.diag[self.order.new_of_old(i)]
    }

    /// Entry `k` of row `i` as `(col, value)`.
    #[inline]
    pub fn entry(&self, i: usize, k: usize) -> (u32, S) {
        let slot = k * self.nrows + self.order.new_of_old(i);
        (self.col_idx[slot], self.values[slot])
    }

    /// Slab `k`'s column indices, in position order.
    pub(crate) fn slab_cols(&self, k: usize) -> &[u32] {
        &self.col_idx[k * self.nrows..(k + 1) * self.nrows]
    }

    /// `y = A x`, sequential.
    ///
    /// All SpMV variants on this type are **split-precision**: the
    /// matrix values are loaded in the stored scalar `S` and widened on
    /// the fly, while every multiply-add runs in the caller's
    /// accumulate precision `Acc` (the vectors' type). With `Acc == S`
    /// this is the classic same-precision kernel, bit for bit; with
    /// e.g. `S = f32, Acc = f64` the dominant matrix-value traffic
    /// halves while accumulation keeps double-precision rounding — the
    /// §5 future-work decoupling of storage from compute.
    pub fn spmv<Acc: Scalar>(&self, x: &[Acc], y: &mut [Acc]) {
        assert!(x.len() >= self.ncols);
        assert!(y.len() >= self.nrows);
        let mut acc = [Acc::ZERO; ROW_BLOCK];
        for p0 in (0..self.nrows).step_by(ROW_BLOCK) {
            let acc = &mut acc[..ROW_BLOCK.min(self.nrows - p0)];
            self.tile_dots(p0, u32::MAX, x, acc);
            for (j, &a) in acc.iter().enumerate() {
                y[self.order.old_of_new(p0 + j)] = a;
            }
        }
    }

    /// `y = A x`, parallel over tiles of positions.
    pub fn spmv_par<Acc: Scalar>(&self, x: &[Acc], y: &mut [Acc]) {
        self.spmv_ranges(std::iter::once(0..self.nrows), x, y);
    }

    /// `y[i] = (A x)[i]` for the rows `i` stored at the positions in
    /// `ranges`, in parallel — the overlap split of §3.2.3 runs the
    /// interior ranges while the halo is in flight and the boundary
    /// ranges after it. `ranges` must ascend without overlapping and lie
    /// in `0..nrows` (checked). Every row accumulates in ascending slab
    /// order, so results match [`EllMatrix::spmv`] bit for bit.
    pub fn spmv_ranges<Acc, I>(&self, ranges: I, x: &[Acc], y: &mut [Acc])
    where
        Acc: Scalar,
        I: Iterator<Item = Range<usize>> + Clone + Sync,
    {
        assert!(y.len() >= self.nrows);
        let shared = SharedMut::new(y);
        let ys = &shared;
        self.row_dots(ranges, x, |p0, acc| {
            for (j, &a) in acc.iter().enumerate() {
                let i = self.order.old_of_new(p0 + j);
                // SAFETY: `order` is a bijection and `row_dots` hands
                // out each position of the (checked disjoint) ranges to
                // exactly one tile, so each task writes its
                // own rows `i < nrows <= y.len()`; `y` is never read.
                unsafe { *ys.get_mut(i) = a };
            }
        });
    }

    /// The one parallel traversal every ELL kernel shares (SpMV, the
    /// Gauss–Seidel sweep, the fused restriction): the positions in
    /// `ranges` are cut into [`ROW_BLOCK`] tiles (none straddling two
    /// ranges), the tiles run on the pool, and each hands its row dots to
    /// `finish(p0, dots)` — `dots[j]` is row `order().old_of_new(p0 + j)`'s
    /// `Σ_k a_ik x_k` in ascending slab order. `ranges` must ascend
    /// without overlapping and lie in `0..nrows` (checked), so every
    /// position reaches exactly one `finish` call. No heap allocation.
    pub fn row_dots<Acc, I, F>(&self, ranges: I, x: &[Acc], finish: F)
    where
        Acc: Scalar,
        I: Iterator<Item = Range<usize>> + Clone + Sync,
        F: Fn(usize, &[Acc]) + Sync,
    {
        self.traverse(ranges, |_| u32::MAX, x, finish);
    }

    /// [`EllMatrix::row_dots`] reading only some slabs: the `t`-th tile
    /// of the traversal (counted across `ranges` in order) reads the
    /// slabs `masks[t]` selects, so `dots[j]` sums only those slabs'
    /// entries, still in ascending slab order. One mask per tile
    /// (checked); a mask that drops a slab must come with `width <= 32`
    /// (checked).
    pub fn row_dots_masked<Acc, I, F>(&self, ranges: I, masks: &[u32], x: &[Acc], finish: F)
    where
        Acc: Scalar,
        I: Iterator<Item = Range<usize>> + Clone + Sync,
        F: Fn(usize, &[Acc]) + Sync,
    {
        assert!(
            self.width <= 32 || masks.iter().all(|&m| m == u32::MAX),
            "a slab mask covers at most 32 slabs, not {}",
            self.width
        );
        let tiles: usize = ranges.clone().map(|r| r.len().div_ceil(ROW_BLOCK)).sum();
        assert_eq!(masks.len(), tiles, "one slab mask per tile");
        self.traverse(ranges, |t| masks[t], x, finish);
    }

    /// The traversal under both: the `t`-th tile reads the slabs
    /// `mask_of(t)` selects.
    fn traverse<Acc, I, M, F>(&self, ranges: I, mask_of: M, x: &[Acc], finish: F)
    where
        Acc: Scalar,
        I: Iterator<Item = Range<usize>> + Clone + Sync,
        M: Fn(usize) -> u32 + Sync,
        F: Fn(usize, &[Acc]) + Sync,
    {
        assert!(x.len() >= self.ncols);
        let mut prev_end = 0;
        for r in ranges.clone() {
            assert!(
                prev_end <= r.start && r.start <= r.end && r.end <= self.nrows,
                "position ranges must ascend without overlapping inside 0..{}",
                self.nrows
            );
            prev_end = r.end;
        }
        let tiles = |r: &Range<usize>| r.len().div_ceil(ROW_BLOCK);
        let total: usize = ranges.clone().map(|r| tiles(&r)).sum();
        (0..total).into_par_iter().for_each(|mut t| {
            let mask = mask_of(t);
            let mut rest = ranges.clone();
            let r = loop {
                let r = rest.next().expect("tile index lies inside the ranges' tiles");
                if t < tiles(&r) {
                    break r;
                }
                t -= tiles(&r);
            };
            let p0 = r.start + t * ROW_BLOCK;
            let mut acc = [Acc::ZERO; ROW_BLOCK];
            let acc = &mut acc[..ROW_BLOCK.min(r.end - p0)];
            self.tile_dots(p0, mask, x, acc);
            finish(p0, acc);
        });
    }

    /// Row dots of positions `[p0, p0 + acc.len())` into `acc`: the
    /// contiguous segment of the tile in every slab `mask` selects,
    /// ascending `k` — the vector kernel, or the scalar reference walk
    /// it reproduces bit for bit. Callers assert `x.len() >= ncols`.
    #[inline]
    fn tile_dots<Acc: Scalar>(&self, p0: usize, mask: u32, x: &[Acc], acc: &mut [Acc]) {
        let (n, len) = (self.nrows, acc.len());
        let (vs, cs) = (&self.values[p0..], &self.col_idx[p0..]);
        // SAFETY: every stored column is `< ncols` (the `col_idx`
        // invariant) and every caller has asserted `x.len() >= ncols`.
        if unsafe { simd::try_ell_tile(vs, cs, n, self.width, mask, x, acc) } {
            return;
        }
        acc.fill(Acc::ZERO);
        for k in (0..self.width).filter(|&k| simd::reads_slab(mask, k)) {
            let (cs, vs) = (&cs[k * n..k * n + len], &vs[k * n..k * n + len]);
            for ((a, &c), &v) in acc.iter_mut().zip(cs).zip(vs) {
                *a = Acc::from_scalar(v).mul_add(x[c as usize], *a);
            }
        }
    }

    /// Diagonal values in position order (crate-internal: the
    /// Gauss–Seidel epilogue streams them beside the tile dots).
    pub(crate) fn diag_by_position(&self) -> &[S] {
        &self.diag
    }

    /// Convert stored values to another precision (batched through the
    /// SIMD converters; same per-element rounding as `from_f64`). The
    /// column indices and the storage order are shared, not copied.
    pub fn convert<T: Scalar>(&self) -> EllMatrix<T> {
        let mut values = vec![T::ZERO; self.values.len()];
        let n = self.nrows.max(1);
        values
            .par_chunks_mut(n)
            .zip(self.values.par_chunks(n))
            .for_each(|(dst, src)| crate::scalar::convert_slice(src, dst));
        let mut diag = vec![T::ZERO; self.diag.len()];
        crate::scalar::convert_slice(&self.diag, &mut diag);
        EllMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            width: self.width,
            col_idx: Arc::clone(&self.col_idx),
            values,
            diag,
            order: self.order.clone(),
            nnz: self.nnz,
        }
    }

    /// Bytes of matrix data read by one SpMV sweep in this format:
    /// padded values + padded column indices, no row pointer (the
    /// trade-off §3.2.2 describes).
    pub fn spmv_matrix_bytes(&self) -> usize {
        self.value_bytes() + self.index_bytes()
    }

    /// Bytes of matrix *values* read by one pass over the stored
    /// entries — the storage-precision-dependent half of the traffic
    /// (what a precision policy shrinks).
    pub fn value_bytes(&self) -> usize {
        self.stored_entries() * S::BYTES
    }

    /// Bytes of column-index data read by one pass (4-byte ids;
    /// independent of the value precision — the paper's explanation
    /// for sub-2x SpMV speedups).
    pub fn index_bytes(&self) -> usize {
        self.stored_entries() * 4
    }

    /// Whether `other` reads this matrix's column-index allocation (as
    /// every copy made by [`EllMatrix::convert`] does).
    pub fn shares_indices<T>(&self, other: &EllMatrix<T>) -> bool {
        Arc::ptr_eq(&self.col_idx, &other.col_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    fn example_csr() -> CsrMatrix<f64> {
        // 4x4 with uneven row lengths and one ghost column (4).
        let mut b = CsrBuilder::new(4, 5, 12);
        b.push_row([(0u32, 4.0), (1, -1.0)]);
        b.push_row([(0u32, -1.0), (1, 4.0), (2, -1.0), (4, -0.5)]);
        b.push_row([(1u32, -1.0), (2, 4.0)]);
        b.push_row([(3u32, 4.0)]);
        b.finish()
    }

    /// Rows of `example_csr` stored in the order 2, 0, 3, 1.
    fn reordered() -> EllMatrix<f64> {
        EllMatrix::from_csr_ordered(&example_csr(), Permutation::from_new_order(&[2, 0, 3, 1]))
    }

    #[test]
    fn layout_is_column_major_with_padding() {
        for a in [EllMatrix::from_csr(&example_csr()), reordered()] {
            assert_eq!(a.width(), 4);
            assert_eq!(a.nnz(), 9);
            assert_eq!(a.stored_entries(), 16);
            // Row 3 has one entry then padding pointing at itself with 0.
            assert_eq!(a.entry(3, 0), (3, 4.0));
            assert_eq!(a.entry(3, 1), (3, 0.0));
            // Row 1 keeps its CSR order across slabs.
            assert_eq!(a.entry(1, 0), (0, -1.0));
            assert_eq!(a.entry(1, 3), (4, -0.5));
        }
        // Row 2 sits at position 0 of every slab of the reordered copy.
        let a = reordered();
        assert_eq!((a.order().old_of_new(0), a.order().new_of_old(2)), (2, 0));
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = example_csr();
        let x = vec![1.0, 2.0, 3.0, 4.0, 10.0];
        let mut y_csr = vec![0.0; 4];
        csr.spmv(&x, &mut y_csr);
        for ell in [EllMatrix::from_csr(&csr), reordered()] {
            let mut y_ell = vec![0.0; 4];
            ell.spmv(&x, &mut y_ell);
            assert_eq!(y_csr, y_ell);
            let mut y_par = vec![0.0; 4];
            ell.spmv_par(&x, &mut y_par);
            assert_eq!(y_csr, y_par);
        }
    }

    #[test]
    fn spmv_rows_subset_matches() {
        // Positions 1..3 of the reordered copy hold rows 0 and 3.
        let ell = reordered();
        let x = vec![1.0, -1.0, 0.5, 2.0, 3.0];
        let mut full = vec![0.0; 4];
        ell.spmv(&x, &mut full);
        let mut part = vec![f64::NAN; 4];
        ell.spmv_ranges(std::iter::once(1..3), &x, &mut part);
        assert_eq!(part[0], full[0]);
        assert_eq!(part[3], full[3]);
        assert!(part[1].is_nan() && part[2].is_nan());
    }

    #[test]
    #[should_panic(expected = "ascend without overlapping")]
    fn overlapping_ranges_are_rejected() {
        let ell = reordered();
        let x = vec![0.0; 5];
        let mut y = vec![0.0; 4];
        ell.spmv_ranges([0..3, 2..4].into_iter(), &x, &mut y);
    }

    /// A matrix large and wide enough for several tiles: a 1D 17-point
    /// band on `n` rows.
    fn wide_band(n: usize) -> CsrMatrix<f64> {
        let mut b = CsrBuilder::new(n, n, 17 * n);
        for i in 0..n as i64 {
            let mut e = Vec::new();
            for d in -8..=8i64 {
                let j = i + d;
                if j >= 0 && (j as usize) < n {
                    let v = if d == 0 { 20.0 } else { -1.0 / (d.abs() as f64) };
                    e.push((j as u32, v));
                }
            }
            b.push_row(e);
        }
        b.finish()
    }

    /// Odd rows first, then even rows: a storage order unlike the
    /// natural one.
    fn odd_even(n: usize) -> Permutation {
        let order: Vec<u32> = (1..n as u32).step_by(2).chain((0..n as u32).step_by(2)).collect();
        Permutation::from_new_order(&order)
    }

    #[test]
    fn rowblock_variants_are_bit_identical_to_rowwise() {
        // Every tiled traversal equals the row-wise dot of each row, at
        // every pair of stored and accumulate precision.
        fn check<S: Scalar, Acc: Scalar>(ell: &EllMatrix<f64>) {
            let ell: EllMatrix<S> = ell.convert();
            let n = ell.nrows();
            let x: Vec<Acc> = (0..n).map(|i| Acc::from_f64((i as f64 * 0.37).sin())).collect();
            let rowwise: Vec<Acc> = (0..n)
                .map(|i| {
                    (0..ell.width()).fold(Acc::ZERO, |acc, k| {
                        let (c, v) = ell.entry(i, k);
                        Acc::from_scalar(v).mul_add(x[c as usize], acc)
                    })
                })
                .collect();
            let mut y_seq = vec![Acc::ZERO; n];
            let mut y_par = vec![Acc::ZERO; n];
            ell.spmv(&x, &mut y_seq);
            rayon::ThreadPool::new(4).install(|| ell.spmv_par(&x, &mut y_par));
            assert_eq!(y_seq, rowwise, "{} stored, {} accumulated", S::NAME, Acc::NAME);
            assert_eq!(y_par, rowwise, "{} stored, {} accumulated", S::NAME, Acc::NAME);
        }
        let a = wide_band(3 * ROW_BLOCK + 41);
        let ell = EllMatrix::from_csr_ordered(&a, odd_even(a.nrows()));
        check::<f64, f64>(&ell);
        check::<f32, f64>(&ell);
        check::<crate::Half, f64>(&ell);
        check::<f32, f32>(&ell);
        check::<crate::Half, f32>(&ell);
        check::<f64, f32>(&ell);
    }

    #[test]
    fn spmv_rows_par_matches_serial_subset() {
        let a = wide_band(600);
        let ell = EllMatrix::from_csr_ordered(&a, odd_even(600));
        let x: Vec<f64> = (0..600).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut full = vec![0.0; 600];
        ell.spmv(&x, &mut full);
        let ranges = [3..290, 290..290, 300..599];
        let mut part = vec![f64::NAN; 600];
        rayon::ThreadPool::new(4)
            .install(|| ell.spmv_ranges(ranges.iter().cloned(), &x, &mut part));
        for p in 0..600 {
            let i = ell.order().old_of_new(p);
            if ranges.iter().any(|r| r.contains(&p)) {
                assert_eq!(part[i], full[i]);
            } else {
                assert!(part[i].is_nan(), "position {p} is outside the ranges");
            }
        }
    }

    #[test]
    fn diagonal_extraction() {
        for ell in [EllMatrix::from_csr(&example_csr()), reordered()] {
            let d: Vec<f64> = (0..4).map(|i| ell.diag(i)).collect();
            assert_eq!(d, [4.0, 4.0, 4.0, 4.0]);
        }
    }

    #[test]
    fn conversion_to_f32() {
        let ell = reordered();
        let e32: EllMatrix<f32> = ell.convert();
        assert_eq!(e32.nnz(), ell.nnz());
        assert_eq!(e32.order(), ell.order());
        // One index allocation for both copies; a fresh build has its own.
        assert!(e32.shares_indices(&ell));
        assert!(!EllMatrix::from_csr(&example_csr()).shares_indices(&ell));
        let x = vec![1.0f32; 5];
        let mut y = vec![0.0f32; 4];
        e32.spmv(&x, &mut y);
        let mut y64 = vec![0.0f64; 4];
        ell.spmv(&[1.0f64; 5], &mut y64);
        for i in 0..4 {
            assert!((y[i] as f64 - y64[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn split_precision_spmv_tracks_f64_within_f32_rounding() {
        // fp32-stored values, f64 accumulation: the error is bounded by
        // the value rounding alone (the accumulator adds ~eps_f64).
        let a = wide_band(700);
        let ell64 = EllMatrix::from_csr(&a);
        let ell32: EllMatrix<f32> = ell64.convert();
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut y64 = vec![0.0f64; n];
        let mut y_split = vec![0.0f64; n];
        ell64.spmv(&x, &mut y64);
        ell32.spmv(&x, &mut y_split); // f32 values, f64 vectors
        for (i, (a, b)) in y64.iter().zip(y_split.iter()).enumerate() {
            let row_scale: f64 = (0..ell64.width())
                .map(|k| {
                    let (c, v) = ell64.entry(i, k);
                    (v.to_f64() * x[c as usize]).abs()
                })
                .sum();
            let bound = 2.0 * f32::EPSILON as f64 * row_scale + 1e-300;
            assert!((a - b).abs() <= bound, "row {i}: {a} vs {b}, bound {bound}");
        }
        // Both traversals agree bit-for-bit at the split precision too.
        let mut y_par = vec![0.0f64; n];
        ell32.spmv_par(&x, &mut y_par);
        assert_eq!(y_split, y_par);
    }

    #[test]
    fn value_and_index_bytes_split() {
        let ell = EllMatrix::from_csr(&example_csr());
        assert_eq!(ell.value_bytes(), 16 * 8);
        assert_eq!(ell.index_bytes(), 16 * 4);
        let e32: EllMatrix<f32> = ell.convert();
        assert_eq!(e32.value_bytes(), 16 * 4);
        let e16: EllMatrix<crate::Half> = ell.convert();
        assert_eq!(e16.value_bytes(), 16 * 2);
    }

    #[test]
    fn bytes_and_padding() {
        let ell = EllMatrix::from_csr(&example_csr());
        assert_eq!(ell.spmv_matrix_bytes(), 16 * 12);
        assert_eq!((ell.stored_entries(), ell.nnz()), (16, 9), "7 padded slots");
        let e32: EllMatrix<f32> = ell.convert();
        assert_eq!(e32.spmv_matrix_bytes(), 16 * 8);
    }
}
