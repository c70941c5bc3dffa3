//! Compressed sparse row (CSR) storage.
//!
//! CSR is the format used by the HPG-MxP *reference* implementation.
//! Local matrices in a distributed run are rectangular: `nrows` owned
//! rows by `ncols = nrows + n_ghost` columns, where columns
//! `>= nrows` refer to halo (ghost) entries received from neighbor
//! ranks. Column indices are 32-bit, matching the index-array traffic
//! the paper's roofline model accounts for.

use crate::scalar::Scalar;
use core::any::TypeId;
use rayon::prelude::*;

/// Row dot `Σ_k widen(vals[k]) * x[cols[k]]` in ascending entry order.
///
/// Split storage (`S != Acc`) widens the row's value run in
/// chunk-sized batches through the SIMD converters (exact — the same
/// per-element widening as `from_scalar`), then runs the identical
/// fused chain, so results match the per-element loop bit-for-bit.
#[inline]
fn row_dot_acc<S: Scalar, Acc: Scalar>(cols: &[u32], vals: &[S], x: &[Acc]) -> Acc {
    let mut acc = Acc::ZERO;
    if TypeId::of::<S>() != TypeId::of::<Acc>() {
        const CHUNK: usize = 64;
        let mut w = [Acc::ZERO; CHUNK];
        let mut at = 0usize;
        while at < vals.len() {
            let len = CHUNK.min(vals.len() - at);
            crate::scalar::convert_slice(&vals[at..at + len], &mut w[..len]);
            for (wk, c) in w[..len].iter().zip(&cols[at..at + len]) {
                acc = wk.mul_add(x[*c as usize], acc);
            }
            at += len;
        }
        return acc;
    }
    for (c, v) in cols.iter().zip(vals.iter()) {
        acc = Acc::from_scalar(*v).mul_add(x[*c as usize], acc);
    }
    acc
}

/// A CSR sparse matrix with scalar type `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<S> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<S>,
    /// Position (into `col_idx`/`values`) of each row's diagonal entry.
    diag_pos: Vec<u32>,
}

/// Incremental row-by-row CSR builder.
///
/// Rows must be pushed in order; each row must contain its diagonal
/// (every benchmark row does — the operator is weakly diagonally
/// dominant with diagonal 26).
pub struct CsrBuilder<S> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<S>,
    diag_pos: Vec<u32>,
}

impl<S: Scalar> CsrBuilder<S> {
    /// Start a matrix with `nrows` owned rows and `ncols` referenceable
    /// columns (owned + ghost), reserving for about `nnz_hint` entries.
    pub fn new(nrows: usize, ncols: usize, nnz_hint: usize) -> Self {
        assert!(ncols >= nrows, "column space must include all owned rows");
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        CsrBuilder {
            nrows,
            ncols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz_hint),
            values: Vec::with_capacity(nnz_hint),
            diag_pos: Vec::with_capacity(nrows),
        }
    }

    /// Append the next row. `entries` is a sequence of `(col, value)`.
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (u32, S)>) {
        let row = self.row_ptr.len() - 1;
        assert!(row < self.nrows, "more rows pushed than declared");
        let start = self.col_idx.len();
        let mut diag = u32::MAX;
        for (c, v) in entries {
            assert!((c as usize) < self.ncols, "column {} out of range {}", c, self.ncols);
            if c as usize == row {
                diag = self.col_idx.len() as u32;
            }
            self.col_idx.push(c);
            self.values.push(v);
        }
        assert!(diag != u32::MAX, "row {} has no diagonal entry", row);
        assert!(self.col_idx.len() > start, "empty row {}", row);
        self.diag_pos.push(diag);
        self.row_ptr.push(self.col_idx.len() as u32);
    }

    /// Finish building; panics if fewer rows than declared were pushed.
    pub fn finish(self) -> CsrMatrix<S> {
        assert_eq!(self.row_ptr.len(), self.nrows + 1, "not all rows were pushed");
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
            diag_pos: self.diag_pos,
        }
    }
}

impl<S: Scalar> CsrMatrix<S> {
    /// Number of owned rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of referenceable columns (owned + ghost).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// A row's `(columns, values)` pair.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[S]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The diagonal value of row `i`.
    #[inline]
    pub fn diag(&self, i: usize) -> S {
        self.values[self.diag_pos[i] as usize]
    }

    /// `y = A x`, sequential. `x` must cover the full column space
    /// (owned + ghosts); `y` covers owned rows.
    ///
    /// Split-precision: values are loaded in the stored scalar `S` and
    /// widened on the fly; all arithmetic runs in the vectors'
    /// accumulate precision `Acc` (identity when `Acc == S`).
    pub fn spmv<Acc: Scalar>(&self, x: &[Acc], y: &mut [Acc]) {
        assert!(x.len() >= self.ncols, "input vector shorter than column space");
        assert!(y.len() >= self.nrows);
        for (i, yi) in y[..self.nrows].iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            *yi = row_dot_acc(cols, vals, x);
        }
    }

    /// `y = A x`, parallel over rows (the CPU analog of the GPU kernel).
    pub fn spmv_par<Acc: Scalar>(&self, x: &[Acc], y: &mut [Acc]) {
        assert!(x.len() >= self.ncols);
        assert!(y.len() >= self.nrows);
        let rp = &self.row_ptr;
        let ci = &self.col_idx;
        let vs = &self.values;
        y[..self.nrows].par_iter_mut().enumerate().for_each(|(i, yi)| {
            let lo = rp[i] as usize;
            let hi = rp[i + 1] as usize;
            *yi = row_dot_acc(&ci[lo..hi], &vs[lo..hi], x);
        });
    }

    /// Convert every stored value to another precision. Ghost structure
    /// and sparsity are unchanged; this is how the mixed-precision solver
    /// obtains its low-precision operator copy.
    pub fn convert<T: Scalar>(&self) -> CsrMatrix<T> {
        let mut values = vec![T::ZERO; self.values.len()];
        crate::scalar::convert_slice(&self.values, &mut values);
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
            diag_pos: self.diag_pos.clone(),
        }
    }

    /// Symmetric permutation `P A Pᵀ` of the owned block.
    ///
    /// Row `i` of the result is row `perm.old_of_new(i)` of `self`, and
    /// owned column ids are relabelled through the permutation. Ghost
    /// columns (`>= nrows`) keep their identity — ghost numbering is
    /// owned by the halo plan, not the ordering.
    pub fn symmetric_permute(&self, perm: &crate::ordering::Permutation) -> CsrMatrix<S> {
        assert_eq!(perm.len(), self.nrows);
        let mut b = CsrBuilder::new(self.nrows, self.ncols, self.nnz());
        let mut scratch: Vec<(u32, S)> = Vec::with_capacity(32);
        for new_i in 0..self.nrows {
            let old_i = perm.old_of_new(new_i);
            let (cols, vals) = self.row(old_i);
            scratch.clear();
            for (c, v) in cols.iter().zip(vals.iter()) {
                let nc = if (*c as usize) < self.nrows {
                    perm.new_of_old(*c as usize) as u32
                } else {
                    *c
                };
                scratch.push((nc, *v));
            }
            scratch.sort_unstable_by_key(|e| e.0);
            b.push_row(scratch.iter().copied());
        }
        b.finish()
    }

    /// Dense representation of the owned block (tests only; ghost
    /// columns are appended after the owned ones).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for (i, row_out) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals.iter()) {
                row_out[*c as usize] += v.to_f64();
            }
        }
        out
    }

    /// Maximum nonzeros in any row (the ELL width this matrix needs).
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|i| (self.row_ptr[i + 1] - self.row_ptr[i]) as usize).max().unwrap_or(0)
    }

    /// Bytes of matrix data read by one SpMV sweep in this format:
    /// values + column indices + row pointers. Vector traffic is
    /// accounted separately by the machine model.
    pub fn spmv_matrix_bytes(&self) -> usize {
        self.value_bytes() + self.index_bytes()
    }

    /// Bytes of matrix *values* read by one pass over the nonzeros —
    /// the storage-precision-dependent half of the traffic.
    pub fn value_bytes(&self) -> usize {
        self.nnz() * S::BYTES
    }

    /// Bytes of index metadata read by one pass (column ids + row
    /// pointers), independent of the value precision.
    pub fn index_bytes(&self) -> usize {
        self.nnz() * 4 + (self.nrows + 1) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::Permutation;

    fn laplacian_1d(n: usize) -> CsrMatrix<f64> {
        let mut b = CsrBuilder::new(n, n, 3 * n);
        for i in 0..n {
            let mut row = Vec::new();
            if i > 0 {
                row.push(((i - 1) as u32, -1.0));
            }
            row.push((i as u32, 2.0));
            if i + 1 < n {
                row.push(((i + 1) as u32, -1.0));
            }
            b.push_row(row);
        }
        b.finish()
    }

    #[test]
    fn build_and_query() {
        let a = laplacian_1d(5);
        assert_eq!(a.nrows(), 5);
        assert_eq!(a.nnz(), 13);
        assert_eq!(a.diag(0), 2.0);
        assert_eq!(a.max_row_nnz(), 3);
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[1, 2, 3]);
        assert_eq!(vals, &[-1.0, 2.0, -1.0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = laplacian_1d(7);
        let x: Vec<f64> = (0..7).map(|i| (i * i) as f64).collect();
        let mut y = vec![0.0; 7];
        a.spmv(&x, &mut y);
        let dense = a.to_dense();
        for i in 0..7 {
            let expect: f64 = dense[i].iter().zip(x.iter()).map(|(a, b)| a * b).sum();
            assert!((y[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn spmv_par_matches_serial() {
        let a = laplacian_1d(100);
        let x: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; 100];
        let mut y2 = vec![0.0; 100];
        a.spmv(&x, &mut y1);
        a.spmv_par(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn convert_to_f32_rounds_values() {
        let a = laplacian_1d(4);
        let a32: CsrMatrix<f32> = a.convert();
        assert_eq!(a32.nnz(), a.nnz());
        assert_eq!(a32.diag(1), 2.0f32);
        let x = vec![1.0f32; 4];
        let mut y = vec![0.0f32; 4];
        a32.spmv(&x, &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn ghost_columns_allowed() {
        // 2 owned rows, 1 ghost column (id 2).
        let mut b = CsrBuilder::new(2, 3, 6);
        b.push_row([(0u32, 2.0), (1, -1.0), (2, -0.5)]);
        b.push_row([(0u32, -1.0), (1, 2.0)]);
        let a = b.finish();
        let x = vec![1.0, 1.0, 4.0]; // ghost value 4.0
        let mut y = vec![0.0; 2];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![2.0 - 1.0 - 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn missing_diagonal_is_rejected() {
        let mut b = CsrBuilder::new(2, 2, 4);
        b.push_row([(1u32, 1.0)]);
    }

    #[test]
    fn symmetric_permute_preserves_spmv() {
        // P A Pᵀ (P x) == P (A x).
        let a = laplacian_1d(6);
        let perm = Permutation::from_new_order(&[5, 3, 1, 0, 2, 4]);
        let pa = a.symmetric_permute(&perm);
        let x: Vec<f64> = (0..6).map(|i| i as f64 + 0.5).collect();
        let mut ax = vec![0.0; 6];
        a.spmv(&x, &mut ax);

        let px = perm.apply(&x);
        let mut pax = vec![0.0; 6];
        pa.spmv(&px, &mut pax);
        let expect = perm.apply(&ax);
        for i in 0..6 {
            assert!((pax[i] - expect[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn bytes_accounting() {
        let a = laplacian_1d(5);
        // 13 nnz * (8 + 4) + 6 * 4 row ptr.
        assert_eq!(a.spmv_matrix_bytes(), 13 * 12 + 24);
    }
}
