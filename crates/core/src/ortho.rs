//! Distributed orthogonalization of Krylov basis vectors.
//!
//! The benchmark prescribes CGS2 — classical Gram–Schmidt with full
//! reorthogonalization (Algorithm 3, lines 20–27). Classical GS batches
//! all k inner products of an iteration into one GEMV-T and therefore
//! one all-reduce, which is why it scales better than modified GS (one
//! all-reduce per basis vector) — the effect §4.1 discusses. The price
//! is roundoff-driven loss of orthogonality, which the second pass
//! repairs (Giraud et al., the paper's reference 19).
//!
//! Local arithmetic runs in the working precision `S`; reductions are
//! always `f64`.

use crate::flops;
use crate::motifs::{Motif, MotifStats};
use hpgmxp_comm::{Comm, CommResult, ReduceOp};
use hpgmxp_sparse::blas::{self, Basis};
use hpgmxp_sparse::Scalar;
use std::time::Instant;

/// Result of orthogonalizing one new basis vector. The Hessenberg
/// column `h_{0..k, k}` stays in the basis' workspace
/// ([`Basis::hessenberg`]), in `f64` for the Givens QR.
#[derive(Debug, Clone, Copy)]
pub struct OrthoResult {
    /// The new vector's norm after projection, `h_{k+1,k}`.
    pub beta: f64,
    /// Whether the norm vanished (happy breakdown / exact solve).
    pub breakdown: bool,
}

/// CGS2: orthonormalize basis column `k` against columns `0..k`
/// in place; the Hessenberg coefficients land in `q.hessenberg(k)`.
/// Panics on a transport fault. Pinned by the benchmark adapter, which
/// calls this form; the solver calls [`cgs2_checked`].
pub fn cgs2<S: Scalar, C: Comm>(
    comm: &C,
    stats: &mut MotifStats,
    q: &mut Basis<S>,
    k: usize,
) -> OrthoResult {
    cgs2_checked(comm, stats, q, k).unwrap_or_else(|e| panic!("{e}"))
}

/// [`cgs2`] that surfaces transport faults as a typed error. Runs in
/// the basis' workspace and allocates nothing.
pub fn cgs2_checked<S: Scalar, C: Comm>(
    comm: &C,
    stats: &mut MotifStats,
    q: &mut Basis<S>,
    k: usize,
) -> CommResult<OrthoResult> {
    let t0 = Instant::now();
    let n = q.n();
    // Two identical projection passes (the "2" in CGS2), one k-value
    // all-reduce each.
    q.cgs2_passes(k, |hf| comm.allreduce_checked(hf, ReduceOp::Sum))?;

    // Normalize (deterministic blocked parallel reduction).
    let local_sq = blas::norm2_sq_par(q.col(k)).to_f64();
    let beta = comm.allreduce_scalar(local_sq, ReduceOp::Sum)?.max(0.0).sqrt();
    let breakdown = beta <= f64::EPSILON;
    if !breakdown {
        blas::scal(S::from_f64(1.0 / beta), q.col_mut(k));
    }

    stats.record(Motif::Ortho, t0.elapsed().as_secs_f64(), flops::cgs2_step(n, k));
    Ok(OrthoResult { beta, breakdown })
}

/// Modified Gram–Schmidt (single pass, one all-reduce per column) —
/// the classical alternative, provided for the orthogonality-quality
/// and communication-cost comparisons.
pub fn mgs<S: Scalar, C: Comm>(
    comm: &C,
    stats: &mut MotifStats,
    q: &mut Basis<S>,
    k: usize,
) -> CommResult<OrthoResult> {
    let t0 = Instant::now();
    let n = q.n();
    for j in 0..k {
        let local = blas::dot_par(q.col(j), q.col(k)).to_f64();
        let hj = comm.allreduce_scalar(local, ReduceOp::Sum)?;
        q.hessenberg_mut(k)[j] = hj;
        q.axpy_cols(j, k, S::from_f64(hj));
    }
    let local_sq = blas::norm2_sq_par(q.col(k)).to_f64();
    let beta = comm.allreduce_scalar(local_sq, ReduceOp::Sum)?.max(0.0).sqrt();
    let breakdown = beta <= f64::EPSILON;
    if !breakdown {
        blas::scal(S::from_f64(1.0 / beta), q.col_mut(k));
    }
    stats.record(Motif::Ortho, t0.elapsed().as_secs_f64(), flops::cgs2_step(n, k) / 2.0);
    Ok(OrthoResult { beta, breakdown })
}

/// Measure the worst pairwise loss of orthogonality `max |qᵢ·qⱼ|`
/// over the first `k` columns (diagnostic used by tests and the
/// orthogonality study example).
pub fn orthogonality_defect<S: Scalar, C: Comm>(
    comm: &C,
    q: &Basis<S>,
    k: usize,
) -> CommResult<f64> {
    let mut worst = 0.0f64;
    for i in 0..k {
        for j in 0..i {
            let local = blas::dot(q.col(i), q.col(j)).to_f64();
            let v = comm.allreduce_scalar(local, ReduceOp::Sum)?.abs();
            worst = worst.max(v);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpgmxp_comm::{run_spmd, SelfComm};

    fn fill_col(q: &mut Basis<f64>, k: usize, f: impl Fn(usize) -> f64) {
        for (i, v) in q.col_mut(k).iter_mut().enumerate() {
            *v = f(i);
        }
    }

    #[test]
    fn cgs2_produces_orthonormal_basis() {
        let comm = SelfComm;
        let mut stats = MotifStats::new();
        let n = 50;
        let mut q: Basis<f64> = Basis::new(n, 6);
        // First vector: normalized by hand.
        fill_col(&mut q, 0, |i| ((i + 1) as f64).sin());
        let nrm = blas::norm2_sq(q.col(0)).sqrt();
        blas::scal(1.0 / nrm, q.col_mut(0));
        // Add five more correlated vectors.
        for k in 1..6 {
            fill_col(&mut q, k, |i| ((i * k + 1) as f64).cos() + 0.9 * ((i + 1) as f64).sin());
            let r = cgs2(&comm, &mut stats, &mut q, k);
            assert!(!r.breakdown);
            assert_eq!(q.hessenberg(k).len(), k);
        }
        assert!(orthogonality_defect(&comm, &q, 6).unwrap() < 1e-13);
        assert!(stats.flops(Motif::Ortho) > 0.0);
    }

    #[test]
    fn cgs2_recovers_exact_coefficients() {
        // col1 = 2*col0 + orthogonal part: h must recover the 2.0.
        let comm = SelfComm;
        let mut stats = MotifStats::new();
        let mut q: Basis<f64> = Basis::new(4, 2);
        q.col_mut(0).copy_from_slice(&[1.0, 0.0, 0.0, 0.0]);
        q.col_mut(1).copy_from_slice(&[2.0, 0.0, 3.0, 0.0]);
        let r = cgs2(&comm, &mut stats, &mut q, 1);
        assert!((q.hessenberg(1)[0] - 2.0).abs() < 1e-14);
        assert!((r.beta - 3.0).abs() < 1e-14);
        assert_eq!(q.col(1), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn breakdown_detected_for_dependent_vector() {
        let comm = SelfComm;
        let mut stats = MotifStats::new();
        let mut q: Basis<f64> = Basis::new(3, 2);
        q.col_mut(0).copy_from_slice(&[1.0, 0.0, 0.0]);
        q.col_mut(1).copy_from_slice(&[5.0, 0.0, 0.0]); // linearly dependent
        let r = cgs2(&comm, &mut stats, &mut q, 1);
        assert!(r.breakdown);
        assert!(r.beta <= f64::EPSILON);
    }

    #[test]
    fn mgs_matches_cgs2_coefficients_in_exact_arithmetic() {
        let comm = SelfComm;
        let mut s1 = MotifStats::new();
        let mut s2 = MotifStats::new();
        let n = 20;
        let make = || {
            let mut q: Basis<f64> = Basis::new(n, 3);
            fill_col(&mut q, 0, |i| if i == 0 { 1.0 } else { 0.0 });
            fill_col(&mut q, 1, |i| ((i + 2) as f64).ln());
            q
        };
        let mut qa = make();
        let ra = cgs2(&comm, &mut s1, &mut qa, 1);
        let mut qb = make();
        let rb = mgs(&comm, &mut s2, &mut qb, 1).unwrap();
        assert!((qa.hessenberg(1)[0] - qb.hessenberg(1)[0]).abs() < 1e-12);
        assert!((ra.beta - rb.beta).abs() < 1e-12);
    }

    #[test]
    fn distributed_cgs2_equals_serial() {
        // 2 ranks each owning half of the vectors: coefficients must
        // equal the single-rank result on the concatenation.
        let n_half = 10;
        let results = run_spmd(2, move |c| {
            let mut stats = MotifStats::new();
            let mut q: Basis<f64> = Basis::new(n_half, 2);
            let off = c.rank() * n_half;
            for (i, v) in q.col_mut(0).iter_mut().enumerate() {
                *v = ((off + i) as f64 + 1.0).sin();
            }
            let nrm_sq = blas::norm2_sq(q.col(0));
            let nrm = c.allreduce_scalar(nrm_sq, ReduceOp::Sum).unwrap().sqrt();
            blas::scal(1.0 / nrm, q.col_mut(0));
            for (i, v) in q.col_mut(1).iter_mut().enumerate() {
                *v = ((off + i) as f64).cos();
            }
            let r = cgs2(&c, &mut stats, &mut q, 1);
            (q.hessenberg(1)[0], r.beta)
        });

        // Serial reference on the concatenated vector.
        let comm = SelfComm;
        let mut stats = MotifStats::new();
        let mut q: Basis<f64> = Basis::new(2 * n_half, 2);
        for (i, v) in q.col_mut(0).iter_mut().enumerate() {
            *v = (i as f64 + 1.0).sin();
        }
        let nrm = blas::norm2_sq(q.col(0)).sqrt();
        blas::scal(1.0 / nrm, q.col_mut(0));
        for (i, v) in q.col_mut(1).iter_mut().enumerate() {
            *v = (i as f64).cos();
        }
        let r = cgs2(&comm, &mut stats, &mut q, 1);

        for (h, beta) in results {
            assert!((h - q.hessenberg(1)[0]).abs() < 1e-12);
            assert!((beta - r.beta).abs() < 1e-12);
        }
    }

    #[test]
    fn f32_cgs2_orthogonalizes_to_f32_accuracy() {
        let comm = SelfComm;
        let mut stats = MotifStats::new();
        let n = 40;
        let mut q: Basis<f32> = Basis::new(n, 4);
        for (i, v) in q.col_mut(0).iter_mut().enumerate() {
            *v = if i == 0 { 1.0 } else { 0.0 };
        }
        for k in 1..4 {
            for (i, v) in q.col_mut(k).iter_mut().enumerate() {
                *v = ((i * k) as f32 * 0.37).sin() + 0.5;
            }
            let r = cgs2(&comm, &mut stats, &mut q, k);
            assert!(!r.breakdown);
        }
        assert!(orthogonality_defect(&comm, &q, 4).unwrap() < 1e-5);
    }
}
