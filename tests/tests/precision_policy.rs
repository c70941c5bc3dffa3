//! Precision-policy engine tests: split-precision kernel error bounds
//! (property-based, with shrinking) and end-to-end GMRES-IR
//! convergence under every shipped policy.
//!
//! The error-bound properties pin the analytical contract of the split
//! kernels: storing values at fp32 under f64 accumulation perturbs
//! each stored value by at most `eps_f32` *relatively*, so the SpMV
//! result differs from pure f64 by at most
//! `(eps_f32 + O(n·eps_f64)) · Σ|a_ij·x_j|` per row — an
//! `n·eps`-shaped bound in the row length with the *storage*
//! precision's epsilon, not the accumulator's. The solver tests pin
//! the engineering contract: every shipped policy still reaches the
//! benchmark's 1e-9 relative residual, because the outer residual and
//! update remain f64.

use hpgmxp_comm::{run_spmd, Comm, SelfComm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::{gmres_solve_f64, GmresOptions};
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::motifs::{Motif, MotifStats};
use hpgmxp_core::ops::{dist_gs_sweep, dist_spmv, OpCtx, SweepDir};
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_sparse::csr::{CsrBuilder, CsrMatrix};
use hpgmxp_sparse::{EllMatrix, PrecKind};
use proptest::prelude::*;

/// A random banded, weakly diagonally dominant matrix shaped like the
/// benchmark operator (negative off-diagonals, dominant diagonal).
fn arb_band_matrix(max_n: usize, max_band: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (4..max_n, 1..max_band, 0u64..1_000_000).prop_map(|(n, band, seed)| {
        let mut b = CsrBuilder::new(n, n, n * (2 * band + 1));
        for i in 0..n {
            let mut entries: Vec<(u32, f64)> = Vec::new();
            let mut offsum = 0.0;
            for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                if j != i {
                    // Deterministic pseudo-random magnitudes in (0, 1].
                    let h = (seed ^ ((i * 31 + j) as u64).wrapping_mul(0x9e3779b97f4a7c15))
                        .wrapping_mul(0xbf58476d1ce4e5b9);
                    let v = -(((h >> 11) as f64) / (1u64 << 53) as f64) - 1e-3;
                    offsum += v.abs();
                    entries.push((j as u32, v));
                }
            }
            entries.push((i as u32, offsum + 1.0));
            entries.sort_unstable_by_key(|e| e.0);
            b.push_row(entries);
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // fp32-stored / f64-accumulated SpMV stays within an
    // eps_f32-relative-per-entry bound of the pure-f64 result:
    // |y_split[i] − y64[i]| ≤ (2·eps_f32 + 4·w·eps_f64) · Σ_j |a_ij·x_j|.
    #[test]
    fn split_f32_storage_spmv_error_is_eps_f32_shaped(
        a in arb_band_matrix(64, 6),
        scale in 0.5f64..100.0,
    ) {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64 * 0.13 - 6.0) * scale).collect();
        let ell64 = EllMatrix::from_csr(&a);
        let a32: CsrMatrix<f32> = a.convert();
        let ell32 = EllMatrix::from_csr(&a32);

        let mut y64 = vec![0.0f64; n];
        let mut y_split = vec![0.0f64; n];
        ell64.spmv(&x, &mut y64);
        ell32.spmv(&x, &mut y_split); // f32 values, f64 vectors/accumulation

        let w = ell64.width() as f64;
        for i in 0..n {
            let row_abs: f64 = (0..ell64.width())
                .map(|k| {
                    let (c, v) = ell64.entry(i, k);
                    (v * x[c as usize]).abs()
                })
                .sum();
            let bound = (2.0 * f32::EPSILON as f64 + 4.0 * w * f64::EPSILON) * row_abs + 1e-300;
            prop_assert!(
                (y64[i] - y_split[i]).abs() <= bound,
                "row {}: |{} - {}| > bound {}",
                i, y64[i], y_split[i], bound
            );
        }

        // CSR and ELL split kernels agree bit-for-bit (same accumulation order).
        let mut y_csr = vec![0.0f64; n];
        a32.spmv(&x, &mut y_csr);
        let mut y_par = vec![0.0f64; n];
        ell32.spmv_par(&x, &mut y_par);
        for i in 0..n {
            prop_assert_eq!(y_csr[i].to_bits(), y_split[i].to_bits());
            prop_assert_eq!(y_par[i].to_bits(), y_split[i].to_bits());
        }
    }

    // The same bound with fp16 storage under f32 accumulation, at
    // fp16's epsilon (2^-10) — the paper's §5 half-precision scenario
    // without a standalone-fp16 accumulator breakdown.
    #[test]
    fn split_f16_storage_spmv_error_is_eps_f16_shaped(a in arb_band_matrix(48, 4)) {
        let n = a.nrows();
        let x: Vec<f32> = (0..n).map(|i| (i * 29 % 83) as f32 * 0.07 - 2.0).collect();
        let a16: CsrMatrix<hpgmxp_sparse::Half> = a.convert();
        let ell16 = EllMatrix::from_csr(&a16);
        let x64: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let ell64 = EllMatrix::from_csr(&a);

        let mut y64 = vec![0.0f64; n];
        ell64.spmv(&x64, &mut y64);
        let mut y_split = vec![0.0f32; n];
        ell16.spmv(&x, &mut y_split); // fp16 values, f32 accumulation

        let eps16 = f64::powi(2.0, -10);
        let w = ell64.width() as f64;
        for i in 0..n {
            let row_abs: f64 = (0..ell64.width())
                .map(|k| {
                    let (c, v) = ell64.entry(i, k);
                    (v * x64[c as usize]).abs()
                })
                .sum();
            let bound = (2.0 * eps16 + 8.0 * w * f32::EPSILON as f64) * row_abs + 1e-30;
            prop_assert!(
                (y64[i] - y_split[i] as f64).abs() <= bound,
                "row {}: |{} - {}| > bound {}",
                i, y64[i], y_split[i], bound
            );
        }
    }
}

fn spec(procs: ProcGrid, n: u32, levels: usize) -> ProblemSpec {
    ProblemSpec {
        local: (n, n, n),
        procs,
        stencil: Stencil27::symmetric(),
        mg_levels: levels,
        seed: 23,
    }
}

/// Every shipped policy converges to the benchmark tolerance, and its
/// nd/nir penalty ratio is reported (printed for the log, ordered for
/// the assertion: more aggressive storage never *helps* iterations).
#[test]
fn every_shipped_policy_reaches_1e9_with_reported_penalty() {
    let sp = spec(ProcGrid::new(1, 1, 1), 16, 4);
    let tl = Timeline::disabled();
    let opts = GmresOptions { max_iters: 8000, tol: 1e-9, ..Default::default() };

    // The double-precision yardstick n_d.
    let prob_f64 = assemble_with_policy(&sp, 0, &PrecisionPolicy::f64());
    let (_, st_d) = gmres_solve_f64(&SelfComm, &prob_f64, &opts, &tl);
    assert!(st_d.converged);
    let nd = st_d.iters;

    for policy in PrecisionPolicy::shipped() {
        let prob = assemble_with_policy(&sp, 0, &policy);
        let (x, st) = gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &tl);
        assert!(
            st.converged && st.final_relres < 1e-9,
            "policy {} stalled at relres {:.3e}",
            policy.name,
            st.final_relres
        );
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-5, "policy {}: x = {}", policy.name, xi);
        }
        let ratio = nd as f64 / st.iters as f64;
        println!(
            "policy {:<10} nd = {:>4}, nir = {:>4}, penalty ratio = {:.3}",
            policy.name, nd, st.iters, ratio
        );
        assert!(
            st.iters >= nd,
            "a lower-precision inner solve cannot need fewer iterations than pure f64: {} vs {}",
            st.iters,
            nd
        );
    }
}

/// The standalone-fp16 stress configuration must report honestly: it
/// either genuinely converges (finite, accurate solution) or flags
/// non-convergence — a NaN inner breakdown is never masked as success
/// (the `dist_norm2` NaN-propagation fix).
#[test]
fn stress_f16_policy_reports_honestly() {
    let tl = Timeline::disabled();
    let stress = PrecisionPolicy::stress_f16();
    for n in [8u32, 16] {
        let sp = spec(ProcGrid::new(1, 1, 1), n, 4.min(n as usize / 4));
        let prob = assemble_with_policy(&sp, 0, &stress);
        let opts = GmresOptions { max_iters: 4000, tol: 1e-9, ..Default::default() };
        let (x, st) = gmres_ir_solve_policy(&SelfComm, &prob, &stress, &opts, &tl);
        if st.converged {
            assert!(st.final_relres < 1e-9);
            for xi in &x {
                assert!(xi.is_finite() && (xi - 1.0).abs() < 1e-5, "n={n}: x = {xi}");
            }
        } else {
            // Breakdown (or exhaustion) must be visible, not silent:
            // relres is NaN or above tolerance, never a fake zero.
            assert!(
                st.final_relres.is_nan() || st.final_relres >= 1e-9,
                "n={n}: non-converged solve must not report relres {}",
                st.final_relres
            );
        }
        println!(
            "stress f16 at {n}^3: converged = {}, iters = {}, relres = {:.3e}",
            st.converged, st.iters, st.final_relres
        );
    }
}

/// The storage axis alone (f32-stored matrices, f64 compute) behaves
/// like f64: same iteration count as the pure-f64 solver within one
/// restart, at half the matrix-value traffic.
#[test]
fn f32_storage_under_f64_compute_matches_f64_iterations() {
    let sp = spec(ProcGrid::new(1, 1, 1), 16, 3);
    let tl = Timeline::disabled();
    let opts = GmresOptions { max_iters: 2000, tol: 1e-9, ..Default::default() };

    let prob_f64 = assemble_with_policy(&sp, 0, &PrecisionPolicy::f64());
    let (_, st_d) = gmres_solve_f64(&SelfComm, &prob_f64, &opts, &tl);

    let policy = PrecisionPolicy::by_name("f32s-f64c").unwrap();
    let prob = assemble_with_policy(&sp, 0, &policy);
    let (_, st) = gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &tl);
    assert!(st.converged);
    assert!(
        st.iters <= st_d.iters + opts.restart,
        "f32 storage under f64 accumulation must track f64 iterations: {} vs {}",
        st.iters,
        st_d.iters
    );
}

/// Policy-assembled problems hold exactly what the policy's kernels
/// read: one index structure per level, the values once per stored
/// precision, and nothing of the reference variant's until it runs.
#[test]
fn policy_assembly_materializes_only_whats_needed() {
    let sp = spec(ProcGrid::new(1, 1, 1), 8, 2);
    let p64 = assemble_with_policy(&sp, 0, &PrecisionPolicy::f64());
    let p32 = assemble_with_policy(&sp, 0, &PrecisionPolicy::f32());
    assert!(p64.levels.iter().all(|l| l.kinds() == [PrecKind::F64]));
    assert_eq!(p32.levels[0].kinds(), vec![PrecKind::F64, PrecKind::F32]);
    assert_eq!(p32.levels[1].kinds(), vec![PrecKind::F32]);
    for (l64, l32) in p64.levels.iter().zip(&p32.levels) {
        assert_eq!(l64.index_bytes(), l32.index_bytes(), "indices are shared, not per precision");
    }
    assert_eq!(
        2 * p32.levels[0].value_bytes(),
        3 * p64.levels[0].value_bytes(),
        "the fine level adds fp32 values to the outer residual's f64 values, nothing more"
    );
    assert_eq!(2 * p32.levels[1].value_bytes(), p64.levels[1].value_bytes());

    let descent = assemble_with_policy(&sp, 0, &PrecisionPolicy::by_name("descent").unwrap());
    assert_eq!(descent.levels[0].kinds(), vec![PrecKind::F64]);
    assert_eq!(descent.levels[1].kinds(), vec![PrecKind::F32]);

    // The reference forms appear with the first reference kernel.
    let policy = PrecisionPolicy::f32();
    let resident = |p: &hpgmxp_core::problem::LocalProblem| -> Vec<(usize, usize)> {
        p.levels.iter().map(|l| (l.value_bytes(), l.index_bytes())).collect()
    };
    let assembled = resident(&p32);
    let tl = Timeline::disabled();
    let opts = GmresOptions { max_iters: 30, tol: 0.0, ..Default::default() };
    gmres_ir_solve_policy(&SelfComm, &p32, &policy, &opts, &tl);
    assert_eq!(resident(&p32), assembled, "an optimized solve reads ELL only");
    let fine = &p32.levels[0];
    let ctx = OpCtx::with_prec(&SelfComm, ImplVariant::Reference, &tl, policy.ctx());
    let r = vec![1.0f32; fine.n_local()];
    let mut z = vec![0.0f32; fine.vec_len()];
    dist_gs_sweep(&ctx, fine, &mut MotifStats::new(), 0, SweepDir::Forward, &r, &mut z);
    let swept = resident(&p32);
    assert!(swept[0].0 > assembled[0].0 && swept[0].1 > assembled[0].1, "{swept:?}");
    assert_eq!(swept[1], assembled[1], "only the swept level built its forms");
}

/// Distributed split-storage kernels: a 2-rank fp32-stored/f64-compute
/// SpMV agrees with the all-f64 one within the eps_f32 row bound, and
/// the fp16 wire axis degrades ghosts by at most fp16 rounding.
#[test]
fn distributed_split_and_wire_precision_behave() {
    let procs = ProcGrid::new(2, 1, 1);
    run_spmd(2, move |c| {
        let sp = spec(procs, 8, 1);
        let tl = Timeline::disabled();

        // Baseline: all-f64.
        let prob = assemble_with_policy(&sp, c.rank(), &PrecisionPolicy::f64());
        let l = &prob.levels[0];
        let n = l.n_local();
        let mk_x =
            |len: usize| -> Vec<f64> { (0..len).map(|i| ((i % 17) as f64) * 0.21 - 1.5).collect() };
        let ctx64 = OpCtx::new(&c, ImplVariant::Optimized, &tl);
        let mut stats = MotifStats::new();
        let mut x64 = mk_x(l.vec_len());
        let mut y64 = vec![0.0f64; n];
        dist_spmv(&ctx64, l, &mut stats, 0, &mut x64, &mut y64);

        // Split storage: fp32 values under f64 compute.
        let policy = PrecisionPolicy::by_name("f32s-f64c").unwrap();
        let prob_s = assemble_with_policy(&sp, c.rank(), &policy);
        let ls = &prob_s.levels[0];
        let ctx_s = OpCtx::with_prec(&c, ImplVariant::Optimized, &tl, policy.ctx());
        let mut xs = mk_x(ls.vec_len());
        let mut ys = vec![0.0f64; n];
        dist_spmv(&ctx_s, ls, &mut stats, 1, &mut xs, &mut ys);
        for i in 0..n {
            let scale = 27.0 * 26.0 * 1.5; // width × max|a| × max|x|
            assert!(
                (y64[i] - ys[i]).abs() <= 4.0 * f32::EPSILON as f64 * scale,
                "rank {} row {}: {} vs {}",
                c.rank(),
                i,
                y64[i],
                ys[i]
            );
        }
        // Measured matrix-value traffic halved, exactly.
        assert_eq!(
            stats.value_bytes(Motif::SpMV),
            (8 + 4) as f64 * l.ell64().stored_entries() as f64
        );

        // Wire axis: fp16 ghosts under f32 compute still smooth fine.
        let w16 = PrecisionPolicy::by_name("f32-w16").unwrap();
        let prob_w = assemble_with_policy(&sp, c.rank(), &w16);
        let lw = &prob_w.levels[0];
        let ctx_w = OpCtx::with_prec(&c, ImplVariant::Optimized, &tl, w16.ctx());
        let mut sw = MotifStats::new();
        let r: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
        let mut z = vec![0.1f32; lw.vec_len()];
        dist_gs_sweep(&ctx_w, lw, &mut sw, 2, SweepDir::Forward, &r, &mut z);
        // Wire bytes: one 8x8 face at 2 bytes per value, measured.
        assert_eq!(sw.bytes(Motif::Comm), (64 * 2) as f64);
        // Ghosts hold fp16-rounded copies of the peer's 0.1f32 values.
        let ghost = z[n];
        assert!((ghost - 0.1).abs() < 1e-3, "fp16-rounded ghost, got {ghost}");
        assert_ne!(ghost, 0.1f32, "fp16 wire must actually round (0.1 is inexact in fp16)");
    });
}
