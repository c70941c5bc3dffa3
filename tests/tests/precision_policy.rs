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
//! update remain f64; solved to 1e-14 it meets HPL-MxP's normwise
//! backward-error bound, also on coefficients no narrow format holds
//! exactly; and a fixed-iteration solve is one full restart cycle.

use hpgmxp_comm::{run_spmd, Comm, SelfComm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::flops;
use hpgmxp_core::gmres::{gmres_solve_f64, GmresOptions, SolveStats};
use hpgmxp_core::gmres_ir::{backward_error, gmres_ir_solve_policy};
use hpgmxp_core::motifs::{Motif, MotifStats};
use hpgmxp_core::ops::{dist_gs_sweep, dist_spmv, OpCtx, SweepDir};
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_sparse::csr::{CsrBuilder, CsrMatrix};
use hpgmxp_sparse::{EllMatrix, Half, PrecKind, Scalar};
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

/// Solve `sp` on one rank under `policy` to `tol`: the solution's
/// normwise backward error and the solve's statistics.
fn solve_to(sp: &ProblemSpec, policy: &PrecisionPolicy, tol: f64) -> (f64, SolveStats) {
    let prob = assemble_with_policy(sp, 0, policy);
    let opts = GmresOptions { max_iters: 2000, tol, ..Default::default() };
    let (x, st) = gmres_ir_solve_policy(&SelfComm, &prob, policy, &opts, &Timeline::disabled());
    let eta = backward_error(&SelfComm, &prob, &x).unwrap();
    (eta, st)
}

/// HPL-MxP's validity test: solved to 1e-14, every shipped policy's
/// solution has a normwise backward error of at most `16·n·ε_f64`,
/// with `n` the global problem size, and each restart cycle's record
/// adds up to the solve's counts.
fn backward_error_bound_holds(local: u32) {
    let sp = spec(ProcGrid::new(1, 1, 1), local, 4);
    let bound = 16.0 * (local as f64).powi(3) * f64::EPSILON;
    for policy in PrecisionPolicy::shipped() {
        let (eta, st) = solve_to(&sp, &policy, 1e-14);
        println!(
            "{local}^3 {:<10} tol 1e-14: n_ir = {:>3}, restarts = {}, floor stops = {}, eta = {eta:.2e}",
            policy.name,
            st.iters,
            st.restarts,
            st.floor_stops()
        );
        assert!(st.converged, "policy {} stalled at {:.3e}", policy.name, st.final_relres);
        assert!(eta <= bound, "policy {}: eta {eta:.3e} > 16 n eps {bound:.3e}", policy.name);
        assert_eq!(st.cycles.len(), st.restarts);
        assert_eq!(st.cycles.iter().map(|c| c.iters).sum::<usize>(), st.iters);
    }
}

#[test]
fn every_shipped_policy_meets_the_backward_error_bound() {
    backward_error_bound_holds(16);
}

/// The 32³ case of the backward-error bound; slow in a debug build, so
/// CI runs it in release with `--ignored`.
#[test]
#[ignore]
fn every_shipped_policy_meets_the_backward_error_bound_at_32() {
    backward_error_bound_holds(32);
}

/// Coefficients that neither fp16 nor f32 holds exactly: the
/// nonsymmetric stencil at γ = 0.3 has off-diagonals −0.7 and −1.3,
/// so every narrow storage format perturbs the operator itself (the
/// symmetric stencil's −1 and 26 are exact even in fp16). Every
/// shipped policy still reaches 1e-9 with the floor stop on, and meets
/// the backward-error bound solved to 1e-14.
#[test]
fn non_representable_coefficients_converge_under_every_policy() {
    for a in [-0.7, -1.3] {
        assert_ne!(f32::from_f64(a).to_f64(), a);
        assert_ne!(Half::from_f64(a).to_f64(), a);
    }
    let sp = ProblemSpec {
        stencil: Stencil27::nonsymmetric(0.3),
        ..spec(ProcGrid::new(1, 1, 1), 16, 4)
    };
    let bound = 16.0 * 16f64.powi(3) * f64::EPSILON;
    for policy in PrecisionPolicy::shipped() {
        let (_, st) = solve_to(&sp, &policy, 1e-9);
        assert!(
            st.converged && st.final_relres < 1e-9,
            "policy {} stalled at {:.3e}",
            policy.name,
            st.final_relres
        );
        let (eta, deep) = solve_to(&sp, &policy, 1e-14);
        println!(
            "nonsymmetric 0.3 {:<10} n_ir(1e-9) = {:>3}, floor stops = {}, eta(1e-14) = {eta:.2e}",
            policy.name,
            st.iters,
            st.floor_stops()
        );
        assert!(deep.converged, "policy {} stalled at {:.3e}", policy.name, deep.final_relres);
        assert!(eta <= bound, "policy {}: eta {eta:.3e} > 16 n eps {bound:.3e}", policy.name);
    }
}

/// FNV-1a over the bits of a vector.
fn digest(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| (h ^ e.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

/// The benchmark's timing loop (`tol = 0`, 30 iterations) is one full
/// restart cycle under every shipped policy: the precision-floor stop
/// applies only when a tolerance is asked for. Its outcome is pinned
/// bit for bit (final relative residual and a digest of `x`, 16³ on
/// one rank, symmetric and γ = 0.3 stencils), at the values the solver
/// gave before the stop existed.
#[test]
fn fixed_iteration_solves_are_one_full_cycle_bit_for_bit() {
    const PINNED: [(&str, u64, u64); 12] = [
        ("f64", 0x3cd1c6ea18c1c47d, 0x943f39160e2fef2b),
        ("f32s-f64c", 0x3cd1c6ea18c1c47d, 0x943f39160e2fef2b),
        ("f32", 0x3e96a37b752f7255, 0x5336ff28ae3b6325),
        ("f16s-f32c", 0x3e96a37b752f7255, 0x5336ff28ae3b6325),
        ("f32-w16", 0x3e96a37b752f7255, 0x5336ff28ae3b6325),
        ("descent", 0x3e96a37b752f7255, 0x5336ff28ae3b6325),
        ("f64", 0x3cd56a7be82d27b3, 0xa186db1732767b8d),
        ("f32s-f64c", 0x3e7ff97e32ef0b63, 0xd8fddfbb44b57e77),
        ("f32", 0x3e9d0ca29c865b0b, 0x198a42962e3b6325),
        ("f16s-f32c", 0x3f1ba66b0ab295f9, 0x7cb461d2ce3b6325),
        ("f32-w16", 0x3e9d0ca29c865b0b, 0x198a42962e3b6325),
        ("descent", 0x3e9cfaf254fd237e, 0x28d374406e3b6325),
    ];
    let opts = GmresOptions { max_iters: 30, tol: 0.0, track_history: true, ..Default::default() };
    let mut seen = Vec::new();
    for stencil in [Stencil27::symmetric(), Stencil27::nonsymmetric(0.3)] {
        let sp = ProblemSpec { stencil, ..spec(ProcGrid::new(1, 1, 1), 16, 4) };
        for policy in PrecisionPolicy::shipped() {
            let prob = assemble_with_policy(&sp, 0, &policy);
            let tl = Timeline::disabled();
            let (x, st) = gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &tl);
            assert_eq!((st.iters, st.restarts, st.floor_stops()), (30, 1, 0), "{}", policy.name);
            assert_eq!(st.history.len(), 2, "{}", policy.name);
            seen.push((policy.name.clone(), st.history[1].to_bits(), digest(&x)));
        }
    }
    let pinned: Vec<_> = PINNED.iter().map(|&(n, r, x)| (n.to_string(), r, x)).collect();
    assert_eq!(seen, pinned, "fixed-iteration outcomes moved (name, relres bits, x digest)");
}

/// `SolveStats::iters` counts every Arnoldi step of a tolerance solve,
/// floor-stopped cycles included: each step does one fine-level SpMV,
/// as does each outer residual, so the SpMV FLOPs the solve recorded
/// pin the count.
#[test]
fn tolerance_solve_iters_count_every_arnoldi_step() {
    let sp = spec(ProcGrid::new(1, 1, 1), 16, 4);
    for policy in PrecisionPolicy::shipped() {
        let prob = assemble_with_policy(&sp, 0, &policy);
        let opts = GmresOptions { max_iters: 2000, tol: 1e-9, ..Default::default() };
        let (_, st) =
            gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &Timeline::disabled());
        assert!(st.converged);
        let spmvs = (st.iters + st.restarts + 1) as f64;
        assert_eq!(
            st.motifs.flops(Motif::SpMV),
            spmvs * flops::spmv(prob.levels[0].nnz()),
            "policy {}: {} steps over {} cycles",
            policy.name,
            st.iters,
            st.restarts
        );
    }
}
