//! Restarted right-preconditioned GMRES — Algorithm 2 of the paper —
//! and the generic restart cycle shared with the mixed-precision
//! GMRES-IR solver.
//!
//! The restart cycle is written once, generic over the working
//! precision `S`, and driven by the one `f64` outer loop of
//! [`crate::gmres_ir`]: at `S = f64` that is the benchmark's
//! double-precision reference solver, at `S = f32` the low-precision
//! inner solve of GMRES-IR (Algorithm 3's blue region). This mirrors
//! the benchmark design: GMRES-IR *is* restarted GMRES whose restart
//! acts as the iterative-refinement step, with residual and solution
//! updates kept in double.

use crate::config::ImplVariant;
use crate::givens::GivensQr;
use crate::gmres_ir::gmres_ir_solve_policy;
use crate::mg::{apply_mg_checked, MgWorkspace, SmootherKind};
use crate::motifs::{Motif, MotifStats};
use crate::ops::{dist_spmv_checked, OpCtx};
use crate::ortho::cgs2_checked;
use crate::policy::PrecisionPolicy;
use crate::problem::{Level, LocalProblem};
use hpgmxp_comm::{Comm, CommResult, Timeline};
use hpgmxp_sparse::blas::Basis;
use hpgmxp_sparse::Scalar;
use serde::{Deserialize, Serialize};

/// Solver configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GmresOptions {
    /// Restart length `m` (Table 1: 30).
    pub restart: usize,
    /// Total inner-iteration budget.
    pub max_iters: usize,
    /// Relative residual tolerance `‖b − Ax‖ / ‖b‖`.
    pub tol: f64,
    /// Implementation variant (optimized vs reference data paths).
    pub variant: ImplVariant,
    /// Pre-smoother sweeps in the V-cycle.
    pub pre_smooth: usize,
    /// Post-smoother sweeps in the V-cycle.
    pub post_smooth: usize,
    /// Apply the multigrid preconditioner (`false` = unpreconditioned,
    /// for ablation).
    pub precondition: bool,
    /// Record the per-restart explicit residual history.
    pub track_history: bool,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            restart: 30,
            max_iters: 300,
            tol: 1e-9,
            variant: ImplVariant::Optimized,
            pre_smooth: 1,
            post_smooth: 1,
            precondition: true,
            track_history: false,
        }
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveStats {
    /// Inner (Arnoldi) iterations performed.
    pub iters: usize,
    /// Restart cycles (= outer residual evaluations − 1).
    pub restarts: usize,
    /// Whether the relative tolerance was met.
    pub converged: bool,
    /// Final explicit relative residual `‖b − Ax‖ / ‖b‖`.
    pub final_relres: f64,
    /// Explicit relative residuals at each restart (if tracked).
    pub history: Vec<f64>,
    /// Per-motif time and FLOP accounting for this rank.
    pub motifs: MotifStats,
    /// Measured halo-overlap efficiency over the solve (fraction of
    /// communication hidden under interior compute), when the run's
    /// timeline was enabled; `None` on untraced runs.
    pub overlap_efficiency: Option<f64>,
}

/// Workspace reused across restart cycles of one solve.
pub(crate) struct CycleWorkspace<S: Scalar> {
    basis: Basis<S>,
    /// Preconditioner output / SpMV input (owned + ghosts).
    zv: Vec<S>,
    /// Scratch for the basis combination `Q t`.
    combined: Vec<S>,
    mg: MgWorkspace<S>,
    qr: GivensQr,
}

impl<S: Scalar> CycleWorkspace<S> {
    pub(crate) fn new(levels: &[Level], m: usize) -> Self {
        let n = levels[0].n_local();
        CycleWorkspace {
            basis: Basis::new(n, m + 1),
            zv: vec![S::ZERO; levels[0].vec_len()],
            combined: vec![S::ZERO; n],
            mg: MgWorkspace::new(levels),
            qr: GivensQr::new(m),
        }
    }
}

/// Result of one restart cycle.
pub(crate) struct CycleOutcome<S> {
    /// Solution update `M⁻¹ Q y` (owned entries, working precision).
    pub update: Vec<S>,
    /// Inner iterations performed in this cycle.
    pub iters: usize,
}

/// Run one restart cycle of right-preconditioned GMRES in precision `S`.
///
/// `r_unit` is the unit-norm outer residual (owned entries), `rho` its
/// norm, `rho0` the reference norm for the relative tolerance.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gmres_cycle<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    prob: &LocalProblem,
    stats: &mut MotifStats,
    ws: &mut CycleWorkspace<S>,
    opts: &GmresOptions,
    r_unit: &[S],
    rho: f64,
    rho0: f64,
    iter_budget: usize,
) -> CommResult<CycleOutcome<S>> {
    let levels = &prob.levels[..];
    let n = levels[0].n_local();
    let m = opts.restart;

    ws.basis.col_mut(0).copy_from_slice(&r_unit[..n]);
    ws.qr.reset(rho);

    let mut k = 0usize;
    while k < m && k < iter_budget {
        // z ← M⁻¹ q_k (the preconditioner application, line 18).
        if opts.precondition {
            apply_mg_checked(
                ctx,
                levels,
                stats,
                &mut ws.mg,
                opts.pre_smooth,
                opts.post_smooth,
                SmootherKind::Forward,
                ws.basis.col(k),
                &mut ws.zv,
            )?;
        } else {
            ws.zv[..n].copy_from_slice(ws.basis.col(k));
        }

        // q_{k+1} ← A z (line 19). The SpMV refreshes zv's ghosts.
        {
            // Split borrow: zv and the new basis column are disjoint.
            let (zv, basis) = (&mut ws.zv, &mut ws.basis);
            dist_spmv_checked(ctx, &levels[0], stats, 0, zv, basis.col_mut(k + 1))?;
        }

        // Orthogonalize against columns 0..=k with CGS2 (lines 20–27).
        let ortho = cgs2_checked(ctx.comm, stats, &mut ws.basis, k + 1)?;

        // Givens update (lines 31–43), redundantly on every rank, from
        // the Hessenberg column the basis' workspace holds.
        let rho_est = stats.timed(Motif::Ortho, crate::flops::givens_update(k + 1), || {
            ws.qr.push_column(ws.basis.hessenberg(k + 1), ortho.beta)
        });
        k += 1;

        if ortho.breakdown || rho_est / rho0 < opts.tol {
            break;
        }
    }

    // Solution update: t ← H⁻¹t, r ← Q t, update ← M⁻¹ r (lines 45–47).
    let y = stats.timed(Motif::Ortho, crate::flops::hessenberg_solve(k), || ws.qr.solve_y());
    let y_s: Vec<S> = y.iter().map(|&v| S::from_f64(v)).collect();
    stats.timed(Motif::Ortho, crate::flops::basis_combine(n, k), || {
        ws.basis.combine(k, &y_s, &mut ws.combined)
    });

    let mut update = vec![S::ZERO; n];
    if opts.precondition {
        apply_mg_checked(
            ctx,
            levels,
            stats,
            &mut ws.mg,
            opts.pre_smooth,
            opts.post_smooth,
            SmootherKind::Forward,
            &ws.combined,
            &mut update,
        )?;
    } else {
        update.copy_from_slice(&ws.combined);
    }

    Ok(CycleOutcome { update, iters: k })
}

/// Solve `A x = b` with double-precision restarted GMRES (Algorithm 2;
/// the benchmark's "double" phase): the refinement loop of
/// [`crate::gmres_ir`] under the `f64` policy, which `prob` must be
/// assembled under. Starts from a zero initial guess and returns the
/// owned solution entries plus statistics.
pub fn gmres_solve_f64<C: Comm>(
    comm: &C,
    prob: &LocalProblem,
    opts: &GmresOptions,
    timeline: &Timeline,
) -> (Vec<f64>, SolveStats) {
    gmres_ir_solve_policy(comm, prob, &PrecisionPolicy::f64(), opts, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests::assemble_f64;
    use crate::problem::ProblemSpec;
    use hpgmxp_comm::{run_spmd, SelfComm};
    use hpgmxp_geometry::{ProcGrid, Stencil27};

    fn spec(procs: ProcGrid, n: u32, levels: usize) -> ProblemSpec {
        ProblemSpec {
            local: (n, n, n),
            procs,
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 11,
        }
    }

    #[test]
    fn converges_on_single_rank_to_nine_orders() {
        let prob = assemble_f64(&spec(ProcGrid::new(1, 1, 1), 16, 4), 0);
        let tl = Timeline::disabled();
        let opts = GmresOptions { max_iters: 500, track_history: true, ..Default::default() };
        let (x, st) = gmres_solve_f64(&SelfComm, &prob, &opts, &tl);
        assert!(st.converged, "relres = {}", st.final_relres);
        assert!(st.final_relres < 1e-9);
        // Exact solution is all ones.
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-6, "{}", xi);
        }
        // History is monotonically nonincreasing at restart boundaries
        // (GMRES minimizes the residual over the Krylov space).
        for w in st.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12));
        }
    }

    #[test]
    fn preconditioner_gives_mesh_independent_convergence() {
        // The textbook multigrid property: MG-preconditioned iteration
        // counts stay (nearly) flat as the mesh refines, while the
        // unpreconditioned counts grow with the mesh diameter. This is
        // the right invariant at laptop sizes, where the 27-point
        // operator is easy enough that a fixed margin would be noise.
        let tl = Timeline::disabled();
        let with = GmresOptions { max_iters: 2000, tol: 1e-8, ..Default::default() };
        let without = GmresOptions { precondition: false, ..with };
        let iters = |n: u32, o: &GmresOptions| {
            let prob = assemble_f64(&spec(ProcGrid::new(1, 1, 1), n, 2), 0);
            let (_, st) = gmres_solve_f64(&SelfComm, &prob, o, &tl);
            assert!(st.converged);
            st.iters
        };
        let (mg8, mg32) = (iters(8, &with), iters(32, &with));
        let (no8, no32) = (iters(8, &without), iters(32, &without));
        assert!(mg32 < no32, "MG must beat unpreconditioned: {} vs {}", mg32, no32);
        let mg_growth = mg32 as f64 / mg8 as f64;
        let no_growth = no32 as f64 / no8 as f64;
        assert!(
            mg_growth < 0.8 * no_growth,
            "MG growth {:.2} must be well below unpreconditioned growth {:.2} ({}→{} vs {}→{})",
            mg_growth,
            no_growth,
            mg8,
            mg32,
            no8,
            no32
        );
    }

    #[test]
    fn reference_variant_converges_identically_in_iterations() {
        // Reference and optimized differ in smoother ordering, so the
        // iteration counts may differ slightly — but both must converge.
        let prob = assemble_f64(&spec(ProcGrid::new(1, 1, 1), 16, 2), 0);
        let tl = Timeline::disabled();
        let o = GmresOptions { max_iters: 400, ..Default::default() };
        let r = GmresOptions { variant: ImplVariant::Reference, ..o };
        let (_, st_o) = gmres_solve_f64(&SelfComm, &prob, &o, &tl);
        let (_, st_r) = gmres_solve_f64(&SelfComm, &prob, &r, &tl);
        assert!(st_o.converged && st_r.converged);
        let ratio = st_o.iters as f64 / st_r.iters as f64;
        assert!((0.5..=2.0).contains(&ratio), "{} vs {}", st_o.iters, st_r.iters);
    }

    #[test]
    fn distributed_solve_matches_serial_iteration_count() {
        // The same global problem solved on 1 and on 2 ranks must take
        // (nearly) the same iterations; coloring differences across the
        // decomposition allow ±a few.
        let tl_iters = {
            let prob = assemble_f64(
                &ProblemSpec {
                    local: (16, 8, 8),
                    procs: ProcGrid::new(1, 1, 1),
                    stencil: Stencil27::symmetric(),
                    mg_levels: 3,
                    seed: 11,
                },
                0,
            );
            let tl = Timeline::disabled();
            let (_, st) = gmres_solve_f64(&SelfComm, &prob, &GmresOptions::default(), &tl);
            assert!(st.converged);
            st.iters
        };

        let procs = ProcGrid::new(2, 1, 1);
        let results = run_spmd(2, move |c| {
            let prob = assemble_f64(&spec(procs, 8, 3), c.rank());
            let tl = Timeline::disabled();
            let (_, st) = gmres_solve_f64(&c, &prob, &GmresOptions::default(), &tl);
            (st.iters, st.converged)
        });
        for (iters, conv) in results {
            assert!(conv);
            let diff = (iters as i64 - tl_iters as i64).abs();
            assert!(diff <= 6, "serial {} vs distributed {}", tl_iters, iters);
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let prob = assemble_f64(&spec(ProcGrid::new(1, 1, 1), 16, 4), 0);
        let tl = Timeline::disabled();
        let opts = GmresOptions { max_iters: 7, tol: 1e-30, ..Default::default() };
        let (_, st) = gmres_solve_f64(&SelfComm, &prob, &opts, &tl);
        assert!(!st.converged);
        assert!(st.iters <= 7, "budget exceeded: {}", st.iters);
    }

    #[test]
    fn motif_accounting_covers_all_solver_phases() {
        let prob = assemble_f64(&spec(ProcGrid::new(1, 1, 1), 16, 4), 0);
        let tl = Timeline::disabled();
        let (_, st) = gmres_solve_f64(&SelfComm, &prob, &GmresOptions::default(), &tl);
        for motif in [
            Motif::GaussSeidel,
            Motif::SpMV,
            Motif::Ortho,
            Motif::Restriction,
            Motif::Prolongation,
            Motif::Dot,
            Motif::Waxpby,
        ] {
            assert!(st.motifs.flops(motif) > 0.0, "missing flops for {:?}", motif);
        }
        // GS dominates the FLOP profile, as in the paper's figure 7.
        assert!(st.motifs.flops(Motif::GaussSeidel) > st.motifs.flops(Motif::SpMV));
    }
}
