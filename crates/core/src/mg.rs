//! The geometric multigrid V-cycle preconditioner.
//!
//! HPG-MxP prescribes one cycle of 4-level geometric multigrid with a
//! forward Gauss–Seidel smoother as the GMRES preconditioner (§3); the
//! HPCG baseline uses the same cycle with a *symmetric* smoother so the
//! preconditioner stays symmetric positive definite for CG. The cycle
//! follows figure 1 of the paper: pre-smooth, (fused) residual +
//! restriction, recursive coarse solve, prolongation + correction,
//! post-smooth; the coarsest level is only smoothed.

use crate::motifs::MotifStats;
use crate::ops::{dist_gs_sweep_checked, dist_restrict_checked, prolong_add, OpCtx, SweepDir};
use crate::problem::Level;
use hpgmxp_comm::{Comm, CommResult, Stream};
use hpgmxp_sparse::Scalar;

/// Per-depth span names for the V-cycle trace (`&'static` because the
/// recorder stores names by reference; deeper hierarchies than the
/// paper's 4 levels share the last slot).
const LEVEL_SPANS: [&str; 8] = [
    "MG level 0",
    "MG level 1",
    "MG level 2",
    "MG level 3",
    "MG level 4",
    "MG level 5",
    "MG level 6",
    "MG level 7+",
];

/// Which smoother the cycle uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmootherKind {
    /// Forward Gauss–Seidel (HPG-MxP's prescription).
    Forward,
    /// Symmetric Gauss–Seidel (forward then backward; HPCG baseline).
    Symmetric,
}

/// Preallocated per-level vectors of one precision.
#[derive(Debug, Clone)]
pub struct MgWorkspace<S> {
    /// Solution/correction per level (owned + ghosts).
    z: Vec<Vec<S>>,
    /// Right-hand side per level (owned entries).
    r: Vec<Vec<S>>,
}

impl<S: Scalar> MgWorkspace<S> {
    /// Allocate for a level hierarchy.
    pub fn new(levels: &[Level]) -> Self {
        MgWorkspace {
            z: levels.iter().map(|l| vec![S::ZERO; l.vec_len()]).collect(),
            r: levels.iter().map(|l| vec![S::ZERO; l.n_local()]).collect(),
        }
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the paper's smoother signature; bundling would obscure it
fn smooth<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    level: &Level,
    stats: &mut MotifStats,
    tag: u64,
    kind: SmootherKind,
    sweeps: usize,
    r: &[S],
    z: &mut [S],
) -> CommResult<()> {
    for _ in 0..sweeps {
        match kind {
            SmootherKind::Forward => {
                dist_gs_sweep_checked(ctx, level, stats, tag, SweepDir::Forward, r, z)?
            }
            SmootherKind::Symmetric => {
                dist_gs_sweep_checked(ctx, level, stats, tag, SweepDir::Forward, r, z)?;
                dist_gs_sweep_checked(ctx, level, stats, tag, SweepDir::Backward, r, z)?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn vcycle<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    levels: &[Level],
    stats: &mut MotifStats,
    zs: &mut [Vec<S>],
    rs: &mut [Vec<S>],
    pre: usize,
    post: usize,
    kind: SmootherKind,
    tag: u64,
) -> CommResult<()> {
    let level = &levels[0];
    // `tag` starts at 100 on the fine level and grows by one per
    // recursion, so it doubles as the depth for the trace label.
    let depth = (tag.saturating_sub(100) as usize).min(LEVEL_SPANS.len() - 1);
    let _sp = ctx.timeline.span(LEVEL_SPANS[depth], Stream::Compute);
    let (z0, zrest) = zs.split_first_mut().expect("workspace depth");
    let (r0, rrest) = rs.split_first_mut().expect("workspace depth");

    // Zero initial guess on every level, ghosts included.
    z0.fill(S::ZERO);
    smooth(ctx, level, stats, tag, kind, pre.max(1), r0, z0)?;

    if levels.len() > 1 {
        dist_restrict_checked(ctx, level, stats, tag, r0, z0, &mut rrest[0])?;
        vcycle(ctx, &levels[1..], stats, zrest, rrest, pre, post, kind, tag + 1)?;
        prolong_add(level, stats, &zrest[0], z0);
        smooth(ctx, level, stats, tag, kind, post.max(1), r0, z0)?;
    }
    Ok(())
}

/// Apply one multigrid V-cycle as the preconditioner: `out = M⁻¹ rhs`.
///
/// `rhs` is an owned-length vector on the fine level; `out` receives
/// the owned entries of the correction (callers that need ghosts must
/// exchange afterwards — the next SpMV does so automatically).
#[allow(clippy::too_many_arguments)]
pub fn apply_mg<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    levels: &[Level],
    stats: &mut MotifStats,
    ws: &mut MgWorkspace<S>,
    pre: usize,
    post: usize,
    kind: SmootherKind,
    rhs: &[S],
    out: &mut [S],
) {
    apply_mg_checked(ctx, levels, stats, ws, pre, post, kind, rhs, out)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// [`apply_mg`] that surfaces transport faults as a typed error.
#[allow(clippy::too_many_arguments)]
pub fn apply_mg_checked<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    levels: &[Level],
    stats: &mut MotifStats,
    ws: &mut MgWorkspace<S>,
    pre: usize,
    post: usize,
    kind: SmootherKind,
    rhs: &[S],
    out: &mut [S],
) -> CommResult<()> {
    let n = levels[0].n_local();
    ws.r[0][..n].copy_from_slice(&rhs[..n]);
    vcycle(ctx, levels, stats, &mut ws.z, &mut ws.r, pre, post, kind, 100)?;
    out[..n].copy_from_slice(&ws.z[0][..n]);
    Ok(())
}

/// Apply the identity "preconditioner" (no multigrid) — used by tests
/// and ablation benches to quantify what the V-cycle buys.
pub fn apply_identity<S: Scalar>(rhs: &[S], out: &mut [S]) {
    let n = rhs.len().min(out.len());
    out[..n].copy_from_slice(&rhs[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ImplVariant;
    use crate::motifs::Motif;
    use crate::ops::dist_gs_sweep;
    use crate::problem::tests::assemble_f64;
    use crate::problem::ProblemSpec;
    use hpgmxp_comm::{run_spmd, SelfComm, Timeline};
    use hpgmxp_geometry::{ProcGrid, Stencil27};

    fn spec_1rank(n: u32, levels: usize) -> ProblemSpec {
        ProblemSpec {
            local: (n, n, n),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 5,
        }
    }

    fn problem_1rank(n: u32, levels: usize) -> crate::problem::LocalProblem {
        assemble_f64(&spec_1rank(n, levels), 0)
    }

    fn residual_norm(p: &crate::problem::LocalProblem, rhs: &[f64], z: &[f64]) -> f64 {
        let l = &p.levels[0];
        let mut x = vec![0.0f64; l.vec_len()];
        x[..l.n_local()].copy_from_slice(&z[..l.n_local()]);
        let mut az = vec![0.0f64; l.n_local()];
        l.csr64().spmv(&x, &mut az);
        rhs.iter().zip(az.iter()).map(|(r, a)| (r - a) * (r - a)).sum::<f64>().sqrt()
    }

    #[test]
    fn vcycle_reduces_residual_far_more_than_one_sweep() {
        let p = problem_1rank(16, 4);
        let comm = SelfComm;
        let tl = Timeline::disabled();
        let ctx = OpCtx::new(&comm, ImplVariant::Optimized, &tl);
        let mut stats = MotifStats::new();
        let mut ws: MgWorkspace<f64> = MgWorkspace::new(&p.levels);
        let rhs = p.b.clone();
        let r0 = residual_norm(&p, &rhs, &vec![0.0; p.n_local()]);

        // One V-cycle.
        let mut z_mg = vec![0.0f64; p.n_local()];
        apply_mg(
            &ctx,
            &p.levels,
            &mut stats,
            &mut ws,
            1,
            1,
            SmootherKind::Forward,
            &rhs,
            &mut z_mg,
        );
        let r_mg = residual_norm(&p, &rhs, &z_mg);

        // One plain fine-grid sweep.
        let mut z_gs = vec![0.0f64; p.levels[0].vec_len()];
        let mut s2 = MotifStats::new();
        dist_gs_sweep(&ctx, &p.levels[0], &mut s2, 0, SweepDir::Forward, &rhs, &mut z_gs);
        let r_gs = residual_norm(&p, &rhs, &z_gs);

        assert!(r_mg < r0, "V-cycle reduces the residual");
        assert!(
            r_mg < r_gs,
            "coarse correction beats a single smoother sweep: {} vs {}",
            r_mg,
            r_gs
        );
    }

    #[test]
    fn repeated_vcycles_converge() {
        let p = problem_1rank(8, 2);
        let comm = SelfComm;
        let tl = Timeline::disabled();
        let ctx = OpCtx::new(&comm, ImplVariant::Optimized, &tl);
        let mut stats = MotifStats::new();
        let mut ws: MgWorkspace<f64> = MgWorkspace::new(&p.levels);
        let n = p.n_local();

        // Stationary iteration x <- x + M^{-1}(b - Ax).
        let mut x = vec![0.0f64; p.levels[0].vec_len()];
        let mut r = vec![0.0f64; n];
        let mut z = vec![0.0f64; n];
        let r0 = residual_norm(&p, &p.b, &vec![0.0; n]);
        for _ in 0..30 {
            let mut ax = vec![0.0f64; n];
            p.levels[0].csr64().spmv(&x, &mut ax);
            for i in 0..n {
                r[i] = p.b[i] - ax[i];
            }
            apply_mg(&ctx, &p.levels, &mut stats, &mut ws, 1, 1, SmootherKind::Forward, &r, &mut z);
            for i in 0..n {
                x[i] += z[i];
            }
        }
        let rfinal = residual_norm(&p, &p.b, &x[..n]);
        assert!(
            rfinal < r0 * 1e-6,
            "30 MG iterations must reduce the residual by >1e6: {} -> {}",
            r0,
            rfinal
        );
        // And the solution approaches all-ones.
        for xi in &x[..n] {
            assert!((xi - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn mg_records_all_multigrid_motifs() {
        let p = problem_1rank(16, 4);
        let comm = SelfComm;
        let tl = Timeline::disabled();
        let ctx = OpCtx::new(&comm, ImplVariant::Optimized, &tl);
        let mut stats = MotifStats::new();
        let mut ws: MgWorkspace<f64> = MgWorkspace::new(&p.levels);
        let mut z = vec![0.0f64; p.n_local()];
        apply_mg(&ctx, &p.levels, &mut stats, &mut ws, 1, 1, SmootherKind::Forward, &p.b, &mut z);
        // 4 levels: pre-smooth everywhere (4), post-smooth on 3.
        assert!(stats.flops(Motif::GaussSeidel) > 0.0);
        assert!(stats.flops(Motif::Restriction) > 0.0);
        assert!(stats.flops(Motif::Prolongation) > 0.0);
    }

    #[test]
    fn optimized_and_reference_cycles_agree() {
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let p = assemble_f64(
                &ProblemSpec {
                    local: (8, 8, 8),
                    procs,
                    stencil: Stencil27::symmetric(),
                    mg_levels: 2,
                    seed: 5,
                },
                c.rank(),
            );
            let tl = Timeline::disabled();
            let mut stats = MotifStats::new();
            let rhs = p.b.clone();
            let n = p.n_local();

            let mut z_opt = vec![0.0f64; n];
            {
                let ctx = OpCtx::new(&c, ImplVariant::Optimized, &tl);
                let mut ws: MgWorkspace<f64> = MgWorkspace::new(&p.levels);
                apply_mg(
                    &ctx,
                    &p.levels,
                    &mut stats,
                    &mut ws,
                    1,
                    1,
                    SmootherKind::Forward,
                    &rhs,
                    &mut z_opt,
                );
            }
            let mut z_ref = vec![0.0f64; n];
            {
                let ctx = OpCtx::new(&c, ImplVariant::Reference, &tl);
                let mut ws: MgWorkspace<f64> = MgWorkspace::new(&p.levels);
                apply_mg(
                    &ctx,
                    &p.levels,
                    &mut stats,
                    &mut ws,
                    1,
                    1,
                    SmootherKind::Forward,
                    &rhs,
                    &mut z_ref,
                );
            }
            // The variants use different smoother orderings (multicolor
            // vs lexicographic), so results differ slightly — but both
            // must reduce the residual to a comparable degree.
            let r_opt = residual_of(&p, &rhs, &z_opt);
            let r_ref = residual_of(&p, &rhs, &z_ref);
            let r0 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(r_opt < 0.6 * r0);
            assert!(r_ref < 0.6 * r0);
            assert!(r_opt / r_ref < 3.0 && r_ref / r_opt < 3.0);
        });

        fn residual_of(p: &crate::problem::LocalProblem, rhs: &[f64], z: &[f64]) -> f64 {
            // Local residual only — adequate for the comparative check.
            let l = &p.levels[0];
            let mut x = vec![0.0f64; l.vec_len()];
            x[..l.n_local()].copy_from_slice(z);
            let mut az = vec![0.0f64; l.n_local()];
            l.csr64().spmv(&x, &mut az);
            rhs.iter().zip(az.iter()).map(|(r, a)| (r - a) * (r - a)).sum::<f64>().sqrt()
        }
    }

    #[test]
    fn f32_cycle_tracks_f64_cycle() {
        let p = problem_1rank(8, 2);
        let comm = SelfComm;
        let tl = Timeline::disabled();
        let ctx = OpCtx::new(&comm, ImplVariant::Optimized, &tl);
        let mut stats = MotifStats::new();
        let n = p.n_local();

        let mut ws64: MgWorkspace<f64> = MgWorkspace::new(&p.levels);
        let mut z64 = vec![0.0f64; n];
        apply_mg(
            &ctx,
            &p.levels,
            &mut stats,
            &mut ws64,
            1,
            1,
            SmootherKind::Forward,
            &p.b,
            &mut z64,
        );

        let p32 = crate::problem::assemble_with_policy(
            &spec_1rank(8, 2),
            0,
            &crate::policy::PrecisionPolicy::f32(),
        );
        let rhs32: Vec<f32> = p32.b.iter().map(|&v| v as f32).collect();
        let mut ws32: MgWorkspace<f32> = MgWorkspace::new(&p32.levels);
        let mut z32 = vec![0.0f32; n];
        apply_mg(
            &ctx,
            &p32.levels,
            &mut stats,
            &mut ws32,
            1,
            1,
            SmootherKind::Forward,
            &rhs32,
            &mut z32,
        );

        for (h, l) in z64.iter().zip(z32.iter()) {
            assert!((h - *l as f64).abs() < 1e-4, "{} vs {}", h, l);
        }
    }

    #[test]
    fn symmetric_smoother_runs_both_directions() {
        let p = problem_1rank(8, 1);
        let comm = SelfComm;
        let tl = Timeline::disabled();
        let ctx = OpCtx::new(&comm, ImplVariant::Optimized, &tl);
        let mut stats = MotifStats::new();
        let mut ws: MgWorkspace<f64> = MgWorkspace::new(&p.levels);
        let mut z = vec![0.0f64; p.n_local()];
        apply_mg(&ctx, &p.levels, &mut stats, &mut ws, 1, 1, SmootherKind::Symmetric, &p.b, &mut z);
        // Symmetric = 2 sweeps; single level => exactly 2 sweeps' flops.
        let per_sweep = crate::flops::gs_sweep(p.levels[0].nnz(), p.n_local());
        assert!((stats.flops(Motif::GaussSeidel) - 2.0 * per_sweep).abs() < 1.0);
    }

    #[test]
    fn identity_preconditioner_copies() {
        let rhs = vec![1.0, 2.0, 3.0];
        let mut out = vec![0.0; 3];
        apply_identity(&rhs, &mut out);
        assert_eq!(out, rhs);
    }
}
