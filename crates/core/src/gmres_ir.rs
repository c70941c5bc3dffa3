//! Mixed-precision GMRES-IR — Algorithm 3 of the paper.
//!
//! Iterative refinement wrapped around GMRES: the restart cycle (the
//! blue region of Algorithm 3 — preconditioner, SpMV, Krylov basis,
//! CGS2) runs entirely in single precision, while the outer residual
//! `r = b − A x` (line 7) and the solution update (line 47) are kept in
//! double. The double-precision residual restores the information the
//! low-precision inner solve cannot represent, which is what lets the
//! mixed solver reach the same 10⁻⁹ relative residual as the double
//! solver — at roughly half the memory traffic per inner iteration.

use crate::config::ImplVariant;
use crate::gmres::{gmres_cycle, CycleRecord, CycleWorkspace, GmresOptions, SolveStats};
use crate::motifs::{Motif, MotifStats};
use crate::ops::{axpy_lo_mixed_op, dist_norm2, dist_spmv_checked, OpCtx};
use crate::policy::{PrecCtx, PrecisionPolicy};
use crate::problem::LocalProblem;
use hpgmxp_comm::{Comm, CommResult, ReduceOp, Timeline};
use hpgmxp_sparse::blas::{axpby, scale_f64_into_lo};
use hpgmxp_sparse::{Half, PrecKind, Scalar};
use hpgmxp_trace::Lane;
use std::time::Instant;

/// GMRES-IR under a runtime [`PrecisionPolicy`]: the inner solve runs
/// at the policy's compute precision, loading matrices stored at the
/// policy's per-level storage precision (split kernels widen on load)
/// and shipping halo ghosts in the policy's wire format. The outer
/// residual and solution update stay `f64` with natively-stored
/// matrices, which is what recovers 1e-9 under every policy. `prob`
/// must be assembled under the same policy. Starts from a zero initial
/// guess; panics on a transport fault. Pinned by the benchmark adapter,
/// which calls this form.
pub fn gmres_ir_solve_policy<C: Comm>(
    comm: &C,
    prob: &LocalProblem,
    policy: &PrecisionPolicy,
    opts: &GmresOptions,
    timeline: &Timeline,
) -> (Vec<f64>, SolveStats) {
    gmres_ir_solve_policy_checked(comm, prob, policy, opts, timeline)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`gmres_ir_solve_policy`] for fault-tolerant callers: transport
/// faults surface as typed [`CommResult`] errors instead of panics.
pub fn gmres_ir_solve_policy_checked<C: Comm>(
    comm: &C,
    prob: &LocalProblem,
    policy: &PrecisionPolicy,
    opts: &GmresOptions,
    timeline: &Timeline,
) -> CommResult<(Vec<f64>, SolveStats)> {
    let prec = policy.ctx();
    match policy.compute {
        PrecKind::F64 => refine::<f64, C>(comm, prob, opts, timeline, prec),
        PrecKind::F32 => refine::<f32, C>(comm, prob, opts, timeline, prec),
        PrecKind::F16 => refine::<Half, C>(comm, prob, opts, timeline, prec),
    }
}

/// The one outer refinement loop, generic over the inner (low)
/// precision `SLo`: the blue region of Algorithm 3 runs entirely in
/// `SLo` under `inner_prec` (storage kind per level + ghost wire
/// format); the residual and solution update run in `f64` with the
/// native mapping. At `SLo = f64` this is Algorithm 2.
fn refine<SLo: Scalar, C: Comm>(
    comm: &C,
    prob: &LocalProblem,
    opts: &GmresOptions,
    timeline: &Timeline,
    inner_prec: PrecCtx,
) -> CommResult<(Vec<f64>, SolveStats)> {
    // Snapshot the transport's collective counters so the solve's own
    // traffic (allreduce rounds, per-rank receive counts) lands in
    // `SolveStats::collectives` as a delta, not a process-lifetime total.
    let coll_at_start = comm.coll_stats();

    // Outer residual: always f64 with natively-stored (f64) matrices.
    let ctx = OpCtx::new(comm, opts.variant, timeline);
    let ctx_inner = OpCtx::with_prec(comm, opts.variant, timeline, inner_prec);
    let mut stats = MotifStats::new();
    let levels = &prob.levels[..];
    let n = levels[0].n_local();

    // Outer state in double.
    let mut x = vec![0.0f64; levels[0].vec_len()];
    let mut r = vec![0.0f64; n];
    // Inner state in the low precision.
    let mut r_unit_lo = vec![SLo::ZERO; n];
    let mut ws: CycleWorkspace<SLo> = CycleWorkspace::new(levels, opts.restart);

    let rho0 = dist_norm2(comm, &mut stats, Motif::Dot, &prob.b)?;
    let mut history = Vec::new();
    let mut cycles: Vec<CycleRecord> = Vec::new();
    let mut iters = 0usize;
    let mut relres;
    let mut converged = false;

    loop {
        // Line 7: double-precision residual r = b − A x, formed in r.
        dist_spmv_checked::<f64, C>(&ctx, &levels[0], &mut stats, 0, &mut x, &mut r)?;
        stats.timed(Motif::Waxpby, crate::flops::waxpby(n), || axpby(1.0, &prob.b, -1.0, &mut r));
        let rho = dist_norm2(comm, &mut stats, Motif::Dot, &r)?;
        relres = if rho0 > 0.0 { rho / rho0 } else { 0.0 };
        if let Some(cycle) = cycles.last_mut() {
            cycle.true_relres = relres;
        }
        if opts.track_history {
            history.push(relres);
        }
        if relres < opts.tol {
            converged = true;
            break;
        }
        if !rho.is_finite() {
            // The inner precision broke down (inf/NaN residual); no
            // further cycle can repair it. Report honestly.
            break;
        }
        if iters >= opts.max_iters {
            break;
        }

        // Lines 11–12: normalize and hand off to the low-precision
        // Krylov space (a fused scale-and-narrow kernel, §3.2.5).
        let t0 = Instant::now();
        scale_f64_into_lo(1.0 / rho, &r, &mut r_unit_lo);
        stats.record(Motif::Waxpby, t0.elapsed().as_secs_f64(), crate::flops::scal(n));

        // The blue region: one restart cycle entirely in low precision,
        // under the policy's storage/wire mapping.
        let cycle = {
            let _sp = hpgmxp_trace::span("gmres cycle", Lane::Compute);
            gmres_cycle(
                &ctx_inner,
                prob,
                &mut stats,
                &mut ws,
                opts,
                &r_unit_lo,
                rho,
                rho0,
                opts.max_iters - iters,
            )?
        };
        iters += cycle.iters;
        cycles.push(cycle);
        hpgmxp_trace::counter!("solver.restarts").inc();
        if cycle.floor_stop {
            hpgmxp_trace::counter!("solver.floor_stops").inc();
        }
        hpgmxp_trace::counter!("solver.iters").add(cycle.iters as u64);

        // Line 47: mixed-precision solution update in double.
        axpy_lo_mixed_op(&mut stats, 1.0, ws.update(), &mut x[..n]);
        if cycle.iters == 0 {
            break;
        }
    }

    let collectives = coll_at_start.zip(comm.coll_stats()).map(|(start, end)| end.since(&start));
    x.truncate(n);
    Ok((
        x,
        SolveStats {
            iters,
            restarts: cycles.len(),
            converged,
            final_relres: relres,
            history,
            cycles,
            motifs: stats,
            overlap_efficiency: timeline.overlap_efficiency(),
            collectives,
        },
    ))
}

/// HPL-MxP's normwise backward error of a solution: `η = ‖b − A x‖∞ /
/// (‖A‖∞ ‖x‖∞ + ‖b‖∞)`, with `x` this rank's owned entries. Computed in
/// f64 against the fine level's f64 operator, the four maxima
/// all-reduced, so every rank returns the same value. A solve is
/// valid at working precision u when `η ≤ c·n·u` for a modest `c`.
pub fn backward_error<C: Comm>(comm: &C, prob: &LocalProblem, x: &[f64]) -> CommResult<f64> {
    let fine = &prob.levels[0];
    let n = fine.n_local();
    let tl = Timeline::disabled();
    let ctx = OpCtx::new(comm, ImplVariant::Optimized, &tl);
    let mut xv = vec![0.0f64; fine.vec_len()];
    xv[..n].copy_from_slice(&x[..n]);
    let mut r = vec![0.0f64; n];
    dist_spmv_checked(&ctx, fine, &mut MotifStats::new(), 0, &mut xv, &mut r)?;
    axpby(1.0, &prob.b, -1.0, &mut r);
    let ell = fine.ell64();
    let row_sum = |i: usize| (0..ell.width()).map(|k| ell.entry(i, k).1.abs()).sum::<f64>();
    // NaN becomes +inf here: `max` would drop it, and η must not.
    let inf = |v: &[f64]| {
        v.iter().fold(0.0f64, |m, e| if e.is_nan() { f64::INFINITY } else { m.max(e.abs()) })
    };
    let a_inf = (0..n).map(row_sum).fold(0.0f64, f64::max);
    let mut maxima = [inf(&r), a_inf, inf(&x[..n]), inf(&prob.b)];
    comm.allreduce_checked(&mut maxima, ReduceOp::Max)?;
    let [r_inf, a_inf, x_inf, b_inf] = maxima;
    Ok(r_inf / (a_inf * x_inf + b_inf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::gmres_solve_f64;
    use crate::problem::{assemble_with_policy, ProblemSpec};
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

    /// Assemble this rank's share of `spec` under `policy` and solve it.
    fn solve<C: Comm>(
        comm: &C,
        spec: &ProblemSpec,
        policy: &PrecisionPolicy,
        opts: &GmresOptions,
    ) -> (Vec<f64>, SolveStats) {
        let prob = assemble_with_policy(spec, comm.rank(), policy);
        gmres_ir_solve_policy(comm, &prob, policy, opts, &Timeline::disabled())
    }

    #[test]
    fn reaches_double_precision_accuracy_with_f32_inner() {
        // The defining property of GMRES-IR: 9 orders of residual
        // reduction despite the entire inner solve running in f32
        // (f32 alone bottoms out near 1e-7).
        let opts = GmresOptions { max_iters: 1000, ..Default::default() };
        let sp = spec(ProcGrid::new(1, 1, 1), 16, 4);
        let (x, st) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &opts);
        assert!(st.converged, "GMRES-IR stalled at relres {}", st.final_relres);
        assert!(st.final_relres < 1e-9);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn iteration_penalty_is_small() {
        // §4: n_d = 2305 vs n_ir = 2382 on Frontier (ratio 0.968). At
        // laptop scale the double solver converges within its very first
        // restart cycle, so the one extra refinement cycle GMRES-IR
        // needs to polish past the f32 stall weighs relatively more —
        // the ratio is legitimately lower here and approaches the
        // paper's band as the problem (and hence n_d) grows.
        let sp = spec(ProcGrid::new(1, 1, 1), 16, 4);
        let opts = GmresOptions { max_iters: 2000, ..Default::default() };
        let (_, st_d) = solve(&SelfComm, &sp, &PrecisionPolicy::f64(), &opts);
        let (_, st_ir) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &opts);
        assert!(st_d.converged && st_ir.converged);
        let ratio = st_d.iters as f64 / st_ir.iters as f64;
        assert!(
            (0.55..=1.1).contains(&ratio),
            "nd/nir = {}/{} = {} outside the expected band",
            st_d.iters,
            st_ir.iters,
            ratio
        );
        // The absolute overhead stays within one restart cycle.
        assert!(st_ir.iters <= st_d.iters + 30);
    }

    #[test]
    fn distributed_ir_converges() {
        let procs = ProcGrid::new(2, 2, 1);
        let results = run_spmd(4, move |c| {
            let opts = GmresOptions { max_iters: 800, ..Default::default() };
            let (x, st) = solve(&c, &spec(procs, 8, 3), &PrecisionPolicy::f32(), &opts);
            let err = x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0f64, f64::max);
            (st.converged, st.final_relres, err)
        });
        for (conv, relres, err) in results {
            assert!(conv, "relres {}", relres);
            assert!(err < 1e-5);
        }
    }

    #[test]
    fn rank0_allreduce_receive_load_drops_to_log_p() {
        // The headline of the collective engine: rank 0 is not a hot
        // spot. Every rank, root included, receives ceil(log2 P)
        // messages per allreduce — also at a non-power-of-two P, where
        // the last recursive-doubling round is partial.
        use hpgmxp_comm::{rd_rounds, run_threads};
        for procs in [ProcGrid::new(2, 2, 1), ProcGrid::new(3, 1, 1)] {
            let p = procs.size() as usize;
            let stats = run_threads(p, |c| {
                let policy = PrecisionPolicy::f32();
                let prob = assemble_with_policy(&spec(procs, 8, 2), c.rank(), &policy);
                let tl = Timeline::disabled();
                let opts = GmresOptions { max_iters: 300, ..Default::default() };
                let (_, st) = gmres_ir_solve_policy(&c, &prob, &policy, &opts, &tl);
                assert!(st.converged);
                st.collectives.expect("the solver records its collective traffic")
            });
            let m = stats[0].allreduces;
            assert!(m > 0);
            for s in &stats {
                assert_eq!(s.allreduces, m, "P = {p}: every rank runs the same collectives");
                assert_eq!(
                    s.recvs,
                    m * u64::from(rd_rounds(p)),
                    "P = {p}: recursive doubling spreads ceil(log2 P) receives evenly"
                );
            }
        }
    }

    #[test]
    fn inner_cycles_stop_at_their_precision_floor() {
        let sp = spec(ProcGrid::new(1, 1, 1), 16, 4);
        let opts = GmresOptions { max_iters: 600, ..Default::default() };
        let (_, st) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &opts);
        assert!(st.converged);
        assert!(st.floor_stops() >= 1, "{:?}", st.cycles);
        assert_eq!(st.cycles.len(), st.restarts);
        assert_eq!(st.cycles.iter().map(|c| c.iters).sum::<usize>(), st.iters);
        // Cycle j starts from the true residual cycle j − 1 handed back.
        let mut start = 1.0;
        for c in &st.cycles {
            assert!(c.true_relres.is_finite() && c.true_relres > 0.0, "{c:?}");
            if c.floor_stop {
                assert!(c.implied_relres < f32::EPSILON as f64 * start, "{c:?} from {start}");
                // Past the floor the implied residual runs ahead of the truth.
                assert!(c.implied_relres < c.true_relres, "{c:?}");
            } else if c.true_relres >= opts.tol {
                assert_eq!(c.iters, opts.restart, "{c:?}");
            }
            start = c.true_relres;
        }

        // An f64 inner solve never reaches its floor in one cycle, and
        // with no tolerance asked for no cycle stops early.
        let (_, st64) = solve(&SelfComm, &sp, &PrecisionPolicy::f64(), &opts);
        assert_eq!(st64.floor_stops(), 0);
        let fixed = GmresOptions { max_iters: 90, tol: 0.0, ..Default::default() };
        let (_, st0) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &fixed);
        assert_eq!((st0.iters, st0.restarts, st0.floor_stops()), (90, 3, 0));
    }

    #[test]
    fn backward_error_is_normwise_and_all_reduced() {
        let procs = ProcGrid::new(2, 1, 1);
        let etas = run_spmd(2, move |c| {
            let prob = assemble_with_policy(&spec(procs, 8, 2), c.rank(), &PrecisionPolicy::f64());
            // b = A·1, so the exact solution leaves rounding only.
            let exact = backward_error(&c, &prob, &prob.x_exact).unwrap();
            // One perturbed entry on rank 1 alone: ‖x‖∞ = 2 and, its
            // column holding 26 on the diagonal, ‖b − Ax‖∞ = 26, with
            // ‖A‖∞ = 52 and ‖b‖∞ = 19 (a corner row's 26 − 7).
            let mut x = prob.x_exact.clone();
            if c.rank() == 1 {
                x[0] = 2.0;
            }
            let bumped = backward_error(&c, &prob, &x).unwrap();
            x[0] = f64::NAN;
            let broken = backward_error(&c, &prob, &x).unwrap();
            (exact, bumped, broken)
        });
        for &(exact, bumped, broken) in &etas {
            assert!(exact < 1e-15, "{exact}");
            assert_eq!(bumped, 26.0 / (52.0 * 2.0 + 19.0));
            assert!(broken.is_nan(), "a NaN solution must fail any bound: {broken}");
        }
    }

    #[test]
    fn reference_variant_ir_converges() {
        let opts =
            GmresOptions { max_iters: 500, variant: ImplVariant::Reference, ..Default::default() };
        let sp = spec(ProcGrid::new(1, 1, 1), 8, 2);
        let (_, st) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &opts);
        assert!(st.converged);
    }

    #[test]
    fn history_decreases_across_refinements() {
        let opts = GmresOptions { max_iters: 600, track_history: true, ..Default::default() };
        let sp = spec(ProcGrid::new(1, 1, 1), 16, 3);
        let (_, st) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &opts);
        assert!(st.history.len() >= 2);
        for w in st.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "refinement must not diverge: {:?}", st.history);
        }
    }

    #[test]
    fn fp16_inner_solver_still_reaches_nine_orders() {
        // The §5 future-work configuration: the blue region at emulated
        // IEEE half precision. Iterative refinement must still converge
        // to the f64-grade tolerance — fp16 resolution (~1e-3) only
        // slows the per-cycle digit gain, it does not cap the final
        // accuracy. That is the whole point of keeping lines 7 and 47
        // in double.
        let sp = spec(ProcGrid::new(1, 1, 1), 8, 2);
        let opts = GmresOptions { max_iters: 3000, ..Default::default() };
        let (x, st16) = solve(&SelfComm, &sp, &PrecisionPolicy::stress_f16(), &opts);
        assert!(st16.converged, "fp16 GMRES-IR stalled at {}", st16.final_relres);
        assert!(st16.final_relres < 1e-9);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-6);
        }
        // And the penalty ordering: fp16 needs at least as many
        // iterations as fp32, which needs at least as many as f64.
        let (_, st32) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &opts);
        let (_, st64) = solve(&SelfComm, &sp, &PrecisionPolicy::f64(), &opts);
        assert!(st16.iters >= st32.iters, "{} vs {}", st16.iters, st32.iters);
        assert!(st32.iters >= st64.iters, "{} vs {}", st32.iters, st64.iters);
    }

    #[test]
    fn nonsymmetric_problem_converges() {
        // GMRES's raison d'être: nonsymmetric operators (CG would fail).
        let sp = ProblemSpec {
            stencil: Stencil27::nonsymmetric(0.5),
            ..spec(ProcGrid::new(1, 1, 1), 8, 2)
        };
        let opts = GmresOptions { max_iters: 600, ..Default::default() };
        let (x, st) = solve(&SelfComm, &sp, &PrecisionPolicy::f32(), &opts);
        assert!(st.converged);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn double_solver_is_the_f64_instance_of_the_refinement_loop() {
        use hpgmxp_comm::run_threads_fallible;
        let policy = PrecisionPolicy::f64();
        let opts = GmresOptions { max_iters: 500, track_history: true, ..Default::default() };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // One body: the two names agree bit for bit.
        let prob = assemble_with_policy(&spec(ProcGrid::new(1, 1, 1), 16, 4), 0, &policy);
        let tl = Timeline::disabled();
        let (x_d, st_d) = gmres_solve_f64(&SelfComm, &prob, &opts, &tl);
        let (x_p, st_p) = gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &tl);
        assert!(st_d.converged && st_d.restarts > 0);
        assert_eq!(bits(&x_d), bits(&x_p));
        assert_eq!((st_d.iters, st_d.restarts), (st_p.iters, st_p.restarts));
        assert_eq!(bits(&st_d.history), bits(&st_p.history));

        // The double solve accounts the residual normalisation like
        // every other instance: per outer pass one waxpby (r = b − Ax),
        // per restart one scale and one solution update.
        let (n, cycles) = (prob.n_local(), st_d.restarts as f64);
        let expected = (cycles + 1.0) * crate::flops::waxpby(n)
            + cycles * (crate::flops::scal(n) + crate::flops::axpy(n));
        assert_eq!(st_d.motifs.flops(Motif::Waxpby), expected);

        // It records its collective traffic …
        let procs = ProcGrid::new(2, 1, 1);
        let recorded = run_spmd(2, move |c| {
            let prob = assemble_with_policy(&spec(procs, 16, 4), c.rank(), &PrecisionPolicy::f64());
            gmres_solve_f64(&c, &prob, &opts, &Timeline::disabled())
                .1
                .collectives
                .map(|s| s.allreduces)
        });
        assert!(recorded.iter().all(|a| a.is_some_and(|n| n > 0)), "{recorded:?}");

        // … and a dead peer reaches the caller of the `Result` form as
        // a typed error, not a panic.
        // Rank 1 leaves before solving, so rank 0 solves against a dead
        // peer.
        let deadline = Some(std::time::Duration::from_millis(500));
        let outcomes = run_threads_fallible(2, deadline, |c| {
            if c.rank() == 1 {
                return Ok(());
            }
            let policy = PrecisionPolicy::f64();
            let prob = assemble_with_policy(&spec(procs, 16, 4), c.rank(), &policy);
            let tl = Timeline::disabled();
            gmres_ir_solve_policy_checked(&c, &prob, &policy, &opts, &tl).map(|_| ())
        });
        assert!(matches!(outcomes[1], Ok(Ok(()))), "rank 1 leaves cleanly");
        match &outcomes[0] {
            Ok(Err(e)) => assert!(!e.to_string().is_empty()),
            other => panic!("rank 0 must see a typed transport fault, got {other:?}"),
        }
    }
}
