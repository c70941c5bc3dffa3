//! End-to-end solver behaviour across rank counts, variants, and
//! precisions — the numerical claims of the paper, verified on real
//! (laptop-scale) runs.

use hpgmxp_comm::{run_spmd, Comm, SelfComm, Timeline};
use hpgmxp_core::cg::{cg_solve, CgOptions};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::{gmres_solve_f64, GmresOptions};
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_integration_tests::dist_problem;

#[test]
fn all_three_solvers_agree_on_the_solution() {
    let mxp = PrecisionPolicy::f32();
    let prob = dist_problem(16, ProcGrid::new(1, 1, 1), 0, 4, &PrecisionPolicy::f64());
    let prob_mxp = dist_problem(16, ProcGrid::new(1, 1, 1), 0, 4, &mxp);
    let tl = Timeline::disabled();
    let g_opts = GmresOptions { max_iters: 600, ..Default::default() };
    let (x_g, st_g) = gmres_solve_f64(&SelfComm, &prob, &g_opts, &tl);
    let (x_ir, st_ir) = gmres_ir_solve_policy(&SelfComm, &prob_mxp, &mxp, &g_opts, &tl);
    let (x_cg, st_cg) = cg_solve(&SelfComm, &prob, &CgOptions::default(), &tl).unwrap();
    assert!(st_g.converged && st_ir.converged && st_cg.converged);
    for i in 0..prob.n_local() {
        assert!((x_g[i] - x_ir[i]).abs() < 1e-6);
        assert!((x_g[i] - x_cg[i]).abs() < 1e-6);
        assert!((x_g[i] - 1.0).abs() < 1e-6, "exact solution is ones");
    }
}

#[test]
fn gmres_ir_penalty_overhead_is_bounded_by_one_cycle() {
    // The refinement overhead of GMRES-IR is the polish past the f32
    // stall: across problem sizes, n_ir must stay within roughly one
    // extra restart cycle of n_d, keeping the penalty ratio in a sane
    // band (the paper's Table 2 band is 0.958–1.067 at Frontier sizes;
    // at laptop sizes where n_d is tiny the ratio is lower but the
    // absolute gap stays bounded).
    let tl = Timeline::disabled();
    for n in [8u32, 16, 24] {
        let mxp = PrecisionPolicy::f32();
        let prob = dist_problem(n, ProcGrid::new(1, 1, 1), 0, 2, &PrecisionPolicy::f64());
        let prob_mxp = dist_problem(n, ProcGrid::new(1, 1, 1), 0, 2, &mxp);
        let opts = GmresOptions { max_iters: 3000, ..Default::default() };
        let (_, d) = gmres_solve_f64(&SelfComm, &prob, &opts, &tl);
        let (_, ir) = gmres_ir_solve_policy(&SelfComm, &prob_mxp, &mxp, &opts, &tl);
        assert!(d.converged && ir.converged);
        let ratio = d.iters as f64 / ir.iters as f64;
        assert!(
            (0.6..=1.15).contains(&ratio),
            "n={}: nd/nir = {}/{} = {} out of band",
            n,
            d.iters,
            ir.iters,
            ratio
        );
        assert!(
            ir.iters <= d.iters + opts.restart + 2,
            "n={}: overhead beyond one cycle: {} vs {}",
            n,
            ir.iters,
            d.iters
        );
    }
}

#[test]
fn variants_converge_on_every_decomposition() {
    for procs in [ProcGrid::new(2, 1, 1), ProcGrid::new(2, 2, 1)] {
        let p = procs.size() as usize;
        for variant in [ImplVariant::Optimized, ImplVariant::Reference] {
            let results = run_spmd(p, move |c| {
                let mxp = PrecisionPolicy::f32();
                let prob = dist_problem(8, procs, c.rank(), 2, &mxp);
                let tl = Timeline::disabled();
                let opts = GmresOptions { max_iters: 600, variant, ..Default::default() };
                let (x, st) = gmres_ir_solve_policy(&c, &prob, &mxp, &opts, &tl);
                let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
                (st.converged, err)
            });
            for (conv, err) in results {
                assert!(conv, "{:?} on {:?} failed", variant, procs);
                assert!(err < 1e-5);
            }
        }
    }
}

#[test]
fn iteration_counts_identical_across_ranks_within_a_run() {
    // SPMD determinism: every rank must make identical convergence
    // decisions (they share the reduction results).
    let procs = ProcGrid::new(2, 2, 2);
    let results = run_spmd(8, move |c| {
        let prob = dist_problem(8, procs, c.rank(), 2, &PrecisionPolicy::f64());
        let tl = Timeline::disabled();
        let (_, st) = gmres_solve_f64(&c, &prob, &GmresOptions::default(), &tl);
        (st.iters, st.restarts, st.converged)
    });
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn nonsymmetric_needs_gmres_not_cg() {
    // The nonsymmetric stencil variant: GMRES-IR converges; CG's
    // SPD assumption is violated (pAp may go nonpositive), which is
    // exactly why the benchmark is GMRES-based.
    let spec = ProblemSpec {
        local: (8, 8, 8),
        procs: ProcGrid::new(1, 1, 1),
        stencil: Stencil27::nonsymmetric(0.9),
        mg_levels: 2,
        seed: 5,
    };
    let mxp = PrecisionPolicy::f32();
    let prob = assemble_with_policy(&spec, 0, &mxp);
    let tl = Timeline::disabled();
    let opts = GmresOptions { max_iters: 800, ..Default::default() };
    let (x, st) = gmres_ir_solve_policy(&SelfComm, &prob, &mxp, &opts, &tl);
    assert!(st.converged);
    for xi in &x {
        assert!((xi - 1.0).abs() < 1e-5);
    }
}

#[test]
fn symmetric_problem_is_at_least_as_hard_for_gmres() {
    // Yamazaki et al.'s observation (§3): the symmetric matrix takes at
    // least as many GMRES iterations as the nonsymmetric variant.
    let tl = Timeline::disabled();
    let iters = |stencil: Stencil27| {
        let spec = ProblemSpec {
            local: (16, 16, 16),
            procs: ProcGrid::new(1, 1, 1),
            stencil,
            mg_levels: 2,
            seed: 5,
        };
        let prob = assemble_with_policy(&spec, 0, &PrecisionPolicy::f64());
        let opts = GmresOptions { max_iters: 2000, tol: 1e-8, ..Default::default() };
        let (_, st) = gmres_solve_f64(&SelfComm, &prob, &opts, &tl);
        assert!(st.converged);
        st.iters
    };
    let sym = iters(Stencil27::symmetric());
    let nonsym = iters(Stencil27::nonsymmetric(0.5));
    assert!(
        sym + 2 >= nonsym,
        "symmetric ({}) should be >= nonsymmetric ({}) - slack",
        sym,
        nonsym
    );
}

#[test]
fn zero_rhs_converges_immediately() {
    let mut prob = dist_problem(8, ProcGrid::new(1, 1, 1), 0, 2, &PrecisionPolicy::f64());
    prob.b.iter_mut().for_each(|v| *v = 0.0);
    let tl = Timeline::disabled();
    let (x, st) = gmres_solve_f64(&SelfComm, &prob, &GmresOptions::default(), &tl);
    assert!(st.converged);
    assert_eq!(st.iters, 0);
    assert!(x.iter().all(|&v| v == 0.0));
}

#[test]
fn restart_length_one_still_converges() {
    // Degenerate restart: every iteration is its own refinement cycle.
    let mxp = PrecisionPolicy::f32();
    let prob = dist_problem(8, ProcGrid::new(1, 1, 1), 0, 2, &mxp);
    let tl = Timeline::disabled();
    let opts = GmresOptions { restart: 1, max_iters: 3000, tol: 1e-6, ..Default::default() };
    let (_, st) = gmres_ir_solve_policy(&SelfComm, &prob, &mxp, &opts, &tl);
    assert!(st.converged, "stalled at {}", st.final_relres);
}
