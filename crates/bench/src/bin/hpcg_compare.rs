//! Regenerates the §4.1 HPCG-vs-HPG-MxP comparison: "At the full
//! system scale of 9408 nodes we achieve 17.23 petaflops (mixed); when
//! we ran HPCG ourselves on Frontier on 9408 nodes, we achieved 10.4
//! petaflops."
//!
//! Runs both solvers for real at workstation scale (the HPCG baseline
//! is preconditioned CG with a symmetric-GS multigrid; HPG-MxP is
//! mixed GMRES-IR) and prints their measured throughputs, then the
//! modeled full-system numbers.
//!
//! Run: `cargo run --release -p hpgmxp-bench --bin hpcg_compare`

use hpgmxp_bench::{workstation_params, workstation_ranks};
use hpgmxp_comm::{run_spmd, Comm, Timeline};
use hpgmxp_core::cg::{cg_solve, CgOptions};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::GmresOptions;
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_machine::simulate::{simulate, SimConfig};
use hpgmxp_machine::{MachineModel, NetworkModel};

fn main() {
    let params = workstation_params();
    let ranks = workstation_ranks();
    let spec_src = ProblemSpec::from_params(&params, ranks);
    let iters = params.max_iters_per_solve;

    let results = run_spmd(ranks, move |c| {
        let tl = Timeline::disabled();
        // HPCG phase: CG (all double) for a fixed iteration count.
        let cg_opts = CgOptions { max_iters: iters, tol: 0.0, ..Default::default() };
        let (_, cg_st) = {
            let prob = assemble_with_policy(&spec_src, c.rank(), &PrecisionPolicy::f64());
            cg_solve(&c, &prob, &cg_opts, &tl)
        };
        // HPG-MxP phase: GMRES-IR for the same fixed count.
        let ir_opts = GmresOptions {
            max_iters: iters,
            tol: 0.0,
            variant: ImplVariant::Optimized,
            ..Default::default()
        };
        let mxp = PrecisionPolicy::f32();
        let prob = assemble_with_policy(&spec_src, c.rank(), &mxp);
        let (_, ir_st) = gmres_ir_solve_policy(&c, &prob, &mxp, &ir_opts, &tl);
        (cg_st.motifs, ir_st.motifs)
    });

    let mut cg_flops = 0.0;
    let mut cg_time: f64 = 0.0;
    let mut ir_flops = 0.0;
    let mut ir_time: f64 = 0.0;
    for (cg, ir) in &results {
        cg_flops += cg.total_flops();
        cg_time = cg_time.max(cg.total_seconds());
        ir_flops += ir.total_flops();
        ir_time = ir_time.max(ir.total_seconds());
    }
    println!(
        "Measured ({} thread-ranks, {}^3 local, {} iterations each):",
        ranks, params.local_dims.0, iters
    );
    println!("  HPCG baseline (CG + symmetric-GS MG): {:>8.3} GF/s", cg_flops / cg_time / 1e9);
    println!("  HPG-MxP (mixed GMRES-IR):             {:>8.3} GF/s", ir_flops / ir_time / 1e9);
    println!(
        "  ratio: {:.2}x  (paper: 17.23 PF / 10.4 PF = 1.66x; \"not directly comparable\")",
        (ir_flops / ir_time) / (cg_flops / cg_time)
    );

    println!("\nModeled full system (9408 nodes, 75264 GCDs):");
    let machine = MachineModel::mi250x_gcd();
    let net = NetworkModel::frontier_slingshot();
    let mxp = simulate(&SimConfig::paper_mxp(), &machine, &net, 9408 * 8);
    println!("  HPG-MxP mixed, penalized: {:.2} PF (paper: 17.23 PF)", mxp.total_pflops);
    println!("  HPCG measured by the paper's authors: 10.4 PF");
}
