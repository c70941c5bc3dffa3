//! Quickstart: assemble the benchmark problem, solve it with
//! mixed-precision GMRES-IR, and inspect the results.
//!
//! Run: `cargo run --release --example quickstart`

use hpg_mxp::comm::{SelfComm, Timeline};
use hpg_mxp::core::gmres::GmresOptions;
use hpg_mxp::core::gmres_ir::gmres_ir_solve_policy;
use hpg_mxp::core::motifs::Motif;
use hpg_mxp::core::policy::PrecisionPolicy;
use hpg_mxp::core::problem::{assemble_with_policy, ProblemSpec};
use hpg_mxp::geometry::{ProcGrid, Stencil27};

fn main() {
    // A 32^3 Poisson-like problem (27-point stencil, diagonal 26,
    // off-diagonals -1) with the benchmark's 4-level geometric
    // multigrid hierarchy, on a single rank.
    let spec = ProblemSpec {
        local: (32, 32, 32),
        procs: ProcGrid::new(1, 1, 1),
        stencil: Stencil27::symmetric(),
        mg_levels: 4,
        seed: 7,
    };
    // The precision policy names what the inner solve runs in; `f32` is
    // the benchmark's mixed solver. Assembly materializes exactly the
    // matrices that policy loads.
    let policy = PrecisionPolicy::f32();
    let problem = assemble_with_policy(&spec, 0, &policy);
    println!(
        "problem: {} rows, {} nonzeros, {} multigrid levels, {} colors on the fine level",
        problem.n_local(),
        problem.levels[0].nnz(),
        problem.levels.len(),
        problem.levels[0].coloring.num_colors,
    );

    // Solve A x = b with mixed-precision GMRES-IR: all inner work in
    // f32, outer residual and solution updates in f64, converging nine
    // orders of magnitude — the defining feat of the benchmark.
    let opts =
        GmresOptions { tol: 1e-9, max_iters: 500, track_history: true, ..Default::default() };
    let timeline = Timeline::disabled();
    let (x, stats) = gmres_ir_solve_policy(&SelfComm, &problem, &policy, &opts, &timeline);

    println!(
        "\nGMRES-IR: converged = {}, {} inner iterations in {} refinement cycles",
        stats.converged, stats.iters, stats.restarts
    );
    println!("relative residual: {:.3e}", stats.final_relres);
    println!(
        "residual history per refinement: {:?}",
        stats.history.iter().map(|r| format!("{:.1e}", r)).collect::<Vec<_>>()
    );

    // The exact solution is all ones.
    let max_err = x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0f64, f64::max);
    println!("max error vs exact solution: {:.3e}", max_err);

    // Where did the time go? (the paper's figure 7 motifs)
    println!("\nper-motif accounting:");
    for m in Motif::ALL {
        let s = stats.motifs.seconds(m);
        if s > 0.0 {
            println!(
                "  {:<8} {:>9.2} ms   {:>8.2} GFLOP/s",
                m.label(),
                s * 1e3,
                stats.motifs.gflops(m)
            );
        }
    }
    println!(
        "  total    {:>9.2} ms   {:>8.2} GFLOP/s",
        stats.motifs.total_seconds() * 1e3,
        stats.motifs.total_gflops()
    );
}
