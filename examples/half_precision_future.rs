//! The paper's future work, executed: GMRES-IR with the entire inner
//! solve (Algorithm 3's blue region) at IEEE half precision.
//!
//! §5: "if one uses half precision strategically for parts of
//! operations in the blue region in algorithm 3, one can expect an
//! even higher speedup. This will be addressed in future work."
//!
//! Two questions, answered with this library:
//! 1. *Does it still converge?* — yes: real fp16 runs below reach the
//!    same 1e-9 relative residual, at a measurable extra iteration
//!    cost (the penalty the benchmark would charge).
//! 2. *What would it buy on Frontier?* — the machine model projects
//!    the bandwidth-side speedup of 2-byte values.
//!
//! Run: `cargo run --release --example half_precision_future`

use hpg_mxp::comm::{SelfComm, Timeline};
use hpg_mxp::core::gmres::GmresOptions;
use hpg_mxp::core::gmres_ir::gmres_ir_solve_policy;
use hpg_mxp::core::policy::PrecisionPolicy;
use hpg_mxp::core::problem::{assemble_with_policy, ProblemSpec};
use hpg_mxp::geometry::{ProcGrid, Stencil27};
use hpg_mxp::machine::simulate::{simulate, SimConfig};
use hpg_mxp::machine::{MachineModel, NetworkModel};

fn main() {
    println!("Part 1 — real runs: inner-precision sweep on a 16^3 benchmark problem\n");
    let spec = ProblemSpec {
        local: (16, 16, 16),
        procs: ProcGrid::new(1, 1, 1),
        stencil: Stencil27::symmetric(),
        mg_levels: 4,
        seed: 7,
    };
    let tl = Timeline::disabled();
    let opts = GmresOptions { max_iters: 5000, track_history: true, ..Default::default() };

    // One assembly per precision setting: each problem holds only the
    // matrices its policy's inner solve loads.
    let solve = |policy: PrecisionPolicy| {
        let prob = assemble_with_policy(&spec, 0, &policy);
        gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &tl).1
    };
    let st64 = solve(PrecisionPolicy::f64());
    let st32 = solve(PrecisionPolicy::f32());
    let st16 = solve(PrecisionPolicy::stress_f16());

    println!(
        "{:<26} {:>8} {:>10} {:>14} {:>12}",
        "solver", "iters", "cycles", "final relres", "penalty"
    );
    for (name, st) in
        [("double GMRES", &st64), ("GMRES-IR (f32 inner)", &st32), ("GMRES-IR (fp16 inner)", &st16)]
    {
        println!(
            "{:<26} {:>8} {:>10} {:>14.2e} {:>12.3}",
            name,
            st.iters,
            st.restarts,
            st.final_relres,
            (st64.iters as f64 / st.iters as f64).min(1.0),
        );
        assert!(st.converged);
    }
    println!(
        "\nfp16 residual per refinement cycle: {:?}",
        st16.history.iter().map(|r| format!("{:.1e}", r)).collect::<Vec<_>>()
    );
    println!("-> each cycle gains ~3 digits (fp16 resolution), vs ~6 for f32: more cycles, same final accuracy.\n");

    println!("Part 2 — Frontier projection (machine model, 512 nodes):\n");
    let machine = MachineModel::mi250x_gcd();
    let net = NetworkModel::frontier_slingshot();
    let ranks = 512 * 8;
    let d = simulate(&SimConfig::paper_double(), &machine, &net, ranks);
    let f32c = simulate(&SimConfig::paper_mxp(), &machine, &net, ranks);
    // Project the fp16 penalty from the measured iteration ratio above.
    let fp16_penalty = (st64.iters as f64 / st16.iters as f64).min(1.0);
    let f16c = simulate(
        &SimConfig { penalty: fp16_penalty, ..SimConfig::paper_mxp_fp16() },
        &machine,
        &net,
        ranks,
    );
    println!("{:<26} {:>14} {:>22}", "configuration", "GF/GCD (raw)", "GF/GCD (penalized)");
    println!("{:<26} {:>14.1} {:>22.1}", "double", d.gflops_per_rank_raw, d.gflops_per_rank);
    println!(
        "{:<26} {:>14.1} {:>22.1}",
        "mixed f64/f32", f32c.gflops_per_rank_raw, f32c.gflops_per_rank
    );
    println!(
        "{:<26} {:>14.1} {:>22.1}",
        "mixed f64/fp16", f16c.gflops_per_rank_raw, f16c.gflops_per_rank
    );
    println!(
        "\nraw fp16 speedup over double: {:.2}x (f32: {:.2}x) — but the measured iteration penalty ({:.3})",
        f16c.gflops_per_rank_raw / d.gflops_per_rank_raw,
        f32c.gflops_per_rank_raw / d.gflops_per_rank_raw,
        fp16_penalty
    );
    println!(
        "leaves {:.2}x penalized vs f32's {:.2}x — whole-cycle fp16 only pays off if convergence holds,",
        f16c.gflops_per_rank / d.gflops_per_rank_raw,
        f32c.gflops_per_rank / d.gflops_per_rank_raw
    );
    println!("which is why the paper says *strategically* for *parts* of the blue region.");
}
