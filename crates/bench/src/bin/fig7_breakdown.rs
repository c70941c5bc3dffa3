//! Regenerates **Figure 7**: the breakdown of time spent in the four
//! main motifs (GS, Ortho, SpMV, Restr) during the mixed-precision and
//! double-precision runs, at 1 node and at the 9408-node full system.
//!
//! The modeled breakdown shows the paper's two observations: the mixed
//! run spends relatively less time in orthogonalization (it benefits
//! most from f32), and orthogonalization's share grows at full system
//! because of the all-reduces. A measured workstation breakdown
//! follows.
//!
//! Run: `cargo run --release -p hpgmxp-bench --bin fig7_breakdown`

use hpgmxp_bench::{workstation_params, workstation_ranks};
use hpgmxp_core::benchmark::{run_phase, PhaseResult};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::motifs::Motif;
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_machine::simulate::{simulate, SimConfig, SimResult};
use hpgmxp_machine::{MachineModel, NetworkModel};

const MOTIFS: [Motif; 4] = [Motif::GaussSeidel, Motif::Ortho, Motif::SpMV, Motif::Restriction];

fn print_modeled(label: &str, r: &SimResult) {
    print!("{:<28}", label);
    for m in MOTIFS {
        print!(" {:>10.3}", r.per_iter.seconds(m) * 1e3);
    }
    println!(" {:>10.3}", r.time_per_iter * 1e3);
}

fn print_measured(label: &str, p: &PhaseResult) {
    print!("{:<28}", label);
    for m in MOTIFS {
        print!(" {:>10.3}", p.seconds_of(m) * 1e3);
    }
    println!(" {:>10.3}", p.wall_time * 1e3);
}

fn main() {
    let machine = MachineModel::mi250x_gcd();
    let net = NetworkModel::frontier_slingshot();

    println!("Figure 7 (modeled, Frontier): per-iteration time per motif, ms");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "GS", "Ortho", "SpMV", "Restr", "total"
    );
    for (nodes, label) in [(1usize, "1 node"), (9408, "9408 nodes")] {
        let ranks = nodes * machine.devices_per_node;
        let mxp = simulate(&SimConfig::paper_mxp(), &machine, &net, ranks);
        let dbl = simulate(&SimConfig::paper_double(), &machine, &net, ranks);
        print_modeled(&format!("mxp, {}", label), &mxp);
        print_modeled(&format!("double, {}", label), &dbl);
    }

    // The paper's observations, quantified:
    let m1 = simulate(&SimConfig::paper_mxp(), &machine, &net, 8);
    let mfull = simulate(&SimConfig::paper_mxp(), &machine, &net, 9408 * 8);
    println!(
        "\nOrtho share of mxp time: {:.1}% at 1 node -> {:.1}% at 9408 nodes (paper: grows)",
        m1.per_iter.seconds(Motif::Ortho) / m1.time_per_iter * 100.0,
        mfull.per_iter.seconds(Motif::Ortho) / mfull.time_per_iter * 100.0
    );

    println!("\nMeasured on this machine (thread-ranks, per phase totals in ms):");
    let params = workstation_params();
    let ranks = workstation_ranks();
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "GS", "Ortho", "SpMV", "Restr", "wall"
    );
    let mxp = run_phase(&params, ImplVariant::Optimized, ranks, &PrecisionPolicy::f32());
    let dbl = run_phase(&params, ImplVariant::Optimized, ranks, &PrecisionPolicy::f64());
    print_measured(&format!("mxp, {} ranks", ranks), &mxp);
    print_measured(&format!("double, {} ranks", ranks), &dbl);
}
