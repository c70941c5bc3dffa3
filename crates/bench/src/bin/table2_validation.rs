//! Regenerates **Table 2**: iteration ratios `n_d / n_ir` under the
//! `standard` and `fullscale` validation methods, plus the full-scale
//! achieved residual norm. Beside each `n_ir` it prints the GMRES-IR
//! solve's restart cycles and how many of them ended at the f32
//! precision floor.
//!
//! The paper runs 2–4096 Frontier nodes with 320³ points per GCD; this
//! reproduction runs real distributed solves on thread-ranks at
//! workstation scale (the ratio band ~0.95–1.07 is the shape target —
//! see EXPERIMENTS.md) and prints the paper's measured rows alongside
//! for comparison.
//!
//! Run: `cargo run --release -p hpgmxp-bench --bin table2_validation`

use hpgmxp_bench::{env_usize, workstation_params};
use hpgmxp_core::benchmark::{validate, ValidationMode};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::PrecisionPolicy;

fn main() {
    let params = workstation_params();
    let max_ranks = env_usize("HPGMXP_RANKS", 8);
    println!(
        "Table 2 (measured, {}^3 per rank): iteration ratios nd/nir for the two validation methods",
        params.local_dims.0
    );
    println!(
        "{:>6} {:>6} {:>6} {:>9} {:>10} | {:>6} {:>6} {:>9} {:>10} {:>16}",
        "ranks",
        "nd",
        "nir",
        "cyc/floor",
        "std ratio",
        "nd",
        "nir",
        "cyc/floor",
        "fs ratio",
        "fs rel residual"
    );
    let cycles = |restarts: usize, floor: usize| format!("{restarts}/{floor}");
    let mut ranks = 1usize;
    while ranks <= max_ranks {
        let mxp = PrecisionPolicy::f32();
        let std = validate(&params, ImplVariant::Optimized, ranks, ValidationMode::Standard, &mxp);
        let fs = validate(&params, ImplVariant::Optimized, ranks, ValidationMode::FullScale, &mxp);
        println!(
            "{:>6} {:>6} {:>6} {:>9} {:>10.3} | {:>6} {:>6} {:>9} {:>10.3} {:>16.3e}",
            ranks,
            std.nd,
            std.nir,
            cycles(std.restarts, std.floor_stops),
            std.ratio,
            fs.nd,
            fs.nir,
            cycles(fs.restarts, fs.floor_stops),
            fs.ratio,
            fs.achieved_relres
        );
        ranks *= 2;
    }

    println!();
    println!("Paper (Frontier, 320^3 per GCD, 8 GCDs/node):");
    println!(
        "{:>6} {:>10} {:>16} {:>18}",
        "nodes", "std ratio", "full-scale ratio", "fs rel residual"
    );
    for (nodes, std_r, fs_r, res) in [
        (2, 0.968, 0.966, 9.98e-10),
        (8, 0.968, 1.008, 9.99e-10),
        (64, 0.968, 1.050, 1.65e-6),
        (128, 0.968, 1.023, 2.82e-6),
        (1024, 0.968, 1.067, 1.154e-5),
        (4096, 0.968, 0.958, 1.148e-5),
    ] {
        println!("{:>6} {:>10.3} {:>16.3} {:>18.3e}", nodes, std_r, fs_r, res);
    }
    println!();
    println!("Paper 1-node validation: nd = 2305, nir = 2382 (ratio 0.968).");
}
