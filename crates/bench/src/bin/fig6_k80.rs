//! Regenerates **Figure 6**: mixed-precision speedups on a small
//! commodity cluster with NVIDIA K80 GPUs, demonstrating that the
//! cross-platform implementation speeds up on a second architecture.
//!
//! Run: `cargo run --release -p hpgmxp-bench --bin fig6_k80`

use hpgmxp_bench::series_table;
use hpgmxp_machine::simulate::{motif_speedups, SimConfig};
use hpgmxp_machine::{MachineModel, NetworkModel};

fn main() {
    let machine = MachineModel::k80_die();
    let net = NetworkModel::commodity_ib();
    // K80-era memory: 12 GB per die fits ~128^3 comfortably.
    let cfg = SimConfig { local: (128, 128, 128), penalty: 0.968, ..SimConfig::paper_mxp() };

    let gpus = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    for &g in &gpus {
        let sp = motif_speedups(&cfg, &machine, &net, g);
        let get = |l: &str| sp.iter().find(|(n, _)| n == l).map(|(_, v)| *v).unwrap_or(0.0);
        rows.push((g as f64, vec![get("Total"), get("GS"), get("SpMV"), get("Ortho")]));
    }
    println!(
        "{}",
        series_table(
            "Figure 6: penalized mxp/double speedups on an NVIDIA K80 cluster (modeled)",
            "GPUs",
            &["Total", "GS", "SpMV", "Ortho"],
            &rows
        )
    );
    println!("(paper: similar speedups to Frontier, confirming cross-platform portability)");
}
