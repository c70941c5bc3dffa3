//! Regenerates **Figure 9**: traces of the Gauss–Seidel halo overlap
//! in an 8-node run — fine grid (9a, communication fully hidden) and
//! coarsest grid (9b, communication partially exposed).
//!
//! Two sections, printed side by side: the modeled rocprof-style
//! timelines on the Frontier machine model, and a *measured* event
//! timeline + per-exchange overlap records captured from an actual
//! threaded run of the optimized smoother on this machine — including
//! the measured `overlap_efficiency()`, the testable counterpart of
//! the model's `hidden_fraction`.
//!
//! Run: `cargo run --release -p hpgmxp-bench --bin fig9_trace`
//! Env: `HPGMXP_RANKS` (default 8), `HPGMXP_LOCAL` (default 16),
//! `HPGMXP_COMM` (thread | socket — over sockets, start the job as
//! `hpgmxp-launch -n N -- ... fig9_trace`; rank 0 prints the modeled
//! sections and the middle-rank process prints the measured ones).

use hpgmxp_bench::env_usize;
use hpgmxp_comm::{run_spmd, Comm, OverlapRecord, Timeline, Transport};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::motifs::MotifStats;
use hpgmxp_core::ops::{dist_gs_sweep, OpCtx, SweepDir};
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_machine::trace::{gs_sweep_trace, render_ascii};
use hpgmxp_machine::workload::Workload;
use hpgmxp_machine::{MachineModel, NetworkModel};

fn print_records(records: &[OverlapRecord]) {
    println!(
        "    {:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "tag", "bytes", "pack µs", "window µs", "wait µs", "unpack µs", "hidden"
    );
    for r in records {
        println!(
            "    {:<6} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>7.1}%",
            r.tag,
            r.bytes_sent,
            r.pack * 1e6,
            r.window * 1e6,
            r.wire_wait * 1e6,
            r.unpack * 1e6,
            r.hidden_fraction() * 100.0
        );
    }
}

/// One measured sweep on a `local³` box per rank: returns the middle
/// rank's per-exchange overlap records and overlap efficiency.
/// `None` when this process doesn't hold the middle rank's data (a
/// non-middle rank of a socket job; under threads it is always
/// `Some`).
fn measured_sweep(
    ranks: usize,
    local: u32,
    sweeps: usize,
) -> Option<(Vec<OverlapRecord>, Option<f64>, usize)> {
    let procs = ProcGrid::factor(ranks as u32);
    let mid = procs.rank_of(procs.px / 2, procs.py / 2, procs.pz / 2) as usize;
    let mut out = run_spmd(ranks, move |c| {
        let prob = assemble_with_policy(
            &ProblemSpec {
                local: (local, local, local),
                procs,
                stencil: Stencil27::symmetric(),
                mg_levels: 1,
                seed: 9,
            },
            c.rank(),
            &PrecisionPolicy::f64(),
        );
        let l = &prob.levels[0];
        let tl = Timeline::enabled();
        let mut stats = MotifStats::new();
        let ctx = OpCtx::new(&c, ImplVariant::Optimized, &tl);
        let r = vec![1.0f64; l.n_local()];
        let mut z = vec![0.0f64; l.vec_len()];
        for s in 0..sweeps {
            dist_gs_sweep(&ctx, l, &mut stats, s as u64, SweepDir::Forward, &r, &mut z);
        }
        let dropped = tl.dropped_events() + tl.dropped_overlaps();
        (c.rank(), tl.overlap_records(), tl.overlap_efficiency(), dropped)
    });
    let pos = out.iter().position(|(r, _, _, _)| *r == mid)?;
    let (_, records, eff, dropped) = out.swap_remove(pos);
    Some((records, eff, dropped))
}

fn main() {
    let transport = Transport::from_env();
    // Over sockets this binary runs once per rank under hpgmxp-launch;
    // rank 0 owns the modeled sections so they print exactly once.
    let socket_rank = std::env::var("HPGMXP_RANK").ok().and_then(|v| v.parse::<usize>().ok());
    let print_modeled = transport == Transport::Thread || socket_rank == Some(0);

    if print_modeled {
        // The armed execution stack, so a pasted trace is attributable:
        // numbers measured over different transports, collective
        // algorithms, or SIMD levels are not comparable.
        println!(
            "[fig9] transport {}, coll {}, simd {} (features {})\n",
            transport.name(),
            hpgmxp_comm::CollAlgo::from_env().name(),
            hpgmxp_sparse::simd::level().name(),
            hpgmxp_sparse::simd::features().summary()
        );
    }

    let machine = MachineModel::mi250x_gcd();
    let net = NetworkModel::frontier_slingshot();
    // 8 nodes = 64 GCDs, the paper's trace configuration.
    let wl = Workload::build((320, 320, 320), 4, 30, 64);

    let fine = gs_sweep_trace("(a) fine-grid smoothing", &wl.levels[0], 4, &machine, &net);
    let coarse = gs_sweep_trace("(b) coarsest-grid smoothing", &wl.levels[3], 4, &machine, &net);
    if print_modeled {
        println!("Figure 9 (modeled, 8-node Frontier run, f32 sweep):\n");
        println!("{}", render_ascii(&fine, 100));
        println!("{}", render_ascii(&coarse, 100));
        println!(
            "fine grid: {:.0}% of communication hidden; coarsest: {:.0}% (paper: fully vs partially hidden)\n",
            fine.hidden_fraction * 100.0,
            coarse.hidden_fraction * 100.0
        );
    }

    // Measured counterpart: real runs of the optimized GS sweep on this
    // machine over the selected transport, fine-ish local box vs tiny
    // coarse box, with per-exchange overlap records from the
    // persistent-buffer halo engine.
    let ranks = hpgmxp_comm::socket_world_size().unwrap_or_else(|| env_usize("HPGMXP_RANKS", 8));
    let local = env_usize("HPGMXP_LOCAL", 16) as u32;
    let sweeps = 4;

    let fine_out = measured_sweep(ranks, local, sweeps);
    let coarse_out = measured_sweep(ranks, 4, sweeps);
    // Only the process holding the middle rank's trace reports it
    // (under threads: this one; under sockets: the mid-rank child).
    let (Some((rec_fine, eff_fine, drop_fine)), Some((rec_coarse, eff_coarse, drop_coarse))) =
        (fine_out, coarse_out)
    else {
        return;
    };
    let dropped = drop_fine + drop_coarse;
    if dropped > 0 {
        eprintln!(
            "[fig9] warning: timeline ring wrapped ({dropped} records lost) — measured overlap \
             covers a truncated window; raise HPGMXP_TIMELINE_CAPACITY for full coverage"
        );
    }
    println!(
        "Measured ({} transport, {ranks} ranks, middle rank, {sweeps} optimized GS sweeps):",
        transport.name()
    );
    println!("  (a) fine grid, {local}\u{b3} local box:");
    print_records(&rec_fine);
    println!("  (b) coarse grid, 4\u{b3} local box:");
    print_records(&rec_coarse);

    println!("\nmodeled vs measured overlap (fraction of communication hidden under compute):");
    println!(
        "  fine grid:    modeled {:>5.1}%   measured {:>5.1}%",
        fine.hidden_fraction * 100.0,
        eff_fine.unwrap_or(0.0) * 100.0
    );
    println!(
        "  coarse grid:  modeled {:>5.1}%   measured {:>5.1}%",
        coarse.hidden_fraction * 100.0,
        eff_coarse.unwrap_or(0.0) * 100.0
    );
    println!("overlap_efficiency (measured, fine grid): {:.3}", eff_fine.unwrap_or(f64::NAN));
}
