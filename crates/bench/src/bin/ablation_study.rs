//! Ablation of the paper's §3.2 optimizations, one at a time, on the
//! machine model — quantifying what each contributes to the
//! present-vs-xsdk gap of figure 4 — plus the **precision-policy
//! sweep**: every shipped [`PrecisionPolicy`] run end to end in one
//! invocation, with measured GF/s, measured bytes/iteration, the
//! GMRES-IR iteration-penalty ratio, and an exact reconciliation of
//! the measured matrix + halo traffic against the policy-aware machine
//! model. The sweep *asserts* the headline claim: fp32-stored /
//! f64-accumulated SpMV moves exactly half the matrix-value bytes of
//! the all-f64 policy — measured from the matrices the kernels
//! actually traversed, not modeled.
//!
//! The implementation variants bundle several changes (format, GS
//! algorithm, fusion, overlap, device-side mixed ops). This harness
//! prices intermediate configurations so each §3.2 item gets its own
//! line, plus a measured CGS2-vs-MGS orthogonalization comparison
//! (§3's discussion of reorthogonalization).
//!
//! Run: `cargo run --release -p hpgmxp-bench --bin ablation_study`
//! (env: `HPGMXP_LOCAL_N`, `HPGMXP_ITERS` scale the measured sweep).

use hpgmxp_bench::{env_usize, single_rank_problem};
use hpgmxp_comm::SelfComm;
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::motifs::MotifStats;
use hpgmxp_core::ortho::{cgs2, mgs, orthogonality_defect};
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_harness::{
    run_campaign, CampaignSpec, CellStatus, PolicyRef, SeriesMode, SeriesSpec, SPEC_SCHEMA,
};
use hpgmxp_machine::kernels;
use hpgmxp_machine::workload::Workload;
use hpgmxp_machine::{MachineModel, NetworkModel};
use hpgmxp_sparse::blas::Basis;
use hpgmxp_sparse::PrecKind;

/// The precision-policy sweep: ≥6 runtime-selected policies, one
/// invocation, measured + reconciled — a thin frontend over the
/// campaign engine's Hybrid mode, which owns the measurement and the
/// exact byte-model reconciliation this binary used to hand-roll.
fn policy_sweep() {
    let n = env_usize("HPGMXP_LOCAL_N", 16) as u32;
    let ranks = 2usize; // P=2: both ranks share the middle-rank surface, so
                        // measured wire bytes reconcile exactly with the model
    let policies = PrecisionPolicy::shipped();
    assert!(policies.len() >= 6, "the sweep must cover at least 6 policies");
    let hybrid = |label: &str, refs: Vec<PolicyRef>| SeriesSpec {
        label: label.to_string(),
        mode: SeriesMode::Hybrid,
        variant: ImplVariant::Optimized,
        policies: refs,
        ranks: vec![ranks],
        nodes: vec![], // measurement + reconciliation only; the
        // policy_sweep campaign spec adds the at-scale projection
        modeled_local: None,
        penalty: None,
    };
    let spec = CampaignSpec {
        schema: SPEC_SCHEMA,
        name: "ablation_policy_sweep".into(),
        description: "measured precision-policy sweep, byte-reconciled".into(),
        local: (n, n, n),
        mg_levels: 4,
        restart: 30,
        iters_per_solve: env_usize("HPGMXP_ITERS", 60),
        benchmark_solves: 1,
        validation_max_iters: 4000,
        machine: "mi250x_gcd".into(),
        network: "frontier_slingshot".into(),
        series: vec![
            hybrid("sweep", policies.iter().map(|p| PolicyRef::by_name(&p.name)).collect()),
            // The standalone-fp16 stress configuration rides along: it
            // may legitimately break down (the §5 caveat the f16s-f32c
            // policy exists to avoid), in which case its cell is
            // Unrated and prints honestly instead of asserting.
            hybrid("stress", vec![PolicyRef::by_name("f16")]),
        ],
    };
    let report = run_campaign(&spec).expect("policy sweep campaign");

    println!(
        "== Precision-policy sweep (measured; P={} thread-ranks, {}^3 local, {} MG levels) ==",
        ranks, n, spec.mg_levels
    );
    println!(
        "   storage/compute/wire per policy; GF/s raw; measured bytes per inner iteration per rank;"
    );
    println!("   nd/nir iteration penalty; SpMV matrix-value bytes vs the all-f64 policy\n");
    println!(
        "{:<10} {:>20} {:>8} {:>13} {:>11} {:>9} {:>14}",
        "policy", "storage/cmp/wire", "GF/s", "bytes/iter", "nd/nir", "penalty", "spmv value B"
    );

    let short = |k: PrecKind| &k.name()[2..]; // "64"/"32"/"16"
    let axes = |p: &PrecisionPolicy| {
        let sto: Vec<&str> = (0..spec.mg_levels).map(|d| short(p.storage_at(d))).collect();
        format!("{}/c{}/w{}", sto.join("."), short(p.compute), short(p.wire))
    };
    for cell in &report.cells {
        let policy = PrecisionPolicy::by_name(&cell.policy).expect("shipped policy");
        let stress = if cell.series == "stress" { "  (stress)" } else { "" };
        match cell.status {
            CellStatus::Rated => println!(
                "{:<10} {:>20} {:>8.3} {:>13.0} {:>6}/{:<6} {:>7.3} {:>14.0}{}",
                cell.policy,
                axes(&policy),
                cell.gflops_per_rank_raw.unwrap(),
                cell.bytes_per_iter_rank.unwrap(),
                cell.nd.unwrap(),
                cell.nir.unwrap(),
                cell.penalty.unwrap(),
                cell.spmv_value_bytes.unwrap(),
                stress,
            ),
            CellStatus::Unrated => println!(
                "{:<10} {:>20}  n/c — {} — the §5 standalone-fp16 failure mode the f16s-f32c \
                 policy avoids",
                cell.policy,
                axes(&policy),
                cell.note,
            ),
        }
    }

    let value = |name: &str| {
        report
            .find_cell("sweep", name, None, Some(ranks))
            .and_then(|c| c.spmv_value_bytes)
            .expect("policy measured")
    };
    // The acceptance claim, measured not modeled: fp32 storage under
    // f64 accumulation moves exactly half the matrix-value bytes of
    // the all-f64 policy on SpMV (indices are unchanged — that is why
    // end-to-end speedups stay below 2x, §4).
    let ratio = value("f64") / value("f32s-f64c");
    assert!(
        (ratio - 2.0).abs() < 1e-9,
        "fp32-storage/f64-accumulate must halve the measured SpMV matrix-value traffic, got {ratio}"
    );
    println!("\n  measured SpMV matrix-value traffic, f64/f64 vs f32s-f64c: {ratio:.3}x");
    let r16 = value("f64") / value("f16s-f32c");
    println!("  measured SpMV matrix-value traffic, f64/f64 vs f16s-f32c: {r16:.3}x");
    println!("  (all matrix + halo byte measurements reconciled exactly against the policy-aware machine model)\n");
}

fn main() {
    policy_sweep();
    let machine = MachineModel::mi250x_gcd();
    let net = NetworkModel::frontier_slingshot();
    let wl = Workload::build((320, 320, 320), 4, 30, 512 * 8);
    let s = wl.fine();
    let sb = 4usize; // mixed inner precision
    let g = machine.gather_factor;

    println!("Per-sweep fine-grid Gauss-Seidel cost (modeled, f32, 320^3, ms):\n");
    // (1) level-scheduled two-kernel reference GS.
    let kc_ref = kernels::gs_reference_csr(s, sb, g);
    let rows_per_stage = s.n / s.sched_stages as f64;
    let eff = machine.stage_bandwidth_efficiency(rows_per_stage);
    let t_ref = kc_ref.bytes / (machine.mem_bw * eff)
        + (s.sched_stages as f64 + 1.0) * 2.0 * machine.launch_overhead;
    // (2) multicolor relaxation, still CSR-like traffic (two passes fused to one).
    let kc_mc_csr = kernels::spmv_csr(s, sb, g); // one pass over CSR + vector work
    let t_mc_csr = kc_mc_csr.bytes / machine.mem_bw + s.colors as f64 * machine.launch_overhead;
    // (3) multicolor relaxation on ELL (the optimized kernel).
    let kc_mc_ell = kernels::gs_multicolor_ell(s, sb, g);
    let t_mc_ell = kc_mc_ell.bytes / machine.mem_bw + s.colors as f64 * machine.launch_overhead;

    println!(
        "  §3.1 reference (SpMV+SpTRSV, level-sched): {:>8.2}  ({} stages, {:.0}% stage bw)",
        t_ref * 1e3,
        s.sched_stages,
        eff * 100.0
    );
    println!("  §3.2.1 multicolor relaxation (one sweep):  {:>8.2}", t_mc_csr * 1e3);
    println!("  §3.2.2 + ELL format:                       {:>8.2}", t_mc_ell * 1e3);
    println!(
        "  -> multicoloring alone buys {:.1}x; the format is a second-order refinement\n",
        t_ref / t_mc_csr
    );

    println!("Restriction cost per V-cycle level 0 (modeled, f32, ms):");
    let kc_runf = kernels::reference_restrict(s, sb, g);
    let kc_rf = kernels::fused_restrict(s, sb, g);
    println!(
        "  §3.1 unfused (full residual + inject): {:>8.2}",
        kc_runf.bytes / machine.mem_bw * 1e3
    );
    println!(
        "  §3.2.4 fused at coarse points:         {:>8.2}  ({:.1}x)\n",
        kc_rf.bytes / machine.mem_bw * 1e3,
        kc_runf.bytes / kc_rf.bytes
    );

    println!("Communication exposure per fine-grid sweep (modeled, ms):");
    let comm = net.halo_time(s.halo_msgs, s.halo_values * sb as f64);
    let compute = kc_mc_ell.bytes / machine.mem_bw;
    let window = compute * s.interior_frac / s.colors as f64;
    println!("  halo exchange:              {:>8.3}", comm * 1e3);
    println!("  hideable window (§3.2.3):   {:>8.3}", window * 1e3);
    println!("  exposed with overlap:       {:>8.3}", (comm - window).max(0.0) * 1e3);
    println!("  exposed without overlap:    {:>8.3}\n", comm * 1e3);

    println!("Host-side mixed vector ops (§3.1 item 6) per restart, 320^3 (modeled, ms):");
    let n = s.n;
    let host = machine.host_copy_time(4.0 * n * 8.0);
    let device = kernels::scale_narrow_split(n, sb).bytes / machine.mem_bw
        + kernels::axpy_mixed_split(n, sb).bytes / machine.mem_bw;
    println!(
        "  host round-trips: {:>8.2}   fused device kernels (§3.2.5): {:>8.3}  ({:.0}x)\n",
        host * 1e3,
        device * 1e3,
        host / device
    );

    // Measured: CGS2 vs MGS orthogonality quality and the all-reduce count.
    println!("Measured orthogonalization quality (40 basis vectors, 16^3 problem, f32):");
    let prob = single_rank_problem(16, 1, &PrecisionPolicy::f64());
    let n_loc = prob.n_local();
    let comm = SelfComm;
    let build_basis = || {
        let mut q: Basis<f32> = Basis::new(n_loc, 41);
        for j in 0..41 {
            for (i, v) in q.col_mut(j).iter_mut().enumerate() {
                *v = ((i * (j + 1)) as f32 * 0.00173).sin() + 0.8 * ((i + 1) as f32 * 0.0019).cos();
            }
        }
        let nrm = hpgmxp_sparse::blas::norm2_sq(q.col(0)).sqrt();
        hpgmxp_sparse::blas::scal(1.0 / nrm, q.col_mut(0));
        q
    };
    let mut stats = MotifStats::new();
    let mut q1 = build_basis();
    for k in 1..41 {
        cgs2(&comm, &mut stats, &mut q1, k);
    }
    let mut q2 = build_basis();
    for k in 1..41 {
        mgs(&comm, &mut stats, &mut q2, k);
    }
    println!(
        "  CGS2 (2 all-reduces/iter): max |q_i . q_j| = {:.3e}",
        orthogonality_defect(&comm, &q1, 41)
    );
    println!(
        "  MGS  (k all-reduces/iter): max |q_i . q_j| = {:.3e}",
        orthogonality_defect(&comm, &q2, 41)
    );
    println!("  -> CGS2 buys blocked reductions (2 vs k all-reduces) at comparable orthogonality,");
    println!("     the §3/§4.1 rationale for the benchmark's choice.");
}
