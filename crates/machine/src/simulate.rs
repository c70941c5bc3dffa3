//! The execution-time simulator: per-motif modeled seconds per GMRES /
//! GMRES-IR iteration as a function of machine, network, scale,
//! precision mode, and implementation variant.
//!
//! The simulator walks the exact operation inventory of one inner
//! iteration of the solver in `hpgmxp-core` — the V-cycle's sweeps,
//! exchanges, restrictions and prolongations per level, the Arnoldi
//! SpMV, the CGS2 passes and reductions, and the restart-amortized
//! outer work — and prices each against the device roofline
//! ([`crate::model`]) and network ([`crate::network`]) models. Overlap
//! (§3.2.3) is modeled by crediting each halo exchange with the
//! interior-compute window it can hide under; the reference variant
//! exposes its communication in full.
//!
//! **Precision resolution.** Each level's kernels are priced at three
//! independent widths (matrix-value storage, vector/accumulate, halo
//! wire), resolved per level from the [`PrecisionPolicy`] in
//! [`SimConfig::policy`]: storage per multigrid level through the split
//! kernels ([`kernels::spmv_ell_split`] / [`kernels::
//! gs_multicolor_ell_split`] / [`kernels::fused_restrict_split`]), peak
//! rates keyed by the compute kind ([`MachineModel::kernel_time_kind`]),
//! and halo volume at the wire width (the same byte shares as
//! [`Workload::policy_matrix_bytes`] / [`Workload::policy_wire_bytes`],
//! which the campaign harness reconciles against measurement). The
//! outer residual SpMV and outer vector work stay f64, exactly like
//! `gmres_ir_solve_policy`; every policy but plain double
//! ([`PrecisionPolicy::is_double`]) additionally pays the GMRES-IR
//! narrow/widen hand-off and its iteration penalty.

use crate::kernels::{self, KernelCost};
use crate::model::MachineModel;
use crate::network::NetworkModel;
use crate::workload::{LevelShape, Workload};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::motifs::{Motif, MotifStats};
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_sparse::PrecKind;
use serde::{Deserialize, Serialize};

/// What to simulate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Local box per rank.
    pub local: (u32, u32, u32),
    /// Multigrid levels.
    pub mg_levels: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// Implementation variant.
    pub variant: ImplVariant,
    /// Iteration-ratio penalty `min(1, n_d/n_ir)` applied to the final
    /// rating (ignored for the plain double policy; the paper measured
    /// 0.968 at 1 node).
    pub penalty: f64,
    /// Precision policy to model: per-level storage, compute, and wire
    /// widths of the inner solve (the modeled counterpart of
    /// `run_phase`).
    pub policy: PrecisionPolicy,
}

impl SimConfig {
    /// The paper's Frontier operating point (Table 1), optimized
    /// implementation, mixed precision, measured 1-node penalty.
    pub fn paper_mxp() -> Self {
        Self::paper_policy(PrecisionPolicy::f32(), 2305.0 / 2382.0)
    }

    /// The §5 future-work configuration: the inner solve at fp16.
    /// The penalty is the measured fp16/f32 iteration-ratio product
    /// from this repository's real fp16 runs (fp16 needs more
    /// refinement cycles than f32; see the half_precision_future
    /// example).
    pub fn paper_mxp_fp16() -> Self {
        Self::paper_policy(PrecisionPolicy::stress_f16(), 0.85)
    }

    /// Same operating point, pure double (the "double" phase).
    pub fn paper_double() -> Self {
        Self::paper_policy(PrecisionPolicy::f64(), 1.0)
    }

    /// The paper operating point under a runtime precision policy with
    /// an iteration penalty (`min(1, n_d/n_ir)`, typically the measured
    /// ratio a Hybrid campaign cell produced).
    pub fn paper_policy(policy: PrecisionPolicy, penalty: f64) -> Self {
        SimConfig {
            local: (320, 320, 320),
            mg_levels: 4,
            restart: 30,
            variant: ImplVariant::Optimized,
            penalty,
            policy,
        }
    }

    /// Is the modeled solver GMRES-IR (inner/outer hand-off work
    /// present)? True for every policy but plain double.
    fn is_ir(&self) -> bool {
        !self.policy.is_double()
    }

    /// The factor the rating is multiplied by: `min(1, penalty)`, or 1
    /// for plain double, which has no refinement to be penalized for.
    pub fn applied_penalty(&self) -> f64 {
        if self.is_ir() {
            self.penalty.min(1.0)
        } else {
            1.0
        }
    }

    /// Resolved precision widths of multigrid level `depth` of the
    /// inner solve.
    fn inner_prec(&self, depth: usize) -> LevelPrec {
        let p = &self.policy;
        LevelPrec { storage_b: p.storage_at(depth).bytes(), acc: p.compute, wire_b: p.wire.bytes() }
    }
}

/// The f64 widths of the GMRES-IR outer loop (residual SpMV, solution
/// update) — policy-independent by construction.
const OUTER: LevelPrec = LevelPrec { storage_b: 8, acc: PrecKind::F64, wire_b: 8 };

/// Per-level precision widths the kernels are priced at.
#[derive(Debug, Clone, Copy)]
struct LevelPrec {
    /// Matrix-value storage width, bytes.
    storage_b: usize,
    /// Vector/accumulate kind (keys the device peak-rate selection).
    acc: PrecKind,
    /// Halo wire width, bytes.
    wire_b: usize,
}

impl LevelPrec {
    fn acc_b(self) -> usize {
        self.acc.bytes()
    }
}

/// Simulation outcome for one scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// World size.
    pub ranks: usize,
    /// Modeled per-iteration seconds and FLOPs per motif (per rank).
    pub per_iter: MotifStats,
    /// Modeled wall time of one inner iteration.
    pub time_per_iter: f64,
    /// Unpenalized GFLOP/s per rank.
    pub gflops_per_rank_raw: f64,
    /// Penalized GFLOP/s per rank (the benchmark's reported metric).
    pub gflops_per_rank: f64,
    /// Penalized machine total, PFLOP/s.
    pub total_pflops: f64,
}

/// Seconds a kernel needs, including per-color / per-stage launches.
/// Peak rates are keyed by the accumulate kind
/// ([`MachineModel::kernel_time_kind`] for single-launch kernels).
fn kernel_secs(m: &MachineModel, stages: usize, kc: KernelCost, kind: PrecKind) -> f64 {
    if stages <= 1 {
        m.kernel_time_kind(kc.bytes, kc.flops, kind)
    } else {
        m.staged_kernel_time(stages, kc.bytes, kc.flops, kind.bytes())
    }
}

/// Cost of one halo exchange's data handling (pack + unpack kernels):
/// each touches the compute-width values and the wire-width payload.
fn pack_unpack_secs(m: &MachineModel, s: &LevelShape, acc_b: usize, wire_b: usize) -> f64 {
    if s.halo_msgs == 0 {
        return 0.0;
    }
    2.0 * (s.halo_values * (acc_b + wire_b) as f64 / m.mem_bw) + 2.0 * m.launch_overhead
}

/// Wire time of one halo exchange at a level's wire width.
fn halo_secs(net: &NetworkModel, m: &MachineModel, s: &LevelShape, lp: LevelPrec) -> f64 {
    net.halo_time(s.halo_msgs, kernels::halo_wire_bytes(s, lp.wire_b))
        + pack_unpack_secs(m, s, lp.acc_b(), lp.wire_b)
}

/// One Gauss–Seidel sweep: (seconds attributed to GS, flops).
fn gs_sweep(
    cfg: &SimConfig,
    s: &LevelShape,
    lp: LevelPrec,
    m: &MachineModel,
    net: &NetworkModel,
) -> (f64, f64) {
    let comm = halo_secs(net, m, s, lp);
    match cfg.variant {
        ImplVariant::Optimized => {
            let kc = kernels::gs_multicolor_ell_split(s, lp.storage_b, lp.acc_b(), m.gather_factor);
            let compute = kernel_secs(m, s.colors, kc, lp.acc);
            // The first color's interior rows run while messages fly.
            let window = compute * s.interior_frac / s.colors as f64;
            (compute + (comm - window).max(0.0), kc.flops)
        }
        ImplVariant::Reference => {
            // The reference code has no split kernels (§3.1): matrix
            // and vectors travel at the accumulate width.
            let kc = kernels::gs_reference_csr(s, lp.acc_b(), m.gather_factor);
            // Level-scheduled triangular solve: one dependent stage per
            // dependency level, each too small to saturate the memory
            // system, plus a launch+sync per stage (§3.1 item 1 — the
            // reference code "does not fully utilize the GPU").
            let rows_per_stage = s.n / s.sched_stages as f64;
            let eff = m.stage_bandwidth_efficiency(rows_per_stage);
            let compute = kc.bytes / (m.mem_bw * eff)
                + (s.sched_stages as f64 + 1.0) * 2.0 * m.launch_overhead;
            (compute + comm, kc.flops)
        }
    }
}

/// One fine-operator SpMV: (seconds, flops).
fn spmv(
    cfg: &SimConfig,
    s: &LevelShape,
    lp: LevelPrec,
    m: &MachineModel,
    net: &NetworkModel,
) -> (f64, f64) {
    let comm = halo_secs(net, m, s, lp);
    match cfg.variant {
        ImplVariant::Optimized => {
            let kc = kernels::spmv_ell_split(s, lp.storage_b, lp.acc_b(), m.gather_factor);
            let compute = kernel_secs(m, 2, kc, lp.acc);
            let window = compute * s.interior_frac;
            (compute + (comm - window).max(0.0), kc.flops)
        }
        ImplVariant::Reference => {
            let kc = kernels::spmv_csr(s, lp.acc_b(), m.gather_factor);
            (kernel_secs(m, 1, kc, lp.acc) + comm, kc.flops)
        }
    }
}

/// Restriction (fused or reference): (seconds, flops).
fn restrict(
    cfg: &SimConfig,
    s: &LevelShape,
    lp: LevelPrec,
    m: &MachineModel,
    net: &NetworkModel,
) -> (f64, f64) {
    let comm = halo_secs(net, m, s, lp);
    match cfg.variant {
        ImplVariant::Optimized => {
            let kc = kernels::fused_restrict_split(s, lp.storage_b, lp.acc_b(), m.gather_factor);
            let compute = kernel_secs(m, 2, kc, lp.acc);
            let window = compute * s.interior_frac;
            (compute + (comm - window).max(0.0), kc.flops)
        }
        ImplVariant::Reference => {
            let kc = kernels::reference_restrict(s, lp.acc_b(), m.gather_factor);
            (kernel_secs(m, 2, kc, lp.acc) + comm, kc.flops)
        }
    }
}

/// Simulate one configuration at one scale.
pub fn simulate(
    cfg: &SimConfig,
    machine: &MachineModel,
    net: &NetworkModel,
    ranks: usize,
) -> SimResult {
    let wl = Workload::build(cfg.local, cfg.mg_levels, cfg.restart, ranks);
    let mut acc = MotifStats::new();
    let n = wl.fine().n;
    let m = cfg.restart as f64;
    let kbar = (m + 1.0) / 2.0;
    let amortized = 1.0 / m; // per-restart work, per iteration
    let fine_lp = cfg.inner_prec(0);

    // --- Multigrid preconditioner: one apply per iteration plus the
    // restart-time apply of line 47 (amortized).
    let mg_applies = 1.0 + amortized;
    let nlev = wl.levels.len();
    for (l, shape) in wl.levels.iter().enumerate() {
        let lp = cfg.inner_prec(l);
        let coarsest = l + 1 == nlev;
        let sweeps = if coarsest { wl.pre_smooth } else { wl.pre_smooth + wl.post_smooth } as f64;
        let (gs_s, gs_f) = gs_sweep(cfg, shape, lp, machine, net);
        acc.record(Motif::GaussSeidel, gs_s * sweeps * mg_applies, gs_f * sweeps * mg_applies);
        if !coarsest {
            let (r_s, r_f) = restrict(cfg, shape, lp, machine, net);
            acc.record(Motif::Restriction, r_s * mg_applies, r_f * mg_applies);
            let pk = kernels::prolong(shape, lp.acc_b());
            acc.record(
                Motif::Prolongation,
                kernel_secs(machine, 1, pk, lp.acc) * mg_applies,
                pk.flops * mg_applies,
            );
        }
    }

    // --- Arnoldi SpMV (inner precision), once per iteration.
    let (sp_s, sp_f) = spmv(cfg, wl.fine(), fine_lp, machine, net);
    acc.record(Motif::SpMV, sp_s, sp_f);
    // Outer residual SpMV (always f64), once per restart.
    let (osp_s, osp_f) = spmv(cfg, wl.fine(), OUTER, machine, net);
    acc.record(Motif::SpMV, osp_s * amortized, osp_f * amortized);

    // --- CGS2 orthogonalization: GEMV passes plus its reductions
    // (two blocked ones and the norm), attributed to Ortho as in the
    // paper's breakdown.
    let oc = kernels::cgs2_step(n, kbar, fine_lp.acc_b());
    let ortho_compute = kernel_secs(machine, 5, oc, fine_lp.acc);
    let ortho_comm = 2.0 * net.allreduce_time(ranks, kbar * 8.0) + net.allreduce_time(ranks, 8.0);
    acc.record(Motif::Ortho, ortho_compute + ortho_comm, oc.flops);
    // Restart-amortized basis combination and small dense solves.
    let bc = kernels::basis_combine(n, m, fine_lp.acc_b());
    acc.record(
        Motif::Ortho,
        kernel_secs(machine, 1, bc, fine_lp.acc) * amortized,
        (bc.flops + hpgmxp_core::flops::hessenberg_solve(cfg.restart)) * amortized,
    );

    // --- Outer (restart-amortized) vector work, in f64.
    let wx = kernels::waxpby(n, 8);
    acc.record(
        Motif::Waxpby,
        kernel_secs(machine, 1, wx, PrecKind::F64) * amortized,
        wx.flops * amortized,
    );
    let dt = kernels::dot(n, 8);
    acc.record(
        Motif::Dot,
        (kernel_secs(machine, 1, dt, PrecKind::F64) + net.allreduce_time(ranks, 8.0)) * amortized,
        dt.flops * amortized,
    );
    if cfg.is_ir() {
        // GMRES-IR residual hand-off: narrow the f64 residual to the
        // inner width, widen the correction back into the f64 iterate.
        let lo = fine_lp.acc_b();
        let sn = kernels::scale_narrow_split(n, lo);
        let ax = kernels::axpy_mixed_split(n, lo);
        let mut secs =
            kernel_secs(machine, 1, sn, fine_lp.acc) + kernel_secs(machine, 1, ax, PrecKind::F64);
        if cfg.variant == ImplVariant::Reference {
            // §3.1 item 6: the reference code does mixed vector ops on
            // the host — four vector transits over the host link.
            secs += machine.host_copy_time(4.0 * n * 8.0);
        }
        acc.record(Motif::Waxpby, secs * amortized, (sn.flops + ax.flops) * amortized);
    } else {
        let ax = kernels::waxpby(n, 8);
        acc.record(
            Motif::Waxpby,
            kernel_secs(machine, 1, ax, PrecKind::F64) * amortized,
            ax.flops * amortized,
        );
    }

    let time_per_iter = acc.total_seconds();
    let gflops_raw = acc.total_flops() / time_per_iter / 1e9;
    let gflops = gflops_raw * cfg.applied_penalty();
    SimResult {
        ranks,
        per_iter: acc,
        time_per_iter,
        gflops_per_rank_raw: gflops_raw,
        gflops_per_rank: gflops,
        total_pflops: gflops * ranks as f64 / 1e6,
    }
}

/// Weak-scaling sweep (figure 4): the same per-rank problem at a list
/// of scales.
pub fn weak_scaling(
    cfg: &SimConfig,
    machine: &MachineModel,
    net: &NetworkModel,
    rank_counts: &[usize],
) -> Vec<SimResult> {
    rank_counts.iter().map(|&p| simulate(cfg, machine, net, p)).collect()
}

/// Per-motif penalized speedups of `base`'s policy over plain double at
/// one scale (figure 5's bars), plus the total.
pub fn motif_speedups(
    base: &SimConfig,
    machine: &MachineModel,
    net: &NetworkModel,
    ranks: usize,
) -> Vec<(String, f64)> {
    let mxp = simulate(base, machine, net, ranks);
    let dbl = simulate(
        &SimConfig { policy: PrecisionPolicy::f64(), ..base.clone() },
        machine,
        net,
        ranks,
    );
    let penalty = base.penalty.min(1.0);
    let mut out = Vec::new();
    for m in [Motif::GaussSeidel, Motif::SpMV, Motif::Ortho, Motif::Restriction] {
        let gm = mxp.per_iter.flops(m) / mxp.per_iter.seconds(m) * penalty;
        let gd = dbl.per_iter.flops(m) / dbl.per_iter.seconds(m);
        out.push((m.label().to_string(), gm / gd));
    }
    out.push(("Total".to_string(), mxp.gflops_per_rank_raw * penalty / dbl.gflops_per_rank_raw));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier() -> (MachineModel, NetworkModel) {
        (MachineModel::mi250x_gcd(), NetworkModel::frontier_slingshot())
    }

    #[test]
    fn paper_operating_point_magnitude() {
        // §4.1: 17.23 PF penalized over 75 264 GCDs → 229 GF/GCD; at
        // 1 node with 78% full-system efficiency the per-GCD number is
        // ~300 GF. The model must land in that ballpark.
        let (m, n) = frontier();
        let r8 = simulate(&SimConfig::paper_mxp(), &m, &n, 8);
        assert!(
            r8.gflops_per_rank > 150.0 && r8.gflops_per_rank < 450.0,
            "1-node mixed GF/GCD = {}",
            r8.gflops_per_rank
        );
        let d8 = simulate(&SimConfig::paper_double(), &m, &n, 8);
        assert!(
            d8.gflops_per_rank > 100.0 && d8.gflops_per_rank < 300.0,
            "1-node double GF/GCD = {}",
            d8.gflops_per_rank
        );
        assert!(r8.gflops_per_rank > d8.gflops_per_rank);
    }

    #[test]
    fn full_system_total_matches_paper_scale() {
        // The modeled full-system mixed number should be within a
        // factor ~1.5 of the paper's 17.23 PF.
        let (m, n) = frontier();
        let r = simulate(&SimConfig::paper_mxp(), &m, &n, 75_264);
        assert!(
            r.total_pflops > 10.0 && r.total_pflops < 30.0,
            "full-system = {} PF",
            r.total_pflops
        );
    }

    #[test]
    fn weak_scaling_efficiency_band() {
        // Figure 4: ~78% from 1 node to 9408 nodes.
        let (m, n) = frontier();
        let cfg = SimConfig::paper_mxp();
        let results = weak_scaling(&cfg, &m, &n, &[8, 75_264]);
        let eff = results[1].gflops_per_rank / results[0].gflops_per_rank;
        assert!(eff > 0.60 && eff < 0.92, "efficiency = {}", eff);
        // And it is monotone in between.
        let mid = simulate(&cfg, &m, &n, 8192);
        assert!(mid.gflops_per_rank <= results[0].gflops_per_rank);
        assert!(mid.gflops_per_rank >= results[1].gflops_per_rank);
    }

    #[test]
    fn mixed_speedup_in_paper_band() {
        // Figure 5: ~1.6x overall, <2x theoretical.
        let (m, n) = frontier();
        let sp = motif_speedups(&SimConfig::paper_mxp(), &m, &n, 512);
        let total = sp.iter().find(|(l, _)| l == "Total").unwrap().1;
        assert!(total > 1.35 && total < 1.95, "total speedup = {}", total);
        // Ortho enjoys the best speedup (pure value traffic).
        let ortho = sp.iter().find(|(l, _)| l == "Ortho").unwrap().1;
        let gs = sp.iter().find(|(l, _)| l == "GS").unwrap().1;
        assert!(ortho > gs, "ortho {} must beat GS {}", ortho, gs);
        assert!(ortho <= 2.05, "nothing beats the 2x bandwidth bound: {}", ortho);
    }

    #[test]
    fn reference_variant_is_much_slower() {
        // Figure 4: the xsdk (reference) curve sits several times below
        // the optimized one.
        let (m, n) = frontier();
        let opt = simulate(&SimConfig::paper_mxp(), &m, &n, 512);
        let xsdk = simulate(
            &SimConfig { variant: ImplVariant::Reference, ..SimConfig::paper_mxp() },
            &m,
            &n,
            512,
        );
        let ratio = opt.gflops_per_rank / xsdk.gflops_per_rank;
        assert!(ratio > 2.0 && ratio < 15.0, "optimized/reference = {}", ratio);
    }

    #[test]
    fn ortho_share_grows_at_scale() {
        // Figure 7: orthogonalization takes a larger share at 9408
        // nodes because of the all-reduces.
        let (m, n) = frontier();
        let cfg = SimConfig::paper_mxp();
        let small = simulate(&cfg, &m, &n, 8);
        let large = simulate(&cfg, &m, &n, 75_264);
        let share = |r: &SimResult| r.per_iter.seconds(Motif::Ortho) / r.time_per_iter;
        assert!(share(&large) > share(&small), "{} vs {}", share(&large), share(&small));
    }

    #[test]
    fn k80_also_speeds_up() {
        // Figure 6: the same shape on a K80 cluster.
        let m = MachineModel::k80_die();
        let n = NetworkModel::commodity_ib();
        let cfg = SimConfig { local: (64, 64, 64), penalty: 0.97, ..SimConfig::paper_mxp() };
        let sp = motif_speedups(&cfg, &m, &n, 8);
        let total = sp.iter().find(|(l, _)| l == "Total").unwrap().1;
        assert!(total > 1.2 && total < 2.0, "K80 total speedup = {}", total);
    }

    #[test]
    fn gs_dominates_time_breakdown() {
        // Figure 7: GS is the largest bar at small scale.
        let (m, n) = frontier();
        let r = simulate(&SimConfig::paper_mxp(), &m, &n, 8);
        let gs = r.per_iter.seconds(Motif::GaussSeidel);
        for motif in [Motif::SpMV, Motif::Restriction, Motif::Prolongation, Motif::Waxpby] {
            assert!(gs > r.per_iter.seconds(motif), "GS must dominate {:?}", motif);
        }
    }

    #[test]
    fn fp16_inner_projects_higher_speedup_than_fp32() {
        // The §5 future-work projection: quarter-width values push the
        // bandwidth-bound motifs further, but the 4-byte index arrays
        // and f64 outer work cap the gain well below 4x.
        let (m, n) = frontier();
        let r32 = simulate(&SimConfig::paper_mxp(), &m, &n, 512);
        let r16 = simulate(&SimConfig::paper_mxp_fp16(), &m, &n, 512);
        let d = simulate(&SimConfig::paper_double(), &m, &n, 512);
        let s32 = r32.gflops_per_rank_raw / d.gflops_per_rank_raw;
        let s16 = r16.gflops_per_rank_raw / d.gflops_per_rank_raw;
        assert!(s16 > s32, "fp16 raw speedup {} must beat fp32 {}", s16, s32);
        assert!(s16 < 3.0, "index traffic and f64 outer work cap fp16 at {}", s16);
    }

    #[test]
    fn double_solver_unaffected_by_penalty_field() {
        let (m, n) = frontier();
        let a = simulate(&SimConfig { penalty: 0.5, ..SimConfig::paper_double() }, &m, &n, 8);
        let b = simulate(&SimConfig::paper_double(), &m, &n, 8);
        assert_eq!(a.gflops_per_rank, b.gflops_per_rank);
    }

    #[test]
    fn policy_storage_axis_orders_modeled_time() {
        // Byte volume decides: narrower storage under the same compute
        // width is never slower, and each shipped storage halving cuts
        // the modeled iteration time.
        let (m, n) = frontier();
        let t = |name: &str| {
            let cfg = SimConfig::paper_policy(PrecisionPolicy::by_name(name).unwrap(), 1.0);
            simulate(&cfg, &m, &n, 512).time_per_iter
        };
        let (f64t, f32s, f32t, f16s) = (t("f64"), t("f32s-f64c"), t("f32"), t("f16s-f32c"));
        assert!(f32s < f64t, "fp32 storage must beat all-f64: {f32s} vs {f64t}");
        assert!(f32t < f32s, "fp32 vectors shave the remaining term: {f32t} vs {f32s}");
        assert!(f16s < f32t, "fp16 storage is the narrowest: {f16s} vs {f32t}");
        // The descent policy sits between all-f64 and all-f32 (f64 fine
        // grid dominates, compressed coarse levels claw some back).
        let desc = t("descent");
        assert!(desc < f64t && desc > f16s, "descent = {desc}");
    }

    #[test]
    fn wire_axis_only_shrinks_comm_terms() {
        // f32-w16 differs from f32 only in halo wire width: compute
        // terms identical, modeled time never larger, and the gap
        // bounded by the fine-grid exchange volume.
        let (m, n) = frontier();
        let f32t = simulate(
            &SimConfig::paper_policy(PrecisionPolicy::by_name("f32").unwrap(), 1.0),
            &m,
            &n,
            512,
        );
        let w16 = simulate(
            &SimConfig::paper_policy(PrecisionPolicy::by_name("f32-w16").unwrap(), 1.0),
            &m,
            &n,
            512,
        );
        assert!(w16.time_per_iter <= f32t.time_per_iter);
        assert_eq!(
            w16.per_iter.seconds(Motif::Ortho),
            f32t.per_iter.seconds(Motif::Ortho),
            "ortho has no halo wire term"
        );
    }

    #[test]
    fn per_policy_weak_scaling_is_monotone_non_increasing() {
        // The campaign harness's fig-4 analogue per policy: GF/GCD
        // never improves with scale (halo surface + all-reduce depth
        // only grow). Pinned here at the paper's operating point; the
        // property test in the integration suite sweeps random scales.
        let (m, n) = frontier();
        for p in PrecisionPolicy::shipped() {
            let cfg = SimConfig::paper_policy(p.clone(), 1.0);
            let mut last = f64::INFINITY;
            for nodes in [1usize, 8, 64, 512, 1024, 4096, 9408] {
                let r = simulate(&cfg, &m, &n, nodes * m.devices_per_node);
                assert!(
                    r.gflops_per_rank <= last * (1.0 + 1e-12),
                    "{}: GF/GCD rose at {} nodes: {} > {}",
                    p.name,
                    nodes,
                    r.gflops_per_rank,
                    last
                );
                last = r.gflops_per_rank;
            }
        }
    }
}
