//! The three benchmark phases, the penalty metric, and reporting.
//!
//! HPG-MxP consists of (§3):
//!
//! 1. **validation** — double-precision GMRES is converged 9 orders of
//!    magnitude (iteration count `n_d`), then mixed-precision GMRES-IR
//!    is converged to the same tolerance (`n_ir`); the ratio
//!    `n_d / n_ir` penalizes the mixed-precision rating if below 1;
//! 2. **mixed-precision benchmark** — GMRES-IR runs a fixed number of
//!    iterations repeatedly, with per-motif time and FLOP accounting
//!    (the "mxp" results);
//! 3. **double-precision reference** — the same with pure-f64 GMRES
//!    (the "double" results).
//!
//! §3.3 adds the paper's new **fullscale** validation mode: validation
//! on *all* ranks at the full problem size, with the double solve
//! capped at 10 000 iterations and GMRES-IR required to reach whatever
//! relative residual the double solve achieved (Table 2 compares the
//! two modes).
//!
//! These functions orchestrate whole SPMD worlds (they correspond to
//! the benchmark's `main`), spawning one thread per rank.

use crate::config::{BenchmarkParams, ImplVariant};
use crate::gmres::{gmres_solve_f64, GmresOptions, SolveStats};
use crate::gmres_ir::gmres_ir_solve_policy;
use crate::motifs::{Motif, MotifStats};
use crate::policy::PrecisionPolicy;
use crate::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_comm::{run_spmd, Comm, Timeline};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which validation procedure to run (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationMode {
    /// Yamazaki et al.'s method: a small fixed rank count (1 node),
    /// both solvers converged to 1e-9.
    Standard,
    /// The paper's new mode: all ranks and the full problem size; the
    /// double solve is capped at 10 000 iterations and GMRES-IR chases
    /// the residual the double solve achieved.
    FullScale,
}

/// Outcome of the validation phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationResult {
    /// Mode used.
    pub mode: ValidationMode,
    /// Ranks that participated.
    pub ranks: usize,
    /// Double-precision GMRES iterations.
    pub nd: usize,
    /// Mixed-precision GMRES-IR iterations to the same target.
    pub nir: usize,
    /// Relative residual the double solve achieved (the IR target in
    /// fullscale mode; ≤1e-9 in standard mode).
    pub achieved_relres: f64,
    /// `n_d / n_ir`.
    pub ratio: f64,
    /// `min(1, n_d / n_ir)` — the factor applied to the mxp GFLOP/s.
    /// Not meaningful as a rating when `converged` is false (`nir` is
    /// then the iteration count at which the policy solver gave up).
    pub penalty: f64,
    /// Did the policy solver actually reach the double solve's target?
    /// Callers must report non-converged runs as *unrated* rather than
    /// quoting a GF/s number.
    pub converged: bool,
    /// Relative residual the policy solver ended at (NaN on an fp16
    /// overflow/underflow breakdown — never masked as success).
    pub ir_final_relres: f64,
}

/// Aggregated measurements of one timed phase across all ranks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseResult {
    /// "mxp" or "double".
    pub label: String,
    /// Ranks in the phase.
    pub ranks: usize,
    /// Inner iterations executed per rank (identical across ranks).
    pub iters: usize,
    /// Wall time of the slowest rank, seconds.
    pub wall_time: f64,
    /// Per-motif seconds of the slowest rank.
    pub motif_seconds: Vec<(String, f64)>,
    /// Per-motif FLOPs summed over ranks.
    pub motif_flops: Vec<(String, f64)>,
    /// Per-motif measured data bytes summed over ranks (matrix values
    /// + indices + vector passes; wire payloads under "Comm").
    pub motif_bytes: Vec<(String, f64)>,
    /// Measured matrix-*value* bytes summed over ranks — the share a
    /// precision policy's storage axis shrinks.
    pub matrix_value_bytes: f64,
    /// Raw (unpenalized) GFLOP/s: total FLOPs / wall time.
    pub gflops_raw: f64,
    /// Measured halo-overlap efficiency (fraction of communication
    /// hidden under interior compute), averaged over the ranks that
    /// recorded exchanges; `None` when no rank exchanged halos (P=1).
    pub overlap_efficiency: Option<f64>,
}

impl PhaseResult {
    fn from_rank_results(label: &str, results: Vec<(SolveStats, f64)>) -> PhaseResult {
        let ranks = results.len();
        let iters = results[0].0.iters;
        let wall_time = results.iter().map(|(_, w)| *w).fold(0.0, f64::max);
        let mut total = MotifStats::new();
        for (st, _) in &results {
            total.merge(&st.motifs);
        }
        // "Slowest rank" per motif: max seconds across ranks.
        let mut motif_seconds = Vec::new();
        for m in Motif::ALL {
            let s = results.iter().map(|(st, _)| st.motifs.seconds(m)).fold(0.0, f64::max);
            motif_seconds.push((m.label().to_string(), s));
        }
        let motif_flops: Vec<(String, f64)> =
            Motif::ALL.iter().map(|m| (m.label().to_string(), total.flops(*m))).collect();
        let motif_bytes: Vec<(String, f64)> =
            Motif::ALL.iter().map(|m| (m.label().to_string(), total.bytes(*m))).collect();
        let matrix_value_bytes: f64 = Motif::ALL.iter().map(|m| total.value_bytes(*m)).sum();
        let gflops_raw = if wall_time > 0.0 { total.total_flops() / wall_time / 1e9 } else { 0.0 };
        let effs: Vec<f64> = results.iter().filter_map(|(st, _)| st.overlap_efficiency).collect();
        let overlap_efficiency =
            if effs.is_empty() { None } else { Some(effs.iter().sum::<f64>() / effs.len() as f64) };
        PhaseResult {
            label: label.to_string(),
            ranks,
            iters,
            wall_time,
            motif_seconds,
            motif_flops,
            motif_bytes,
            matrix_value_bytes,
            gflops_raw,
            overlap_efficiency,
        }
    }

    /// Total measured data bytes per inner iteration, per rank.
    pub fn bytes_per_iteration(&self) -> f64 {
        let total: f64 = self.motif_bytes.iter().map(|(_, v)| v).sum();
        if self.iters > 0 {
            total / self.iters as f64 / self.ranks as f64
        } else {
            0.0
        }
    }

    /// FLOPs of one motif (summed over ranks).
    pub fn flops_of(&self, motif: Motif) -> f64 {
        self.motif_flops.iter().find(|(l, _)| l == motif.label()).map(|(_, v)| *v).unwrap_or(0.0)
    }

    /// Seconds of one motif (slowest rank).
    pub fn seconds_of(&self, motif: Motif) -> f64 {
        self.motif_seconds.iter().find(|(l, _)| l == motif.label()).map(|(_, v)| *v).unwrap_or(0.0)
    }
}

/// The complete benchmark outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkReport {
    /// Run parameters.
    pub params: BenchmarkParams,
    /// Implementation variant.
    pub variant: ImplVariant,
    /// Ranks of the benchmark phases.
    pub ranks: usize,
    /// Validation outcome (the penalty source).
    pub validation: ValidationResult,
    /// Mixed-precision phase.
    pub mxp: PhaseResult,
    /// Double-precision phase.
    pub double: PhaseResult,
    /// `mxp.gflops_raw × penalty` — the official metric.
    pub penalized_gflops: f64,
    /// Penalized mxp GFLOP/s over double GFLOP/s (figure 5's "total").
    pub speedup: f64,
    /// Kernel dispatch the run executed with: `"<level>/<features>"`
    /// (e.g. `"avx2/avx2+fma+f16c"`).
    pub simd: String,
}

/// The SIMD dispatch descriptor recorded in benchmark reports:
/// resolved kernel level plus detected CPU features.
pub fn simd_descriptor() -> String {
    format!("{}/{}", hpgmxp_sparse::simd::level().name(), hpgmxp_sparse::simd::features().summary())
}

impl BenchmarkReport {
    /// Per-motif penalized speedups (figure 5's bars).
    pub fn motif_speedups(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for m in [Motif::GaussSeidel, Motif::SpMV, Motif::Ortho, Motif::Restriction] {
            let t_mxp = self.mxp.seconds_of(m);
            let t_dbl = self.double.seconds_of(m);
            let f_mxp = self.mxp.flops_of(m);
            let f_dbl = self.double.flops_of(m);
            if t_mxp > 0.0 && t_dbl > 0.0 && f_mxp > 0.0 {
                let g_mxp = f_mxp / t_mxp * self.validation.penalty;
                let g_dbl = f_dbl / t_dbl;
                out.push((m.label().to_string(), g_mxp / g_dbl));
            }
        }
        out
    }

    /// Render the official-style results table.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "HPG-MxP benchmark report ({:?})", self.variant);
        let _ = writeln!(s, "  ranks: {}   local grid: {:?}", self.ranks, self.params.local_dims);
        if !self.simd.is_empty() {
            let _ = writeln!(s, "  kernels: simd {}", self.simd);
        }
        let _ = writeln!(
            s,
            "  validation [{:?}]: nd = {}, nir = {}, ratio = {:.4}, penalty = {:.4}",
            self.validation.mode,
            self.validation.nd,
            self.validation.nir,
            self.validation.ratio,
            self.validation.penalty
        );
        for phase in [&self.mxp, &self.double] {
            let _ = writeln!(
                s,
                "  [{}] iters/rank = {}, wall = {:.3}s, raw = {:.3} GF/s",
                phase.label, phase.iters, phase.wall_time, phase.gflops_raw
            );
            for (label, secs) in &phase.motif_seconds {
                if *secs > 0.0 {
                    let flops = phase.motif_flops.iter().find(|(l, _)| l == label).unwrap().1;
                    let _ = writeln!(
                        s,
                        "      {:<8} {:>9.4}s  {:>10.3} GF/s",
                        label,
                        secs,
                        flops / secs / 1e9
                    );
                }
            }
        }
        let _ = writeln!(s, "  penalized mxp: {:.3} GF/s", self.penalized_gflops);
        let _ = writeln!(s, "  speedup (mxp/double): {:.3}x", self.speedup);
        s
    }
}

/// The benchmark's solver options at a given budget and tolerance.
fn solve_options(
    params: &BenchmarkParams,
    variant: ImplVariant,
    max_iters: usize,
    tol: f64,
) -> GmresOptions {
    GmresOptions {
        restart: params.restart,
        max_iters,
        tol,
        variant,
        pre_smooth: params.pre_smooth,
        post_smooth: params.post_smooth,
        precondition: true,
        ortho: crate::gmres::OrthoMethod::Cgs2,
        track_history: false,
    }
}

/// Run the validation phase on `ranks` thread-ranks: double-precision
/// GMRES to the target (`n_d`), then GMRES-IR under `policy` chasing
/// the same residual (`n_ir`); the ratio is the policy's iteration
/// penalty. Never panics on a policy that breaks down (the
/// standalone-fp16 stress configuration may): the verdict is in
/// [`ValidationResult::converged`].
pub fn validate(
    params: &BenchmarkParams,
    variant: ImplVariant,
    ranks: usize,
    mode: ValidationMode,
    policy: &PrecisionPolicy,
) -> ValidationResult {
    let v_ranks = match mode {
        ValidationMode::Standard => params.validation_ranks.min(ranks),
        ValidationMode::FullScale => ranks,
    };
    let params = *params;
    let spec = ProblemSpec::from_params(&params, v_ranks);
    let policy = policy.clone();

    let results = run_spmd(v_ranks, move |c| {
        let tl = Timeline::disabled();
        // Double-precision solve: to 1e-9, capped at 10 000 iterations.
        let d_opts =
            solve_options(&params, variant, params.validation_max_iters, params.validation_tol);
        let st_d = {
            let prob = assemble_with_policy(&spec, c.rank(), &PrecisionPolicy::f64());
            gmres_solve_f64(&c, &prob, &d_opts, &tl).1
        };

        // IR target: in fullscale mode, whatever the double solve
        // achieved (it may have hit the iteration cap first); in
        // standard mode the fixed tolerance. GMRES-IR may legitimately
        // need more iterations than n_d (that is what the penalty
        // measures), so its budget is not capped by n_d.
        let ir_opts = GmresOptions {
            tol: match mode {
                ValidationMode::Standard => params.validation_tol,
                ValidationMode::FullScale => st_d.final_relres.max(params.validation_tol),
            },
            max_iters: params.validation_max_iters.saturating_mul(4),
            ..d_opts
        };
        let prob = assemble_with_policy(&spec, c.rank(), &policy);
        let (_, st_ir) = gmres_ir_solve_policy(&c, &prob, &policy, &ir_opts, &tl);
        (st_d.iters, st_d.final_relres, st_ir.iters, st_ir.converged, st_ir.final_relres)
    });

    let (nd, achieved_relres, nir, converged, ir_final_relres) = results[0];
    let ratio = nd as f64 / nir.max(1) as f64;
    ValidationResult {
        mode,
        ranks: v_ranks,
        nd,
        nir,
        achieved_relres,
        ratio,
        penalty: ratio.min(1.0),
        converged,
        ir_final_relres,
    }
}

/// Run one timed phase under a precision policy: `benchmark_solves`
/// solves of exactly `max_iters_per_solve` iterations each (tolerance
/// zero, as in the benchmark's fixed-iteration timing loop) on a
/// problem assembled with exactly the policy's storage precisions. The
/// phase is labelled with the policy's name and carries the measured
/// per-motif bytes, which the policy-aware machine model reconciles
/// against.
pub fn run_phase(
    params: &BenchmarkParams,
    variant: ImplVariant,
    ranks: usize,
    policy: &PrecisionPolicy,
) -> PhaseResult {
    let params = *params;
    let spec = ProblemSpec::from_params(&params, ranks);
    let policy = policy.clone();
    let label = policy.name.clone();
    let results = run_spmd(ranks, move |c| {
        let prob = assemble_with_policy(&spec, c.rank(), &policy);
        if variant == ImplVariant::Reference {
            // Build the lazy reference forms before the clock starts.
            prob.levels.iter().for_each(|l| _ = l.reference());
        }
        // Enabled so the phase carries measured overlap efficiency
        // (per-exchange records are a few words each — negligible
        // against the solve itself).
        let tl = Timeline::enabled();
        let opts = solve_options(&params, variant, params.max_iters_per_solve, 0.0);
        let t0 = Instant::now();
        let mut agg: Option<SolveStats> = None;
        for _ in 0..params.benchmark_solves.max(1) {
            let (_, st) = gmres_ir_solve_policy(&c, &prob, &policy, &opts, &tl);
            agg = Some(match agg {
                None => st,
                Some(mut a) => {
                    a.iters += st.iters;
                    a.motifs.merge(&st.motifs);
                    a
                }
            });
        }
        let mut st = agg.expect("at least one solve");
        st.overlap_efficiency = tl.overlap_efficiency();
        (st, t0.elapsed().as_secs_f64())
    });
    PhaseResult::from_rank_results(&label, results)
}

/// Run the complete benchmark: validation, mxp phase, double phase —
/// the `f32` and `f64` policies under the report's phase labels.
pub fn run_benchmark(
    params: &BenchmarkParams,
    variant: ImplVariant,
    ranks: usize,
    mode: ValidationMode,
) -> BenchmarkReport {
    let mxp_policy = PrecisionPolicy::f32().named("mxp");
    let validation = validate(params, variant, ranks, mode, &mxp_policy);
    assert!(
        validation.converged,
        "GMRES-IR failed to reach the validation target {:.3e} (stopped at {:.3e} after {} \
         iterations)",
        validation.achieved_relres, validation.ir_final_relres, validation.nir
    );
    let mxp = run_phase(params, variant, ranks, &mxp_policy);
    let double = run_phase(params, variant, ranks, &PrecisionPolicy::f64().named("double"));
    let penalized_gflops = mxp.gflops_raw * validation.penalty;
    let speedup = if double.gflops_raw > 0.0 { penalized_gflops / double.gflops_raw } else { 0.0 };
    BenchmarkReport {
        params: *params,
        variant,
        ranks,
        validation,
        mxp,
        double,
        penalized_gflops,
        speedup,
        simd: simd_descriptor(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> BenchmarkParams {
        BenchmarkParams {
            local_dims: (8, 8, 8),
            mg_levels: 2,
            max_iters_per_solve: 20,
            validation_max_iters: 400,
            benchmark_solves: 1,
            ..Default::default()
        }
    }

    #[test]
    fn standard_validation_penalty_band() {
        let v = validate(
            &tiny_params(),
            ImplVariant::Optimized,
            2,
            ValidationMode::Standard,
            &PrecisionPolicy::f32(),
        );
        assert!(v.nd > 0 && v.nir > 0);
        // Paper's band: the mixed solver needs about the same iterations
        // (Table 2 ratios 0.958–1.067; 1-node text ratio 0.968).
        assert!(
            (0.7..=1.3).contains(&v.ratio),
            "ratio {} = {}/{} far outside the paper's band",
            v.ratio,
            v.nd,
            v.nir
        );
        assert!(v.penalty <= 1.0);
        assert!((v.penalty - v.ratio.min(1.0)).abs() < 1e-15);
        assert!(v.achieved_relres <= 1e-9);
    }

    #[test]
    fn fullscale_validation_runs_all_ranks() {
        let v = validate(
            &tiny_params(),
            ImplVariant::Optimized,
            4,
            ValidationMode::FullScale,
            &PrecisionPolicy::f32(),
        );
        assert_eq!(v.ranks, 4);
        assert!(v.nd > 0 && v.nir > 0);
        assert!((0.7..=1.3).contains(&v.ratio));
    }

    #[test]
    fn fullscale_respects_iteration_cap() {
        // With a tiny cap the double solve stops early and the achieved
        // residual becomes the IR target (the paper's large-scale case).
        let params = BenchmarkParams { validation_max_iters: 5, ..tiny_params() };
        let v = validate(
            &params,
            ImplVariant::Optimized,
            2,
            ValidationMode::FullScale,
            &PrecisionPolicy::f32(),
        );
        assert!(v.nd <= 5 + params.restart, "double capped near 5, got {}", v.nd);
        assert!(v.achieved_relres > 1e-9, "must not have reached 1e-9 in 5 iterations");
    }

    #[test]
    fn phase_runs_fixed_iterations() {
        let params = tiny_params();
        let phase =
            run_phase(&params, ImplVariant::Optimized, 2, &PrecisionPolicy::f32().named("mxp"));
        assert_eq!(phase.iters, params.max_iters_per_solve);
        assert!(phase.gflops_raw > 0.0);
        assert!(phase.wall_time > 0.0);
        assert_eq!(phase.label, "mxp");
        // Two thread-ranks exchange halos, so the phase must carry a
        // measured overlap efficiency in [0, 1].
        let eff = phase.overlap_efficiency.expect("P=2 records overlaps");
        assert!((0.0..=1.0).contains(&eff), "overlap efficiency {eff}");
    }

    #[test]
    fn policy_breakdown_reports_unconverged_not_panic() {
        // The standalone-fp16 stress policy may break down; the checked
        // validation must report that honestly instead of asserting.
        let params = BenchmarkParams { validation_max_iters: 30, ..tiny_params() };
        let pv = validate(
            &params,
            ImplVariant::Optimized,
            2,
            ValidationMode::Standard,
            &PrecisionPolicy::stress_f16(),
        );
        // Either outcome is legitimate at this size; what is pinned is
        // that the verdict is explicit and the numbers are present.
        assert!(pv.nd > 0);
        assert!(pv.nir > 0);
        if !pv.converged {
            assert!(
                pv.ir_final_relres.is_nan() || pv.ir_final_relres > params.validation_tol,
                "non-convergence must not carry a converged-looking residual: {}",
                pv.ir_final_relres
            );
        }
    }

    #[test]
    fn full_benchmark_report() {
        let params = tiny_params();
        let report = run_benchmark(&params, ImplVariant::Optimized, 2, ValidationMode::Standard);
        assert!(report.penalized_gflops > 0.0);
        assert!(report.penalized_gflops <= report.mxp.gflops_raw * (1.0 + 1e-12));
        assert!(report.speedup > 0.0);
        let text = report.to_text();
        assert!(text.contains("penalized mxp"));
        assert!(text.contains("speedup"));
        // Per-motif speedups exist for the big motifs.
        let sp = report.motif_speedups();
        assert!(!sp.is_empty());
        // JSON serialization round-trips.
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchmarkReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ranks, report.ranks);
    }
}
