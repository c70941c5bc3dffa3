//! The complete benchmark pipeline (validation → mxp phase → double
//! phase → penalty → report), exercised end to end.

use hpgmxp_core::benchmark::{run_benchmark, run_phase, validate, ValidationMode};
use hpgmxp_core::config::{BenchmarkParams, ImplVariant};
use hpgmxp_core::motifs::Motif;
use hpgmxp_core::PrecisionPolicy;

fn tiny() -> BenchmarkParams {
    BenchmarkParams {
        local_dims: (8, 8, 8),
        mg_levels: 2,
        max_iters_per_solve: 15,
        validation_max_iters: 500,
        benchmark_solves: 1,
        ..Default::default()
    }
}

#[test]
fn phases_count_equal_flops_for_equal_iterations() {
    // The GFLOP/s metric is a modeled count over measured time; for the
    // same iteration count the mxp and double phases must count nearly
    // the same FLOPs (mixed adds only the narrow/widen kernels).
    let params = tiny();
    let mxp = run_phase(&params, ImplVariant::Optimized, 2, &PrecisionPolicy::f32());
    let dbl = run_phase(&params, ImplVariant::Optimized, 2, &PrecisionPolicy::f64());
    assert_eq!(mxp.iters, dbl.iters);
    let f_mxp: f64 = mxp.motif_flops.iter().map(|(_, v)| v).sum();
    let f_dbl: f64 = dbl.motif_flops.iter().map(|(_, v)| v).sum();
    let rel = (f_mxp - f_dbl).abs() / f_dbl;
    assert!(rel < 0.02, "FLOP models diverge by {:.3}%", rel * 100.0);
}

#[test]
fn penalty_only_reduces_the_metric() {
    let report = run_benchmark(&tiny(), ImplVariant::Optimized, 2, ValidationMode::Standard);
    assert!(report.validation.penalty <= 1.0);
    assert!(report.penalized_gflops <= report.mxp.gflops_raw * (1.0 + 1e-12));
    if report.validation.ratio >= 1.0 {
        assert_eq!(report.validation.penalty, 1.0);
    }
}

#[test]
fn validation_modes_agree_at_small_scale() {
    // Below the iteration cap both modes chase the same 1e-9 target, so
    // their counts must be identical (Table 2's small-node rows, where
    // std and fullscale ratios match).
    let params = tiny();
    let mxp = PrecisionPolicy::f32();
    let std = validate(&params, ImplVariant::Optimized, 2, ValidationMode::Standard, &mxp);
    let fs = validate(&params, ImplVariant::Optimized, 2, ValidationMode::FullScale, &mxp);
    assert_eq!(std.nd, fs.nd);
    assert_eq!(std.nir, fs.nir);
}

#[test]
fn fullscale_validation_uses_all_ranks_standard_is_capped() {
    let mut params = tiny();
    params.validation_ranks = 2;
    let mxp = PrecisionPolicy::f32();
    let std = validate(&params, ImplVariant::Optimized, 4, ValidationMode::Standard, &mxp);
    let fs = validate(&params, ImplVariant::Optimized, 4, ValidationMode::FullScale, &mxp);
    assert_eq!(std.ranks, 2, "standard mode validates on the configured subset");
    assert_eq!(fs.ranks, 4, "fullscale mode validates on every rank");
    // Larger global problem needs more iterations (the paper's
    // GMRES-iterations-grow-with-scale observation).
    assert!(fs.nd >= std.nd);
}

#[test]
fn reference_variant_runs_the_full_pipeline() {
    let report = run_benchmark(&tiny(), ImplVariant::Reference, 2, ValidationMode::Standard);
    assert!(report.penalized_gflops > 0.0);
    assert!(report.mxp.seconds_of(Motif::GaussSeidel) > 0.0);
    assert!(report.double.seconds_of(Motif::GaussSeidel) > 0.0);
}

#[test]
fn report_serializes_and_renders() {
    let report = run_benchmark(&tiny(), ImplVariant::Optimized, 2, ValidationMode::Standard);
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("penalized_gflops"));
    let text = report.to_text();
    for needle in ["validation", "mxp", "double", "speedup"] {
        assert!(text.contains(needle), "report text missing {}", needle);
    }
}

#[test]
fn gs_dominates_flops_in_both_phases() {
    // Figure 7's structure: the multigrid smoother is the largest FLOP
    // (and usually time) component.
    let params = tiny();
    for policy in [PrecisionPolicy::f32(), PrecisionPolicy::f64()] {
        let phase = run_phase(&params, ImplVariant::Optimized, 2, &policy);
        let gs = phase.flops_of(Motif::GaussSeidel);
        for m in [Motif::SpMV, Motif::Ortho, Motif::Restriction, Motif::Prolongation] {
            assert!(gs > phase.flops_of(m), "GS must dominate {:?}", m);
        }
    }
}
