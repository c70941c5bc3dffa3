//! Fast end-to-end smoke test: the standard validation path on a 16³
//! single-rank problem. This is the CI canary — it exercises assembly,
//! the multigrid preconditioner, double-precision GMRES, and
//! mixed-precision GMRES-IR through the public `validate` entry point
//! and must stay fast (a few seconds).

use hpgmxp_core::benchmark::{validate, ValidationMode};
use hpgmxp_core::config::{BenchmarkParams, ImplVariant};
use hpgmxp_core::PrecisionPolicy;

#[test]
fn standard_validation_converges_on_16cubed_single_rank() {
    let params =
        BenchmarkParams { local_dims: (16, 16, 16), validation_ranks: 1, ..Default::default() };
    let result = validate(
        &params,
        ImplVariant::Optimized,
        1,
        ValidationMode::Standard,
        &PrecisionPolicy::f32(),
    );

    assert_eq!(result.mode, ValidationMode::Standard);
    assert_eq!(result.ranks, 1);
    // Both solvers must actually iterate...
    assert!(result.nd > 0, "double-precision GMRES did no iterations");
    assert!(result.nir > 0, "GMRES-IR did no iterations");
    // ...and GMRES-IR must reach the validation tolerance within the cap.
    assert!(
        result.nir < params.validation_max_iters,
        "GMRES-IR hit the {}-iteration cap without converging",
        params.validation_max_iters
    );
    assert!(
        result.achieved_relres <= params.validation_tol * 10.0,
        "GMRES-IR stalled at relative residual {:.3e} (target {:.1e})",
        result.achieved_relres,
        params.validation_tol
    );
    // The penalty metric is a ratio-capped multiplier in (0, 1].
    assert!(result.penalty > 0.0 && result.penalty <= 1.0);
}
