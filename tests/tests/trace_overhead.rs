//! The overhead gate's behavioral half: with `HPGMXP_TRACE=off` (the
//! default), every probe in the solver, halo engine, collectives, and
//! transports must leave no observable state behind — the global span
//! ring does not grow, no counter or histogram moves, and no trace
//! file is flushed. An enabled `Timeline` keeps its overlap records
//! all the same, but records no span.
//!
//! This file must stay a single-test binary: the mode override and
//! the span ring are process-global.

use hpgmxp_comm::{run_spmd, Comm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::GmresOptions;
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::ProcGrid;
use hpgmxp_integration_tests::dist_problem;
use hpgmxp_trace::{global, MetricsSnapshot, Mode};

#[test]
fn off_mode_records_nothing() {
    hpgmxp_trace::set_mode_override(Mode::Off);
    let events_before = global().recorded();
    let metrics_before = MetricsSnapshot::capture();

    let procs = ProcGrid::new(2, 1, 1);
    let solve = move |timeline: fn() -> Timeline| {
        run_spmd(2, move |c| {
            let tl = timeline();
            let mxp = PrecisionPolicy::f32();
            let prob = dist_problem(8, procs, c.rank(), 2, &mxp);
            let opts = GmresOptions {
                max_iters: 200,
                variant: ImplVariant::Optimized,
                ..Default::default()
            };
            let converged = gmres_ir_solve_policy(&c, &prob, &mxp, &opts, &tl).1.converged;
            (converged, tl.overlap_records().len())
        })
    };
    let untraced = solve(Timeline::disabled);
    assert!(untraced.iter().all(|&(converged, records)| converged && records == 0));

    assert_eq!(global().recorded(), events_before, "span ring must not grow when off");
    let delta = MetricsSnapshot::capture().delta_since(&metrics_before);
    assert!(
        delta.counters.is_empty() && delta.histograms.is_empty(),
        "metrics moved while off: {delta:?}"
    );
    assert!(hpgmxp_trace::flush_global(0).is_none(), "no trace file flush when off");

    // A per-run enabled Timeline is independent of the global mode: it
    // keeps its overlap records (fig9 and `SolveStats.overlap_efficiency`
    // rely on this) but puts no span into the global ring.
    let traced = solve(Timeline::enabled);
    assert!(traced.iter().all(|&(converged, records)| converged && records > 0), "{traced:?}");
    assert_eq!(global().recorded(), events_before, "an enabled timeline records no span");
    assert!(global().overlaps().is_empty(), "nor any overlap record in the global ring");
}
