//! The overhead gate's behavioral half: with `HPGMXP_TRACE=off` (the
//! default), every probe in the solver, halo engine, collectives, and
//! transports must leave no observable state behind — the global span
//! ring does not grow, no counter or histogram moves, and no trace
//! file is flushed. (The *timing* half of the gate is CI's
//! bench-baseline job, which runs the criterion benches untraced
//! against the committed baseline under its existing 20% tolerance.)
//!
//! This file must stay a single-test binary: the mode override and
//! the span ring are process-global.

use hpgmxp_comm::{run_spmd, Comm, Stream, Timeline};
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
    let converged = run_spmd(2, move |c| {
        let mxp = PrecisionPolicy::f32();
        let prob = dist_problem(8, procs, c.rank(), 2, &mxp);
        let tl = Timeline::disabled();
        let opts =
            GmresOptions { max_iters: 200, variant: ImplVariant::Optimized, ..Default::default() };
        gmres_ir_solve_policy(&c, &prob, &mxp, &opts, &tl).1.converged
    });
    assert!(converged.iter().all(|c| *c));

    assert_eq!(global().recorded(), events_before, "span ring must not grow when off");
    let delta = MetricsSnapshot::capture().delta_since(&metrics_before);
    assert!(
        delta.counters.is_empty() && delta.histograms.is_empty(),
        "metrics moved while off: {delta:?}"
    );
    assert!(hpgmxp_trace::flush_global(0).is_none(), "no trace file flush when off");

    // A per-run enabled Timeline is independent of the global mode:
    // its instance ring still records (fig9 and the overlap-efficiency
    // plumbing rely on this), without leaking into the global ring.
    let tl = Timeline::enabled();
    tl.add("local only", Stream::Compute, 0.0, 1e-6);
    assert_eq!(tl.events().len(), 1);
    assert_eq!(global().recorded(), events_before);
}
