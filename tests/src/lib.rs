//! Integration-test crate: cross-crate tests live in `tests/`.
//!
//! Shared helpers for building matched serial/distributed problem pairs.

use hpgmxp_core::problem::{assemble_with_policy, LocalProblem, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};

/// Assemble, under `policy`, rank `rank` of an `procs`-decomposed
/// problem with cubic `n`^3 local boxes and `levels` multigrid levels.
pub fn dist_problem(
    n: u32,
    procs: ProcGrid,
    rank: usize,
    levels: usize,
    policy: &PrecisionPolicy,
) -> LocalProblem {
    assemble_with_policy(
        &ProblemSpec {
            local: (n, n, n),
            procs,
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 1234,
        },
        rank,
        policy,
    )
}

/// The equivalent single-rank problem covering the same global domain
/// as `procs` ranks of `n`^3 boxes.
pub fn serial_equivalent(
    n: u32,
    procs: ProcGrid,
    levels: usize,
    policy: &PrecisionPolicy,
) -> LocalProblem {
    assemble_with_policy(
        &ProblemSpec {
            local: (n * procs.px, n * procs.py, n * procs.pz),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 1234,
        },
        0,
        policy,
    )
}
