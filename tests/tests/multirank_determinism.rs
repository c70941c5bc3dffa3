//! Multi-rank GMRES-IR bit-determinism.
//!
//! The comm-v2 halo engine drains neighbors in *arrival order*
//! (`wait_any`), which varies run to run with OS scheduling. That must
//! never leak into the numerics: unpacks write disjoint ghost ranges
//! and reductions run in fixed rank order, so at a fixed decomposition
//! the entire GMRES-IR residual history must replay **bit for bit**
//! across repeated runs — at P ∈ {1, 2, 4} thread-ranks.
//!
//! Across *different* rank counts the histories agree to solver
//! tolerance but not bitwise: the Gauss–Seidel smoother reads
//! pre-sweep ghost values (standard HPCG semantics, §3.2.1), so the
//! preconditioner — like the real benchmark's — depends on the
//! decomposition. The cross-P checks below pin the tolerance-level
//! agreement and the iteration-count band instead.

use hpgmxp_comm::{run_spmd, Comm, Timeline};
use hpgmxp_core::gmres::GmresOptions;
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};

const TOL: f64 = 1e-9;

/// Solve the same 16³ *global* problem decomposed over `p` ranks and
/// return every rank's residual history as exact bit patterns, plus
/// the iteration count and convergence flag.
fn solve_history(p: u32, local: (u32, u32, u32)) -> (Vec<u64>, usize, bool) {
    let procs = ProcGrid::factor(p);
    let results = run_spmd(p as usize, move |c| {
        let mxp = PrecisionPolicy::f32();
        let prob = assemble_with_policy(
            &ProblemSpec { local, procs, stencil: Stencil27::symmetric(), mg_levels: 2, seed: 7 },
            c.rank(),
            &mxp,
        );
        let opts =
            GmresOptions { max_iters: 60, tol: TOL, track_history: true, ..Default::default() };
        let tl = Timeline::disabled();
        let (_, stats) = gmres_ir_solve_policy(&c, &prob, &mxp, &opts, &tl);
        (
            stats.history.iter().map(|h| h.to_bits()).collect::<Vec<u64>>(),
            stats.iters,
            stats.converged,
        )
    });
    // Every rank computes the same (all-reduced) residual history.
    for w in results.windows(2) {
        assert_eq!(w[0].0, w[1].0, "ranks disagree on the residual history");
    }
    let (history, iters, converged) = results.into_iter().next().unwrap();
    (history, iters, converged)
}

/// The decompositions of the 16³ global problem at P ∈ {1, 2, 4}
/// under thread-ranks; pinned to the launched mesh size under
/// `hpgmxp-launch` (the world size is fixed at launch, and the
/// CI matrix covers P ∈ {2, 4}).
fn decompositions() -> Vec<(u32, (u32, u32, u32))> {
    let all = vec![(1, (16, 16, 16)), (2, (8, 16, 16)), (4, (8, 8, 16))];
    match hpgmxp_comm::launched_world_size() {
        Some(p) => {
            let ours: Vec<_> = all.into_iter().filter(|(q, _)| *q as usize == p).collect();
            assert!(!ours.is_empty(), "no 16^3 decomposition for a {p}-rank launched mesh");
            ours
        }
        None => all,
    }
}

#[test]
fn gmres_ir_history_replays_bit_for_bit_at_each_rank_count() {
    for (p, local) in decompositions() {
        let (h1, i1, c1) = solve_history(p, local);
        let (h2, i2, c2) = solve_history(p, local);
        let (h3, i3, c3) = solve_history(p, local);
        assert!(c1 && c2 && c3, "P={p}: all runs must converge");
        assert_eq!(i1, i2);
        assert_eq!(i2, i3);
        assert_eq!(h1, h2, "P={p}: repeated runs must replay the history bit for bit");
        assert_eq!(h2, h3, "P={p}: arrival-order jitter must not reach the numerics");
        assert!(!h1.is_empty());
    }
}

#[test]
fn gmres_ir_converges_identically_well_at_every_rank_count() {
    // Cross-P: same global problem, tolerance-level agreement. The
    // preconditioner is decomposition-dependent (pre-sweep ghosts), so
    // iteration counts may differ by a small band but every
    // decomposition must reach the same 1e-9 target with the same
    // restart-history length.
    let runs: Vec<(u32, Vec<u64>, usize, bool)> = decompositions()
        .into_iter()
        .map(|(p, local)| {
            let (h, i, c) = solve_history(p, local);
            (p, h, i, c)
        })
        .collect();
    let iters: Vec<usize> = runs.iter().map(|r| r.2).collect();
    for (p, history, _, converged) in &runs {
        assert!(converged, "P={p} must converge to {TOL:e}");
        let last = f64::from_bits(*history.last().unwrap());
        assert!(last < TOL, "P={p} final relative residual {last:e}");
        assert_eq!(history.len(), runs[0].1.len(), "P={p}: same number of restart cycles as P=1");
    }
    let (min, max) = (*iters.iter().min().unwrap(), *iters.iter().max().unwrap());
    assert!(
        max - min <= 3,
        "iteration counts across decompositions must stay in a tight band, got {iters:?}"
    );
}
