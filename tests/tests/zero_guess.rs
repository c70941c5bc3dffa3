//! The V-cycle's zero-guess pre-smooth changes no bit and skips four
//! halo exchanges.
//!
//! Every level's pre-smooth starts from `z = 0`, and its first forward
//! sweep reads only the slabs whose columns an earlier color has moved
//! and exchanges no halo (every ghost is still zero). This suite runs
//! `apply_mg` against the same cycle spelled out with the public full
//! kernels — zero the guess, `dist_gs_sweep`, `dist_restrict`, recurse,
//! `prolong_add`, `dist_gs_sweep` — under every shipped precision
//! policy on a 4-level 16³ global problem, and requires:
//!
//! * the correction on every rank equal bit for bit;
//! * the same Gauss–Seidel FLOPs;
//! * halo bytes smaller by exactly one exchange per level — the skipped
//!   pre-smooth exchange; on one rank there are none to skip.
//!
//! Under `hpgmxp-launch` the world size is the launched
//! mesh's, and the skipped exchanges must leave every rank's later
//! tags matched.

use hpgmxp_comm::{run_spmd, Comm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::mg::{apply_mg, MgWorkspace, SmootherKind};
use hpgmxp_core::motifs::{Motif, MotifStats};
use hpgmxp_core::ops::{dist_gs_sweep, dist_restrict, prolong_add, OpCtx, SweepDir};
use hpgmxp_core::problem::{assemble_with_policy, Level, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_sparse::{Half, PrecKind, Scalar};

/// The decompositions of the 16³ global problem at P ∈ {1, 2, 4}
/// under thread-ranks; the launched mesh's size under a
/// process-per-rank transport.
fn decompositions() -> Vec<(u32, (u32, u32, u32))> {
    let all = vec![(1, (16, 16, 16)), (2, (8, 16, 16)), (4, (8, 8, 16))];
    match hpgmxp_comm::launched_world_size() {
        Some(p) => all.into_iter().filter(|(q, _)| *q as usize == p).collect(),
        None => all,
    }
}

/// One V-cycle (one forward sweep before and after) from full sweeps:
/// what `apply_mg` computed before its pre-smooth knew the guess is
/// zero. `zs`/`rs` are per-level vectors, `rs[0]` the right-hand side.
fn full_sweep_cycle<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    levels: &[Level],
    stats: &mut MotifStats,
    zs: &mut [Vec<S>],
    rs: &mut [Vec<S>],
    tag: u64,
) {
    let (l, (z, zrest), (r, rrest)) =
        (&levels[0], zs.split_first_mut().unwrap(), rs.split_first_mut().unwrap());
    z.fill(S::ZERO);
    dist_gs_sweep(ctx, l, stats, tag, SweepDir::Forward, r, z);
    if levels.len() > 1 {
        dist_restrict(ctx, l, stats, tag, r, z, &mut rrest[0]);
        full_sweep_cycle(ctx, &levels[1..], stats, zrest, rrest, tag + 1);
        prolong_add(l, stats, &zrest[0], z);
        dist_gs_sweep(ctx, l, stats, tag, SweepDir::Forward, r, z);
    }
}

fn check_policy<S: Scalar, C: Comm>(c: &C, p: u32, levels: &[Level], policy: &PrecisionPolicy) {
    let tl = Timeline::disabled();
    let ctx = OpCtx::with_prec(c, ImplVariant::Optimized, &tl, policy.ctx());
    let n = levels[0].n_local();
    let rhs: Vec<S> = (0..n).map(|i| S::from_f64(((i * 11) % 17) as f64 * 0.125 - 1.0)).collect();

    let mut cycle = MotifStats::new();
    let mut ws = MgWorkspace::new(levels);
    let mut z = vec![S::ZERO; n];
    apply_mg(&ctx, levels, &mut cycle, &mut ws, 1, 1, SmootherKind::Forward, &rhs, &mut z);

    let mut full = MotifStats::new();
    let mut zs: Vec<Vec<S>> = levels.iter().map(|l| vec![S::ZERO; l.vec_len()]).collect();
    let mut rs: Vec<Vec<S>> = levels.iter().map(|l| vec![S::ZERO; l.n_local()]).collect();
    rs[0].copy_from_slice(&rhs);
    full_sweep_cycle(&ctx, levels, &mut full, &mut zs, &mut rs, 100);

    let what = format!("P={p} rank {} policy {}", c.rank(), policy.name);
    let bits = |z: &[S]| z.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&z), bits(&zs[0][..n]), "{what}: the corrections differ");
    let gs = Motif::GaussSeidel;
    assert_eq!(cycle.flops(gs), full.flops(gs), "{what}: nominal smoother FLOPs");
    let wire = policy.ctx().wire_bytes(S::KIND);
    let skipped: usize = levels.iter().map(|l| l.halo.send_bytes_wire(wire)).sum();
    assert_eq!(
        cycle.bytes(Motif::Comm),
        full.bytes(Motif::Comm) - skipped as f64,
        "{what}: one pre-smooth exchange per level skipped"
    );
}

#[test]
fn zero_guess_cycle_matches_full_sweep_cycle_bit_for_bit() {
    for (p, local) in decompositions() {
        let procs = ProcGrid::factor(p);
        run_spmd(p as usize, move |c| {
            let spec = ProblemSpec {
                local,
                procs,
                stencil: Stencil27::symmetric(),
                mg_levels: 4,
                seed: 7,
            };
            for policy in PrecisionPolicy::shipped() {
                let prob = assemble_with_policy(&spec, c.rank(), &policy);
                match policy.compute {
                    PrecKind::F64 => check_policy::<f64, _>(&c, p, &prob.levels, &policy),
                    PrecKind::F32 => check_policy::<f32, _>(&c, p, &prob.levels, &policy),
                    PrecKind::F16 => check_policy::<Half, _>(&c, p, &prob.levels, &policy),
                }
            }
        });
    }
}
