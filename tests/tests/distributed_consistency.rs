//! Cross-crate consistency: the distributed kernels (geometry halo
//! plans + comm exchange + sparse kernels) must reproduce the serial
//! results of the same global problem exactly in f64.

use hpgmxp_comm::{run_spmd, Comm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::motifs::{Motif, MotifStats};
use hpgmxp_core::ops::{dist_dot, dist_gs_sweep, dist_spmv, OpCtx, SweepDir};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{LocalGrid, ProcGrid};
use hpgmxp_integration_tests::{dist_problem, serial_equivalent};
use hpgmxp_sparse::Scalar;

/// Fill a distributed vector with a deterministic function of the
/// global coordinate, so every rank agrees on the intended content.
fn global_fill(lg: &LocalGrid, len: usize) -> Vec<f64> {
    let g = lg.global();
    let mut x = vec![0.0f64; len];
    for (i, xi) in x[..lg.total_points()].iter_mut().enumerate() {
        let (ix, iy, iz) = lg.coords(i);
        let (gx, gy, gz) = lg.to_global(ix, iy, iz);
        let gid = g.index(gx, gy, gz) as f64;
        *xi = (gid * 0.001).sin() + 0.5;
    }
    x
}

fn serial_fill(lg: &LocalGrid, len: usize) -> Vec<f64> {
    global_fill(lg, len)
}

#[test]
fn distributed_spmv_bitwise_matches_serial() {
    for procs in [ProcGrid::new(2, 1, 1), ProcGrid::new(2, 2, 1), ProcGrid::new(2, 2, 2)] {
        let n = 4u32;
        let p = procs.size() as usize;
        let serial = serial_equivalent(n, procs, 1, &PrecisionPolicy::f64());
        let sl = &serial.levels[0];
        let sx = serial_fill(&sl.grid, sl.vec_len());
        let mut sy = vec![0.0f64; sl.n_local()];
        sl.csr64().spmv(&sx, &mut sy);

        for variant in [ImplVariant::Optimized, ImplVariant::Reference] {
            let results = run_spmd(p, move |c| {
                let prob = dist_problem(n, procs, c.rank(), 1, &PrecisionPolicy::f64());
                let l = &prob.levels[0];
                let tl = Timeline::disabled();
                let ctx = OpCtx::new(&c, variant, &tl);
                let mut stats = MotifStats::new();
                let mut x = global_fill(&l.grid, l.vec_len());
                let mut y = vec![0.0f64; l.n_local()];
                dist_spmv(&ctx, l, &mut stats, 0, &mut x, &mut y);
                (c.rank(), y)
            });
            let g = sl.grid;
            for (rank, y) in results {
                let lg = LocalGrid::new((n, n, n), procs, rank as u32);
                for (i, &yi) in y.iter().enumerate() {
                    let (ix, iy, iz) = lg.coords(i);
                    let (gx, gy, gz) = lg.to_global(ix, iy, iz);
                    let (sx_, sy_, sz_) = (gx as u32, gy as u32, gz as u32);
                    let si = g.index(sx_, sy_, sz_);
                    // f64 SpMV is performed in identical entry order on
                    // both sides (stencil order), so the match is exact.
                    assert_eq!(yi, sy[si], "{:?} rank {} row {} mismatch", variant, rank, i);
                }
            }
        }
    }
}

#[test]
fn reference_gs_sweep_matches_serial_lexicographic() {
    // The reference (level-scheduled) distributed sweep equals the
    // serial lexicographic sweep *on each rank's subdomain* with ghost
    // values frozen from the exchange — verify against a manual
    // simulation of exactly that semantics.
    let procs = ProcGrid::new(2, 1, 1);
    run_spmd(2, move |c| {
        let prob = dist_problem(4, procs, c.rank(), 1, &PrecisionPolicy::f64());
        let l = &prob.levels[0];
        let tl = Timeline::disabled();
        let r: Vec<f64> = (0..l.n_local()).map(|i| (i as f64 * 0.37).cos()).collect();

        let ctx = OpCtx::new(&c, ImplVariant::Reference, &tl);
        let mut stats = MotifStats::new();
        let mut z = global_fill(&l.grid, l.vec_len());
        dist_gs_sweep(&ctx, l, &mut stats, 0, SweepDir::Forward, &r, &mut z);

        // Manual: exchange, then sequential in-place relaxation.
        let mut z2 = global_fill(&l.grid, l.vec_len());
        l.halo.exchange_wire_checked(&c, 9, &mut z2, f64::BYTES, &tl).unwrap();
        hpgmxp_sparse::gauss_seidel::gs_forward(l.csr64(), &r, &mut z2);

        for (a, b) in z.iter().zip(z2.iter()) {
            assert!((a - b).abs() < 1e-13);
        }
    });
}

#[test]
fn dot_products_are_rank_count_invariant() {
    // The same *global* vector (8×8×8 domain) dotted with itself on
    // 1, 2, 4, 8 ranks must agree to f64 reduction tolerance.
    let mut reference = None;
    for p in [1usize, 2, 4, 8] {
        let procs = ProcGrid::factor(p as u32);
        let local = (8 / procs.px, 8 / procs.py, 8 / procs.pz);
        let results = run_spmd(p, move |c| {
            let lg = LocalGrid::new(local, procs, c.rank() as u32);
            let x = global_fill(&lg, lg.total_points());
            let mut stats = MotifStats::new();
            dist_dot(&c, &mut stats, Motif::Dot, &x, &x).unwrap()
        });
        let v = results[0];
        for r in &results {
            assert_eq!(*r, v, "all ranks agree on the reduction");
        }
        match reference {
            None => reference = Some(v),
            Some(rv) => assert!((v - rv).abs() < 1e-9 * rv.abs(), "{} ranks: {} vs {}", p, v, rv),
        }
    }
}

#[test]
fn optimized_gs_is_deterministic_across_runs() {
    // The color-parallel sweep writes disjoint rows; repeated runs must
    // be bit-identical (no benign races).
    let procs = ProcGrid::new(2, 2, 1);
    let runs: Vec<Vec<Vec<f64>>> = (0..2)
        .map(|_| {
            run_spmd(4, move |c| {
                let prob = dist_problem(8, procs, c.rank(), 2, &PrecisionPolicy::f64());
                let l = &prob.levels[0];
                let tl = Timeline::disabled();
                let ctx = OpCtx::new(&c, ImplVariant::Optimized, &tl);
                let mut stats = MotifStats::new();
                let r: Vec<f64> = (0..l.n_local()).map(|i| (i % 29) as f64 * 0.1).collect();
                let mut z = vec![0.25f64; l.vec_len()];
                for tag in 0..3 {
                    dist_gs_sweep(&ctx, l, &mut stats, tag, SweepDir::Forward, &r, &mut z);
                }
                z
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}
