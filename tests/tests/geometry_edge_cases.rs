//! Degenerate and anisotropic configurations: pencil/slab processor
//! grids, non-cubic local boxes, and minimum-size multigrid — the
//! shapes real application runs produce when rank counts don't factor
//! nicely.

use hpgmxp_comm::{run_spmd, Comm, Timeline};
use hpgmxp_core::gmres::{gmres_solve_f64, GmresOptions};
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::problem::{assemble_with_policy, LocalProblem, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};

fn spec(local: (u32, u32, u32), procs: ProcGrid, levels: usize) -> ProblemSpec {
    ProblemSpec { local, procs, stencil: Stencil27::symmetric(), mg_levels: levels, seed: 77 }
}

fn assemble_f64(spec: ProblemSpec, rank: usize) -> LocalProblem {
    assemble_with_policy(&spec, rank, &PrecisionPolicy::f64())
}

#[test]
fn pencil_decomposition_1x1x8() {
    // A prime-ish rank count gives pencils; every rank has at most 2
    // neighbors and the halo is a single face each way.
    let procs = ProcGrid::new(1, 1, 8);
    let results = run_spmd(8, move |c| {
        let prob = assemble_f64(spec((4, 4, 4), procs, 1), c.rank());
        let l = &prob.levels[0];
        let nbrs = l.halo.plan().neighbors.len();
        let tl = Timeline::disabled();
        let opts = GmresOptions { max_iters: 600, ..Default::default() };
        let (x, st) = gmres_solve_f64(&c, &prob, &opts, &tl);
        let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        (nbrs, st.converged, err)
    });
    for (rank, (nbrs, conv, err)) in results.iter().enumerate() {
        let expected = if rank == 0 || rank == 7 { 1 } else { 2 };
        assert_eq!(*nbrs, expected, "rank {} neighbor count", rank);
        assert!(conv);
        assert!(*err < 1e-6);
    }
}

#[test]
fn slab_decomposition_1x4x1() {
    let procs = ProcGrid::new(1, 4, 1);
    let results = run_spmd(4, move |c| {
        let mxp = PrecisionPolicy::f32();
        let prob = assemble_with_policy(&spec((4, 4, 4), procs, 2), c.rank(), &mxp);
        let tl = Timeline::disabled();
        let opts = GmresOptions { max_iters: 600, ..Default::default() };
        let (_, st) = gmres_ir_solve_policy(&c, &prob, &mxp, &opts, &tl);
        st.converged
    });
    assert!(results.into_iter().all(|c| c));
}

#[test]
fn anisotropic_local_boxes() {
    // Non-cubic boxes exercise every index-arithmetic path that cubic
    // tests can't tell apart (nx, ny, nz all different).
    for local in [(8u32, 4u32, 2u32), (2, 8, 4), (4, 2, 8)] {
        let prob = assemble_f64(spec(local, ProcGrid::new(1, 1, 1), 2), 0);
        assert_eq!(prob.n_local(), (local.0 * local.1 * local.2) as usize);
        let tl = Timeline::disabled();
        let opts = GmresOptions { max_iters: 400, tol: 1e-8, ..Default::default() };
        let (x, st) = gmres_solve_f64(&hpgmxp_comm::SelfComm, &prob, &opts, &tl);
        assert!(st.converged, "{:?} failed", local);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-5);
        }
    }
}

#[test]
fn anisotropic_distributed_boxes() {
    let procs = ProcGrid::new(2, 1, 2);
    let results = run_spmd(4, move |c| {
        let prob = assemble_f64(spec((4, 8, 2), procs, 1), c.rank());
        let tl = Timeline::disabled();
        let opts = GmresOptions { max_iters: 600, ..Default::default() };
        let (x, st) = gmres_solve_f64(&c, &prob, &opts, &tl);
        let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        (st.converged, err)
    });
    for (conv, err) in results {
        assert!(conv);
        assert!(err < 1e-6);
    }
}

#[test]
fn minimum_multigrid_box() {
    // The smallest legal 4-level box: 8^3 (coarsest level is a single
    // point per rank).
    let prob = assemble_f64(spec((8, 8, 8), ProcGrid::new(1, 1, 1), 4), 0);
    assert_eq!(prob.levels[3].n_local(), 1);
    let tl = Timeline::disabled();
    let (_, st) = gmres_solve_f64(&hpgmxp_comm::SelfComm, &prob, &GmresOptions::default(), &tl);
    assert!(st.converged);
}

#[test]
fn two_point_domain() {
    // Degenerate global domain: 2 points along each axis — every row is
    // a corner row with 8 nonzeros.
    let prob = assemble_f64(spec((2, 2, 2), ProcGrid::new(1, 1, 1), 1), 0);
    let a = &prob.levels[0].csr64();
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        assert_eq!(cols.len(), 8);
    }
    let tl = Timeline::disabled();
    let (x, st) = gmres_solve_f64(&hpgmxp_comm::SelfComm, &prob, &GmresOptions::default(), &tl);
    assert!(st.converged);
    for xi in &x {
        assert!((xi - 1.0).abs() < 1e-8);
    }
}

#[test]
fn large_rank_count_assembles_consistently() {
    // 3x3x3 ranks: includes the fully-interior middle rank with all 26
    // neighbors — the shape the performance model assumes.
    let procs = ProcGrid::new(3, 3, 3);
    let results = run_spmd(27, move |c| {
        let prob = assemble_f64(spec((2, 2, 2), procs, 1), c.rank());
        let l = &prob.levels[0];
        (c.rank(), l.halo.plan().neighbors.len(), l.nnz())
    });
    let mid = procs.rank_of(1, 1, 1) as usize;
    let (_, nbrs, nnz) = results[mid];
    assert_eq!(nbrs, 26);
    assert_eq!(nnz, 27 * 8, "interior rank rows all have full stencils");
    // Corner ranks have 7 neighbors.
    assert_eq!(results[0].1, 7);
}
