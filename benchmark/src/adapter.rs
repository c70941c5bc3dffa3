//! The one file that calls into the workspace crates.
//!
//! ROADMAP item 3 collapses the seven `gmres_ir_solve*` entry points,
//! the `foo`/`foo_checked` twins and two of the three transports. When
//! it does, the benchmark needs a follow-up in this file only: nothing
//! else under `benchmark/` names a workspace type. The calls are limited
//! to `assemble_with_policy`, `gmres_ir_solve_policy`, `gmres_solve_f64`,
//! `apply_mg`, `cgs2`, `dist_spmv`, `dist_gs_sweep`, `dist_restrict`,
//! `waxpby_op`, `blas::dot`, `widen_f16_slice`/`narrow_f32_slice`,
//! `jpl_coloring`, `EllMatrix::from_csr`, `GridHierarchy::build`,
//! `HaloPlan::build`, `HaloExchange::exchange_wire`, `Comm::allreduce`,
//! `run_threads`, `ShmemWorld::connect`, `PrecisionPolicy::by_name`,
//! plus the read-only accessors their arguments and results need.
//!
//! Every function here that measures returns seconds of the library
//! call alone: buffers are built before the clock starts and results
//! are inspected after it stops.

use crate::catalog::Dims;
use hpgmxp_comm::{run_threads, ReduceOp, SelfComm, ShmemWorld, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::{gmres_solve_f64, GmresOptions, SolveStats};
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::mg::{apply_mg, MgWorkspace, SmootherKind};
use hpgmxp_core::motifs::{Motif, MotifStats};
use hpgmxp_core::ops::{dist_gs_sweep, dist_restrict, dist_spmv, waxpby_op, OpCtx, SweepDir};
use hpgmxp_core::ortho::cgs2;
use hpgmxp_core::policy::PrecCtx;
use hpgmxp_core::problem::{assemble_with_policy, LocalProblem, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{GridHierarchy, HaloPlan, LocalGrid, ProcGrid, Stencil27};
use hpgmxp_sparse::blas::{self, Basis};
use hpgmxp_sparse::half::{narrow_f32_slice, widen_f16_slice};
use hpgmxp_sparse::{jpl_coloring, CsrMatrix, EllMatrix, Half, PrecKind, Scalar};
use std::time::Instant;

pub use hpgmxp_comm::Comm;

/// Multigrid depth of every workload (Table 1 of the paper).
const MG_LEVELS: usize = 4;
/// Column CGS2 is replayed at: the middle of a 30-step restart cycle.
pub const CGS2_K: usize = 15;
/// Values in the replayed allreduce: one CGS2 pass at `CGS2_K`.
pub const ALLREDUCE_LEN: usize = 15;
/// The motifs in the order `SolveOut::motif_seconds` reports them, and
/// the labels the metric names use for them.
pub const MOTIF_NAMES: [&str; 8] =
    ["gs", "spmv", "ortho", "restrict", "prolong", "dot", "waxpby", "comm"];
const MOTIF_ORDER: [Motif; 8] = [
    Motif::GaussSeidel,
    Motif::SpMV,
    Motif::Ortho,
    Motif::Restriction,
    Motif::Prolongation,
    Motif::Dot,
    Motif::Waxpby,
    Motif::Comm,
];

/// What one rank does in a world; generic over the transport because
/// `Comm` is not object-safe.
pub trait RankBody: Sync {
    type Out: Send;
    fn run<C: Comm>(&self, comm: &C) -> Self::Out;
}

/// Run `body` on every rank of a world: `SelfComm` on the calling
/// thread for one rank, `ThreadWorld` ranks on OS threads otherwise.
pub fn run_world<B: RankBody>(ranks: usize, body: &B) -> Vec<B::Out> {
    if ranks == 1 {
        vec![body.run(&SelfComm)]
    } else {
        run_threads(ranks, |c| body.run(&c))
    }
}

/// Run `body` on `ranks` threads joined through an in-process
/// `ShmemWorld`. Writes `/dev/shm/hpgmxp-<shm_id>` (unlinked once every
/// rank has attached), so only the full human run uses it.
pub fn run_world_shmem<B: RankBody>(ranks: usize, shm_id: &str, body: &B) -> Vec<B::Out> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| s.spawn(move || body.run(&ShmemWorld::connect(rank, ranks, shm_id))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("a shmem rank panicked")).collect()
    })
}

/// Largest `v` over the ranks; doubles as the barrier that lines ranks
/// up before a timed region.
pub fn allreduce_max<C: Comm>(comm: &C, v: f64) -> f64 {
    let mut buf = [v];
    comm.allreduce(&mut buf, ReduceOp::Max);
    buf[0]
}

/// `(allreduces, collective bytes sent)` of this rank's endpoint so
/// far; `None` on transports that do not count (`SelfComm`).
pub fn coll_counts<C: Comm>(comm: &C) -> Option<(u64, u64)> {
    comm.coll_stats().map(|s| (s.allreduces, s.bytes_sent))
}

/// `"<kernel level>/<cpu features>"` the run dispatched with.
pub fn simd_descriptor() -> String {
    hpgmxp_core::benchmark::simd_descriptor()
}

/// `(events recorded, events dropped)` of the program's global span
/// ring (meaningful under `HPGMXP_TRACE=spans`).
pub fn trace_ring_counts() -> (usize, usize) {
    let ring = hpgmxp_trace::global();
    (ring.recorded(), ring.dropped())
}

/// The problem instance of one workload: local size, processor grid and
/// the seed that feeds the JPL coloring weights.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: u32,
    pub procs: (u32, u32, u32),
    pub seed: u64,
}

impl Shape {
    fn spec(&self) -> ProblemSpec {
        let (px, py, pz) = self.procs;
        ProblemSpec {
            local: (self.n, self.n, self.n),
            procs: ProcGrid::new(px, py, pz),
            stencil: Stencil27::symmetric(),
            mg_levels: MG_LEVELS,
            seed: self.seed,
        }
    }

    fn fine_grid(&self, rank: usize) -> LocalGrid {
        let spec = self.spec();
        LocalGrid::new(spec.local, spec.procs, rank as u32)
    }
}

/// A rank's assembled problem and the policy it was assembled under.
pub struct Problem {
    prob: LocalProblem,
    policy: PrecisionPolicy,
}

/// Assemble `shape` for `rank` under the shipped policy `policy_name`.
pub fn assemble(shape: &Shape, rank: usize, policy_name: &str) -> Problem {
    let policy = PrecisionPolicy::by_name(policy_name)
        .unwrap_or_else(|| panic!("no shipped precision policy named {policy_name:?}"));
    let prob = assemble_with_policy(&shape.spec(), rank, &policy);
    Problem { prob, policy }
}

impl Problem {
    fn kinds(&self, lo: bool) -> (PrecKind, PrecKind, PrecKind) {
        if lo {
            (self.policy.storage_at(0), self.policy.compute, self.policy.wire)
        } else {
            (PrecKind::F64, PrecKind::F64, PrecKind::F64)
        }
    }

    /// Fine-level sizes under the policy's mapping (`lo`) or the native
    /// double mapping; the latter needs a problem assembled under `f64`.
    pub fn fine_dims(&self, lo: bool) -> Dims {
        let fine = &self.prob.levels[0];
        let (storage, compute, _) = self.kinds(lo);
        Dims {
            rows: fine.n_local(),
            ell_width: fine.ell_at(storage).width(),
            value_bytes: storage.bytes(),
            vec_bytes: compute.bytes(),
        }
    }

    /// Bytes one fine-level halo exchange sends from this rank.
    pub fn halo_send_bytes(&self, lo: bool) -> usize {
        self.prob.levels[0].halo.send_bytes_wire(self.kinds(lo).2.bytes())
    }

    /// `(value_bytes, spmv_matrix_bytes)` the library reports for the
    /// fine ELL operator — what the byte formulas are tested against.
    #[cfg(test)]
    pub fn fine_ell_bytes(&self, lo: bool) -> (usize, usize) {
        let ell = self.prob.levels[0].ell_at(self.kinds(lo).0);
        (ell.value_bytes(), ell.spmv_matrix_bytes())
    }
}

/// When a solve stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Exactly one 30-step restart cycle, `tol = 0`: the paper's timing loop.
    FixedCycle,
    /// Relative residual 1e-9 from a zero guess.
    Tolerance,
}

pub const FIXED_ITERS: usize = 30;
pub const TOLERANCE: f64 = 1e-9;

impl Stop {
    fn options(self) -> GmresOptions {
        match self {
            Stop::FixedCycle => {
                GmresOptions { max_iters: FIXED_ITERS, tol: 0.0, ..Default::default() }
            }
            Stop::Tolerance => {
                GmresOptions { max_iters: 10_000, tol: TOLERANCE, ..Default::default() }
            }
        }
    }
}

/// What one solve did, as the public solve call reported it.
#[derive(Debug, Clone)]
pub struct SolveOut {
    /// Seconds inside the library's solve call.
    pub wall_s: f64,
    pub iters: usize,
    pub converged: bool,
    pub final_relres: f64,
    /// `max |x_i - 1|` against the exact all-ones solution.
    pub max_err: f64,
    /// Program-reported seconds per motif, in `MOTIF_NAMES` order.
    pub motif_seconds: [f64; 8],
    /// Program-reported bytes touched and FLOPs, all motifs.
    pub bytes: f64,
    pub flops: f64,
    /// Seconds `finish` spent blocked on halo messages and the hidden
    /// fraction of communication; `None` unless the solve recorded.
    pub exposed_wait_s: Option<f64>,
    pub overlap_efficiency: Option<f64>,
}

/// Time `solve` alone, under a recording or a disabled timeline, and
/// read its result afterwards.
fn run_solve(
    p: &Problem,
    stop: Stop,
    record: bool,
    solve: impl FnOnce(&GmresOptions, &Timeline) -> (Vec<f64>, SolveStats),
) -> SolveOut {
    let timeline = if record { Timeline::enabled() } else { Timeline::disabled() };
    let opts = stop.options();
    let t0 = Instant::now();
    let (x, stats) = solve(&opts, &timeline);
    let wall_s = t0.elapsed().as_secs_f64();
    let errors = x.iter().zip(&p.prob.x_exact).map(|(a, b)| (a - b).abs());
    SolveOut {
        wall_s,
        iters: stats.iters,
        converged: stats.converged,
        final_relres: stats.final_relres,
        max_err: errors.fold(0.0f64, f64::max),
        motif_seconds: MOTIF_ORDER.map(|m| stats.motifs.seconds(m)),
        bytes: stats.motifs.total_bytes(),
        flops: stats.motifs.total_flops(),
        exposed_wait_s: record
            .then(|| timeline.overlap_records().iter().map(|r| r.wire_wait).sum()),
        overlap_efficiency: stats.overlap_efficiency,
    }
}

/// One GMRES-IR solve under the problem's policy.
pub fn solve_mxp<C: Comm>(comm: &C, p: &Problem, stop: Stop, record: bool) -> SolveOut {
    run_solve(p, stop, record, |opts, tl| gmres_ir_solve_policy(comm, &p.prob, &p.policy, opts, tl))
}

/// One double-precision GMRES solve; `p` must be assembled under `f64`.
pub fn solve_double<C: Comm>(comm: &C, p: &Problem, stop: Stop, record: bool) -> SolveOut {
    run_solve(p, stop, record, |opts, tl| gmres_solve_f64(comm, &p.prob, opts, tl))
}

/// Seconds of the geometric part of assembly, replayed on the fine
/// grid: `(GridHierarchy::build, HaloPlan::build)`.
pub fn time_geometry(shape: &Shape, rank: usize) -> (f64, f64) {
    let grid = shape.fine_grid(rank);
    let t0 = Instant::now();
    let hierarchy = GridHierarchy::build(&grid, MG_LEVELS);
    let hierarchy_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&hierarchy);
    let t0 = Instant::now();
    let plan = HaloPlan::build(&grid);
    let plan_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&plan);
    (hierarchy_s, plan_s)
}

/// Seconds of the sparse part of assembly, replayed on the fine level:
/// `(jpl_coloring, EllMatrix::from_csr at the policy's storage)`.
pub fn time_sparse_setup(p: &Problem, seed: u64) -> (f64, f64) {
    let fine = &p.prob.levels[0];
    let t0 = Instant::now();
    let coloring = jpl_coloring(fine.csr64(), seed);
    let coloring_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&coloring);
    let ell_s = match p.policy.storage_at(0) {
        PrecKind::F64 => time_ell_build(fine.csr64()),
        PrecKind::F32 => time_ell_build(fine.csr32()),
        PrecKind::F16 => time_ell_build(fine.csr16()),
    };
    (coloring_s, ell_s)
}

fn time_ell_build<S: Scalar>(csr: &CsrMatrix<S>) -> f64 {
    let t0 = Instant::now();
    let ell = EllMatrix::from_csr(csr);
    let s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&ell);
    s
}

/// The layer calls the benchmark replays, one method per call. Each
/// runs the library function once on buffers built beforehand.
pub trait LayerOps<C: Comm> {
    fn spmv(&mut self, comm: &C, p: &Problem);
    fn gs_sweep(&mut self, comm: &C, p: &Problem);
    fn restrict(&mut self, comm: &C, p: &Problem);
    fn dot(&mut self);
    fn waxpby(&mut self);
    fn vcycle(&mut self, comm: &C, p: &Problem);
    /// Refill column `CGS2_K` (untimed by the caller) …
    fn cgs2_reset(&mut self);
    /// … and orthonormalize it against columns `0..CGS2_K`.
    fn cgs2(&mut self, comm: &C);
    fn halo_exchange(&mut self, comm: &C, p: &Problem);
}

struct LayerBench<S: Scalar> {
    prec: PrecCtx,
    wire_bytes: usize,
    tl: Timeline,
    stats: MotifStats,
    /// Owned + ghost entries.
    x: Vec<S>,
    z: Vec<S>,
    /// Owned entries.
    y: Vec<S>,
    r: Vec<S>,
    coarse: Vec<S>,
    mg: MgWorkspace<S>,
    basis: Basis<S>,
    col_k: Vec<S>,
}

/// Deterministic, well-scaled, non-constant fill.
fn pattern<S: Scalar>(len: usize, phase: usize) -> Vec<S> {
    (0..len).map(|i| S::from_f64(0.5 + ((i * 7 + phase * 13) % 101) as f64 / 101.0)).collect()
}

impl<S: Scalar> LayerBench<S> {
    fn new<C: Comm>(comm: &C, p: &Problem, lo: bool) -> Self {
        let levels = &p.prob.levels;
        let (n, vec_len) = (levels[0].n_local(), levels[0].vec_len());
        let prec = if lo { p.policy.ctx() } else { PrecCtx::native() };
        let mut basis = Basis::new(n, CGS2_K + 1);
        let mut stats = MotifStats::new();
        // An orthonormal block to project against: column 0 normalized
        // over the world by hand, the rest through CGS2 itself.
        basis.col_mut(0).copy_from_slice(&pattern::<S>(n, 1));
        let mut norm_sq = [blas::dot(basis.col(0), basis.col(0)).to_f64()];
        comm.allreduce(&mut norm_sq, ReduceOp::Sum);
        let inv = S::from_f64(1.0 / norm_sq[0].sqrt());
        basis.col_mut(0).iter_mut().for_each(|v| *v *= inv);
        for k in 1..=CGS2_K {
            basis.col_mut(k).copy_from_slice(&pattern::<S>(n, k + 1));
            cgs2(comm, &mut stats, &mut basis, k);
        }
        LayerBench {
            prec,
            wire_bytes: prec.wire_bytes(S::KIND),
            tl: Timeline::disabled(),
            stats,
            x: pattern(vec_len, 0),
            z: pattern(vec_len, 1),
            y: vec![S::ZERO; n],
            r: pattern(n, 2),
            coarse: vec![S::ZERO; levels[1].n_local()],
            mg: MgWorkspace::new(levels),
            basis,
            col_k: pattern(n, CGS2_K + 1),
        }
    }
}

impl<S: Scalar, C: Comm> LayerOps<C> for LayerBench<S> {
    fn spmv(&mut self, comm: &C, p: &Problem) {
        let ctx = OpCtx::with_prec(comm, ImplVariant::Optimized, &self.tl, self.prec);
        dist_spmv(&ctx, &p.prob.levels[0], &mut self.stats, 0, &mut self.x, &mut self.y);
    }

    fn gs_sweep(&mut self, comm: &C, p: &Problem) {
        let ctx = OpCtx::with_prec(comm, ImplVariant::Optimized, &self.tl, self.prec);
        let fine = &p.prob.levels[0];
        dist_gs_sweep(&ctx, fine, &mut self.stats, 0, SweepDir::Forward, &self.r, &mut self.z);
    }

    fn restrict(&mut self, comm: &C, p: &Problem) {
        let ctx = OpCtx::with_prec(comm, ImplVariant::Optimized, &self.tl, self.prec);
        let fine = &p.prob.levels[0];
        dist_restrict(&ctx, fine, &mut self.stats, 0, &self.r, &mut self.z, &mut self.coarse);
    }

    fn dot(&mut self) {
        let n = self.y.len();
        std::hint::black_box(blas::dot(&self.r, &self.x[..n]));
    }

    fn waxpby(&mut self) {
        let n = self.y.len();
        let (a, b) = (S::from_f64(1.0), S::from_f64(-1.0));
        waxpby_op(&mut self.stats, a, &self.r, b, &self.x[..n], &mut self.y);
    }

    fn vcycle(&mut self, comm: &C, p: &Problem) {
        let ctx = OpCtx::with_prec(comm, ImplVariant::Optimized, &self.tl, self.prec);
        let (levels, kind) = (&p.prob.levels[..], SmootherKind::Forward);
        apply_mg(&ctx, levels, &mut self.stats, &mut self.mg, 1, 1, kind, &self.r, &mut self.y);
    }

    fn cgs2_reset(&mut self) {
        self.basis.col_mut(CGS2_K).copy_from_slice(&self.col_k);
    }

    fn cgs2(&mut self, comm: &C) {
        std::hint::black_box(cgs2(comm, &mut self.stats, &mut self.basis, CGS2_K));
    }

    fn halo_exchange(&mut self, comm: &C, p: &Problem) {
        let halo = &p.prob.levels[0].halo;
        halo.exchange_wire(comm, 0, &mut self.x, self.wire_bytes, &self.tl);
    }
}

/// Replay buffers for `p`: under its policy's mapping at the policy's
/// compute precision (`lo`), or native double on an `f64` problem.
pub fn layer_bench<'a, C: Comm + 'a>(comm: &C, p: &Problem, lo: bool) -> Box<dyn LayerOps<C> + 'a> {
    match if lo { p.policy.compute } else { PrecKind::F64 } {
        PrecKind::F64 => Box::new(LayerBench::<f64>::new(comm, p, lo)),
        PrecKind::F32 => Box::new(LayerBench::<f32>::new(comm, p, lo)),
        PrecKind::F16 => Box::new(LayerBench::<Half>::new(comm, p, lo)),
    }
}

/// One allreduce of `ALLREDUCE_LEN` doubles.
pub fn allreduce_once<C: Comm>(comm: &C, buf: &mut [f64; ALLREDUCE_LEN]) {
    comm.allreduce(buf, ReduceOp::Sum);
}

/// The F16C converters on a buffer of `len` values.
pub struct ConvertBench {
    half: Vec<Half>,
    single: Vec<f32>,
}

impl ConvertBench {
    pub fn new(len: usize) -> Self {
        let single: Vec<f32> = pattern(len, 3);
        let mut half = vec![Half::from_f32(0.0); len];
        narrow_f32_slice(&single, &mut half);
        ConvertBench { half, single }
    }

    /// Bytes one `widen` or one `narrow` reads plus writes.
    pub fn bytes_per_call(&self) -> usize {
        self.single.len() * (2 + 4)
    }

    pub fn widen(&mut self) {
        widen_f16_slice(&self.half, &mut self.single);
    }

    pub fn narrow(&mut self) {
        narrow_f32_slice(&self.single, &mut self.half);
    }
}
