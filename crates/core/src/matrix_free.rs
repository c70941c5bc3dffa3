//! Matrix-free application of the benchmark operator.
//!
//! The paper's conclusion notes that GMRES-IR's extra memory cost (a
//! low-precision *copy* of the matrix) disappears for applications
//! that use matrix-free GMRES (its reference 30): the fine-grid operator
//! is applied straight from the stencil, and **only the low-precision
//! matrix needs to be stored** for the multigrid preconditioner. This
//! module implements that configuration: a [`StencilOperator`] that
//! computes `y = A x` directly from the 27-point stencil geometry —
//! bit-identical to the assembled SpMV because it enumerates the
//! couplings in the same order — plus a GMRES-IR driver arrangement
//! where the f64 outer SpMV is matrix-free.
//!
//! Memory effect (quantified in `hpgmxp_machine::memory`): the f64 CSR
//! copy of a 320³ local problem is ~9.5 GB of the 64 GB HBM; dropping
//! it lets the mixed solver run *larger* local problems than stored
//! double-precision GMRES, reversing the conclusion's capacity
//! concern.

use crate::motifs::{Motif, MotifStats};
use crate::ops::OpCtx;
use crate::problem::Level;
use hpgmxp_comm::{Comm, Stream};
use hpgmxp_geometry::{LocalGrid, Stencil27, STENCIL_OFFSETS};
use hpgmxp_sparse::Scalar;
use std::time::Instant;

/// The 27-point benchmark operator, applied from geometry (no stored
/// matrix).
#[derive(Debug, Clone)]
pub struct StencilOperator {
    grid: LocalGrid,
    stencil: Stencil27,
    /// Per stencil offset: the local-index displacement when the
    /// neighbor is inside the local box (x-fastest layout).
    strides: [i64; 27],
}

impl StencilOperator {
    /// Build the operator for one rank's local grid.
    pub fn new(grid: LocalGrid, stencil: Stencil27) -> Self {
        let mut strides = [0i64; 27];
        for (k, &(dx, dy, dz)) in STENCIL_OFFSETS.iter().enumerate() {
            strides[k] = dx as i64 + grid.nx as i64 * (dy as i64 + grid.ny as i64 * dz as i64);
        }
        StencilOperator { grid, stencil, strides }
    }

    /// Owned rows.
    pub fn nrows(&self) -> usize {
        self.grid.total_points()
    }

    /// `y = A x` for the owned rows; `x` must carry current ghosts
    /// (same layout as the assembled path, so the same halo exchange
    /// applies). Couplings are accumulated in `STENCIL_OFFSETS` order —
    /// the assembly order — so results match the assembled CSR SpMV
    /// bit for bit.
    pub fn apply<S: Scalar>(&self, level: &Level, x: &[S], y: &mut [S]) {
        let g = self.grid;
        let global = g.global();
        let (nx, ny, nz) = (g.nx as i64, g.ny as i64, g.nz as i64);
        let mut row = 0usize;
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let (gx, gy, gz) = g.to_global(ix as u32, iy as u32, iz as u32);
                    let mut acc = S::ZERO;
                    for (k, &(dx, dy, dz)) in STENCIL_OFFSETS.iter().enumerate() {
                        let (ngx, ngy, ngz) =
                            (gx as i64 + dx as i64, gy as i64 + dy as i64, gz as i64 + dz as i64);
                        if !global.contains(ngx, ngy, ngz) {
                            continue;
                        }
                        let (ex, ey, ez) = (ix + dx as i64, iy + dy as i64, iz + dz as i64);
                        let xv = if ex >= 0 && ey >= 0 && ez >= 0 && ex < nx && ey < ny && ez < nz {
                            x[(row as i64 + self.strides[k]) as usize]
                        } else {
                            let gi = level
                                .halo
                                .plan()
                                .ghost_index(ex, ey, ez)
                                .expect("off-rank in-domain point has a ghost slot");
                            x[self.nrows() + gi]
                        };
                        let c = S::from_f64(self.stencil.coefficient(dx, dy, dz));
                        acc = c.mul_add(xv, acc);
                    }
                    y[row] = acc;
                    row += 1;
                }
            }
        }
    }

    /// FLOPs of one application (same count as the assembled SpMV).
    pub fn apply_flops(&self, level: &Level) -> f64 {
        crate::flops::spmv(level.nnz())
    }
}

/// Distributed matrix-free `y = A x` with halo exchange (blocking; the
/// operator walks all rows, so the split-phase overlap of the stored
/// path would need a row-order-aware walker — future work here too).
pub fn dist_spmv_matrix_free<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    op: &StencilOperator,
    level: &Level,
    stats: &mut MotifStats,
    tag: u64,
    x: &mut [S],
    y: &mut [S],
) {
    let t0 = Instant::now();
    level.halo.exchange(ctx.comm, tag, x, ctx.timeline);
    {
        let _s = ctx.timeline.span("SpMV (matrix-free)", Stream::Compute);
        op.apply(level, x, y);
    }
    stats.record(Motif::SpMV, t0.elapsed().as_secs_f64(), op.apply_flops(level));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ImplVariant;
    use crate::problem::tests::assemble_f64;
    use crate::problem::ProblemSpec;
    use hpgmxp_comm::{run_spmd, SelfComm, Timeline};
    use hpgmxp_geometry::ProcGrid;

    fn spec(procs: ProcGrid, n: u32) -> ProblemSpec {
        ProblemSpec {
            local: (n, n, n),
            procs,
            stencil: Stencil27::symmetric(),
            mg_levels: 1,
            seed: 3,
        }
    }

    #[test]
    fn matches_assembled_spmv_bitwise_serial() {
        let p = assemble_f64(&spec(ProcGrid::new(1, 1, 1), 8), 0);
        let l = &p.levels[0];
        let op = StencilOperator::new(l.grid, p.spec.stencil);
        let x: Vec<f64> = (0..l.vec_len()).map(|i| (i as f64 * 0.013).sin()).collect();
        let mut y_mf = vec![0.0f64; l.n_local()];
        op.apply(l, &x, &mut y_mf);
        let mut y_csr = vec![0.0f64; l.n_local()];
        l.csr64().spmv(&x, &mut y_csr);
        assert_eq!(y_mf, y_csr, "same coupling order => bitwise equality");
    }

    #[test]
    fn matches_assembled_spmv_distributed() {
        let procs = ProcGrid::new(2, 2, 1);
        run_spmd(4, move |c| {
            let p = assemble_f64(&spec(procs, 4), c.rank());
            let l = &p.levels[0];
            let op = StencilOperator::new(l.grid, p.spec.stencil);
            let tl = Timeline::disabled();
            let ctx = OpCtx::new(&c, ImplVariant::Optimized, &tl);
            let mut stats = MotifStats::new();
            let mut x: Vec<f64> =
                (0..l.vec_len()).map(|i| ((i + c.rank() * 7) as f64).cos()).collect();

            let mut y_mf = vec![0.0f64; l.n_local()];
            dist_spmv_matrix_free(&ctx, &op, l, &mut stats, 0, &mut x, &mut y_mf);

            let mut y_csr = vec![0.0f64; l.n_local()];
            l.csr64().spmv(&x, &mut y_csr); // ghosts already fresh
            assert_eq!(y_mf, y_csr);
        });
    }

    #[test]
    fn works_at_low_precision() {
        let f32_policy = crate::policy::PrecisionPolicy::f32();
        let p =
            crate::problem::assemble_with_policy(&spec(ProcGrid::new(1, 1, 1), 4), 0, &f32_policy);
        let l = &p.levels[0];
        let op = StencilOperator::new(l.grid, p.spec.stencil);
        let x: Vec<f32> = (0..l.vec_len()).map(|i| (i % 5) as f32).collect();
        let mut y_mf = vec![0.0f32; l.n_local()];
        op.apply(l, &x, &mut y_mf);
        let mut y_csr = vec![0.0f32; l.n_local()];
        l.csr32().spmv(&x, &mut y_csr);
        assert_eq!(y_mf, y_csr);
    }

    #[test]
    fn nonsymmetric_stencil_supported() {
        let spec = ProblemSpec {
            local: (4, 4, 4),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::nonsymmetric(0.5),
            mg_levels: 1,
            seed: 3,
        };
        let p = assemble_f64(&spec, 0);
        let l = &p.levels[0];
        let op = StencilOperator::new(l.grid, spec.stencil);
        let x: Vec<f64> = (0..l.vec_len()).map(|i| i as f64).collect();
        let mut y_mf = vec![0.0f64; l.n_local()];
        op.apply(l, &x, &mut y_mf);
        let mut y_csr = vec![0.0f64; l.n_local()];
        l.csr64().spmv(&x, &mut y_csr);
        assert_eq!(y_mf, y_csr);
    }

    #[test]
    fn flop_count_matches_assembled() {
        let p = assemble_f64(&spec(ProcGrid::new(1, 1, 1), 6), 0);
        let l = &p.levels[0];
        let op = StencilOperator::new(l.grid, p.spec.stencil);
        assert_eq!(op.apply_flops(l), crate::flops::spmv(l.nnz()));
        let _ = SelfComm; // silence unused import in some cfgs
    }
}
