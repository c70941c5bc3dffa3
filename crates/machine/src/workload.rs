//! The shape of one rank's work: exact row/nonzero/halo counts for the
//! "typical" (middle) rank of a decomposition, on every multigrid
//! level.
//!
//! All counts are closed-form, derived from the same geometry code the
//! real solver uses, so the model never drifts from the implementation:
//! the 27-point row counts factorize per dimension (a row at position
//! `x` has 3 in-domain x-neighbors unless it sits on the global
//! boundary), halo volumes are the subdomain surface areas, and the
//! level-scheduled stage count of a lexicographic sweep is
//! `nx + 2(ny−1) + 4(nz−1)`: the 27-point stencil's diagonal couplings
//! let dependency chains zigzag (a `+x` run can re-enter the next `y`
//! row via the `(−1,+1,0)` offset, costing 2 levels per `y` step and 4
//! per `z` step), so the critical path is much longer than the 7-point
//! stencil's `nx+ny+nz−2` anti-diagonal count. The formula is verified
//! against the real `LevelSchedule` in the integration tests.

use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_geometry::ProcGrid;
use serde::{Deserialize, Serialize};

/// Work shape of one multigrid level on the middle rank.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelShape {
    /// Local box dimensions.
    pub dims: (u32, u32, u32),
    /// Owned rows.
    pub n: f64,
    /// Stored nonzeros of the local operator.
    pub nnz: f64,
    /// ELL width (padded row length).
    pub ell_width: f64,
    /// Halo neighbor count of the middle rank (0–26).
    pub halo_msgs: usize,
    /// Values sent per halo exchange (sum over neighbors).
    pub halo_values: f64,
    /// Stages of a level-scheduled lexicographic sweep.
    pub sched_stages: usize,
    /// Colors of the multicolor sweep (8 for the 27-point stencil).
    pub colors: usize,
    /// Fraction of rows not adjacent to an inter-rank face.
    pub interior_frac: f64,
    /// Rows of the next coarser level (0 on the coarsest).
    pub n_coarse: f64,
    /// Fine-matrix nonzeros in coarse-collocated rows (fused
    /// restriction work); 0 on the coarsest level.
    pub nnz_coarse_rows: f64,
}

/// Per-dimension sum of in-domain neighbor counts over the local range.
fn dim_sum(n: u32, touches_low: bool, touches_high: bool) -> f64 {
    let mut s = 3.0 * n as f64;
    if touches_low {
        s -= 1.0;
    }
    if touches_high {
        s -= 1.0;
    }
    s
}

impl LevelShape {
    /// Build the shape of the middle rank's level with local box `dims`
    /// on processor grid `procs`.
    pub fn build(dims: (u32, u32, u32), procs: ProcGrid) -> Self {
        let (nx, ny, nz) = dims;
        let n = nx as f64 * ny as f64 * nz as f64;
        let mid = (procs.px / 2, procs.py / 2, procs.pz / 2);
        let mid_rank = procs.rank_of(mid.0, mid.1, mid.2);

        // Global-boundary contact of the middle rank, per dimension.
        let touches = |c: u32, p: u32| (c == 0, c + 1 == p);
        let (xl, xh) = touches(mid.0, procs.px);
        let (yl, yh) = touches(mid.1, procs.py);
        let (zl, zh) = touches(mid.2, procs.pz);
        let nnz = dim_sum(nx, xl, xh) * dim_sum(ny, yl, yh) * dim_sum(nz, zl, zh);

        // Halo messages and volume: probe the 26 directions.
        let mut halo_msgs = 0usize;
        let mut halo_values = 0.0f64;
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    if (dx, dy, dz) == (0, 0, 0) {
                        continue;
                    }
                    if procs.neighbor(mid_rank, dx, dy, dz).is_some() {
                        halo_msgs += 1;
                        let fx = if dx == 0 { nx as f64 } else { 1.0 };
                        let fy = if dy == 0 { ny as f64 } else { 1.0 };
                        let fz = if dz == 0 { nz as f64 } else { 1.0 };
                        halo_values += fx * fy * fz;
                    }
                }
            }
        }

        // Interior rows: per dimension, positions adjacent to an
        // inter-rank face are boundary.
        let safe = |n: u32, c: u32, p: u32| -> f64 {
            let mut s = n as f64;
            if c > 0 {
                s -= 1.0; // -side neighbor exists
            }
            if c + 1 < p {
                s -= 1.0; // +side neighbor exists
            }
            s.max(0.0)
        };
        let interior =
            safe(nx, mid.0, procs.px) * safe(ny, mid.1, procs.py) * safe(nz, mid.2, procs.pz);

        LevelShape {
            dims,
            n,
            nnz,
            ell_width: 27.0,
            halo_msgs,
            halo_values,
            sched_stages: (nx + 2 * (ny - 1) + 4 * (nz - 1)) as usize,
            colors: 8,
            interior_frac: interior / n,
            n_coarse: 0.0,
            nnz_coarse_rows: 0.0,
        }
    }
}

/// The complete per-rank workload: all levels plus solver parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    /// Multigrid levels, finest first.
    pub levels: Vec<LevelShape>,
    /// GMRES restart length.
    pub restart: usize,
    /// World size.
    pub ranks: usize,
    /// Pre-smoothing sweeps.
    pub pre_smooth: usize,
    /// Post-smoothing sweeps.
    pub post_smooth: usize,
}

impl Workload {
    /// Build the workload for `ranks` ranks of `local`-sized boxes with
    /// `mg_levels` multigrid levels and restart length `restart`.
    pub fn build(local: (u32, u32, u32), mg_levels: usize, restart: usize, ranks: usize) -> Self {
        let procs = ProcGrid::factor(ranks as u32);
        let div = 1u32 << (mg_levels - 1);
        assert!(
            local.0.is_multiple_of(div)
                && local.1.is_multiple_of(div)
                && local.2.is_multiple_of(div),
            "local dims must be divisible by 2^(levels-1)"
        );
        let mut levels = Vec::with_capacity(mg_levels);
        let mut dims = local;
        for l in 0..mg_levels {
            let mut shape = LevelShape::build(dims, procs);
            if l + 1 < mg_levels {
                let nc = (dims.0 / 2) as f64 * (dims.1 / 2) as f64 * (dims.2 / 2) as f64;
                shape.n_coarse = nc;
                // Coarse-collocated rows are a 1/8 sample of the fine
                // rows; their average nonzero count matches the level's.
                shape.nnz_coarse_rows = shape.nnz / shape.n * nc;
            }
            levels.push(shape);
            dims = (dims.0 / 2, dims.1 / 2, dims.2 / 2);
        }
        Workload { levels, restart, ranks, pre_smooth: 1, post_smooth: 1 }
    }

    /// Total owned rows per rank (all levels).
    pub fn total_rows(&self) -> f64 {
        self.levels.iter().map(|l| l.n).sum()
    }

    /// Fine-level shape.
    pub fn fine(&self) -> &LevelShape {
        &self.levels[0]
    }

    /// Modeled matrix bytes (values + 4-byte indices) of one ELL SpMV
    /// or GS pass on `level` under `policy` — the deterministic share
    /// that must reconcile *exactly* with the measured
    /// `MotifStats::bytes` matrix term of the policy's stored operator.
    pub fn policy_matrix_bytes(&self, policy: &PrecisionPolicy, level: usize) -> f64 {
        let s = &self.levels[level];
        crate::kernels::ell_matrix_bytes(s, policy.storage_at(level).bytes())
    }

    /// Modeled matrix-*value* bytes of one pass on `level` under
    /// `policy` (the share the storage axis shrinks; reconciles with
    /// the measured `MotifStats::value_bytes`).
    pub fn policy_value_bytes(&self, policy: &PrecisionPolicy, level: usize) -> f64 {
        let s = &self.levels[level];
        crate::kernels::ell_value_bytes(s, policy.storage_at(level).bytes())
    }

    /// Modeled wire bytes of one halo exchange on `level` under
    /// `policy` (middle-rank surface × wire width; reconciles with the
    /// measured `MotifStats::bytes` under the Comm motif per
    /// exchange).
    pub fn policy_wire_bytes(&self, policy: &PrecisionPolicy, level: usize) -> f64 {
        crate::kernels::halo_wire_bytes(&self.levels[level], policy.wire.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_shape_matches_assembled_matrix() {
        // The closed form must agree exactly with the real assembly.
        let wl = Workload::build((8, 8, 8), 1, 30, 1);
        let shape = wl.fine();
        assert_eq!(shape.n, 512.0);
        // (3*8-2)^3 for a box spanning the whole domain.
        assert_eq!(shape.nnz, 22.0 * 22.0 * 22.0);
        assert_eq!(shape.halo_msgs, 0);
        assert_eq!(shape.halo_values, 0.0);
        assert_eq!(shape.interior_frac, 1.0);
        // 8 + 2*7 + 4*7: the zigzag critical path of the 27-pt DAG.
        assert_eq!(shape.sched_stages, 50);
    }

    #[test]
    fn nnz_closed_form_matches_real_assembly_distributed() {
        use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
        use hpgmxp_geometry::Stencil27;
        // 27 ranks: the middle rank is fully interior.
        let procs = ProcGrid::factor(27);
        let mid = procs.rank_of(procs.px / 2, procs.py / 2, procs.pz / 2);
        let spec = ProblemSpec {
            local: (4, 4, 4),
            procs,
            stencil: Stencil27::symmetric(),
            mg_levels: 1,
            seed: 1,
        };
        let prob = assemble_with_policy(&spec, mid as usize, &PrecisionPolicy::f64());
        let wl = Workload::build((4, 4, 4), 1, 30, 27);
        assert_eq!(wl.fine().nnz, prob.levels[0].nnz() as f64);
        assert_eq!(wl.fine().halo_msgs, 26);
        assert_eq!(wl.fine().halo_values, prob.levels[0].halo.send_volume() as f64);
        let (interior, _) = prob.levels[0].halo.plan().split_rows();
        assert_eq!(wl.fine().interior_frac, interior.len() as f64 / 64.0);
    }

    #[test]
    fn interior_rank_has_27n_nonzeros() {
        // The middle rank of a large decomposition sees no global
        // boundary: every row has the full 27-point stencil.
        let wl = Workload::build((16, 16, 16), 1, 30, 27);
        assert_eq!(wl.fine().nnz, 27.0 * 4096.0);
    }

    #[test]
    fn halo_surface_formula() {
        // Fully interior rank of a 4³ box: 6 faces + 12 edges + 8 corners.
        let wl = Workload::build((4, 4, 4), 1, 30, 27);
        assert_eq!(wl.fine().halo_values, 6.0 * 16.0 + 12.0 * 4.0 + 8.0);
    }

    #[test]
    fn hierarchy_shapes() {
        let wl = Workload::build((32, 32, 32), 4, 30, 8);
        assert_eq!(wl.levels.len(), 4);
        let sizes: Vec<f64> = wl.levels.iter().map(|l| l.n).collect();
        assert_eq!(sizes, vec![32768.0, 4096.0, 512.0, 64.0]);
        // Coarse-row work is an eighth of the level's rows.
        assert_eq!(wl.levels[0].n_coarse, 4096.0);
        assert!(wl.levels[3].n_coarse == 0.0);
        // Communication surface shrinks with the level.
        assert!(wl.levels[1].halo_values < wl.levels[0].halo_values);
    }

    #[test]
    fn policy_traffic_reconciles_with_kernel_formulas() {
        use hpgmxp_core::policy::PrecisionPolicy;
        let wl = Workload::build((16, 16, 16), 2, 30, 2);
        let f64p = PrecisionPolicy::by_name("f64").unwrap();
        let split = PrecisionPolicy::by_name("f32s-f64c").unwrap();
        // fp32 storage halves exactly the value share, per level.
        for l in 0..2 {
            assert_eq!(wl.policy_value_bytes(&f64p, l), 2.0 * wl.policy_value_bytes(&split, l));
            let idx = wl.levels[l].ell_width * wl.levels[l].n * 4.0;
            assert_eq!(wl.policy_matrix_bytes(&split, l), wl.policy_value_bytes(&split, l) + idx);
        }
        // Wire bytes follow the policy's wire kind.
        let w16 = PrecisionPolicy::by_name("f32-w16").unwrap();
        assert_eq!(wl.policy_wire_bytes(&f64p, 0), 4.0 * wl.policy_wire_bytes(&w16, 0));
        // The descent policy keys storage per level.
        let descent = PrecisionPolicy::by_name("descent").unwrap();
        assert_eq!(descent.storage_at(0).bytes(), 8);
        assert_eq!(descent.storage_at(1).bytes(), 4);
    }

    #[test]
    fn paper_operating_point() {
        // 320³ per GCD, 4 levels, as on Frontier.
        let wl = Workload::build((320, 320, 320), 4, 30, 75_264);
        assert_eq!(wl.fine().n, 32_768_000.0);
        assert_eq!(wl.fine().nnz, 27.0 * 32_768_000.0);
        assert_eq!(wl.fine().halo_msgs, 26);
        assert_eq!(wl.fine().sched_stages, 320 + 2 * 319 + 4 * 319);
        // Surface-to-volume: ~1.9% of rows are boundary.
        assert!(wl.fine().interior_frac > 0.97);
    }
}
