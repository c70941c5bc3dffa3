//! Distributed assembly of the benchmark problem and its multigrid
//! hierarchy.
//!
//! Each rank assembles its block of rows of the 27-point operator
//! (diagonal 26, off-diagonals −1; §3), with ghost columns numbered by
//! the geometric halo plan, on every level of the 4-level hierarchy.
//! A [`Level`] carries everything both implementation variants need:
//! the operator in CSR (reference) and ELL (optimized) storage at the
//! precisions its policy names, the JPL coloring, the level schedule and
//! triangular split of the reference Gauss–Seidel, and the injection
//! map to the next coarser level.
//!
//! Every ELL operator is stored **color-block ordered**: all rows of
//! color 0, then color 1, …, and within each color the interior rows
//! (no ghost column) before the boundary rows. Color `c` is then the
//! contiguous slab positions `color_ranges[c].start..end`, split at
//! `color_ranges[c].split` into the part that may run while the halo is
//! in flight and the part that must wait for it (§3.2.1, §3.2.3). The
//! rows collocated with coarse points sit on either side of that split,
//! so they too are one range per color (`restrict_ranges`) for the
//! fused restriction (§3.2.4). Only the storage is reordered: rows,
//! vectors, halo plans and injection maps keep natural numbering.

use crate::config::BenchmarkParams;
use crate::policy::PrecisionPolicy;
use hpgmxp_comm::HaloExchange;
use hpgmxp_geometry::{GridHierarchy, HaloPlan, LocalGrid, ProcGrid, Stencil27, STENCIL_OFFSETS};
use hpgmxp_sparse::csr::{CsrBuilder, CsrMatrix};
use hpgmxp_sparse::gauss_seidel::split_lower_upper;
use hpgmxp_sparse::ordering::color_block_order;
use hpgmxp_sparse::{
    jpl_coloring, ColorRange, Coloring, EllMatrix, Half, LevelSchedule, Permutation, PrecKind,
    Scalar,
};
use std::sync::Arc;

/// Global description of a benchmark problem instance.
#[derive(Debug, Clone, Copy)]
pub struct ProblemSpec {
    /// Local mesh points per rank in each dimension.
    pub local: (u32, u32, u32),
    /// Processor grid.
    pub procs: ProcGrid,
    /// Stencil coefficients (symmetric by default).
    pub stencil: Stencil27,
    /// Multigrid levels (benchmark: 4).
    pub mg_levels: usize,
    /// Seed for the JPL coloring weights.
    pub seed: u64,
}

impl ProblemSpec {
    /// Spec from benchmark parameters and a rank count.
    pub fn from_params(params: &BenchmarkParams, nranks: usize) -> Self {
        ProblemSpec {
            local: params.local_dims,
            procs: ProcGrid::factor(nranks as u32),
            stencil: Stencil27::symmetric(),
            mg_levels: params.mg_levels,
            seed: 0xC0FFEE,
        }
    }

    /// Global row count of the fine-level problem.
    pub fn global_rows(&self) -> u64 {
        self.local.0 as u64 * self.local.1 as u64 * self.local.2 as u64 * self.procs.size() as u64
    }
}

/// The reference implementation's triangular data for Gauss–Seidel.
#[derive(Debug, Clone)]
pub struct RefPath<S> {
    /// `D + L` factor.
    pub lower: CsrMatrix<S>,
    /// Strictly upper factor (with structural zero diagonal).
    pub upper: CsrMatrix<S>,
}

/// One level's operator data at one *storage* precision: both formats
/// plus the reference-path triangular factors. Under the precision
/// policy a level materializes only the sets its policy needs (storage
/// precision per level, plus `f64` on the fine level for the outer
/// residual); the split kernels widen stored values on load, so one
/// set serves every compute precision.
#[derive(Debug, Clone)]
pub struct MatrixSet<S> {
    /// CSR form (reference format).
    pub csr: CsrMatrix<S>,
    /// ELL form (optimized format).
    pub ell: EllMatrix<S>,
    /// Reference-path `(D+L, U)` factors.
    pub refpath: RefPath<S>,
}

impl<S: Scalar> MatrixSet<S> {
    fn build(csr64: &CsrMatrix<f64>, order: &Arc<Permutation>) -> Self {
        let csr: CsrMatrix<S> = csr64.convert();
        let ell = EllMatrix::from_csr_ordered(&csr, Arc::clone(order));
        let (lower, upper) = split_lower_upper(&csr);
        MatrixSet { csr, ell, refpath: RefPath { lower, upper } }
    }

    /// Resident value bytes of this set: both formats plus the
    /// triangular factors, which hold a further full copy of the values.
    fn value_bytes(&self) -> usize {
        self.ell.value_bytes()
            + self.csr.value_bytes()
            + self.refpath.lower.value_bytes()
            + self.refpath.upper.value_bytes()
    }
}

/// The per-precision matrix sets one level holds (absent = the policy
/// this problem was assembled under never touches that precision on
/// this level).
#[derive(Debug, Clone, Default)]
pub struct LevelStore {
    /// Double-precision set.
    pub m64: Option<MatrixSet<f64>>,
    /// Single-precision set.
    pub m32: Option<MatrixSet<f32>>,
    /// Half-precision set.
    pub m16: Option<MatrixSet<Half>>,
}

impl LevelStore {
    /// Which kinds are materialized.
    pub fn kinds(&self) -> Vec<PrecKind> {
        let mut out = Vec::new();
        if self.m64.is_some() {
            out.push(PrecKind::F64);
        }
        if self.m32.is_some() {
            out.push(PrecKind::F32);
        }
        if self.m16.is_some() {
            out.push(PrecKind::F16);
        }
        out
    }

    /// Resident bytes of all materialized matrix values (the capacity
    /// cost a policy pays; indices excluded — they are shared-size).
    pub fn value_bytes(&self) -> usize {
        self.m64.as_ref().map_or(0, MatrixSet::value_bytes)
            + self.m32.as_ref().map_or(0, MatrixSet::value_bytes)
            + self.m16.as_ref().map_or(0, MatrixSet::value_bytes)
    }
}

/// One multigrid level of one rank, fully assembled.
#[derive(Debug, Clone)]
pub struct Level {
    /// The level's local grid.
    pub grid: LocalGrid,
    /// Depth in the multigrid hierarchy (0 = finest); the index the
    /// precision policy's per-level storage axis keys on.
    pub depth: usize,
    /// Operator data per materialized storage precision.
    pub store: LevelStore,
    /// Stored nonzeros of the local operator (precision-independent).
    nnz_stored: usize,
    /// Fine-matrix nonzeros in coarse-collocated rows (fused
    /// restriction work; 0 on the coarsest level).
    nnz_coarse: usize,
    /// JPL multicoloring of the local graph.
    pub coloring: Coloring,
    /// Per color: its ELL slab positions, interior rows (stencil touches
    /// no ghost; safe during communication) before `split`, boundary
    /// rows (read ghost values; must wait for the halo) after it.
    pub color_ranges: Vec<ColorRange>,
    /// Per color: the positions of its rows collocated with a coarse
    /// point (empty on the coarsest level) — the rows the fused
    /// restriction evaluates, interior before `split` as above.
    pub restrict_ranges: Vec<ColorRange>,
    /// Level schedule of the lower-triangular sweep (reference GS).
    pub schedule: LevelSchedule,
    /// Halo exchange executor for this level.
    pub halo: HaloExchange,
    /// Injection map to the next coarser level (`None` on the coarsest).
    pub c2f: Option<hpgmxp_geometry::CoarseMap>,
}

impl Level {
    /// Owned rows on this level.
    pub fn n_local(&self) -> usize {
        self.grid.total_points()
    }

    /// Length distributed vectors need on this level (owned + ghosts).
    pub fn vec_len(&self) -> usize {
        self.n_local() + self.halo.num_ghosts()
    }

    /// Stored nonzeros of the local operator.
    pub fn nnz(&self) -> usize {
        self.nnz_stored
    }

    /// Fine-matrix nonzeros in the rows collocated with coarse points
    /// (the work of the fused restriction).
    pub fn nnz_coarse_rows(&self) -> usize {
        self.nnz_coarse
    }

    fn missing(&self, kind: PrecKind) -> ! {
        panic!(
            "level {} was assembled without {} matrices (materialized: {:?}); \
             assemble with a policy whose storage covers this level's kernels",
            self.depth,
            kind.name(),
            self.store.kinds()
        )
    }

    /// Double-precision matrix set (panics if not materialized).
    pub fn set64(&self) -> &MatrixSet<f64> {
        self.store.m64.as_ref().unwrap_or_else(|| self.missing(PrecKind::F64))
    }

    /// Single-precision matrix set (panics if not materialized).
    pub fn set32(&self) -> &MatrixSet<f32> {
        self.store.m32.as_ref().unwrap_or_else(|| self.missing(PrecKind::F32))
    }

    /// Half-precision matrix set (panics if not materialized).
    pub fn set16(&self) -> &MatrixSet<Half> {
        self.store.m16.as_ref().unwrap_or_else(|| self.missing(PrecKind::F16))
    }

    /// Operator, CSR double (reference format / outer residuals).
    pub fn csr64(&self) -> &CsrMatrix<f64> {
        &self.set64().csr
    }

    /// Operator, ELL double (optimized format).
    pub fn ell64(&self) -> &EllMatrix<f64> {
        &self.set64().ell
    }

    /// Operator, CSR single.
    pub fn csr32(&self) -> &CsrMatrix<f32> {
        &self.set32().csr
    }

    /// Operator, ELL single.
    pub fn ell32(&self) -> &EllMatrix<f32> {
        &self.set32().ell
    }

    /// Operator, CSR half.
    pub fn csr16(&self) -> &CsrMatrix<Half> {
        &self.set16().csr
    }

    /// Operator, ELL half.
    pub fn ell16(&self) -> &EllMatrix<Half> {
        &self.set16().ell
    }
}

/// A rank's fully assembled benchmark problem.
#[derive(Debug, Clone)]
pub struct LocalProblem {
    /// The global problem description.
    pub spec: ProblemSpec,
    /// Levels, finest first.
    pub levels: Vec<Level>,
    /// Fine-level right-hand side (owned entries only), `b = A·1`.
    pub b: Vec<f64>,
    /// The exact solution (all ones), for error checks.
    pub x_exact: Vec<f64>,
}

impl LocalProblem {
    /// Fine-level local row count.
    pub fn n_local(&self) -> usize {
        self.levels[0].n_local()
    }

    /// Fine-level vector length including ghosts.
    pub fn vec_len(&self) -> usize {
        self.levels[0].vec_len()
    }
}

/// Assemble one level's local operator on `grid` with ghost columns
/// numbered by `plan`.
fn assemble_matrix(grid: &LocalGrid, plan: &HaloPlan, stencil: &Stencil27) -> CsrMatrix<f64> {
    let n = grid.total_points();
    let global = grid.global();
    let mut b = CsrBuilder::new(n, n + plan.num_ghosts, n * 27);
    let mut entries: Vec<(u32, f64)> = Vec::with_capacity(27);
    for iz in 0..grid.nz {
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                entries.clear();
                let (gx, gy, gz) = grid.to_global(ix, iy, iz);
                for &(dx, dy, dz) in STENCIL_OFFSETS.iter() {
                    let (ngx, ngy, ngz) =
                        (gx as i64 + dx as i64, gy as i64 + dy as i64, gz as i64 + dz as i64);
                    if !global.contains(ngx, ngy, ngz) {
                        continue;
                    }
                    let (ex, ey, ez) =
                        (ix as i64 + dx as i64, iy as i64 + dy as i64, iz as i64 + dz as i64);
                    let col = if ex >= 0
                        && ey >= 0
                        && ez >= 0
                        && ex < grid.nx as i64
                        && ey < grid.ny as i64
                        && ez < grid.nz as i64
                    {
                        grid.index(ex as u32, ey as u32, ez as u32) as u32
                    } else {
                        let g = plan
                            .ghost_index(ex, ey, ez)
                            .expect("in-domain off-rank point must have a ghost slot");
                        (n + g) as u32
                    };
                    entries.push((col, stencil.coefficient(dx, dy, dz)));
                }
                b.push_row(entries.iter().copied());
            }
        }
    }
    b.finish()
}

/// Assemble the local problem of `rank` with exactly what `policy`
/// needs: per level, the policy's storage precision for that depth,
/// plus `f64` on the fine level (the GMRES-IR outer residual is always
/// double — that invariant is what recovers 1e-9 under every policy).
/// Halo staging is sized from the widest wire format each level's
/// exchanges use: f64 on the fine level (the outer residual exchanges
/// at native f64 wire), the policy wire / compute width on the coarser,
/// inner-solve-only levels.
pub fn assemble_with_policy(
    spec: &ProblemSpec,
    rank: usize,
    policy: &PrecisionPolicy,
) -> LocalProblem {
    let fine_grid = LocalGrid::new(spec.local, spec.procs, rank as u32);
    let hierarchy = GridHierarchy::build(&fine_grid, spec.mg_levels);
    let mut levels = Vec::with_capacity(spec.mg_levels);

    for (l, grid) in hierarchy.grids.iter().enumerate() {
        let plan = HaloPlan::build(grid);
        let csr64 = assemble_matrix(grid, &plan, &spec.stencil);
        let coloring = jpl_coloring(&csr64, spec.seed.wrapping_add(l as u64));
        debug_assert!(coloring.verify(&csr64));
        let schedule = LevelSchedule::build(&csr64);
        let c2f = if l + 1 < spec.mg_levels { Some(hierarchy.maps[l].clone()) } else { None };
        let mut collocated = vec![false; grid.total_points()];
        for &f in c2f.iter().flat_map(|map| &map.c2f) {
            collocated[f as usize] = true;
        }
        // Within each color: interior rows, then the interior rows the
        // fused restriction evaluates, then the boundary ones it
        // evaluates, then the remaining boundary rows — so a color, its
        // interior/boundary split and its collocated rows are all
        // contiguous position ranges.
        let (order, bounds) = color_block_order(&coloring.color_of, 4, |i| {
            let (ix, iy, iz) = grid.coords(i);
            match (plan.is_boundary_row(ix, iy, iz), collocated[i]) {
                (false, false) => 0,
                (false, true) => 1,
                (true, true) => 2,
                (true, false) => 3,
            }
        });
        // One order per level, shared by every stored precision.
        let order = Arc::new(order);
        let b = |c: usize, k: usize| bounds[4 * c + k];
        let ncolors = coloring.num_colors as usize;
        let color_ranges: Vec<ColorRange> = (0..ncolors)
            .map(|c| ColorRange { start: b(c, 0), split: b(c, 2), end: b(c, 4) })
            .collect();
        let restrict_ranges: Vec<ColorRange> = match c2f {
            Some(_) => (0..ncolors)
                .map(|c| ColorRange { start: b(c, 1), split: b(c, 2), end: b(c, 3) })
                .collect(),
            None => Vec::new(),
        };
        // Fused-restriction work count (precision-independent).
        let nnz_coarse: usize =
            c2f.iter().flat_map(|map| &map.c2f).map(|&f| csr64.row(f as usize).0.len()).sum();

        // Materialize exactly the storage precisions this level needs.
        let mut store = LevelStore::default();
        match policy.storage_at(l) {
            PrecKind::F64 => store.m64 = Some(MatrixSet::build(&csr64, &order)),
            PrecKind::F32 => store.m32 = Some(MatrixSet::build(&csr64, &order)),
            PrecKind::F16 => store.m16 = Some(MatrixSet::build(&csr64, &order)),
        }
        if l == 0 && store.m64.is_none() {
            store.m64 = Some(MatrixSet::build(&csr64, &order));
        }
        let staging = if l == 0 { 8 } else { policy.wire.bytes().max(policy.compute.bytes()) };

        levels.push(Level {
            grid: *grid,
            depth: l,
            nnz_stored: csr64.nnz(),
            nnz_coarse,
            store,
            coloring,
            color_ranges,
            restrict_ranges,
            schedule,
            halo: HaloExchange::new_sized(plan, staging),
            c2f,
        });
    }

    // b = A·1 — with the exact solution all-ones, ghost values are also
    // ones, so no exchange is needed to form the right-hand side. The
    // fine level always carries f64 (materialized above).
    let fine = &levels[0];
    let ones = vec![1.0f64; fine.vec_len()];
    let mut b = vec![0.0f64; fine.n_local()];
    fine.csr64().spmv(&ones, &mut b);
    let x_exact = vec![1.0f64; fine.n_local()];

    LocalProblem { spec: *spec, levels, b, x_exact }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The all-double problem most of this crate's unit tests run on.
    pub(crate) fn assemble_f64(spec: &ProblemSpec, rank: usize) -> LocalProblem {
        assemble_with_policy(spec, rank, &PrecisionPolicy::f64())
    }

    fn spec_1rank(n: u32, levels: usize) -> ProblemSpec {
        ProblemSpec {
            local: (n, n, n),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 1,
        }
    }

    #[test]
    fn single_rank_interior_row_has_27_entries() {
        let p = assemble_f64(&spec_1rank(8, 1), 0);
        let a = &p.levels[0].csr64();
        // Center point of the 8³ box is interior.
        let lg = p.levels[0].grid;
        let center = lg.index(4, 4, 4);
        let (cols, vals) = a.row(center);
        assert_eq!(cols.len(), 27);
        assert_eq!(a.diag(center), 26.0);
        let sum: f64 = vals.iter().sum();
        // Interior row sums to 26 - 26 = 0 (weak diagonal dominance).
        assert!(sum.abs() < 1e-12);
    }

    #[test]
    fn corner_row_has_8_entries() {
        let p = assemble_f64(&spec_1rank(8, 1), 0);
        let a = &p.levels[0].csr64();
        let (cols, _) = a.row(0);
        assert_eq!(cols.len(), 8);
        assert_eq!(a.diag(0), 26.0);
    }

    #[test]
    fn rhs_is_row_sums() {
        let p = assemble_f64(&spec_1rank(4, 1), 0);
        let a = &p.levels[0].csr64();
        for i in 0..a.nrows() {
            let (_, vals) = a.row(i);
            let sum: f64 = vals.iter().sum();
            assert!((p.b[i] - sum).abs() < 1e-12);
        }
        // Corner rows: 26 - 7 = 19.
        assert!((p.b[0] - 19.0).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_has_expected_sizes() {
        let p = assemble_f64(&spec_1rank(16, 4), 0);
        let sizes: Vec<usize> = p.levels.iter().map(|l| l.n_local()).collect();
        assert_eq!(sizes, vec![4096, 512, 64, 8]);
        assert!(p.levels[0].c2f.is_some());
        assert!(p.levels[3].c2f.is_none());
    }

    #[test]
    fn coloring_is_valid_with_8_colors_on_27pt() {
        let p = assemble_f64(&spec_1rank(8, 1), 0);
        let l = &p.levels[0];
        assert!(l.coloring.verify(l.csr64()));
        // The 27-point stencil needs at least 8 colors (2×2×2 parity).
        // JPL with random weights typically lands between 8 and ~2x the
        // chromatic number on this dense stencil graph.
        assert!(
            l.coloring.num_colors >= 8 && l.coloring.num_colors <= 20,
            "got {}",
            l.coloring.num_colors
        );
        // Greedy in lexicographic order achieves the optimum, 8.
        let greedy = hpgmxp_sparse::greedy_coloring(l.csr64());
        assert_eq!(greedy.num_colors, 8);
    }

    #[test]
    fn distributed_assembly_has_ghosts() {
        let spec = ProblemSpec {
            local: (4, 4, 4),
            procs: ProcGrid::new(2, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: 1,
            seed: 1,
        };
        let p0 = assemble_f64(&spec, 0);
        let l = &p0.levels[0];
        assert_eq!(l.halo.num_ghosts(), 16);
        assert_eq!(l.csr64().ncols(), 64 + 16);
        // A boundary row on the +x face must reference a ghost column.
        let row = l.grid.index(3, 1, 1);
        let (cols, _) = l.csr64().row(row);
        assert!(cols.iter().any(|&c| c as usize >= 64));
        // ...and is stored in its color's boundary part.
        let color = &l.color_ranges[l.coloring.color_of[row] as usize];
        assert!(color.boundary().contains(&l.ell64().order().new_of_old(row)));
    }

    /// On every level, at every materialized precision, each color's
    /// rows occupy exactly one contiguous range of ELL positions,
    /// interior rows before `split` and boundary rows after it, and its
    /// rows collocated with a coarse point one sub-range straddling
    /// `split`.
    #[test]
    fn color_split_partitions_each_class() {
        let spec = ProblemSpec {
            local: (8, 8, 8),
            procs: ProcGrid::new(2, 2, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: 3,
            seed: 3,
        };
        let f16s = PrecisionPolicy::by_name("f16s-f32c").expect("shipped policy");
        for policy in [PrecisionPolicy::f64(), PrecisionPolicy::f32(), f16s] {
            let p = assemble_with_policy(&spec, 3, &policy);
            for l in &p.levels {
                let ranges = &l.color_ranges;
                assert_eq!(ranges.len(), l.coloring.num_colors as usize);
                let collocated: Vec<u32> = l.c2f.iter().flat_map(|m| m.c2f.clone()).collect();
                assert_eq!(l.restrict_ranges.len(), if l.c2f.is_some() { ranges.len() } else { 0 });
                assert_eq!((ranges[0].start, ranges[ranges.len() - 1].end), (0, l.n_local()));
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                let mut boundary_seen = 0;
                for kind in l.store.kinds() {
                    let order = l.ell_at(kind).order();
                    for (c, color) in ranges.iter().enumerate() {
                        assert!(color.start <= color.split && color.split <= color.end);
                        assert_eq!(color.all().len(), l.coloring.rows_of[c].len());
                        if let Some(coarse) = l.restrict_ranges.get(c) {
                            assert!(color.start <= coarse.start && coarse.end <= color.end);
                            assert_eq!(coarse.split, color.split);
                            for pos in color.all() {
                                let f = order.old_of_new(pos) as u32;
                                assert_eq!(coarse.all().contains(&pos), collocated.contains(&f));
                            }
                        }
                        for pos in color.all() {
                            let i = order.old_of_new(pos);
                            assert_eq!(order.new_of_old(i), pos);
                            assert_eq!(l.coloring.color_of[i] as usize, c);
                            let (ix, iy, iz) = l.grid.coords(i);
                            let boundary = l.halo.plan().is_boundary_row(ix, iy, iz);
                            assert_eq!(boundary, pos >= color.split, "row {i} at position {pos}");
                            boundary_seen += boundary as usize;
                        }
                    }
                }
                assert!(boundary_seen > 0, "a rank with neighbors has boundary rows");
            }
        }
    }

    #[test]
    fn global_row_consistency_across_ranks() {
        // The two ranks of a 2x1x1 grid assemble complementary halves:
        // their total nnz must equal the serial assembly's nnz.
        let spec2 = ProblemSpec {
            local: (4, 4, 4),
            procs: ProcGrid::new(2, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: 1,
            seed: 1,
        };
        let serial = ProblemSpec {
            local: (8, 4, 4),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: 1,
            seed: 1,
        };
        let nnz2: usize = (0..2).map(|r| assemble_f64(&spec2, r).levels[0].nnz()).sum();
        let nnz1 = assemble_f64(&serial, 0).levels[0].nnz();
        assert_eq!(nnz2, nnz1);
    }

    #[test]
    fn nonsymmetric_variant_assembles() {
        let spec = ProblemSpec {
            local: (4, 4, 4),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::nonsymmetric(0.5),
            mg_levels: 1,
            seed: 1,
        };
        let p = assemble_f64(&spec, 0);
        let a = &p.levels[0].csr64();
        let d = a.to_dense();
        // Not symmetric...
        let mut asym = false;
        for (i, di) in d.iter().enumerate() {
            for (j, dj) in d.iter().enumerate() {
                if (di[j] - dj[i]).abs() > 1e-14 {
                    asym = true;
                }
            }
        }
        assert!(asym);
        // ...but still weakly diagonally dominant.
        for (i, di) in d.iter().enumerate() {
            let off: f64 = (0..a.nrows()).filter(|&j| j != i).map(|j| di[j].abs()).sum();
            assert!(off <= 26.0 + 1e-12);
        }
    }

    #[test]
    fn restrict_split_covers_coarse_rows() {
        let spec = ProblemSpec {
            local: (8, 8, 8),
            procs: ProcGrid::new(2, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: 2,
            seed: 1,
        };
        // Rank 0's inter-rank face is at ix = nx-1 (odd), which no
        // coarse point collocates with: all its coarse rows are
        // interior. Rank 1's face is at ix = 0 (even): its coarse rows
        // there must be classified as boundary.
        let count = |l: &Level, part: fn(&ColorRange) -> std::ops::Range<usize>| -> usize {
            l.restrict_ranges.iter().map(|c| part(c).len()).sum()
        };
        let p0 = assemble_f64(&spec, 0);
        let l0 = &p0.levels[0];
        let n_coarse = p0.levels[1].n_local();
        assert_eq!(count(l0, ColorRange::all), n_coarse);
        assert_eq!(count(l0, ColorRange::boundary), 0);

        let p1 = assemble_f64(&spec, 1);
        let l1 = &p1.levels[0];
        assert_eq!(count(l1, ColorRange::all), n_coarse);
        assert_eq!(count(l1, ColorRange::boundary), 16, "the 4x4 coarse face at ix=0");
        assert!(p1.levels[1].restrict_ranges.is_empty(), "the coarsest level restricts nothing");
    }

    #[test]
    fn nnz_coarse_rows_counts() {
        let p = assemble_f64(&spec_1rank(8, 2), 0);
        let l = &p.levels[0];
        let expected: usize =
            l.c2f.as_ref().unwrap().c2f.iter().map(|&f| l.csr64().row(f as usize).0.len()).sum();
        assert_eq!(l.nnz_coarse_rows(), expected);
    }
}
