//! Distributed assembly of the benchmark problem and its multigrid
//! hierarchy.
//!
//! Each rank assembles its block of rows of the 27-point operator
//! (diagonal 26, off-diagonals −1; §3), with ghost columns numbered by
//! the geometric halo plan, on every level of the 4-level hierarchy.
//!
//! **What is resident.** After [`assemble_with_policy`] a [`Level`]
//! holds its operator once, in ELL storage: one column-index array and
//! one storage order, shared (`Arc`) by an [`EllMatrix`] per storage
//! precision the policy names for that depth (plus `f64` on the fine
//! level, for the outer residual). Each lower-precision copy is one
//! narrowing pass over the `f64` values. The assembly CSR serves the
//! coloring, the fused-restriction work count and `b = A·1`, and is
//! then dropped. What only the reference variant reads — the CSR form,
//! the `(D+L, U)` factors of its two-kernel Gauss–Seidel and the level
//! schedule — is built on first use, by running the same assembly
//! again, so it is bit-identical to an eager build and costs nothing
//! under the optimized variant. [`Level::value_bytes`] and
//! [`Level::index_bytes`] count exactly that.
//!
//! Every level is colored by the sequential greedy algorithm, which on
//! this stencil finds the 8 parity classes of the 2×2×2 block, in a
//! fixed order chosen for the smoother (see [`sweep_coloring`]). The
//! paper colors with Jones–Plassmann–Luby because a GPU must build its
//! coloring in parallel (§3.2.1); on a CPU that costs 14–17 colors,
//! uneven classes and most of the setup time.
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
use crate::ops::{CsrRef, EllRef};
use crate::policy::PrecisionPolicy;
use hpgmxp_comm::HaloExchange;
use hpgmxp_geometry::{GridHierarchy, HaloPlan, LocalGrid, ProcGrid, Stencil27, STENCIL_OFFSETS};
use hpgmxp_sparse::csr::{CsrBuilder, CsrMatrix};
use hpgmxp_sparse::gauss_seidel::split_lower_upper;
use hpgmxp_sparse::ordering::color_block_order;
use hpgmxp_sparse::{
    greedy_coloring, ColorRange, Coloring, EllMatrix, Half, LevelSchedule, PrecKind, Scalar,
};
use std::sync::OnceLock;

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
    /// Assembly reads nothing from this field: the coloring is greedy
    /// and seedless, so every seed assembles the same problem. It
    /// remains because the benchmark adapter (`benchmark/src/adapter.rs`),
    /// frozen until its next revision, still sets it; ROADMAP item 1
    /// deletes it.
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
}

/// The reference variant's operator at one storage precision: the CSR
/// form and the `(D+L, U)` factors its two-kernel Gauss–Seidel reads.
#[derive(Debug, Clone)]
pub struct RefOperator<S> {
    /// CSR form.
    pub csr: CsrMatrix<S>,
    /// `D + L` factor.
    pub lower: CsrMatrix<S>,
    /// Strictly upper factor (with structural zero diagonal).
    pub upper: CsrMatrix<S>,
}

impl<S: Scalar> RefOperator<S> {
    fn build(csr64: &CsrMatrix<f64>) -> Self {
        let csr: CsrMatrix<S> = csr64.convert();
        let (lower, upper) = split_lower_upper(&csr);
        RefOperator { csr, lower, upper }
    }

    /// Resident `(value, index)` bytes of the three matrices.
    fn bytes(&self) -> (usize, usize) {
        [&self.csr, &self.lower, &self.upper]
            .iter()
            .fold((0, 0), |(v, i), m| (v + m.value_bytes(), i + m.index_bytes()))
    }
}

/// What only the reference variant reads on one level: its operator at
/// every storage precision the level holds, and the level schedule of
/// the lower-triangular sweep.
#[derive(Debug, Clone)]
pub(crate) struct ReferenceForms {
    m64: Option<RefOperator<f64>>,
    m32: Option<RefOperator<f32>>,
    m16: Option<RefOperator<Half>>,
    schedule: LevelSchedule,
}

/// One multigrid level of one rank, fully assembled.
#[derive(Debug, Clone)]
pub struct Level {
    /// The level's local grid.
    pub grid: LocalGrid,
    /// Depth in the multigrid hierarchy (0 = finest); the index the
    /// precision policy's per-level storage axis keys on.
    pub depth: usize,
    /// The operator in ELL storage, one copy per storage precision the
    /// assembly policy names for this depth (`None` = not held). The
    /// copies share one column-index array and one storage order; each
    /// owns only its values and diagonal.
    ell64: Option<EllMatrix<f64>>,
    ell32: Option<EllMatrix<f32>>,
    ell16: Option<EllMatrix<Half>>,
    /// The stencil the operator was assembled from: the reference forms
    /// are assembled from it again on first use.
    stencil: Stencil27,
    /// The reference variant's forms; empty until a reference kernel or
    /// a CSR accessor first asks for them.
    reference: OnceLock<ReferenceForms>,
    /// Stored nonzeros of the local operator (precision-independent).
    nnz_stored: usize,
    /// Fine-matrix nonzeros in coarse-collocated rows (fused
    /// restriction work; 0 on the coarsest level).
    nnz_coarse: usize,
    /// Multicoloring of the local graph in sweep order (see
    /// [`sweep_coloring`]): 8 equal parity classes on the 27-point
    /// stencil.
    pub coloring: Coloring,
    /// Per color: its ELL slab positions, interior rows (stencil touches
    /// no ghost; safe during communication) before `split`, boundary
    /// rows (read ghost values; must wait for the halo) after it.
    pub color_ranges: Vec<ColorRange>,
    /// Per color: the positions of its rows collocated with a coarse
    /// point (empty on the coarsest level) — the rows the fused
    /// restriction evaluates, interior before `split` as above.
    pub restrict_ranges: Vec<ColorRange>,
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

    /// The storage precisions this level holds its operator at.
    pub fn kinds(&self) -> Vec<PrecKind> {
        let held = [self.ell64.is_some(), self.ell32.is_some(), self.ell16.is_some()];
        let kinds = [PrecKind::F64, PrecKind::F32, PrecKind::F16].into_iter();
        kinds.zip(held).filter_map(|(k, h)| h.then_some(k)).collect()
    }

    /// Resident bytes of matrix values on this level: every held ELL
    /// copy's padded values and diagonal, plus the reference forms'
    /// values once they have been built.
    pub fn value_bytes(&self) -> usize {
        let n = self.n_local();
        let ell: usize =
            self.kinds().into_iter().map(|k| self.ell_at(k).value_bytes() + n * k.bytes()).sum();
        ell + self.reference_bytes().0
    }

    /// Resident bytes of index data on this level: the padded column
    /// indices and the storage order (two `u32` maps) that every ELL
    /// copy shares, counted once, plus the reference forms' row
    /// pointers, column indices and schedule once they have been built.
    pub fn index_bytes(&self) -> usize {
        let n = self.n_local();
        self.ell_at(self.kinds()[0]).width() * n * 4 + 2 * n * 4 + self.reference_bytes().1
    }

    /// Resident `(value, index)` bytes of the reference forms: every
    /// operator, plus the schedule's two `u32` row maps; zero until built.
    fn reference_bytes(&self) -> (usize, usize) {
        let Some(r) = self.reference.get() else { return (0, 0) };
        let ops = [
            r.m64.as_ref().map(RefOperator::bytes),
            r.m32.as_ref().map(RefOperator::bytes),
            r.m16.as_ref().map(RefOperator::bytes),
        ];
        ops.into_iter().flatten().fold((0, 8 * self.n_local()), |(v, i), b| (v + b.0, i + b.1))
    }

    /// `slot`'s content, or a panic naming what this level holds.
    fn held<'a, T>(&self, slot: &'a Option<T>, kind: PrecKind) -> &'a T {
        slot.as_ref().unwrap_or_else(|| {
            panic!(
                "level {} was assembled without {} matrices (materialized: {:?}); \
                 assemble with a policy whose storage covers this level's kernels",
                self.depth,
                kind.name(),
                self.kinds()
            )
        })
    }

    /// The reference forms, built on first use: the level's operator is
    /// assembled again, then converted, split and scheduled exactly as
    /// an eager build would, for every precision the level holds.
    pub(crate) fn reference(&self) -> &ReferenceForms {
        self.reference.get_or_init(|| {
            let csr64 = assemble_matrix(&self.grid, self.halo.plan(), &self.stencil);
            ReferenceForms {
                m64: self.ell64.as_ref().map(|_| RefOperator::build(&csr64)),
                m32: self.ell32.as_ref().map(|_| RefOperator::build(&csr64)),
                m16: self.ell16.as_ref().map(|_| RefOperator::build(&csr64)),
                schedule: LevelSchedule::build(&csr64),
            }
        })
    }

    /// This level's ELL operator at a runtime storage kind (panics if
    /// the assembly policy never materialized it).
    pub fn ell_at(&self, kind: PrecKind) -> EllRef<'_> {
        match kind {
            PrecKind::F64 => EllRef::F64(self.ell64()),
            PrecKind::F32 => EllRef::F32(self.ell32()),
            PrecKind::F16 => EllRef::F16(self.ell16()),
        }
    }

    /// This level's reference operator (CSR + factors) at a runtime
    /// storage kind; builds the reference forms on first use.
    pub fn csr_at(&self, kind: PrecKind) -> CsrRef<'_> {
        let r = self.reference();
        match kind {
            PrecKind::F64 => CsrRef::F64(self.held(&r.m64, kind)),
            PrecKind::F32 => CsrRef::F32(self.held(&r.m32, kind)),
            PrecKind::F16 => CsrRef::F16(self.held(&r.m16, kind)),
        }
    }

    /// Level schedule of the reference lower-triangular sweep (built on
    /// first use, with the other reference forms).
    pub fn schedule(&self) -> &LevelSchedule {
        &self.reference().schedule
    }

    /// Operator, ELL double (optimized format / outer residuals).
    pub fn ell64(&self) -> &EllMatrix<f64> {
        self.held(&self.ell64, PrecKind::F64)
    }

    /// Operator, ELL single.
    pub fn ell32(&self) -> &EllMatrix<f32> {
        self.held(&self.ell32, PrecKind::F32)
    }

    /// Operator, ELL half.
    pub fn ell16(&self) -> &EllMatrix<Half> {
        self.held(&self.ell16, PrecKind::F16)
    }

    /// Operator, CSR double (reference format; built on first use).
    pub fn csr64(&self) -> &CsrMatrix<f64> {
        &self.held(&self.reference().m64, PrecKind::F64).csr
    }

    /// Operator, CSR single (built on first use).
    pub fn csr32(&self) -> &CsrMatrix<f32> {
        &self.held(&self.reference().m32, PrecKind::F32).csr
    }

    /// Operator, CSR half (built on first use).
    pub fn csr16(&self) -> &CsrMatrix<Half> {
        &self.held(&self.reference().m16, PrecKind::F16).csr
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

/// The greedy coloring of `a`, relabelled so that greedy color 0 is
/// relaxed in the middle of a forward sweep: it moves to position
/// `ncolors/2 − 1` and colors `1..=ncolors/2 − 1` shift down by one.
///
/// Greedy color 0 is row 0's parity class. Because local sizes are
/// divisible by `2^(levels−1)`, it holds every row collocated with a
/// coarse point. A forward sweep zeroes the residual of the class it
/// relaxes last, so that class must not go last, or the restricted
/// residual — and the coarse correction — would vanish. Relaxing it
/// mid-sweep, after three even-z classes and before the four odd-z
/// ones, also converges in fewer iterations than relaxing it first.
fn sweep_coloring(a: &CsrMatrix<f64>) -> Coloring {
    let greedy = greedy_coloring(a);
    let mid = (greedy.num_colors / 2).saturating_sub(1);
    let color_of = greedy
        .color_of
        .iter()
        .map(|&c| match c {
            0 => mid,
            c if c <= mid => c - 1,
            c => c,
        })
        .collect();
    Coloring::from_color_of(color_of)
}

/// Assemble the local problem of `rank` with exactly what `policy`
/// needs: per level, the ELL operator at the policy's storage precision
/// for that depth, plus `f64` on the fine level (the GMRES-IR outer
/// residual is always double — that invariant is what recovers 1e-9
/// under every policy); see the module docs for what else is resident.
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
    let mut rhs = Vec::new();

    for (l, grid) in hierarchy.grids.iter().enumerate() {
        let plan = HaloPlan::build(grid);
        let csr64 = assemble_matrix(grid, &plan, &spec.stencil);
        let coloring = sweep_coloring(&csr64);
        debug_assert!(coloring.verify(&csr64));
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
        if l == 0 {
            // b = A·1 — with the exact solution all-ones, ghost values
            // are also ones, so no exchange is needed to form it.
            rhs = vec![0.0f64; grid.total_points()];
            csr64.spmv(&vec![1.0f64; csr64.ncols()], &mut rhs);
        }
        let nnz_stored = csr64.nnz();
        let ell = EllMatrix::from_csr_ordered(&csr64, order);
        drop(csr64);

        // Values at exactly the storage precisions this level needs,
        // narrowed from the f64 copy; every copy shares its indices.
        let storage = policy.storage_at(l);
        let ell32 = (storage == PrecKind::F32).then(|| ell.convert());
        let ell16 = (storage == PrecKind::F16).then(|| ell.convert());
        let ell64 = (l == 0 || storage == PrecKind::F64).then_some(ell);
        let staging = if l == 0 { 8 } else { policy.wire.bytes().max(policy.compute.bytes()) };

        levels.push(Level {
            grid: *grid,
            depth: l,
            ell64,
            ell32,
            ell16,
            stencil: spec.stencil,
            reference: OnceLock::new(),
            nnz_stored,
            nnz_coarse,
            coloring,
            color_ranges,
            restrict_ranges,
            halo: HaloExchange::new_sized(plan, staging),
            c2f,
        });
    }

    LocalProblem { spec: *spec, levels, x_exact: vec![1.0; rhs.len()], b: rhs }
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

    /// Every level, single-rank and one rank of a 2×2×1 grid, is colored
    /// with the 8 equal parity classes, and every row collocated with a
    /// coarse point is in color 3: neither first nor last in a forward
    /// sweep, so the sweep cannot zero the residual restriction reads.
    #[test]
    fn coloring_is_8_parity_classes_with_coarse_class_mid_sweep() {
        let spec_2x2x1 = ProblemSpec {
            local: (8, 8, 8),
            procs: ProcGrid::new(2, 2, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: 3,
            seed: 3,
        };
        for (spec, rank) in [(spec_1rank(16, 4), 0), (spec_2x2x1, 3)] {
            let p = assemble_f64(&spec, rank);
            for l in &p.levels {
                let c = &l.coloring;
                assert!(c.verify(l.csr64()), "level {}", l.depth);
                assert_eq!(c.num_colors, 8, "level {}", l.depth);
                assert!(c.rows_of.iter().all(|rows| rows.len() == l.n_local() / 8));
                for &f in l.c2f.iter().flat_map(|map| &map.c2f) {
                    assert_eq!(c.color_of[f as usize], 3, "level {} row {f}", l.depth);
                }
            }
        }
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
    /// `split`. The precisions share one index allocation, and the
    /// reference forms wait for their first reader, which builds them
    /// for exactly the held precisions.
    #[test]
    fn color_split_partitions_each_class() {
        let spec = ProblemSpec {
            local: (8, 8, 8),
            procs: ProcGrid::new(2, 2, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: 3,
            seed: 3,
        };
        let stress = [PrecisionPolicy::stress_f16()];
        for policy in PrecisionPolicy::shipped().into_iter().chain(stress) {
            let p = assemble_with_policy(&spec, 3, &policy);
            for l in &p.levels {
                assert!(l.reference.get().is_none(), "{} level {}", policy.name, l.depth);
                let (a, b, c) = (&l.ell64, &l.ell32, &l.ell16);
                let shared = |a: &EllMatrix<f64>| b.iter().all(|b| a.shares_indices(b));
                assert!(a.iter().all(|a| shared(a) && c.iter().all(|c| a.shares_indices(c))));
                let ranges = &l.color_ranges;
                assert_eq!(ranges.len(), l.coloring.num_colors as usize);
                let collocated: Vec<u32> = l.c2f.iter().flat_map(|m| m.c2f.clone()).collect();
                assert_eq!(l.restrict_ranges.len(), if l.c2f.is_some() { ranges.len() } else { 0 });
                assert_eq!((ranges[0].start, ranges[ranges.len() - 1].end), (0, l.n_local()));
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                let mut boundary_seen = 0;
                for kind in l.kinds() {
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
            let fine = &p.levels[0];
            assert_eq!(fine.csr64().nnz(), fine.nnz());
            let r = fine.reference.get().expect("built by the accessor");
            let built = [r.m64.is_some(), r.m32.is_some(), r.m16.is_some()];
            assert_eq!(built, [fine.ell64.is_some(), fine.ell32.is_some(), fine.ell16.is_some()]);
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
