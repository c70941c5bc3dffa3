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
//! level, for the outer residual, from which the fine level's
//! lower-precision copy is one narrowing pass).
//!
//! **Generated, not assembled.** No CSR is built on the way: each
//! level's ELL is written straight at its storage positions and
//! precision, slab by slab in parallel, with slab `k` holding every
//! row's coupling at `STENCIL_OFFSETS[k]` and padding at the offsets
//! that leave the domain; a coarse level whose policy drops `f64` never
//! builds it. `b = A·1` is read off the fine `f64` ELL, and the stored
//! nonzero count, the fused-restriction work count and the zero-guess
//! masks off whichever copy is held, since they depend on the indices
//! alone. What only the
//! reference variant reads — the CSR form, the `(D+L, U)` factors of
//! its two-kernel Gauss–Seidel and the level schedule — is built on
//! first use from the held ELL copies, by dropping their padding, so it
//! is bit-identical to an eager build and costs nothing under the
//! optimized variant. [`Level::value_bytes`] and [`Level::index_bytes`]
//! count exactly that.
//!
//! Every level is colored by the sequential greedy algorithm, run over
//! the grid's stencil neighbors, which on this stencil finds the 8
//! parity classes of the 2×2×2 block, in a fixed order chosen for the
//! smoother (see [`sweep_coloring`]). The paper colors with
//! Jones–Plassmann–Luby because a GPU must build its coloring in
//! parallel (§3.2.1); on a CPU that costs 14–17 colors, uneven classes
//! and most of the setup time.
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
//!
//! A forward sweep from a zero guess needs, in each row, only the
//! columns of earlier colors; every other column is still zero.
//! Each level records, per color and tile, the slabs
//! holding such a column in some row of the tile. Because slot `k`
//! means the same coupling in every row, a tile's rows agree on those
//! slabs, and the masks select about 0.47 of the stored entries.

use crate::config::BenchmarkParams;
use crate::ops::{CsrRef, EllRef};
use crate::policy::PrecisionPolicy;
use hpgmxp_comm::HaloExchange;
use hpgmxp_geometry::{GridHierarchy, HaloPlan, LocalGrid, ProcGrid, Stencil27, STENCIL_OFFSETS};
use hpgmxp_sparse::csr::{CsrBuilder, CsrMatrix};
use hpgmxp_sparse::ell::ROW_BLOCK;
use hpgmxp_sparse::gauss_seidel::{split_lower_upper, zero_guess_masks};
use hpgmxp_sparse::ordering::{color_block_order, Permutation};
use hpgmxp_sparse::{
    greedy_coloring_by, ColorRange, Coloring, EllMatrix, Half, LevelSchedule, PrecKind, Scalar,
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
    /// From a generated ELL operator: its rows with the padding dropped
    /// (see [`is_pad`]), entries in slab order, then split.
    fn build(ell: &EllMatrix<S>) -> Self {
        let n = ell.nrows();
        let mut b = CsrBuilder::new(n, ell.ncols(), ell.nnz());
        for i in 0..n {
            let slots = (0..ell.width()).map(|k| (k, ell.entry(i, k)));
            b.push_row(slots.filter(|&(k, (col, _))| !is_pad(k, col, i)).map(|(_, e)| e));
        }
        let csr = b.finish();
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
    /// Per color, per [`ROW_BLOCK`] tile of its range: the slabs a
    /// forward sweep from a zero guess must read (see
    /// [`zero_guess_masks`]).
    zero_guess_masks: Vec<Vec<u32>>,
    /// Stored entries (padding included) those masks select: what one
    /// zero-guess sweep reads of each slab-shaped array.
    zero_guess_slots: usize,
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

    /// Per color, the slab masks of a forward sweep from a zero guess,
    /// one per [`ROW_BLOCK`] tile of the color's range: bit `k` is set
    /// when some row of the tile holds at slab `k` an owned column of an
    /// earlier color.
    pub(crate) fn zero_guess_masks(&self) -> &[Vec<u32>] {
        &self.zero_guess_masks
    }

    /// Stored entries, padding included, a zero-guess sweep reads: the
    /// masks' selected slab segments.
    pub(crate) fn zero_guess_slots(&self) -> usize {
        self.zero_guess_slots
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

    /// The reference forms, built on first use from every held ELL copy
    /// (its padding dropped), then split and scheduled exactly as an
    /// eager build would.
    pub(crate) fn reference(&self) -> &ReferenceForms {
        self.reference.get_or_init(|| {
            let m64 = self.ell64.as_ref().map(RefOperator::build);
            let m32 = self.ell32.as_ref().map(RefOperator::build);
            let m16 = self.ell16.as_ref().map(RefOperator::build);
            // The schedule reads only the sparsity, which every copy shares.
            let schedule = match (&m64, &m32, &m16) {
                (Some(m), _, _) => LevelSchedule::build(&m.csr),
                (_, Some(m), _) => LevelSchedule::build(&m.csr),
                (_, _, Some(m)) => LevelSchedule::build(&m.csr),
                _ => unreachable!("a level holds its operator at some precision"),
            };
            ReferenceForms { m64, m32, m16, schedule }
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

/// Slab of the diagonal: `STENCIL_OFFSETS[CENTRE] == (0, 0, 0)`.
const CENTRE: usize = 13;

/// Whether the entry at slab `k` of row `row`, with column `col`, is
/// padding. Padding stores the row itself, as the diagonal does, but at
/// any slab other than the center — so the slab, not the value, tells
/// the two apart, and an explicit zero coefficient is kept.
fn is_pad(k: usize, col: u32, row: usize) -> bool {
    k != CENTRE && col as usize == row
}

/// The greedy coloring of the grid's stencil graph, relabelled so that
/// greedy color 0 is relaxed in the middle of a forward sweep: it moves
/// to position `ncolors/2 − 1` and colors `1..=ncolors/2 − 1` shift
/// down by one.
///
/// Rows are colored in natural order, each against its owned stencil
/// neighbors — the offsets before the center in `STENCIL_OFFSETS` reach
/// exactly the rows before it, the only ones already colored.
///
/// Greedy color 0 is row 0's parity class. Because local sizes are
/// divisible by `2^(levels−1)`, it holds every row collocated with a
/// coarse point. A forward sweep zeroes the residual of the class it
/// relaxes last, so that class must not go last, or the restricted
/// residual — and the coarse correction — would vanish. Relaxing it
/// mid-sweep, after three even-z classes and before the four odd-z
/// ones, also converges in fewer iterations than relaxing it first.
fn sweep_coloring(grid: &LocalGrid) -> Coloring {
    let (nx, ny, nz) = (grid.nx as i64, grid.ny as i64, grid.nz as i64);
    let greedy = greedy_coloring_by(grid.total_points(), |i| {
        let (ix, iy, iz) = grid.coords(i);
        STENCIL_OFFSETS[..CENTRE].iter().filter_map(move |&(dx, dy, dz)| {
            let (ex, ey, ez) =
                (ix as i64 + dx as i64, iy as i64 + dy as i64, iz as i64 + dz as i64);
            let inside = (0..nx).contains(&ex) && (0..ny).contains(&ey) && (0..nz).contains(&ez);
            inside.then(|| grid.index(ex as u32, ey as u32, ez as u32))
        })
    });
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

/// Where a stencil offset leads along one axis from local coordinate
/// `c`: inside the local box, onto a neighbor rank's ghost layer, or
/// out of the global domain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reach {
    Owned,
    Ghost,
    Outside,
}

/// The level's operator in ELL storage at precision `S`, rows at the
/// positions of `order`: slab `k` holds every row's coupling at
/// `STENCIL_OFFSETS[k]` — the owned row or ghost column the offset
/// reaches (ghosts numbered by `plan`), with `stencil`'s coefficient
/// rounded once to `S` (the bits `EllMatrix::convert` gives) — or,
/// where the offset leaves the global domain, padding. The slabs are
/// written in parallel, each walking the rows in natural order.
fn generate_ell<S: Scalar>(
    grid: &LocalGrid,
    plan: &HaloPlan,
    stencil: &Stencil27,
    order: Permutation,
) -> EllMatrix<S> {
    let n = grid.total_points();
    let global = grid.global();
    let base = grid.base();
    let (nx, ny, nz) = (grid.nx as usize, grid.ny as usize, grid.nz as usize);
    // Per axis and offset −1, 0, +1: where the offset leads from each
    // local coordinate.
    let axis = |len: usize, base: u64, extent: u64| -> [Vec<Reach>; 3] {
        [-1i64, 0, 1].map(|d| {
            (0..len as i64)
                .map(|c| match c + d {
                    e if (0..len as i64).contains(&e) => Reach::Owned,
                    e if (0..extent as i64).contains(&(base as i64 + e)) => Reach::Ghost,
                    _ => Reach::Outside,
                })
                .collect()
        })
    };
    let reach =
        [axis(nx, base.0, global.nx), axis(ny, base.1, global.ny), axis(nz, base.2, global.nz)];
    let diag = vec![S::from_f64(stencil.coefficient(0, 0, 0)); n];
    let ncols = n + plan.num_ghosts;
    EllMatrix::from_slabs(ncols, STENCIL_OFFSETS.len(), order, diag, |k, order, cols, vals| {
        let (dx, dy, dz) = STENCIL_OFFSETS[k];
        let coefficient = S::from_f64(stencil.coefficient(dx, dy, dz));
        let step = dx as isize + nx as isize * (dy as isize + ny as isize * dz as isize);
        let at = |axis: usize, d: i32| &reach[axis][(d + 1) as usize];
        let (xs, ys, zs) = (at(0, dx), at(1, dy), at(2, dz));
        let mut stored = 0;
        let mut i = 0;
        for (iz, &rz) in zs.iter().enumerate() {
            for (iy, &ry) in ys.iter().enumerate() {
                for (ix, &rx) in xs.iter().enumerate() {
                    let (col, value) = match (rx, ry, rz) {
                        (Reach::Owned, Reach::Owned, Reach::Owned) => {
                            ((i as isize + step) as u32, coefficient)
                        }
                        _ if [rx, ry, rz].contains(&Reach::Outside) => (i as u32, S::ZERO),
                        _ => {
                            let e = |c: usize, d: i32| c as i64 + d as i64;
                            let g = plan
                                .ghost_index(e(ix, dx), e(iy, dy), e(iz, dz))
                                .expect("in-domain off-rank point must have a ghost slot");
                            ((n + g) as u32, coefficient)
                        }
                    };
                    let p = order.new_of_old(i);
                    (cols[p], vals[p]) = (col, value);
                    stored += usize::from(!is_pad(k, col, i));
                    i += 1;
                }
            }
        }
        stored
    })
}

/// Whether every row whose stencil stays inside the local box stores,
/// at each slab, the same `col − row`: the offset-per-slab layout the
/// slab masks rely on.
fn interior_slots_are_stable<S: Scalar>(ell: &EllMatrix<S>, grid: &LocalGrid) -> bool {
    let interior = |i: usize| {
        let (ix, iy, iz) = grid.coords(i);
        let inner = |c: u32, n: u32| c > 0 && c + 1 < n;
        inner(ix, grid.nx) && inner(iy, grid.ny) && inner(iz, grid.nz)
    };
    let rows: Vec<usize> = (0..ell.nrows()).filter(|&i| interior(i)).collect();
    (0..ell.width()).all(|k| {
        let delta = |i: usize| ell.entry(i, k).0 as i64 - i as i64;
        rows.iter().all(|&i| delta(i) == delta(rows[0]))
    })
}

/// What a level records of its operator that depends on the indices
/// alone, so any held copy gives the same.
struct IndexFacts {
    /// Stored nonzeros, padding excluded.
    nnz_stored: usize,
    /// Stored nonzeros in the rows collocated with a coarse point.
    nnz_coarse: usize,
    /// Per color and tile, the slabs a zero-guess sweep reads.
    zero_guess_masks: Vec<Vec<u32>>,
}

impl IndexFacts {
    fn read<S: Scalar>(
        ell: &EllMatrix<S>,
        grid: &LocalGrid,
        c2f: Option<&hpgmxp_geometry::CoarseMap>,
        color_ranges: &[ColorRange],
        coloring: &Coloring,
    ) -> Self {
        debug_assert!(interior_slots_are_stable(ell, grid), "a slab mixes offsets");
        let row_nnz =
            |i: usize| (0..ell.width()).filter(|&k| !is_pad(k, ell.entry(i, k).0, i)).count();
        IndexFacts {
            nnz_stored: ell.nnz(),
            nnz_coarse: c2f.iter().flat_map(|map| &map.c2f).map(|&f| row_nnz(f as usize)).sum(),
            zero_guess_masks: zero_guess_masks(ell, color_ranges, &coloring.color_of),
        }
    }
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
        let coloring = sweep_coloring(grid);
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
        // The fine level holds f64 for the outer residual and narrows
        // its storage copy from it, the two sharing one index array; a
        // coarser level holds only its storage precision, generated at it.
        let storage = policy.storage_at(l);
        let (mut ell64, mut ell32, mut ell16) = (None, None, None);
        if l == 0 || storage == PrecKind::F64 {
            let ell = generate_ell::<f64>(grid, &plan, &spec.stencil, order);
            ell32 = (storage == PrecKind::F32).then(|| ell.convert());
            ell16 = (storage == PrecKind::F16).then(|| ell.convert());
            ell64 = Some(ell);
        } else if storage == PrecKind::F32 {
            ell32 = Some(generate_ell::<f32>(grid, &plan, &spec.stencil, order));
        } else {
            ell16 = Some(generate_ell::<Half>(grid, &plan, &spec.stencil, order));
        }
        let (map, ranges) = (c2f.as_ref(), &color_ranges[..]);
        let IndexFacts { nnz_stored, nnz_coarse, zero_guess_masks } = match (&ell64, &ell32, &ell16)
        {
            (Some(a), _, _) => IndexFacts::read(a, grid, map, ranges, &coloring),
            (_, Some(a), _) => IndexFacts::read(a, grid, map, ranges, &coloring),
            (_, _, Some(a)) => IndexFacts::read(a, grid, map, ranges, &coloring),
            _ => unreachable!("every level holds an operator"),
        };
        if l == 0 {
            // b = A·1 — with the exact solution all-ones, ghost values
            // are also ones, so no exchange is needed to form it.
            let ell = ell64.as_ref().expect("the fine level holds f64");
            rhs = vec![0.0f64; grid.total_points()];
            ell.spmv_par(&vec![1.0f64; ell.ncols()], &mut rhs);
        }
        let zero_guess_slots = color_ranges
            .iter()
            .zip(&zero_guess_masks)
            .flat_map(|(range, masks)| {
                let tile_len =
                    move |t: usize| ROW_BLOCK.min(range.end - range.start - t * ROW_BLOCK);
                masks.iter().enumerate().map(move |(t, m)| m.count_ones() as usize * tile_len(t))
            })
            .sum();
        let staging = if l == 0 { 8 } else { policy.wire.bytes().max(policy.compute.bytes()) };

        levels.push(Level {
            grid: *grid,
            depth: l,
            ell64,
            ell32,
            ell16,
            reference: OnceLock::new(),
            nnz_stored,
            nnz_coarse,
            coloring,
            color_ranges,
            restrict_ranges,
            zero_guess_masks,
            zero_guess_slots,
            halo: HaloExchange::new_sized(plan, staging),
            c2f,
        });
    }

    LocalProblem { spec: *spec, levels, x_exact: vec![1.0; rhs.len()], b: rhs }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hpgmxp_comm::Comm;

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

    /// The generated operator against the geometry, on every level of
    /// both ranks of a 2×1×1 grid with a nonsymmetric stencil (so each
    /// offset has its own coefficient): every stored entry at slab `k`
    /// is the grid neighbor at `STENCIL_OFFSETS[k]` — identified by its
    /// global id, which a halo exchange brings into the ghost columns —
    /// with that offset's coefficient, and padding sits exactly at the
    /// offsets that leave the global domain.
    #[test]
    fn generated_slots_are_the_stencil_offsets() {
        let procs = ProcGrid::new(2, 1, 1);
        let stencil = Stencil27::nonsymmetric(0.25);
        hpgmxp_comm::run_spmd(2, move |c| {
            let spec = ProblemSpec { local: (8, 8, 8), procs, stencil, mg_levels: 3, seed: 1 };
            let p = assemble_f64(&spec, c.rank());
            for (t, l) in p.levels.iter().enumerate() {
                let (n, g, ell) = (l.n_local(), l.grid.global(), l.ell64());
                let global_id = |(x, y, z): (u64, u64, u64)| g.index(x, y, z) as f64;
                let mut ids = vec![f64::NAN; l.vec_len()];
                for (i, id) in ids[..n].iter_mut().enumerate() {
                    let (ix, iy, iz) = l.grid.coords(i);
                    *id = global_id(l.grid.to_global(ix, iy, iz));
                }
                let tl = hpgmxp_comm::Timeline::disabled();
                l.halo.exchange_wire(&c, t as u64, &mut ids, 8, &tl);
                assert_eq!(ell.width(), STENCIL_OFFSETS.len());
                for i in 0..n {
                    let (ix, iy, iz) = l.grid.coords(i);
                    let (gx, gy, gz) = l.grid.to_global(ix, iy, iz);
                    assert_eq!(ell.diag(i), stencil.coefficient(0, 0, 0));
                    for (k, &(dx, dy, dz)) in STENCIL_OFFSETS.iter().enumerate() {
                        let (col, v) = ell.entry(i, k);
                        let nb =
                            (gx as i64 + dx as i64, gy as i64 + dy as i64, gz as i64 + dz as i64);
                        let at = format!("level {} row {i} slab {k}", l.depth);
                        if g.contains(nb.0, nb.1, nb.2) {
                            let nb = (nb.0 as u64, nb.1 as u64, nb.2 as u64);
                            assert_eq!(ids[col as usize], global_id(nb), "{at}");
                            assert_eq!(v, stencil.coefficient(dx, dy, dz), "{at}");
                        } else {
                            assert_eq!((col as usize, v), (i, 0.0), "{at}: padding");
                        }
                    }
                }
                assert!(interior_slots_are_stable(ell, &l.grid), "level {}", l.depth);
            }
        });
    }

    /// A pad is known by its slab, not its value: the reference CSR keeps
    /// the diagonal even where it is zero, and drops exactly the padding.
    #[test]
    fn reference_csr_drops_padding_by_slab() {
        let zero_diagonal = Stencil27 { diagonal: 0.0, gamma: 0.0 };
        let spec = ProblemSpec { stencil: zero_diagonal, ..spec_1rank(4, 1) };
        let p = assemble_f64(&spec, 0);
        let a = p.levels[0].csr64();
        assert_eq!((a.diag(0), a.row(0).0.len()), (0.0, 8), "a corner keeps its zero diagonal");
        assert_eq!(a.nnz(), p.levels[0].nnz());
    }

    /// At 16³ on one rank, a zero-guess sweep reads 0.461 of the fine
    /// level's stored slab entries (8 colors; 64-row tiles): the first
    /// color none, later colors the slabs of earlier colors' offsets.
    #[test]
    fn zero_guess_masks_read_under_half_the_fine_slabs() {
        let p = assemble_f64(&spec_1rank(16, 4), 0);
        let l = &p.levels[0];
        let masks = l.zero_guess_masks();
        assert!(masks[0].iter().all(|&m| m == 0), "the first color reads no slab");
        assert!(masks.iter().flatten().all(|&m| m & (1 << CENTRE) == 0), "nor the diagonal");
        // 50,944 of 27 × 4,096 stored entries: a fraction of 0.461.
        assert_eq!((l.ell64().width(), l.n_local()), (27, 4096));
        assert_eq!(l.zero_guess_slots(), 50_944);
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
