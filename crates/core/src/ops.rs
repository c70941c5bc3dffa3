//! Distributed computational kernels over a [`Level`].
//!
//! Every kernel exists in the two forms the paper compares:
//!
//! * **Optimized** (§3.2): color-block ordered ELL storage, multicolor
//!   Gauss–Seidel in relaxation form, fused SpMV-restriction, and
//!   split-phase halo exchange that hides communication under interior
//!   work;
//! * **Reference** (§3.1): CSR storage, two-kernel level-scheduled
//!   Gauss–Seidel, full-grid residual + injection restriction, and
//!   blocking exchange before every kernel.
//!
//! Both forms compute identical values (tested); they differ in data
//! layout, fused work, and communication scheduling — exactly the
//! paper's claim that its speedups are implementation quality, not
//! algorithm changes.
//!
//! The optimized kernels walk [`Level::color_ranges`]: a Gauss–Seidel
//! color is one contiguous range of ELL positions, streamed as slab
//! tiles with a fused relaxation epilogue; the overlapped SpMV runs the
//! interior part (`start..split`) of every color while the halo is in
//! flight and the boundary part (`split..end`) after it, and the fused
//! restriction does the same over [`Level::restrict_ranges`], each
//! color's coarse-collocated positions. Vectors stay in natural row
//! numbering, so both variants read and write the same entries.

use crate::config::ImplVariant;
use crate::flops;
use crate::motifs::{Motif, MotifStats};
use crate::policy::PrecCtx;
use crate::problem::{Level, RefOperator};
use hpgmxp_comm::{Comm, CommResult, Timeline};
use hpgmxp_geometry::CoarseMap;
use hpgmxp_sparse::blas;
use hpgmxp_sparse::gauss_seidel::{gs_backward, gs_forward_reference, gs_range, gs_range_masked};
use hpgmxp_sparse::{ColorRange, EllMatrix, Half, Permutation, Scalar};
use hpgmxp_trace::Lane;
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// A borrowed view of one level's ELL operator at a runtime-selected
/// storage precision — the enum-dispatch layer that maps a
/// [`crate::policy::PrecisionPolicy`] back onto the monomorphized
/// split-precision kernels.
#[derive(Clone, Copy)]
pub enum EllRef<'a> {
    /// Double-stored values.
    F64(&'a EllMatrix<f64>),
    /// Single-stored values.
    F32(&'a EllMatrix<f32>),
    /// Half-stored values.
    F16(&'a EllMatrix<Half>),
}

/// A borrowed view of one level's reference operator — CSR form and
/// `(D+L, U)` factors — at a runtime storage precision (the reference
/// variant's format).
#[derive(Clone, Copy)]
pub enum CsrRef<'a> {
    /// Double-stored values.
    F64(&'a RefOperator<f64>),
    /// Single-stored values.
    F32(&'a RefOperator<f32>),
    /// Half-stored values.
    F16(&'a RefOperator<Half>),
}

/// Run `$body` with `$m` bound to the concrete operator inside an
/// [`EllRef`] / [`CsrRef`] — each kernel body is written once and
/// monomorphized per storage precision.
macro_rules! with_storage {
    ($r:expr, $enum:ident, $m:ident => $body:expr) => {
        match $r {
            $enum::F64($m) => $body,
            $enum::F32($m) => $body,
            $enum::F16($m) => $body,
        }
    };
}

impl<'a> EllRef<'a> {
    /// Padded row width.
    pub fn width(&self) -> usize {
        with_storage!(self, EllRef, m => m.width())
    }

    /// Matrix-value bytes of one full pass (storage precision).
    pub fn value_bytes(&self) -> usize {
        with_storage!(self, EllRef, m => m.value_bytes())
    }

    /// Value + index bytes of one full pass.
    pub fn spmv_matrix_bytes(&self) -> usize {
        with_storage!(self, EllRef, m => m.spmv_matrix_bytes())
    }

    /// The storage order (position ↔ row).
    pub fn order(&self) -> &'a Permutation {
        with_storage!(*self, EllRef, m => m.order())
    }
}

impl<'a> CsrRef<'a> {
    /// Matrix-value bytes of one full CSR pass (storage precision).
    pub fn value_bytes(&self) -> usize {
        with_storage!(self, CsrRef, m => m.csr.value_bytes())
    }

    /// Value + index + row-pointer bytes of one full CSR pass.
    pub fn spmv_matrix_bytes(&self) -> usize {
        with_storage!(self, CsrRef, m => m.csr.spmv_matrix_bytes())
    }
}

/// Shared context of every distributed kernel call.
pub struct OpCtx<'a, C: Comm> {
    /// Communicator of this rank.
    pub comm: &'a C,
    /// Which implementation variant to execute.
    pub variant: ImplVariant,
    /// Halo overlap ledger (usually disabled).
    pub timeline: &'a Timeline,
    /// Precision context: storage kind per level and halo wire format.
    /// [`PrecCtx::native`] follows the compute scalar everywhere —
    /// bit-identical to the pre-policy behavior.
    pub prec: PrecCtx,
}

impl<'a, C: Comm> OpCtx<'a, C> {
    /// Context with the native precision mapping (storage and wire
    /// follow the compute scalar).
    pub fn new(comm: &'a C, variant: ImplVariant, timeline: &'a Timeline) -> Self {
        OpCtx { comm, variant, timeline, prec: PrecCtx::native() }
    }

    /// Context with an explicit precision policy view.
    pub fn with_prec(
        comm: &'a C,
        variant: ImplVariant,
        timeline: &'a Timeline,
        prec: PrecCtx,
    ) -> Self {
        OpCtx { comm, variant, timeline, prec }
    }
}

/// Direction of a Gauss–Seidel sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDir {
    /// Ascending row/color order (HPG-MxP's smoother).
    Forward,
    /// Descending order (second half of HPCG's symmetric smoother).
    Backward,
}

/// Distributed `y = A x`. `x` must be a full distributed vector
/// (owned + ghosts); its ghost region is refreshed by the embedded halo
/// exchange. `y` receives the owned rows. Panics on a transport fault;
/// see [`dist_spmv_checked`] for the fault-tolerant form. Pinned by
/// the benchmark adapter, which calls this form.
pub fn dist_spmv<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    level: &Level,
    stats: &mut MotifStats,
    tag: u64,
    x: &mut [S],
    y: &mut [S],
) {
    dist_spmv_checked(ctx, level, stats, tag, x, y).unwrap_or_else(|e| panic!("{e}"));
}

/// [`dist_spmv`] that surfaces transport faults (dead peer, corrupt
/// frame, receive deadline) as a typed error instead of panicking.
pub fn dist_spmv_checked<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    level: &Level,
    stats: &mut MotifStats,
    tag: u64,
    x: &mut [S],
    y: &mut [S],
) -> CommResult<()> {
    let t0 = Instant::now();
    let kind = ctx.prec.storage_kind(level.depth, S::KIND);
    let wire = ctx.prec.wire_bytes(S::KIND);
    match ctx.variant {
        ImplVariant::Optimized => {
            // Overlap: send boundary values, compute interior rows while
            // messages fly, then finish with boundary rows (§3.2.3).
            // Both halves run on the thread pool; per-row accumulation
            // order is fixed, so results match the sequential path bit
            // for bit at every thread count. The type-state handle from
            // `begin` guarantees the finish is paired and lets `finish`
            // unpack whichever neighbor lands first. Storage precision
            // and ghost wire format come from the policy context; the
            // kernels widen stored values into `S` on load.
            let ell = level.ell_at(kind);
            let halo = level.halo.begin(ctx.comm, tag, x, wire, ctx.timeline)?;
            {
                let _s = hpgmxp_trace::span("SpMV interior", Lane::Compute);
                let interior = level.color_ranges.iter().map(ColorRange::interior);
                with_storage!(ell, EllRef, m => m.spmv_ranges(interior, x, y));
            }
            halo.finish(ctx.comm, x, ctx.timeline)?;
            {
                let _s = hpgmxp_trace::span("SpMV boundary", Lane::Compute);
                let boundary = level.color_ranges.iter().map(ColorRange::boundary);
                with_storage!(ell, EllRef, m => m.spmv_ranges(boundary, x, y));
            }
            stats.record_traffic(
                Motif::SpMV,
                ell.value_bytes() as f64,
                (ell.spmv_matrix_bytes() + 2 * level.n_local() * S::BYTES) as f64,
            );
        }
        ImplVariant::Reference => {
            level.halo.exchange_wire_checked(ctx.comm, tag, x, wire, ctx.timeline)?;
            let _s = hpgmxp_trace::span("SpMV", Lane::Compute);
            let csr = level.csr_at(kind);
            with_storage!(csr, CsrRef, m => m.csr.spmv_par(x, y));
            stats.record_traffic(
                Motif::SpMV,
                csr.value_bytes() as f64,
                (csr.spmv_matrix_bytes() + 2 * level.n_local() * S::BYTES) as f64,
            );
        }
    }
    stats.record_traffic(Motif::Comm, 0.0, level.halo.send_bytes_wire(wire) as f64);
    stats.record(Motif::SpMV, t0.elapsed().as_secs_f64(), flops::spmv(level.nnz()));
    Ok(())
}

/// One distributed Gauss–Seidel sweep for `A z = r`, updating `z` in
/// place. Ghosts of `z` are refreshed from neighbors' pre-sweep values
/// (each rank smooths its subdomain against the latest halo, the
/// standard HPCG semantics). Panics on a transport fault; pinned by
/// the benchmark adapter, which calls this form.
pub fn dist_gs_sweep<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    level: &Level,
    stats: &mut MotifStats,
    tag: u64,
    dir: SweepDir,
    r: &[S],
    z: &mut [S],
) {
    dist_gs_sweep_checked(ctx, level, stats, tag, dir, r, z).unwrap_or_else(|e| panic!("{e}"));
}

/// [`dist_gs_sweep`] that surfaces transport faults as a typed error.
pub fn dist_gs_sweep_checked<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    level: &Level,
    stats: &mut MotifStats,
    tag: u64,
    dir: SweepDir,
    r: &[S],
    z: &mut [S],
) -> CommResult<()> {
    let t0 = Instant::now();
    let kind = ctx.prec.storage_kind(level.depth, S::KIND);
    let wire = ctx.prec.wire_bytes(S::KIND);
    match ctx.variant {
        ImplVariant::Optimized => {
            // The first-processed color's interior rows hide the halo
            // exchange; its boundary rows and all later colors run after
            // the ghosts arrive. Packing happens inside `begin`, before
            // any row is updated — the paper's event-ordering constraint.
            let colors = &level.color_ranges;
            let (first, rest) = match dir {
                SweepDir::Forward => colors.split_first(),
                SweepDir::Backward => colors.split_last(),
            }
            .expect("a level has at least one color");
            let ell = level.ell_at(kind);
            with_storage!(ell, EllRef, m => {
                let halo = level.halo.begin(ctx.comm, tag, z, wire, ctx.timeline)?;
                {
                    let _s = hpgmxp_trace::span("GS interior (first color)", Lane::Compute);
                    gs_range(m, first.interior(), r, z);
                }
                halo.finish(ctx.comm, z, ctx.timeline)?;
                {
                    let _s = hpgmxp_trace::span("GS boundary (first color)", Lane::Compute);
                    gs_range(m, first.boundary(), r, z);
                }
                let _s = hpgmxp_trace::span("GS remaining colors", Lane::Compute);
                match dir {
                    SweepDir::Forward => rest.iter().for_each(|c| gs_range(m, c.all(), r, z)),
                    SweepDir::Backward => rest.iter().rev().for_each(|c| gs_range(m, c.all(), r, z)),
                }
            });
            // One pass over the padded matrix + rhs read + solution
            // read-modify-write at the compute precision.
            stats.record_traffic(
                Motif::GaussSeidel,
                ell.value_bytes() as f64,
                (ell.spmv_matrix_bytes() + 3 * level.n_local() * S::BYTES) as f64,
            );
        }
        ImplVariant::Reference => {
            level.halo.exchange_wire_checked(ctx.comm, tag, z, wire, ctx.timeline)?;
            let _s = hpgmxp_trace::span("GS (reference)", Lane::Compute);
            let csr = level.csr_at(kind);
            match dir {
                SweepDir::Forward => with_storage!(csr, CsrRef, m => {
                    gs_forward_reference(&m.lower, &m.upper, level.schedule(), r, z)
                }),
                // The reference code has no backward path on GPU; the
                // sequential sweep is its semantic equivalent.
                SweepDir::Backward => with_storage!(csr, CsrRef, m => gs_backward(&m.csr, r, z)),
            }
            stats.record_traffic(
                Motif::GaussSeidel,
                csr.value_bytes() as f64,
                (csr.spmv_matrix_bytes() + 5 * level.n_local() * S::BYTES) as f64,
            );
        }
    }
    stats.record_traffic(Motif::Comm, 0.0, level.halo.send_bytes_wire(wire) as f64);
    stats.record(
        Motif::GaussSeidel,
        t0.elapsed().as_secs_f64(),
        flops::gs_sweep(level.nnz(), level.n_local()),
    );
    Ok(())
}

/// The first forward sweep of a V-cycle's pre-smooth: `z ← 0`, ghosts
/// included, then one forward multicolor sweep for `A z = r`, equal bit
/// for bit to [`dist_gs_sweep`] (`Forward`) from that zero guess. From
/// zero, a row's dot product gains nothing from the diagonal, padding,
/// later colors or ghosts — all still zero — so each tile reads only
/// the slabs of [`Level::zero_guess_masks`] (the first color none), and
/// no halo is exchanged: every rank's ghosts would be zeros.
///
/// Records its nominal work (the full sweep's FLOPs, as the reference
/// sweep's) under [`Motif::GaussSeidel`], and the bytes it reads: the
/// masked slab segments, the diagonal, `r` and `z`.
pub(crate) fn gs_sweep_from_zero<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    level: &Level,
    stats: &mut MotifStats,
    r: &[S],
    z: &mut [S],
) {
    let t0 = Instant::now();
    let kind = ctx.prec.storage_kind(level.depth, S::KIND);
    z.fill(S::ZERO);
    {
        let _s = hpgmxp_trace::span("GS from zero", Lane::Compute);
        let masks = level.zero_guess_masks();
        with_storage!(level.ell_at(kind), EllRef, m => {
            for (c, color) in level.color_ranges.iter().enumerate() {
                gs_range_masked(m, color.all(), &masks[c], r, z);
            }
        });
    }
    let n = level.n_local();
    let slots = level.zero_guess_slots();
    stats.record_traffic(
        Motif::GaussSeidel,
        (slots * kind.bytes()) as f64,
        (slots * (kind.bytes() + 4) + n * (kind.bytes() + 2 * S::BYTES)) as f64,
    );
    stats.record(
        Motif::GaussSeidel,
        t0.elapsed().as_secs_f64(),
        flops::gs_sweep(level.nnz(), level.n_local()),
    );
}

/// Distributed restriction: compute the smoothed residual
/// `b_f − A_f z` and inject it onto the coarse grid, producing the
/// coarse right-hand side `rc` (owned coarse rows).
///
/// Optimized = the fused kernel of §3.2.4 (residual evaluated only at
/// coarse points, overlapped with the halo exchange of `z`).
/// Reference = §3.1 item 3: full fine-grid residual SpMV followed by
/// injection. Panics on a transport fault; pinned by the benchmark
/// adapter, which calls this form.
pub fn dist_restrict<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    fine: &Level,
    stats: &mut MotifStats,
    tag: u64,
    b_f: &[S],
    z: &mut [S],
    rc: &mut [S],
) {
    dist_restrict_checked(ctx, fine, stats, tag, b_f, z, rc).unwrap_or_else(|e| panic!("{e}"));
}

/// [`dist_restrict`] that surfaces transport faults as a typed error.
pub fn dist_restrict_checked<S: Scalar, C: Comm>(
    ctx: &OpCtx<C>,
    fine: &Level,
    stats: &mut MotifStats,
    tag: u64,
    b_f: &[S],
    z: &mut [S],
    rc: &mut [S],
) -> CommResult<()> {
    let map = fine.c2f.as_ref().expect("restriction requires a coarser level");
    let t0 = Instant::now();
    let kind = ctx.prec.storage_kind(fine.depth, S::KIND);
    let wire = ctx.prec.wire_bytes(S::KIND);
    match ctx.variant {
        ImplVariant::Optimized => {
            let ell = fine.ell_at(kind);
            with_storage!(ell, EllRef, m => {
                let halo = fine.halo.begin(ctx.comm, tag, z, wire, ctx.timeline)?;
                {
                    let _s = hpgmxp_trace::span("fused SpMV-restrict interior", Lane::Compute);
                    fused_restrict(m, fine, ColorRange::interior, b_f, z, rc);
                }
                halo.finish(ctx.comm, z, ctx.timeline)?;
                let _s = hpgmxp_trace::span("fused SpMV-restrict boundary", Lane::Compute);
                fused_restrict(m, fine, ColorRange::boundary, b_f, z, rc);
            });
            // The fused kernel touches `width` padded entries of each
            // coarse-collocated row (ELL row walk).
            let touched = ell.width() * map.n_coarse;
            stats.record_traffic(
                Motif::Restriction,
                (touched * kind.bytes()) as f64,
                (touched * (kind.bytes() + 4) + map.n_coarse * 2 * S::BYTES) as f64,
            );
            stats.record(
                Motif::Restriction,
                t0.elapsed().as_secs_f64(),
                flops::fused_restriction(fine.nnz_coarse_rows(), map.n_coarse),
            );
        }
        ImplVariant::Reference => {
            fine.halo.exchange_wire_checked(ctx.comm, tag, z, wire, ctx.timeline)?;
            let _s = hpgmxp_trace::span("residual SpMV + restrict", Lane::Compute);
            let n = fine.n_local();
            let mut tmp = vec![S::ZERO; n];
            let csr = fine.csr_at(kind);
            with_storage!(csr, CsrRef, m => m.csr.spmv(z, &mut tmp));
            for i in 0..n {
                tmp[i] = b_f[i] - tmp[i];
            }
            for (ci, &f) in map.c2f.iter().enumerate() {
                rc[ci] = tmp[f as usize];
            }
            stats.record_traffic(
                Motif::Restriction,
                csr.value_bytes() as f64,
                (csr.spmv_matrix_bytes() + (3 * n + 2 * map.n_coarse) * S::BYTES) as f64,
            );
            stats.record(
                Motif::Restriction,
                t0.elapsed().as_secs_f64(),
                flops::reference_restriction(fine.nnz(), n),
            );
        }
    }
    stats.record_traffic(Motif::Comm, 0.0, fine.halo.send_bytes_wire(wire) as f64);
    Ok(())
}

/// Fused residual-evaluate-and-inject (§3.2.4) over the `part`
/// (interior or boundary) of every color's collocated positions:
/// `rc[c] = b_f[f] − (A z)_f` for each coarse point `c` and its
/// collocated fine row `f`, in parallel slab tiles.
fn fused_restrict<S: Scalar, Acc: Scalar>(
    ell: &EllMatrix<S>,
    fine: &Level,
    part: fn(&ColorRange) -> Range<usize>,
    b_f: &[Acc],
    z: &[Acc],
    rc: &mut [Acc],
) {
    let shared = hpgmxp_sparse::shared::SharedMut::new(rc);
    let sh = &shared;
    ell.row_dots(fine.restrict_ranges.iter().map(part), z, |p0, dots| {
        for (j, &dot) in dots.iter().enumerate() {
            let f = ell.order().old_of_new(p0 + j);
            let c = CoarseMap::coarse_of(&fine.grid, f);
            assert!(c < sh.len(), "coarse row {} out of range {}", c, sh.len());
            // SAFETY: every position reaches one tile (`row_dots`) and
            // the collocated rows map to pairwise-distinct coarse rows,
            // so each task writes only its own `rc[c]`; tasks read only
            // `b_f` and `z`, which no task writes.
            unsafe { *sh.get_mut(c) = b_f[f] - dot };
        }
    });
}

/// Prolongation + correction: `z += Rᵀ zc` — scatter each coarse value
/// onto its collocated fine point, in parallel (collocated points are
/// always owned by the same rank, and the coarse→fine map is
/// injective).
pub fn prolong_add<S: Scalar>(fine: &Level, stats: &mut MotifStats, zc: &[S], z: &mut [S]) {
    let map = fine.c2f.as_ref().expect("prolongation requires a coarser level");
    let t0 = Instant::now();
    let shared = hpgmxp_sparse::shared::SharedMut::new(z);
    let sh = &shared;
    zc[..map.n_coarse].par_iter().enumerate().for_each(move |(i, &c)| {
        let f = map.c2f[i] as usize;
        assert!(f < sh.len(), "fine point {} out of range {}", f, sh.len());
        // SAFETY: `c2f` is injective, so every task touches a distinct
        // fine-grid element and nothing else reads `z` concurrently.
        unsafe { *sh.get_mut(f) += c };
    });
    stats.record(
        Motif::Prolongation,
        t0.elapsed().as_secs_f64(),
        flops::prolongation(map.n_coarse),
    );
}

/// Distributed dot product over owned entries, reduced across ranks.
/// Local arithmetic runs in `S`; the reduction always happens in `f64`
/// (as MPI would with a higher-precision reduction type). The local
/// part uses the deterministic blocked-pairwise reduction, so residual
/// histories are bit-identical at every `RAYON_NUM_THREADS`.
pub fn dist_dot<S: Scalar, C: Comm>(
    comm: &C,
    stats: &mut MotifStats,
    motif: Motif,
    x: &[S],
    y: &[S],
) -> CommResult<f64> {
    let t0 = Instant::now();
    let local = blas::dot_par(x, y).to_f64();
    let global = comm.allreduce_scalar(local, hpgmxp_comm::ReduceOp::Sum)?;
    stats.record(motif, t0.elapsed().as_secs_f64(), flops::dot(x.len()));
    Ok(global)
}

/// Distributed 2-norm over owned entries. NaN inputs (e.g. an fp16
/// inner solve that overflowed — the paper's standalone-half
/// breakdown) propagate as NaN instead of being masked to zero by the
/// `max`, so a broken solve reports non-convergence rather than a
/// silent false success.
pub fn dist_norm2<S: Scalar, C: Comm>(
    comm: &C,
    stats: &mut MotifStats,
    motif: Motif,
    x: &[S],
) -> CommResult<f64> {
    let d = dist_dot(comm, stats, motif, x, x)?;
    Ok(if d.is_nan() { f64::NAN } else { d.max(0.0).sqrt() })
}

/// Recorded `w = alpha x + beta y` (owned entries).
pub fn waxpby_op<S: Scalar>(
    stats: &mut MotifStats,
    alpha: S,
    x: &[S],
    beta: S,
    y: &[S],
    w: &mut [S],
) {
    let t0 = Instant::now();
    blas::waxpby(alpha, x, beta, y, w);
    stats.record(Motif::Waxpby, t0.elapsed().as_secs_f64(), flops::waxpby(w.len()));
}

/// Recorded `y += alpha x` (owned entries).
pub fn axpy_op<S: Scalar>(stats: &mut MotifStats, alpha: S, x: &[S], y: &mut [S]) {
    let t0 = Instant::now();
    blas::axpy(alpha, x, y);
    stats.record(Motif::Waxpby, t0.elapsed().as_secs_f64(), flops::axpy(y.len()));
}

/// Recorded mixed-precision solution update `y(f64) += alpha·x(S)` —
/// line 47 of Algorithm 3 as a single fused device kernel (§3.2.5),
/// generic over the inner (low) precision. This is the one mixed-AXPY
/// code path: the former f32-hardwired `axpy_mixed_op` was this
/// function instantiated at `S = f32`, bit for bit.
pub fn axpy_lo_mixed_op<S: Scalar>(stats: &mut MotifStats, alpha: f64, x: &[S], y: &mut [f64]) {
    let t0 = Instant::now();
    blas::axpy_lo_into_f64(alpha, x, y);
    stats.record(Motif::Waxpby, t0.elapsed().as_secs_f64(), flops::axpy(y.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PrecisionPolicy;
    use crate::problem::tests::assemble_f64;
    use crate::problem::{assemble_with_policy, ProblemSpec};
    use hpgmxp_comm::{run_spmd, SelfComm};
    use hpgmxp_geometry::{ProcGrid, Stencil27};
    use hpgmxp_sparse::gauss_seidel::gs_rows_ordered;
    use hpgmxp_sparse::PrecKind;

    fn spec(procs: ProcGrid, n: u32, levels: usize) -> ProblemSpec {
        ProblemSpec {
            local: (n, n, n),
            procs,
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 7,
        }
    }

    /// Distributed SpMV across 2 ranks must equal the serial SpMV of the
    /// equivalent global problem, in both variants.
    #[test]
    fn dist_spmv_matches_serial() {
        for variant in [ImplVariant::Optimized, ImplVariant::Reference] {
            let procs = ProcGrid::new(2, 1, 1);
            let results = run_spmd(2, move |c| {
                let p = assemble_f64(&spec(procs, 4, 1), c.rank());
                let l = &p.levels[0];
                let mut stats = MotifStats::new();
                let tl = Timeline::disabled();
                let octx = OpCtx::new(&c, variant, &tl);
                // x holds each point's global id.
                let g = l.grid.global();
                let mut x = vec![0.0f64; l.vec_len()];
                for (i, xi) in x[..l.n_local()].iter_mut().enumerate() {
                    let (ix, iy, iz) = l.grid.coords(i);
                    let (gx, gy, gz) = l.grid.to_global(ix, iy, iz);
                    *xi = g.index(gx, gy, gz) as f64 * 0.01;
                }
                let mut y = vec![0.0f64; l.n_local()];
                dist_spmv(&octx, l, &mut stats, 0, &mut x, &mut y);
                (c.rank(), y)
            });

            // Serial equivalent: 8x4x4 global grid.
            let serial_spec = ProblemSpec {
                local: (8, 4, 4),
                procs: ProcGrid::new(1, 1, 1),
                stencil: Stencil27::symmetric(),
                mg_levels: 1,
                seed: 7,
            };
            let sp = assemble_f64(&serial_spec, 0);
            let sl = &sp.levels[0];
            let g = sl.grid.global();
            let mut x = vec![0.0f64; sl.vec_len()];
            for (i, xi) in x[..sl.n_local()].iter_mut().enumerate() {
                let (ix, iy, iz) = sl.grid.coords(i);
                *xi = g.index(ix as u64, iy as u64, iz as u64) as f64 * 0.01;
            }
            let mut y_serial = vec![0.0f64; sl.n_local()];
            sl.csr64().spmv(&x, &mut y_serial);

            for (rank, y) in results {
                let lg = hpgmxp_geometry::LocalGrid::new((4, 4, 4), procs, rank as u32);
                for (i, yi) in y.iter().enumerate() {
                    let (ix, iy, iz) = lg.coords(i);
                    let (gx, gy, gz) = lg.to_global(ix, iy, iz);
                    let si = g.index(gx, gy, gz) as usize;
                    assert!(
                        (yi - y_serial[si]).abs() < 1e-12,
                        "variant {:?} rank {} row {}: {} vs {}",
                        variant,
                        rank,
                        i,
                        yi,
                        y_serial[si]
                    );
                }
            }
        }
    }

    /// One overlapped optimized sweep under `policy` equals, bit for
    /// bit, the sequential sweep over the rows in color order (colors
    /// descending for a backward sweep) after the same halo exchange.
    fn assert_sweep_is_color_ordered<S: Scalar, C: Comm>(
        c: &C,
        l: &Level,
        policy: &PrecisionPolicy,
        dir: SweepDir,
        tag: u64,
    ) {
        let tl = Timeline::disabled();
        let mut stats = MotifStats::new();
        let prec = policy.ctx();
        let r: Vec<S> = (0..l.n_local()).map(|i| S::from_f64((i as f64) * 0.1 - 2.0)).collect();
        let octx = OpCtx::with_prec(c, ImplVariant::Optimized, &tl, prec);
        let mut z_opt = vec![S::from_f64(0.3); l.vec_len()];
        dist_gs_sweep(&octx, l, &mut stats, tag, dir, &r, &mut z_opt);

        let mut z_seq = vec![S::from_f64(0.3); l.vec_len()];
        l.halo.exchange_wire(c, tag + 1, &mut z_seq, prec.wire_bytes(S::KIND), &tl);
        let ell = l.ell_at(prec.storage_kind(l.depth, S::KIND));
        let mut positions: Vec<usize> = (0..l.n_local()).collect();
        if dir == SweepDir::Backward {
            let colors = l.color_ranges.iter().rev();
            positions = colors.flat_map(ColorRange::all).collect();
        }
        let rows: Vec<u32> = positions.iter().map(|&p| ell.order().old_of_new(p) as u32).collect();
        with_storage!(ell, EllRef, m => gs_rows_ordered(m, &rows, &r, &mut z_seq));
        let bits = |z: &[S]| z.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&z_opt), bits(&z_seq), "policy {} {dir:?}", policy.name);
    }

    /// The optimized sweep is the color-ordered sequential sweep in both
    /// directions and at every storage/compute precision; reference and
    /// lexicographic agree.
    #[test]
    fn gs_variants_agree_with_their_references() {
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let f16s = PrecisionPolicy::by_name("f16s-f32c").expect("shipped policy");
            for (k, policy) in
                [PrecisionPolicy::f64(), PrecisionPolicy::f32(), f16s].iter().enumerate()
            {
                let p = assemble_with_policy(&spec(procs, 8, 1), c.rank(), policy);
                let l = &p.levels[0];
                for (d, dir) in [SweepDir::Forward, SweepDir::Backward].into_iter().enumerate() {
                    let tag = 10 * (2 * k + d) as u64;
                    match policy.compute {
                        PrecKind::F64 => {
                            assert_sweep_is_color_ordered::<f64, _>(&c, l, policy, dir, tag)
                        }
                        PrecKind::F32 => {
                            assert_sweep_is_color_ordered::<f32, _>(&c, l, policy, dir, tag)
                        }
                        PrecKind::F16 => unreachable!("no fp16-compute policy in this list"),
                    }
                }
            }

            // Reference sweep equals the sequential lexicographic sweep.
            let p = assemble_f64(&spec(procs, 4, 1), c.rank());
            let l = &p.levels[0];
            let tl = Timeline::disabled();
            let mut stats = MotifStats::new();
            let r: Vec<f64> = (0..l.n_local()).map(|i| (i as f64) * 0.1 - 2.0).collect();
            let rctx = OpCtx::new(&c, ImplVariant::Reference, &tl);
            let mut z_ref = vec![0.3f64; l.vec_len()];
            dist_gs_sweep(&rctx, l, &mut stats, 2, SweepDir::Forward, &r, &mut z_ref);
            let mut z_lex = vec![0.3f64; l.vec_len()];
            l.halo.exchange_wire_checked(&c, 3, &mut z_lex, f64::BYTES, &tl).unwrap();
            hpgmxp_sparse::gauss_seidel::gs_forward(l.csr64(), &r, &mut z_lex);
            for (a, b) in z_ref.iter().zip(z_lex.iter()) {
                assert!((a - b).abs() < 1e-13);
            }
        });
    }

    /// On every level of a 4-level 16³ hierarchy, under every shipped
    /// policy, at P = 1 and P = 2 thread-ranks: the zero-guess sweep
    /// equals the full forward sweep from `z = 0` bit for bit, records
    /// the same FLOPs, no halo bytes, and reads only its masked slabs.
    #[test]
    fn zero_guess_sweep_equals_full_sweep_from_zero() {
        fn check<S: Scalar, C: Comm>(c: &C, l: &Level, policy: &PrecisionPolicy, tag: u64) {
            let tl = Timeline::disabled();
            let ctx = OpCtx::with_prec(c, ImplVariant::Optimized, &tl, policy.ctx());
            let r: Vec<S> =
                (0..l.n_local()).map(|i| S::from_f64(((i * 7) % 13) as f64 * 0.25 - 1.0)).collect();
            let (mut full, mut from_zero) = (MotifStats::new(), MotifStats::new());
            let mut z_full = vec![S::ZERO; l.vec_len()];
            dist_gs_sweep(&ctx, l, &mut full, tag, SweepDir::Forward, &r, &mut z_full);
            let mut z = vec![S::from_f64(0.7); l.vec_len()];
            gs_sweep_from_zero(&ctx, l, &mut from_zero, &r, &mut z);
            let bits = |z: &[S]| z.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
            let what = format!("policy {} level {}", policy.name, l.depth);
            assert_eq!(bits(&z), bits(&z_full), "{what}");
            let gs = Motif::GaussSeidel;
            assert_eq!(from_zero.flops(gs), full.flops(gs), "{what}");
            assert_eq!(from_zero.bytes(Motif::Comm), 0.0, "{what}");
            let kind = policy.ctx().storage_kind(l.depth, S::KIND);
            let slots = l.zero_guess_slots();
            assert!(slots < l.ell_at(kind).width() * l.n_local(), "{what}");
            assert_eq!(from_zero.value_bytes(gs), (slots * kind.bytes()) as f64, "{what}");
        }
        for p in [1u32, 2] {
            let procs = ProcGrid::factor(p);
            run_spmd(p as usize, move |c| {
                let local = (16 / procs.px, 16 / procs.py, 16 / procs.pz);
                for (k, policy) in PrecisionPolicy::shipped().iter().enumerate() {
                    let spec = ProblemSpec { local, ..spec(procs, 16, 4) };
                    let prob = assemble_with_policy(&spec, c.rank(), policy);
                    for l in &prob.levels {
                        let tag = (10 * k + l.depth) as u64;
                        match policy.compute {
                            PrecKind::F64 => check::<f64, _>(&c, l, policy, tag),
                            PrecKind::F32 => check::<f32, _>(&c, l, policy, tag),
                            PrecKind::F16 => check::<Half, _>(&c, l, policy, tag),
                        }
                    }
                }
            });
        }
    }

    /// Fused and reference restrictions agree.
    #[test]
    fn restrict_variants_agree() {
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let p = assemble_f64(&spec(procs, 8, 2), c.rank());
            let l = &p.levels[0];
            let nc = p.levels[1].n_local();
            let tl = Timeline::disabled();
            let mut stats = MotifStats::new();
            let b_f: Vec<f64> = (0..l.n_local()).map(|i| (i % 11) as f64).collect();
            let z0: Vec<f64> = (0..l.vec_len()).map(|i| ((i * 3) % 7) as f64 * 0.1).collect();

            let octx = OpCtx::new(&c, ImplVariant::Optimized, &tl);
            let mut z1 = z0.clone();
            let mut rc1 = vec![0.0f64; nc];
            dist_restrict(&octx, l, &mut stats, 0, &b_f, &mut z1, &mut rc1);

            let rctx = OpCtx::new(&c, ImplVariant::Reference, &tl);
            let mut z2 = z0.clone();
            let mut rc2 = vec![0.0f64; nc];
            dist_restrict(&rctx, l, &mut stats, 1, &b_f, &mut z2, &mut rc2);

            for (a, b) in rc1.iter().zip(rc2.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        });
    }

    #[test]
    fn prolong_scatters_to_collocated_points() {
        let p = assemble_f64(&spec(ProcGrid::new(1, 1, 1), 4, 2), 0);
        let l = &p.levels[0];
        let mut stats = MotifStats::new();
        let map = l.c2f.as_ref().unwrap();
        let zc: Vec<f64> = (0..map.n_coarse).map(|i| i as f64 + 1.0).collect();
        let mut z = vec![0.0f64; l.vec_len()];
        prolong_add(l, &mut stats, &zc, &mut z);
        let total: f64 = z.iter().sum();
        assert_eq!(total, (1..=map.n_coarse as u64).sum::<u64>() as f64);
        assert!(stats.flops(Motif::Prolongation) > 0.0);
    }

    #[test]
    fn dist_dot_reduces_across_ranks() {
        let results = run_spmd(4, |c| {
            let mut stats = MotifStats::new();
            let x = vec![1.0f64; 10];
            let y = vec![c.rank() as f64; 10];
            dist_dot(&c, &mut stats, Motif::Dot, &x, &y).unwrap()
        });
        // sum over ranks of 10*rank = 10*(0+1+2+3) = 60.
        for v in results {
            assert_eq!(v, 60.0);
        }
    }

    #[test]
    fn dist_norm_single_rank() {
        let c = SelfComm;
        let mut stats = MotifStats::new();
        let x = vec![3.0f32, 4.0];
        let n = dist_norm2(&c, &mut stats, Motif::Dot, &x).unwrap();
        assert!((n - 5.0).abs() < 1e-6);
    }

    #[test]
    fn vector_ops_record_motifs() {
        let mut stats = MotifStats::new();
        let x = vec![1.0f64; 8];
        let y = vec![2.0f64; 8];
        let mut w = vec![0.0f64; 8];
        waxpby_op(&mut stats, 2.0, &x, 1.0, &y, &mut w);
        assert_eq!(w[0], 4.0);
        axpy_op(&mut stats, -1.0, &x, &mut w);
        assert_eq!(w[0], 3.0);
        let x32 = vec![0.5f32; 8];
        let mut y64 = vec![0.0f64; 8];
        axpy_lo_mixed_op(&mut stats, 2.0, &x32, &mut y64);
        assert_eq!(y64[0], 1.0);
        assert!(stats.flops(Motif::Waxpby) > 0.0);
    }
}
