//! Cross-thread-count determinism suite.
//!
//! The memory-wall experiments only make sense if changing
//! `RAYON_NUM_THREADS` changes *speed* and nothing else. Every motif
//! kernel is therefore required to produce **bit-identical** results at
//! 1, 2, and 8 threads:
//!
//! * elementwise kernels (axpy, waxpby, scaled narrowing) are chunked
//!   but order-preserving,
//! * dot products and the CGS2 projection use the one deterministic
//!   reduction (`blas::dot_par`, `Basis::project_local`: lane-blocked
//!   partials per fixed block, a pairwise tree over the blocks),
//! * SpMV accumulates each row in fixed slab/entry order in every
//!   traversal variant,
//! * the multicolor Gauss–Seidel sweep writes disjoint rows per color
//!   (one contiguous range of color-block ordered ELL positions),
//!
//! so the GMRES-IR residual history — the quantity the paper's
//! validation criterion is defined on — must replay exactly.

use hpgmxp_comm::{SelfComm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::GmresOptions;
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_sparse::blas::{self, Basis};
use hpgmxp_sparse::gauss_seidel::gs_multicolor;
use hpgmxp_sparse::{ColorRange, EllMatrix};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `kernel` under pools of 1, 2, and 8 threads and assert all
/// outcomes equal the 1-thread result.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(what: &str, kernel: impl Fn() -> T) {
    let mut reference: Option<T> = None;
    for threads in THREAD_COUNTS {
        let pool = rayon::ThreadPool::new(threads);
        let out = pool.install(&kernel);
        match &reference {
            None => reference = Some(out),
            Some(r) => {
                assert_eq!(&out, r, "{what}: result changed between 1 and {threads} threads")
            }
        }
    }
}

/// Assembled under the `f32` policy the solves below run; its fine
/// level also carries the f64 matrices the kernel tests read.
fn test_problem(n: u32, levels: usize) -> hpgmxp_core::problem::LocalProblem {
    assemble_with_policy(
        &ProblemSpec {
            local: (n, n, n),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 3,
        },
        0,
        &PrecisionPolicy::f32(),
    )
}

#[test]
fn vector_kernels_are_bit_identical_across_thread_counts() {
    let n = 100_003; // prime-ish: exercises ragged tail chunks
    let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 1009) as f64).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| ((i * 17 % 997) as f64).cos()).collect();

    assert_thread_invariant("dot_par", || blas::dot_par(&x, &y).to_bits());
    // The row-tiled GEMV-T over seven projection tiles, last one ragged.
    let mut basis: Basis<f64> = Basis::new(n, 4);
    for (j, v) in [&x, &y, &x, &y].into_iter().enumerate() {
        basis.col_mut(j).iter_mut().zip(v).for_each(|(b, &s)| *b = s * (j + 1) as f64);
    }
    assert_thread_invariant("project_local", || {
        let mut q = basis.clone();
        q.project_local(3).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    assert_thread_invariant("axpy", || {
        let mut z = y.clone();
        blas::axpy(1.2345678901234, &x, &mut z);
        z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    assert_thread_invariant("waxpby", || {
        let mut w = vec![0.0f64; n];
        blas::waxpby(0.3, &x, -1.7, &y, &mut w);
        w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    assert_thread_invariant("scale_f64_into_f32", || {
        let mut lo = vec![0.0f32; n];
        blas::scale_f64_into_f32(1.0 / 3.0, &x, &mut lo);
        lo.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
}

#[test]
fn spmv_variants_are_bit_identical_across_thread_counts() {
    let prob = test_problem(16, 1);
    let l = &prob.levels[0];
    let x: Vec<f64> = (0..l.vec_len()).map(|i| ((i * 7 % 411) as f64) * 0.01 - 2.0).collect();

    assert_thread_invariant("csr spmv_par", || {
        let mut y = vec![0.0f64; l.n_local()];
        l.csr64().spmv_par(&x, &mut y);
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    assert_thread_invariant("ell spmv_par (heuristic)", || {
        let mut y = vec![0.0f64; l.n_local()];
        l.ell64().spmv_par(&x, &mut y);
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    assert_thread_invariant("ell spmv_ranges (interior, then boundary)", || {
        let mut y = vec![0.0f64; l.n_local()];
        l.ell64().spmv_ranges(l.color_ranges.iter().map(ColorRange::interior), &x, &mut y);
        l.ell64().spmv_ranges(l.color_ranges.iter().map(ColorRange::boundary), &x, &mut y);
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    // All traversals agree with the sequential column-major walk.
    let mut y_seq = vec![0.0f64; l.n_local()];
    l.ell64().spmv(&x, &mut y_seq);
    let mut y_par = vec![0.0f64; l.n_local()];
    rayon::ThreadPool::new(8).install(|| l.ell64().spmv_par(&x, &mut y_par));
    assert_eq!(y_seq, y_par);
}

#[test]
fn multicolor_gs_sweep_is_bit_identical_across_thread_counts() {
    let prob = test_problem(16, 1);
    let l = &prob.levels[0];
    let ell: &EllMatrix<f64> = l.ell64();
    let r: Vec<f64> = (0..l.n_local()).map(|i| (i % 23) as f64 - 11.0).collect();

    assert_thread_invariant("gs_multicolor", || {
        let mut z = vec![0.25f64; l.vec_len()];
        gs_multicolor(ell, &l.color_ranges, &r, &mut z);
        z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
}

/// The acceptance criterion of this PR: the GMRES-IR smoke solve must
/// replay its residual history bit for bit at 1, 2, and 8 threads.
#[test]
fn gmres_ir_residual_history_is_bit_identical_across_thread_counts() {
    let run = || {
        let prob = test_problem(16, 3);
        let tl = Timeline::disabled();
        let opts = GmresOptions {
            max_iters: 300,
            track_history: true,
            variant: ImplVariant::Optimized,
            ..Default::default()
        };
        let (x, st) = gmres_ir_solve_policy(&SelfComm, &prob, &PrecisionPolicy::f32(), &opts, &tl);
        assert!(st.converged, "smoke solve must converge (relres {})", st.final_relres);
        let history_bits: Vec<u64> = st.history.iter().map(|v| v.to_bits()).collect();
        let x_bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        (history_bits, x_bits, st.iters)
    };
    assert_thread_invariant("gmres_ir history", run);
}

/// Same property for the reference implementation variant (CSR +
/// level-scheduled sweeps run through the pool too).
#[test]
fn reference_variant_history_is_bit_identical_across_thread_counts() {
    let run = || {
        let prob = test_problem(8, 2);
        let tl = Timeline::disabled();
        let opts = GmresOptions {
            max_iters: 300,
            track_history: true,
            variant: ImplVariant::Reference,
            ..Default::default()
        };
        let (_, st) = gmres_ir_solve_policy(&SelfComm, &prob, &PrecisionPolicy::f32(), &opts, &tl);
        st.history.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert_thread_invariant("gmres_ir reference history", run);
}
