//! Measured mixed-precision study on this machine: time every motif's
//! real kernel in f64 and f32 and report the speedups — the
//! workstation-scale analog of the paper's figure 5, produced from
//! actual kernel executions rather than the machine model.
//!
//! Run: `cargo run --release --example mixed_precision_study`

use hpg_mxp::core::policy::PrecisionPolicy;
use hpg_mxp::core::problem::{assemble_with_policy, ProblemSpec};
use hpg_mxp::geometry::{ProcGrid, Stencil27};
use hpg_mxp::sparse::blas::{self, Basis};
use hpg_mxp::sparse::gauss_seidel::gs_multicolor;
use std::hint::black_box;
use std::time::Instant;

/// Median-of-5 wall time of repeated executions of `f`.
fn time_it(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() / reps as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[2]
}

fn main() {
    let n_edge = 48u32;
    let spec = ProblemSpec {
        local: (n_edge, n_edge, n_edge),
        procs: ProcGrid::new(1, 1, 1),
        stencil: Stencil27::symmetric(),
        mg_levels: 1,
        seed: 3,
    };
    // The f32 policy's fine level holds the operator at f64 and f32.
    let problem = assemble_with_policy(&spec, 0, &PrecisionPolicy::f32());
    let l = &problem.levels[0];
    let n = l.n_local();
    println!("measured f64 -> f32 kernel speedups, {}^3 ({} rows):\n", n_edge, n);

    let (csr32, ell32) = (l.csr32(), l.ell32());
    let x64: Vec<f64> = (0..l.vec_len()).map(|i| (i as f64 * 1e-3).sin()).collect();
    let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
    let r64: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
    let r32: Vec<f32> = r64.iter().map(|&v| v as f32).collect();

    let mut results: Vec<(&str, f64, f64)> = Vec::new();

    // SpMV (ELL, the optimized format).
    let mut y64 = vec![0.0f64; n];
    let t64 = time_it(5, || l.ell64().spmv(black_box(&x64), &mut y64));
    let mut y32 = vec![0.0f32; n];
    let t32 = time_it(5, || ell32.spmv(black_box(&x32), &mut y32));
    results.push(("SpMV (ELL)", t64, t32));

    // SpMV (CSR, the reference format).
    let t64 = time_it(5, || l.csr64().spmv(black_box(&x64), &mut y64));
    let t32 = time_it(5, || csr32.spmv(black_box(&x32), &mut y32));
    results.push(("SpMV (CSR)", t64, t32));

    // Multicolor Gauss–Seidel sweep.
    let mut z64 = vec![0.0f64; l.vec_len()];
    let t64 = time_it(5, || gs_multicolor(l.ell64(), &l.color_ranges, black_box(&r64), &mut z64));
    let mut z32 = vec![0.0f32; l.vec_len()];
    let t32 = time_it(5, || gs_multicolor(ell32, &l.color_ranges, black_box(&r32), &mut z32));
    results.push(("GS sweep (multicolor)", t64, t32));

    // CGS2's GEMV-T over 15 basis vectors.
    let k = 15;
    let mut q64: Basis<f64> = Basis::new(n, k + 1);
    let mut q32: Basis<f32> = Basis::new(n, k + 1);
    for j in 0..=k {
        for (i, v) in q64.col_mut(j).iter_mut().enumerate() {
            *v = ((i + j) as f64 * 1e-3).cos();
        }
        for (i, v) in q32.col_mut(j).iter_mut().enumerate() {
            *v = ((i + j) as f32 * 1e-3).cos();
        }
    }
    let t64 = time_it(5, || {
        black_box(q64.project_local(k));
    });
    let t32 = time_it(5, || {
        black_box(q32.project_local(k));
    });
    results.push(("Ortho GEMV-T (k=15)", t64, t32));

    // DOT and WAXPBY.
    let t64 = time_it(20, || {
        black_box(blas::dot(&x64[..n], &r64));
    });
    let t32 = time_it(20, || {
        black_box(blas::dot(&x32[..n], &r32));
    });
    results.push(("DOT", t64, t32));

    let mut w64 = vec![0.0f64; n];
    let mut w32 = vec![0.0f32; n];
    let t64 = time_it(20, || blas::waxpby(1.5, &x64[..n], 0.5, &r64, &mut w64));
    let t32 = time_it(20, || blas::waxpby(1.5f32, &x32[..n], 0.5, &r32, &mut w32));
    results.push(("WAXPBY", t64, t32));

    println!("{:<24} {:>12} {:>12} {:>9}", "kernel", "f64 (ms)", "f32 (ms)", "speedup");
    for (name, t64, t32) in &results {
        println!("{:<24} {:>12.3} {:>12.3} {:>8.2}x", name, t64 * 1e3, t32 * 1e3, t64 / t32);
    }
    println!("\n(paper, figure 5: ortho ~2x, GS/SpMV 1.4-1.6x — index arrays don't shrink with precision;");
    println!(" absolute ratios here depend on this CPU's cache hierarchy, the *ordering* is the shape target)");
}
