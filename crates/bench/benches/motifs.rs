//! Criterion microbenchmarks of every computational motif, in both
//! precisions and both storage formats — the measured counterpart of
//! the paper's figure 5/8 kernel comparisons on this machine.
//!
//! Run: `cargo bench -p hpgmxp-bench --bench motifs`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpgmxp_bench::single_rank_problem;
use hpgmxp_core::ops::CsrRef;
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_sparse::blas::{self, Basis};
use hpgmxp_sparse::gauss_seidel::{gs_forward, gs_forward_reference, gs_multicolor};
use hpgmxp_sparse::simd::{self, SimdLevel};
use hpgmxp_sparse::{Half, PrecKind, Scalar};
use std::hint::black_box;
use std::time::Duration;

const N: u32 = 32;

fn tune(c: &mut Criterion) -> &mut Criterion {
    c
}

/// A problem whose fine level holds `f64` and the policy's storage.
fn fine_problem(name: &str) -> hpgmxp_core::problem::LocalProblem {
    let policy = PrecisionPolicy::by_name(name).expect("shipped policy");
    single_rank_problem(N, 1, &policy)
}

fn bench_spmv(c: &mut Criterion) {
    let prob = fine_problem("f32");
    let (csr64, ell64) = (prob.levels[0].csr64(), prob.levels[0].ell64());
    let (csr32, ell32) = (prob.levels[0].csr32(), prob.levels[0].ell32());
    let n = csr64.ncols();
    let x64: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
    let mut y64 = vec![0.0f64; csr64.nrows()];
    let mut y32 = vec![0.0f32; csr64.nrows()];

    let mut g = tune(c).benchmark_group("spmv");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    g.throughput(Throughput::Bytes(csr64.spmv_matrix_bytes() as u64));
    g.bench_function(BenchmarkId::new("csr", "fp64"), |b| {
        b.iter(|| csr64.spmv(black_box(&x64), &mut y64))
    });
    g.bench_function(BenchmarkId::new("csr", "fp32"), |b| {
        b.iter(|| csr32.spmv(black_box(&x32), &mut y32))
    });
    g.bench_function(BenchmarkId::new("csr_par", "fp64"), |b| {
        b.iter(|| csr64.spmv_par(black_box(&x64), &mut y64))
    });
    g.throughput(Throughput::Bytes(ell64.spmv_matrix_bytes() as u64));
    g.bench_function(BenchmarkId::new("ell", "fp64"), |b| {
        b.iter(|| ell64.spmv(black_box(&x64), &mut y64))
    });
    g.bench_function(BenchmarkId::new("ell", "fp32"), |b| {
        b.iter(|| ell32.spmv(black_box(&x32), &mut y32))
    });
    g.bench_function(BenchmarkId::new("ell_par", "fp64"), |b| {
        b.iter(|| ell64.spmv_par(black_box(&x64), &mut y64))
    });
    g.throughput(Throughput::Bytes(ell32.spmv_matrix_bytes() as u64));
    g.bench_function(BenchmarkId::new("ell_par", "fp32"), |b| {
        b.iter(|| ell32.spmv_par(black_box(&x32), &mut y32))
    });
    // Split-precision kernels (precision-policy engine): values loaded
    // at a narrower storage precision than the accumulators — the
    // matrix-value stream halves/quarters while results keep the
    // accumulate precision's rounding.
    let prob16 = fine_problem("f16s-f32c");
    let ell16 = prob16.levels[0].ell16();
    g.throughput(Throughput::Bytes(ell32.spmv_matrix_bytes() as u64));
    g.bench_function(BenchmarkId::new("ell_split", "f32s-f64a"), |b| {
        b.iter(|| ell32.spmv_par(black_box(&x64), &mut y64))
    });
    g.throughput(Throughput::Bytes(ell16.spmv_matrix_bytes() as u64));
    g.bench_function(BenchmarkId::new("ell_split", "f16s-f32a"), |b| {
        b.iter(|| ell16.spmv_par(black_box(&x32), &mut y32))
    });
    g.finish();
}

fn bench_gauss_seidel(c: &mut Criterion) {
    let prob = fine_problem("f32");
    let l = &prob.levels[0];
    let ell32 = l.ell32();
    let n = l.n_local();
    let r64: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
    let r32: Vec<f32> = r64.iter().map(|&v| v as f32).collect();
    let CsrRef::F64(reference) = l.csr_at(PrecKind::F64) else { unreachable!("f64 asked") };
    let (low, up, schedule) = (&reference.lower, &reference.upper, l.schedule());

    let mut g = c.benchmark_group("gauss_seidel");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    g.throughput(Throughput::Bytes(l.csr64().spmv_matrix_bytes() as u64));
    g.bench_function("lexicographic fp64", |b| {
        let mut z = vec![0.0f64; l.vec_len()];
        b.iter(|| gs_forward(l.csr64(), black_box(&r64), &mut z))
    });
    g.throughput(Throughput::Bytes(l.ell64().spmv_matrix_bytes() as u64));
    g.bench_function("multicolor ELL fp64", |b| {
        let mut z = vec![0.0f64; l.vec_len()];
        b.iter(|| gs_multicolor(l.ell64(), &l.color_ranges, black_box(&r64), &mut z))
    });
    g.throughput(Throughput::Bytes(ell32.spmv_matrix_bytes() as u64));
    g.bench_function("multicolor ELL fp32", |b| {
        let mut z = vec![0.0f32; l.vec_len()];
        b.iter(|| gs_multicolor(ell32, &l.color_ranges, black_box(&r32), &mut z))
    });
    // Split sweep (precision-policy engine): fp32-stored values, f64
    // relaxation arithmetic — matrix traffic of fp32 at f64 rounding.
    g.bench_function("multicolor ELL split f32s-f64a", |b| {
        let mut z = vec![0.0f64; l.vec_len()];
        b.iter(|| gs_multicolor(ell32, &l.color_ranges, black_box(&r64), &mut z))
    });
    // One sweep streams the upper factor (SpMV) then the lower factor
    // (triangular solve); together they cover A's nonzeros once, plus
    // the structural zero diagonals and the second row-pointer array.
    g.throughput(Throughput::Bytes((low.spmv_matrix_bytes() + up.spmv_matrix_bytes()) as u64));
    g.bench_function("reference two-kernel fp64", |b| {
        let mut z = vec![0.0f64; l.vec_len()];
        b.iter(|| gs_forward_reference(low, up, schedule, black_box(&r64), &mut z))
    });
    g.finish();
}

fn bench_ortho(c: &mut Criterion) {
    // Three row tiles of the GEMV-T, the last one ragged.
    let n = 2 * blas::DOT_BLOCK + 17;
    let k = 15usize;
    let mut q64: Basis<f64> = Basis::new(n, k + 1);
    let mut q32: Basis<f32> = Basis::new(n, k + 1);
    for j in 0..=k {
        for (i, v) in q64.col_mut(j).iter_mut().enumerate() {
            *v = ((i * (j + 1)) as f64 * 0.001).sin();
        }
        for (i, v) in q32.col_mut(j).iter_mut().enumerate() {
            *v = ((i * (j + 1)) as f32 * 0.001).sin();
        }
    }
    let mut g = c.benchmark_group("ortho_gemv");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    // k columns plus the projected column, each read once.
    g.throughput(Throughput::Bytes((n * (k + 1) * 8) as u64));
    g.bench_function("project fp64", |b| b.iter(|| black_box(q64.project_local(k)[0])));
    g.throughput(Throughput::Bytes((n * (k + 1) * 4) as u64));
    g.bench_function("project fp32", |b| b.iter(|| black_box(q32.project_local(k)[0])));
    g.finish();
}

fn bench_vector_ops(c: &mut Criterion) {
    let n = 1 << 18;
    let x64: Vec<f64> = (0..n).map(|i| i as f64 * 1e-6).collect();
    let y64 = x64.clone();
    let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
    let y32 = x32.clone();

    let mut g = c.benchmark_group("blas1");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    g.throughput(Throughput::Bytes((n * 16) as u64));
    g.bench_function("dot fp64", |b| b.iter(|| black_box(blas::dot(&x64, &y64))));
    g.bench_function("dot_par fp64", |b| b.iter(|| black_box(blas::dot_par(&x64, &y64))));
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("dot fp32", |b| b.iter(|| black_box(blas::dot(&x32, &y32))));
    g.bench_function("dot_par fp32", |b| b.iter(|| black_box(blas::dot_par(&x32, &y32))));
    // waxpby streams x, y in and w out: 3 slices.
    g.throughput(Throughput::Bytes((n * 24) as u64));
    g.bench_function("waxpby fp64", |b| {
        let mut w = vec![0.0f64; n];
        b.iter(|| blas::waxpby(2.0, &x64, 0.5, &y64, &mut w))
    });
    g.throughput(Throughput::Bytes((n * 12) as u64));
    g.bench_function("waxpby fp32", |b| {
        let mut w = vec![0.0f32; n];
        b.iter(|| blas::waxpby(2.0, &x32, 0.5, &y32, &mut w))
    });
    // axpy reads x and reads+writes y.
    g.throughput(Throughput::Bytes((n * 24) as u64));
    g.bench_function("axpy fp64", |b| {
        let mut y = vec![0.0f64; n];
        b.iter(|| blas::axpy(1.000001, &x64, &mut y))
    });
    g.throughput(Throughput::Bytes((n * 20) as u64));
    g.bench_function("axpy mixed f32->f64", |b| {
        let mut y = vec![0.0f64; n];
        b.iter(|| blas::axpy_f32_into_f64(1.5, &x32, &mut y))
    });
    g.finish();
}

/// The dispatch levels this host can force: always scalar, plus avx2
/// when the CPU has the features. Labels become part of the bench IDs
/// so the baseline tracks each kernel family separately.
fn forceable_levels() -> Vec<(&'static str, SimdLevel)> {
    let mut v = vec![("scalar", SimdLevel::Scalar)];
    if simd::features().supports_avx2_path() {
        v.push(("avx2", SimdLevel::Avx2));
    }
    v
}

/// Head-to-head kernel-family comparison: the same motif forced onto
/// the scalar reference path and the vector path (the measured
/// speedups the ROADMAP's tile-centric-SIMD item asked for). The
/// default-dispatch entries above stay as the tracked regression
/// surface; these isolate the dispatch variable.
fn bench_simd_dispatch(c: &mut Criterion) {
    let prob = fine_problem("f16s-f32c");
    let l = &prob.levels[0];
    let (ell64, ell16) = (l.ell64(), l.ell16());
    let n = ell64.ncols();
    let x64: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
    let mut y64 = vec![0.0f64; ell64.nrows()];
    let mut y32 = vec![0.0f32; ell64.nrows()];
    let r64: Vec<f64> = (0..l.n_local()).map(|i| (i % 13) as f64).collect();

    for (label, level) in forceable_levels() {
        simd::set_level_override(Some(level));

        let mut g = c.benchmark_group("spmv");
        g.warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1))
            .sample_size(10);
        g.throughput(Throughput::Bytes(ell64.spmv_matrix_bytes() as u64));
        g.bench_function(BenchmarkId::new("ell_simd", format!("fp64 {label}")), |b| {
            b.iter(|| ell64.spmv(black_box(&x64), &mut y64))
        });
        g.throughput(Throughput::Bytes(ell16.spmv_matrix_bytes() as u64));
        g.bench_function(BenchmarkId::new("ell_simd_split", format!("f16s-f32a {label}")), |b| {
            b.iter(|| ell16.spmv(black_box(&x32), &mut y32))
        });
        g.finish();

        let mut g = c.benchmark_group("gauss_seidel");
        g.warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1))
            .sample_size(10);
        g.throughput(Throughput::Bytes(ell64.spmv_matrix_bytes() as u64));
        g.bench_function(BenchmarkId::new("gs_simd", format!("fp64 {label}")), |b| {
            let mut z = vec![0.0f64; l.vec_len()];
            b.iter(|| gs_multicolor(ell64, &l.color_ranges, black_box(&r64), &mut z))
        });
        g.finish();

        // The ghost codec's converters: fp16 widening/narrowing traffic
        // (read 2 + write 4 bytes per element each way).
        let m = 1usize << 18;
        let h: Vec<Half> = (0..m).map(|i| Half::from_f64((i % 97) as f64 * 0.25)).collect();
        let mut wide = vec![0.0f32; m];
        let mut back = vec![Half::ZERO; m];
        let mut g = c.benchmark_group("convert");
        g.warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1))
            .sample_size(10);
        g.throughput(Throughput::Bytes((m * 12) as u64));
        g.bench_function(BenchmarkId::new("widen_narrow", format!("f16<->f32 {label}")), |b| {
            b.iter(|| {
                hpgmxp_sparse::half::widen_f16_slice(black_box(&h), &mut wide);
                hpgmxp_sparse::half::narrow_f32_slice(black_box(&wide), &mut back);
            })
        });
        g.finish();
    }
    simd::set_level_override(None);
}

fn bench_coloring(c: &mut Criterion) {
    let prob = single_rank_problem(16, 1, &PrecisionPolicy::f64());
    let a = &prob.levels[0].csr64();
    let mut g = c.benchmark_group("coloring");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    g.bench_function("jpl 16^3", |b| b.iter(|| black_box(hpgmxp_sparse::jpl_coloring(a, 42))));
    g.bench_function("greedy 16^3", |b| b.iter(|| black_box(hpgmxp_sparse::greedy_coloring(a))));
    g.finish();
}

criterion_group!(
    benches,
    bench_spmv,
    bench_gauss_seidel,
    bench_ortho,
    bench_vector_ops,
    bench_simd_dispatch,
    bench_coloring
);
criterion_main!(benches);
