//! SIMD dispatch contract tests: the vector kernels behind
//! `hpgmxp_sparse::simd` must be *bit-identical* to the portable
//! scalar path whenever stored and accumulate precisions coincide, and
//! stay inside the split-precision error bounds the precision-policy
//! suite already pins when they differ. Both dispatch levels are
//! forced in-process (`set_level_override`), so one run exercises both
//! kernel families regardless of `HPGMXP_SIMD`.
//!
//! The end-to-end half enforces the determinism contract at solver
//! granularity: a GMRES-IR solve under a uniform-precision policy
//! produces the same residual history to the last bit on either
//! dispatch path, and the per-motif byte counters (the benchmark's
//! memory-traffic currency) never depend on the dispatch level.

use hpgmxp_comm::{SelfComm, Timeline};
use hpgmxp_core::gmres::GmresOptions;
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::motifs::Motif;
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_sparse::blas::Basis;
use hpgmxp_sparse::coloring::greedy_coloring;
use hpgmxp_sparse::csr::{CsrBuilder, CsrMatrix};
use hpgmxp_sparse::gauss_seidel::gs_multicolor;
use hpgmxp_sparse::ordering::color_block_order;
use hpgmxp_sparse::simd::{self, SimdLevel};
use hpgmxp_sparse::{blas, ColorRange, EllMatrix, Half, Scalar};
use proptest::prelude::*;
use std::sync::Mutex;

/// `set_level_override` is process-global; every test that flips it
/// serializes through this lock (proptest cases included).
static DISPATCH: Mutex<()> = Mutex::new(());

/// Restore environment-resolved dispatch even if a closure panics, so
/// one failing case cannot poison the rest of the binary.
struct ResetDispatch;
impl Drop for ResetDispatch {
    fn drop(&mut self) {
        simd::set_level_override(None);
    }
}

/// Run `f` once per forced dispatch level and return both results
/// (scalar first, avx2 second), or `None` when this host cannot run
/// the avx2 path at all (the contract is then vacuous).
fn on_both_levels<T>(mut f: impl FnMut() -> T) -> Option<(T, T)> {
    if !simd::features().supports_avx2_path() {
        return None;
    }
    let _g = DISPATCH.lock().unwrap();
    let _r = ResetDispatch;
    simd::set_level_override(Some(SimdLevel::Scalar));
    let s = f();
    simd::set_level_override(Some(SimdLevel::Avx2));
    let v = f();
    Some((s, v))
}

/// Lengths that stress every remainder path: 1, the f64 vector width
/// (4) ± 1, the f32 vector width (8) ± 1, and `ROW_BLOCK` (256) ± 1.
fn ragged_len() -> impl Strategy<Value = usize> {
    const LENS: [usize; 11] = [1, 3, 4, 5, 7, 8, 9, 31, 255, 256, 257];
    (0usize..LENS.len()).prop_map(|i| LENS[i])
}

/// Every remainder path of the lane-blocked dot: 0, 1, the lane widths
/// (4, 8) ± 1, lanes × unroll (16, 32) ± 1, `DOT_BLOCK` ± 1 and several
/// blocks with a ragged last one.
const DOT_LENS: [usize; 18] = {
    const B: usize = blas::DOT_BLOCK;
    [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, B - 1, B, B + 1, 3 * B + 17]
};

/// `dot`, `dot_par` and `project_local(3)` against the last column of a
/// four-column basis of length `len`, as f64 bits, after checking that
/// each projection entry is bitwise the `dot_par` of its column.
fn reduction_bits<S: Scalar>(seed: u64, len: usize) -> Vec<u64> {
    let mut q: Basis<S> = Basis::new(len, 4);
    for j in 0..4 {
        for (i, v) in q.col_mut(j).iter_mut().enumerate() {
            *v = S::from_f64(lcg(seed + j as u64, i));
        }
    }
    let bits = |v: S| v.to_f64().to_bits();
    let dots: Vec<u64> = (0..3).map(|j| bits(blas::dot(q.col(j), q.col(3)))).collect();
    let pars: Vec<u64> = (0..3).map(|j| bits(blas::dot_par(q.col(j), q.col(3)))).collect();
    let proj: Vec<u64> = q.project_local(3).iter().map(|&v| bits(v)).collect();
    assert_eq!(proj, pars, "{}: project_local(3)[j] != dot_par(col j, col 3)", S::NAME);
    assert_eq!(dots, pars, "{}: dot != dot_par", S::NAME);
    dots.into_iter().chain(proj).collect()
}

/// Deterministic pseudo-random f64 in roughly [-4, 4) from a seed.
fn lcg(seed: u64, i: usize) -> f64 {
    let h = (seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)).wrapping_mul(0xbf58476d1ce4e5b9);
    ((h >> 11) as f64) / (1u64 << 50) as f64 - 4.0
}

fn vec_f64(seed: u64, len: usize) -> Vec<f64> {
    (0..len).map(|i| lcg(seed, i)).collect()
}

fn vec_f32(seed: u64, len: usize) -> Vec<f32> {
    (0..len).map(|i| lcg(seed, i) as f32).collect()
}

/// Every BLAS-1 kernel at every precision it runs at, as bits: the
/// uniform `axpy`/`waxpby`/`axpby`/`scal` at f64, f32 and fp16, and the
/// GMRES-IR hand-off pair (`axpy_lo_into_f64`, `scale_f64_into_lo`) from
/// and into f64, f32 and fp16.
fn blas1_bits(seed: u64, len: usize) -> Vec<u64> {
    fn uniform<S: Scalar>(seed: u64, len: usize, bits: &mut Vec<u64>) {
        let v = |s: u64| -> Vec<S> { vec_f64(s, len).into_iter().map(S::from_f64).collect() };
        let c = |i: usize| S::from_f64(lcg(seed, i));
        let x = v(seed);
        let mut y = v(seed ^ 1);
        let mut w = vec![S::ZERO; len];
        blas::axpy(S::ONE + c(7), &x, &mut y);
        blas::waxpby(c(8), &x, c(9), &y, &mut w);
        blas::scal(c(10), &mut w);
        blas::axpby(c(11), &x, c(12), &mut y);
        bits.extend(y.iter().chain(&w).map(|e| e.to_f64().to_bits()));
    }
    fn handoff<S: Scalar>(seed: u64, len: usize, bits: &mut Vec<u64>) {
        let x: Vec<S> = vec_f64(seed, len).into_iter().map(S::from_f64).collect();
        let mut acc = vec_f64(seed ^ 3, len);
        blas::axpy_lo_into_f64(lcg(seed, 14), &x, &mut acc);
        let mut lo = vec![S::ZERO; len];
        blas::scale_f64_into_lo(lcg(seed, 15), &acc, &mut lo);
        bits.extend(acc.iter().map(|e| e.to_bits()));
        bits.extend(lo.iter().map(|e| e.to_f64().to_bits()));
    }
    let mut bits = Vec::new();
    uniform::<f64>(seed, len, &mut bits);
    uniform::<f32>(seed, len, &mut bits);
    uniform::<Half>(seed, len, &mut bits);
    handoff::<f64>(seed, len, &mut bits);
    handoff::<f32>(seed, len, &mut bits);
    handoff::<Half>(seed, len, &mut bits);
    bits
}

/// A banded, diagonally dominant matrix with a ragged bandwidth (so
/// the ELL slab has genuinely short rows next to full ones).
fn band_matrix(n: usize, band: usize, seed: u64) -> CsrMatrix<f64> {
    let mut b = CsrBuilder::new(n, n, n * (2 * band + 1));
    for i in 0..n {
        let mut entries: Vec<(u32, f64)> = Vec::new();
        let mut offsum = 0.0;
        let bi = 1 + (i + seed as usize) % band.max(1);
        for j in i.saturating_sub(bi)..(i + bi + 1).min(n) {
            if j != i {
                let v = -lcg(seed, i * 131 + j).abs() - 1e-3;
                offsum += v.abs();
                entries.push((j as u32, v));
            }
        }
        entries.push((i as u32, offsum + 1.0));
        entries.sort_unstable_by_key(|e| e.0);
        b.push_row(entries);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // BLAS-1 streaming kernels: both dispatch paths produce the same
    // bits at every precision, across every remainder length and at the
    // lengths that straddle the 4096-element parallel chunk.
    #[test]
    fn blas1_kernels_bit_identical_across_dispatch(len in ragged_len(), seed in 0u64..1000) {
        const CHUNK: usize = 4096;
        for len in [len, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3] {
            let got = on_both_levels(|| blas1_bits(seed, len));
            if let Some((s, v)) = got {
                prop_assert_eq!((len, s), (len, v));
            }
        }
    }

    // Precision converters (the fp16 ghost codec and the GMRES-IR
    // narrow/widen handoff): same bits on both paths.
    #[test]
    fn converters_bit_identical_across_dispatch(len in ragged_len(), seed in 0u64..1000) {
        let got = on_both_levels(|| {
            let x64 = vec_f64(seed, len);
            let mut x32 = vec![0.0f32; len];
            hpgmxp_sparse::scalar::convert_slice(&x64, &mut x32);
            let mut h = vec![Half::ZERO; len];
            hpgmxp_sparse::half::narrow_f32_slice(&x32, &mut h);
            let mut wide = vec![0.0f32; len];
            hpgmxp_sparse::half::widen_f16_slice(&h, &mut wide);
            let mut back64 = vec![0.0f64; len];
            hpgmxp_sparse::scalar::convert_slice(&wide, &mut back64);
            let mut h2 = vec![Half::ZERO; len];
            hpgmxp_sparse::scalar::convert_slice(&x64, &mut h2);
            let bits: Vec<u64> = x32
                .iter()
                .map(|v| v.to_bits() as u64)
                .chain(h.iter().map(|v| v.to_bits() as u64))
                .chain(wide.iter().map(|v| v.to_bits() as u64))
                .chain(back64.iter().map(|v| v.to_bits()))
                .chain(h2.iter().map(|v| v.to_bits() as u64))
                .collect();
            bits
        });
        if let Some((s, v)) = got {
            prop_assert_eq!(s, v);
        }
    }

    // Uniform-precision ELL SpMV and multicolor GS: the tile-batched
    // vector kernels reproduce the scalar bits exactly.
    #[test]
    fn ell_spmv_and_gs_uniform_bit_identical_across_dispatch(
        n in 2usize..40,
        band in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a = band_matrix(n, band, seed);
        let coloring = greedy_coloring(&a);
        let (order, bounds) = color_block_order(&coloring.color_of, 2, |i| (i % 3 == 0) as usize);
        let colors: Vec<ColorRange> = bounds
            .windows(3)
            .step_by(2)
            .map(|w| ColorRange { start: w[0], split: w[1], end: w[2] })
            .collect();
        let got = on_both_levels(|| {
            let ell = EllMatrix::from_csr_ordered(&a, order.clone());
            let x = vec_f64(seed, n);
            let mut y = vec![0.0f64; n];
            ell.spmv(&x, &mut y);
            let r = vec_f64(seed ^ 5, n);
            let mut z = vec![0.1f64; n];
            gs_multicolor(&ell, &colors, &r, &mut z);

            let ell32: EllMatrix<f32> = ell.convert();
            let x32 = vec_f32(seed, n);
            let mut y32 = vec![0.0f32; n];
            ell32.spmv(&x32, &mut y32);
            let r32 = vec_f32(seed ^ 5, n);
            let mut z32 = vec![0.1f32; n];
            gs_multicolor(&ell32, &colors, &r32, &mut z32);

            let b64: Vec<u64> = y.iter().chain(&z).map(|v| v.to_bits()).collect();
            let b32: Vec<u32> = y32.iter().chain(&z32).map(|v| v.to_bits()).collect();
            (b64, b32)
        });
        if let Some((s, v)) = got {
            prop_assert_eq!(s, v);
        }
    }

    // Split-precision paths (fp32/fp16 stored under f64 accumulation):
    // both dispatch levels stay within the storage-epsilon bound of
    // the pure-f64 result — the same contract the precision-policy
    // suite pins for the scalar path alone.
    #[test]
    fn ell_spmv_split_within_eps_bound_on_both_paths(
        n in 2usize..40,
        band in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a = band_matrix(n, band, seed);
        let ell64 = EllMatrix::from_csr(&a);
        let x = vec_f64(seed, n);
        let mut y64 = vec![0.0f64; n];
        ell64.spmv(&x, &mut y64);
        let w = ell64.width() as f64;

        let got = on_both_levels(|| {
            let ell32: EllMatrix<f32> = ell64.convert();
            let mut y = vec![0.0f64; n];
            ell32.spmv(&x, &mut y);
            y
        });
        if let Some((s, v)) = got {
            for i in 0..n {
                let (_, vals) = a.row(i);
                let row_abs: f64 = vals.iter().map(|av| (av * 4.0).abs()).sum();
                let bound = (2.0 * f32::EPSILON as f64 + 4.0 * w * f64::EPSILON) * row_abs;
                prop_assert!((s[i] - y64[i]).abs() <= bound,
                    "scalar split row {i}: {} vs {} (bound {bound:e})", s[i], y64[i]);
                prop_assert!((v[i] - y64[i]).abs() <= bound,
                    "avx2 split row {i}: {} vs {} (bound {bound:e})", v[i], y64[i]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The one local reduction: `dot`, `dot_par` and the row-tiled
    // projection produce the same bits on both paths, at every
    // precision, across every remainder and block boundary.
    #[test]
    fn dots_and_projection_bit_identical_across_dispatch(seed in 0u64..1000) {
        let got = on_both_levels(|| {
            DOT_LENS
                .iter()
                .flat_map(|&len| {
                    [
                        reduction_bits::<f64>(seed, len),
                        reduction_bits::<f32>(seed, len),
                        reduction_bits::<Half>(seed, len),
                    ]
                })
                .collect::<Vec<_>>()
        });
        if let Some((s, v)) = got {
            prop_assert_eq!(s, v);
        }
    }
}

/// Shipped uniform-precision policies (storage == compute == wire on
/// every level): the dispatch determinism contract promises these
/// solve bit-identically on either kernel family.
fn uniform_policies() -> Vec<PrecisionPolicy> {
    PrecisionPolicy::shipped()
        .into_iter()
        .filter(|p| p.wire == p.compute && p.storage.iter().all(|&s| s == p.compute))
        .collect()
}

fn spec(n: u32, levels: usize) -> ProblemSpec {
    ProblemSpec {
        local: (n, n, n),
        procs: ProcGrid::new(1, 1, 1),
        stencil: Stencil27::symmetric(),
        mg_levels: levels,
        seed: 23,
    }
}

/// `HPGMXP_SIMD=avx2` vs `=scalar`, end to end: a GMRES-IR solve
/// under every uniform-precision policy walks the exact same residual
/// trajectory — same iteration count, same history to the last bit.
#[test]
fn gmres_ir_residual_history_bit_identical_for_uniform_policies() {
    let policies = uniform_policies();
    assert!(!policies.is_empty(), "shipped() must contain uniform policies");
    for policy in policies {
        let got = on_both_levels(|| {
            let sp = spec(12, 3);
            let prob = assemble_with_policy(&sp, 0, &policy);
            let opts = GmresOptions {
                max_iters: 600,
                tol: 1e-9,
                track_history: true,
                ..Default::default()
            };
            let tl = Timeline::disabled();
            let (x, st) = gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &tl);
            let xbits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            let hbits: Vec<u64> = st.history.iter().map(|v| v.to_bits()).collect();
            (st.iters, st.converged, st.final_relres.to_bits(), hbits, xbits)
        });
        let Some((s, v)) = got else {
            eprintln!("skipping: host cannot run the avx2 path");
            return;
        };
        assert_eq!(
            s, v,
            "policy {}: scalar and avx2 dispatch must solve bit-identically",
            policy.name
        );
    }
}

/// The per-motif byte counters are a property of the *policy*, never
/// of the kernel dispatch: forcing either level measures the same
/// value/total bytes for every motif, on every shipped policy
/// (split-precision ones included).
#[test]
fn byte_counters_do_not_depend_on_dispatch_level() {
    for policy in PrecisionPolicy::shipped() {
        let got = on_both_levels(|| {
            let sp = spec(8, 2);
            let prob = assemble_with_policy(&sp, 0, &policy);
            let opts = GmresOptions { max_iters: 120, tol: 1e-9, ..Default::default() };
            let tl = Timeline::disabled();
            let (_, st) = gmres_ir_solve_policy(&SelfComm, &prob, &policy, &opts, &tl);
            let m = &st.motifs;
            let per_motif: Vec<(f64, f64)> =
                [Motif::SpMV, Motif::GaussSeidel, Motif::Comm, Motif::Restriction]
                    .iter()
                    .map(|&mo| (m.value_bytes(mo), m.bytes(mo)))
                    .collect();
            (st.iters, per_motif, m.total_bytes())
        });
        let Some((s, v)) = got else {
            eprintln!("skipping: host cannot run the avx2 path");
            return;
        };
        assert_eq!(s, v, "policy {}: byte accounting drifted with dispatch level", policy.name);
    }
}
