//! Property-based tests (proptest) of the core data structures and
//! invariants, across randomized shapes and contents.

use hpgmxp_geometry::{GridHierarchy, HaloPlan, LocalGrid, ProcGrid};
use hpgmxp_sparse::blas;
use hpgmxp_sparse::coloring::{greedy_coloring, jpl_coloring};
use hpgmxp_sparse::csr::CsrBuilder;
use hpgmxp_sparse::gauss_seidel::{gs_forward, gs_multicolor, gs_rows_ordered};
use hpgmxp_sparse::ordering::{color_block_order, Permutation};
use hpgmxp_sparse::{ColorRange, CsrMatrix, EllMatrix, LevelSchedule};
use proptest::prelude::*;

/// A random sparse, strictly diagonally dominant matrix: always a
/// valid Gauss–Seidel / solver input.
fn arb_dd_matrix(max_n: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (2..max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(proptest::collection::vec(0..n, 0..6), n),
                proptest::collection::vec(-1.0f64..-0.01, n * 6),
            )
        })
        .prop_map(|(n, adj, vals)| {
            // Symmetrize the adjacency so GS orderings are meaningful.
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for (i, nbrs) in adj.iter().enumerate() {
                for &j in nbrs {
                    if i != j {
                        pairs.push((i.min(j), i.max(j)));
                    }
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
            for (vi, &(i, j)) in pairs.iter().enumerate() {
                let v = vals[vi % vals.len()];
                rows[i].push((j as u32, v));
                rows[j].push((i as u32, v));
            }
            let mut b = CsrBuilder::new(n, n, pairs.len() * 2 + n);
            for (i, row) in rows.iter_mut().enumerate() {
                let offsum: f64 = row.iter().map(|(_, v)| v.abs()).sum();
                row.push((i as u32, offsum + 1.0)); // strict dominance
                row.sort_unstable_by_key(|e| e.0);
                b.push_row(row.iter().copied());
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_and_ell_spmv_agree(a in arb_dd_matrix(24), seed in 0u64..1000) {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) + seed as f64).sin()).collect();
        let ell = EllMatrix::from_csr(&a);
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        ell.spmv(&x, &mut y2);
        for (u, v) in y1.iter().zip(y2.iter()) {
            prop_assert!((u - v).abs() <= 1e-12 * (1.0 + u.abs()));
        }
    }

    #[test]
    fn colorings_are_always_valid(a in arb_dd_matrix(24), seed in 0u64..1000) {
        let g = greedy_coloring(&a);
        prop_assert!(g.verify(&a));
        let j = jpl_coloring(&a, seed);
        prop_assert!(j.verify(&a));
        // Both partition the rows.
        prop_assert_eq!(g.color_of.len(), a.nrows());
        let total: usize = j.rows_of.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total, a.nrows());
    }

    // The range sweep over a color-block ordered ELL matrix is, bit for
    // bit, the sequential sweep over its rows in storage order — at
    // random sizes, JPL seeds and interior/boundary splits.
    #[test]
    fn multicolor_sweep_equals_color_ordered_sequential(
        a in arb_dd_matrix(1500),
        seed in 0u64..100,
        boundary_every in 1usize..5,
    ) {
        let n = a.nrows();
        let coloring = jpl_coloring(&a, seed);
        let (order, bounds) =
            color_block_order(&coloring.color_of, 2, |i| (i % boundary_every == 0) as usize);
        let colors: Vec<ColorRange> = bounds
            .windows(3)
            .step_by(2)
            .map(|w| ColorRange { start: w[0], split: w[1], end: w[2] })
            .collect();
        let ell = EllMatrix::from_csr_ordered(&a, order);
        let r: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) as f64).cos()).collect();
        let mut z_par = vec![0.1f64; n];
        gs_multicolor(&ell, &colors, &r, &mut z_par);
        let rows: Vec<u32> = (0..n).map(|p| ell.order().old_of_new(p) as u32).collect();
        let mut z_seq = vec![0.1f64; n];
        gs_rows_ordered(&ell, &rows, &r, &mut z_seq);
        let bits = |z: &[f64]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&z_par), bits(&z_seq));
    }

    #[test]
    fn gs_sweep_is_contraction_on_dd_matrices(a in arb_dd_matrix(20)) {
        // Strict diagonal dominance => Gauss-Seidel converges; one sweep
        // from zero must not increase the residual.
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).sin()).collect();
        let mut z = vec![0.0f64; n];
        gs_forward(&a, &r, &mut z);
        let mut az = vec![0.0; n];
        a.spmv(&z, &mut az);
        let res: f64 = r.iter().zip(az.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let r0: f64 = r.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(res <= r0 * (1.0 + 1e-12));
    }

    #[test]
    fn level_schedule_is_valid_and_partitions(a in arb_dd_matrix(24)) {
        let s = LevelSchedule::build(&a);
        prop_assert!(s.verify(&a));
        let total: usize = s.levels.iter().map(|l| l.len()).sum();
        prop_assert_eq!(total, a.nrows());
    }

    #[test]
    fn permutation_roundtrip(order in proptest::collection::vec(0..64u32, 1..64)) {
        // Build a valid permutation from arbitrary data by sorting-dedup.
        let n = order.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_by_key(|&i| (order[i as usize], i));
        let p = Permutation::from_new_order(&idx);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(p.apply_inverse(&p.apply(&x)), x.clone());
        let pi = p.inverse();
        prop_assert_eq!(pi.apply(&p.apply(&x)), p.apply(&pi.apply(&x)));
    }

    #[test]
    fn symmetric_permute_preserves_spmv(a in arb_dd_matrix(16), shift in 1usize..7) {
        let n = a.nrows();
        let order: Vec<u32> = (0..n).map(|i| ((i + shift) % n) as u32).collect();
        let p = Permutation::from_new_order(&order);
        let pa = a.symmetric_permute(&p);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        let px = p.apply(&x);
        let mut pax = vec![0.0; n];
        pa.spmv(&px, &mut pax);
        let expect = p.apply(&ax);
        for (u, v) in pax.iter().zip(expect.iter()) {
            prop_assert!((u - v).abs() < 1e-11);
        }
    }

    #[test]
    fn dot_is_symmetric_and_positive(v in proptest::collection::vec(-100.0f64..100.0, 1..200)) {
        let w: Vec<f64> = v.iter().rev().copied().collect();
        let d1 = blas::dot(&v, &w);
        let d2 = blas::dot(&w, &v);
        prop_assert!((d1 - d2).abs() <= 1e-9 * (1.0 + d1.abs()));
        prop_assert!(blas::norm2_sq(&v) >= 0.0);
    }

    #[test]
    fn halo_ghost_ids_are_a_bijection(
        px in 1u32..4, py in 1u32..4, pz in 1u32..3,
        nx in 2u32..5, ny in 2u32..5, nz in 2u32..5,
    ) {
        let procs = ProcGrid::new(px, py, pz);
        for rank in 0..procs.size() {
            let lg = LocalGrid::new((nx, ny, nz), procs, rank);
            let plan = HaloPlan::build(&lg);
            let mut seen = vec![false; plan.num_ghosts];
            for ez in -1..=(nz as i64) {
                for ey in -1..=(ny as i64) {
                    for ex in -1..=(nx as i64) {
                        if let Some(g) = plan.ghost_index(ex, ey, ez) {
                            prop_assert!(!seen[g]);
                            seen[g] = true;
                        }
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
            // Send volume equals ghost volume by symmetry of uniform boxes
            // only when every neighbor relation is mutual — always true here.
            let (interior, boundary) = plan.split_rows();
            prop_assert_eq!(interior.len() + boundary.len(), lg.total_points());
        }
    }

    #[test]
    fn grid_hierarchy_indices_in_range(e in 1u32..4) {
        let n = 8 * e.min(2);
        let lg = LocalGrid::new((n, n, n), ProcGrid::new(1, 1, 1), 0);
        let h = GridHierarchy::build(&lg, 3);
        for (l, map) in h.maps.iter().enumerate() {
            let fine_n = h.grids[l].total_points();
            prop_assert_eq!(map.n_fine, fine_n);
            for &f in &map.c2f {
                prop_assert!((f as usize) < fine_n);
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip_bytes(v in proptest::collection::vec(-1e12f64..1e12, 0..100)) {
        let bytes = hpgmxp_comm::comm::pack(&v);
        let mut out = vec![0.0f64; v.len()];
        hpgmxp_comm::comm::unpack(&bytes, &mut out);
        prop_assert_eq!(out, v.clone());
        // And f32, within rounding.
        let v32: Vec<f32> = v.iter().map(|&x| x as f32).collect();
        let b32 = hpgmxp_comm::comm::pack(&v32);
        prop_assert_eq!(b32.len(), v.len() * 4);
        let mut out32 = vec![0.0f32; v.len()];
        hpgmxp_comm::comm::unpack(&b32, &mut out32);
        prop_assert_eq!(out32, v32);
    }
}

/// Pool-coverage properties of the work-stealing runtime: whatever the
/// slice length, chunk size, and thread count, a parallel mutable
/// traversal must visit every index exactly once, and parallel
/// reductions must agree with their sequential counterparts.
mod pool_properties {
    use proptest::prelude::*;
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn par_iter_mut_visits_every_index_exactly_once(
            len in 1usize..20_000,
            threads in 1usize..9,
        ) {
            let pool = rayon::ThreadPool::new(threads);
            let mut v = vec![0u32; len];
            pool.install(|| {
                v.par_iter_mut().for_each(|x| *x += 1);
            });
            prop_assert!(v.iter().all(|&x| x == 1), "some index missed or repeated");
        }

        #[test]
        fn par_chunks_mut_covers_every_index_exactly_once(
            len in 1usize..20_000,
            chunk in 1usize..500,
            threads in 1usize..9,
        ) {
            let pool = rayon::ThreadPool::new(threads);
            let counters: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            let mut v = vec![0u8; len];
            pool.install(|| {
                v.par_chunks_mut(chunk).enumerate().for_each(|(b, c)| {
                    for (i, _) in c.iter_mut().enumerate() {
                        counters[b * chunk + i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            prop_assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }

        #[test]
        fn par_collect_preserves_order(
            len in 0usize..10_000,
            threads in 1usize..9,
        ) {
            let pool = rayon::ThreadPool::new(threads);
            let out: Vec<usize> =
                pool.install(|| (0..len).into_par_iter().map(|i| i * 3).collect());
            prop_assert_eq!(out, (0..len).map(|i| i * 3).collect::<Vec<_>>());
        }

        #[test]
        fn par_integer_sum_matches_sequential(
            v in proptest::collection::vec(0u64..1_000_000, 0..5_000),
            threads in 1usize..9,
        ) {
            // Integer sums are exact, so even the thread-shaped reduction
            // tree must agree with the sequential sum.
            let pool = rayon::ThreadPool::new(threads);
            let par: u64 = pool.install(|| v.par_iter().map(|&x| x).sum());
            prop_assert_eq!(par, v.iter().sum::<u64>());
        }
    }
}
