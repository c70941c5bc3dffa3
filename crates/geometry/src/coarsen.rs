//! Geometric-multigrid coarsening: the grid hierarchy and injection maps.
//!
//! HPG-MxP prescribes a fixed 4-level geometric multigrid preconditioner.
//! Each coarser level halves the local box in every dimension (8× fewer
//! points), and the restriction operator is *injection*: coarse point `i`
//! simply takes the fine value at its collocated fine point `cf(i)`
//! (equation (3) of the paper). Prolongation is the transpose: scatter
//! each coarse value back to its collocated fine point.
//!
//! Because coarsening is local (each rank halves its own box), the
//! processor grid is identical on all levels and the coarse problems are
//! re-discretizations of the same operator on the coarser mesh, exactly
//! as in HPCG.

use crate::grid::LocalGrid;

/// The injection maps between a fine level and the next coarser level.
#[derive(Debug, Clone)]
pub struct CoarseMap {
    /// `c2f[i_coarse]` = local index of the collocated fine point.
    ///
    /// The collocated point of coarse `(cx,cy,cz)` is fine
    /// `(2cx, 2cy, 2cz)` — the even sub-lattice, as in HPCG's
    /// `GenerateCoarseProblem`.
    pub c2f: Vec<u32>,
    /// Number of fine-level local points.
    pub n_fine: usize,
    /// Number of coarse-level local points (`n_fine / 8`).
    pub n_coarse: usize,
}

impl CoarseMap {
    /// Build the injection map from `fine` down to its halved box.
    ///
    /// Panics if any local extent is odd — the benchmark requires local
    /// sizes divisible by `2^(levels-1)`.
    pub fn build(fine: &LocalGrid) -> Self {
        assert!(
            fine.nx.is_multiple_of(2) && fine.ny.is_multiple_of(2) && fine.nz.is_multiple_of(2),
            "local grid {}x{}x{} is not coarsenable (odd extent)",
            fine.nx,
            fine.ny,
            fine.nz
        );
        let (cnx, cny, cnz) = (fine.nx / 2, fine.ny / 2, fine.nz / 2);
        let n_coarse = cnx as usize * cny as usize * cnz as usize;
        let mut c2f = Vec::with_capacity(n_coarse);
        for cz in 0..cnz {
            for cy in 0..cny {
                for cx in 0..cnx {
                    c2f.push(fine.index(2 * cx, 2 * cy, 2 * cz) as u32);
                }
            }
        }
        CoarseMap { c2f, n_fine: fine.total_points(), n_coarse }
    }

    /// Coarse index of the collocated fine point `f` of `fine` — the
    /// inverse of `c2f`. `f` must lie on the even sub-lattice.
    #[inline]
    pub fn coarse_of(fine: &LocalGrid, f: usize) -> usize {
        let (x, y, z) = fine.coords(f);
        debug_assert!(x % 2 == 0 && y % 2 == 0 && z % 2 == 0, "fine point {f} is not collocated");
        let (cnx, cny) = ((fine.nx / 2) as usize, (fine.ny / 2) as usize);
        ((z / 2) as usize * cny + (y / 2) as usize) * cnx + (x / 2) as usize
    }

    /// Apply restriction by injection: `coarse[i] = fine[c2f[i]]`.
    pub fn restrict_into<T: Copy>(&self, fine: &[T], coarse: &mut [T]) {
        debug_assert!(fine.len() >= self.n_fine);
        debug_assert_eq!(coarse.len(), self.n_coarse);
        for (c, &f) in coarse.iter_mut().zip(self.c2f.iter()) {
            *c = fine[f as usize];
        }
    }

    /// Apply prolongation (the transpose of injection) *additively*:
    /// `fine[c2f[i]] += coarse[i]`. Non-collocated fine points are
    /// untouched, matching the paper's `P = Rᵀ`.
    pub fn prolong_add_f64(&self, coarse: &[f64], fine: &mut [f64]) {
        debug_assert_eq!(coarse.len(), self.n_coarse);
        for (i, &c) in coarse.iter().enumerate() {
            fine[self.c2f[i] as usize] += c;
        }
    }

    /// Single-precision variant of [`CoarseMap::prolong_add_f64`].
    pub fn prolong_add_f32(&self, coarse: &[f32], fine: &mut [f32]) {
        debug_assert_eq!(coarse.len(), self.n_coarse);
        for (i, &c) in coarse.iter().enumerate() {
            fine[self.c2f[i] as usize] += c;
        }
    }
}

/// The full multigrid grid hierarchy of one rank.
///
/// `grids[0]` is the fine (benchmark) grid; `grids[l+1]` is the halved
/// version of `grids[l]`; `maps[l]` connects level `l` to level `l+1`.
#[derive(Debug, Clone)]
pub struct GridHierarchy {
    /// Local grids, finest first.
    pub grids: Vec<LocalGrid>,
    /// Injection maps, `maps[l]`: level `l` → level `l+1`.
    pub maps: Vec<CoarseMap>,
}

impl GridHierarchy {
    /// Build `levels` grids (the benchmark uses 4). The fine local box
    /// must be divisible by `2^(levels-1)` in every dimension.
    pub fn build(fine: &LocalGrid, levels: usize) -> Self {
        assert!(levels >= 1, "hierarchy needs at least one level");
        let div = 1u32 << (levels - 1);
        assert!(
            fine.nx.is_multiple_of(div)
                && fine.ny.is_multiple_of(div)
                && fine.nz.is_multiple_of(div),
            "local grid {}x{}x{} not divisible by 2^{} for {} levels",
            fine.nx,
            fine.ny,
            fine.nz,
            levels - 1,
            levels
        );
        let mut grids = vec![*fine];
        let mut maps = Vec::new();
        for l in 0..levels - 1 {
            let cur = grids[l];
            maps.push(CoarseMap::build(&cur));
            grids.push(LocalGrid {
                nx: cur.nx / 2,
                ny: cur.ny / 2,
                nz: cur.nz / 2,
                rank_coords: cur.rank_coords,
                procs: cur.procs,
            });
        }
        GridHierarchy { grids, maps }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.grids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::ProcGrid;

    #[test]
    fn c2f_hits_even_sublattice() {
        let fine = LocalGrid::new((8, 8, 8), ProcGrid::new(1, 1, 1), 0);
        let map = CoarseMap::build(&fine);
        assert_eq!(map.n_coarse, 64);
        for &f in &map.c2f {
            let (x, y, z) = fine.coords(f as usize);
            assert_eq!(x % 2, 0);
            assert_eq!(y % 2, 0);
            assert_eq!(z % 2, 0);
        }
        // Injection points are distinct.
        let set: std::collections::HashSet<u32> = map.c2f.iter().copied().collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn coarse_of_inverts_c2f() {
        let fine = LocalGrid::new((8, 4, 6), ProcGrid::new(1, 1, 1), 0);
        let map = CoarseMap::build(&fine);
        for (ci, &f) in map.c2f.iter().enumerate() {
            assert_eq!(CoarseMap::coarse_of(&fine, f as usize), ci);
        }
    }

    #[test]
    fn restrict_then_prolong_is_injection_times_transpose() {
        let fine = LocalGrid::new((4, 4, 4), ProcGrid::new(1, 1, 1), 0);
        let map = CoarseMap::build(&fine);
        let fine_vals: Vec<f64> = (0..fine.total_points()).map(|i| i as f64).collect();
        let mut coarse = vec![0.0; map.n_coarse];
        map.restrict_into(&fine_vals, &mut coarse);
        // R v picks the even sub-lattice values.
        for (i, &c) in coarse.iter().enumerate() {
            assert_eq!(c, map.c2f[i] as f64);
        }
        // P (R v) puts them back (additively over zero).
        let mut back = vec![0.0; fine.total_points()];
        map.prolong_add_f64(&coarse, &mut back);
        for (i, &v) in back.iter().enumerate() {
            if map.c2f.contains(&(i as u32)) {
                assert_eq!(v, i as f64);
            } else {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn four_level_hierarchy() {
        let fine = LocalGrid::new((16, 16, 16), ProcGrid::new(2, 1, 1), 1);
        let h = GridHierarchy::build(&fine, 4);
        assert_eq!(h.levels(), 4);
        let sizes: Vec<usize> = h.grids.iter().map(|g| g.total_points()).collect();
        assert_eq!(sizes, vec![4096, 512, 64, 8]);
        // Processor grid is identical on all levels.
        for g in &h.grids {
            assert_eq!(g.procs, fine.procs);
            assert_eq!(g.rank_coords, fine.rank_coords);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_box_panics() {
        let fine = LocalGrid::new((12, 12, 12), ProcGrid::new(1, 1, 1), 0);
        GridHierarchy::build(&fine, 4); // 12 / 8 is not integral
    }

    #[test]
    fn prolong_f32_matches_f64() {
        let fine = LocalGrid::new((4, 4, 4), ProcGrid::new(1, 1, 1), 0);
        let map = CoarseMap::build(&fine);
        let coarse64: Vec<f64> = (0..map.n_coarse).map(|i| (i as f64) * 0.5).collect();
        let coarse32: Vec<f32> = coarse64.iter().map(|&v| v as f32).collect();
        let mut f64out = vec![1.0f64; map.n_fine];
        let mut f32out = vec![1.0f32; map.n_fine];
        map.prolong_add_f64(&coarse64, &mut f64out);
        map.prolong_add_f32(&coarse32, &mut f32out);
        for (a, b) in f64out.iter().zip(f32out.iter()) {
            assert!((*a - *b as f64).abs() < 1e-6);
        }
    }
}
