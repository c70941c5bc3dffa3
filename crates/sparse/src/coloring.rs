//! Graph multicoloring for parallel Gauss–Seidel (§3.2.1).
//!
//! A valid coloring partitions the rows into independent sets: no two
//! rows of the same color are coupled by a nonzero. A Gauss–Seidel sweep
//! can then process the colors sequentially while updating all rows
//! *within* a color fully in parallel. For the 27-point stencil the
//! natural coloring has 8 colors (the 2×2×2 parity classes), the 3D
//! analog of the 4-color 9-point example in the paper's figure 2.
//!
//! Two algorithms are provided:
//!
//! * [`greedy_coloring`] — the sequential greedy algorithm (Saad §3.3.3),
//!   deterministic and seedless. In natural order on the 27-point grid
//!   it finds the 8 parity classes, equal in size; it is the coloring
//!   assembly uses (in a fixed relabelled order, see
//!   `hpgmxp_core::problem`);
//! * [`jpl_coloring`] — Jones–Plassmann–Luby with deterministic seeded
//!   random weights, the algorithm the paper runs on the GPU during the
//!   benchmark's optimization phase. Each round colors the set of
//!   uncolored vertices whose weight is a local maximum among their
//!   uncolored neighbors; rounds are embarrassingly parallel. On the
//!   27-point stencil it needs 14–17 colors where greedy needs 8; it is
//!   kept for comparison (`examples/smoother_study.rs`) and the
//!   benchmark's setup replay.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// The result of coloring a local matrix graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color of each row, `0..num_colors`.
    pub color_of: Vec<u32>,
    /// Number of colors used.
    pub num_colors: u32,
    /// Rows grouped by color: `rows_of[c]` lists the rows of color `c`
    /// in increasing row order.
    pub rows_of: Vec<Vec<u32>>,
}

impl Coloring {
    /// The coloring that gives row `i` color `color_of[i]`, with
    /// `num_colors` one past the largest. Relabelling an existing
    /// coloring's classes goes through here.
    pub fn from_color_of(color_of: Vec<u32>) -> Self {
        let num_colors = color_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut rows_of = vec![Vec::new(); num_colors as usize];
        for (i, &c) in color_of.iter().enumerate() {
            rows_of[c as usize].push(i as u32);
        }
        Coloring { color_of, num_colors, rows_of }
    }

    /// Verify the independent-set property against a matrix: no stored
    /// off-diagonal owned-block entry may connect two same-colored rows.
    pub fn verify<S: Scalar>(&self, a: &CsrMatrix<S>) -> bool {
        let n = a.nrows();
        for i in 0..n {
            let (cols, _) = a.row(i);
            for &c in cols {
                let j = c as usize;
                if j < n && j != i && self.color_of[i] == self.color_of[j] {
                    return false;
                }
            }
        }
        true
    }

    /// Size of the largest color class (bounds achievable parallelism).
    pub fn max_class_size(&self) -> usize {
        self.rows_of.iter().map(|r| r.len()).max().unwrap_or(0)
    }
}

/// Iterate the owned-block neighbors of row `i` (off-diagonal, local).
#[inline]
fn local_neighbors<'a, S: Scalar>(
    a: &'a CsrMatrix<S>,
    i: usize,
) -> impl Iterator<Item = usize> + 'a {
    let n = a.nrows();
    let (cols, _) = a.row(i);
    cols.iter().map(|&c| c as usize).filter(move |&j| j < n && j != i)
}

/// Sequential greedy coloring: rows in natural order take the smallest
/// color unused by their already-colored neighbors.
pub fn greedy_coloring<S: Scalar>(a: &CsrMatrix<S>) -> Coloring {
    greedy_coloring_by(a.nrows(), |i| local_neighbors(a, i))
}

/// [`greedy_coloring`] of the graph on rows `0..n` in which `neighbors(i)`
/// lists row `i`'s neighbors — those of them before `i` suffice, since
/// only already-colored rows constrain row `i`. Lets a caller that
/// knows the graph's structure (a grid stencil) color it without a
/// matrix.
pub fn greedy_coloring_by<I>(n: usize, neighbors: impl Fn(usize) -> I) -> Coloring
where
    I: IntoIterator<Item = usize>,
{
    let mut color_of = vec![u32::MAX; n];
    let mut used: Vec<bool> = Vec::new();
    for i in 0..n {
        used.clear();
        for j in neighbors(i) {
            let cj = color_of[j];
            if cj != u32::MAX {
                if used.len() <= cj as usize {
                    used.resize(cj as usize + 1, false);
                }
                used[cj as usize] = true;
            }
        }
        let c = used.iter().position(|&u| !u).unwrap_or(used.len());
        color_of[i] = c as u32;
    }
    Coloring::from_color_of(color_of)
}

/// Jones–Plassmann–Luby coloring with deterministic seeded weights.
///
/// In each round, every still-uncolored vertex whose random weight beats
/// all of its uncolored neighbors' weights (ties broken by index) is
/// colored with the smallest color absent among its *colored* neighbors.
/// Candidate selection within a round is data-parallel, mirroring the
/// GPU implementation of Naumov et al. that the paper uses.
pub fn jpl_coloring<S: Scalar>(a: &CsrMatrix<S>, seed: u64) -> Coloring {
    let n = a.nrows();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let mut color_of = vec![u32::MAX; n];
    let mut uncolored = n;

    while uncolored > 0 {
        // Select this round's independent set in parallel.
        let winners: Vec<u32> = (0..n)
            .into_par_iter()
            .filter(|&i| {
                if color_of[i] != u32::MAX {
                    return false;
                }
                let wi = (weights[i], i);
                local_neighbors(a, i).all(|j| color_of[j] != u32::MAX || (weights[j], j) < wi)
            })
            .map(|i| i as u32)
            .collect();
        debug_assert!(!winners.is_empty(), "JPL must make progress every round");

        // Winners form an independent set, so coloring them against the
        // already-colored neighborhood is race-free.
        let assigned: Vec<(u32, u32)> = winners
            .par_iter()
            .map(|&iw| {
                let i = iw as usize;
                let mut used = 0u64; // stencil graphs need < 64 colors
                for j in local_neighbors(a, i) {
                    let cj = color_of[j];
                    if cj != u32::MAX && cj < 64 {
                        used |= 1 << cj;
                    }
                }
                let c = (!used).trailing_zeros();
                (iw, c)
            })
            .collect();
        for (i, c) in assigned {
            color_of[i as usize] = c;
            uncolored -= 1;
        }
    }
    Coloring::from_color_of(color_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    /// 2D 5-point Laplacian on an nx × ny grid — bipartite, 2-colorable.
    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let mut b = CsrBuilder::new(n, n, 5 * n);
        for j in 0..ny {
            for i in 0..nx {
                let row = j * nx + i;
                let mut entries = Vec::new();
                if j > 0 {
                    entries.push(((row - nx) as u32, -1.0));
                }
                if i > 0 {
                    entries.push(((row - 1) as u32, -1.0));
                }
                entries.push((row as u32, 4.0));
                if i + 1 < nx {
                    entries.push(((row + 1) as u32, -1.0));
                }
                if j + 1 < ny {
                    entries.push(((row + nx) as u32, -1.0));
                }
                b.push_row(entries);
            }
        }
        b.finish()
    }

    /// Dense 9-point 2D stencil (figure 2 of the paper): needs 4 colors.
    fn stencil9_2d(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let mut b = CsrBuilder::new(n, n, 9 * n);
        for j in 0..ny as i64 {
            for i in 0..nx as i64 {
                let row = (j * nx as i64 + i) as u32;
                let mut entries = Vec::new();
                for dj in -1..=1i64 {
                    for di in -1..=1i64 {
                        let (ni, nj) = (i + di, j + dj);
                        if ni >= 0 && nj >= 0 && ni < nx as i64 && nj < ny as i64 {
                            let col = (nj * nx as i64 + ni) as u32;
                            let v = if col == row { 8.0 } else { -1.0 };
                            entries.push((col, v));
                        }
                    }
                }
                b.push_row(entries);
            }
        }
        b.finish()
    }

    #[test]
    fn greedy_two_colors_bipartite() {
        let a = laplacian_2d(6, 6);
        let c = greedy_coloring(&a);
        assert!(c.verify(&a));
        assert_eq!(c.num_colors, 2);
    }

    #[test]
    fn greedy_four_colors_9pt() {
        let a = stencil9_2d(8, 8);
        let c = greedy_coloring(&a);
        assert!(c.verify(&a));
        // The paper's figure 2: 4 independent sets for the 9-point stencil.
        assert_eq!(c.num_colors, 4);
    }

    #[test]
    fn jpl_valid_and_bounded_9pt() {
        let a = stencil9_2d(8, 8);
        let c = jpl_coloring(&a, 42);
        assert!(c.verify(&a));
        // JPL with random weights may use a few more colors than greedy,
        // but stays within a small constant of the chromatic number.
        assert!(c.num_colors >= 4 && c.num_colors <= 8, "got {}", c.num_colors);
    }

    #[test]
    fn jpl_is_deterministic_per_seed() {
        let a = stencil9_2d(6, 6);
        let c1 = jpl_coloring(&a, 7);
        let c2 = jpl_coloring(&a, 7);
        assert_eq!(c1, c2);
    }

    #[test]
    fn classes_partition_rows() {
        let a = stencil9_2d(5, 7);
        let c = jpl_coloring(&a, 1);
        let total: usize = c.rows_of.iter().map(|r| r.len()).sum();
        assert_eq!(total, a.nrows());
        let mut seen = vec![false; a.nrows()];
        for class in &c.rows_of {
            for &r in class {
                assert!(!seen[r as usize]);
                seen[r as usize] = true;
            }
        }
        assert_eq!(c.max_class_size(), c.rows_of.iter().map(|r| r.len()).max().unwrap());
    }

    #[test]
    fn verify_rejects_bad_coloring() {
        let a = laplacian_2d(4, 4);
        let bad = Coloring::from_color_of(vec![0; 16]);
        assert!(!bad.verify(&a));
    }

    #[test]
    fn ghost_columns_do_not_constrain() {
        // Two rows coupled only through a ghost column may share a color.
        let mut b = CsrBuilder::new(2, 3, 4);
        b.push_row([(0u32, 2.0), (2, -1.0)]);
        b.push_row([(1u32, 2.0), (2, -1.0)]);
        let a = b.finish();
        let c = greedy_coloring(&a);
        assert!(c.verify(&a));
        assert_eq!(c.num_colors, 1);
    }
}
