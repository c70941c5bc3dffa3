//! Row/column orderings: permutations, color-block ordering, and
//! reverse Cuthill–McKee.
//!
//! §3.2.1 of the paper reorders each rank's subdomain symmetrically with
//! an independent-set (multicolor) ordering to expose parallel work in
//! Gauss–Seidel, and cites Reverse Cuthill–McKee as the classic
//! alternative that preserves convergence better but parallelizes worse.
//! Both orderings are implemented here so the trade-off can be measured.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::ops::Range;

/// A bijection between "old" (natural/lexicographic) and "new"
/// (reordered) row indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<u32>,
    old_of_new: Vec<u32>,
}

impl Permutation {
    /// Identity permutation on `n` indices.
    pub fn identity(n: usize) -> Self {
        let v: Vec<u32> = (0..n as u32).collect();
        Permutation { new_of_old: v.clone(), old_of_new: v }
    }

    /// Build from the *new order*: `order[k]` is the old index that
    /// becomes new index `k`. Panics unless `order` is a bijection.
    pub fn from_new_order(order: &[u32]) -> Self {
        let n = order.len();
        let mut new_of_old = vec![u32::MAX; n];
        for (new_i, &old_i) in order.iter().enumerate() {
            assert!((old_i as usize) < n, "index out of range");
            assert_eq!(new_of_old[old_i as usize], u32::MAX, "duplicate index {}", old_i);
            new_of_old[old_i as usize] = new_i as u32;
        }
        Permutation { new_of_old, old_of_new: order.to_vec() }
    }

    /// Size of the index set.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether this is the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// New index of an old index.
    #[inline]
    pub fn new_of_old(&self, old: usize) -> usize {
        self.new_of_old[old] as usize
    }

    /// Old index of a new index.
    #[inline]
    pub fn old_of_new(&self, new: usize) -> usize {
        self.old_of_new[new] as usize
    }

    /// Permute a vector: `out[new_of_old[i]] = x[i]`.
    pub fn apply<S: Copy>(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.len());
        self.old_of_new.iter().map(|&old| x[old as usize]).collect()
    }

    /// Inverse-permute a vector: `out[i] = x[new_of_old[i]]`.
    pub fn apply_inverse<S: Copy>(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.len());
        self.new_of_old.iter().map(|&new| x[new as usize]).collect()
    }

    /// The inverse permutation as its own object.
    pub fn inverse(&self) -> Permutation {
        Permutation { new_of_old: self.old_of_new.clone(), old_of_new: self.new_of_old.clone() }
    }

    /// Remap a list of old row indices in place to new indices (used to
    /// translate halo send lists and injection maps after reordering).
    pub fn remap_indices(&self, idx: &mut [u32]) {
        for i in idx.iter_mut() {
            *i = self.new_of_old[*i as usize];
        }
    }
}

/// Positions of one color in a color-block order, cut in two: the color
/// is `start..end`, its interior rows `start..split` and its boundary
/// rows `split..end` (rows that may be relaxed while the halo is in
/// flight, and rows that read ghosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColorRange {
    /// First position of the color.
    pub start: usize,
    /// First boundary position of the color (`end` if it has none).
    pub split: usize,
    /// One past the color's last position.
    pub end: usize,
}

impl ColorRange {
    /// Every position of the color.
    pub fn all(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Positions of the color's interior rows.
    pub fn interior(&self) -> Range<usize> {
        self.start..self.split
    }

    /// Positions of the color's boundary rows.
    pub fn boundary(&self) -> Range<usize> {
        self.split..self.end
    }
}

/// Order rows by `(color, class, row)`: all color-0 rows first, then
/// color-1, etc.; within a color the rows of class 0, then class 1, …
/// (`class(row) < nclasses`); increasing row order within each such
/// bucket. This is the independent-set ordering of §3.2.1 — after it,
/// each color's rows form a contiguous block that a GPU (or a thread
/// pool) can sweep in parallel, and each class (say, the rows that must
/// wait for the halo) is one sub-range of it. One counting-sort pass
/// over the rows.
///
/// Returns the permutation (new index = position) and the
/// `ncolors * nclasses + 1` bucket bounds: color `c`'s class-`k` rows
/// sit at positions `bounds[c * nclasses + k]..bounds[c * nclasses + k + 1]`.
pub fn color_block_order(
    colors: &[u32],
    nclasses: usize,
    class: impl Fn(usize) -> usize,
) -> (Permutation, Vec<usize>) {
    let ncolors = colors.iter().copied().max().map_or(0, |m| m as usize + 1);
    let buckets: Vec<u32> = colors
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let k = class(i);
            assert!(k < nclasses, "row {i} has class {k}, not below {nclasses}");
            (c as usize * nclasses + k) as u32
        })
        .collect();
    let mut bounds = vec![0usize; ncolors * nclasses + 1];
    for &b in &buckets {
        bounds[b as usize + 1] += 1;
    }
    for b in 1..bounds.len() {
        bounds[b] += bounds[b - 1];
    }
    let mut next = bounds.clone();
    let mut order = vec![0u32; colors.len()];
    for (i, &b) in buckets.iter().enumerate() {
        order[next[b as usize]] = i as u32;
        next[b as usize] += 1;
    }
    (Permutation::from_new_order(&order), bounds)
}

/// Reverse Cuthill–McKee ordering of the owned block's graph.
///
/// Classic bandwidth-reducing ordering: BFS from a minimum-degree seed,
/// visiting neighbors in increasing-degree order, then reverse. Ghost
/// columns are ignored (each rank orders its subdomain independently,
/// as the paper prescribes).
pub fn rcm_order<S: Scalar>(a: &CsrMatrix<S>) -> Permutation {
    let n = a.nrows();
    if n == 0 {
        return Permutation::identity(0);
    }
    let degree = |i: usize| -> usize {
        let (cols, _) = a.row(i);
        cols.iter().filter(|&&c| (c as usize) < n && c as usize != i).count()
    };
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    let mut nbrs: Vec<u32> = Vec::new();

    // Cover every connected component (the stencil graph is connected,
    // but generality is cheap and keeps the function total).
    while let Some(seed) = (0..n).filter(|&i| !visited[i]).min_by_key(|&i| degree(i)) {
        visited[seed] = true;
        queue.push_back(seed as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let (cols, _) = a.row(v as usize);
            nbrs.clear();
            nbrs.extend(
                cols.iter().copied().filter(|&c| {
                    (c as usize) < n && !visited[c as usize] && c as usize != v as usize
                }),
            );
            nbrs.sort_unstable_by_key(|&c| degree(c as usize));
            for &c in &nbrs {
                if !visited[c as usize] {
                    visited[c as usize] = true;
                    queue.push_back(c);
                }
            }
        }
    }
    order.reverse();
    Permutation::from_new_order(&order)
}

/// Half bandwidth of the owned block: `max |i - j|` over stored entries.
/// Used by tests to confirm RCM actually reduces bandwidth.
pub fn bandwidth<S: Scalar>(a: &CsrMatrix<S>) -> usize {
    let n = a.nrows();
    let mut bw = 0usize;
    for i in 0..n {
        let (cols, _) = a.row(i);
        for &c in cols {
            if (c as usize) < n {
                bw = bw.max(i.abs_diff(c as usize));
            }
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    fn path_graph(n: usize) -> CsrMatrix<f64> {
        let mut b = CsrBuilder::new(n, n, 3 * n);
        for i in 0..n {
            let mut row = Vec::new();
            if i > 0 {
                row.push(((i - 1) as u32, -1.0));
            }
            row.push((i as u32, 2.0));
            if i + 1 < n {
                row.push(((i + 1) as u32, -1.0));
            }
            b.push_row(row);
        }
        b.finish()
    }

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        let x = vec![1, 2, 3, 4, 5];
        assert_eq!(p.apply(&x), x);
        assert_eq!(p.apply_inverse(&x), x);
    }

    #[test]
    fn empty_permutation_applies_to_empty_vectors() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.apply::<f64>(&[]).is_empty());
        assert!(p.apply_inverse::<f64>(&[]).is_empty());
    }

    #[test]
    fn apply_and_inverse_cancel() {
        let p = Permutation::from_new_order(&[2, 0, 3, 1]);
        let x = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(p.apply_inverse(&p.apply(&x)), x);
        assert_eq!(p.apply(&p.apply_inverse(&x)), x);
        // new 0 takes old 2.
        assert_eq!(p.apply(&x)[0], 30.0);
    }

    #[test]
    fn inverse_object_matches() {
        let p = Permutation::from_new_order(&[2, 0, 3, 1]);
        let pi = p.inverse();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(pi.apply(&x), p.apply_inverse(&x));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn non_bijection_rejected() {
        Permutation::from_new_order(&[0, 0, 1]);
    }

    #[test]
    fn color_block_groups_rows() {
        let colors = vec![1, 0, 1, 0, 2];
        let (p, bounds) = color_block_order(&colors, 1, |_| 0);
        // New order: old rows 1,3 (color 0), then 0,2 (color 1), then 4.
        let order: Vec<usize> = (0..5).map(|i| p.old_of_new(i)).collect();
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
        assert_eq!(bounds, vec![0, 2, 4, 5]);

        // Class-1 rows sort last within their color.
        let (p, bounds) = color_block_order(&colors, 2, |i| (i == 1 || i == 4) as usize);
        let order: Vec<usize> = (0..5).map(|i| p.old_of_new(i)).collect();
        assert_eq!(order, vec![3, 1, 0, 2, 4]);
        assert_eq!(bounds, vec![0, 1, 2, 4, 4, 4, 5]);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // Shuffle a path graph, then check RCM restores bandwidth 1.
        let a = path_graph(16);
        let shuffle =
            Permutation::from_new_order(&[7, 0, 12, 3, 15, 9, 1, 13, 5, 11, 2, 14, 6, 10, 4, 8]);
        let shuffled = a.symmetric_permute(&shuffle);
        assert!(bandwidth(&shuffled) > 1);
        let rcm = rcm_order(&shuffled);
        let restored = shuffled.symmetric_permute(&rcm);
        assert_eq!(bandwidth(&restored), 1);
    }

    #[test]
    fn remap_indices_translates() {
        let p = Permutation::from_new_order(&[2, 0, 1]);
        let mut idx = vec![0u32, 1, 2];
        p.remap_indices(&mut idx);
        // old 0 -> new 1, old 1 -> new 2, old 2 -> new 0.
        assert_eq!(idx, vec![1, 2, 0]);
    }
}
