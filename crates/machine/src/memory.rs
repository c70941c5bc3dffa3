//! Device-memory capacity model — the conclusion's trade-off,
//! quantified.
//!
//! §5 of the paper: *"the mixed-precision GMRES-IR solver requires a
//! lower-precision copy of the system matrix. This means its overall
//! memory utilization is more than double-precision GMRES. In order to
//! compensate ... we should utilize a larger mesh size while running
//! double-precision GMRES ... The benchmark could be modified to take
//! this into account. In some applications ... the matrix-free variant
//! of GMRES may be used, and] only the low-precision matrix needs to
//! be stored."*
//!
//! This module computes per-rank memory footprints for the three
//! storage configurations (stored double, stored mixed, matrix-free
//! mixed) and the largest local box each fits in a device's memory, so
//! the capacity-compensated comparison the conclusion proposes can be
//! carried out (see the `memory_capacity` harness binary).

use crate::workload::Workload;
use serde::{Deserialize, Serialize};

/// Which solver storage configuration to size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageConfig {
    /// Pure double GMRES: f64 ELL operator + f64 Krylov basis.
    StoredDouble,
    /// GMRES-IR as the benchmark runs it: f64 **and** f32 ELL
    /// operators + f32 basis (the conclusion's memory complaint).
    /// The paper's accounting; the `f32` policy holds less (measured by
    /// `hpgmxp-core`'s `Level::{value_bytes, index_bytes}`): its copies
    /// share one index array per level and coarse levels hold no f64.
    StoredMixed,
    /// Matrix-free GMRES-IR: the f64 fine operator applied from the
    /// stencil; only the f32 preconditioner matrices are stored.
    MatrixFreeMixed,
}

/// Breakdown of one rank's memory use, bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Configuration sized.
    pub config: StorageConfig,
    /// Operator storage over all multigrid levels.
    pub matrices: f64,
    /// Krylov basis (`m + 1` vectors at the inner precision).
    pub basis: f64,
    /// Solver vectors (solution, rhs, residual, temporaries, per-level
    /// workspace, ghosts).
    pub vectors: f64,
    /// Total bytes.
    pub total: f64,
}

/// ELL storage bytes of one level: `width · n` values plus 4-byte
/// column indices.
fn ell_bytes(n: f64, width: f64, scalar_bytes: f64) -> f64 {
    n * width * (scalar_bytes + 4.0)
}

/// Compute the memory footprint of one rank for `local`-sized boxes.
pub fn footprint(
    local: (u32, u32, u32),
    mg_levels: usize,
    restart: usize,
    config: StorageConfig,
) -> MemoryFootprint {
    let wl = Workload::build(local, mg_levels, restart, 27); // interior rank
    let n_fine = wl.fine().n;

    let mut matrices = 0.0;
    for (l, shape) in wl.levels.iter().enumerate() {
        let fine_level = l == 0;
        match config {
            StorageConfig::StoredDouble => {
                matrices += ell_bytes(shape.n, shape.ell_width, 8.0);
            }
            StorageConfig::StoredMixed => {
                matrices += ell_bytes(shape.n, shape.ell_width, 8.0)
                    + ell_bytes(shape.n, shape.ell_width, 4.0);
            }
            StorageConfig::MatrixFreeMixed => {
                // The f64 fine operator is matrix-free; coarse levels and
                // the f32 preconditioner copies remain stored.
                if !fine_level {
                    matrices += ell_bytes(shape.n, shape.ell_width, 8.0);
                }
                matrices += ell_bytes(shape.n, shape.ell_width, 4.0);
            }
        }
    }

    let inner_bytes = match config {
        StorageConfig::StoredDouble => 8.0,
        _ => 4.0,
    };
    let basis = n_fine * (restart as f64 + 1.0) * inner_bytes;

    // x, b, r, Ax in f64 plus per-level z/r workspace in the inner
    // precision (with ~5% ghost overhead).
    let level_rows: f64 = wl.levels.iter().map(|s| s.n).sum();
    let vectors = 4.0 * n_fine * 8.0 + 2.0 * level_rows * inner_bytes * 1.05;

    MemoryFootprint { config, matrices, basis, vectors, total: matrices + basis + vectors }
}

/// The largest cubic local box (edge a multiple of `2^(levels-1)`)
/// whose footprint fits in `device_bytes`.
pub fn max_local_edge(
    device_bytes: f64,
    mg_levels: usize,
    restart: usize,
    config: StorageConfig,
) -> u32 {
    let step = 1u32 << (mg_levels - 1);
    let mut best = 0;
    let mut edge = step;
    while edge <= 2048 {
        if footprint((edge, edge, edge), mg_levels, restart, config).total <= device_bytes {
            best = edge;
        } else {
            break;
        }
        edge += step;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const GCD_HBM: f64 = 64.0 * 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn mixed_costs_more_than_double() {
        // The conclusion's observation, in bytes.
        let d = footprint((320, 320, 320), 4, 30, StorageConfig::StoredDouble);
        let m = footprint((320, 320, 320), 4, 30, StorageConfig::StoredMixed);
        assert!(m.total > d.total);
        // The extra is the f32 matrix copy: ratio ≈ (12+8)/12 on the
        // matrix side.
        let ratio = m.matrices / d.matrices;
        assert!((ratio - 20.0 / 12.0).abs() < 0.01, "got {}", ratio);
    }

    #[test]
    fn matrix_free_mixed_is_leaner_than_stored_double() {
        // The conclusion's counterpoint: drop the stored f64 fine
        // operator and mixed precision becomes the *smaller*
        // configuration.
        let d = footprint((320, 320, 320), 4, 30, StorageConfig::StoredDouble);
        let mf = footprint((320, 320, 320), 4, 30, StorageConfig::MatrixFreeMixed);
        assert!(mf.total < d.total, "{} vs {}", mf.total, d.total);
    }

    #[test]
    fn paper_operating_point_fits_on_a_gcd() {
        // Table 1 runs 320³ per GCD in mixed mode on 64 GB — the model
        // must agree it fits with room to spare.
        let m = footprint((320, 320, 320), 4, 30, StorageConfig::StoredMixed);
        assert!(m.total < GCD_HBM, "{} GB", m.total / 1e9);
        assert!(m.total > 0.2 * GCD_HBM, "not implausibly small: {} GB", m.total / 1e9);
    }

    #[test]
    fn capacity_ordering_of_max_edges() {
        let d = max_local_edge(GCD_HBM, 4, 30, StorageConfig::StoredDouble);
        let m = max_local_edge(GCD_HBM, 4, 30, StorageConfig::StoredMixed);
        let mf = max_local_edge(GCD_HBM, 4, 30, StorageConfig::MatrixFreeMixed);
        // Double fits a larger box than stored-mixed (the conclusion's
        // compensation argument); matrix-free mixed beats both.
        assert!(d > m, "double {} vs mixed {}", d, m);
        assert!(mf > d, "matrix-free {} vs double {}", mf, d);
        // All comfortably above the paper's 320.
        assert!(m >= 320, "mixed max edge {}", m);
    }

    #[test]
    fn footprint_components_are_positive_and_sum() {
        let f = footprint((64, 64, 64), 4, 30, StorageConfig::StoredMixed);
        assert!(f.matrices > 0.0 && f.basis > 0.0 && f.vectors > 0.0);
        assert!((f.total - (f.matrices + f.basis + f.vectors)).abs() < 1.0);
    }
}
