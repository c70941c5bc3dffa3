//! Interconnect model: halo messages and all-reduces.
//!
//! HPG-MxP's communication has two shapes (§2): nearest-neighbor halo
//! exchanges whose volume scales as the subdomain surface (bandwidth
//! plus per-message latency for up to 26 neighbors), and the global
//! all-reduces behind every inner product, whose cost grows with
//! log₂(P) — the term the paper blames for the weak-scaling efficiency
//! loss near full system (§4.1: "the scaling efficiency decreases due
//! to the many inner products required by the GMRES algorithm").

use serde::{Deserialize, Serialize};

/// A cluster interconnect as seen by one rank.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Name for reports.
    pub name: String,
    /// Point-to-point message latency, seconds.
    pub latency: f64,
    /// Per-rank injection bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Per-hop latency of the all-reduce tree, seconds (includes
    /// software stack and switch traversal).
    pub allreduce_hop: f64,
    /// Synchronization-skew / congestion coefficient, seconds per
    /// √rank. An ideal tree all-reduce costs `O(log P)`, but measured
    /// small-message all-reduces on real systems degrade faster at
    /// scale because every participant must also absorb OS noise and
    /// network congestion; a √P term reproduces the published Frontier
    /// MPI_Allreduce measurements (hundreds of µs to ms at full
    /// system) and the weak-scaling droop of the paper's figure 4.
    pub congestion: f64,
}

impl NetworkModel {
    /// Frontier's Slingshot-11: ~2 µs MPI latency, 4×25 GB/s NICs per
    /// node shared by 8 GCDs (~12.5 GB/s per rank), measured large-scale
    /// all-reduce hop cost ~6 µs (tuned so that a scalar all-reduce at
    /// 75 264 ranks costs ~100 µs, consistent with published Frontier
    /// MPI measurements).
    pub fn frontier_slingshot() -> Self {
        NetworkModel {
            name: "HPE Slingshot-11 (Frontier)".into(),
            latency: 2.0e-6,
            bandwidth: 12.5e9,
            allreduce_hop: 6.0e-6,
            congestion: 7.0e-6,
        }
    }

    /// A commodity FDR InfiniBand cluster of the K80 era.
    pub fn commodity_ib() -> Self {
        NetworkModel {
            name: "FDR InfiniBand (commodity)".into(),
            latency: 3.0e-6,
            bandwidth: 6.0e9,
            allreduce_hop: 8.0e-6,
            congestion: 4.0e-6,
        }
    }

    /// Shared-memory "network" for single-node studies.
    pub fn shared_memory() -> Self {
        NetworkModel {
            name: "shared memory".into(),
            latency: 0.3e-6,
            bandwidth: 50.0e9,
            allreduce_hop: 0.5e-6,
            congestion: 0.0,
        }
    }

    /// Time for one halo exchange: `msgs` messages totalling `bytes`
    /// (both directions are concurrent; the per-rank injection
    /// bandwidth bounds the send side).
    pub fn halo_time(&self, msgs: usize, bytes: f64) -> f64 {
        if msgs == 0 {
            return 0.0;
        }
        msgs as f64 * self.latency + bytes / self.bandwidth
    }

    /// Time for one all-reduce of `bytes` over `ranks` ranks, priced as
    /// the collective engine runs it — recursive doubling: reduce +
    /// broadcast over `2·⌈log₂P⌉` hops, plus the bandwidth term
    /// (negligible for the scalar reductions of GMRES but kept for the
    /// blocked CGS2 reductions), plus the `√P` congestion term (OS
    /// noise and fabric contention every participant absorbs).
    pub fn allreduce_time(&self, ranks: usize, bytes: f64) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let p = ranks as f64;
        let hops = 2.0 * p.log2().ceil();
        hops * self.allreduce_hop + self.congestion * p.sqrt() + bytes / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_time_scales_with_messages_and_volume() {
        let n = NetworkModel::frontier_slingshot();
        let t1 = n.halo_time(6, 1e6);
        let t2 = n.halo_time(26, 1e6);
        let t3 = n.halo_time(6, 2e6);
        assert!(t2 > t1);
        assert!(t3 > t1);
        assert_eq!(n.halo_time(0, 0.0), 0.0);
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let n = NetworkModel::frontier_slingshot();
        let t8 = n.allreduce_time(8, 8.0);
        let t64 = n.allreduce_time(64, 8.0);
        let t75k = n.allreduce_time(75_264, 8.0);
        assert!(t64 > t8);
        // 34 tree hops (~204 µs) plus √75264 · 7 µs of congestion
        // (~1.9 ms): the millisecond-scale full-system all-reduce the
        // paper blames for its efficiency loss.
        assert!(t75k > 1.0e-3 && t75k < 4.0e-3, "got {}", t75k);
        assert_eq!(n.allreduce_time(1, 8.0), 0.0);
    }

    #[test]
    fn single_rank_communicates_nothing() {
        let n = NetworkModel::shared_memory();
        assert_eq!(n.allreduce_time(1, 1e9), 0.0);
    }
}
