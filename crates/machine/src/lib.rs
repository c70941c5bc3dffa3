//! Analytic performance models of the machines the paper ran on.
//!
//! The paper's headline results were produced on Frontier (9 408 nodes,
//! 75 264 MI250x GCDs) and a small NVIDIA K80 cluster — hardware this
//! reproduction does not have. Per the substitution methodology in
//! DESIGN.md, this crate models those machines from first principles
//! and *re-derives* every at-scale figure from the actual data
//! structures and operation counts of our implementation:
//!
//! * [`model`] — device models (memory bandwidth, peak FLOP rates,
//!   kernel-launch overhead) with calibrated presets for an MI250x GCD,
//!   a K80 die, and a generic CPU core;
//! * [`network`] — interconnect model (message latency, per-rank
//!   bandwidth, log₂(P) all-reduce cost);
//! * [`kernels`] — per-kernel byte/FLOP volumes for both storage
//!   formats, both precisions, and both implementation variants,
//!   including the reference code's extra passes and host round-trips;
//! * [`workload`] — the per-iteration operation inventory of
//!   GMRES/GMRES-IR (how many sweeps, exchanges, reductions, and GEMV
//!   passes one iteration costs at each multigrid level);
//! * [`simulate`] — the execution-time simulator: per-motif seconds and
//!   GFLOP/s per rank as functions of scale (figures 4, 5, 6, 7);
//! * [`memory`] — device-memory footprints of the stored-double,
//!   stored-mixed, and matrix-free-mixed configurations (the
//!   conclusion's capacity trade-off);
//! * [`roofline`] — arithmetic-intensity/throughput points for the ten
//!   most expensive kernels (figure 8);
//! * [`trace`] — a discrete-event overlap simulator producing
//!   rocprof-style timelines of the smoother's halo exchange
//!   (figure 9).
//!
//! Every byte count comes from the concrete layouts in
//! `hpgmxp-sparse` (ELL padding, CSR row pointers, 4-byte column ids)
//! and every FLOP count from `hpgmxp_core::flops` — the same accounting
//! the measured benchmark uses — so model and measurement are directly
//! comparable.

pub mod kernels;
pub mod memory;
pub mod model;
pub mod network;
pub mod roofline;
pub mod simulate;
pub mod trace;
pub mod workload;

pub use model::MachineModel;
pub use network::NetworkModel;
pub use simulate::{SimConfig, SimResult};
pub use workload::Workload;
