//! The campaign harness: a declarative experiment subsystem unifying
//! measured runs, machine-model projections, and per-policy weak
//! scaling.
//!
//! The paper's headline results (figures 4–7, Table 2) are *campaigns*
//! — sweeps over node counts, precision variants, and implementation
//! variants under a rating methodology. This crate owns that
//! orchestration, the way HPL-MxP's driver owns its run/report
//! pipeline, instead of leaving each figure binary to hand-roll it:
//!
//! * [`spec`] — [`CampaignSpec`]: serde-configured
//!   axes (local dims, thread-rank counts, precision policies by name
//!   or inline, implementation variants, modeled node counts against
//!   named machine/network models) and a
//!   [`SeriesMode`] per series;
//! * [`engine`] — plans the cross-product, executes with progress
//!   logging ([`engine::run_campaign`]), reconciles measurement
//!   against the byte model in Hybrid mode, and feeds measured
//!   iteration penalties into at-scale projections;
//! * [`measure`] — the exact byte reconciliation (measured kernel
//!   traffic vs `Workload::policy_*_bytes`);
//! * [`report`] — the versioned [`CampaignReport`](report::
//!   CampaignReport): JSON for machines, aligned text for humans, with
//!   non-converged cells carried as explicit `Unrated` (`n/c`) rows
//!   and host metadata recorded alongside the numbers.
//!
//! The figure binaries in `hpgmxp-bench` (`fig4_weak_scaling`,
//! `fig5_speedups`, `ablation_study`) are thin frontends over this
//! crate, and `campaigns/*.json` at the repository root hold the
//! shipped specs (`paper_frontier`, `policy_sweep`, `smoke`); run one
//! with
//! `cargo run --release -p hpgmxp-harness --bin campaign -- <spec>`.

pub mod engine;
pub mod measure;
pub mod report;
pub mod spec;

pub use engine::{plan, run_campaign, CellPlan, CellScale};
pub use report::{CampaignReport, CellReport, CellStatus, HostMeta, REPORT_SCHEMA};
pub use spec::{CampaignSpec, PolicyRef, SeriesMode, SeriesSpec, SPEC_SCHEMA};
