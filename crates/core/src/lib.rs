//! The HPG-MxP benchmark core: problem, preconditioner, solvers, and
//! the three benchmark phases.
//!
//! This crate assembles the distributed benchmark problem on top of
//! `hpgmxp-geometry`, runs the computational motifs of `hpgmxp-sparse`
//! through the communication substrate of `hpgmxp-comm`, and implements
//! the complete solver stack of the paper:
//!
//! * [`config`] — the benchmark parameters of Table 1;
//! * [`problem`] — distributed assembly of the 27-point operator and
//!   the full 4-level multigrid hierarchy, in the precisions a policy
//!   names and both storage formats, with coloring, level schedules,
//!   and halo plans;
//! * [`motifs`] — the motif taxonomy (GS, SpMV, Ortho, Restriction, …)
//!   with per-motif time/FLOP accounting;
//! * [`flops`] — the operation-count model used for the GFLOP/s metric;
//! * [`ops`] — distributed kernels: overlapped SpMV, multicolor
//!   Gauss–Seidel, the fused SpMV-restriction (§3.2.4), reductions;
//! * [`mg`] — the geometric multigrid V-cycle preconditioner;
//! * [`givens`] — Givens-rotation QR of the Hessenberg matrix;
//! * [`ortho`] — distributed CGS2 (and MGS) orthogonalization;
//! * [`matrix_free`] — the stencil operator applied without a stored
//!   matrix (the conclusion's matrix-free GMRES configuration);
//! * [`gmres`] — restarted right-preconditioned GMRES, Algorithm 2;
//! * [`gmres_ir`] — mixed-precision GMRES-IR, Algorithm 3;
//! * [`cg`] — the HPCG baseline (preconditioned CG, Algorithm 1);
//! * [`checkpoint`] — write-ahead checkpoint/restore of the GMRES-IR
//!   outer iteration (crash-consistent two-phase commit, CRC-framed);
//! * [`policy`] — the precision-policy engine: runtime-selected
//!   storage (per level) / compute / wire precisions, decoupled;
//! * [`benchmark`] — validation (standard and fullscale, §3.3), the
//!   timed phases, the penalty metric, and report generation.

pub mod benchmark;
pub mod cg;
pub mod checkpoint;
pub mod config;
pub mod flops;
pub mod givens;
pub mod gmres;
pub mod gmres_ir;
pub mod matrix_free;
pub mod mg;
pub mod motifs;
pub mod ops;
pub mod ortho;
pub mod policy;
pub mod problem;

pub use benchmark::{BenchmarkReport, ValidationMode, ValidationResult};
pub use checkpoint::{CheckpointSpec, OuterState};
pub use config::{BenchmarkParams, ImplVariant};
pub use gmres::{GmresOptions, SolveStats};
pub use motifs::{Motif, MotifStats};
pub use policy::{PrecCtx, PrecisionPolicy};
pub use problem::{Level, LocalProblem, ProblemSpec};
