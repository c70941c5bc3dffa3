//! Sparse and dense computational motifs of the HPG-MxP benchmark.
//!
//! HPG-MxP measures a machine's throughput on the memory-bandwidth-bound
//! motifs of sparse iterative solvers. This crate implements all of them,
//! in both storage formats discussed by the paper and generically over
//! the working precision:
//!
//! * [`scalar`] — the [`scalar::Scalar`] abstraction over `f32`/`f64`
//!   that lets every kernel be instantiated at either precision (the
//!   benchmark's "low precision" is `f32`; the reference precision is
//!   `f64`),
//! * [`csr`] — compressed sparse row storage (the reference
//!   implementation's format),
//! * [`ell`] — ELLPACK storage with column-major padding (the paper's
//!   optimized format, §3.2.2), rows stored in a chosen order so each
//!   color of a multicolored matrix is one contiguous slab range,
//! * [`coloring`] — multicoloring to expose parallelism inside
//!   Gauss–Seidel (§3.2.1): greedy, which assembly uses, and
//!   Jones–Plassmann–Luby, the paper's GPU algorithm, kept for
//!   comparison,
//! * [`ordering`] — permutations, color-block ordering, and reverse
//!   Cuthill–McKee (for the ordering-quality comparisons §3.2.1 cites),
//! * [`levels`] — level scheduling of triangular sweeps (the reference
//!   implementation's parallelization strategy),
//! * [`gauss_seidel`] — forward/backward/symmetric and multicolor
//!   Gauss–Seidel sweeps in relaxation form,
//! * [`blas`] — DOT/NRM2/WAXPBY/GEMV kernels, including the fused
//!   mixed-precision variants the optimized benchmark performs on the
//!   device (§3.2.5),
//! * [`simd`] — runtime-dispatched (AVX2/FMA/F16C with a portable
//!   scalar fallback) vector primitives the hot loops above are built
//!   on: batch precision converters, widening gathers/loads, and
//!   tile-wide FMA accumulation.

pub mod blas;
pub mod coloring;
pub mod csr;
pub mod ell;
pub mod gauss_seidel;
pub mod half;
pub mod levels;
pub mod ordering;
pub mod scalar;
pub mod shared;
pub mod simd;

pub use coloring::{greedy_coloring, jpl_coloring, Coloring};
pub use csr::{CsrBuilder, CsrMatrix};
pub use ell::EllMatrix;
pub use half::Half;
pub use levels::LevelSchedule;
pub use ordering::{ColorRange, Permutation};
pub use scalar::{PrecKind, Scalar};
