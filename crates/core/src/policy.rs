//! The precision-policy engine: three independently chosen precision
//! axes, selected at runtime.
//!
//! The paper's thesis is that HPG-MxP scales the memory wall by
//! shrinking the *bytes moved*; its §5 future work (and HPL-MxP's
//! design) treat precision as a tunable algorithm parameter rather
//! than a type. This module decouples the three axes the rest of the
//! stack had fused into one generic parameter:
//!
//! * **storage** — the precision of the matrix values, *per multigrid
//!   level* (the dominant traffic: `nnz × bytes` per sweep). The split
//!   kernels in `hpgmxp-sparse` load stored values and widen on the
//!   fly, so fp32- or fp16-stored operators run under a wider compute
//!   precision without a separate matrix copy per precision.
//! * **compute** — the accumulate precision of the inner solve's
//!   vectors and arithmetic (SpMV/GS accumulators, BLAS, CGS2). The
//!   GMRES-IR outer residual and solution update stay in `f64`
//!   regardless — that invariant is what lets every policy reach the
//!   benchmark's 1e-9 tolerance.
//! * **wire** — the ghost format halo exchanges put on the network,
//!   rounded on pack and widened on unpack (the `wire_bytes` argument
//!   of `hpgmxp-comm`'s `HaloExchange::begin`), independent of both
//!   other axes.
//!
//! A [`PrecisionPolicy`] is plain serde-configurable data; the
//! enum-dispatch layer in [`crate::ops`] maps it back onto the
//! monomorphized kernels, so `ablation_study` and the benchmark phases
//! can sweep policies in one process without compiling every
//! combination into every call site.

use hpgmxp_sparse::PrecKind;
use serde::{Deserialize, Serialize};

/// Deepest multigrid hierarchy a policy context tracks (the benchmark
/// fixes 4 levels; 8 leaves slack for experiments).
pub const MAX_LEVELS: usize = 8;

/// A runtime-selected precision scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrecisionPolicy {
    /// Short name used in reports (e.g. `"f32s-f64c"`).
    pub name: String,
    /// Matrix-value storage precision per multigrid level, finest
    /// first. Shorter than the hierarchy = the last entry repeats on
    /// the remaining (coarser) levels, so `[F32]` means "fp32
    /// everywhere" and `[F64, F32]` means "f64 fine grid, fp32 below".
    pub storage: Vec<PrecKind>,
    /// Compute/accumulate precision of the inner solve.
    pub compute: PrecKind,
    /// Wire format of halo ghosts during the inner solve.
    pub wire: PrecKind,
}

impl PrecisionPolicy {
    /// A uniform policy: one storage precision on every level, wire at
    /// the compute precision.
    pub fn uniform(name: &str, storage: PrecKind, compute: PrecKind) -> Self {
        PrecisionPolicy { name: name.to_string(), storage: vec![storage], compute, wire: compute }
    }

    /// Everything double: Algorithm 2, the benchmark's "double" phase.
    pub fn f64() -> Self {
        Self::uniform("f64", PrecKind::F64, PrecKind::F64)
    }

    /// The benchmark's mixed solver, Algorithm 3: storage = compute =
    /// wire = fp32 in the inner solve.
    pub fn f32() -> Self {
        Self::uniform("f32", PrecKind::F32, PrecKind::F32)
    }

    /// The same axes under another report label (the benchmark reports
    /// its `f32` and `f64` phases as `"mxp"` and `"double"`).
    pub fn named(self, name: &str) -> Self {
        PrecisionPolicy { name: name.to_string(), ..self }
    }

    /// Is this the plain double solver — every axis `f64` on every
    /// level, so refinement has nothing to recover and the iteration
    /// penalty is 1 by construction?
    pub fn is_double(&self) -> bool {
        let all_f64 = self.storage.iter().all(|&k| k == PrecKind::F64);
        all_f64 && self.compute == PrecKind::F64 && self.wire == PrecKind::F64
    }

    /// Storage kind of multigrid level `depth` (last entry repeats).
    pub fn storage_at(&self, depth: usize) -> PrecKind {
        *self
            .storage
            .get(depth)
            .or_else(|| self.storage.last())
            .expect("policy storage list must be non-empty")
    }

    /// The policies this repository ships, spanning the paper's
    /// scenarios and its §5 future work:
    ///
    /// 1. `f64` — everything double (the "double" reference phase).
    /// 2. `f32s-f64c` — fp32-*stored* matrices under f64 compute:
    ///    halves the dominant matrix-value traffic while every
    ///    accumulation keeps double rounding (Carson-style balanced
    ///    inexactness).
    /// 3. `f32` — the benchmark's mixed solver (storage = compute =
    ///    wire = fp32 in the inner solve).
    /// 4. `f16s-f32c` — fp16-stored matrices under f32 compute: the
    ///    paper's half-precision scenario without the standalone-fp16
    ///    breakdown (values quarter-width, arithmetic still f32).
    /// 5. `f32-w16` — fp32 inner solve shipping fp16 ghosts: the wire
    ///    axis alone (quarter halo volume).
    /// 6. `descent` — per-level storage descent `[f64, f32, f16, f16]`
    ///    under f32 compute: accuracy where the residual lives,
    ///    aggressive compression on the smoothing-only coarse levels.
    ///
    /// Every shipped policy reaches the benchmark's 1e-9 tolerance
    /// (tested); the standalone-fp16 stress configuration lives in
    /// [`PrecisionPolicy::stress_f16`] because it can break down — the
    /// paper's §5 point, and the reason the fp16 *storage* policy
    /// above pairs half-width values with f32 accumulation instead.
    pub fn shipped() -> Vec<PrecisionPolicy> {
        use PrecKind::{F16, F32, F64};
        vec![
            PrecisionPolicy::f64(),
            PrecisionPolicy {
                name: "f32s-f64c".into(),
                storage: vec![F32],
                compute: F64,
                wire: F64,
            },
            PrecisionPolicy::f32(),
            PrecisionPolicy {
                name: "f16s-f32c".into(),
                storage: vec![F16],
                compute: F32,
                wire: F32,
            },
            PrecisionPolicy { name: "f32-w16".into(), storage: vec![F32], compute: F32, wire: F16 },
            PrecisionPolicy {
                name: "descent".into(),
                storage: vec![F64, F32, F16, F16],
                compute: F32,
                wire: F32,
            },
        ]
    }

    /// The standalone-fp16 stress configuration: storage, compute, and
    /// wire all at half precision in the inner solve. This is the
    /// scenario whose breakdown the paper's §5 warns about — fp16
    /// accumulators can underflow/overflow mid-cycle, in which case
    /// the solver honestly reports non-convergence (NaN residuals are
    /// never masked as success). Kept out of [`PrecisionPolicy::
    /// shipped`] so "every shipped policy reaches 1e-9" stays a
    /// testable invariant; sized-down problems do converge under it.
    pub fn stress_f16() -> PrecisionPolicy {
        PrecisionPolicy::uniform("f16", PrecKind::F16, PrecKind::F16)
    }

    /// Look up a policy by name among the shipped set plus the
    /// standalone-fp16 stress configuration.
    pub fn by_name(name: &str) -> Option<PrecisionPolicy> {
        Self::shipped()
            .into_iter()
            .chain(std::iter::once(Self::stress_f16()))
            .find(|p| p.name == name)
    }

    /// The compact per-kernel view the distributed kernels dispatch on.
    pub fn ctx(&self) -> PrecCtx {
        let mut storage = [None; MAX_LEVELS];
        for (d, slot) in storage.iter_mut().enumerate() {
            *slot = Some(self.storage_at(d));
        }
        PrecCtx { storage, wire: Some(self.wire) }
    }
}

/// The copyable, per-call view of a policy that rides inside
/// [`crate::ops::OpCtx`]: which storage kind each level's kernels load
/// and which wire format halo ghosts travel in. `None` entries mean
/// **native** — follow the compute scalar `S`, which reproduces the
/// pre-policy behavior bit for bit and is the default everywhere a
/// policy is not explicitly requested (including the f64 outer
/// residual of GMRES-IR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecCtx {
    /// Storage kind per level depth (`None` = native).
    pub storage: [Option<PrecKind>; MAX_LEVELS],
    /// Wire kind of halo ghosts (`None` = native).
    pub wire: Option<PrecKind>,
}

impl Default for PrecCtx {
    fn default() -> Self {
        Self::native()
    }
}

impl PrecCtx {
    /// The native context: storage and wire follow the compute scalar.
    pub fn native() -> Self {
        PrecCtx { storage: [None; MAX_LEVELS], wire: None }
    }

    /// Storage kind for a level at `depth` under compute kind
    /// `native`. Depths beyond [`MAX_LEVELS`] clamp to the last slot,
    /// matching `PrecisionPolicy::storage_at`'s repeat-the-last-entry
    /// semantics on arbitrarily deep hierarchies.
    #[inline]
    pub fn storage_kind(&self, depth: usize, native: PrecKind) -> PrecKind {
        self.storage[depth.min(MAX_LEVELS - 1)].unwrap_or(native)
    }

    /// Wire width in bytes under compute kind `native`.
    #[inline]
    pub fn wire_bytes(&self, native: PrecKind) -> usize {
        self.wire.unwrap_or(native).bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpgmxp_sparse::PrecKind::{F16, F32, F64};
    use hpgmxp_sparse::Scalar;

    #[test]
    fn storage_list_repeats_last_entry() {
        let p = PrecisionPolicy {
            name: "descent".into(),
            storage: vec![F64, F32],
            compute: F32,
            wire: F32,
        };
        assert_eq!(p.storage_at(0), F64);
        assert_eq!(p.storage_at(1), F32);
        assert_eq!(p.storage_at(3), F32, "last entry repeats on coarser levels");
    }

    #[test]
    fn shipped_policies_are_distinct_and_cover_the_axes() {
        let all = PrecisionPolicy::shipped();
        assert!(all.len() >= 6, "the ablation sweep needs at least 6 policies");
        let mut names: Vec<&str> = all.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names must be unique");
        // The three axes each vary somewhere in the shipped set.
        assert!(all.iter().any(|p| p.storage_at(0) != p.compute), "split storage");
        assert!(all.iter().any(|p| p.wire != p.compute), "split wire");
        assert!(all.iter().any(|p| p.storage.len() > 1), "per-level descent");
        assert!(PrecisionPolicy::by_name("f32s-f64c").is_some());
        assert!(PrecisionPolicy::by_name("nope").is_none());
    }

    #[test]
    fn ctx_resolves_depth_and_wire() {
        let p = PrecisionPolicy {
            name: "x".into(),
            storage: vec![F64, F32, F16],
            compute: F32,
            wire: F16,
        };
        let ctx = p.ctx();
        assert_eq!(ctx.storage_kind(0, F32), F64);
        assert_eq!(ctx.storage_kind(2, F32), F16);
        assert_eq!(ctx.storage_kind(7, F32), F16, "deep levels repeat");
        assert_eq!(ctx.storage_kind(12, F32), F16, "depths beyond MAX_LEVELS clamp, not panic");
        assert_eq!(ctx.wire_bytes(F32), 2);

        let native = PrecCtx::native();
        assert_eq!(native.storage_kind(0, F64), F64);
        assert_eq!(native.storage_kind(3, F16), F16);
        assert_eq!(native.wire_bytes(F64), 8);
    }

    #[test]
    fn serde_roundtrip() {
        let p = PrecisionPolicy {
            name: "descent".into(),
            storage: vec![F64, F32, F16, F16],
            compute: F32,
            wire: F16,
        };
        let s = serde_json::to_string(&p).unwrap();
        let q: PrecisionPolicy = serde_json::from_str(&s).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn native_kind_constants_line_up() {
        assert_eq!(<f64 as Scalar>::KIND, F64);
        assert_eq!(<f32 as Scalar>::KIND, F32);
        assert_eq!(<hpgmxp_sparse::Half as Scalar>::KIND, F16);
        assert_eq!(F64.bytes(), 8);
        assert_eq!(F32.bytes(), 4);
        assert_eq!(F16.bytes(), 2);
        assert_eq!(PrecKind::parse("fp32"), Some(F32));
    }
}
