//! The workloads and the metric names, units and directions:
//! `BENCHMARK.json` declares the same lists and a test holds the two
//! together.

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Local mesh points per rank in each dimension.
    pub n: u32,
    pub procs: (u32, u32, u32),
    /// `RAYON_NUM_THREADS` of the child process (threads per rank).
    pub threads: usize,
    /// Shipped precision policy of the mixed solve.
    pub policy: &'static str,
    pub why: &'static str,
}

impl Workload {
    pub fn ranks(&self) -> usize {
        (self.procs.0 * self.procs.1 * self.procs.2) as usize
    }

    /// Threads that stream memory at once: the `tw` of `triad_gibs_tw`.
    pub fn compute_threads(&self) -> usize {
        self.ranks() * self.threads
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "n64_p1_f32",
        n: 64,
        procs: (1, 1, 1),
        threads: 2,
        policy: "f32",
        why: "the paper's configuration, memory-bound: sparse kernels under GS, CGS2 and SpMV \
              do all the work and comm does none",
    },
    Workload {
        name: "n32_p1_f32",
        n: 32,
        procs: (1, 1, 1),
        threads: 1,
        policy: "f32",
        why: "plain single-threaded baseline near cache: byte-saving changes move little, \
              latency-bound fixes show most, restart granularity bites",
    },
    Workload {
        name: "n32_p2_thread_f32",
        n: 32,
        procs: (2, 1, 1),
        threads: 1,
        policy: "f32",
        why: "two ThreadWorld ranks, the only workload where comm works: halo begin/finish, \
              pack/unpack, allreduces; weak-scaling pair of n32_p1_f32",
    },
    Workload {
        name: "n64_p1_f16s",
        n: 64,
        procs: (1, 1, 1),
        threads: 2,
        policy: "f16s-f32c",
        why: "fp16-stored matrices widened on load: the same sparse layer through the split \
              kernels and the F16C converters",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed and measuring time when the command line gives none; the time
/// is `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SEED: u64 = 42;
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Pairs of fixed-iteration solves are never fewer than this.
pub const MIN_PAIRS: usize = 5;
/// Times a run sets up (connect + assemble) to report a median.
pub const SETUP_REPS: usize = 3;
/// Converged mixed solves are repeated for this share of the measuring
/// time, and never fewer than this many times.
pub const TOL_SHARE: f64 = 0.3;
pub const MIN_TOL_SOLVES: usize = 2;

/// Name and unit of every end-to-end metric; all are lower-is-better.
pub const END_TO_END: [(&str, &str); 7] = [
    ("solve_s_mxp", "s"),
    ("solve_s_double", "s"),
    ("tol_solve_s_mxp", "s"),
    ("iters_to_tol_mxp", "iters"),
    ("iters_to_tol_double", "iters"),
    ("setup_s", "s"),
    ("rss_mxp_mib", "MiB"),
];

/// Name, unit and whether higher is better, of every per-layer metric.
/// The layer is the first component of the name.
pub const PER_LAYER: [(&str, &str, bool); 62] = [
    ("host.triad_gibs_t1", "GiB/s", true),
    ("host.triad_gibs_tw", "GiB/s", true),
    ("host.llc_bytes", "bytes", true),
    ("host.triad_array_bytes", "bytes", true),
    ("sparse.spmv.lo_us", "us", false),
    ("sparse.spmv.lo_roof", "ratio", true),
    ("sparse.spmv.f64_us", "us", false),
    ("sparse.spmv.f64_roof", "ratio", true),
    ("sparse.gs_sweep.lo_us", "us", false),
    ("sparse.gs_sweep.lo_roof", "ratio", true),
    ("sparse.gs_sweep.f64_us", "us", false),
    ("sparse.gs_sweep.f64_roof", "ratio", true),
    ("sparse.dot.lo_us", "us", false),
    ("sparse.dot.lo_roof", "ratio", true),
    ("sparse.dot.f64_us", "us", false),
    ("sparse.dot.f64_roof", "ratio", true),
    ("sparse.waxpby.lo_us", "us", false),
    ("sparse.waxpby.lo_roof", "ratio", true),
    ("sparse.waxpby.f64_us", "us", false),
    ("sparse.waxpby.f64_roof", "ratio", true),
    ("sparse.restrict.lo_us", "us", false),
    ("sparse.restrict.f64_us", "us", false),
    ("sparse.convert_f16.gibs", "GiB/s", true),
    ("sparse.coloring_ms", "ms", false),
    ("sparse.ell_build_ms", "ms", false),
    ("geometry.hierarchy_ms", "ms", false),
    ("geometry.halo_plan_ms", "ms", false),
    ("core.assemble_s", "s", false),
    ("core.assemble_double_s", "s", false),
    ("core.vcycle.lo_us", "us", false),
    ("core.vcycle.f64_us", "us", false),
    ("core.cgs2.lo_us", "us", false),
    ("core.cgs2.lo_roof", "ratio", true),
    ("core.cgs2.f64_us", "us", false),
    ("core.cgs2.f64_roof", "ratio", true),
    ("core.motif_share.gs", "ratio", false),
    ("core.motif_share.spmv", "ratio", false),
    ("core.motif_share.ortho", "ratio", false),
    ("core.motif_share.restrict", "ratio", false),
    ("core.motif_share.prolong", "ratio", false),
    ("core.motif_share.dot", "ratio", false),
    ("core.motif_share.waxpby", "ratio", false),
    ("core.motif_share.comm", "ratio", false),
    ("core.motif_share.unattributed", "ratio", false),
    ("core.bytes_per_iter.mxp", "bytes", false),
    ("core.bytes_per_iter.double", "bytes", false),
    ("core.bytes_ratio", "ratio", true),
    ("core.flops_per_iter", "flops", false),
    ("core.penalty", "ratio", true),
    ("core.speedup_penalized", "ratio", true),
    ("core.gflops_penalized", "GFLOP/s", true),
    ("comm.halo_exchange.lo_us", "us", false),
    ("comm.halo_exchange.f64_us", "us", false),
    ("comm.halo_bytes", "bytes", false),
    ("comm.allreduce_us", "us", false),
    ("comm.exposed_wait_share", "ratio", false),
    ("comm.overlap_efficiency", "ratio", true),
    ("comm.allreduces_per_iter", "count", false),
    ("comm.coll_bytes_per_iter", "bytes", false),
    ("trace.overhead_frac", "ratio", false),
    ("trace.events_per_solve", "count", false),
    ("trace.dropped_events", "count", false),
];

/// Sizes of the fine level a byte formula needs; `adapter::Problem::
/// fine_dims` fills one from an assembled problem.
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    pub rows: usize,
    pub ell_width: usize,
    pub value_bytes: usize,
    pub vec_bytes: usize,
}

/// Bytes each replayed kernel must move at least once, *computed* from
/// array sizes: cache misses and re-streaming are what `_roof` exposes.
impl Dims {
    /// Padded ELL values plus their 4-byte column indices.
    pub fn ell_matrix(&self) -> usize {
        self.rows * self.ell_width * (self.value_bytes + 4)
    }

    /// Matrix pass + read `x` + write `y`.
    pub fn spmv(&self) -> usize {
        self.ell_matrix() + 2 * self.rows * self.vec_bytes
    }

    /// Matrix pass + read `r` + read-modify-write `z`.
    pub fn gs_sweep(&self) -> usize {
        self.ell_matrix() + 3 * self.rows * self.vec_bytes
    }

    pub fn dot(&self) -> usize {
        2 * self.rows * self.vec_bytes
    }

    pub fn waxpby(&self) -> usize {
        3 * self.rows * self.vec_bytes
    }

    /// CGS2 of column `k` if every pass read `w` once: per pass the
    /// projection reads `k` columns and `w`, the update reads `k`
    /// columns and rewrites `w`; then a norm and a scaling.
    pub fn cgs2(&self, k: usize) -> usize {
        (2 * ((k + 1) + (k + 2)) + 1 + 2) * self.rows * self.vec_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let ok = |s: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().unwrap().is_ascii_alphanumeric()
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| ok(n, 64)), "{names:?}");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.1)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn layers_are_crate_names() {
        for (name, _, _) in PER_LAYER {
            let layer = name.split('.').next().unwrap();
            assert!(["host", "sparse", "geometry", "core", "comm", "trace"].contains(&layer));
        }
    }

    #[test]
    fn workloads_fit_the_two_core_box() {
        assert!(WORKLOADS.iter().all(|w| w.compute_threads() <= 2));
        assert_eq!(workload("n32_p2_thread_f32").unwrap().ranks(), 2);
        assert!(workload("n128_p1_f32").is_none());
    }

    #[test]
    fn cgs2_bytes_count_each_pass_once() {
        let d = Dims { rows: 10, ell_width: 27, value_bytes: 4, vec_bytes: 4 };
        assert_eq!(d.cgs2(15), (4 * 15 + 9) * 10 * 4);
        assert_eq!(d.dot() + d.rows * d.vec_bytes, d.waxpby());
    }
}
