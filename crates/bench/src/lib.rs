//! Shared helpers for the benchmark harness binaries and Criterion
//! benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index); the Criterion benches in
//! `benches/` measure the real CPU kernels, providing the
//! measured-on-this-machine counterpart to the modeled numbers.
//!
//! Binaries read a small set of environment variables so the same
//! target can run laptop-sized or larger:
//!
//! * `HPGMXP_LOCAL_N` — local box edge (default 16; must be divisible
//!   by 8 for 4 multigrid levels),
//! * `HPGMXP_RANKS` — thread-rank count for real runs (default 4),
//! * `HPGMXP_SOLVES` — timed solves per phase (default 1).

use hpgmxp_comm::mesh::parse_knob;
use hpgmxp_core::config::BenchmarkParams;
use hpgmxp_core::problem::{assemble_with_policy, LocalProblem, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};

/// A size knob's value: `default` when unset, otherwise the number it
/// spells — a typo or a negative value is an error naming the knob,
/// never a silent run at the default size.
fn size_knob(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    value.map_or(Ok(default), |v| parse_knob(name, v))
}

/// Read a size knob from the environment with a default, panicking on
/// a value that is not a size.
pub fn env_usize(name: &str, default: usize) -> usize {
    size_knob(name, std::env::var(name).ok().as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

/// Benchmark parameters scaled for a workstation run, honoring the
/// `HPGMXP_*` environment overrides.
pub fn workstation_params() -> BenchmarkParams {
    let n = env_usize("HPGMXP_LOCAL_N", 16) as u32;
    assert!(n.is_multiple_of(8), "HPGMXP_LOCAL_N must be divisible by 8");
    BenchmarkParams {
        local_dims: (n, n, n),
        benchmark_solves: env_usize("HPGMXP_SOLVES", 1),
        max_iters_per_solve: env_usize("HPGMXP_ITERS", 60),
        validation_max_iters: 2000,
        ..Default::default()
    }
}

/// Thread-rank count for real runs.
pub fn workstation_ranks() -> usize {
    env_usize("HPGMXP_RANKS", 4)
}

/// A single-rank problem for kernel benches, assembled under `policy`.
pub fn single_rank_problem(n: u32, levels: usize, policy: &PrecisionPolicy) -> LocalProblem {
    assemble_with_policy(
        &ProblemSpec {
            local: (n, n, n),
            procs: ProcGrid::new(1, 1, 1),
            stencil: Stencil27::symmetric(),
            mg_levels: levels,
            seed: 42,
        },
        0,
        policy,
    )
}

/// Render a two-column numeric series as an aligned text table.
pub fn series_table(
    title: &str,
    xlabel: &str,
    ylabels: &[&str],
    rows: &[(f64, Vec<f64>)],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "# {}", title);
    let _ = write!(s, "{:>12}", xlabel);
    for y in ylabels {
        let _ = write!(s, " {:>14}", y);
    }
    let _ = writeln!(s);
    for (x, ys) in rows {
        let _ = write!(s, "{:>12}", x);
        for y in ys {
            let _ = write!(s, " {:>14.4}", y);
        }
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_respect_env_defaults() {
        let p = workstation_params();
        assert_eq!(p.local_dims.0 % 8, 0);
        assert!(p.benchmark_solves >= 1);
    }

    #[test]
    fn a_mistyped_size_knob_is_a_loud_error_not_the_default_size() {
        // HPGMXP_LOCAL_N=abc and HPGMXP_RANKS=-1 used to run 16^3 on 4 ranks.
        assert_eq!(size_knob("HPGMXP_LOCAL_N", None, 16), Ok(16));
        assert_eq!(size_knob("HPGMXP_LOCAL_N", Some("32"), 16), Ok(32));
        assert_eq!(
            size_knob("HPGMXP_LOCAL_N", Some("abc"), 16).unwrap_err(),
            "HPGMXP_LOCAL_N is not a number: \"abc\""
        );
        assert_eq!(
            size_knob("HPGMXP_RANKS", Some("-1"), 4).unwrap_err(),
            "HPGMXP_RANKS is not a number: \"-1\""
        );
    }

    #[test]
    fn problem_helper_builds() {
        let p = single_rank_problem(8, 2, &PrecisionPolicy::f64());
        assert_eq!(p.n_local(), 512);
    }

    #[test]
    fn table_renders() {
        let t = series_table("demo", "x", &["a", "b"], &[(1.0, vec![2.0, 3.0])]);
        assert!(t.contains("demo"));
        assert!(t.contains("2.0000"));
    }
}
