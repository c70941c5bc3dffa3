//! Socket-rank workload for the checkpoint/restart end-to-end test
//! and the chaos CI matrix: a mixed-precision GMRES-IR solve with
//! write-ahead checkpointing, run under `hpgmxp-launch` at P ∈
//! {1, 2, 4} (the world size follows the launcher's
//! `HPGMXP_RANKS`; default 4).
//!
//! Environment contract (beyond the launcher's socket variables):
//!
//! * `HPGMXP_CKPT_DIR` / `HPGMXP_CKPT_INTERVAL` / `HPGMXP_RESTORE` —
//!   the core crate's [`CheckpointSpec::from_env`] knobs;
//! * `HPGMXP_FAULT_PLAN` — a chaos plan, armed **only on the first
//!   attempt** (when `HPGMXP_RESTORE` is unset): the launcher's retry
//!   relaunches with `HPGMXP_RESTORE=1`, so the retry runs clean and
//!   proves the restore path;
//! * `HPGMXP_HISTORY_OUT` — rank 0 writes the solve's full residual
//!   history there as one `f64::to_bits` hex word per line, the
//!   bit-exact artifact the test diffs across runs.
//!
//! With `HPGMXP_CKPT_VERBOSE=1` each rank reports its total exchange
//! count — used once to calibrate the crash index in the test's fault
//! plan.

use hpgmxp_comm::{run_spmd, Comm, FaultPlan, FaultyComm, Timeline};
use hpgmxp_core::checkpoint::CheckpointSpec;
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy_checked;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_core::{GmresOptions, PrecisionPolicy};
use hpgmxp_geometry::{ProcGrid, Stencil27};

fn main() {
    let restoring = std::env::var("HPGMXP_RESTORE").map(|v| v == "1").unwrap_or(false);
    // FaultPlan::from_env disarms itself on a restore attempt (the
    // launcher's retry sets HPGMXP_RESTORE=1) — the same rule the
    // socket transport's frame interposer follows — so the retry runs
    // clean and proves recovery.
    let plan = FaultPlan::from_env();
    let ckpt = CheckpointSpec::from_env();
    let ranks: usize = std::env::var("HPGMXP_RANKS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let procs = match ranks {
        1 => ProcGrid::new(1, 1, 1),
        2 => ProcGrid::new(2, 1, 1),
        4 => ProcGrid::new(2, 2, 1),
        p => panic!("ckpt_worker supports 1, 2, or 4 ranks, not {p}"),
    };
    let spec = ProblemSpec {
        local: (8, 8, 8),
        procs,
        stencil: Stencil27::symmetric(),
        mg_levels: 3,
        seed: 11,
    };

    let codes = run_spmd(ranks, |c| {
        let rank = c.rank();
        // The wrapper scripts rank-level events only; probabilistic
        // wire faults are the socket interposer's job (it flips bytes
        // after the frame CRC, so every corruption is detectable —
        // a pre-framing flip here would slip past the checksum).
        let wrapper_plan =
            plan.clone().map(FaultPlan::without_wire_faults).unwrap_or_else(|| FaultPlan::clean(0));
        let c = FaultyComm::new(c, wrapper_plan).with_process_exit();
        let mxp = PrecisionPolicy::f32();
        let prob = assemble_with_policy(&spec, rank, &mxp);
        // On a restore attempt, peek at the committed checkpoint and
        // leave bit-exact evidence of the generation actually resumed
        // from — the e2e test asserts it is a mid-solve generation, not
        // a cold start. The chaos plan is disarmed on this attempt, so
        // the extra agreement all-reduces cannot shift fault indices.
        if restoring {
            if let Some(cspec) = &ckpt {
                let n = prob.levels[0].n_local();
                let restored = hpgmxp_core::checkpoint::restore(&c, cspec, n)
                    .unwrap_or_else(|e| panic!("rank {rank}: restore peek failed: {e}"));
                if rank == 0 {
                    let gen = restored.map(|s| s.restarts as i64).unwrap_or(-1);
                    println!("restore peek: generation {gen}");
                    std::fs::create_dir_all(&cspec.dir).expect("create checkpoint dir");
                    std::fs::write(
                        cspec.dir.join("restored.marker"),
                        format!("restored_gen={gen}\n"),
                    )
                    .expect("write restore marker");
                }
            }
        }
        let tl = Timeline::disabled();
        // A short restart length forces many outer iterations, so the
        // solve crosses several checkpoint generations and a mid-solve
        // crash always lands between two commits.
        let opts =
            GmresOptions { restart: 4, max_iters: 400, track_history: true, ..Default::default() };
        match gmres_ir_solve_policy_checked(&c, &prob, &mxp, &opts, &tl, ckpt.as_ref()) {
            Ok((_, stats)) => {
                if std::env::var("HPGMXP_CKPT_VERBOSE").is_ok() {
                    println!("rank {rank}: {} exchanges total", c.exchanges());
                }
                if rank == 0 {
                    println!(
                        "converged={} iters={} restarts={} history_len={}",
                        stats.converged,
                        stats.iters,
                        stats.restarts,
                        stats.history.len()
                    );
                    if let Ok(path) = std::env::var("HPGMXP_HISTORY_OUT") {
                        let bits: Vec<String> =
                            stats.history.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                        std::fs::write(&path, bits.join("\n") + "\n")
                            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                    }
                }
                0
            }
            Err(e) => {
                eprintln!("rank {rank}: solve failed: {e}");
                9
            }
        }
    });
    std::process::exit(codes.into_iter().max().unwrap_or(0));
}
