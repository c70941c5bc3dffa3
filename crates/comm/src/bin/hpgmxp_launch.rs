//! `hpgmxp-launch` — the multi-process rank launcher.
//!
//! Spawns N copies of a command as the rank processes of one job:
//!
//! ```text
//! hpgmxp-launch -n 4 [--timeout-secs 300] [--retries N] [--restore] [--trace-dir DIR] -- cargo run --bin fig9_trace
//! ```
//!
//! Each child gets `HPGMXP_RANK` (0..N), `HPGMXP_RANKS`, and an
//! attempt-unique `HPGMXP_SHM_ID` naming the `/dev/shm` ring world —
//! everything `run_spmd` needs to join the mesh. The ranks always mesh
//! over shared memory; no option selects a transport.
//! `--trace-dir DIR` arms per-rank span tracing (`HPGMXP_TRACE_DIR`,
//! and `HPGMXP_TRACE=spans` unless the environment already chose a
//! mode): every rank leaves a `trace-rank<R>.bin` in DIR for
//! `hpgmxp-trace` to merge. Child
//! output is forwarded line-by-line with `[  123ms] [rank i]` prefixes
//! (milliseconds since launch) and the last lines of every rank are
//! kept for the failure report.
//!
//! Supervision, in the spirit of `mpirun`:
//! * a rank exiting non-zero kills the whole job: every other rank is
//!   killed and reaped, a `rank R died` diagnostic plus the rank-tagged
//!   output tails go to stderr, and the launcher exits with the dead
//!   rank's code;
//! * a job exceeding `--timeout-secs` (default 300) is killed the same
//!   way and the launcher exits 124, so a deadlocked mesh fails fast
//!   instead of hanging a CI runner;
//! * with `--retries N`, a failed job is relaunched up to N times with
//!   `HPGMXP_RESTORE=1` set so checkpoint-aware workloads resume from
//!   their last committed state instead of restarting cold;
//! * all ranks exiting zero is success;
//! * an attempt's world file never outlives the attempt, even when its
//!   ranks were killed before they all attached;
//! * bad arguments print usage and exit 2 — distinct from rank-failure
//!   codes and the timeout code, so scripts can tell operator error
//!   from job failure.
//!
//! The actual parsing and supervision lives in [`hpgmxp_comm::launch`]
//! so integration tests can drive jobs in-process. The hidden `_worker`
//! subcommand is a tiny built-in SPMD workload (collective +
//! ring-exchange rounds) used by the launcher's own integration tests
//! to exercise the happy path, the rank-death path (`--crash-rank`),
//! and the timeout path (`--hang-rank`) without compiling a second
//! binary; it arms `HPGMXP_FAULT_PLAN` wire faults automatically,
//! making it the chaos-matrix payload too.

use hpgmxp_comm::launch::{self, USAGE};
use hpgmxp_comm::{run_spmd, Comm, FaultPlan, FaultyComm, ReduceOp};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("_worker") {
        worker(&args[1..]);
        return;
    }

    match launch::parse_args(&args) {
        Ok(config) => std::process::exit(launch::run_job(&config)),
        Err(msg) => {
            eprintln!("hpgmxp-launch: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn worker_usage() -> ! {
    eprintln!(
        "usage: hpgmxp-launch _worker [--rounds N] [--crash-rank R] [--crash-round N] [--hang-rank R]"
    );
    std::process::exit(2);
}

/// The built-in SPMD test workload (see module docs).
fn worker(args: &[String]) {
    let mut rounds = 10usize;
    let mut crash_rank: Option<usize> = None;
    let mut crash_round = 2usize;
    let mut hang_rank: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val =
            || it.next().and_then(|v| v.parse::<usize>().ok()).unwrap_or_else(|| worker_usage());
        match arg.as_str() {
            "--rounds" => rounds = val(),
            "--crash-rank" => crash_rank = Some(val()),
            "--crash-round" => crash_round = val(),
            "--hang-rank" => hang_rank = Some(val()),
            _ => worker_usage(),
        }
    }
    let size: usize = std::env::var("HPGMXP_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .expect("worker must run under hpgmxp-launch");
    let plan = FaultPlan::from_env();
    run_spmd(size, move |c| {
        let rank = c.rank();
        // Comm-level faults (scripted crash/hang, reorder) layer on top
        // of the wire-level interposer the shmem mesh arms itself.
        let c = FaultyComm::new(c, plan.clone().unwrap_or_else(|| FaultPlan::clean(0)))
            .with_process_exit();
        for round in 0..rounds {
            if hang_rank == Some(rank) && round == 1 {
                println!("rank {rank} hanging deliberately");
                std::thread::sleep(Duration::from_secs(3600));
            }
            if crash_rank == Some(rank) && round == crash_round {
                eprintln!("rank {rank} crashing deliberately at round {round}");
                std::process::exit(7);
            }
            // A solve-shaped round: a global reduction plus a ring
            // halo exchange, with real wall time in between.
            let sum = match c.allreduce_scalar((rank + round) as f64, ReduceOp::Sum) {
                Ok(sum) => sum,
                Err(e) => {
                    eprintln!("rank {rank}: {e}");
                    std::process::exit(9);
                }
            };
            if c.size() > 1 {
                let next = (rank + 1) % c.size();
                let prev = (rank + c.size() - 1) % c.size();
                let payload = (rank as u64).to_le_bytes();
                let mut buf = [0u8; 8];
                let exchanged = c
                    .send_from(next, round as u64, &payload)
                    .and_then(|_| c.recv_into(prev, round as u64, &mut buf));
                if let Err(e) = exchanged {
                    eprintln!("rank {rank}: {e}");
                    std::process::exit(9);
                }
                assert_eq!(u64::from_le_bytes(buf), prev as u64);
            }
            println!("round {round} ok (sum {sum})");
            std::thread::sleep(Duration::from_millis(10));
        }
    });
}
