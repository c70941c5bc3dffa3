//! End-to-end tests of `hpgmxp-launch`: real multi-process jobs meshed
//! over `/dev/shm`, driven through the launcher binary itself with its
//! built-in `_worker` SPMD workload.
//!
//! Covered paths: all ranks exiting cleanly, one rank crashing
//! mid-solve (job killed, `rank R died` diagnostic, non-zero exit, no
//! orphan processes), a hung rank tripping `--timeout-secs`
//! (exit 124), and a job killed before its world was complete leaving
//! no file in `/dev/shm`.

use std::process::{Command, Output};

const LAUNCH: &str = env!("CARGO_BIN_EXE_hpgmxp-launch");

fn launch(args: &[&str]) -> Output {
    Command::new(LAUNCH).args(args).output().expect("run hpgmxp-launch")
}

/// The rank PIDs the launcher prints at spawn time.
fn spawned_pids(stdout: &str) -> Vec<u32> {
    stdout
        .lines()
        .filter(|l| l.starts_with("[launch] rank "))
        .filter_map(|l| l.split("pid=").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter_map(|p| p.parse().ok())
        .collect()
}

/// No child outlives the launcher: every spawned PID must be gone from
/// the process table (kill_all reaps, so even SIGKILLed ranks vanish).
fn assert_no_orphans(pids: &[u32]) {
    // A freshly reaped PID can linger in /proc for an instant on a
    // loaded box; give the kernel a beat before declaring an orphan.
    for _ in 0..20 {
        if pids.iter().all(|p| !std::path::Path::new(&format!("/proc/{p}")).exists()) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let alive: Vec<&u32> =
        pids.iter().filter(|p| std::path::Path::new(&format!("/proc/{p}")).exists()).collect();
    panic!("orphaned rank processes left behind: {alive:?}");
}

#[test]
fn clean_job_exits_zero_with_all_rounds_done() {
    let out =
        launch(&["-n", "2", "--timeout-secs", "120", "--", LAUNCH, "_worker", "--rounds", "5"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("all 2 ranks exited cleanly"), "{stdout}");
    // Both ranks ran every round, and output is rank-tagged.
    for rank in 0..2 {
        assert!(stdout.contains(&format!("[rank {rank}] round 4 ok")), "{stdout}");
    }
    assert_eq!(spawned_pids(&stdout).len(), 2);
}

#[test]
fn crashed_rank_kills_the_job_with_a_diagnostic_and_no_orphans() {
    let out = launch(&[
        "-n",
        "3",
        "--timeout-secs",
        "120",
        "--",
        LAUNCH,
        "_worker",
        "--rounds",
        "50",
        "--crash-rank",
        "1",
        "--crash-round",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a dead rank must fail the job\nstdout:\n{stdout}");
    assert_ne!(out.status.code(), Some(124), "death, not timeout:\n{stderr}");
    // The launcher names the rank that died (rank 1 exits first; peers
    // may cascade-panic afterwards and be reported too).
    assert!(stderr.contains("rank 1 died"), "{stderr}");
    // The failure report carries the rank-tagged output tails.
    assert!(stderr.contains("last output of each rank"), "{stderr}");
    assert!(stderr.contains("crashing deliberately"), "{stderr}");
    let pids = spawned_pids(&stdout);
    assert_eq!(pids.len(), 3);
    assert_no_orphans(&pids);
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    // Each malformed invocation gets a one-line diagnostic naming the
    // problem, the usage text, and the distinct exit code 2 (so CI can
    // tell "you called it wrong" from "the job failed").
    let cases: &[&[&str]] = &[
        &[],                                           // no arguments at all
        &["-n", "2"],                                  // missing `-- command`
        &["--", "true"],                               // missing -n
        &["-n", "zero", "--", "true"],                 // unparseable rank count
        &["-n", "2", "--timeout-secs"],                // flag missing its value
        &["-n", "2", "--retries"],                     // no relaunch: unknown option
        &["--frobnicate", "--", "true"],               // unknown option
        &["-n", "2", "--comm", "shmem", "--", "true"], // no transport to select
        &["-n", "2", "--port", "29400", "--", "true"], // no rendezvous port
    ];
    for args in cases {
        let out = launch(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}\nstderr:\n{stderr}");
        assert!(stderr.contains("hpgmxp-launch:"), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?} must print usage: {stderr}");
    }
}

#[test]
fn hung_rank_trips_the_timeout() {
    let out = launch(&[
        "-n",
        "2",
        "--timeout-secs",
        "3",
        "--",
        LAUNCH,
        "_worker",
        "--rounds",
        "5",
        "--hang-rank",
        "0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(124), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("exceeded --timeout-secs"), "{stderr}");
    assert_no_orphans(&spawned_pids(&stdout));
}

#[test]
fn job_killed_before_every_rank_attached_leaves_no_world_file() {
    // Rank 0 creates the world file and waits for rank 1 to attach;
    // rank 1 never does (`exec`, so the launcher's kill reaches the
    // sleep itself). Rank 0 unlinks only a complete world, so removing
    // the file is the launcher's job once it reaps the timed-out ranks.
    let script =
        format!("if [ \"$HPGMXP_RANK\" = 0 ]; then exec {LAUNCH} _worker; else exec sleep 30; fi");
    let out = launch(&["-n", "2", "--timeout-secs", "2", "--", "sh", "-c", &script]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(124), "stdout:\n{stdout}\nstderr:\n{stderr}");
    let shm_id = stdout
        .lines()
        .filter(|l| l.starts_with("[launch] rank "))
        .find_map(|l| l.split("shm=").nth(1))
        .unwrap_or_else(|| panic!("the launcher prints each rank's shm id:\n{stdout}"));
    let path = format!("/dev/shm/hpgmxp-{}", shm_id.trim());
    assert!(!std::path::Path::new(&path).exists(), "{path} outlived the job");
    assert_no_orphans(&spawned_pids(&stdout));
}
