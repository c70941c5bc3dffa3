//! End-to-end checkpoint/restart: a 4-rank shmem GMRES-IR job is
//! killed mid-solve by a scripted fault plan, relaunched once by the
//! launcher's retry with `HPGMXP_RESTORE=1`, restores from the last
//! committed checkpoint generation, and finishes with a residual
//! history **bit-identical** to an uninterrupted run.

use hpgmxp_comm::launch::{run_job, LaunchConfig};
use std::path::Path;
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_ckpt_worker");

fn job(ckpt_dir: &Path, history: &Path, extra_env: &[(&str, String)]) -> LaunchConfig {
    let mut cfg = LaunchConfig::new(4, vec![WORKER.to_string()]);
    cfg.timeout = Duration::from_secs(120);
    cfg.env = vec![
        ("HPGMXP_CKPT_DIR".into(), ckpt_dir.display().to_string()),
        ("HPGMXP_HISTORY_OUT".into(), history.display().to_string()),
    ];
    cfg.env.extend(extra_env.iter().map(|(k, v)| (k.to_string(), v.clone())));
    cfg
}

#[test]
fn killed_job_restores_and_replays_bit_identical_history() {
    let base = std::env::temp_dir().join(format!("hpgmxp-ft-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // Uninterrupted reference run (checkpointing on, no faults).
    let clean_dir = base.join("clean");
    let clean_hist = base.join("clean.bits");
    assert_eq!(run_job(&job(&clean_dir, &clean_hist, &[])), 0, "clean run must succeed");
    let reference = std::fs::read_to_string(&clean_hist).expect("clean history written");
    assert!(reference.lines().count() >= 3, "solve long enough to span checkpoints: {reference}");

    // Chaos run: rank 2 dies at its 400th comm operation — mid-solve,
    // after the first checkpoint generation committed. One retry; the
    // launcher relaunches with HPGMXP_RESTORE=1 and the worker disarms
    // the plan on that attempt.
    let chaos_dir = base.join("chaos");
    let chaos_hist = base.join("chaos.bits");
    let plan =
        r#"{"seed": 4242, "events": [{"kind": "CrashRank", "rank": 2, "at_exchange": 400}]}"#;
    let mut cfg = job(&chaos_dir, &chaos_hist, &[("HPGMXP_FAULT_PLAN", plan.to_string())]);
    cfg.retries = 1;
    assert_eq!(run_job(&cfg), 0, "the retry must recover the job");

    // The relaunch really resumed from a mid-solve generation — it did
    // not start cold (a cold start records generation -1).
    let marker = std::fs::read_to_string(chaos_dir.join("restored.marker"))
        .expect("restore attempt leaves its marker");
    let gen: i64 = marker
        .trim()
        .strip_prefix("restored_gen=")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("malformed marker: {marker:?}"));
    assert!(gen >= 1, "must resume from a committed mid-solve generation, got {gen}");

    // The recovered run's full residual history is bit-identical.
    let recovered = std::fs::read_to_string(&chaos_hist).expect("chaos history written");
    assert_eq!(reference, recovered, "restored run must replay the history bit-identically");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn job_with_exhausted_retries_reports_the_failure() {
    // A plan that kills rank 1 on every attempt (restore attempts
    // rearm nothing — but attempt 1 already used the only retry).
    let base = std::env::temp_dir().join(format!("hpgmxp-ft-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let plan = r#"{"seed": 7, "events": [{"kind": "CrashRank", "rank": 1, "at_exchange": 10}]}"#;
    let mut cfg =
        job(&base.join("ckpt"), &base.join("h.bits"), &[("HPGMXP_FAULT_PLAN", plan.to_string())]);
    cfg.retries = 0;
    let code = run_job(&cfg);
    assert_ne!(code, 0, "a dead rank with no retries fails the job");
    let _ = std::fs::remove_dir_all(&base);
}
