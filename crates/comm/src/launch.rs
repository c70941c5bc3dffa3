//! Job supervision for process ranks — the library behind the
//! `hpgmxp-launch` binary.
//!
//! [`run_job`] spawns `ranks` copies of a command as the rank
//! processes of one job meshed over `/dev/shm` (env: `HPGMXP_RANK`,
//! `HPGMXP_RANKS`, and a fresh `HPGMXP_SHM_ID` per job naming the
//! world file, whose presence is what makes `run_spmd` join the
//! mesh), forwards their output with
//! `[  123ms] [rank i]` prefixes (milliseconds since launch, so
//! cross-rank interleavings are orderable), and supervises in the
//! spirit of `mpirun`:
//!
//! * a rank exiting non-zero kills the whole job — `rank R died`
//!   diagnostics plus per-rank output tails go to stderr, and the job
//!   reports the dead rank's exit code;
//! * a job exceeding its timeout is killed the same way, each
//!   still-running rank reported as `rank R hung`, and the job reports
//!   124 — a deadlocked mesh fails fast instead of hanging CI;
//! * all ranks exiting zero is success.
//!
//! Once the ranks have exited or been reaped, the launcher removes the
//! job's world file: rank 0 unlinks it only after every rank attached,
//! so a job killed before then would leave it behind in `/dev/shm`.

use crate::shmem_world;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Lines of per-rank output kept for the failure report.
const TAIL_LINES: usize = 40;

/// One supervised multi-rank job.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// World size — one child process per rank.
    pub ranks: usize,
    /// Wall-clock budget before the job is declared hung and killed.
    pub timeout: Duration,
    /// Arm per-rank tracing in every child: sets `HPGMXP_TRACE_DIR`
    /// to this directory (and `HPGMXP_TRACE=spans` unless the
    /// launcher's own environment already picked a mode), so each rank
    /// flushes a `trace-rank<R>.bin` for `hpgmxp-trace` to merge.
    pub trace_dir: Option<String>,
    /// Extra environment for every child.
    pub env: Vec<(String, String)>,
    /// The command and its arguments.
    pub cmd: Vec<String>,
}

impl LaunchConfig {
    /// A job with the defaults the CLI uses (300 s timeout).
    pub fn new(ranks: usize, cmd: Vec<String>) -> Self {
        LaunchConfig {
            ranks,
            timeout: Duration::from_secs(300),
            trace_dir: None,
            env: Vec::new(),
            cmd,
        }
    }
}

/// The usage line (kept in one place so the binary and the parser
/// error paths print the same text).
pub const USAGE: &str =
    "usage: hpgmxp-launch -n <ranks> [--timeout-secs T] [--trace-dir DIR] -- <command> [args...]";

/// Parse CLI arguments (everything after the program name) into a
/// [`LaunchConfig`]. Errors are specific — they name the flag and the
/// offending value — so a typo produces an actionable message, not a
/// bare usage dump.
pub fn parse_args(args: &[String]) -> Result<LaunchConfig, String> {
    fn value<'a>(
        it: &mut std::slice::Iter<'a, String>,
        flag: &str,
        what: &str,
    ) -> Result<&'a str, String> {
        it.next().map(String::as_str).ok_or_else(|| format!("{flag} expects {what}"))
    }

    let mut ranks: Option<usize> = None;
    let mut timeout = Duration::from_secs(300);
    let mut trace_dir: Option<String> = None;
    let mut cmd: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-n" | "--ranks" => {
                let v = value(&mut it, arg, "a positive rank count")?;
                ranks = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("-n expects a positive integer, got {v:?}"))?,
                );
            }
            "--timeout-secs" => {
                let v = value(&mut it, arg, "a number of seconds")?;
                timeout = Duration::from_secs(
                    v.parse::<u64>()
                        .map_err(|_| format!("--timeout-secs expects seconds, got {v:?}"))?,
                );
            }
            "--trace-dir" => {
                trace_dir = Some(value(&mut it, arg, "a directory path")?.to_string());
            }
            "--" => {
                cmd = it.by_ref().cloned().collect();
                break;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let ranks = ranks.ok_or("missing required -n <ranks>")?;
    if cmd.is_empty() {
        return Err("missing command: everything after `--` is the rank command".into());
    }
    Ok(LaunchConfig { ranks, timeout, trace_dir, env: Vec::new(), cmd })
}

/// Run the job; returns the exit code the launcher process should
/// report: 0 on success, the first dead rank's code on rank death, 124
/// on timeout.
pub fn run_job(config: &LaunchConfig) -> i32 {
    let shm_id = fresh_shm_id();
    let code = run_once(config, &shm_id);
    // Every rank has exited or been reaped by now, so nothing can
    // attach to this job's world any more.
    match std::fs::remove_file(shmem_world::world_path(&shm_id)) {
        Err(e) if e.kind() != ErrorKind::NotFound => {
            eprintln!("[launch] could not remove the world file of job {shm_id}: {e}")
        }
        _ => {}
    }
    code
}

/// A job-unique shared-memory world id: rank 0 creates the world file
/// with `create_new`, so two jobs run from one process (the launcher
/// tests) must never share one, and each draws a fresh suffix.
fn fresh_shm_id() -> String {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static JOB: AtomicUsize = AtomicUsize::new(0);
    format!("{}-{}", std::process::id(), JOB.fetch_add(1, Ordering::SeqCst))
}

fn run_once(config: &LaunchConfig, shm_id: &str) -> i32 {
    // Anchor the output-timestamp epoch at spawn time, not at the
    // first forwarded line — a child that is silent for its whole
    // startup should still print a large first offset.
    let _ = launch_millis();
    let ranks = config.ranks;
    let mut children: Vec<Child> = Vec::with_capacity(ranks);
    let mut tails: Vec<Arc<Mutex<VecDeque<String>>>> = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let mut c = Command::new(&config.cmd[0]);
        c.args(&config.cmd[1..])
            .env("HPGMXP_RANK", rank.to_string())
            .env("HPGMXP_RANKS", ranks.to_string())
            .env("HPGMXP_SHM_ID", shm_id)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(dir) = &config.trace_dir {
            c.env("HPGMXP_TRACE_DIR", dir);
            // Arm full span tracing unless the caller already chose a
            // mode for the children to inherit.
            if std::env::var_os("HPGMXP_TRACE").is_none() {
                c.env("HPGMXP_TRACE", "spans");
            }
        }
        for (k, v) in &config.env {
            c.env(k, v);
        }
        let mut child = match c.spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("[launch] failed to spawn rank {rank} ({}): {e}", config.cmd[0]);
                kill_all(&mut children);
                return 1;
            }
        };
        let tail = Arc::new(Mutex::new(VecDeque::with_capacity(TAIL_LINES)));
        pump(rank, child.stdout.take().expect("piped stdout"), false, Arc::clone(&tail));
        pump(rank, child.stderr.take().expect("piped stderr"), true, Arc::clone(&tail));
        println!("[launch] rank {rank} pid={} shm={shm_id}", child.id());
        children.push(child);
        tails.push(tail);
    }

    let started = Instant::now();
    let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; ranks];
    loop {
        for (rank, child) in children.iter_mut().enumerate() {
            if statuses[rank].is_none() {
                if let Some(st) = child.try_wait().unwrap_or(None) {
                    statuses[rank] = Some(st);
                }
            }
        }
        let dead: Vec<usize> = statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some_and(|s| !s.success()))
            .map(|(r, _)| r)
            .collect();
        if !dead.is_empty() {
            for r in &dead {
                eprintln!("[launch] rank {r} died ({})", statuses[*r].expect("observed above"));
            }
            kill_all(&mut children);
            print_tails(&tails);
            let code = statuses[dead[0]].and_then(|s| s.code()).unwrap_or(1);
            return if code == 0 { 1 } else { code };
        }
        if statuses.iter().all(Option::is_some) {
            println!("[launch] all {ranks} ranks exited cleanly");
            return 0;
        }
        if started.elapsed() > config.timeout {
            for (r, st) in statuses.iter().enumerate() {
                if st.is_none() {
                    eprintln!(
                        "[launch] rank {r} hung (no exit within --timeout-secs {})",
                        config.timeout.as_secs()
                    );
                }
            }
            eprintln!(
                "[launch] job exceeded --timeout-secs {} — killing all ranks",
                config.timeout.as_secs()
            );
            kill_all(&mut children);
            print_tails(&tails);
            return 124;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Kill and reap every still-running child (reaping prevents zombies —
/// the no-orphans guarantee the fault-path test verifies by PID).
fn kill_all(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
    }
    for child in children.iter_mut() {
        let _ = child.wait();
    }
}

fn print_tails(tails: &[Arc<Mutex<VecDeque<String>>>]) {
    // Let the pump threads drain what the dead children last wrote.
    std::thread::sleep(Duration::from_millis(100));
    eprintln!("[launch] last output of each rank:");
    for (rank, tail) in tails.iter().enumerate() {
        for line in tail.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            eprintln!("[rank {rank}] {line}");
        }
    }
}

/// Milliseconds since this launcher process started — the timestamp
/// prefixed to every forwarded rank line, so interleaved output from
/// different ranks can be ordered when reading a log.
fn launch_millis() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Forward one child stream line-by-line with launch-relative
/// timestamp and rank prefixes, keeping a bounded tail for the failure
/// report.
fn pump(
    rank: usize,
    stream: impl Read + Send + 'static,
    to_stderr: bool,
    tail: Arc<Mutex<VecDeque<String>>>,
) {
    std::thread::spawn(move || {
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            let ms = launch_millis();
            if to_stderr {
                eprintln!("[{ms:>6}ms] [rank {rank}] {line}");
            } else {
                println!("[{ms:>6}ms] [rank {rank}] {line}");
            }
            let mut t = tail.lock().unwrap_or_else(|e| e.into_inner());
            if t.len() == TAIL_LINES {
                t.pop_front();
            }
            t.push_back(line);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cfg = parse_args(&argv(&["-n", "4", "--timeout-secs", "20", "--", "my-app", "--flag"]))
            .unwrap();
        assert_eq!(cfg.ranks, 4);
        assert_eq!(cfg.timeout, Duration::from_secs(20));
        assert_eq!(cfg.cmd, vec!["my-app".to_string(), "--flag".to_string()]);
    }

    #[test]
    fn parses_trace_dir() {
        let cfg =
            parse_args(&argv(&["-n", "2", "--trace-dir", "traces/run1", "--", "app"])).unwrap();
        assert_eq!(cfg.trace_dir.as_deref(), Some("traces/run1"));
        let cfg = parse_args(&argv(&["-n", "2", "--", "app"])).unwrap();
        assert_eq!(cfg.trace_dir, None);
        let err = parse_args(&argv(&["-n", "2", "--trace-dir"])).unwrap_err();
        assert!(err.contains("--trace-dir"), "{err}");
    }

    #[test]
    fn removed_options_are_unknown() {
        // Every launched rank meshes over /dev/shm, and a job runs
        // once: nothing selects a transport or a rendezvous port, or
        // relaunches and restores a failed job. The old options fail
        // like any typo (the binary exits 2 on a parse error).
        let cases: [&[&str]; 4] = [
            &["-n", "2", "--comm", "shmem", "--", "app"],
            &["-n", "2", "--port", "29400", "--", "app"],
            &["-n", "2", "--retries", "1", "--", "app"],
            &["-n", "2", "--restore", "--", "app"],
        ];
        for args in cases {
            let err = parse_args(&argv(args)).unwrap_err();
            assert!(err.contains("unknown option") && err.contains(args[2]), "{err}");
        }
    }

    #[test]
    fn errors_name_the_flag_and_value() {
        let err = parse_args(&argv(&["-n", "zero", "--", "app"])).unwrap_err();
        assert!(err.contains("-n") && err.contains("zero"), "{err}");
        let err = parse_args(&argv(&["-n", "0", "--", "app"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse_args(&argv(&["--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = parse_args(&argv(&["-n", "2"])).unwrap_err();
        assert!(err.contains("missing command"), "{err}");
        let err = parse_args(&argv(&["--", "app"])).unwrap_err();
        assert!(err.contains("-n"), "{err}");
    }
}
