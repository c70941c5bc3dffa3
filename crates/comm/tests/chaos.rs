//! Chaos tests: seeded fault plans driven through [`FaultyComm`] over a
//! 4-rank thread world. The invariants under test:
//!
//! * a crashed or hung rank never wedges its peers — every survivor
//!   returns a *typed* [`CommError`] within the recv deadline;
//! * benign wire faults (duplicate, delay, reorder) never change the
//!   result of a deterministic workload;
//! * the same plan seed replays the same outcome.
//!
//! Every test bounds its blocking operations with a deadline, so the
//! suite can fail loudly but can never hang CI.

// The proptest shim's muncher needs headroom for the 3-parameter
// property at the bottom.
#![recursion_limit = "512"]

use hpgmxp_comm::{
    run_threads_fallible, CollAlgo, Comm, CommError, CommErrorKind, CommResult, FaultEvent,
    FaultKind, FaultPlan, FaultyComm, MeshConfig, ReduceOp, ShmemWorld, ThreadComm,
};
use proptest::prelude::*;
use std::time::Duration;

const P: usize = 4;

/// A deterministic SPMD workload: `rounds` of (allreduce, ring
/// send/recv). Returns the final allreduce value so clean runs can be
/// compared across fault plans.
fn ring_workload(c: &FaultyComm<ThreadComm>, rounds: usize) -> CommResult<f64> {
    let rank = c.rank();
    let size = c.size();
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    let mut acc = 0.0f64;
    let mut buf = [0u8; 8];
    for round in 0..rounds {
        acc = c.allreduce_scalar_checked(acc + (rank + round) as f64, ReduceOp::Sum)?;
        c.send_from_checked(next, round as u64, &acc.to_le_bytes())?;
        c.recv_into_checked(prev, round as u64, &mut buf)?;
        let got = f64::from_le_bytes(buf);
        assert_eq!(got, acc, "ring payload must survive the wire");
    }
    Ok(acc)
}

fn run_plan(
    plan: &FaultPlan,
    rounds: usize,
    deadline: Duration,
) -> Vec<std::thread::Result<CommResult<f64>>> {
    run_threads_fallible(P, Some(deadline), CollAlgo::from_env(), move |c| {
        let c = FaultyComm::new(c, plan.clone());
        ring_workload(&c, rounds)
    })
}

fn crash_plan(seed: u64, rank: usize, at_exchange: u64) -> FaultPlan {
    let mut plan = FaultPlan::clean(seed);
    plan.events = Some(vec![FaultEvent { kind: FaultKind::CrashRank, rank, at_exchange }]);
    plan
}

#[test]
fn crashed_rank_surfaces_typed_errors_on_every_survivor() {
    let plan = crash_plan(11, 1, 4);
    let started = std::time::Instant::now();
    let results = run_plan(&plan, 20, Duration::from_millis(400));
    // The victim panicked (thread-world crash semantics).
    assert!(results[1].is_err(), "rank 1 must have crashed");
    // Every survivor got a typed error — not a hang, not a panic.
    for (rank, res) in results.iter().enumerate() {
        if rank == 1 {
            continue;
        }
        let err: &CommError =
            res.as_ref().expect("survivors must not panic").as_ref().expect_err("typed error");
        assert!(
            matches!(
                err.kind,
                CommErrorKind::Timeout | CommErrorKind::PeerClosed | CommErrorKind::PeerLost
            ),
            "rank {rank}: unexpected kind in {err}"
        );
        // The message is actionable: it names a peer or the barrier.
        assert!(!err.detail.is_empty(), "rank {rank}: {err}");
    }
    // Detection is bounded by the deadline, not by luck.
    assert!(started.elapsed() < Duration::from_secs(30), "took {:?}", started.elapsed());
}

#[test]
fn hung_rank_is_detected_within_the_deadline() {
    let mut plan = FaultPlan::clean(5);
    plan.hang_millis = Some(900);
    plan.events = Some(vec![FaultEvent { kind: FaultKind::HangRank, rank: 2, at_exchange: 6 }]);
    let results = run_plan(&plan, 20, Duration::from_millis(200));
    // A hung rank still holds its endpoint (it heartbeats in the socket
    // world; here it simply sleeps), so the *only* way peers notice is
    // the recv deadline: every survivor must report Timeout.
    let mut timeouts = 0;
    for (rank, res) in results.iter().enumerate() {
        if rank == 2 {
            continue;
        }
        if let Ok(Err(e)) = res {
            assert!(
                matches!(e.kind, CommErrorKind::Timeout | CommErrorKind::PeerClosed),
                "rank {rank}: {e}"
            );
            if e.kind == CommErrorKind::Timeout {
                assert!(e.elapsed >= Duration::from_millis(200), "rank {rank}: {e}");
                timeouts += 1;
            }
        } else {
            panic!("rank {rank} must fail typed, got {res:?}");
        }
    }
    assert!(timeouts >= 1, "at least one peer times out waiting on the hung rank");
}

#[test]
fn benign_wire_faults_do_not_change_the_answer() {
    // Duplicates, delays, and reorders are absorbed by tag matching and
    // FIFO-per-(peer, tag) delivery: the workload's asserts verify
    // payload integrity and this test verifies the reduced value.
    let clean: Vec<f64> = run_plan(&FaultPlan::clean(3), 12, Duration::from_secs(20))
        .into_iter()
        .map(|r| r.expect("no panics").expect("no faults"))
        .collect();
    let mut noisy_plan = FaultPlan::clean(3);
    noisy_plan.duplicate = Some(0.3);
    noisy_plan.delay = Some(0.2);
    noisy_plan.delay_millis = Some(2);
    noisy_plan.reorder = Some(0.25);
    let noisy: Vec<f64> = run_plan(&noisy_plan, 12, Duration::from_secs(20))
        .into_iter()
        .map(|r| r.expect("no panics").expect("benign faults must not error"))
        .collect();
    assert_eq!(clean, noisy);
}

#[test]
fn same_seed_replays_the_same_outcome() {
    // Determinism is the whole point of the plan: two runs of the same
    // scenario classify every rank identically.
    let plan = crash_plan(77, 3, 9);
    // Classification is by *fate* (crashed / failed typed / finished
    // with a value), not by error kind: which survivor's deadline fires
    // first is scheduler timing, the fates are the scripted scenario.
    let classify = |results: Vec<std::thread::Result<CommResult<f64>>>| -> Vec<String> {
        results
            .into_iter()
            .map(|r| match r {
                Err(_) => "panic".to_string(),
                Ok(Err(_)) => "err".to_string(),
                Ok(Ok(v)) => format!("ok:{v}"),
            })
            .collect()
    };
    let a = classify(run_plan(&plan, 20, Duration::from_millis(300)));
    let b = classify(run_plan(&plan, 20, Duration::from_millis(300)));
    assert_eq!(a[3], "panic", "the scripted victim dies both times");
    assert_eq!(a, b, "same seed, same scenario, same outcome");
}

/// A workload of nothing but collectives, so a scripted event at any
/// exchange index fires *inside* an allreduce or barrier — the
/// fault-mid-collective cases the engine must surface typed.
fn collective_workload<C: Comm>(c: &C, rounds: usize) -> CommResult<f64> {
    let mut acc = 0.0f64;
    for round in 0..rounds {
        acc = c.allreduce_scalar_checked(acc + (c.rank() + round) as f64, ReduceOp::Sum)?;
        c.barrier_checked()?;
    }
    Ok(acc)
}

/// Assert every survivor of a faulted collective run failed typed
/// (Timeout / PeerClosed / PeerLost) with a non-empty detail, and that
/// timeouts carry the elapsed wait.
fn assert_survivors_failed_typed(
    results: &[std::thread::Result<CommResult<f64>>],
    victim: usize,
    deadline: Duration,
    label: &str,
) {
    let mut typed = 0;
    for (rank, res) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let err: &CommError = res
            .as_ref()
            .unwrap_or_else(|_| panic!("{label}: survivor rank {rank} must not panic"))
            .as_ref()
            .expect_err("survivor must fail typed");
        assert!(
            matches!(
                err.kind,
                CommErrorKind::Timeout | CommErrorKind::PeerClosed | CommErrorKind::PeerLost
            ),
            "{label}: rank {rank}: unexpected kind in {err}"
        );
        assert!(!err.detail.is_empty(), "{label}: rank {rank}: {err}");
        // The attribution contract: a typed failure names the peer it
        // was waiting on or carries how long it waited (timeouts carry
        // both).
        assert!(
            err.peer.is_some() || err.elapsed > Duration::ZERO,
            "{label}: rank {rank}: unattributed error {err}"
        );
        if err.kind == CommErrorKind::Timeout {
            assert!(err.elapsed >= deadline, "{label}: rank {rank}: {err}");
        }
        typed += 1;
    }
    assert_eq!(typed, P - 1, "{label}: every survivor reports");
}

/// Assert a hang inside a collective was detected by the deadline:
/// nobody panics and nobody hangs, every survivor fails typed (Timeout,
/// or PeerClosed once a timed-out peer tore down), and at least one
/// reports Timeout with the waited duration attached.
fn assert_hang_timed_out(
    results: &[std::thread::Result<CommResult<f64>>],
    hung: usize,
    deadline: Duration,
    label: &str,
) {
    let mut timeouts = 0;
    for (rank, res) in results.iter().enumerate() {
        let res = res.as_ref().unwrap_or_else(|_| panic!("[{label}] rank {rank} must not panic"));
        if rank == hung {
            continue;
        }
        let err = res.as_ref().expect_err("survivor must fail typed");
        assert!(
            matches!(err.kind, CommErrorKind::Timeout | CommErrorKind::PeerClosed),
            "[{label}] rank {rank}: {err}"
        );
        if err.kind == CommErrorKind::Timeout {
            assert!(err.elapsed >= deadline, "[{label}] rank {rank}: {err}");
            timeouts += 1;
        }
    }
    assert!(timeouts >= 1, "[{label}] a peer timed out on the hung rank");
}

#[test]
fn crash_inside_an_allreduce_fails_typed_under_both_algorithms() {
    for algo in [CollAlgo::Star, CollAlgo::RecursiveDoubling] {
        // Exchange 5 is mid-stream in the pure-collective workload:
        // rank 1 dies inside its 3rd allreduce (alternating
        // allreduce/barrier, 0-indexed), under way on every rank.
        let plan = crash_plan(21, 1, 5);
        let started = std::time::Instant::now();
        let results = run_threads_fallible(P, Some(Duration::from_millis(300)), algo, {
            let plan = plan.clone();
            move |c| {
                let c = FaultyComm::new(c, plan.clone());
                collective_workload(&c, 20)
            }
        });
        assert!(results[1].is_err(), "[{}] rank 1 must have crashed", algo.name());
        assert_survivors_failed_typed(
            &results,
            1,
            Duration::from_millis(300),
            &format!("crash/{}", algo.name()),
        );
        assert!(started.elapsed() < Duration::from_secs(30), "bounded detection");
    }
}

#[test]
fn hang_inside_an_allreduce_times_out_under_both_algorithms() {
    for algo in [CollAlgo::Star, CollAlgo::RecursiveDoubling] {
        let mut plan = FaultPlan::clean(22);
        plan.hang_millis = Some(1_200);
        plan.events = Some(vec![FaultEvent { kind: FaultKind::HangRank, rank: 2, at_exchange: 4 }]);
        let results = run_threads_fallible(P, Some(Duration::from_millis(200)), algo, {
            let plan = plan.clone();
            move |c| {
                let c = FaultyComm::new(c, plan.clone());
                collective_workload(&c, 20)
            }
        });
        // The hung rank resumes after its stall and then fails typed
        // itself (its peers have already torn down).
        assert_hang_timed_out(&results, 2, Duration::from_millis(200), algo.name());
    }
}

/// Run `f` on every rank of a P-rank in-process shmem world under
/// `coll` with a recv deadline, collecting per-rank outcomes (panics
/// included) like [`run_threads_fallible`] does for the thread world.
fn run_shmem_fallible<F>(
    deadline: Duration,
    coll: CollAlgo,
    f: F,
) -> Vec<std::thread::Result<CommResult<f64>>>
where
    F: Fn(hpgmxp_comm::ShmemComm) -> CommResult<f64> + Send + Sync + Copy,
{
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let shm_id = format!(
        "chaos-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let config = MeshConfig {
        recv_deadline: Some(deadline),
        heartbeat: Some(Duration::from_millis(50)),
        peer_timeout: Some(Duration::from_secs(5)),
        faults: None,
        coll,
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..P)
            .map(|rank| {
                let shm_id = shm_id.clone();
                let config = config.clone();
                s.spawn(move || f(ShmemWorld::connect_with_config(rank, P, &shm_id, config)))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

#[test]
fn crash_inside_a_shmem_exchange_fails_typed_under_both_algorithms() {
    for algo in [CollAlgo::Star, CollAlgo::RecursiveDoubling] {
        // Rank 3 panics inside its 3rd collective; its Drop marks the
        // outgoing rings closed, so survivors see PeerClosed (or their
        // deadline, whichever their blocking wait hits first).
        let results = run_shmem_fallible(Duration::from_millis(400), algo, |c| {
            let mut plan = FaultPlan::clean(31);
            plan.events =
                Some(vec![FaultEvent { kind: FaultKind::CrashRank, rank: 3, at_exchange: 4 }]);
            let c = FaultyComm::new(c, plan);
            collective_workload(&c, 20)
        });
        assert!(results[3].is_err(), "[{}] rank 3 must have crashed", algo.name());
        assert_survivors_failed_typed(
            &results,
            3,
            Duration::from_millis(400),
            &format!("shmem-crash/{}", algo.name()),
        );
    }
}

#[test]
fn hang_inside_a_shmem_exchange_times_out_under_both_algorithms() {
    for algo in [CollAlgo::Star, CollAlgo::RecursiveDoubling] {
        let results = run_shmem_fallible(Duration::from_millis(250), algo, |c| {
            let mut plan = FaultPlan::clean(32);
            plan.hang_millis = Some(1_500);
            plan.events =
                Some(vec![FaultEvent { kind: FaultKind::HangRank, rank: 1, at_exchange: 6 }]);
            let c = FaultyComm::new(c, plan);
            collective_workload(&c, 20)
        });
        // A hung shmem rank still heartbeats (its emitter thread is
        // alive), so only the recv deadline catches it.
        assert_hang_timed_out(&results, 1, Duration::from_millis(250), algo.name());
    }
}

/// The body of the property below: any single scripted crash, at any
/// rank and any early exchange index, is always detected — the victim
/// panics, no survivor hangs, and each survivor either finished
/// cleanly (crash landed after its last dependence) or failed typed.
fn check_single_crash(seed: u64, victim: usize, at_exchange: u64) -> Result<(), String> {
    let plan = crash_plan(seed, victim, at_exchange);
    let results = run_plan(&plan, 6, Duration::from_millis(300));
    if results[victim].is_ok() {
        return Err(format!("victim rank {victim} must crash"));
    }
    for (rank, res) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        match res {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                let typed = matches!(
                    e.kind,
                    CommErrorKind::Timeout | CommErrorKind::PeerClosed | CommErrorKind::PeerLost
                );
                if !typed {
                    return Err(format!("rank {rank}: unexpected kind in {e}"));
                }
            }
            Err(_) => return Err(format!("survivor rank {rank} panicked")),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_single_crash_is_always_detected(
        seed in 0u64..1000,
        victim in 0usize..P,
        at_exchange in 0u64..12,
    ) {
        let outcome = check_single_crash(seed, victim, at_exchange);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}
