//! Chaos tests: seeded fault plans driven through a fault-injecting
//! [`Comm`] wrapper over a 4-rank thread world and an in-process shmem
//! mesh. The invariants under test:
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
    run_threads_fallible, Comm, CommError, CommErrorKind, CommResult, MeshConfig, RecvPost,
    ReduceOp, ShmemWorld,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What a scripted event does to its rank.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The rank panics — a thread-world rank death.
    Crash,
    /// The rank stalls this long, then resumes — long enough for its
    /// peers' deadlines to fire.
    Hang(Duration),
}

/// A replayable chaos scenario: at most one scripted event plus seeded
/// benign wire faults, each a per-send probability.
#[derive(Clone, Debug, Default)]
struct FaultPlan {
    /// Seed of the per-rank wire-fault streams.
    seed: u64,
    /// `(rank, exchange index, fault)`: `rank` misbehaves at its
    /// `index`-th comm operation (every send, allreduce and barrier
    /// advances the index by one, in program order).
    event: Option<(usize, u64, Fault)>,
    /// Probability a message is sent twice.
    duplicate: f64,
    /// Probability a send is delayed by 2 ms.
    delay: f64,
    /// Probability a message is held back and sent after the next one.
    reorder: f64,
}

impl FaultPlan {
    fn clean(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }
}

/// A [`Comm`] wrapper that fires the plan's scripted events at this
/// rank's comm operations and its wire faults on this rank's sends.
/// Deterministic per (plan seed, rank).
struct FaultyComm<C: Comm> {
    inner: C,
    plan: FaultPlan,
    /// SplitMix64 state of this rank's wire-fault stream.
    rng: Mutex<u64>,
    /// A message held back by a reorder fault: `(to, tag, bytes)`.
    stash: Mutex<Option<(usize, u64, Vec<u8>)>>,
    /// This rank's comm-operation counter (the exchange index).
    ops: AtomicU64,
}

impl<C: Comm> FaultyComm<C> {
    fn new(inner: C, plan: FaultPlan) -> Self {
        let rng = plan.seed ^ (inner.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        FaultyComm {
            inner,
            plan,
            rng: Mutex::new(rng),
            stash: Mutex::new(None),
            ops: AtomicU64::new(0),
        }
    }

    /// Advance the exchange index and fire any scripted event due now.
    fn tick(&self) {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        let rank = self.inner.rank();
        match self.plan.event {
            Some((victim, at, Fault::Crash)) if (victim, at) == (rank, n) => {
                panic!("rank {rank} crashed by fault plan at exchange {n}")
            }
            Some((victim, at, Fault::Hang(stall))) if (victim, at) == (rank, n) => {
                std::thread::sleep(stall)
            }
            _ => {}
        }
    }

    /// A Bernoulli draw at probability `p` from the SplitMix64 stream.
    fn hit(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let mut state = self.rng.lock().unwrap();
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Deliver a reorder-stashed message now. Called before collectives
    /// (a peer blocked on the held message may never reach the barrier
    /// otherwise) and at drop (it may have been the last send).
    fn flush_stash(&self) -> CommResult<()> {
        match self.stash.lock().unwrap().take() {
            Some((to, tag, bytes)) => self.inner.send_from(to, tag, &bytes),
            None => Ok(()),
        }
    }
}

impl<C: Comm> Drop for FaultyComm<C> {
    fn drop(&mut self) {
        let _ = self.flush_stash();
    }
}

impl<C: Comm> Comm for FaultyComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_from(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()> {
        self.tick();
        if self.hit(self.plan.delay) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let duplicate = self.hit(self.plan.duplicate);
        if self.hit(self.plan.reorder) {
            let mut stash = self.stash.lock().unwrap();
            if stash.is_none() {
                *stash = Some((to, tag, bytes.to_vec()));
                return Ok(());
            }
        }
        self.inner.send_from(to, tag, bytes)?;
        if duplicate {
            self.inner.send_from(to, tag, bytes)?;
        }
        self.flush_stash()
    }

    fn recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()> {
        self.inner.recv_into(from, tag, out)
    }

    fn try_recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> bool {
        self.inner.try_recv_into(from, tag, out)
    }

    fn wait_any<'p>(
        &self,
        posts: &mut [Option<RecvPost<'p>>],
    ) -> CommResult<Option<(usize, RecvPost<'p>)>> {
        self.inner.wait_any(posts)
    }

    fn allreduce_checked(&self, vals: &mut [f64], op: ReduceOp) -> CommResult<()> {
        self.tick();
        self.flush_stash()?;
        self.inner.allreduce_checked(vals, op)
    }

    fn barrier(&self) -> CommResult<()> {
        self.tick();
        self.flush_stash()?;
        self.inner.barrier()
    }
}

const P: usize = 4;

/// A deterministic SPMD workload: `rounds` of (allreduce, ring
/// send/recv). Returns the final allreduce value so clean runs can be
/// compared across fault plans.
fn ring_workload<C: Comm>(c: &C, rounds: usize) -> CommResult<f64> {
    let rank = c.rank();
    let size = c.size();
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    let mut acc = 0.0f64;
    let mut buf = [0u8; 8];
    for round in 0..rounds {
        acc = c.allreduce_scalar(acc + (rank + round) as f64, ReduceOp::Sum)?;
        c.send_from(next, round as u64, &acc.to_le_bytes())?;
        c.recv_into(prev, round as u64, &mut buf)?;
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
    run_threads_fallible(P, Some(deadline), move |c| {
        let c = FaultyComm::new(c, plan.clone());
        ring_workload(&c, rounds)
    })
}

fn crash_plan(seed: u64, rank: usize, at_exchange: u64) -> FaultPlan {
    FaultPlan { event: Some((rank, at_exchange, Fault::Crash)), ..FaultPlan::clean(seed) }
}

fn hang_plan(seed: u64, rank: usize, at_exchange: u64, millis: u64) -> FaultPlan {
    let stall = Fault::Hang(Duration::from_millis(millis));
    FaultPlan { event: Some((rank, at_exchange, stall)), ..FaultPlan::clean(seed) }
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
    let plan = hang_plan(5, 2, 6, 900);
    let results = run_plan(&plan, 20, Duration::from_millis(200));
    // A hung rank still holds its endpoint (it heartbeats in the shmem
    // mesh; here it simply sleeps), so the *only* way peers notice is
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
    let noisy_plan = FaultPlan { duplicate: 0.3, delay: 0.2, reorder: 0.25, ..FaultPlan::clean(3) };
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
        acc = c.allreduce_scalar(acc + (c.rank() + round) as f64, ReduceOp::Sum)?;
        c.barrier()?;
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
fn crash_inside_an_allreduce_fails_typed() {
    // Exchange 5 is mid-stream in the pure-collective workload: rank 1
    // dies inside its 3rd allreduce (alternating allreduce/barrier,
    // 0-indexed), under way on every rank.
    let plan = crash_plan(21, 1, 5);
    let started = std::time::Instant::now();
    let results = run_threads_fallible(P, Some(Duration::from_millis(300)), move |c| {
        let c = FaultyComm::new(c, plan.clone());
        collective_workload(&c, 20)
    });
    assert!(results[1].is_err(), "rank 1 must have crashed");
    assert_survivors_failed_typed(&results, 1, Duration::from_millis(300), "crash");
    assert!(started.elapsed() < Duration::from_secs(30), "bounded detection");
}

#[test]
fn hang_inside_an_allreduce_times_out() {
    let plan = hang_plan(22, 2, 4, 1_200);
    let results = run_threads_fallible(P, Some(Duration::from_millis(200)), move |c| {
        let c = FaultyComm::new(c, plan.clone());
        collective_workload(&c, 20)
    });
    // The hung rank resumes after its stall and then fails typed
    // itself (its peers have already torn down).
    assert_hang_timed_out(&results, 2, Duration::from_millis(200), "hang");
}

/// Run `f` on every rank of a P-rank in-process shmem world with a recv
/// deadline, collecting per-rank outcomes (panics included) like
/// [`run_threads_fallible`] does for the thread world.
fn run_shmem_fallible<F>(deadline: Duration, f: F) -> Vec<std::thread::Result<CommResult<f64>>>
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
fn crash_inside_a_shmem_exchange_fails_typed() {
    // Rank 3 panics inside its 3rd collective; its Drop marks the
    // outgoing rings closed, so survivors see PeerClosed (or their
    // deadline, whichever their blocking wait hits first).
    let results = run_shmem_fallible(Duration::from_millis(400), |c| {
        let c = FaultyComm::new(c, crash_plan(31, 3, 4));
        collective_workload(&c, 20)
    });
    assert!(results[3].is_err(), "rank 3 must have crashed");
    assert_survivors_failed_typed(&results, 3, Duration::from_millis(400), "shmem-crash");
}

#[test]
fn hang_inside_a_shmem_exchange_times_out() {
    let results = run_shmem_fallible(Duration::from_millis(250), |c| {
        let c = FaultyComm::new(c, hang_plan(32, 1, 6, 1_500));
        collective_workload(&c, 20)
    });
    // A hung shmem rank still heartbeats (its emitter thread is alive),
    // so only the recv deadline catches it.
    assert_hang_timed_out(&results, 1, Duration::from_millis(250), "shmem-hang");
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
