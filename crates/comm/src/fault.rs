//! Deterministic fault injection — every chaos scenario is a
//! replayable seed, not a flake.
//!
//! A [`FaultPlan`] is a serde spec combining *seeded probabilistic*
//! wire faults (drop / delay / duplicate / reorder / corrupt, each a
//! per-message probability drawn from a SplitMix64 stream seeded by
//! `(plan.seed, rank)`) with *scripted* events (`CrashRank` /
//! `HangRank` at an exact exchange index). The same plan, seed, and
//! rank always produce the same fault sequence, so a chaos failure
//! reproduces from its seed alone.
//!
//! Two injection points consume a plan:
//!
//! * [`FaultyComm`] wraps **any** [`Comm`] backend at the trait level —
//!   the thread-world chaos suite property-tests crash/hang scenarios
//!   over seeds without spawning processes;
//! * the mesh transports' frame-level interposer
//!   (see [`crate::mesh`]) applies the same plan to outgoing wire
//!   frames, where `Corrupt` flips a post-CRC byte so the receiver's
//!   checksum catches it — the full-stack detection path.
//!
//! The **exchange index** that scripted events key on counts this
//! rank's comm operations: every `send_from` and every collective
//! entry (allreduce, barrier) advances it by one, in program order.

use crate::comm::{Comm, RecvPost, ReduceOp};
use crate::error::CommResult;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What a scripted fault event does to its rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The rank dies at the given exchange (panic, or process exit
    /// under [`FaultyComm::with_process_exit`]).
    CrashRank,
    /// The rank stalls for `hang_millis` at the given exchange, then
    /// resumes — long enough for peers' deadlines to fire.
    HangRank,
}

/// One scripted fault: `rank` misbehaves at its `at_exchange`-th comm
/// operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What happens.
    pub kind: FaultKind,
    /// The rank that misbehaves.
    pub rank: usize,
    /// The victim's comm-operation index at which the event fires.
    pub at_exchange: u64,
}

/// A replayable chaos scenario: seeded probabilistic wire faults plus
/// scripted crash/hang events. All probabilities default to 0 (absent
/// key = no injection), so `{"seed": 1}` is a clean plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the per-rank fault RNG streams.
    pub seed: u64,
    /// Probability a sent message is silently dropped.
    pub drop: Option<f64>,
    /// Probability a send is delayed by `delay_millis`.
    pub delay: Option<f64>,
    /// Probability a message is sent twice.
    pub duplicate: Option<f64>,
    /// Probability a message is held back and sent after the next one.
    pub reorder: Option<f64>,
    /// Probability a message payload is corrupted (one byte flipped —
    /// at the mesh frame level, *after* the CRC is computed, so the
    /// receiver must detect it).
    pub corrupt: Option<f64>,
    /// Delay applied when `delay` fires (default 5 ms).
    pub delay_millis: Option<u64>,
    /// Stall applied by a `HangRank` event (default 3 600 000 ms — an
    /// effective hang; tests use a few hundred ms so scoped threads
    /// can still join).
    pub hang_millis: Option<u64>,
    /// Scripted crash/hang events.
    pub events: Option<Vec<FaultEvent>>,
}

impl FaultPlan {
    /// A clean plan with the given seed (no injection).
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: None,
            delay: None,
            duplicate: None,
            reorder: None,
            corrupt: None,
            delay_millis: None,
            hang_millis: None,
            events: None,
        }
    }

    /// Parse a plan from JSON text.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(text).map_err(|e| format!("bad fault plan: {e}"))
    }

    /// Serialize to JSON text.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault plan serializes")
    }

    /// Load the plan `HPGMXP_FAULT_PLAN` names: inline JSON if the
    /// value starts with `{`, otherwise a path to a JSON file. `None`
    /// when unset; a set-but-unreadable plan is a loud error (silently
    /// skipping requested chaos would fake green runs).
    ///
    /// A plan models a *transient* incident by default: on a restore
    /// attempt (`HPGMXP_RESTORE=1` — the launcher sets it when
    /// relaunching a failed job) the plan is disarmed so recovery can
    /// be proven, unless `HPGMXP_FAULT_PERSIST=1` keeps it armed
    /// across attempts (a permanently faulty link).
    pub fn from_env() -> Option<FaultPlan> {
        let v = std::env::var("HPGMXP_FAULT_PLAN").ok()?;
        if v.is_empty() {
            return None;
        }
        let restoring = std::env::var("HPGMXP_RESTORE").map(|r| r == "1").unwrap_or(false);
        let persist = std::env::var("HPGMXP_FAULT_PERSIST").map(|p| p == "1").unwrap_or(false);
        if restoring && !persist {
            return None;
        }
        let text = if v.trim_start().starts_with('{') {
            v
        } else {
            std::fs::read_to_string(&v)
                .unwrap_or_else(|e| panic!("cannot read fault plan {v}: {e}"))
        };
        Some(FaultPlan::from_json(&text).unwrap_or_else(|e| panic!("{e}")))
    }

    /// The delay a `delay` fault applies.
    pub fn delay_duration(&self) -> Duration {
        Duration::from_millis(self.delay_millis.unwrap_or(5))
    }

    /// The stall a `HangRank` event applies.
    pub fn hang_duration(&self) -> Duration {
        Duration::from_millis(self.hang_millis.unwrap_or(3_600_000))
    }

    /// The scripted event (if any) for `rank` at exchange index `n`.
    pub fn event_at(&self, rank: usize, n: u64) -> Option<&FaultEvent> {
        self.events.as_ref()?.iter().find(|e| e.rank == rank && e.at_exchange == n)
    }

    /// Whether any probabilistic wire fault is enabled.
    pub fn has_wire_faults(&self) -> bool {
        [self.drop, self.delay, self.duplicate, self.reorder, self.corrupt]
            .iter()
            .any(|p| p.unwrap_or(0.0) > 0.0)
    }

    /// The same plan with every probabilistic wire fault stripped —
    /// scripted events only. A worker that already runs over a
    /// transport with its own frame-level interposer (the shmem
    /// mesh corrupts *after* the CRC is computed, so every flip is
    /// honestly detectable) uses this for its in-process
    /// [`FaultyComm`] wrapper: wrapper-level corruption would happen
    /// before framing and slip past the checksum undetected.
    pub fn without_wire_faults(mut self) -> FaultPlan {
        self.drop = None;
        self.delay = None;
        self.duplicate = None;
        self.reorder = None;
        self.corrupt = None;
        self
    }
}

/// SplitMix64 — a tiny, high-quality, dependency-free PRNG. Each
/// (plan seed, rank) pair gets an independent deterministic stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed a stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Seed the canonical per-rank fault stream of a plan.
    pub fn for_rank(plan_seed: u64, rank: u64) -> Self {
        SplitMix64::new(plan_seed ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// Next raw u64.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw at probability `p` (clamped to [0, 1]).
    pub fn hit(&mut self, p: Option<f64>) -> bool {
        let p = p.unwrap_or(0.0).clamp(0.0, 1.0);
        p > 0.0 && self.next_f64() < p
    }
}

/// A message held back by a `reorder` fault, released after the next
/// send.
struct Stashed {
    to: usize,
    tag: u64,
    bytes: Vec<u8>,
}

/// A [`Comm`] wrapper that injects the faults a [`FaultPlan`]
/// prescribes into this rank's *send* path and scripted events into
/// every comm operation. Deterministic per (plan seed, rank).
pub struct FaultyComm<C: Comm> {
    inner: C,
    plan: FaultPlan,
    rng: Mutex<SplitMix64>,
    stash: Mutex<Option<Stashed>>,
    /// This rank's comm-operation counter (the "exchange index").
    ops: AtomicU64,
    /// Crash events call `std::process::exit(7)` instead of panicking
    /// — process semantics for launched chaos workers.
    process_exit: bool,
}

impl<C: Comm> FaultyComm<C> {
    /// Wrap `inner` under `plan`. Scripted crashes panic (thread-world
    /// semantics); see [`FaultyComm::with_process_exit`].
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        let rng = SplitMix64::for_rank(plan.seed, inner.rank() as u64);
        FaultyComm {
            inner,
            plan,
            rng: Mutex::new(rng),
            stash: Mutex::new(None),
            ops: AtomicU64::new(0),
            process_exit: false,
        }
    }

    /// Crash events exit the whole process (code 7) instead of
    /// panicking the calling thread — a real rank death for
    /// launcher-supervised chaos jobs.
    pub fn with_process_exit(mut self) -> Self {
        self.process_exit = true;
        self
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Comm operations performed so far (the exchange index scripted
    /// events key on).
    pub fn exchanges(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Advance the exchange index and fire any scripted event due now.
    fn tick(&self) {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        let Some(event) = self.plan.event_at(self.inner.rank(), n) else { return };
        match event.kind {
            FaultKind::CrashRank => {
                eprintln!(
                    "rank {} crashing deliberately at exchange {n} (fault plan seed {})",
                    self.inner.rank(),
                    self.plan.seed
                );
                hpgmxp_trace::instant("fault crash", hpgmxp_trace::Lane::Fault, n);
                // The trace flush guards sit above this frame and only
                // run on unwind, so dump the ring before a hard exit.
                if self.process_exit {
                    if let Some(Err(e)) = hpgmxp_trace::flush_global(self.inner.rank() as u32) {
                        eprintln!("[trace] flush before fault exit failed: {e}");
                    }
                    std::process::exit(7);
                }
                panic!("rank {} crashed by fault plan at exchange {n}", self.inner.rank());
            }
            FaultKind::HangRank => {
                eprintln!(
                    "rank {} hanging deliberately at exchange {n} for {:?} (fault plan seed {})",
                    self.inner.rank(),
                    self.plan.hang_duration(),
                    self.plan.seed
                );
                hpgmxp_trace::instant("fault hang", hpgmxp_trace::Lane::Fault, n);
                std::thread::sleep(self.plan.hang_duration());
            }
        }
    }
}

impl<C: Comm> FaultyComm<C> {
    /// Deliver a reorder-stashed message now. Called before collectives
    /// (a peer blocked on the held message may never reach the barrier
    /// otherwise — reordering must delay traffic, not deadlock it) and
    /// at shutdown (the stashed message may have been the last send).
    fn flush_stash(&self) {
        if let Some(held) = self.stash.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = self.inner.send_from(held.to, held.tag, &held.bytes);
        }
    }
}

impl<C: Comm> Drop for FaultyComm<C> {
    fn drop(&mut self) {
        self.flush_stash();
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
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        if rng.hit(self.plan.drop) {
            return Ok(()); // the message vanishes on the wire
        }
        if rng.hit(self.plan.delay) {
            std::thread::sleep(self.plan.delay_duration());
        }
        let duplicate = rng.hit(self.plan.duplicate);
        let corrupt = rng.hit(self.plan.corrupt);
        let reorder = rng.hit(self.plan.reorder);
        let flip = rng.next_u64();
        drop(rng);

        let mut scratch;
        let payload: &[u8] = if corrupt && !bytes.is_empty() {
            scratch = bytes.to_vec();
            let i = (flip as usize) % scratch.len();
            scratch[i] ^= 0x01 << (flip >> 32 & 7);
            &scratch
        } else {
            bytes
        };

        let mut stash = self.stash.lock().unwrap_or_else(|e| e.into_inner());
        if reorder && stash.is_none() {
            // Hold this message back; it travels after the next send.
            *stash = Some(Stashed { to, tag, bytes: payload.to_vec() });
            return Ok(());
        }
        self.inner.send_from(to, tag, payload)?;
        if duplicate {
            self.inner.send_from(to, tag, payload)?;
        }
        if let Some(held) = stash.take() {
            self.inner.send_from(held.to, held.tag, &held.bytes)?;
        }
        Ok(())
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
        self.flush_stash();
        self.inner.allreduce_checked(vals, op)
    }

    fn barrier(&self) -> CommResult<()> {
        self.tick();
        self.flush_stash();
        self.inner.barrier()
    }

    fn coll_stats(&self) -> Option<crate::collectives::CollStats> {
        self.inner.coll_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SelfComm;

    #[test]
    fn plan_json_roundtrip_with_events() {
        let text = r#"{
            "seed": 42,
            "drop": 0.1,
            "corrupt": 0.05,
            "hang_millis": 250,
            "events": [
                {"kind": "CrashRank", "rank": 2, "at_exchange": 17},
                {"kind": "HangRank", "rank": 0, "at_exchange": 3}
            ]
        }"#;
        let plan = FaultPlan::from_json(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop, Some(0.1));
        assert_eq!(plan.delay, None);
        assert_eq!(plan.hang_duration(), Duration::from_millis(250));
        let ev = plan.event_at(2, 17).expect("crash event");
        assert_eq!(ev.kind, FaultKind::CrashRank);
        assert!(plan.event_at(2, 16).is_none());
        assert!(plan.event_at(1, 17).is_none());
        // Round-trip through to_json preserves the plan.
        let again = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(again.seed, plan.seed);
        assert_eq!(again.events.as_ref().unwrap().len(), 2);
        assert_eq!(again.events.unwrap()[1].kind, FaultKind::HangRank);
    }

    #[test]
    fn bad_plan_is_a_loud_error() {
        let err = FaultPlan::from_json("{\"seed\": \"not a number\"}").unwrap_err();
        assert!(err.contains("bad fault plan"), "{err}");
        assert!(FaultPlan::from_json("not json at all").is_err());
    }

    #[test]
    fn splitmix_streams_are_deterministic_and_rank_independent() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::for_rank(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::for_rank(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same (seed, rank) → same stream");
        let c: Vec<u64> = {
            let mut r = SplitMix64::for_rank(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "different ranks → different streams");
        // Uniformity smoke: f64 draws stay in [0, 1).
        let mut r = SplitMix64::new(3);
        for _ in 0..100 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn without_wire_faults_keeps_only_scripted_events() {
        let mut plan = FaultPlan::clean(4);
        plan.drop = Some(0.1);
        plan.corrupt = Some(0.2);
        plan.reorder = Some(0.3);
        plan.events =
            Some(vec![FaultEvent { kind: FaultKind::CrashRank, rank: 2, at_exchange: 40 }]);
        let stripped = plan.without_wire_faults();
        assert!(!stripped.has_wire_faults());
        assert!(stripped.event_at(2, 40).is_some(), "scripted events survive the strip");
        assert_eq!(stripped.seed, 4);
    }

    #[test]
    fn clean_plan_injects_nothing() {
        let plan = FaultPlan::clean(9);
        assert!(!plan.has_wire_faults());
        let c = FaultyComm::new(SelfComm, plan);
        // Collectives pass through untouched and count exchanges.
        assert_eq!(c.allreduce_scalar(2.5, ReduceOp::Sum).unwrap(), 2.5);
        c.barrier().unwrap();
        assert_eq!(c.exchanges(), 2);
    }

    #[test]
    #[should_panic(expected = "crashed by fault plan at exchange 1")]
    fn scripted_crash_fires_at_exact_exchange_index() {
        let mut plan = FaultPlan::clean(1);
        plan.events =
            Some(vec![FaultEvent { kind: FaultKind::CrashRank, rank: 0, at_exchange: 1 }]);
        let c = FaultyComm::new(SelfComm, plan);
        c.barrier().unwrap(); // exchange 0 — survives
        c.barrier().unwrap(); // exchange 1 — crashes
    }

    #[test]
    fn scripted_hang_stalls_then_resumes() {
        let mut plan = FaultPlan::clean(1);
        plan.hang_millis = Some(60);
        plan.events = Some(vec![FaultEvent { kind: FaultKind::HangRank, rank: 0, at_exchange: 0 }]);
        let c = FaultyComm::new(SelfComm, plan);
        let t0 = std::time::Instant::now();
        c.barrier().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(60), "the hang really stalls");
        c.barrier().unwrap(); // resumes afterwards
        assert_eq!(c.exchanges(), 2);
    }
}
