//! The deterministic collective engine shared by every transport.
//!
//! The thread world and the process mesh run the same collectives.
//! This module is that one engine, written against fallible
//! point-to-point operations (`CollEndpoint`), so a transport only
//! has to provide `send`/`recv`/`tag` and inherits every collective —
//! including the fault semantics of its mailbox (typed [`CommError`](crate::CommError)s
//! with peer attribution instead of hangs).
//!
//! There is one algorithm, recursive doubling:
//!
//! * **allreduce** — a Bruck **allgather** in ⌈log₂P⌉ rounds: round
//!   `k` sends the `min(2^k, P−2^k)` blocks held so far to rank
//!   `r−2^k` and receives as many from `r+2^k`, so every rank ends
//!   holding all `P` contributions after ⌈log₂P⌉ receives (the last
//!   round of a non-power-of-two `P` moves a partial set of blocks);
//! * **barrier** — the classic dissemination barrier (same round
//!   structure, empty payloads);
//! * **allgather** of one `u64` row per rank — the same Bruck kernel,
//!   which is how the mesh flush barrier distributes its ledger.
//!
//! **Determinism contract.** Every rank folds the gathered
//! contributions *locally in rank order 0..P* — the same trick as the
//! deterministic blocked-pairwise dot. The floating-point reduction
//! tree is therefore a constant of the program: results are
//! bit-identical across transports and world sizes, which is what
//! lets GMRES-IR residual histories replay bit-for-bit in thread ranks
//! and launched ranks alike (pinned by the multirank determinism suite, and by
//! the mesh suite's comparison against a plain rank-order fold).
//!
//! Every operation updates the endpoint's [`CollCounters`] (operation,
//! round, receive, and byte counts), so the O(log P) load claim is
//! measured, not asserted: every rank, rank 0 included, performs
//! ⌈log₂P⌉ receives per allreduce, and GMRES-IR reports the per-solve
//! totals in `SolveStats::collectives`.

use crate::comm::{reduce_into, ReduceOp};
use crate::error::CommResult;
use hpgmxp_trace::{counter, Lane};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tag bit reserved for collective traffic (allreduce/barrier rounds).
/// User tags must leave it clear; the halo engine and every test tag
/// sit far below it.
pub const COLLECTIVE_TAG_BIT: u64 = 1 << 63;

/// Per-endpoint collective traffic counters, updated by the engine on
/// every operation. All counts are cumulative since endpoint creation;
/// snapshot with [`CollCounters::snapshot`] and diff two snapshots to
/// attribute traffic to a phase (GMRES-IR reports per-solve deltas
/// this way).
#[derive(Debug, Default)]
pub struct CollCounters {
    allreduces: AtomicU64,
    barriers: AtomicU64,
    allgathers: AtomicU64,
    /// Sequential message waves this rank participated in.
    rounds: AtomicU64,
    /// Blocking collective receives this rank performed — the load
    /// metric: ⌈log₂P⌉ per allreduce on every rank, root included.
    recvs: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl CollCounters {
    /// Record a barrier that completed outside the engine's `barrier`
    /// path — the mesh flush barrier is an engine allgather
    /// plus a ledger wait, but it is still one barrier to the caller.
    pub(crate) fn count_barrier(&self) {
        self.barriers.fetch_add(1, Ordering::SeqCst);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CollStats {
        CollStats {
            allreduces: self.allreduces.load(Ordering::SeqCst),
            barriers: self.barriers.load(Ordering::SeqCst),
            allgathers: self.allgathers.load(Ordering::SeqCst),
            rounds: self.rounds.load(Ordering::SeqCst),
            recvs: self.recvs.load(Ordering::SeqCst),
            bytes_sent: self.bytes_sent.load(Ordering::SeqCst),
            bytes_received: self.bytes_received.load(Ordering::SeqCst),
        }
    }
}

/// Snapshot of an endpoint's [`CollCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollStats {
    /// Allreduce operations completed.
    pub allreduces: u64,
    /// Barrier operations completed.
    pub barriers: u64,
    /// Allgather operations completed (the mesh flush barrier
    /// runs one per barrier, on top of the barrier count).
    pub allgathers: u64,
    /// Sequential message waves across all operations.
    pub rounds: u64,
    /// Blocking collective receives performed.
    pub recvs: u64,
    /// Collective payload bytes sent.
    pub bytes_sent: u64,
    /// Collective payload bytes received.
    pub bytes_received: u64,
}

impl CollStats {
    /// Counter increments between an earlier snapshot and this one.
    pub fn since(&self, earlier: &CollStats) -> CollStats {
        CollStats {
            allreduces: self.allreduces - earlier.allreduces,
            barriers: self.barriers - earlier.barriers,
            allgathers: self.allgathers - earlier.allgathers,
            rounds: self.rounds - earlier.rounds,
            recvs: self.recvs - earlier.recvs,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
        }
    }
}

/// Rounds of the recursive-doubling schedule: ⌈log₂P⌉.
pub fn rd_rounds(p: usize) -> u32 {
    debug_assert!(p > 0);
    usize::BITS - (p - 1).leading_zeros()
}

/// The fallible point-to-point operations a transport lends the engine.
///
/// `coll_send` must be non-blocking with respect to the peer's receive
/// (delivery into a mailbox / kernel buffer), or the round schedules
/// deadlock. `coll_recv` blocks until exactly `out.len()` bytes arrive
/// from `(from, tag)` and must honor the transport's fault channel
/// (typed error when the peer died or the receive deadline elapsed).
/// `next_coll_tag` returns a fresh reserved tag; collectives execute
/// in SPMD program order, so every rank draws the same sequence.
pub(crate) trait CollEndpoint {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;
    fn coll_send(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()>;
    fn coll_recv(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()>;
    fn next_coll_tag(&self) -> u64;
    fn counters(&self) -> &CollCounters;
}

/// Reusable per-endpoint scratch: sized on first use (or by
/// `prewarm`), then stable — collectives allocate nothing at steady
/// state, preserving the transports' zero-allocation discipline.
#[derive(Debug, Default)]
pub(crate) struct CollScratch {
    /// Bruck ring: up to P blocks of the payload.
    ring: Vec<u8>,
    /// Rank-order fold accumulator.
    acc: Vec<f64>,
    /// Decoded peer contribution.
    peer: Vec<f64>,
}

impl CollScratch {
    /// Grow the scratch so a `vals_len`-element allreduce in a world of
    /// `p` ranks runs without allocating.
    pub fn prewarm(&mut self, p: usize, vals_len: usize) {
        let want = p * vals_len * 8;
        if self.ring.capacity() < want {
            self.ring.reserve(want - self.ring.len());
        }
        if self.acc.capacity() < vals_len {
            self.acc.reserve(vals_len - self.acc.len());
        }
        if self.peer.capacity() < vals_len {
            self.peer.reserve(vals_len - self.peer.len());
        }
    }
}

fn encode_f64s(vals: &[f64], out: &mut [u8]) {
    debug_assert_eq!(out.len(), vals.len() * 8);
    for (v, c) in vals.iter().zip(out.chunks_exact_mut(8)) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

fn decode_f64s_into(bytes: &[u8], out: &mut Vec<f64>) {
    debug_assert_eq!(bytes.len() % 8, 0);
    out.clear();
    out.extend(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())));
}

/// Allreduce: a Bruck allgather of every rank's contribution, then a
/// local fold in rank order 0..P on every rank.
pub(crate) fn allreduce<E: CollEndpoint + ?Sized>(
    ep: &E,
    scratch: &mut CollScratch,
    vals: &mut [f64],
    op: ReduceOp,
) -> CommResult<()> {
    let (p, r) = (ep.size(), ep.rank());
    ep.counters().allreduces.fetch_add(1, Ordering::SeqCst);
    counter!("coll.allreduces").inc();
    if p == 1 {
        return Ok(());
    }
    let mut sp = hpgmxp_trace::span("allreduce", Lane::Coll);
    sp.set_arg(vals.len() as u64);
    let tag = ep.next_coll_tag();
    let b = vals.len() * 8;
    scratch.ring.clear();
    scratch.ring.resize(p * b, 0);
    encode_f64s(vals, &mut scratch.ring[..b]);
    bruck_allgather(ep, tag, b, &mut scratch.ring)?;
    // Every rank now holds all P blocks (slot j = rank (r+j) mod P);
    // fold them locally in rank order 0..P.
    scratch.acc.clear();
    for i in 0..p {
        let slot = (i + p - r) % p;
        let block = &scratch.ring[slot * b..slot * b + b];
        if i == 0 {
            decode_f64s_into(block, &mut scratch.acc);
        } else {
            decode_f64s_into(block, &mut scratch.peer);
            reduce_into(op, &mut scratch.acc, &scratch.peer);
        }
    }
    vals.copy_from_slice(&scratch.acc);
    Ok(())
}

/// The Bruck allgather kernel: `ring` holds P slots of `b` bytes, slot
/// 0 = this rank's own block on entry; on exit slot `j` holds the
/// block of rank `(r+j) mod P`. ⌈log₂P⌉ rounds, any P.
fn bruck_allgather<E: CollEndpoint + ?Sized>(
    ep: &E,
    tag: u64,
    b: usize,
    ring: &mut [u8],
) -> CommResult<()> {
    let (p, r) = (ep.size(), ep.rank());
    let c = ep.counters();
    let mut k = 1usize;
    while k < p {
        let _round = hpgmxp_trace::span("coll round", Lane::Coll);
        let cnt = k.min(p - k);
        let to = (r + p - k) % p;
        let from = (r + k) % p;
        // Send before receive: sends are mailbox/buffer posted, so the
        // symmetric round schedule cannot deadlock.
        ep.coll_send(to, tag, &ring[..cnt * b])?;
        c.bytes_sent.fetch_add((cnt * b) as u64, Ordering::SeqCst);
        ep.coll_recv(from, tag, &mut ring[k * b..(k + cnt) * b])?;
        c.recvs.fetch_add(1, Ordering::SeqCst);
        c.bytes_received.fetch_add((cnt * b) as u64, Ordering::SeqCst);
        c.rounds.fetch_add(1, Ordering::SeqCst);
        k <<= 1;
    }
    Ok(())
}

/// Dissemination barrier: round `k` sends an empty message to `r+2^k`
/// and receives one from `r−2^k`, ⌈log₂P⌉ rounds.
pub(crate) fn barrier<E: CollEndpoint + ?Sized>(ep: &E) -> CommResult<()> {
    let (p, r) = (ep.size(), ep.rank());
    let c = ep.counters();
    c.barriers.fetch_add(1, Ordering::SeqCst);
    counter!("coll.barriers").inc();
    if p == 1 {
        return Ok(());
    }
    let _sp = hpgmxp_trace::span("barrier", Lane::Coll);
    let tag = ep.next_coll_tag();
    let mut k = 1usize;
    while k < p {
        let _round = hpgmxp_trace::span("coll round", Lane::Coll);
        ep.coll_send((r + k) % p, tag, &[])?;
        ep.coll_recv((r + p - k) % p, tag, &mut [])?;
        c.recvs.fetch_add(1, Ordering::SeqCst);
        c.rounds.fetch_add(1, Ordering::SeqCst);
        k <<= 1;
    }
    Ok(())
}

/// Allgather of one `u64` row per rank: on return `out` holds P rows
/// of `row.len()` values in rank order. This is how the mesh flush
/// barrier distributes the sent-count matrix (row `i` = what rank `i`
/// has sent to each peer).
pub(crate) fn allgather_u64<E: CollEndpoint + ?Sized>(
    ep: &E,
    scratch: &mut CollScratch,
    row: &[u64],
    out: &mut Vec<u64>,
) -> CommResult<()> {
    let (p, r) = (ep.size(), ep.rank());
    ep.counters().allgathers.fetch_add(1, Ordering::SeqCst);
    counter!("coll.allgathers").inc();
    let _sp = hpgmxp_trace::span("allgather", Lane::Coll);
    let n = row.len();
    out.clear();
    out.resize(p * n, 0);
    if p == 1 {
        out.copy_from_slice(row);
        return Ok(());
    }
    let tag = ep.next_coll_tag();
    let b = n * 8;
    scratch.ring.clear();
    scratch.ring.resize(p * b, 0);
    for (v, chunk) in row.iter().zip(scratch.ring.chunks_exact_mut(8)) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    bruck_allgather(ep, tag, b, &mut scratch.ring)?;
    for i in 0..p {
        let slot = (i + p - r) % p;
        let block = scratch.ring[slot * b..(slot + 1) * b].chunks_exact(8);
        for (v, chunk) in out[i * n..(i + 1) * n].iter_mut().zip(block) {
            *v = u64::from_le_bytes(chunk.try_into().unwrap());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rd_round_counts() {
        for (p, rounds) in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4)] {
            assert_eq!(rd_rounds(p), rounds, "P = {p}");
        }
    }

    #[test]
    fn stats_since_diffs_counters() {
        let c = CollCounters::default();
        c.allreduces.fetch_add(3, Ordering::SeqCst);
        c.recvs.fetch_add(7, Ordering::SeqCst);
        let before = c.snapshot();
        c.allreduces.fetch_add(2, Ordering::SeqCst);
        c.recvs.fetch_add(4, Ordering::SeqCst);
        c.bytes_sent.fetch_add(100, Ordering::SeqCst);
        let delta = c.snapshot().since(&before);
        assert_eq!((delta.allreduces, delta.recvs, delta.bytes_sent), (2, 4, 100));
    }
}
