//! A multi-rank world backed by OS threads and shared-memory mailboxes.
//!
//! [`ThreadWorld::connect`] creates `P` connected [`ThreadComm`] endpoints;
//! [`run_threads`] spawns one thread per rank and runs the same closure
//! on each — the SPMD execution model of the MPI benchmark. Message
//! delivery is FIFO per (sender → receiver) pair, like MPI; out-of-tag
//! arrivals stay parked in the shared [`crate::mailbox::Mailbox`] until
//! a matching receive, which is MPI's unexpected-message queue.
//!
//! The v2 transport is allocation-free at steady state: `send_from`
//! copies the caller's bytes into a buffer drawn from a world-wide
//! pool, the receiver copies them out into its posted buffer and
//! returns the pool buffer. Each rank's mailbox is guarded by a
//! mutex + condvar, so [`Comm::wait_any`] is a real blocking wait on
//! *any* neighbor (`MPI_Waitany`), not a poll loop.
//!
//! **Fault semantics.** Each endpoint announces its fate when it goes
//! away: a cleanly finished rank records a `PeerClosed` fault on every
//! peer's mailbox, a panicking rank records `PeerLost` — and because
//! collectives are message-based (the shared [`crate::collectives`]
//! engine over these same mailboxes), a collective on a surviving rank
//! fails with a typed [`CommError`] naming the dead rank instead of
//! hanging. Because parked messages are matched before faults,
//! everything a rank sent before finishing stays receivable. Worlds
//! built with [`ThreadWorld::connect_with`] can additionally bound
//! every blocking receive (and therefore every collective), turning a
//! hung-but-alive peer into a `Timeout` fault. [`run_threads_fallible`]
//! is the chaos-test entry point that reports each rank's outcome
//! instead of propagating the first panic.
//!
//! Transport-agnostic callers should reach this world through
//! [`crate::world::run_spmd`], which runs this world in any process
//! `hpgmxp-launch` did not start.

use crate::collectives::{self, CollCounters, CollScratch, CollStats, COLLECTIVE_TAG_BIT};
use crate::comm::{Comm, RecvPost, ReduceOp};
use crate::error::{CommErrorKind, CommResult};
use crate::mailbox::{deliver, pool_take, BufPool, Mailbox, Message};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct WorldShared {
    inboxes: Vec<Mailbox>,
    /// World-wide free list of message buffers.
    pool: BufPool,
}

/// One rank's endpoint in a [`ThreadWorld`].
pub struct ThreadComm {
    rank: usize,
    size: usize,
    shared: Arc<WorldShared>,
    /// Collective sequence counter — every rank draws the same tag
    /// sequence because collectives execute in SPMD program order.
    coll_seq: AtomicU64,
    /// Engine scratch (Bruck ring + fold accumulators), reused across
    /// collectives so steady state stays allocation-free.
    coll_scratch: Mutex<CollScratch>,
    counters: CollCounters,
}

/// Factory for connected [`ThreadComm`] endpoints.
pub struct ThreadWorld;

impl ThreadWorld {
    /// Create a world of `size` connected ranks with no receive
    /// deadline.
    pub fn connect(size: usize) -> Vec<ThreadComm> {
        Self::connect_with(size, None)
    }

    /// Create a world whose blocking receives and barriers give up
    /// with a typed `Timeout` fault after `deadline` — the hang
    /// detector for chaos tests (a hung rank is alive, so no
    /// `PeerClosed`/`PeerLost` fault will ever fire for it).
    pub fn connect_with(size: usize, deadline: Option<Duration>) -> Vec<ThreadComm> {
        assert!(size > 0);
        let shared = Arc::new(WorldShared {
            inboxes: (0..size).map(|_| Mailbox::with_deadline(deadline)).collect(),
            pool: BufPool::default(),
        });
        (0..size)
            .map(|rank| ThreadComm {
                rank,
                size,
                shared: Arc::clone(&shared),
                coll_seq: AtomicU64::new(0),
                coll_scratch: Mutex::new(CollScratch::default()),
                counters: CollCounters::default(),
            })
            .collect()
    }
}

impl ThreadComm {
    fn inbox(&self) -> &Mailbox {
        &self.shared.inboxes[self.rank]
    }

    fn deliver(&self, msg: Message, out: &mut [u8]) {
        deliver(msg, out, self.rank, &self.shared.pool);
    }

    /// Grow every currently pooled transport buffer to at least
    /// `min_capacity` bytes. The pool is shared by all ranks and holds
    /// buffers of whatever sizes past messages had; a stale small
    /// buffer can otherwise surface under a larger message arbitrarily
    /// late (one realloc at a scheduler-dependent moment). Calling
    /// this once after warm-up — while no messages are in flight —
    /// makes the zero-allocation steady state deterministic instead of
    /// high-water-mark-dependent.
    pub fn prewarm_pool(&self, min_capacity: usize) {
        // The mailbox deques must not grow mid-measurement either
        // (same determinism-by-construction as the pool): size each
        // rank's inbox for a full world's worth of parked messages.
        for inbox in &self.shared.inboxes {
            inbox.reserve(16 * self.size);
        }
        let mut pool = self.shared.pool.lock().unwrap_or_else(|e| e.into_inner());
        for buf in pool.iter_mut() {
            if buf.capacity() < min_capacity {
                buf.reserve(min_capacity - buf.len());
            }
        }
        // Stock the pool for the worst-case in-flight depth: every
        // rank can have a message posted to every other rank before
        // any receiver drains one, and `pool_take` on an empty pool
        // hands out a fresh zero-capacity `Vec` — one allocation at a
        // scheduler-dependent moment. (The mesh transports stock
        // their per-peer pools the same way.)
        let want = 2 * self.size * self.size;
        let have = pool.len();
        // Every rank calls this between barriers, and a peer's barrier
        // messages can be in flight while this rank counts `have`: the
        // population may end up above `want`, so leave the free list
        // room for it rather than growing it when stragglers return.
        pool.reserve((2 * want).saturating_sub(have));
        while pool.len() < want {
            pool.push(Vec::with_capacity(min_capacity));
        }
        drop(pool);
        // Size the collective engine's scratch so an allreduce of up to
        // `min_capacity` bytes per rank runs without allocating either.
        self.coll_scratch.lock().prewarm(self.size, min_capacity.div_ceil(8));
    }

    #[cfg(test)]
    fn pool_len(&self) -> usize {
        self.shared.pool.lock().unwrap().len()
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_from(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()> {
        let mut data = pool_take(&self.shared.pool, bytes.len());
        data.clear();
        data.extend_from_slice(bytes);
        self.shared.inboxes[to].push(Message { from: self.rank, tag, data }, None);
        Ok(())
    }

    fn recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()> {
        let msg = self.inbox().recv_matching(from, tag)?;
        self.deliver(msg, out);
        Ok(())
    }

    fn try_recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> bool {
        match self.inbox().try_recv_matching(from, tag) {
            Some(msg) => {
                self.deliver(msg, out);
                true
            }
            None => false,
        }
    }

    fn wait_any<'p>(
        &self,
        posts: &mut [Option<RecvPost<'p>>],
    ) -> CommResult<Option<(usize, RecvPost<'p>)>> {
        if posts.iter().all(Option::is_none) {
            return Ok(None);
        }
        let (slot, msg) = self.inbox().wait_any_matching(posts)?;
        let post = posts[slot].take().expect("slot matched in mailbox");
        self.deliver(msg, post.buf);
        Ok(Some((slot, post)))
    }

    fn allreduce_checked(&self, vals: &mut [f64], op: ReduceOp) -> CommResult<()> {
        let mut scratch = self.coll_scratch.lock();
        collectives::allreduce(self, &mut scratch, vals, op)
    }

    fn barrier(&self) -> CommResult<()> {
        collectives::barrier(self)
    }

    fn coll_stats(&self) -> Option<CollStats> {
        Some(self.counters.snapshot())
    }
}

impl collectives::CollEndpoint for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn coll_send(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()> {
        self.send_from(to, tag, bytes)
    }

    fn coll_recv(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()> {
        self.recv_into(from, tag, out)
    }

    fn next_coll_tag(&self) -> u64 {
        COLLECTIVE_TAG_BIT | self.coll_seq.fetch_add(1, Ordering::SeqCst)
    }

    fn counters(&self) -> &CollCounters {
        &self.counters
    }
}

impl Drop for ThreadComm {
    /// Announce this rank's fate to the rest of the world: a panicking
    /// rank is `PeerLost`, a cleanly finished one `PeerClosed`. Either
    /// way no future message or barrier arrival can come from it, so
    /// peers blocked on it get a typed fault instead of a hang. Parked
    /// messages are matched before faults, so everything this rank
    /// already sent stays receivable.
    fn drop(&mut self) {
        let (kind, why) = if std::thread::panicking() {
            (CommErrorKind::PeerLost, format!("rank {} panicked", self.rank))
        } else {
            (CommErrorKind::PeerClosed, format!("rank {} finished", self.rank))
        };
        for (r, inbox) in self.shared.inboxes.iter().enumerate() {
            if r != self.rank {
                inbox.fail(self.rank, kind, why.clone());
            }
        }
    }
}

/// Run the same closure on `size` thread-ranks, one OS thread each, and
/// return the per-rank results in rank order. Panics in any rank
/// propagate. This is the thread-transport primitive; use
/// [`crate::world::run_spmd`] to join a launched mesh when there is one.
pub fn run_threads<T, F>(size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(ThreadComm) -> T + Sync,
{
    run_threads_fallible(size, None, f).into_iter().map(|r| r.expect("a rank panicked")).collect()
}

/// [`run_threads`] for chaos tests: report each rank's outcome
/// (`Err` = that rank panicked) instead of propagating the first
/// panic, optionally bound every blocking receive and barrier by
/// `deadline` so a hung rank surfaces as a typed `Timeout` fault on
/// its peers rather than wedging the whole world.
pub fn run_threads_fallible<T, F>(
    size: usize,
    deadline: Option<Duration>,
    f: F,
) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(ThreadComm) -> T + Sync,
{
    let comms = ThreadWorld::connect_with(size, deadline);
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let fr = &f;
                s.spawn(move || fr(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{pack, unpack};

    #[test]
    fn ping_pong() {
        let results = run_threads(2, |c| {
            if c.rank() == 0 {
                c.send_from(1, 7, &[1, 2, 3]).unwrap();
                let mut got = vec![0u8; 1];
                c.recv_into(1, 8, &mut got).unwrap();
                got
            } else {
                let mut got = vec![0u8; 3];
                c.recv_into(0, 7, &mut got).unwrap();
                c.send_from(0, 8, &[9]).unwrap();
                got
            }
        });
        assert_eq!(results[0], vec![9]);
        assert_eq!(results[1], vec![1, 2, 3]);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let results = run_threads(4, |c| {
            let sum = c.allreduce_scalar(c.rank() as f64 + 1.0, ReduceOp::Sum).unwrap();
            let max = c.allreduce_scalar(c.rank() as f64, ReduceOp::Max).unwrap();
            let min = c.allreduce_scalar(c.rank() as f64, ReduceOp::Min).unwrap();
            (sum, max, min)
        });
        for (sum, max, min) in results {
            assert_eq!(sum, 10.0);
            assert_eq!(max, 3.0);
            assert_eq!(min, 0.0);
        }
    }

    #[test]
    fn allreduce_vector() {
        let results = run_threads(3, |c| {
            let mut v = vec![c.rank() as f64, 1.0];
            c.allreduce(&mut v, ReduceOp::Sum);
            v
        });
        for v in results {
            assert_eq!(v, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn repeated_allreduces_stay_in_lockstep() {
        let results = run_threads(4, |c| {
            let mut acc = 0.0;
            for i in 0..50 {
                acc = c.allreduce_scalar(acc + i as f64, ReduceOp::Sum).unwrap();
            }
            acc
        });
        // All ranks must agree after every round.
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let results = run_threads(2, |c| {
            if c.rank() == 0 {
                c.send_from(1, 1, &[1]).unwrap();
                c.send_from(1, 2, &[2]).unwrap();
                vec![]
            } else {
                // Receive tag 2 first although tag 1 arrived first.
                let mut b = [0u8; 1];
                c.recv_into(0, 2, &mut b).unwrap();
                let mut a = [0u8; 1];
                c.recv_into(0, 1, &mut a).unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1, 2]);
    }

    #[test]
    fn same_tag_is_fifo_per_pair() {
        let results = run_threads(2, |c| {
            if c.rank() == 0 {
                for i in 0..10u8 {
                    c.send_from(1, 0, &[i]).unwrap();
                }
                vec![]
            } else {
                (0..10)
                    .map(|_| {
                        let mut b = [0u8; 1];
                        c.recv_into(0, 0, &mut b).unwrap();
                        b[0]
                    })
                    .collect()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn try_recv_polls() {
        let results = run_threads(2, |c| {
            if c.rank() == 0 {
                c.barrier().unwrap();
                // After the barrier the message is guaranteed sent.
                let mut d = vec![0u8; 1];
                loop {
                    if c.try_recv_into(1, 5, &mut d) {
                        return d;
                    }
                    std::thread::yield_now();
                }
            } else {
                c.send_from(0, 5, &[42]).unwrap();
                c.barrier().unwrap();
                vec![]
            }
        });
        assert_eq!(results[0], vec![42]);
    }

    #[test]
    fn wait_any_completes_in_arrival_order() {
        // Rank 2 waits on both neighbors at once and records completion
        // order; whichever message arrived first must complete first.
        let results = run_threads(3, |c| {
            if c.rank() == 2 {
                let mut b0 = [0u8; 1];
                let mut b1 = [0u8; 1];
                // Rank 1's send is ordered (via the barrier) before
                // rank 0's, so it must complete first.
                c.barrier().unwrap();
                let mut posts =
                    [Some(RecvPost::new(0, 9, &mut b0)), Some(RecvPost::new(1, 9, &mut b1))];
                let (first, post) = c.wait_any(&mut posts).unwrap().expect("two posts live");
                let first_val = post.buf[0];
                let (second, post) = c.wait_any(&mut posts).unwrap().expect("one post live");
                let second_val = post.buf[0];
                assert!(c.wait_any(&mut posts).unwrap().is_none(), "all posts drained");
                vec![first as u8, first_val, second as u8, second_val]
            } else if c.rank() == 1 {
                c.send_from(2, 9, &[11]).unwrap();
                c.barrier().unwrap();
                vec![]
            } else {
                c.barrier().unwrap();
                c.send_from(2, 9, &[10]).unwrap();
                vec![]
            }
        });
        assert_eq!(results[2], vec![1, 11, 0, 10]);
    }

    #[test]
    fn typed_slices_roundtrip() {
        let results = run_threads(2, |c| {
            if c.rank() == 0 {
                c.send_from(1, 0, &pack(&[1.5f32, -2.5])).unwrap();
                0.0
            } else {
                let mut bytes = vec![0u8; 8];
                c.recv_into(0, 0, &mut bytes).unwrap();
                let mut out = vec![0.0f32; 2];
                unpack(&bytes, &mut out);
                out[0] as f64 + out[1] as f64
            }
        });
        assert_eq!(results[1], -1.0);
    }

    #[test]
    fn single_rank_world_works() {
        let results = run_threads(1, |c| c.allreduce_scalar(5.0, ReduceOp::Sum).unwrap());
        assert_eq!(results, vec![5.0]);
    }

    #[test]
    fn pool_buffers_are_recycled() {
        // After a message is received its buffer returns to the pool;
        // repeated same-size traffic must not grow the pool without
        // bound.
        let results = run_threads(2, |c| {
            // Ping-pong keeps at most one message in flight per
            // direction, so steady-state traffic cannot out-run the
            // receiver and force fresh buffers.
            let mut buf = [0u8; 256];
            for round in 0..100u64 {
                if c.rank() == 0 {
                    c.send_from(1, round, &[7u8; 256]).unwrap();
                    c.recv_into(1, round, &mut buf).unwrap();
                } else {
                    c.recv_into(0, round, &mut buf).unwrap();
                    c.send_from(0, round, &buf).unwrap();
                }
            }
            c.barrier().unwrap();
            c.pool_len()
        });
        // Bounded in-flight traffic: the pool holds a handful of
        // buffers, not one per round.
        assert!(results[0] <= 4, "pool grew to {} buffers", results[0]);
    }

    #[test]
    fn many_ranks_stress() {
        // A ring shift: rank r sends to (r+1) % p and receives from
        // (r-1+p) % p, repeated.
        let p = 8;
        let results = run_threads(p, move |c| {
            let r = c.rank();
            let next = (r + 1) % p;
            let prev = (r + p - 1) % p;
            let mut token = r as u64;
            for round in 0..20 {
                c.send_from(next, round, &token.to_le_bytes()).unwrap();
                let mut got = [0u8; 8];
                c.recv_into(prev, round, &mut got).unwrap();
                token = u64::from_le_bytes(got) + 1;
            }
            token
        });
        // After 20 rounds each token visited 20 ranks, +1 each hop.
        for (r, t) in results.iter().enumerate() {
            assert_eq!(*t, ((r + p - 20 % p) % p) as u64 + 20);
        }
    }

    #[test]
    fn finished_rank_fails_peer_receives_with_typed_error() {
        // Rank 1 returns without ever sending; rank 0's checked receive
        // must fail with a PeerClosed fault naming rank 1, within
        // bounded time, instead of hanging.
        let results = run_threads_fallible(2, None, |c| {
            if c.rank() == 0 {
                let mut buf = [0u8; 1];
                let err = c.recv_into(1, 7, &mut buf).unwrap_err();
                assert_eq!(err.kind, crate::error::CommErrorKind::PeerClosed);
                assert_eq!(err.peer, Some(1));
                assert!(err.detail.contains("rank 1 finished"), "{}", err.detail);
            }
        });
        assert!(results.into_iter().all(|r| r.is_ok()));
    }

    #[test]
    fn dead_rank_breaks_collectives_with_typed_error() {
        // Rank 1 dies (panics) before the collective; the survivors'
        // allreduce fails loudly, attributed to rank 1.
        let results = run_threads_fallible(3, None, |c| {
            if c.rank() == 1 {
                panic!("rank 1 crashing deliberately");
            }
            let err = c.allreduce_scalar(1.0, ReduceOp::Sum).unwrap_err();
            assert_eq!(err.kind, crate::error::CommErrorKind::PeerLost);
            assert_eq!(err.peer, Some(1));
            assert!(err.detail.contains("rank 1 panicked"), "{}", err.detail);
        });
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "rank 1 panicked by design");
        assert!(results[2].is_ok());
    }

    #[test]
    fn hung_rank_surfaces_as_receive_timeout() {
        // Rank 1 is alive but wedged (no fault will ever be recorded
        // for it); the receive deadline is the only detector.
        use std::sync::atomic::{AtomicBool, Ordering};
        let woke = AtomicBool::new(false);
        let results = run_threads_fallible(2, Some(Duration::from_millis(50)), |c| {
            if c.rank() == 0 {
                let mut buf = [0u8; 1];
                let err = c.recv_into(1, 7, &mut buf).unwrap_err();
                assert_eq!(err.kind, crate::error::CommErrorKind::Timeout);
                assert_eq!((err.peer, err.tag), (Some(1), Some(7)));
                assert!(err.elapsed >= Duration::from_millis(50));
            } else {
                std::thread::sleep(Duration::from_millis(200)); // wedged
                woke.store(true, Ordering::SeqCst);
            }
        });
        assert!(results.into_iter().all(|r| r.is_ok()));
        assert!(woke.load(Ordering::SeqCst), "the hung rank was never killed, only detected");
    }

    #[test]
    fn messages_sent_before_finishing_stay_receivable() {
        // Rank 1 sends then immediately exits; rank 0 must still get
        // the data (parked messages are matched before faults).
        let results = run_threads_fallible(2, None, |c| {
            if c.rank() == 0 {
                let mut buf = [0u8; 1];
                // Rank 1 may have already exited; the parked message
                // must still match.
                std::thread::sleep(Duration::from_millis(20));
                c.recv_into(1, 3, &mut buf).expect("pre-exit send is receivable");
                buf[0]
            } else {
                c.send_from(0, 3, &[17]).unwrap();
                17
            }
        });
        for r in results {
            assert_eq!(r.expect("no rank panicked"), 17);
        }
    }
}
