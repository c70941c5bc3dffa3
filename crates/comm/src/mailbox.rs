//! The rank-local mailbox shared by every multi-rank transport.
//!
//! Both [`crate::thread_world::ThreadWorld`] (messages arrive from
//! sibling threads) and the [`crate::mesh`] transports (messages
//! arrive from per-peer reader threads) deliver into the same
//! structure: an arrival-ordered deque guarded by a mutex + condvar.
//! Scanning front-to-back preserves FIFO per (sender, tag) pair
//! because each producer appends its messages in program order, and
//! out-of-tag arrivals simply stay parked until a matching receive —
//! MPI's unexpected-message queue.
//!
//! The mailbox also owns the *fault* channel of a transport: a reader
//! thread that loses its peer (socket EOF mid-run) calls [`Mailbox::fail`],
//! which wakes every blocked receive so the rank fails with a clear
//! "connection to rank R lost" diagnostic instead of hanging forever.
//! Faults are tracked *per peer*: ranks of one job finish at slightly
//! different moments, so an EOF from an already-finished peer must not
//! poison a receive from a still-live one. Only an operation that
//! needs the faulted peer (a receive from it, a post on it, a barrier
//! — which needs everyone) fails. Parked messages are always checked
//! *before* faults, so data a peer delivered before dying stays
//! receivable.
//!
//! A mailbox may carry a **receive deadline**: every blocking receive
//! then returns a typed [`CommError`] of kind `Timeout` once it has
//! waited that long — the detector for a peer that is alive (still
//! heartbeating) but wedged.
//!
//! Message buffers are recycled through free lists ([`pool_take`] /
//! [`pool_put`]): world-wide in the thread world, per peer in a mesh.

use crate::comm::RecvPost;
use crate::error::{CommError, CommErrorKind, CommResult};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A free list of recycled message buffers. Buffers only ever grow, so
/// after warm-up every message is served without a heap allocation
/// (the zero-allocation steady state the halo suite asserts).
pub(crate) type BufPool = Mutex<Vec<Vec<u8>>>;

/// Take a pool buffer that can hold `len` bytes without growing. Best
/// fit (smallest sufficient capacity) so a small message never claims
/// the pool's only large buffer and forces the next large one to
/// reallocate — the steady state must stay allocation-free under any
/// interleaving.
pub(crate) fn pool_take(pool: &BufPool, len: usize) -> Vec<u8> {
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    let best = pool
        .iter()
        .enumerate()
        .filter(|(_, b)| b.capacity() >= len)
        .min_by_key(|(_, b)| b.capacity())
        .map(|(i, _)| i);
    match best {
        Some(pos) => pool.swap_remove(pos),
        None => pool.pop().unwrap_or_default(),
    }
}

/// Return a buffer to its pool.
pub(crate) fn pool_put(pool: &BufPool, buf: Vec<u8>) {
    pool.lock().unwrap_or_else(|e| e.into_inner()).push(buf);
}

/// One delivered message, owning its (pool-recycled) byte buffer.
#[derive(Debug)]
pub(crate) struct Message {
    pub from: usize,
    pub tag: u64,
    pub data: Vec<u8>,
}

struct Queue {
    messages: VecDeque<Message>,
    /// Per-peer transport faults (connection closed, lost, or corrupt);
    /// each peer's entry is set at most once.
    faults: BTreeMap<usize, (CommErrorKind, String)>,
}

/// Copy a matched message into the posted buffer `out` of rank `rank`
/// and recycle its buffer into `pool`. Call with the mailbox lock
/// released — the pool lock is never taken under the queue lock.
pub(crate) fn deliver(msg: Message, out: &mut [u8], rank: usize, pool: &BufPool) {
    assert_eq!(
        msg.data.len(),
        out.len(),
        "message length mismatch: rank {rank} got {} bytes from {} tag {}, posted {}",
        msg.data.len(),
        msg.from,
        msg.tag,
        out.len()
    );
    out.copy_from_slice(&msg.data);
    pool_put(pool, msg.data);
}

/// Arrival-ordered inbox of one rank.
pub(crate) struct Mailbox {
    queue: Mutex<Queue>,
    arrived: Condvar,
    /// Bound on how long a blocking receive may wait (`None` = forever).
    deadline: Option<Duration>,
}

impl Mailbox {
    /// A mailbox with no receive deadline (tests, simple worlds).
    #[allow(dead_code)]
    pub fn new() -> Self {
        Self::with_deadline(None)
    }

    /// A mailbox whose blocking receives give up (with a `Timeout`
    /// fault) after `deadline`.
    pub fn with_deadline(deadline: Option<Duration>) -> Self {
        Mailbox {
            queue: Mutex::new(Queue { messages: VecDeque::new(), faults: BTreeMap::new() }),
            arrived: Condvar::new(),
            deadline,
        }
    }

    /// Deliver one message (producer side) and wake any waiter.
    pub fn push(&self, msg: Message) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.messages.push_back(msg);
        drop(q);
        self.arrived.notify_all();
    }

    /// Record a transport fault on the connection to `from` and wake
    /// every blocked receive (waiters re-check whether the peer they
    /// need is the one that went away).
    pub fn fail(&self, from: usize, kind: CommErrorKind, why: String) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.faults.entry(from).or_insert((kind, why));
        drop(q);
        self.arrived.notify_all();
    }

    /// The fault recorded for `from`, if any (diagnostics).
    #[allow(dead_code)]
    pub fn fault_of(&self, from: usize) -> Option<(CommErrorKind, String)> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).faults.get(&from).cloned()
    }

    /// Grow the parked-message deque to hold at least `slots` messages
    /// without reallocating. Called by the transports' `prewarm_pool`
    /// so a parking burst during a measured window cannot trigger a
    /// deque growth at a scheduler-dependent moment — the same
    /// determinism-by-construction the buffer pools get.
    pub fn reserve(&self, slots: usize) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let additional = slots.saturating_sub(q.messages.len());
        if q.messages.capacity() < slots {
            q.messages.reserve(additional);
        }
    }

    /// Messages currently parked (diagnostics).
    #[allow(dead_code)]
    pub fn parked(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).messages.len()
    }

    /// Remove and return every parked message matching `pred` (the
    /// caller recycles the buffers). Used to isolate consecutive SPMD
    /// runs on a reused transport; the predicate lets the transport
    /// keep protocol-internal messages (a fast peer's next collective
    /// may already be parked here) while draining stale user data.
    pub fn take_where(&self, pred: impl Fn(&Message) -> bool) -> Vec<Message> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        let mut i = 0;
        while i < q.messages.len() {
            if pred(&q.messages[i]) {
                out.push(q.messages.remove(i).expect("index is in range"));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Wait on the condvar, honoring the receive deadline. Returns the
    /// re-acquired guard, or a `Timeout` fault once `started` is older
    /// than the deadline.
    fn wait<'a>(
        &'a self,
        q: MutexGuard<'a, Queue>,
        started: Instant,
        what: impl FnOnce() -> CommError,
    ) -> CommResult<MutexGuard<'a, Queue>> {
        match self.deadline {
            None => Ok(self.arrived.wait(q).unwrap_or_else(|e| e.into_inner())),
            Some(deadline) => {
                let elapsed = started.elapsed();
                if elapsed >= deadline {
                    return Err(what().with_elapsed(elapsed));
                }
                let (q, _) = self
                    .arrived
                    .wait_timeout(q, deadline - elapsed)
                    .unwrap_or_else(|e| e.into_inner());
                Ok(q)
            }
        }
    }

    fn timeout_error(&self, from: usize, tag: u64) -> CommError {
        let d = self.deadline.unwrap_or_default();
        CommError::new(
            CommErrorKind::Timeout,
            Some(from),
            format!(
                "no message from rank {from} (tag {tag}) within the {:.3}s receive deadline \
                 (peer hung?)",
                d.as_secs_f64()
            ),
        )
        .with_tag(tag)
    }

    fn fault_error(from: usize, tag: Option<u64>, kind: CommErrorKind, why: &str) -> CommError {
        let mut e = CommError::new(kind, Some(from), why.to_string());
        if let Some(tag) = tag {
            e = e.with_tag(tag);
        }
        e
    }

    /// Blocking receive of the next message matching `(from, tag)`,
    /// returning a typed fault if the peer failed or the receive
    /// deadline elapsed.
    pub fn recv_matching_checked(&self, from: usize, tag: u64) -> CommResult<Message> {
        let started = Instant::now();
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(pos) = q.messages.iter().position(|m| m.from == from && m.tag == tag) {
                return Ok(q.messages.remove(pos).expect("position is in range"));
            }
            if let Some((kind, why)) = q.faults.get(&from) {
                return Err(
                    Self::fault_error(from, Some(tag), *kind, why).with_elapsed(started.elapsed())
                );
            }
            q = self.wait(q, started, || self.timeout_error(from, tag))?;
        }
    }

    /// Non-blocking receive of the next message matching `(from, tag)`.
    pub fn try_recv_matching(&self, from: usize, tag: u64) -> Option<Message> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let pos = q.messages.iter().position(|m| m.from == from && m.tag == tag)?;
        Some(q.messages.remove(pos).expect("position is in range"))
    }

    /// Block until a message matching any live slot in `posts` arrives,
    /// preferring the *earliest arrival* — the `MPI_Waitany` pattern.
    /// Returns the slot index and the message; the caller takes the
    /// post, copies the payload, and recycles the buffer. A fault on
    /// any still-posted peer, or the receive deadline, is a typed
    /// error.
    pub fn wait_any_matching_checked(
        &self,
        posts: &[Option<RecvPost<'_>>],
    ) -> CommResult<(usize, Message)> {
        let started = Instant::now();
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let hit = q.messages.iter().position(|m| {
                posts.iter().any(|p| p.as_ref().is_some_and(|p| p.from == m.from && p.tag == m.tag))
            });
            if let Some(pos) = hit {
                let msg = q.messages.remove(pos).expect("position is in range");
                let slot = posts
                    .iter()
                    .position(|p| {
                        p.as_ref().is_some_and(|p| p.from == msg.from && p.tag == msg.tag)
                    })
                    .expect("a post matched above");
                return Ok((slot, msg));
            }
            // A live post on a faulted peer can never complete (its
            // messages, had any been in flight, were delivered before
            // the fault was recorded).
            for p in posts.iter().flatten() {
                if let Some((kind, why)) = q.faults.get(&p.from) {
                    return Err(Self::fault_error(p.from, Some(p.tag), *kind, why)
                        .with_elapsed(started.elapsed()));
                }
            }
            q = self.wait(q, started, || {
                let p = posts.iter().flatten().next().expect("a live post (checked by caller)");
                self.timeout_error(p.from, p.tag)
            })?;
        }
    }

    /// Block until `enough()` (re-evaluated after every delivery)
    /// returns true — the mesh flush barrier waits on per-peer
    /// delivery counters this way. Any peer fault (a barrier needs
    /// everyone), or the receive deadline, is a typed error.
    pub fn wait_until_checked(&self, mut enough: impl FnMut() -> bool) -> CommResult<()> {
        let started = Instant::now();
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if enough() {
                return Ok(());
            }
            if let Some((from, (kind, why))) = q.faults.iter().next() {
                return Err(CommError::new(
                    *kind,
                    Some(*from),
                    format!("barrier cannot complete: rank {from}: {why}"),
                )
                .with_elapsed(started.elapsed()));
            }
            q = self.wait(q, started, || {
                let d = self.deadline.unwrap_or_default();
                CommError::new(
                    CommErrorKind::Timeout,
                    None,
                    format!(
                        "barrier did not complete within the {:.3}s receive deadline",
                        d.as_secs_f64()
                    ),
                )
            })?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: usize, tag: u64, byte: u8) -> Message {
        Message { from, tag, data: vec![byte] }
    }

    #[test]
    fn fault_from_one_peer_does_not_poison_live_receives() {
        // The per-peer fault property PR 6 fixed by hand: an EOF from a
        // finished peer keeps receives from live peers working.
        let mb = Mailbox::new();
        mb.fail(1, CommErrorKind::PeerClosed, "connection to rank 1 closed".into());
        mb.push(msg(2, 7, 42));
        let got = mb.recv_matching_checked(2, 7).expect("rank 2 is alive");
        assert_eq!((got.from, got.tag, got.data[0]), (2, 7, 42));
        // But a receive that *needs* the dead peer fails, typed.
        let err = mb.recv_matching_checked(1, 7).unwrap_err();
        assert_eq!(err.kind, CommErrorKind::PeerClosed);
        assert_eq!(err.peer, Some(1));
        assert_eq!(err.tag, Some(7));
        assert!(err.detail.contains("connection to rank 1"), "{}", err.detail);
    }

    #[test]
    fn messages_delivered_before_a_fault_stay_receivable() {
        // Parked data is checked before faults: what a peer sent before
        // dying must still be consumable.
        let mb = Mailbox::new();
        mb.push(msg(1, 3, 9));
        mb.fail(1, CommErrorKind::PeerClosed, "connection to rank 1 closed".into());
        let got = mb.recv_matching_checked(1, 3).expect("pre-fault message is receivable");
        assert_eq!(got.data[0], 9);
        // The next receive hits the fault.
        assert!(mb.recv_matching_checked(1, 3).is_err());
    }

    #[test]
    fn take_where_does_not_disturb_parked_tags() {
        // The quiesce drain must leave non-matching (protocol) messages
        // parked and receivable, in order.
        let mb = Mailbox::new();
        mb.push(msg(0, 10, 1));
        mb.push(msg(0, 99, 2)); // "protocol" message the drain must keep
        mb.push(msg(1, 10, 3));
        mb.push(msg(0, 99, 4));
        let drained = mb.take_where(|m| m.tag == 10);
        assert_eq!(drained.len(), 2);
        assert_eq!(mb.parked(), 2);
        // Parked survivors still arrive FIFO per (sender, tag).
        assert_eq!(mb.try_recv_matching(0, 99).unwrap().data[0], 2);
        assert_eq!(mb.try_recv_matching(0, 99).unwrap().data[0], 4);
        assert!(mb.try_recv_matching(0, 99).is_none());
    }

    #[test]
    fn receive_deadline_returns_typed_timeout() {
        let mb = Mailbox::with_deadline(Some(Duration::from_millis(30)));
        let started = Instant::now();
        let err = mb.recv_matching_checked(0, 5).unwrap_err();
        assert_eq!(err.kind, CommErrorKind::Timeout);
        assert_eq!((err.peer, err.tag), (Some(0), Some(5)));
        assert!(err.elapsed >= Duration::from_millis(30), "elapsed {:?}", err.elapsed);
        assert!(started.elapsed() < Duration::from_secs(5), "bounded wait");
    }

    #[test]
    fn wait_any_times_out_with_peer_attribution() {
        let mb = Mailbox::with_deadline(Some(Duration::from_millis(30)));
        let mut b = [0u8; 1];
        let posts = [Some(RecvPost::new(3, 11, &mut b))];
        let err = mb.wait_any_matching_checked(&posts).unwrap_err();
        assert_eq!(err.kind, CommErrorKind::Timeout);
        assert_eq!((err.peer, err.tag), (Some(3), Some(11)));
    }

    #[test]
    fn barrier_wait_reports_any_fault() {
        let mb = Mailbox::new();
        mb.fail(2, CommErrorKind::PeerLost, "connection to rank 2 lost: io".into());
        let err = mb.wait_until_checked(|| false).unwrap_err();
        assert_eq!(err.kind, CommErrorKind::PeerLost);
        assert!(err.detail.contains("barrier cannot complete: rank 2"), "{}", err.detail);
    }

    #[test]
    fn fault_of_tracks_peers_independently() {
        let mb = Mailbox::new();
        mb.fail(1, CommErrorKind::PeerClosed, "eof".into());
        mb.fail(3, CommErrorKind::Corrupt, "bad crc".into());
        assert_eq!(mb.fault_of(1).unwrap().0, CommErrorKind::PeerClosed);
        assert_eq!(mb.fault_of(3).unwrap().0, CommErrorKind::Corrupt);
        assert!(mb.fault_of(2).is_none(), "healthy peers carry no fault");
    }

    #[test]
    fn first_fault_per_peer_wins() {
        // The root cause must not be overwritten by cascade errors that
        // follow it (e.g. Corrupt followed by the reader closing).
        let mb = Mailbox::new();
        mb.fail(1, CommErrorKind::Corrupt, "frame CRC mismatch".into());
        mb.fail(1, CommErrorKind::PeerClosed, "connection closed".into());
        let (kind, why) = mb.fault_of(1).unwrap();
        assert_eq!(kind, CommErrorKind::Corrupt);
        assert!(why.contains("CRC"), "{why}");
    }
}
