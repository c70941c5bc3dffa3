//! The framed mesh: everything a process-per-rank transport does above
//! its byte pipe, written once.
//!
//! A [`MeshComm<L>`] is one rank's endpoint in a world of `P` rank
//! processes joined pairwise by [`Link`]s. A link is only a per-peer
//! byte pipe with a closed flag — a TCP stream
//! ([`crate::socket_world`]) or an SPSC ring in shared memory
//! ([`crate::shmem_world`]); those modules hold the rendezvous that
//! builds the links and nothing else. Framing, CRC, mailbox delivery,
//! buffer pools, the flush barrier, failure detection, fault
//! injection, and the `Comm` implementation all live here.
//!
//! ## Data path
//!
//! Each link has a reader thread that decodes [`crate::frame`] frames
//! into the rank's shared [`crate::mailbox::Mailbox`] — the same
//! tag-parking inbox the thread world uses, so FIFO-per-pair and
//! unexpected-message semantics are inherited rather than
//! re-implemented. Receive buffers come from a *per-peer recycled
//! pool* (refilled on delivery), sends stage header + payload into a
//! per-link reusable buffer and hand the link one whole frame; at
//! steady state neither direction allocates, preserving the
//! zero-allocation property the halo suite asserts. A reader that
//! loses its peer calls [`crate::mailbox::Mailbox::fail`] so blocked
//! receives die with "connection to rank R lost" instead of hanging.
//!
//! ## Collectives and the flush barrier
//!
//! Collectives travel over reserved tags (bit 63 set) with a sequence
//! number every rank advances in SPMD lockstep, and run in the shared
//! [`crate::collectives`] engine under the world's algorithm
//! ([`MeshConfig::coll`] — checked equal on every rank by the
//! rendezvous, so a world cannot mix message patterns). Every rank
//! folds contributions **in rank order**, bit-identical to the thread
//! world, which is what lets GMRES-IR histories replay across
//! transports. `barrier` is a *flush* barrier: the engine allgathers
//! every rank's cumulative sent-count row (the P×P ledger matrix),
//! then each rank waits until its delivery counters reach its column.
//! That gives the thread-world guarantee that a message sent before a
//! barrier is *receivable* after it (it sits in the mailbox, not in a
//! pipe) — the property the conformance suite's parking test demands,
//! and what isolates consecutive SPMD runs on a reused mesh.
//!
//! ## Fault detection and injection
//!
//! Failures are *detected within bounded time and attributed to a
//! rank* instead of hanging the job ([`MeshConfig`] tunes the knobs,
//! all env-overridable):
//!
//! * a closed link's EOF at a frame boundary → `PeerClosed` fault on
//!   the peer's mailbox entry;
//! * an I/O or framing error (CRC mismatch in [`crate::frame`]) →
//!   `PeerLost` / `Corrupt`, naming the rank the frame claimed;
//! * every connected rank emits **heartbeat frames** on a reserved tag;
//!   a watchdog marks a peer `PeerLost` when nothing (data or
//!   heartbeat) has arrived from it within the peer timeout — the
//!   detector for a wedged link or a crashed process;
//! * a send the link cannot complete within the peer timeout fails
//!   with a typed `PeerLost` naming the peer — the detector for a
//!   consumer that died with the pipe full;
//! * an optional **receive deadline** bounds every blocking receive
//!   and barrier wait with a typed `Timeout` — the detector for a peer
//!   that is alive (still heartbeating) but hung.
//!
//! A [`crate::fault::FaultPlan`] (from `HPGMXP_FAULT_PLAN`) arms a
//! frame-level interposer on the send path: seeded drop / delay /
//! duplicate / corrupt on outgoing *data* frames (corruption flips a
//! byte after the CRC is computed, so the receiver must catch it) and
//! scripted crash/hang events keyed on the outgoing-data-frame index.
//! Reordering is a `Comm`-level fault (see [`crate::fault::FaultyComm`]);
//! frame order within one link is the protocol's own invariant.
//!
//! ## Writing a `Link`
//!
//! A new fabric is a rendezvous that produces one `(Link, Reader)`
//! pair per peer, handed to `MeshComm::from_links`. The mesh relies on
//! three guarantees: a write returns without waiting for the peer to
//! *receive* (the pipe buffers, or the peer's reader thread drains it —
//! the collective round schedules deadlock otherwise); once
//! [`Link::close`] has run, the peer's reader sees EOF exactly at a
//! frame boundary, after every frame written before it; and a write
//! that cannot make progress fails within the stall bound it was given
//! instead of blocking forever (the mesh turns the error into a typed
//! `PeerLost`).

use crate::collectives::{
    self, CollAlgo, CollCounters, CollScratch, CollStats, COLLECTIVE_TAG_BIT,
};
use crate::comm::{Comm, RecvPost, ReduceOp};
use crate::error::{CommError, CommErrorKind, CommResult};
use crate::fault::{FaultKind, FaultPlan, SplitMix64};
use crate::frame::{read_frame, stage_frame, HEADER_LEN};
use crate::mailbox::{deliver, pool_put, pool_take, BufPool, Mailbox, Message};
use hpgmxp_trace::{counter, histogram};
use std::io::{ErrorKind, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Reserved tag carrying heartbeat frames (empty payload). Lives in
/// the collective tag space so it is never counted against the flush
/// barrier's data ledger, with bit 62 distinguishing it from real
/// collective rounds.
pub const HEARTBEAT_TAG: u64 = COLLECTIVE_TAG_BIT | (1 << 62);

/// Buffers stocked per peer pool by [`MeshComm::prewarm_pool`] —
/// sized to cover the deepest in-flight window a run-ahead peer can
/// create between two of this rank's receives.
const POOL_STOCK: usize = 8;

/// Parse the value of a numeric environment knob: a typo or an
/// out-of-range value is an error naming the knob, never a silent
/// fallback or truncation.
pub fn parse_knob<T: TryFrom<u64>>(name: &str, v: &str) -> Result<T, String> {
    let n: u64 = v.parse().map_err(|_| format!("{name} is not a number: {v:?}"))?;
    T::try_from(n).map_err(|_| format!("{name}={n} is out of range"))
}

/// Read a numeric knob from the environment (`None` when unset),
/// panicking on a value [`parse_knob`] rejects.
pub(crate) fn env_knob<T: TryFrom<u64>>(name: &str) -> Option<T> {
    let v = std::env::var(name).ok()?;
    Some(parse_knob(name, &v).unwrap_or_else(|e| panic!("{e}")))
}

/// Read a millisecond knob from the environment: unset → `default`,
/// `0` → disabled (`None`).
fn env_millis(name: &str, default: Option<u64>) -> Option<Duration> {
    let millis = env_knob(name).or(default)?;
    (millis > 0).then(|| Duration::from_millis(millis))
}

/// How long mesh setup may wait for peers (rendezvous, table exchange,
/// pairwise dial, attach) before declaring the job stillborn:
/// `HPGMXP_CONNECT_TIMEOUT_SECS`, default 60.
pub(crate) fn connect_timeout() -> Duration {
    Duration::from_secs(env_knob("HPGMXP_CONNECT_TIMEOUT_SECS").unwrap_or(60))
}

/// A variable `hpgmxp-launch` exports to every rank process; unset
/// means the process was not started by the launcher.
pub(crate) fn launch_var(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| {
        panic!("{name} not set — process-per-rank worlds must be started by hpgmxp-launch")
    })
}

/// A numeric [`launch_var`], range-checked into `T`.
pub(crate) fn launch_knob<T: TryFrom<u64>>(name: &str) -> T {
    parse_knob(name, &launch_var(name)).unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-detection knobs, fault-injection plan, and collective
/// algorithm of one mesh endpoint.
#[derive(Clone, Debug, Default)]
pub struct MeshConfig {
    /// Bound on every blocking receive and barrier wait
    /// (`HPGMXP_RECV_DEADLINE_MILLIS`; unset/0 = wait forever). The
    /// hang detector: a wedged-but-alive peer still heartbeats, so only
    /// a deadline can catch it.
    pub recv_deadline: Option<Duration>,
    /// Heartbeat emission period (`HPGMXP_HEARTBEAT_MILLIS`; default
    /// 500 ms, 0 = off).
    pub heartbeat: Option<Duration>,
    /// Declare a peer lost when *nothing* (data or heartbeat) arrived
    /// from it for this long, or when a send to it stalled this long
    /// (`HPGMXP_PEER_TIMEOUT_MILLIS`; default 10 s, 0 = off).
    pub peer_timeout: Option<Duration>,
    /// Wire-fault injection plan (`HPGMXP_FAULT_PLAN`: inline JSON or
    /// a path to it).
    pub faults: Option<FaultPlan>,
    /// The collective algorithm this world runs (`HPGMXP_COLL`; default
    /// `rd`). Must be the same on every rank — the rendezvous checks it
    /// and a mismatch fails the connect.
    pub coll: CollAlgo,
}

impl MeshConfig {
    /// The configuration the environment prescribes — what the worlds'
    /// `connect` and launched ranks use.
    pub fn from_env() -> Self {
        MeshConfig {
            recv_deadline: env_millis("HPGMXP_RECV_DEADLINE_MILLIS", None),
            heartbeat: env_millis("HPGMXP_HEARTBEAT_MILLIS", Some(500)),
            peer_timeout: env_millis("HPGMXP_PEER_TIMEOUT_MILLIS", Some(10_000)),
            faults: FaultPlan::from_env(),
            coll: CollAlgo::from_env(),
        }
    }
}

/// The connect-time error for a world whose ranks were configured with
/// different collective algorithms.
pub(crate) fn coll_mismatch(mine: (usize, CollAlgo), theirs: (Option<usize>, CollAlgo)) -> String {
    let who = theirs.0.map_or("another rank".to_string(), |r| format!("rank {r}"));
    format!(
        "collective algorithm mismatch: rank {} runs {}, {who} runs {} — every rank of a world \
         must use the same HPGMXP_COLL",
        mine.0,
        mine.1.name(),
        theirs.1.name()
    )
}

/// The write half of a per-peer byte pipe; its read half is
/// [`Link::Reader`]. See the module docs ("Writing a `Link`") for the
/// guarantees the mesh relies on.
pub trait Link: Send + 'static {
    /// The read half, consumed by the peer's reader thread. Returns
    /// `Ok(0)` (EOF) only after the writer closed, at a frame boundary.
    type Reader: Read + Send + 'static;

    /// Write one whole staged frame. Must not wait for the peer to
    /// receive it; if the pipe itself cannot take the bytes within
    /// `stall` (`None` = no bound), fail rather than block forever.
    fn write_frame(&mut self, frame: &[u8], stall: Option<Duration>) -> std::io::Result<()>;

    /// Close the write side: the peer's reader sees EOF once it has
    /// drained what was written. Later writes may fail.
    fn close(&mut self);
}

/// One outgoing link plus the staging buffer its frames are assembled
/// in (no allocation at steady state). Data senders and the heartbeat
/// thread share it through the mutex it lives in, which also keeps
/// frames from interleaving.
struct SendHalf<L> {
    link: L,
    staging: Vec<u8>,
}

/// Reusable collective state — sized on first use, then stable.
struct CollState {
    /// Engine scratch (Bruck ring + fold accumulators).
    scratch: CollScratch,
    /// This rank's sent-count row (length P), snapshotted per barrier.
    row: Vec<u64>,
    /// The allgathered P×P flush-barrier count matrix.
    counts: Vec<u64>,
}

/// One rank's state in a framed mesh over links of type `L`, shared by
/// the user-facing [`MeshComm`] clones, the reader threads, and (weakly)
/// the heartbeat thread.
struct FramedMesh<L> {
    rank: usize,
    size: usize,
    mailbox: Mailbox,
    /// Send halves, indexed by peer rank (`None` at our own index).
    senders: Vec<Option<Mutex<SendHalf<L>>>>,
    /// Per-peer recycled receive pools (our own index serves
    /// self-sends). Reader threads draw from them, receives return
    /// buffers after copying out.
    pools: Vec<BufPool>,
    /// Point-to-point frames sent to / delivered from each peer
    /// (collective tags excluded) — the flush barrier's ledger.
    data_sent: Vec<AtomicU64>,
    data_delivered: Vec<AtomicU64>,
    /// Collective round number; advances identically on every rank
    /// because collectives are called in SPMD program order.
    collective_seq: AtomicU64,
    coll: Mutex<CollState>,
    /// Collective-engine traffic counters (rounds, receives, bytes).
    counters: CollCounters,
    config: MeshConfig,
    /// Mesh construction time — the origin of the `last_heard` clock.
    epoch: Instant,
    /// Milliseconds since `epoch` at which each peer was last heard
    /// from (any frame, heartbeat included). The watchdog's evidence.
    last_heard: Vec<AtomicU64>,
    /// Outgoing-data-frame counter — the exchange index the fault
    /// plan's scripted events key on.
    fault_ops: AtomicU64,
    /// Seeded per-rank stream driving probabilistic wire faults.
    fault_rng: Mutex<SplitMix64>,
}

impl<L> FramedMesh<L> {
    fn millis_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Closes this endpoint's outgoing links when the last user clone
/// drops — peers' readers then see EOF at a frame boundary and record
/// `PeerClosed`. Reader threads deliberately do *not* hold this, so an
/// in-process world tears down as soon as the test's endpoints go out
/// of scope. (A crashed process never runs it; its silence trips the
/// peers' heartbeat watchdog instead.)
struct Closer<L: Link>(Arc<FramedMesh<L>>);

impl<L: Link> Drop for Closer<L> {
    fn drop(&mut self) {
        for half in self.0.senders.iter().flatten() {
            // Under the send mutex, so a frame the heartbeat thread is
            // writing completes before the close lands.
            half.lock().unwrap_or_else(|e| e.into_inner()).link.close();
        }
    }
}

/// One rank's endpoint in a framed mesh over links of type `L`. Cheap
/// to clone (shared mesh); the process-global instance lives for the
/// process.
pub struct MeshComm<L: Link> {
    shared: Arc<FramedMesh<L>>,
    _closer: Arc<Closer<L>>,
}

impl<L: Link> Clone for MeshComm<L> {
    fn clone(&self) -> Self {
        MeshComm { shared: Arc::clone(&self.shared), _closer: Arc::clone(&self._closer) }
    }
}

impl<L: Link> MeshComm<L> {
    /// Build rank `rank`'s endpoint from its connected links:
    /// `links[peer]` holds the pipe to and from `peer`, `None` exactly
    /// at `rank`. Spawns one reader thread per link and the heartbeat
    /// thread. The rendezvous that produced the links must already
    /// have checked `config.coll` against every peer.
    pub(crate) fn from_links(
        rank: usize,
        links: Vec<Option<(L, L::Reader)>>,
        config: MeshConfig,
    ) -> MeshComm<L> {
        let size = links.len();
        assert!(rank < size, "rank {rank} outside world of {size}");
        let (senders, readers): (Vec<_>, Vec<_>) = links
            .into_iter()
            .map(|l| match l {
                Some((link, reader)) => {
                    (Some(Mutex::new(SendHalf { link, staging: Vec::new() })), Some(reader))
                }
                None => (None, None),
            })
            .unzip();
        let fault_seed = config.faults.as_ref().map(|p| p.seed).unwrap_or(0);
        let shared = Arc::new(FramedMesh {
            rank,
            size,
            mailbox: Mailbox::with_deadline(config.recv_deadline),
            senders,
            pools: (0..size).map(|_| BufPool::default()).collect(),
            data_sent: (0..size).map(|_| AtomicU64::new(0)).collect(),
            data_delivered: (0..size).map(|_| AtomicU64::new(0)).collect(),
            collective_seq: AtomicU64::new(0),
            coll: Mutex::new(CollState {
                scratch: CollScratch::default(),
                row: Vec::new(),
                counts: Vec::new(),
            }),
            counters: CollCounters::default(),
            config,
            epoch: Instant::now(),
            last_heard: (0..size).map(|_| AtomicU64::new(0)).collect(),
            fault_ops: AtomicU64::new(0),
            fault_rng: Mutex::new(SplitMix64::for_rank(fault_seed, rank as u64)),
        });

        for (peer, reader) in readers.into_iter().enumerate() {
            let Some(reader) = reader else { continue };
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("hpgmxp-reader-{peer}"))
                .spawn(move || reader_loop(shared, peer, reader))
                .expect("spawn reader thread");
        }
        if size > 1 && (shared.config.heartbeat.is_some() || shared.config.peer_timeout.is_some()) {
            let weak = Arc::downgrade(&shared);
            std::thread::Builder::new()
                .name(format!("hpgmxp-heartbeat-{rank}"))
                .spawn(move || heartbeat_loop(weak))
                .expect("spawn heartbeat thread");
        }

        let closer = Arc::new(Closer(Arc::clone(&shared)));
        MeshComm { shared, _closer: closer }
    }

    /// Frame and send on the peer's link, or self-deliver. Used by both
    /// `send_from_checked` (data tags, counted on the flush ledger) and
    /// the collectives (reserved tags, uncounted). A write failure is a
    /// typed `PeerLost` fault — and this is the seam where an armed
    /// [`FaultPlan`] injects wire faults into outgoing data frames.
    fn send_raw_checked(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()> {
        let s = &self.shared;
        assert!(to < s.size, "send to rank {to} in a world of {}", s.size);
        if to == s.rank {
            // Loopback never touches the wire (or the flush ledger —
            // it is delivered before this call returns).
            let mut data = pool_take(&s.pools[to], bytes.len());
            data.clear();
            data.extend_from_slice(bytes);
            s.mailbox.push(Message { from: to, tag, data });
            return Ok(());
        }

        let mut corrupt_flip = None;
        let mut duplicate = false;
        if tag & COLLECTIVE_TAG_BIT == 0 {
            if let Some(plan) = &s.config.faults {
                // Scripted events key on this rank's outgoing-data-frame
                // index — deterministic given the program's send order.
                let n = s.fault_ops.fetch_add(1, Ordering::SeqCst);
                if let Some(event) = plan.event_at(s.rank, n) {
                    match event.kind {
                        FaultKind::CrashRank => {
                            eprintln!(
                                "rank {} crashing deliberately at exchange {n} (fault plan seed \
                                 {})",
                                s.rank, plan.seed
                            );
                            std::process::exit(7);
                        }
                        FaultKind::HangRank => {
                            eprintln!(
                                "rank {} hanging deliberately at exchange {n} for {:?} (fault \
                                 plan seed {})",
                                s.rank,
                                plan.hang_duration(),
                                plan.seed
                            );
                            std::thread::sleep(plan.hang_duration());
                        }
                    }
                }
                if plan.has_wire_faults() {
                    let (dropped, delayed, dup, corrupt, flip) = {
                        let mut rng = s.fault_rng.lock().unwrap_or_else(|e| e.into_inner());
                        (
                            rng.hit(plan.drop),
                            rng.hit(plan.delay),
                            rng.hit(plan.duplicate),
                            rng.hit(plan.corrupt),
                            rng.next_u64(),
                        )
                    };
                    if dropped {
                        // Vanishes *without* touching the sent ledger:
                        // the flush barrier stays consistent, and the
                        // receiver's deadline is what detects the loss.
                        return Ok(());
                    }
                    if delayed {
                        std::thread::sleep(plan.delay_duration());
                    }
                    duplicate = dup;
                    if corrupt && !bytes.is_empty() {
                        corrupt_flip = Some(flip);
                    }
                }
            }
        }

        let mut half =
            s.senders[to].as_ref().expect("peer link").lock().unwrap_or_else(|e| e.into_inner());
        stage_frame(&mut half.staging, s.rank, tag, bytes);
        if let Some(flip) = corrupt_flip {
            // Flip one payload byte *after* the CRC was computed — the
            // receiver's checksum, not this rank, must catch it.
            let i = HEADER_LEN + (flip as usize) % bytes.len();
            half.staging[i] ^= 1 << ((flip >> 32) & 7);
        }
        if tag & COLLECTIVE_TAG_BIT == 0 {
            s.data_sent[to].fetch_add(1 + duplicate as u64, Ordering::SeqCst);
        }
        counter!("wire.frames_tx").inc();
        counter!("wire.bytes_tx").add(half.staging.len() as u64);
        let SendHalf { link, staging } = &mut *half;
        let started = Instant::now();
        for _ in 0..1 + duplicate as usize {
            link.write_frame(staging, s.config.peer_timeout).map_err(|e| {
                CommError::new(
                    CommErrorKind::PeerLost,
                    Some(to),
                    format!("send to rank {to} failed: {e}"),
                )
                .with_tag(tag)
                .with_elapsed(started.elapsed())
            })?;
        }
        Ok(())
    }

    /// Copy a matched message out and recycle its buffer into the
    /// sender's pool.
    fn deliver(&self, msg: Message, out: &mut [u8]) {
        let pool = &self.shared.pools[msg.from];
        deliver(msg, out, self.shared.rank, pool);
    }

    /// Grow the transport's recycled buffers so the steady state is
    /// allocation-free by construction rather than by high-water mark:
    /// every per-peer pool is stocked with buffers of at least
    /// `min_capacity`, and each link's staging buffer can hold a full
    /// frame of that size. Call while no messages are in flight.
    pub fn prewarm_pool(&self, min_capacity: usize) {
        // The mailbox deque must not grow mid-measurement either: a
        // parking burst (every peer one full pool ahead, plus
        // collective traffic) is bounded by the pool stock.
        self.shared.mailbox.reserve(2 * POOL_STOCK * self.shared.size);
        for pool in &self.shared.pools {
            let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
            for buf in pool.iter_mut() {
                if buf.capacity() < min_capacity {
                    buf.reserve(min_capacity - buf.len());
                }
            }
            // A peer can run a couple of exchange rounds ahead of its
            // receiver, with several frames in flight per round; stock
            // enough that the worst observed in-flight window never
            // forces the reader to allocate.
            while pool.len() < POOL_STOCK {
                pool.push(Vec::with_capacity(min_capacity));
            }
        }
        for half in self.shared.senders.iter().flatten() {
            let mut half = half.lock().unwrap_or_else(|e| e.into_inner());
            let want = min_capacity + HEADER_LEN;
            if half.staging.capacity() < want {
                let len = half.staging.len();
                half.staging.reserve(want - len);
            }
        }
        // Size the collective engine's scratch and the flush-barrier
        // ledger buffers so collectives allocate nothing either.
        let size = self.shared.size;
        let mut coll = self.shared.coll.lock().unwrap_or_else(|e| e.into_inner());
        coll.scratch.prewarm(size, min_capacity.div_ceil(8).max(size));
        if coll.row.capacity() < size {
            let len = coll.row.len();
            coll.row.reserve(size - len);
        }
        if coll.counts.capacity() < size * size {
            let len = coll.counts.len();
            coll.counts.reserve(size * size - len);
        }
    }

    /// Flush every in-flight message into mailboxes (a barrier), then
    /// discard anything still parked, recycling the buffers. Run
    /// between SPMD closures on the reused process-global mesh so one
    /// run's unconsumed messages cannot leak into the next.
    pub fn quiesce(&self) {
        self.barrier();
        // Drain only user data: a fast peer may already have parked its
        // *next* collective here, and swallowing it would deadlock that
        // collective on this rank.
        for msg in self.shared.mailbox.take_where(|m| m.tag & COLLECTIVE_TAG_BIT == 0) {
            pool_put(&self.shared.pools[msg.from], msg.data);
        }
        // Hold everyone until every rank has drained: a peer released
        // from the first barrier would otherwise start the *next* run's
        // sends, and a slow rank's drain could swallow them.
        self.barrier();
    }
}

/// Emit heartbeat frames to every peer and watch for peers that have
/// gone silent. One thread per mesh; it holds only a weak reference so
/// a torn-down world (tests) lets go of its links.
///
/// Heartbeat writes are bounded by the heartbeat period (a full pipe
/// must not wedge the watchdog) and their failures are deliberately
/// ignored — the reader thread on the same link observes the EOF/error
/// and records the fault with better attribution, and silence is what
/// the *peer's* watchdog detects. The send path reuses the per-link
/// staging buffer, so steady-state heartbeating allocates nothing (the
/// zero-allocation gate stays green with heartbeats on).
fn heartbeat_loop<L: Link>(weak: Weak<FramedMesh<L>>) {
    loop {
        let Some(shared) = weak.upgrade() else { return };
        if let Some(timeout) = shared.config.peer_timeout {
            let now = shared.millis_since_epoch();
            for (peer, heard) in shared.last_heard.iter().enumerate() {
                if shared.senders[peer].is_none() {
                    continue;
                }
                let silent = now.saturating_sub(heard.load(Ordering::SeqCst));
                histogram!("wire.heartbeat_lag_ms").observe(silent);
                if silent > timeout.as_millis() as u64 {
                    shared.mailbox.fail(
                        peer,
                        CommErrorKind::PeerLost,
                        format!(
                            "no heartbeat from rank {peer} for {:.3}s (peer timeout {:.3}s)",
                            silent as f64 / 1e3,
                            timeout.as_secs_f64()
                        ),
                    );
                }
            }
        }
        let pause = shared
            .config
            .heartbeat
            .or(shared.config.peer_timeout)
            .unwrap_or(Duration::from_millis(500));
        if shared.config.heartbeat.is_some() {
            for half in shared.senders.iter().flatten() {
                let mut half = half.lock().unwrap_or_else(|e| e.into_inner());
                stage_frame(&mut half.staging, shared.rank, HEARTBEAT_TAG, &[]);
                let SendHalf { link, staging } = &mut *half;
                let _ = link.write_frame(staging, Some(pause));
            }
        }
        drop(shared); // don't pin the mesh while sleeping
        std::thread::sleep(pause);
    }
}

/// Per-link reader: decode frames into the shared mailbox until the
/// peer goes away. Buffers come from the peer's recycled pool, so a
/// steady-state delivery allocates nothing.
fn reader_loop<L: Link>(shared: Arc<FramedMesh<L>>, peer: usize, mut reader: L::Reader) {
    loop {
        match read_frame(&mut reader, |len| pool_take(&shared.pools[peer], len)) {
            Ok(Some((header, data))) => {
                debug_assert_eq!(header.from as usize, peer, "frame from wrong rank");
                counter!("wire.frames_rx").inc();
                counter!("wire.bytes_rx").add((HEADER_LEN + data.len()) as u64);
                // Anything decodable counts as proof of life.
                shared.last_heard[peer].store(shared.millis_since_epoch(), Ordering::SeqCst);
                if header.tag == HEARTBEAT_TAG {
                    // Protocol-internal; recycle without delivery.
                    pool_put(&shared.pools[peer], data);
                    continue;
                }
                // Count before pushing: the mailbox push is what wakes
                // a flush-barrier waiter, which then re-reads counters.
                if header.tag & COLLECTIVE_TAG_BIT == 0 {
                    shared.data_delivered[peer].fetch_add(1, Ordering::SeqCst);
                }
                shared.mailbox.push(Message { from: peer, tag: header.tag, data });
            }
            Ok(None) => {
                shared.mailbox.fail(
                    peer,
                    CommErrorKind::PeerClosed,
                    format!("connection to rank {peer} closed"),
                );
                return;
            }
            Err(e) => {
                // A framing/CRC violation means the payload cannot be
                // trusted; an I/O error means the peer (or its path) is
                // gone. Both are attributed and final for this link.
                let (kind, why) = if e.kind() == ErrorKind::InvalidData {
                    (
                        CommErrorKind::Corrupt,
                        format!("protocol error on connection to rank {peer}: {e}"),
                    )
                } else {
                    (CommErrorKind::PeerLost, format!("connection to rank {peer} lost: {e}"))
                };
                shared.mailbox.fail(peer, kind, why);
                return;
            }
        }
    }
}

impl<L: Link> Comm for MeshComm<L> {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn send_from_checked(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()> {
        assert!(tag & COLLECTIVE_TAG_BIT == 0, "tag {tag:#x} uses the reserved collective bit");
        self.send_raw_checked(to, tag, bytes)
    }

    fn recv_into_checked(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()> {
        let msg = self.shared.mailbox.recv_matching_checked(from, tag)?;
        self.deliver(msg, out);
        Ok(())
    }

    fn try_recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> bool {
        match self.shared.mailbox.try_recv_matching(from, tag) {
            Some(msg) => {
                self.deliver(msg, out);
                true
            }
            None => false,
        }
    }

    fn wait_any_checked<'p>(
        &self,
        posts: &mut [Option<RecvPost<'p>>],
    ) -> CommResult<Option<(usize, RecvPost<'p>)>> {
        if posts.iter().all(Option::is_none) {
            return Ok(None);
        }
        let (slot, msg) = self.shared.mailbox.wait_any_matching_checked(posts)?;
        let post = posts[slot].take().expect("slot matched in mailbox");
        self.deliver(msg, post.buf);
        Ok(Some((slot, post)))
    }

    fn allreduce_checked(&self, vals: &mut [f64], op: ReduceOp) -> CommResult<()> {
        let mut coll = self.shared.coll.lock().unwrap_or_else(|e| e.into_inner());
        collectives::allreduce(self, &mut coll.scratch, vals, op)
    }

    fn barrier_checked(&self) -> CommResult<()> {
        let s = &self.shared;
        if s.size == 1 {
            return Ok(());
        }
        // Flush barrier: allgather every rank's cumulative sent-count
        // row into the P×P ledger matrix (the allgather itself is the
        // rendezvous — its completion proves every rank entered), then
        // wait until this rank's delivery counters reach its column.
        // Loopback self-sends bypass the ledger, so the diagonal is
        // trivially satisfied.
        let mut coll = s.coll.lock().unwrap_or_else(|e| e.into_inner());
        let CollState { scratch, row, counts } = &mut *coll;
        row.clear();
        row.extend(s.data_sent.iter().map(|c| c.load(Ordering::SeqCst)));
        collectives::allgather_u64(self, scratch, row, counts)?;
        s.counters.count_barrier();
        let (size, me) = (s.size, s.rank);
        s.mailbox.wait_until_checked(|| {
            (0..size).all(|i| s.data_delivered[i].load(Ordering::SeqCst) >= counts[i * size + me])
        })
    }

    fn coll_stats(&self) -> Option<CollStats> {
        Some(self.shared.counters.snapshot())
    }
}

impl<L: Link> collectives::CollEndpoint for MeshComm<L> {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn algo(&self) -> CollAlgo {
        self.shared.config.coll
    }

    fn coll_send(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()> {
        self.send_raw_checked(to, tag, bytes)
    }

    fn coll_recv(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()> {
        self.recv_into_checked(from, tag, out)
    }

    /// Next reserved collective tag; identical on every rank because
    /// collectives execute in SPMD program order.
    fn next_coll_tag(&self) -> u64 {
        COLLECTIVE_TAG_BIT | self.shared.collective_seq.fetch_add(1, Ordering::SeqCst)
    }

    fn counters(&self) -> &CollCounters {
        &self.shared.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mistyped_knob_is_a_loud_error_not_a_default() {
        // HPGMXP_CONNECT_TIMEOUT_SECS=abc used to fall back to 60 s.
        let err = parse_knob::<u64>("HPGMXP_CONNECT_TIMEOUT_SECS", "abc").unwrap_err();
        assert_eq!(err, "HPGMXP_CONNECT_TIMEOUT_SECS is not a number: \"abc\"");
        assert_eq!(parse_knob::<u64>("HPGMXP_CONNECT_TIMEOUT_SECS", "5"), Ok(5));
    }

    #[test]
    fn an_out_of_range_port_is_rejected_not_truncated() {
        // HPGMXP_PORT=70000 used to rendezvous on 70000 as u16 = 4464.
        let err = parse_knob::<u16>("HPGMXP_PORT", "70000").unwrap_err();
        assert_eq!(err, "HPGMXP_PORT=70000 is out of range");
        assert_eq!(parse_knob::<u16>("HPGMXP_PORT", "65535"), Ok(65535));
        assert!(parse_knob::<u16>("HPGMXP_PORT", "-1").unwrap_err().contains("not a number"));
    }
}

/// The mesh behaviour suite, written once and instantiated per link
/// type by `mesh_suite!`: every property checked here holds for any [`Link`] that keeps the
/// contract in the module docs. Link-specific tests (rendezvous, ring
/// geometry) stay next to their link.
#[cfg(test)]
pub(crate) mod suite {
    use super::*;
    use crate::comm::{pack, unpack};
    use crate::thread_world::run_threads_fallible;

    /// How the suite builds an in-process world over one link type:
    /// each rank is a thread with its own endpoint, but every byte
    /// still crosses the real pipe.
    pub(crate) trait TestWorld: Link + Sized {
        /// What ranks of one world meet at (a port, a shm id).
        type Meet: Send + Sync;
        /// A rendezvous handle no other test world uses.
        fn fresh() -> Self::Meet;
        fn connect(
            rank: usize,
            size: usize,
            meet: &Self::Meet,
            config: MeshConfig,
        ) -> MeshComm<Self>;
    }

    /// Run `f` on every rank of a world whose rank `r` is configured
    /// by `configs[r]`; results come back in rank order, `Err` for a
    /// rank that panicked.
    fn run_ranks<L: TestWorld, T: Send>(
        configs: Vec<MeshConfig>,
        f: impl Fn(MeshComm<L>) -> T + Sync,
    ) -> Vec<std::thread::Result<T>> {
        let size = configs.len();
        let meet = L::fresh();
        std::thread::scope(|s| {
            let handles: Vec<_> = configs
                .into_iter()
                .enumerate()
                .map(|(rank, config)| {
                    let (f, meet) = (&f, &meet);
                    s.spawn(move || f(L::connect(rank, size, meet, config)))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    }

    /// [`run_ranks`] with the environment's configuration on every
    /// rank (heartbeats and watchdog on, like a launched job); any
    /// rank panicking fails the test.
    fn run_world<L: TestWorld, T: Send>(
        size: usize,
        f: impl Fn(MeshComm<L>) -> T + Sync,
    ) -> Vec<T> {
        run_ranks(vec![MeshConfig::from_env(); size], f)
            .into_iter()
            .map(|r| r.expect("a rank panicked"))
            .collect()
    }

    /// A two-rank world with per-rank configurations; any rank
    /// panicking fails the test.
    fn run_pair<L: TestWorld>(cfg0: MeshConfig, cfg1: MeshConfig, f: impl Fn(MeshComm<L>) + Sync) {
        for r in run_ranks(vec![cfg0, cfg1], f) {
            r.expect("a rank panicked");
        }
    }

    pub(crate) fn ping_pong<L: TestWorld>() {
        let results = run_world::<L, _>(2, |c| {
            if c.rank() == 0 {
                c.send_from(1, 7, &pack(&[1.5f64, -2.5]));
                let mut got = vec![0u8; 8];
                c.recv_into(1, 8, &mut got);
                let mut out = [0.0f64; 1];
                unpack(&got, &mut out);
                out[0]
            } else {
                let mut got = vec![0u8; 16];
                c.recv_into(0, 7, &mut got);
                let mut vals = [0.0f64; 2];
                unpack(&got, &mut vals);
                c.send_from(0, 8, &pack(&[vals[0] + vals[1]]));
                0.0
            }
        });
        assert_eq!(results[0], -1.0);
    }

    pub(crate) fn allreduce_matches_thread_world_bitwise<L: TestWorld>() {
        // Same inputs through every transport and both algorithms must
        // reduce to the same bits — the property that lets GMRES-IR
        // histories replay across backends.
        let inputs: Vec<Vec<f64>> =
            (0..4).map(|r| (0..5).map(|i| ((r * 31 + i) as f64).sin() * 1e3).collect()).collect();
        let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let oracle: Vec<Vec<f64>> = run_threads_fallible(4, None, CollAlgo::Star, |c| {
            let mut v = inputs[c.rank()].clone();
            c.allreduce(&mut v, ReduceOp::Sum);
            v
        })
        .into_iter()
        .map(|r| r.expect("a thread rank panicked"))
        .collect();
        for coll in [CollAlgo::Star, CollAlgo::RecursiveDoubling] {
            let config = MeshConfig { coll, ..MeshConfig::from_env() };
            let mesh = run_ranks::<L, _>(vec![config; 4], |c| {
                let mut v = inputs[c.rank()].clone();
                c.allreduce(&mut v, ReduceOp::Sum);
                v
            });
            for (t, m) in oracle.iter().zip(mesh) {
                assert_eq!(bits(t), bits(&m.expect("a mesh rank panicked")), "{}", coll.name());
            }
        }
    }

    pub(crate) fn flush_barrier_makes_prebarrier_sends_pollable<L: TestWorld>() {
        // The conformance suite's parking property: a message sent
        // before a barrier must be receivable by try_recv after it,
        // even though it crossed a real pipe.
        let results = run_world::<L, _>(2, |c| {
            if c.rank() == 0 {
                c.send_from(1, 77, &[42]);
                c.barrier();
                true
            } else {
                c.barrier();
                let mut buf = [0u8; 1];
                let got = c.try_recv_into(0, 77, &mut buf);
                got && buf[0] == 42
            }
        });
        assert!(results.iter().all(|ok| *ok));
    }

    pub(crate) fn repeated_collectives_stay_in_lockstep<L: TestWorld>() {
        let results = run_world::<L, _>(3, |c| {
            let mut acc = 0.0;
            for i in 0..25 {
                acc = c.allreduce_scalar(acc + i as f64 + c.rank() as f64, ReduceOp::Sum);
                if i % 5 == 0 {
                    c.barrier();
                }
            }
            acc
        });
        for w in results.windows(2) {
            assert_eq!(w[0].to_bits(), w[1].to_bits());
        }
    }

    pub(crate) fn wait_any_completes_in_arrival_order<L: TestWorld>() {
        let results = run_world::<L, _>(3, |c| {
            if c.rank() == 2 {
                let mut b0 = [0u8; 1];
                let mut b1 = [0u8; 1];
                // Rank 1's send is flushed (via the barrier) before
                // rank 0 even sends, so slot 1 completes first.
                c.barrier();
                let mut posts =
                    [Some(RecvPost::new(0, 9, &mut b0)), Some(RecvPost::new(1, 9, &mut b1))];
                let (first, _) = c.wait_any(&mut posts).expect("two posts live");
                let (second, _) = c.wait_any(&mut posts).expect("one post live");
                assert!(c.wait_any(&mut posts).is_none());
                vec![first, second]
            } else if c.rank() == 1 {
                c.send_from(2, 9, &[11]);
                c.barrier();
                vec![]
            } else {
                c.barrier();
                c.send_from(2, 9, &[10]);
                vec![]
            }
        });
        assert_eq!(results[2], vec![1, 0]);
    }

    pub(crate) fn quiesce_recycles_unconsumed_messages<L: TestWorld>() {
        run_world::<L, _>(2, |c| {
            if c.rank() == 0 {
                c.send_from(1, 5, &[1, 2, 3]);
            }
            c.quiesce();
            // The unconsumed message is gone; its buffer is pooled.
            let mut buf = [0u8; 3];
            assert!(!c.try_recv_into(0, 5, &mut buf), "quiesce drained the mailbox");
            c.barrier();
        });
    }

    pub(crate) fn steady_state_reuses_pooled_buffers<L: TestWorld>() {
        // After prewarm, repeated same-size traffic keeps pools at a
        // stable population — buffers cycle instead of accumulating.
        let results = run_world::<L, _>(2, |c| {
            c.prewarm_pool(256);
            c.barrier();
            let peer = 1 - c.rank();
            let mut buf = [0u8; 256];
            for round in 0..50u64 {
                if c.rank() == 0 {
                    c.send_from(peer, round, &[7u8; 256]);
                    c.recv_into(peer, round, &mut buf);
                } else {
                    c.recv_into(peer, round, &mut buf);
                    c.send_from(peer, round, &buf);
                }
            }
            c.barrier();
            c.shared.pools.iter().map(|p| p.lock().unwrap().len()).sum::<usize>()
        });
        for pooled in results {
            assert!(pooled <= 2 * POOL_STOCK + 2, "pool grew without bound: {pooled} buffers");
        }
    }

    pub(crate) fn single_rank_world_is_trivial<L: TestWorld>() {
        let c = L::connect(0, 1, &L::fresh(), MeshConfig::from_env());
        assert_eq!((c.rank(), c.size()), (0, 1));
        assert_eq!(c.allreduce_scalar(5.0, ReduceOp::Sum), 5.0);
        c.barrier();
        // Loopback send/recv works without any link.
        c.send_from(0, 1, &[9]);
        let mut buf = [0u8; 1];
        c.recv_into(0, 1, &mut buf);
        assert_eq!(buf[0], 9);
    }

    pub(crate) fn dead_peer_fails_receives_loudly<L: TestWorld>() {
        // Rank 1 leaves after the barrier; dropping its endpoint closes
        // its links, so rank 0's receive must fail typed — and the
        // panicking name must die with the same diagnostic — not hang.
        run_world::<L, _>(2, |c| {
            c.barrier();
            if c.rank() == 1 {
                return;
            }
            let mut buf = [0u8; 1];
            let err = c.recv_into_checked(1, 3, &mut buf).unwrap_err();
            assert_eq!(err.kind, CommErrorKind::PeerClosed);
            assert_eq!((err.peer, err.tag), (Some(1), Some(3)));
            assert!(err.detail.contains("connection to rank 1 closed"), "{}", err.detail);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.recv_into(1, 3, &mut buf);
            }))
            .expect_err("receive from a dead peer must fail");
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("connection to rank 1 closed"),
                "diagnostic names the peer: {msg}"
            );
        });
    }

    pub(crate) fn silent_peer_trips_the_heartbeat_watchdog<L: TestWorld>() {
        // Rank 1 connects but never sends anything — not even
        // heartbeats (its emitter is off). From rank 0's side the link
        // is open but silent: only the watchdog can tell, and it must,
        // within the peer timeout.
        let watchdog = MeshConfig {
            heartbeat: Some(Duration::from_millis(25)),
            peer_timeout: Some(Duration::from_millis(150)),
            ..Default::default()
        };
        run_pair::<L>(watchdog, MeshConfig::default(), |c| {
            if c.rank() == 1 {
                // Stay wedged (alive, holding the links open) past the
                // peer timeout.
                std::thread::sleep(Duration::from_millis(600));
                return;
            }
            let started = Instant::now();
            let mut buf = [0u8; 1];
            let err = c.recv_into_checked(1, 3, &mut buf).unwrap_err();
            assert_eq!(err.kind, CommErrorKind::PeerLost);
            assert_eq!(err.peer, Some(1));
            assert!(err.detail.contains("no heartbeat from rank 1"), "{}", err.detail);
            assert!(started.elapsed() < Duration::from_secs(10), "bounded detection");
        });
    }

    pub(crate) fn receive_deadline_detects_a_hung_but_heartbeating_peer<L: TestWorld>() {
        // Rank 1 heartbeats (alive!) but never sends data — the
        // watchdog stays quiet, so only the receive deadline can flag
        // the hang, as a typed Timeout naming the peer and tag.
        let beat = Some(Duration::from_millis(25));
        let waiter = MeshConfig {
            recv_deadline: Some(Duration::from_millis(100)),
            heartbeat: beat,
            peer_timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let hung = MeshConfig { heartbeat: beat, ..Default::default() };
        run_pair::<L>(waiter, hung, |c| {
            if c.rank() == 1 {
                std::thread::sleep(Duration::from_millis(400));
                return;
            }
            let mut buf = [0u8; 1];
            let err = c.recv_into_checked(1, 3, &mut buf).unwrap_err();
            assert_eq!(err.kind, CommErrorKind::Timeout);
            assert_eq!((err.peer, err.tag), (Some(1), Some(3)));
            assert!(err.elapsed >= Duration::from_millis(100));
            assert!(err.detail.contains("peer hung?"), "{}", err.detail);
        });
    }

    pub(crate) fn corrupted_frame_is_detected_and_attributed<L: TestWorld>() {
        // Rank 0's interposer flips a payload byte after the CRC is
        // computed; rank 1's reader must reject the frame and attribute
        // the corruption to rank 0.
        let corruptor = MeshConfig {
            faults: Some(FaultPlan { corrupt: Some(1.0), ..FaultPlan::clean(3) }),
            ..Default::default()
        };
        run_pair::<L>(corruptor, MeshConfig::default(), |c| {
            if c.rank() == 0 {
                c.send_from(1, 9, &[1, 2, 3, 4]);
                return;
            }
            let mut buf = [0u8; 4];
            let err = c.recv_into_checked(0, 9, &mut buf).unwrap_err();
            assert_eq!(err.kind, CommErrorKind::Corrupt);
            assert_eq!(err.peer, Some(0));
            assert!(err.detail.contains("corrupt frame from rank 0"), "{}", err.detail);
        });
    }

    pub(crate) fn dropped_frame_is_caught_by_deadline_and_barrier_stays_consistent<L: TestWorld>() {
        // A dropped data frame must not wedge the flush barrier (the
        // drop is uncounted on the sent ledger); the receiver's typed
        // Timeout is the detection.
        let dropper = MeshConfig {
            faults: Some(FaultPlan { drop: Some(1.0), ..FaultPlan::clean(11) }),
            ..Default::default()
        };
        let receiver =
            MeshConfig { recv_deadline: Some(Duration::from_millis(100)), ..Default::default() };
        run_pair::<L>(dropper, receiver, |c| {
            if c.rank() == 0 {
                c.send_from(1, 5, &[42]); // vanishes on the wire
            } else {
                let mut buf = [0u8; 1];
                let err = c.recv_into_checked(0, 5, &mut buf).unwrap_err();
                assert_eq!(err.kind, CommErrorKind::Timeout);
            }
            c.barrier(); // must still complete
        });
    }

    pub(crate) fn duplicated_frames_are_counted_and_both_delivered<L: TestWorld>() {
        // A duplicated frame counts twice on the sent ledger, so the
        // flush barrier still balances — and both copies park.
        let duper = MeshConfig {
            faults: Some(FaultPlan { duplicate: Some(1.0), ..FaultPlan::clean(7) }),
            ..Default::default()
        };
        run_pair::<L>(duper, MeshConfig::default(), |c| {
            if c.rank() == 0 {
                c.send_from(1, 6, &[9]);
                c.barrier();
            } else {
                c.barrier(); // flushes both copies into the mailbox
                let mut buf = [0u8; 1];
                assert!(c.try_recv_into(0, 6, &mut buf));
                assert_eq!(buf[0], 9);
                assert!(c.try_recv_into(0, 6, &mut buf), "the duplicate is parked too");
            }
        });
    }

    pub(crate) fn mismatched_coll_fails_at_connect_naming_both_algorithms<L: TestWorld>() {
        // Ranks of one world must agree on the wire protocol of their
        // collectives before the first one runs: the rendezvous refuses
        // a mixed world, on both sides, naming both algorithms.
        let star = MeshConfig { coll: CollAlgo::Star, ..Default::default() };
        let rd = MeshConfig { coll: CollAlgo::RecursiveDoubling, ..Default::default() };
        for outcome in run_ranks::<L, _>(vec![star, rd], |_c| ()) {
            let panic = outcome.expect_err("a mixed world must not connect");
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("star") && msg.contains("rd"), "names both algorithms: {msg}");
        }
    }

    /// Instantiate every suite test for one link type.
    macro_rules! mesh_suite {
        ($link:ty) => {
            $crate::mesh::suite::mesh_suite!($link:
                ping_pong,
                allreduce_matches_thread_world_bitwise,
                flush_barrier_makes_prebarrier_sends_pollable,
                repeated_collectives_stay_in_lockstep,
                wait_any_completes_in_arrival_order,
                quiesce_recycles_unconsumed_messages,
                steady_state_reuses_pooled_buffers,
                single_rank_world_is_trivial,
                dead_peer_fails_receives_loudly,
                silent_peer_trips_the_heartbeat_watchdog,
                receive_deadline_detects_a_hung_but_heartbeating_peer,
                corrupted_frame_is_detected_and_attributed,
                dropped_frame_is_caught_by_deadline_and_barrier_stays_consistent,
                duplicated_frames_are_counted_and_both_delivered,
                mismatched_coll_fails_at_connect_naming_both_algorithms,
            );
        };
        ($link:ty: $($test:ident,)*) => {
            $(
                #[test]
                fn $test() {
                    crate::mesh::suite::$test::<$link>();
                }
            )*
        };
    }
    pub(crate) use mesh_suite;
}
