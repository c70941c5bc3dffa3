//! Same-host process ranks over mmap'd `/dev/shm` ring buffers — the
//! `Comm` backend of every rank process `hpgmxp-launch` starts.
//!
//! A [`ShmemWorld`] rank is a whole OS process, so the mesh crosses
//! scheduler preemption and process death — effects a thread world
//! cannot surface — but the data path never enters the kernel: every
//! ordered rank pair `(i, j)` owns a single-producer/single-consumer
//! byte ring in one shared `/dev/shm` file, and rank `i` sends to rank
//! `j` by copying [`crate::frame`]-encoded bytes into ring `(i, j)`
//! and publishing a new head counter. This module is the mmap rendezvous plus
//! [`RingLink`]; the frame protocol, CRC, per-peer recycled receive
//! pools, shared mailbox, heartbeats and receive deadlines are the
//! shared [`crate::mesh`], written against the [`Link`] seam so another
//! fabric would only add its own byte channel.
//!
//! ## File layout
//!
//! ```text
//! [ header page: magic, size P, ring_bytes, attached counter ]
//! [ ring (0,0) ][ ring (0,1) ] ... [ ring (P-1,P-1) ]
//! ```
//!
//! Each ring is a 256-byte header — producer-owned `head` (total bytes
//! ever written), consumer-owned `tail` (total bytes ever read), and a
//! producer-set `closed` flag, each on its own cache line — followed
//! by `ring_bytes` (power of two, `HPGMXP_SHM_RING_BYTES`, default
//! 256 KiB) of data. Counters are monotonic; the write position is
//! `head & (ring_bytes - 1)`, so full (`head - tail == ring_bytes`)
//! and empty (`head == tail`) are unambiguous. Frames larger than the
//! ring stream through it in chunks — the consumer drains while the
//! producer refills, so the ring size bounds memory, not message size.
//!
//! ## Rendezvous
//!
//! Rank 0 creates the file (`HPGMXP_SHM_ID` names it, unique per
//! launch attempt), sizes it, initializes the header, and publishes
//! the magic last; other ranks poll for the file and magic, map it,
//! and bump the `attached` counter. The magic carries the layout
//! version, so a rank built against another header layout never
//! recognises the file and fails the connect timeout naming it. Once
//! every rank is attached rank 0 *unlinks* the file — the mapping
//! stays valid for the attached processes, and a rank crashing later
//! leaks no `/dev/shm` entry. A job killed before every rank attached
//! leaves the file behind; the launcher removes it once the attempt's
//! ranks are reaped.
//!
//! ## Blocking and failure
//!
//! Waits are spin-then-yield (no futex, no crates.io): a reader with
//! an empty ring and a writer against a full one spin briefly, then
//! yield, then sleep in 50 µs steps. A writer stalled longer than the
//! peer timeout fails the send with a typed `PeerLost` naming the
//! peer — the detector for a consumer that died with the ring full.
//! A cleanly dropped endpoint sets `closed` on its outgoing rings, so
//! peer readers see EOF at a frame boundary → `PeerClosed`. A crashed
//! process never sets `closed`; its silence trips the heartbeat
//! watchdog (`PeerLost`) instead, and a hung-but-alive rank is caught
//! by the receive deadline (`Timeout`) — the mesh's three detectors,
//! each with its typed fault.

use crate::mesh::{connect_timeout, env_knob, parse_knob, Link, MeshComm, MeshConfig};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// The only two syscalls std does not wrap. Values are the x86-64 /
// aarch64 Linux ABI constants (this transport is Linux-only — /dev/shm
// is the whole point).
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_SHARED: i32 = 0x01;

/// First u64 of the file once fully initialized ("HPGMXSH2"; the last
/// byte is the header-layout version).
const SHM_MAGIC: u64 = u64::from_le_bytes(*b"HPGMXSH2");

/// Bytes reserved for the file header.
const FILE_HEADER: usize = 4096;
/// Header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_SIZE: usize = 8;
const OFF_RING_BYTES: usize = 16;
const OFF_ATTACHED: usize = 64;

/// Bytes of one ring's header (head / tail / closed, one cache line
/// apart so producer and consumer never false-share).
const RING_HEADER: usize = 256;
const OFF_HEAD: usize = 0;
const OFF_TAIL: usize = 64;
const OFF_CLOSED: usize = 128;

/// Default data bytes per ring (`HPGMXP_SHM_RING_BYTES` overrides;
/// must be a power of two).
const DEFAULT_RING_BYTES: usize = 256 * 1024;

fn ring_bytes_from_env() -> usize {
    let n = env_knob("HPGMXP_SHM_RING_BYTES").unwrap_or(DEFAULT_RING_BYTES);
    assert!(
        n.is_power_of_two() && n >= 4096,
        "HPGMXP_SHM_RING_BYTES must be a power of two >= 4096, got {n}"
    );
    n
}

/// Spin-then-yield-then-sleep waiter for ring-full / ring-empty waits:
/// cheap when the peer answers in nanoseconds, polite to a 1-core box
/// when it does not.
struct Backoff {
    step: u32,
}

impl Backoff {
    fn new() -> Backoff {
        Backoff { step: 0 }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn wait(&mut self) {
        self.step = self.step.saturating_add(1);
        if self.step < 64 {
            std::hint::spin_loop();
        } else if self.step < 256 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// An mmap'd shared file. The pointer is valid for the struct's
/// lifetime; `Drop` unmaps. Concurrent access is coordinated entirely
/// through the atomics embedded in the mapping.
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain shared memory; all cross-thread /
// cross-process coordination goes through `AtomicU64` fields inside
// it, and raw byte ranges are only touched according to the SPSC ring
// protocol (producer writes [tail+ring .. head) exclusively, consumer
// reads [tail .. head) exclusively).
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    fn map(file: &File, len: usize) -> Mapping {
        // SAFETY: mapping a file we own for its full sized length.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_SHARED, file.as_raw_fd(), 0)
        };
        assert!(
            !ptr.is_null() && ptr as isize != -1,
            "mmap of the {len}-byte shmem world file failed"
        );
        Mapping { ptr, len }
    }

    /// The `AtomicU64` embedded at `offset` (must be 8-aligned and in
    /// bounds).
    fn atomic(&self, offset: usize) -> &AtomicU64 {
        debug_assert!(offset.is_multiple_of(8) && offset + 8 <= self.len);
        // SAFETY: in-bounds, aligned, and the underlying memory is
        // only ever accessed atomically at this offset.
        unsafe { &*(self.ptr.add(offset) as *const AtomicU64) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: unmapping exactly what `map` mapped.
        unsafe { munmap(self.ptr, self.len) };
    }
}

/// Geometry of the world file.
#[derive(Clone, Copy)]
struct Layout {
    size: usize,
    ring_bytes: usize,
}

impl Layout {
    fn stride(&self) -> usize {
        RING_HEADER + self.ring_bytes
    }

    fn total_len(&self) -> usize {
        FILE_HEADER + self.size * self.size * self.stride()
    }

    /// Byte offset of ring `(from, to)`'s header.
    fn ring(&self, from: usize, to: usize) -> usize {
        FILE_HEADER + (from * self.size + to) * self.stride()
    }
}

/// The producer side of one outgoing ring — the shmem mesh's [`Link`].
/// Sole producer by construction (the mesh serializes writers on the
/// mutex the link lives in).
pub struct RingLink {
    map: Arc<Mapping>,
    /// Byte offset of the ring's header in the mapping.
    ring: usize,
    ring_bytes: usize,
    /// Set by `close`; later writes fail instead of feeding a ring
    /// nobody reads.
    closed: bool,
}

impl Link for RingLink {
    type Reader = RingConsumer;

    /// Copy `frame` into the ring, chunking through it if the frame is
    /// larger than the ring. A ring that stays full for `stall` fails
    /// the write — the consumer is dead.
    fn write_frame(&mut self, frame: &[u8], stall: Option<Duration>) -> std::io::Result<()> {
        if self.closed {
            return Err(std::io::Error::new(ErrorKind::BrokenPipe, "ring closed"));
        }
        let head_a = self.map.atomic(self.ring + OFF_HEAD);
        let tail_a = self.map.atomic(self.ring + OFF_TAIL);
        let data = self.ring + RING_HEADER;
        let rb = self.ring_bytes;
        // Sole producer for this ring, so a relaxed read of our own
        // head is exact.
        let mut head = head_a.load(Ordering::Relaxed);
        let mut written = 0usize;
        let mut full_since: Option<Instant> = None;
        let mut backoff = Backoff::new();
        while written < frame.len() {
            let tail = tail_a.load(Ordering::Acquire);
            let free = rb - (head - tail) as usize;
            if free == 0 {
                let since = *full_since.get_or_insert_with(Instant::now);
                if stall.is_some_and(|t| since.elapsed() >= t) {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "ring full for {:.3}s — consumer dead?",
                            since.elapsed().as_secs_f64()
                        ),
                    ));
                }
                backoff.wait();
                continue;
            }
            full_since = None;
            backoff.reset();
            let pos = (head as usize) & (rb - 1);
            let n = free.min(frame.len() - written).min(rb - pos);
            // SAFETY: [pos, pos+n) is free space the consumer will not
            // read until the head store below publishes it.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    frame[written..].as_ptr(),
                    self.map.ptr.add(data + pos),
                    n,
                );
            }
            head += n as u64;
            head_a.store(head, Ordering::Release);
            written += n;
        }
        Ok(())
    }

    /// Set the ring's `closed` flag — after the last head publication,
    /// so the consumer drains every written frame before it sees EOF.
    fn close(&mut self) {
        self.closed = true;
        self.map.atomic(self.ring + OFF_CLOSED).store(1, Ordering::Release);
    }
}

/// The read side of one incoming ring, exposed as [`std::io::Read`] so
/// [`crate::frame::read_frame`] layers over it unchanged. Blocks
/// (spin-then-yield) until bytes arrive; returns `Ok(0)` — clean EOF —
/// once the producer has set `closed` and the ring is drained.
pub struct RingConsumer {
    map: Arc<Mapping>,
    ring: usize,
    ring_bytes: usize,
    /// Local copy of the consumer counter (authoritative; the shared
    /// tail atomic is the producer-visible publication of it).
    tail: u64,
}

impl Read for RingConsumer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let head_a = self.map.atomic(self.ring + OFF_HEAD);
        let tail_a = self.map.atomic(self.ring + OFF_TAIL);
        let closed_a = self.map.atomic(self.ring + OFF_CLOSED);
        let data = self.ring + RING_HEADER;
        let rb = self.ring_bytes;
        let mut backoff = Backoff::new();
        loop {
            let head = head_a.load(Ordering::Acquire);
            let avail = (head - self.tail) as usize;
            if avail > 0 {
                let pos = (self.tail as usize) & (rb - 1);
                let n = avail.min(buf.len()).min(rb - pos);
                // SAFETY: [pos, pos+n) is published data the producer
                // will not overwrite until the tail store below frees
                // it.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        self.map.ptr.add(data + pos),
                        buf.as_mut_ptr(),
                        n,
                    );
                }
                self.tail += n as u64;
                tail_a.store(self.tail, Ordering::Release);
                return Ok(n);
            }
            // Producer closes *after* its last head publication, so
            // re-reading head after observing `closed` cannot miss
            // final bytes.
            if closed_a.load(Ordering::Acquire) != 0 && head_a.load(Ordering::Acquire) == self.tail
            {
                return Ok(0);
            }
            backoff.wait();
        }
    }
}

/// One rank's endpoint in a shmem world.
pub type ShmemComm = MeshComm<RingLink>;

/// Factory for shared-memory mesh endpoints.
pub struct ShmemWorld;

impl ShmemWorld {
    /// Join (or, as rank 0, create) the `/dev/shm` world named
    /// `shm_id`, with fault knobs from the environment. Blocks until
    /// every rank is attached.
    pub fn connect(rank: usize, size: usize, shm_id: &str) -> ShmemComm {
        Self::connect_with_config(rank, size, shm_id, MeshConfig::from_env())
    }

    /// [`ShmemWorld::connect`] with explicit fault-detection knobs —
    /// the chaos tests' entry point.
    pub fn connect_with_config(
        rank: usize,
        size: usize,
        shm_id: &str,
        config: MeshConfig,
    ) -> ShmemComm {
        Self::connect_custom(rank, size, shm_id, config, ring_bytes_from_env())
    }

    /// Full-control constructor (tests size rings down to force
    /// wrap-around and full-ring stalls).
    pub fn connect_custom(
        rank: usize,
        size: usize,
        shm_id: &str,
        config: MeshConfig,
        ring_bytes: usize,
    ) -> ShmemComm {
        assert!(size > 0 && rank < size, "rank {rank} outside world of {size}");
        assert!(ring_bytes.is_power_of_two(), "ring_bytes must be a power of two");
        let layout = Layout { size, ring_bytes };
        let deadline = Instant::now() + connect_timeout();
        let path = world_path(shm_id);

        let map: Option<Arc<Mapping>> = if size > 1 {
            let map = if rank == 0 {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create_new(true)
                    .open(&path)
                    .unwrap_or_else(|e| {
                        panic!(
                            "rank 0 could not create the shmem world file {path}: {e} (stale \
                             file from a crashed run? each launch attempt needs a fresh \
                             HPGMXP_SHM_ID)"
                        )
                    });
                file.set_len(layout.total_len() as u64).expect("size the shmem world file");
                let map = Mapping::map(&file, layout.total_len());
                map.atomic(OFF_SIZE).store(size as u64, Ordering::Relaxed);
                map.atomic(OFF_RING_BYTES).store(ring_bytes as u64, Ordering::Relaxed);
                // Publish last: a scanner that sees the magic sees a
                // fully initialized header.
                map.atomic(OFF_MAGIC).store(SHM_MAGIC, Ordering::Release);
                map
            } else {
                let mut backoff = Backoff::new();
                loop {
                    if let Ok(file) = OpenOptions::new().read(true).write(true).open(&path) {
                        if file.metadata().map(|m| m.len()).unwrap_or(0)
                            == layout.total_len() as u64
                        {
                            let map = Mapping::map(&file, layout.total_len());
                            if map.atomic(OFF_MAGIC).load(Ordering::Acquire) == SHM_MAGIC {
                                assert_eq!(
                                    map.atomic(OFF_SIZE).load(Ordering::Relaxed),
                                    size as u64,
                                    "shmem world {shm_id} was created for a different rank count"
                                );
                                assert_eq!(
                                    map.atomic(OFF_RING_BYTES).load(Ordering::Relaxed),
                                    ring_bytes as u64,
                                    "shmem world {shm_id} was created with different ring size"
                                );
                                break map;
                            }
                        }
                    }
                    if Instant::now() >= deadline {
                        panic!(
                            "rank {rank} could not find an initialized shmem world at {path} \
                             within the connect timeout (a world created by another header \
                             version is not recognised)"
                        );
                    }
                    backoff.wait();
                }
            };
            let attached = map.atomic(OFF_ATTACHED);
            attached.fetch_add(1, Ordering::SeqCst);
            if rank == 0 {
                // Wait for the full world, then unlink: the mapping
                // stays valid for every attached process, and a crashed
                // job leaves nothing behind in /dev/shm.
                let mut backoff = Backoff::new();
                while attached.load(Ordering::SeqCst) < size as u64 {
                    if Instant::now() >= deadline {
                        let got = attached.load(Ordering::SeqCst);
                        let _ = std::fs::remove_file(&path);
                        panic!(
                            "only {got} of {size} ranks attached to shmem world {shm_id} within \
                             the connect timeout"
                        );
                    }
                    backoff.wait();
                }
                let _ = std::fs::remove_file(&path);
            }
            Some(Arc::new(map))
        } else {
            None
        };

        let links = (0..size)
            .map(|peer| {
                let map = map.as_ref().filter(|_| peer != rank)?;
                let link = RingLink {
                    map: Arc::clone(map),
                    ring: layout.ring(rank, peer),
                    ring_bytes,
                    closed: false,
                };
                let consumer = RingConsumer {
                    map: Arc::clone(map),
                    ring: layout.ring(peer, rank),
                    ring_bytes,
                    tail: 0,
                };
                Some((link, consumer))
            })
            .collect();
        MeshComm::from_links(rank, links, config)
    }
}

/// The `/dev/shm` file that holds the world named `shm_id`.
pub(crate) fn world_path(shm_id: &str) -> String {
    format!("/dev/shm/hpgmxp-{shm_id}")
}

/// A variable `hpgmxp-launch` exports to every rank process; unset
/// means the process was not started by the launcher.
fn launch_var(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| {
        panic!("{name} not set — process-per-rank worlds must be started by hpgmxp-launch")
    })
}

/// A numeric [`launch_var`], range-checked into `T`.
fn launch_knob<T: TryFrom<u64>>(name: &str) -> T {
    parse_knob(name, &launch_var(name)).unwrap_or_else(|e| panic!("{e}"))
}

/// The process-global mesh, built once from `HPGMXP_RANK` /
/// `HPGMXP_RANKS` / `HPGMXP_SHM_ID` (the environment `hpgmxp-launch`
/// provides) and reused by every SPMD run in this process.
pub fn global_from_env() -> &'static ShmemComm {
    static MESH: OnceLock<ShmemComm> = OnceLock::new();
    MESH.get_or_init(|| {
        ShmemWorld::connect(
            launch_knob("HPGMXP_RANK"),
            launch_knob("HPGMXP_RANKS"),
            &launch_var("HPGMXP_SHM_ID"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::error::CommErrorKind;
    use crate::mesh::suite::{mesh_suite, TestWorld};
    use std::sync::atomic::AtomicUsize;

    /// A process-unique shmem id per test world.
    fn fresh_id(tag: &str) -> String {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        format!("test-{}-{tag}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::SeqCst))
    }

    impl TestWorld for RingLink {
        type Meet = String;

        fn fresh() -> String {
            fresh_id("suite")
        }

        fn connect(rank: usize, size: usize, id: &String, config: MeshConfig) -> ShmemComm {
            ShmemWorld::connect_with_config(rank, size, id, config)
        }
    }

    mesh_suite!(RingLink);

    /// Run `f` on both ranks of a two-rank world named `id` over
    /// `ring_bytes` rings.
    fn run_pair<T: Send>(
        id: &str,
        config: MeshConfig,
        ring_bytes: usize,
        f: impl Fn(ShmemComm) -> T + Sync,
    ) -> Vec<T> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let (f, config) = (&f, config.clone());
                    s.spawn(move || f(ShmemWorld::connect_custom(rank, 2, id, config, ring_bytes)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a rank panicked")).collect()
        })
    }

    /// Rings `(0,1)` and `(1,0)` of a private, already-unlinked world
    /// file: a [`RingLink`] and the consumer of the same ring, with no
    /// mesh (and so no reader thread) attached.
    fn bare_ring(tag: &str, ring_bytes: usize) -> (RingLink, RingConsumer) {
        let path = world_path(&fresh_id(tag));
        let layout = Layout { size: 2, ring_bytes };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create test ring file");
        file.set_len(layout.total_len() as u64).expect("size test ring file");
        let map = Arc::new(Mapping::map(&file, layout.total_len()));
        std::fs::remove_file(&path).expect("unlink test ring file");
        let ring = layout.ring(0, 1);
        (
            RingLink { map: Arc::clone(&map), ring, ring_bytes, closed: false },
            RingConsumer { map, ring, ring_bytes, tail: 0 },
        )
    }

    #[test]
    fn world_file_is_unlinked_after_attach() {
        let id = fresh_id("unlink");
        run_pair(&id, MeshConfig::default(), DEFAULT_RING_BYTES, |c| c.barrier().unwrap());
        assert!(
            !std::path::Path::new(&world_path(&id)).exists(),
            "rank 0 must unlink the world file once every rank is attached"
        );
    }

    #[test]
    fn messages_larger_than_the_ring_stream_through() {
        // A 64 KiB message through 4 KiB rings: the producer chunks,
        // the consumer drains concurrently, the frame arrives intact.
        let payload: Vec<u8> =
            (0..65536u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let got = run_pair(&fresh_id("bigmsg"), MeshConfig::default(), 4096, |c| {
            let mut got = vec![0u8; 65536];
            if c.rank() == 0 {
                c.send_from(1, 9, &payload).unwrap();
            } else {
                c.recv_into(0, 9, &mut got).unwrap();
            }
            c.barrier().unwrap();
            got
        });
        assert_eq!(got[1], payload);
    }

    #[test]
    fn full_ring_with_no_consumer_fails_typed() {
        // A live peer's reader always drains its rings into the
        // mailbox, so ring-full only ever happens once the consumer
        // thread is gone (crashed process). A mesh whose outgoing ring
        // nobody drains must fail the send with a typed PeerLost naming
        // the peer, within the peer timeout, not hang.
        let (link, _undrained) = bare_ring("fullring", 4096);
        // The incoming side is a separate ring, already closed, so the
        // mesh's reader thread exits at once.
        let (mut incoming, consumer) = bare_ring("fullring-in", 4096);
        incoming.close();
        let config =
            MeshConfig { peer_timeout: Some(Duration::from_millis(200)), ..Default::default() };
        let c = MeshComm::from_links(0, vec![None, Some((link, consumer))], config);

        let payload = vec![7u8; 8192]; // twice the ring
        let started = Instant::now();
        let err = c.send_from(1, 5, &payload).unwrap_err();
        assert_eq!(err.kind, CommErrorKind::PeerLost);
        assert_eq!(err.peer, Some(1));
        assert_eq!(err.tag, Some(5));
        assert!(err.elapsed >= Duration::from_millis(200));
        assert!(started.elapsed() < Duration::from_secs(5), "stall detection must be bounded");
        assert!(err.detail.contains("ring full"), "{}", err.detail);
    }

    #[test]
    fn closed_ring_reads_eof_after_draining() {
        // The Link contract: bytes written before `close` are all
        // readable, then the reader sees EOF — and the closed link
        // refuses further writes.
        let (mut link, mut consumer) = bare_ring("eof", 4096);
        link.write_frame(b"last words", None).expect("ring has room");
        link.close();
        let mut got = Vec::new();
        consumer.read_to_end(&mut got).expect("a closed ring ends cleanly");
        assert_eq!(got, b"last words");
        let err = link.write_frame(b"x", None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }
}
