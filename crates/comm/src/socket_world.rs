//! Multi-process ranks over localhost TCP — the second `Comm` backend.
//!
//! Where [`crate::thread_world::ThreadWorld`] packs all ranks into one
//! address space, a [`SocketWorld`] rank is a whole OS process; the
//! mesh crosses real socket buffers, scheduler preemption, and process
//! death — the transport-level effects a thread world cannot surface.
//! This module is the TCP rendezvous plus [`TcpLink`]; everything above
//! the byte pipe (framing, mailbox, pools, flush barrier, heartbeats,
//! fault injection, the `Comm` implementation) is the shared
//! [`crate::mesh`].
//!
//! ## Mesh setup
//!
//! Every rank binds an ephemeral *data* listener, then meets the
//! others at a rendezvous port (`HPGMXP_PORT`): rank 0 listens there,
//! ranks 1..P connect (with retry, so start order is free) and
//! register `(rank, data_port, collective algorithm)`; rank 0 — whose
//! hello carries its own algorithm — refuses a rank that disagrees
//! (and that rank refuses the hello), then answers each with the full
//! port table. The mesh itself is one TCP connection per rank pair —
//! the lower rank accepts, the higher connects and leads with its rank
//! id, so accepts can land in any order. All streams get
//! `TCP_NODELAY` (halo messages are latency-bound, not
//! throughput-bound).
//!
//! ## Failure semantics
//!
//! A dead peer's TCP EOF is the mesh's `PeerClosed`; a reset or any
//! other I/O error its `PeerLost`. A cleanly dropped endpoint shuts
//! down the write side of every stream, so peers see the EOF at a frame
//! boundary. The kernel bounds a write to a dead process by failing it,
//! so [`TcpLink`] needs no stall timer of its own.

use crate::collectives::CollAlgo;
use crate::fault::SplitMix64;
use crate::mesh::{coll_mismatch, connect_timeout, launch_knob, Link, MeshComm, MeshConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How many consecutive ports the rendezvous may occupy when the
/// configured one is busy: rank 0 binds the first free port in
/// `[port, port + PORT_SCAN_SPAN)`, other ranks scan the same window
/// and identify the rendezvous by its hello magic.
pub const PORT_SCAN_SPAN: u16 = 16;

/// First bytes rank 0 writes on every accepted rendezvous connection,
/// so a scanning rank can tell the rendezvous from an unrelated
/// service squatting a port in the scan window.
const RENDEZVOUS_HELLO: [u8; 4] = *b"HPRV";

/// Bytes of the rendezvous hello: magic, the base port the rendezvous
/// serves (so a rank scanning the port window never joins a
/// *different* world whose window happens to overlap), and rank 0's
/// collective algorithm.
const HELLO_LEN: usize = 7;

/// Bytes of a registration: rank, data port, collective algorithm.
const REGISTRATION_LEN: usize = 9;

/// One TCP connection to a peer — the socket mesh's [`Link`]. The read
/// half is a clone of the same stream.
pub struct TcpLink {
    stream: TcpStream,
}

impl Link for TcpLink {
    type Reader = TcpStream;

    /// One `write_all` per frame. The stall bound is the kernel's: a
    /// write to a dead peer fails (EPIPE / reset) rather than blocking.
    fn write_frame(&mut self, frame: &[u8], _stall: Option<Duration>) -> std::io::Result<()> {
        self.stream.write_all(frame)
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// One rank's endpoint in a socket world.
pub type SocketComm = MeshComm<TcpLink>;

/// Factory for socket-mesh endpoints.
pub struct SocketWorld;

/// Dial with jittered exponential backoff until the connect timeout:
/// start order between ranks is free, and a thundering herd of
/// retriers must not synchronize against a slow rank 0.
fn connect_with_retry(port: u16, what: &str) -> TcpStream {
    let deadline = Instant::now() + connect_timeout();
    let mut rng = SplitMix64::new((std::process::id() as u64) << 16 | port as u64 | 1);
    let mut pause = Duration::from_millis(5);
    loop {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => return s,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!("could not reach {what} on port {port} within the connect timeout: {e}");
                }
                std::thread::sleep(pause.mul_f64(0.5 + 0.5 * rng.next_f64()));
                pause = (pause * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// Bind the rendezvous listener on the first free port of the scan
/// window — a squatted `HPGMXP_PORT` moves the rendezvous instead of
/// killing the job (scanning ranks will find it by its hello magic).
fn bind_rendezvous(base: u16) -> TcpListener {
    for offset in 0..PORT_SCAN_SPAN {
        let port = base.wrapping_add(offset);
        if let Ok(listener) = TcpListener::bind(("127.0.0.1", port)) {
            if offset > 0 {
                eprintln!("[socket] rendezvous port {base} busy, using {port}");
            }
            return listener;
        }
    }
    panic!(
        "no free rendezvous port in {base}..{} — every port in the scan window is busy",
        base.wrapping_add(PORT_SCAN_SPAN)
    )
}

/// Find the rank-0 rendezvous in the scan window starting at `base`,
/// retrying with jittered backoff until the connect timeout. A
/// connection only qualifies if the service presents the rendezvous
/// hello magic within a short read window — an unrelated server
/// squatting a scanned port is skipped, not crashed into. Returns the
/// connection and the collective-algorithm byte of the hello.
fn find_rendezvous(base: u16) -> (TcpStream, u8) {
    let deadline = Instant::now() + connect_timeout();
    let mut rng = SplitMix64::new((std::process::id() as u64) << 16 | base as u64 | 1);
    let mut pause = Duration::from_millis(10);
    loop {
        for offset in 0..PORT_SCAN_SPAN {
            let port = base.wrapping_add(offset);
            let Ok(mut s) = TcpStream::connect(("127.0.0.1", port)) else { continue };
            s.set_read_timeout(Some(Duration::from_millis(250))).expect("set hello read timeout");
            let mut hello = [0u8; HELLO_LEN];
            if s.read_exact(&mut hello).is_ok()
                && hello[0..4] == RENDEZVOUS_HELLO
                && hello[4..6] == base.to_le_bytes()
            {
                s.set_read_timeout(None).expect("clear hello read timeout");
                return (s, hello[6]);
            }
            // Wrong service (or a rendezvous not yet writing); keep
            // scanning — rank 0 accepts until every rank registered,
            // so a missed sweep retries cleanly.
        }
        if Instant::now() >= deadline {
            panic!(
                "could not find the rank-0 rendezvous in ports {base}..{} within the connect \
                 timeout",
                base.wrapping_add(PORT_SCAN_SPAN)
            );
        }
        std::thread::sleep(pause.mul_f64(0.5 + 0.5 * rng.next_f64()));
        pause = (pause * 2).min(Duration::from_millis(200));
    }
}

/// Accept one connection before `deadline`, polling non-blockingly so
/// a missing peer fails loudly instead of hanging the listener forever.
fn accept_with_deadline(listener: &TcpListener, deadline: Instant, what: &str) -> TcpStream {
    listener.set_nonblocking(true).expect("listener nonblocking");
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).expect("stream blocking");
                return s;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    panic!("timed out waiting for {what}");
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("accept failed while waiting for {what}: {e}"),
        }
    }
}

impl SocketWorld {
    /// Join (or, as rank 0, host) the mesh of `size` ranks meeting at
    /// rendezvous `port`, with fault knobs from the environment.
    /// Blocks until the full mesh is connected.
    pub fn connect(rank: usize, size: usize, port: u16) -> SocketComm {
        Self::connect_with_config(rank, size, port, MeshConfig::from_env())
    }

    /// [`SocketWorld::connect`] with explicit fault-detection knobs,
    /// injection plan, and collective algorithm — the chaos tests'
    /// entry point (environment variables are process-global; per-rank
    /// knobs cannot come from them in in-process tests).
    pub fn connect_with_config(
        rank: usize,
        size: usize,
        port: u16,
        config: MeshConfig,
    ) -> SocketComm {
        assert!(size > 0 && rank < size, "rank {rank} outside world of {size}");
        assert!(size <= u32::MAX as usize);
        let deadline = Instant::now() + connect_timeout();

        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        if size > 1 {
            // Bind the data listener before rendezvous so every port in
            // the table is accepting by the time anyone dials it.
            let data_listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind data listener");
            let data_port = data_listener.local_addr().expect("data listener addr").port();

            let mut hello = [0u8; HELLO_LEN];
            hello[0..4].copy_from_slice(&RENDEZVOUS_HELLO);
            hello[4..6].copy_from_slice(&port.to_le_bytes());
            hello[6] = config.coll.wire_code();
            // Both sides of a registration check the other's algorithm
            // byte only after sending their own, so a mixed world fails
            // loudly on both ranks instead of stranding one of them.
            let check_coll = |peer: usize, code: u8| {
                if code != config.coll.wire_code() {
                    let theirs = CollAlgo::from_wire_code(code).unwrap_or_else(|| {
                        panic!("rank {peer} sent an unknown collective algorithm code {code}")
                    });
                    panic!("{}", coll_mismatch((rank, config.coll), (Some(peer), theirs)));
                }
            };

            let table: Vec<u16> = if rank == 0 {
                let rendezvous = bind_rendezvous(port);
                let mut regs: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
                let mut ports = vec![0u16; size];
                ports[0] = data_port;
                let mut registered = 0;
                while registered < size - 1 {
                    let mut s = accept_with_deadline(&rendezvous, deadline, "rank registrations");
                    // An abandoned scan probe (a rank that gave up on
                    // the hello window, or an unrelated client) just
                    // drops; skip it and keep accepting.
                    if s.write_all(&hello).is_err() {
                        continue;
                    }
                    let mut reg = [0u8; REGISTRATION_LEN];
                    if s.read_exact(&mut reg).is_err() {
                        continue;
                    }
                    let r = u32::from_le_bytes([reg[0], reg[1], reg[2], reg[3]]) as usize;
                    let p = u32::from_le_bytes([reg[4], reg[5], reg[6], reg[7]]);
                    assert!(r > 0 && r < size, "bogus registration from rank {r}");
                    assert!(regs[r].is_none(), "rank {r} registered twice");
                    check_coll(r, reg[8]);
                    ports[r] = p as u16;
                    regs[r] = Some(s);
                    registered += 1;
                }
                let mut msg = Vec::with_capacity(size * 4);
                for p in &ports {
                    msg.extend_from_slice(&(*p as u32).to_le_bytes());
                }
                for s in regs.iter_mut().flatten() {
                    s.write_all(&msg).expect("send port table");
                }
                ports
            } else {
                let (mut s, coll0) = find_rendezvous(port);
                let mut reg = [0u8; REGISTRATION_LEN];
                reg[0..4].copy_from_slice(&(rank as u32).to_le_bytes());
                reg[4..8].copy_from_slice(&(data_port as u32).to_le_bytes());
                reg[8] = config.coll.wire_code();
                s.write_all(&reg).expect("send registration");
                check_coll(0, coll0);
                let mut table = vec![0u8; size * 4];
                s.read_exact(&mut table).expect("read port table");
                table
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u16)
                    .collect()
            };

            // Pairwise mesh: dial every lower rank (leading with our
            // id), accept every higher one. Dials complete without the
            // peer accepting (listener backlog), so the two loops
            // cannot deadlock.
            for peer in 0..rank {
                let mut s = connect_with_retry(table[peer], "a peer data listener");
                s.write_all(&(rank as u32).to_le_bytes()).expect("send rank id");
                streams[peer] = Some(s);
            }
            for _ in rank + 1..size {
                let mut s = accept_with_deadline(&data_listener, deadline, "peer connections");
                let mut id = [0u8; 4];
                s.read_exact(&mut id).expect("read peer rank id");
                let peer = u32::from_le_bytes(id) as usize;
                assert!(peer > rank && peer < size, "unexpected peer {peer} dialed rank {rank}");
                assert!(streams[peer].is_none(), "peer {peer} connected twice");
                streams[peer] = Some(s);
            }
        }

        let links = streams
            .into_iter()
            .map(|s| {
                s.map(|stream| {
                    stream.set_nodelay(true).expect("TCP_NODELAY");
                    let reader = stream.try_clone().expect("clone read half");
                    (TcpLink { stream }, reader)
                })
            })
            .collect();
        MeshComm::from_links(rank, links, config)
    }
}

/// The process-global mesh, built once from `HPGMXP_RANK` /
/// `HPGMXP_RANKS` / `HPGMXP_PORT` (the environment `hpgmxp-launch`
/// provides) and reused by every SPMD run in this process. Lives for
/// the process; the OS closes the sockets at exit.
pub fn global_from_env() -> &'static SocketComm {
    static MESH: OnceLock<SocketComm> = OnceLock::new();
    MESH.get_or_init(|| {
        SocketWorld::connect(
            launch_knob("HPGMXP_RANK"),
            launch_knob("HPGMXP_RANKS"),
            launch_knob("HPGMXP_PORT"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Comm, ReduceOp};
    use crate::launch::free_port;
    use crate::mesh::suite::{mesh_suite, TestWorld};

    impl TestWorld for TcpLink {
        type Meet = u16;

        fn fresh() -> u16 {
            free_port()
        }

        fn connect(rank: usize, size: usize, port: &u16, config: MeshConfig) -> SocketComm {
            SocketWorld::connect_with_config(rank, size, *port, config)
        }
    }

    mesh_suite!(TcpLink);

    #[test]
    fn rendezvous_skips_squatted_port() {
        // An unrelated listener owns the configured port (it accepts
        // nothing and says nothing); the rendezvous must move to the
        // next port of the scan window and the scanning rank must find
        // it there rather than crash into the squatter.
        let base = free_port();
        let _squatter = TcpListener::bind(("127.0.0.1", base)).expect("squat the base port");
        std::thread::scope(|s| {
            for rank in 0..2 {
                s.spawn(move || {
                    let c = SocketWorld::connect_with_config(rank, 2, base, MeshConfig::default());
                    assert_eq!(c.allreduce_scalar(1.0, ReduceOp::Sum), 2.0);
                });
            }
        });
    }
}
