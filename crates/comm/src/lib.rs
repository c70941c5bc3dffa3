//! SPMD message-passing substrate — the MPI stand-in.
//!
//! The paper's benchmark runs one MPI rank per GPU compute die and
//! communicates through tagged point-to-point messages (halo exchange
//! with up to 26 neighbors) and global all-reduces (the inner products
//! of GMRES). This crate reproduces that execution model in-process:
//!
//! * [`comm`] — the [`Comm`] trait (v2) every solver is written
//!   against, with the exact operation set the benchmark needs: tagged
//!   nonblocking sends out of caller buffers (`send_from`), posted
//!   receives into caller buffers (`recv_into`), an any-neighbor
//!   completion wait (`wait_any`, the `MPI_Waitany` pattern),
//!   all-reduce, barrier — plus [`SelfComm`], the trivial single-rank
//!   world;
//! * [`thread_world`] — [`ThreadWorld`]: a world of `P` ranks backed by
//!   OS threads and condvar-signalled mailboxes with pooled message
//!   buffers (allocation-free at steady state), with MPI-like per-pair
//!   FIFO ordering;
//! * [`mesh`] — [`MeshComm`]: a rank *process*'s endpoint in a framed
//!   mesh over any per-peer byte pipe ([`mesh::Link`]): the [`frame`]d
//!   wire protocol, per-peer recycled receive pools, the
//!   ledger-flushing barrier, heartbeats, and wire-fault injection,
//!   written once (ranks are started by the `hpgmxp-launch` binary);
//! * [`socket_world`] — [`SocketWorld`]: the mesh over localhost TCP
//!   (rendezvous + `TcpLink`);
//! * [`shmem_world`] — [`ShmemWorld`]: the mesh over per-pair mmap'd
//!   ring buffers in `/dev/shm` (rendezvous + `RingLink`) — no kernel
//!   socket on the data path;
//! * [`collectives`] — the shared collective engine: star and
//!   recursive-doubling allreduce/barrier/allgather written against
//!   checked point-to-point ops, bit-identical across algorithms and
//!   transports, with per-endpoint traffic counters. The algorithm is
//!   a property of each world, fixed at construction
//!   (`HPGMXP_COLL=star|rd` by default);
//! * [`world`] — transport selection: [`run_spmd`] reads
//!   `HPGMXP_COMM=thread|socket|shmem` once and hands the closure a
//!   [`WorldComm`] over whichever backend it picked;
//! * [`halo`] — the halo exchange engine built on a geometric
//!   [`hpgmxp_geometry::HaloPlan`]: persistent per-neighbor staging
//!   buffers sized once from the plan, and the type-state
//!   **begin/finish** split ([`halo::ActiveExchange`]) used to overlap
//!   interior computation with communication (§3.2.3 of the paper);
//! * [`timeline`] — a lightweight event recorder that timestamps
//!   compute/pack/send/wait intervals and per-exchange
//!   [`timeline::OverlapRecord`]s, the source of the rocprof-style
//!   traces of figure 9 and the measured `overlap_efficiency()`.
//!
//! The substitution argument (see DESIGN.md): solvers written against
//! [`Comm`] perform the same message pattern, volume, and ordering as
//! the MPI original; only the transport (channels vs. NIC) differs.

pub mod collectives;
pub mod comm;
pub mod error;
pub mod fault;
pub mod frame;
pub mod halo;
pub mod launch;
mod mailbox;
pub mod mesh;
pub mod shmem_world;
pub mod socket_world;
pub mod thread_world;
pub mod timeline;
pub mod world;

pub use collectives::{rd_rounds, CollAlgo, CollStats};
pub use comm::{Comm, RecvPost, ReduceOp, SelfComm};
pub use error::{CommError, CommErrorKind, CommResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultyComm};
pub use halo::{ActiveExchange, HaloExchange};
pub use mesh::{MeshComm, MeshConfig};
pub use shmem_world::{ShmemComm, ShmemWorld};
pub use socket_world::{SocketComm, SocketWorld};
pub use thread_world::{run_threads, run_threads_fallible, ThreadComm, ThreadWorld};
pub use timeline::{OverlapRecord, Stream, Timeline, TimelineEvent};
pub use world::{run_spmd, socket_world_size, Transport, WorldComm};
