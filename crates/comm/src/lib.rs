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
//!   all-reduce, barrier — each returning a typed [`CommResult`] — plus
//!   [`SelfComm`], the trivial single-rank world;
//! * [`thread_world`] — [`ThreadWorld`]: a world of `P` ranks backed by
//!   OS threads and condvar-signalled mailboxes with pooled message
//!   buffers (allocation-free at steady state), with MPI-like per-pair
//!   FIFO ordering;
//! * [`mesh`] — [`MeshComm`]: a rank *process*'s endpoint in a framed
//!   mesh over any per-peer byte pipe ([`mesh::Link`]): the [`frame`]d
//!   wire protocol, per-peer recycled receive pools, the
//!   ledger-flushing barrier, heartbeats, and wire-fault injection,
//!   written once (ranks are started by the `hpgmxp-launch` binary);
//! * [`shmem_world`] — [`ShmemWorld`]: the mesh over per-pair mmap'd
//!   ring buffers in `/dev/shm` (rendezvous + `RingLink`), the one
//!   link a launched rank process meshes over — no kernel on the data
//!   path;
//! * [`collectives`] — the shared collective engine: recursive-doubling
//!   allreduce/barrier/allgather written against the fallible
//!   point-to-point ops, folding in rank order so results are
//!   bit-identical across transports, with per-endpoint traffic
//!   counters;
//! * [`world`] — transport selection: [`run_spmd`] runs thread ranks,
//!   or, in a process `hpgmxp-launch` started (`HPGMXP_SHM_ID` set),
//!   this process's rank of the shmem mesh, and hands the closure a
//!   [`WorldComm`] over that backend;
//! * [`halo`] — the halo exchange engine built on a geometric
//!   [`hpgmxp_geometry::HaloPlan`]: persistent per-neighbor staging
//!   buffers sized once from the plan, and the type-state
//!   **begin/finish** split ([`halo::ActiveExchange`]) used to overlap
//!   interior computation with communication (§3.2.3 of the paper);
//! * [`timeline`] — the per-solve ledger of per-exchange
//!   [`timeline::OverlapRecord`]s behind the measured
//!   `overlap_efficiency()` of figure 9 (the compute/pack/send/wait
//!   spans themselves go to the [`hpgmxp_trace`] recorder).
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
pub mod thread_world;
pub mod timeline;
pub mod world;

/// Serializes the comm tests that arm the process-global span ring
/// through [`hpgmxp_trace::set_mode_override`]: the test binary runs
/// tests on parallel threads, and one test disarming the ring would
/// cut short the spans of another.
#[cfg(test)]
pub(crate) fn trace_mode_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

pub use collectives::{rd_rounds, CollStats};
pub use comm::{Comm, RecvPost, ReduceOp, SelfComm};
pub use error::{CommError, CommErrorKind, CommResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultyComm};
pub use halo::{ActiveExchange, HaloExchange};
pub use mesh::{MeshComm, MeshConfig};
pub use shmem_world::{ShmemComm, ShmemWorld};
pub use thread_world::{run_threads, run_threads_fallible, ThreadComm, ThreadWorld};
pub use timeline::{OverlapRecord, Timeline};
pub use world::{launched_world_size, run_spmd, Transport, WorldComm};
