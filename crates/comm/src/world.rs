//! Transport selection: how the process was started decides it.
//!
//! Every figure binary, campaign cell, and integration suite runs its
//! SPMD closure through [`run_spmd`], which picks the backend from the
//! environment `hpgmxp-launch` sets:
//!
//! * a process the launcher did not start — [`crate::thread_world`]:
//!   all ranks are threads of this process, results for every rank
//!   come back in rank order. No external launcher needed;
//!   `HPGMXP_RANKS` alone only sizes such a world.
//! * a process the launcher started (`HPGMXP_SHM_ID` set, alongside
//!   `HPGMXP_RANK`/`HPGMXP_RANKS`) — [`crate::shmem_world`]: this
//!   process *is* one rank of a same-host job exchanging frames
//!   through mmap'd `/dev/shm` ring buffers. The closure runs once on
//!   the process-global mesh and [`run_spmd`] returns a
//!   **single-element** vector holding this rank's result — code that
//!   wants per-rank results must gather them itself (or allreduce, as
//!   the solver history already does).
//!
//! The closure receives a [`WorldComm`], an enum over the concrete
//! backends, so solver code stays generic over [`Comm`] and never
//! names a transport.

use crate::collectives::CollStats;
use crate::comm::{Comm, RecvPost, ReduceOp};
use crate::error::CommResult;
use crate::shmem_world::{self, ShmemComm};
use crate::thread_world::{run_threads, ThreadComm};

/// Which transport [`run_spmd`] runs over in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Thread-ranks in one process (any process the launcher did not
    /// start).
    Thread,
    /// Same-host process-ranks over mmap'd `/dev/shm` rings, launched
    /// by `hpgmxp-launch`.
    Shmem,
}

impl Transport {
    /// `Shmem` in a process `hpgmxp-launch` started (it sets
    /// `HPGMXP_SHM_ID`), `Thread` otherwise.
    pub fn from_env() -> Transport {
        if std::env::var_os("HPGMXP_SHM_ID").is_some() {
            Transport::Shmem
        } else {
            Transport::Thread
        }
    }

    /// Stable lowercase name (report fields, log lines).
    pub fn name(self) -> &'static str {
        match self {
            Transport::Thread => "thread",
            Transport::Shmem => "shmem",
        }
    }
}

/// The rank count a launched process must use, if this process is one
/// rank of a multi-process world. Binaries that sweep over world sizes
/// clamp their sweep to this in a launched rank — the mesh is fixed at
/// launch.
pub fn launched_world_size() -> Option<usize> {
    if Transport::from_env() == Transport::Thread {
        return None;
    }
    crate::mesh::env_knob("HPGMXP_RANKS")
}

/// A rank endpoint of whichever transport [`run_spmd`] selected.
pub enum WorldComm {
    /// Thread-rank of an in-process world.
    Thread(ThreadComm),
    /// Process-rank of a shared-memory mesh.
    Shmem(ShmemComm),
}

impl WorldComm {
    /// Which transport this endpoint belongs to.
    pub fn transport(&self) -> Transport {
        match self {
            WorldComm::Thread(_) => Transport::Thread,
            WorldComm::Shmem(_) => Transport::Shmem,
        }
    }

    /// Grow the transport's recycled buffers to at least
    /// `min_capacity` so the steady state is deterministically
    /// allocation-free (see the backend docs). Call while no messages
    /// are in flight.
    pub fn prewarm_pool(&self, min_capacity: usize) {
        match self {
            WorldComm::Thread(c) => c.prewarm_pool(min_capacity),
            WorldComm::Shmem(c) => c.prewarm_pool(min_capacity),
        }
    }
}

impl Comm for WorldComm {
    fn rank(&self) -> usize {
        match self {
            WorldComm::Thread(c) => c.rank(),
            WorldComm::Shmem(c) => c.rank(),
        }
    }

    fn size(&self) -> usize {
        match self {
            WorldComm::Thread(c) => c.size(),
            WorldComm::Shmem(c) => c.size(),
        }
    }

    fn send_from(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()> {
        match self {
            WorldComm::Thread(c) => c.send_from(to, tag, bytes),
            WorldComm::Shmem(c) => c.send_from(to, tag, bytes),
        }
    }

    fn recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()> {
        match self {
            WorldComm::Thread(c) => c.recv_into(from, tag, out),
            WorldComm::Shmem(c) => c.recv_into(from, tag, out),
        }
    }

    fn try_recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> bool {
        match self {
            WorldComm::Thread(c) => c.try_recv_into(from, tag, out),
            WorldComm::Shmem(c) => c.try_recv_into(from, tag, out),
        }
    }

    fn wait_any<'p>(
        &self,
        posts: &mut [Option<RecvPost<'p>>],
    ) -> CommResult<Option<(usize, RecvPost<'p>)>> {
        match self {
            WorldComm::Thread(c) => c.wait_any(posts),
            WorldComm::Shmem(c) => c.wait_any(posts),
        }
    }

    fn allreduce_checked(&self, vals: &mut [f64], op: ReduceOp) -> CommResult<()> {
        match self {
            WorldComm::Thread(c) => c.allreduce_checked(vals, op),
            WorldComm::Shmem(c) => c.allreduce_checked(vals, op),
        }
    }

    fn barrier(&self) -> CommResult<()> {
        match self {
            WorldComm::Thread(c) => c.barrier(),
            WorldComm::Shmem(c) => c.barrier(),
        }
    }

    fn coll_stats(&self) -> Option<CollStats> {
        match self {
            WorldComm::Thread(c) => c.coll_stats(),
            WorldComm::Shmem(c) => c.coll_stats(),
        }
    }
}

/// Run `f` as an SPMD job of `size` ranks over this process's
/// transport (see the module docs for the two and their return-value
/// shapes). In a launched rank `size` must match the launched mesh — a
/// mismatch is a configuration error and panics with the fix.
pub fn run_spmd<T, F>(size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(WorldComm) -> T + Sync,
{
    match Transport::from_env() {
        Transport::Thread => {
            // All ranks are threads of this process sharing one global
            // recorder; flush it as rank 0 when the job returns (or
            // unwinds), so `HPGMXP_TRACE_DIR` runs leave a trace file
            // behind under every transport.
            let _trace = hpgmxp_trace::FlushGuard::new(0);
            run_threads(size, |c| f(WorldComm::Thread(c)))
        }
        Transport::Shmem => {
            // Run `f` once on this process's rank of the launched mesh,
            // then flush and drain so one run's messages cannot leak
            // into the next on the reused process-global mesh.
            let mesh = shmem_world::global_from_env();
            let _trace = hpgmxp_trace::FlushGuard::new(mesh.rank() as u32);
            assert_eq!(
                mesh.size(),
                size,
                "the launched mesh has {} ranks but this run wants {size} — start it as \
                 `hpgmxp-launch -n {size} -- ...`",
                mesh.size()
            );
            let result = f(WorldComm::Shmem(mesh.clone()));
            if let Err(e) = mesh.quiesce() {
                panic!("flushing the mesh after the run: {e}");
            }
            vec![result]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-driven dispatch is exercised by the launched integration
    // jobs; in-process tests only pin the default and the names
    // (mutating HPGMXP_SHM_ID here would race other tests in this
    // binary).

    #[test]
    fn thread_is_the_default_transport() {
        if std::env::var_os("HPGMXP_SHM_ID").is_none() {
            assert_eq!(Transport::from_env(), Transport::Thread);
            assert_eq!(launched_world_size(), None);
        }
    }

    #[test]
    fn transport_names_are_stable() {
        assert_eq!(Transport::Thread.name(), "thread");
        assert_eq!(Transport::Shmem.name(), "shmem");
    }

    #[test]
    fn run_spmd_defaults_to_thread_ranks() {
        if std::env::var_os("HPGMXP_SHM_ID").is_some() {
            return; // running as a launched rank process
        }
        let results = run_spmd(3, |c| {
            assert_eq!(c.transport(), Transport::Thread);
            c.allreduce_scalar(1.0, ReduceOp::Sum).unwrap()
        });
        assert_eq!(results, vec![3.0, 3.0, 3.0]);
    }
}
