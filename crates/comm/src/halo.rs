//! Halo exchange execution over a [`Comm`].
//!
//! The geometric plan ([`hpgmxp_geometry::HaloPlan`]) says *what* to
//! exchange; this module actually moves the data. Two interfaces are
//! provided, mirroring the two code paths in the paper:
//!
//! * [`HaloExchange::exchange_wire_checked`] — the blocking pattern of
//!   the reference implementation (pack, send, receive, unpack, then
//!   compute);
//! * [`HaloExchange::begin`] / [`ActiveExchange::finish`] — the
//!   split-phase pattern of the optimized implementation (§3.2.3): after
//!   `begin`, the caller updates interior rows while messages are in
//!   flight, and calls `finish` before touching boundary rows. The
//!   sequencing constraint the paper implements with a GPU event —
//!   "the interior kernel may only start after boundary entries have
//!   been packed" — is satisfied structurally here because `begin`
//!   returns only after packing.
//!
//! The engine is **allocation-free at steady state**: every neighbor
//! has owned send/recv staging buffers sized once (at the widest
//! precision) from the plan, and the transport copies through pooled
//! backend storage. `begin` returns a type-state [`ActiveExchange`]
//! handle that `finish` consumes — calling `finish` without `begin` is
//! a compile error, and a second `begin` while one exchange is active
//! panics immediately instead of corrupting the staging buffers.
//! `finish` drains neighbors in *arrival order* ([`Comm::wait_any`])
//! and unpacks each message while later ones are still in flight,
//! recording a per-exchange [`OverlapRecord`] so the hidden/exposed
//! split of figure 9 is measured, not assumed.
//!
//! Message volume halves in `f32` (quarters in `f16`), which is
//! precisely the halo-traffic benefit the mixed-precision solver
//! enjoys.

use crate::comm::{unpack_wire, Comm, RecvPost};
use crate::error::CommResult;
use crate::timeline::{OverlapRecord, Timeline};
use hpgmxp_geometry::HaloPlan;
use hpgmxp_sparse::Scalar;
use hpgmxp_trace::Lane;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::MutexGuard;
use std::time::Instant;

/// Upper bound on halo neighbors of a 27-point stencil rank, used to
/// size the stack-allocated receive-post array in `finish`.
const MAX_NEIGHBORS: usize = 26;

/// Widest scalar that travels through a halo (f64): staging buffers are
/// sized once for it so every precision reuses them without growing.
const MAX_SCALAR_BYTES: usize = 8;

/// Per-neighbor persistent staging storage, sized at construction.
#[derive(Debug)]
struct HaloBufs {
    /// One send staging buffer per neighbor (capacity `count * 8`).
    send: Vec<Vec<u8>>,
    /// One receive staging buffer per neighbor (capacity `count * 8`).
    recv: Vec<Vec<u8>>,
}

impl HaloBufs {
    fn sized_for(plan: &HaloPlan, max_wire_bytes: usize) -> Self {
        let cap =
            |n: &hpgmxp_geometry::Neighbor| Vec::with_capacity(n.staging_bytes(max_wire_bytes));
        HaloBufs {
            send: plan.neighbors.iter().map(cap).collect(),
            recv: plan.neighbors.iter().map(cap).collect(),
        }
    }
}

/// Executor for one level's halo exchange, with owned per-neighbor
/// staging buffers.
#[derive(Debug)]
pub struct HaloExchange {
    plan: HaloPlan,
    n_local: usize,
    bufs: Mutex<HaloBufs>,
}

impl Clone for HaloExchange {
    /// Cloning re-derives fresh staging buffers from the plan; an
    /// in-flight exchange is never cloned into the copy.
    fn clone(&self) -> Self {
        HaloExchange::new(self.plan.clone())
    }
}

impl HaloExchange {
    /// Wrap a geometric plan, sizing the persistent staging buffers
    /// once (at the widest precision) from its neighbor counts.
    pub fn new(plan: HaloPlan) -> Self {
        Self::new_sized(plan, MAX_SCALAR_BYTES)
    }

    /// Wrap a plan with staging buffers sized for a policy-chosen
    /// widest wire scalar: a level whose exchanges never travel wider
    /// than `max_wire_bytes` (e.g. a coarse level used only by an
    /// fp16-wire inner solve) reserves proportionally less staging
    /// memory. Exceeding the reservation later is not unsound — the
    /// `Vec`s grow — but it forfeits the zero-allocation steady state.
    pub fn new_sized(plan: HaloPlan, max_wire_bytes: usize) -> Self {
        let n_local = plan.n_local();
        let bufs = Mutex::new(HaloBufs::sized_for(&plan, max_wire_bytes));
        HaloExchange { plan, n_local, bufs }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &HaloPlan {
        &self.plan
    }

    /// Owned entries per vector; ghosts start at this offset.
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Ghost entries appended to each distributed vector.
    pub fn num_ghosts(&self) -> usize {
        self.plan.num_ghosts
    }

    /// Remap the send lists after a symmetric reordering of the local
    /// rows (the multicolor ordering of §3.2.1 changes which local slot
    /// holds each boundary point; the wire order is unchanged).
    pub fn remap_send_indices(&mut self, perm: &hpgmxp_sparse::Permutation) {
        for nbr in &mut self.plan.neighbors {
            perm.remap_indices(&mut nbr.send_indices);
        }
    }

    /// Pack boundary values of `x` into the persistent staging buffers
    /// and send them to every neighbor (non-blocking transport; the
    /// backend copies out of the staging buffers before returning).
    ///
    /// The ghost **wire format** is chosen at runtime, independently of
    /// the compute scalar `S` (the precision policy's wire axis):
    /// boundary values are rounded to `wire_bytes`-wide wire scalars
    /// during the pack, and `finish` widens arriving ghosts back into
    /// `S`. `wire_bytes == S::BYTES` is the native exchange.
    ///
    /// Returns the type-state handle for this exchange: interior
    /// compute may run while it is alive, and [`ActiveExchange::finish`]
    /// consumes it to scatter the arriving ghosts. Beginning a second
    /// exchange on the same `HaloExchange` while a handle is alive is a
    /// usage error and panics. A transport fault is returned with the
    /// staging-buffer lock released, so a caller that recovers can
    /// begin a fresh exchange.
    pub fn begin<'a, S: Scalar, C: Comm>(
        &'a self,
        comm: &C,
        tag: u64,
        x: &[S],
        wire_bytes: usize,
        tl: &Timeline,
    ) -> CommResult<ActiveExchange<'a, S>> {
        assert!(x.len() >= self.n_local + self.num_ghosts());
        let mut bufs = self
            .bufs
            .try_lock()
            .expect("halo begin() while a previous exchange on this level is still active");
        // Untraced exchanges (the production hot path) skip every clock
        // read; the timing bookkeeping exists only for overlap records.
        let traced = tl.is_traced();
        let mut pack_secs = 0.0;
        let mut bytes_sent = 0usize;
        for (nbr, buf) in self.plan.neighbors.iter().zip(bufs.send.iter_mut()) {
            let t0 = traced.then(Instant::now);
            {
                let _pack_span = hpgmxp_trace::span("halo pack", Lane::Halo);
                pack_gather_into(x, &nbr.send_indices, wire_bytes, buf);
            }
            if let Some(t0) = t0 {
                pack_secs += t0.elapsed().as_secs_f64();
            }
            let _send_span = hpgmxp_trace::span("halo send", Lane::Comm);
            comm.send_from(nbr.rank as usize, tag, buf)?;
            bytes_sent += buf.len();
        }
        Ok(ActiveExchange {
            hx: self,
            bufs,
            tag,
            wire_bytes,
            pack_secs,
            bytes_sent,
            begin_end: traced.then(Instant::now),
            _precision: PhantomData,
        })
    }

    /// Blocking exchange: `begin` immediately followed by `finish`
    /// (the reference implementation's non-overlapped pattern, §3.1),
    /// panicking on a fault. Pinned by the benchmark adapter, which
    /// calls this form; everything else calls
    /// [`HaloExchange::exchange_wire_checked`].
    pub fn exchange_wire<S: Scalar, C: Comm>(
        &self,
        comm: &C,
        tag: u64,
        x: &mut [S],
        wire_bytes: usize,
        tl: &Timeline,
    ) {
        self.exchange_wire_checked(comm, tag, x, wire_bytes, tl).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocking exchange at an explicit wire width (see
    /// [`HaloExchange::begin`]) that reports transport faults.
    pub fn exchange_wire_checked<S: Scalar, C: Comm>(
        &self,
        comm: &C,
        tag: u64,
        x: &mut [S],
        wire_bytes: usize,
        tl: &Timeline,
    ) -> CommResult<()> {
        self.begin(comm, tag, x, wire_bytes, tl)?.finish(comm, x, tl)
    }

    /// Values sent per exchange (per rank), for communication-volume
    /// accounting.
    pub fn send_volume(&self) -> usize {
        self.plan.send_volume()
    }

    /// Bytes sent per exchange at precision `S` — the same number the
    /// timeline records on the wire and the network model charges
    /// (`halo_values × S::BYTES`), so figure 9 and the roofline use one
    /// accounting.
    pub fn send_bytes<S: Scalar>(&self) -> usize {
        self.plan.send_volume_bytes(S::BYTES)
    }

    /// Bytes sent per exchange at a runtime-chosen wire width —
    /// `send_volume × wire_bytes`, the quantity a wire-precision policy
    /// shrinks and the policy-aware network model charges.
    pub fn send_bytes_wire(&self, wire_bytes: usize) -> usize {
        self.plan.send_volume_bytes(wire_bytes)
    }
}

/// Type-state handle of an in-flight split-phase exchange at precision
/// `S`, returned by [`HaloExchange::begin`] and consumed by
/// [`ActiveExchange::finish`]. Holding it is holding the level's
/// staging buffers: misuse (finish-without-begin, double-finish) is a
/// compile error, and begin-while-active panics at the `begin` call.
#[must_use = "an exchange left unfinished strands neighbor messages; call finish()"]
pub struct ActiveExchange<'a, S: Scalar> {
    hx: &'a HaloExchange,
    bufs: MutexGuard<'a, HaloBufs>,
    tag: u64,
    /// Wire width of this exchange's ghost payloads (2/4/8).
    wire_bytes: usize,
    pack_secs: f64,
    bytes_sent: usize,
    /// When `begin` returned; `None` when the exchange is untraced.
    begin_end: Option<Instant>,
    _precision: PhantomData<fn(S)>,
}

impl<S: Scalar> ActiveExchange<'_, S> {
    /// Message tag of this exchange.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Receive from every neighbor — in whatever order the messages
    /// land — and scatter each into the ghost region of `x` while later
    /// messages are still in flight. Records an [`OverlapRecord`] on
    /// the timeline. A transport fault (a dead or hung neighbor, a
    /// corrupt frame) is returned; the handle is consumed either way,
    /// so the staging buffers are free for a post-recovery exchange.
    pub fn finish<C: Comm>(mut self, comm: &C, x: &mut [S], tl: &Timeline) -> CommResult<()> {
        let hx = self.hx;
        assert!(x.len() >= hx.n_local + hx.num_ghosts());
        let window = self.begin_end.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let traced = self.begin_end.is_some();

        let nbrs = &hx.plan.neighbors;
        assert!(nbrs.len() <= MAX_NEIGHBORS);
        let mut posts: [Option<RecvPost>; MAX_NEIGHBORS] = [const { None }; MAX_NEIGHBORS];
        for (slot, (nbr, buf)) in nbrs.iter().zip(self.bufs.recv.iter_mut()).enumerate() {
            buf.resize(nbr.count as usize * self.wire_bytes, 0);
            posts[slot] = Some(RecvPost::new(nbr.rank as usize, self.tag, buf));
        }

        let mut wire_wait = 0.0;
        let mut unpack_secs = 0.0;
        let mut bytes_received = 0usize;
        loop {
            let t0 = traced.then(Instant::now);
            let completed = {
                let _wait_span = hpgmxp_trace::span("halo wait", Lane::Comm);
                comm.wait_any(&mut posts[..nbrs.len()])?
            };
            let Some((slot, post)) = completed else { break };
            let t1 = t0.map(|t0| {
                let t1 = Instant::now();
                wire_wait += (t1 - t0).as_secs_f64();
                t1
            });
            let _unpack_span = hpgmxp_trace::span("halo unpack", Lane::Copy);
            let nbr = &nbrs[slot];
            let start = hx.n_local + nbr.recv_start as usize;
            unpack_wire(post.buf, self.wire_bytes, &mut x[start..start + nbr.count as usize]);
            bytes_received += post.buf.len();
            if let Some(t1) = t1 {
                unpack_secs += t1.elapsed().as_secs_f64();
            }
        }

        if traced {
            tl.add_overlap(OverlapRecord {
                tag: self.tag,
                bytes_sent: self.bytes_sent,
                bytes_received,
                pack: self.pack_secs,
                window,
                wire_wait,
                unpack: unpack_secs,
            });
        }
        // Dropping `self` releases the staging buffers for the next
        // exchange on this level.
        Ok(())
    }
}

/// Gather `x[indices]` into `buf` through the one wire encoder
/// ([`crate::comm::encode_slice_wire_append`], also behind `pack`, so
/// send packing can never desynchronize from setup-path packing),
/// rounding each value to the exchange's wire width. Indices are gathered into a stack-resident staging chunk so
/// the wire conversion runs through the batch (SIMD) converters.
/// `buf` is cleared first; with the staging capacity reserved at
/// construction this never allocates.
fn pack_gather_into<S: Scalar>(x: &[S], indices: &[u32], wire_bytes: usize, buf: &mut Vec<u8>) {
    const CHUNK: usize = 256;
    buf.clear();
    buf.reserve(indices.len() * wire_bytes);
    let mut stage = [S::ZERO; CHUNK];
    for idx in indices.chunks(CHUNK) {
        for (s, &i) in stage.iter_mut().zip(idx.iter()) {
            *s = x[i as usize];
        }
        crate::comm::encode_slice_wire_append(&stage[..idx.len()], wire_bytes, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_world::run_threads as run_spmd;
    use hpgmxp_geometry::{HaloPlan, LocalGrid, ProcGrid};

    /// Build the canonical distributed test vector: every owned entry
    /// holds its own *global* index, so after an exchange each ghost
    /// slot must hold the global index of the remote point it mirrors.
    fn global_id_vector(lg: &LocalGrid, num_ghosts: usize) -> Vec<f64> {
        let g = lg.global();
        let mut x = vec![-1.0; lg.total_points() + num_ghosts];
        for (idx, xi) in x[..lg.total_points()].iter_mut().enumerate() {
            let (ix, iy, iz) = lg.coords(idx);
            let (gx, gy, gz) = lg.to_global(ix, iy, iz);
            *xi = g.index(gx, gy, gz) as f64;
        }
        x
    }

    fn check_ghosts(lg: &LocalGrid, plan: &HaloPlan, x: &[f64]) {
        let g = lg.global();
        let n = lg.total_points();
        let (nx, ny, nz) = (lg.nx as i64, lg.ny as i64, lg.nz as i64);
        let (bx, by, bz) = lg.base();
        for ez in -1..=nz {
            for ey in -1..=ny {
                for ex in -1..=nx {
                    if let Some(gid) = plan.ghost_index(ex, ey, ez) {
                        let (gx, gy, gz) = (bx as i64 + ex, by as i64 + ey, bz as i64 + ez);
                        assert!(g.contains(gx, gy, gz));
                        let expect = g.index(gx as u64, gy as u64, gz as u64) as f64;
                        assert_eq!(
                            x[n + gid],
                            expect,
                            "ghost at ({ex},{ey},{ez}) on rank {:?}",
                            lg.rank_coords
                        );
                    }
                }
            }
        }
    }

    fn exchange_world(procs: ProcGrid, n: u32) {
        let p = procs.size() as usize;
        run_spmd(p, move |c| {
            let lg = LocalGrid::new((n, n, n), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let mut x = global_id_vector(&lg, hx.num_ghosts());
            let tl = Timeline::disabled();
            hx.exchange_wire_checked(&c, 0, &mut x, f64::BYTES, &tl).unwrap();
            check_ghosts(&lg, hx.plan(), &x);
        });
    }

    #[test]
    fn exchange_2_ranks() {
        exchange_world(ProcGrid::new(2, 1, 1), 3);
    }

    #[test]
    fn exchange_8_ranks_cube() {
        exchange_world(ProcGrid::new(2, 2, 2), 4);
    }

    #[test]
    fn exchange_27_ranks_cube() {
        exchange_world(ProcGrid::new(3, 3, 3), 2);
    }

    #[test]
    fn exchange_anisotropic_grid() {
        exchange_world(ProcGrid::new(4, 2, 1), 2);
    }

    #[test]
    fn split_phase_matches_blocking() {
        let procs = ProcGrid::new(2, 2, 1);
        run_spmd(4, move |c| {
            let lg = LocalGrid::new((4, 4, 4), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let tl = Timeline::disabled();

            let mut x1 = global_id_vector(&lg, hx.num_ghosts());
            hx.exchange_wire_checked(&c, 1, &mut x1, f64::BYTES, &tl).unwrap();

            let mut x2 = global_id_vector(&lg, hx.num_ghosts());
            let active = hx.begin(&c, 2, &x2, f64::BYTES, &tl).unwrap();
            // Simulated interior work between the phases.
            std::hint::black_box(x2.iter().sum::<f64>());
            active.finish(&c, &mut x2, &tl).unwrap();

            assert_eq!(x1, x2);
        });
    }

    #[test]
    fn repeated_exchanges_reuse_buffers_across_precisions() {
        // f64 then f32 then f64 again through the same staging buffers;
        // every exchange must deliver correct ghosts.
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let lg = LocalGrid::new((3, 3, 3), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let tl = Timeline::disabled();
            for round in 0..5u64 {
                let mut x = global_id_vector(&lg, hx.num_ghosts());
                hx.exchange_wire_checked(&c, round * 2, &mut x, f64::BYTES, &tl).unwrap();
                check_ghosts(&lg, hx.plan(), &x);

                let n = lg.total_points();
                let mut x32 = vec![0.0f32; n + hx.num_ghosts()];
                for (i, v) in x32[..n].iter_mut().enumerate() {
                    *v = (c.rank() * 1000 + i) as f32;
                }
                hx.exchange_wire_checked(&c, round * 2 + 1, &mut x32, f32::BYTES, &tl).unwrap();
                let expect_base = if c.rank() == 0 { 1000.0 } else { 0.0 };
                // +x face of rank 0 is x=2 column: indices 2,5,8,...
                // -x face of rank 1 is x=0 column: indices 0,3,6,...
                let ghost0 = x32[n];
                if c.rank() == 1 {
                    assert_eq!(ghost0, expect_base + 2.0);
                } else {
                    assert_eq!(ghost0, expect_base);
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "still active")]
    fn begin_while_active_panics() {
        // Single-rank world: no neighbors, so begin packs nothing, but
        // the staging-buffer lock is still held by the live handle.
        let lg = LocalGrid::new((2, 2, 2), ProcGrid::new(1, 1, 1), 0);
        let hx = HaloExchange::new(HaloPlan::build(&lg));
        let tl = Timeline::disabled();
        let c = crate::comm::SelfComm;
        let x = vec![0.0f64; lg.total_points()];
        let _active = hx.begin(&c, 0, &x, f64::BYTES, &tl).unwrap();
        let _second = hx.begin(&c, 1, &x, f64::BYTES, &tl).unwrap(); // must panic
    }

    #[test]
    fn a_failed_finish_releases_the_staging_buffers() {
        // Rank 1 crashes before its first exchange, so rank 0's
        // `finish` waits on a dead peer.
        use crate::error::CommErrorKind;
        use crate::thread_world::run_threads_fallible;
        let procs = ProcGrid::new(2, 1, 1);
        let deadline = Some(std::time::Duration::from_secs(10));
        let results = run_threads_fallible(2, deadline, move |c| {
            if c.rank() == 1 {
                panic!("rank 1 crashes before its first exchange");
            }
            let lg = LocalGrid::new((2, 2, 2), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let tl = Timeline::disabled();
            let mut x = global_id_vector(&lg, hx.num_ghosts());
            let active = hx.begin(&c, 0, &x, f64::BYTES, &tl).expect("sends are buffered");
            let err = active.finish(&c, &mut x, &tl).expect_err("the peer crashed");
            // A recovering caller begins again on the same level: the
            // failed `finish` must have released the staging lock.
            let again = hx.begin(&c, 1, &x, f64::BYTES, &tl);
            (err.kind, again.is_ok())
        });
        assert!(results[1].is_err(), "rank 1 must have crashed");
        let (kind, began) = results[0].as_ref().expect("rank 0 must not panic");
        assert!(
            matches!(kind, CommErrorKind::PeerLost | CommErrorKind::PeerClosed),
            "unexpected fault kind {kind:?}"
        );
        assert!(began, "the second begin reached the transport");
    }

    #[test]
    fn f32_exchange_delivers_values() {
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let lg = LocalGrid::new((2, 2, 2), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let n = lg.total_points();
            let mut x = vec![0.0f32; n + hx.num_ghosts()];
            for (i, v) in x[..n].iter_mut().enumerate() {
                *v = (c.rank() * 100 + i) as f32;
            }
            let tl = Timeline::disabled();
            hx.exchange_wire_checked(&c, 0, &mut x, f32::BYTES, &tl).unwrap();
            // Rank 0's +x face is its x=1 column: local indices 1,3,5,7
            // → values 1,3,5,7 (+100 on rank 1's side).
            if c.rank() == 1 {
                assert_eq!(&x[n..n + 4], &[1.0, 3.0, 5.0, 7.0]);
            } else {
                assert_eq!(&x[n..n + 4], &[100.0, 102.0, 104.0, 106.0]);
            }
        });
    }

    #[test]
    fn f16_exchange_delivers_values() {
        use hpgmxp_sparse::Half;
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let lg = LocalGrid::new((2, 2, 2), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let n = lg.total_points();
            let mut x = vec![Half::from_f32(0.0); n + hx.num_ghosts()];
            for (i, v) in x[..n].iter_mut().enumerate() {
                *v = Half::from_f32((c.rank() * 100 + i) as f32);
            }
            let tl = Timeline::disabled();
            hx.exchange_wire_checked(&c, 0, &mut x, Half::BYTES, &tl).unwrap();
            let got: Vec<f32> = x[n..n + 4].iter().map(|h| h.to_f32()).collect();
            if c.rank() == 1 {
                assert_eq!(got, vec![1.0, 3.0, 5.0, 7.0]);
            } else {
                assert_eq!(got, vec![100.0, 102.0, 104.0, 106.0]);
            }
        });
    }

    #[test]
    fn fp16_wire_under_f64_compute_rounds_ghosts() {
        // The wire axis decoupled from compute: f64 vectors, 2-byte
        // ghosts. Received ghosts equal the fp16 rounding of the
        // sender's values, at a quarter of the f64 wire volume.
        use hpgmxp_sparse::half::f16_bits_to_f32;
        use hpgmxp_sparse::half::f32_to_f16_bits;
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let lg = LocalGrid::new((3, 3, 3), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let n = lg.total_points();
            let mut x = vec![0.0f64; n + hx.num_ghosts()];
            for (i, v) in x[..n].iter_mut().enumerate() {
                *v = 0.1 + (c.rank() * 100 + i) as f64 * 0.01;
            }
            let sent: Vec<f64> = x[..n].to_vec();
            let tl = Timeline::disabled();
            hx.exchange_wire(&c, 0, &mut x, 2, &tl);
            // Ghost 0 mirrors the peer's first boundary point; +x face
            // of rank 0 is column x=2 (local index 2), -x face of rank
            // 1 is column x=0 (local index 0).
            let peer_first = if c.rank() == 0 {
                // our ghost mirrors rank 1's x=0 column, index 0
                0.1 + (100) as f64 * 0.01
            } else {
                0.1 + 2.0 * 0.01
            };
            let expect = f16_bits_to_f32(f32_to_f16_bits(peer_first as f32)) as f64;
            assert_eq!(x[n], expect, "rank {}", c.rank());
            // Wire accounting: a 3x3 face at 2 bytes.
            assert_eq!(hx.send_bytes_wire(2), 9 * 2);
            assert_eq!(hx.send_bytes_wire(8), 9 * 8);
            // Owned values untouched.
            assert_eq!(&x[..n], &sent[..]);
        });
    }

    #[test]
    fn wire_native_matches_typed_exchange_bitwise() {
        // An f64 vector shipped on a 4-byte wire lands the same ghosts
        // as its f32 copy shipped at native width, widened on arrival.
        let procs = ProcGrid::new(2, 1, 1);
        run_spmd(2, move |c| {
            let lg = LocalGrid::new((3, 3, 3), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let tl = Timeline::disabled();
            let mut a: Vec<f64> =
                global_id_vector(&lg, hx.num_ghosts()).iter().map(|v| 0.01 + v * 0.1).collect();
            let mut b: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            hx.exchange_wire_checked(&c, 0, &mut a, f32::BYTES, &tl).unwrap();
            hx.exchange_wire_checked(&c, 1, &mut b, f32::BYTES, &tl).unwrap();
            let n = lg.total_points();
            let widened: Vec<f64> = b[n..].iter().map(|&v| v as f64).collect();
            assert_eq!(&a[n..], &widened[..]);
        });
    }

    #[test]
    fn timeline_captures_halo_events_and_overlap_record() {
        // Arms the process-global span ring under the comm trace lock.
        // Tests running alongside may record into it while it is armed,
        // so the span checks keep only this test's rank threads.
        let _armed = crate::trace_mode_lock();
        hpgmxp_trace::set_mode_override(hpgmxp_trace::Mode::Spans);
        let procs = ProcGrid::new(2, 1, 1);
        let per_rank = run_spmd(2, move |c| {
            let lg = LocalGrid::new((2, 2, 2), procs, c.rank() as u32);
            let hx = HaloExchange::new(HaloPlan::build(&lg));
            let n = lg.total_points();
            let mut x = vec![1.0f64; n + hx.num_ghosts()];
            let tl = Timeline::enabled();
            hx.exchange_wire_checked(&c, 0, &mut x, f64::BYTES, &tl).unwrap();
            (hpgmxp_trace::current_tid(), tl.overlap_records(), hx.send_bytes::<f64>())
        });
        hpgmxp_trace::set_mode_override(hpgmxp_trace::Mode::Off);
        let ring = hpgmxp_trace::global();
        let events = ring.events();
        for (tid, records, wire_bytes) in per_rank {
            let mut halo: Vec<&str> = events
                .iter()
                .filter(|e| e.tid == tid && e.name.starts_with("halo "))
                .map(|e| e.name)
                .collect();
            halo.sort_unstable();
            // pack + send + wait + unpack for the one neighbor, plus the
            // final no-more-posts wait probe.
            assert_eq!(
                halo,
                ["halo pack", "halo send", "halo unpack", "halo wait", "halo wait"],
                "tid {tid}"
            );
            assert_eq!(records.len(), 1, "one exchange, one overlap record");
            let r = &records[0];
            assert_eq!(r.bytes_sent, wire_bytes);
            assert_eq!(r.bytes_sent, 4 * 8, "one 2x2 face of f64");
            assert_eq!(r.bytes_received, r.bytes_sent);
            assert!(r.pack >= 0.0 && r.wire_wait >= 0.0 && r.unpack >= 0.0);
        }
        let mirrored = ring.overlaps().iter().filter(|o| o.bytes_sent == 4 * 8).count();
        assert!(mirrored >= 2, "both ranks' overlap records reach the armed global ring");
    }

    #[test]
    fn send_bytes_accounts_per_precision() {
        use hpgmxp_sparse::Half;
        let lg = LocalGrid::new((8, 8, 8), ProcGrid::new(2, 1, 1), 0);
        let hx = HaloExchange::new(HaloPlan::build(&lg));
        assert_eq!(hx.send_volume(), 64);
        assert_eq!(hx.send_bytes::<f64>(), 64 * 8);
        assert_eq!(hx.send_bytes::<f32>(), 64 * 4);
        assert_eq!(hx.send_bytes::<Half>(), 64 * 2);
    }
}
