//! The [`Comm`] trait (v2) and the single-rank world.
//!
//! Messages are byte buffers; scalar payloads are packed/unpacked with
//! the little helpers below so that `f64` (reference solver), `f32`
//! (mixed-precision inner solver), and emulated `f16` halos all travel
//! through one code path — at half/quarter the volume for the low
//! precisions, exactly the effect the benchmark measures.
//!
//! v2 is allocation-free on the hot path: callers lend byte slices in
//! both directions (`send_from` copies into backend-pooled storage,
//! `recv_into` fills a caller-owned buffer), and [`Comm::wait_any`]
//! lets a rank drain whichever neighbor's message lands first instead
//! of receiving in a fixed order — the `MPI_Waitany` pattern the halo
//! engine uses to unpack ghosts as they arrive.

use crate::error::CommResult;
use hpgmxp_sparse::scalar::convert_slice;
use hpgmxp_sparse::{Half, Scalar};

/// Reduction operator of an all-reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum (inner products, FLOP totals).
    Sum,
    /// Elementwise maximum (timings, convergence flags).
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// Reduce `b` into `a` elementwise.
pub(crate) fn reduce_into(op: ReduceOp, a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x = op.apply(*x, *y);
    }
}

/// One posted receive: where the message comes from and where its
/// bytes go. The expected message length is `buf.len()` — backends
/// reject mismatches loudly, since the halo plan fixes both sides.
#[derive(Debug)]
pub struct RecvPost<'a> {
    /// Sending rank.
    pub from: usize,
    /// Message tag.
    pub tag: u64,
    /// Destination buffer; its length is the expected message length.
    pub buf: &'a mut [u8],
}

impl<'a> RecvPost<'a> {
    /// Post a receive of `buf.len()` bytes from `(from, tag)`.
    pub fn new(from: usize, tag: u64, buf: &'a mut [u8]) -> Self {
        RecvPost { from, tag, buf }
    }
}

/// The communication interface every solver is written against.
///
/// Semantics mirror the MPI subset the benchmark uses:
/// * `send_from` is buffered and non-blocking (like `MPI_Isend` with an
///   eager protocol); the backend copies the bytes into pooled storage
///   before returning, so the caller's buffer is immediately reusable;
/// * `recv_into` blocks until the matching message arrives and copies
///   it into the caller's buffer (posted-receive discipline — no
///   backend allocation hands a `Vec` across the interface);
/// * `wait_any` completes whichever posted receive matches first, the
///   `MPI_Waitany` pattern;
/// * messages between one (sender, receiver) pair with the same tag are
///   delivered in FIFO order;
/// * `allreduce` and `barrier` are collectives every rank must enter.
pub trait Comm: Send + Sync {
    /// This rank's id, `0..size`.
    fn rank(&self) -> usize;
    /// World size.
    fn size(&self) -> usize;

    // ---- required operations ----------------------------------------
    //
    // Every operation is fallible: a detected transport fault is a
    // typed [`CommError`](crate::CommError) — its `Display` form names
    // the peer, e.g. "connection to rank 1 closed" — that a solver
    // propagates up to a diagnostic exit.

    /// Non-blocking buffered send of a tagged message. The backend
    /// copies `bytes` into pooled storage; no ownership transfer. A
    /// send on a dead connection returns the fault.
    fn send_from(&self, to: usize, tag: u64, bytes: &[u8]) -> CommResult<()>;
    /// Blocking receive of the next message from `from` with `tag`.
    /// The message length must equal `out.len()`. A failed peer or an
    /// elapsed receive deadline returns a typed fault naming the peer
    /// and tag.
    fn recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> CommResult<()>;
    /// Poll for a matching message without blocking; `true` if `out`
    /// was filled.
    fn try_recv_into(&self, from: usize, tag: u64, out: &mut [u8]) -> bool;
    /// Block until one of the still-posted receives (the `Some` slots)
    /// completes, fill its buffer, and hand the completed post back as
    /// `(slot index, post)`. Returns `Ok(None)` once every slot is
    /// `None`.
    fn wait_any<'p>(
        &self,
        posts: &mut [Option<RecvPost<'p>>],
    ) -> CommResult<Option<(usize, RecvPost<'p>)>>;
    /// In-place elementwise all-reduce over all ranks.
    fn allreduce_checked(&self, vals: &mut [f64], op: ReduceOp) -> CommResult<()>;
    /// Block until every rank has entered the barrier.
    fn barrier(&self) -> CommResult<()>;

    // ---- provided ----------------------------------------------------

    /// [`Comm::allreduce_checked`], panicking on a fault. Pinned by the
    /// benchmark adapter, which calls this form.
    fn allreduce(&self, vals: &mut [f64], op: ReduceOp) {
        self.allreduce_checked(vals, op).unwrap_or_else(|e| panic!("{e}"))
    }

    /// All-reduce a single scalar (the hot path of the DOT motif).
    fn allreduce_scalar(&self, val: f64, op: ReduceOp) -> CommResult<f64> {
        let mut buf = [val];
        self.allreduce_checked(&mut buf, op)?;
        Ok(buf[0])
    }

    /// Cumulative collective-engine traffic counters for this endpoint
    /// (operation/round/receive/byte counts), if the backend routes its
    /// collectives through [`crate::collectives`]. Diff two snapshots
    /// to attribute traffic to a phase; `None` for backends without
    /// real collectives (`SelfComm`).
    fn coll_stats(&self) -> Option<crate::collectives::CollStats> {
        None
    }
}

/// Wire staging chunk: scalars are converted to the wire precision in
/// batches of this many elements through the SIMD converters, then the
/// chunk's bytes are appended in one go.
const WIRE_CHUNK: usize = 256;

/// Append a POD lane slice to `out` as little-endian bytes. On
/// little-endian targets this is a single `memcpy`; elsewhere each
/// lane is serialized explicitly.
macro_rules! extend_le {
    ($name:ident, $T:ty) => {
        #[inline]
        fn $name(vals: &[$T], out: &mut Vec<u8>) {
            #[cfg(target_endian = "little")]
            {
                // SAFETY: reading the initialized POD lanes as bytes.
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        vals.as_ptr() as *const u8,
                        std::mem::size_of_val(vals),
                    )
                };
                out.extend_from_slice(bytes);
            }
            #[cfg(not(target_endian = "little"))]
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    };
}

extend_le!(extend_le_u16, u16);
extend_le!(extend_le_f32, f32);
extend_le!(extend_le_f64, f64);

/// Decode little-endian bytes into a POD lane slice (the inverse of
/// the `extend_le` helpers).
macro_rules! decode_le {
    ($name:ident, $T:ty, $W:literal) => {
        #[inline]
        fn $name(bytes: &[u8], vals: &mut [$T]) {
            debug_assert_eq!(bytes.len(), vals.len() * $W);
            #[cfg(target_endian = "little")]
            {
                // SAFETY: writing `size_of_val(vals)` bytes of POD data
                // over the initialized lanes.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        bytes.as_ptr(),
                        vals.as_mut_ptr() as *mut u8,
                        std::mem::size_of_val(vals),
                    );
                }
            }
            #[cfg(not(target_endian = "little"))]
            for (v, c) in vals.iter_mut().zip(bytes.chunks_exact($W)) {
                *v = <$T>::from_le_bytes(c.try_into().unwrap());
            }
        }
    };
}

decode_le!(decode_le_u16, u16, 2);
decode_le!(decode_le_f32, f32, 4);
decode_le!(decode_le_f64, f64, 8);

/// The one wire encoder: round scalars to the wire precision (2/4/8
/// bytes for f16/f32/f64) in [`WIRE_CHUNK`] batches through the SIMD
/// converters — one round-to-nearest-even per element, the same bits
/// a scalar `to_f64`-then-narrow loop produces — and append the
/// little-endian bytes. This is the pack half of the precision
/// policy's *wire* axis (fp16 ghosts under an f32 — or even f64 —
/// compute precision). Does **not** clear `out`, so gather packing
/// can stage through it.
pub(crate) fn encode_slice_wire_append<S: Scalar>(
    values: &[S],
    wire_bytes: usize,
    out: &mut Vec<u8>,
) {
    out.reserve(values.len() * wire_bytes);
    match wire_bytes {
        2 => {
            let mut w = [Half::ZERO; WIRE_CHUNK];
            for c in values.chunks(WIRE_CHUNK) {
                convert_slice(c, &mut w[..c.len()]);
                extend_le_u16(hpgmxp_sparse::half::as_bits(&w[..c.len()]), out);
            }
        }
        4 => {
            let mut w = [0.0f32; WIRE_CHUNK];
            for c in values.chunks(WIRE_CHUNK) {
                convert_slice(c, &mut w[..c.len()]);
                extend_le_f32(&w[..c.len()], out);
            }
        }
        8 => {
            let mut w = [0.0f64; WIRE_CHUNK];
            for c in values.chunks(WIRE_CHUNK) {
                convert_slice(c, &mut w[..c.len()]);
                extend_le_f64(&w[..c.len()], out);
            }
        }
        w => panic!("unsupported wire width {w} (expected 2, 4, or 8)"),
    }
}

/// [`encode_slice_wire_append`] with a cleared destination. With
/// sufficient capacity this never allocates — the halo engine's
/// persistent staging buffers rely on that.
pub(crate) fn encode_slice_wire<S: Scalar>(values: &[S], wire_bytes: usize, out: &mut Vec<u8>) {
    out.clear();
    encode_slice_wire_append(values, wire_bytes, out);
}

/// Append a scalar slice as little-endian bytes onto `out` (which is
/// cleared first).
pub fn pack_into<S: Scalar>(data: &[S], out: &mut Vec<u8>) {
    encode_slice_wire(data, S::BYTES, out);
}

/// Pack a scalar slice into freshly allocated little-endian bytes.
pub fn pack<S: Scalar>(data: &[S]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * S::BYTES);
    pack_into(data, &mut out);
    out
}

/// Unpack little-endian bytes into a scalar slice (length must match).
pub fn unpack<S: Scalar>(bytes: &[u8], out: &mut [S]) {
    unpack_wire(bytes, S::BYTES, out)
}

/// [`unpack`] with a runtime wire width: decode 2/4/8-byte wire values
/// and widen (or round) into the compute scalar `S` — the unpack half
/// of the policy's wire axis.
pub fn unpack_wire<S: Scalar>(bytes: &[u8], wire_bytes: usize, out: &mut [S]) {
    assert_eq!(bytes.len(), out.len() * wire_bytes, "message length mismatch");
    // Decode the wire lanes in stack-buffered chunks, then widen (or
    // round) into `S` through the batch converters — the same one
    // `from_f64(wire as f64)` rounding per element as a scalar loop.
    match wire_bytes {
        2 => {
            let mut w = [Half::ZERO; WIRE_CHUNK];
            for (o, b) in out.chunks_mut(WIRE_CHUNK).zip(bytes.chunks(WIRE_CHUNK * 2)) {
                decode_le_u16(b, hpgmxp_sparse::half::as_bits_mut(&mut w[..o.len()]));
                convert_slice(&w[..o.len()], o);
            }
        }
        4 => {
            let mut w = [0.0f32; WIRE_CHUNK];
            for (o, b) in out.chunks_mut(WIRE_CHUNK).zip(bytes.chunks(WIRE_CHUNK * 4)) {
                decode_le_f32(b, &mut w[..o.len()]);
                convert_slice(&w[..o.len()], o);
            }
        }
        8 => {
            let mut w = [0.0f64; WIRE_CHUNK];
            for (o, b) in out.chunks_mut(WIRE_CHUNK).zip(bytes.chunks(WIRE_CHUNK * 8)) {
                decode_le_f64(b, &mut w[..o.len()]);
                convert_slice(&w[..o.len()], o);
            }
        }
        w => panic!("unsupported wire width {w} (expected 2, 4, or 8)"),
    }
}

/// The trivial single-rank world: collectives are no-ops, point-to-point
/// is unreachable (a single rank has no peers).
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfComm;

impl Comm for SelfComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn send_from(&self, _to: usize, _tag: u64, _bytes: &[u8]) -> CommResult<()> {
        unreachable!("SelfComm has no peers to send to");
    }
    fn recv_into(&self, _from: usize, _tag: u64, _out: &mut [u8]) -> CommResult<()> {
        unreachable!("SelfComm has no peers to receive from");
    }
    fn try_recv_into(&self, _from: usize, _tag: u64, _out: &mut [u8]) -> bool {
        false
    }
    fn wait_any<'p>(
        &self,
        posts: &mut [Option<RecvPost<'p>>],
    ) -> CommResult<Option<(usize, RecvPost<'p>)>> {
        assert!(posts.iter().all(Option::is_none), "SelfComm has no peers to receive from");
        Ok(None)
    }
    fn allreduce_checked(&self, _vals: &mut [f64], _op: ReduceOp) -> CommResult<()> {
        Ok(())
    }
    fn barrier(&self) -> CommResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpgmxp_sparse::Half;

    #[test]
    fn pack_unpack_f64_roundtrip() {
        let data = vec![1.5f64, -2.25, 1e300, 0.0];
        let bytes = pack(&data);
        assert_eq!(bytes.len(), 32);
        let mut out = vec![0.0f64; 4];
        unpack(&bytes, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn pack_unpack_f32_roundtrip_and_half_volume() {
        let data = vec![1.5f32, -2.25, 3.75];
        let bytes = pack(&data);
        assert_eq!(bytes.len(), 12, "f32 halo messages are half the f64 volume");
        let mut out = vec![0.0f32; 3];
        unpack(&bytes, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn pack_unpack_f16_roundtrip_and_quarter_volume() {
        // fp16 ghosts travel as 2 bytes per value — a quarter of the
        // f64 volume, the §5 future-work configuration's wire benefit.
        let data = vec![Half::from_f32(1.5), Half::from_f32(-2.25), Half::from_f32(0.0)];
        let bytes = pack(&data);
        assert_eq!(bytes.len(), 6, "f16 halo messages are a quarter of the f64 volume");
        let mut out = vec![Half::from_f32(9.0); 3];
        unpack(&bytes, &mut out);
        for (a, b) in out.iter().zip(data.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pack_into_reuses_capacity() {
        let data = vec![1.0f64; 64];
        let mut buf = Vec::with_capacity(64 * 8);
        let cap_ptr = buf.as_ptr();
        for _ in 0..10 {
            pack_into(&data, &mut buf);
            assert_eq!(buf.len(), 512);
        }
        assert_eq!(buf.as_ptr(), cap_ptr, "pack_into must never reallocate a sized buffer");
    }

    #[test]
    fn self_comm_collectives_are_identity() {
        let c = SelfComm;
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        let mut v = vec![3.0, -1.0];
        c.allreduce(&mut v, ReduceOp::Sum);
        assert_eq!(v, vec![3.0, -1.0]);
        assert_eq!(c.allreduce_scalar(7.5, ReduceOp::Max).unwrap(), 7.5);
        c.barrier().unwrap();
    }

    #[test]
    fn self_comm_wait_any_with_no_posts_is_none() {
        let c = SelfComm;
        let mut posts: [Option<RecvPost>; 2] = [None, None];
        assert!(c.wait_any(&mut posts).unwrap().is_none());
    }

    #[test]
    fn reduce_ops() {
        let mut a = vec![1.0, 5.0, -2.0];
        reduce_into(ReduceOp::Sum, &mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, -1.0]);
        reduce_into(ReduceOp::Max, &mut a, &[0.0, 10.0, 0.0]);
        assert_eq!(a, vec![2.0, 10.0, 0.0]);
        reduce_into(ReduceOp::Min, &mut a, &[5.0, 5.0, 5.0]);
        assert_eq!(a, vec![2.0, 5.0, 0.0]);
    }
}
