//! The lock-free, preallocated span/event ring recorder.
//!
//! Writers take a slot index with one `fetch_add` on the head counter
//! and then **claim the slot exclusively** by compare-exchanging its
//! per-slot sequence counter (a seqlock) from even (idle) to odd:
//! recording never blocks, never allocates, and wraps over the oldest
//! events when the ring fills. Once the ring has wrapped, two threads
//! can map to the same slot; the loser of the claim race drops its
//! event (counted in [`Recorder::dropped`]) instead of interleaving
//! stores with the winner, so a slot only ever holds one writer's
//! fields. Readers ([`Recorder::events`]) run at flush/snapshot time
//! and skip any slot whose sequence is odd, unwritten, or changed
//! across the read — a torn or in-flight slot is dropped, never
//! misread.
//!
//! Names are `&'static str` (string literals at the instrumentation
//! sites), so the hot path stores a pointer pair and touches the
//! allocator exactly never.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which conceptual lane an event belongs to. The first four mirror
/// the paper's figure-9 trace lanes (measured here, modeled in the
/// machine crate); the rest cover collectives and the transports.
/// The discriminant is the lane's byte in trace files, so a lane keeps
/// its number for good: 5 and 6 are retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Lane {
    /// Kernel work (the paper's GPU "compute stream").
    Compute = 0,
    /// Halo buffer packing/unpacking.
    Halo = 1,
    /// Host-device style copies.
    Copy = 2,
    /// Message send/receive/wait markers.
    Comm = 3,
    /// Collective rounds (allreduce/barrier/allgather).
    Coll = 4,
    /// Transport frame traffic and heartbeats.
    Wire = 7,
}

impl Lane {
    /// Display label used by trace renderers.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Compute => "GPU",
            Lane::Halo => "HALO",
            Lane::Copy => "COPY",
            Lane::Comm => "COMM",
            Lane::Coll => "COLL",
            Lane::Wire => "WIRE",
        }
    }

    pub fn from_u8(v: u8) -> Lane {
        match v {
            0 => Lane::Compute,
            1 => Lane::Halo,
            2 => Lane::Copy,
            3 => Lane::Comm,
            4 => Lane::Coll,
            _ => Lane::Wire,
        }
    }
}

/// Span (has duration) or instant marker (a point in time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Span = 0,
    Instant = 1,
}

impl Kind {
    pub fn from_u8(v: u8) -> Kind {
        if v == 1 {
            Kind::Instant
        } else {
            Kind::Span
        }
    }
}

/// One recorded event, as read back out of the ring.
#[derive(Debug, Clone, Copy)]
pub struct EventRec {
    /// Instrumentation-site name (a string literal).
    pub name: &'static str,
    pub lane: Lane,
    pub kind: Kind,
    /// Small dense id of the recording thread (see [`current_tid`]).
    pub tid: u32,
    /// Monotonic nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End of the span (`== start_ns` for instants).
    pub end_ns: u64,
    /// Free payload word (bytes, tag, level — site-defined).
    pub arg: u64,
}

/// Measured anatomy of one split-phase halo exchange, in integer
/// nanoseconds — the recorder-native form of comm's `OverlapRecord`
/// (which is now a thin f64-seconds view over this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapRec {
    pub tag: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub pack_ns: u64,
    pub window_ns: u64,
    pub wire_wait_ns: u64,
    pub unpack_ns: u64,
}

/// One event slot: a seqlock sequence counter plus the event fields as
/// plain atomics. The sequence is 0 while the slot has never been
/// written, odd while exactly one writer (the claim-race winner) is
/// publishing, and a new even value once the fields are complete —
/// every field store happens inside an exclusively-owned odd window,
/// so a reader that validates the sequence sees one writer's
/// consistent record and otherwise skips the slot.
struct Slot {
    seq: AtomicU64,
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    /// `lane | kind << 8 | tid << 32`.
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            name_ptr: AtomicUsize::new(0),
            name_len: AtomicUsize::new(0),
            meta: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

/// Overlap slot: seqlock + the seven `OverlapRec` words.
struct OSlot {
    seq: AtomicU64,
    vals: [AtomicU64; 7],
}

impl OSlot {
    fn new() -> OSlot {
        OSlot { seq: AtomicU64::new(0), vals: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// Claim `seq` for writing: CAS from its current even (idle) value to
/// odd. Returns the claimed value to publish `+2` from, or `None` when
/// another wrapped writer owns the slot — the caller must then drop
/// its record rather than interleave stores with the owner.
fn claim(seq: &AtomicU64) -> Option<u64> {
    let s = seq.load(Ordering::Relaxed);
    if s & 1 == 1 || seq.compare_exchange(s, s + 1, Ordering::Relaxed, Ordering::Relaxed).is_err() {
        return None;
    }
    // Order the claim before the field stores for any reader that
    // observes them (paired with the acquire fence in the readers).
    fence(Ordering::Release);
    Some(s)
}

/// A preallocated, lock-free span/event ring plus an overlap-record
/// ring. All storage is allocated at construction; recording is
/// wait-free (one `fetch_add` + field stores) and allocation-free.
pub struct Recorder {
    epoch: Instant,
    slots: Box<[Slot]>,
    /// Total events ever recorded; the live window is the last
    /// `min(head, capacity)` of them.
    head: AtomicUsize,
    /// Events dropped because a wrapped writer lost the slot claim.
    lost: AtomicUsize,
    oslots: Box<[OSlot]>,
    ohead: AtomicUsize,
    /// Overlap records dropped on slot-claim contention.
    olost: AtomicUsize,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .field("overlap_capacity", &self.oslots.len())
            .field("overlaps", &self.ohead.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    /// A ring holding up to `capacity` events and `overlap_capacity`
    /// overlap records. Zero capacities build a recorder that drops
    /// everything (the disabled-timeline case) without allocating.
    pub fn new(capacity: usize, overlap_capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            slots: (0..capacity).map(|_| Slot::new()).collect::<Vec<_>>().into_boxed_slice(),
            head: AtomicUsize::new(0),
            lost: AtomicUsize::new(0),
            oslots: (0..overlap_capacity)
                .map(|_| OSlot::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            ohead: AtomicUsize::new(0),
            olost: AtomicUsize::new(0),
        }
    }

    /// Monotonic nanoseconds since this recorder's construction.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one event (wait-free, allocation-free).
    pub fn record(&self, ev: EventRec) {
        if self.slots.is_empty() {
            return;
        }
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[i % self.slots.len()];
        let Some(s) = claim(&slot.seq) else {
            // A wrapped writer is publishing into the same slot; drop
            // this event rather than tear the winner's record.
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        };
        slot.name_ptr.store(ev.name.as_ptr() as usize, Ordering::Relaxed);
        slot.name_len.store(ev.name.len(), Ordering::Relaxed);
        slot.meta.store(
            ev.lane as u64 | (ev.kind as u64) << 8 | (ev.tid as u64) << 32,
            Ordering::Relaxed,
        );
        slot.start_ns.store(ev.start_ns, Ordering::Relaxed);
        slot.end_ns.store(ev.end_ns, Ordering::Relaxed);
        slot.arg.store(ev.arg, Ordering::Relaxed);
        slot.seq.store(s + 2, Ordering::Release);
    }

    /// Open a span ending (and recording) when the guard drops.
    pub fn span(&self, name: &'static str, lane: Lane) -> SpanGuard<'_> {
        SpanGuard { rec: Some(self), name, lane, arg: 0, start_ns: self.now_ns() }
    }

    /// Record an instant marker.
    pub fn instant(&self, name: &'static str, lane: Lane, arg: u64) {
        let now = self.now_ns();
        self.record(EventRec {
            name,
            lane,
            kind: Kind::Instant,
            tid: current_tid(),
            start_ns: now,
            end_ns: now,
            arg,
        });
    }

    /// Record one halo-exchange overlap record (wait-free,
    /// allocation-free).
    pub fn add_overlap(&self, o: OverlapRec) {
        if self.oslots.is_empty() {
            return;
        }
        let i = self.ohead.fetch_add(1, Ordering::Relaxed);
        let slot = &self.oslots[i % self.oslots.len()];
        let Some(s) = claim(&slot.seq) else {
            self.olost.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let words = [
            o.tag,
            o.bytes_sent,
            o.bytes_received,
            o.pack_ns,
            o.window_ns,
            o.wire_wait_ns,
            o.unpack_ns,
        ];
        for (dst, w) in slot.vals.iter().zip(words) {
            dst.store(w, Ordering::Relaxed);
        }
        slot.seq.store(s + 2, Ordering::Release);
    }

    /// Events recorded so far (total, including any the ring wrapped
    /// over).
    pub fn recorded(&self) -> usize {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost: wrapped over by the ring (capacity) plus dropped
    /// on slot-claim contention between wrapped writers.
    pub fn dropped(&self) -> usize {
        self.head.load(Ordering::Relaxed).saturating_sub(self.slots.len())
            + self.lost.load(Ordering::Relaxed)
    }

    /// Overlap records lost: wrapped over by the overlap ring plus
    /// dropped on slot-claim contention.
    pub fn overlaps_dropped(&self) -> usize {
        self.ohead.load(Ordering::Relaxed).saturating_sub(self.oslots.len())
            + self.olost.load(Ordering::Relaxed)
    }

    /// Snapshot of the live window, sorted by start time. Slots a
    /// concurrent writer is publishing into are skipped.
    pub fn events(&self) -> Vec<EventRec> {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(self.slots.len());
        let mut out = Vec::with_capacity(n);
        for slot in self.slots.iter().take(n) {
            let s0 = slot.seq.load(Ordering::Acquire);
            if s0 == 0 || s0 & 1 == 1 {
                // Never fully written, or a writer is mid-publish.
                continue;
            }
            let name_ptr = slot.name_ptr.load(Ordering::Relaxed) as *const u8;
            let name_len = slot.name_len.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s0 {
                continue;
            }
            // The pointer/length pair names a string literal ('static)
            // and was validated consistent by the sequence check: the
            // fields were published by exactly one writer (claims are
            // exclusive) and did not change across the read.
            let name = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(name_ptr, name_len))
            };
            out.push(EventRec {
                name,
                lane: Lane::from_u8((meta & 0xFF) as u8),
                kind: Kind::from_u8(((meta >> 8) & 0xFF) as u8),
                tid: (meta >> 32) as u32,
                start_ns,
                end_ns,
                arg,
            });
        }
        out.sort_by_key(|e| (e.start_ns, e.end_ns));
        out
    }

    /// Snapshot of the overlap records, oldest first within the live
    /// window.
    pub fn overlaps(&self) -> Vec<OverlapRec> {
        let head = self.ohead.load(Ordering::Acquire);
        let n = head.min(self.oslots.len());
        let mut out = Vec::with_capacity(n);
        let start = if head > self.oslots.len() { head % self.oslots.len() } else { 0 };
        for k in 0..n {
            let slot = &self.oslots[(start + k) % self.oslots.len().max(1)];
            let s0 = slot.seq.load(Ordering::Acquire);
            if s0 == 0 || s0 & 1 == 1 {
                continue;
            }
            let w: [u64; 7] = std::array::from_fn(|j| slot.vals[j].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s0 {
                continue;
            }
            out.push(OverlapRec {
                tag: w[0],
                bytes_sent: w[1],
                bytes_received: w[2],
                pack_ns: w[3],
                window_ns: w[4],
                wire_wait_ns: w[5],
                unpack_ns: w[6],
            });
        }
        out
    }
}

/// RAII span guard: records `[creation, drop]` into its recorder; the
/// disabled guard (un-armed global path) does nothing and holds
/// nothing.
pub struct SpanGuard<'a> {
    rec: Option<&'a Recorder>,
    name: &'static str,
    lane: Lane,
    arg: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// A guard that records nothing on drop.
    pub const fn disabled() -> SpanGuard<'static> {
        SpanGuard { rec: None, name: "", lane: Lane::Compute, arg: 0, start_ns: 0 }
    }

    /// Attach a payload word recorded with the span.
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            self.record_into(rec);
        }
    }
}

impl SpanGuard<'_> {
    /// The armed half of `drop`, kept out of line so that every span
    /// site inlines only the disarmed check.
    #[cold]
    #[inline(never)]
    fn record_into(&self, rec: &Recorder) {
        let end_ns = rec.now_ns();
        rec.record(EventRec {
            name: self.name,
            lane: self.lane,
            kind: Kind::Span,
            tid: current_tid(),
            start_ns: self.start_ns,
            end_ns,
            arg: self.arg,
        });
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// A small dense id for the current thread, assigned on first use
/// (allocation-free; `ThreadId` has no stable integer accessor).
#[inline]
pub fn current_tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// The per-process (per-rank, under process-per-rank transports)
/// global recorder, built on first use with
/// `HPGMXP_TRACE_CAPACITY` events (default 65536).
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(|| Recorder::new(env_usize("HPGMXP_TRACE_CAPACITY", 1 << 16), 1 << 12))
}

/// Open a span on the global recorder — a no-op guard (one atomic
/// load + branch) unless `HPGMXP_TRACE=spans`.
#[inline]
pub fn span(name: &'static str, lane: Lane) -> SpanGuard<'static> {
    if !crate::spans_armed() {
        return SpanGuard::disabled();
    }
    armed_span(name, lane)
}

/// The armed half of [`span`], out of line like [`SpanGuard`]'s.
#[cold]
#[inline(never)]
fn armed_span(name: &'static str, lane: Lane) -> SpanGuard<'static> {
    global().span(name, lane)
}

/// Record an instant marker on the global recorder when armed.
#[inline]
pub fn instant(name: &'static str, lane: Lane, arg: u64) {
    if crate::spans_armed() {
        global().instant(name, lane, arg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_roundtrip() {
        let rec = Recorder::new(64, 8);
        {
            let mut s = rec.span("work", Lane::Compute);
            s.set_arg(42);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        rec.instant("marker", Lane::Wire, 7);
        let ev = rec.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "work");
        assert_eq!(ev[0].kind, Kind::Span);
        assert_eq!(ev[0].arg, 42);
        assert!(ev[0].end_ns > ev[0].start_ns);
        assert_eq!(ev[1].name, "marker");
        assert_eq!(ev[1].kind, Kind::Instant);
        assert_eq!(ev[1].start_ns, ev[1].end_ns);
        assert!(ev.iter().all(|e| e.tid > 0));
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let rec = Recorder::new(4, 0);
        for i in 0..10u64 {
            rec.instant("e", Lane::Comm, i);
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let ev = rec.events();
        assert_eq!(ev.len(), 4);
        let mut args: Vec<u64> = ev.iter().map(|e| e.arg).collect();
        args.sort_unstable();
        assert_eq!(args, vec![6, 7, 8, 9], "the newest four survive");
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let rec = Recorder::new(0, 0);
        rec.instant("e", Lane::Comm, 1);
        rec.add_overlap(OverlapRec::default());
        assert!(rec.events().is_empty());
        assert!(rec.overlaps().is_empty());
    }

    #[test]
    fn overlap_ring_roundtrips_in_order() {
        let rec = Recorder::new(0, 4);
        for i in 0..6u64 {
            rec.add_overlap(OverlapRec { tag: i, ..Default::default() });
        }
        let got: Vec<u64> = rec.overlaps().iter().map(|o| o.tag).collect();
        assert_eq!(got, vec![2, 3, 4, 5], "oldest-first live window");
    }

    #[test]
    fn concurrent_recording_is_safe_and_lossless_without_wrap() {
        let rec = std::sync::Arc::new(Recorder::new(4096, 0));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..512u64 {
                        rec.instant("c", Lane::Wire, (t as u64) << 32 | i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.events().len(), 2048);
        let tids: std::collections::HashSet<u32> = rec.events().iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "each thread got its own tid");
    }

    #[test]
    fn wrapped_concurrent_writers_never_publish_torn_slots() {
        // A tiny ring wrapped thousands of times by racing writers,
        // with a reader snapshotting throughout: every event read back
        // must be one of the writers' records verbatim (a torn slot
        // would surface as a name outside the set or a mismatched
        // name/arg pair), and the loss accounting must cover every
        // event that did not land.
        const NAMES: [&str; 4] = ["w", "xx", "yyy", "zzzz"];
        const PER_THREAD: usize = 20_000;
        let rec = std::sync::Arc::new(Recorder::new(8, 4));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let rec = std::sync::Arc::clone(&rec);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for e in rec.events() {
                        let t = (e.arg >> 32) as usize;
                        assert!(t < NAMES.len(), "arg from an unknown writer: {:#x}", e.arg);
                        assert_eq!(e.name, NAMES[t], "slot mixed two writers' fields");
                    }
                    for o in rec.overlaps() {
                        assert!((o.tag as usize) < NAMES.len());
                        assert_eq!(o.bytes_sent, o.tag + 1, "torn overlap slot");
                    }
                }
            })
        };
        let writers: Vec<_> = (0..NAMES.len())
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD as u64 {
                        rec.instant(NAMES[t], Lane::Wire, (t as u64) << 32 | i);
                        rec.add_overlap(OverlapRec {
                            tag: t as u64,
                            bytes_sent: t as u64 + 1,
                            ..Default::default()
                        });
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        let total = NAMES.len() * PER_THREAD;
        assert_eq!(rec.recorded(), total);
        let readable = rec.events().len();
        assert!(readable <= 8);
        assert!(rec.dropped() >= total - readable, "loss accounting undercounts");
    }

    #[test]
    fn lane_labels_cover_all_variants() {
        for (v, label) in
            [(0, "GPU"), (1, "HALO"), (2, "COPY"), (3, "COMM"), (4, "COLL"), (7, "WIRE")]
        {
            assert_eq!(Lane::from_u8(v).label(), label);
        }
    }
}
