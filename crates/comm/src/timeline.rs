//! The per-solve halo overlap ledger behind figure 9.
//!
//! Figure 9 of the paper shows rocprof traces with a GPU compute
//! stream, a halo (pack/copy) stream, and communication markers, used
//! to demonstrate that halo exchange is hidden under the interior
//! Gauss–Seidel kernel. The spans of those lanes go straight to the
//! process-global recorder through [`hpgmxp_trace::span`] (armed by
//! `HPGMXP_TRACE=spans`); a `Timeline` keeps only what one solve
//! reports about its own exchanges — one [`OverlapRecord`] per
//! split-phase halo exchange, aggregated by
//! [`Timeline::overlap_efficiency`].
//!
//! Records live in a preallocated lock-free ring (the overlap ring of
//! an [`hpgmxp_trace::Recorder`]) of [`OVERLAP_CAPACITY`] entries and
//! are mirrored into the global ring whenever spans are armed, so the
//! per-rank trace files carry them too. A disabled timeline allocates
//! nothing.

use hpgmxp_trace::{OverlapRec, Recorder};

/// Measured anatomy of one split-phase halo exchange: what the halo
/// engine actually did between `begin` and `finish`, recorded so the
/// figure-9 "communication is hidden" claim is testable instead of
/// modeled. All durations are in seconds; the recorder stores the
/// integer-nanosecond [`OverlapRec`] this converts to and from.
#[derive(Debug, Clone)]
pub struct OverlapRecord {
    /// Message tag of the exchange.
    pub tag: u64,
    /// Bytes packed and sent to all neighbors.
    pub bytes_sent: usize,
    /// Bytes received and unpacked from all neighbors.
    pub bytes_received: usize,
    /// Time spent packing boundary values into the send staging buffers.
    pub pack: f64,
    /// Interior-compute span the exchange overlapped with: the gap
    /// between the end of `begin` and the start of `finish`, during
    /// which messages were in flight while the caller computed.
    pub window: f64,
    /// Time `finish` spent blocked waiting for messages — the *exposed*
    /// communication the overlap failed to hide.
    pub wire_wait: f64,
    /// Time spent scattering received values into the ghost region.
    pub unpack: f64,
}

impl OverlapRecord {
    /// Fraction of this exchange's communication hidden under compute:
    /// `window / (window + wire_wait)`. 1.0 means `finish` never
    /// blocked; 0.0 means nothing was overlapped.
    pub fn hidden_fraction(&self) -> f64 {
        let total = self.window + self.wire_wait;
        if total > 0.0 {
            self.window / total
        } else {
            1.0
        }
    }

    fn to_ns(&self) -> OverlapRec {
        OverlapRec {
            tag: self.tag,
            bytes_sent: self.bytes_sent as u64,
            bytes_received: self.bytes_received as u64,
            pack_ns: secs_to_ns(self.pack),
            window_ns: secs_to_ns(self.window),
            wire_wait_ns: secs_to_ns(self.wire_wait),
            unpack_ns: secs_to_ns(self.unpack),
        }
    }

    fn from_ns(o: &OverlapRec) -> OverlapRecord {
        OverlapRecord {
            tag: o.tag,
            bytes_sent: o.bytes_sent as usize,
            bytes_received: o.bytes_received as usize,
            pack: o.pack_ns as f64 / 1e9,
            window: o.window_ns as f64 / 1e9,
            wire_wait: o.wire_wait_ns as f64 / 1e9,
            unpack: o.unpack_ns as f64 / 1e9,
        }
    }
}

fn secs_to_ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9).round() as u64
}

/// Overlap records an enabled timeline keeps. The ring wraps, keeping
/// the newest; [`Timeline::dropped_overlaps`] counts what it lost.
pub const OVERLAP_CAPACITY: usize = 1 << 12;

/// A concurrent per-solve ledger of halo overlap records. The halo
/// engine pays for clock reads only when [`Timeline::is_traced`].
#[derive(Debug)]
pub struct Timeline {
    enabled: bool,
    rec: Recorder,
}

impl Timeline {
    /// A timeline that keeps the overlap records of its exchanges.
    pub fn enabled() -> Self {
        Timeline { enabled: true, rec: Recorder::new(0, OVERLAP_CAPACITY) }
    }

    /// A timeline that keeps nothing (no storage is allocated).
    pub fn disabled() -> Self {
        Timeline { enabled: false, rec: Recorder::new(0, 0) }
    }

    /// Whether exchange timing is observable anywhere — in this ledger
    /// or in the armed global ring.
    pub fn is_traced(&self) -> bool {
        self.enabled || hpgmxp_trace::spans_armed()
    }

    /// Record the measured anatomy of one halo exchange (and mirror it
    /// into the global ring when armed).
    pub fn add_overlap(&self, record: OverlapRecord) {
        let ns = record.to_ns();
        self.rec.add_overlap(ns);
        if hpgmxp_trace::spans_armed() {
            hpgmxp_trace::global().add_overlap(ns);
        }
    }

    /// Snapshot of the per-exchange overlap records, in completion order.
    pub fn overlap_records(&self) -> Vec<OverlapRecord> {
        self.rec.overlaps().iter().map(OverlapRecord::from_ns).collect()
    }

    /// Overlap records the ring lost; when non-zero,
    /// [`Timeline::overlap_efficiency`] aggregates only the newest
    /// [`OVERLAP_CAPACITY`] exchanges.
    pub fn dropped_overlaps(&self) -> usize {
        self.rec.overlaps_dropped()
    }

    /// Measured overlap efficiency over every recorded exchange: the
    /// fraction of total communication time (in-flight window + exposed
    /// wait) that was hidden under interior compute. `None` if no
    /// exchange was recorded. This is the measured counterpart of the
    /// modeled `hidden_fraction` in the figure-9 trace.
    pub fn overlap_efficiency(&self) -> Option<f64> {
        let recs = self.rec.overlaps();
        if recs.is_empty() {
            return None;
        }
        let window: u64 = recs.iter().map(|r| r.window_ns).sum();
        let wait: u64 = recs.iter().map(|r| r.wire_wait_ns).sum();
        let total = window + wait;
        if total > 0 {
            Some(window as f64 / total as f64)
        } else {
            Some(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(window: f64, wait: f64) -> OverlapRecord {
        OverlapRecord {
            tag: 0,
            bytes_sent: 100,
            bytes_received: 100,
            pack: 1e-6,
            window,
            wire_wait: wait,
            unpack: 1e-6,
        }
    }

    #[test]
    fn overlap_efficiency_aggregates_records() {
        let tl = Timeline::enabled();
        assert_eq!(tl.overlap_efficiency(), None, "no exchange recorded yet");
        tl.add_overlap(record(3e-6, 1e-6)); // 75% hidden
        tl.add_overlap(record(1e-6, 3e-6)); // 25% hidden
        let eff = tl.overlap_efficiency().unwrap();
        assert!((eff - 0.5).abs() < 1e-12, "got {eff}");
        assert_eq!(tl.overlap_records().len(), 2);
        assert!((tl.overlap_records()[0].hidden_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn disabled_timeline_records_no_overlaps() {
        let tl = Timeline::disabled();
        tl.add_overlap(record(1.0, 1.0));
        assert!(tl.overlap_records().is_empty());
        assert_eq!(tl.overlap_efficiency(), None);
    }

    #[test]
    fn fully_hidden_exchange_has_unit_efficiency() {
        let tl = Timeline::enabled();
        tl.add_overlap(record(5e-6, 0.0));
        assert_eq!(tl.overlap_efficiency(), Some(1.0));
        // Degenerate zero-duration record counts as hidden.
        assert_eq!(record(0.0, 0.0).hidden_fraction(), 1.0);
    }

    #[test]
    fn disabled_records_nothing() {
        // No ring behind a disabled timeline: nothing kept, nothing lost.
        let tl = Timeline::disabled();
        for _ in 0..=OVERLAP_CAPACITY {
            tl.add_overlap(record(1e-6, 1e-6));
        }
        assert!(tl.overlap_records().is_empty());
        assert_eq!(tl.dropped_overlaps(), 0);
    }

    #[test]
    fn the_ledger_keeps_the_newest_records_and_counts_the_rest() {
        let tl = Timeline::enabled();
        for tag in 0..OVERLAP_CAPACITY as u64 + 3 {
            tl.add_overlap(OverlapRecord { tag, ..record(1e-6, 0.0) });
        }
        let recs = tl.overlap_records();
        assert_eq!(recs.len(), OVERLAP_CAPACITY);
        assert_eq!(recs[0].tag, 3, "the three oldest records were wrapped over");
        assert_eq!(tl.dropped_overlaps(), 3);
    }

    #[test]
    fn events_mirror_into_the_global_ring_when_armed() {
        let _armed = crate::trace_mode_lock();
        hpgmxp_trace::set_mode_override(hpgmxp_trace::Mode::Spans);
        let before = hpgmxp_trace::global().recorded();
        let tl = Timeline::disabled();
        assert!(tl.is_traced(), "an armed global ring makes every timeline traced");
        {
            let _s = hpgmxp_trace::span("mirrored work", hpgmxp_trace::Lane::Compute);
        }
        let tag = 0x6d69_7272_6f72;
        tl.add_overlap(OverlapRecord { tag, ..record(1e-6, 1e-6) });
        hpgmxp_trace::set_mode_override(hpgmxp_trace::Mode::Off);
        assert!(tl.overlap_records().is_empty(), "disabled timeline stays empty locally");
        assert!(
            hpgmxp_trace::global().recorded() > before,
            "the armed global ring observed the span"
        );
        assert!(
            hpgmxp_trace::global().overlaps().iter().any(|o| o.tag == tag),
            "the armed global ring observed the overlap record"
        );
    }
}
