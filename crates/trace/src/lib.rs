//! Unified tracing and metrics for the HPG-MxP reproduction.
//!
//! The paper's core claim is about *where time and bytes go* at scale;
//! this crate is the one mechanism every layer records spans into —
//! solver kernels, halo exchanges, collectives, checkpointing, faults —
//! through one call, [`span`]. It sits **below** the comm crate in the
//! dependency order so solver, transports, checkpointing, the harness
//! and the figure-9 machine model can all share it and its [`Lane`]s.
//!
//! Three pieces:
//!
//! * a per-rank, lock-free, **preallocated ring-buffer recorder**
//!   ([`Recorder`]) of spans and instant events — monotonic
//!   timestamps, thread-id tagged, zero steady-state allocation when
//!   armed and a single atomic-load branch when off;
//! * a **metrics registry** ([`metrics`]) of named counters, gauges,
//!   and histograms with fixed log2 buckets — cheap enough to stay on
//!   in `counters` mode even when span recording is off;
//! * an **export pipeline**: per-rank binary trace files
//!   ([`file`]), merged by the `hpgmxp-trace` CLI into Chrome
//!   trace-event JSON ([`chrome`]) loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//!
//! ## Arming
//!
//! `HPGMXP_TRACE` selects the mode once per process (cached in an
//! atomic, so the steady-state cost of an un-armed span is one
//! relaxed load and a branch):
//!
//! * `off` (default) — spans are no-ops, metrics are no-ops;
//! * `counters` — metrics record, spans are no-ops;
//! * `spans` — metrics and the global span ring both record.
//!
//! `HPGMXP_TRACE_DIR` names a directory to flush the per-rank binary
//! trace file into (`trace-rank<R>.bin`); the `hpgmxp-launch
//! --trace-dir` flag arms both variables for every child rank.
//! `HPGMXP_TRACE_CAPACITY` overrides the global ring's event capacity
//! (default 65536; the ring wraps, keeping the newest events).

pub mod chrome;
pub mod file;
pub mod metrics;
pub mod recorder;

pub use file::{flush_global, read_trace_file, write_trace_file, FlushGuard, TraceFile};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use recorder::{
    current_tid, global, instant, span, EventRec, Kind, Lane, OverlapRec, Recorder, SpanGuard,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// What the process records (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Mode {
    /// Nothing recorded; every probe costs one load + branch.
    Off = 0,
    /// Metrics (counters/gauges/histograms) recorded, spans off.
    Counters = 1,
    /// Metrics and the global span ring both recorded.
    Spans = 2,
}

const MODE_UNINIT: u8 = 0xFF;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// The process trace mode, resolved from `HPGMXP_TRACE` on first use
/// and cached — the hot-path cost afterwards is a single relaxed
/// atomic load.
#[inline]
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Off,
        1 => Mode::Counters,
        2 => Mode::Spans,
        _ => init_mode(),
    }
}

#[cold]
fn init_mode() -> Mode {
    let m = match std::env::var("HPGMXP_TRACE").ok().as_deref() {
        Some("counters") => Mode::Counters,
        Some("spans") => Mode::Spans,
        None | Some("") | Some("off") => Mode::Off,
        Some(other) => {
            eprintln!("[trace] unknown HPGMXP_TRACE={other:?} (expected off|counters|spans); off");
            Mode::Off
        }
    };
    MODE.store(m as u8, Ordering::Relaxed);
    m
}

/// Force the mode, overriding `HPGMXP_TRACE` (tests, and the launcher
/// path that arms children explicitly).
pub fn set_mode_override(m: Mode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Is the global span ring armed? One load + branch when not.
#[inline]
pub fn spans_armed() -> bool {
    mode() == Mode::Spans
}

/// Are metrics armed (`counters` or `spans`)?
#[inline]
pub fn counters_armed() -> bool {
    mode() != Mode::Off
}

/// Serializes tests that flip the process-wide mode override (the
/// test binary runs tests in parallel threads).
#[cfg(test)]
pub(crate) static TEST_MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrips_through_override() {
        let _guard = crate::TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_mode_override(Mode::Spans);
        assert!(spans_armed());
        assert!(counters_armed());
        set_mode_override(Mode::Counters);
        assert!(!spans_armed());
        assert!(counters_armed());
        set_mode_override(Mode::Off);
        assert!(!spans_armed());
        assert!(!counters_armed());
    }
}
