//! The metrics registry: named counters, gauges, and log2-bucket
//! histograms.
//!
//! Registration (first use of a name) takes a lock and allocates once;
//! every update afterwards is a relaxed atomic operation. Call sites
//! cache the registered handle in a `OnceLock` via the [`counter!`](macro@crate::counter)/
//! [`gauge!`](macro@crate::gauge)/[`histogram!`](macro@crate::histogram) macros, so the steady-state cost of an
//! update is one load, one mode branch, and one atomic add — cheap
//! enough to leave armed in `counters` mode on hot transport paths
//! without breaking the zero-allocation gate.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1 (no-op unless metrics are armed).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (no-op unless metrics are armed).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::counters_armed() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the value (no-op unless metrics are armed).
    #[inline]
    pub fn set(&self, v: u64) {
        if crate::counters_armed() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` counts values whose bit length
/// is `i` (`v == 0` lands in bucket 0), so the full `u64` range fits.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram over fixed log2 buckets, plus count and sum.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count.load(Ordering::Relaxed)).finish()
    }
}

impl Histogram {
    /// The log2 bucket index of a value: its bit length.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one observation (no-op unless metrics are armed).
    #[inline]
    pub fn observe(&self, v: u64) {
        if crate::counters_armed() {
            self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// The registries behind [`counter`]/[`gauge`]/[`histogram`]. Handles
/// are leaked boxes: metric lifetimes are the process lifetime.
#[derive(Default)]
struct Registry {
    counters: Mutex<Vec<(&'static str, &'static Counter)>>,
    gauges: Mutex<Vec<(&'static str, &'static Gauge)>>,
    histograms: Mutex<Vec<(&'static str, &'static Histogram)>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

fn get_or_register<T: Default + 'static>(
    table: &Mutex<Vec<(&'static str, &'static T)>>,
    name: &'static str,
) -> &'static T {
    let mut t = table.lock();
    if let Some((_, h)) = t.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let h: &'static T = Box::leak(Box::default());
    t.push((name, h));
    h
}

/// The counter registered under `name` (registering it on first use).
/// Hot paths should cache the handle — see the [`counter!`](macro@crate::counter) macro.
pub fn counter(name: &'static str) -> &'static Counter {
    get_or_register(&registry().counters, name)
}

/// The gauge registered under `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    get_or_register(&registry().gauges, name)
}

/// The histogram registered under `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    get_or_register(&registry().histograms, name)
}

/// A registered counter handle, cached per call site.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// A registered gauge handle, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// A registered histogram handle, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// One histogram, snapshotted: only non-empty buckets are kept, as
/// `(log2 bucket index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u32, u64)>,
}

/// A point-in-time copy of every registered metric, sorted by name
/// (deterministic layout for reports and goldens). Serializable so
/// campaign reports can embed it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Snapshot the global registry.
    pub fn capture() -> MetricsSnapshot {
        let reg = registry();
        let mut counters: Vec<(String, u64)> =
            reg.counters.lock().iter().map(|(n, c)| (n.to_string(), c.get())).collect();
        counters.sort();
        let mut gauges: Vec<(String, u64)> =
            reg.gauges.lock().iter().map(|(n, g)| (n.to_string(), g.get())).collect();
        gauges.sort();
        let mut histograms: Vec<HistogramSnapshot> = reg
            .histograms
            .lock()
            .iter()
            .map(|(n, h)| HistogramSnapshot {
                name: n.to_string(),
                count: h.count(),
                sum: h.sum(),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let c = b.load(Ordering::Relaxed);
                        (c > 0).then_some((i as u32, c))
                    })
                    .collect(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, gauges, histograms }
    }

    /// The change from `earlier` to `self`: counters and histogram
    /// counts subtract (names absent earlier count from zero); gauges
    /// keep their current value. Metrics that did not move are
    /// dropped, so a quiet subsystem leaves no noise in a report.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let base = |name: &str| {
            earlier.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        let counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .filter_map(|(n, v)| {
                let d = v.saturating_sub(base(n));
                (d > 0).then(|| (n.clone(), d))
            })
            .collect();
        let gauges = self.gauges.clone();
        let histograms: Vec<HistogramSnapshot> = self
            .histograms
            .iter()
            .filter_map(|h| {
                let old = earlier.histograms.iter().find(|e| e.name == h.name);
                let old_count = old.map_or(0, |e| e.count);
                let count = h.count.saturating_sub(old_count);
                if count == 0 {
                    return None;
                }
                let old_bucket = |i: u32| {
                    old.and_then(|e| e.buckets.iter().find(|(bi, _)| *bi == i))
                        .map(|(_, c)| *c)
                        .unwrap_or(0)
                };
                Some(HistogramSnapshot {
                    name: h.name.clone(),
                    count,
                    sum: h.sum.saturating_sub(old.map_or(0, |e| e.sum)),
                    buckets: h
                        .buckets
                        .iter()
                        .filter_map(|(i, c)| {
                            let d = c.saturating_sub(old_bucket(*i));
                            (d > 0).then_some((*i, d))
                        })
                        .collect(),
                })
            })
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }

    /// Is there nothing in this snapshot?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_range() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_and_snapshots_delta() {
        let _guard = crate::TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_mode_override(crate::Mode::Counters);
        let c = counter("test.snapshot_delta");
        let h = histogram("test.snapshot_hist");
        let before = MetricsSnapshot::capture();
        c.add(5);
        h.observe(100);
        h.observe(1000);
        let after = MetricsSnapshot::capture();
        let d = after.delta_since(&before);
        assert_eq!(
            d.counters.iter().find(|(n, _)| n == "test.snapshot_delta").map(|(_, v)| *v),
            Some(5)
        );
        let hd = d.histograms.iter().find(|h| h.name == "test.snapshot_hist").unwrap();
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 1100);
        assert_eq!(hd.buckets.iter().map(|(_, c)| c).sum::<u64>(), 2);
        crate::set_mode_override(crate::Mode::Off);
    }

    #[test]
    fn registration_is_idempotent() {
        let a = counter("test.same_name") as *const Counter;
        let b = counter("test.same_name") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let s = MetricsSnapshot {
            counters: vec![("a".into(), 1)],
            gauges: vec![("g".into(), 2)],
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                count: 3,
                sum: 9,
                buckets: vec![(2, 3)],
            }],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
