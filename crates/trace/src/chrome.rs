//! Merging per-rank trace files into Chrome trace-event JSON.
//!
//! The output is the classic `{"traceEvents": [...]}` document that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: each span becomes a balanced `"B"`/`"E"` duration pair
//! and each instant a `"i"` event, with `pid` = rank, `tid` = the
//! recorder's dense thread id, `ts` in microseconds, and `cat` = the
//! lane label. The document is built from serde structs (not string
//! pasting), so it round-trips through `serde_json` and stays valid
//! by construction.

use crate::file::TraceFile;
use crate::recorder::Kind;
use serde::{Deserialize, Serialize};

/// One Chrome trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    pub name: String,
    /// Lane label (GPU/HALO/COPY/COMM/COLL/WIRE).
    pub cat: String,
    /// `"B"` (begin), `"E"` (end), or `"i"` (instant).
    pub ph: String,
    /// Microseconds since the rank's epoch.
    pub ts: f64,
    /// Rank.
    pub pid: u64,
    /// Dense per-process thread id.
    pub tid: u64,
    /// The span's payload word.
    pub arg: u64,
}

/// The merged trace document.
#[allow(non_snake_case)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeTrace {
    pub traceEvents: Vec<ChromeEvent>,
    pub displayTimeUnit: String,
}

/// Merge per-rank trace files into one Chrome trace document.
///
/// Chrome/Perfetto match `"B"`/`"E"` pairs as a per-`(pid,tid)` stack,
/// so ordering at equal timestamps decides which span a duration is
/// attributed to. Events are sorted by timestamp with tie-breaks that
/// keep the stack honest: ends of earlier spans come before begins
/// (touching spans do not nest), among same-timestamp `"B"`s the span
/// that ends last (the outer one) opens first, among same-timestamp
/// `"E"`s the span that started last (the inner one) closes first, and
/// a zero-duration span keeps its `"E"` immediately after its own
/// `"B"`.
pub fn merge(files: &[TraceFile]) -> ChromeTrace {
    // (ts, class, tie, sub): class 0 = span ends, 1 = begins/instants
    // (and the glued ends of zero-duration spans, ordered after their
    // begin by `sub`); `tie` is negated so larger spans sort first.
    struct Keyed {
        ts: f64,
        class: u8,
        tie: f64,
        sub: u8,
        ev: ChromeEvent,
    }
    let mut events: Vec<Keyed> = Vec::new();
    for f in files {
        for ev in &f.events {
            let start_us = ev.start_ns as f64 / 1000.0;
            let end_us = ev.end_ns as f64 / 1000.0;
            let base = ChromeEvent {
                name: ev.name.clone(),
                cat: ev.lane.label().to_string(),
                ph: String::new(),
                ts: start_us,
                pid: f.rank as u64,
                tid: ev.tid as u64,
                arg: ev.arg,
            };
            match ev.kind {
                Kind::Instant => events.push(Keyed {
                    ts: start_us,
                    class: 1,
                    tie: -start_us,
                    sub: 0,
                    ev: ChromeEvent { ph: "i".into(), ..base },
                }),
                Kind::Span => {
                    events.push(Keyed {
                        ts: start_us,
                        class: 1,
                        tie: -end_us,
                        sub: 0,
                        ev: ChromeEvent { ph: "B".into(), ..base.clone() },
                    });
                    let end = ChromeEvent { ph: "E".into(), ts: end_us, ..base };
                    if end_us > start_us {
                        events.push(Keyed {
                            ts: end_us,
                            class: 0,
                            tie: -start_us,
                            sub: 0,
                            ev: end,
                        });
                    } else {
                        events.push(Keyed { ts: end_us, class: 1, tie: -end_us, sub: 1, ev: end });
                    }
                }
            }
        }
    }
    events.sort_by(|a, b| {
        a.ts.total_cmp(&b.ts)
            .then(a.class.cmp(&b.class))
            .then(a.tie.total_cmp(&b.tie))
            .then(a.sub.cmp(&b.sub))
    });
    ChromeTrace {
        traceEvents: events.into_iter().map(|k| k.ev).collect(),
        displayTimeUnit: "ms".to_string(),
    }
}

/// Per-span-name aggregate over every rank, for the summary table.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    pub name: String,
    pub lane: &'static str,
    pub count: u64,
    pub total_us: f64,
    pub max_us: f64,
}

/// Aggregate span statistics by name (instants count with zero
/// duration), sorted by total time, descending.
pub fn summarize(files: &[TraceFile]) -> Vec<SpanSummary> {
    let mut rows: Vec<SpanSummary> = Vec::new();
    for f in files {
        for ev in &f.events {
            let dur_us = ev.end_ns.saturating_sub(ev.start_ns) as f64 / 1000.0;
            match rows.iter_mut().find(|r| r.name == ev.name) {
                Some(r) => {
                    r.count += 1;
                    r.total_us += dur_us;
                    r.max_us = r.max_us.max(dur_us);
                }
                None => rows.push(SpanSummary {
                    name: ev.name.clone(),
                    lane: ev.lane.label(),
                    count: 1,
                    total_us: dur_us,
                    max_us: dur_us,
                }),
            }
        }
    }
    rows.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    rows
}

/// Render the summary rows as an aligned text table.
pub fn summary_table(files: &[TraceFile]) -> String {
    use std::fmt::Write as _;
    let rows = summarize(files);
    let mut s = String::new();
    let ranks: Vec<u32> = files.iter().map(|f| f.rank).collect();
    let dropped: u64 = files.iter().map(|f| f.dropped).sum();
    let _ = writeln!(
        s,
        "== span summary over ranks {ranks:?} ({} events{}) ==",
        files.iter().map(|f| f.events.len()).sum::<usize>(),
        if dropped > 0 { format!(", {dropped} wrapped out of the ring") } else { String::new() }
    );
    let _ = writeln!(
        s,
        "{:<32} {:>5} {:>8} {:>12} {:>12} {:>12}",
        "span", "lane", "count", "total ms", "mean us", "max us"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<32} {:>5} {:>8} {:>12.3} {:>12.2} {:>12.2}",
            r.name,
            r.lane,
            r.count,
            r.total_us / 1000.0,
            r.total_us / r.count as f64,
            r.max_us
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileEvent;
    use crate::metrics::MetricsSnapshot;
    use crate::recorder::Lane;

    fn demo_file(rank: u32) -> TraceFile {
        TraceFile {
            rank,
            events: vec![
                FileEvent {
                    name: "SpMV".into(),
                    lane: Lane::Compute,
                    kind: Kind::Span,
                    tid: 1,
                    start_ns: 1000,
                    end_ns: 5000,
                    arg: 0,
                },
                FileEvent {
                    name: "heartbeat".into(),
                    lane: Lane::Wire,
                    kind: Kind::Instant,
                    tid: 1,
                    start_ns: 2000,
                    end_ns: 2000,
                    arg: 1,
                },
            ],
            overlaps: vec![],
            dropped: 0,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn merge_balances_begin_end_and_tags_ranks() {
        let doc = merge(&[demo_file(0), demo_file(1)]);
        let b = doc.traceEvents.iter().filter(|e| e.ph == "B").count();
        let e = doc.traceEvents.iter().filter(|e| e.ph == "E").count();
        let i = doc.traceEvents.iter().filter(|e| e.ph == "i").count();
        assert_eq!((b, e, i), (2, 2, 2));
        assert!(doc.traceEvents.windows(2).all(|w| w[0].ts <= w[1].ts), "sorted by ts");
        let pids: std::collections::HashSet<u64> = doc.traceEvents.iter().map(|e| e.pid).collect();
        assert_eq!(pids.len(), 2);
        // Valid JSON by construction: it round-trips through serde.
        let json = serde_json::to_string(&doc).unwrap();
        let back: ChromeTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(doc, back);
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn equal_timestamp_ties_keep_the_stack_honest() {
        let span = |name: &str, start_ns: u64, end_ns: u64| FileEvent {
            name: name.into(),
            lane: Lane::Compute,
            kind: Kind::Span,
            tid: 1,
            start_ns,
            end_ns,
            arg: 0,
        };
        let f = TraceFile {
            rank: 0,
            events: vec![
                span("inner", 1000, 3000), // starts with outer
                span("outer", 1000, 5000),
                span("tail", 3000, 5000), // starts as inner ends, ends with outer
                span("zero", 2000, 2000),
                span("next", 5000, 6000), // starts as outer ends
            ],
            overlaps: vec![],
            dropped: 0,
            metrics: MetricsSnapshot::default(),
        };
        let doc = merge(&[f]);
        let pos = |name: &str, ph: &str| {
            doc.traceEvents.iter().position(|e| e.name == name && e.ph == ph).unwrap()
        };
        // Same start: the outer span opens first.
        assert!(pos("outer", "B") < pos("inner", "B"));
        // Same end: the inner-most span closes first.
        assert!(pos("tail", "E") < pos("outer", "E"));
        // Touching spans close before the next opens instead of nesting.
        assert!(pos("inner", "E") < pos("tail", "B"));
        assert!(pos("outer", "E") < pos("next", "B"));
        // A zero-duration span stays a glued B/E pair inside its parent.
        assert_eq!(pos("zero", "B") + 1, pos("zero", "E"));
        assert!(pos("outer", "B") < pos("zero", "B"));
        // Replay the stream as Chrome would: B/E matched as a stack,
        // every E must pop the span it belongs to.
        let mut stack: Vec<&str> = Vec::new();
        for e in &doc.traceEvents {
            match e.ph.as_str() {
                "B" => stack.push(&e.name),
                "E" => assert_eq!(stack.pop(), Some(e.name.as_str()), "cross-attributed span"),
                _ => {}
            }
        }
        assert!(stack.is_empty());
    }

    #[test]
    fn summary_aggregates_by_name() {
        let rows = summarize(&[demo_file(0), demo_file(1)]);
        let spmv = rows.iter().find(|r| r.name == "SpMV").unwrap();
        assert_eq!(spmv.count, 2);
        assert!((spmv.total_us - 8.0).abs() < 1e-9);
        assert_eq!(spmv.lane, "GPU");
        let table = summary_table(&[demo_file(0)]);
        assert!(table.contains("SpMV"));
        assert!(table.contains("GPU"));
    }
}
