//! The benchmark's own spans, recorded around its calls into each
//! layer. One buffer per rank, preallocated, written out when the run
//! ends; spans inside the program are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// A rank's span buffer. `begin` nests under the innermost open span.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    buf: Vec<Span>,
    capacity: usize,
    open: Vec<u32>,
    dropped: u64,
}

/// Handle `begin` returns and `end` consumes.
#[must_use]
pub struct Open(u32);

/// Total and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

impl Spans {
    /// A buffer of `capacity` spans on the clock started at `epoch`
    /// (shared by the ranks of a world so their lanes line up).
    /// Capacity 0 records nothing: the untraced run uses the same code.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Spans { epoch, buf: Vec::with_capacity(capacity), capacity, open: Vec::new(), dropped: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if self.buf.len() == self.capacity {
            self.dropped += (self.capacity > 0) as u64;
            return Open(NO_PARENT);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.buf.len() as u32;
        let start_ns = self.now_ns();
        self.buf.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, span: Open) {
        if span.0 == NO_PARENT {
            return;
        }
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(span.0), "spans must close innermost first");
        self.buf[span.0 as usize].end_ns = self.now_ns();
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.buf.len()];
        for s in &self.buf {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in self.buf.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Append this rank's spans to `out` as Chrome trace-event "X"
    /// records: one lane (`tid`) per rank, `args` naming the span, the
    /// span that caused it and the workload.
    fn write_events(&self, rank: usize, workload: &str, out: &mut String) {
        for (id, s) in self.buf.iter().enumerate() {
            if !out.ends_with('[') {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            // Span names and workload names are identifiers; nothing to escape.
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\
                 \"tid\":{rank},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"workload\":\"{workload}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )
            .expect("writing to a String cannot fail");
        }
    }
}

/// Chrome trace-event JSON of every rank's spans (loads in Perfetto and
/// `chrome://tracing`; times in microseconds).
pub fn chrome_trace(ranks: &[Spans], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (rank, spans) in ranks.iter().enumerate() {
        spans.write_events(rank, workload, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut sp = Spans::new(Instant::now(), 8);
        let outer = sp.begin("outer");
        let a = sp.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        sp.end(a);
        let b = sp.begin("inner");
        sp.end(b);
        sp.end(outer);
        let t = sp.totals();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["outer"].count, 1);
        assert!(t["inner"].total_s >= 0.002);
        let rebuilt = t["outer"].self_s + t["inner"].total_s;
        assert!((rebuilt - t["outer"].total_s).abs() < 1e-9, "self + children = total");
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut sp = Spans::new(Instant::now(), 1);
        let a = sp.begin("kept");
        let b = sp.begin("lost");
        sp.end(b);
        sp.end(a);
        assert_eq!(sp.dropped(), 1);
        assert_eq!(sp.totals().len(), 1);
        let mut off = Spans::new(Instant::now(), 0);
        let x = off.begin("nothing");
        off.end(x);
        assert_eq!(off.dropped(), 0, "a disabled buffer is not a dropping one");
    }

    #[test]
    fn chrome_trace_links_parents() {
        let mut sp = Spans::new(Instant::now(), 4);
        let outer = sp.begin("outer");
        let inner = sp.begin("inner");
        sp.end(inner);
        sp.end(outer);
        let json = chrome_trace(&[sp], "w");
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents");
        assert_eq!(events.len(), 2);
        let parent = |e: &serde::Value| e.get("args").unwrap().get("parent").unwrap().as_f64();
        assert_eq!(parent(&events[0]), Some(-1.0));
        assert_eq!(parent(&events[1]), Some(0.0));
    }
}
