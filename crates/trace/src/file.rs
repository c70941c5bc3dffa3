//! The per-rank binary trace file: a compact dump of one process's
//! global recorder plus its metrics snapshot, written at rank
//! shutdown and merged offline by the `hpgmxp-trace` CLI.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "HPTR"            4 bytes
//! version u16               currently 1
//! rank    u32
//! names   u32 count, then per name: u16 len + UTF-8 bytes
//! events  u32 count, then per event:
//!           u32 name_id, u8 lane, u8 kind, u16 pad,
//!           u32 tid, u64 start_ns, u64 end_ns, u64 arg
//! overlaps u32 count, then 7 × u64 each
//! dropped u64               events lost (ring wrap or contention)
//! metrics u32 len + JSON    a `MetricsSnapshot`
//! ```

use crate::metrics::MetricsSnapshot;
use crate::recorder::{Kind, Lane, OverlapRec, Recorder};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"HPTR";
const VERSION: u16 = 1;

/// One event as read back from a trace file (names are owned — the
/// `&'static str` identity does not cross processes).
#[derive(Debug, Clone, PartialEq)]
pub struct FileEvent {
    pub name: String,
    pub lane: Lane,
    pub kind: Kind,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub arg: u64,
}

/// The parsed contents of one per-rank trace file.
#[derive(Debug, Clone)]
pub struct TraceFile {
    pub rank: u32,
    pub events: Vec<FileEvent>,
    pub overlaps: Vec<OverlapRec>,
    /// Events the rank's ring lost (wrapped over by capacity, or
    /// dropped when wrapped writers contended for a slot) — a
    /// non-zero value tells the reader the trace window is partial.
    pub dropped: u64,
    pub metrics: MetricsSnapshot,
}

/// Serialize one recorder (plus the current global metrics snapshot)
/// to `path`.
pub fn write_trace_file(path: &Path, rank: u32, rec: &Recorder) -> io::Result<()> {
    let events = rec.events();
    let overlaps = rec.overlaps();
    let metrics = MetricsSnapshot::capture();
    let metrics_json = serde_json::to_string(&metrics).map_err(io::Error::other)?;

    let mut names: Vec<&'static str> = Vec::new();
    let mut ids: HashMap<*const u8, u32> = HashMap::new();
    for ev in &events {
        ids.entry(ev.name.as_ptr()).or_insert_with(|| {
            names.push(ev.name);
            (names.len() - 1) as u32
        });
    }

    let mut out = Vec::with_capacity(64 + events.len() * 34 + overlaps.len() * 56);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&rank.to_le_bytes());
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for n in &names {
        out.extend_from_slice(&(n.len() as u16).to_le_bytes());
        out.extend_from_slice(n.as_bytes());
    }
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for ev in &events {
        out.extend_from_slice(&ids[&ev.name.as_ptr()].to_le_bytes());
        out.push(ev.lane as u8);
        out.push(ev.kind as u8);
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&ev.tid.to_le_bytes());
        out.extend_from_slice(&ev.start_ns.to_le_bytes());
        out.extend_from_slice(&ev.end_ns.to_le_bytes());
        out.extend_from_slice(&ev.arg.to_le_bytes());
    }
    out.extend_from_slice(&(overlaps.len() as u32).to_le_bytes());
    for o in &overlaps {
        for w in [
            o.tag,
            o.bytes_sent,
            o.bytes_received,
            o.pack_ns,
            o.window_ns,
            o.wire_wait_ns,
            o.unpack_ns,
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out.extend_from_slice(&(rec.dropped() as u64).to_le_bytes());
    out.extend_from_slice(&(metrics_json.len() as u32).to_le_bytes());
    out.extend_from_slice(metrics_json.as_bytes());

    let mut f = std::fs::File::create(path)?;
    f.write_all(&out)?;
    f.sync_all()
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!("truncated trace file at offset {}", self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Parse one per-rank trace file.
pub fn read_trace_file(path: &Path) -> Result<TraceFile, String> {
    let mut buf = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut c = Cursor { buf: &buf, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err(format!("{}: not a trace file (bad magic)", path.display()));
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(format!("{}: unsupported trace version {version}", path.display()));
    }
    let rank = c.u32()?;
    let name_count = c.u32()? as usize;
    let mut names = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        let len = c.u16()? as usize;
        let s = std::str::from_utf8(c.take(len)?)
            .map_err(|e| format!("{}: bad name: {e}", path.display()))?;
        names.push(s.to_string());
    }
    let event_count = c.u32()? as usize;
    let mut events = Vec::with_capacity(event_count);
    for _ in 0..event_count {
        let name_id = c.u32()? as usize;
        let lane = Lane::from_u8(c.take(1)?[0]);
        let kind = Kind::from_u8(c.take(1)?[0]);
        c.take(2)?;
        let tid = c.u32()?;
        let start_ns = c.u64()?;
        let end_ns = c.u64()?;
        let arg = c.u64()?;
        let name = names
            .get(name_id)
            .ok_or_else(|| format!("{}: name id {name_id} out of range", path.display()))?
            .clone();
        events.push(FileEvent { name, lane, kind, tid, start_ns, end_ns, arg });
    }
    let overlap_count = c.u32()? as usize;
    let mut overlaps = Vec::with_capacity(overlap_count);
    for _ in 0..overlap_count {
        overlaps.push(OverlapRec {
            tag: c.u64()?,
            bytes_sent: c.u64()?,
            bytes_received: c.u64()?,
            pack_ns: c.u64()?,
            window_ns: c.u64()?,
            wire_wait_ns: c.u64()?,
            unpack_ns: c.u64()?,
        });
    }
    let dropped = c.u64()?;
    let metrics_len = c.u32()? as usize;
    let metrics_json = std::str::from_utf8(c.take(metrics_len)?)
        .map_err(|e| format!("{}: bad metrics blob: {e}", path.display()))?;
    let metrics = serde_json::from_str(metrics_json)
        .map_err(|e| format!("{}: bad metrics JSON: {e}", path.display()))?;
    Ok(TraceFile { rank, events, overlaps, dropped, metrics })
}

/// The file a rank flushes into `dir`.
pub fn trace_file_name(rank: u32) -> String {
    format!("trace-rank{rank}.bin")
}

/// Flush the global recorder to `$HPGMXP_TRACE_DIR/trace-rank<R>.bin`
/// if a trace dir is armed and tracing is not off. Returns the path
/// written, `None` when un-armed. Idempotent: a later flush rewrites
/// the file with the (cumulative) ring contents.
pub fn flush_global(rank: u32) -> Option<io::Result<PathBuf>> {
    if !crate::counters_armed() {
        return None;
    }
    let dir = std::env::var_os("HPGMXP_TRACE_DIR")?;
    let dir = PathBuf::from(dir);
    let path = dir.join(trace_file_name(rank));
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| write_trace_file(&path, rank, crate::recorder::global()))
        .map(|()| path);
    Some(res)
}

/// RAII guard that flushes the global recorder on drop — including on
/// unwind, so a crashed rank still leaves its trace file behind for
/// post-mortem merging.
#[derive(Debug)]
pub struct FlushGuard {
    rank: u32,
}

impl FlushGuard {
    pub fn new(rank: u32) -> FlushGuard {
        FlushGuard { rank }
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if let Some(Err(e)) = flush_global(self.rank) {
            eprintln!("[trace] failed to flush trace file for rank {}: {e}", self.rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn trace_file_roundtrips() {
        let rec = Recorder::new(16, 4);
        {
            let _s = rec.span("alpha", Lane::Compute);
        }
        rec.instant("beta", Lane::Wire, 9);
        rec.add_overlap(OverlapRec { tag: 3, bytes_sent: 64, ..Default::default() });

        let dir = std::env::temp_dir().join(format!("hpgmxp-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(trace_file_name(7));
        write_trace_file(&path, 7, &rec).unwrap();
        let back = read_trace_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(back.rank, 7);
        assert_eq!(back.dropped, 0);
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.events[0].name, "alpha");
        assert_eq!(back.events[0].kind, Kind::Span);
        assert_eq!(back.events[1].name, "beta");
        assert_eq!(back.events[1].lane, Lane::Wire);
        assert_eq!(back.events[1].arg, 9);
        assert_eq!(back.overlaps.len(), 1);
        assert_eq!(back.overlaps[0].tag, 3);
        assert_eq!(back.overlaps[0].bytes_sent, 64);
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("hpgmxp-trace-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, b"not a trace").unwrap();
        let err = read_trace_file(&path).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains("bad magic"), "{err}");
    }
}
