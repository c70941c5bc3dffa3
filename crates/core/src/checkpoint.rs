//! Write-ahead checkpointing of GMRES-IR outer-iteration state.
//!
//! A checkpoint captures everything the outer loop carries across
//! restarts: the accumulated solution `x`, the residual history, and
//! the outer/inner iteration counters. The inner GMRES cycle rebuilds
//! all of its own state from `x` (the Krylov basis, Hessenberg, and
//! ghost entries are recomputed from scratch every cycle), so a job
//! restored at an outer-iteration boundary replays the remaining
//! residual history bit-identically.
//!
//! Commit protocol (two-phase, crash-consistent):
//! 1. every rank stages its state to `rank{R}.ckpt.tmp` and fsyncs,
//! 2. a barrier confirms every rank has staged,
//! 3. every rank renames the staged file over `rank{R}.ckpt`.
//!
//! A crash before the barrier leaves the previous generation intact on
//! every rank; a crash after it leaves a mixed generation, which
//! restore detects via an all-reduce over the per-rank generation
//! counters and resolves by starting cold. Files carry an `HPCK` magic,
//! a version byte, the writing rank/size, and a CRC32 trailer (same
//! polynomial as the wire frames) so torn or foreign files are
//! rejected rather than trusted.

use hpgmxp_comm::error::{CommError, CommErrorKind, CommResult};
use hpgmxp_comm::frame::crc32;
use hpgmxp_comm::{Comm, ReduceOp};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File format magic ("HPCK") and version.
const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"HPCK");
const CKPT_VERSION: u32 = 1;

/// Where and how often to checkpoint, and whether to restore on start.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory holding one `rank{R}.ckpt` per rank.
    pub dir: PathBuf,
    /// Checkpoint every `interval` outer iterations (>= 1).
    pub interval: usize,
    /// Attempt to restore from `dir` before the first outer iteration.
    pub restore: bool,
}

impl CheckpointSpec {
    /// Checkpoint into `dir` every `interval` outer iterations.
    pub fn new(dir: impl Into<PathBuf>, interval: usize) -> Self {
        CheckpointSpec { dir: dir.into(), interval: interval.max(1), restore: false }
    }

    /// Also restore from the directory before solving.
    pub fn restoring(mut self) -> Self {
        self.restore = true;
        self
    }

    /// Build from the environment. `HPGMXP_CKPT_DIR` gates the feature
    /// (unset → `None`, checkpointing compiled out of the hot path);
    /// `HPGMXP_CKPT_INTERVAL` defaults to 1; `HPGMXP_RESTORE=1`
    /// requests restore.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var("HPGMXP_CKPT_DIR").ok()?;
        if dir.is_empty() {
            return None;
        }
        let interval = std::env::var("HPGMXP_CKPT_INTERVAL")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(1);
        let restore = std::env::var("HPGMXP_RESTORE").map(|v| v == "1").unwrap_or(false);
        let mut spec = CheckpointSpec::new(dir, interval);
        spec.restore = restore;
        Some(spec)
    }

    fn committed_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank{rank}.ckpt"))
    }

    fn staged_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank{rank}.ckpt.tmp"))
    }
}

/// Outer-iteration state carried across a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct OuterState {
    /// Total inner iterations accumulated so far.
    pub iters: usize,
    /// Outer iterations (restarts) completed so far; also the
    /// checkpoint generation counter.
    pub restarts: usize,
    /// Residual history entries recorded so far (one per outer
    /// iteration entered, when history tracking is on).
    pub history: Vec<f64>,
    /// The locally owned slice of the accumulated solution.
    pub x: Vec<f64>,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> CommError {
    CommError::new(CommErrorKind::Protocol, None, format!("{what} {}: {e}", path.display()))
}

fn encode(state: &OuterState, rank: usize, size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + 8 * (state.history.len() + state.x.len()));
    out.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    out.extend_from_slice(&(rank as u64).to_le_bytes());
    out.extend_from_slice(&(size as u64).to_le_bytes());
    out.extend_from_slice(&(state.iters as u64).to_le_bytes());
    out.extend_from_slice(&(state.restarts as u64).to_le_bytes());
    out.extend_from_slice(&(state.history.len() as u64).to_le_bytes());
    out.extend_from_slice(&(state.x.len() as u64).to_le_bytes());
    for v in &state.history {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in &state.x {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode(bytes: &[u8], rank: usize, size: usize) -> Result<OuterState, String> {
    if bytes.len() < 60 {
        return Err(format!("truncated checkpoint ({} bytes)", bytes.len()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = crc32(body);
    if stored != actual {
        return Err(format!("CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"));
    }
    let mut off = 0usize;
    let mut take_u64 = |what: &str| -> Result<u64, String> {
        let end = off + 8;
        if end > body.len() {
            return Err(format!("truncated checkpoint reading {what}"));
        }
        let v = u64::from_le_bytes(body[off..end].try_into().unwrap());
        off = end;
        Ok(v)
    };
    let magic = take_u64("header")?;
    let (magic, version) = ((magic & 0xffff_ffff) as u32, (magic >> 32) as u32);
    if magic != CKPT_MAGIC {
        return Err(format!("bad magic {magic:#010x}"));
    }
    if version != CKPT_VERSION {
        return Err(format!("unsupported checkpoint version {version}"));
    }
    let file_rank = take_u64("rank")?;
    let file_size = take_u64("size")?;
    if file_rank as usize != rank || file_size as usize != size {
        return Err(format!(
            "checkpoint written by rank {file_rank}/{file_size}, loaded as rank {rank}/{size}"
        ));
    }
    let iters = take_u64("iters")? as usize;
    let restarts = take_u64("restarts")? as usize;
    let nhist = take_u64("history length")? as usize;
    let nx = take_u64("x length")? as usize;
    if body.len() != 56 + 8 * (nhist + nx) {
        return Err(format!(
            "length mismatch: {} bytes for {nhist} history + {nx} solution entries",
            bytes.len()
        ));
    }
    let mut take_f64s = |count: usize| -> Vec<f64> {
        (0..count)
            .map(|_| {
                let v = f64::from_le_bytes(body[off..off + 8].try_into().unwrap());
                off += 8;
                v
            })
            .collect()
    };
    let history = take_f64s(nhist);
    let x = take_f64s(nx);
    Ok(OuterState { iters, restarts, history, x })
}

/// Stage this rank's state, barrier, then atomically commit. Returns a
/// typed error if staging fails or a peer dies inside the barrier; the
/// previously committed generation is untouched in either case.
pub fn stage_and_commit<C: Comm>(
    comm: &C,
    spec: &CheckpointSpec,
    state: &OuterState,
) -> CommResult<()> {
    let rank = comm.rank();
    fs::create_dir_all(&spec.dir).map_err(|e| io_err("cannot create", &spec.dir, e))?;
    let staged = spec.staged_path(rank);
    let bytes = encode(state, rank, comm.size());
    {
        let mut sp = hpgmxp_trace::span("ckpt stage", hpgmxp_trace::Lane::Ckpt);
        sp.set_arg(bytes.len() as u64);
        let mut f = fs::File::create(&staged).map_err(|e| io_err("cannot stage", &staged, e))?;
        f.write_all(&bytes).map_err(|e| io_err("cannot write", &staged, e))?;
        f.sync_all().map_err(|e| io_err("cannot sync", &staged, e))?;
    }
    // Every rank has durably staged before anyone overwrites the
    // previous generation.
    comm.barrier()?;
    {
        let _sp = hpgmxp_trace::span("ckpt commit", hpgmxp_trace::Lane::Ckpt);
        let committed = spec.committed_path(rank);
        fs::rename(&staged, &committed).map_err(|e| io_err("cannot commit", &committed, e))?;
    }
    hpgmxp_trace::counter!("ckpt.commits").inc();
    hpgmxp_trace::counter!("ckpt.bytes_staged").add(bytes.len() as u64);
    Ok(())
}

/// Try to restore. Returns `Ok(None)` (cold start everywhere) when any
/// rank lacks a readable checkpoint, and a typed error when ranks hold
/// different generations — a torn commit that cannot be replayed.
pub fn restore<C: Comm>(
    comm: &C,
    spec: &CheckpointSpec,
    expected_len: usize,
) -> CommResult<Option<OuterState>> {
    let rank = comm.rank();
    let _sp = hpgmxp_trace::span("ckpt restore", hpgmxp_trace::Lane::Ckpt);
    hpgmxp_trace::counter!("ckpt.restores").inc();
    let local = fs::read(spec.committed_path(rank))
        .ok()
        .and_then(|bytes| match decode(&bytes, rank, comm.size()) {
            Ok(state) if state.x.len() == expected_len => Some(state),
            Ok(state) => {
                eprintln!(
                    "hpgmxp: rank {rank}: ignoring checkpoint sized for {} rows (expected {expected_len})",
                    state.x.len()
                );
                None
            }
            Err(why) => {
                eprintln!("hpgmxp: rank {rank}: ignoring unusable checkpoint: {why}");
                None
            }
        });
    // Agree on a generation: -1 encodes "nothing usable here".
    let generation = local.as_ref().map(|s| s.restarts as f64).unwrap_or(-1.0);
    let lo = comm.allreduce_scalar(generation, ReduceOp::Min)?;
    let hi = comm.allreduce_scalar(generation, ReduceOp::Max)?;
    if lo < 0.0 {
        return Ok(None);
    }
    if lo != hi {
        return Err(CommError::new(
            CommErrorKind::Protocol,
            None,
            format!("checkpoint generations diverge across ranks (min {lo}, max {hi})"),
        ));
    }
    Ok(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpgmxp_comm::SelfComm;

    fn state() -> OuterState {
        OuterState {
            iters: 42,
            restarts: 3,
            history: vec![1.0, 0.5, 0.25, 0.125],
            x: (0..17).map(|i| (i as f64).sin()).collect(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = state();
        let bytes = encode(&s, 2, 4);
        let back = decode(&bytes, 2, 4).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn crc_detects_corruption() {
        let mut bytes = encode(&state(), 0, 1);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode(&bytes, 0, 1).unwrap_err();
        assert!(err.contains("CRC"), "{err}");
    }

    #[test]
    fn rank_mismatch_rejected() {
        let bytes = encode(&state(), 1, 4);
        let err = decode(&bytes, 2, 4).unwrap_err();
        assert!(err.contains("rank 1/4"), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&state(), 0, 1);
        assert!(decode(&bytes[..bytes.len() - 9], 0, 1).is_err());
        assert!(decode(&bytes[..10], 0, 1).is_err());
    }

    #[test]
    fn commit_then_restore_single_rank() {
        let dir = std::env::temp_dir().join(format!("hpck-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(&dir, 1);
        let comm = SelfComm;
        let s = state();
        stage_and_commit(&comm, &spec, &s).unwrap();
        // Staged file was renamed away.
        assert!(!spec.staged_path(0).exists());
        let back = restore(&comm, &spec, s.x.len()).unwrap().unwrap();
        assert_eq!(back, s);
        // Wrong expected length → cold start, not a crash.
        assert!(restore(&comm, &spec, s.x.len() + 1).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_missing_dir_is_cold_start() {
        let spec = CheckpointSpec::new("/nonexistent/hpgmxp-ckpt", 1);
        assert!(restore(&SelfComm, &spec, 8).unwrap().is_none());
    }

    #[test]
    fn interval_clamped_to_one() {
        assert_eq!(CheckpointSpec::new("x", 0).interval, 1);
    }
}
