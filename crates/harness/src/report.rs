//! The output side of the campaign harness: a versioned, machine-
//! readable [`CampaignReport`] plus an aligned-text rendering.
//!
//! Every cell carries the benchmark's full rating context — GF/s
//! (penalized and raw), measured bytes per inner iteration per rank,
//! the `n_d`/`n_ir` iteration counts and penalty, measured halo-overlap
//! efficiency, and the byte-model reconciliation verdict — alongside an
//! explicit [`CellStatus`]: a cell whose solver broke down (the
//! standalone-fp16 stress scenario) is carried as `Unrated` with no
//! GF/s number at all, and the text renderer prints `n/c`. Host
//! metadata (core count, thread setting) is recorded at the report
//! level so a reader can tell a 1-core container's numbers from a real
//! workstation's.

use crate::spec::SeriesMode;
use hpgmxp_trace::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Version of the campaign-report JSON layout. Bump on any field
/// change; the golden-file test in the integration suite pins the
/// current layout. v2 added the per-cell `transport` field when the
/// first multi-process backend made the measuring transport a real
/// variable; v3
/// added the host SIMD fields (`simd_features`/`simd_level`/
/// `simd_override`) when the motif kernels grew a runtime-dispatched
/// vector path; v4 added the host `transport` field and a
/// collective-algorithm stamp when the collective engine made the
/// algorithm a second measurement variable alongside the transport; v5 added the per-cell `metrics`
/// snapshot (a [`MetricsSnapshot`] delta over the cell's execution),
/// populated only when `HPGMXP_TRACE` arms the metrics registry —
/// untraced campaigns keep emitting `null` there, so cross-transport
/// compares stay byte-stable; v6 dropped the algorithm stamp when
/// recursive doubling became the only collective algorithm.
pub const REPORT_SCHEMA: u32 = 6;

/// Whether a cell earned a performance rating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The solver converged (or the cell is a pure model projection):
    /// the GF/s numbers are meaningful.
    Rated,
    /// The solver did not converge — no GF/s is reported (`n/c` in the
    /// text table), only the iteration count at which it gave up.
    Unrated,
}

/// Host metadata recorded with every report (the 1-core-box caveat
/// made machine-readable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostMeta {
    /// Logical CPU cores visible to this process.
    pub logical_cores: usize,
    /// Thread count the rayon pool resolves to (`RAYON_NUM_THREADS`
    /// or the core count).
    pub rayon_threads: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// CPU vector features detected at startup (`"avx2+fma+f16c"` or
    /// `"none"`); numbers measured on mismatched feature sets are not
    /// comparable.
    pub simd_features: String,
    /// Kernel dispatch level the run resolved to (`"avx2"` /
    /// `"scalar"`).
    pub simd_level: String,
    /// `HPGMXP_SIMD` override in effect, if any.
    pub simd_override: Option<String>,
    /// Transport the run's measured cells communicate over: `"thread"`,
    /// or `"shmem"` in a process `hpgmxp-launch` started.
    pub transport: String,
}

impl HostMeta {
    /// Capture the current host.
    pub fn capture() -> Self {
        let logical_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let rayon_threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(logical_cores);
        HostMeta {
            logical_cores,
            rayon_threads,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            simd_features: hpgmxp_sparse::simd::features().summary(),
            simd_level: hpgmxp_sparse::simd::level().name().to_string(),
            simd_override: hpgmxp_sparse::simd::env_override().map(str::to_string),
            transport: hpgmxp_comm::Transport::from_env().name().to_string(),
        }
    }
}

/// One cell of a campaign: a (series, policy, scale) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Series label this cell belongs to.
    pub series: String,
    /// The series' mode (a Hybrid series emits both measured and
    /// modeled cells; `nodes` tells them apart).
    pub mode: SeriesMode,
    /// Solver label: a policy name, `"mxp"`, or `"double"`.
    pub policy: String,
    /// Node count of a modeled cell; `None` for measured cells.
    pub nodes: Option<usize>,
    /// World size: modeled `nodes × devices_per_node`, or the measured
    /// rank count.
    pub ranks: usize,
    /// Transport the cell's measurement ran over: `"thread"` or
    /// `"shmem"` for measured cells, `"model"` for pure projections.
    pub transport: String,
    /// Rating status (see [`CellStatus`]).
    pub status: CellStatus,
    /// Penalized GFLOP/s per rank — the benchmark's official metric.
    /// `None` on unrated cells.
    pub gflops_per_rank: Option<f64>,
    /// Raw (unpenalized) GFLOP/s per rank.
    pub gflops_per_rank_raw: Option<f64>,
    /// Penalized machine total, PFLOP/s (modeled cells).
    pub total_pflops: Option<f64>,
    /// Measured data bytes per inner iteration per rank.
    pub bytes_per_iter_rank: Option<f64>,
    /// Double-precision validation iterations `n_d`.
    pub nd: Option<usize>,
    /// Mixed/policy validation iterations `n_ir` (on unrated cells:
    /// where the solver gave up).
    pub nir: Option<usize>,
    /// `min(1, n_d/n_ir)`.
    pub penalty: Option<f64>,
    /// Measured halo-overlap efficiency of the timed phase.
    pub overlap_efficiency: Option<f64>,
    /// Per-motif raw GFLOP/s (modeled or measured), reporting order.
    pub motif_gflops: Vec<(String, f64)>,
    /// Hybrid byte reconciliation verdict: measured SpMV/GS/wire bytes
    /// against `Workload::policy_*_bytes`. `None` where no
    /// reconciliation applies (classic solvers, pure modes). The
    /// engine aborts on drift rather than emitting `Some(false)` —
    /// that value exists for reports built or edited outside the
    /// engine, and the text renderer flags it as `MISMATCH`.
    pub reconciled: Option<bool>,
    /// Measured matrix-value bytes of one fine-level SpMV (the share
    /// the storage axis shrinks; Hybrid cells).
    pub spmv_value_bytes: Option<f64>,
    /// Free-form context (breakdown residuals, penalty provenance).
    pub note: String,
    /// Metrics-registry delta over this cell's execution (wire frame
    /// and byte counters, solver counters, heartbeat-lag histogram).
    /// `None` unless the run armed the registry (`HPGMXP_TRACE`
    /// counters or spans) — the deltas are timing-dependent, so they
    /// stay out of untraced reports that deterministic compares diff.
    pub metrics: Option<MetricsSnapshot>,
}

impl CellReport {
    /// An empty cell skeleton (everything unknown, `Rated`).
    pub fn new(series: &str, mode: SeriesMode, policy: &str, ranks: usize) -> Self {
        CellReport {
            series: series.to_string(),
            mode,
            policy: policy.to_string(),
            nodes: None,
            ranks,
            transport: String::new(),
            status: CellStatus::Rated,
            gflops_per_rank: None,
            gflops_per_rank_raw: None,
            total_pflops: None,
            bytes_per_iter_rank: None,
            nd: None,
            nir: None,
            penalty: None,
            overlap_efficiency: None,
            motif_gflops: Vec::new(),
            reconciled: None,
            spmv_value_bytes: None,
            note: String::new(),
            metrics: None,
        }
    }

    /// Raw GF/s of one motif, when present.
    pub fn motif_gflops_of(&self, label: &str) -> Option<f64> {
        self.motif_gflops.iter().find(|(l, _)| l == label).map(|(_, v)| *v)
    }
}

/// The complete outcome of one campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Report layout version (see [`REPORT_SCHEMA`]).
    pub schema: u32,
    /// Campaign name (from the spec).
    pub campaign: String,
    /// Spec description, echoed for self-containment.
    pub description: String,
    /// Host the measured cells ran on.
    pub host: HostMeta,
    /// All cells, in plan order.
    pub cells: Vec<CellReport>,
}

/// Format an optional number, `n/c` when a cell is unrated and `-`
/// when simply absent.
fn fmt_opt(v: Option<f64>, status: CellStatus, prec: usize) -> String {
    match (v, status) {
        (Some(x), _) => format!("{x:.prec$}"),
        (None, CellStatus::Unrated) => "n/c".to_string(),
        (None, CellStatus::Rated) => "-".to_string(),
    }
}

impl CampaignReport {
    /// Cells of one series, in plan order.
    pub fn series_cells(&self, label: &str) -> Vec<&CellReport> {
        self.cells.iter().filter(|c| c.series == label).collect()
    }

    /// Find one cell by series, policy, and scale (`nodes` for modeled
    /// cells, `None` + `ranks` for measured ones).
    pub fn find_cell(
        &self,
        series: &str,
        policy: &str,
        nodes: Option<usize>,
        ranks: Option<usize>,
    ) -> Option<&CellReport> {
        self.cells.iter().find(|c| {
            c.series == series
                && c.policy == policy
                && c.nodes == nodes
                && ranks.is_none_or(|r| c.ranks == r)
        })
    }

    /// Serialize to pretty JSON (the artifact CI uploads).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign report serializes")
    }

    /// Parse a report back from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad campaign report: {e}"))
    }

    /// Render the aligned-text tables (one per series).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== Campaign `{}` (report schema v{}) ==", self.campaign, self.schema);
        let _ = writeln!(s, "   {}", self.description);
        let _ = writeln!(
            s,
            "   host: {} cores, {} rayon threads, {}/{}, simd {} (features {}{}), \
             comm {}",
            self.host.logical_cores,
            self.host.rayon_threads,
            self.host.os,
            self.host.arch,
            self.host.simd_level,
            self.host.simd_features,
            self.host
                .simd_override
                .as_deref()
                .map_or(String::new(), |o| format!(", HPGMXP_SIMD={o}")),
            self.host.transport,
        );
        let mut seen: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&cell.series.as_str()) {
                seen.push(&cell.series);
            }
        }
        for label in seen {
            let cells = self.series_cells(label);
            let mode = cells[0].mode;
            let _ = writeln!(s, "\n-- series `{label}` ({mode:?}) --");
            let _ = writeln!(
                s,
                "{:<12} {:>7} {:>7} {:>10} {:>12} {:>11} {:>8} {:>8} {:>6}  status",
                "policy",
                "nodes",
                "ranks",
                "GF/rank",
                "total PF",
                "bytes/it/rk",
                "nd/nir",
                "penalty",
                "ovlp"
            );
            for c in cells {
                let ndnir = match (c.nd, c.nir) {
                    (Some(nd), Some(nir)) => format!("{nd}/{nir}"),
                    (None, Some(nir)) => format!("-/{nir}"),
                    _ => "-".to_string(),
                };
                let status = match (c.status, c.reconciled) {
                    (CellStatus::Unrated, _) => "n/c".to_string(),
                    (CellStatus::Rated, Some(true)) => "ok+recon".to_string(),
                    (CellStatus::Rated, Some(false)) => "MISMATCH".to_string(),
                    (CellStatus::Rated, None) => "ok".to_string(),
                };
                let _ = writeln!(
                    s,
                    "{:<12} {:>7} {:>7} {:>10} {:>12} {:>11} {:>8} {:>8} {:>6}  {}{}",
                    c.policy,
                    c.nodes.map_or("-".to_string(), |n| n.to_string()),
                    c.ranks,
                    fmt_opt(c.gflops_per_rank, c.status, 3),
                    fmt_opt(c.total_pflops, c.status, 3),
                    fmt_opt(c.bytes_per_iter_rank, c.status, 0),
                    ndnir,
                    fmt_opt(c.penalty, c.status, 3),
                    c.overlap_efficiency.map_or("-".to_string(), |e| format!("{:.0}%", e * 100.0)),
                    status,
                    if c.note.is_empty() { String::new() } else { format!("  ({})", c.note) },
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_report() -> CampaignReport {
        let mut rated = CellReport::new("s", SeriesMode::Hybrid, "f32", 2);
        rated.gflops_per_rank = Some(1.5);
        rated.nd = Some(22);
        rated.nir = Some(27);
        rated.penalty = Some(0.815);
        rated.reconciled = Some(true);
        let mut unrated = CellReport::new("s", SeriesMode::Hybrid, "f16", 2);
        unrated.status = CellStatus::Unrated;
        unrated.nir = Some(120);
        unrated.note = "breakdown at relres NaN".into();
        CampaignReport {
            schema: REPORT_SCHEMA,
            campaign: "demo".into(),
            description: "demo".into(),
            host: HostMeta {
                logical_cores: 1,
                rayon_threads: 1,
                os: "linux".into(),
                arch: "x86_64".into(),
                simd_features: "avx2+fma+f16c".into(),
                simd_level: "avx2".into(),
                simd_override: None,
                transport: "thread".into(),
            },
            cells: vec![rated, unrated],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = demo_report();
        let back = CampaignReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn unrated_cells_render_nc_not_numbers() {
        let text = demo_report().to_text();
        assert!(text.contains("n/c"), "unrated cells must print n/c:\n{text}");
        assert!(text.contains("ok+recon"), "reconciled cells are marked:\n{text}");
        assert!(text.contains("breakdown at relres NaN"));
        // The unrated row must not smuggle a GF/s figure.
        let row = text.lines().find(|l| l.starts_with("f16")).unwrap();
        assert!(!row.contains("1.5"), "unrated row shows a rating: {row}");
    }

    #[test]
    fn find_cell_keys_on_policy_and_scale() {
        let r = demo_report();
        assert!(r.find_cell("s", "f32", None, Some(2)).is_some());
        assert!(r.find_cell("s", "f32", Some(8), None).is_none());
        assert_eq!(r.series_cells("s").len(), 2);
    }

    #[test]
    fn host_meta_captures_something_sane() {
        let h = HostMeta::capture();
        assert!(h.logical_cores >= 1);
        assert!(h.rayon_threads >= 1);
        assert!(!h.os.is_empty());
        assert!(!h.simd_features.is_empty());
        assert!(h.simd_level == "avx2" || h.simd_level == "scalar");
        assert!(["thread", "shmem"].contains(&h.transport.as_str()));
    }
}
