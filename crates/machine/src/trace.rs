//! Discrete-event overlap traces (figure 9).
//!
//! Figure 9 shows rocprof timelines of an 8-node run: on the fine grid
//! the halo pack, host-device copies, and message transfers are fully
//! hidden under the interior Gauss–Seidel kernel of the first color
//! (9a); on the coarsest grid the first color's interior work is too
//! small and the communication peeks out (9b). This module replays the
//! same schedule against the machine/network models and emits the
//! event intervals, so the figure can be regenerated — and the overlap
//! property asserted — without a GPU profiler.

use crate::model::MachineModel;
use crate::network::NetworkModel;
use crate::workload::LevelShape;
use hpgmxp_trace::Lane;

/// One simulated interval.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Operation name.
    pub name: String,
    /// Lane.
    pub lane: Lane,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// A simulated timeline of one Gauss–Seidel sweep with overlap.
#[derive(Debug, Clone)]
pub struct SweepTrace {
    /// Level name for display ("fine grid", "coarsest grid").
    pub level_name: String,
    /// The event intervals.
    pub events: Vec<TraceEvent>,
    /// Total sweep time.
    pub makespan: f64,
    /// Fraction of communication (copies + transfer) hidden under GPU
    /// compute.
    pub hidden_fraction: f64,
}

/// Replay the optimized Gauss–Seidel sweep schedule of §3.2.3 on one
/// level: pack → (D2H, network, H2D) in parallel with the first
/// color's interior kernel → boundary kernel → remaining colors.
pub fn gs_sweep_trace(
    level_name: &str,
    s: &LevelShape,
    sb: usize,
    machine: &MachineModel,
    net: &NetworkModel,
) -> SweepTrace {
    let mut events = Vec::new();
    let colors = s.colors as f64;
    // Per-color kernel cost (uniform split of the sweep).
    let sweep = crate::kernels::gs_multicolor_ell(s, sb, machine.gather_factor);
    let per_color = sweep.bytes / colors / machine.mem_bw + machine.launch_overhead;
    let interior0 = per_color * s.interior_frac;
    let boundary0 = per_color * (1.0 - s.interior_frac);

    // A rank with no neighbors (single-rank world) has nothing to
    // hide: emit the pure compute schedule.
    if s.halo_msgs == 0 {
        let mut t = 0.0;
        events.push(TraceEvent {
            name: "GS interior (color 0)".into(),
            lane: Lane::Compute,
            start: t,
            end: t + per_color,
        });
        t += per_color;
        for c in 1..s.colors {
            events.push(TraceEvent {
                name: format!("GS color {}", c),
                lane: Lane::Compute,
                start: t,
                end: t + per_color,
            });
            t += per_color;
        }
        return SweepTrace {
            level_name: level_name.to_string(),
            events,
            makespan: t,
            hidden_fraction: 1.0,
        };
    }

    // Halo stream: pack kernel reads boundary values, writes the buffer.
    let halo_bytes = s.halo_values * sb as f64;
    let t_pack = 2.0 * halo_bytes / machine.mem_bw + machine.launch_overhead;
    events.push(TraceEvent {
        name: "pack send buffer".into(),
        lane: Lane::Halo,
        start: 0.0,
        end: t_pack,
    });

    // Copies stage through the host, as on Frontier in the paper.
    let t_d2h = machine.host_copy_time(halo_bytes);
    events.push(TraceEvent {
        name: "D2H send buffer".into(),
        lane: Lane::Copy,
        start: t_pack,
        end: t_pack + t_d2h,
    });

    let t_net = net.halo_time(s.halo_msgs, halo_bytes);
    let net_end = t_pack + t_d2h + t_net;
    events.push(TraceEvent {
        name: "neighbor messages".into(),
        lane: Lane::Comm,
        start: t_pack + t_d2h,
        end: net_end,
    });

    let t_h2d = machine.host_copy_time(halo_bytes);
    let comm_done = net_end + t_h2d;
    events.push(TraceEvent {
        name: "H2D recv buffer".into(),
        lane: Lane::Copy,
        start: net_end,
        end: comm_done,
    });

    // Compute stream: the interior kernel of color 0 starts right after
    // packing (the event dependency of §3.2.3).
    let int_end = t_pack + interior0;
    events.push(TraceEvent {
        name: "GS interior (color 0)".into(),
        lane: Lane::Compute,
        start: t_pack,
        end: int_end,
    });

    // Boundary rows of color 0 wait for both the interior kernel and
    // the arrived halo.
    let b_start = int_end.max(comm_done);
    let b_end = b_start + boundary0;
    events.push(TraceEvent {
        name: "GS boundary (color 0)".into(),
        lane: Lane::Compute,
        start: b_start,
        end: b_end,
    });

    // Remaining colors back-to-back.
    let mut t = b_end;
    for c in 1..s.colors {
        events.push(TraceEvent {
            name: format!("GS color {}", c),
            lane: Lane::Compute,
            start: t,
            end: t + per_color,
        });
        t += per_color;
    }

    // Hidden fraction: the share of [pack-end, comm-done] covered by
    // GPU compute.
    let comm_span = comm_done - t_pack;
    let hidden = (int_end - t_pack).min(comm_span).max(0.0);
    let hidden_fraction = if comm_span > 0.0 { hidden / comm_span } else { 1.0 };

    SweepTrace { level_name: level_name.to_string(), events, makespan: t, hidden_fraction }
}

/// Render a trace as an ASCII Gantt chart, `width` columns wide.
pub fn render_ascii(trace: &SweepTrace, width: usize) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} — makespan {:.1} µs, {:.0}% of communication hidden",
        trace.level_name,
        trace.makespan * 1e6,
        trace.hidden_fraction * 100.0
    );
    let scale = width as f64 / trace.makespan;
    // The paper's rocprof rows, each with its glyph.
    for (lane, ch) in
        [(Lane::Compute, b'#'), (Lane::Halo, b'p'), (Lane::Copy, b'c'), (Lane::Comm, b'~')]
    {
        let mut row = vec![b' '; width];
        for ev in trace.events.iter().filter(|e| e.lane == lane) {
            let a = ((ev.start * scale) as usize).min(width - 1);
            let b = ((ev.end * scale) as usize).clamp(a + 1, width);
            for slot in row.iter_mut().take(b).skip(a) {
                *slot = ch;
            }
        }
        let _ = writeln!(s, "{:<5} |{}|", lane.label(), String::from_utf8_lossy(&row));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use hpgmxp_geometry::ProcGrid;

    fn frontier() -> (MachineModel, NetworkModel) {
        (MachineModel::mi250x_gcd(), NetworkModel::frontier_slingshot())
    }

    /// The paper's 8-node setup: 64 GCDs, 320³ local, 4 levels.
    fn shapes() -> Vec<crate::workload::LevelShape> {
        Workload::build((320, 320, 320), 4, 30, 64).levels
    }

    #[test]
    fn fine_grid_hides_communication() {
        // Figure 9a: on the fine grid the copies and messages are
        // completely hidden by the interior kernel of the first color.
        let (m, n) = frontier();
        let t = gs_sweep_trace("fine grid", &shapes()[0], 4, &m, &n);
        assert!(
            t.hidden_fraction > 0.999,
            "fine-grid communication must be fully hidden, got {}",
            t.hidden_fraction
        );
    }

    #[test]
    fn coarsest_grid_exposes_communication() {
        // Figure 9b: the coarsest level's first-color interior work is
        // too small to cover the exchange.
        let (m, n) = frontier();
        let t = gs_sweep_trace("coarsest grid", &shapes()[3], 4, &m, &n);
        assert!(
            t.hidden_fraction < 0.9,
            "coarsest-grid communication must peek out, got {}",
            t.hidden_fraction
        );
    }

    #[test]
    fn events_are_well_formed() {
        let (m, n) = frontier();
        let t = gs_sweep_trace("fine grid", &shapes()[0], 8, &m, &n);
        assert!(!t.events.is_empty());
        for ev in &t.events {
            assert!(ev.end > ev.start, "{} has zero extent", ev.name);
            assert!(ev.end <= t.makespan + 1e-12);
        }
        // One GPU kernel per color plus the interior/boundary split.
        let gpu_events = t.events.iter().filter(|e| e.lane == Lane::Compute).count();
        assert_eq!(gpu_events, 8 + 1);
    }

    #[test]
    fn single_rank_trace_has_no_comm() {
        let (m, n) = frontier();
        let wl = Workload::build((32, 32, 32), 1, 30, 1);
        let t = gs_sweep_trace("serial", &wl.levels[0], 8, &m, &n);
        assert_eq!(t.hidden_fraction, 1.0);
        assert!(t.events.iter().all(|e| e.lane != Lane::Comm || e.end == e.start));
    }

    #[test]
    fn ascii_render_contains_lanes() {
        let (m, n) = frontier();
        let t = gs_sweep_trace("fine grid", &shapes()[0], 4, &m, &n);
        let art = render_ascii(&t, 100);
        assert!(art.contains("GPU"));
        assert!(art.contains("#"));
        assert!(art.contains("COMM"));
    }

    #[test]
    fn procgrid_is_8_nodes_worth() {
        // Sanity: 64 GCDs factor to a 4x4x4 grid whose middle rank has
        // 26 neighbors.
        let p = ProcGrid::factor(64);
        assert_eq!((p.px, p.py, p.pz), (4, 4, 4));
    }
}
