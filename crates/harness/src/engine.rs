//! The campaign engine: plan the cross-product a [`CampaignSpec`]
//! declares, execute every cell with progress logging, and emit a
//! versioned [`CampaignReport`].
//!
//! Cell production per [`SeriesMode`]:
//!
//! * **Measured** — real SPMD runs over this process's transport
//!   (thread-ranks by default, shmem rank processes under
//!   `hpgmxp-launch`; each cell records which in its `transport`) via
//!   `core::benchmark::{validate, run_phase}` under the cell's policy.
//!   A policy whose solver breaks down yields an `Unrated` cell — the
//!   iteration count where it gave up is carried, a GF/s number is not.
//! * **Modeled** — `machine::simulate` projections at each node count,
//!   per policy through [`SimConfig::policy`].
//! * **Hybrid** — both, reconciled: the engine first *asserts* that the
//!   policy's measured matrix + halo bytes agree exactly with
//!   `Workload::policy_*_bytes` ([`crate::measure::reconcile`]), then
//!   runs the measured cells, and feeds each policy's measured
//!   iteration penalty into its modeled projections — this box grounds
//!   the 9408-node numbers.

use crate::measure::{reconcile, MeasuredTraffic, RECONCILE_RANKS};
use crate::report::{CampaignReport, CellReport, CellStatus, HostMeta, REPORT_SCHEMA};
use crate::spec::{CampaignSpec, SeriesMode, SeriesSpec};
use hpgmxp_core::benchmark::{run_phase, validate, PhaseResult, ValidationMode};
use hpgmxp_core::config::BenchmarkParams;
use hpgmxp_core::motifs::Motif;
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_machine::simulate::{simulate, SimConfig};
use hpgmxp_machine::{MachineModel, NetworkModel};
use std::collections::HashMap;

/// The paper's measured 1-node iteration penalty of its mixed solver
/// (2305/2382) — the default for modeled `"mxp"` cells with no explicit
/// or measured penalty, matching `SimConfig::paper_mxp`.
pub const PAPER_MXP_PENALTY: f64 = 2305.0 / 2382.0;

/// The scale axis of one planned cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellScale {
    /// A real run on `ranks` thread-ranks.
    Measured {
        /// Thread-rank count.
        ranks: usize,
    },
    /// A machine-model projection at `nodes` nodes.
    Modeled {
        /// Node count.
        nodes: usize,
    },
}

/// One planned cell: indices into the spec plus the scale point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPlan {
    /// Index into `spec.series`.
    pub series: usize,
    /// Index into `series.policies`.
    pub policy: usize,
    /// Scale point.
    pub scale: CellScale,
}

/// Plan the full cross-product of a validated spec, measured cells
/// before modeled ones within each (series, policy) so measured
/// penalties can ground the projections.
pub fn plan(spec: &CampaignSpec) -> Result<Vec<CellPlan>, String> {
    spec.validate()?;
    let mut cells = Vec::new();
    for (si, series) in spec.series.iter().enumerate() {
        for pi in 0..series.policies.len() {
            if matches!(series.mode, SeriesMode::Measured | SeriesMode::Hybrid) {
                for &ranks in &series.ranks {
                    cells.push(CellPlan {
                        series: si,
                        policy: pi,
                        scale: CellScale::Measured { ranks },
                    });
                }
            }
            if matches!(series.mode, SeriesMode::Modeled | SeriesMode::Hybrid) {
                for &nodes in &series.nodes {
                    cells.push(CellPlan {
                        series: si,
                        policy: pi,
                        scale: CellScale::Modeled { nodes },
                    });
                }
            }
        }
    }
    Ok(cells)
}

/// Per-(series, policy) execution state threaded from measured cells
/// into modeled ones.
#[derive(Default)]
struct PolicyState {
    /// Byte reconciliation outcome (Hybrid policies only).
    traffic: Option<MeasuredTraffic>,
    reconciled: Option<bool>,
    /// Measured `min(1, n_d/n_ir)` of the latest measured cell.
    measured_penalty: Option<f64>,
    /// A measured cell of this policy failed to converge — later
    /// modeled cells must not be rated on top of a broken solver.
    broke_down: bool,
}

/// Raw per-motif GF/s (the motifs that recorded time), in reporting
/// order — the one rating rule shared by measured and modeled cells.
fn motif_gflops(get: impl Fn(Motif) -> (f64, f64)) -> Vec<(String, f64)> {
    Motif::ALL
        .iter()
        .filter_map(|&m| {
            let (s, f) = get(m);
            (s > 0.0 && f > 0.0).then(|| (m.label().to_string(), f / s / 1e9))
        })
        .collect()
}

/// Run one campaign end to end.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignReport, String> {
    let cells = plan(spec)?;
    let machine = spec.machine_model()?;
    let net = spec.network_model()?;
    let params = spec.params();
    let total = cells.len();
    let t0 = std::time::Instant::now();
    eprintln!(
        "[campaign {}] {} cells planned across {} series",
        spec.name,
        total,
        spec.series.len()
    );

    let mut states: HashMap<(usize, usize), PolicyState> = HashMap::new();
    let mut report = CampaignReport {
        schema: REPORT_SCHEMA,
        campaign: spec.name.clone(),
        description: spec.description.clone(),
        host: HostMeta::capture(),
        cells: Vec::with_capacity(total),
    };

    for (i, cp) in cells.iter().enumerate() {
        let series = &spec.series[cp.series];
        let policy = series.policies[cp.policy].resolve()?;
        eprintln!(
            "[campaign {}] cell {}/{} series `{}` policy `{}` {:?} ({:.1}s elapsed)",
            spec.name,
            i + 1,
            total,
            series.label,
            policy.name,
            cp.scale,
            t0.elapsed().as_secs_f64()
        );

        // Hybrid policies reconcile bytes once, before any cell runs.
        let key = (cp.series, cp.policy);
        if series.mode == SeriesMode::Hybrid {
            let st = states.entry(key).or_default();
            if st.reconciled.is_none() {
                let m = reconcile(&params, &policy)?;
                st.traffic = Some(m);
                st.reconciled = Some(true);
                eprintln!(
                    "[campaign {}]   bytes reconciled for `{}` at P={} \
                     (spmv value {:.0} B, wire {:.0} B)",
                    spec.name, policy.name, RECONCILE_RANKS, m.spmv_value, m.wire
                );
            }
        }

        let cell = match cp.scale {
            CellScale::Measured { ranks } => {
                let mut cell = measured_cell(&params, series, &policy, ranks);
                let st = states.entry(key).or_default();
                if cell.status == CellStatus::Rated {
                    if let Some(p) = cell.penalty {
                        st.measured_penalty = Some(p);
                    }
                } else {
                    st.broke_down = true;
                }
                cell.reconciled = st.reconciled;
                cell.spmv_value_bytes = st.traffic.map(|t| t.spmv_value);
                cell
            }
            CellScale::Modeled { nodes } => {
                let st = states.entry(key).or_default();
                if st.broke_down {
                    // A projection on top of a solver this box watched
                    // break down would be a made-up number: carry the
                    // cell, unrated, with no GF/s at all.
                    let mut cell = CellReport::new(
                        &series.label,
                        series.mode,
                        &policy.name,
                        nodes * machine.devices_per_node,
                    );
                    cell.nodes = Some(nodes);
                    cell.transport = "model".into();
                    cell.status = CellStatus::Unrated;
                    cell.note = "no projection: measured solver broke down on this host".into();
                    cell.reconciled = st.reconciled;
                    cell.spmv_value_bytes = st.traffic.map(|t| t.spmv_value);
                    report.cells.push(cell);
                    continue;
                }
                let (penalty, provenance) = match (series.penalty, st.measured_penalty) {
                    (Some(p), _) => (p, "spec penalty"),
                    (None, Some(p)) => (p, "penalty from measured validation on this host"),
                    (None, None) if policy.name == "mxp" => {
                        (PAPER_MXP_PENALTY, "paper 1-node penalty")
                    }
                    (None, None) => (1.0, "no penalty applied"),
                };
                let mut cell = modeled_cell(spec, series, &policy, &machine, &net, nodes, penalty);
                cell.note = provenance.to_string();
                cell.reconciled = st.reconciled;
                cell.spmv_value_bytes = st.traffic.map(|t| t.spmv_value);
                cell
            }
        };
        report.cells.push(cell);
    }
    eprintln!(
        "[campaign {}] done: {} cells in {:.1}s",
        spec.name,
        total,
        t0.elapsed().as_secs_f64()
    );
    Ok(report)
}

/// Execute one measured cell: validation (the iteration penalty), then
/// the timed phase if the policy's solver converged.
fn measured_cell(
    params: &BenchmarkParams,
    series: &SeriesSpec,
    policy: &PrecisionPolicy,
    ranks: usize,
) -> CellReport {
    let mut cell = CellReport::new(&series.label, series.mode, &policy.name, ranks);
    cell.transport = hpgmxp_comm::Transport::from_env().name().to_string();
    // Per-cell metrics delta: only populated when the registry is
    // armed, so untraced campaign reports (the golden, cross-transport
    // compares) stay free of timing-dependent fields.
    let metrics_before = hpgmxp_trace::MetricsSnapshot::capture();
    let v = validate(params, series.variant, ranks, ValidationMode::Standard, policy);
    cell.nd = Some(v.nd);
    cell.nir = Some(v.nir);
    if v.converged {
        cell.penalty = Some(v.penalty);
        let phase = run_phase(params, series.variant, ranks, policy);
        fill_measured(&mut cell, &phase, v.penalty);
    } else {
        // The honesty path: no GF/s for a broken solver.
        cell.status = CellStatus::Unrated;
        cell.note =
            format!("breakdown at relres {:.3e} after {} iterations", v.ir_final_relres, v.nir);
    }
    if hpgmxp_trace::counters_armed() {
        cell.metrics = Some(hpgmxp_trace::MetricsSnapshot::capture().delta_since(&metrics_before));
    }
    cell
}

fn fill_measured(cell: &mut CellReport, phase: &PhaseResult, penalty: f64) {
    cell.gflops_per_rank_raw = Some(phase.gflops_raw);
    cell.gflops_per_rank = Some(phase.gflops_raw * penalty);
    cell.bytes_per_iter_rank = Some(phase.bytes_per_iteration());
    cell.overlap_efficiency = phase.overlap_efficiency;
    cell.motif_gflops = motif_gflops(|m| (phase.seconds_of(m), phase.flops_of(m)));
}

/// Execute one modeled cell.
fn modeled_cell(
    spec: &CampaignSpec,
    series: &SeriesSpec,
    policy: &PrecisionPolicy,
    machine: &MachineModel,
    net: &NetworkModel,
    nodes: usize,
    penalty: f64,
) -> CellReport {
    let cfg = SimConfig {
        local: series.modeled_local.unwrap_or(spec.local),
        mg_levels: spec.mg_levels,
        restart: spec.restart,
        variant: series.variant,
        penalty,
        policy: policy.clone(),
    };
    let ranks = nodes * machine.devices_per_node;
    let r = simulate(&cfg, machine, net, ranks);
    let mut cell = CellReport::new(&series.label, series.mode, &policy.name, ranks);
    cell.nodes = Some(nodes);
    cell.transport = "model".into();
    cell.gflops_per_rank = Some(r.gflops_per_rank);
    cell.gflops_per_rank_raw = Some(r.gflops_per_rank_raw);
    cell.total_pflops = Some(r.total_pflops);
    cell.penalty = Some(cfg.applied_penalty());
    cell.motif_gflops = motif_gflops(|m| (r.per_iter.seconds(m), r.per_iter.flops(m)));
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicyRef, SPEC_SCHEMA};
    use hpgmxp_core::config::ImplVariant;

    fn modeled_spec(policies: Vec<PolicyRef>, nodes: Vec<usize>) -> CampaignSpec {
        CampaignSpec {
            schema: SPEC_SCHEMA,
            name: "test".into(),
            description: "engine unit test".into(),
            local: (8, 8, 8),
            mg_levels: 2,
            restart: 30,
            iters_per_solve: 8,
            benchmark_solves: 1,
            validation_max_iters: 400,
            machine: "mi250x_gcd".into(),
            network: "frontier_slingshot".into(),
            series: vec![SeriesSpec {
                label: "s".into(),
                mode: SeriesMode::Modeled,
                variant: ImplVariant::Optimized,
                policies,
                ranks: vec![],
                nodes,
                modeled_local: Some((320, 320, 320)),
                penalty: None,
            }],
        }
    }

    #[test]
    fn plan_is_the_declared_cross_product() {
        let mut spec = modeled_spec(
            vec![PolicyRef::by_name("f64"), PolicyRef::by_name("f32")],
            vec![1, 8, 64],
        );
        spec.series[0].mode = SeriesMode::Hybrid;
        spec.series[0].ranks = vec![2];
        let cells = plan(&spec).unwrap();
        // 2 policies × (1 measured + 3 modeled) = 8 cells.
        assert_eq!(cells.len(), 8);
        // Measured before modeled within each policy.
        assert_eq!(cells[0].scale, CellScale::Measured { ranks: 2 });
        assert_eq!(cells[1].scale, CellScale::Modeled { nodes: 1 });
        assert_eq!(cells[4].scale, CellScale::Measured { ranks: 2 });
    }

    #[test]
    fn modeled_campaign_produces_rated_cells_with_projections() {
        let spec = modeled_spec(
            vec![PolicyRef::by_name("mxp"), PolicyRef::by_name("f32s-f64c")],
            vec![1, 512, 9408],
        );
        let report = run_campaign(&spec).unwrap();
        assert_eq!(report.schema, REPORT_SCHEMA);
        assert_eq!(report.cells.len(), 6);
        for c in &report.cells {
            assert_eq!(c.status, CellStatus::Rated);
            assert!(c.gflops_per_rank.unwrap() > 0.0);
            assert!(c.total_pflops.unwrap() > 0.0);
            assert_eq!(c.ranks, c.nodes.unwrap() * 8, "Frontier has 8 GCDs per node");
        }
        // `mxp` cells default to the paper's measured penalty.
        let mxp = report.find_cell("s", "mxp", Some(512), None).unwrap();
        assert!((mxp.penalty.unwrap() - PAPER_MXP_PENALTY).abs() < 1e-12);
        // Weak scaling: GF/rank non-increasing with node count.
        let sweep = report.series_cells("s");
        let f32s: Vec<&&CellReport> = sweep.iter().filter(|c| c.policy == "f32s-f64c").collect();
        assert!(f32s[0].gflops_per_rank >= f32s[2].gflops_per_rank);
    }

    #[test]
    fn hybrid_projections_of_broken_policies_are_unrated() {
        // A validation cap the stress-fp16 policy cannot meet: the
        // measured cell breaks down, and the modeled cells must not be
        // rated on top of a solver this box watched fail.
        let mut spec = modeled_spec(vec![PolicyRef::by_name("f16")], vec![8]);
        spec.series[0].mode = SeriesMode::Hybrid;
        spec.series[0].ranks = vec![2];
        spec.validation_max_iters = 2;
        let report = run_campaign(&spec).unwrap();
        assert_eq!(report.cells.len(), 2);
        let measured = &report.cells[0];
        assert_eq!(measured.status, CellStatus::Unrated, "measured breakdown: {measured:?}");
        let modeled = &report.cells[1];
        assert_eq!(modeled.status, CellStatus::Unrated, "projection must not be rated");
        assert_eq!(modeled.gflops_per_rank, None);
        assert_eq!(modeled.total_pflops, None);
        assert!(modeled.note.contains("broke down"), "note: {}", modeled.note);
        assert_eq!(modeled.nodes, Some(8));
    }

    #[test]
    fn modeled_double_ignores_penalty() {
        let mut spec = modeled_spec(vec![PolicyRef::by_name("double")], vec![8]);
        spec.series[0].penalty = Some(0.5);
        let report = run_campaign(&spec).unwrap();
        let c = &report.cells[0];
        assert_eq!(c.penalty, Some(1.0), "double is never penalized");
        assert_eq!(c.gflops_per_rank, c.gflops_per_rank_raw);
    }
}
