//! Integration tests of the campaign harness: spec/report serde
//! round-trips, the golden file pinning report schema v6, the Hybrid
//! engine end to end on a tiny world, the unrated (`n/c`) honesty
//! path, and the per-policy weak-scaling monotonicity property.

// The proptest shim's muncher needs headroom for the 4-parameter
// property below.
#![recursion_limit = "512"]

use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_harness::{
    plan, run_campaign, CampaignReport, CampaignSpec, CellReport, CellStatus, HostMeta, PolicyRef,
    SeriesMode, SeriesSpec, REPORT_SCHEMA, SPEC_SCHEMA,
};
use hpgmxp_machine::simulate::{simulate, SimConfig};
use hpgmxp_machine::{MachineModel, NetworkModel};
use hpgmxp_sparse::PrecKind;
use hpgmxp_trace::{HistogramSnapshot, MetricsSnapshot};
use proptest::prelude::*;

fn tiny_campaign(mode: SeriesMode, policies: Vec<PolicyRef>) -> CampaignSpec {
    CampaignSpec {
        schema: SPEC_SCHEMA,
        name: "itest".into(),
        description: "integration-test campaign".into(),
        local: (8, 8, 8),
        mg_levels: 2,
        restart: 30,
        iters_per_solve: 10,
        benchmark_solves: 1,
        validation_max_iters: 400,
        machine: "mi250x_gcd".into(),
        network: "frontier_slingshot".into(),
        series: vec![SeriesSpec {
            label: "s".into(),
            mode,
            variant: ImplVariant::Optimized,
            policies,
            ranks: vec![2],
            nodes: vec![1, 8],
            modeled_local: Some((320, 320, 320)),
            penalty: None,
        }],
    }
}

#[test]
fn spec_roundtrips_with_inline_policy_and_all_modes() {
    let mut spec = tiny_campaign(
        SeriesMode::Hybrid,
        vec![
            PolicyRef::by_name("f32s-f64c"),
            PolicyRef::by_name("mxp"),
            PolicyRef::inline(PrecisionPolicy {
                name: "custom".into(),
                storage: vec![PrecKind::F64, PrecKind::F16],
                compute: PrecKind::F32,
                wire: PrecKind::F16,
            }),
        ],
    );
    spec.series.push(SeriesSpec {
        label: "modeled".into(),
        mode: SeriesMode::Modeled,
        variant: ImplVariant::Reference,
        policies: vec![PolicyRef::by_name("double")],
        ranks: vec![],
        nodes: vec![64],
        modeled_local: None,
        penalty: Some(0.5),
    });
    let json = spec.to_json();
    let back = CampaignSpec::from_json(&json).unwrap();
    assert_eq!(spec, back);
}

#[test]
fn hybrid_campaign_end_to_end_reconciles_and_grounds_projections() {
    let spec = tiny_campaign(
        SeriesMode::Hybrid,
        vec![PolicyRef::by_name("f64"), PolicyRef::by_name("f32s-f64c")],
    );
    let report = run_campaign(&spec).unwrap();
    assert_eq!(report.schema, REPORT_SCHEMA);
    // 2 policies × (1 measured + 2 modeled).
    assert_eq!(report.cells.len(), 6);
    assert!(report.host.logical_cores >= 1, "host metadata recorded");

    for policy in ["f64", "f32s-f64c"] {
        let measured = report.find_cell("s", policy, None, Some(2)).unwrap();
        assert_eq!(measured.status, CellStatus::Rated);
        assert_eq!(measured.transport, "thread", "measured cells record their transport");
        assert_eq!(measured.reconciled, Some(true), "Hybrid cells carry the byte verdict");
        assert!(measured.spmv_value_bytes.unwrap() > 0.0);
        assert!(measured.bytes_per_iter_rank.unwrap() > 0.0);
        assert!(measured.gflops_per_rank.unwrap() > 0.0);
        // The projection inherits the measured penalty.
        let modeled = report.find_cell("s", policy, Some(8), None).unwrap();
        assert_eq!(modeled.penalty, measured.penalty);
        assert!(modeled.note.contains("measured validation"));
        assert!(modeled.total_pflops.unwrap() > 0.0);
    }
    // The storage axis claim, measured: fp32 storage halves SpMV
    // matrix-value traffic exactly.
    let v64 = report.find_cell("s", "f64", None, Some(2)).unwrap().spmv_value_bytes.unwrap();
    let v32 = report.find_cell("s", "f32s-f64c", None, Some(2)).unwrap().spmv_value_bytes.unwrap();
    assert!((v64 / v32 - 2.0).abs() < 1e-9, "{v64} / {v32}");

    // And the whole report survives a JSON round-trip.
    let back = CampaignReport::from_json(&report.to_json()).unwrap();
    assert_eq!(report, back);
}

#[test]
fn breakdown_cells_are_unrated_and_render_nc() {
    // A validation cap the stress-fp16 policy cannot meet on this
    // problem forces the honesty path deterministically.
    let mut spec = tiny_campaign(SeriesMode::Measured, vec![PolicyRef::by_name("f16")]);
    spec.series[0].nodes = vec![];
    spec.validation_max_iters = 2;
    let report = run_campaign(&spec).unwrap();
    let cell = &report.cells[0];
    assert_eq!(cell.status, CellStatus::Unrated, "{cell:?}");
    assert_eq!(cell.gflops_per_rank, None, "no rating for a broken solver");
    assert_eq!(cell.bytes_per_iter_rank, None);
    assert!(cell.nir.is_some(), "where it gave up is carried");
    assert!(cell.note.contains("breakdown"), "note: {}", cell.note);
    let text = report.to_text();
    let row = text.lines().find(|l| l.starts_with("f16")).expect("f16 row rendered");
    assert!(row.contains("n/c"), "unrated row must print n/c: {row}");
}

/// The golden file pinning report schema v6 (v5 without the host's
/// collective-algorithm stamp): a fully-populated report with fixed
/// values must serialize to the exact committed JSON. Any field
/// addition/rename/reorder fails here until `REPORT_SCHEMA` is
/// bumped and the golden regenerated (set `UPDATE_GOLDEN=1` to
/// rewrite, then commit the diff deliberately).
#[test]
fn report_schema_v6_matches_golden_file() {
    let mut rated = CellReport::new("weak-scaling", SeriesMode::Hybrid, "f32s-f64c", 2);
    rated.transport = "thread".into();
    rated.gflops_per_rank = Some(0.5);
    rated.gflops_per_rank_raw = Some(0.5);
    rated.bytes_per_iter_rank = Some(3488729.0);
    rated.nd = Some(22);
    rated.nir = Some(22);
    rated.penalty = Some(1.0);
    rated.overlap_efficiency = Some(0.25);
    rated.motif_gflops = vec![("GS".into(), 0.5), ("SpMV".into(), 0.75)];
    rated.reconciled = Some(true);
    rated.spmv_value_bytes = Some(442368.0);
    // One cell carries a metrics delta so the snapshot layout is
    // pinned too; the others stay `null` like an untraced campaign.
    rated.metrics = Some(MetricsSnapshot {
        counters: vec![("coll.allreduces".into(), 44), ("solver.iters".into(), 22)],
        gauges: vec![],
        histograms: vec![HistogramSnapshot {
            name: "wire.heartbeat_lag_ms".into(),
            count: 3,
            sum: 21,
            buckets: vec![(3, 2), (4, 1)],
        }],
    });
    let mut modeled = CellReport::new("weak-scaling", SeriesMode::Hybrid, "f32s-f64c", 75264);
    modeled.transport = "model".into();
    modeled.nodes = Some(9408);
    modeled.gflops_per_rank = Some(241.0);
    modeled.gflops_per_rank_raw = Some(241.0);
    modeled.total_pflops = Some(18.0);
    modeled.penalty = Some(1.0);
    modeled.note = "penalty from measured validation on this host".into();
    let mut unrated = CellReport::new("stress", SeriesMode::Measured, "f16", 2);
    unrated.transport = "shmem".into();
    unrated.status = CellStatus::Unrated;
    unrated.nd = Some(22);
    unrated.nir = Some(88);
    unrated.note = "breakdown at relres NaN after 88 iterations".into();
    let report = CampaignReport {
        schema: REPORT_SCHEMA,
        campaign: "golden".into(),
        description: "schema-pinning fixture (fixed values, no measurement)".into(),
        host: HostMeta {
            logical_cores: 1,
            rayon_threads: 1,
            os: "linux".into(),
            arch: "x86_64".into(),
            simd_features: "avx2+fma+f16c".into(),
            simd_level: "avx2".into(),
            simd_override: None,
            transport: "shmem".into(),
        },
        cells: vec![rated, modeled, unrated],
    };
    let json = report.to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/campaign_report_v6.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file present (run with UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        json, golden,
        "campaign report schema v{REPORT_SCHEMA} drifted from the golden file — bump \
         REPORT_SCHEMA and regenerate deliberately (UPDATE_GOLDEN=1)"
    );
    // The golden parses back into the same report.
    assert_eq!(CampaignReport::from_json(&golden).unwrap(), report);
}

#[test]
fn plan_order_feeds_measurement_into_projection() {
    let spec = tiny_campaign(SeriesMode::Hybrid, vec![PolicyRef::by_name("f32")]);
    let cells = plan(&spec).unwrap();
    assert_eq!(cells.len(), 3);
    assert!(
        matches!(cells[0].scale, hpgmxp_harness::CellScale::Measured { .. }),
        "measured first so penalties can ground projections"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The campaign's fig-4 analogue per policy: modeled weak-scaling
    // GF/GCD is monotone non-increasing in node count for every
    // shipped policy (halo surfaces and all-reduce depth only grow
    // with scale). Shrinking (the PR-4 shim) walks any violating
    // node pair down to a minimal counterexample.
    #[test]
    fn modeled_per_policy_weak_scaling_monotone(
        policy_idx in 0usize..6,
        lo in 1usize..4000,
        delta in 1usize..5409,
        penalty in 0.3f64..1.0,
    ) {
        let hi = lo + delta; // strictly larger, ≤ 9408 nodes
        let policies = PrecisionPolicy::shipped();
        let cfg = SimConfig::paper_policy(policies[policy_idx % policies.len()].clone(), penalty);
        let m = MachineModel::mi250x_gcd();
        let n = NetworkModel::frontier_slingshot();
        let g_lo = simulate(&cfg, &m, &n, lo * m.devices_per_node).gflops_per_rank;
        let g_hi = simulate(&cfg, &m, &n, hi * m.devices_per_node).gflops_per_rank;
        prop_assert!(
            g_hi <= g_lo * (1.0 + 1e-12),
            "GF/GCD rose with scale: {} nodes -> {}, {} nodes -> {}",
            lo, g_lo, hi, g_hi
        );
    }
}
