//! The declarative side of the campaign harness: what to run.
//!
//! A [`CampaignSpec`] is plain serde data (shipped as `campaigns/*.json`
//! at the repository root) declaring the experiment axes — local box,
//! multigrid depth, restart length, thread-rank counts, precision
//! policies (by name or inline), implementation variants, and modeled
//! node counts against a named machine + network model — plus one
//! [`SeriesMode`] per series saying how its cells are produced:
//! measured on this box, projected by the machine model, or both with
//! an exact byte-model reconciliation (Hybrid).

use hpgmxp_core::config::{BenchmarkParams, ImplVariant};
use hpgmxp_core::policy::PrecisionPolicy;
use hpgmxp_machine::{MachineModel, NetworkModel};
use serde::{Deserialize, Serialize};

/// Version of the campaign-spec JSON layout.
pub const SPEC_SCHEMA: u32 = 1;

/// How a series produces its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeriesMode {
    /// Real runs over `ThreadWorld` thread-ranks
    /// (`core::benchmark::{validate, run_phase}`): one cell per policy
    /// × rank count.
    Measured,
    /// Machine-model projections (`machine::simulate`): one cell per
    /// policy × node count.
    Modeled,
    /// Both, reconciled: measured cells ground the modeled ones (the
    /// measured iteration penalty feeds the projection) and the
    /// engine *asserts* that the measured matrix + halo traffic of
    /// every policy agrees exactly with the machine model's
    /// `Workload::policy_*_bytes`, as `ablation_study` pioneered.
    Hybrid,
}

/// A precision scenario reference: a shipped policy by name, an inline
/// policy definition, or one of the benchmark's two phase labels.
///
/// Reserved names (resolved ahead of the shipped policy list) — the
/// paper's pair, reported under the benchmark's own labels:
///
/// * `"mxp"` — the `f32` policy (GMRES-IR with the fp32 inner solve);
///   modeled cells default to the paper's measured 1-node penalty;
/// * `"double"` — the `f64` policy (the "double" reference phase).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRef {
    /// Name of a shipped policy (`PrecisionPolicy::by_name`) or a
    /// reserved phase label (`"mxp"` / `"double"`).
    pub name: Option<String>,
    /// Inline policy definition (wins over `name` when both are set).
    pub inline: Option<PrecisionPolicy>,
}

impl PolicyRef {
    /// Reference a shipped policy or reserved phase label by name.
    pub fn by_name(name: &str) -> Self {
        PolicyRef { name: Some(name.to_string()), inline: None }
    }

    /// Reference an inline policy definition.
    pub fn inline(policy: PrecisionPolicy) -> Self {
        PolicyRef { name: None, inline: Some(policy) }
    }

    /// Resolve to the policy a cell runs or models; its `name` is the
    /// cell's report label.
    pub fn resolve(&self) -> Result<PrecisionPolicy, String> {
        if let Some(p) = &self.inline {
            return Ok(p.clone());
        }
        match self.name.as_deref() {
            Some("mxp") => Ok(PrecisionPolicy::f32().named("mxp")),
            Some("double") => Ok(PrecisionPolicy::f64().named("double")),
            Some(n) => PrecisionPolicy::by_name(n)
                .ok_or_else(|| format!("unknown policy `{n}` (and no inline definition)")),
            None => Err("policy reference needs a `name` or an `inline` definition".to_string()),
        }
    }
}

/// One series of a campaign: a set of cells sharing a mode, a variant,
/// and axis lists whose cross-product the engine plans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSpec {
    /// Series label in the report.
    pub label: String,
    /// How cells are produced.
    pub mode: SeriesMode,
    /// Implementation variant of every cell.
    pub variant: ImplVariant,
    /// Precision scenarios (one sub-series per entry).
    pub policies: Vec<PolicyRef>,
    /// Thread-rank counts of measured cells (Measured/Hybrid).
    pub ranks: Vec<usize>,
    /// Node counts of modeled cells (Modeled/Hybrid).
    pub nodes: Vec<usize>,
    /// Local box of the modeled cells, when it differs from the
    /// campaign's measured box (e.g. this box measures 16³ while the
    /// projection runs the paper's 320³ operating point). `null` =
    /// the campaign local box.
    pub modeled_local: Option<(u32, u32, u32)>,
    /// Iteration penalty `min(1, n_d/n_ir)` applied to modeled cells.
    /// `null`: Hybrid series use the penalty their own measured
    /// validation produced; Modeled series default to 1.0.
    pub penalty: Option<f64>,
}

/// A complete declarative campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Spec layout version (see [`SPEC_SCHEMA`]).
    pub schema: u32,
    /// Campaign name (used in the report and output file names).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Local box per rank of measured cells.
    pub local: (u32, u32, u32),
    /// Multigrid levels.
    pub mg_levels: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// Inner iterations per timed solve of measured cells.
    pub iters_per_solve: usize,
    /// Timed solves per measured cell.
    pub benchmark_solves: usize,
    /// Iteration cap of the validation solves.
    pub validation_max_iters: usize,
    /// Machine-model preset of modeled cells: `"mi250x_gcd"`,
    /// `"k80_die"`, or `"cpu_socket"`.
    pub machine: String,
    /// Network-model preset: `"frontier_slingshot"`, `"commodity_ib"`,
    /// or `"shared_memory"`.
    pub network: String,
    /// The series to run.
    pub series: Vec<SeriesSpec>,
}

impl CampaignSpec {
    /// Resolve the machine-model preset.
    pub fn machine_model(&self) -> Result<MachineModel, String> {
        match self.machine.as_str() {
            "mi250x_gcd" => Ok(MachineModel::mi250x_gcd()),
            "k80_die" => Ok(MachineModel::k80_die()),
            "cpu_socket" => Ok(MachineModel::cpu_socket()),
            other => Err(format!(
                "unknown machine preset `{other}` (want mi250x_gcd | k80_die | cpu_socket)"
            )),
        }
    }

    /// Resolve the network-model preset.
    pub fn network_model(&self) -> Result<NetworkModel, String> {
        match self.network.as_str() {
            "frontier_slingshot" => Ok(NetworkModel::frontier_slingshot()),
            "commodity_ib" => Ok(NetworkModel::commodity_ib()),
            "shared_memory" => Ok(NetworkModel::shared_memory()),
            other => Err(format!(
                "unknown network preset `{other}` \
                 (want frontier_slingshot | commodity_ib | shared_memory)"
            )),
        }
    }

    /// Benchmark parameters of the measured cells.
    pub fn params(&self) -> BenchmarkParams {
        BenchmarkParams {
            local_dims: self.local,
            mg_levels: self.mg_levels,
            restart: self.restart,
            max_iters_per_solve: self.iters_per_solve,
            benchmark_solves: self.benchmark_solves.max(1),
            validation_max_iters: self.validation_max_iters,
            ..Default::default()
        }
    }

    /// Check the spec for shape errors before any work starts.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SPEC_SCHEMA {
            return Err(format!("spec schema {} != supported {}", self.schema, SPEC_SCHEMA));
        }
        if self.series.is_empty() {
            return Err("campaign has no series".to_string());
        }
        self.machine_model()?;
        self.network_model()?;
        if self.mg_levels == 0 || self.mg_levels > hpgmxp_core::policy::MAX_LEVELS {
            return Err(format!(
                "mg_levels {} outside 1..={} (the policy engine's hierarchy bound)",
                self.mg_levels,
                hpgmxp_core::policy::MAX_LEVELS
            ));
        }
        let div = 1u32 << (self.mg_levels - 1);
        let divisible = |d: (u32, u32, u32)| {
            d.0.is_multiple_of(div) && d.1.is_multiple_of(div) && d.2.is_multiple_of(div)
        };
        if !divisible(self.local) {
            return Err(format!(
                "local dims {:?} not divisible by 2^(mg_levels-1) = {div}",
                self.local
            ));
        }
        for s in &self.series {
            if s.policies.is_empty() {
                return Err(format!("series `{}` has no policies", s.label));
            }
            for p in &s.policies {
                p.resolve().map_err(|e| format!("series `{}`: {e}", s.label))?;
            }
            let needs_measured = matches!(s.mode, SeriesMode::Measured | SeriesMode::Hybrid);
            if needs_measured && s.ranks.is_empty() {
                return Err(format!("series `{}` is {:?} but lists no ranks", s.label, s.mode));
            }
            // A Hybrid series without nodes is legitimate: measured
            // cells + byte reconciliation, no projection.
            if s.mode == SeriesMode::Modeled && s.nodes.is_empty() {
                return Err(format!("series `{}` is Modeled but lists no nodes", s.label));
            }
            // Reject axis lists the mode would silently drop — a
            // declared cell either runs or the spec is an error.
            if s.mode == SeriesMode::Measured && !s.nodes.is_empty() {
                return Err(format!(
                    "series `{}` is Measured but lists nodes {:?} that would never run \
                     (use Hybrid or Modeled for projections)",
                    s.label, s.nodes
                ));
            }
            if s.mode == SeriesMode::Modeled && !s.ranks.is_empty() {
                return Err(format!(
                    "series `{}` is Modeled but lists ranks {:?} that would never run \
                     (use Hybrid or Measured for real runs)",
                    s.label, s.ranks
                ));
            }
            if let Some(d) = s.modeled_local {
                if !divisible(d) {
                    return Err(format!(
                        "series `{}`: modeled_local {:?} not divisible by {div}",
                        s.label, d
                    ));
                }
            }
            if s.ranks.contains(&0) || s.nodes.contains(&0) {
                return Err(format!("series `{}`: zero rank/node count", s.label));
            }
        }
        Ok(())
    }

    /// Parse a spec from JSON, validating it.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec: CampaignSpec =
            serde_json::from_str(text).map_err(|e| format!("bad campaign spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign spec serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpgmxp_sparse::PrecKind;

    pub(crate) fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            schema: SPEC_SCHEMA,
            name: "tiny".into(),
            description: "unit-test campaign".into(),
            local: (8, 8, 8),
            mg_levels: 2,
            restart: 30,
            iters_per_solve: 10,
            benchmark_solves: 1,
            validation_max_iters: 400,
            machine: "mi250x_gcd".into(),
            network: "frontier_slingshot".into(),
            series: vec![SeriesSpec {
                label: "demo".into(),
                mode: SeriesMode::Modeled,
                variant: ImplVariant::Optimized,
                policies: vec![PolicyRef::by_name("f32")],
                ranks: vec![],
                nodes: vec![1, 8],
                modeled_local: Some((64, 64, 64)),
                penalty: Some(0.9),
            }],
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = tiny_spec();
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn reserved_names_resolve_to_the_benchmark_pair() {
        let mxp = PolicyRef::by_name("mxp").resolve().unwrap();
        assert_eq!(mxp, PrecisionPolicy::f32().named("mxp"));
        let double = PolicyRef::by_name("double").resolve().unwrap();
        assert_eq!(double.name, "double");
        assert!(double.is_double() && !mxp.is_double());
        let f32p = PolicyRef::by_name("f32").resolve().unwrap();
        assert_eq!(f32p.name, "f32");
        assert!(PolicyRef::by_name("nope").resolve().is_err());
    }

    #[test]
    fn optional_keys_may_be_omitted_in_hand_authored_json() {
        // The serde shim's derive treats a missing key on an Option
        // field as null, so spec files need not spell out every
        // optional axis.
        let r: PolicyRef = serde_json::from_str(r#"{"name": "f64"}"#).unwrap();
        assert_eq!(r, PolicyRef::by_name("f64"));
        let s: SeriesSpec = serde_json::from_str(
            r#"{"label": "s", "mode": "Modeled", "variant": "Optimized",
                "policies": [{"name": "mxp"}], "ranks": [], "nodes": [8]}"#,
        )
        .unwrap();
        assert_eq!(s.modeled_local, None);
        assert_eq!(s.penalty, None);
    }

    #[test]
    fn inline_policy_wins_over_name() {
        let custom = PrecisionPolicy::uniform("custom", PrecKind::F16, PrecKind::F32);
        let r = PolicyRef { name: Some("f64".into()), inline: Some(custom.clone()) };
        assert_eq!(r.resolve().unwrap(), custom);
    }

    #[test]
    fn validation_catches_shape_errors() {
        let mut bad = tiny_spec();
        bad.series[0].nodes.clear();
        assert!(bad.validate().is_err(), "Modeled series without nodes");

        let mut bad = tiny_spec();
        bad.local = (9, 8, 8);
        assert!(bad.validate().is_err(), "non-divisible local dims");

        let mut bad = tiny_spec();
        bad.machine = "cray1".into();
        assert!(bad.validate().is_err(), "unknown machine preset");

        let mut bad = tiny_spec();
        bad.mg_levels = 33; // would overflow the divisibility shift
        assert!(bad.validate().is_err(), "mg_levels beyond the hierarchy bound");
        bad.mg_levels = 0;
        assert!(bad.validate().is_err(), "zero mg_levels");

        let mut bad = tiny_spec();
        bad.schema = 999;
        assert!(bad.validate().is_err(), "future schema");

        let mut bad = tiny_spec();
        bad.series[0].mode = SeriesMode::Hybrid;
        assert!(bad.validate().is_err(), "Hybrid without ranks");
        bad.series[0].ranks = vec![2];
        assert!(bad.validate().is_ok());
    }
}
