//! Simulation configuration for the `simulate` CLI.
//!
//! A JSON-serializable description of a full engine run — workload shape,
//! engine knobs, horizon — so simulations are reproducible from a config
//! file checked into an experiments repo.

use crate::json::{self, Value};

use ssa_auction::money::Money;
use ssa_auction::pricing::PricingRule;
use ssa_core::engine::{
    BudgetPolicy, Engine, EngineConfig, EngineMetrics, RoutingMode, SharingStrategy,
};
use ssa_core::plan::PlannerMode;
use ssa_workload::{Workload, WorkloadConfig};

/// Workload knobs (mirrors [`WorkloadConfig`] with JSON-friendly
/// defaults; every field may be omitted from the config file).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of advertisers.
    pub advertisers: usize,
    /// Number of bid phrases.
    pub phrases: usize,
    /// Number of topics.
    pub topics: usize,
    /// Fraction of generalist advertisers.
    pub generalist_fraction: f64,
    /// Zipf exponent for search rates.
    pub search_rate_zipf_exponent: f64,
    /// Search rate of the hottest phrase.
    pub max_search_rate: f64,
    /// Per-phrase CTR-factor jitter (0 = Section II separable setting).
    pub phrase_factor_jitter: f64,
    /// Fraction of phrases exempted from jitter (kept separable and
    /// therefore plan-eligible under `"hybrid"` sharing).
    pub separable_fraction: f64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        let d = WorkloadConfig::default();
        WorkloadSpec {
            advertisers: d.advertisers,
            phrases: d.phrases,
            topics: d.topics,
            generalist_fraction: d.generalist_fraction,
            search_rate_zipf_exponent: d.search_rate_zipf_exponent,
            max_search_rate: d.max_search_rate,
            phrase_factor_jitter: d.phrase_factor_jitter,
            separable_fraction: d.separable_fraction,
            seed: d.seed,
        }
    }
}

impl WorkloadSpec {
    /// Generates the workload.
    pub fn build(&self) -> Workload {
        Workload::generate(&WorkloadConfig {
            advertisers: self.advertisers,
            phrases: self.phrases,
            topics: self.topics,
            generalist_fraction: self.generalist_fraction,
            search_rate_zipf_exponent: self.search_rate_zipf_exponent,
            max_search_rate: self.max_search_rate,
            phrase_factor_jitter: self.phrase_factor_jitter,
            separable_fraction: self.separable_fraction,
            seed: self.seed,
            ..WorkloadConfig::default()
        })
    }
}

/// One simulation to run.
#[derive(Debug, Clone)]
pub struct SimulationSpec {
    /// Workload shape.
    pub workload: WorkloadSpec,
    /// Rounds to simulate.
    pub rounds: usize,
    /// Slot-specific CTR factors, descending.
    pub slot_factors: Vec<f64>,
    /// `"first-price"`, `"gsp"`, or `"vcg"`.
    pub pricing: String,
    /// `"ignore"`, `"throttle-exact"`, or `"throttle-bounds"`.
    pub budget_policy: String,
    /// `"unshared"`, `"shared-aggregation"`, `"shared-sort"`, or
    /// `"hybrid"`.
    pub sharing: String,
    /// Mean click delay in rounds.
    pub mean_click_delay_rounds: f64,
    /// Outstanding-ad expiry in rounds.
    pub click_expiry_rounds: u32,
    /// Shared-aggregation planner stage: `"full"` (Section II-D, the
    /// default) or `"fragments-only"` (E9 ablation / opt-out). The lazy
    /// completion pass makes the full heuristic tractable well past this
    /// CLI's default 1000-advertiser workload (see
    /// `BENCH_planner_scaling.json`), so both the engine and this CLI
    /// default to `"full"`.
    pub planner: String,
    /// Hybrid route selection: `"static"` (the separability predicate,
    /// the default) or `"adaptive"` (the cost-model route). Either is
    /// computed once, at engine construction. Ignored by the
    /// single-resolver strategies.
    pub routing: String,
    /// Engine RNG seed.
    pub seed: u64,
}

impl Default for SimulationSpec {
    fn default() -> Self {
        SimulationSpec {
            workload: WorkloadSpec::default(),
            rounds: 100,
            slot_factors: vec![0.3, 0.2, 0.1],
            pricing: "gsp".to_string(),
            budget_policy: "throttle-exact".to_string(),
            sharing: "shared-aggregation".to_string(),
            mean_click_delay_rounds: 3.0,
            click_expiry_rounds: 20,
            planner: "full".to_string(),
            routing: "static".to_string(),
            seed: 7,
        }
    }
}

/// Config parse/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.get(key)
}

fn usize_field(v: &Value, key: &str, default: usize) -> Result<usize, ConfigError> {
    match field(v, key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| ConfigError(format!("field '{key}' must be a non-negative integer"))),
    }
}

fn u64_field(v: &Value, key: &str, default: u64) -> Result<u64, ConfigError> {
    match field(v, key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| ConfigError(format!("field '{key}' must be a non-negative integer"))),
    }
}

fn u32_field(v: &Value, key: &str, default: u32) -> Result<u32, ConfigError> {
    let n = u64_field(v, key, u64::from(default))?;
    u32::try_from(n).map_err(|_| ConfigError(format!("field '{key}' must be at most {}", u32::MAX)))
}

fn f64_field(v: &Value, key: &str, default: f64) -> Result<f64, ConfigError> {
    match field(v, key) {
        None => Ok(default),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| ConfigError(format!("field '{key}' must be a number"))),
    }
}

/// Rejects a key of object `v` that `template` (the default spec's
/// rendering, which names every field) lacks: a misspelt or retired key
/// would otherwise run the default silently.
fn reject_unknown_keys(v: &Value, template: &Value, scope: &str) -> Result<(), ConfigError> {
    if let Value::Object(pairs) = v {
        if let Some((key, _)) = pairs.iter().find(|(key, _)| template.get(key).is_none()) {
            return Err(ConfigError(format!("unknown field '{scope}{key}'")));
        }
    }
    Ok(())
}

fn string_field(v: &Value, key: &str, default: &str) -> Result<String, ConfigError> {
    match field(v, key) {
        None => Ok(default.to_string()),
        Some(x) => x
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| ConfigError(format!("field '{key}' must be a string"))),
    }
}

impl WorkloadSpec {
    fn from_value(v: &Value) -> Result<Self, ConfigError> {
        let d = WorkloadSpec::default();
        reject_unknown_keys(v, &d.to_value(), "workload.")?;
        Ok(WorkloadSpec {
            advertisers: usize_field(v, "advertisers", d.advertisers)?,
            phrases: usize_field(v, "phrases", d.phrases)?,
            topics: usize_field(v, "topics", d.topics)?,
            generalist_fraction: f64_field(v, "generalist_fraction", d.generalist_fraction)?,
            search_rate_zipf_exponent: f64_field(
                v,
                "search_rate_zipf_exponent",
                d.search_rate_zipf_exponent,
            )?,
            max_search_rate: f64_field(v, "max_search_rate", d.max_search_rate)?,
            phrase_factor_jitter: f64_field(v, "phrase_factor_jitter", d.phrase_factor_jitter)?,
            separable_fraction: f64_field(v, "separable_fraction", d.separable_fraction)?,
            seed: u64_field(v, "seed", d.seed)?,
        })
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("advertisers".into(), Value::from(self.advertisers)),
            ("phrases".into(), Value::from(self.phrases)),
            ("topics".into(), Value::from(self.topics)),
            (
                "generalist_fraction".into(),
                Value::from(self.generalist_fraction),
            ),
            (
                "search_rate_zipf_exponent".into(),
                Value::from(self.search_rate_zipf_exponent),
            ),
            ("max_search_rate".into(), Value::from(self.max_search_rate)),
            (
                "phrase_factor_jitter".into(),
                Value::from(self.phrase_factor_jitter),
            ),
            (
                "separable_fraction".into(),
                Value::from(self.separable_fraction),
            ),
            ("seed".into(), Value::from(self.seed)),
        ])
    }
}

impl SimulationSpec {
    /// Parses a spec from JSON. Missing fields fall back to
    /// [`SimulationSpec::default`]; an unknown field, at the top level or
    /// in `workload`, is an error naming it.
    pub fn from_json(json: &str) -> Result<Self, ConfigError> {
        let v = json::parse(json).map_err(|e| ConfigError(e.to_string()))?;
        if !matches!(v, Value::Object(_)) {
            return Err(ConfigError("config must be a JSON object".to_string()));
        }
        let d = SimulationSpec::default();
        reject_unknown_keys(&v, &d.to_value(), "")?;
        let workload = match v.get("workload") {
            None => d.workload,
            Some(w) => WorkloadSpec::from_value(w)?,
        };
        let slot_factors = match v.get("slot_factors") {
            None => d.slot_factors,
            Some(x) => x
                .as_array()
                .and_then(|items| items.iter().map(Value::as_f64).collect::<Option<Vec<_>>>())
                .ok_or_else(|| {
                    ConfigError("field 'slot_factors' must be an array of numbers".to_string())
                })?,
        };
        Ok(SimulationSpec {
            workload,
            rounds: usize_field(&v, "rounds", d.rounds)?,
            slot_factors,
            pricing: string_field(&v, "pricing", &d.pricing)?,
            budget_policy: string_field(&v, "budget_policy", &d.budget_policy)?,
            sharing: string_field(&v, "sharing", &d.sharing)?,
            mean_click_delay_rounds: f64_field(
                &v,
                "mean_click_delay_rounds",
                d.mean_click_delay_rounds,
            )?,
            click_expiry_rounds: u32_field(&v, "click_expiry_rounds", d.click_expiry_rounds)?,
            planner: string_field(&v, "planner", &d.planner)?,
            routing: string_field(&v, "routing", &d.routing)?,
            seed: u64_field(&v, "seed", d.seed)?,
        })
    }

    /// Renders the spec as pretty-printed JSON (round-trips through
    /// [`SimulationSpec::from_json`]).
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), self.workload.to_value()),
            ("rounds".into(), Value::from(self.rounds)),
            (
                "slot_factors".into(),
                Value::Array(self.slot_factors.iter().map(|&f| Value::from(f)).collect()),
            ),
            ("pricing".into(), Value::from(self.pricing.as_str())),
            (
                "budget_policy".into(),
                Value::from(self.budget_policy.as_str()),
            ),
            ("sharing".into(), Value::from(self.sharing.as_str())),
            (
                "mean_click_delay_rounds".into(),
                Value::from(self.mean_click_delay_rounds),
            ),
            (
                "click_expiry_rounds".into(),
                Value::from(self.click_expiry_rounds),
            ),
            ("planner".into(), Value::from(self.planner.as_str())),
            ("routing".into(), Value::from(self.routing.as_str())),
            ("seed".into(), Value::from(self.seed)),
        ])
    }

    fn pricing_rule(&self) -> Result<PricingRule, ConfigError> {
        match self.pricing.as_str() {
            "first-price" => Ok(PricingRule::FirstPrice),
            "gsp" => Ok(PricingRule::GeneralizedSecondPrice),
            "vcg" => Ok(PricingRule::Vcg),
            other => Err(ConfigError(format!("unknown pricing rule '{other}'"))),
        }
    }

    fn budget(&self) -> Result<BudgetPolicy, ConfigError> {
        match self.budget_policy.as_str() {
            "ignore" => Ok(BudgetPolicy::Ignore),
            "throttle-exact" => Ok(BudgetPolicy::ThrottleExact),
            "throttle-bounds" => Ok(BudgetPolicy::ThrottleBounds),
            other => Err(ConfigError(format!("unknown budget policy '{other}'"))),
        }
    }

    fn strategy(&self) -> Result<SharingStrategy, ConfigError> {
        match self.sharing.as_str() {
            "unshared" => Ok(SharingStrategy::Unshared),
            "shared-aggregation" => Ok(SharingStrategy::SharedAggregation),
            "shared-sort" => Ok(SharingStrategy::SharedSort),
            "hybrid" => Ok(SharingStrategy::Hybrid),
            other => Err(ConfigError(format!("unknown sharing strategy '{other}'"))),
        }
    }

    fn planner_mode(&self) -> Result<PlannerMode, ConfigError> {
        match self.planner.as_str() {
            "full" => Ok(PlannerMode::Full),
            "fragments-only" => Ok(PlannerMode::FragmentsOnly),
            other => Err(ConfigError(format!("unknown planner mode '{other}'"))),
        }
    }

    fn routing_mode(&self) -> Result<RoutingMode, ConfigError> {
        match self.routing.as_str() {
            "static" => Ok(RoutingMode::Static),
            "adaptive" => Ok(RoutingMode::Adaptive),
            other => Err(ConfigError(format!("unknown routing mode '{other}'"))),
        }
    }

    /// Checks the slot factors `d_1 ≥ d_2 ≥ … ≥ 0`: at least one,
    /// each finite and non-negative, none above its predecessor. An
    /// ascending list would make VCG's `d_t − d_{t+1}` terms negative.
    fn check_slot_factors(&self) -> Result<(), ConfigError> {
        let d = &self.slot_factors;
        if d.is_empty() {
            return Err(ConfigError(
                "field 'slot_factors' needs at least one slot".to_string(),
            ));
        }
        if d.iter().any(|f| !f.is_finite() || *f < 0.0) || d.windows(2).any(|p| p[1] > p[0]) {
            return Err(ConfigError(format!(
                "field 'slot_factors' must be finite, non-negative and non-increasing, got {d:?}"
            )));
        }
        Ok(())
    }

    /// Builds the engine.
    pub fn build_engine(&self) -> Result<Engine, ConfigError> {
        self.check_slot_factors()?;
        Ok(Engine::new(
            self.workload.build(),
            EngineConfig {
                slot_factors: self.slot_factors.clone(),
                pricing: self.pricing_rule()?,
                budget_policy: self.budget()?,
                sharing: self.strategy()?,
                mean_click_delay_rounds: self.mean_click_delay_rounds,
                click_expiry_rounds: self.click_expiry_rounds,
                billing_increment: Money::from_micros(10_000),
                planner: self.planner_mode()?,
                routing: self.routing_mode()?,
                seed: self.seed,
                ..EngineConfig::default()
            },
        ))
    }

    /// Runs the simulation and returns the metrics.
    pub fn run(&self) -> Result<EngineMetrics, ConfigError> {
        let mut engine = self.build_engine()?;
        Ok(engine.run(self.rounds))
    }
}

/// Renders a metrics summary (shared by the CLI and tests).
pub fn render_metrics(m: &EngineMetrics) -> String {
    format!(
        "rounds: {}\nauctions: {}\nimpressions: {}\nclicks: {}\nrevenue: {}\nforgiven: {}\n\
         clicks beyond budget: {}\nadvertisers scanned: {}\naggregation ops: {}\n\
         merge invocations: {}\nta stages: {}\nsort nodes invalidated: {}\n\
         sort cache items reused: {}\nphrases routed plan: {}\nphrases routed sort: {}\n\
         phrases routed unshared: {}\nthrottle ms: {:.2}\nwd ms: {:.2}\n\
         wd plan ms: {:.2}\nwd sort ms: {:.2}\nwd unshared ms: {:.2}\n\
         sort refresh ms: {:.2}\nsettle ms: {:.2}\nresolution ms: {:.2}",
        m.rounds,
        m.auctions,
        m.impressions,
        m.clicks,
        m.revenue,
        m.forgiven,
        m.clicks_beyond_budget,
        m.advertisers_scanned,
        m.aggregation_ops,
        m.merge_invocations,
        m.ta_stages,
        m.sort_nodes_invalidated,
        m.sort_cache_items_reused,
        m.phrases_routed_plan,
        m.phrases_routed_sort,
        m.phrases_routed_unshared,
        m.throttle_nanos as f64 / 1e6,
        m.wd_nanos as f64 / 1e6,
        m.wd_plan_nanos as f64 / 1e6,
        m.wd_sort_nanos as f64 / 1e6,
        m.wd_unshared_nanos as f64 / 1e6,
        m.sort_refresh_nanos as f64 / 1e6,
        m.settle_nanos as f64 / 1e6,
        m.resolution_nanos() as f64 / 1e6,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_runs() {
        let spec = SimulationSpec {
            rounds: 5,
            workload: WorkloadSpec {
                advertisers: 50,
                phrases: 4,
                topics: 2,
                ..WorkloadSpec::default()
            },
            ..SimulationSpec::default()
        };
        let m = spec.run().expect("default spec valid");
        assert_eq!(m.rounds, 5);
        assert!(!render_metrics(&m).is_empty());
    }

    #[test]
    fn json_round_trip_and_partial_configs() {
        // Partial JSON relies on serde defaults.
        let spec = SimulationSpec::from_json(r#"{"rounds": 3, "sharing": "unshared"}"#)
            .expect("partial config parses");
        assert_eq!(spec.rounds, 3);
        assert_eq!(spec.sharing, "unshared");
        assert_eq!(spec.pricing, "gsp");
        let full = spec.to_json();
        let back = SimulationSpec::from_json(&full).unwrap();
        assert_eq!(back.rounds, spec.rounds);
        assert_eq!(back.sharing, spec.sharing);
        assert_eq!(back.slot_factors, spec.slot_factors);
        assert_eq!(back.workload.advertisers, spec.workload.advertisers);
    }

    #[test]
    fn rejects_unknown_enums() {
        let spec = SimulationSpec {
            pricing: "pay-with-exposure".to_string(),
            ..SimulationSpec::default()
        };
        assert!(spec.run().is_err());
        let spec = SimulationSpec {
            budget_policy: "hope".to_string(),
            ..SimulationSpec::default()
        };
        assert!(spec.build_engine().is_err());
        let spec = SimulationSpec {
            sharing: "telepathy".to_string(),
            ..SimulationSpec::default()
        };
        assert!(spec.build_engine().is_err());
        let spec = SimulationSpec {
            slot_factors: vec![],
            ..SimulationSpec::default()
        };
        assert!(spec.build_engine().is_err());
        let spec = SimulationSpec {
            planner: "psychic".to_string(),
            ..SimulationSpec::default()
        };
        assert!(spec.build_engine().is_err());
        let spec = SimulationSpec {
            routing: "vibes".to_string(),
            ..SimulationSpec::default()
        };
        assert!(spec.build_engine().is_err());
    }

    #[test]
    fn routing_fields_round_trip() {
        // Omitted routing stays static.
        let spec = SimulationSpec::from_json("{}").expect("empty config parses");
        assert_eq!(spec.routing, "static");
        let spec = SimulationSpec::from_json(r#"{"routing": "adaptive"}"#).unwrap();
        assert_eq!(spec.routing, "adaptive");
        let back = SimulationSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.routing, "adaptive");
    }

    #[test]
    fn rejects_unknown_keys() {
        for (json, key) in [
            // Retired: the adaptive route no longer moves, so there is
            // nothing left to freeze.
            (
                r#"{"routing": "adaptive", "route_frozen": true}"#,
                "route_frozen",
            ),
            (r#"{"rounds": 3, "shard": 2}"#, "shard"),
            // Retired with the sharded executor: every round runs on one
            // thread over one resolver set.
            (r#"{"shards": 4}"#, "shards"),
            (r#"{"wd_threads": 0}"#, "wd_threads"),
            (r#"{"workload": {"advertsers": 50}}"#, "workload.advertsers"),
        ] {
            let err = SimulationSpec::from_json(json).expect_err(json);
            assert!(
                err.to_string().contains(&format!("'{key}'")),
                "{json}: {err}"
            );
        }
    }

    #[test]
    fn every_ci_config_parses() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci");
        let mut parsed = 0;
        for entry in std::fs::read_dir(&dir).expect("ci directory is readable") {
            let path = entry.expect("ci directory entry").path();
            if path.extension().is_some_and(|ext| ext == "json") {
                let json = std::fs::read_to_string(&path).expect("ci config is readable");
                if let Err(err) =
                    SimulationSpec::from_json(&json).and_then(|spec| spec.check_slot_factors())
                {
                    panic!("{}: {err}", path.display());
                }
                parsed += 1;
            }
        }
        assert!(parsed >= 3, "found only {parsed} ci configs");
    }

    #[test]
    fn adaptive_hybrid_spec_runs_and_reports_migrations() {
        let spec = SimulationSpec {
            rounds: 6,
            sharing: "hybrid".to_string(),
            routing: "adaptive".to_string(),
            workload: WorkloadSpec {
                advertisers: 40,
                phrases: 8,
                topics: 2,
                phrase_factor_jitter: 0.4,
                separable_fraction: 0.5,
                ..WorkloadSpec::default()
            },
            ..SimulationSpec::default()
        };
        let m = spec.run().expect("adaptive hybrid spec runs");
        assert_eq!(m.rounds, 6);
        assert_eq!(
            m.phrases_routed_plan + m.phrases_routed_sort,
            m.auctions,
            "every auction routed to exactly one hybrid resolver"
        );
        assert_eq!(m.router_migrations, 0, "the route is fixed at construction");
    }

    #[test]
    fn executor_fields_round_trip() {
        // An omitted planner falls back to the full Section II-D heuristic;
        // "fragments-only" stays available as an explicit opt-out.
        let spec = SimulationSpec::from_json("{}").expect("empty config parses");
        assert_eq!(spec.planner, "full");
        let spec = SimulationSpec::from_json(r#"{"planner": "fragments-only"}"#)
            .expect("planner field parses");
        assert_eq!(spec.planner, "fragments-only");
        let back = SimulationSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.planner, "fragments-only");
    }

    #[test]
    fn slot_factors_must_be_finite_non_negative_and_non_increasing() {
        for bad in [vec![0.1, 0.3], vec![0.3, -0.1], vec![f64::NAN], vec![]] {
            let spec = SimulationSpec {
                slot_factors: bad.clone(),
                ..SimulationSpec::default()
            };
            let Err(err) = spec.build_engine() else {
                panic!("{bad:?} was accepted");
            };
            assert!(err.to_string().contains("'slot_factors'"), "{err}");
        }
        let spec = SimulationSpec {
            slot_factors: vec![0.3, 0.3, 0.1],
            workload: WorkloadSpec {
                advertisers: 50,
                phrases: 4,
                topics: 2,
                ..WorkloadSpec::default()
            },
            ..SimulationSpec::default()
        };
        assert!(
            spec.build_engine().is_ok(),
            "ties between slots are allowed"
        );
    }

    #[test]
    fn click_expiry_rounds_must_fit_u32() {
        let err = SimulationSpec::from_json(r#"{"click_expiry_rounds": 4294967296}"#)
            .expect_err("2^32 does not fit the engine's u32");
        assert!(err.to_string().contains("'click_expiry_rounds'"), "{err}");
        let spec = SimulationSpec::from_json(r#"{"click_expiry_rounds": 4294967295}"#)
            .expect("u32::MAX is accepted");
        assert_eq!(spec.click_expiry_rounds, u32::MAX);
    }

    #[test]
    fn hybrid_sharing_and_mixed_workloads_round_trip() {
        let spec = SimulationSpec::from_json(
            r#"{
                "rounds": 3,
                "sharing": "hybrid",
                "workload": {
                    "advertisers": 40,
                    "phrases": 8,
                    "phrase_factor_jitter": 0.4,
                    "separable_fraction": 0.5
                }
            }"#,
        )
        .expect("hybrid config parses");
        assert_eq!(spec.sharing, "hybrid");
        assert_eq!(spec.workload.separable_fraction, 0.5);
        let back = SimulationSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.sharing, "hybrid");
        assert_eq!(back.workload.separable_fraction, 0.5);
        let m = spec.run().expect("hybrid spec runs");
        assert_eq!(m.rounds, 3);
        assert_eq!(m.phrases_routed_plan + m.phrases_routed_sort, m.auctions);
        assert!(m.phrases_routed_plan > 0, "no phrase went to the plan");
        assert!(m.phrases_routed_sort > 0, "no phrase went to the sort");
        let rendered = render_metrics(&m);
        assert!(rendered.contains("phrases routed plan"));
        assert!(rendered.contains("wd sort ms"));
    }

    #[test]
    fn bad_json_is_a_config_error() {
        let err = SimulationSpec::from_json("{nope").unwrap_err();
        assert!(err.to_string().contains("config error"));
    }
}
