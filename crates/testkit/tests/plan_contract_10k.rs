//! The plan side's contract at 10k advertisers.
//!
//! A SharedAggregation engine evaluates the occurring phrases' cones of
//! its plan each round — a scan per fragment run, ⊕ above the fragments —
//! and reuses one scratch arena across rounds. Under both planner modes,
//! for 300 rounds of a workload with tight budgets (bids churn between a
//! phrase's occurrences) and a steep search-rate tail (cones of very
//! different sizes follow each other on the scratch):
//! - every outcome must equal the naive oracle's scan over that round's
//!   effective bids;
//! - every round's counted `aggregation_ops` must equal the §II-B
//!   materialized cost of the occurring phrases' cones, exactly.

use ssa_core::engine::resolvers::PlanResolver;
use ssa_core::engine::{BudgetPolicy, Engine, EngineConfig, SharingStrategy};
use ssa_core::plan::PlannerMode;
use ssa_testkit::oracle::{phrase_assignment, plan_round_ops};
use ssa_workload::{Workload, WorkloadConfig};

const ROUNDS: usize = 300;

#[test]
fn plan_rounds_match_the_oracle_and_the_cost_model_at_10k() {
    let w = Workload::generate(&WorkloadConfig {
        advertisers: 10_000,
        phrases: 64,
        topics: 8,
        generalist_fraction: 0.3,
        search_rate_zipf_exponent: 1.2,
        max_search_rate: 0.6,
        budget_mu: 1.0,
        phrase_factor_jitter: 0.0,
        seed: 9_013,
        ..WorkloadConfig::default()
    });
    for planner in [PlannerMode::Full, PlannerMode::FragmentsOnly] {
        let mut engine = Engine::new(
            w.clone(),
            EngineConfig {
                sharing: SharingStrategy::SharedAggregation,
                budget_policy: BudgetPolicy::ThrottleExact,
                planner,
                ..EngineConfig::default()
            },
        );
        let model = PlanResolver::new(&w, planner, None);
        let slot_factors = engine.config().slot_factors.clone();
        let mut cone_sizes = Vec::new();
        let mut throttled_rounds = 0;
        for round in 0..ROUNDS {
            let ops_before = engine.metrics().aggregation_ops;
            let outcomes = engine.run_round();
            let bids = engine.last_effective_bids();
            for o in &outcomes {
                assert_eq!(
                    o.assignment,
                    phrase_assignment(&w, o.phrase, bids, &slot_factors),
                    "[{planner:?}] round {round} phrase {}",
                    o.phrase
                );
            }
            let phrases: Vec<_> = outcomes.iter().map(|o| o.phrase).collect();
            let counted = engine.metrics().aggregation_ops - ops_before;
            assert_eq!(
                counted,
                plan_round_ops(&w, &model, &phrases),
                "[{planner:?}] round {round} phrases {phrases:?}"
            );
            cone_sizes.push(counted);
            let throttled = bids
                .iter()
                .zip(engine.current_bids())
                .any(|(effective, stated)| !effective.is_zero() && effective < stated);
            throttled_rounds += usize::from(throttled);
        }
        assert!(
            throttled_rounds >= ROUNDS / 2,
            "[{planner:?}] throttling bound in only {throttled_rounds} of {ROUNDS} rounds"
        );
        // The rounds must actually move the scratch between cone sizes.
        let min = cone_sizes.iter().min().copied().unwrap_or(0);
        let max = cone_sizes.iter().max().copied().unwrap_or(0);
        assert!(
            max > 2 * min,
            "[{planner:?}] cone sizes {min}..{max} barely vary"
        );
    }
}
