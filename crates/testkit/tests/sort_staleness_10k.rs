//! Staleness oracle at 10k advertisers for the sort network's
//! demand-driven refresh.
//!
//! The persistent merge network diffs only the runs (one per fragment)
//! under the phrases a round hands it; every other run keeps the bids of
//! its members' last participation. Tight budgets make throttled bids
//! churn between participations, and a steep search-rate tail leaves many
//! phrases unsearched for hundreds of rounds, so most runs are stale
//! most of the time. Every outcome of every round must still equal the
//! naive oracle's scan over that round's effective bids, for a pure
//! `SharedSort` engine and for an adaptive `Hybrid` one (whose network
//! serves only the phrases its cost-model route sends there).

use ssa_core::engine::{BudgetPolicy, Engine, EngineConfig, RoutingMode, SharingStrategy};
use ssa_testkit::oracle::phrase_assignment;
use ssa_workload::{Workload, WorkloadConfig};

const ROUNDS: usize = 300;

#[test]
fn stale_sort_leaves_never_change_an_outcome_at_10k() {
    let w = Workload::generate(&WorkloadConfig {
        advertisers: 10_000,
        phrases: 64,
        topics: 8,
        generalist_fraction: 0.3,
        search_rate_zipf_exponent: 1.2,
        max_search_rate: 0.6,
        budget_mu: 1.0,
        phrase_factor_jitter: 0.3,
        separable_fraction: 0.5,
        seed: 9_011,
        ..WorkloadConfig::default()
    });
    let engines = [
        (
            "shared-sort",
            SharingStrategy::SharedSort,
            RoutingMode::Static,
        ),
        (
            "adaptive-hybrid",
            SharingStrategy::Hybrid,
            RoutingMode::Adaptive,
        ),
    ];
    for (name, sharing, routing) in engines {
        let mut engine = Engine::new(
            w.clone(),
            EngineConfig {
                sharing,
                routing,
                budget_policy: BudgetPolicy::ThrottleExact,
                ..EngineConfig::default()
            },
        );
        let slot_factors = engine.config().slot_factors.clone();
        let mut last_seen: Vec<Option<usize>> = vec![None; w.phrase_count()];
        let mut longest_gap = 0;
        let mut throttled_rounds = 0;
        for round in 0..ROUNDS {
            let outcomes = engine.run_round();
            let bids = engine.last_effective_bids();
            for o in &outcomes {
                assert_eq!(
                    o.assignment,
                    phrase_assignment(&w, o.phrase, bids, &slot_factors),
                    "[{name}] round {round} phrase {}",
                    o.phrase
                );
                let q = o.phrase.index();
                if let Some(prev) = last_seen[q] {
                    longest_gap = longest_gap.max(round - prev);
                }
                last_seen[q] = Some(round);
            }
            let throttled = bids
                .iter()
                .zip(engine.current_bids())
                .any(|(effective, stated)| !effective.is_zero() && effective < stated);
            throttled_rounds += usize::from(throttled);
        }
        // The workload must actually exercise staleness: long gaps
        // between a phrase's occurrences, and throttling that binds.
        assert!(
            longest_gap >= 100,
            "[{name}] longest gap between a phrase's occurrences was {longest_gap} rounds"
        );
        assert!(
            throttled_rounds >= ROUNDS / 2,
            "[{name}] throttling bound in only {throttled_rounds} of {ROUNDS} rounds"
        );
    }
}
