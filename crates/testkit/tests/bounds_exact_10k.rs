//! ThrottleBounds against ThrottleExact at 10k advertisers.
//!
//! The bounds policy selects each phrase's winners best-first on
//! Hoeffding upper bounds and computes exact throttled bids only where
//! the bounds cannot prune; the exact policy convolves every
//! participant's bid and scans. Both rank by the same exact key, so on
//! the `tight_bounds` workload shape (tight budgets, 16 near-equally
//! likely phrases, clicks landing over several rounds) cut to 10k
//! advertisers, two Unshared engines — one per policy — must agree bit
//! for bit in every one of 300 rounds: outcomes, the charged display
//! events, and every advertiser's budget state.

use ssa_core::engine::{BudgetPolicy, Engine, EngineConfig, SharingStrategy};
use ssa_workload::{Workload, WorkloadConfig};

const ROUNDS: usize = 300;

#[test]
fn bounds_engine_equals_exact_engine_every_round_at_10k() {
    let w = Workload::generate(&WorkloadConfig {
        advertisers: 10_000,
        phrases: 16,
        topics: 16,
        generalist_fraction: 0.3,
        search_rate_zipf_exponent: 0.2,
        max_search_rate: 0.45,
        phrase_factor_jitter: 0.3,
        budget_mu: 2.0,
        seed: 20_090_329,
        ..WorkloadConfig::default()
    });
    let engine = |budget_policy| {
        Engine::new(
            w.clone(),
            EngineConfig {
                sharing: SharingStrategy::Unshared,
                budget_policy,
                mean_click_delay_rounds: 8.0,
                click_expiry_rounds: 40,
                seed: 20_090_329,
                ..EngineConfig::default()
            },
        )
    };
    let mut exact = engine(BudgetPolicy::ThrottleExact);
    let mut bounds = engine(BudgetPolicy::ThrottleBounds);
    for round in 0..ROUNDS {
        let want = exact.run_round();
        let got = bounds.run_round();
        assert_eq!(got, want, "round {round}: outcomes");
        assert_eq!(
            bounds.last_display_events(),
            exact.last_display_events(),
            "round {round}: display events"
        );
        assert!(
            bounds.budget_snapshots() == exact.budget_snapshots(),
            "round {round}: budget snapshots"
        );
    }
    // Non-vacuity: the bounds engine refined bounds and ran convolutions.
    let m = bounds.metrics();
    assert!(m.bound_evaluations > 0, "no bound was evaluated");
    assert!(m.exact_throttle_evaluations > 0, "no convolution ran");
    assert_eq!(m.revenue, exact.metrics().revenue);
}
