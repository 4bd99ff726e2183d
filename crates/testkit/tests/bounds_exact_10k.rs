//! Section IV-B's bounds selection against the exact scan at 10k
//! advertisers.
//!
//! The engine throttles exactly under both throttling policies; the
//! bounds selection `top_k_uncertain` is kept as a library. It must still
//! rank exactly as the engine does. On the `tight_bounds` workload shape
//! (tight budgets, 16 near-equally likely phrases, clicks landing over
//! several rounds) cut to 10k advertisers, a ThrottleExact engine runs
//! 300 rounds. Every phrase of every round is re-selected from the
//! engine's pre-round budget snapshots: `top_k_uncertain(k + 1)` must
//! return the same `(advertiser, score)` ranking as `scan_top_k(k + 1)`
//! over the engine's effective bids, and each exact bid it returns must
//! equal the engine's.

use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::score::Score;
use ssa_core::budget::topk::{top_k_uncertain, UncertainCandidate};
use ssa_core::budget::BudgetContext;
use ssa_core::engine::resolvers::scan_top_k;
use ssa_core::engine::{BudgetPolicy, Engine, EngineConfig, SharingStrategy};
use ssa_testkit::oracle;
use ssa_workload::{Workload, WorkloadConfig};

const ROUNDS: usize = 300;

#[test]
fn bounds_selection_equals_exact_scan_every_round_at_10k() {
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
    let mut engine = Engine::new(
        w.clone(),
        EngineConfig {
            sharing: SharingStrategy::Unshared,
            budget_policy: BudgetPolicy::ThrottleExact,
            mean_click_delay_rounds: 8.0,
            click_expiry_rounds: 40,
            seed: 20_090_329,
            ..EngineConfig::default()
        },
    );
    let k = engine.config().slot_factors.len();
    let (mut bound_evaluations, mut exact_evaluations) = (0, 0);
    for round in 0..ROUNDS {
        let snapshots = engine.budget_snapshots();
        let outcomes = engine.run_round();
        let occurring: Vec<PhraseId> = outcomes.iter().map(|o| o.phrase).collect();
        let m_i = oracle::auction_counts(&w, &occurring);
        let bids = engine.last_effective_bids();
        for phrase in occurring {
            let (interest, factors) = (
                &w.interest[phrase.index()],
                &w.phrase_factors[phrase.index()],
            );
            let candidates: Vec<UncertainCandidate> = interest
                .iter()
                .zip(factors)
                .map(|(&a, &factor)| {
                    let snap = &snapshots[a.index()];
                    let ctx = BudgetContext {
                        bid: snap.bid,
                        remaining_budget: snap.remaining_budget,
                        auctions_in_round: m_i[a.index()],
                        outstanding: snap.outstanding.clone(),
                    };
                    UncertainCandidate::new(a, factor, &ctx)
                })
                .collect();
            let (winners, stats) = top_k_uncertain(&candidates, k + 1);
            bound_evaluations += stats.bound_evaluations;
            exact_evaluations += stats.exact_evaluations;
            // The bounds selection drops zero scores; the scan keeps them
            // at its tail when fewer than `k + 1` candidates score.
            let want: Vec<(AdvertiserId, Score)> = scan_top_k(interest, factors, bids, k + 1)
                .items()
                .iter()
                .filter(|s| !s.score.is_zero())
                .map(|s| (s.advertiser, s.score))
                .collect();
            let got: Vec<(AdvertiserId, Score)> =
                winners.iter().map(|x| (x.advertiser, x.score)).collect();
            assert_eq!(got, want, "round {round} phrase {phrase}: ranking");
            for x in &winners {
                assert_eq!(
                    x.bid,
                    bids[x.advertiser.index()],
                    "round {round} phrase {phrase}: bid of {}",
                    x.advertiser
                );
            }
        }
    }
    // Non-vacuity: the selection refined bounds and ran convolutions.
    assert!(bound_evaluations > 0, "no bound was evaluated");
    assert!(exact_evaluations > 0, "no convolution ran");
}
