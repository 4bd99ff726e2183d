use super::*;
use ssa_workload::WorkloadConfig;

fn small_workload(jitter: f64, seed: u64) -> Workload {
    Workload::generate(&WorkloadConfig {
        advertisers: 60,
        phrases: 6,
        topics: 3,
        phrase_factor_jitter: jitter,
        seed,
        ..WorkloadConfig::default()
    })
}

/// Jittered workload with roughly half the phrases exempted, so a
/// `Hybrid` engine exercises both of its resolvers.
fn mixed_workload(seed: u64) -> Workload {
    Workload::generate(&WorkloadConfig {
        advertisers: 60,
        phrases: 8,
        topics: 3,
        phrase_factor_jitter: 0.4,
        separable_fraction: 0.5,
        seed,
        ..WorkloadConfig::default()
    })
}

fn config(sharing: SharingStrategy, policy: BudgetPolicy) -> EngineConfig {
    EngineConfig {
        sharing,
        budget_policy: policy,
        ..EngineConfig::default()
    }
}

/// All sharing strategies must produce identical assignments on a
/// jitter-free workload round by round (same seed → same rounds).
/// `Hybrid` routes every phrase to its plan there.
#[test]
fn strategies_agree_on_assignments() {
    let strategies = [
        SharingStrategy::Unshared,
        SharingStrategy::SharedAggregation,
        SharingStrategy::SharedSort,
        SharingStrategy::Hybrid,
    ];
    let mut all: Vec<Vec<AuctionOutcome>> = Vec::new();
    for s in strategies {
        let mut engine = Engine::new(
            small_workload(0.0, 42),
            config(s, BudgetPolicy::ThrottleExact),
        );
        let mut outcomes = Vec::new();
        for _ in 0..10 {
            outcomes.extend(engine.run_round());
        }
        all.push(outcomes);
    }
    for pair in all.windows(2) {
        assert_eq!(pair[0].len(), pair[1].len());
        for (a, b) in pair[0].iter().zip(&pair[1]) {
            assert_eq!(a.phrase, b.phrase);
            assert_eq!(a.assignment, b.assignment, "mismatch on {}", a.phrase);
        }
    }
}

#[test]
fn shared_sort_handles_jittered_factors() {
    let mut unshared = Engine::new(
        small_workload(0.4, 9),
        config(SharingStrategy::Unshared, BudgetPolicy::ThrottleExact),
    );
    let mut shared = Engine::new(
        small_workload(0.4, 9),
        config(SharingStrategy::SharedSort, BudgetPolicy::ThrottleExact),
    );
    for _ in 0..8 {
        let a = unshared.run_round();
        let b = shared.run_round();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.assignment, y.assignment, "phrase {}", x.phrase);
        }
    }
}

/// A `Hybrid` engine on a mixed workload must agree round by round with
/// both a full `SharedSort` engine and the unshared baseline — same
/// outcomes, same effective bids, same budget evolution.
#[test]
fn hybrid_matches_unshared_and_shared_sort_on_mixed_workloads() {
    for policy in [BudgetPolicy::Ignore, BudgetPolicy::ThrottleExact] {
        let mut hybrid = Engine::new(mixed_workload(23), config(SharingStrategy::Hybrid, policy));
        let mut sort = Engine::new(
            mixed_workload(23),
            config(SharingStrategy::SharedSort, policy),
        );
        let mut unshared = Engine::new(
            mixed_workload(23),
            config(SharingStrategy::Unshared, policy),
        );
        for round in 0..10 {
            let h = hybrid.run_round();
            let s = sort.run_round();
            let u = unshared.run_round();
            assert_eq!(h.len(), s.len(), "{policy:?} round {round}");
            for ((x, y), z) in h.iter().zip(&s).zip(&u) {
                assert_eq!(x.phrase, y.phrase);
                assert_eq!(
                    x.assignment, y.assignment,
                    "{policy:?} round {round} phrase {} vs shared-sort",
                    x.phrase
                );
                assert_eq!(
                    x.assignment, z.assignment,
                    "{policy:?} round {round} phrase {} vs unshared",
                    x.phrase
                );
            }
            assert_eq!(
                hybrid.last_effective_bids(),
                sort.last_effective_bids(),
                "{policy:?} round {round} effective bids"
            );
        }
        assert_eq!(
            hybrid.budget_snapshots(),
            sort.budget_snapshots(),
            "{policy:?} budget snapshots"
        );
    }
}

/// Hybrid's routing table is exactly the workload's separability map, and
/// every auction lands on exactly one of the two resolvers.
#[test]
fn hybrid_routes_by_separability() {
    let w = mixed_workload(17);
    let separable: Vec<bool> = (0..w.phrase_count())
        .map(|q| w.phrase_is_separable(q))
        .collect();
    let mut engine = Engine::new(
        w,
        config(SharingStrategy::Hybrid, BudgetPolicy::ThrottleExact),
    );
    assert_eq!(engine.hybrid_plan_route(), Some(&separable[..]));
    let m = engine.run(12);
    assert!(m.phrases_routed_plan > 0, "separable phrases must occur");
    assert!(m.phrases_routed_sort > 0, "jittered phrases must occur");
    assert_eq!(m.phrases_routed_plan + m.phrases_routed_sort, m.auctions);
    assert_eq!(m.phrases_routed_unshared, 0);
    assert!(m.aggregation_ops > 0, "plan resolver did work");
    assert!(m.ta_stages > 0, "sort resolver did work");
}

/// On a fully separable workload Hybrid degenerates to the shared plan:
/// nothing routes to the sort network and no merge work happens.
#[test]
fn hybrid_on_separable_workload_routes_everything_to_the_plan() {
    let mut hybrid = Engine::new(
        small_workload(0.0, 5),
        config(SharingStrategy::Hybrid, BudgetPolicy::ThrottleExact),
    );
    let m = hybrid.run(10);
    assert_eq!(m.phrases_routed_sort, 0);
    assert_eq!(m.phrases_routed_plan, m.auctions);
    assert_eq!(m.ta_stages, 0);
}

fn adaptive_config(policy: BudgetPolicy) -> EngineConfig {
    EngineConfig {
        sharing: SharingStrategy::Hybrid,
        routing: RoutingMode::Adaptive,
        budget_policy: policy,
        ..EngineConfig::default()
    }
}

/// Routing is a performance decision, never a semantic one: an adaptive
/// Hybrid engine must stay bit-identical to the unshared baseline and a
/// pure `SharedSort` engine whatever route the cost model picks.
#[test]
fn adaptive_hybrid_matches_unshared_and_shared_sort_round_by_round() {
    for policy in [BudgetPolicy::Ignore, BudgetPolicy::ThrottleExact] {
        let mut adaptive = Engine::new(mixed_workload(23), adaptive_config(policy));
        let mut sort = Engine::new(
            mixed_workload(23),
            config(SharingStrategy::SharedSort, policy),
        );
        let mut unshared = Engine::new(
            mixed_workload(23),
            config(SharingStrategy::Unshared, policy),
        );
        for round in 0..10 {
            let a = adaptive.run_round();
            let s = sort.run_round();
            let u = unshared.run_round();
            assert_eq!(a.len(), s.len(), "{policy:?} round {round}");
            for ((x, y), z) in a.iter().zip(&s).zip(&u) {
                assert_eq!(x.phrase, y.phrase);
                assert_eq!(
                    x.assignment, y.assignment,
                    "{policy:?} round {round} phrase {} vs shared-sort",
                    x.phrase
                );
                assert_eq!(
                    x.assignment, z.assignment,
                    "{policy:?} round {round} phrase {} vs unshared",
                    x.phrase
                );
            }
            assert_eq!(
                adaptive.last_effective_bids(),
                sort.last_effective_bids(),
                "{policy:?} round {round} effective bids"
            );
        }
        assert_eq!(
            adaptive.budget_snapshots(),
            sort.budget_snapshots(),
            "{policy:?} budget snapshots"
        );
    }
}

/// The adaptive route only ever plan-routes separable (plan-bound)
/// phrases.
#[test]
fn adaptive_route_respects_plan_eligibility() {
    let w = mixed_workload(17);
    let separable: Vec<bool> = (0..w.phrase_count())
        .map(|q| w.phrase_is_separable(q))
        .collect();
    let engine = Engine::new(w, adaptive_config(BudgetPolicy::ThrottleExact));
    let route: Vec<bool> = engine.hybrid_plan_route().expect("hybrid").to_vec();
    for (q, &to_plan) in route.iter().enumerate() {
        assert!(
            separable[q] || !to_plan,
            "non-separable phrase {q} routed to the plan"
        );
    }
}

#[test]
#[should_panic(expected = "SharedAggregation requires")]
fn shared_aggregation_rejects_jitter() {
    Engine::new(
        small_workload(0.4, 9),
        config(SharingStrategy::SharedAggregation, BudgetPolicy::Ignore),
    );
}

/// `ThrottleBounds` is an alias of `ThrottleExact`: under every sharing
/// strategy the two engines run the same throttle stage and must agree
/// bit for bit every round — outcomes, charged display events, budget
/// state, the whole effective-bid buffer, and every counter.
#[test]
fn throttle_bounds_is_throttle_exact() {
    let cases = [
        (SharingStrategy::Unshared, mixed_workload(5)),
        (SharingStrategy::SharedAggregation, small_workload(0.0, 5)),
        (SharingStrategy::SharedSort, mixed_workload(5)),
        (SharingStrategy::Hybrid, mixed_workload(5)),
    ];
    for (sharing, w) in cases {
        let mut exact = Engine::new(w.clone(), config(sharing, BudgetPolicy::ThrottleExact));
        let mut bounds = Engine::new(w, config(sharing, BudgetPolicy::ThrottleBounds));
        let mut throttled = false;
        for round in 0..24 {
            let want = exact.run_round();
            assert_eq!(bounds.run_round(), want, "{sharing:?} round {round}");
            assert_eq!(
                bounds.last_display_events(),
                exact.last_display_events(),
                "{sharing:?} round {round}: display events"
            );
            assert!(
                bounds.budget_snapshots() == exact.budget_snapshots(),
                "{sharing:?} round {round}: budget snapshots"
            );
            assert_eq!(
                bounds.last_effective_bids(),
                exact.last_effective_bids(),
                "{sharing:?} round {round}: effective bids"
            );
            assert_eq!(
                bounds.metrics().without_timing(),
                exact.metrics().without_timing(),
                "{sharing:?} round {round}: metrics"
            );
            throttled |= exact
                .last_effective_bids()
                .iter()
                .zip(exact.current_bids())
                .any(|(&e, &b)| !e.is_zero() && e < b);
        }
        // Non-vacuity: some participant bid below its stated bid.
        assert!(throttled, "{sharing:?}: no bid was ever throttled");
    }
}

/// `shards` and `wd_threads` are accepted and unread: any values, `0`
/// included, run the same single-threaded round as `(1, 1)` and report
/// one shard and one worker.
#[test]
fn executor_knobs_are_accepted_and_unread() {
    let run = |shards: usize, wd_threads: usize| {
        let mut engine = Engine::new(
            mixed_workload(31),
            EngineConfig {
                sharing: SharingStrategy::Hybrid,
                routing: RoutingMode::Adaptive,
                shards,
                wd_threads,
                ..EngineConfig::default()
            },
        );
        let rounds: Vec<_> = (0..8)
            .map(|_| {
                let outcomes: Vec<_> = engine
                    .run_round()
                    .into_iter()
                    .map(|o| (o.phrase, o.assignment))
                    .collect();
                (
                    outcomes,
                    engine.last_display_events().to_vec(),
                    engine.budget_snapshots(),
                    engine.last_effective_bids().to_vec(),
                )
            })
            .collect();
        let m = engine.metrics();
        assert_eq!((m.shards_resolved, m.wd_threads_resolved), (1, 1));
        (rounds, m.without_timing())
    };
    let serial = run(1, 1);
    assert!(serial.0.iter().any(|(outcomes, ..)| !outcomes.is_empty()));
    for (shards, wd_threads) in [(4, 4), (0, 0)] {
        let other = run(shards, wd_threads);
        assert!(
            other.0 == serial.0,
            "shards {shards} wd_threads {wd_threads}: rounds differ"
        );
        assert_eq!(other.1, serial.1, "shards {shards} wd_threads {wd_threads}");
    }
}

/// The engine's default plan uses the full Section II-D heuristic,
/// whose greedy completion should not cost more than fragments-only
/// on a typical workload.
#[test]
fn default_planner_cost_at_most_fragments_only() {
    use crate::plan::cost::expected_cost;
    let w = small_workload(0.0, 42);
    let rates = w.search_rates();
    let full = Engine::new(
        w.clone(),
        config(SharingStrategy::SharedAggregation, BudgetPolicy::Ignore),
    );
    let frag = Engine::new(
        w,
        EngineConfig {
            sharing: SharingStrategy::SharedAggregation,
            budget_policy: BudgetPolicy::Ignore,
            planner: PlannerMode::FragmentsOnly,
            ..EngineConfig::default()
        },
    );
    assert_eq!(full.config().planner, PlannerMode::Full, "default is full");
    let plan_of = |e: &Engine| {
        expected_cost(
            e.resolvers.plan().unwrap().dag().expect("plan compiled"),
            &rates,
        )
    };
    let full_cost = plan_of(&full);
    let frag_cost = plan_of(&frag);
    assert!(
        full_cost <= frag_cost,
        "full {full_cost} vs fragments-only {frag_cost}"
    );
    // Both engines still resolve identically — plans differ only in cost.
    let mut full = full;
    let mut frag = frag;
    for _ in 0..5 {
        let a = full.run_round();
        let b = frag.run_round();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.assignment, y.assignment);
        }
    }
}

/// Zero-advertiser workloads and empty-interest phrases must resolve
/// trivially instead of planting a fake advertiser-0 leaf (which
/// panicked when `n == 0`).
#[test]
fn empty_phrases_and_zero_advertisers_resolve_trivially() {
    // n == 0: every strategy runs, no winners, no revenue.
    for sharing in [
        SharingStrategy::Unshared,
        SharingStrategy::SharedAggregation,
        SharingStrategy::SharedSort,
        SharingStrategy::Hybrid,
    ] {
        let w = Workload::generate(&WorkloadConfig {
            advertisers: 0,
            phrases: 4,
            topics: 2,
            ..WorkloadConfig::default()
        });
        let mut engine = Engine::new(w, config(sharing, BudgetPolicy::ThrottleExact));
        let m = engine.run(5);
        assert_eq!(m.impressions, 0, "{sharing:?}");
        assert!(m.revenue.is_zero(), "{sharing:?}");
    }
    // One emptied phrase: it resolves empty, others are unaffected.
    let mut w = small_workload(0.0, 8);
    w.interest[0].clear();
    w.phrase_factors[0].clear();
    let mut engine = Engine::new(
        w,
        config(
            SharingStrategy::SharedAggregation,
            BudgetPolicy::ThrottleExact,
        ),
    );
    let mut saw_other_winners = false;
    for _ in 0..10 {
        for outcome in engine.run_round() {
            if outcome.phrase.index() == 0 {
                assert!(outcome.assignment.winners().is_empty());
            } else if !outcome.assignment.winners().is_empty() {
                saw_other_winners = true;
            }
        }
    }
    assert!(saw_other_winners, "non-empty phrases still resolve");
}

#[test]
fn revenue_never_exceeds_total_budgets() {
    let workload = small_workload(0.0, 11);
    let total_budget: Money = workload.advertisers.iter().map(|a| a.budget).sum();
    for policy in [BudgetPolicy::Ignore, BudgetPolicy::ThrottleExact] {
        let mut engine = Engine::new(
            small_workload(0.0, 11),
            config(SharingStrategy::Unshared, policy),
        );
        let m = engine.run(50);
        assert!(
            m.revenue <= total_budget,
            "{policy:?} collected {} over budget {total_budget}",
            m.revenue
        );
    }
}

#[test]
fn metrics_accumulate_sensibly() {
    let mut engine = Engine::new(
        small_workload(0.0, 3),
        config(
            SharingStrategy::SharedAggregation,
            BudgetPolicy::ThrottleExact,
        ),
    );
    let m = engine.run(20);
    assert_eq!(m.rounds, 20);
    assert!(m.auctions > 0, "phrases must occur");
    assert!(m.impressions > 0);
    assert!(m.aggregation_ops > 0);
    assert_eq!(m.advertisers_scanned, 0, "no scans under shared plan");
    assert_eq!(m.phrases_routed_plan, m.auctions);
    assert_eq!(m.phrases_routed_sort + m.phrases_routed_unshared, 0);
}

/// The effective-bids buffer must be persistent: after the first round
/// sizes it, `last_effective_bids` is the same allocation every round —
/// entries are rewritten sparsely (previous participants zeroed, current
/// participants recomputed) instead of cloning a fresh vector per round.
#[test]
fn effective_bids_buffer_is_persistent_across_rounds() {
    let mut engine = Engine::new(
        small_workload(0.0, 13),
        config(SharingStrategy::Unshared, BudgetPolicy::ThrottleExact),
    );
    engine.run_round();
    let p1 = engine.last_effective_bids().as_ptr();
    engine.run_round();
    let p2 = engine.last_effective_bids().as_ptr();
    engine.run_round();
    let p3 = engine.last_effective_bids().as_ptr();
    assert_eq!(p1, p2, "buffer reused, not re-cloned");
    assert_eq!(p2, p3, "buffer reused, not re-cloned");
}

#[test]
fn bidding_programs_move_bids_and_stay_consistent_across_strategies() {
    use super::bidding::{BidStrategy, BiddingProgram};
    use ssa_auction::ids::SlotIndex;

    let build = |sharing: SharingStrategy| {
        let w = small_workload(0.0, 77);
        let programs: Vec<BiddingProgram> = w
            .advertisers
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let strategy = match i % 3 {
                    0 => BidStrategy::Static,
                    1 => BidStrategy::TargetSlot {
                        target: SlotIndex(0),
                        step: 0.05,
                        max_bid: Money::from_units(50),
                    },
                    _ => BidStrategy::BudgetPacing {
                        horizon: 40,
                        step: 0.05,
                    },
                };
                BiddingProgram::new(strategy, a.bid)
            })
            .collect();
        let mut engine = Engine::new(
            w,
            EngineConfig {
                sharing,
                budget_policy: BudgetPolicy::Ignore,
                seed: 19,
                ..EngineConfig::default()
            },
        );
        engine.set_bidding_programs(programs);
        engine
    };
    let mut a = build(SharingStrategy::Unshared);
    let mut b = build(SharingStrategy::SharedAggregation);
    let initial = a.current_bids().to_vec();
    for round in 0..15 {
        let oa = a.run_round();
        let ob = b.run_round();
        for (x, y) in oa.iter().zip(&ob) {
            assert_eq!(x.assignment, y.assignment, "round {round}");
        }
        assert_eq!(a.current_bids(), b.current_bids(), "round {round}");
    }
    assert_ne!(
        a.current_bids(),
        &initial[..],
        "dynamic strategies must actually move bids"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut engine = Engine::new(
            small_workload(0.0, 13),
            config(SharingStrategy::Unshared, BudgetPolicy::ThrottleExact),
        );
        let m = engine.run(15);
        (m.revenue, m.clicks, m.impressions)
    };
    assert_eq!(run(), run());
}
