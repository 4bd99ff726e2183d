use super::*;
use crate::budget::topk::{top_k_uncertain, UncertainCandidate};
use ssa_auction::ids::AdvertiserId;
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

fn adaptive_config(policy: BudgetPolicy, frozen: bool) -> EngineConfig {
    EngineConfig {
        sharing: SharingStrategy::Hybrid,
        routing: RoutingMode::Adaptive,
        route_frozen: frozen,
        budget_policy: policy,
        ..EngineConfig::default()
    }
}

/// Routing is a performance decision, never a semantic one: an adaptive
/// Hybrid engine must stay bit-identical to the unshared baseline and a
/// pure `SharedSort` engine whatever its migration history.
#[test]
fn adaptive_hybrid_matches_unshared_and_shared_sort_round_by_round() {
    for policy in [BudgetPolicy::Ignore, BudgetPolicy::ThrottleExact] {
        let mut adaptive = Engine::new(mixed_workload(23), adaptive_config(policy, false));
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

/// A migrated phrase's first post-migration round must match a
/// from-scratch engine that carried the post-migration route from round
/// zero — refreshing the phrase's stale runs when it first occurs on
/// the sort path reconstructs exactly the state that engine's network
/// holds.
#[test]
fn migrated_phrase_first_round_matches_a_from_scratch_engine_with_that_route() {
    let policy = BudgetPolicy::ThrottleExact;
    let mut live = Engine::new(mixed_workload(23), adaptive_config(policy, true));
    let seed_route: Vec<bool> = live.hybrid_plan_route().expect("hybrid").to_vec();
    for _ in 0..4 {
        live.run_round();
    }
    // Flip the first phrase that accepts a forced migration.
    let (q, to_plan) = (0..seed_route.len())
        .find_map(|q| {
            let to_plan = !seed_route[q];
            live.force_hybrid_route(PhraseId::from_index(q), to_plan)
                .then_some((q, to_plan))
        })
        .expect("some phrase accepts a forced migration");
    assert_eq!(live.hybrid_plan_route().expect("hybrid")[q], to_plan);

    // From-scratch twin: same workload and seed, migrated before round 0.
    let mut fresh = Engine::new(mixed_workload(23), adaptive_config(policy, true));
    assert!(fresh.force_hybrid_route(PhraseId::from_index(q), to_plan));
    for _ in 0..4 {
        fresh.run_round();
    }

    for round in 4..8 {
        let a = live.run_round();
        let b = fresh.run_round();
        assert_eq!(a.len(), b.len(), "round {round}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.phrase, y.phrase);
            assert_eq!(
                x.assignment, y.assignment,
                "round {round} phrase {}",
                x.phrase
            );
        }
        assert_eq!(
            live.last_effective_bids(),
            fresh.last_effective_bids(),
            "round {round} effective bids"
        );
    }
    assert_eq!(live.budget_snapshots(), fresh.budget_snapshots());
    assert_eq!(live.metrics().router_migrations, 1);
}

/// `route_frozen` pins the adaptive router to its cost-model seed: the
/// route never moves and no migration fires, however long the run.
#[test]
fn route_frozen_keeps_the_seed_route() {
    let mut frozen = Engine::new(
        mixed_workload(29),
        adaptive_config(BudgetPolicy::ThrottleExact, true),
    );
    let seed_route: Vec<bool> = frozen.hybrid_plan_route().expect("hybrid").to_vec();
    let m = frozen.run(12);
    assert_eq!(frozen.hybrid_plan_route().expect("hybrid"), &seed_route[..]);
    assert_eq!(m.router_migrations, 0);
}

/// Once the adaptive route has held still for enough occupied
/// boundaries, the sort resolver recompiles over exactly the sort-routed
/// subset — shedding the full-set network's footprint — without
/// perturbing a single outcome. A later forced migration into a phrase
/// the compaction dropped widens the network back with a second rebuild,
/// and outcomes still match.
#[test]
fn stable_adaptive_route_compacts_the_sort_network_and_rebuilds_on_reentry() {
    let policy = BudgetPolicy::ThrottleExact;
    // Frozen route: no online migrations, so the stability counter runs
    // uninterrupted and compaction timing is deterministic.
    let mut adaptive = Engine::new(mixed_workload(23), adaptive_config(policy, true));
    let mut sort = Engine::new(
        mixed_workload(23),
        config(SharingStrategy::SharedSort, policy),
    );
    let identical_round = |round: usize, a: &mut Engine, s: &mut Engine| {
        let x = a.run_round();
        let y = s.run_round();
        assert_eq!(x.len(), y.len(), "round {round}");
        for (o, r) in x.iter().zip(&y) {
            assert_eq!(
                (o.phrase, &o.assignment),
                (r.phrase, &r.assignment),
                "round {round}"
            );
        }
    };
    for round in 0..12 {
        identical_round(round, &mut adaptive, &mut sort);
    }
    assert_eq!(
        adaptive.metrics().router_sort_rebuilds,
        1,
        "a stable route compacts the sort network exactly once"
    );
    assert_eq!(adaptive.metrics().router_migrations, 0);

    // Force a plan-routed phrase onto the compacted network: it was
    // dropped by the compaction, so the move must rebuild (widen) it.
    let route: Vec<bool> = adaptive.hybrid_plan_route().expect("hybrid").to_vec();
    let q = route
        .iter()
        .position(|&p| p)
        .expect("plan side is nonempty");
    assert!(adaptive.force_hybrid_route(PhraseId::from_index(q), false));
    assert_eq!(
        adaptive.metrics().router_sort_rebuilds,
        2,
        "re-entering a compacted-away phrase widens the network"
    );
    for round in 12..16 {
        identical_round(round, &mut adaptive, &mut sort);
    }
}

/// The adaptive seed route only ever plan-routes separable (plan-bound)
/// phrases, and a forced migration of an ineligible phrase is rejected.
#[test]
fn adaptive_route_respects_plan_eligibility() {
    let w = mixed_workload(17);
    let separable: Vec<bool> = (0..w.phrase_count())
        .map(|q| w.phrase_is_separable(q))
        .collect();
    let mut engine = Engine::new(w, adaptive_config(BudgetPolicy::ThrottleExact, false));
    let route: Vec<bool> = engine.hybrid_plan_route().expect("hybrid").to_vec();
    for (q, &to_plan) in route.iter().enumerate() {
        assert!(
            separable[q] || !to_plan,
            "non-separable phrase {q} routed to the plan"
        );
    }
    let q = separable.iter().position(|&s| !s).expect("mixed workload");
    assert!(!engine.force_hybrid_route(PhraseId::from_index(q), true));
    // Static engines expose no forced-migration surface at all.
    let mut static_engine = Engine::new(
        mixed_workload(17),
        config(SharingStrategy::Hybrid, BudgetPolicy::ThrottleExact),
    );
    assert!(!static_engine.force_hybrid_route(PhraseId::from_index(0), false));
}

#[test]
#[should_panic(expected = "SharedAggregation requires")]
fn shared_aggregation_rejects_jitter() {
    Engine::new(
        small_workload(0.4, 9),
        config(SharingStrategy::SharedAggregation, BudgetPolicy::Ignore),
    );
}

#[test]
fn bounds_policy_matches_exact_policy() {
    let mut exact = Engine::new(
        small_workload(0.0, 5),
        config(SharingStrategy::Unshared, BudgetPolicy::ThrottleExact),
    );
    let mut bounds = Engine::new(
        small_workload(0.0, 5),
        config(SharingStrategy::Unshared, BudgetPolicy::ThrottleBounds),
    );
    for round in 0..6 {
        let a = exact.run_round();
        let b = bounds.run_round();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.assignment, y.assignment,
                "round {round} phrase {}",
                x.phrase
            );
        }
    }
    assert!(bounds.metrics().bound_evaluations > 0);
    // The bounds engine must not pay whole-population convolutions:
    // exact values are computed per phrase for at most k+1 winners,
    // strictly fewer than the exact engine's per-participant pass.
    assert!(bounds.metrics().exact_throttle_evaluations > 0);
    assert!(
        bounds.metrics().exact_throttle_evaluations < exact.metrics().exact_throttle_evaluations,
        "bounds {} should undercut exact {}",
        bounds.metrics().exact_throttle_evaluations,
        exact.metrics().exact_throttle_evaluations
    );
    assert_eq!(exact.metrics().bound_evaluations, 0);
}

/// Regression for the deleted per-(phrase, candidate) rescan of
/// `occurring`: the round-level `m_i` is the same participation count
/// the rescan produced, so bound-refined winners are unchanged.
#[test]
fn participation_counts_match_the_deleted_rescan() {
    let mut engine = Engine::new(
        small_workload(0.0, 21),
        config(SharingStrategy::Unshared, BudgetPolicy::ThrottleBounds),
    );
    engine.run(5); // build up pending ads so throttling is non-trivial
    let occurring: Vec<PhraseId> = (0..engine.workload.phrase_count())
        .map(PhraseId::from_index)
        .collect();
    let mut m_i = vec![0u64; engine.workload.advertiser_count()];
    for &q in &occurring {
        for a in &engine.workload.interest[q.index()] {
            m_i[a.index()] += 1;
        }
    }
    let k = engine.config.slot_factors.len();
    for &phrase in &occurring {
        let q = phrase.index();
        let build = |count: &dyn Fn(AdvertiserId) -> u64| -> Vec<UncertainCandidate> {
            engine.workload.interest[q]
                .iter()
                .enumerate()
                .map(|(pos, &a)| {
                    let factor = engine.workload.phrase_factors[q][pos];
                    UncertainCandidate::new(a, factor, &engine.budget_context(a.index(), count(a)))
                })
                .collect()
        };
        let fast = build(&|a: AdvertiserId| m_i[a.index()]);
        let rescan = build(&|a: AdvertiserId| {
            1.max(
                occurring
                    .iter()
                    .filter(|&&p| {
                        engine.workload.interest[p.index()]
                            .binary_search(&a)
                            .is_ok()
                    })
                    .count() as u64,
            )
        });
        let (w_fast, _) = top_k_uncertain(&fast, k + 1);
        let (w_rescan, _) = top_k_uncertain(&rescan, k + 1);
        assert_eq!(w_fast, w_rescan, "phrase {phrase}");
    }
}

/// `wd_threads_resolved` reports the pipeline workers that actually run,
/// not the configured knob: none beyond the caller's thread on the
/// single-domain executor, at most one per shard when sharded.
#[test]
fn wd_threads_resolved_reports_workers_that_run() {
    let resolved = |workload: Workload, wd_threads: usize, shards: usize| {
        let engine = Engine::new(
            workload,
            EngineConfig {
                sharing: SharingStrategy::SharedSort,
                wd_threads,
                shards,
                ..EngineConfig::default()
            },
        );
        let m = engine.metrics();
        (m.wd_threads_resolved, m.shards_resolved)
    };
    // Single domain: the knob is inert, auto included.
    assert_eq!(resolved(small_workload(0.3, 5), 4, 1), (1, 1));
    assert_eq!(resolved(small_workload(0.3, 5), 0, 1), (1, 1));
    // One phrase partitions into one non-empty shard: the engine falls
    // back to the single-domain executor.
    let one_phrase = Workload::generate(&WorkloadConfig {
        advertisers: 20,
        phrases: 1,
        topics: 1,
        ..WorkloadConfig::default()
    });
    assert_eq!(resolved(one_phrase, 4, 4), (1, 1));
    // Sharded: never more workers than shards, never more than asked.
    assert_eq!(resolved(small_workload(0.3, 5), 4, 2), (2, 2));
    assert_eq!(resolved(small_workload(0.3, 5), 1, 2), (1, 2));
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
            e.single_resolvers()
                .plan()
                .unwrap()
                .dag()
                .expect("plan compiled"),
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
