//! An *active* `SharedAggregation` round — phrases occur, the plan is
//! evaluated, winners are priced and settled — must allocate in
//! proportion to its auctions, never to the advertiser population.
//!
//! `engine_round_alloc` pins rounds where nothing occurs at zero
//! allocations; this file pins the rounds that do work. Two populations a
//! decade apart share one per-phrase load (topics and phrases grow with
//! `n`, so every interest set stays ~250 advertisers and ~1.5 phrases
//! occur per round). After warm-up has sized the resolver's cone scratch:
//!
//! 1. every round allocates at most a small constant per returned
//!    outcome (its assignment's winner list; pricing and display write
//!    into reused buffers), and
//! 2. the fewest allocations a round with `a` auctions makes — its
//!    deterministic part; a click or a pending-list growth adds one or
//!    two on top — is the same number at both sizes.
//!
//! The budget policy is `Ignore`: exact throttling snapshots the pending
//! ads of every participant that has some, which is settlement history,
//! not winner determination, and would blur (2). Before the plan resolver
//! walked only the occurring cones, each of these rounds allocated one
//! singleton k-list per advertiser — `n` and then some.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a concurrently running test in the same
//! binary would pollute it.

use std::collections::BTreeMap;

use ssa_core::engine::{BudgetPolicy, Engine, EngineConfig, SharingStrategy};
use ssa_workload::{Workload, WorkloadConfig};

mod common;

#[global_allocator]
static COUNTER: common::CountingAlloc = common::CountingAlloc;

/// Allocations a round may make per returned outcome, and on top of that
/// regardless of outcomes. Measured: 1 (the assignment's winner list) and
/// 3 (the occurring-phrase list, the outcome list, the plan resolver's
/// ranking buffer); on top, each of an auction's three displayed winners
/// may grow its pending-ad list once, and a round the settle worklist.
const PER_AUCTION: u64 = 1 + 3;
const PER_ROUND: u64 = 3 + 1;

/// Per auction count, the fewest allocations any measured round with that
/// many auctions made, and how many such rounds there were.
fn allocation_floors(advertisers: usize) -> BTreeMap<usize, (u64, usize)> {
    let topics = advertisers / 250;
    let workload = Workload::generate(&WorkloadConfig {
        advertisers,
        phrases: 2 * topics,
        topics,
        search_rate_zipf_exponent: 1.2,
        max_search_rate: 0.4,
        generalist_fraction: 0.0,
        seed: 7,
        ..WorkloadConfig::default()
    });
    let mut engine = Engine::new(
        workload,
        EngineConfig {
            sharing: SharingStrategy::SharedAggregation,
            budget_policy: BudgetPolicy::Ignore,
            ..EngineConfig::default()
        },
    );
    // Warm-up: the cone scratch grows to the largest round it has seen.
    for _ in 0..300 {
        engine.run_round();
    }
    let mut floors: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
    for round in 0..600 {
        let before = common::allocations();
        let outcomes = engine.run_round();
        let allocated = common::allocations() - before;
        let auctions = outcomes.len();
        drop(outcomes);
        assert!(
            allocated <= PER_ROUND + PER_AUCTION * auctions as u64,
            "[n={advertisers}] round {round} resolved {auctions} auctions with {allocated} \
             heap allocations; look for per-advertiser or per-plan-node scratch on the round path"
        );
        let entry = floors.entry(auctions).or_insert((u64::MAX, 0));
        *entry = (entry.0.min(allocated), entry.1 + 1);
    }
    floors
}

#[test]
fn active_round_allocations_follow_auctions_not_population() {
    let small = allocation_floors(2_000);
    let large = allocation_floors(20_000);
    for auctions in [1, 2] {
        let (small_floor, small_rounds) = small[&auctions];
        let (large_floor, large_rounds) = large[&auctions];
        assert!(
            small_rounds >= 20 && large_rounds >= 20,
            "too few {auctions}-auction rounds to compare ({small_rounds}, {large_rounds})"
        );
        assert_eq!(
            small_floor, large_floor,
            "a {auctions}-auction round allocates {small_floor} times at 2k advertisers but \
             {large_floor} times at 20k"
        );
    }
}
