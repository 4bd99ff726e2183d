//! Steady-state `run_round` must not clone the effective-bids vector (or
//! anything else population-sized) every round.
//!
//! A counting global allocator wraps the system allocator. The workload's
//! search rates are all zero, so no phrase ever occurs and every round is
//! pure executor overhead: participation counting, the (empty) throttle
//! stage, resolver dispatch, and settlement over empty ledgers. After the
//! warm-up rounds have sized the m_i scratch and the persistent
//! effective-bids buffer, such a round must allocate exactly nothing —
//! before the persistent buffer, the per-round
//! `last_effective_bids = effective_bids.clone()` alone allocated here.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a concurrently running test in the same
//! binary would pollute it.

use ssa_core::engine::{Engine, EngineConfig, RoutingMode, SharingStrategy};
use ssa_workload::{Workload, WorkloadConfig};

mod common;

#[global_allocator]
static COUNTER: common::CountingAlloc = common::CountingAlloc;

#[test]
fn steady_state_round_allocates_nothing() {
    // The Hybrid engines run over a mixed (jittered, half-separable)
    // workload so both resolvers — and the adaptive router's seeding
    // path — are actually in play; the shared plan requires jitter-free.
    let configs = [
        ("shared-aggregation", 0.0, EngineConfig::default()),
        (
            "hybrid-static",
            0.4,
            EngineConfig {
                sharing: SharingStrategy::Hybrid,
                ..EngineConfig::default()
            },
        ),
        (
            "hybrid-adaptive",
            0.4,
            EngineConfig {
                sharing: SharingStrategy::Hybrid,
                routing: RoutingMode::Adaptive,
                ..EngineConfig::default()
            },
        ),
    ];
    for (name, jitter, config) in configs {
        let workload = Workload::generate(&WorkloadConfig {
            advertisers: 50,
            phrases: 6,
            topics: 3,
            phrase_factor_jitter: jitter,
            separable_fraction: if jitter > 0.0 { 0.5 } else { 1.0 },
            max_search_rate: 0.0, // no phrase ever occurs
            ..WorkloadConfig::default()
        });
        let mut engine = Engine::new(workload, config);

        // Warm-up: sizes the m_i scratch and the persistent bid buffer.
        for _ in 0..3 {
            engine.run_round();
        }

        for round in 0..10 {
            let before = common::allocations();
            let outcomes = engine.run_round();
            let allocated = common::allocations() - before;
            assert!(outcomes.is_empty(), "zero search rates: no auctions");
            assert_eq!(
                allocated, 0,
                "[{name}] steady-state round {round} performed {allocated} heap allocations"
            );
        }
        assert_eq!(engine.metrics().rounds, 13, "[{name}]");
        assert_eq!(engine.last_effective_bids().len(), 50, "[{name}]");
    }
}
