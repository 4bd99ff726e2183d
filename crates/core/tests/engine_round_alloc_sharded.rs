//! A steady-state *no-occurrence* `run_round` on the sharded executor
//! must allocate nothing, same as the classic path pinned by
//! `engine_round_alloc`. (Rounds with occurring phrases allocate what
//! winner determination returns — each shard's outcome list, each
//! outcome's winner list; settle prep prices into reused event buffers —
//! so this pins the executor's own overhead at zero, not the whole
//! active-round path, which `engine_round_alloc_active` pins serially.)
//!
//! A counting global allocator wraps the system allocator. The workload's
//! search rates are all zero, so no phrase ever occurs and every round is
//! pure executor overhead: the per-shard occurrence scatter in
//! `begin_round`, the degenerate (empty) pipeline, and settlement over
//! empty ledgers. All per-round shard state — occurrence
//! lists, cursors, participant sets, the persistent bid buffer — must
//! reuse capacity sized during warm-up.
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
fn steady_state_sharded_round_allocates_nothing() {
    // Mirror of `engine_round_alloc` with `shards: 4`: every sharing
    // strategy gets its own per-shard resolver slice, and the Hybrid
    // engines run over a mixed workload so both resolvers are in play.
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
        let mut engine = Engine::new(
            workload,
            EngineConfig {
                shards: 4,
                ..config
            },
        );
        assert!(
            engine.metrics().shards_resolved > 1,
            "[{name}] partition must actually shard this workload"
        );

        // Warm-up: sizes the m_i scratch, the persistent bid buffer, and
        // every shard's occurrence/cursor scratch.
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
                "[{name}] steady-state sharded round {round} performed {allocated} heap allocations"
            );
        }
        assert_eq!(engine.metrics().rounds, 13, "[{name}]");
        assert_eq!(engine.last_effective_bids().len(), 50, "[{name}]");
    }
}
