//! Bytes-per-advertiser ceilings for the engine's hot state, per sharing
//! strategy, at n = 10 000 (plus a 100k re-pin for the plan-bearing
//! strategy, whose footprint history is the one with a density cliff).
//!
//! Two gates, both failing loudly with the measured numbers so a
//! regression shows its size immediately:
//!
//! 1. **Deterministic accounting** — [`Engine::hot_state_bytes`] sums the
//!    capacities of every persistent per-advertiser structure (SoA
//!    ledgers, bid vectors, participant scratch, plan/merge-network
//!    arenas and caches). Capacity arithmetic, not RSS, so the ceiling is
//!    bit-reproducible across hosts.
//! 2. **Allocator peak** — a counting global allocator tracks peak live
//!    heap bytes across engine construction plus warm rounds, catching
//!    transient population-sized spikes (e.g. a builder cloning dense
//!    per-advertiser tables) that capacity accounting cannot see.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a concurrently running test in the same
//! binary would pollute it.

use ssa_core::engine::{Engine, EngineConfig, SharingStrategy};
use ssa_workload::{Workload, WorkloadConfig};

mod common;

#[global_allocator]
static COUNTER: common::CountingAlloc = common::CountingAlloc;

#[test]
fn bytes_per_advertiser_stay_under_ceiling() {
    // (name, sharing, n, jitter, hot-state ceiling, allocator-peak
    // ceiling), both ceilings in bytes per advertiser. Measured 2026-10
    // at n=10k, 32 phrases: hot state Unshared 70 (stateless resolver:
    // just the engine's SoA ledgers/bid vectors), SharedSort 742 (merge
    // arena + caches), SharedAggregation 169 and Hybrid 649 (plan nodes
    // hold adaptive-sparse `VarSet`s in a CSR pool, so the plan's
    // footprint follows interest density, not nodes x n/8 — down from
    // 5360/5539 when every node owned a dense n-bit set; 18 and 13 of
    // those bytes are the plan resolver's persistent cone scratch; the
    // plan's cost model is stateless, nothing of it is resident). The
    // shared-aggregation-100k case re-pins the plan-bearing ceiling a
    // decade up (measured 153 hot / 542 peak) to catch anything
    // population-quadratic hiding at 10k. Peaks (720 at 10k, Hybrid 665)
    // add the planner's construction scratch, dropped before steady
    // state.
    // Ceilings leave ~50% headroom; one extra dense population-sized
    // vector (8+ bytes/advertiser) blows through them.
    let cases = [
        ("unshared", SharingStrategy::Unshared, 10_000, 0.4, 105, 140),
        (
            "shared-aggregation",
            SharingStrategy::SharedAggregation,
            10_000,
            0.0,
            250,
            1_100,
        ),
        (
            "shared-sort",
            SharingStrategy::SharedSort,
            10_000,
            0.4,
            1_200,
            1_600,
        ),
        ("hybrid", SharingStrategy::Hybrid, 10_000, 0.4, 1_000, 1_000),
        (
            "shared-aggregation-100k",
            SharingStrategy::SharedAggregation,
            100_000,
            0.0,
            250,
            1_100,
        ),
    ];
    for (name, sharing, n, jitter, hot_ceiling, peak_ceiling) in cases {
        let workload = Workload::generate(&WorkloadConfig {
            advertisers: n,
            phrases: 32,
            topics: 8,
            phrase_factor_jitter: jitter,
            separable_fraction: if jitter > 0.0 { 0.5 } else { 1.0 },
            max_search_rate: 0.3,
            seed: 7,
            ..WorkloadConfig::default()
        });

        // Baseline after the workload exists: everything the engine adds
        // on top — construction spikes included — counts against the
        // peak ceiling.
        let base = common::restart_peak();
        let mut engine = Engine::new(
            workload,
            EngineConfig {
                sharing,
                ..EngineConfig::default()
            },
        );
        for _ in 0..5 {
            engine.run_round();
        }
        let peak_delta = common::peak().saturating_sub(base) as usize;

        let hot = engine.hot_state_bytes();
        eprintln!("MEASURE {name}: hot={hot} peak={peak_delta}");
        let hot_per_adv = hot.div_ceil(n);
        let peak_per_adv = peak_delta.div_ceil(n);
        assert!(
            hot_per_adv <= hot_ceiling,
            "[{name}] hot state grew to {hot} bytes = {hot_per_adv} bytes/advertiser \
             (ceiling {hot_ceiling}); a new population-sized structure costs 4-8+ \
             bytes/advertiser — account for it or shrink it"
        );
        assert!(
            peak_per_adv <= peak_ceiling,
            "[{name}] peak heap during construction + 5 rounds was {peak_delta} bytes \
             = {peak_per_adv} bytes/advertiser (ceiling {peak_ceiling}); look for a \
             transient dense copy in construction or the round path"
        );
    }
}
