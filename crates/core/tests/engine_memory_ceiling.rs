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
//! 3. **Long run** — one SharedSort engine over 5 000 rounds: merge
//!    caches are never evicted, so their footprint must settle rather
//!    than grow with the rounds.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a concurrently running test in the same
//! binary would pollute it.

use ssa_core::engine::{Engine, EngineConfig, SharingStrategy};
use ssa_workload::{Workload, WorkloadConfig};

mod common;

#[global_allocator]
static COUNTER: common::CountingAlloc = common::CountingAlloc;

/// SharedSort's hot-state ceiling, shared by the 5-round and the
/// 5 000-round checks.
const SHARED_SORT_HOT_CEILING: usize = 340;

/// How far the sort resolver's share may creep between rounds 500 and
/// 5 000, in bytes per advertiser: 5% of the 704.5 it measured when every
/// advertiser was a network leaf, kept as an absolute allowance once
/// fragment runs shrank the share it was a percentage of.
const SHARED_SORT_LONG_RUN_GROWTH: f64 = 35.0;

#[test]
fn bytes_per_advertiser_stay_under_ceiling() {
    // (name, sharing, n, jitter, hot-state ceiling, allocator-peak
    // ceiling), both ceilings in bytes per advertiser. Measured 2026-10
    // at n=10k, 32 phrases: hot state Unshared 70 (stateless resolver:
    // just the engine's SoA ledgers/bid vectors), SharedSort 221 (one
    // 16-byte item per advertiser in the fragment runs, 4 in the plan's
    // run members, the few merge nodes above the runs and their caches,
    // the TA seen-set and the `c_orders`; 241 after 500 rounds, 279 after
    // 5 000; 713 / 778 / 821 when every advertiser was a leaf under its
    // fragment's merge tree), SharedAggregation 92 and Hybrid 181 (plan
    // fragments are run nodes: 4 bytes per member in the CSR pool plus the
    // few merge nodes above them, so the plan's cone scratch is sized by
    // those nodes, not by advertisers; 169 and 254 when every fragment was
    // a chain of per-advertiser merge nodes, 620 for Hybrid with
    // per-advertiser sort leaves, 5360/5539 when every plan node owned a
    // dense n-bit set; the plan's cost model is stateless, nothing of it
    // is resident). The shared-aggregation-100k case re-pins the
    // plan-bearing ceiling a decade up (measured 90 hot / 480 peak) to
    // catch anything population-quadratic hiding at 10k. Peaks
    // (SharedAggregation 643, SharedSort 221, Hybrid 572) add the
    // planners' construction scratch, dropped before steady state.
    // Ceilings leave ~50% headroom; one extra dense population-sized
    // vector (8+ bytes/advertiser) blows through them.
    let cases = [
        ("unshared", SharingStrategy::Unshared, 10_000, 0.4, 105, 140),
        (
            "shared-aggregation",
            SharingStrategy::SharedAggregation,
            10_000,
            0.0,
            140,
            1_100,
        ),
        (
            "shared-sort",
            SharingStrategy::SharedSort,
            10_000,
            0.4,
            SHARED_SORT_HOT_CEILING,
            340,
        ),
        ("hybrid", SharingStrategy::Hybrid, 10_000, 0.4, 270, 970),
        (
            "shared-aggregation-100k",
            SharingStrategy::SharedAggregation,
            100_000,
            0.0,
            135,
            1_100,
        ),
    ];
    for (name, sharing, n, jitter, hot_ceiling, peak_ceiling) in cases {
        let workload = workload(n, jitter);

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

    // Long run: nothing evicts merge caches, and nothing needs to. A
    // node's cache never outgrows its subtree (a run's lives in place in
    // its item span) and a refresh keeps the capacity it clears, so the
    // network's bytes settle once the searched cones have been pulled to
    // their usual depths. Measured: the resolver's share goes 167.9 ->
    // 191.5 B/advertiser between rounds 500 and 5 000, adding less each
    // 500 rounds (704.5 -> 733.0 with per-advertiser leaves). The engine's own
    // share (pending-ad lists, whose capacity follows each advertiser's
    // longest outstanding history) keeps creeping up meanwhile; an
    // Unshared twin runs the same auctions with bit-identical outcomes,
    // so its hot state is exactly that share and the difference is the
    // sort resolver's.
    let n = 10_000;
    let engine = |sharing| {
        Engine::new(
            workload(n, 0.4),
            EngineConfig {
                sharing,
                ..EngineConfig::default()
            },
        )
    };
    let mut sort = engine(SharingStrategy::SharedSort);
    let mut twin = engine(SharingStrategy::Unshared);
    let mut per_adv = |rounds: usize| {
        sort.run(rounds);
        twin.run(rounds);
        let (total, engine_side) = (sort.hot_state_bytes(), twin.hot_state_bytes());
        (
            total as f64 / n as f64,
            (total - engine_side) as f64 / n as f64,
        )
    };
    let (early_total, early_sort) = per_adv(500);
    let (late_total, late_sort) = per_adv(4_500);
    eprintln!(
        "MEASURE shared-sort long run: round 500 {early_total:.1} B/adv \
         ({early_sort:.1} resolver), round 5000 {late_total:.1} ({late_sort:.1} resolver)"
    );
    assert!(
        late_sort - early_sort <= SHARED_SORT_LONG_RUN_GROWTH,
        "the sort resolver's hot state grew from {early_sort:.1} B/advertiser after 500 \
         rounds to {late_sort:.1} after 5000 (limit +{SHARED_SORT_LONG_RUN_GROWTH})"
    );
    assert!(
        late_total <= SHARED_SORT_HOT_CEILING as f64,
        "shared-sort hot state reached {late_total:.1} B/advertiser after 5000 rounds \
         (ceiling {SHARED_SORT_HOT_CEILING})"
    );
}

/// The ceiling workload: 32 phrases over 8 topics at `n` advertisers;
/// nonzero `jitter` makes half the phrases non-separable.
fn workload(n: usize, jitter: f64) -> Workload {
    Workload::generate(&WorkloadConfig {
        advertisers: n,
        phrases: 32,
        topics: 8,
        phrase_factor_jitter: jitter,
        separable_fraction: if jitter > 0.0 { 0.5 } else { 1.0 },
        max_search_rate: 0.3,
        seed: 7,
        ..WorkloadConfig::default()
    })
}
