//! Engine metrics.

use ssa_auction::money::Money;

/// Counters accumulated over a simulation run.
///
/// Wall-clock time is recorded per round-executor stage: *throttle*
/// (effective-bid computation), *wd* (winner determination proper), and
/// *settle* (pricing, ad display, and click settlement). Each stage also
/// tracks its worst single round, so tail latency survives aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineMetrics {
    /// Rounds executed.
    pub rounds: u64,
    /// Phrase auctions resolved.
    pub auctions: u64,
    /// Ads displayed.
    pub impressions: u64,
    /// Clicks that landed (within the expiry window).
    pub clicks: u64,
    /// Revenue actually collected.
    pub revenue: Money,
    /// Payments forgiven because the click landed after the budget was
    /// exhausted (the naive policy's leak; Section IV's "lost revenue").
    pub forgiven: Money,
    /// Clicks whose payment was partially or fully forgiven.
    pub clicks_beyond_budget: u64,
    /// Top-k aggregation operations performed (shared-plan strategy).
    pub aggregation_ops: u64,
    /// Advertiser entries scanned (unshared strategy).
    pub advertisers_scanned: u64,
    /// Merge-network operator invocations (shared-sort strategy): one per
    /// item a merge operator sends upstream, the cost the Section III-B
    /// model bounds by `Σ_v |I_v|`. With the persistent network this
    /// counts only *newly merged* items — prefixes cached from earlier
    /// rounds are re-read for free — so it is expected to be far below a
    /// fresh-per-round engine's count (that gap is the perf win, see
    /// `sort_cache_items_reused`). Deterministic for a given workload and
    /// seed.
    pub merge_invocations: u64,
    /// TA sorted-access stages (shared-sort strategy): total depth both
    /// of TA's sorted lists were consumed to, summed over phrase
    /// auctions. Depends only on stream contents, so it is identical
    /// whether the network is fresh or persistent.
    pub ta_stages: u64,
    /// Persistent-network nodes invalidated by cross-round refresh
    /// (shared-sort strategy): rebuilt runs plus every merge operator
    /// in their dirty cones, summed over rounds. The first round counts
    /// the whole network (everything is built dirty). Deterministic.
    pub sort_nodes_invalidated: u64,
    /// Cached merge-network items that survived refresh (shared-sort
    /// strategy): Σ over rounds of the items still cached after dirty-cone
    /// invalidation — merged prefixes the round's TA re-consumes without
    /// re-merging. Zero on the first round. Deterministic.
    pub sort_cache_items_reused: u64,
    /// Phrase auctions routed to the shared aggregation plan
    /// (`SharedAggregation` routes every auction here; `Hybrid` only the
    /// separable subset).
    pub phrases_routed_plan: u64,
    /// Phrase auctions routed to the shared sort network (`SharedSort`
    /// routes every auction here; `Hybrid` only the non-separable
    /// subset).
    pub phrases_routed_sort: u64,
    /// Phrase auctions routed to the unshared per-phrase scan.
    pub phrases_routed_unshared: u64,
    /// Phrases migrated between the Hybrid resolvers by the adaptive
    /// router (plus explicit `force_hybrid_route` calls). Always zero
    /// under static routing. Online migrations are driven by measured
    /// wall-clock, so this counter — and, under `RoutingMode::Adaptive`,
    /// the `phrases_routed_*` split — is timing-dependent and zeroed by
    /// [`EngineMetrics::without_timing`].
    pub router_migrations: u64,
    /// Times the adaptive router rebuilt the Hybrid sort resolver's
    /// network: steady-state compactions onto the sort-routed subset
    /// (shedding the full-set arena's cache footprint once the route has
    /// held still), plus forced expansions when a migration entered a
    /// phrase a compacted network had dropped. Timing-driven like
    /// `router_migrations`; zeroed by [`EngineMetrics::without_timing`].
    pub router_sort_rebuilds: u64,
    /// Throttled-bid bound evaluations (bounded budget policy).
    pub bound_evaluations: u64,
    /// Exact throttled-bid computations (the Section IV convolution, or a
    /// full-depth bound refinement pinning the same value). Under
    /// `Unshared` + `ThrottleBounds` only priced winners and runners-up
    /// pay this cost; every other throttling path pays it once per
    /// participating advertiser per round.
    pub exact_throttle_evaluations: u64,
    /// Total expected value (Σ d_j · score) of the assignments made.
    pub expected_value: f64,
    /// Shard-pipeline workers that actually run: `1` on the
    /// single-domain executor, `min(wd_threads, shards_resolved)` when
    /// sharded (after resolving `wd_threads = 0`, "auto", to
    /// `available_parallelism()` at engine construction). Host-dependent
    /// under auto, so zeroed by [`EngineMetrics::without_timing`].
    pub wd_threads_resolved: u64,
    /// Execution shards actually in use, after resolving `shards = 0`
    /// ("auto") to `available_parallelism()` at engine construction and
    /// clamping to the phrase count. Host-dependent under auto, so
    /// zeroed by [`EngineMetrics::without_timing`].
    pub shards_resolved: u64,
    /// Wall-clock nanoseconds computing effective (throttled) bids.
    pub throttle_nanos: u128,
    /// Wall-clock nanoseconds in winner determination proper.
    pub wd_nanos: u128,
    /// Wall-clock nanoseconds in the shared-plan resolver's `resolve`
    /// (included in `wd_nanos`; under `Hybrid`, the plan-routed share of
    /// the round).
    pub wd_plan_nanos: u128,
    /// Wall-clock nanoseconds in the shared-sort resolver's `resolve`
    /// *only* — network refresh is accounted separately in
    /// `sort_refresh_nanos`, so the per-path resolver costs are directly
    /// comparable (the adaptive router's calibration signal reads these).
    /// Both are included in `wd_nanos`, which wraps the whole
    /// winner-determination stage.
    pub wd_sort_nanos: u128,
    /// Wall-clock nanoseconds in the unshared resolver (included in
    /// `wd_nanos`).
    pub wd_unshared_nanos: u128,
    /// Wall-clock nanoseconds bringing the occurring phrases' merge-network
    /// runs to their effective bids and refreshing the dirty cones (the
    /// first step of the sort resolver's `resolve`), disjoint from
    /// `wd_sort_nanos`; included in `wd_nanos`.
    pub sort_refresh_nanos: u128,
    /// Wall-clock nanoseconds pricing, displaying, and settling clicks.
    pub settle_nanos: u128,
    /// Worst single-round throttle-stage latency, in nanoseconds.
    pub max_round_throttle_nanos: u128,
    /// Worst single-round winner-determination latency, in nanoseconds.
    pub max_round_wd_nanos: u128,
    /// Worst single-round settle-stage latency, in nanoseconds.
    pub max_round_settle_nanos: u128,
}

impl EngineMetrics {
    /// Merges another metrics block into this one: counters and stage
    /// totals add, per-round maxima take the max.
    pub fn absorb(&mut self, other: &EngineMetrics) {
        self.rounds += other.rounds;
        self.auctions += other.auctions;
        self.impressions += other.impressions;
        self.clicks += other.clicks;
        self.revenue = self.revenue.saturating_add(other.revenue);
        self.forgiven = self.forgiven.saturating_add(other.forgiven);
        self.clicks_beyond_budget += other.clicks_beyond_budget;
        self.aggregation_ops += other.aggregation_ops;
        self.advertisers_scanned += other.advertisers_scanned;
        self.merge_invocations += other.merge_invocations;
        self.ta_stages += other.ta_stages;
        self.sort_nodes_invalidated += other.sort_nodes_invalidated;
        self.sort_cache_items_reused += other.sort_cache_items_reused;
        self.phrases_routed_plan += other.phrases_routed_plan;
        self.phrases_routed_sort += other.phrases_routed_sort;
        self.phrases_routed_unshared += other.phrases_routed_unshared;
        self.router_migrations += other.router_migrations;
        self.router_sort_rebuilds += other.router_sort_rebuilds;
        self.bound_evaluations += other.bound_evaluations;
        self.exact_throttle_evaluations += other.exact_throttle_evaluations;
        self.expected_value += other.expected_value;
        self.wd_threads_resolved = self.wd_threads_resolved.max(other.wd_threads_resolved);
        self.shards_resolved = self.shards_resolved.max(other.shards_resolved);
        self.throttle_nanos += other.throttle_nanos;
        self.wd_nanos += other.wd_nanos;
        self.wd_plan_nanos += other.wd_plan_nanos;
        self.wd_sort_nanos += other.wd_sort_nanos;
        self.wd_unshared_nanos += other.wd_unshared_nanos;
        self.sort_refresh_nanos += other.sort_refresh_nanos;
        self.settle_nanos += other.settle_nanos;
        self.max_round_throttle_nanos = self
            .max_round_throttle_nanos
            .max(other.max_round_throttle_nanos);
        self.max_round_wd_nanos = self.max_round_wd_nanos.max(other.max_round_wd_nanos);
        self.max_round_settle_nanos = self
            .max_round_settle_nanos
            .max(other.max_round_settle_nanos);
    }

    /// Total resolution time (throttle + winner determination), the
    /// pre-split `resolution_nanos` aggregate.
    pub fn resolution_nanos(&self) -> u128 {
        self.throttle_nanos + self.wd_nanos
    }

    /// A copy with every wall-clock field — and the timing-*driven*
    /// `router_migrations` counter — zeroed, for comparing the
    /// deterministic counters of two runs (e.g. two pipeline widths)
    /// where only timing may legitimately differ. Note that under
    /// `RoutingMode::Adaptive` the `phrases_routed_plan`/`_sort` split
    /// also depends on migration history and is not comparable across
    /// runs; checks over adaptive engines compare outcomes, not routing
    /// counters.
    pub fn without_timing(&self) -> EngineMetrics {
        EngineMetrics {
            router_migrations: 0,
            router_sort_rebuilds: 0,
            wd_threads_resolved: 0,
            shards_resolved: 0,
            throttle_nanos: 0,
            wd_nanos: 0,
            wd_plan_nanos: 0,
            wd_sort_nanos: 0,
            wd_unshared_nanos: 0,
            sort_refresh_nanos: 0,
            settle_nanos: 0,
            max_round_throttle_nanos: 0,
            max_round_wd_nanos: 0,
            max_round_settle_nanos: 0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = EngineMetrics {
            rounds: 1,
            revenue: Money::from_units(2),
            expected_value: 1.5,
            ..Default::default()
        };
        let b = EngineMetrics {
            rounds: 2,
            revenue: Money::from_units(3),
            expected_value: 0.5,
            clicks: 7,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.revenue, Money::from_units(5));
        assert_eq!(a.clicks, 7);
        assert!((a.expected_value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_stage_totals_and_maxes_round_latency() {
        let mut a = EngineMetrics {
            throttle_nanos: 10,
            wd_nanos: 100,
            settle_nanos: 5,
            max_round_throttle_nanos: 8,
            max_round_wd_nanos: 60,
            max_round_settle_nanos: 5,
            ..Default::default()
        };
        let b = EngineMetrics {
            throttle_nanos: 20,
            wd_nanos: 40,
            settle_nanos: 15,
            max_round_throttle_nanos: 20,
            max_round_wd_nanos: 40,
            max_round_settle_nanos: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.throttle_nanos, 30);
        assert_eq!(a.wd_nanos, 140);
        assert_eq!(a.settle_nanos, 20);
        assert_eq!(a.max_round_throttle_nanos, 20);
        assert_eq!(a.max_round_wd_nanos, 60);
        assert_eq!(a.max_round_settle_nanos, 5);
        assert_eq!(a.resolution_nanos(), 170);
    }

    #[test]
    fn without_timing_ignores_wall_clock_only() {
        let a = EngineMetrics {
            rounds: 3,
            clicks: 4,
            wd_nanos: 999,
            max_round_settle_nanos: 7,
            ..Default::default()
        };
        let b = EngineMetrics {
            rounds: 3,
            clicks: 4,
            wd_nanos: 123,
            throttle_nanos: 55,
            ..Default::default()
        };
        assert_ne!(a, b);
        assert_eq!(a.without_timing(), b.without_timing());
    }
}
