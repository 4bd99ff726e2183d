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
    /// Always 0: the Hybrid route is fixed at construction, so no phrase
    /// migrates. Kept only because the frozen `benchmark/` reads it; its
    /// next PR deletes it.
    pub router_migrations: u64,
    /// Always 0: the Hybrid sort network is compiled once, over the
    /// route's sort side. Kept only because the frozen `benchmark/` reads
    /// it; its next PR deletes it.
    pub router_sort_rebuilds: u64,
    /// Always 0: the engine throttles exactly under both throttling
    /// policies and refines no Hoeffding bound. Kept only because the
    /// frozen `benchmark/` reads it; its next change deletes it.
    pub bound_evaluations: u64,
    /// Exact throttled-bid evaluations: under either throttling policy,
    /// one per participating advertiser per round, whatever the sharing
    /// strategy; zero under `Ignore`.
    pub exact_throttle_evaluations: u64,
    /// Total expected value (Σ d_j · score) of the assignments made.
    pub expected_value: f64,
    /// Always 1: the engine runs every round on one thread. Kept only
    /// because the frozen `benchmark/` reads it; its next PR deletes it.
    pub wd_threads_resolved: u64,
    /// Always 1: the engine runs every round over one resolver set. Kept
    /// only because the frozen `benchmark/` reads it; its next PR deletes
    /// it.
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
    /// comparable. Both are included in `wd_nanos`, which wraps the whole
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
    /// Total resolution time (throttle + winner determination), the
    /// pre-split `resolution_nanos` aggregate.
    pub fn resolution_nanos(&self) -> u128 {
        self.throttle_nanos + self.wd_nanos
    }

    /// A copy with every wall-clock field zeroed, for comparing the
    /// deterministic counters of two runs where only timing may
    /// legitimately differ.
    pub fn without_timing(&self) -> EngineMetrics {
        EngineMetrics {
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
