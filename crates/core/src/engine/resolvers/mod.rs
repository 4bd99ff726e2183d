//! The winner-determination resolver layer.
//!
//! Each of the paper's three strategies — the per-phrase unshared scan,
//! the Section II shared top-k aggregation plan, and the Section III
//! shared merge-sort + Threshold Algorithm — lives in its own resolver
//! behind the common [`PhraseResolver`] trait. A resolver owns *all* of
//! its persistent cross-round state (the compiled plan DAG, the persistent
//! merge network and its TA scratch); the engine owns only the round
//! loop, budgets, and settlement.
//!
//! Resolvers are compiled over an explicit *phrase subset*, which is what
//! makes `SharingStrategy::Hybrid` possible: separable phrases compile
//! into one aggregation plan, the rest into one sort network, and each
//! round the engine routes every occurring phrase to the resolver that
//! owns it. Under `RoutingMode::Adaptive` the per-phrase route is not a
//! fixed separability predicate but a [`Router`] decision: seeded from
//! the paper's probabilistic cost models and refined online from measured
//! per-path wall-clock, with phrases migrating between the resolvers at
//! round boundaries.

mod plan;
mod router;
mod sort;
mod unshared;

pub use plan::PlanResolver;
pub use sort::SortResolver;
pub use unshared::{scan_top_k, UnsharedResolver};

pub(crate) use router::Router;

use std::time::Instant;

use ssa_auction::ids::PhraseId;
use ssa_auction::money::Money;
use ssa_workload::Workload;

use crate::budget::BudgetContext;

use super::{
    AuctionOutcome, BudgetPolicy, EngineConfig, EngineMetrics, RoutingMode, SharingStrategy,
};

/// Per-round context handed to every resolver call: the workload, the
/// round's participation counts, and a budget-state accessor (used by
/// the unshared bounds path to refine lazily). Borrowed from disjoint
/// engine fields so resolvers can hold `&mut` state at the same time.
pub struct RoundContext<'a> {
    /// The workload under simulation.
    pub workload: &'a Workload,
    /// Slots per auction (`slot_factors.len()`).
    pub k: usize,
    /// Accepted and unread (every resolver is single-threaded): the
    /// frozen `benchmark/` package still writes it; its next PR drops it.
    pub wd_threads: usize,
    /// The engine's budget enforcement policy.
    pub budget_policy: BudgetPolicy,
    /// Per-advertiser auction participation count this round.
    pub m_i: &'a [u64],
    /// Budget state of advertiser `i` participating in `m` auctions, as
    /// the engine's throttler sees it.
    pub budgets: &'a (dyn Fn(usize, u64) -> BudgetContext + Sync),
}

/// One winner-determination path: `resolve` turns a batch of occurring
/// phrases into auction outcomes, in the same phrase order.
///
/// `effective_bids` is mutable because the unshared bounds path computes
/// exact throttled bids only for its ranked top `k + 1` and backfills
/// them for pricing; the shared resolvers treat it as read-only.
pub trait PhraseResolver {
    /// Round preamble. No resolver implements it — the sort resolver
    /// refreshes its network inside `resolve`, from the phrases it is
    /// handed — and the engine never calls it; it stays only because the
    /// frozen `benchmark/` replay still does.
    fn prepare(
        &mut self,
        _ctx: &RoundContext<'_>,
        _effective_bids: &[Money],
        _metrics: &mut EngineMetrics,
    ) {
    }

    /// Resolves `phrases` (ascending, a subset of the round's occurring
    /// phrases) into one outcome each. Every resolver ranks `ctx.k + 1`:
    /// the winners, plus the runner-up whose score the assignment carries
    /// to pricing — this ranking is the only one an auction gets.
    fn resolve(
        &mut self,
        ctx: &RoundContext<'_>,
        phrases: &[PhraseId],
        effective_bids: &mut [Money],
        metrics: &mut EngineMetrics,
    ) -> Vec<AuctionOutcome>;
}

/// The strategy's resolver set: one resolver for the single-strategy
/// engines, a routed pair for [`SharingStrategy::Hybrid`].
#[allow(clippy::large_enum_variant)] // exactly one per Engine, never collected
pub(crate) enum Resolvers {
    Unshared(UnsharedResolver),
    Plan(PlanResolver),
    Sort(SortResolver),
    Hybrid {
        plan: PlanResolver,
        sort: SortResolver,
        /// Who owns each phrase: the static separability predicate, or
        /// the adaptive cost-model router with online migration.
        router: Router,
        /// Reusable per-round partition buffers (hoisted so steady-state
        /// rounds allocate nothing).
        plan_phrases: Vec<PhraseId>,
        sort_phrases: Vec<PhraseId>,
        /// Consecutive occupied round boundaries without a migration.
        /// Reaching [`COMPACT_AFTER_STABLE`] triggers the steady-state
        /// sort-network compaction.
        stable_boundaries: u32,
        /// The phrase subset this resolver pair owns, when it was built
        /// for an execution shard ([`Resolvers::for_strategy`]); `None`
        /// means the whole workload. Sort-network rebuilds must stay
        /// inside this subset or a shard would absorb its neighbours'
        /// phrases.
        subset: Option<Vec<bool>>,
    },
}

/// Occupied round boundaries the adaptive route must hold still before
/// the sort resolver is recompiled over exactly the sort-routed subset.
///
/// The adaptive engine compiles its sort network over *all* phrases so
/// cold-start migration is a route-bit flip, but that generality has a
/// standing cost: under generalist-heavy interest sets every internal
/// node serves at least one sort-routed phrase, so the live cones span
/// the full-set arena — measurably slower (~5% wall-clock) than a
/// subset-compiled network doing bit-identical work, purely from cache
/// footprint. Once the router has
/// converged, that insurance is no longer worth carrying: the network is
/// rebuilt over the routed subset, making its shape — and its locality —
/// identical to a statically compiled engine's. Migrations arriving
/// after a compaction still work; one that targets a phrase the compact
/// network dropped forces a rebuild over the widened subset instead of
/// the usual route-bit flip.
///
/// Strictly above `EVAC_STREAK` (4): group evacuation fires on its
/// fourth consecutive favourable boundary, so a route heading for
/// evacuation migrates — and resets this counter — before compaction can
/// freeze the pre-evacuation subset in.
const COMPACT_AFTER_STABLE: u32 = 6;

/// Recompiles `sort` over exactly the route's sort-routed subset. The
/// persistent network rebuilds from scratch on the next occupied sort
/// round (an all-dirty refresh); outcomes are unaffected because merge
/// order is bid-deterministic regardless of network shape.
pub(super) fn rebuild_sort(
    sort: &mut SortResolver,
    workload: &Workload,
    plan_route: &[bool],
    subset: Option<&[bool]>,
) {
    let mask: Vec<bool> = plan_route
        .iter()
        .enumerate()
        .map(|(q, &to_plan)| !to_plan && subset.is_none_or(|s| s[q]))
        .collect();
    *sort = SortResolver::new(workload, Some(&mask), 1);
}

/// Runs the sort resolver over `phrases`, accounting its wall-clock in
/// `wd_sort_nanos` net of the network refresh `resolve` times into
/// `sort_refresh_nanos` itself. Returns the outcomes and that net time,
/// the adaptive router's sort-path signal.
fn resolve_sort(
    sort: &mut SortResolver,
    ctx: &RoundContext<'_>,
    phrases: &[PhraseId],
    effective_bids: &mut [Money],
    metrics: &mut EngineMetrics,
) -> (Vec<AuctionOutcome>, u128) {
    let refresh_before = metrics.sort_refresh_nanos;
    let started = Instant::now();
    let out = sort.resolve(ctx, phrases, effective_bids, metrics);
    let nanos = started.elapsed().as_nanos() - (metrics.sort_refresh_nanos - refresh_before);
    metrics.wd_sort_nanos += nanos;
    (out, nanos)
}

/// The sort path's group terms for the router under `plan_route`: the
/// network's expected items per round over the sort-routed phrases, and
/// the extra items full absorption of the plan-routed ones would add.
fn sort_group_terms(sort: &SortResolver, rates: &[f64], plan_route: &[bool]) -> (f64, f64) {
    let masked: Vec<f64> = rates
        .iter()
        .zip(plan_route)
        .map(|(&sr, &to_plan)| if to_plan { 0.0 } else { sr })
        .collect();
    let fixed = sort.model_items(&masked);
    (fixed, sort.model_items(rates) - fixed)
}

impl Resolvers {
    /// Builds the strategy's resolvers, compiling their offline plans
    /// over the phrase subsets they own: the whole workload when `subset`
    /// is `None`, exactly one execution shard's phrases otherwise.
    pub(super) fn for_strategy(
        workload: &Workload,
        config: &EngineConfig,
        subset: Option<&[bool]>,
    ) -> Self {
        match config.sharing {
            SharingStrategy::Unshared => Resolvers::Unshared(UnsharedResolver),
            SharingStrategy::SharedAggregation => {
                Resolvers::Plan(PlanResolver::new(workload, config.planner, subset))
            }
            SharingStrategy::SharedSort => Resolvers::Sort(SortResolver::new(workload, subset, 1)),
            SharingStrategy::Hybrid => Self::hybrid(workload, config, subset),
        }
    }

    /// The Hybrid resolver pair. Static routing compiles each resolver
    /// over exactly its separability subset. Adaptive routing compiles
    /// the plan over the separable subset but the sort network over *all*
    /// phrases, so a later migration in either direction is the router's
    /// route bit, never a recompile: the sort network refreshes whatever
    /// occurs on it.
    ///
    /// With `subset` set (sharded execution) every compiled set is
    /// intersected with the shard's phrases and the cost models see only
    /// the shard's search-rate mass, so each shard routes independently
    /// over structures that never overlap a neighbour's.
    fn hybrid(workload: &Workload, config: &EngineConfig, subset: Option<&[bool]>) -> Self {
        let m = workload.phrase_count();
        let in_subset = |q: usize| subset.is_none_or(|s| s[q]);
        let separable: Vec<bool> = (0..m)
            .map(|q| in_subset(q) && workload.phrase_is_separable(q))
            .collect();
        let plan = PlanResolver::new(workload, config.planner, Some(&separable));
        match config.routing {
            RoutingMode::Static => {
                let sort_route: Vec<bool> = separable
                    .iter()
                    .enumerate()
                    .map(|(q, &r)| in_subset(q) && !r)
                    .collect();
                Resolvers::Hybrid {
                    plan,
                    sort: SortResolver::new(workload, Some(&sort_route), 1),
                    router: Router::fixed(separable),
                    plan_phrases: Vec::new(),
                    sort_phrases: Vec::new(),
                    stable_boundaries: 0,
                    subset: subset.map(<[bool]>::to_vec),
                }
            }
            RoutingMode::Adaptive => {
                let rates: Vec<f64> = workload
                    .search_rates()
                    .iter()
                    .enumerate()
                    .map(|(q, &sr)| if in_subset(q) { sr } else { 0.0 })
                    .collect();
                let sort = SortResolver::new(workload, subset, 1);
                // Marginals in common item units: one plan node is a
                // pairwise top-k aggregation (~2k item ops), one sort
                // unit an item sent upstream.
                let items_per_node = 2.0 * config.slot_factors.len().max(1) as f64;
                let plan_marginal: Vec<f64> = plan
                    .phrase_marginals()
                    .iter()
                    .map(|&nodes| nodes * items_per_node)
                    .collect();
                // The merge model's marginal is the upstream *traffic* a
                // phrase adds, which collapses to zero at saturated
                // search rates (a shared cone carries its items whether
                // or not any one subscriber occurs). The router therefore
                // also gets group terms — the network's expected items
                // over the sort-routed set, and the extra items full
                // absorption of the plan set would add — plus a ~k-item
                // Threshold-Algorithm scan per occurrence, so both its
                // calibration weights and its evacuation pricing stay
                // non-degenerate where the marginals vanish.
                let sort_marginal: Vec<f64> = sort.phrase_marginals(&rates);
                let eligible: Vec<bool> = (0..m).map(|q| plan.is_bound(q)).collect();
                let (sort_fixed, sort_absorb_extra) = sort_group_terms(&sort, &rates, &eligible);
                let ta_items = config.slot_factors.len().max(1) as f64;
                let mut router = Router::adaptive(
                    eligible,
                    plan_marginal,
                    sort_marginal,
                    rates,
                    sort_fixed,
                    sort_absorb_extra,
                    ta_items,
                    config.route_frozen,
                );
                // The seed may already have migrated phrases; refresh the
                // group terms for the route it actually chose.
                let (sort_fixed, sort_absorb_extra) =
                    sort_group_terms(&sort, router.search_rates(), router.route());
                router.set_sort_model(sort_fixed, sort_absorb_extra);
                Resolvers::Hybrid {
                    plan,
                    sort,
                    router,
                    plan_phrases: Vec::new(),
                    sort_phrases: Vec::new(),
                    stable_boundaries: 0,
                    subset: subset.map(<[bool]>::to_vec),
                }
            }
        }
    }

    /// The sort resolver, when the strategy has one.
    pub(super) fn sort(&self) -> Option<&SortResolver> {
        match self {
            Resolvers::Sort(sort) | Resolvers::Hybrid { sort, .. } => Some(sort),
            _ => None,
        }
    }

    /// Heap footprint of the resolver set's persistent state (plan
    /// arenas, merge-network pools + caches) in bytes, for the
    /// memory-scaling gate.
    pub(super) fn heap_bytes(&mut self) -> usize {
        match self {
            Resolvers::Unshared(_) => 0,
            Resolvers::Plan(plan) => plan.heap_bytes(),
            Resolvers::Sort(sort) => sort.heap_bytes(),
            Resolvers::Hybrid { plan, sort, .. } => plan.heap_bytes() + sort.heap_bytes(),
        }
    }

    /// Stage 2 of one round: routes every occurring phrase to its
    /// resolver and merges the outcomes back into occurrence order,
    /// accounting routed-phrase counts and per-path wall-clock.
    pub(super) fn resolve_round(
        &mut self,
        ctx: &RoundContext<'_>,
        occurring: &[PhraseId],
        effective_bids: &mut [Money],
        metrics: &mut EngineMetrics,
    ) -> Vec<AuctionOutcome> {
        match self {
            Resolvers::Unshared(resolver) => {
                metrics.phrases_routed_unshared += occurring.len() as u64;
                let started = Instant::now();
                let out = resolver.resolve(ctx, occurring, effective_bids, metrics);
                metrics.wd_unshared_nanos += started.elapsed().as_nanos();
                out
            }
            Resolvers::Plan(resolver) => {
                metrics.phrases_routed_plan += occurring.len() as u64;
                let started = Instant::now();
                let out = resolver.resolve(ctx, occurring, effective_bids, metrics);
                metrics.wd_plan_nanos += started.elapsed().as_nanos();
                out
            }
            Resolvers::Sort(resolver) => {
                metrics.phrases_routed_sort += occurring.len() as u64;
                resolve_sort(resolver, ctx, occurring, effective_bids, metrics).0
            }
            Resolvers::Hybrid {
                plan,
                sort,
                router,
                plan_phrases,
                sort_phrases,
                stable_boundaries,
                subset,
            } => {
                plan_phrases.clear();
                sort_phrases.clear();
                let route = router.route();
                for &p in occurring {
                    if route[p.index()] {
                        plan_phrases.push(p);
                    } else {
                        sort_phrases.push(p);
                    }
                }
                metrics.phrases_routed_plan += plan_phrases.len() as u64;
                metrics.phrases_routed_sort += sort_phrases.len() as u64;

                // The sort network refreshes only under the phrases it is
                // handed, so a round with none costs it nothing.
                let sort_out = if sort_phrases.is_empty() {
                    Vec::new()
                } else {
                    let (out, nanos) =
                        resolve_sort(sort, ctx, sort_phrases, effective_bids, metrics);
                    router.observe_sort(nanos, sort_phrases);
                    out
                };
                let plan_out = if plan_phrases.is_empty() {
                    Vec::new()
                } else {
                    let started = Instant::now();
                    let out = plan.resolve(ctx, plan_phrases, effective_bids, metrics);
                    let nanos = started.elapsed().as_nanos();
                    metrics.wd_plan_nanos += nanos;
                    router.observe_plan(nanos, plan_phrases);
                    out
                };

                // Both outputs follow their input order, which are
                // subsequences of `occurring`; zip them back together.
                let mut plan_out = plan_out.into_iter();
                let mut sort_out = sort_out.into_iter();
                let route = router.route();
                let outcomes: Vec<AuctionOutcome> = occurring
                    .iter()
                    .map(|&p| {
                        if route[p.index()] {
                            plan_out.next().expect("one outcome per plan phrase")
                        } else {
                            sort_out.next().expect("one outcome per sort phrase")
                        }
                    })
                    .collect();

                // Round boundary: migrate phrases whose calibrated cost
                // on the other path clears the hysteresis margin. A move
                // is the route bit alone: a phrase entering the sort
                // network has its stale runs refreshed when it next
                // occurs there.
                if !occurring.is_empty() {
                    let mut migrated = false;
                    let mut outgrew_network = false;
                    for &(q, to_plan) in router.rebalance() {
                        // A network compacted past the phrase has no root
                        // for it: rebuild below.
                        outgrew_network |= !to_plan && !sort.serves_phrase(q);
                        metrics.router_migrations += 1;
                        migrated = true;
                    }
                    // The sort path's group cost depends on which phrases
                    // the network serves, so a migration invalidates it;
                    // re-derive both terms from the model (O(network),
                    // only on boundaries that moved something).
                    if migrated {
                        *stable_boundaries = 0;
                        if outgrew_network {
                            rebuild_sort(sort, ctx.workload, router.route(), subset.as_deref());
                            metrics.router_sort_rebuilds += 1;
                        }
                        let (sort_fixed, sort_absorb_extra) =
                            sort_group_terms(sort, router.search_rates(), router.route());
                        router.set_sort_model(sort_fixed, sort_absorb_extra);
                    } else if router.is_adaptive() {
                        // Steady route: once it has held still long
                        // enough, shed the full-set network's footprint
                        // by recompiling over exactly the sort-routed
                        // subset (see [`COMPACT_AFTER_STABLE`]).
                        *stable_boundaries = stable_boundaries.saturating_add(1);
                        if *stable_boundaries == COMPACT_AFTER_STABLE
                            && sort.compiled_beyond(router.route())
                        {
                            rebuild_sort(sort, ctx.workload, router.route(), subset.as_deref());
                            metrics.router_sort_rebuilds += 1;
                        }
                    }
                }
                outcomes
            }
        }
    }
}

#[cfg(test)]
impl Resolvers {
    /// The plan resolver, when the strategy has one (test seam).
    pub(super) fn plan(&self) -> Option<&PlanResolver> {
        match self {
            Resolvers::Plan(plan) | Resolvers::Hybrid { plan, .. } => Some(plan),
            _ => None,
        }
    }
}
