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
//! makes `SharingStrategy::Hybrid` possible: a per-phrase route is fixed
//! at construction — the separability predicate under
//! `RoutingMode::Static`, the cost-model [`seed_route`] under
//! `RoutingMode::Adaptive` — one aggregation plan and one sort network are
//! compiled over its two sides, and each round the engine hands every
//! occurring phrase to the resolver that owns it.

mod plan;
mod router;
mod sort;
mod unshared;

pub use plan::PlanResolver;
pub use sort::SortResolver;
pub use unshared::{scan_top_k, UnsharedResolver};

use std::time::Instant;

use ssa_auction::ids::PhraseId;
use ssa_auction::money::Money;
use ssa_workload::Workload;

use crate::budget::BudgetContext;

use router::{seed_route, RouteModel};
use sort::compile_sort_plan;

use super::{
    AuctionOutcome, BudgetPolicy, EngineConfig, EngineMetrics, RoutingMode, SharingStrategy,
};

/// Per-round context handed to every resolver call. Resolvers read the
/// workload and `k` from it and the round's bids from the buffer the
/// throttle stage wrote, never budget state: `budget_policy`, `m_i` and
/// `budgets` (and the `+ Sync` on it) stay only while the frozen
/// `benchmark/` replay constructs this type.
pub struct RoundContext<'a> {
    /// The workload under simulation.
    pub workload: &'a Workload,
    /// Slots per auction (`slot_factors.len()`).
    pub k: usize,
    /// Accepted and unread (every resolver is single-threaded): the
    /// frozen `benchmark/` package still writes it; its next PR drops it.
    pub wd_threads: usize,
    /// The engine's budget enforcement policy. Unread by every resolver.
    pub budget_policy: BudgetPolicy,
    /// Per-advertiser auction participation count this round. Unread by
    /// every resolver: the throttle stage has already applied it.
    pub m_i: &'a [u64],
    /// Budget state of advertiser `i` participating in `m` auctions, as
    /// the engine's throttler sees it. Unread by every resolver.
    pub budgets: &'a (dyn Fn(usize, u64) -> BudgetContext + Sync),
}

/// One winner-determination path: `resolve` turns a batch of occurring
/// phrases into auction outcomes, in the same phrase order.
///
/// The data flow is one-way: the engine's throttle stage writes every
/// participant's effective bid, and resolvers only read that buffer, so
/// [`Engine::last_effective_bids`](super::Engine::last_effective_bids)
/// is the bid vector every resolver ranked by, under every policy.
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
        effective_bids: &[Money],
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
        /// Per phrase, `true` routes to the plan and `false` to the sort
        /// network; fixed at construction.
        route: Vec<bool>,
        /// Reusable per-round partition buffers (hoisted so steady-state
        /// rounds allocate nothing).
        plan_phrases: Vec<PhraseId>,
        sort_phrases: Vec<PhraseId>,
    },
}

/// Runs the sort resolver over `phrases`, accounting its wall-clock in
/// `wd_sort_nanos` net of the network refresh `resolve` times into
/// `sort_refresh_nanos` itself.
fn resolve_sort(
    sort: &mut SortResolver,
    ctx: &RoundContext<'_>,
    phrases: &[PhraseId],
    effective_bids: &[Money],
    metrics: &mut EngineMetrics,
) -> Vec<AuctionOutcome> {
    let refresh_before = metrics.sort_refresh_nanos;
    let started = Instant::now();
    let out = sort.resolve(ctx, phrases, effective_bids, metrics);
    metrics.wd_sort_nanos +=
        started.elapsed().as_nanos() - (metrics.sort_refresh_nanos - refresh_before);
    out
}

/// The adaptive route: the [`seed_route`] of the phrases' modeled costs
/// on `plan` and on a sort network over every phrase. That network is
/// compiled for its cost model only and dropped here; the engine's sort
/// resolver is compiled over the route's sort side alone.
fn adaptive_route(workload: &Workload, config: &EngineConfig, plan: &PlanResolver) -> Vec<bool> {
    let m = workload.phrase_count();
    let rates = workload.search_rates();
    // Marginals in common item units: one plan node is a pairwise top-k
    // aggregation (~2k item ops), one sort unit an item sent upstream.
    let items_per_node = 2.0 * config.slot_factors.len().max(1) as f64;
    let plan_marginal: Vec<f64> = plan
        .phrase_marginals()
        .iter()
        .map(|&nodes| nodes * items_per_node)
        .collect();
    let eligible: Vec<bool> = (0..m).map(|q| plan.is_bound(q)).collect();
    // The merge model's marginal is the upstream *traffic* a phrase adds,
    // which collapses to zero at saturated search rates, so the route
    // also prices absorbing the whole plan side: the network's expected
    // items with every phrase active, less those with only the
    // ineligible ones.
    let sort_plan = compile_sort_plan(workload, None);
    let ineligible_rates: Vec<f64> = rates
        .iter()
        .zip(&eligible)
        .map(|(&sr, &e)| if e { 0.0 } else { sr })
        .collect();
    let sort_fixed = sort_plan.expected_cost(&ineligible_rates);
    seed_route(&RouteModel {
        sort_marginal: sort_plan.phrase_marginal_costs(&rates),
        sort_absorb_extra: sort_plan.expected_cost(&rates) - sort_fixed,
        ta_items: config.slot_factors.len().max(1) as f64,
        eligible,
        plan_marginal,
        rates,
    })
}

impl Resolvers {
    /// Builds the strategy's resolvers, compiling their offline plans
    /// over the whole workload.
    pub(super) fn for_strategy(workload: &Workload, config: &EngineConfig) -> Self {
        match config.sharing {
            SharingStrategy::Unshared => Resolvers::Unshared(UnsharedResolver),
            SharingStrategy::SharedAggregation => {
                Resolvers::Plan(PlanResolver::new(workload, config.planner, None))
            }
            SharingStrategy::SharedSort => Resolvers::Sort(SortResolver::new(workload, None, 1)),
            SharingStrategy::Hybrid => Self::hybrid(workload, config),
        }
    }

    /// The Hybrid resolver pair. The plan is compiled over the separable
    /// phrases, the route is computed from the routing mode, and the sort
    /// network is compiled over exactly the route's sort side. A
    /// separable phrase the adaptive route sends to the sort network
    /// costs the plan only idle nodes: plan evaluation is demand-driven,
    /// and the plan is never handed that phrase.
    fn hybrid(workload: &Workload, config: &EngineConfig) -> Self {
        let m = workload.phrase_count();
        let separable: Vec<bool> = (0..m).map(|q| workload.phrase_is_separable(q)).collect();
        let plan = PlanResolver::new(workload, config.planner, Some(&separable));
        let route = match config.routing {
            RoutingMode::Static => separable,
            RoutingMode::Adaptive => adaptive_route(workload, config, &plan),
        };
        let sort_side: Vec<bool> = route.iter().map(|&to_plan| !to_plan).collect();
        Resolvers::Hybrid {
            plan,
            sort: SortResolver::new(workload, Some(&sort_side), 1),
            route,
            plan_phrases: Vec::new(),
            sort_phrases: Vec::new(),
        }
    }

    /// The Hybrid route (`true` = plan), when the strategy is Hybrid.
    pub(super) fn hybrid_route(&self) -> Option<&[bool]> {
        match self {
            Resolvers::Hybrid { route, .. } => Some(route),
            _ => None,
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
        effective_bids: &[Money],
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
                resolve_sort(resolver, ctx, occurring, effective_bids, metrics)
            }
            Resolvers::Hybrid {
                plan,
                sort,
                route,
                plan_phrases,
                sort_phrases,
            } => {
                plan_phrases.clear();
                sort_phrases.clear();
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
                    resolve_sort(sort, ctx, sort_phrases, effective_bids, metrics)
                };
                let plan_out = if plan_phrases.is_empty() {
                    Vec::new()
                } else {
                    let started = Instant::now();
                    let out = plan.resolve(ctx, plan_phrases, effective_bids, metrics);
                    metrics.wd_plan_nanos += started.elapsed().as_nanos();
                    out
                };

                // Both outputs follow their input order, which are
                // subsequences of `occurring`; zip them back together.
                let mut plan_out = plan_out.into_iter();
                let mut sort_out = sort_out.into_iter();
                occurring
                    .iter()
                    .map(|&p| {
                        if route[p.index()] {
                            plan_out.next().expect("one outcome per plan phrase")
                        } else {
                            sort_out.next().expect("one outcome per sort phrase")
                        }
                    })
                    .collect()
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
