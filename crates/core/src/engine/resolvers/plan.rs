//! The Section II resolver: one shared top-k aggregation plan.

use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::score::Score;
use ssa_auction::winner::assignment_from_ranking;
use ssa_setcover::VarSet;
use ssa_workload::Workload;

use crate::plan::{PlanDag, PlanMaintainer, PlanProblem, PlannerMode, SharedPlanner, TopKCones};

use super::super::{AuctionOutcome, EngineMetrics};
use super::{PhraseResolver, RoundContext};
use ssa_auction::money::Money;

/// Shared top-k aggregation over a (possibly strict) subset of the
/// workload's phrases, compiled once at engine construction. Requires
/// every bound phrase to be separable: leaves score each advertiser by
/// its *base* factor, which is only that phrase's `c_i^q` when the factor
/// is phrase-independent there.
///
/// The plan lives inside a [`PlanMaintainer`], whose [`IncrementalCost`]
/// tracker doubles as the adaptive router's plan-side cost model: routing
/// a phrase away from the plan sets its search rate to zero (the plan's
/// structure is untouched — an unrouted phrase simply never occurs from
/// the plan's point of view, so its private nodes never materialize), and
/// routing it back restores the rate. Both directions are O(cone) rate
/// repairs, not replans.
///
/// [`IncrementalCost`]: crate::plan::IncrementalCost
pub struct PlanResolver {
    /// Offline shared-aggregation plan plus its incremental cost tracker;
    /// `None` when every bound phrase's interest set is empty.
    maintainer: Option<PlanMaintainer>,
    /// Per phrase, the plan query index it is bound to (`None` for
    /// phrases outside this resolver's subset and for empty-interest
    /// phrases, which resolve trivially).
    query_index: Vec<Option<usize>>,
    /// Construction-time search rate per bound query, restored when a
    /// routed-away phrase migrates back onto the plan.
    query_rates: Vec<f64>,
    /// Per phrase, the marginal expected cost (in expected materialized
    /// nodes per round, Section II-B units) of serving the phrase through
    /// this plan: the tracker's total drop when the phrase's rate is
    /// zeroed. Zero for unbound phrases.
    marginals: Vec<f64>,
    /// Per-round evaluation scratch, sized by the largest set of
    /// occurring cones seen so far and kept across rounds.
    cones: TopKCones,
}

impl PlanResolver {
    /// Compiles a plan over the phrases where `mask` is true (all phrases
    /// when `mask` is `None`), dropping empty-interest phrases from the
    /// problem (they cannot be bound in a plan and would pollute its cost
    /// model; they resolve trivially at round time).
    ///
    /// # Panics
    /// Panics if an included phrase has phrase-specific factors (the
    /// Section III setting), where top-k aggregates cannot be shared.
    pub fn new(workload: &Workload, planner: PlannerMode, mask: Option<&[bool]>) -> Self {
        let n = workload.advertiser_count();
        let m = workload.phrase_count();
        let rates = workload.search_rates();
        let mut query_index: Vec<Option<usize>> = vec![None; m];
        let mut queries: Vec<VarSet> = Vec::new();
        let mut query_rates: Vec<f64> = Vec::new();
        for (q, ids) in workload.interest.iter().enumerate() {
            if mask.is_some_and(|mask| !mask[q]) || ids.is_empty() {
                continue;
            }
            assert!(
                workload.phrase_is_separable(q),
                "SharedAggregation requires phrase-independent advertiser factors; \
                 use SharedSort or Hybrid for jittered workloads"
            );
            query_index[q] = Some(queries.len());
            // Adaptive-sparse from the start: a typical interest set is a
            // few hundred advertisers out of up to a million, so a dense
            // bitset per query would dwarf the plan itself.
            queries.push(VarSet::from_elements(n, ids.iter().map(|a| a.index())));
            query_rates.push(rates[q]);
        }
        let maintainer = if queries.is_empty() {
            None
        } else {
            let problem = PlanProblem::from_varsets(n, queries, Some(query_rates.clone()));
            Some(PlanMaintainer::new(
                problem,
                SharedPlanner { mode: planner },
                2.0,
            ))
        };
        let mut resolver = PlanResolver {
            maintainer,
            query_index,
            query_rates,
            marginals: vec![0.0; m],
            cones: TopKCones::new(),
        };
        resolver.compute_marginals();
        resolver
    }

    /// Fills `marginals` by toggling each bound query's rate to zero and
    /// reading the incremental tracker's drop — the same delta-repair
    /// path a live migration takes, so the seed signal and the online
    /// bookkeeping can never disagree.
    fn compute_marginals(&mut self) {
        let Some(maintainer) = self.maintainer.as_mut() else {
            return;
        };
        for (q, marginal) in self.marginals.iter_mut().enumerate() {
            let Some(qi) = self.query_index[q] else {
                continue;
            };
            let with = maintainer.expected_cost();
            maintainer.update_search_rate(qi, 0.0);
            *marginal = (with - maintainer.expected_cost()).max(0.0);
            maintainer.update_search_rate(qi, self.query_rates[qi]);
        }
    }

    /// The compiled plan, if any phrase was bound (an observation seam
    /// for cost assertions in tests and benches).
    pub fn dag(&self) -> Option<&PlanDag> {
        self.maintainer.as_ref().map(PlanMaintainer::plan)
    }

    /// Heap footprint of the resolver's persistent state in bytes — the
    /// full maintainer (plan DAG, maintained problem, incremental cost
    /// tracker), the per-phrase tables and the evaluation scratch — for
    /// the memory-scaling gate.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.maintainer
            .as_ref()
            .map_or(0, PlanMaintainer::heap_bytes)
            + self.query_index.capacity() * size_of::<Option<usize>>()
            + self.query_rates.capacity() * size_of::<f64>()
            + self.marginals.capacity() * size_of::<f64>()
            + self.cones.heap_bytes()
    }

    /// The plan's expected per-round cost under the rates of the phrases
    /// currently routed here (served from the incremental tracker).
    pub fn expected_cost(&self) -> f64 {
        self.maintainer
            .as_ref()
            .map_or(0.0, PlanMaintainer::expected_cost)
    }

    /// True iff phrase `q` is bound to a query node of this plan (i.e.
    /// it is separable, in this resolver's subset, and non-empty).
    pub(crate) fn is_bound(&self, q: usize) -> bool {
        self.query_index[q].is_some()
    }

    /// Per phrase, the marginal expected plan cost (Section II-B units:
    /// expected materialized nodes per round); zero for unbound phrases.
    pub(crate) fn phrase_marginals(&self) -> &[f64] {
        &self.marginals
    }

    /// Routes phrase `q` onto (`true`) or off (`false`) this plan in the
    /// cost model: a search-rate toggle through the maintainer, repairing
    /// only the query's cone. No structural change — evaluation is
    /// occurrence-driven, so a routed-away phrase's private nodes simply
    /// never materialize. No-op for unbound phrases.
    pub(crate) fn set_phrase_routed(&mut self, q: usize, routed: bool) {
        let Some(qi) = self.query_index[q] else {
            return;
        };
        let maintainer = self.maintainer.as_mut().expect("bound phrase has a plan");
        let rate = if routed { self.query_rates[qi] } else { 0.0 };
        maintainer.update_search_rate(qi, rate);
    }
}

impl PhraseResolver for PlanResolver {
    fn resolve(
        &mut self,
        ctx: &RoundContext<'_>,
        phrases: &[PhraseId],
        effective_bids: &mut [Money],
        metrics: &mut EngineMetrics,
    ) -> Vec<AuctionOutcome> {
        let k = ctx.k;
        let Some(plan) = self.maintainer.as_ref().map(PlanMaintainer::plan) else {
            // Every bound phrase had an empty interest set (or there are
            // no advertisers at all): every auction resolves empty.
            return phrases
                .iter()
                .map(|&phrase| AuctionOutcome {
                    phrase,
                    assignment: assignment_from_ranking(&[], k),
                })
                .collect();
        };
        // Demand-driven: walk the occurring phrases' cones and merge only
        // those nodes, reading each leaf's score straight off the bid
        // buffer — the §II-B materialization cost, nothing per advertiser.
        let advertisers = &ctx.workload.advertisers;
        let bids = &*effective_bids;
        let score = |i: usize| Score::expected_value(bids[i], advertisers[i].base_factor);
        let query_nodes = plan.query_nodes();
        let bound = |phrase: PhraseId| self.query_index[phrase.index()].map(|qi| query_nodes[qi]);
        self.cones
            .walk(plan, phrases.iter().filter_map(|&phrase| bound(phrase)));
        metrics.aggregation_ops += self.cones.fill(plan, k + 1, score) as u64;
        let mut ranked: Vec<(AdvertiserId, Score)> = Vec::new();
        phrases
            .iter()
            .map(|&phrase| {
                // A query node's variable set is exactly the phrase's
                // interest set, so every ranked advertiser is interested.
                ranked.clear();
                if let Some(node) = bound(phrase) {
                    let top = self.cones.top(plan, node);
                    ranked.extend(top.map(|i| (advertisers[i].id, score(i))));
                }
                AuctionOutcome {
                    phrase,
                    assignment: assignment_from_ranking(&ranked, k),
                }
            })
            .collect()
    }
}
