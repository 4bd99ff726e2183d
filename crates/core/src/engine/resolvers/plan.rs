//! The Section II resolver: one shared top-k aggregation plan.

use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::score::Score;
use ssa_auction::winner::assignment_from_ranking;
use ssa_setcover::VarSet;
use ssa_workload::Workload;

use crate::plan::{cost, PlanDag, PlanProblem, PlannerMode, SharedPlanner, TopKCones};

use super::super::{AuctionOutcome, EngineMetrics};
use super::{PhraseResolver, RoundContext};
use ssa_auction::money::Money;

/// Shared top-k aggregation over a (possibly strict) subset of the
/// workload's phrases, compiled once at engine construction. Requires
/// every bound phrase to be separable: leaves score each advertiser by
/// its *base* factor, which is only that phrase's `c_i^q` when the factor
/// is phrase-independent there.
///
/// The plan is found offline and never changes (Section II-B); its cost
/// model is two pure functions of (plan, rates) in [`crate::plan::cost`],
/// evaluated on call. Routing a phrase away from the plan is the router's
/// route bit alone: evaluation is occurrence-driven, so a phrase the
/// engine never hands this resolver never materializes its private nodes.
pub struct PlanResolver {
    /// The offline shared-aggregation plan; `None` when every bound
    /// phrase's interest set is empty.
    dag: Option<PlanDag>,
    /// Per phrase, the plan query index it is bound to (`None` for
    /// phrases outside this resolver's subset and for empty-interest
    /// phrases, which resolve trivially).
    query_index: Vec<Option<usize>>,
    /// Search rate per bound query.
    query_rates: Vec<f64>,
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
        let dag = (!queries.is_empty()).then(|| {
            let problem = PlanProblem::from_varsets(n, queries, Some(query_rates.clone()));
            SharedPlanner { mode: planner }.plan(&problem)
        });
        PlanResolver {
            dag,
            query_index,
            query_rates,
            cones: TopKCones::new(),
        }
    }

    /// The compiled plan, if any phrase was bound (an observation seam
    /// for cost assertions in tests and benches).
    pub fn dag(&self) -> Option<&PlanDag> {
        self.dag.as_ref()
    }

    /// Heap footprint of the resolver's persistent state in bytes — the
    /// plan DAG, the per-phrase tables and the evaluation scratch — for
    /// the memory-scaling gate.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dag.as_ref().map_or(0, PlanDag::heap_bytes)
            + self.query_index.capacity() * size_of::<Option<usize>>()
            + self.query_rates.capacity() * size_of::<f64>()
            + self.cones.heap_bytes()
    }

    /// The plan's expected per-round cost under the bound phrases' search
    /// rates ([`cost::expected_cost`], one pass over the plan per call).
    pub fn expected_cost(&self) -> f64 {
        self.dag
            .as_ref()
            .map_or(0.0, |dag| cost::expected_cost(dag, &self.query_rates))
    }

    /// True iff phrase `q` is bound to a query node of this plan (i.e.
    /// it is separable, in this resolver's subset, and non-empty).
    pub(crate) fn is_bound(&self, q: usize) -> bool {
        self.query_index[q].is_some()
    }

    /// Per phrase, the marginal expected plan cost (Section II-B units:
    /// expected materialized nodes per round); zero for unbound phrases.
    /// One pass over the plan per call ([`cost::phrase_marginal_costs`]).
    pub(crate) fn phrase_marginals(&self) -> Vec<f64> {
        let Some(dag) = &self.dag else {
            return vec![0.0; self.query_index.len()];
        };
        let per_query = cost::phrase_marginal_costs(dag, &self.query_rates);
        self.query_index
            .iter()
            .map(|qi| qi.map_or(0.0, |qi| per_query[qi]))
            .collect()
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
        let Some(plan) = self.dag.as_ref() else {
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
        // Demand-driven: walk the occurring phrases' cones, scan their runs
        // and merge only the nodes above, scoring straight off the bid
        // buffer — the §II-B materialization cost, nothing population-sized.
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
