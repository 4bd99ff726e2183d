//! The cost-model phrase route for `SharingStrategy::Hybrid` under
//! `RoutingMode::Adaptive`.
//!
//! The static hybrid routes every separable phrase to the aggregation
//! plan unconditionally, whether or not the plan wins it. The adaptive
//! route instead treats routing as a cost-model decision, made once at
//! construction, as the paper compiles its shared structures: each
//! plan-eligible phrase starts on the plan and the route walks downhill
//! on the modeled total. A phrase's plan cost is the Section II-B model
//! (expected materialized nodes, scaled to item units by `2k`), its sort
//! cost the Section III-B merge model (expected items sent upstream) plus
//! its expected Threshold-Algorithm scan, both over the workload's search
//! rates. The plan path has no fixed term: its evaluation is
//! demand-driven, so a round costs exactly the nodes under the phrases
//! that occur.
//!
//! Nothing here reads a clock: the route is a pure function of the
//! workload and the engine config, so every run of one seed routes
//! alike.

/// Sort-path cost per item unit, relative to the plan path's 1.0. A
/// merge-network item op (heap pops, pointer chasing through persistent
/// nodes, TA threshold checks) costs several times a plan item op (one
/// comparison in a pairwise top-k merge over a contiguous slot arena);
/// the route's only machine-dependent input is this fixed skew.
const SORT_NS_PRIOR: f64 = 4.0;
/// Modeled fraction of the plan path's cost that evacuating the plan
/// wholesale must save before the route starts from an empty plan. The
/// model prices absorption coarsely, so the group move demands a wide
/// margin.
const SEED_EVAC_MARGIN: f64 = 0.2;

/// The route's model inputs, indexed by phrase.
pub(crate) struct RouteModel {
    /// Phrases allowed on the plan path (separable, non-empty interest).
    /// Non-eligible phrases stay on the sort network.
    pub eligible: Vec<bool>,
    /// Marginal expected plan cost in item units (`2k ×` expected
    /// materialized nodes).
    pub plan_marginal: Vec<f64>,
    /// Marginal expected merge cost in item units. At saturated search
    /// rates these collapse toward zero (a shared cone carries its items
    /// whether or not any one subscriber occurs), which is why the
    /// evacuation term below exists.
    pub sort_marginal: Vec<f64>,
    /// Search rates `sr_q`.
    pub rates: Vec<f64>,
    /// Expected *extra* merge-network items per round if every eligible
    /// phrase were absorbed into the sort network — the group price the
    /// per-phrase marginal sum cannot see.
    pub sort_absorb_extra: f64,
    /// Items one occurring phrase's Threshold-Algorithm scan consumes off
    /// its merged stream (~k), the per-occurrence floor under the
    /// vanishing marginals.
    pub ta_items: f64,
}

/// The route, indexed by phrase: `true` = plan, `false` = sort. Starts
/// from the static assignment (every eligible phrase on the plan),
/// evacuates the plan wholesale when the model says that saves
/// [`SEED_EVAC_MARGIN`], then applies the single move with the largest
/// modeled saving until none saves anything.
pub(crate) fn seed_route(model: &RouteModel) -> Vec<bool> {
    let mut route = model.eligible.clone();
    if model.evacuation_saving(&route) > 0.0 {
        route.fill(false);
    }
    for _ in 0..(2 * route.len() + 4) {
        let Some((q, to_plan)) = model.best_single_move(&route) else {
            break;
        };
        route[q] = to_plan;
    }
    route
}

impl RouteModel {
    /// Modeled cost of serving `q` on the sort path: its marginal
    /// upstream traffic plus its expected TA scan.
    fn sort_cost(&self, q: usize) -> f64 {
        SORT_NS_PRIOR * (self.sort_marginal[q] + self.rates[q] * self.ta_items)
    }

    /// Saving from moving every plan-routed phrase to the sort path, net
    /// of [`SEED_EVAC_MARGIN`]: the plan side's whole modeled cost (the
    /// routed marginals) against the network's absorption traffic plus
    /// the movers' TA scans.
    fn evacuation_saving(&self, route: &[bool]) -> f64 {
        let mut plan_total = 0.0;
        let mut mover_scans = 0.0;
        for (q, _) in route.iter().enumerate().filter(|&(_, &to_plan)| to_plan) {
            plan_total += self.plan_marginal[q];
            mover_scans += self.rates[q] * self.ta_items;
        }
        let alt = SORT_NS_PRIOR * (self.sort_absorb_extra + mover_scans);
        plan_total - alt - SEED_EVAC_MARGIN * plan_total
    }

    /// The eligible phrase whose move to the other path has the largest
    /// positive modeled saving, or `None` when no move saves anything.
    fn best_single_move(&self, route: &[bool]) -> Option<(usize, bool)> {
        let mut best: Option<(usize, bool, f64)> = None;
        for (q, &on_plan) in route.iter().enumerate() {
            if !self.eligible[q] {
                continue;
            }
            let (plan, sort) = (self.plan_marginal[q], self.sort_cost(q));
            let (to_plan, saving) = if on_plan {
                (false, plan - sort)
            } else {
                (true, sort - plan)
            };
            if saving > 0.0 && best.as_ref().is_none_or(|&(_, _, s)| saving > s) {
                best = Some((q, to_plan, saving));
            }
        }
        best.map(|(q, to_plan, _)| (q, to_plan))
    }
}
