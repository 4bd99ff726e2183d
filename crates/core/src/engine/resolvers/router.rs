//! The cost-model phrase router for `SharingStrategy::Hybrid`.
//!
//! The static hybrid routes every separable phrase to the aggregation
//! plan unconditionally, whether or not the plan wins it — at a 25%
//! separable share it lost to pure `SharedSort`. This router
//! instead treats routing as a cost-model decision, in three layers:
//!
//! 1. **Seed** — each plan-eligible phrase starts on the path with the
//!    smaller *marginal* expected cost: the Section II-B plan model
//!    (expected materialized nodes, scaled to item units by `2k`) against
//!    the Section III-B merge model (expected items sent upstream), both
//!    over the workload's search rates. The plan path has no fixed term:
//!    its evaluation is demand-driven, so a round costs exactly the nodes
//!    under the phrases that occur. The seed walks downhill one move at a
//!    time until no move lowers the modeled total.
//! 2. **Calibrate** — each round's measured `resolve` wall-clock per path
//!    divides by that round's model-unit weight into an EWMA of ns per
//!    model unit. The model supplies the *shape* (per-phrase marginals);
//!    the measurements supply the *scale* (how expensive each path's unit
//!    really is on this machine).
//! 3. **Migrate** — at round boundaries, a phrase moves when its
//!    calibrated cost on the other path undercuts its current path by
//!    the hysteresis margin, rate-limited per boundary and per phrase
//!    (cooldown) so timing noise cannot thrash a phrase back and forth.
//!
//! Migration is this router's route bit and nothing else, on both sides:
//! the plan's cost model is stateless, read once for the seed marginals,
//! and plan evaluation is occurrence-driven; the sort network refreshes
//! the leaves under whatever phrases it is handed, so a phrase entering
//! it has its stale leaves repaired when it first occurs there. No
//! structure is rebuilt.

use ssa_auction::ids::PhraseId;

/// EWMA weight of the newest ns-per-unit observation.
const EWMA_ALPHA: f64 = 0.3;
/// A migration must save at least this fraction of the phrase's current
/// modeled cost.
const HYSTERESIS: f64 = 0.25;
/// Round boundaries a migrated phrase sits out before moving again.
const COOLDOWN_ROUNDS: u32 = 8;
/// Per-boundary cap on single-phrase migrations (the group evacuation of
/// the whole plan counts as one boundary's worth on its own).
const MAX_MIGRATIONS_PER_BOUNDARY: usize = 8;
/// Pre-calibration prior for the sort path's ns per item unit, relative
/// to the plan path's 1.0. A merge-network item op (heap pops, pointer
/// chasing through persistent nodes, TA threshold checks) costs several
/// times a plan item op (one comparison in a pairwise top-k merge over a
/// contiguous slot arena); seeding with that skew
/// keeps the model-only route honest until real measurements land and
/// overwrite both scales.
const SORT_NS_PRIOR: f64 = 4.0;
/// Modeled fraction of the plan path's cost a seed-time evacuation must
/// save. The seed runs on priors alone, so wholesale evacuation before
/// any measurement demands a wide margin; the measured-cost rebalance
/// uses [`ONLINE_EVAC_MARGIN`] instead.
const SEED_EVAC_MARGIN: f64 = 0.2;
/// Measured fraction of the plan path's cost an online evacuation must
/// save. Lower than [`HYSTERESIS`]: the group move is the router's whole
/// answer to the 25%-separable regression (worth ~10–15%, which a 25%
/// bar would never clear), [`EVAC_STREAK`] supplies the noise protection
/// single moves get from their wider margin, and the absorption estimate
/// it is compared against is itself conservative (mean, not marginal,
/// per-occurrence sort cost) — where staying is right, measured `alt`
/// runs at ~2× `cur`, so a thin margin loses nothing.
const ONLINE_EVAC_MARGIN: f64 = 0.05;
/// Net boundaries of evidence the online group-evacuation condition
/// must accumulate before it fires: a boundary that clears the margin
/// adds one, a miss drains one (it does not reset the count — when the
/// true saving hovers just above the margin, timing noise produces
/// occasional misses, and demanding an unbroken run would starve a move
/// that is right on balance). Evacuation moves every plan-routed phrase
/// at once and the cooldown keeps them away for [`COOLDOWN_ROUNDS`], so
/// a single stalled round inflating `plan_ns` must not be able to
/// trigger it; single-phrase moves are bounded and cheap to undo, so
/// they keep acting on one boundary's evidence.
const EVAC_STREAK: u32 = 4;
/// Per-observation clamp: a new ns-per-unit sample may move at most this
/// factor away from the current estimate before blending. Shared-hardware
/// scheduling stalls produce isolated 2–5× spikes that are measurement
/// artifacts, not path cost; the clamp bounds how far one round can drag
/// the EWMA while leaving genuine drift to converge geometrically.
const OBS_CLAMP: f64 = 4.0;

/// Per-phrase route state for the Hybrid resolver pair: which path each
/// phrase is bound to, and (in adaptive mode) the cost model that decides
/// when a phrase should move.
pub(crate) struct Router {
    /// Per phrase: `true` routes to the plan, `false` to the sort
    /// network.
    route: Vec<bool>,
    /// Phrases allowed on the plan path (separable, non-empty interest).
    /// Non-eligible phrases are pinned to the sort network.
    eligible: Vec<bool>,
    /// Per phrase, marginal expected plan cost in item units
    /// (`2k ×` expected materialized nodes).
    plan_marginal: Vec<f64>,
    /// Per phrase, marginal expected merge cost in item units. At
    /// saturated search rates these collapse toward zero (a shared cone
    /// carries its items whether or not any one subscriber occurs), which
    /// is exactly why the group terms below exist.
    sort_marginal: Vec<f64>,
    /// Per phrase search rates `sr_q`.
    rates: Vec<f64>,
    /// Expected merge-network items per round over the *currently*
    /// sort-routed phrases (the Section III-B cost of the network
    /// restricted to them). This is the sort path's group cost — the
    /// calibration weight that keeps `sort_ns` an honest ns-per-item even
    /// though the per-phrase marginals vanish under sharing. Recomputed
    /// by the resolver layer whenever the route changes.
    sort_fixed: f64,
    /// Expected *extra* items per round if every plan-eligible phrase
    /// were absorbed into the sort network — the group-evacuation price
    /// the per-phrase marginal sum cannot see. Recomputed with
    /// `sort_fixed`.
    sort_absorb_extra: f64,
    /// Items one occurring phrase's Threshold-Algorithm scan consumes off
    /// its merged stream (~k), the per-occurrence floor under the
    /// vanishing marginals.
    ta_items: f64,
    /// EWMA ns per item unit, per path. The plan scale starts at 1.0 and
    /// the sort scale at [`SORT_NS_PRIOR`], so pre-calibration decisions
    /// reduce to the cost model with that machine-independent skew; each
    /// path's first real observation replaces its prior outright.
    plan_ns: f64,
    sort_ns: f64,
    /// EWMA of each path's *whole-round* measured resolve nanos and of
    /// the number of occurring phrases it served, kept alongside the
    /// per-item scales. The online group-evacuation decision prices both
    /// sides from these directly: under heavy sharing the structural
    /// model's absorption delta collapses to zero (every merge node
    /// already serves some sort-routed phrase), so the only honest price
    /// for absorbing a phrase is what serving one phrase on the sort path
    /// measurably costs.
    plan_round_ns: f64,
    plan_round_phrases: f64,
    sort_round_ns: f64,
    sort_round_phrases: f64,
    /// Whether each path has been measured at least once; migrations wait
    /// for both (the seed already encodes every model-only conclusion).
    plan_observed: bool,
    sort_observed: bool,
    /// Per phrase, boundaries left before it may migrate again.
    cooldown: Vec<u32>,
    /// Net boundaries of evidence the group-evacuation condition has
    /// accumulated (misses drain rather than reset; see [`EVAC_STREAK`]).
    evac_streak: u32,
    /// Reusable migration buffer handed back by [`Router::rebalance`].
    pending: Vec<(usize, bool)>,
    /// False for the static separability route (no model, no migration).
    adaptive: bool,
    /// Pins an adaptive router to its seed route (the `route_frozen`
    /// engine-config escape hatch; forced migrations still apply).
    frozen: bool,
}

impl Router {
    /// The static route: separability decides once, nothing moves.
    pub(crate) fn fixed(route: Vec<bool>) -> Self {
        Router {
            route,
            eligible: Vec::new(),
            plan_marginal: Vec::new(),
            sort_marginal: Vec::new(),
            rates: Vec::new(),
            sort_fixed: 0.0,
            sort_absorb_extra: 0.0,
            ta_items: 0.0,
            plan_ns: 1.0,
            sort_ns: 1.0,
            plan_round_ns: 0.0,
            plan_round_phrases: 0.0,
            sort_round_ns: 0.0,
            sort_round_phrases: 0.0,
            plan_observed: false,
            sort_observed: false,
            cooldown: Vec::new(),
            evac_streak: 0,
            pending: Vec::new(),
            adaptive: false,
            frozen: true,
        }
    }

    /// Builds an adaptive router and seeds its route from the pure cost
    /// model (deterministic: no timing has been observed yet).
    /// `sort_fixed` and `sort_absorb_extra` describe the sort network at
    /// the *static* starting route (every eligible phrase on the plan);
    /// the caller refreshes them via [`Router::set_sort_model`] after the
    /// seed — and after any later migration — since both depend on which
    /// phrases the network is actively serving.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn adaptive(
        eligible: Vec<bool>,
        plan_marginal: Vec<f64>,
        sort_marginal: Vec<f64>,
        rates: Vec<f64>,
        sort_fixed: f64,
        sort_absorb_extra: f64,
        ta_items: f64,
        frozen: bool,
    ) -> Self {
        let m = eligible.len();
        let mut router = Router {
            route: eligible.clone(),
            eligible,
            plan_marginal,
            sort_marginal,
            rates,
            sort_fixed,
            sort_absorb_extra,
            ta_items,
            plan_ns: 1.0,
            sort_ns: SORT_NS_PRIOR,
            plan_round_ns: 0.0,
            plan_round_phrases: 0.0,
            sort_round_ns: 0.0,
            sort_round_phrases: 0.0,
            plan_observed: false,
            sort_observed: false,
            cooldown: vec![0; m],
            evac_streak: 0,
            pending: Vec::new(),
            adaptive: true,
            frozen,
        };
        router.seed();
        router
    }

    /// Current route, indexed by phrase: `true` = plan, `false` = sort.
    pub(crate) fn route(&self) -> &[bool] {
        &self.route
    }

    /// The workload search rates the router models with (the resolver
    /// layer masks these by the current route when recomputing the sort
    /// network's group cost).
    pub(crate) fn search_rates(&self) -> &[f64] {
        &self.rates
    }

    /// Refreshes the sort path's group terms after the active phrase set
    /// changed: `sort_fixed` is the network's expected items per round
    /// over the currently sort-routed phrases, `sort_absorb_extra` the
    /// additional expected items if every plan-routed eligible phrase
    /// were absorbed as well.
    pub(crate) fn set_sort_model(&mut self, sort_fixed: f64, sort_absorb_extra: f64) {
        self.sort_fixed = sort_fixed;
        self.sort_absorb_extra = sort_absorb_extra;
    }

    pub(crate) fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Explicitly migrates a phrase (testing/operator seam); bypasses
    /// hysteresis and `frozen`, but not eligibility. Returns whether the
    /// route changed. The caller applies the same move to the resolvers.
    pub(crate) fn force_route(&mut self, q: usize, to_plan: bool) -> bool {
        if !self.adaptive || q >= self.route.len() {
            return false;
        }
        if to_plan && !self.eligible[q] {
            return false;
        }
        if self.route[q] == to_plan {
            return false;
        }
        self.route[q] = to_plan;
        self.cooldown[q] = COOLDOWN_ROUNDS;
        true
    }

    /// Seeds the route: start from the static assignment (every eligible
    /// phrase on the plan) and walk downhill on the modeled total until
    /// no single move — or evacuating the plan wholesale — helps.
    fn seed(&mut self) {
        let m = self.route.len();
        if self.seed_evacuation_saving(SEED_EVAC_MARGIN) > 0.0 {
            for route in &mut self.route {
                *route = false;
            }
        }
        for _ in 0..(2 * m + 4) {
            let Some((q, to_plan)) = self.best_single_move(0.0) else {
                break;
            };
            self.route[q] = to_plan;
        }
    }

    /// Records one round's plan-path `resolve` wall-clock against the
    /// model-unit weight of the phrases it served.
    pub(crate) fn observe_plan(&mut self, nanos: u128, phrases: &[PhraseId]) {
        if !self.adaptive {
            return;
        }
        let weight: f64 = phrases.iter().map(|p| self.plan_marginal[p.index()]).sum();
        if weight <= f64::EPSILON {
            return;
        }
        let obs = nanos as f64 / weight;
        let raw = nanos as f64;
        if self.plan_observed {
            let clamped = obs.clamp(self.plan_ns / OBS_CLAMP, self.plan_ns * OBS_CLAMP);
            self.plan_ns = (1.0 - EWMA_ALPHA) * self.plan_ns + EWMA_ALPHA * clamped;
            let raw = raw.clamp(
                self.plan_round_ns / OBS_CLAMP,
                self.plan_round_ns * OBS_CLAMP,
            );
            self.plan_round_ns = (1.0 - EWMA_ALPHA) * self.plan_round_ns + EWMA_ALPHA * raw;
            self.plan_round_phrases =
                (1.0 - EWMA_ALPHA) * self.plan_round_phrases + EWMA_ALPHA * phrases.len() as f64;
        } else {
            self.plan_ns = obs;
            self.plan_round_ns = raw;
            self.plan_round_phrases = phrases.len() as f64;
        }
        self.plan_observed = true;
    }

    /// Records one round's sort-path `resolve` wall-clock (refresh
    /// excluded — `sort_refresh_nanos` tracks that separately, so the
    /// signal is not biased against the sort path). The weight is the
    /// network's expected items over the routed set plus the occurring
    /// phrases' TA scans — the group cost, not the marginal sum, so the
    /// resulting `sort_ns` prices an item honestly even when sharing
    /// drives every marginal to zero.
    pub(crate) fn observe_sort(&mut self, nanos: u128, phrases: &[PhraseId]) {
        if !self.adaptive {
            return;
        }
        let weight: f64 = self.sort_fixed + self.ta_items * phrases.len() as f64;
        if weight <= f64::EPSILON {
            return;
        }
        let obs = nanos as f64 / weight;
        let raw = nanos as f64;
        if self.sort_observed {
            let clamped = obs.clamp(self.sort_ns / OBS_CLAMP, self.sort_ns * OBS_CLAMP);
            self.sort_ns = (1.0 - EWMA_ALPHA) * self.sort_ns + EWMA_ALPHA * clamped;
            let raw = raw.clamp(
                self.sort_round_ns / OBS_CLAMP,
                self.sort_round_ns * OBS_CLAMP,
            );
            self.sort_round_ns = (1.0 - EWMA_ALPHA) * self.sort_round_ns + EWMA_ALPHA * raw;
            self.sort_round_phrases =
                (1.0 - EWMA_ALPHA) * self.sort_round_phrases + EWMA_ALPHA * phrases.len() as f64;
        } else {
            self.sort_ns = obs;
            self.sort_round_ns = raw;
            self.sort_round_phrases = phrases.len() as f64;
        }
        self.sort_observed = true;
    }

    /// Round-boundary migration pass. Applies the winning moves to the
    /// route and returns them (`(phrase, to_plan)`) for the caller to
    /// mirror into the resolvers. Empty until both paths have been
    /// measured (the seed already encodes the model-only optimum), when
    /// frozen, and whenever no move clears the hysteresis margin.
    pub(crate) fn rebalance(&mut self) -> &[(usize, bool)] {
        self.pending.clear();
        if !self.adaptive || self.frozen || !(self.plan_observed && self.sort_observed) {
            return &self.pending;
        }
        for c in &mut self.cooldown {
            *c = c.saturating_sub(1);
        }
        // Evacuating the plan wholesale is priced from whole-round
        // measurements, not per-phrase deltas, and it is the one move
        // noise must never fire: [`EVAC_STREAK`] net boundaries of
        // sustained evidence are required.
        if self.measured_evacuation_saving(ONLINE_EVAC_MARGIN) > 0.0 {
            self.evac_streak += 1;
            if self.evac_streak >= EVAC_STREAK {
                self.evac_streak = 0;
                for q in 0..self.route.len() {
                    if self.route[q] {
                        self.route[q] = false;
                        self.cooldown[q] = COOLDOWN_ROUNDS;
                        self.pending.push((q, false));
                    }
                }
                return &self.pending;
            }
        } else {
            self.evac_streak = self.evac_streak.saturating_sub(1);
        }
        while self.pending.len() < MAX_MIGRATIONS_PER_BOUNDARY {
            let Some((q, to_plan)) = self.best_single_move(HYSTERESIS) else {
                break;
            };
            self.route[q] = to_plan;
            self.cooldown[q] = COOLDOWN_ROUNDS;
            self.pending.push((q, to_plan));
        }
        &self.pending
    }

    /// Calibrated cost of serving `q` on the plan: its marginal expected
    /// materialized nodes.
    fn plan_cost(&self, q: usize) -> f64 {
        self.plan_ns * self.plan_marginal[q]
    }

    /// Calibrated cost of serving `q` on the sort path: its marginal
    /// upstream traffic plus its expected TA scan.
    fn sort_cost(&self, q: usize) -> f64 {
        self.sort_ns * (self.sort_marginal[q] + self.rates[q] * self.ta_items)
    }

    /// Seed-time saving from moving every plan-routed phrase to the sort
    /// path, priced from the structural model alone (nothing has been
    /// measured yet): the plan side's whole modeled cost (the routed
    /// marginals) against the network's modeled absorption traffic plus
    /// the movers' TA scans.
    fn seed_evacuation_saving(&self, theta: f64) -> f64 {
        let mut plan_total = 0.0;
        let mut mover_scans = 0.0;
        for q in 0..self.route.len() {
            if self.route[q] {
                plan_total += self.plan_marginal[q];
                mover_scans += self.rates[q] * self.ta_items;
            }
        }
        let cur = self.plan_ns * plan_total;
        let alt = self.sort_ns * (self.sort_absorb_extra + mover_scans);
        cur - alt - theta * cur
    }

    /// Online saving from evacuating the plan wholesale, priced from the
    /// *measured* per-round path costs rather than the structural model.
    /// Under heavy sharing the model cannot price absorption at all —
    /// when every merge node already serves some sort-routed phrase, the
    /// masked-rate expected-cost delta is exactly zero — so the modeled
    /// `alt` says evacuation is nearly free even where the static hybrid
    /// measurably wins. Instead: `cur` is the plan path's measured EWMA
    /// round cost, and each absorbed occurrence is charged the sort
    /// path's measured *mean* cost per occurring phrase. The mean
    /// overstates the marginal (it amortizes the shared network's fixed
    /// traffic over the phrases riding it), which biases the decision
    /// toward staying — the plan path only evacuates when its measured
    /// round loses even to that overestimate.
    fn measured_evacuation_saving(&self, theta: f64) -> f64 {
        if self.sort_round_phrases < 1.0 {
            return 0.0;
        }
        let mut mover_rate = 0.0;
        let mut occupied = false;
        for q in 0..self.route.len() {
            if self.route[q] {
                if self.cooldown.get(q).is_some_and(|&c| c > 0) {
                    return 0.0;
                }
                occupied = true;
                mover_rate += self.rates[q];
            }
        }
        if !occupied {
            return 0.0;
        }
        let cur = self.plan_round_ns;
        let alt = mover_rate * self.sort_round_ns / self.sort_round_phrases;
        cur - alt - theta * cur
    }

    /// The single migration with the largest modeled saving, or `None`
    /// when nothing clears `theta × current cost`.
    fn best_single_move(&self, theta: f64) -> Option<(usize, bool)> {
        let mut best: Option<(usize, bool, f64)> = None;
        for q in 0..self.route.len() {
            if !self.eligible[q] || self.cooldown.get(q).is_some_and(|&c| c > 0) {
                continue;
            }
            let (to_plan, cur, alt) = if self.route[q] {
                (false, self.plan_cost(q), self.sort_cost(q))
            } else {
                (true, self.sort_cost(q), self.plan_cost(q))
            };
            let saving = cur - alt - theta * cur;
            if saving > 0.0 && best.as_ref().is_none_or(|&(_, _, s)| saving > s) {
                best = Some((q, to_plan, saving));
            }
        }
        best.map(|(q, to_plan, _)| (q, to_plan))
    }
}
