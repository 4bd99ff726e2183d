//! Differential runners and invariant checkers.
//!
//! Each check derives a workload from a `u64` seed, executes it through
//! one of the optimized evaluation paths *and* through the naive oracle,
//! and reports a [`Divergence`] on any mismatch. A divergence always
//! carries the reproducing seed, so any failure — in CI or in a soak run
//! — is a one-liner to replay.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::money::Money;
use ssa_auction::pricing::PricingRule;
use ssa_auction::score::Score;
use ssa_auction::winner::assignment_from_ranking;
use ssa_core::algebra::expr::Expr;
use ssa_core::algebra::ops::{check_axioms, AggregateOp, BloomUnionOp};
use ssa_core::algebra::AxiomSet;
use ssa_core::budget::{compare_throttled, BOUND_SLACK_MICROS};
use ssa_core::engine::resolvers::PlanResolver;
use ssa_core::engine::{
    AuctionOutcome, BudgetPolicy, BudgetSnapshot, Engine, EngineConfig, RoutingMode,
    SharingStrategy,
};
use ssa_core::plan::cost::{expected_cost, unshared_expected_cost};
use ssa_core::plan::cse::{cse_plan, CsePlan, NodeRef};
use ssa_core::plan::{DisjointPlanner, PlanDag, PlanProblem, SharedPlanner};
use ssa_core::sort::planner::{build_shared_sort_plan, build_shared_sort_plan_bucketed, SortPlan};
use ssa_core::sort::ta::{naive_top_k, threshold_top_k};
use ssa_core::topk::{KList, ScoredAd, ScoredTopKOp};
use ssa_setcover::BitSet;
use ssa_workload::{Workload, WorkloadConfig};

use crate::gen::{self, Profile};
use crate::oracle;
use crate::plan_oracle::{check_complete, reference_plan, REFERENCE_COST_SLACK};

/// Rounds each dynamic (engine) check simulates per seed.
const ROUNDS: usize = 4;

/// A reproducible mismatch between an optimized path and the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed whose workload exposed the mismatch.
    pub seed: u64,
    /// Which check failed.
    pub check: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl Divergence {
    fn new(check: &'static str, seed: u64, detail: impl Into<String>) -> Self {
        Divergence {
            seed,
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] seed {}: {}\n  reproduce with: cargo run -p ssa-testkit --bin testkit -- --seed {}",
            self.check, self.seed, self.detail, self.seed
        )
    }
}

/// A workload-parameterized check (the shape the soak binary's minimizer
/// drives).
pub type WorkloadCheck = fn(&WorkloadConfig, u64) -> Result<(), Divergence>;

/// All workload-driven differential checks, with the profile each derives
/// its config from.
pub const WORKLOAD_CHECKS: &[(&str, Profile, WorkloadCheck)] = &[
    (
        "engine-separable",
        Profile::TightBudgets,
        check_engine_separable_with,
    ),
    (
        "engine-nonseparable",
        Profile::NonSeparable,
        check_engine_nonseparable_with,
    ),
    ("plan-paths", Profile::Separable, check_plan_paths_with),
    (
        "plan-vs-reference",
        Profile::Separable,
        check_plan_vs_reference_with,
    ),
    ("shared-sort", Profile::NonSeparable, check_shared_sort_with),
    (
        "sort-persistent",
        Profile::TightBudgets,
        check_sort_persistent_with,
    ),
    ("hybrid-routing", Profile::Mixed, check_hybrid_routing_with),
];

/// A seed-only invariant check (no workload involved).
pub type SeedCheck = fn(u64) -> Result<(), Divergence>;

/// Seed-only invariant checks (no workload involved).
pub const SEED_CHECKS: &[(&str, SeedCheck)] = &[
    ("budget-bounds", check_budget_bounds),
    ("algebra", check_algebra),
];

/// Runs every check for one seed and collects all divergences.
pub fn run_all(seed: u64) -> Vec<Divergence> {
    let mut out = Vec::new();
    for (_, profile, f) in WORKLOAD_CHECKS {
        let cfg = gen::workload_config(seed, *profile);
        if let Err(d) = f(&cfg, seed) {
            out.push(d);
        }
    }
    for (_, f) in SEED_CHECKS {
        if let Err(d) = f(seed) {
            out.push(d);
        }
    }
    out
}

/// Every engine of one seed prices under the same rule (variants must
/// agree with their reference on spend), and the corpus' consecutive
/// seeds cycle through all three.
const PRICING_RULES: [PricingRule; 3] = [
    PricingRule::GeneralizedSecondPrice,
    PricingRule::Vcg,
    PricingRule::FirstPrice,
];

fn engine_config(sharing: SharingStrategy, policy: BudgetPolicy, seed: u64) -> EngineConfig {
    EngineConfig {
        sharing,
        budget_policy: policy,
        pricing: PRICING_RULES[(seed % 3) as usize],
        // Decorrelate round/click randomness from workload generation.
        seed: seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0xe61e),
        ..EngineConfig::default()
    }
}

/// Replays one engine round through the oracle: recomputes the effective
/// (throttled) bids from the pre-round budget snapshots, then resolves
/// every occurring phrase independently, and compares bids, assignments,
/// and prices against what the engine produced.
fn oracle_check_round(
    check: &'static str,
    w: &Workload,
    engine: &Engine,
    snapshots: &[BudgetSnapshot],
    outcomes: &[AuctionOutcome],
    seed: u64,
    round: usize,
) -> Result<(), Divergence> {
    let cfg = engine.config();
    let occurring: Vec<PhraseId> = outcomes.iter().map(|o| o.phrase).collect();
    let m_i = oracle::auction_counts(w, &occurring);
    let want_bids = oracle::effective_bids(snapshots, &m_i, cfg.budget_policy);
    let got_bids = engine.last_effective_bids();
    if want_bids != got_bids {
        let i = want_bids
            .iter()
            .zip(got_bids)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(Divergence::new(
            check,
            seed,
            format!(
                "round {round}: effective bid of advertiser {i} is {} but the oracle's \
                 exact throttled bid is {} (m_i = {})",
                got_bids[i], want_bids[i], m_i[i]
            ),
        ));
    }
    for outcome in outcomes {
        let want = oracle::phrase_assignment(w, outcome.phrase, &want_bids, &cfg.slot_factors);
        if want != outcome.assignment {
            return Err(Divergence::new(
                check,
                seed,
                format!(
                    "round {round} phrase {}: engine assignment {:?} but independent \
                     per-phrase scan gives {:?}",
                    outcome.phrase, outcome.assignment, want
                ),
            ));
        }
    }
    check_charged_prices(check, w, engine, outcomes, &want_bids, seed, round)
}

/// Checks what the engine actually charged — the round's committed
/// [`Engine::last_display_events`] — against the oracle's own reading of
/// the pricing rule over `exact_bids`, rounded down to the billing
/// increment: one event per displayed winner, in outcome and slot order,
/// priced exactly as the oracle prices it and never above the winner's
/// effective bid.
fn check_charged_prices(
    check: &'static str,
    w: &Workload,
    engine: &Engine,
    outcomes: &[AuctionOutcome],
    exact_bids: &[Money],
    seed: u64,
    round: usize,
) -> Result<(), Divergence> {
    let cfg = engine.config();
    let mut events = engine.last_display_events().iter();
    for outcome in outcomes {
        let winners: Vec<AdvertiserId> = outcome
            .assignment
            .winners()
            .iter()
            .map(|winner| winner.advertiser)
            .collect();
        let want = oracle::phrase_prices(
            w,
            outcome.phrase,
            exact_bids,
            &winners,
            &cfg.slot_factors,
            cfg.pricing,
        );
        for (slot, (&advertiser, want)) in winners.iter().zip(want).enumerate() {
            let want = want.round_down_to(cfg.billing_increment);
            let bid = exact_bids[advertiser.index()];
            let charged = match events.next() {
                Some(&(phrase, ev)) if phrase == outcome.phrase && ev.advertiser == advertiser => {
                    ev.price
                }
                other => {
                    return Err(Divergence::new(
                        check,
                        seed,
                        format!(
                            "round {round} phrase {} slot {slot}: advertiser {advertiser} \
                             won it but the engine's next display event is {other:?}",
                            outcome.phrase
                        ),
                    ));
                }
            };
            if charged != want || charged > bid {
                return Err(Divergence::new(
                    check,
                    seed,
                    format!(
                        "round {round} phrase {} slot {slot}: engine charges advertiser \
                         {advertiser} {charged} per click under {:?}; the oracle's rescan \
                         prices it at {want} (effective bid {bid})",
                        outcome.phrase, cfg.pricing
                    ),
                ));
            }
        }
    }
    match events.next() {
        None => Ok(()),
        Some(extra) => Err(Divergence::new(
            check,
            seed,
            format!("round {round}: display event {extra:?} belongs to no winner"),
        )),
    }
}

fn compare_outcomes(
    check: &'static str,
    variant: &'static str,
    reference: &[AuctionOutcome],
    got: &[AuctionOutcome],
    seed: u64,
    round: usize,
) -> Result<(), Divergence> {
    if reference.len() != got.len() || reference.iter().zip(got).any(|(a, b)| a.phrase != b.phrase)
    {
        return Err(Divergence::new(
            check,
            seed,
            format!(
                "round {round} [{variant}]: occurring phrase sets differ \
                 (reference {:?}, variant {:?})",
                reference.iter().map(|o| o.phrase).collect::<Vec<_>>(),
                got.iter().map(|o| o.phrase).collect::<Vec<_>>()
            ),
        ));
    }
    match reference
        .iter()
        .zip(got)
        .find(|(a, b)| a.assignment != b.assignment)
    {
        None => Ok(()),
        Some((a, b)) => Err(Divergence::new(
            check,
            seed,
            format!(
                "round {round} phrase {} [{variant}]: assignments differ — \
                 reference {:?}, variant {:?}",
                a.phrase, a.assignment, b.assignment
            ),
        )),
    }
}

struct Variant {
    name: &'static str,
    engine: Engine,
}

/// Runs the reference and every variant in lockstep. Each round the
/// reference is replayed against the oracle, and every variant must
/// match it bit for bit: outcomes, charged prices and budget snapshots.
fn run_engine_diff(
    check: &'static str,
    w: &Workload,
    mut reference: Engine,
    mut variants: Vec<Variant>,
    seed: u64,
) -> Result<(), Divergence> {
    // A SharedAggregation variant must count exactly the ⊕ §II-B's model
    // materializes for each round's occurring phrases.
    let plans: Vec<Option<PlanResolver>> = variants
        .iter()
        .map(|v| {
            let cfg = v.engine.config();
            (cfg.sharing == SharingStrategy::SharedAggregation)
                .then(|| PlanResolver::new(w, cfg.planner, None))
        })
        .collect();
    for round in 0..ROUNDS {
        let snapshots = reference.budget_snapshots();
        let ref_out = reference.run_round();
        oracle_check_round(check, w, &reference, &snapshots, &ref_out, seed, round)?;
        // Every variant entered the round with the reference's ledgers,
        // so the reference's (oracle-verified) exact bids are its own.
        let oracle_bids = reference.last_effective_bids().to_vec();
        let ref_snapshots = reference.budget_snapshots();
        for (v, plan) in variants.iter_mut().zip(&plans) {
            let ops_before = v.engine.metrics().aggregation_ops;
            let out = v.engine.run_round();
            if let Some(plan) = plan {
                let phrases: Vec<PhraseId> = out.iter().map(|o| o.phrase).collect();
                let counted = v.engine.metrics().aggregation_ops - ops_before;
                let model = oracle::plan_round_ops(w, plan, &phrases);
                if counted != model {
                    return Err(Divergence::new(
                        check,
                        seed,
                        format!(
                            "round {round} [{}]: {counted} ⊕ counted, but the plan's \
                             materialized cost over phrases {phrases:?} is {model}",
                            v.name
                        ),
                    ));
                }
            }
            check_charged_prices(check, w, &v.engine, &out, &oracle_bids, seed, round)?;
            compare_outcomes(check, v.name, &ref_out, &out, seed, round)?;
            if v.engine.budget_snapshots() != ref_snapshots {
                return Err(Divergence::new(
                    check,
                    seed,
                    format!(
                        "round {round} [{}]: budget snapshots differ from the reference's",
                        v.name
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Differential check over a separable (jitter-free) workload: the
/// unshared scan, the Section II shared aggregation plan, the Section III
/// shared sort, and the bounds-based budget policy must all reproduce the
/// reference bit for bit every round; the reference itself is replayed
/// against the naive oracle each round, and the shared plan's counted ⊕
/// must equal its §II-B materialized cost every round. The `Ignore`
/// budget policy gets its own oracle replay.
pub fn check_engine_separable_with(cfg: &WorkloadConfig, seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "engine-separable";
    let w = Workload::generate(cfg);
    let reference = Engine::new(
        w.clone(),
        engine_config(SharingStrategy::Unshared, BudgetPolicy::ThrottleExact, seed),
    );
    let variants = vec![
        Variant {
            name: "shared-plan",
            engine: Engine::new(
                w.clone(),
                engine_config(
                    SharingStrategy::SharedAggregation,
                    BudgetPolicy::ThrottleExact,
                    seed,
                ),
            ),
        },
        Variant {
            name: "shared-sort",
            engine: Engine::new(
                w.clone(),
                engine_config(
                    SharingStrategy::SharedSort,
                    BudgetPolicy::ThrottleExact,
                    seed,
                ),
            ),
        },
        Variant {
            name: "throttle-bounds",
            engine: Engine::new(
                w.clone(),
                engine_config(
                    SharingStrategy::Unshared,
                    BudgetPolicy::ThrottleBounds,
                    seed,
                ),
            ),
        },
    ];
    run_engine_diff(CHECK, &w, reference, variants, seed)?;

    // The budget-ignoring baseline has different semantics, so it is only
    // replayed against the oracle, not against the throttled reference.
    let mut ignore = Engine::new(
        w.clone(),
        engine_config(SharingStrategy::Unshared, BudgetPolicy::Ignore, seed),
    );
    for round in 0..ROUNDS {
        let snapshots = ignore.budget_snapshots();
        let out = ignore.run_round();
        oracle_check_round(CHECK, &w, &ignore, &snapshots, &out, seed, round)?;
    }
    Ok(())
}

/// Seed-only wrapper for [`check_engine_separable_with`].
pub fn check_engine_separable(seed: u64) -> Result<(), Divergence> {
    check_engine_separable_with(&gen::workload_config(seed, Profile::TightBudgets), seed)
}

/// Differential check over a non-separable (phrase-jittered) workload:
/// the shared sort against the unshared scan, with the oracle replaying
/// the reference.
pub fn check_engine_nonseparable_with(cfg: &WorkloadConfig, seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "engine-nonseparable";
    let w = Workload::generate(cfg);
    let reference = Engine::new(
        w.clone(),
        engine_config(SharingStrategy::Unshared, BudgetPolicy::ThrottleExact, seed),
    );
    let variants = vec![
        Variant {
            name: "shared-sort",
            engine: Engine::new(
                w.clone(),
                engine_config(
                    SharingStrategy::SharedSort,
                    BudgetPolicy::ThrottleExact,
                    seed,
                ),
            ),
        },
        Variant {
            name: "throttle-bounds",
            engine: Engine::new(
                w.clone(),
                engine_config(
                    SharingStrategy::Unshared,
                    BudgetPolicy::ThrottleBounds,
                    seed,
                ),
            ),
        },
    ];
    run_engine_diff(CHECK, &w, reference, variants, seed)
}

/// Seed-only wrapper for [`check_engine_nonseparable_with`].
pub fn check_engine_nonseparable(seed: u64) -> Result<(), Divergence> {
    check_engine_nonseparable_with(&gen::workload_config(seed, Profile::NonSeparable), seed)
}

/// Evaluates a CSE plan (the non-associative sharing baseline) bottom-up.
fn eval_cse(plan: &CsePlan, op: &ScoredTopKOp, leaves: &[KList<ScoredAd>]) -> Vec<KList<ScoredAd>> {
    fn resolve(
        r: NodeRef,
        values: &[KList<ScoredAd>],
        leaves: &[KList<ScoredAd>],
    ) -> KList<ScoredAd> {
        match r {
            NodeRef::Var(v) => leaves[v].clone(),
            NodeRef::Node(i) => values[i].clone(),
        }
    }
    let mut values: Vec<KList<ScoredAd>> = Vec::with_capacity(plan.nodes.len());
    for &(a, b) in &plan.nodes {
        let va = resolve(a, &values, leaves);
        let vb = resolve(b, &values, leaves);
        values.push(op.combine(&va, &vb));
    }
    plan.roots
        .iter()
        .map(|&r| resolve(r, &values, leaves))
        .collect()
}

fn ranked_ids(list: &KList<ScoredAd>) -> Vec<AdvertiserId> {
    list.items().iter().map(|s| s.advertiser).collect()
}

/// Static differential check of the shared-aggregation machinery: the
/// greedy planner, the fragments-only planner, the disjoint planner, and
/// the CSE baseline are each evaluated on the same leaf scores and
/// compared per phrase against the oracle ranking; plan invariants
/// (`validate`, cost sanity) are asserted along the way.
pub fn check_plan_paths_with(cfg: &WorkloadConfig, seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "plan-paths";
    let w = Workload::generate(cfg);
    let (problem, kept) = gen::plan_problem_nonempty(&w);
    if problem.query_count() == 0 {
        return Ok(());
    }
    let k = 3usize;
    let op = ScoredTopKOp { k };
    let bids: Vec<Money> = w.advertisers.iter().map(|a| a.bid).collect();
    let leaves: Vec<KList<ScoredAd>> = w
        .advertisers
        .iter()
        .map(|a| {
            KList::singleton(
                k,
                ScoredAd::new(a.id, Score::expected_value(a.bid, a.base_factor)),
            )
        })
        .collect();
    let expected: Vec<Vec<AdvertiserId>> = kept
        .iter()
        .map(|&q| {
            oracle::phrase_ranking(&w, PhraseId::from_index(q), &bids)
                .into_iter()
                .take(k)
                .collect()
        })
        .collect();

    let planners: [(&str, PlanDag); 3] = [
        ("greedy", SharedPlanner::full().plan(&problem)),
        ("fragments", SharedPlanner::fragments_only().plan(&problem)),
        ("disjoint", DisjointPlanner.plan(&problem)),
    ];
    let unshared = unshared_expected_cost(&problem);
    for (name, plan) in &planners {
        if let Err(e) = plan.validate() {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!("{name} plan fails validation: {e}"),
            ));
        }
        let cost = expected_cost(plan, &problem.search_rates);
        if cost > unshared + 1e-9 {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!("{name} plan expected cost {cost:.6} exceeds unshared cost {unshared:.6}"),
            ));
        }
        let occurring = vec![true; problem.query_count()];
        let (results, _) = plan.evaluate(&op, &leaves, &occurring);
        for (i, result) in results.iter().enumerate() {
            let got = ranked_ids(result.as_ref().expect("occurring query evaluated"));
            if got != expected[i] {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "{name} plan: phrase {} top-{k} is {:?} but the oracle scan \
                         gives {:?}",
                        kept[i], got, expected[i]
                    ),
                ));
            }
        }
    }

    // The CSE baseline: left-deep parse trees, shared only syntactically
    // (under A3+A4 canonicalization), evaluated with the same operator.
    let exprs: Vec<Expr> = problem
        .queries
        .iter()
        .map(|set| Expr::chain(&set.iter().collect::<Vec<usize>>()))
        .collect();
    let cse = cse_plan(&exprs, AxiomSet::A3.with(AxiomSet::A4));
    let roots = eval_cse(&cse, &op, &leaves);
    for (i, root) in roots.iter().enumerate() {
        let got = ranked_ids(root);
        if got != expected[i] {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!(
                    "cse baseline: phrase {} top-{k} is {:?} but the oracle scan gives {:?}",
                    kept[i], got, expected[i]
                ),
            ));
        }
    }
    Ok(())
}

/// Seed-only wrapper for [`check_plan_paths_with`].
pub fn check_plan_paths(seed: u64) -> Result<(), Divergence> {
    check_plan_paths_with(&gen::workload_config(seed, Profile::Separable), seed)
}

/// Differential check of the production planner against the paper's
/// literal Section II-D loop ([`reference_plan`]): the plan the engine
/// compiles must be valid, complete (every query bound to a node with
/// exactly its variable set), and its expected cost within
/// [`REFERENCE_COST_SLACK`] of the literal loop's.
pub fn check_plan_vs_reference_with(cfg: &WorkloadConfig, seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "plan-vs-reference";
    let w = Workload::generate(cfg);
    let (problem, _kept) = gen::plan_problem_nonempty(&w);
    if problem.query_count() == 0 {
        return Ok(());
    }
    let plan = SharedPlanner::full().plan(&problem);
    if let Err(why) = check_complete(&plan, &problem) {
        return Err(Divergence::new(CHECK, seed, why));
    }
    let cost = expected_cost(&plan, &problem.search_rates);
    let ref_cost = expected_cost(&reference_plan(&problem), &problem.search_rates);
    if cost > ref_cost * (1.0 + REFERENCE_COST_SLACK) + 1e-9 {
        return Err(Divergence::new(
            CHECK,
            seed,
            format!(
                "expected cost {cost} is more than {REFERENCE_COST_SLACK} above the \
                 literal Section II-D loop's {ref_cost}"
            ),
        ));
    }
    Ok(())
}

/// Seed-only wrapper for [`check_plan_vs_reference_with`].
pub fn check_plan_vs_reference(seed: u64) -> Result<(), Divergence> {
    check_plan_vs_reference_with(&gen::workload_config(seed, Profile::Separable), seed)
}

/// Static differential check of the shared-sort machinery: the quadratic
/// and the bucketed planners, each resolved per phrase with the Threshold
/// Algorithm, against the naive full scan and the oracle.
pub fn check_shared_sort_with(cfg: &WorkloadConfig, seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "shared-sort";
    let w = Workload::generate(cfg);
    let n = w.advertiser_count();
    let interest = gen::interest_sets(&w);
    let rates = w.search_rates();
    let bids: Vec<Money> = w.advertisers.iter().map(|a| a.bid).collect();
    let k = 3usize;

    let c_orders: Vec<Vec<(AdvertiserId, f64)>> = (0..w.phrase_count())
        .map(|q| {
            let phrase = PhraseId::from_index(q);
            let mut order: Vec<(AdvertiserId, f64)> = w.interest[q]
                .iter()
                .map(|&a| (a, w.phrase_factor(phrase, a).expect("interested")))
                .collect();
            order.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            order
        })
        .collect();

    let expected: Vec<Vec<(AdvertiserId, Score)>> = (0..w.phrase_count())
        .map(|q| {
            let phrase = PhraseId::from_index(q);
            naive_top_k(
                &w.interest[q],
                |a| bids[a.index()],
                |a| w.phrase_factor(phrase, a).unwrap_or(0.0),
                k,
            )
        })
        .collect();
    // Cross-check the naive scan itself against the oracle's full ranking.
    for (q, exp) in expected.iter().enumerate() {
        let ranking = oracle::phrase_ranking(&w, PhraseId::from_index(q), &bids);
        let prefix: Vec<AdvertiserId> = ranking.into_iter().take(exp.len()).collect();
        let got: Vec<AdvertiserId> = exp.iter().map(|&(a, _)| a).collect();
        if got != prefix {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!("naive scan and oracle ranking disagree on phrase {q}"),
            ));
        }
    }

    let plans: [(&str, SortPlan); 2] = [
        ("greedy", build_shared_sort_plan(n, &interest, &rates)),
        (
            "bucketed",
            build_shared_sort_plan_bucketed(n, &interest, &rates),
        ),
    ];
    for (name, plan) in &plans {
        // The sort planners are heuristics: greedy merging plus the
        // smallest-first completion phase can exceed the *balanced-tree*
        // unshared baseline on adversarial overlap patterns, so unlike
        // aggregation plans there is no `cost ≤ unshared` guarantee to
        // assert. What is guaranteed: the cost model is finite,
        // non-negative, and zero exactly when no phrase needs a merge.
        let cost = plan.expected_cost(&rates);
        let unshared = SortPlan::unshared_expected_cost(&interest, &rates);
        if !cost.is_finite() || cost < 0.0 || !unshared.is_finite() || unshared < 0.0 {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!(
                    "{name} sort plan has malformed expected cost {cost} (unshared {unshared})"
                ),
            ));
        }
        if unshared == 0.0 && cost > 0.0 {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!("{name} sort plan costs {cost} on a workload with no merges to do"),
            ));
        }
        let (mut net, roots) = plan.instantiate(&bids);
        for q in 0..w.phrase_count() {
            let phrase = PhraseId::from_index(q);
            let outcome = threshold_top_k(
                &mut net,
                roots[q],
                &c_orders[q],
                |a| bids[a.index()],
                |a| w.phrase_factor(phrase, a).unwrap_or(0.0),
                k,
            );
            if outcome.top_k != expected[q] {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "{name} plan, TA on phrase {q}: got {:?}, naive scan {:?}",
                        outcome.top_k, expected[q]
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Seed-only wrapper for [`check_shared_sort_with`].
pub fn check_shared_sort(seed: u64) -> Result<(), Divergence> {
    check_shared_sort_with(&gen::workload_config(seed, Profile::NonSeparable), seed)
}

/// Differential check of the *persistent* shared-sort network: an engine
/// running `SharedSort` for several rounds — its merge network built once
/// and refreshed in place via run rebuilds and dirty-cone invalidation —
/// must be bit-identical to evaluating every round on a freshly
/// instantiated network. Per round: same slot assignments, same total TA
/// sorted-access stages, and every fresh node cache a prefix of the
/// persistent node cache (the persistent network may retain *deeper*
/// sorted prefixes from earlier rounds, but never different ones). A
/// run leaf's cache is its popped prefix, so the property covers the
/// fragment runs as well as the merge nodes above them. The persistent
/// network diffs only the runs under the round's occurring phrases, so
/// elsewhere its runs may hold bids from earlier rounds; the prefix
/// property still holds at every node because a fresh network fills
/// only occurring cones, where both networks hold this round's bids.
/// Exercised under both throttling policies (tight budgets make
/// effective bids actually churn between rounds).
pub fn check_sort_persistent_with(cfg: &WorkloadConfig, seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "sort-persistent";
    let w = Workload::generate(cfg);
    let n = w.advertiser_count();
    let interest = gen::interest_sets(&w);
    let rates = w.search_rates();
    // The same plan the engine compiles for SharedSort; instantiate()
    // numbers network nodes identically to the plan, so node `v` of a
    // fresh network and entry `v` of `sort_cached_streams()` are the same
    // operator.
    let plan = build_shared_sort_plan_bucketed(n, &interest, &rates);
    let c_orders: Vec<Vec<(AdvertiserId, f64)>> = (0..w.phrase_count())
        .map(|q| {
            let phrase = PhraseId::from_index(q);
            let mut order: Vec<(AdvertiserId, f64)> = w.interest[q]
                .iter()
                .map(|&a| (a, w.phrase_factor(phrase, a).expect("interested")))
                .collect();
            order.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            order
        })
        .collect();

    for policy in [BudgetPolicy::ThrottleExact, BudgetPolicy::ThrottleBounds] {
        let ec = engine_config(SharingStrategy::SharedSort, policy, seed);
        let k = ec.slot_factors.len();
        let mut engine = Engine::new(w.clone(), ec);
        let label = format!("{policy:?}");
        for round in 0..ROUNDS {
            let stages_before = engine.metrics().ta_stages;
            let outcomes = engine.run_round();
            let persistent_stages = engine.metrics().ta_stages - stages_before;
            let bids = engine.last_effective_bids().to_vec();

            // Fresh-per-round reference: instantiate from scratch on
            // this round's effective bids and resolve the same
            // occurring phrases, ranking `k + 1` as every resolver does
            // (the assignment carries the runner-up).
            let (mut fresh, roots) = plan.instantiate(&bids);
            let mut fresh_stages = 0u64;
            for o in &outcomes {
                let q = o.phrase.index();
                let ranked = if roots[q] == usize::MAX {
                    Vec::new()
                } else {
                    let outcome = threshold_top_k(
                        &mut fresh,
                        roots[q],
                        &c_orders[q],
                        |a| bids[a.index()],
                        |a| w.phrase_factor(o.phrase, a).unwrap_or(0.0),
                        k + 1,
                    );
                    fresh_stages += outcome.stages as u64;
                    outcome.top_k
                };
                let expected = assignment_from_ranking(&ranked, k);
                if o.assignment != expected {
                    return Err(Divergence::new(
                        CHECK,
                        seed,
                        format!(
                            "[{label}] round {round} phrase {}: persistent network \
                                 assigned {:?}, fresh network {expected:?}",
                            o.phrase, o.assignment
                        ),
                    ));
                }
            }
            if persistent_stages != fresh_stages {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "[{label}] round {round}: persistent TA ran {persistent_stages} \
                             stages, fresh TA {fresh_stages}"
                    ),
                ));
            }

            // Cache contents: whatever the fresh evaluation merged,
            // the persistent network must hold bit-identically as a
            // prefix of its (possibly deeper) cache.
            let persistent = engine
                .sort_cached_streams()
                .expect("SharedSort engine has a network after a round");
            for (v, p) in persistent.iter().enumerate().take(plan.node_count()) {
                let f = fresh.cached(v);
                if p.len() < f.len() || p[..f.len()] != f[..] {
                    return Err(Divergence::new(
                        CHECK,
                        seed,
                        format!(
                            "[{label}] round {round} node {v}: fresh cache of \
                                 {} items is not a prefix of persistent cache of {} items",
                            f.len(),
                            p.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Seed-only wrapper for [`check_sort_persistent_with`].
pub fn check_sort_persistent(seed: u64) -> Result<(), Divergence> {
    check_sort_persistent_with(&gen::workload_config(seed, Profile::TightBudgets), seed)
}

/// Differential check of per-phrase hybrid routing on a mixed workload
/// (part separable, part jittered), under both routing modes. The route
/// is a pure function of workload and config: the one a fresh engine
/// shows before round 0 must hold after every round of every engine; it
/// may plan-route only separable phrases; and under
/// `RoutingMode::Static` it is exactly the separability map. A `Hybrid`
/// engine must be *bit-identical* to a pure `SharedSort` engine — same
/// outcomes every round, same effective bids, same budget snapshots —
/// and survive a naive-oracle replay of every round, under both
/// throttling policies. Every round is additionally replayed statically
/// over the engine's route: plan-routed phrases against a fresh
/// shared-aggregation evaluation over the plan side, sort-routed phrases
/// against a freshly instantiated subset sort network.
pub fn check_hybrid_routing_with(cfg: &WorkloadConfig, seed: u64) -> Result<(), Divergence> {
    let w = Workload::generate(cfg);
    for routing in [RoutingMode::Static, RoutingMode::Adaptive] {
        check_hybrid_route(&w, routing, seed)?;
    }
    Ok(())
}

/// [`check_hybrid_routing_with`] under one routing mode.
fn check_hybrid_route(w: &Workload, routing: RoutingMode, seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "hybrid-routing";
    let n = w.advertiser_count();
    let m = w.phrase_count();
    let hybrid_config = |policy| EngineConfig {
        routing,
        ..engine_config(SharingStrategy::Hybrid, policy, seed)
    };

    // The route is fixed at construction: read it off a fresh engine and
    // hold every engine below to it.
    let plan_route: Vec<bool> = Engine::new(w.clone(), hybrid_config(BudgetPolicy::ThrottleExact))
        .hybrid_plan_route()
        .expect("hybrid engine has a route")
        .to_vec();
    let separable: Vec<bool> = (0..m).map(|q| w.phrase_is_separable(q)).collect();
    if let Some(q) = (0..m).find(|&q| plan_route[q] && !separable[q]) {
        return Err(Divergence::new(
            CHECK,
            seed,
            format!("[{routing:?}] non-separable phrase {q} is routed to the plan"),
        ));
    }
    if routing == RoutingMode::Static && plan_route != separable {
        return Err(Divergence::new(
            CHECK,
            seed,
            format!(
                "[{routing:?}] engine routing table disagrees with the workload's \
                 separability map: {plan_route:?} vs {separable:?}"
            ),
        ));
    }
    let route_holds = |engine: &Engine, label: &str, when: &str| {
        let routed = engine
            .hybrid_plan_route()
            .expect("hybrid engine has a route");
        if routed == plan_route.as_slice() {
            Ok(())
        } else {
            Err(Divergence::new(
                CHECK,
                seed,
                format!(
                    "[{label}] {when} the route is {routed:?}, not a fresh engine's \
                     {plan_route:?}"
                ),
            ))
        }
    };

    // Static-replay material over each phrase subset, mirroring what the
    // hybrid engine compiles at construction.
    let rates = w.search_rates();
    let interest = gen::interest_sets(w);
    let mut query_index: Vec<Option<usize>> = vec![None; m];
    let mut queries = Vec::new();
    let mut query_rates = Vec::new();
    for q in 0..m {
        if plan_route[q] && !interest[q].is_empty() {
            query_index[q] = Some(queries.len());
            queries.push(interest[q].clone());
            query_rates.push(rates[q]);
        }
    }
    let plan_dag = (!queries.is_empty())
        .then(|| SharedPlanner::full().plan(&PlanProblem::new(n, queries, Some(query_rates))));
    let sort_interest: Vec<BitSet> = interest
        .iter()
        .enumerate()
        .map(|(q, set)| {
            if plan_route[q] {
                BitSet::new(n)
            } else {
                set.clone()
            }
        })
        .collect();
    let sort_plan = build_shared_sort_plan_bucketed(n, &sort_interest, &rates);
    let c_orders: Vec<Vec<(AdvertiserId, f64)>> = (0..m)
        .map(|q| {
            if plan_route[q] {
                return Vec::new();
            }
            let phrase = PhraseId::from_index(q);
            let mut order: Vec<(AdvertiserId, f64)> = w.interest[q]
                .iter()
                .map(|&a| (a, w.phrase_factor(phrase, a).expect("interested")))
                .collect();
            order.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            order
        })
        .collect();

    for policy in [BudgetPolicy::ThrottleExact, BudgetPolicy::ThrottleBounds] {
        let ec = hybrid_config(policy);
        let k = ec.slot_factors.len();
        let mut hybrid = Engine::new(w.clone(), ec);
        let mut reference = Engine::new(
            w.clone(),
            engine_config(SharingStrategy::SharedSort, policy, seed),
        );
        let label = format!("{routing:?}/{policy:?}");
        route_holds(&hybrid, &label, "before round 0")?;

        for round in 0..ROUNDS {
            let snapshots = hybrid.budget_snapshots();
            let hybrid_out = hybrid.run_round();
            route_holds(&hybrid, &label, &format!("after round {round}"))?;
            oracle_check_round(CHECK, w, &hybrid, &snapshots, &hybrid_out, seed, round)?;
            let ref_out = reference.run_round();
            if hybrid_out.len() != ref_out.len()
                || hybrid_out
                    .iter()
                    .zip(&ref_out)
                    .any(|(a, b)| a.phrase != b.phrase)
            {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "[{label}] round {round}: occurring phrase sets differ \
                             (hybrid {:?}, shared-sort {:?})",
                        hybrid_out.iter().map(|o| o.phrase).collect::<Vec<_>>(),
                        ref_out.iter().map(|o| o.phrase).collect::<Vec<_>>()
                    ),
                ));
            }
            for (a, b) in hybrid_out.iter().zip(&ref_out) {
                if a.assignment != b.assignment {
                    return Err(Divergence::new(
                        CHECK,
                        seed,
                        format!(
                            "[{label}] round {round} phrase {} ({}-routed): hybrid \
                                 assigned {:?}, shared-sort {:?}",
                            a.phrase,
                            if plan_route[a.phrase.index()] {
                                "plan"
                            } else {
                                "sort"
                            },
                            a.assignment,
                            b.assignment
                        ),
                    ));
                }
            }
            if hybrid.last_effective_bids() != reference.last_effective_bids() {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!("[{label}] round {round}: effective bids differ"),
                ));
            }

            // Static replay on this round's (exact) effective bids:
            // both throttling policies compute full exact bids on the
            // non-unshared paths, so an independent evaluation over
            // each subset must reproduce the routed assignments.
            let bids = hybrid.last_effective_bids().to_vec();
            let plan_results = plan_dag.as_ref().map(|dag| {
                let op = ScoredTopKOp { k: k + 1 };
                let leaves: Vec<KList<ScoredAd>> = w
                    .advertisers
                    .iter()
                    .enumerate()
                    .map(|(i, adv)| {
                        KList::singleton(
                            k + 1,
                            ScoredAd::new(adv.id, Score::expected_value(bids[i], adv.base_factor)),
                        )
                    })
                    .collect();
                let mut flags = vec![false; dag.query_count()];
                for o in &hybrid_out {
                    if let Some(qi) = query_index[o.phrase.index()] {
                        flags[qi] = true;
                    }
                }
                dag.evaluate(&op, &leaves, &flags).0
            });
            let (mut fresh, roots) = sort_plan.instantiate(&bids);
            for o in &hybrid_out {
                let q = o.phrase.index();
                let ranked: Vec<(AdvertiserId, Score)> = if plan_route[q] {
                    query_index[q]
                        .and_then(|qi| plan_results.as_ref()?[qi].as_ref())
                        .map(|list| {
                            list.items()
                                .iter()
                                .map(|s| (s.advertiser, s.score))
                                .collect()
                        })
                        .unwrap_or_default()
                } else if roots[q] == usize::MAX {
                    Vec::new()
                } else {
                    threshold_top_k(
                        &mut fresh,
                        roots[q],
                        &c_orders[q],
                        |a| bids[a.index()],
                        |a| w.phrase_factor(o.phrase, a).unwrap_or(0.0),
                        k + 1,
                    )
                    .top_k
                };
                let want = assignment_from_ranking(&ranked, k);
                if o.assignment != want {
                    return Err(Divergence::new(
                        CHECK,
                        seed,
                        format!(
                            "[{label}] round {round} phrase {} ({}-routed): hybrid \
                                 assigned {:?}, static subset replay gives {want:?}",
                            o.phrase,
                            if plan_route[q] { "plan" } else { "sort" },
                            o.assignment
                        ),
                    ));
                }
            }
        }

        if hybrid.budget_snapshots() != reference.budget_snapshots() {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!("[{label}] budget snapshots differ after {ROUNDS} rounds"),
            ));
        }
        let metrics = hybrid.metrics();
        if metrics.phrases_routed_unshared != 0
            || metrics.phrases_routed_plan + metrics.phrases_routed_sort != metrics.auctions
        {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!(
                    "[{label}] routing counters do not partition the {} auctions: \
                         plan {}, sort {}, unshared {}",
                    metrics.auctions,
                    metrics.phrases_routed_plan,
                    metrics.phrases_routed_sort,
                    metrics.phrases_routed_unshared
                ),
            ));
        }
    }
    Ok(())
}

/// Seed-only wrapper for [`check_hybrid_routing_with`].
pub fn check_hybrid_routing(seed: u64) -> Result<(), Divergence> {
    check_hybrid_routing_with(&gen::workload_config(seed, Profile::Mixed), seed)
}

/// Hoeffding-bound soundness over random budget states: at every
/// refinement depth the interval is well-formed, contains the exact
/// convolution value, and never widens; at full depth it pins the value;
/// and bound-based comparisons agree with exact comparisons.
pub fn check_budget_bounds(seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "budget-bounds";
    let contexts: Vec<_> = (0..6u64)
        .map(|i| gen::budget_context(seed.wrapping_mul(131).wrapping_add(i)))
        .collect();
    for (i, c) in contexts.iter().enumerate() {
        let exact = c.throttled_bid_exact().micros() as f64;
        let slack = BOUND_SLACK_MICROS as f64;
        let r = c.refiner();
        let mut prev_width = f64::INFINITY;
        for depth in 0..=r.max_depth() {
            let b = r.bounds(depth);
            if b.lo() > b.hi() {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "context {i} depth {depth}: interval inverted [{}, {}]",
                        b.lo(),
                        b.hi()
                    ),
                ));
            }
            if !(b.lo() - slack <= exact && exact <= b.hi() + slack) {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "context {i} depth {depth}: exact throttled bid {exact} outside \
                         bound [{}, {}]",
                        b.lo(),
                        b.hi()
                    ),
                ));
            }
            if b.width() > prev_width + 1e-6 {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "context {i} depth {depth}: refinement widened the bound \
                         ({} > {prev_width})",
                        b.width()
                    ),
                ));
            }
            prev_width = b.width();
        }
        let via_bounds = r.exact().micros() as i64;
        if (via_bounds - exact as i64).abs() > 1 {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!(
                    "context {i}: full-depth bounds give {via_bounds} micros, \
                     convolution gives {exact}"
                ),
            ));
        }
    }
    // Pairwise: lazy comparison must agree with exact ordering whenever
    // the exact values are not a rounding-level tie.
    for i in 0..contexts.len() {
        for j in (i + 1)..contexts.len() {
            let (a, b) = (&contexts[i], &contexts[j]);
            let ea = a.throttled_bid_exact().micros();
            let eb = b.throttled_bid_exact().micros();
            if ea.abs_diff(eb) <= BOUND_SLACK_MICROS {
                continue;
            }
            let out = compare_throttled(&a.refiner(), &b.refiner());
            if out.ordering != ea.cmp(&eb) {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    format!(
                        "contexts {i} vs {j}: lazy comparison says {:?} but exact \
                         micros are {ea} vs {eb}",
                        out.ordering
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Algebra axioms A1–A5 for the k-list and Bloom-filter merge operators,
/// on randomized samples: every *declared* axiom must hold on all sample
/// combinations, A5 must not be declared for either semilattice, and a
/// concrete witness shows divisibility genuinely fails for top-k.
pub fn check_algebra(seed: u64) -> Result<(), Divergence> {
    const CHECK: &str = "algebra";
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa19e_b5a5);
    for k in 1..=3usize {
        let op = ScoredTopKOp { k };
        let samples: Vec<KList<ScoredAd>> =
            (0..6).map(|_| gen::scored_klist(&mut rng, k)).collect();
        let report = check_axioms(&op, &samples);
        if !report.ok() {
            return Err(Divergence::new(
                CHECK,
                seed,
                format!("top-{k} axioms violated: {:?}", report.violations),
            ));
        }
        if op.axioms().divisible() {
            return Err(Divergence::new(
                CHECK,
                seed,
                "top-k must not declare divisibility (A5)",
            ));
        }
    }
    // A5 witness: with k = 1, merging can only keep the maximum, so
    // `hi ⊕ c = lo` has no solution when lo < hi — divisibility fails.
    let op1 = ScoredTopKOp { k: 1 };
    let hi = KList::singleton(
        1,
        ScoredAd::new(AdvertiserId::from_index(0), Score::new(9.0)),
    );
    let lo = KList::singleton(
        1,
        ScoredAd::new(AdvertiserId::from_index(1), Score::new(1.0)),
    );
    let mut witnesses: Vec<KList<ScoredAd>> =
        (0..8).map(|_| gen::scored_klist(&mut rng, 1)).collect();
    witnesses.push(lo.clone());
    if witnesses.iter().any(|c| op1.combine(&hi, c) == lo) {
        return Err(Divergence::new(
            CHECK,
            seed,
            "top-1 merge solved hi ⊕ c = lo with lo < hi — merge is not keeping the max",
        ));
    }

    let bloom_op = BloomUnionOp {
        m_bits: 128,
        hashes: 3,
    };
    let samples: Vec<_> = (0..6)
        .map(|_| gen::bloom_filter(&mut rng, 128, 3))
        .collect();
    let report = check_axioms(&bloom_op, &samples);
    if !report.ok() {
        return Err(Divergence::new(
            CHECK,
            seed,
            format!("bloom-union axioms violated: {:?}", report.violations),
        ));
    }
    if bloom_op.axioms().divisible() {
        return Err(Divergence::new(
            CHECK,
            seed,
            "bloom-union must not declare divisibility (A5)",
        ));
    }
    // Intersection is a semilattice too (no practical identity): check
    // A1/A3/A4 directly.
    for a in &samples {
        if a.intersection(a) != *a {
            return Err(Divergence::new(
                CHECK,
                seed,
                "bloom-intersection not idempotent",
            ));
        }
        for b in &samples {
            if a.intersection(b) != b.intersection(a) {
                return Err(Divergence::new(
                    CHECK,
                    seed,
                    "bloom-intersection not commutative",
                ));
            }
            for c in &samples {
                if a.intersection(b).intersection(c) != a.intersection(&b.intersection(c)) {
                    return Err(Divergence::new(
                        CHECK,
                        seed,
                        "bloom-intersection not associative",
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_is_clean_on_a_few_seeds() {
        for seed in [0u64, 1, 2] {
            let ds = run_all(seed);
            assert!(ds.is_empty(), "seed {seed}: {:?}", ds);
        }
    }

    #[test]
    fn divergence_display_carries_the_seed() {
        let d = Divergence::new("demo", 42, "something diverged");
        let s = d.to_string();
        assert!(s.contains("seed 42"));
        assert!(s.contains("--seed 42"));
    }
}
