//! The paper's deterministic quantities — Figure 4, Figure 5 and the prose
//! claims EXPERIMENTS.md reproduces — each rendered as the text of one
//! [`Table`].
//!
//! Every figure is a pure function of its `quick` flag: fixed seeds, counts
//! and model costs, no clock. `experiments figures [--quick]` writes each
//! to `golden/{quick,full}/<id>.txt` under this crate, and the
//! `figures_golden` test regenerates the quick set and compares it byte for
//! byte, so a change that moves a paper number shows it in its diff.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::money::Money;
use ssa_core::algebra::expr::Expr;
use ssa_core::algebra::{fig5_complexity, AxiomSet, PlanComplexity};
use ssa_core::budget::{compare_throttled, BudgetContext, OutstandingAd};
use ssa_core::engine::gaming::run_gaming_comparison;
use ssa_core::engine::{BudgetPolicy, Engine, EngineConfig, SharingStrategy};
use ssa_core::plan::cost::{expected_cost, unshared_expected_cost};
use ssa_core::plan::cse::cse_plan;
use ssa_core::plan::optimal::optimal_plan_with_budget;
use ssa_core::plan::reduction::{closed_plan_problem_from_set_cover, min_plan_cover};
use ssa_core::plan::{PlanProblem, PlannerMode, SharedPlanner};
use ssa_core::sort::planner::{build_shared_sort_plan, build_shared_sort_plan_bucketed, SortPlan};
use ssa_core::sort::ta::threshold_top_k;
use ssa_setcover::{BitSet, SetCoverInstance};
use ssa_stats::bernoulli_sum::{BernoulliSum, Term};
use ssa_stats::hoeffding::Clamp;
use ssa_stats::refine::Refiner;
use ssa_testkit::plan_oracle::reference_plan;
use ssa_workload::arrivals::{batch, batching_stats, poisson_stream};
use ssa_workload::scenarios::hiking_boots_high_heels;
use ssa_workload::{Workload, WorkloadConfig};

use crate::setups::{fig4_problem, interest_sets, sweep_workload, workload_problem};
use crate::Table;

/// A figure: its rendered table at the quick (`true`) or full size.
pub type Figure = fn(bool) -> String;

/// Every figure, by golden-file id, in the order EXPERIMENTS.md cites them.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig4", fig4),
    ("fig5", fig5),
    ("overlap", overlap),
    ("sharing_sweep", sharing_sweep),
    ("shared_sort", shared_sort),
    ("gaming", gaming),
    ("bounds", bounds),
    ("ablation", ablation),
    ("batching", batching),
    ("clamps", clamps),
    ("sort_ablation", sort_ablation),
];

/// Where the golden files of the quick or full figure set live.
pub fn golden_dir(quick: bool) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(if quick { "quick" } else { "full" })
}

/// Figure 4: "Expected cost of plan vs query probability" — 10 coin-flip
/// top-k queries over 20 advertisers, duplicates discarded; we sweep the
/// uniform search rate and average over seeds, reporting the production
/// planner's expected cost alongside the fragments-only and unshared
/// baselines and — at the four rows EXPERIMENTS.md tabulates — the
/// paper's literal Section II-D loop (~0.2 s a plan at this size).
/// Asserts the figure's shape: shared below unshared, savings monotone in
/// `sr`.
pub fn fig4(quick: bool) -> String {
    let seeds: u64 = if quick { 5 } else { 25 };
    let mut table = Table::new(
        "fig4",
        "expected plan cost vs query probability (10 queries, 20 advertisers)",
        &[
            "sr",
            "shared(full)",
            "shared(II-D literal)",
            "shared(fragments)",
            "unshared",
            "savings%",
        ],
    );
    let mut last_savings = 0.0;
    for step in 0..=20 {
        let sr = step as f64 / 20.0;
        let with_reference = step > 0 && step % 5 == 0;
        let (mut full_acc, mut ref_acc, mut frag_acc, mut unshared_acc) = (0.0, 0.0, 0.0, 0.0);
        for seed in 0..seeds {
            let problem = fig4_problem(20, 10, sr, seed);
            let full = SharedPlanner::full().plan(&problem);
            let frag = SharedPlanner::fragments_only().plan(&problem);
            full_acc += expected_cost(&full, &problem.search_rates);
            frag_acc += expected_cost(&frag, &problem.search_rates);
            unshared_acc += unshared_expected_cost(&problem);
            if with_reference {
                ref_acc += expected_cost(&reference_plan(&problem), &problem.search_rates);
            }
        }
        let n = seeds as f64;
        let (full, frag, unshared) = (full_acc / n, frag_acc / n, unshared_acc / n);
        let savings = if unshared > 0.0 {
            100.0 * (1.0 - full / unshared)
        } else {
            0.0
        };
        assert!(
            full <= unshared + 1e-9,
            "sr={sr}: shared {full} above unshared {unshared}"
        );
        assert!(
            savings >= last_savings - 1e-9,
            "sr={sr}: savings fell from {last_savings}% to {savings}%"
        );
        last_savings = savings;
        table.push(vec![
            format!("{sr:.2}"),
            format!("{full:.2}"),
            if with_reference {
                format!("{:.2}", ref_acc / n)
            } else {
                "-".into()
            },
            format!("{frag:.2}"),
            format!("{unshared:.2}"),
            format!("{savings:.1}"),
        ]);
    }
    table.render()
}

/// Figure 5: the complexity of optimal plan sharing per axiom class, with
/// executable evidence per row:
/// * PTIME rows — CSE plan size at doubling input sizes;
/// * O(1) rows — degenerate algebra, zero-cost plans;
/// * NP-complete rows — exact-search behaviour on set-cover reduction
///   instances, where the Theorem 3 identity `total = |E| + (c* − 2)`
///   holds.
pub fn fig5(quick: bool) -> String {
    let rows: Vec<(&str, AxiomSet)> = vec![
        ("N * * * N", AxiomSet::NONE),
        ("N N N * Y", AxiomSet::A5),
        ("N Y N * Y", AxiomSet::A2.with(AxiomSet::A5)),
        ("N N Y * Y", AxiomSet::A3.with(AxiomSet::A5)),
        (
            "N Y Y * Y",
            AxiomSet::A2.with(AxiomSet::A3).with(AxiomSet::A5),
        ),
        ("Y * N Y N", AxiomSet::A1.with(AxiomSet::A4)),
        (
            "Y * N Y Y",
            AxiomSet::A1
                .with(AxiomSet::A2)
                .with(AxiomSet::A4)
                .with(AxiomSet::A5),
        ),
        ("Y * Y Y N", AxiomSet::SEMILATTICE_WITH_IDENTITY),
        (
            "Y * Y * Y",
            AxiomSet::A1.with(AxiomSet::A3).with(AxiomSet::A5),
        ),
    ];
    let mut table = Table::new(
        "fig5",
        "complexity of optimal shared aggregation per axiom class",
        &["axioms", "structure", "class", "evidence"],
    );
    for (pattern, axioms) in rows {
        let class = fig5_complexity(axioms);
        let evidence = match class {
            PlanComplexity::Ptime => ptime_evidence(axioms, quick),
            PlanComplexity::Constant => constant_evidence(axioms),
            PlanComplexity::NpComplete => np_evidence(quick),
            PlanComplexity::Open => "open in the paper".to_string(),
        };
        table.push(vec![
            pattern.to_string(),
            axioms.structure_name().to_string(),
            format!("{class:?}"),
            evidence,
        ]);
    }
    table.render()
}

/// Size evidence that the CSE planner is polynomial: one hash-cons pass
/// emits at most one ⊕ node per input subexpression, so the plan grows no
/// faster than its input.
fn ptime_evidence(axioms: AxiomSet, quick: bool) -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let sizes: &[usize] = if quick { &[200, 400] } else { &[500, 2000] };
    let nodes: Vec<usize> = sizes
        .iter()
        .map(|&n| {
            // n random expressions over 32 variables, each a random chain.
            let exprs: Vec<Expr> = (0..n)
                .map(|_| {
                    let len = rng.random_range(2..10usize);
                    let vars: Vec<usize> = (0..len).map(|_| rng.random_range(0..32)).collect();
                    Expr::chain(&vars)
                })
                .collect();
            cse_plan(&exprs, axioms).total_cost()
        })
        .collect();
    format!(
        "CSE planner: {}x input -> {:.1}x plan nodes (poly)",
        sizes[1] / sizes[0],
        nodes[1] as f64 / nodes[0] as f64
    )
}

/// Degeneracy evidence: all expressions collapse, zero plan cost.
fn constant_evidence(axioms: AxiomSet) -> String {
    assert!(axioms.is_degenerate());
    let exprs = vec![
        Expr::chain(&[0, 1, 2, 3]),
        Expr::chain(&[4, 5]),
        Expr::chain(&[0, 5, 2]),
    ];
    let plan = cse_plan(&exprs, axioms);
    format!(
        "degenerate algebra: {} queries, {} plan nodes",
        exprs.len(),
        plan.total_cost()
    )
}

/// Exact-search behaviour + Theorem 3 identity on reduction instances.
fn np_evidence(quick: bool) -> String {
    let mut rng = StdRng::seed_from_u64(13);
    let sizes: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8] };
    let mut detail = Vec::new();
    for &u in sizes {
        // Random coverable set-cover instance over a universe of size u.
        let mut sets = Vec::new();
        let mut covered = BitSet::new(u);
        for _ in 0..u {
            let a = rng.random_range(0..u);
            let b = rng.random_range(0..u);
            let s = BitSet::from_elements(u, [a, b, (a + 1) % u]);
            covered.union_with(&s);
            sets.push(s);
        }
        if covered.len() < u {
            for missing in BitSet::full(u).difference(&covered).iter() {
                sets.push(BitSet::from_elements(u, [missing, (missing + 1) % u]));
            }
        }
        let inst = SetCoverInstance::new(u, sets);
        let problem = closed_plan_problem_from_set_cover(&inst);
        let budget = 5_000_000u64;
        match optimal_plan_with_budget(&problem, budget) {
            Some(opt) => {
                let c_star = min_plan_cover(&problem).expect("coverable");
                let identity = opt.total_cost == problem.query_count() + c_star.max(2) - 2;
                detail.push(format!("|U|={u}: cost={} id={identity}", opt.total_cost));
            }
            None => detail.push(format!("|U|={u}: >{budget} nodes")),
        }
    }
    format!("set-cover reduction: {}", detail.join("; "))
}

/// E4: the hiking-boots example and an overlap sweep, plus the real
/// planner's node count on the paper instance.
pub fn overlap(_quick: bool) -> String {
    let mut table = Table::new(
        "overlap",
        "advertisers scanned per round: shared fragments vs independent scans",
        &[
            "general", "sports", "fashion", "shared", "unshared", "savings%",
        ],
    );
    // The paper's exact instance first, then a sweep over the shared
    // block's size.
    let mut rows = vec![(200usize, 40usize, 30usize)];
    for general in [0usize, 50, 100, 150, 300] {
        rows.push((general, 40, 30));
    }
    for (general, sports, fashion) in rows {
        // Fragment-level scan counts, exactly the paper's arithmetic:
        // grouped scans general + sports + fashion; independent scans
        // (general+sports) + (general+fashion).
        let shared = general + sports + fashion;
        let unshared = (general + sports) + (general + fashion);
        let savings = 100.0 * (1.0 - shared as f64 / unshared as f64);
        table.push(vec![
            general.to_string(),
            sports.to_string(),
            fashion.to_string(),
            shared.to_string(),
            unshared.to_string(),
            format!("{savings:.1}"),
        ]);
    }

    let (hiking, heels) = hiking_boots_high_heels();
    let n = 270;
    let queries = vec![
        BitSet::from_elements(n, hiking.iter().map(|a| a.index())),
        BitSet::from_elements(n, heels.iter().map(|a| a.index())),
    ];
    let unshared_nodes = hiking.len() + heels.len() - 2;
    let plan = SharedPlanner::full().plan(&PlanProblem::new(n, queries, None));
    format!(
        "{}planner cross-check on the paper instance: {} aggregation nodes vs {unshared_nodes} unshared\n",
        table.render(),
        plan.total_cost(),
    )
}

/// E5: shared vs unshared winner-determination work across workload
/// scales, in the operation counts each strategy's cost model defines.
pub fn sharing_sweep(quick: bool) -> String {
    let rounds = if quick { 20 } else { 60 };
    let mut table = Table::new(
        "sharing_sweep",
        "winner-determination work per strategy (topic workload)",
        &[
            "n",
            "phrases",
            "topics",
            "strategy",
            "scans",
            "agg ops",
            "merge inv",
        ],
    );
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(500, 8, 4), (2000, 16, 4)]
    } else {
        &[(500, 8, 4), (2000, 16, 4), (10_000, 16, 4), (10_000, 32, 8)]
    };
    for &(n, m, t) in shapes {
        for sharing in [
            SharingStrategy::Unshared,
            SharingStrategy::SharedAggregation,
            SharingStrategy::SharedSort,
        ] {
            let mut engine = Engine::new(
                sweep_workload(n, m, t, 11),
                EngineConfig {
                    sharing,
                    budget_policy: BudgetPolicy::Ignore,
                    seed: 23,
                    // The sweep measures evaluation sharing, not plan
                    // quality, and spans up to 10k advertisers: stage-1
                    // fragments keep the per-size baselines comparable
                    // (see `planner-scaling` for planner build curves).
                    planner: PlannerMode::FragmentsOnly,
                    ..EngineConfig::default()
                },
            );
            let metrics = engine.run(rounds);
            table.push(vec![
                n.to_string(),
                m.to_string(),
                t.to_string(),
                format!("{sharing:?}"),
                metrics.advertisers_scanned.to_string(),
                metrics.aggregation_ops.to_string(),
                metrics.merge_invocations.to_string(),
            ]);
        }
    }
    table.render()
}

/// E6: shared sort + TA work vs independent full sorts, sweeping k.
pub fn shared_sort(quick: bool) -> String {
    let mut table = Table::new(
        "shared_sort",
        "shared merge network + TA vs independent sorts (jittered factors)",
        &[
            "k",
            "ta stages",
            "merge invocations",
            "full-scan baseline",
            "expected shared cost",
            "expected unshared cost",
        ],
    );
    let w = Workload::generate(&WorkloadConfig {
        advertisers: if quick { 400 } else { 2000 },
        phrases: 12,
        topics: 4,
        phrase_factor_jitter: 0.4,
        seed: 3,
        ..WorkloadConfig::default()
    });
    let n = w.advertiser_count();
    let rates = w.search_rates();
    let interest = interest_sets(&w);
    let plan = build_shared_sort_plan_bucketed(n, &interest, &rates);
    let shared_cost = plan.expected_cost(&rates);
    let unshared_cost = SortPlan::unshared_expected_cost(&interest, &rates);
    let bids: Vec<Money> = w.advertisers.iter().map(|a| a.bid).collect();
    let baseline: usize = w.interest.iter().map(Vec::len).sum();

    for k in [1usize, 2, 4, 8, 16, 20] {
        let (mut net, roots) = plan.instantiate(&bids);
        let mut stages = 0usize;
        #[allow(clippy::needless_range_loop)] // q indexes interest, factors, and roots
        for q in 0..w.phrase_count() {
            let phrase = PhraseId::from_index(q);
            let mut c_order: Vec<(AdvertiserId, f64)> = w.interest[q]
                .iter()
                .map(|&a| (a, w.phrase_factor(phrase, a).unwrap()))
                .collect();
            c_order.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            let outcome = threshold_top_k(
                &mut net,
                roots[q],
                &c_order,
                |a| bids[a.index()],
                |a| w.phrase_factor(phrase, a).unwrap_or(0.0),
                k,
            );
            stages += outcome.stages;
        }
        table.push(vec![
            k.to_string(),
            stages.to_string(),
            net.invocations().to_string(),
            baseline.to_string(),
            format!("{shared_cost:.0}"),
            format!("{unshared_cost:.0}"),
        ]);
    }
    table.render()
}

/// E7: the gaming demonstration across horizons.
pub fn gaming(quick: bool) -> String {
    let mut table = Table::new(
        "gaming",
        "naive vs throttled budget policies (identical workload and clicks)",
        &[
            "rounds",
            "policy",
            "revenue",
            "forgiven",
            "over-budget clicks",
            "clicks",
            "leak %",
        ],
    );
    let horizons: &[usize] = if quick {
        &[50, 100]
    } else {
        &[50, 100, 200, 400]
    };
    for &rounds in horizons {
        let report = run_gaming_comparison(2024, rounds);
        let leak = 100.0 * report.naive_leak_fraction();
        for p in [&report.naive, &report.throttled] {
            table.push(vec![
                rounds.to_string(),
                format!("{:?}", p.policy),
                p.revenue.to_string(),
                p.forgiven.to_string(),
                p.clicks_beyond_budget.to_string(),
                p.clicks.to_string(),
                if matches!(p.policy, BudgetPolicy::Ignore) {
                    format!("{leak:.1}")
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    table.render()
}

/// E8: bound-refinement efficiency — comparisons resolved per depth and
/// the work saved vs exact computation.
pub fn bounds(quick: bool) -> String {
    let mut table = Table::new(
        "bounds",
        "throttled-bid comparisons via refined Hoeffding bounds",
        &[
            "outstanding ads",
            "comparisons",
            "resolved@0",
            "resolved<=2",
            "mean depth",
            "mean bound leaves",
            "mean exact support",
        ],
    );
    let mut rng = StdRng::seed_from_u64(99);
    let sizes: &[usize] = if quick {
        &[4, 8, 12]
    } else {
        &[4, 8, 12, 16, 20]
    };
    let pool_size = if quick { 16 } else { 30 };
    for &l in sizes {
        // A realistic advertiser population: most budgets are healthy
        // (the throttle is inactive and bounds are exact at depth 0),
        // some are lightly loaded, a few are under real pressure. The
        // interesting comparisons are the cross-group ones, which is
        // where early termination pays.
        let pool: Vec<BudgetContext> = (0..pool_size)
            .map(|i| {
                let outstanding: Vec<OutstandingAd> = (0..l)
                    .map(|_| {
                        OutstandingAd::new(
                            Money::from_f64(rng.random_range(0.5..4.0)),
                            rng.random_range(0.05..0.95),
                        )
                    })
                    .collect();
                let budget = match i % 4 {
                    0 | 1 => rng.random_range(50.0..200.0), // healthy
                    2 => rng.random_range(8.0..20.0),       // loaded
                    _ => rng.random_range(1.0..6.0),        // tight
                };
                BudgetContext {
                    bid: Money::from_f64(rng.random_range(1.0..4.0)),
                    remaining_budget: Money::from_f64(budget),
                    auctions_in_round: rng.random_range(1..4),
                    outstanding,
                }
            })
            .collect();
        let mut comparisons = 0usize;
        let mut resolved0 = 0usize;
        let mut resolved2 = 0usize;
        let mut depth_acc = 0usize;
        let mut leaves_acc = 0u64;
        let mut support_acc = 0usize;
        for i in 0..pool.len() {
            for j in (i + 1)..pool.len() {
                let (a, b) = (&pool[i], &pool[j]);
                let out = compare_throttled(&a.refiner(), &b.refiner());
                comparisons += 1;
                if out.depth_used == 0 {
                    resolved0 += 1;
                }
                if out.depth_used <= 2 {
                    resolved2 += 1;
                }
                depth_acc += out.depth_used;
                leaves_acc += a.refiner().bounds_costed(out.depth_used).1
                    + b.refiner().bounds_costed(out.depth_used).1;
            }
            support_acc += pool[i]
                .debt_sum()
                .distribution_capped(pool[i].remaining_budget.micros())
                .support()
                .len();
        }
        let c = comparisons as f64;
        table.push(vec![
            l.to_string(),
            comparisons.to_string(),
            format!("{:.0}%", 100.0 * resolved0 as f64 / c),
            format!("{:.0}%", 100.0 * resolved2 as f64 / c),
            format!("{:.2}", depth_acc as f64 / c),
            format!("{:.0}", leaves_acc as f64 / c),
            format!("{:.0}", support_acc as f64 / pool.len() as f64),
        ]);
    }
    table.render()
}

/// E9: planner ablation against the exact optimum on small instances.
pub fn ablation(quick: bool) -> String {
    let mut table = Table::new(
        "ablation",
        "planner stages vs exact optimum (small instances, sr = 1)",
        &[
            "seed",
            "vars",
            "queries",
            "optimal",
            "full",
            "fragments",
            "full/opt",
        ],
    );
    let shapes: &[(usize, usize)] = if quick {
        &[(6, 3), (7, 3)]
    } else {
        &[(6, 3), (7, 3), (8, 3), (8, 4)]
    };
    for &(n, m) in shapes {
        for seed in 0..3u64 {
            let w = sweep_workload(n, m, 2, seed);
            let base = workload_problem(&w);
            let problem = PlanProblem::from_varsets(base.var_count, base.queries.clone(), None);
            let Some(opt) = optimal_plan_with_budget(&problem, 50_000_000) else {
                continue;
            };
            let full = SharedPlanner::full().plan(&problem);
            let frag = SharedPlanner::fragments_only().plan(&problem);
            table.push(vec![
                seed.to_string(),
                problem.var_count.to_string(),
                problem.query_count().to_string(),
                opt.total_cost.to_string(),
                full.total_cost().to_string(),
                frag.total_cost().to_string(),
                format!(
                    "{:.2}",
                    full.total_cost() as f64 / opt.total_cost.max(1) as f64
                ),
            ]);
        }
    }
    table.render()
}

/// E10b: the round-granularity tradeoff from the paper's introduction —
/// coarser rounds share more (queries per auction resolved) but add more
/// latency; the paper cites 2.2 s as the tolerated median.
pub fn batching(_quick: bool) -> String {
    let mut table = Table::new(
        "batching",
        "round granularity vs sharing and added latency (Poisson arrivals, 50 qps)",
        &[
            "window s",
            "rounds",
            "queries/auction",
            "mean added latency s",
            "max added latency s",
            "within 2.2s tolerance",
        ],
    );
    // A head-heavy phrase mix, as the workload generator produces.
    let weights: Vec<f64> = (0..24).map(|q| 1.0 / (q + 1) as f64).collect();
    let arrivals = poisson_stream(&weights, 50.0, 600.0, 17);
    for window in [0.1, 0.25, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0] {
        let stats = batching_stats(&batch(&arrivals, window));
        table.push(vec![
            format!("{window:.2}"),
            stats.rounds.to_string(),
            format!("{:.2}", stats.mean_queries_per_auction),
            format!("{:.3}", stats.mean_added_latency),
            format!("{:.3}", stats.max_added_latency),
            (stats.max_added_latency <= 2.2).to_string(),
        ]);
    }
    table.render()
}

/// Ablation: the paper-literal Hoeffding clamps vs the sound ones.
///
/// The paper's printed bounds clamp mid-range cases at 0.5; DESIGN.md
/// documents why that is unsound. This experiment quantifies the damage:
/// over random comparison pairs, how often does each variant's depth-0
/// verdict (when it claims separation) contradict the exact ordering?
pub fn clamps(quick: bool) -> String {
    let mut table = Table::new(
        "clamps",
        "paper-literal vs sound Hoeffding clamps: depth-0 verdicts vs exact",
        &[
            "outstanding ads",
            "pairs",
            "sound: decided@0",
            "sound: wrong",
            "literal: decided@0",
            "literal: wrong",
        ],
    );
    let mut rng = StdRng::seed_from_u64(7);
    let sizes: &[usize] = if quick { &[4, 8] } else { &[4, 8, 12] };
    let pairs = if quick { 150 } else { 400 };
    for &l in sizes {
        let mut stats = [(0usize, 0usize), (0usize, 0usize)]; // (decided, wrong)
        for _ in 0..pairs {
            let mk = |rng: &mut StdRng| {
                let terms: Vec<Term> = (0..l)
                    .map(|_| Term::new(rng.random_range(1..50u64), rng.random_range(0.05..0.95)))
                    .collect();
                (BernoulliSum::new(terms), rng.random_range(10.0..80.0f64))
            };
            let (sum_a, x_a) = mk(&mut rng);
            let (sum_b, x_b) = mk(&mut rng);
            // Compare Pr(S_a < x_a) vs Pr(S_b < x_b) at depth 0.
            let exact_a = sum_a.distribution().pr_less(x_a);
            let exact_b = sum_b.distribution().pr_less(x_b);
            let exact_ord = exact_a.total_cmp(&exact_b);
            for (variant, clamp) in [(0usize, Clamp::Sound), (1, Clamp::PaperLiteral)] {
                let ra = Refiner::new(sum_a.clone(), clamp);
                let rb = Refiner::new(sum_b.clone(), clamp);
                let ia = ra.pr_less(x_a, 0);
                let ib = rb.pr_less(x_b, 0);
                let verdict = if ia.strictly_below(ib) {
                    Some(std::cmp::Ordering::Less)
                } else if ib.strictly_below(ia) {
                    Some(std::cmp::Ordering::Greater)
                } else {
                    None
                };
                if let Some(v) = verdict {
                    stats[variant].0 += 1;
                    if v != exact_ord {
                        stats[variant].1 += 1;
                    }
                }
            }
        }
        table.push(vec![
            l.to_string(),
            pairs.to_string(),
            format!("{:.0}%", 100.0 * stats[0].0 as f64 / pairs as f64),
            stats[0].1.to_string(),
            format!("{:.0}%", 100.0 * stats[1].0 as f64 / pairs as f64),
            stats[1].1.to_string(),
        ]);
    }
    table.render()
}

/// Ablation: the exact Section III-C pair-search planner vs the bucketed
/// variant — expected full-sort cost.
pub fn sort_ablation(quick: bool) -> String {
    let mut table = Table::new(
        "sort_ablation",
        "shared-sort planner: exhaustive pair search vs fragment bucketing",
        &["advertisers", "phrases", "exhaustive cost", "bucketed cost"],
    );
    let shapes: &[(usize, usize)] = if quick {
        &[(40, 4), (80, 6)]
    } else {
        &[(40, 4), (80, 6), (160, 8), (320, 8)]
    };
    for &(n, m) in shapes {
        let w = sweep_workload(n, m, 3, 9);
        let interest = interest_sets(&w);
        let rates = w.search_rates();
        let exhaustive = build_shared_sort_plan(n, &interest, &rates);
        let bucketed = build_shared_sort_plan_bucketed(n, &interest, &rates);
        table.push(vec![
            n.to_string(),
            m.to_string(),
            format!("{:.0}", exhaustive.expected_cost(&rates)),
            format!("{:.0}", bucketed.expected_cost(&rates)),
        ]);
    }
    table.render()
}
