//! The probabilistic cost model.
//!
//! "A node is materialized in a given round if it is used to compute the
//! result for a bid phrase that occurs in that round. … the probability of
//! node v being materialized is `1 − Π_{q: v⇝q} (1 − sr_q)`. Thus, by
//! linearity of expectation, the total expected cost of a plan is
//! `Σ_v (1 − Π_{q: v⇝q} (1 − sr_q))`."
//!
//! A run stands for the left-deep chain of `f − 1` nodes over its `f`
//! members, every one of which has the run's reach set, so each sum below
//! adds a node's term once per unit of [`PlanDag::weight`] — in the order
//! the chain's nodes would, which keeps the totals the chain plan's to the
//! bit.

use super::{PlanDag, PlanProblem};

/// The expected number of ⊕ applications materialized per round (internal
/// nodes, a run counting its weight), under independent Bernoulli query
/// occurrence with the given search rates.
///
/// # Panics
/// Panics if `search_rates.len()` differs from the plan's query count.
pub fn expected_cost(plan: &PlanDag, search_rates: &[f64]) -> f64 {
    assert_eq!(
        search_rates.len(),
        plan.query_count(),
        "one search rate per bound query"
    );
    let reach = plan.reach_sets();
    let mut total = 0.0;
    for (idx, qs) in reach.iter().enumerate().skip(plan.var_count()) {
        let mut none_occur = 1.0;
        for &q in qs {
            none_occur *= 1.0 - search_rates[q as usize];
        }
        for _ in 0..plan.weight(idx) {
            total += 1.0 - none_occur;
        }
    }
    total
}

/// Per query, the marginal expected cost of serving it through this plan:
/// the amount [`expected_cost`] drops by when `sr_q` is set to zero, i.e.
/// `Σ_{v internal, v⇝q} sr_q · Π_{p≠q, v⇝p} (1 − sr_p)`. A node some
/// *other* occurring query would materialize anyway is attributed to
/// nobody, so the marginals sum to at most the total. The adaptive hybrid
/// router compares them against `SortPlan::phrase_marginal_costs` to seed
/// per-phrase routes.
///
/// # Panics
/// Panics if `search_rates.len()` differs from the plan's query count.
pub fn phrase_marginal_costs(plan: &PlanDag, search_rates: &[f64]) -> Vec<f64> {
    assert_eq!(
        search_rates.len(),
        plan.query_count(),
        "one search rate per bound query"
    );
    let reach = plan.reach_sets();
    let mut marginals = vec![0.0; search_rates.len()];
    let mut prefix: Vec<f64> = Vec::new();
    for (idx, qs) in reach.iter().enumerate().skip(plan.var_count()) {
        // prefix[i] = Π_{j<i} (1 − sr_{qs[j]}); suffix runs the mirror
        // product so each query gets Π over the others.
        prefix.clear();
        let mut acc = 1.0;
        for &q in qs {
            prefix.push(acc);
            acc *= 1.0 - search_rates[q as usize];
        }
        for _ in 0..plan.weight(idx) {
            let mut suffix = 1.0;
            for i in (0..qs.len()).rev() {
                let q = qs[i] as usize;
                marginals[q] += search_rates[q] * prefix[i] * suffix;
                suffix *= 1.0 - search_rates[q];
            }
        }
    }
    marginals
}

/// The expected cost of resolving every query independently (no sharing):
/// each occurring query `q` pays `|X_q| − 1` pairwise aggregations, so the
/// expectation is `Σ_q sr_q (|X_q| − 1)`.
pub fn unshared_expected_cost(problem: &PlanProblem) -> f64 {
    problem
        .queries
        .iter()
        .zip(&problem.search_rates)
        .map(|(set, &sr)| sr * (set.len().saturating_sub(1)) as f64)
        .sum()
}

/// The ⊕ applications actually materialized for one concrete round (the
/// per-round realization of [`expected_cost`]): the weights of the
/// internal nodes under an occurring query.
pub fn materialized_cost(plan: &PlanDag, occurring: &[bool]) -> usize {
    assert_eq!(occurring.len(), plan.query_count());
    let reach = plan.reach_sets();
    (plan.var_count()..plan.node_count())
        .filter(|&idx| reach[idx].iter().any(|&q| occurring[q as usize]))
        .map(|idx| plan.weight(idx))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssa_setcover::BitSet;

    fn bs(n: usize, elems: &[usize]) -> BitSet {
        BitSet::from_elements(n, elems.iter().copied())
    }

    /// Shared plan over queries {0,1,2} and {0,1,3} sharing node {0,1}.
    fn shared_plan() -> PlanDag {
        let mut plan = PlanDag::new(4);
        let ab = plan.merge(0, 1);
        let abc = plan.merge(ab, 2);
        let abd = plan.merge(ab, 3);
        plan.bind_query(&plan.vars_owned(abc));
        plan.bind_query(&plan.vars_owned(abd));
        plan
    }

    #[test]
    fn deterministic_rates_count_all_nodes() {
        let plan = shared_plan();
        assert_eq!(expected_cost(&plan, &[1.0, 1.0]), 3.0);
        assert_eq!(expected_cost(&plan, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn hand_computed_expectation() {
        let plan = shared_plan();
        // sr = (0.5, 0.5): shared node {0,1} materializes with
        // 1 − 0.25 = 0.75; each query node with 0.5. Total 1.75.
        let got = expected_cost(&plan, &[0.5, 0.5]);
        assert!((got - 1.75).abs() < 1e-12, "{got}");
    }

    #[test]
    fn unshared_baseline() {
        let problem = super::super::PlanProblem::new(
            4,
            vec![bs(4, &[0, 1, 2]), bs(4, &[0, 1, 3])],
            Some(vec![0.5, 0.5]),
        );
        // Each query scans 3 advertisers → 2 ops; expectation 0.5·2 + 0.5·2.
        assert!((unshared_expected_cost(&problem) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_plan_beats_unshared_at_high_rates() {
        let plan = shared_plan();
        let problem = super::super::PlanProblem::new(
            4,
            vec![bs(4, &[0, 1, 2]), bs(4, &[0, 1, 3])],
            Some(vec![0.9, 0.9]),
        );
        let shared = expected_cost(&plan, &problem.search_rates);
        let unshared = unshared_expected_cost(&problem);
        assert!(
            shared < unshared,
            "shared {shared} should beat unshared {unshared}"
        );
    }

    #[test]
    fn materialized_cost_per_round() {
        let plan = shared_plan();
        assert_eq!(materialized_cost(&plan, &[true, true]), 3);
        assert_eq!(materialized_cost(&plan, &[true, false]), 2);
        assert_eq!(materialized_cost(&plan, &[false, false]), 0);
    }

    #[test]
    fn monte_carlo_matches_expectation() {
        let plan = shared_plan();
        let rates = [0.3, 0.7];
        let expected = expected_cost(&plan, &rates);
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 100_000;
        let mut total = 0usize;
        for _ in 0..trials {
            let occurring: Vec<bool> = rates.iter().map(|&r| rng.random::<f64>() < r).collect();
            total += materialized_cost(&plan, &occurring);
        }
        let mc = total as f64 / trials as f64;
        assert!(
            (mc - expected).abs() < 0.02,
            "MC {mc} vs expected {expected}"
        );
    }

    #[test]
    fn hand_computed_marginals() {
        let plan = shared_plan();
        // sr = (0.5, 0.5): each query owns its bind node outright (0.5)
        // and pays for the shared node only when the other is absent
        // (0.5 · 0.5). The 0.25 of the shared node both would have paid
        // for is nobody's, so the marginals sum to 1.5 < 1.75.
        let got = phrase_marginal_costs(&plan, &[0.5, 0.5]);
        assert!((got[0] - 0.75).abs() < 1e-12, "{got:?}");
        assert!((got[1] - 0.75).abs() < 1e-12, "{got:?}");
    }

    proptest! {
        /// On a DAG grown by random merges with queries bound to random
        /// internal nodes, each marginal is the drop in expected cost when
        /// that query's rate is zeroed; the marginals sum to at most the
        /// total; a query that never occurs has none.
        #[test]
        fn marginals_match_rate_zeroing(
            seed in any::<u64>(),
            steps in 1usize..25,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut plan = shared_plan();
            for _ in 0..steps {
                let n = plan.node_count();
                let merged = plan.merge(rng.random_range(0..n), rng.random_range(0..n));
                if merged >= plan.var_count() && rng.random::<bool>() {
                    plan.bind_query(&plan.vars_owned(merged));
                }
            }
            let mut rates: Vec<f64> =
                (0..plan.query_count()).map(|_| rng.random::<f64>()).collect();
            let silent = rng.random_range(0..rates.len());
            rates[silent] = 0.0;
            let total = expected_cost(&plan, &rates);
            let marginals = phrase_marginal_costs(&plan, &rates);
            prop_assert_eq!(marginals[silent], 0.0);
            prop_assert!(marginals.iter().sum::<f64>() <= total + 1e-9);
            for q in 0..rates.len() {
                let mut without = rates.clone();
                without[q] = 0.0;
                let drop = total - expected_cost(&plan, &without);
                prop_assert!(
                    (marginals[q] - drop).abs() < 1e-9,
                    "query {}: marginal {} vs drop {}", q, marginals[q], drop
                );
            }
        }

        /// Expected cost is monotone in every search rate and bounded by
        /// the total node count.
        #[test]
        fn expectation_bounds_and_monotonicity(
            r1 in 0.0f64..=1.0,
            r2 in 0.0f64..=1.0,
            bump in 0.0f64..=0.5,
        ) {
            let plan = shared_plan();
            let base = expected_cost(&plan, &[r1, r2]);
            prop_assert!(base >= 0.0 && base <= plan.total_cost() as f64 + 1e-12);
            let bumped = expected_cost(&plan, &[(r1 + bump).min(1.0), r2]);
            prop_assert!(bumped + 1e-12 >= base);
        }
    }
}
