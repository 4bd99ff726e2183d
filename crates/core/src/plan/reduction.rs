//! Executable reductions between set cover and shared planning.
//!
//! **Theorem 2** (NP-hardness): from a set-cover instance `(U, S)` build
//! the plan problem with one query per set in `S` plus one query for `U`;
//! a minimum-cost plan yields a minimum set cover.
//!
//! **Theorem 3** (inapproximability): same construction, but the query
//! set is first *closed under subexpressions* (every prefix of every
//! `e_S` becomes a query), so the base cost is fixed and all extra cost
//! goes to computing `e_U` — i.e. to finding a cover.
//!
//! These constructions are executable here, and the tests verify the
//! quantitative correspondence on small instances: the optimal plan's
//! cost on a closed instance equals `|E| + (c* − 2)`, where `c*` is the
//! minimum cover of `U` from the closure's node sets plus singletons
//! (aggregating `c*` nodes takes `c* − 1` merges, one of which is the
//! query node `e_U` itself and therefore base cost).

use ssa_setcover::{exact_min_cover, BitSet, SetCoverInstance, VarSet};

use super::{PlanDag, PlanProblem};

/// The Theorem 2 construction: queries = the sets of `S` plus the
/// universal set, duplicates removed, singleton sets removed (the paper
/// assumes no query is equivalent to a bare variable).
pub fn plan_problem_from_set_cover(instance: &SetCoverInstance) -> PlanProblem {
    let n = instance.universe_size();
    let mut queries: Vec<BitSet> = Vec::new();
    for s in instance.sets() {
        if s.len() >= 2 && !queries.contains(s) {
            queries.push(s.clone());
        }
    }
    let universe = instance.universe();
    if !queries.contains(&universe) {
        queries.push(universe);
    }
    PlanProblem::new(n, queries, None)
}

/// The Theorem 3 construction: close each `e_S` under subexpressions
/// (all prefixes in the canonical variable order) before adding the
/// universal query, "ensuring the only extra nodes we add are for
/// computing the universal set query".
pub fn closed_plan_problem_from_set_cover(instance: &SetCoverInstance) -> PlanProblem {
    let n = instance.universe_size();
    let mut queries: Vec<BitSet> = Vec::new();
    for s in instance.sets() {
        let elements: Vec<usize> = s.iter().collect(); // canonical <_X order
        for prefix_len in 2..=elements.len() {
            let prefix = BitSet::from_elements(n, elements[..prefix_len].iter().copied());
            if !queries.contains(&prefix) {
                queries.push(prefix);
            }
        }
    }
    let universe = instance.universe();
    if !queries.contains(&universe) {
        queries.push(universe);
    }
    PlanProblem::new(n, queries, None)
}

/// Extracts a cover of the universal query from a plan (the Theorem 2
/// argument's cut `Z`): walk down from the universe's node; stop at any
/// node whose variable set is one of the other queries (or a leaf), and
/// collect those sets. A run is walked as the chain it stands for, down
/// to its member leaves. The result always unions to the universe.
pub fn extract_cover(plan: &PlanDag, problem: &PlanProblem) -> Vec<BitSet> {
    let universe = problem
        .queries
        .iter()
        .max_by_key(|q| q.len())
        .expect("nonempty problem");
    let root = plan
        .node_for(universe)
        .expect("plan computes the universal query");
    let query_sets: Vec<&VarSet> = problem.queries.iter().filter(|q| *q != universe).collect();
    let mut cover: Vec<BitSet> = Vec::new();
    let mut stack = vec![root];
    while let Some(idx) = stack.pop() {
        let vars = plan.vars(idx);
        let is_query = query_sets.iter().any(|q| vars == **q);
        if idx != root && (is_query || idx < plan.var_count()) {
            let set = vars.to_bitset();
            if !cover.contains(&set) {
                cover.push(set);
            }
            continue;
        }
        if let Some((a, b)) = plan.children(idx) {
            stack.push(a);
            stack.push(b);
        } else if let Some(members) = plan.run_members(idx) {
            stack.extend(members.iter().map(|&v| v as usize));
        } else {
            // Root is itself a leaf: the universe is a variable.
            cover.push(vars.to_bitset());
        }
    }
    cover
}

/// The minimum "plan-relevant" cover: the universe covered from the
/// problem's non-universal query sets plus all singletons (a plan may
/// always aggregate raw variables). `None` only if the problem is
/// degenerate.
pub fn min_plan_cover(problem: &PlanProblem) -> Option<usize> {
    let universe = problem.queries.iter().max_by_key(|q| q.len())?;
    let mut candidates: Vec<BitSet> = problem
        .queries
        .iter()
        .filter(|q| *q != universe)
        .map(|q| q.to_bitset())
        .collect();
    for v in 0..problem.var_count {
        candidates.push(BitSet::singleton(problem.var_count, v));
    }
    exact_min_cover(&universe.to_bitset(), &candidates).map(|c| c.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::greedy::SharedPlanner;
    use crate::plan::optimal::{optimal_plan, replay};
    use proptest::prelude::*;

    fn bs(n: usize, elems: &[usize]) -> BitSet {
        BitSet::from_elements(n, elems.iter().copied())
    }

    #[test]
    fn construction_shapes() {
        let inst = SetCoverInstance::new(4, vec![bs(4, &[0, 1]), bs(4, &[2, 3]), bs(4, &[1, 2])]);
        let p = plan_problem_from_set_cover(&inst);
        assert_eq!(p.query_count(), 4); // 3 sets + universe
        let closed = closed_plan_problem_from_set_cover(&inst);
        // Prefixes of size >= 2 of each set are just the sets themselves
        // here (all size 2), plus the universe.
        assert_eq!(closed.query_count(), 4);
    }

    #[test]
    fn closure_adds_prefixes() {
        let inst = SetCoverInstance::new(4, vec![bs(4, &[0, 1, 2, 3])]);
        let closed = closed_plan_problem_from_set_cover(&inst);
        // Prefixes {0,1}, {0,1,2}, {0,1,2,3}; universe == the set itself.
        assert_eq!(closed.query_count(), 3);
    }

    /// The quantitative Theorem 3 correspondence: on closed instances,
    /// optimal plan cost = |E| + (c* − 2).
    #[test]
    fn optimal_extra_cost_equals_cover_size_minus_two() {
        let instances = vec![
            SetCoverInstance::new(
                5,
                vec![
                    bs(5, &[0, 1]),
                    bs(5, &[2, 3]),
                    bs(5, &[3, 4]),
                    bs(5, &[1, 2]),
                ],
            ),
            SetCoverInstance::new(
                6,
                vec![bs(6, &[0, 1, 2]), bs(6, &[3, 4, 5]), bs(6, &[2, 3])],
            ),
            SetCoverInstance::new(4, vec![bs(4, &[0, 1]), bs(4, &[2, 3])]),
        ];
        for inst in instances {
            let problem = closed_plan_problem_from_set_cover(&inst);
            let opt = optimal_plan(&problem).expect("small instance");
            let c_star = min_plan_cover(&problem).expect("coverable");
            let base = problem.query_count();
            assert_eq!(
                opt.total_cost,
                base + c_star - 2,
                "instance with {} queries: cost {} vs base {base} + ({c_star} − 2)",
                problem.query_count(),
                opt.total_cost,
            );
        }
    }

    /// Theorem 2 direction: the cover extracted from an optimal plan is a
    /// genuine cover of the universe.
    #[test]
    fn extracted_cover_is_valid() {
        let inst = SetCoverInstance::new(
            5,
            vec![
                bs(5, &[0, 1]),
                bs(5, &[2, 3]),
                bs(5, &[3, 4]),
                bs(5, &[1, 2]),
            ],
        );
        let problem = plan_problem_from_set_cover(&inst);
        let opt = optimal_plan(&problem).expect("small instance");
        let plan = replay(&problem, &opt);
        let cover = extract_cover(&plan, &problem);
        let mut union = BitSet::new(5);
        for s in &cover {
            union.union_with(s);
        }
        assert_eq!(union, inst.universe(), "cover must union to U");
    }

    /// Heuristic plans also yield valid covers, and the heuristic's extra
    /// cost on reduction instances is within the greedy set-cover factor.
    #[test]
    fn heuristic_on_reduction_instances() {
        let inst = SetCoverInstance::greedy_adversarial(3);
        let problem = closed_plan_problem_from_set_cover(&inst);
        let plan = SharedPlanner::full().plan(&problem);
        assert_eq!(plan.validate(), Ok(()));
        let cover = extract_cover(&plan, &problem);
        let mut union = BitSet::new(inst.universe_size());
        for s in &cover {
            union.union_with(s);
        }
        assert_eq!(union, inst.universe());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The Theorem 3 equality on random small closed instances.
        #[test]
        fn cover_plan_correspondence(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..6, 2..5), 1..4),
        ) {
            let mut universe = BitSet::new(6);
            let candidates: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(6, s.iter().copied()))
                .collect();
            for c in &candidates {
                universe.union_with(c);
            }
            // Re-map the instance onto a compact universe so the plan
            // problem's variables are exactly the covered elements.
            let elems: Vec<usize> = universe.iter().collect();
            let n = elems.len();
            let remap = |s: &BitSet| {
                BitSet::from_elements(
                    n,
                    s.iter().map(|e| elems.binary_search(&e).unwrap()),
                )
            };
            let inst = SetCoverInstance::new(n, candidates.iter().map(remap).collect());
            let problem = closed_plan_problem_from_set_cover(&inst);
            if problem.query_count() > 6 {
                // Keep the exact search tractable.
                return Ok(());
            }
            let opt = optimal_plan(&problem).expect("small instance");
            let c_star = min_plan_cover(&problem).expect("coverable");
            let base = problem.query_count();
            prop_assert_eq!(opt.total_cost, base + c_star.max(2) - 2);
        }
    }
}
