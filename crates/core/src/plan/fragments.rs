//! Stage 1 of the heuristic: fragment identification.
//!
//! "We group together all variables that occur in the same set of query
//! expressions. We associate with each variable a bit string of length m,
//! where the i-th bit indicates whether or not the variable occurs in the
//! i-th query expression. … These groups are equivalence classes of
//! variables and are called fragments [Krishnamurthy–Wu–Franklin]. Note
//! that even though there are 2^m possible fragments, only O(n) will be
//! non-empty. We can safely aggregate elements within a fragment since no
//! sharing occurs across fragments."
//!
//! Signatures are built by *inverting* the query sets — one pass over
//! `Σ_q |X_q|` sparse elements into a CSR of per-variable query lists —
//! rather than probing every query per variable. At a million advertisers
//! the old dense probe was O(n·m) regardless of interest density; the
//! inverted build is linear in the input size, which is the paper's own
//! running-time parameter.
//!
//! [`group_by_signature`] is the one stage 1 of the crate, and both
//! planners make every fragment one leaf *run*: the aggregation planner
//! reaches it through [`identify_fragments`] and [`build_fragment_plan`]
//! (one [`PlanDag::run`] node per multi-variable fragment, scanned at
//! evaluation instead of folded through a ⊕ chain), and the shared-sort
//! planner (`sort::planner`) calls it directly for the leaf runs of its
//! merge network.

use std::collections::HashMap;

use ssa_setcover::VarSet;

use super::{PlanDag, PlanProblem};

/// Stage 1's grouping, in deterministic order (by smallest member).
#[derive(Debug, Clone, Default)]
pub struct SignatureGroups {
    /// Per fragment, its variables in ascending order.
    pub members: Vec<Vec<u32>>,
    /// Per fragment, the ascending ids of the queries its variables occur
    /// in.
    pub signatures: Vec<Vec<u32>>,
}

/// Groups the variables `0..var_count` by the set of queries they occur
/// in, given each query's ascending member list. Variables that occur in
/// no query are dropped. `O(Σ_q |X_q|)` expected time.
pub fn group_by_signature(var_count: usize, queries: &[Vec<u32>]) -> SignatureGroups {
    let n = var_count;
    // Invert: CSR of ascending query lists per variable. Queries are
    // visited in index order, so each variable's list is ascending.
    let mut offsets = vec![0u32; n + 1];
    for set in queries {
        for &v in set {
            offsets[v as usize + 1] += 1;
        }
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut fill = offsets[..n].to_vec();
    let mut sig_qs = vec![0u32; offsets[n] as usize];
    for (q, set) in queries.iter().enumerate() {
        for &v in set {
            sig_qs[fill[v as usize] as usize] = q as u32;
            fill[v as usize] += 1;
        }
    }
    // Group variables by signature slice. Scanning variables in ascending
    // order makes first-encounter order equal to order-by-smallest-member,
    // the documented deterministic fragment order.
    let mut by_sig: HashMap<&[u32], usize> = HashMap::new();
    let mut groups = SignatureGroups::default();
    for v in 0..n {
        let sig = &sig_qs[offsets[v] as usize..offsets[v + 1] as usize];
        if sig.is_empty() {
            continue;
        }
        let idx = *by_sig.entry(sig).or_insert_with(|| {
            groups.members.push(Vec::new());
            groups.signatures.push(sig.to_vec());
            groups.members.len() - 1
        });
        groups.members[idx].push(v as u32);
    }
    groups
}

/// One fragment: a maximal group of variables sharing a query signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The variables in the fragment.
    pub vars: VarSet,
    /// The query-membership signature (element `i` present iff the
    /// variables occur in query `i`).
    pub signature: VarSet,
}

/// The output of fragment identification.
#[derive(Debug, Clone)]
pub struct Fragments {
    /// Non-empty fragments, in deterministic order (by smallest member
    /// variable).
    pub fragments: Vec<Fragment>,
    /// `per_query[q]` = indices (into `fragments`) of the fragments that
    /// partition query `q`'s variable set.
    pub per_query: Vec<Vec<usize>>,
    /// `frag_of[v]` = index of the fragment containing variable `v`, or
    /// `u32::MAX` for variables occurring in no query. Stage 2's lazy
    /// completion uses this to jump from a node's minimum variable to
    /// the exact query signature governing which pools may absorb it.
    pub frag_of: Vec<u32>,
}

/// Groups the problem's variables into fragments ([`group_by_signature`]
/// over its query sets).
///
/// Variables that occur in no query are dropped: they can never
/// contribute to any aggregate.
pub fn identify_fragments(problem: &PlanProblem) -> Fragments {
    let n = problem.var_count;
    let m = problem.query_count();
    let queries: Vec<Vec<u32>> = problem
        .queries
        .iter()
        .map(|set| set.iter().map(|v| v as u32).collect())
        .collect();
    let groups = group_by_signature(n, &queries);
    let mut frag_of = vec![u32::MAX; n];
    // Fragments are ordered ascending by first member, so each query's
    // fragment list comes out ascending too.
    let mut per_query: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (i, (vars, sig)) in groups.members.iter().zip(&groups.signatures).enumerate() {
        for &v in vars {
            frag_of[v as usize] = i as u32;
        }
        for &q in sig {
            per_query[q as usize].push(i);
        }
    }
    let fragments: Vec<Fragment> = groups
        .members
        .into_iter()
        .zip(groups.signatures)
        .map(|(vars, sig)| Fragment {
            vars: VarSet::from_sorted(n, vars),
            signature: VarSet::from_sorted(m, sig),
        })
        .collect();
    Fragments {
        fragments,
        per_query,
        frag_of,
    }
}

/// Builds the stage-1 plan: every multi-variable fragment is one run
/// node, in fragment order, and a one-variable fragment is its leaf.
/// Returns the plan plus, per query, the plan-node indices of its
/// fragments (the starting points for stage 2). Queries that consist of a
/// single fragment already have their node and are *not* yet bound
/// (binding happens when the planner finishes).
pub fn build_fragment_plan(problem: &PlanProblem) -> (PlanDag, Fragments, Vec<Vec<usize>>) {
    let fragments = identify_fragments(problem);
    let mut plan = PlanDag::new(problem.var_count);
    let fragment_nodes: Vec<usize> = fragments
        .fragments
        .iter()
        .map(|f| {
            let members: Vec<u32> = f.vars.iter().map(|v| v as u32).collect();
            plan.run(&members)
        })
        .collect();
    let per_query_nodes = fragments
        .per_query
        .iter()
        .map(|frs| frs.iter().map(|&f| fragment_nodes[f]).collect())
        .collect();
    (plan, fragments, per_query_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssa_setcover::BitSet;

    fn bs(n: usize, elems: &[usize]) -> BitSet {
        BitSet::from_elements(n, elems.iter().copied())
    }

    /// The hiking-boots example's structure in miniature: vars 0-1 in both
    /// queries, var 2 only in q0, var 3 only in q1, var 4 in neither.
    fn mini_problem() -> PlanProblem {
        PlanProblem::new(5, vec![bs(5, &[0, 1, 2]), bs(5, &[0, 1, 3])], None)
    }

    #[test]
    fn fragments_partition_by_signature() {
        let f = identify_fragments(&mini_problem());
        assert_eq!(f.fragments.len(), 3);
        let shared = &f.fragments[0];
        assert_eq!(shared.vars, bs(5, &[0, 1]));
        assert_eq!(shared.signature, bs(2, &[0, 1]));
        assert_eq!(f.fragments[1].vars, bs(5, &[2]));
        assert_eq!(f.fragments[1].signature, bs(2, &[0]));
        assert_eq!(f.fragments[2].vars, bs(5, &[3]));
        // Variable 4 occurs nowhere and is dropped.
        for frag in &f.fragments {
            assert!(!frag.vars.contains(4));
        }
        assert_eq!(f.frag_of, vec![0, 0, 1, 2, u32::MAX]);
    }

    #[test]
    fn per_query_fragments_partition_each_query() {
        let problem = mini_problem();
        let f = identify_fragments(&problem);
        for (q, frs) in f.per_query.iter().enumerate() {
            let mut union = VarSet::new(5);
            let mut total = 0;
            for &i in frs {
                union.union_with(&f.fragments[i].vars);
                total += f.fragments[i].vars.len();
            }
            assert_eq!(union, problem.queries[q], "query {q} union");
            assert_eq!(total, problem.queries[q].len(), "query {q} disjoint");
        }
    }

    #[test]
    fn fragment_plan_has_chain_costs() {
        let problem = mini_problem();
        let (plan, f, per_query_nodes) = build_fragment_plan(&problem);
        // One multi-var fragment of size 2 → 1 run weighing 1; singleton
        // fragments reuse their leaves.
        assert_eq!(plan.run_members(5), Some(&[0, 1][..]));
        assert_eq!(plan.total_cost(), 1);
        assert_eq!(f.fragments.len(), 3);
        assert!(plan.validate().is_ok());
        // Per-query nodes exist and union correctly.
        for (q, nodes) in per_query_nodes.iter().enumerate() {
            let mut union = VarSet::new(5);
            for &idx in nodes {
                union.union_with(&plan.vars(idx));
            }
            assert_eq!(union, problem.queries[q]);
        }
    }

    #[test]
    fn identical_queries_collapse_to_one_fragment() {
        let problem = PlanProblem::new(3, vec![bs(3, &[0, 1, 2]), bs(3, &[0, 1, 2])], None);
        let f = identify_fragments(&problem);
        assert_eq!(f.fragments.len(), 1);
        let (plan, _, _) = build_fragment_plan(&problem);
        // One run of 3 vars, weighing the 2 merges of its chain, shared
        // by both queries.
        assert_eq!(plan.node_count(), 4);
        assert_eq!(plan.total_cost(), 2);
    }

    #[test]
    fn no_shared_variables_yields_per_query_fragments() {
        let problem = PlanProblem::new(4, vec![bs(4, &[0, 1]), bs(4, &[2, 3])], None);
        let f = identify_fragments(&problem);
        assert_eq!(f.fragments.len(), 2);
        assert_eq!(f.per_query[0], vec![0]);
        assert_eq!(f.per_query[1], vec![1]);
    }

    proptest! {
        /// Fragments always partition each query exactly, and every
        /// fragment's signature matches its variables' membership.
        #[test]
        fn fragments_are_a_partition(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..10, 1..8), 1..6),
        ) {
            let queries: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(10, s.iter().copied()))
                .collect();
            let problem = PlanProblem::new(10, queries.clone(), None);
            let f = identify_fragments(&problem);
            // Disjointness of fragments.
            for i in 0..f.fragments.len() {
                for j in (i + 1)..f.fragments.len() {
                    prop_assert!(f.fragments[i].vars.is_disjoint(&f.fragments[j].vars));
                }
            }
            // Partition per query, and frag_of agrees with membership.
            for (q, set) in queries.iter().enumerate() {
                let mut union = VarSet::new(10);
                for &i in &f.per_query[q] {
                    prop_assert!(f.fragments[i].vars.is_subset(set));
                    union.union_with(&f.fragments[i].vars);
                }
                prop_assert_eq!(&union, set);
            }
            for (i, frag) in f.fragments.iter().enumerate() {
                for v in frag.vars.iter() {
                    prop_assert_eq!(f.frag_of[v], i as u32);
                }
            }
        }
    }
}
