//! The greedy covering algorithm.
//!
//! "Until the target set is covered, repeatedly pick the feasible set that
//! covers the maximum number of as-yet-uncovered elements" (Section II-D,
//! citing Johnson 1973). The greedy cover is within a `1 + ln n` factor of
//! the optimum, and its *size* is exactly what the planner's greedy
//! coverage gain measures, so [`greedy_cover`] reports both the chosen
//! sets and each step's marginal gain.

use crate::bitset::BitSet;
use crate::varset::{AsVarSetRef, VarSet, VarSetRef};

/// The result of a greedy covering run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyCover {
    /// Indices (into the candidate collection) of the chosen sets, in
    /// selection order.
    pub chosen: Vec<usize>,
    /// Newly covered element count at each step (parallel to `chosen`).
    pub marginal_gains: Vec<usize>,
}

impl GreedyCover {
    /// Number of sets used — the planner's `|C_q|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.chosen.len()
    }
}

/// Greedily covers `target` using candidates that are subsets of `target`
/// (the paper's exact-cover convention). Returns `None` if the feasible
/// candidates cannot cover the target.
///
/// Ties are broken by candidate index, making the algorithm deterministic.
///
/// Complexity: `O(steps × |candidates| × n/64)`.
pub fn greedy_cover(target: &BitSet, candidates: &[BitSet]) -> Option<GreedyCover> {
    let views: Vec<VarSetRef<'_>> = candidates.iter().map(|c| c.as_set_ref()).collect();
    greedy_cover_views(target.as_set_ref(), &views)
}

/// [`greedy_cover`] over [`VarSetRef`] views of either representation:
/// the feasibility filter, then max-gain steps with strict-greater
/// comparisons keeping the lowest index on ties. Callers holding node
/// sets in a CSR pool cover without materializing dense words.
pub fn greedy_cover_views(
    target: VarSetRef<'_>,
    candidates: &[VarSetRef<'_>],
) -> Option<GreedyCover> {
    let feasible: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].is_subset(target) && !candidates[i].is_empty())
        .collect();

    let mut uncovered: VarSet = target.to_var_set();
    let mut chosen = Vec::new();
    let mut marginal_gains = Vec::new();
    while !uncovered.is_empty() {
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for &i in &feasible {
            let gain = candidates[i].intersection_len(uncovered.as_set_ref());
            if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, i));
            }
        }
        let (gain, idx) = best?;
        chosen.push(idx);
        marginal_gains.push(gain);
        uncovered.difference_with(&candidates[idx]);
    }
    Some(GreedyCover {
        chosen,
        marginal_gains,
    })
}

/// Greedy *disjoint* cover (a partition of `target` into candidate sets):
/// at each step only candidates fitting entirely inside the still-
/// uncovered part are feasible. Needed when the aggregation operator is
/// not idempotent (sum, count, …, the paper's Section VII aggregates),
/// where double-counting an input corrupts the aggregate.
pub fn greedy_disjoint_cover(target: &BitSet, candidates: &[BitSet]) -> Option<GreedyCover> {
    let mut uncovered = target.clone();
    let mut chosen = Vec::new();
    let mut marginal_gains = Vec::new();
    while !uncovered.is_empty() {
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (i, c) in candidates.iter().enumerate() {
            if c.is_empty() || !c.is_subset(&uncovered) {
                continue;
            }
            let gain = c.len();
            if best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, i));
            }
        }
        let (gain, idx) = best?;
        chosen.push(idx);
        marginal_gains.push(gain);
        uncovered.difference_with(&candidates[idx]);
    }
    Some(GreedyCover {
        chosen,
        marginal_gains,
    })
}

/// [`greedy_disjoint_cover`] over [`VarSetRef`] views — identical
/// feasibility (candidate fits entirely inside the uncovered remainder)
/// and selection semantics.
pub fn greedy_disjoint_cover_views(
    target: VarSetRef<'_>,
    candidates: &[VarSetRef<'_>],
) -> Option<GreedyCover> {
    let mut uncovered: VarSet = target.to_var_set();
    let mut chosen = Vec::new();
    let mut marginal_gains = Vec::new();
    while !uncovered.is_empty() {
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (i, c) in candidates.iter().enumerate() {
            if c.is_empty() || !c.is_subset(uncovered.as_set_ref()) {
                continue;
            }
            let gain = c.len();
            if best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, i));
            }
        }
        let (gain, idx) = best?;
        chosen.push(idx);
        marginal_gains.push(gain);
        uncovered.difference_with(&candidates[idx]);
    }
    Some(GreedyCover {
        chosen,
        marginal_gains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_min_cover;
    use crate::instance::SetCoverInstance;
    use proptest::prelude::*;

    fn bs(capacity: usize, elements: &[usize]) -> BitSet {
        BitSet::from_elements(capacity, elements.iter().copied())
    }

    #[test]
    fn covers_simple_instance() {
        let target = BitSet::full(4);
        let candidates = vec![bs(4, &[0, 1]), bs(4, &[2]), bs(4, &[3]), bs(4, &[2, 3])];
        let cover = greedy_cover(&target, &candidates).unwrap();
        assert_eq!(cover.chosen, vec![0, 3]);
        assert_eq!(cover.marginal_gains, vec![2, 2]);
    }

    #[test]
    fn infeasible_returns_none() {
        let target = BitSet::full(3);
        let candidates = vec![bs(3, &[0])];
        assert!(greedy_cover(&target, &candidates).is_none());
    }

    #[test]
    fn supersets_of_target_are_infeasible() {
        // Exact-cover convention: a candidate spilling outside the target
        // cannot be used even though it would cover it.
        let target = bs(4, &[0, 1]);
        let candidates = vec![bs(4, &[0, 1, 2])];
        assert!(greedy_cover(&target, &candidates).is_none());
    }

    #[test]
    fn empty_target_needs_no_sets() {
        let cover = greedy_cover(&BitSet::new(4), &[bs(4, &[0])]).unwrap();
        assert!(cover.chosen.is_empty());
    }

    #[test]
    fn ties_break_by_index() {
        let target = BitSet::full(2);
        let candidates = vec![bs(2, &[0, 1]), bs(2, &[0, 1])];
        let cover = greedy_cover(&target, &candidates).unwrap();
        assert_eq!(cover.chosen, vec![0]);
    }

    #[test]
    fn greedy_is_log_factor_worse_on_adversarial_family() {
        // Classic lower-bound family: optimal = 2 rows, greedy picks all
        // the column sets (t of them).
        let inst = SetCoverInstance::greedy_adversarial(4);
        let target = inst.universe();
        let greedy = greedy_cover(&target, inst.sets()).unwrap();
        let exact = exact_min_cover(&target, inst.sets()).unwrap();
        assert_eq!(exact.len(), 2);
        assert!(
            greedy.size() > exact.len(),
            "greedy {} should exceed optimal {}",
            greedy.size(),
            exact.len()
        );
    }

    #[test]
    fn disjoint_cover_partitions() {
        let target = BitSet::full(6);
        let candidates = vec![
            bs(6, &[0, 1, 2]),
            bs(6, &[2, 3]), // overlaps the first: unusable after it
            bs(6, &[3, 4, 5]),
            bs(6, &[3]),
            bs(6, &[4]),
            bs(6, &[5]),
        ];
        let cover = greedy_disjoint_cover(&target, &candidates).unwrap();
        // Greedy takes {0,1,2} (gain 3), then {3,4,5} (gain 3).
        assert_eq!(cover.chosen, vec![0, 2]);
        // The chosen sets are pairwise disjoint and partition the target.
        let mut acc = BitSet::new(6);
        let mut total = 0;
        for &i in &cover.chosen {
            assert!(acc.is_disjoint(&candidates[i]));
            acc.union_with(&candidates[i]);
            total += candidates[i].len();
        }
        assert_eq!(acc, target);
        assert_eq!(total, 6, "no double counting");
    }

    #[test]
    fn disjoint_cover_can_fail_where_overlapping_succeeds() {
        // {0,1} and {1,2} cover {0,1,2} but cannot partition it.
        let target = BitSet::full(3);
        let candidates = vec![bs(3, &[0, 1]), bs(3, &[1, 2])];
        assert!(greedy_cover(&target, &candidates).is_some());
        assert!(greedy_disjoint_cover(&target, &candidates).is_none());
    }

    #[test]
    fn disjoint_cover_greedy_choice_can_block() {
        // Greedy takes the size-3 set, leaving {3} uncoverable even
        // though the partition {0,1}+{2,3} exists: returns None (the
        // planner falls back to singletons, which always exist there).
        let target = BitSet::full(4);
        let candidates = vec![bs(4, &[0, 1, 2]), bs(4, &[0, 1]), bs(4, &[2, 3])];
        assert!(greedy_disjoint_cover(&target, &candidates).is_none());
        // With singletons available the greedy always completes.
        let mut with_singletons = candidates;
        for v in 0..4 {
            with_singletons.push(BitSet::singleton(4, v));
        }
        let cover = greedy_disjoint_cover(&target, &with_singletons).unwrap();
        let covered: usize = cover.marginal_gains.iter().sum();
        assert_eq!(covered, 4);
    }

    proptest! {
        /// The view-based entry points replicate the dense algorithms
        /// choice for choice, in sparse, dense, and mixed pairings.
        #[test]
        fn views_variant_matches_dense(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..12, 0..6), 1..8),
            target_extra in proptest::collection::btree_set(0usize..12, 0..4),
        ) {
            let candidates: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(12, s.iter().copied()))
                .collect();
            // A target that is not always coverable: union of candidates
            // plus extra elements exercises the None paths too.
            let mut target = BitSet::from_elements(12, target_extra.iter().copied());
            for c in &candidates[..candidates.len() / 2] {
                target.union_with(c);
            }
            let sparse: Vec<VarSet> = candidates
                .iter()
                .map(VarSet::from_bitset)
                .collect();
            let sparse_target = VarSet::from_bitset(&target);
            let views: Vec<VarSetRef> = sparse.iter().map(|s| s.as_set_ref()).collect();
            let mixed: Vec<VarSetRef> = candidates
                .iter()
                .zip(sparse.iter())
                .enumerate()
                .map(|(i, (b, s))| if i % 2 == 0 { b.as_set_ref() } else { s.as_set_ref() })
                .collect();
            prop_assert_eq!(
                greedy_cover(&target, &candidates),
                greedy_cover_views(sparse_target.as_set_ref(), &views)
            );
            prop_assert_eq!(
                greedy_cover(&target, &candidates),
                greedy_cover_views(target.as_set_ref(), &mixed)
            );
            prop_assert_eq!(
                greedy_disjoint_cover(&target, &candidates),
                greedy_disjoint_cover_views(sparse_target.as_set_ref(), &views)
            );
            prop_assert_eq!(
                greedy_disjoint_cover(&target, &candidates),
                greedy_disjoint_cover_views(target.as_set_ref(), &mixed)
            );
        }

        /// Greedy is feasible whenever exact is, covers the target
        /// exactly, and respects the (1 + ln n) approximation bound.
        #[test]
        fn greedy_soundness_and_ratio(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..12, 1..6), 1..8),
        ) {
            let candidates: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(12, s.iter().copied()))
                .collect();
            let mut target = BitSet::new(12);
            for c in &candidates {
                target.union_with(c);
            }
            let greedy = greedy_cover(&target, &candidates);
            let exact = exact_min_cover(&target, &candidates);
            prop_assert_eq!(greedy.is_some(), exact.is_some());
            if let (Some(g), Some(e)) = (greedy, exact) {
                // Union of chosen equals target.
                let mut acc = BitSet::new(12);
                for &i in &g.chosen {
                    acc.union_with(&candidates[i]);
                }
                prop_assert_eq!(acc, target.clone());
                // Marginal gains sum to |target| and are non-increasing.
                let total: usize = g.marginal_gains.iter().sum();
                prop_assert_eq!(total, target.len());
                for w in g.marginal_gains.windows(2) {
                    prop_assert!(w[0] >= w[1], "greedy gains must be non-increasing");
                }
                // Approximation bound.
                let n = target.len().max(1) as f64;
                let bound = (1.0 + n.ln()) * e.len() as f64;
                prop_assert!(g.size() as f64 <= bound + 1e-9);
            }
        }
    }
}
