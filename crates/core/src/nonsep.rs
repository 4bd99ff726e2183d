//! Shared winner determination without separability (Section V).
//!
//! For non-separable CTRs, single-auction winner determination prunes the
//! advertiser–slot bipartite graph to the advertisers with the k highest
//! edges *per slot* and runs the Hungarian algorithm
//! ([`ssa_auction::nonseparable`]). The paper's Section V observes that
//! this pruning step is itself a family of top-k queries — one per
//! (phrase, slot) — and that "we can use the shared top-k algorithms
//! presented in this paper to find the top k advertisers for each slot in
//! the graph-pruning step".
//!
//! Since the edge weight `b_i · ctr_ij` of an advertiser in a fixed slot
//! `j` is the same in every phrase auction (only the *interest sets*
//! differ by phrase), one shared aggregation plan over the phrase
//! interest sets serves all slots: evaluate it `k` times, once per slot's
//! weight vector, and feed each phrase's per-slot top-k lists into the
//! pruned matching.

use ssa_auction::ctr::CtrModel;
use ssa_auction::ids::{AdvertiserId, SlotIndex};
use ssa_auction::money::Money;
use ssa_auction::score::Score;
use ssa_auction::winner::{Assignment, RankedWinner};
use ssa_setcover::BitSet;

use crate::plan::{PlanDag, PlanProblem, SharedPlanner, TopKCones};

/// A compiled shared non-separable resolver for one round structure.
#[derive(Debug, Clone)]
pub struct SharedNonSeparable {
    plan: PlanDag,
    /// Per phrase, the plan query it is bound to (`None` for
    /// empty-interest phrases, which are left out of the plan).
    query_index: Vec<Option<usize>>,
    advertiser_count: usize,
    k: usize,
}

/// One phrase's resolution plus the work accounting.
#[derive(Debug, Clone)]
pub struct SharedNonSepOutcome {
    /// Slot assignments per occurring phrase (`None` for phrases that did
    /// not occur).
    pub assignments: Vec<Option<Assignment>>,
    /// Top-k aggregation operations spent in the shared pruning step.
    pub aggregation_ops: usize,
    /// The per-slot scans an unshared system would have performed
    /// (`k · Σ_occurring |I_q|`).
    pub unshared_scan_baseline: usize,
}

impl SharedNonSeparable {
    /// Compiles the shared plan over the non-empty phrase interest sets
    /// (an empty one cannot be bound in a plan; it resolves to nothing).
    pub fn new(
        advertiser_count: usize,
        interest: &[BitSet],
        search_rates: &[f64],
        k: usize,
    ) -> Self {
        let mut query_index = vec![None; interest.len()];
        let mut queries = Vec::new();
        let mut rates = Vec::new();
        for (q, set) in interest.iter().enumerate() {
            if !set.is_empty() {
                query_index[q] = Some(queries.len());
                queries.push(set.clone());
                rates.push(search_rates[q]);
            }
        }
        let problem = PlanProblem::new(advertiser_count, queries, Some(rates));
        SharedNonSeparable {
            plan: SharedPlanner::fragments_only().plan(&problem),
            query_index,
            advertiser_count,
            k,
        }
    }

    /// Resolves a round: for each occurring phrase, prune via the shared
    /// per-slot top-k plans and run the maximum-weight matching on the
    /// pruned graph.
    pub fn resolve_round<M: CtrModel>(
        &self,
        model: &M,
        bids: &[Money],
        interest: &[BitSet],
        occurring: &[bool],
    ) -> SharedNonSepOutcome {
        assert_eq!(bids.len(), self.advertiser_count, "one bid per advertiser");
        assert_eq!(interest.len(), self.query_index.len(), "one set per phrase");
        assert_eq!(occurring.len(), interest.len(), "one flag per phrase");
        assert_eq!(model.slot_count(), self.k, "model must cover k slots");

        // One walk of the occurring phrases' cones, then one fill per
        // slot's weight vector. After fill j a query node holds the top-k
        // of slot j's edge weights within its phrase's interest set; a
        // phrase's candidates are the union of its k such lists.
        let query_nodes = self.plan.query_nodes();
        // The plan node of an occurring, non-empty phrase.
        let live = |q: usize| {
            self.query_index[q]
                .filter(|_| occurring[q])
                .map(|qi| query_nodes[qi])
        };
        let mut cones = TopKCones::new();
        cones.walk(&self.plan, (0..interest.len()).filter_map(live));
        let mut aggregation_ops = 0usize;
        let mut candidates: Vec<Vec<AdvertiserId>> = vec![Vec::new(); interest.len()];
        for j in 0..self.k {
            let slot = SlotIndex(j as u8);
            aggregation_ops += cones.fill(&self.plan, self.k, |i| {
                let adv = AdvertiserId::from_index(i);
                Score::new(model.ctr(adv, slot).value() * bids[i].to_f64())
            });
            for (q, found) in candidates.iter_mut().enumerate() {
                let Some(node) = live(q) else {
                    continue;
                };
                for i in cones.top(&self.plan, node) {
                    let adv = AdvertiserId::from_index(i);
                    if !found.contains(&adv) {
                        found.push(adv);
                    }
                }
            }
        }

        // Per occurring phrase: the pruned maximum-weight matching over
        // its candidates.
        let mut assignments = Vec::with_capacity(interest.len());
        for (q, mut candidates) in candidates.into_iter().enumerate() {
            if live(q).is_none() {
                assignments.push(None);
                continue;
            }
            candidates.sort_unstable();
            let weights: Vec<Vec<f64>> = (0..self.k)
                .map(|j| {
                    candidates
                        .iter()
                        .map(|&a| {
                            model.ctr(a, SlotIndex(j as u8)).value() * bids[a.index()].to_f64()
                        })
                        .collect()
                })
                .collect();
            let matching = ssa_auction::assignment::max_weight_assignment(&weights);
            let winners: Vec<RankedWinner> = matching
                .row_to_col
                .iter()
                .enumerate()
                .filter_map(|(j, col)| {
                    col.and_then(|c| {
                        let w = weights[j][c];
                        (w > 0.0).then(|| RankedWinner {
                            slot: SlotIndex(j as u8),
                            advertiser: candidates[c],
                            score: Score::new(w),
                        })
                    })
                })
                .collect();
            assignments.push(Some(Assignment::from_winners(winners)));
        }

        let unshared_scan_baseline = self.k
            * interest
                .iter()
                .zip(occurring)
                .filter(|(_, &occ)| occ)
                .map(|(iq, _)| iq.len())
                .sum::<usize>();
        SharedNonSepOutcome {
            assignments,
            aggregation_ops,
            unshared_scan_baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssa_auction::ctr::{CtrMatrix, SeparableCtr};
    use ssa_auction::nonseparable::{determine_winners_nonseparable, NonSeparableBid};

    /// Per-phrase unshared reference.
    fn reference(
        matrix: &CtrMatrix,
        bids: &[Money],
        interest: &[BitSet],
        occurring: &[bool],
    ) -> Vec<Option<f64>> {
        interest
            .iter()
            .zip(occurring)
            .map(|(iq, &occ)| {
                if !occ || iq.is_empty() {
                    return None;
                }
                let phrase_bids: Vec<NonSeparableBid> = iq
                    .iter()
                    .map(|i| NonSeparableBid {
                        advertiser: AdvertiserId::from_index(i),
                        bid: bids[i],
                    })
                    .collect();
                Some(determine_winners_nonseparable(matrix, &phrase_bids).expected_value)
            })
            .collect()
    }

    fn assignment_value(assignment: &Assignment, matrix: &CtrMatrix, bids: &[Money]) -> f64 {
        assignment
            .winners()
            .iter()
            .map(|w| matrix.ctr(w.advertiser, w.slot).value() * bids[w.advertiser.index()].to_f64())
            .sum()
    }

    #[test]
    fn matches_per_phrase_resolution() {
        let k = 3;
        let n = 12;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..k)
                    .map(|j| ((i * 5 + j * 11 + 3) % 17) as f64 / 17.0)
                    .collect()
            })
            .collect();
        let matrix = CtrMatrix::new(rows).unwrap();
        let bids: Vec<Money> = (0..n)
            .map(|i| Money::from_f64(1.0 + (i % 5) as f64 * 0.7))
            .collect();
        let interest = vec![
            BitSet::from_elements(n, 0..8),
            BitSet::from_elements(n, 4..12),
            BitSet::from_elements(n, (0..n).filter(|i| i % 2 == 0)),
        ];
        let rates = vec![0.8, 0.8, 0.6];
        let shared = SharedNonSeparable::new(n, &interest, &rates, k);
        let occurring = vec![true, true, true];
        let outcome = shared.resolve_round(&matrix, &bids, &interest, &occurring);
        let want = reference(&matrix, &bids, &interest, &occurring);
        for (q, (got, want)) in outcome.assignments.iter().zip(&want).enumerate() {
            let got_v = got.as_ref().map(|a| assignment_value(a, &matrix, &bids));
            match (got_v, want) {
                (Some(g), Some(w)) => {
                    assert!((g - w).abs() < 1e-9, "phrase {q}: {g} vs {w}")
                }
                (None, None) => {}
                other => panic!("phrase {q}: {other:?}"),
            }
        }
        assert!(outcome.aggregation_ops > 0);
        assert!(
            outcome.aggregation_ops < outcome.unshared_scan_baseline,
            "sharing must beat {} scans (got {} ops)",
            outcome.unshared_scan_baseline,
            outcome.aggregation_ops
        );
    }

    #[test]
    fn skips_non_occurring_and_empty_phrases() {
        let k = 2;
        let n = 6;
        let matrix =
            CtrMatrix::new((0..n).map(|i| vec![0.1 * (i + 1) as f64, 0.05]).collect()).unwrap();
        let bids = vec![Money::from_units(1); n];
        let interest = vec![
            BitSet::from_elements(n, 0..4),
            BitSet::new(n),
            BitSet::from_elements(n, 2..6),
        ];
        let shared = SharedNonSeparable::new(n, &interest, &[0.5; 3], k);
        let outcome = shared.resolve_round(&matrix, &bids, &interest, &[true, true, false]);
        assert!(outcome.assignments[0].is_some());
        assert!(outcome.assignments[1].is_none(), "empty phrase");
        assert!(outcome.assignments[2].is_none(), "did not occur");
    }

    #[test]
    fn compiles_and_resolves_with_no_advertisers() {
        let interest = vec![BitSet::new(0), BitSet::new(0)];
        let shared = SharedNonSeparable::new(0, &interest, &[0.5, 0.5], 2);
        let model = SeparableCtr::new(Vec::new(), vec![0.3, 0.2]).unwrap();
        let outcome = shared.resolve_round(&model, &[], &interest, &[true, true]);
        assert!(outcome.assignments.iter().all(Option::is_none));
        assert_eq!(outcome.aggregation_ops, 0);
    }

    #[test]
    fn an_empty_phrase_leaves_the_plan_unchanged() {
        let n = 6;
        let a = BitSet::from_elements(n, 0..4);
        let b = BitSet::from_elements(n, 2..6);
        let interest = [a.clone(), BitSet::new(n), b.clone()];
        let with = SharedNonSeparable::new(n, &interest, &[0.5, 0.9, 0.7], 2).plan;
        let without = SharedNonSeparable::new(n, &[a, b], &[0.5, 0.7], 2).plan;
        assert_eq!(with.node_count(), without.node_count());
        for idx in 0..with.node_count() {
            assert_eq!(with.vars(idx), without.vars(idx), "node {idx}");
            assert_eq!(with.children(idx), without.children(idx), "node {idx}");
        }
        assert_eq!(with.query_nodes(), without.query_nodes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The shared pruning pipeline is lossless: per-phrase objective
        /// values equal the unshared per-phrase resolution.
        #[test]
        fn shared_pruning_is_lossless(
            n in 4usize..10,
            k in 1usize..4,
            ctr_seed in proptest::collection::vec(0u8..=100, 40),
            bid_seed in proptest::collection::vec(1u8..50, 10),
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..10, 1..8), 1..4),
            occ in proptest::collection::vec(any::<bool>(), 4),
        ) {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..k).map(|j| ctr_seed[(i * 4 + j) % 40] as f64 / 100.0).collect())
                .collect();
            let matrix = CtrMatrix::new(rows).unwrap();
            let bids: Vec<Money> = (0..n)
                .map(|i| Money::from_f64(bid_seed[i % 10] as f64 / 10.0))
                .collect();
            let interest: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(n, s.iter().copied().filter(|&v| v < n)))
                .collect();
            // Drop phrases that became empty after filtering.
            let interest: Vec<BitSet> =
                interest.into_iter().filter(|s| !s.is_empty()).collect();
            prop_assume!(!interest.is_empty());
            let m = interest.len();
            let occurring: Vec<bool> = (0..m).map(|q| occ[q % occ.len()]).collect();
            let shared = SharedNonSeparable::new(n, &interest, &vec![0.5; m], k);
            let outcome = shared.resolve_round(&matrix, &bids, &interest, &occurring);
            let want = reference(&matrix, &bids, &interest, &occurring);
            for (q, (got, want)) in outcome.assignments.iter().zip(&want).enumerate() {
                let got_v = got.as_ref().map(|a| assignment_value(a, &matrix, &bids));
                match (got_v, want) {
                    (Some(g), Some(w)) =>
                        prop_assert!((g - w).abs() < 1e-9, "phrase {}: {} vs {}", q, g, w),
                    (None, None) => {}
                    other => prop_assert!(false, "phrase {}: {:?}", q, other),
                }
            }
        }
    }
}
