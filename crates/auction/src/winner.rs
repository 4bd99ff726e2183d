//! Winner determination for a single auction under separability.
//!
//! Section II-A of the paper: since `ctr_ij = c_i * d_j`, the integer
//! program reduces to finding the one-to-one map `α` from slots to
//! advertisers maximizing `Σ_j b_{α(j)} c_{α(j)} d_j`, which — with slot
//! factors sorted descending — is solved by taking the advertisers with the
//! top-k values of `b_i c_i` and assigning the j-th best to slot j. This is
//! a single scan keeping the top k, i.e. `O(n log k)` time and `O(k)`
//! space.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::ids::{AdvertiserId, SlotIndex};
use crate::instance::{AuctionEntry, AuctionInstance};
use crate::score::Score;

/// A ranked auction winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedWinner {
    /// The slot the advertiser is assigned to.
    pub slot: SlotIndex,
    /// The winning advertiser.
    pub advertiser: AdvertiserId,
    /// The advertiser's ranking score `b_i * c_i`.
    pub score: Score,
}

/// The output of winner determination: slot `j` (best first) is assigned
/// the advertiser with the j-th highest score. Fewer winners than slots are
/// possible when the auction is thin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    winners: Vec<RankedWinner>,
    /// The score ranked directly below the last winner: the one fact
    /// about the losers that pricing needs. Zero when nobody ranks there.
    runner_up: Score,
}

impl Assignment {
    /// Builds an assignment from explicit per-slot winners. Winners are
    /// sorted by slot; slots and advertisers must be unique. Slots need not
    /// be contiguous — a non-separable optimum may leave a slot empty. Such
    /// an assignment has no ranking behind it, so its runner-up is zero.
    ///
    /// # Panics
    /// Panics if a slot or advertiser appears twice.
    pub fn from_winners(mut winners: Vec<RankedWinner>) -> Self {
        winners.sort_by_key(|w| w.slot);
        for pair in winners.windows(2) {
            assert!(
                pair[0].slot != pair[1].slot,
                "slot {} assigned twice",
                pair[0].slot
            );
        }
        let mut advertisers: Vec<AdvertiserId> = winners.iter().map(|w| w.advertiser).collect();
        advertisers.sort_unstable();
        for pair in advertisers.windows(2) {
            assert!(pair[0] != pair[1], "advertiser {} assigned twice", pair[0]);
        }
        Assignment {
            winners,
            runner_up: Score::ZERO,
        }
    }

    /// The winners in slot order (slot 0 first).
    #[inline]
    pub fn winners(&self) -> &[RankedWinner] {
        &self.winners
    }

    /// The score ranked directly below the last winner, zero if none.
    #[inline]
    pub(crate) fn runner_up(&self) -> Score {
        self.runner_up
    }

    /// Number of slots actually filled.
    #[inline]
    pub fn len(&self) -> usize {
        self.winners.len()
    }

    /// True when nobody won anything.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// The advertiser in `slot`, if it was filled.
    pub fn advertiser_in_slot(&self, slot: SlotIndex) -> Option<AdvertiserId> {
        self.winners
            .iter()
            .find(|w| w.slot == slot)
            .map(|w| w.advertiser)
    }

    /// The slot assigned to `advertiser`, if any.
    pub fn slot_of(&self, advertiser: AdvertiserId) -> Option<SlotIndex> {
        self.winners
            .iter()
            .find(|w| w.advertiser == advertiser)
            .map(|w| w.slot)
    }

    /// The objective value `Σ_j d_j * b_{α(j)} c_{α(j)}`: the total
    /// expected amount of bids realized by this assignment.
    pub fn expected_value(&self, instance: &AuctionInstance) -> f64 {
        self.winners
            .iter()
            .map(|w| instance.slot_factors()[w.slot.index()] * w.score.value())
            .sum()
    }
}

/// Key used to order entries: score descending, then advertiser id
/// ascending for deterministic tie-breaking.
type RankKey = (Score, Reverse<AdvertiserId>);

fn rank_key(entry: &AuctionEntry) -> RankKey {
    (entry.score(), Reverse(entry.advertiser))
}

/// Returns the entries with the `k` highest scores, best first, breaking
/// ties by advertiser id (lower id wins). Runs in `O(n log k)`.
///
/// This is the primitive that Section II shares across auctions: "finding
/// the advertisers with the top k values of `b_i c_i`".
pub fn top_k_entries(entries: &[AuctionEntry], k: usize) -> Vec<AuctionEntry> {
    if k == 0 || entries.is_empty() {
        return Vec::new();
    }
    // Min-heap of the current top k, keyed so the *worst* retained entry is
    // at the top.
    let mut heap: BinaryHeap<Reverse<(Score, Reverse<AdvertiserId>, usize)>> =
        BinaryHeap::with_capacity(k + 1);
    for (idx, entry) in entries.iter().enumerate() {
        let (score, rev_id) = rank_key(entry);
        heap.push(Reverse((score, rev_id, idx)));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut picked: Vec<&AuctionEntry> = heap
        .into_iter()
        .map(|Reverse((_, _, idx))| &entries[idx])
        .collect();
    picked.sort_by_key(|e| std::cmp::Reverse(rank_key(e)));
    picked.into_iter().copied().collect()
}

/// Solves winner determination for one auction: assigns slot `j` to the
/// advertiser with the j-th highest `b_i c_i`.
///
/// Advertisers with zero score are never assigned a slot (displaying them
/// realizes no expected value, and pricing rules would charge them
/// nothing).
///
/// ```
/// use ssa_auction::{determine_winners, AuctionInstance};
/// use ssa_auction::ids::{AdvertiserId, SlotIndex};
/// let inst = AuctionInstance::paper_example();
/// let assignment = determine_winners(&inst);
/// // The paper: "winner determination assigns slot 1 to advertiser A and
/// // slot 2 to advertiser B" (our slots are zero-indexed).
/// assert_eq!(assignment.advertiser_in_slot(SlotIndex(0)), Some(AdvertiserId(0)));
/// assert_eq!(assignment.advertiser_in_slot(SlotIndex(1)), Some(AdvertiserId(1)));
/// ```
pub fn determine_winners(instance: &AuctionInstance) -> Assignment {
    let k = instance.slot_count();
    let ranked: Vec<(AdvertiserId, Score)> = top_k_entries(instance.entries(), k + 1)
        .iter()
        .map(|e| (e.advertiser, e.score()))
        .collect();
    assignment_from_ranking(&ranked, k)
}

/// Builds an assignment directly from a pre-ranked list of (advertiser,
/// score) pairs — used when the ranking came out of a shared aggregation
/// plan rather than a scan over this auction's entries. The first `k`
/// nonzero scores win; the score ranked right after them is kept as the
/// assignment's runner-up, so hand over the top `k + 1` wherever the
/// assignment will be priced.
pub fn assignment_from_ranking(ranked: &[(AdvertiserId, Score)], k: usize) -> Assignment {
    let winners: Vec<RankedWinner> = ranked
        .iter()
        .take(k)
        .filter(|(_, s)| !s.is_zero())
        .enumerate()
        .map(|(j, &(advertiser, score))| RankedWinner {
            slot: SlotIndex(j as u8),
            advertiser,
            score,
        })
        .collect();
    let runner_up = ranked.get(winners.len()).map_or(Score::ZERO, |&(_, s)| s);
    Assignment { winners, runner_up }
}

/// Exhaustive reference solver for the winner-determination integer
/// program: tries every injective mapping of slots to advertisers and
/// returns the best objective value. Exponential — test use only.
pub fn brute_force_optimal_value(instance: &AuctionInstance) -> f64 {
    fn recurse(
        instance: &AuctionInstance,
        slot: usize,
        used: &mut Vec<bool>,
        acc: f64,
        best: &mut f64,
    ) {
        if acc > *best {
            *best = acc;
        }
        if slot >= instance.slot_count() {
            return;
        }
        let d = instance.slot_factors()[slot];
        // Option 1: leave this slot empty.
        recurse(instance, slot + 1, used, acc, best);
        // Option 2: fill it with any unused advertiser.
        for (i, entry) in instance.entries().iter().enumerate() {
            if !used[i] {
                used[i] = true;
                recurse(
                    instance,
                    slot + 1,
                    used,
                    acc + d * entry.score().value(),
                    best,
                );
                used[i] = false;
            }
        }
    }
    let mut best = 0.0;
    let mut used = vec![false; instance.advertiser_count()];
    recurse(instance, 0, &mut used, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;

    fn entry(id: u32, bid_units: f64, factor: f64) -> AuctionEntry {
        AuctionEntry::new(AdvertiserId(id), Money::from_f64(bid_units), factor)
    }

    /// E1: the paper's worked example (Figures 1–3).
    #[test]
    fn fig1_3_worked_example() {
        let inst = AuctionInstance::paper_example();
        let a = determine_winners(&inst);
        assert_eq!(a.len(), 2);
        assert_eq!(a.advertiser_in_slot(SlotIndex(0)), Some(AdvertiserId(0)));
        assert_eq!(a.advertiser_in_slot(SlotIndex(1)), Some(AdvertiserId(1)));
        assert_eq!(a.slot_of(AdvertiserId(2)), None);
    }

    #[test]
    fn top_k_orders_by_score_then_id() {
        let entries = vec![
            entry(0, 1.0, 1.0),
            entry(1, 2.0, 1.0),
            entry(2, 1.0, 1.0), // ties with 0; id 0 should rank first
            entry(3, 3.0, 1.0),
        ];
        let top = top_k_entries(&entries, 3);
        let ids: Vec<u32> = top.iter().map(|e| e.advertiser.0).collect();
        assert_eq!(ids, vec![3, 1, 0]);
    }

    #[test]
    fn top_k_with_k_larger_than_n() {
        let entries = vec![entry(0, 1.0, 1.0)];
        assert_eq!(top_k_entries(&entries, 5).len(), 1);
        assert!(top_k_entries(&entries, 0).is_empty());
        assert!(top_k_entries(&[], 3).is_empty());
    }

    #[test]
    fn zero_score_entries_never_win() {
        let inst = AuctionInstance::new(
            vec![entry(0, 0.0, 1.0), entry(1, 1.0, 0.0), entry(2, 1.0, 0.5)],
            vec![0.3, 0.2],
        )
        .unwrap();
        let a = determine_winners(&inst);
        assert_eq!(a.len(), 1);
        assert_eq!(a.advertiser_in_slot(SlotIndex(0)), Some(AdvertiserId(2)));
    }

    #[test]
    fn greedy_matches_brute_force_on_small_instances() {
        // Deterministic small sweep: the top-k-by-score rule must equal the
        // integer program's optimum because slot factors are descending.
        let cases: Vec<AuctionInstance> = vec![
            AuctionInstance::paper_example(),
            AuctionInstance::new(
                vec![
                    entry(0, 5.0, 0.1),
                    entry(1, 1.0, 0.9),
                    entry(2, 2.0, 0.4),
                    entry(3, 0.5, 2.0),
                ],
                vec![0.5, 0.25, 0.1],
            )
            .unwrap(),
            AuctionInstance::new(vec![entry(0, 1.0, 1.0), entry(1, 1.0, 1.0)], vec![0.3, 0.3])
                .unwrap(),
        ];
        for inst in cases {
            let fast = determine_winners(&inst).expected_value(&inst);
            let exact = brute_force_optimal_value(&inst);
            assert!(
                (fast - exact).abs() < 1e-9,
                "fast {fast} != exact {exact} on {inst:?}"
            );
        }
    }

    #[test]
    fn assignment_from_ranking_respects_k_and_zero_scores() {
        let ranked = vec![
            (AdvertiserId(4), Score::new(3.0)),
            (AdvertiserId(2), Score::new(2.0)),
            (AdvertiserId(9), Score::ZERO),
        ];
        let a = assignment_from_ranking(&ranked, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.runner_up(), Score::ZERO, "a zero score ranks next");
        let a = assignment_from_ranking(&ranked, 5);
        assert_eq!(a.len(), 2, "zero-score tail dropped");
        assert_eq!(a.runner_up(), Score::ZERO);
        let a = assignment_from_ranking(&ranked, 1);
        assert_eq!(a.len(), 1);
        assert_eq!(a.advertiser_in_slot(SlotIndex(0)), Some(AdvertiserId(4)));
        assert_eq!(a.runner_up(), Score::new(2.0));
        let a = assignment_from_ranking(&ranked[..1], 1);
        assert_eq!(a.runner_up(), Score::ZERO, "nobody ranks below");
    }

    #[test]
    fn determine_winners_keeps_the_runner_up() {
        // Scores: A = 2.4, B = 2.2, C = 2.08; two slots.
        let a = determine_winners(&AuctionInstance::paper_example());
        assert_eq!(
            a.runner_up(),
            Score::expected_value(Money::from_f64(1.6), 1.3)
        );
        let thin = AuctionInstance::new(vec![entry(0, 3.0, 1.0)], vec![0.3, 0.2]).unwrap();
        assert_eq!(determine_winners(&thin).runner_up(), Score::ZERO);
    }

    #[test]
    fn expected_value_matches_hand_computation() {
        let inst = AuctionInstance::paper_example();
        let a = determine_winners(&inst);
        // 0.3 * 2.4 + 0.2 * 2.2 = 0.72 + 0.44 = 1.16
        assert!((a.expected_value(&inst) - 1.16).abs() < 1e-9);
    }
}
