//! Top-k winner determination under budget uncertainty.
//!
//! Winner determination ranks advertisers by the exact throttled score
//! `b̂_i · c_i` as a [`ScoredAd`] — score first, then lower advertiser id,
//! exactly as every other resolver ranks — but an exact `b̂_i` costs a
//! budget-capped convolution. The selection here is one best-first pass
//! over keys that are either exact or a sound upper bound on the exact
//! key, so bounds only prune and never decide an order:
//!
//! - a candidate whose bid needs no convolution (zero bid, zero budget,
//!   or [`BudgetContext::is_unconstrained`]) is scored exactly and builds
//!   no refiner;
//! - every other candidate is keyed by its depth-0 Hoeffding upper bound
//!   plus [`BOUND_SLACK_MICROS`], rounded up to a micro; one whose key
//!   falls below the k-th certain key is eliminated outright (the
//!   "quickly eliminate unlikely contenders" scheduling the paper credits
//!   to Ré–Dalvi–Suciu's multisimulation);
//! - the pass pops the largest key. An exact key is the next rank: it is
//!   at least every remaining key, each of which bounds its own
//!   advertiser's exact key, and keys of distinct advertisers never tie.
//!   An upper key is refined one depth, up to `SNAP_DEPTH`, then
//!   finished with the convolution, and pushed back either way.
//!
//! Past `SNAP_DEPTH` one exact evaluation is cheaper than any further
//! halving of the interval: without the cap a pair of near-tied heavy
//! advertisers (the common case late in a simulation, when winners have
//! accumulated many outstanding ads) forces `O(2^l)` work per auction.

use std::collections::BinaryHeap;

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;
use ssa_auction::score::Score;

use super::{BudgetContext, ThrottledBidRefiner, BOUND_SLACK_MICROS};
use crate::topk::{KList, ScoredAd};

/// Refinement depth past which a contested candidate is finished off
/// with one exact convolution instead of ever-deeper interval bounds.
/// A bound evaluation at depth `d` costs `O(2^d)`; the capped
/// convolution is polynomial, so by this depth it is the cheaper move.
const SNAP_DEPTH: usize = 12;

/// One contender in an uncertain top-k selection.
#[derive(Debug, Clone)]
pub struct UncertainCandidate {
    /// The advertiser.
    pub advertiser: AdvertiserId,
    /// The advertiser-specific CTR factor `c_i` scaling the throttled bid
    /// into a score.
    pub factor: f64,
    ctx: BudgetContext,
}

impl UncertainCandidate {
    /// Builds a candidate from a budget context.
    pub fn new(advertiser: AdvertiserId, factor: f64, ctx: &BudgetContext) -> Self {
        UncertainCandidate {
            advertiser,
            factor,
            ctx: ctx.clone(),
        }
    }

    /// The exact throttled bid, via the budget-capped convolution.
    pub fn exact_bid(&self) -> Money {
        self.ctx.throttled_bid_exact()
    }

    /// The ranking key of a throttled bid — [`scan_top_k`]'s key.
    ///
    /// [`scan_top_k`]: crate::engine::resolvers::scan_top_k
    fn key(&self, bid: Money) -> ScoredAd {
        ScoredAd::new(self.advertiser, Score::expected_value(bid, self.factor))
    }

    /// A key at least the exact one, from the refiner's bounds at `depth`.
    fn upper_key(&self, refiner: &ThrottledBidRefiner, depth: usize) -> ScoredAd {
        let hi = refiner.bounds(depth).hi() + BOUND_SLACK_MICROS as f64;
        self.key(Money::from_micros(hi.ceil() as u64))
    }
}

/// Statistics from one uncertain top-k run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UncertainTopKStats {
    /// Refiner bound evaluations: depth 0 for every uncertain candidate,
    /// then one per refinement step. Certain candidates cost none.
    pub bound_evaluations: u64,
    /// Budget-capped convolutions run (uncertain candidates finished at
    /// their depth cap). Certain candidates cost none.
    pub exact_evaluations: u64,
    /// The deepest refinement depth any candidate reached.
    pub max_depth_used: usize,
    /// Uncertain candidates ruled out on their depth-0 bounds alone.
    pub eliminated_at_depth_zero: usize,
}

/// A ranked winner with its exact throttled score (computed only for
/// winners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertainWinner {
    /// The advertiser.
    pub advertiser: AdvertiserId,
    /// The exact throttled bid `b̂_i` (before the CTR factor).
    pub bid: Money,
    /// The exact score `b̂_i · c_i`.
    pub score: Score,
}

/// A best-first entry: the key, then `Ok(bid)` once it is exact or
/// `Err(slot)` naming the pending refinement while it is an upper bound.
/// Keys of distinct advertisers never tie, so only the key orders.
type Entry = (ScoredAd, Result<Money, usize>);

/// Finds the ranked top-k candidates by `b̂_i · c_i` in [`ScoredAd`]
/// order, computing exact bids only where bounds cannot prune.
/// Zero-score candidates are dropped.
pub fn top_k_uncertain(
    candidates: &[UncertainCandidate],
    k: usize,
) -> (Vec<UncertainWinner>, UncertainTopKStats) {
    let mut stats = UncertainTopKStats::default();
    let mut certain: KList<Entry> = KList::empty(k);
    let mut uncertain: Vec<Entry> = Vec::new();
    let mut pending = Vec::new();
    for c in candidates {
        if let Some(bid) = c.ctx.certain_bid() {
            certain.insert((c.key(bid), Ok(bid)));
        } else {
            let refiner = c.ctx.refiner();
            stats.bound_evaluations += 1;
            uncertain.push((c.upper_key(&refiner, 0), Err(pending.len())));
            pending.push((c, refiner, 0));
        }
    }
    let kth = certain.kth().map(|e| e.0);
    let survives = |e: &Entry| kth.is_none_or(|t| e.0 > t);
    let mut heap: BinaryHeap<Entry> = certain.items().iter().copied().collect();
    heap.extend(uncertain.into_iter().filter(survives));

    let mut reached = 0;
    let mut winners = Vec::with_capacity(k);
    while winners.len() < k {
        // A zero key leaves only zero exact scores behind it.
        let Some((key, bound)) = heap.pop().filter(|e| !e.0.score.is_zero()) else {
            break;
        };
        let slot = match bound {
            Ok(bid) => {
                winners.push(UncertainWinner {
                    advertiser: key.advertiser,
                    bid,
                    score: key.score,
                });
                continue;
            }
            Err(slot) => slot,
        };
        let (c, refiner, depth) = &mut pending[slot];
        reached += usize::from(*depth == 0);
        heap.push(if *depth < refiner.max_depth().min(SNAP_DEPTH) {
            *depth += 1;
            stats.bound_evaluations += 1;
            stats.max_depth_used = stats.max_depth_used.max(*depth);
            (c.upper_key(refiner, *depth), Err(slot))
        } else {
            let bid = c.exact_bid();
            stats.exact_evaluations += 1;
            (c.key(bid), Ok(bid))
        });
    }
    stats.eliminated_at_depth_zero = pending.len() - reached;
    (winners, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssa_auction::money::Money;

    use crate::budget::OutstandingAd;

    fn ctx(bid_units: f64, budget_units: f64, m: u64, outstanding: &[(f64, f64)]) -> BudgetContext {
        BudgetContext {
            bid: Money::from_f64(bid_units),
            remaining_budget: Money::from_f64(budget_units),
            auctions_in_round: m,
            outstanding: outstanding
                .iter()
                .map(|&(p, c)| OutstandingAd::new(Money::from_f64(p), c))
                .collect(),
        }
    }

    fn cand(id: u32, factor: f64, c: &BudgetContext) -> UncertainCandidate {
        UncertainCandidate::new(AdvertiserId(id), factor, c)
    }

    /// Naive reference: exact throttled scores, full sort.
    fn naive(cands: &[UncertainCandidate], k: usize) -> Vec<AdvertiserId> {
        let mut scored: Vec<(AdvertiserId, f64)> = cands
            .iter()
            .map(|c| (c.advertiser, c.exact_bid().to_f64() * c.factor.max(0.0)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
            .into_iter()
            .filter(|&(_, s)| s > 0.0)
            .take(k)
            .map(|(a, _)| a)
            .collect()
    }

    #[test]
    fn selects_and_ranks_clear_winners() {
        let candidates = vec![
            cand(0, 1.0, &ctx(5.0, 1000.0, 1, &[])), // score 5
            cand(1, 1.0, &ctx(1.0, 1000.0, 1, &[])), // score 1
            cand(2, 2.0, &ctx(2.0, 1000.0, 1, &[])), // score 4
            cand(3, 1.0, &ctx(0.5, 1000.0, 1, &[])), // score 0.5
        ];
        let (winners, stats) = top_k_uncertain(&candidates, 2);
        let ids: Vec<u32> = winners.iter().map(|w| w.advertiser.0).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(stats.max_depth_used, 0, "certain bids need no refinement");
        assert_eq!(
            winners[0].bid,
            Money::from_f64(5.0),
            "winners carry their exact throttled bid"
        );
        assert_eq!(
            stats.exact_evaluations, 0,
            "certain winners cost no convolution"
        );
    }

    /// Two exact bids of 900 000 micros whose full-depth bounds are the
    /// points 899 999.55 (advertiser 0) and 899 999.6 (advertiser 1): the
    /// exact scan ranks the tie by id, and so must the bounds.
    #[test]
    fn near_tie_ranks_by_exact_key_then_id() {
        let c0 = ctx(1.0, 1.5, 1, &[(1.0, 0.2000009)]);
        let c1 = ctx(1.0, 1.5, 1, &[(1.0, 0.2000008)]);
        assert_eq!(c0.throttled_bid_exact(), Money::from_micros(900_000));
        assert_eq!(c1.throttled_bid_exact(), Money::from_micros(900_000));
        let candidates = vec![cand(0, 1.0, &c0), cand(1, 1.0, &c1)];
        for (k, want) in [(1, vec![0]), (2, vec![0, 1])] {
            let (winners, _) = top_k_uncertain(&candidates, k);
            let ids: Vec<u32> = winners.iter().map(|w| w.advertiser.0).collect();
            assert_eq!(ids, want, "k = {k}");
        }
    }

    #[test]
    fn budget_pressure_reorders_winners() {
        // Advertiser 0 bids more but is nearly broke with a pending debt;
        // advertiser 1 overtakes after throttling.
        let a0 = ctx(5.0, 2.0, 1, &[(1.9, 0.99)]); // b̂ ≈ 0.12
        let a1 = ctx(3.0, 1000.0, 1, &[]); // b̂ = 3
        let candidates = vec![cand(0, 1.0, &a0), cand(1, 1.0, &a1)];
        let (winners, _) = top_k_uncertain(&candidates, 1);
        assert_eq!(winners[0].advertiser, AdvertiserId(1));
    }

    #[test]
    fn zero_score_candidates_are_dropped() {
        let candidates = vec![
            cand(0, 1.0, &ctx(2.0, 0.0, 1, &[])),  // broke
            cand(1, 0.0, &ctx(2.0, 10.0, 1, &[])), // zero factor
            cand(2, 1.0, &ctx(2.0, 10.0, 1, &[])),
        ];
        let (winners, _) = top_k_uncertain(&candidates, 3);
        assert_eq!(winners.len(), 1);
        assert_eq!(winners[0].advertiser, AdvertiserId(2));
    }

    #[test]
    fn far_apart_candidates_eliminate_cheaply() {
        // 1 strong candidate, many weak ones with uncertainty: the weak
        // ones must be eliminated without deep refinement.
        let mut candidates = vec![cand(0, 2.0, &ctx(9.0, 1000.0, 1, &[]))];
        for i in 1..12 {
            candidates.push(cand(i, 0.1, &ctx(1.0, 2.0, 1, &[(1.0, 0.5), (0.5, 0.5)])));
        }
        let (winners, stats) = top_k_uncertain(&candidates, 1);
        assert_eq!(winners[0].advertiser, AdvertiserId(0));
        assert!(
            stats.eliminated_at_depth_zero >= 10,
            "weak candidates should fall at depth 0, got {}",
            stats.eliminated_at_depth_zero
        );
    }

    #[test]
    fn empty_and_zero_k() {
        let (w, _) = top_k_uncertain(&[], 3);
        assert!(w.is_empty());
        let candidates = vec![cand(0, 1.0, &ctx(1.0, 10.0, 1, &[]))];
        let (w, _) = top_k_uncertain(&candidates, 0);
        assert!(w.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Lazy selection returns exactly the naive exact-computation
        /// ranking.
        #[test]
        fn lazy_matches_naive(
            specs in proptest::collection::vec(
                (1u64..8, 1u64..16, 0usize..4), 1..8),
            factors in proptest::collection::vec(1u32..30, 8),
            prices in proptest::collection::vec(1u64..6, 4),
            probs in proptest::collection::vec(0.1f64..=0.9, 4),
            k in 1usize..4,
        ) {
            let candidates: Vec<UncertainCandidate> = specs
                .iter()
                .enumerate()
                .map(|(i, &(bid, budget, n_out))| {
                    let outs: Vec<(f64, f64)> = (0..n_out)
                        .map(|j| (prices[j] as f64, probs[j]))
                        .collect();
                    cand(
                        i as u32,
                        factors[i] as f64 / 10.0,
                        &ctx(bid as f64, budget as f64, 2, &outs),
                    )
                })
                .collect();
            let (winners, _) = top_k_uncertain(&candidates, k);
            let got: Vec<AdvertiserId> =
                winners.iter().map(|w| w.advertiser).collect();
            let want = naive(&candidates, k);
            prop_assert_eq!(got, want);
        }
    }
}
