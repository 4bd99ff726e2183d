//! The baseline resolver: an independent top-k scan per phrase.

use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::money::Money;
use ssa_auction::score::Score;
use ssa_auction::winner::assignment_from_ranking;

use crate::budget::topk::{top_k_uncertain, UncertainCandidate};
use crate::topk::{KList, ScoredAd};

use super::super::{AuctionOutcome, BudgetPolicy, EngineMetrics};
use super::{PhraseResolver, RoundContext};

/// Independent scan per phrase. Stateless: every round's work derives
/// entirely from the [`RoundContext`].
///
/// Under `ThrottleBounds`, selection runs best-first on lazily refined
/// Hoeffding bounds in the scan's own [`ScoredAd`] order, so it ranks
/// exactly as the scan over exact throttled bids would; the exact bids of
/// each phrase's ranked top `k + 1` are backfilled into `effective_bids`.
#[derive(Debug, Default)]
pub struct UnsharedResolver;

/// Top-`k` of one phrase's interest list, advertiser `interest[j]`
/// scoring its bid times `factors[j]`, by the chunked threshold scan of
/// [`KList::scan`].
pub fn scan_top_k(
    interest: &[AdvertiserId],
    factors: &[f64],
    bids: &[Money],
    k: usize,
) -> KList<ScoredAd> {
    let factors = &factors[..interest.len()];
    let mut top: KList<ScoredAd> = KList::empty(k);
    top.scan(interest.len(), |j| {
        let a = interest[j];
        ScoredAd::new(a, Score::expected_value(bids[a.index()], factors[j]))
    });
    top
}

impl PhraseResolver for UnsharedResolver {
    fn resolve(
        &mut self,
        ctx: &RoundContext<'_>,
        phrases: &[PhraseId],
        effective_bids: &mut [Money],
        metrics: &mut EngineMetrics,
    ) -> Vec<AuctionOutcome> {
        let k = ctx.k;
        let bounds_mode = ctx.budget_policy == BudgetPolicy::ThrottleBounds;
        let mut out = Vec::with_capacity(phrases.len());
        for &phrase in phrases {
            let q = phrase.index();
            let interest = &ctx.workload.interest[q];
            let factors = &ctx.workload.phrase_factors[q];
            metrics.advertisers_scanned += interest.len() as u64;
            let ranked: Vec<(AdvertiserId, Score)> = if bounds_mode {
                // `m_i` was computed once for the whole round; no
                // per-(phrase, candidate) rescan of the occurring set.
                let candidates: Vec<UncertainCandidate> = interest
                    .iter()
                    .zip(factors)
                    .map(|(&a, &factor)| {
                        let budget = (ctx.budgets)(a.index(), ctx.m_i[a.index()]);
                        UncertainCandidate::new(a, factor, &budget)
                    })
                    .collect();
                let (winners, stats) = top_k_uncertain(&candidates, k + 1);
                metrics.bound_evaluations += stats.bound_evaluations;
                metrics.exact_throttle_evaluations += stats.exact_evaluations;
                // An advertiser's exact bid depends only on its own
                // budget state, so a later phrase re-writes the same value.
                for w in &winners {
                    effective_bids[w.advertiser.index()] = w.bid;
                }
                winners.iter().map(|w| (w.advertiser, w.score)).collect()
            } else {
                scan_top_k(interest, factors, effective_bids, k + 1)
                    .items()
                    .iter()
                    .map(|s| (s.advertiser, s.score))
                    .collect()
            };
            out.push(AuctionOutcome {
                phrase,
                assignment: assignment_from_ranking(&ranked, k),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunked scan must be bit-identical to the naive one-by-one
    /// insert loop, including across chunk boundaries and under score
    /// ties (where the `>=` threshold admits equal-score lower-id
    /// candidates that displace the current k-th).
    #[test]
    fn chunked_scan_matches_naive() {
        for n in [0usize, 1, 3, 63, 64, 65, 130, 257] {
            for k in [1usize, 2, 5, 8] {
                let interest: Vec<AdvertiserId> = (0..n).map(AdvertiserId::from_index).collect();
                // Deterministic pseudo-random bids with deliberate ties
                // (mod 7 collapses many scores onto the same value).
                let bids: Vec<Money> = (0..n)
                    .map(|i| Money::from_units(((i * 37 + 11) % 7 + 1) as u64))
                    .collect();
                let factors: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
                let chunked = scan_top_k(&interest, &factors, &bids, k);
                let mut naive: KList<ScoredAd> = KList::empty(k);
                for (pos, &a) in interest.iter().enumerate() {
                    let score = Score::expected_value(bids[a.index()], factors[pos]);
                    naive.insert(ScoredAd::new(a, score));
                }
                assert_eq!(chunked.items(), naive.items(), "n={n} k={k}");
            }
        }
    }
}
