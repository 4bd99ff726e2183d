//! The naive reference oracle.
//!
//! Resolves every bid phrase *independently* — no shared plans, no merge
//! networks, no Threshold Algorithm, no lazy bounds — using only the
//! per-auction primitives from `ssa-auction`, the exact throttled-bid
//! convolution from `ssa-core::budget` (itself backed by `ssa-stats`), and
//! its own reading of the pricing rules over a full rescan.
//! Anything an optimized path computes must agree with what this module
//! computes from the same inputs. [`plan_round_ops`] is the one model-side
//! entry: the work a plan round must count, per §II-B.

use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::instance::{AuctionEntry, AuctionInstance};
use ssa_auction::money::Money;
use ssa_auction::pricing::PricingRule;
use ssa_auction::winner::{determine_winners, Assignment};
use ssa_core::budget::BudgetContext;
use ssa_core::engine::resolvers::PlanResolver;
use ssa_core::engine::{BudgetPolicy, BudgetSnapshot};
use ssa_core::plan::cost;
use ssa_workload::Workload;

/// Per-advertiser auction participation counts `m_i` for a round in which
/// the given phrases occur.
pub fn auction_counts(w: &Workload, occurring: &[PhraseId]) -> Vec<u64> {
    let mut m_i = vec![0u64; w.advertiser_count()];
    for &q in occurring {
        for a in &w.interest[q.index()] {
            m_i[a.index()] += 1;
        }
    }
    m_i
}

/// Recomputes every advertiser's effective bid for a round from first
/// principles: zero for non-participants, the stated bid (or zero once
/// the budget is spent) under [`BudgetPolicy::Ignore`], and the paper's
/// exact throttled bid `E(min(b, max(0, β − S)/m))` otherwise.
pub fn effective_bids(
    snapshots: &[BudgetSnapshot],
    m_i: &[u64],
    policy: BudgetPolicy,
) -> Vec<Money> {
    assert_eq!(snapshots.len(), m_i.len(), "one count per advertiser");
    snapshots
        .iter()
        .zip(m_i)
        .map(|(snap, &m)| {
            if m == 0 {
                return Money::ZERO;
            }
            match policy {
                BudgetPolicy::Ignore => {
                    if snap.remaining_budget.is_zero() {
                        Money::ZERO
                    } else {
                        snap.bid
                    }
                }
                BudgetPolicy::ThrottleExact | BudgetPolicy::ThrottleBounds => BudgetContext {
                    bid: snap.bid,
                    remaining_budget: snap.remaining_budget,
                    auctions_in_round: m,
                    outstanding: snap.outstanding.clone(),
                }
                .throttled_bid_exact(),
            }
        })
        .collect()
}

/// The auction instance for one phrase under the given effective bids:
/// one entry per interested advertiser with its phrase-specific factor.
pub fn phrase_instance(
    w: &Workload,
    phrase: PhraseId,
    bids: &[Money],
    slot_factors: &[f64],
) -> Option<AuctionInstance> {
    let q = phrase.index();
    let entries: Vec<AuctionEntry> = w.interest[q]
        .iter()
        .enumerate()
        .map(|(pos, &a)| AuctionEntry::new(a, bids[a.index()], w.phrase_factors[q][pos]))
        .collect();
    if entries.is_empty() {
        return None;
    }
    Some(AuctionInstance::new(entries, slot_factors.to_vec()).expect("workload factors are valid"))
}

/// Winner determination for one phrase, independent of everything else:
/// the plain `O(n log k)` top-k scan over the phrase's interest set.
pub fn phrase_assignment(
    w: &Workload,
    phrase: PhraseId,
    bids: &[Money],
    slot_factors: &[f64],
) -> Assignment {
    match phrase_instance(w, phrase, bids, slot_factors) {
        Some(instance) => determine_winners(&instance),
        None => Assignment::from_winners(Vec::new()),
    }
}

/// The per-click price of each of `winners` (the displayed order, best
/// slot first) on one phrase, read straight off the rule's definition
/// with nothing taken from the engine's ranking: every score is
/// recomputed from `bids`, and the runner-up is found by rescanning the
/// whole interest set for the best score among the advertisers not
/// displayed. With ranked scores `s_1 ≥ s_2 ≥ …` (the displayed winners,
/// then that runner-up) and slot factors `d_j`, the winner in slot `j`
/// with factor `c` pays its bid under first-price, `s_(j+1) / c` under
/// GSP, and `Σ_{t≥j} (d_t − d_(t+1)) · s_(t+1) / (c · d_j)` under VCG,
/// never more than its bid. Winners have positive scores and the slots
/// positive factors, so nothing divides by zero.
pub fn phrase_prices(
    w: &Workload,
    phrase: PhraseId,
    bids: &[Money],
    winners: &[AdvertiserId],
    slot_factors: &[f64],
    rule: PricingRule,
) -> Vec<Money> {
    let factor = |a: AdvertiserId| w.phrase_factor(phrase, a).unwrap_or(0.0);
    let score = |a: AdvertiserId| bids[a.index()].to_f64() * factor(a);
    let runner_up = w.interest[phrase.index()]
        .iter()
        .filter(|a| !winners.contains(a))
        .map(|&a| score(a))
        .fold(0.0, f64::max);
    let ranked: Vec<f64> = winners
        .iter()
        .map(|&a| score(a))
        .chain([runner_up])
        .collect();
    let d = |slot: usize| slot_factors.get(slot).copied().unwrap_or(0.0);
    winners
        .iter()
        .enumerate()
        .map(|(j, &a)| {
            let bid = bids[a.index()];
            let price = match rule {
                PricingRule::FirstPrice => bid,
                PricingRule::GeneralizedSecondPrice => Money::from_f64(ranked[j + 1] / factor(a)),
                PricingRule::Vcg => {
                    let externality: f64 = (j..winners.len())
                        .map(|t| (d(t) - d(t + 1)) * ranked[t + 1])
                        .sum();
                    Money::from_f64(externality / (factor(a) * d(j)))
                }
            };
            price.min(bid)
        })
        .collect()
}

/// The phrase's full ranking (every interested advertiser by descending
/// `b_i · c_i^q`, ties by ascending id) — the ground truth TA and plan
/// results are prefixes of.
pub fn phrase_ranking(w: &Workload, phrase: PhraseId, bids: &[Money]) -> Vec<AdvertiserId> {
    let q = phrase.index();
    let mut scored: Vec<(f64, AdvertiserId)> = w.interest[q]
        .iter()
        .enumerate()
        .map(|(pos, &a)| (bids[a.index()].to_f64() * w.phrase_factors[q][pos], a))
        .collect();
    scored.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
    scored.into_iter().map(|(_, a)| a).collect()
}

/// The ⊕ applications §II-B's model charges one round of `resolver`
/// (compiled over every phrase of `w`) in which `occurring` occur:
/// [`cost::materialized_cost`] of its plan. The plan binds the non-empty
/// phrases in phrase order, which is how occurrence maps onto its queries.
pub fn plan_round_ops(w: &Workload, resolver: &PlanResolver, occurring: &[PhraseId]) -> u64 {
    let Some(plan) = resolver.dag() else {
        return 0;
    };
    let mut occurs = vec![false; w.phrase_count()];
    for phrase in occurring {
        occurs[phrase.index()] = true;
    }
    let per_query: Vec<bool> = (0..w.phrase_count())
        .filter(|&q| !w.interest[q].is_empty())
        .map(|q| occurs[q])
        .collect();
    cost::materialized_cost(plan, &per_query) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Profile};

    #[test]
    fn oracle_matches_itself_under_permutation_of_phrases() {
        // Phrase resolution must be genuinely independent: resolving in a
        // different order (or a subset) cannot change any assignment.
        let w = gen::workload(3, Profile::Separable);
        let bids: Vec<Money> = w.advertisers.iter().map(|a| a.bid).collect();
        let slots = [0.3, 0.2, 0.1];
        for q in 0..w.phrase_count() {
            let phrase = PhraseId::from_index(q);
            let a = phrase_assignment(&w, phrase, &bids, &slots);
            let b = phrase_assignment(&w, phrase, &bids, &slots);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn effective_bids_zero_for_nonparticipants() {
        let snaps = vec![
            BudgetSnapshot {
                bid: Money::from_units(2),
                remaining_budget: Money::from_units(100),
                outstanding: Vec::new(),
            };
            2
        ];
        let bids = effective_bids(&snaps, &[0, 3], BudgetPolicy::ThrottleExact);
        assert_eq!(bids[0], Money::ZERO);
        assert_eq!(
            bids[1],
            Money::from_units(2),
            "unconstrained passes through"
        );
    }

    #[test]
    fn ranking_prefix_is_the_assignment() {
        let w = gen::workload(11, Profile::NonSeparable);
        let bids: Vec<Money> = w.advertisers.iter().map(|a| a.bid).collect();
        let slots = [0.3, 0.2];
        for q in 0..w.phrase_count() {
            let phrase = PhraseId::from_index(q);
            let assignment = phrase_assignment(&w, phrase, &bids, &slots);
            let ranking = phrase_ranking(&w, phrase, &bids);
            for (i, winner) in assignment.winners().iter().enumerate() {
                assert_eq!(ranking[i], winner.advertiser, "phrase {q} slot {i}");
            }
        }
    }
}
