//! Pricing rules.
//!
//! "While mechanisms currently in use differ in what pricing rule they use
//! after running winner determination, they all use winner determination as
//! a first step" (Section I). This module implements the three rules the
//! paper names — first-price, generalized second price (GSP, used by Google
//! and Yahoo!), and VCG for position auctions — all of which operate on the
//! ranked output of winner determination and all of which satisfy the
//! paper's standing constraint that *the price charged to an advertiser
//! does not exceed his bid*.

use serde::{Deserialize, Serialize};

use crate::ids::{AdvertiserId, SlotIndex};
use crate::instance::{AuctionEntry, AuctionInstance};
use crate::money::Money;
use crate::winner::{determine_winners, Assignment};

/// A slot with its winner and the per-click price charged on a click.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PricedSlot {
    /// The slot.
    pub slot: SlotIndex,
    /// The winning advertiser.
    pub advertiser: AdvertiserId,
    /// Price charged if (and only if) the user clicks.
    pub price_per_click: Money,
}

/// The pricing rules named by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PricingRule {
    /// Pay your bid.
    FirstPrice,
    /// Generalized second price with quality weighting: the winner in slot
    /// j pays the minimum bid that would keep it ranked above the next
    /// advertiser, `s_(j+1) / c_(j)` per click.
    GeneralizedSecondPrice,
    /// Vickrey–Clarke–Groves payments for position auctions under
    /// separability (the externality the winner imposes on those below).
    Vcg,
}

/// Runs winner determination then applies `rule`, returning the priced
/// slate.
///
/// ```
/// use ssa_auction::{AuctionInstance, PricingRule};
/// use ssa_auction::pricing::price_auction;
/// let priced = price_auction(&AuctionInstance::paper_example(), PricingRule::GeneralizedSecondPrice);
/// assert_eq!(priced.len(), 2);
/// for p in &priced {
///     println!("{} wins {} at {}", p.advertiser, p.slot, p.price_per_click);
/// }
/// ```
pub fn price_auction(instance: &AuctionInstance, rule: PricingRule) -> Vec<PricedSlot> {
    let assignment = determine_winners(instance);
    price_assignment(instance, &assignment, rule)
}

/// Applies `rule` to an existing assignment (e.g. one computed through a
/// shared plan).
pub fn price_assignment(
    instance: &AuctionInstance,
    assignment: &Assignment,
    rule: PricingRule,
) -> Vec<PricedSlot> {
    price_assignment_parts(
        instance.entries(),
        instance.slot_factors(),
        assignment,
        rule,
    )
}

/// [`price_assignment`] over borrowed instance parts, for callers that
/// hold a phrase's entry list rather than a ranked bid source: looks each
/// winner's bid and factor up in `entries` and applies [`price_ranked`].
///
/// # Panics
/// Panics if a winner is not among `entries`.
pub fn price_assignment_parts(
    entries: &[AuctionEntry],
    slot_factors: &[f64],
    assignment: &Assignment,
    rule: PricingRule,
) -> Vec<PricedSlot> {
    price_ranked(assignment, slot_factors, rule, |advertiser| {
        let entry = entries
            .iter()
            .find(|e| e.advertiser == advertiser)
            .expect("assigned advertiser must be an auction entry");
        (entry.bid, entry.advertiser_factor)
    })
    .collect()
}

/// The pricing formula: one [`PricedSlot`] per winner of `assignment`, in
/// slot order, under `rule`. `bid_and_factor` returns a winner's bid
/// `b_i` and advertiser factor `c_i`; nothing else about the auction is
/// read, so pricing costs `O(k)` lookups however many advertisers lost.
///
/// Winner determination already ranked everyone the rules charge against:
/// with ranked scores `s_(1) ≥ … ≥ s_(k+1)` (the winners' scores, then the
/// runner-up score the assignment carries),
///
/// * first-price charges the bid;
/// * GSP charges the winner ranked `j` the minimum bid that keeps it
///   there, `s_(j+1) / c_i`;
/// * VCG for position auctions under separability, with slot factors
///   `d_1 ≥ … ≥ d_k` (and `d_{k+1} = 0`), charges the welfare loss the
///   winner imposes on everyone ranked below it,
///   `Σ_{t=j}^{k} (d_t − d_{t+1}) · s_(t+1)` in expectation, divided by
///   its expected click rate `c_i · d_j` to make it per click.
///
/// Every price is capped at the winner's bid. The ranking is priced as
/// handed over: a winner pays against the score *displayed* below it,
/// whatever order an independent re-ranking would have produced.
pub fn price_ranked<'a>(
    assignment: &'a Assignment,
    slot_factors: &'a [f64],
    rule: PricingRule,
    bid_and_factor: impl Fn(AdvertiserId) -> (Money, f64) + 'a,
) -> impl Iterator<Item = PricedSlot> + 'a {
    let winners = assignment.winners();
    let k = winners.len();
    // Ranks `0..=k` are all any rule reads: the winners, then the runner-up.
    let score_at = move |rank: usize| {
        let ranked = winners
            .get(rank)
            .map_or(assignment.runner_up(), |w| w.score);
        ranked.value()
    };
    let per_click = |amount: f64, rate: f64| {
        if rate > 0.0 {
            Money::from_f64(amount / rate)
        } else {
            Money::ZERO
        }
    };
    winners.iter().enumerate().map(move |(rank, w)| {
        let (bid, factor) = bid_and_factor(w.advertiser);
        let price = match rule {
            PricingRule::FirstPrice => bid,
            PricingRule::GeneralizedSecondPrice => per_click(score_at(rank + 1), factor),
            PricingRule::Vcg => {
                let d = slot_factors;
                let mut total_payment = 0.0;
                for t in rank..k {
                    let below = d.get(t + 1).copied().unwrap_or(0.0);
                    total_payment += (d[t] - below) * score_at(t + 1);
                }
                per_click(total_payment, factor * d[w.slot.index()])
            }
        };
        PricedSlot {
            slot: w.slot,
            advertiser: w.advertiser,
            price_per_click: price.min(bid),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Score;
    use crate::winner::assignment_from_ranking;
    use proptest::prelude::*;

    const RULES: [PricingRule; 3] = [
        PricingRule::FirstPrice,
        PricingRule::GeneralizedSecondPrice,
        PricingRule::Vcg,
    ];

    fn entry(id: u32, bid_units: f64, factor: f64) -> AuctionEntry {
        AuctionEntry::new(AdvertiserId(id), Money::from_f64(bid_units), factor)
    }

    /// The rules read off a full sort of the auction, sharing nothing
    /// with [`price_ranked`] or winner determination: rank every entry by
    /// (score descending, id ascending), let the leading nonzero scores
    /// among the first `d.len()` win, and charge each against the scores
    /// sorted below it.
    fn sort_everything(entries: &[AuctionEntry], d: &[f64], rule: PricingRule) -> Vec<PricedSlot> {
        let mut sorted = entries.to_vec();
        sorted.sort_by(|a, b| {
            b.score()
                .cmp(&a.score())
                .then(a.advertiser.cmp(&b.advertiser))
        });
        let score = |rank: usize| sorted.get(rank).map_or(0.0, |e| e.score().value());
        let k = (0..d.len()).take_while(|&j| score(j) > 0.0).count();
        (0..k)
            .map(|j| {
                let e = &sorted[j];
                let price = match rule {
                    PricingRule::FirstPrice => e.bid,
                    PricingRule::GeneralizedSecondPrice => {
                        Money::from_f64(score(j + 1) / e.advertiser_factor)
                    }
                    PricingRule::Vcg => {
                        let externality: f64 = (j..k)
                            .map(|t| (d[t] - d.get(t + 1).unwrap_or(&0.0)) * score(t + 1))
                            .sum();
                        Money::from_f64(externality / (e.advertiser_factor * d[j]))
                    }
                };
                PricedSlot {
                    slot: SlotIndex(j as u8),
                    advertiser: e.advertiser,
                    price_per_click: price.min(e.bid),
                }
            })
            .collect()
    }

    #[test]
    fn first_price_charges_bids() {
        let inst = AuctionInstance::paper_example();
        let priced = price_auction(&inst, PricingRule::FirstPrice);
        assert_eq!(priced[0].price_per_click, Money::from_units(2));
        assert_eq!(priced[1].price_per_click, Money::from_units(2));
    }

    #[test]
    fn gsp_charges_next_score_over_own_factor() {
        let inst = AuctionInstance::paper_example();
        let priced = price_auction(&inst, PricingRule::GeneralizedSecondPrice);
        // Scores: A=2.4, B=2.2, C=2.08.
        // A pays 2.2/1.2, B pays 2.08/1.1.
        assert!((priced[0].price_per_click.to_f64() - 2.2 / 1.2).abs() < 1e-6);
        assert!((priced[1].price_per_click.to_f64() - 2.08 / 1.1).abs() < 1e-6);
    }

    #[test]
    fn last_winner_with_no_runner_up_pays_zero_under_gsp() {
        let inst = AuctionInstance::new(vec![entry(0, 3.0, 1.0)], vec![0.3, 0.2]).unwrap();
        let priced = price_auction(&inst, PricingRule::GeneralizedSecondPrice);
        assert_eq!(priced.len(), 1);
        assert_eq!(priced[0].price_per_click, Money::ZERO);
    }

    /// A ranking is priced as handed over: pricing never re-sorts what
    /// winner determination decided. B is displayed above A, so B is
    /// charged against A's score and A against C's — re-ranking the
    /// entries would charge B against its own score.
    #[test]
    fn a_swapped_ranking_is_priced_against_the_displayed_next_rank() {
        let (a, b, c) = (AdvertiserId(0), AdvertiserId(1), AdvertiserId(2));
        let ranked = [
            (b, Score::new(2.0)),
            (a, Score::new(3.0)),
            (c, Score::new(1.0)),
        ];
        let assignment = assignment_from_ranking(&ranked, 2);
        let parts = |advertiser: AdvertiserId| match advertiser.0 {
            0 => (Money::from_units(3), 1.0),
            1 => (Money::from_units(4), 0.5),
            _ => unreachable!("only winners are looked up"),
        };
        let d = [0.3, 0.2];
        let price = |rule| -> Vec<f64> {
            price_ranked(&assignment, &d, rule, parts)
                .map(|p| p.price_per_click.to_f64())
                .collect()
        };
        // GSP: B would need 3.0 / 0.5 = 6 to hold slot 0, capped at its
        // bid; A pays C's 1.0 / 1.0.
        assert_eq!(price(PricingRule::GeneralizedSecondPrice), [4.0, 1.0]);
        // VCG: B displaces A by one slot and C out of the last:
        // (0.1 · 3.0 + 0.2 · 1.0) / (0.5 · 0.3); A displaces C only.
        let vcg = price(PricingRule::Vcg);
        assert!((vcg[0] - 0.5 / 0.15).abs() < 1e-6, "{vcg:?}");
        assert!((vcg[1] - 1.0).abs() < 1e-6, "{vcg:?}");
    }

    #[test]
    fn vcg_is_weakly_below_gsp() {
        // Known property of position auctions: VCG payments are at most
        // GSP payments (per click) for every slot.
        let inst = AuctionInstance::new(
            vec![
                entry(0, 4.0, 1.0),
                entry(1, 3.0, 1.0),
                entry(2, 2.0, 1.0),
                entry(3, 1.0, 1.0),
            ],
            vec![0.3, 0.2, 0.1],
        )
        .unwrap();
        let gsp_prices = price_auction(&inst, PricingRule::GeneralizedSecondPrice);
        let vcg_prices = price_auction(&inst, PricingRule::Vcg);
        for (g, v) in gsp_prices.iter().zip(&vcg_prices) {
            assert!(
                v.price_per_click <= g.price_per_click,
                "VCG {} > GSP {} in {}",
                v.price_per_click,
                g.price_per_click,
                g.slot
            );
        }
    }

    #[test]
    fn vcg_single_slot_is_second_price() {
        // With one slot VCG degenerates to the classic second-price rule
        // (weighted by quality).
        let inst =
            AuctionInstance::new(vec![entry(0, 4.0, 1.0), entry(1, 3.0, 1.0)], vec![0.5]).unwrap();
        let priced = price_auction(&inst, PricingRule::Vcg);
        assert_eq!(priced.len(), 1);
        assert!((priced[0].price_per_click.to_f64() - 3.0).abs() < 1e-6);
    }

    proptest! {
        /// The paper's standing constraint: no pricing rule ever charges
        /// more than the advertiser's bid.
        #[test]
        fn price_never_exceeds_bid(
            bids in proptest::collection::vec(0u32..1000, 1..8),
            factors in proptest::collection::vec(1u32..300, 8),
            k in 1usize..5,
        ) {
            let entries: Vec<AuctionEntry> = bids
                .iter()
                .enumerate()
                .map(|(i, &b)| entry(i as u32, b as f64 / 100.0, factors[i] as f64 / 100.0))
                .collect();
            let mut d: Vec<f64> = (0..k).map(|j| 0.4 / (j + 1) as f64).collect();
            d.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let inst = AuctionInstance::new(entries, d).unwrap();
            for rule in RULES {
                for p in price_auction(&inst, rule) {
                    let bid = inst.entries()[p.advertiser.index()].bid;
                    prop_assert!(p.price_per_click <= bid, "{rule:?} overcharged");
                }
            }
        }

        /// The one formula over winner determination's assignment is the
        /// sort-everything reading of each rule. Bids and factors come
        /// from a handful of values, so scores tie (the id tie-break
        /// decides winners and runner-up alike) and zero scores land
        /// inside and just below the top k; `n` runs from below `k`
        /// through `k + 1` and beyond, `k` from 1.
        #[test]
        fn price_ranked_matches_sorting_everything(
            draws in proptest::collection::vec((0u32..5, 0u32..4), 0..9),
            k in 1usize..5,
        ) {
            let entries: Vec<AuctionEntry> = draws
                .iter()
                .enumerate()
                .map(|(i, &(bid, factor))| entry(i as u32, f64::from(bid), f64::from(factor) / 2.0))
                .collect();
            let d: Vec<f64> = (0..k).map(|j| 0.4 / (j + 1) as f64).collect();
            let inst = AuctionInstance::new(entries, d).unwrap();
            let assignment = determine_winners(&inst);
            for rule in RULES {
                let got: Vec<PricedSlot> = price_ranked(&assignment, inst.slot_factors(), rule, |a| {
                    let e = &inst.entries()[a.index()];
                    (e.bid, e.advertiser_factor)
                })
                .collect();
                let want = sort_everything(inst.entries(), inst.slot_factors(), rule);
                prop_assert_eq!(&got, &want, "{:?} on {:?}", rule, inst);
                prop_assert_eq!(&price_assignment(&inst, &assignment, rule), &want);
            }
        }

        /// GSP prices are monotone: better slots never cost less per click
        /// when all advertiser factors are equal.
        #[test]
        fn gsp_monotone_for_uniform_quality(
            bids in proptest::collection::vec(1u32..1000, 2..8),
        ) {
            let entries: Vec<AuctionEntry> = bids
                .iter()
                .enumerate()
                .map(|(i, &b)| entry(i as u32, b as f64 / 100.0, 1.0))
                .collect();
            let inst = AuctionInstance::new(entries, vec![0.3, 0.2, 0.1]).unwrap();
            let priced = price_auction(&inst, PricingRule::GeneralizedSecondPrice);
            for pair in priced.windows(2) {
                prop_assert!(pair[0].price_per_click >= pair[1].price_per_click);
            }
        }
    }
}
