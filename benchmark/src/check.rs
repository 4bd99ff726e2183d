//! The correctness gate behind `failed`: per-round outcome digests
//! compared against an untimed reference twin, and an oracle check for
//! the bounds policy. Everything here runs outside the timed region.

use ssa_auction::ids::AdvertiserId;
use ssa_core::engine::{AuctionOutcome, BudgetSnapshot, Engine, EngineConfig, EngineMetrics};
use ssa_testkit::oracle;
use ssa_workload::Workload;

/// Score tolerance, in currency units, within which the bounds policy may
/// swap two winners: its Hoeffding bounds separate candidates to within a
/// micro, so genuine ties may legitimately order either way (the same
/// tolerance `ssa-testkit`'s differential corpus allows).
const SCORE_EPS: f64 = 1e-4;

/// FNV-1a over the round's (phrase, winners, slots), in outcome order.
/// Stable across runs, hosts and execution shapes by construction: it
/// reads only ids, never addresses or floats.
pub fn round_digest(outcomes: &[AuctionOutcome]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for outcome in outcomes {
        mix(outcome.phrase.0);
        mix(outcome.assignment.len() as u32);
        for winner in outcome.assignment.winners() {
            mix(winner.advertiser.0);
            mix(u32::from(winner.slot.0));
        }
    }
    hash
}

/// Runs the reference twin for `rounds` rounds and returns its per-round
/// digests and final metrics.
pub fn twin_digests(
    workload: Workload,
    config: EngineConfig,
    rounds: usize,
) -> (Vec<u64>, EngineMetrics) {
    let mut twin = Engine::new(workload, config);
    let digests = (0..rounds)
        .map(|_| round_digest(&twin.run_round()))
        .collect();
    (digests, twin.metrics().clone())
}

/// How many rounds of `got` differ from the reference (a missing round
/// counts as differing).
pub fn diverged_rounds(reference: &[u64], got: &[u64]) -> usize {
    reference.len().abs_diff(got.len()) + reference.iter().zip(got).filter(|(a, b)| a != b).count()
}

/// Checks one `ThrottleBounds` round against the naive oracle: exact
/// throttled bids recomputed from the engine's own pre-round `snapshots`,
/// then an independent top-k scan per phrase. Winners must agree slot for
/// slot, up to swaps of advertisers whose exact scores tie within
/// [`SCORE_EPS`].
pub fn bounds_round_agrees(
    engine: &Engine,
    snapshots: &[BudgetSnapshot],
    outcomes: &[AuctionOutcome],
) -> bool {
    let w = engine.workload();
    let config = engine.config();
    let occurring: Vec<_> = outcomes.iter().map(|o| o.phrase).collect();
    let m_i = oracle::auction_counts(w, &occurring);
    let bids = oracle::effective_bids(snapshots, &m_i, config.budget_policy);
    outcomes.iter().all(|outcome| {
        let want = oracle::phrase_assignment(w, outcome.phrase, &bids, &config.slot_factors);
        let score = |a: AdvertiserId| {
            bids[a.index()].to_f64() * w.phrase_factor(outcome.phrase, a).unwrap_or(0.0)
        };
        let (got, want) = (outcome.assignment.winners(), want.winners());
        got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                g.slot == w.slot
                    && (g.advertiser == w.advertiser
                        || (score(g.advertiser) - score(w.advertiser)).abs() <= SCORE_EPS)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_auction::ids::PhraseId;
    use ssa_auction::money::Money;
    use ssa_auction::score::Score;
    use ssa_auction::winner::assignment_from_ranking;

    fn outcome(phrase: u32, ranked: &[u32]) -> AuctionOutcome {
        let ranked: Vec<(AdvertiserId, Score)> = ranked
            .iter()
            .map(|&a| {
                (
                    AdvertiserId(a),
                    Score::expected_value(Money::from_units(1), 1.0),
                )
            })
            .collect();
        AuctionOutcome {
            phrase: PhraseId(phrase),
            assignment: assignment_from_ranking(&ranked, 3),
        }
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let round = [outcome(4, &[9, 2, 7]), outcome(11, &[3])];
        // Pinned: the digest is part of what two runs, hosts or
        // execution shapes are compared by, so it must never drift.
        assert_eq!(round_digest(&round), 0xc062_bb17_c093_de54);
        assert_eq!(round_digest(&[]), 0xcbf2_9ce4_8422_2325);
        let swapped = [outcome(4, &[2, 9, 7]), outcome(11, &[3])];
        assert_ne!(round_digest(&round), round_digest(&swapped));
        let moved = [outcome(4, &[9, 2]), outcome(11, &[7, 3])];
        assert_ne!(round_digest(&round), round_digest(&moved));
    }

    #[test]
    fn diverged_rounds_counts_mismatches_and_missing() {
        assert_eq!(diverged_rounds(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(diverged_rounds(&[1, 2, 3], &[1, 9, 3]), 1);
        assert_eq!(diverged_rounds(&[1, 2, 3], &[1]), 2);
    }
}
