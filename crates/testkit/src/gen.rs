//! Deterministic seeded generators for differential testing.
//!
//! Everything here is a pure function of a `u64` seed (plus an explicit
//! profile), so a diverging run is reproduced exactly by its seed. The
//! generators deliberately produce *small* instances — a differential
//! corpus gets its power from many varied seeds, not from big workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;
use ssa_auction::score::Score;
use ssa_core::bloom::BloomFilter;
use ssa_core::budget::{BudgetContext, OutstandingAd};
use ssa_core::plan::PlanProblem;
use ssa_core::topk::{KList, ScoredAd};
use ssa_setcover::BitSet;
use ssa_workload::scenarios::fig4_coinflip_queries;
use ssa_workload::{Workload, WorkloadConfig};

/// A workload family the generators can draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Phrase-independent advertiser factors (the Section II setting);
    /// all three sharing strategies apply. Generous budgets.
    Separable,
    /// Separable factors with budgets small enough that throttling binds
    /// and outstanding-ad uncertainty matters (the Section IV setting).
    TightBudgets,
    /// Phrase-specific factors `c_i^q` (the Section III setting); only
    /// the unshared scan and the shared sort apply.
    NonSeparable,
    /// A jittered workload where a seed-dependent fraction of phrases is
    /// exempted from jitter (kept separable) — the hybrid-routing
    /// setting, where part of the workload is plan-eligible and the rest
    /// needs the sort network.
    Mixed,
}

impl Profile {
    fn salt(self) -> u64 {
        match self {
            Profile::Separable => 0x5e9a_ab1e,
            Profile::TightBudgets => 0x7164_b0d6,
            Profile::NonSeparable => 0x0055_ea7a,
            Profile::Mixed => 0x00b1_e2d5,
        }
    }
}

/// Derives a small [`WorkloadConfig`] from a seed: advertiser/phrase/topic
/// counts, overlap (generalist share), Zipf exponent, and budget scale all
/// vary with the seed; factor jitter follows the profile.
pub fn workload_config(seed: u64, profile: Profile) -> WorkloadConfig {
    let mut rng = StdRng::seed_from_u64(seed ^ profile.salt());
    let tight = profile == Profile::TightBudgets;
    WorkloadConfig {
        advertisers: rng.random_range(10..=40),
        phrases: rng.random_range(3..=8),
        topics: rng.random_range(2..=4),
        generalist_fraction: rng.random_range(0.1..0.9),
        generalist_topics: rng.random_range(2..=3),
        search_rate_zipf_exponent: rng.random_range(0.0..1.5),
        max_search_rate: rng.random_range(0.4..1.0),
        bid_mu: 0.0,
        bid_sigma: rng.random_range(0.3..0.9),
        // Tight budgets: median ≈ e^0.5 ≈ 1.6 units, a handful of clicks.
        budget_mu: if tight {
            rng.random_range(0.0..1.0)
        } else {
            rng.random_range(2.5..3.5)
        },
        budget_sigma: rng.random_range(0.4..1.0),
        phrase_factor_jitter: match profile {
            Profile::NonSeparable | Profile::Mixed => rng.random_range(0.1..0.6),
            _ => 0.0,
        },
        // Drawn last so the older profiles' configs stay byte-identical
        // to what they generated before this knob existed.
        separable_fraction: match profile {
            Profile::Mixed => rng.random_range(0.25..0.75),
            _ => 0.0,
        },
        seed,
    }
}

/// Generates the workload for a seed and profile.
pub fn workload(seed: u64, profile: Profile) -> Workload {
    Workload::generate(&workload_config(seed, profile))
}

/// A random budget state: bid, remaining budget, auction count, and a few
/// outstanding ads with mixed click probabilities (including the 0 and 1
/// edges with positive probability).
pub fn budget_context(seed: u64) -> BudgetContext {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0d6_e7a7e);
    let ads = rng.random_range(0..6usize);
    let outstanding = (0..ads)
        .map(|_| {
            let p = match rng.random_range(0..10u32) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.random_range(0.05..0.95),
            };
            OutstandingAd::new(Money::from_f64(rng.random_range(0.25..8.0)), p)
        })
        .collect();
    BudgetContext {
        bid: Money::from_f64(rng.random_range(0.1..6.0)),
        remaining_budget: Money::from_f64(rng.random_range(0.0..20.0)),
        auctions_in_round: rng.random_range(1..5),
        outstanding,
    }
}

/// A random scored k-list drawn from a small advertiser/score universe so
/// that merges hit duplicates and ties often.
pub fn scored_klist(rng: &mut StdRng, k: usize) -> KList<ScoredAd> {
    let len = rng.random_range(0..=(k + 2));
    KList::from_items(
        k,
        (0..len).map(|_| {
            ScoredAd::new(
                AdvertiserId::from_index(rng.random_range(0..12usize)),
                Score::new(rng.random_range(0..8u32) as f64 / 2.0),
            )
        }),
    )
}

/// A random Bloom filter over a fixed geometry (all filters from one rng
/// share `m_bits`/`hashes`, as merging requires).
pub fn bloom_filter(rng: &mut StdRng, m_bits: usize, hashes: u32) -> BloomFilter {
    let mut f = BloomFilter::new(m_bits, hashes);
    for _ in 0..rng.random_range(0..12usize) {
        f.insert(rng.random::<u64>() % 64);
    }
    f
}

/// The workload's interest sets `I_q` as bit sets over the advertiser
/// universe.
pub fn interest_sets(w: &Workload) -> Vec<BitSet> {
    let n = w.advertiser_count();
    w.interest
        .iter()
        .map(|ids| BitSet::from_elements(n, ids.iter().map(|a| a.index())))
        .collect()
}

/// A shared-aggregation plan problem from a workload's interest sets.
///
/// # Panics
/// Panics if any phrase has an empty interest set (plans cannot bind
/// empty queries); use [`plan_problem_nonempty`] when the workload may
/// contain orphan phrases.
pub fn plan_problem(w: &Workload) -> PlanProblem {
    PlanProblem::new(
        w.advertiser_count(),
        interest_sets(w),
        Some(w.search_rates()),
    )
}

/// The Figure 4 protocol instance: `queries` coin-flip queries over
/// `advertisers` advertisers, all with search rate `sr`.
pub fn fig4_problem(advertisers: usize, queries: usize, sr: f64, seed: u64) -> PlanProblem {
    let sets: Vec<BitSet> = fig4_coinflip_queries(advertisers, queries, seed)
        .iter()
        .map(|q| BitSet::from_elements(advertisers, q.iter().map(|a| a.index())))
        .collect();
    let m = sets.len();
    PlanProblem::new(advertisers, sets, Some(vec![sr; m]))
}

/// Like [`plan_problem`], but silently drops phrases nobody is interested
/// in. Returns the problem plus the original phrase index of each kept
/// query.
pub fn plan_problem_nonempty(w: &Workload) -> (PlanProblem, Vec<usize>) {
    let rates = w.search_rates();
    let mut queries = Vec::new();
    let mut kept_rates = Vec::new();
    let mut kept = Vec::new();
    for (q, set) in interest_sets(w).into_iter().enumerate() {
        if !set.is_empty() {
            queries.push(set);
            kept_rates.push(rates[q]);
            kept.push(q);
        }
    }
    (
        PlanProblem::new(w.advertiser_count(), queries, Some(kept_rates)),
        kept,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible_per_seed() {
        for profile in [
            Profile::Separable,
            Profile::TightBudgets,
            Profile::NonSeparable,
            Profile::Mixed,
        ] {
            let a = workload(17, profile);
            let b = workload(17, profile);
            assert_eq!(a.interest, b.interest);
            assert_eq!(a.phrase_factors, b.phrase_factors);
            for (x, y) in a.advertisers.iter().zip(&b.advertisers) {
                assert_eq!((x.bid, x.budget), (y.bid, y.budget));
            }
        }
    }

    #[test]
    fn profiles_control_jitter() {
        assert_eq!(
            workload_config(3, Profile::Separable).phrase_factor_jitter,
            0.0
        );
        assert_eq!(
            workload_config(3, Profile::TightBudgets).phrase_factor_jitter,
            0.0
        );
        assert!(workload_config(3, Profile::NonSeparable).phrase_factor_jitter > 0.0);
        assert!(workload_config(3, Profile::Mixed).phrase_factor_jitter > 0.0);
    }

    #[test]
    fn mixed_profile_generates_genuinely_mixed_workloads() {
        let cfg = workload_config(3, Profile::Mixed);
        assert!(cfg.separable_fraction >= 0.25 && cfg.separable_fraction < 0.75);
        assert_eq!(
            workload_config(3, Profile::Separable).separable_fraction,
            0.0
        );
        // In aggregate the profile must produce both plan-eligible
        // (separable) and jittered phrases. (Per seed either side may
        // round to zero on the smallest workloads, which is fine — the
        // hybrid engine then degenerates to a pure strategy.)
        let mut separable = 0usize;
        let mut jittered = 0usize;
        for seed in 0..10u64 {
            let w = workload(seed, Profile::Mixed);
            separable += w.separable_phrase_count();
            jittered += w.phrase_count() - w.separable_phrase_count();
        }
        assert!(separable > 0, "no Mixed workload had a separable phrase");
        assert!(jittered > 0, "no Mixed workload had a jittered phrase");
    }

    #[test]
    fn tight_budgets_are_tighter() {
        let tight = workload_config(5, Profile::TightBudgets);
        let loose = workload_config(5, Profile::Separable);
        assert!(tight.budget_mu < loose.budget_mu);
    }

    #[test]
    fn budget_contexts_vary_and_reproduce() {
        let a = budget_context(9);
        let b = budget_context(9);
        assert_eq!(a.bid, b.bid);
        assert_eq!(a.outstanding.len(), b.outstanding.len());
        let c = budget_context(10);
        assert!(a.bid != c.bid || a.remaining_budget != c.remaining_budget);
    }

    #[test]
    fn nonempty_problem_maps_back_to_phrases() {
        let w = workload(21, Profile::Separable);
        let (p, kept) = plan_problem_nonempty(&w);
        assert_eq!(p.query_count(), kept.len());
        for (i, &q) in kept.iter().enumerate() {
            assert_eq!(p.queries[i].len(), w.interest[q].len());
        }
    }
}
