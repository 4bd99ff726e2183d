//! Budget uncertainty and throttled bids (Section IV).
//!
//! An advertiser's remaining budget is uncertain while displayed ads
//! await clicks. With remaining budget `β`, per-click bid `b`, `m`
//! auctions this round, and outstanding debt `S = Σ X_j` (ad `j` pays
//! `π_j` with probability `ctr_j`), the paper's *throttled bid* is
//!
//! ```text
//! b̂ = E( min(b, max(0, β − S) / m) )
//!   = E( min(m·b, β − min(β, S)) ) / m
//! ```
//!
//! [`BudgetContext::throttled_bid_exact`] computes it exactly via the
//! capped convolution (`O(min(2^l, β))`, Section IV-B);
//! [`ThrottledBidRefiner`] produces interval bounds at increasing
//! expansion depths using the decomposition
//!
//! ```text
//! b̂ = b·Pr(S < β − m·b) + (1/m)·E((β − S)·1{β − m·b ≤ S < β})
//! ```
//!
//! so that *comparisons* between advertisers resolve without exact
//! computation ("we do not need the precise values of b̂; we simply need
//! the ability to compare"). [`compare_throttled`] escalates depth until
//! the intervals separate; [`topk`] runs whole-auction winner
//! determination best-first, with bounds pruning candidates and the
//! exact comparison deciding every rank, so its outcome is the exact
//! scan's. A bound is sound only up to [`BOUND_SLACK_MICROS`], the float
//! slack between the bound arithmetic and the rounded convolution.

pub mod domain;
pub mod topk;

use std::cmp::Ordering;

use ssa_auction::money::Money;
use ssa_stats::bernoulli_sum::{BernoulliSum, Term};
use ssa_stats::hoeffding::Clamp;
use ssa_stats::interval::Interval;
use ssa_stats::refine::Refiner;

/// How far, in money micros, the rounded exact throttled bid may sit
/// outside its refiner's interval: the float slack between the bound
/// arithmetic and the rounded convolution. A bound is widened by this
/// much before it prunes anything.
pub const BOUND_SLACK_MICROS: u64 = 2;

/// One displayed-but-unclicked ad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutstandingAd {
    /// The price `π_j` that will be charged if the click lands.
    pub price: Money,
    /// The residual probability `ctr_j` of the click landing.
    pub click_probability: f64,
}

impl OutstandingAd {
    /// Creates an outstanding ad (probability clamped to `[0,1]`).
    pub fn new(price: Money, click_probability: f64) -> Self {
        OutstandingAd {
            price,
            click_probability: click_probability.clamp(0.0, 1.0),
        }
    }
}

/// Everything needed to throttle one advertiser's bid for one round.
#[derive(Debug, Clone)]
pub struct BudgetContext {
    /// The advertiser's stated per-click bid `b_i`.
    pub bid: Money,
    /// Remaining budget `β_i` (daily budget minus already-settled
    /// payments).
    pub remaining_budget: Money,
    /// The number of auctions `m_i` the advertiser takes part in this
    /// round.
    pub auctions_in_round: u64,
    /// The outstanding ads awaiting clicks.
    pub outstanding: Vec<OutstandingAd>,
}

impl BudgetContext {
    /// The debt variable `S_l` as a Bernoulli sum over money micro-units.
    pub fn debt_sum(&self) -> BernoulliSum {
        BernoulliSum::new(
            self.outstanding
                .iter()
                .map(|ad| Term::new(ad.price.micros(), ad.click_probability))
                .collect(),
        )
    }

    /// Fast path: when even the certain-worst-case debt `ω = Σ π_j` leaves
    /// room for full bids (`ω + m·b ≤ β`), the throttled bid is the
    /// stated bid. Evaluated in
    /// `u128` micros, where neither `m·b` nor `ω` can overflow.
    pub fn is_unconstrained(&self) -> bool {
        let m = u128::from(self.auctions_in_round.max(1));
        let debt: u128 = self
            .outstanding
            .iter()
            .map(|ad| u128::from(ad.price.micros()))
            .sum();
        let need = m * u128::from(self.bid.micros());
        need.saturating_add(debt) <= u128::from(self.remaining_budget.micros())
    }

    /// The exact throttled bid `E(min(m·b, β − min(β, S)))/m`, via the
    /// budget-capped convolution.
    pub fn throttled_bid_exact(&self) -> Money {
        if let Some(bid) = self.certain_bid() {
            return bid;
        }
        let m = self.auctions_in_round.max(1);
        let beta = self.remaining_budget.micros();
        let mb = self.bid.micros().saturating_mul(m);
        let dist = self.debt_sum().distribution_capped(beta);
        let expectation = dist.expectation_of(|s_capped| {
            let headroom = beta - s_capped; // s_capped ≤ beta by the cap
            mb.min(headroom) as f64
        });
        Money::from_micros((expectation / m as f64).round() as u64)
    }

    /// The throttled bid when it needs no convolution: zero for a zero
    /// bid or an exhausted budget, the stated bid when unconstrained.
    pub(crate) fn certain_bid(&self) -> Option<Money> {
        if self.bid.is_zero() || self.remaining_budget.is_zero() {
            Some(Money::ZERO)
        } else if self.is_unconstrained() {
            Some(self.bid)
        } else {
            None
        }
    }

    /// A lazy bound refiner for this context.
    pub fn refiner(&self) -> ThrottledBidRefiner {
        ThrottledBidRefiner::new(self)
    }
}

/// Interval bounds on a throttled bid, tightened by expanding outstanding
/// ads largest-price-first (Section IV-B).
#[derive(Debug, Clone)]
pub struct ThrottledBidRefiner {
    bid_micros: f64,
    beta_micros: f64,
    m: f64,
    refiner: Refiner,
    max_depth: usize,
    exact_hint: Option<Money>,
}

impl ThrottledBidRefiner {
    fn new(ctx: &BudgetContext) -> Self {
        let sum = ctx.debt_sum();
        ThrottledBidRefiner {
            bid_micros: ctx.bid.micros() as f64,
            beta_micros: ctx.remaining_budget.micros() as f64,
            m: ctx.auctions_in_round.max(1) as f64,
            max_depth: sum.len(),
            refiner: Refiner::new(sum, Clamp::Sound),
            exact_hint: ctx.certain_bid(),
        }
    }

    /// The depth at which bounds become exact.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Bounds on the throttled bid (in money micro-units) at the given
    /// expansion depth.
    pub fn bounds(&self, depth: usize) -> Interval {
        self.bounds_costed(depth).0
    }

    /// Like [`ThrottledBidRefiner::bounds`], also reporting the number of
    /// elementary bound evaluations (recursion leaves) the computation
    /// cost — the work metric of the E8 experiment.
    pub fn bounds_costed(&self, depth: usize) -> (Interval, u64) {
        if let Some(exact) = self.exact_hint {
            return (Interval::exact(exact.micros() as f64), 0);
        }
        let b = self.bid_micros;
        let beta = self.beta_micros;
        let m = self.m;
        let x = beta - m * b; // may be negative: full bid never affordable
        let t1 = self.refiner.pr_less_costed(x, depth);
        let term1 = t1.interval.scale(b);
        let r_lo = self.refiner.pr_less_costed(x, depth);
        let r_hi = self.refiner.pr_less_costed(beta, depth);
        let range = ssa_stats::hoeffding::pr_range_from_cdf(r_lo.interval, r_hi.interval);
        let mom = self.refiner.truncated_moment_costed(x, beta, depth);
        // (β·Pr(range) − E[S·1{range}]) / m, kept sound under interval
        // subtraction, then clamped into the feasible [0, b].
        let term2 = range.scale(beta).sub(mom.interval).scale(1.0 / m);
        let leaves = t1.leaves + r_lo.leaves + r_hi.leaves + mom.leaves;
        (term1.add(term2).clamp(0.0, b), leaves)
    }

    /// The exact throttled bid via full-depth bounds.
    pub fn exact(&self) -> Money {
        if let Some(exact) = self.exact_hint {
            return exact;
        }
        let b = self.bounds(self.max_depth);
        debug_assert!(b.width() < 1.0, "full depth must pin the value");
        Money::from_micros(b.midpoint().round().max(0.0) as u64)
    }
}

/// The outcome of a bound-based comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparisonOutcome {
    /// The resolved ordering of the two throttled bids.
    pub ordering: Ordering,
    /// The deepest expansion level needed.
    pub depth_used: usize,
}

/// Compares two throttled bids by successively tightening both bounds
/// until they separate (or both are exact). This is the paper's
/// winner-determination primitive: "we use Hoeffding bounds to compute
/// successively tighter upper and lower bounds … until the upper bound
/// is lower than the lower bound for the other".
pub fn compare_throttled(a: &ThrottledBidRefiner, b: &ThrottledBidRefiner) -> ComparisonOutcome {
    let max_depth = a.max_depth().max(b.max_depth());
    for depth in 0..=max_depth {
        let ia = a.bounds(depth);
        let ib = b.bounds(depth);
        if ia.strictly_below(ib) {
            return ComparisonOutcome {
                ordering: Ordering::Less,
                depth_used: depth,
            };
        }
        if ib.strictly_below(ia) {
            return ComparisonOutcome {
                ordering: Ordering::Greater,
                depth_used: depth,
            };
        }
        if ia.is_exact() && ib.is_exact() {
            return ComparisonOutcome {
                ordering: ia.midpoint().total_cmp(&ib.midpoint()),
                depth_used: depth,
            };
        }
    }
    // Full depth reached: both bounds are exact (width below one micro).
    let ia = a.bounds(max_depth);
    let ib = b.bounds(max_depth);
    ComparisonOutcome {
        ordering: ia.midpoint().total_cmp(&ib.midpoint()),
        depth_used: max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn unconstrained_bids_pass_through() {
        // Huge budget: b̂ = b even with outstanding ads.
        let c = ctx(1.0, 1000.0, 3, &[(2.0, 0.5), (3.0, 0.9)]);
        assert!(c.is_unconstrained());
        assert_eq!(c.throttled_bid_exact(), c.bid);
        assert_eq!(c.refiner().exact(), c.bid);
    }

    #[test]
    fn unconstrained_check_survives_u64_overflow() {
        // m·b past 2⁶⁴ against the largest budget: constrained, not a
        // saturated "fits".
        let c = BudgetContext {
            bid: Money::from_micros(1 << 40),
            remaining_budget: Money::from_micros(u64::MAX),
            auctions_in_round: 1 << 30,
            outstanding: Vec::new(),
        };
        assert!(!c.is_unconstrained());
        // Two outstanding prices summing past `Money::MAX`: an answer,
        // not an addition-overflow panic.
        let c = BudgetContext {
            outstanding: vec![OutstandingAd::new(Money::from_micros(u64::MAX - 1), 0.5); 2],
            auctions_in_round: 1,
            bid: Money::from_micros(1),
            ..c
        };
        assert!(!c.is_unconstrained());
    }

    #[test]
    fn no_outstanding_ads_matches_closed_form() {
        // The paper's warm-up: b̂ = min(b, β/m).
        let c = ctx(2.0, 3.0, 4, &[]);
        let expected = Money::from_f64(0.75);
        assert_eq!(c.throttled_bid_exact(), expected);
        assert_eq!(c.refiner().exact(), expected);
        // And when budget suffices, the stated bid.
        let c = ctx(2.0, 100.0, 4, &[]);
        assert_eq!(c.throttled_bid_exact(), Money::from_f64(2.0));
    }

    #[test]
    fn exhausted_budget_bids_zero() {
        let c = ctx(2.0, 0.0, 1, &[(1.0, 0.5)]);
        assert_eq!(c.throttled_bid_exact(), Money::ZERO);
        assert_eq!(c.refiner().exact(), Money::ZERO);
    }

    #[test]
    fn hand_computed_two_outcomes() {
        // β=10, b=4, m=1, one outstanding ad: π=8 w.p. 0.5.
        // S=0 (p .5): min(4, 10)/1 = 4. S=8 (p .5): min(4, 2) = 2.
        // b̂ = 3.
        let c = ctx(4.0, 10.0, 1, &[(8.0, 0.5)]);
        assert_eq!(c.throttled_bid_exact(), Money::from_f64(3.0));
    }

    #[test]
    fn certain_debt_reduces_headroom_deterministically() {
        // π=6 w.p. 1: β−S = 4 < b·m = 5 → b̂ = 4/1.
        let c = ctx(5.0, 10.0, 1, &[(6.0, 1.0)]);
        assert_eq!(c.throttled_bid_exact(), Money::from_f64(4.0));
    }

    #[test]
    fn bounds_tighten_to_exact() {
        let c = ctx(3.0, 10.0, 2, &[(4.0, 0.5), (3.0, 0.25), (2.0, 0.8)]);
        let exact = c.throttled_bid_exact().micros() as f64;
        let r = c.refiner();
        let mut prev_width = f64::INFINITY;
        for depth in 0..=r.max_depth() {
            let b = r.bounds(depth);
            assert!(
                b.lo() - 1.0 <= exact && exact <= b.hi() + 1.0,
                "depth {depth}: exact {exact} outside [{}, {}]",
                b.lo(),
                b.hi()
            );
            assert!(b.width() <= prev_width + 1e-6, "bounds must not widen");
            prev_width = b.width();
        }
        assert!(prev_width < 1.0, "full depth pins the value");
        assert_eq!(r.exact(), c.throttled_bid_exact());
    }

    #[test]
    fn comparison_resolves_early_when_far_apart() {
        // Rich advertiser vs nearly broke one: depth 0 should suffice.
        let rich = ctx(5.0, 1000.0, 2, &[(1.0, 0.5)]).refiner();
        let broke = ctx(5.0, 1.0, 2, &[(1.0, 0.9)]).refiner();
        let out = compare_throttled(&broke, &rich);
        assert_eq!(out.ordering, Ordering::Less);
        assert_eq!(out.depth_used, 0, "trivial bounds must suffice");
    }

    #[test]
    fn comparison_of_identical_contexts_is_equal() {
        let a = ctx(2.0, 5.0, 2, &[(3.0, 0.5), (1.0, 0.25)]).refiner();
        let b = ctx(2.0, 5.0, 2, &[(3.0, 0.5), (1.0, 0.25)]).refiner();
        let out = compare_throttled(&a, &b);
        assert_eq!(out.ordering, Ordering::Equal);
    }

    #[test]
    fn close_contenders_need_deeper_refinement() {
        let a = ctx(3.0, 7.0, 1, &[(4.0, 0.5), (2.0, 0.5), (1.0, 0.5)]);
        let b = ctx(3.0, 7.2, 1, &[(4.0, 0.5), (2.0, 0.5), (1.0, 0.5)]);
        let out = compare_throttled(&a.refiner(), &b.refiner());
        // Exact values: identical structure, slightly more budget for b.
        assert_eq!(out.ordering, Ordering::Less);
        assert!(out.depth_used > 0, "tight contest should need refinement");
        // Sanity against exact computation.
        assert!(a.throttled_bid_exact() < b.throttled_bid_exact());
    }

    proptest! {
        /// `is_unconstrained` is `ω + m·b ≤ β` in exact arithmetic over the
        /// full `u64` range of every input (m = 0 counts as one auction).
        #[test]
        fn unconstrained_matches_wide_reference(
            bid in any::<u64>(),
            budget in any::<u64>(),
            m in any::<u64>(),
            small in any::<bool>(),
            prices in proptest::collection::vec(any::<u64>(), 0..4),
        ) {
            // Small inputs too, or the reference is almost never true.
            let shrink = |x: u64| if small { x % 1_000 } else { x };
            let c = BudgetContext {
                bid: Money::from_micros(shrink(bid)),
                remaining_budget: Money::from_micros(budget),
                auctions_in_round: shrink(m),
                outstanding: prices
                    .iter()
                    .map(|&p| OutstandingAd::new(Money::from_micros(shrink(p)), 0.5))
                    .collect(),
            };
            let debt: u128 = prices.iter().map(|&p| u128::from(shrink(p))).sum();
            let need = u128::from(shrink(m).max(1)) * u128::from(shrink(bid));
            let fits = debt
                .checked_add(need)
                .is_some_and(|total| total <= u128::from(budget));
            prop_assert_eq!(c.is_unconstrained(), fits);
        }

        /// Bounds contain the exact throttled bid at every depth, and the
        /// refiner's exact value agrees with the convolution (±1 micro
        /// rounding).
        #[test]
        fn bounds_sound_and_exact_agrees(
            bid in 1u64..8,
            budget in 0u64..20,
            m in 1u64..4,
            prices in proptest::collection::vec(1u64..10, 0..5),
            probs in proptest::collection::vec(0.0f64..=1.0, 5),
        ) {
            let outstanding: Vec<(f64, f64)> = prices
                .iter()
                .zip(&probs)
                .map(|(&p, &c)| (p as f64, c))
                .collect();
            let c = ctx(bid as f64, budget as f64, m, &outstanding);
            let exact = c.throttled_bid_exact().micros() as f64;
            let slack = BOUND_SLACK_MICROS as f64;
            let r = c.refiner();
            for depth in 0..=r.max_depth() {
                let b = r.bounds(depth);
                prop_assert!(
                    b.lo() - slack <= exact && exact <= b.hi() + slack,
                    "depth {depth}: exact {exact} outside [{}, {}]",
                    b.lo(), b.hi()
                );
            }
            let via_bounds = r.exact().micros() as i64;
            prop_assert!((via_bounds - exact as i64).abs() <= 1);
        }

        /// compare_throttled agrees with the exact ordering.
        #[test]
        fn comparison_agrees_with_exact(
            bid_a in 1u64..6, budget_a in 1u64..15,
            bid_b in 1u64..6, budget_b in 1u64..15,
            prices in proptest::collection::vec(1u64..8, 0..4),
            probs in proptest::collection::vec(0.1f64..=0.9, 4),
        ) {
            let outs: Vec<(f64, f64)> = prices
                .iter()
                .zip(&probs)
                .map(|(&p, &c)| (p as f64, c))
                .collect();
            let a = ctx(bid_a as f64, budget_a as f64, 2, &outs);
            let b = ctx(bid_b as f64, budget_b as f64, 2, &outs);
            let out = compare_throttled(&a.refiner(), &b.refiner());
            let ea = a.throttled_bid_exact();
            let eb = b.throttled_bid_exact();
            // Allow Equal vs micro-level differences from rounding.
            if ea != eb && (ea.micros() as i64 - eb.micros() as i64).abs() > 2 {
                prop_assert_eq!(out.ordering, ea.cmp(&eb));
            }
        }
    }
}
