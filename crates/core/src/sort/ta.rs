//! The Threshold Algorithm (Fagin–Lotem–Naor) driver.
//!
//! For bid phrase `q`, two descending sorted access paths exist: the
//! advertisers by `c_i^q` (precomputed — "click-through rates are
//! recalculated only occasionally … the ordering can be treated as fixed")
//! and the advertisers by `b_i`, supplied on demand by the shared merge
//! network. At stage `s` both lists advance one position; every newly seen
//! advertiser's full score `b_i · c_i^q` is resolved by random access, and
//! the algorithm "terminates early at the first stage where all top k
//! values are no less than the threshold" `b_{i_s} · c_{j_s}`.
//!
//! TA is instance-optimal among algorithms that avoid wild guesses, which
//! is precisely why the shared network only needs to supply a *prefix* of
//! each phrase's sorted order.

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;
use ssa_auction::score::Score;

use crate::topk::{KList, ScoredAd};

use super::MergeNetwork;

/// The result of one per-phrase TA run.
#[derive(Debug, Clone)]
pub struct TaOutcome {
    /// The top-k advertisers by `b_i · c_i^q`, best first.
    pub top_k: Vec<(AdvertiserId, Score)>,
    /// Stages executed (= sorted-access depth on each list).
    pub stages: usize,
    /// True iff the threshold fired before a list was exhausted.
    pub stopped_early: bool,
}

/// Reusable per-driver TA scratch: the seen-set and the top-k working
/// list, both retained across runs so steady-state TA allocates nothing.
///
/// The seen-set is a dense epoch-stamped array indexed by advertiser:
/// membership (both "already scored" and, since every scored advertiser
/// is offered to the top-k list exactly once, "already considered for the
/// top k") is one O(1) stamp compare — no hashing, no per-run clearing,
/// no `O(stages)` rescans. The array grows to the largest advertiser
/// index ever seen and is then reused verbatim.
#[derive(Debug, Default)]
pub struct TaScratch {
    /// `stamps[i] == epoch` ⇔ advertiser `i` was seen this run.
    stamps: Vec<u32>,
    epoch: u32,
    /// The working top-k list; storage retained across runs.
    top: KList<ScoredAd>,
}

impl TaScratch {
    /// An empty scratch; sizes itself lazily on first use.
    pub fn new() -> Self {
        TaScratch::default()
    }

    /// Heap footprint of the seen-set in bytes: 4 per advertiser index up
    /// to the largest one seen.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.stamps.capacity() * 4
    }

    /// Starts a new run: bumps the epoch (implicitly clearing the
    /// seen-set in O(1)) and resets the top-k list to bound `k`.
    fn begin(&mut self, k: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.top.reset(k);
    }

    /// Marks `adv` seen; true on first sighting this run.
    fn see(&mut self, adv: AdvertiserId) -> bool {
        let idx = adv.index();
        if idx >= self.stamps.len() {
            self.stamps.resize(idx + 1, 0);
        }
        if self.stamps[idx] == self.epoch {
            false
        } else {
            self.stamps[idx] = self.epoch;
            true
        }
    }
}

/// Runs TA for one phrase.
///
/// * `net`/`root` — the shared bid-sorted stream (`usize::MAX` = empty
///   phrase);
/// * `c_order` — advertisers interested in the phrase, by descending
///   `c_i^q` (ties arbitrary but fixed);
/// * `bid_of`/`factor_of` — random access to the two attributes;
/// * `k` — how many winners to find.
pub fn threshold_top_k(
    net: &mut MergeNetwork,
    root: usize,
    c_order: &[(AdvertiserId, f64)],
    bid_of: impl Fn(AdvertiserId) -> Money,
    factor_of: impl Fn(AdvertiserId) -> f64,
    k: usize,
) -> TaOutcome {
    if root == usize::MAX {
        return TaOutcome {
            top_k: Vec::new(),
            stages: 0,
            stopped_early: false,
        };
    }
    let mut scratch = TaScratch::new();
    let mut top_k = Vec::new();
    let (stages, stopped_early) = threshold_top_k_into(
        |i| net.get(root, i),
        c_order,
        bid_of,
        factor_of,
        k,
        &mut scratch,
        &mut top_k,
    );
    TaOutcome {
        top_k,
        stages,
        stopped_early,
    }
}

/// The allocation-free TA core: like [`threshold_top_k`], but over an
/// arbitrary descending bid stream (`stream(i)` returns the `i`-th
/// largest bid item, or `None` past the end); the seen-set and working
/// top-k live in a caller-held [`TaScratch`] and the winners are written
/// into `out` (cleared first, capacity retained).
/// Once `scratch` and `out` have warmed up to the phrase sizes in play,
/// repeated runs perform zero heap allocations.
///
/// Returns `(stages, stopped_early)`.
// Out of line on purpose: whether LLVM inlines this into
// `SortResolver::resolve` flips with unrelated edits elsewhere in the
// crate, and inlined the loop measured 8 % slower on a 1M-advertiser
// round (`sparse1m_sort` p50 1.32–1.40 ms out of line, 1.42–1.58 inlined).
#[inline(never)]
#[allow(clippy::too_many_arguments)] // the TA signature plus two scratch outputs
pub fn threshold_top_k_into(
    mut stream: impl FnMut(usize) -> Option<super::SortItem>,
    c_order: &[(AdvertiserId, f64)],
    bid_of: impl Fn(AdvertiserId) -> Money,
    factor_of: impl Fn(AdvertiserId) -> f64,
    k: usize,
    scratch: &mut TaScratch,
    out: &mut Vec<(AdvertiserId, Score)>,
) -> (usize, bool) {
    out.clear();
    if k == 0 {
        return (0, false);
    }
    scratch.begin(k);
    let mut stages = 0usize;
    let mut stopped_early = false;

    loop {
        let bid_item = stream(stages);
        let c_item = c_order.get(stages).copied();
        if bid_item.is_none() || c_item.is_none() {
            // One list exhausted ⇒ every interested advertiser has been
            // seen through it ⇒ all scores are known. Done, exactly.
            break;
        }
        stages += 1;
        let bid_item = bid_item.expect("checked above");
        let (c_adv, _c_val) = c_item.expect("checked above");

        for adv in [bid_item.advertiser, c_adv] {
            // One stamp compare covers both "already scored" and "already
            // offered to the top-k list" — each advertiser is scored and
            // inserted at most once per run.
            if scratch.see(adv) {
                let score = Score::expected_value(bid_of(adv), factor_of(adv));
                scratch.top.insert(ScoredAd::new(adv, score));
            }
        }

        // Threshold: best possible score of any unseen advertiser. The
        // paper stops at `kth ≥ τ`; we require strict `>` because our
        // top-k order breaks score ties by advertiser id, and an unseen
        // advertiser tied exactly at τ with a lower id could otherwise be
        // missed. (At `kth = τ` the scan continues and exhausts a list,
        // which resolves ties exactly.)
        let threshold = Score::expected_value(bid_item.bid, factor_of_pos(c_order, stages - 1));
        if let Some(kth) = scratch.top.kth() {
            if kth.score > threshold {
                stopped_early = true;
                break;
            }
        }
    }

    out.extend(scratch.top.items().iter().map(|s| (s.advertiser, s.score)));
    (stages, stopped_early)
}

fn factor_of_pos(c_order: &[(AdvertiserId, f64)], pos: usize) -> f64 {
    c_order[pos].1
}

/// Reference implementation: full scan over `I_q` (what a system without
/// TA would do). Used for differential testing and as the unshared
/// baseline in the experiments.
pub fn naive_top_k(
    interest: &[AdvertiserId],
    bid_of: impl Fn(AdvertiserId) -> Money,
    factor_of: impl Fn(AdvertiserId) -> f64,
    k: usize,
) -> Vec<(AdvertiserId, Score)> {
    let mut top: KList<ScoredAd> = KList::empty(k);
    for &adv in interest {
        top.insert(ScoredAd::new(
            adv,
            Score::expected_value(bid_of(adv), factor_of(adv)),
        ));
    }
    top.items()
        .iter()
        .map(|s| (s.advertiser, s.score))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a single-phrase environment: bids + factors for n
    /// advertisers, balanced merge network over all of them.
    fn single_phrase(
        bids: &[u64],
        factors: &[f64],
    ) -> (MergeNetwork, usize, Vec<(AdvertiserId, f64)>) {
        let mut net = MergeNetwork::new();
        let mut level: Vec<usize> = bids
            .iter()
            .enumerate()
            .map(|(i, &b)| net.leaf(AdvertiserId::from_index(i), Money::from_micros(b)))
            .collect();
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    net.merge(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        let root = level[0];
        let mut c_order: Vec<(AdvertiserId, f64)> = factors
            .iter()
            .enumerate()
            .map(|(i, &c)| (AdvertiserId::from_index(i), c))
            .collect();
        c_order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        (net, root, c_order)
    }

    fn run(bids: &[u64], factors: &[f64], k: usize) -> (TaOutcome, Vec<(AdvertiserId, Score)>) {
        let (mut net, root, c_order) = single_phrase(bids, factors);
        let outcome = threshold_top_k(
            &mut net,
            root,
            &c_order,
            |a| Money::from_micros(bids[a.index()]),
            |a| factors[a.index()],
            k,
        );
        let interest: Vec<AdvertiserId> = (0..bids.len()).map(AdvertiserId::from_index).collect();
        let naive = naive_top_k(
            &interest,
            |a| Money::from_micros(bids[a.index()]),
            |a| factors[a.index()],
            k,
        );
        (outcome, naive)
    }

    #[test]
    fn matches_naive_on_small_instance() {
        let (outcome, naive) = run(&[100, 50, 80, 20], &[0.5, 1.5, 1.0, 2.0], 2);
        assert_eq!(outcome.top_k, naive);
    }

    #[test]
    fn early_termination_on_aligned_lists() {
        // The same advertiser dominates both lists: TA stops almost
        // immediately instead of scanning all 16.
        let n = 16;
        let bids: Vec<u64> = (0..n).map(|i| 1000 - (i as u64) * 50).collect();
        let factors: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 * 0.1).collect();
        let (outcome, naive) = run(&bids, &factors, 2);
        assert_eq!(outcome.top_k, naive);
        assert!(
            outcome.stopped_early,
            "aligned lists must trigger early stop"
        );
        assert!(
            outcome.stages < n,
            "stages {} should be below n={n}",
            outcome.stages
        );
    }

    #[test]
    fn anti_correlated_lists_need_deep_scans() {
        // Bids ascending while factors descend: the winner by product sits
        // in the middle; TA must dig deeper but stay correct.
        let n = 12;
        let bids: Vec<u64> = (0..n).map(|i| 10 + (i as u64) * 10).collect();
        let factors: Vec<f64> = (0..n).map(|i| 1.2 - i as f64 * 0.1).collect();
        let (outcome, naive) = run(&bids, &factors, 3);
        assert_eq!(outcome.top_k, naive);
    }

    #[test]
    fn k_zero_and_empty_phrase() {
        let (mut net, root, c_order) = single_phrase(&[10, 20], &[1.0, 1.0]);
        let out = threshold_top_k(
            &mut net,
            root,
            &c_order,
            |_| Money::from_units(1),
            |_| 1.0,
            0,
        );
        assert!(out.top_k.is_empty());
        let out = threshold_top_k(
            &mut net,
            usize::MAX,
            &[],
            |_| Money::from_units(1),
            |_| 1.0,
            3,
        );
        assert!(out.top_k.is_empty());
        assert_eq!(out.stages, 0);
    }

    #[test]
    fn all_advertisers_tie_on_bid() {
        // Every advertiser has the same bid, so the bid stream is ordered
        // purely by id and the threshold never strictly exceeds the k-th
        // score until a list runs dry — the strict-`>` stop rule must keep
        // scanning and still return exactly the naive top-k (ranked by
        // factor, ties by id).
        let n = 9;
        let bids = vec![250u64; n];
        let factors: Vec<f64> = (0..n).map(|i| [0.8, 1.3, 0.8, 2.0, 1.3][i % 5]).collect();
        let (outcome, naive) = run(&bids, &factors, 3);
        assert_eq!(outcome.top_k, naive);
        // And with the factors tied too: everything ties on score, winners
        // are the lowest ids.
        let flat = vec![1.0; n];
        let (outcome, naive) = run(&bids, &flat, 4);
        assert_eq!(outcome.top_k, naive);
        let ids: Vec<u32> = outcome.top_k.iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // The same TaScratch driven across phrases of different sizes and
        // k's must behave exactly like a fresh scratch per run.
        let mut scratch = TaScratch::new();
        let mut out = Vec::new();
        for (n, k) in [(7usize, 2usize), (24, 5), (3, 4), (16, 1)] {
            let bids: Vec<u64> = (0..n).map(|i| (i as u64 * 37) % 19 * 10).collect();
            let factors: Vec<f64> = (0..n).map(|i| 0.2 + (i as f64 * 0.7) % 1.9).collect();
            let (mut net, root, c_order) = single_phrase(&bids, &factors);
            let (stages, stopped) = threshold_top_k_into(
                |i| net.get(root, i),
                &c_order,
                |a| Money::from_micros(bids[a.index()]),
                |a| factors[a.index()],
                k,
                &mut scratch,
                &mut out,
            );
            let (fresh, _) = run(&bids, &factors, k);
            assert_eq!(out, fresh.top_k, "n={n} k={k}");
            assert_eq!((stages, stopped), (fresh.stages, fresh.stopped_early));
        }
    }

    #[test]
    fn k_larger_than_interest() {
        let (outcome, naive) = run(&[5, 9], &[1.0, 1.0], 10);
        assert_eq!(outcome.top_k.len(), 2);
        assert_eq!(outcome.top_k, naive);
    }

    proptest! {
        /// TA always returns exactly the naive top-k (same order, same
        /// scores) — the instance-optimality claim's correctness half.
        #[test]
        fn ta_matches_naive(
            bids in proptest::collection::vec(0u64..1000, 1..24),
            factors_raw in proptest::collection::vec(0u32..300, 24),
            k in 1usize..6,
        ) {
            let factors: Vec<f64> = factors_raw[..bids.len()]
                .iter()
                .map(|&f| f as f64 / 100.0)
                .collect();
            let (outcome, naive) = run(&bids, &factors, k);
            prop_assert_eq!(outcome.top_k, naive);
        }
    }
}
