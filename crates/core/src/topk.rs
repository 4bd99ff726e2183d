//! The top-k list and its merge operator.
//!
//! Section II-C: "the top-k aggregation operator is the binary function
//! that takes in two k-lists (i.e., lists of size at most k) and outputs a
//! k-list of the top k elements of the union of the two input lists.
//! Notice that this operator is clearly associative, commutative, and
//! idempotent. It also has an identity element, namely, the empty list."
//!
//! [`KList`] keeps its elements sorted descending; merging two k-lists is
//! a linear two-pointer merge. Duplicate *elements* (the same element
//! reached through overlapping aggregation paths, which idempotence makes
//! harmless) are de-duplicated, so `merge(x, x) == x` holds exactly.

use std::cmp::Ordering;

use ssa_auction::ids::AdvertiserId;
use ssa_auction::score::Score;

/// A scored advertiser — the element type top-k winner determination
/// aggregates. Ordered by score descending, ties broken by ascending
/// advertiser id (the deterministic tie-break used throughout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredAd {
    /// The ranking score `b_i · c_i`.
    pub score: Score,
    /// The advertiser.
    pub advertiser: AdvertiserId,
}

impl ScoredAd {
    /// Creates a scored advertiser.
    pub fn new(advertiser: AdvertiserId, score: Score) -> Self {
        ScoredAd { score, advertiser }
    }
}

impl PartialOrd for ScoredAd {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredAd {
    /// "Greater" = ranks earlier: higher score, then lower advertiser id.
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.advertiser.cmp(&self.advertiser))
    }
}

/// A list of at most `k` elements, kept sorted descending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KList<T> {
    k: usize,
    items: Vec<T>,
}

impl<T> Default for KList<T> {
    /// The empty list with `k = 0`; scratch holders
    /// [`reset`](KList::reset) it before use.
    fn default() -> Self {
        KList {
            k: 0,
            items: Vec::new(),
        }
    }
}

impl<T: Ord + Clone> KList<T> {
    /// The empty k-list (the operator's identity element).
    pub fn empty(k: usize) -> Self {
        KList {
            k,
            items: Vec::new(),
        }
    }

    /// A singleton k-list.
    pub fn singleton(k: usize, item: T) -> Self {
        let items = if k == 0 { Vec::new() } else { vec![item] };
        KList { k, items }
    }

    /// Builds from arbitrary items, keeping the top `k`.
    pub fn from_items<I: IntoIterator<Item = T>>(k: usize, items: I) -> Self {
        let mut v: Vec<T> = items.into_iter().collect();
        v.sort_by(|a, b| b.cmp(a));
        v.dedup();
        v.truncate(k);
        KList { k, items: v }
    }

    /// The bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Elements, best first.
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Current length (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Heap footprint in bytes (capacity).
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
    }

    /// The worst retained element (the k-th best), if the list is full —
    /// the threshold the TA driver compares against.
    pub fn kth(&self) -> Option<&T> {
        if self.items.len() == self.k {
            self.items.last()
        } else {
            None
        }
    }

    /// Reinitializes the list in place for reuse as scratch: clears the
    /// elements, adopts a (possibly new) bound `k`, and pre-reserves
    /// `k + 1` slots so a subsequent run of up to `k` inserts (each of
    /// which may momentarily hold `k + 1` elements before truncation)
    /// never reallocates. The backing storage is retained across calls.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.items.clear();
        self.items.reserve(k.saturating_add(1));
    }

    /// The top-k merge: top k of the union of the two lists, duplicates
    /// collapsed (idempotence).
    ///
    /// # Panics
    /// Panics if the two lists have different `k` (they would belong to
    /// different auctions).
    pub fn merge(&self, other: &KList<T>) -> KList<T> {
        assert_eq!(self.k, other.k, "cannot merge k-lists of different k");
        let mut out = Vec::with_capacity(self.k.min(self.items.len() + other.items.len()));
        let (mut i, mut j) = (0, 0);
        while out.len() < self.k && (i < self.items.len() || j < other.items.len()) {
            let take_left = match (self.items.get(i), other.items.get(j)) {
                (Some(a), Some(b)) => match a.cmp(b) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => {
                        // Same element via two paths: consume both, emit one.
                        j += 1;
                        true
                    }
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_left {
                out.push(self.items[i].clone());
                i += 1;
            } else {
                out.push(other.items[j].clone());
                j += 1;
            }
        }
        KList {
            k: self.k,
            items: out,
        }
    }

    /// Inserts one element, keeping the top k. Returns true if the list
    /// changed.
    pub fn insert(&mut self, item: T) -> bool {
        match self.items.binary_search_by(|x| item.cmp(x)) {
            Ok(_) => false, // exact duplicate
            Err(pos) => {
                if pos >= self.k {
                    return false;
                }
                self.items.insert(pos, item);
                self.items.truncate(self.k);
                true
            }
        }
    }
}

/// Chunk width of [`KList::scan`]: small enough that the candidate buffer
/// lives in registers/L1, wide enough to amortize the threshold re-read.
const SCAN_CHUNK: usize = 64;

impl KList<ScoredAd> {
    /// Inserts the candidates `candidate(0..len)` by a branch-light
    /// chunked threshold scan — the one kernel behind the unshared
    /// per-phrase scan and a plan run's slot.
    ///
    /// A whole chunk is scored into a flat buffer first — a pure
    /// arithmetic loop with no data-dependent branches — and only
    /// candidates at or above the chunk-start k-th score touch the list.
    /// The filter uses `>=` because ties break by ascending advertiser id:
    /// an equal score with a lower id outranks the current k-th. A stale
    /// (chunk-start) threshold is conservative — it only admits extra
    /// candidates, which `insert` rejects — so the result is bit-identical
    /// to inserting every candidate one by one.
    pub fn scan(&mut self, len: usize, candidate: impl Fn(usize) -> ScoredAd) {
        let mut buffer = [ScoredAd::new(AdvertiserId(0), Score::ZERO); SCAN_CHUNK];
        for start in (0..len).step_by(SCAN_CHUNK) {
            let chunk = &mut buffer[..SCAN_CHUNK.min(len - start)];
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = candidate(start + j);
            }
            let threshold = self.kth().map(|s| s.score);
            for &c in chunk.iter() {
                if threshold.is_none_or(|t| c.score >= t) {
                    self.insert(c);
                }
            }
        }
    }
}

/// The top-k aggregation operator over scored advertisers — the concrete
/// ⊕ that shared winner determination evaluates plans with.
#[derive(Debug, Clone, Copy)]
pub struct ScoredTopKOp {
    /// The slot count `k`.
    pub k: usize,
}

impl crate::algebra::ops::AggregateOp for ScoredTopKOp {
    type Value = KList<ScoredAd>;

    fn name(&self) -> &'static str {
        "top-k(scored)"
    }

    fn axioms(&self) -> crate::algebra::AxiomSet {
        crate::algebra::AxiomSet::SEMILATTICE_WITH_IDENTITY
    }

    fn combine(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        a.merge(b)
    }

    fn identity(&self) -> Option<Self::Value> {
        Some(KList::empty(self.k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kl(k: usize, items: &[i32]) -> KList<i32> {
        KList::from_items(k, items.iter().copied())
    }

    #[test]
    fn from_items_sorts_and_truncates() {
        let l = kl(3, &[5, 1, 9, 7, 3]);
        assert_eq!(l.items(), &[9, 7, 5]);
        assert_eq!(l.kth(), Some(&5));
        assert!(kl(3, &[1]).kth().is_none(), "not full yet");
    }

    #[test]
    fn merge_takes_top_of_union() {
        let a = kl(3, &[9, 5, 1]);
        let b = kl(3, &[8, 6, 2]);
        assert_eq!(a.merge(&b).items(), &[9, 8, 6]);
    }

    #[test]
    fn algebraic_properties_hold() {
        // The four axioms the paper abstracts the operator by.
        let a = kl(4, &[9, 5, 1]);
        let b = kl(4, &[8, 6, 2]);
        let c = kl(4, &[7, 4]);
        // A1 associativity
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        // A2 identity
        let e = KList::empty(4);
        assert_eq!(a.merge(&e), a);
        assert_eq!(e.merge(&a), a);
        // A3 idempotence
        assert_eq!(a.merge(&a), a);
        // A4 commutativity
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn insert_maintains_topk() {
        let mut l = KList::empty(2);
        assert!(l.insert(5));
        assert!(l.insert(9));
        assert!(!l.insert(1), "below the cut");
        assert!(l.insert(7));
        assert_eq!(l.items(), &[9, 7]);
        assert!(!l.insert(7), "duplicate");
    }

    #[test]
    fn k_zero_is_always_empty() {
        let l = KList::singleton(0, 42);
        assert!(l.is_empty());
        let m = l.merge(&KList::from_items(0, [1, 2, 3]));
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn merge_rejects_mismatched_k() {
        let _ = kl(2, &[1]).merge(&kl(3, &[1]));
    }

    #[test]
    fn scored_ad_ordering() {
        use ssa_auction::ids::AdvertiserId;
        let hi = ScoredAd::new(AdvertiserId(3), Score::new(2.0));
        let lo = ScoredAd::new(AdvertiserId(1), Score::new(1.0));
        let tie_low_id = ScoredAd::new(AdvertiserId(1), Score::new(2.0));
        assert!(hi > lo);
        assert!(tie_low_id > hi, "equal scores: lower id ranks first");
        let l = KList::from_items(2, [lo, hi, tie_low_id]);
        assert_eq!(l.items()[0].advertiser, AdvertiserId(1));
        assert_eq!(l.items()[1].advertiser, AdvertiserId(3));
    }

    proptest! {
        /// Merge equals the naive "sort the union, dedup, take k".
        #[test]
        fn merge_matches_naive(
            xs in proptest::collection::vec(-50i32..50, 0..12),
            ys in proptest::collection::vec(-50i32..50, 0..12),
            k in 1usize..8,
        ) {
            let a = KList::from_items(k, xs.iter().copied());
            let b = KList::from_items(k, ys.iter().copied());
            let merged = a.merge(&b);
            let mut naive: Vec<i32> = a.items().iter().chain(b.items()).copied().collect();
            naive.sort_by(|p, q| q.cmp(p));
            naive.dedup();
            naive.truncate(k);
            prop_assert_eq!(merged.items(), &naive[..]);
        }

        /// Associativity and commutativity on random inputs.
        #[test]
        fn axioms_on_random_inputs(
            xs in proptest::collection::vec(-50i32..50, 0..10),
            ys in proptest::collection::vec(-50i32..50, 0..10),
            zs in proptest::collection::vec(-50i32..50, 0..10),
            k in 1usize..6,
        ) {
            let a = KList::from_items(k, xs.iter().copied());
            let b = KList::from_items(k, ys.iter().copied());
            let c = KList::from_items(k, zs.iter().copied());
            prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
            prop_assert_eq!(a.merge(&b), b.merge(&a));
            prop_assert_eq!(a.merge(&a), a);
        }
    }
}
