//! Shared sorting (Section III).
//!
//! When the advertiser-specific CTR factor `c_i^q` differs across bid
//! phrases, per-phrase top-k aggregates cannot be shared directly — but
//! the *bids* `b_i` are still shared. The paper's technique: give the
//! Threshold Algorithm a descending-by-bid stream per phrase, produced by
//! an on-demand merge-sort operator tree whose operators are shared
//! across phrases ("we can re-use the cached results of any operators
//! below which all leaves correspond to advertisers in `I_q ∩ I_q'`").
//!
//! * [`MergeNetwork`] — the runtime: pull-based merge operators with a
//!   left/right register each and a cache of everything sent upstream;
//! * [`planner`] — the bottom-up greedy network builder (Section III-C)
//!   with the expected-savings objective;
//! * [`ta`] — the Threshold Algorithm driver (Fagin–Lotem–Naor),
//!   instance-optimal for finding the per-phrase top k.
//!
//! # Memory layout
//!
//! The network is stored struct-of-arrays: parallel `Vec`s of `u32`
//! child pairs, cursors, leaf items, and per-node caches, instead of a
//! `Vec` of enum nodes. Node metadata for a 2n-node network is then a
//! handful of contiguous arrays (~29 bytes/node) that the pull loop
//! strides through, and the only per-node heap blocks are the caches
//! that actually hold items. Caches of nodes that no recent round
//! touched can be *evicted* ([`MergeNetwork::evict_cold`]): cache memory
//! is then proportional to recently-active cones, not to every phrase
//! ever searched, and bit-identity survives because an evicted node
//! regenerates exactly the same stream on demand.

pub mod planner;
pub mod ta;

use std::cmp::Ordering;

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;

/// Sentinel child index marking a leaf node.
const NO_CHILD: u32 = u32::MAX;

/// One element of a bid-sorted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortItem {
    /// The bid `b_i`.
    pub bid: Money,
    /// The advertiser.
    pub advertiser: AdvertiserId,
}

impl PartialOrd for SortItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortItem {
    /// Descending-stream order: higher bid first, ties by lower id.
    fn cmp(&self, other: &Self) -> Ordering {
        self.bid
            .cmp(&other.bid)
            .then_with(|| other.advertiser.cmp(&self.advertiser))
    }
}

/// Per-leaf dirty cones in CSR form: one offsets array plus one shared
/// pool of internal-node ids, replacing a `Vec<Vec<u32>>` whose per-leaf
/// headers and allocations dominated footprint at large n. `cone(leaf)`
/// is the ascending list of every merge operator whose advertiser set
/// contains `leaf` — exactly the nodes a bid change at that leaf
/// invalidates.
#[derive(Debug, Clone, Default)]
pub struct LeafCones {
    offsets: Vec<u32>,
    pool: Vec<u32>,
}

impl LeafCones {
    /// Builds from raw CSR arrays (`offsets.len() == leaves + 1`,
    /// `offsets[leaves] == pool.len()`).
    pub fn from_csr(offsets: Vec<u32>, pool: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, pool.len());
        LeafCones { offsets, pool }
    }

    /// Builds from per-leaf lists (tests and ad-hoc callers).
    pub fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0u32);
        let mut pool = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for list in lists {
            pool.extend_from_slice(list);
            offsets.push(pool.len() as u32);
        }
        LeafCones { offsets, pool }
    }

    /// Number of leaves covered.
    pub fn leaf_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The ascending internal-node ids above `leaf`.
    #[inline]
    pub fn cone(&self, leaf: usize) -> &[u32] {
        let lo = self.offsets[leaf] as usize;
        let hi = self.offsets[leaf + 1] as usize;
        &self.pool[lo..hi]
    }

    /// Heap footprint in bytes (capacities).
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.pool.capacity()) * 4
    }
}

/// What one [`MergeNetwork::refresh`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Nodes whose cache/cursors were reset: the changed leaves plus
    /// every operator in their dirty cones (deduplicated).
    pub nodes_invalidated: u64,
    /// Items still cached across the whole network *after* invalidation —
    /// merged prefixes the next round's TA re-consumes for free.
    pub cache_items_reused: u64,
}

/// A shared, pull-based merge-sort network.
///
/// Nodes are created bottom-up ([`MergeNetwork::leaf`],
/// [`MergeNetwork::merge`]); [`MergeNetwork::get`] pulls the `index`-th
/// largest item under a node, doing no more comparisons than needed and
/// caching everything for other consumers ("we don't do any extra work
/// beyond the stage where the threshold condition is met").
///
/// The network is also *persistent across rounds*: when only some leaf
/// bids change, [`MergeNetwork::refresh`] invalidates just the dirty
/// cones above the changed leaves and keeps every other operator's cached
/// merged prefix, so the next round's pulls are O(dirty) instead of a
/// full rebuild.
#[derive(Debug, Clone, Default)]
pub struct MergeNetwork {
    /// Per node, the two children (`[NO_CHILD; 2]` for leaves).
    children: Vec<[u32; 2]>,
    /// Per node, the leaf item (meaningful only where `children` says
    /// leaf; merges carry a placeholder so the array stays parallel).
    items: Vec<SortItem>,
    /// Per node, how many items have been consumed from each child (the
    /// paper's left/right registers, generalized to cursors because
    /// consumed prefixes are cached by the children anyway).
    cursors: Vec<[u32; 2]>,
    /// "Each operator stores the sequence of values it has sent
    /// upstream."
    emitted: Vec<Vec<SortItem>>,
    /// No more items below.
    exhausted: Vec<bool>,
    /// Per node, the refresh epoch of its most recent pull — drives
    /// [`MergeNetwork::evict_cold`].
    last_touch: Vec<u32>,
    /// Refresh counter (the eviction clock).
    rounds: u32,
    /// Total operator invocations (one per item sent upstream by a merge
    /// operator) — the cost the Section III-B model bounds by `|I_v|`.
    invocations: u64,
    /// Total items currently cached across all nodes (Σ emitted.len()),
    /// maintained incrementally so `refresh` can report reuse in O(dirty).
    cached_items: u64,
    /// Refresh-scoped visited stamps (one per node, epoch-compared) so
    /// overlapping dirty cones are deduplicated without clearing a bitmap.
    dirty_stamps: Vec<u32>,
    dirty_epoch: u32,
}

impl MergeNetwork {
    /// An empty network.
    pub fn new() -> Self {
        MergeNetwork::default()
    }

    /// Adds a leaf for one advertiser's bid; returns its node id.
    pub fn leaf(&mut self, advertiser: AdvertiserId, bid: Money) -> usize {
        let idx = self.children.len();
        self.children.push([NO_CHILD; 2]);
        self.items.push(SortItem { bid, advertiser });
        self.push_node_tail();
        idx
    }

    /// Adds a merge operator over two existing nodes; returns its id.
    ///
    /// # Panics
    /// Panics if a child id is out of range or not older than the new
    /// node.
    pub fn merge(&mut self, left: usize, right: usize) -> usize {
        assert!(
            left < self.children.len() && right < self.children.len(),
            "merge child out of range"
        );
        let idx = self.children.len();
        self.children.push([left as u32, right as u32]);
        self.items.push(SortItem {
            bid: Money::ZERO,
            advertiser: AdvertiserId(0),
        });
        self.push_node_tail();
        idx
    }

    /// The shared tail of node creation: the SoA columns every node has.
    fn push_node_tail(&mut self) {
        self.cursors.push([0, 0]);
        self.emitted.push(Vec::new());
        self.exhausted.push(false);
        self.last_touch.push(self.rounds);
        self.dirty_stamps.push(0);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True iff the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Total merge-operator invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The cached (already merged) prefix of `node`'s stream, without
    /// pulling anything new. Exposed so differential harnesses can assert
    /// a persistent network's caches against a fresh instantiation.
    pub fn cached(&self, node: usize) -> &[SortItem] {
        &self.emitted[node]
    }

    /// Total items currently cached across all nodes.
    pub fn cached_items(&self) -> u64 {
        self.cached_items
    }

    /// Heap footprint in bytes (array capacities plus every node cache's
    /// capacity) — consumed by the memory-scaling benchmark.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.children.capacity() * size_of::<[u32; 2]>()
            + self.items.capacity() * size_of::<SortItem>()
            + self.cursors.capacity() * size_of::<[u32; 2]>()
            + self.emitted.capacity() * size_of::<Vec<SortItem>>()
            + self
                .emitted
                .iter()
                .map(|e| e.capacity() * size_of::<SortItem>())
                .sum::<usize>()
            + self.exhausted.capacity()
            + self.last_touch.capacity() * 4
            + self.dirty_stamps.capacity() * 4
    }

    /// Cross-round invalidation: applies the changed leaf bids and resets
    /// only the *dirty cones* — each changed leaf plus every operator with
    /// that leaf somewhere below it. Everything outside the cones keeps
    /// its cached merged prefix, cursors, and exhausted flag, so the next
    /// round's pulls re-consume those prefixes for free.
    ///
    /// `changed` lists `(leaf node id, new bid)` pairs; `cones.cone(leaf)`
    /// must hold the ids of every merge operator whose advertiser set
    /// contains `leaf` (see `SortPlan::leaf_cones` — plan node ids equal
    /// network node ids under `SortPlan::instantiate`). Whole-cone
    /// invalidation is required for correctness: a clean parent's cursors
    /// index into its children's caches, which a dirty child is about to
    /// rewrite.
    ///
    /// Streams observed after a refresh are bit-identical to a fresh
    /// instantiation with the updated bids.
    pub fn refresh(&mut self, changed: &[(usize, Money)], cones: &LeafCones) -> RefreshStats {
        self.rounds = self.rounds.wrapping_add(1);
        self.dirty_epoch = self.dirty_epoch.wrapping_add(1);
        if self.dirty_epoch == 0 {
            self.dirty_stamps.fill(0);
            self.dirty_epoch = 1;
        }
        let mut invalidated = 0u64;
        for &(leaf, bid) in changed {
            assert!(
                self.children[leaf][0] == NO_CHILD,
                "refresh target {leaf} is not a leaf"
            );
            self.items[leaf].bid = bid;
            if self.mark_dirty(leaf) {
                invalidated += 1;
                self.reset_node(leaf);
            }
            for &cone_node in cones.cone(leaf) {
                let node = cone_node as usize;
                if self.mark_dirty(node) {
                    invalidated += 1;
                    self.reset_node(node);
                }
            }
        }
        RefreshStats {
            nodes_invalidated: invalidated,
            cache_items_reused: self.cached_items,
        }
    }

    /// Evicts the cache of every node whose last pull is more than
    /// `horizon` refreshes old, *freeing* the backing storage (unlike the
    /// refresh-path reset, which keeps capacity for steady-state reuse).
    /// Returns the number of items dropped.
    ///
    /// Safe at any time: caches only ever hold data consistent with the
    /// *current* leaf bids (refresh resets dirty cones before anything is
    /// re-read), so an evicted node regenerates a bit-identical stream on
    /// the next pull — even when a parent outside the evicted set still
    /// holds cursors into it. Cache memory after periodic eviction is
    /// proportional to the cones recent rounds actually pulled (the
    /// *active* phrases), not to every phrase ever searched.
    pub fn evict_cold(&mut self, horizon: u32) -> u64 {
        let mut dropped = 0u64;
        for v in 0..self.children.len() {
            if self.rounds.wrapping_sub(self.last_touch[v]) > horizon && !self.emitted[v].is_empty()
            {
                dropped += self.emitted[v].len() as u64;
                self.cached_items -= self.emitted[v].len() as u64;
                self.emitted[v] = Vec::new();
                self.exhausted[v] = false;
                self.cursors[v] = [0, 0];
            }
        }
        dropped
    }

    /// Marks `node` visited for the current refresh; true on first visit.
    fn mark_dirty(&mut self, node: usize) -> bool {
        if self.dirty_stamps[node] == self.dirty_epoch {
            false
        } else {
            self.dirty_stamps[node] = self.dirty_epoch;
            true
        }
    }

    /// Drops `node`'s cache and rewinds its cursors to the initial state.
    fn reset_node(&mut self, node: usize) {
        self.cached_items -= self.emitted[node].len() as u64;
        self.emitted[node].clear();
        self.exhausted[node] = false;
        self.cursors[node] = [0, 0];
    }

    /// The `index`-th item (0 = largest) of the stream under `node`, or
    /// `None` if the stream has fewer items. Cached results are returned
    /// without recomputation.
    pub fn get(&mut self, node: usize, index: usize) -> Option<SortItem> {
        self.last_touch[node] = self.rounds;
        while self.emitted[node].len() <= index && !self.exhausted[node] {
            self.pull_next(node);
        }
        self.emitted[node].get(index).copied()
    }

    /// Produces one more item at `node` (or marks it exhausted).
    fn pull_next(&mut self, node: usize) {
        let [left, right] = self.children[node];
        if left == NO_CHILD {
            if self.emitted[node].is_empty() {
                let item = self.items[node];
                self.emitted[node].push(item);
                self.cached_items += 1;
            } else {
                self.exhausted[node] = true;
            }
            return;
        }
        // Fill the registers from downstream (cached if already pulled
        // by another consumer).
        let [left_pos, right_pos] = self.cursors[node];
        let l = self.get(left as usize, left_pos as usize);
        let r = self.get(right as usize, right_pos as usize);
        let take_left = match (l, r) {
            (Some(a), Some(b)) => a > b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                self.exhausted[node] = true;
                return;
            }
        };
        self.invocations += 1;
        let item = if take_left { l.unwrap() } else { r.unwrap() };
        self.cursors[node][if take_left { 0 } else { 1 }] += 1;
        self.emitted[node].push(item);
        self.cached_items += 1;
    }

    /// Convenience: drains the whole stream under `node` (a full sort).
    pub fn drain(&mut self, node: usize) -> Vec<SortItem> {
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(item) = self.get(node, i) {
            out.push(item);
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn net_over(bids: &[u64]) -> (MergeNetwork, usize) {
        let mut net = MergeNetwork::new();
        let leaves: Vec<usize> = bids
            .iter()
            .enumerate()
            .map(|(i, &b)| net.leaf(AdvertiserId::from_index(i), Money::from_micros(b)))
            .collect();
        // Balanced tree.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(net.merge(pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        let root = level[0];
        (net, root)
    }

    #[test]
    fn drains_in_descending_order() {
        let (mut net, root) = net_over(&[5, 9, 1, 7, 3]);
        let bids: Vec<u64> = net.drain(root).iter().map(|i| i.bid.micros()).collect();
        assert_eq!(bids, vec![9, 7, 5, 3, 1]);
    }

    #[test]
    fn ties_break_by_advertiser_id() {
        let (mut net, root) = net_over(&[5, 5, 5]);
        let ids: Vec<u32> = net.drain(root).iter().map(|i| i.advertiser.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn pull_is_lazy() {
        let (mut net, root) = net_over(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let first = net.get(root, 0).unwrap();
        assert_eq!(first.bid.micros(), 8);
        // Getting the max of 8 leaves via a balanced tree costs at most
        // one invocation per merge node on the max's path plus register
        // fills: strictly fewer than a full sort's ~17.
        assert!(
            net.invocations() <= 8,
            "lazy top-1 used {} invocations",
            net.invocations()
        );
    }

    #[test]
    fn caching_shares_across_consumers() {
        let (mut net, root) = net_over(&[4, 2, 6, 8]);
        let _ = net.get(root, 0);
        let _ = net.get(root, 1);
        let before = net.invocations();
        // A second consumer re-reading the prefix costs nothing.
        assert_eq!(net.get(root, 0).unwrap().bid.micros(), 8);
        assert_eq!(net.get(root, 1).unwrap().bid.micros(), 6);
        assert_eq!(net.invocations(), before);
    }

    #[test]
    fn shared_subtree_is_sorted_once() {
        // Two roots share a subtree: draining both should invoke the
        // shared part once.
        let mut net = MergeNetwork::new();
        let a = net.leaf(AdvertiserId(0), Money::from_micros(3));
        let b = net.leaf(AdvertiserId(1), Money::from_micros(7));
        let shared = net.merge(a, b);
        let c = net.leaf(AdvertiserId(2), Money::from_micros(5));
        let d = net.leaf(AdvertiserId(3), Money::from_micros(1));
        let root1 = net.merge(shared, c);
        let root2 = net.merge(shared, d);
        let s1 = net.drain(root1);
        let inv_after_first = net.invocations();
        let s2 = net.drain(root2);
        let extra = net.invocations() - inv_after_first;
        assert_eq!(
            s1.iter().map(|i| i.bid.micros()).collect::<Vec<_>>(),
            vec![7, 5, 3]
        );
        assert_eq!(
            s2.iter().map(|i| i.bid.micros()).collect::<Vec<_>>(),
            vec![7, 3, 1]
        );
        // Draining root2 pays only its own merges (3 items), not the
        // shared node's (already cached).
        assert!(extra <= 3, "second drain cost {extra}");
    }

    #[test]
    fn exhausted_streams_return_none() {
        let (mut net, root) = net_over(&[1, 2]);
        assert!(net.get(root, 2).is_none());
        assert!(net.get(root, 99).is_none());
        // Still fine to re-read earlier items.
        assert_eq!(net.get(root, 0).unwrap().bid.micros(), 2);
    }

    #[test]
    fn worst_case_invocations_bounded_by_iv() {
        // Full sort of a node with |I_v| leaves invokes each operator at
        // most |I_v| times: total ≤ Σ_v |I_v| over merge nodes.
        let (mut net, root) = net_over(&[3, 1, 4, 1, 5, 9, 2, 6]);
        net.drain(root);
        // Balanced over 8: levels contribute 8 + 8 + 8 = 24 at most.
        assert!(net.invocations() <= 24);
    }

    /// Ancestor cones computed by brute force from the network structure
    /// (the planner derives the same thing from plan advertiser sets).
    fn brute_force_cones(net: &MergeNetwork, leaves: usize) -> LeafCones {
        let mut below: Vec<Vec<usize>> = Vec::with_capacity(net.len());
        for idx in 0..net.len() {
            let [l, r] = net.children[idx];
            if l == NO_CHILD {
                below.push(vec![idx]);
            } else {
                let mut b = below[l as usize].clone();
                b.extend_from_slice(&below[r as usize]);
                below.push(b);
            }
        }
        let lists: Vec<Vec<u32>> = (0..leaves)
            .map(|leaf| {
                (0..net.len())
                    .filter(|&idx| net.children[idx][0] != NO_CHILD && below[idx].contains(&leaf))
                    .map(|idx| idx as u32)
                    .collect()
            })
            .collect();
        LeafCones::from_lists(&lists)
    }

    #[test]
    fn refresh_matches_fresh_rebuild() {
        let bids = [5u64, 9, 1, 7, 3, 8, 2, 6];
        let (mut net, root) = net_over(&bids);
        let cones = brute_force_cones(&net, bids.len());
        net.drain(root);

        let mut new_bids = bids;
        new_bids[2] = 10;
        new_bids[5] = 0;
        let changed = vec![
            (2usize, Money::from_micros(10)),
            (5usize, Money::from_micros(0)),
        ];
        net.refresh(&changed, &cones);
        let inv_before = net.invocations();
        let refreshed = net.drain(root);
        let refresh_cost = net.invocations() - inv_before;

        let (mut fresh, fresh_root) = net_over(&new_bids);
        let fresh_items = fresh.drain(fresh_root);
        let fresh_cost = fresh.invocations();
        assert_eq!(refreshed, fresh_items);
        assert!(
            refresh_cost < fresh_cost,
            "refresh re-merged {refresh_cost} ≥ fresh {fresh_cost}: no reuse"
        );
    }

    #[test]
    fn refresh_invalidates_exactly_the_cone() {
        // Balanced tree over 8 leaves: one changed leaf dirties itself
        // plus its 3 ancestors (log₂ 8 levels).
        let bids = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let (mut net, root) = net_over(&bids);
        let cones = brute_force_cones(&net, bids.len());
        net.drain(root);
        let cached_before = net.cached_items();
        let stats = net.refresh(&[(0, Money::from_micros(100))], &cones);
        assert_eq!(stats.nodes_invalidated, 4, "leaf + 3 ancestors");
        // The leaf and each ancestor had fully drained caches of sizes
        // 1, 2, 4, 8 → 15 items dropped, the rest reused.
        assert_eq!(stats.cache_items_reused, cached_before - 15);
        assert_eq!(net.cached_items(), stats.cache_items_reused);
    }

    #[test]
    fn refresh_with_no_changes_reuses_everything() {
        let (mut net, root) = net_over(&[4, 2, 6, 8]);
        let cones = brute_force_cones(&net, 4);
        let items = net.drain(root);
        let inv = net.invocations();
        let stats = net.refresh(&[], &cones);
        assert_eq!(stats.nodes_invalidated, 0);
        assert_eq!(stats.cache_items_reused, net.cached_items());
        assert_eq!(net.drain(root), items);
        assert_eq!(
            net.invocations(),
            inv,
            "no-op refresh must re-merge nothing"
        );
    }

    #[test]
    fn repeated_refreshes_stay_consistent() {
        let mut bids = [7u64, 7, 7, 7, 7];
        let (mut net, root) = net_over(&bids);
        let cones = brute_force_cones(&net, bids.len());
        for round in 0..10u64 {
            let leaf = (round % bids.len() as u64) as usize;
            bids[leaf] = round * 3 % 11;
            net.refresh(&[(leaf, Money::from_micros(bids[leaf]))], &cones);
            let got = net.drain(root);
            let (mut fresh, fresh_root) = net_over(&bids);
            assert_eq!(got, fresh.drain(fresh_root), "round {round}");
        }
    }

    #[test]
    fn eviction_frees_cold_caches_and_streams_stay_identical() {
        let bids = [5u64, 9, 1, 7, 3, 8, 2, 6];
        let (mut net, root) = net_over(&bids);
        let cones = brute_force_cones(&net, bids.len());
        let items = net.drain(root);
        let cached_before = net.cached_items();
        assert!(cached_before > 0);
        // Nothing is pulled for several refreshes: the whole network
        // goes cold and eviction reclaims every cache.
        for _ in 0..5 {
            net.refresh(&[], &cones);
        }
        let dropped = net.evict_cold(3);
        assert_eq!(dropped, cached_before, "every cache was cold");
        assert_eq!(net.cached_items(), 0);
        // Regeneration is bit-identical.
        assert_eq!(net.drain(root), items);
    }

    #[test]
    fn eviction_under_live_parent_cursors_is_safe() {
        // Keep the root warm (cache hits only — its children go cold),
        // evict, then pull *past* the cached prefix: the root's cursors
        // point deep into children that must regenerate their streams.
        let bids = [5u64, 9, 1, 7, 3, 8, 2, 6];
        let (mut net, root) = net_over(&bids);
        let cones = brute_force_cones(&net, bids.len());
        let full = net.drain(root);
        for _ in 0..5 {
            net.refresh(&[], &cones);
            // Cache hit: touches the root only, children stay cold.
            assert_eq!(net.get(root, 0), Some(full[0]));
        }
        let dropped = net.evict_cold(3);
        assert!(dropped > 0, "children below the warm root must evict");
        assert!(!net.cached(root).is_empty(), "warm root kept its cache");
        assert_eq!(net.drain(root), full, "regenerated streams identical");
    }

    #[test]
    fn eviction_respects_recent_touches() {
        let (mut net, root) = net_over(&[4, 2, 6, 8]);
        let cones = brute_force_cones(&net, 4);
        net.drain(root);
        net.refresh(&[], &cones);
        assert_eq!(net.evict_cold(3), 0, "nothing is older than the horizon");
        assert!(net.cached_items() > 0);
    }

    proptest! {
        /// Refreshing any leaf subset yields the same streams as a fresh
        /// network over the updated bids, for random tree shapes.
        #[test]
        fn refresh_is_bit_identical_to_fresh(
            bids in proptest::collection::vec(0u64..1000, 2..24),
            updates in proptest::collection::vec((0usize..24, 0u64..1000), 0..8),
            partial_drain in 0usize..24,
        ) {
            let (mut net, root) = net_over(&bids);
            let cones = brute_force_cones(&net, bids.len());
            // Pull only part of the stream so caches are at mixed depths.
            for i in 0..partial_drain.min(bids.len()) {
                net.get(root, i);
            }
            let mut new_bids = bids.clone();
            let mut changed = Vec::new();
            for (leaf, bid) in updates {
                let leaf = leaf % bids.len();
                new_bids[leaf] = bid;
                changed.push((leaf, Money::from_micros(bid)));
            }
            net.refresh(&changed, &cones);
            let (mut fresh, fresh_root) = net_over(&new_bids);
            prop_assert_eq!(net.drain(root), fresh.drain(fresh_root));
        }

        /// Eviction at arbitrary points of a refresh/pull schedule never
        /// changes any stream.
        #[test]
        fn eviction_is_bit_identical_to_fresh(
            bids in proptest::collection::vec(0u64..1000, 2..16),
            updates in proptest::collection::vec((0usize..16, 0u64..1000), 1..6),
            horizon in 0u32..4,
        ) {
            let (mut net, root) = net_over(&bids);
            let cones = brute_force_cones(&net, bids.len());
            net.drain(root);
            let mut new_bids = bids.clone();
            for (round, (leaf, bid)) in updates.into_iter().enumerate() {
                let leaf = leaf % bids.len();
                new_bids[leaf] = bid;
                net.refresh(&[(leaf, Money::from_micros(bid))], &cones);
                if round % 2 == 0 {
                    net.evict_cold(horizon);
                }
                let (mut fresh, fresh_root) = net_over(&new_bids);
                prop_assert_eq!(net.drain(root), fresh.drain(fresh_root));
            }
        }

        /// The network agrees with a plain sort for any bids and any
        /// random (not necessarily balanced) tree shape.
        #[test]
        fn network_sorts_correctly(
            bids in proptest::collection::vec(0u64..1000, 1..40),
            shape in proptest::collection::vec(any::<u8>(), 40),
        ) {
            let mut net = MergeNetwork::new();
            let mut pool: Vec<usize> = bids
                .iter()
                .enumerate()
                .map(|(i, &b)| net.leaf(AdvertiserId::from_index(i), Money::from_micros(b)))
                .collect();
            let mut s = 0usize;
            while pool.len() > 1 {
                let a = shape[s % shape.len()] as usize % pool.len();
                let na = pool.swap_remove(a);
                let b = shape[(s + 1) % shape.len()] as usize % pool.len();
                let nb = pool.swap_remove(b);
                pool.push(net.merge(na, nb));
                s += 2;
            }
            let got: Vec<(u64, u32)> = net
                .drain(pool[0])
                .iter()
                .map(|i| (i.bid.micros(), i.advertiser.0))
                .collect();
            let mut want: Vec<(u64, u32)> = bids
                .iter()
                .enumerate()
                .map(|(i, &b)| (b, i as u32))
                .collect();
            want.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
            prop_assert_eq!(got, want);
        }
    }
}
