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
//! * [`MergeNetwork`] — the runtime: leaf *runs* (one per §II-D fragment,
//!   kept as lazy heaps) under pull-based merge operators with a
//!   left/right register each and a cache of everything sent upstream;
//! * [`planner`] — the bottom-up greedy network builder (Section III-C)
//!   with the expected-savings objective;
//! * [`ta`] — the Threshold Algorithm driver (Fagin–Lotem–Naor),
//!   instance-optimal for finding the per-phrase top k.
//!
//! # Memory layout
//!
//! The network is stored struct-of-arrays: parallel `Vec`s of `u32`
//! child pairs, cursors and per-node caches, plus one pool holding every
//! run's items back to back (16 bytes per advertiser). Inside a fragment
//! nothing is shared — every operator there would serve the fragment's
//! whole signature — so a fragment is one run, not a tree of `f − 1`
//! operators: a 1M-advertiser network over 800 fragments is 800 runs and
//! the few merge nodes above them, and the only per-node heap blocks are
//! the merge caches that actually hold items.

pub mod planner;
pub mod ta;

use std::cmp::Ordering;

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;

/// Sentinel child index marking a run leaf.
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

/// Per-run dirty cones in CSR form: one offsets array plus one shared
/// pool of merge-node ids. `cone(run)` is the ascending list of every
/// merge operator with that run somewhere below it — exactly the nodes a
/// rebuild of the run invalidates. Runs are the network's first nodes,
/// so a run's node id is its index here.
#[derive(Debug, Clone, Default)]
pub struct LeafCones {
    offsets: Vec<u32>,
    pool: Vec<u32>,
}

impl LeafCones {
    /// Packs per-run lists.
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

    /// The ascending merge-node ids above `run`.
    #[inline]
    pub fn cone(&self, run: usize) -> &[u32] {
        let lo = self.offsets[run] as usize;
        let hi = self.offsets[run + 1] as usize;
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
    /// Nodes whose cache was reset: the rebuilt runs plus every operator
    /// in their dirty cones (deduplicated).
    pub nodes_invalidated: u64,
    /// Items still cached across the whole network *after* invalidation —
    /// sorted prefixes the next round's TA re-consumes for free.
    pub cache_items_reused: u64,
}

/// One run's span of [`MergeNetwork`]'s item pool: `start..start + popped`
/// is its cache, `start + popped..end` its heap.
#[derive(Debug, Clone, Copy)]
struct RunSpan {
    start: u32,
    popped: u32,
    end: u32,
}

/// A shared, pull-based merge-sort network.
///
/// Nodes are created bottom-up ([`MergeNetwork::run`],
/// [`MergeNetwork::merge`]); [`MergeNetwork::get`] pulls the `index`-th
/// largest item under a node, doing no more comparisons than needed and
/// caching everything for other consumers ("we don't do any extra work
/// beyond the stage where the threshold condition is met").
///
/// A leaf is a *run*: a contiguous span of items kept lazily in stream
/// order. The unsent items form an in-place max-heap stored back to front
/// at the span's end; each pull pops the maximum onto the end of the
/// sent prefix at the span's start, so that prefix *is* the run's cache,
/// read like any merge operator's. A run costs one O(f) heapify to
/// (re)build and O(log f) per item actually pulled.
///
/// The network is also *persistent across rounds*: when only some bids
/// change, [`MergeNetwork::refresh`] rebuilds just the runs holding a
/// changed bid and resets the dirty cones above them, keeping every other
/// node's cached prefix, so the next round's pulls are O(dirty) instead
/// of a full rebuild. Every cache is consistent with the bids the runs
/// below it currently hold.
#[derive(Debug, Clone, Default)]
pub struct MergeNetwork {
    /// Per node, the two children; a run leaf holds `[NO_CHILD, r]`, `r`
    /// indexing `runs`.
    children: Vec<[u32; 2]>,
    /// Per merge node, how many items have been consumed from each child
    /// (the paper's left/right registers, generalized to cursors because
    /// consumed prefixes are cached by the children anyway).
    cursors: Vec<[u32; 2]>,
    /// "Each operator stores the sequence of values it has sent
    /// upstream." (Empty at runs, whose cache lives in `items`.)
    emitted: Vec<Vec<SortItem>>,
    /// Per merge node: no more items below.
    exhausted: Vec<bool>,
    /// Per run, its span of `items`.
    runs: Vec<RunSpan>,
    /// Every run's items, run after run.
    items: Vec<SortItem>,
    /// Total invocations: one per item any node sends upstream (a merge
    /// operator's output or a run's pop) — the cost the Section III-B
    /// model bounds by `|I_v|` per merge node.
    invocations: u64,
    /// Total items currently cached across all nodes, maintained
    /// incrementally so `refresh` can report reuse in O(dirty).
    cached_items: u64,
    /// Refresh-scoped visited stamps (one per node, epoch-compared) so
    /// runs under several phrases are diffed once and overlapping dirty
    /// cones are deduplicated, without clearing a bitmap.
    dirty_stamps: Vec<u32>,
    dirty_epoch: u32,
}

impl MergeNetwork {
    /// An empty network.
    pub fn new() -> Self {
        MergeNetwork::default()
    }

    /// Adds a run leaf over `items` (any order); returns its node id.
    pub fn run(&mut self, items: impl IntoIterator<Item = SortItem>) -> usize {
        let start = self.items.len();
        self.items.extend(items);
        let end = self.items.len();
        heapify(&mut self.items[start..end]);
        let idx = self.children.len();
        self.children.push([NO_CHILD, self.runs.len() as u32]);
        self.runs.push(RunSpan {
            start: start as u32,
            popped: 0,
            end: end as u32,
        });
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
        self.push_node_tail();
        idx
    }

    /// The shared tail of node creation: the SoA columns every node has.
    fn push_node_tail(&mut self) {
        self.cursors.push([0, 0]);
        self.emitted.push(Vec::new());
        self.exhausted.push(false);
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

    /// Total invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The cached (already sent) prefix of `node`'s stream, without
    /// pulling anything new. Exposed so differential harnesses can assert
    /// a persistent network's caches against a fresh instantiation.
    pub fn cached(&self, node: usize) -> &[SortItem] {
        match self.children[node] {
            [NO_CHILD, r] => {
                let span = self.runs[r as usize];
                &self.items[span.start as usize..(span.start + span.popped) as usize]
            }
            _ => &self.emitted[node],
        }
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
            + self.cursors.capacity() * size_of::<[u32; 2]>()
            + self.emitted.capacity() * size_of::<Vec<SortItem>>()
            + self
                .emitted
                .iter()
                .map(|e| e.capacity() * size_of::<SortItem>())
                .sum::<usize>()
            + self.exhausted.capacity()
            + self.runs.capacity() * size_of::<RunSpan>()
            + self.items.capacity() * size_of::<SortItem>()
            + self.dirty_stamps.capacity() * 4
    }

    /// Cross-round invalidation: brings the given runs to `bids` (indexed
    /// by advertiser) and resets only the *dirty cones* — each run holding
    /// a bid that differs from its advertiser's entry in `bids`, plus
    /// every operator with that run somewhere below it. A dirty run takes
    /// all its members' new bids and is rebuilt by one heapify; a clean
    /// run costs one compare per member. Runs not handed in keep their
    /// bids, and everything outside the cones keeps its cached prefix,
    /// cursors, and exhausted flag, so the next round's pulls re-consume
    /// those prefixes for free.
    ///
    /// `runs` yields run node ids (repeats are fine); `cones.cone(run)`
    /// must hold the ids of every merge operator above `run` (see
    /// `SortPlan::leaf_cones` — plan node ids equal network node ids under
    /// `SortPlan::instantiate`). Whole-cone invalidation is required for
    /// correctness: a clean parent's cursors index into its children's
    /// caches, which a dirty child is about to rewrite.
    ///
    /// The stream under any node whose runs all hold their current bids
    /// is bit-identical to a fresh instantiation with those bids.
    pub fn refresh(
        &mut self,
        runs: impl IntoIterator<Item = usize>,
        bids: &[Money],
        cones: &LeafCones,
    ) -> RefreshStats {
        self.dirty_epoch = self.dirty_epoch.wrapping_add(1);
        if self.dirty_epoch == 0 {
            self.dirty_stamps.fill(0);
            self.dirty_epoch = 1;
        }
        let mut invalidated = 0u64;
        for node in runs {
            if !self.first_visit(node) {
                continue;
            }
            let [left, r] = self.children[node];
            debug_assert!(left == NO_CHILD, "refresh target {node} is not a run");
            let span = self.runs[r as usize];
            let items = &mut self.items[span.start as usize..span.end as usize];
            if items
                .iter()
                .all(|item| item.bid == bids[item.advertiser.index()])
            {
                continue;
            }
            for item in items.iter_mut() {
                item.bid = bids[item.advertiser.index()];
            }
            heapify(items);
            self.runs[r as usize].popped = 0;
            self.cached_items -= u64::from(span.popped);
            invalidated += 1;
            for &cone_node in cones.cone(node) {
                let node = cone_node as usize;
                if self.first_visit(node) {
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

    /// Marks `node` visited for the current refresh; true on first visit.
    fn first_visit(&mut self, node: usize) -> bool {
        if self.dirty_stamps[node] == self.dirty_epoch {
            false
        } else {
            self.dirty_stamps[node] = self.dirty_epoch;
            true
        }
    }

    /// Drops merge node `node`'s cache and rewinds its cursors to the
    /// initial state.
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
        if let [NO_CHILD, r] = self.children[node] {
            return self.run_get(r as usize, index);
        }
        while self.emitted[node].len() <= index && !self.exhausted[node] {
            self.pull_next(node);
        }
        self.emitted[node].get(index).copied()
    }

    /// [`MergeNetwork::get`] at run `r`: pops its heap up to `index`.
    fn run_get(&mut self, r: usize, index: usize) -> Option<SortItem> {
        let RunSpan { start, popped, end } = self.runs[r];
        let (start, end) = (start as usize, end as usize);
        let mut sent = start + popped as usize;
        while sent <= start + index && sent < end {
            // The heap's root sits at the span's end and its last element
            // right after the cache: swapping them appends the maximum to
            // the cache, and the heap loses its last slot.
            self.items.swap(sent, end - 1);
            sent += 1;
            sift_down(&mut self.items[sent..end], 0);
        }
        let pops = (sent - start) as u32 - popped;
        self.runs[r].popped += pops;
        self.invocations += u64::from(pops);
        self.cached_items += u64::from(pops);
        (start + index < sent).then(|| self.items[start + index])
    }

    /// Produces one more item at merge node `node` (or marks it
    /// exhausted).
    fn pull_next(&mut self, node: usize) {
        let [left, right] = self.children[node];
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

/// Sifts heap index `i` down a max-heap stored back to front: heap index
/// `j` lives at `heap[heap.len() - 1 - j]`, so the root is the last slot.
fn sift_down(heap: &mut [SortItem], mut i: usize) {
    let n = heap.len();
    let at = |j: usize| n - 1 - j;
    loop {
        let mut child = 2 * i + 1;
        if child >= n {
            return;
        }
        if child + 1 < n && heap[at(child + 1)] > heap[at(child)] {
            child += 1;
        }
        if heap[at(child)] <= heap[at(i)] {
            return;
        }
        heap.swap(at(child), at(i));
        i = child;
    }
}

/// Arranges `heap` into a back-to-front max-heap (see [`sift_down`]).
fn heapify(heap: &mut [SortItem]) {
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(i: usize, bid: u64) -> SortItem {
        SortItem {
            bid: Money::from_micros(bid),
            advertiser: AdvertiserId::from_index(i),
        }
    }

    fn money(bids: &[u64]) -> Vec<Money> {
        bids.iter().map(|&b| Money::from_micros(b)).collect()
    }

    /// A network over `bids`: advertisers cut into consecutive runs whose
    /// sizes cycle through `sizes`, the runs created first (run `r` is
    /// node `r`), then a balanced tree of merges over them. Returns the
    /// network, its root and the run count.
    fn net_over(bids: &[u64], sizes: &[usize]) -> (MergeNetwork, usize, usize) {
        let mut net = MergeNetwork::new();
        let mut level = Vec::new();
        let mut start = 0;
        for &size in sizes.iter().cycle() {
            if start == bids.len() {
                break;
            }
            let end = (start + size.max(1)).min(bids.len());
            level.push(net.run((start..end).map(|i| item(i, bids[i]))));
            start = end;
        }
        let runs = level.len();
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
        (net, level[0], runs)
    }

    #[test]
    fn drains_in_descending_order() {
        for sizes in [[1], [2], [5]] {
            let (mut net, root, _) = net_over(&[5, 9, 1, 7, 3], &sizes);
            let bids: Vec<u64> = net.drain(root).iter().map(|i| i.bid.micros()).collect();
            assert_eq!(bids, vec![9, 7, 5, 3, 1], "run sizes {sizes:?}");
        }
    }

    #[test]
    fn ties_break_by_advertiser_id() {
        for sizes in [[1], [3]] {
            let (mut net, root, _) = net_over(&[5, 5, 5], &sizes);
            let ids: Vec<u32> = net.drain(root).iter().map(|i| i.advertiser.0).collect();
            assert_eq!(ids, vec![0, 1, 2], "run sizes {sizes:?}");
        }
    }

    #[test]
    fn pull_is_lazy() {
        // Two runs of 4 under one merge: the max costs one pop per run
        // (the registers) plus one merge, not a sort.
        let (mut net, root, _) = net_over(&[1, 2, 3, 4, 5, 6, 7, 8], &[4]);
        let first = net.get(root, 0).unwrap();
        assert_eq!(first.bid.micros(), 8);
        assert_eq!(net.invocations(), 3, "lazy top-1");
        net.drain(root);
        assert_eq!(net.invocations(), 16, "a full sort: 8 pops + 8 merges");
    }

    #[test]
    fn caching_shares_across_consumers() {
        let (mut net, root, _) = net_over(&[4, 2, 6, 8], &[1]);
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
        let a = net.run([item(0, 3)]);
        let b = net.run([item(1, 7)]);
        let shared = net.merge(a, b);
        let c = net.run([item(2, 5)]);
        let d = net.run([item(3, 1)]);
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
        // Draining root2 pays only its own merges (3 items) and d's pop,
        // not the shared node's (already cached).
        assert_eq!(extra, 4, "second drain cost {extra}");
    }

    #[test]
    fn exhausted_streams_return_none() {
        for sizes in [[1], [2]] {
            let (mut net, root, _) = net_over(&[1, 2], &sizes);
            assert!(net.get(root, 2).is_none());
            assert!(net.get(root, 99).is_none());
            // Still fine to re-read earlier items.
            assert_eq!(net.get(root, 0).unwrap().bid.micros(), 2);
        }
    }

    #[test]
    fn worst_case_invocations_bounded_by_iv() {
        // A full sort sends each node's whole stream upstream once: every
        // merge operator is invoked |I_v| times and every run pops each
        // member once, Σ_v |I_v| over all nodes.
        let bids = [3, 1, 4, 1, 5, 9, 2, 6];
        for (sizes, total) in [([1], 8 + 24), ([2], 8 + 16), ([8], 8)] {
            let (mut net, root, _) = net_over(&bids, &sizes);
            net.drain(root);
            assert_eq!(net.invocations(), total, "run sizes {sizes:?}");
        }
    }

    /// Run cones computed by brute force from the network structure (the
    /// planner derives the same thing from plan advertiser sets).
    fn brute_force_cones(net: &MergeNetwork, runs: usize) -> LeafCones {
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
        let lists: Vec<Vec<u32>> = (0..runs)
            .map(|run| {
                (0..net.len())
                    .filter(|&idx| net.children[idx][0] != NO_CHILD && below[idx].contains(&run))
                    .map(|idx| idx as u32)
                    .collect()
            })
            .collect();
        LeafCones::from_lists(&lists)
    }

    #[test]
    fn refresh_matches_fresh_rebuild() {
        let bids = [5u64, 9, 1, 7, 3, 8, 2, 6];
        let (mut net, root, runs) = net_over(&bids, &[1]);
        let cones = brute_force_cones(&net, runs);
        net.drain(root);

        let mut new_bids = bids;
        new_bids[2] = 10;
        new_bids[5] = 0;
        net.refresh(0..runs, &money(&new_bids), &cones);
        let inv_before = net.invocations();
        let refreshed = net.drain(root);
        let refresh_cost = net.invocations() - inv_before;

        let (mut fresh, fresh_root, _) = net_over(&new_bids, &[1]);
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
        // Eight runs of two under a balanced tree: one changed bid
        // dirties its run plus the run's 3 ancestors (log₂ 8 levels); the
        // seven other runs handed in hold their bids and stay clean.
        let bids: Vec<u64> = (0..16).map(|i| i * 7 % 11).collect();
        let (mut net, root, runs) = net_over(&bids, &[2]);
        let cones = brute_force_cones(&net, runs);
        net.drain(root);
        let cached_before = net.cached_items();
        let mut new_bids = bids.clone();
        new_bids[1] = 100;
        let stats = net.refresh(0..runs, &money(&new_bids), &cones);
        assert_eq!(stats.nodes_invalidated, 4, "run + 3 ancestors");
        // The run and each ancestor had fully drained caches of sizes
        // 2, 4, 8, 16 → 30 items dropped, the rest reused.
        assert_eq!(stats.cache_items_reused, cached_before - 30);
        assert_eq!(net.cached_items(), stats.cache_items_reused);
        assert_eq!(net.cached(0), &[] as &[SortItem], "the rebuilt run");
        assert_eq!(net.cached(1).len(), 2, "a clean sibling run");
        let (mut fresh, fresh_root, _) = net_over(&new_bids, &[2]);
        assert_eq!(net.drain(root), fresh.drain(fresh_root));
    }

    #[test]
    fn refresh_with_no_changes_reuses_everything() {
        let bids = [4, 2, 6, 8];
        let (mut net, root, runs) = net_over(&bids, &[1]);
        let cones = brute_force_cones(&net, runs);
        let items = net.drain(root);
        let inv = net.invocations();
        let stats = net.refresh([], &money(&bids), &cones);
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
        let (mut net, root, runs) = net_over(&bids, &[2]);
        let cones = brute_force_cones(&net, runs);
        for round in 0..10u64 {
            let leaf = (round % bids.len() as u64) as usize;
            bids[leaf] = round * 3 % 11;
            net.refresh(0..runs, &money(&bids), &cones);
            let got = net.drain(root);
            let (mut fresh, fresh_root, _) = net_over(&bids, &[2]);
            assert_eq!(got, fresh.drain(fresh_root), "round {round}");
        }
    }

    #[test]
    fn refresh_skips_leaves_already_at_their_bid() {
        let bids = [4u64, 2, 6, 8, 5];
        let (mut net, root, runs) = net_over(&bids, &[3]);
        let cones = brute_force_cones(&net, runs);
        let items = net.drain(root);
        let inv = net.invocations();
        let stats = net.refresh(0..runs, &money(&bids), &cones);
        assert_eq!(stats.nodes_invalidated, 0, "no bid differs");
        assert_eq!(net.drain(root), items);
        assert_eq!(net.invocations(), inv);
    }

    /// Bids for the proptests: `spread` 1 makes every bid equal (the id
    /// tie-break decides the whole order), 3 makes ties common.
    fn spread_bids(raw: &[u64], spread: usize) -> Vec<u64> {
        let spread = [1, 3, 1000][spread % 3];
        raw.iter().map(|&b| b % spread).collect()
    }

    proptest! {
        /// Refreshing any bid subset yields the same streams as a fresh
        /// network over the updated bids, for random run sizes and
        /// however deep the caches were pulled before.
        #[test]
        fn refresh_is_bit_identical_to_fresh(
            raw in proptest::collection::vec(0u64..1000, 2..24),
            sizes in proptest::collection::vec(1usize..=8, 1..6),
            spread in 0usize..3,
            updates in proptest::collection::vec((0usize..24, 0u64..1000), 0..8),
            partial_drain in 0usize..24,
            pick in any::<u8>(),
            pick_depth in 0usize..8,
        ) {
            let bids = spread_bids(&raw, spread);
            let (mut net, root, runs) = net_over(&bids, &sizes);
            let cones = brute_force_cones(&net, runs);
            // Pull part of the root's stream and of one run's, so caches
            // are at mixed depths.
            for i in 0..partial_drain.min(bids.len()) {
                net.get(root, i);
            }
            net.get(pick as usize % runs, pick_depth);
            let mut new_bids = bids.clone();
            for (leaf, bid) in updates {
                new_bids[leaf % bids.len()] = spread_bids(&[bid], spread)[0];
            }
            net.refresh(0..runs, &money(&new_bids), &cones);
            let (mut fresh, fresh_root, _) = net_over(&new_bids, &sizes);
            prop_assert_eq!(net.drain(root), fresh.drain(fresh_root));
        }

        /// The stale-run rule: refreshing only the runs under one node
        /// makes that node's stream exact, whatever the other runs still
        /// hold and however deep the caches were filled before.
        #[test]
        fn refreshing_a_subtree_makes_it_exact(
            raw in proptest::collection::vec(0u64..1000, 2..24),
            raw_new in proptest::collection::vec(0u64..1000, 24),
            sizes in proptest::collection::vec(1usize..=8, 1..6),
            spread in 0usize..3,
            partial_drain in 0usize..24,
            pick in any::<u8>(),
        ) {
            let bids = spread_bids(&raw, spread);
            let n = bids.len();
            let (mut net, root, runs) = net_over(&bids, &sizes);
            let cones = brute_force_cones(&net, runs);
            for i in 0..partial_drain.min(n) {
                net.get(root, i);
            }
            let new_bids = spread_bids(&raw_new[..n], spread);
            let v = pick as usize % net.len();
            let under = (0..runs).filter(|&run| run == v || cones.cone(run).contains(&(v as u32)));
            net.refresh(under, &money(&new_bids), &cones);
            let (mut fresh, _, _) = net_over(&new_bids, &sizes);
            prop_assert_eq!(net.drain(v), fresh.drain(v));
        }

        /// The network agrees with a plain sort for any bids, any run
        /// sizes and any random (not necessarily balanced) tree shape.
        #[test]
        fn network_sorts_correctly(
            raw in proptest::collection::vec(0u64..1000, 1..40),
            sizes in proptest::collection::vec(1usize..=8, 1..6),
            spread in 0usize..3,
            shape in proptest::collection::vec(any::<u8>(), 40),
        ) {
            let bids = spread_bids(&raw, spread);
            let mut net = MergeNetwork::new();
            let mut pool = Vec::new();
            let mut start = 0;
            for &size in sizes.iter().cycle() {
                if start == bids.len() {
                    break;
                }
                let end = (start + size).min(bids.len());
                pool.push(net.run((start..end).map(|i| item(i, bids[i]))));
                start = end;
            }
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
