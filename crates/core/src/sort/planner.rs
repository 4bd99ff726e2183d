//! The shared merge-sort planner (Section III-C).
//!
//! "We propose the following simple bottom-up greedy heuristic … that
//! starts out with the leaf nodes, each corresponding to a distinct
//! advertiser, and successively merges the two nodes that would lead to
//! the largest savings in expected cost. … At any point, we can merge
//! nodes u and v into a new node w only if `Q_u ∩ Q_v ≠ ∅`,
//! `I_u ∩ I_v = ∅`, and `|I_u| = |I_v|`. We then set `Q_w = Q_u ∩ Q_v`
//! and `I_w = I_u ∪ I_v`."
//!
//! One refinement over the paper's sketch: a node that has been given a
//! parent for the phrases in `Q_w` may still need parents for its *other*
//! phrases, so each node carries a `remaining` phrase set (initialized to
//! its serving set, shrunk every time a parent adopts it). Merging is
//! driven by `remaining` sets; this keeps every per-phrase structure a
//! true tree (one parent per node per phrase). After no positive-savings
//! merge exists, each phrase's surviving roots are folded together
//! smallest-first so every phrase ends with a single root (these final
//! merges are the unshared tail every plan needs; the paper's
//! power-of-two sizing assumption is relaxed here, as its Section III-B
//! says the discussion "generalizes to arbitrary cardinalities in a
//! straightforward way").
//!
//! # Memory layout
//!
//! The finished [`SortPlan`] is an index-based arena: per-node `u32`
//! child pairs, subtree sizes, and one shared CSR pool of served phrase
//! ids — no per-node heap allocations and nothing whose footprint grows
//! with the advertiser *universe* rather than with actual interest: the
//! arena is O(n + Σ|interest|), where universe-sized sets per node would
//! be O(n²) bits at ~2n nodes. The builders' working nodes are sparse for
//! the same reason — phrase sets as ascending id lists, advertiser sets
//! as a cardinality — so [`build_shared_sort_plan_sparse`] never
//! materializes a universe-sized set. Both builders are the same code
//! around one pair search: the exhaustive [`build_shared_sort_plan`]
//! searches over the leaves under the paper's equal-size constraint, the
//! scalable one over fragment roots without it.

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;
use ssa_setcover::BitSet;

use super::{LeafCones, MergeNetwork};

/// Sentinel child index marking a leaf (and the `u32` no-root marker).
const NO_NODE: u32 = u32::MAX;

/// A shared merge-sort plan across phrases, stored as an index arena.
///
/// Nodes `0..advertiser_count` are leaves in advertiser order
/// (advertisers interested in no phrase get a placeholder leaf serving
/// nothing); internal nodes follow, children always before parents.
#[derive(Debug, Clone)]
pub struct SortPlan {
    advertiser_count: usize,
    /// Per node, the two children (`[NO_NODE; 2]` for leaves).
    children: Vec<[u32; 2]>,
    /// Per node, `|I_v|` — the number of leaves below it.
    sizes: Vec<u32>,
    /// CSR offsets into `serves_pool`, length `node_count + 1`.
    serves_off: Vec<u32>,
    /// Concatenated ascending phrase ids each node serves (`Q_v` at
    /// creation time for internal nodes; the full signature for leaves).
    serves_pool: Vec<u32>,
    /// Per phrase, the root node (`NO_NODE` for empty phrases).
    roots: Vec<u32>,
}

impl SortPlan {
    /// Advertiser universe size (also the number of leaf nodes).
    #[inline]
    pub fn advertiser_count(&self) -> usize {
        self.advertiser_count
    }

    /// Total node count (leaves + internal).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.children.len()
    }

    /// Number of phrases the plan was built over.
    #[inline]
    pub fn phrase_count(&self) -> usize {
        self.roots.len()
    }

    /// The children of `v`, or `None` for a leaf.
    #[inline]
    pub fn node_children(&self, v: usize) -> Option<(usize, usize)> {
        let [a, b] = self.children[v];
        if a == NO_NODE {
            None
        } else {
            Some((a as usize, b as usize))
        }
    }

    /// True iff `v` is an internal (merge) node.
    #[inline]
    pub fn is_internal(&self, v: usize) -> bool {
        self.children[v][0] != NO_NODE
    }

    /// `|I_v|` — advertisers below node `v`.
    #[inline]
    pub fn node_size(&self, v: usize) -> usize {
        self.sizes[v] as usize
    }

    /// Ascending phrase ids node `v` serves.
    #[inline]
    pub fn node_serves(&self, v: usize) -> &[u32] {
        let lo = self.serves_off[v] as usize;
        let hi = self.serves_off[v + 1] as usize;
        &self.serves_pool[lo..hi]
    }

    /// The root node sorting `I_q`, or `usize::MAX` for an empty phrase
    /// (the same sentinel callers have always matched on).
    #[inline]
    pub fn root(&self, q: usize) -> usize {
        let r = self.roots[q];
        if r == NO_NODE {
            usize::MAX
        } else {
            r as usize
        }
    }

    /// Heap footprint of the arena in bytes (capacities, not lengths) —
    /// consumed by the memory-scaling benchmark's per-advertiser gate.
    pub fn heap_bytes(&self) -> usize {
        self.children.capacity() * std::mem::size_of::<[u32; 2]>()
            + self.sizes.capacity() * 4
            + self.serves_off.capacity() * 4
            + self.serves_pool.capacity() * 4
            + self.roots.capacity() * 4
    }

    /// Reconstructs `I_v` as a `BitSet` by walking the subtree — for
    /// tests and diagnostics only (O(subtree), allocates a universe-wide
    /// set; the hot paths never need the materialized set).
    pub fn node_advertisers(&self, v: usize) -> BitSet {
        let mut out = BitSet::new(self.advertiser_count);
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            match self.node_children(x) {
                None => {
                    out.insert(x);
                }
                Some((a, b)) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        out
    }

    /// The expected full-sort cost
    /// `Σ_v |I_v| (1 − Π_{q: v ⇝ q} (1 − sr_q))` (Section III-B).
    pub fn expected_cost(&self, search_rates: &[f64]) -> f64 {
        (self.advertiser_count..self.node_count())
            .map(|v| {
                let mut none = 1.0;
                for &q in self.node_serves(v) {
                    none *= 1.0 - search_rates[q as usize];
                }
                self.sizes[v] as f64 * (1.0 - none)
            })
            .sum()
    }

    /// The unshared baseline: an independent merge-sort tree per phrase,
    /// expected cost `Σ_q sr_q · (full merge-sort cost of |I_q|)` where a
    /// balanced tree over `s` leaves costs `Σ_v |I_v| ≈ s·⌈log₂ s⌉`.
    pub fn unshared_expected_cost(interest: &[BitSet], search_rates: &[f64]) -> f64 {
        interest
            .iter()
            .zip(search_rates)
            .map(|(iq, &sr)| sr * balanced_merge_cost(iq.len()) as f64)
            .sum()
    }

    /// [`SortPlan::unshared_expected_cost`] from per-phrase interest
    /// *sizes* — the sparse-path equivalent (the cost only depends on
    /// `|I_q|`).
    pub fn unshared_expected_cost_sizes(sizes: &[usize], search_rates: &[f64]) -> f64 {
        sizes
            .iter()
            .zip(search_rates)
            .map(|(&s, &sr)| sr * balanced_merge_cost(s) as f64)
            .sum()
    }

    /// Instantiates the runtime network for this plan given each
    /// advertiser's bid. Returns the network plus per-phrase root ids in
    /// the network's node space.
    pub fn instantiate(&self, bids: &[Money]) -> (MergeNetwork, Vec<usize>) {
        assert_eq!(bids.len(), self.advertiser_count, "one bid per advertiser");
        let mut net = MergeNetwork::new();
        let mut net_id = Vec::with_capacity(self.node_count());
        #[allow(clippy::needless_range_loop)] // idx spans the node arena; bids only covers leaves
        for idx in 0..self.node_count() {
            match self.node_children(idx) {
                None => {
                    let adv = AdvertiserId::from_index(idx);
                    net_id.push(net.leaf(adv, bids[idx]));
                }
                Some((a, b)) => {
                    net_id.push(net.merge(net_id[a], net_id[b]));
                }
            }
        }
        let roots = (0..self.phrase_count())
            .map(|q| {
                let r = self.root(q);
                if r == usize::MAX {
                    usize::MAX
                } else {
                    net_id[r]
                }
            })
            .collect();
        (net, roots)
    }

    /// Per phrase, the marginal expected full-sort cost of serving the
    /// phrase through this shared schedule: the difference
    /// [`SortPlan::expected_cost`] drops by when `sr_q` is set to zero,
    /// i.e. `Σ_{v: v serves q} |I_v| · sr_q · Π_{p ∈ Q_v, p ≠ q} (1 − sr_p)`.
    /// Work on a node some *other* occurring phrase would pay for anyway
    /// is attributed to nobody, so these are per-phrase lower bounds that
    /// sum to at most the total expected cost. The adaptive hybrid router
    /// compares them against the Section II-D plan marginals to seed
    /// per-phrase routes.
    pub fn phrase_marginal_costs(&self, search_rates: &[f64]) -> Vec<f64> {
        let m = self.phrase_count();
        let mut marginals = vec![0.0; m];
        let mut prefix: Vec<f64> = Vec::new();
        for v in self.advertiser_count..self.node_count() {
            let qs = self.node_serves(v);
            // prefix[i] = Π_{j<i} (1 − sr_{qs[j]}); suffix runs the
            // mirror product so each phrase gets Π over the others.
            prefix.clear();
            let mut acc = 1.0;
            for &q in qs {
                prefix.push(acc);
                acc *= 1.0 - search_rates[q as usize];
            }
            let size = self.sizes[v] as f64;
            let mut suffix = 1.0;
            for i in (0..qs.len()).rev() {
                let q = qs[i] as usize;
                marginals[q] += size * search_rates[q] * prefix[i] * suffix;
                suffix *= 1.0 - search_rates[q];
            }
        }
        marginals
    }

    /// Stable-partitions the internal nodes so that every node serving at
    /// least one phrase in `hot` precedes all internal nodes serving
    /// none. Leaves stay at `0..advertiser_count`, and within each class
    /// the original order is kept, which preserves the children-before-
    /// parent invariant [`SortPlan::instantiate`] relies on: a hot node's
    /// children are hot (a parent's serving set is a subset of each
    /// child's), and a cold node's hot children only move *earlier*.
    ///
    /// The adaptive hybrid resolver compiles its network over *all*
    /// phrases but initially activates only the sort-routed subset; this
    /// permutation packs that subset's cones into a contiguous arena
    /// prefix — the same layout a network compiled over just the subset
    /// would have — so the idle cones cost no locality, only memory.
    pub fn cluster_hot_phrases(&mut self, hot: &[bool]) {
        let n = self.advertiser_count;
        let total = self.node_count();
        let is_hot =
            |plan: &SortPlan, v: usize| plan.node_serves(v).iter().any(|&q| hot[q as usize]);
        let mut new_of_old: Vec<u32> = (0..total as u32).collect();
        let mut next = n as u32;
        for pass_hot in [true, false] {
            for (idx, slot) in new_of_old.iter_mut().enumerate().skip(n) {
                if is_hot(self, idx) == pass_hot {
                    *slot = next;
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next as usize, total);
        let mut children = vec![[NO_NODE; 2]; total];
        let mut sizes = vec![0u32; total];
        let mut serves_off = vec![0u32; total + 1];
        let mut serves_pool = vec![0u32; self.serves_pool.len()];
        // Two passes over the old arena: sizes/lengths first so the new
        // CSR offsets are known, then the payloads.
        for (old, &new) in new_of_old.iter().enumerate() {
            let new = new as usize;
            sizes[new] = self.sizes[old];
            serves_off[new + 1] = self.node_serves(old).len() as u32;
            children[new] = match self.node_children(old) {
                None => [NO_NODE; 2],
                Some((a, b)) => [new_of_old[a], new_of_old[b]],
            };
        }
        for i in 0..total {
            serves_off[i + 1] += serves_off[i];
        }
        for (old, &new) in new_of_old.iter().enumerate() {
            let dst = serves_off[new as usize] as usize;
            let src = self.node_serves(old);
            serves_pool[dst..dst + src.len()].copy_from_slice(src);
        }
        for root in &mut self.roots {
            if *root != NO_NODE {
                *root = new_of_old[*root as usize];
            }
        }
        self.children = children;
        self.sizes = sizes;
        self.serves_off = serves_off;
        self.serves_pool = serves_pool;
    }

    /// Per leaf (advertiser index), the ids of every internal node whose
    /// advertiser set contains it — the leaf's *cone*, i.e. exactly the
    /// operators a bid change at that leaf invalidates. Computed once per
    /// plan (O(Σ_v |I_v|), the same quantity the Section III-B cost model
    /// bounds) and handed to `MergeNetwork::refresh`, which is then
    /// O(dirty cones) instead of O(network). Returned as one CSR pool —
    /// two allocations total instead of one `Vec` per advertiser.
    ///
    /// Node ids double as network node ids: [`SortPlan::instantiate`]
    /// pushes one network node per plan node in order.
    pub fn leaf_cones(&self) -> LeafCones {
        let n = self.advertiser_count;
        let total = self.node_count();
        // A node can have several parents (adoption for different phrase
        // sets), so subtrees are DAG cones; stamp visited nodes per
        // enumeration so diamonds contribute each leaf once.
        let mut stamp = vec![0u32; total];
        let mut epoch = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        let mut counts = vec![0u32; n];
        let each_leaf = |plan: &SortPlan,
                         v: usize,
                         stamp: &mut [u32],
                         epoch: &mut u32,
                         stack: &mut Vec<u32>,
                         f: &mut dyn FnMut(usize)| {
            *epoch += 1;
            stack.push(v as u32);
            stamp[v] = *epoch;
            while let Some(x) = stack.pop() {
                let x = x as usize;
                match plan.node_children(x) {
                    None => f(x),
                    Some((a, b)) => {
                        if stamp[a] != *epoch {
                            stamp[a] = *epoch;
                            stack.push(a as u32);
                        }
                        if stamp[b] != *epoch {
                            stamp[b] = *epoch;
                            stack.push(b as u32);
                        }
                    }
                }
            }
        };
        for v in n..total {
            each_leaf(self, v, &mut stamp, &mut epoch, &mut stack, &mut |leaf| {
                counts[leaf] += 1;
            });
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let mut pool = vec![0u32; offsets[n] as usize];
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        // Ascending internal-node order keeps each cone sorted ascending,
        // exactly the order the per-leaf `Vec` layout produced.
        for v in n..total {
            each_leaf(self, v, &mut stamp, &mut epoch, &mut stack, &mut |leaf| {
                pool[fill[leaf] as usize] = v as u32;
                fill[leaf] += 1;
            });
        }
        LeafCones::from_csr(offsets, pool)
    }
}

/// Total operator cost of a balanced merge-sort over `s` leaves:
/// `Σ_v |I_v|` over internal nodes.
fn balanced_merge_cost(s: usize) -> usize {
    if s <= 1 {
        return 0;
    }
    let half = s / 2;
    balanced_merge_cost(half) + balanced_merge_cost(s - half) + s
}

/// The expected number of queries in `Q_w` occurring beyond the first —
/// the paper's savings weight
/// `Σ_i [ (Π_{j<i} (1 − sr_j)) · sr_i · (Σ_{j>i} sr_j) ]`.
pub fn expected_beyond_first(rates: &[f64]) -> f64 {
    let n = rates.len();
    let mut total = 0.0;
    let mut none_before = 1.0;
    for i in 0..n {
        let after: f64 = rates[i + 1..].iter().sum();
        total += none_before * rates[i] * after;
        none_before *= 1.0 - rates[i];
    }
    total
}

/// Working node of the builders: phrase sets as ascending id lists,
/// advertiser sets reduced to their cardinality (the pair search tracks
/// disjointness itself, see [`merge_by_savings`]).
struct WorkNode {
    serves: Vec<u32>,
    remaining: Vec<u32>,
    size: u32,
    children: Option<(u32, u32)>,
}

/// `a ∩ b` of two ascending id lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Removes the (sorted) ids in `qw` from the ascending list `v` in place.
fn remove_sorted(v: &mut Vec<u32>, qw: &[u32]) {
    let mut j = 0;
    v.retain(|&x| {
        while j < qw.len() && qw[j] < x {
            j += 1;
        }
        !(j < qw.len() && qw[j] == x)
    });
}

/// Dense interest sets as ascending advertiser-index lists.
fn sparse_interest(advertiser_count: usize, interest: &[BitSet]) -> Vec<Vec<u32>> {
    interest
        .iter()
        .enumerate()
        .map(|(q, iq)| {
            assert_eq!(
                iq.capacity(),
                advertiser_count,
                "interest set {q} universe mismatch"
            );
            iq.iter().map(|i| i as u32).collect()
        })
        .collect()
}

/// The per-advertiser leaf nodes (node index = advertiser index), their
/// ascending signatures transposed from the per-phrase lists.
fn leaf_nodes(advertiser_count: usize, interest: &[Vec<u32>]) -> Vec<WorkNode> {
    let mut serves_of: Vec<Vec<u32>> = vec![Vec::new(); advertiser_count];
    for (q, iq) in interest.iter().enumerate() {
        for &i in iq {
            serves_of[i as usize].push(q as u32);
        }
    }
    serves_of
        .into_iter()
        .map(|serves| WorkNode {
            remaining: serves.clone(),
            serves,
            size: 1,
            children: None,
        })
        .collect()
}

/// Merges `u` and `v` into a new node adopting them for the phrases in
/// `remaining(u) ∩ remaining(v)`. The caller is responsible for only
/// merging advertiser-disjoint nodes (the paper's `I_u ∩ I_v = ∅`
/// precondition), which makes `|I_w|` the sum of the children's sizes.
fn adopt(nodes: &mut Vec<WorkNode>, u: usize, v: usize) -> usize {
    let qw = intersect_sorted(&nodes[u].remaining, &nodes[v].remaining);
    debug_assert!(!qw.is_empty(), "merge without a common phrase");
    remove_sorted(&mut nodes[u].remaining, &qw);
    remove_sorted(&mut nodes[v].remaining, &qw);
    let size = nodes[u].size + nodes[v].size;
    let idx = nodes.len();
    nodes.push(WorkNode {
        serves: qw.clone(),
        remaining: qw,
        size,
        children: Some((u as u32, v as u32)),
    });
    idx
}

/// The paper's greedy savings rule: repeatedly merge the pair of nodes —
/// `frontier` members and their merge results — with the largest expected
/// savings `|I_w| · E[beyond-first occurrences of Q_w]`, until no pair
/// saves anything. Ties keep the first pair in frontier order.
///
/// The frontier nodes must be pairwise advertiser-disjoint; every node
/// the search creates is then a union of whole frontier nodes, so
/// `I_u ∩ I_v = ∅` is exactly disjointness of the pair's frontier-id
/// sets — small BitSets over the frontier instead of universe-sized
/// advertiser sets. `equal_sizes` switches the paper's `|I_u| = |I_v|`
/// constraint on.
fn merge_by_savings(
    nodes: &mut Vec<WorkNode>,
    mut frontier: Vec<usize>,
    search_rates: &[f64],
    equal_sizes: bool,
) {
    // `origins[p]` is the set of original frontier positions under
    // `frontier[p]`; the pair search works in frontier positions.
    let universe = frontier.len();
    let mut origins: Vec<BitSet> = (0..universe)
        .map(|g| BitSet::singleton(universe, g))
        .collect();
    loop {
        let active: Vec<usize> = (0..frontier.len())
            .filter(|&p| !nodes[frontier[p]].remaining.is_empty())
            .collect();
        let mut best: Option<(f64, usize, usize)> = None;
        for (ai, &pu) in active.iter().enumerate() {
            let u = &nodes[frontier[pu]];
            for &pv in &active[ai + 1..] {
                let v = &nodes[frontier[pv]];
                if equal_sizes && u.size != v.size {
                    continue;
                }
                if !origins[pu].is_disjoint(&origins[pv]) {
                    continue;
                }
                let qw = intersect_sorted(&u.remaining, &v.remaining);
                if qw.is_empty() {
                    continue;
                }
                let rates: Vec<f64> = qw.iter().map(|&q| search_rates[q as usize]).collect();
                let size = (u.size + v.size) as usize;
                let savings = size as f64 * expected_beyond_first(&rates);
                if savings > 0.0 && best.is_none_or(|(s, _, _)| savings > s) {
                    best = Some((savings, pu, pv));
                }
            }
        }
        let Some((_, pu, pv)) = best else { break };
        let w = adopt(nodes, frontier[pu], frontier[pv]);
        origins.push(origins[pu].union(&origins[pv]));
        frontier.push(w);
    }
}

/// Folds each phrase's surviving roots, the two smallest by `(|I_v|, v)`
/// first, until one root per phrase remains (these final merges are the
/// unshared tail every plan needs); returns the per-phrase roots, empty
/// phrases getting `usize::MAX`. The per-phrase owner lists are
/// maintained incrementally — each adopt replaces the two children with
/// the new parent in *every* phrase list the adoption covered.
fn complete_per_phrase(nodes: &mut Vec<WorkNode>, m: usize) -> Vec<usize> {
    let mut owners: Vec<Vec<u32>> = vec![Vec::new(); m];
    for (v, node) in nodes.iter().enumerate() {
        for &q in &node.remaining {
            owners[q as usize].push(v as u32);
        }
    }
    let mut roots = Vec::with_capacity(m);
    for q in 0..m {
        loop {
            match owners[q].len() {
                0 => {
                    roots.push(usize::MAX);
                    break;
                }
                1 => {
                    roots.push(owners[q][0] as usize);
                    break;
                }
                _ => {
                    owners[q].sort_by_key(|&v| (nodes[v as usize].size, v));
                    let (a, b) = (owners[q][0], owners[q][1]);
                    let w = adopt(nodes, a as usize, b as usize) as u32;
                    let qw = nodes[w as usize].serves.clone();
                    for &p in &qw {
                        let list = &mut owners[p as usize];
                        list.retain(|&x| x != a && x != b);
                        list.push(w);
                    }
                }
            }
        }
    }
    roots
}

/// Converts finished working nodes into the arena form.
fn into_arena(advertiser_count: usize, nodes: Vec<WorkNode>, roots: Vec<usize>) -> SortPlan {
    let total = nodes.len();
    let mut children = Vec::with_capacity(total);
    let mut sizes = Vec::with_capacity(total);
    let mut serves_off = Vec::with_capacity(total + 1);
    let pool_len: usize = nodes.iter().map(|n| n.serves.len()).sum();
    let mut serves_pool = Vec::with_capacity(pool_len);
    serves_off.push(0u32);
    for node in nodes {
        children.push(match node.children {
            None => [NO_NODE; 2],
            Some((a, b)) => [a, b],
        });
        sizes.push(node.size);
        serves_pool.extend_from_slice(&node.serves);
        serves_off.push(serves_pool.len() as u32);
    }
    SortPlan {
        advertiser_count,
        children,
        sizes,
        serves_off,
        serves_pool,
        roots: roots
            .into_iter()
            .map(|r| if r == usize::MAX { NO_NODE } else { r as u32 })
            .collect(),
    }
}

/// The Section III-C greedy planner, considering every node pair at every
/// step (the paper's formulation, `|I_u| = |I_v|` included). Quadratic in
/// the node count per step — intended for up to a few hundred
/// advertisers; use [`build_shared_sort_plan_bucketed`] at scale.
///
/// `interest[q]` is `I_q` over an advertiser universe of size `n`;
/// `search_rates[q]` is `sr_q`.
pub fn build_shared_sort_plan(
    advertiser_count: usize,
    interest: &[BitSet],
    search_rates: &[f64],
) -> SortPlan {
    let m = interest.len();
    assert_eq!(search_rates.len(), m, "one rate per phrase");
    let interest = sparse_interest(advertiser_count, interest);
    let mut nodes = leaf_nodes(advertiser_count, &interest);
    // Every advertiser is its own frontier node.
    let leaves = (0..advertiser_count).collect();
    merge_by_savings(&mut nodes, leaves, search_rates, true);
    let roots = complete_per_phrase(&mut nodes, m);
    into_arena(advertiser_count, nodes, roots)
}

/// A scalable variant of the Section III-C planner, over *sparse*
/// interest lists (`interest[q]` = ascending advertiser indices in
/// `I_q`). Never materializes a universe-sized set — working memory is
/// O(n + Σ|I_q|) — so it is the only builder that works at 100k–1M
/// advertisers.
///
/// Advertisers with the same phrase signature are interchangeable, so the
/// quadratic pair search over leaves is wasted work. This variant:
///
/// 1. groups advertisers into *fragments* by signature (exactly the
///    Section II-D stage-1 idea, applied to sorting),
/// 2. merge-sorts each fragment with a balanced tree (every internal node
///    serves the whole signature; for a fixed leaf set a balanced tree
///    minimizes `Σ_v |I_v|`),
/// 3. runs the paper's greedy savings rule across the fragment roots and
///    their merge results (a small node set), with the equal-size
///    constraint relaxed as in the completion phase,
/// 4. completes each phrase as usual.
pub fn build_shared_sort_plan_sparse(
    advertiser_count: usize,
    interest: &[Vec<u32>],
    search_rates: &[f64],
) -> SortPlan {
    let m = interest.len();
    assert_eq!(search_rates.len(), m, "one rate per phrase");

    let mut nodes = leaf_nodes(advertiser_count, interest);

    // Stage 1: fragments by signature (ignoring advertisers in no
    // phrase), ordered by first member.
    let mut groups: std::collections::HashMap<Vec<u32>, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        if !node.serves.is_empty() {
            groups.entry(node.serves.clone()).or_default().push(i);
        }
    }
    let mut group_list: Vec<(Vec<u32>, Vec<usize>)> = groups.into_iter().collect();
    group_list.sort_by_key(|(_, members)| members[0]);

    // Stage 2: balanced tree per fragment. Fragments partition the
    // advertisers and each member is merged exactly once per level, so
    // every adopt here is advertiser-disjoint by construction.
    let mut frontier: Vec<usize> = Vec::new();
    for (_, members) in &group_list {
        let mut level = members.clone();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(adopt(&mut nodes, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        frontier.push(level[0]);
    }

    // Stage 3: the savings rule across the (small) set of fragment roots.
    merge_by_savings(&mut nodes, frontier, search_rates, false);

    let roots = complete_per_phrase(&mut nodes, m);
    into_arena(advertiser_count, nodes, roots)
}

/// [`build_shared_sort_plan_sparse`] over dense `BitSet` interest sets —
/// the historical signature, kept for callers that already hold dense
/// sets (tests, ablations at small n).
pub fn build_shared_sort_plan_bucketed(
    advertiser_count: usize,
    interest: &[BitSet],
    search_rates: &[f64],
) -> SortPlan {
    let sparse = sparse_interest(advertiser_count, interest);
    build_shared_sort_plan_sparse(advertiser_count, &sparse, search_rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bs(n: usize, elems: &[usize]) -> BitSet {
        BitSet::from_elements(n, elems.iter().copied())
    }

    fn plan_roots_sort_correctly(plan: &SortPlan, interest: &[BitSet], bids: &[Money]) {
        let (mut net, roots) = plan.instantiate(bids);
        for (q, iq) in interest.iter().enumerate() {
            if iq.is_empty() {
                continue;
            }
            let got: Vec<u32> = {
                let mut out = Vec::new();
                let mut i = 0;
                while let Some(item) = net.get(roots[q], i) {
                    out.push(item.advertiser.0);
                    i += 1;
                }
                out
            };
            let mut want: Vec<usize> = iq.iter().collect();
            want.sort_by(|&a, &b| bids[b].cmp(&bids[a]).then(a.cmp(&b)));
            let want: Vec<u32> = want.iter().map(|&a| a as u32).collect();
            assert_eq!(got, want, "phrase {q} stream mismatch");
        }
    }

    /// Internal node indices of `plan`, ascending.
    fn internal_nodes(plan: &SortPlan) -> Vec<usize> {
        (plan.advertiser_count()..plan.node_count()).collect()
    }

    #[test]
    fn expected_beyond_first_formula() {
        // One query: nothing beyond the first. Two certain queries: 1.
        assert_eq!(expected_beyond_first(&[1.0]), 0.0);
        assert_eq!(expected_beyond_first(&[1.0, 1.0]), 1.0);
        assert_eq!(expected_beyond_first(&[]), 0.0);
        // Two queries p each: E[beyond first] = p^2 (both occur).
        let p = 0.3;
        let got = expected_beyond_first(&[p, p]);
        assert!((got - p * p).abs() < 1e-12, "{got}");
    }

    #[test]
    fn shared_block_is_built_once() {
        // Two phrases sharing advertisers {0,1}; exclusive {2} and {3}.
        let interest = vec![bs(4, &[0, 1, 2]), bs(4, &[0, 1, 3])];
        let plan = build_shared_sort_plan(4, &interest, &[0.9, 0.9]);
        // The shared pair {0,1} should be a single node serving both.
        let shared = internal_nodes(&plan)
            .into_iter()
            .find(|&v| plan.node_advertisers(v) == bs(4, &[0, 1]))
            .expect("shared node exists");
        assert_eq!(plan.node_serves(shared).len(), 2, "serves both phrases");
        let bids: Vec<Money> = [4u64, 3, 2, 1]
            .iter()
            .map(|&u| Money::from_units(u))
            .collect();
        plan_roots_sort_correctly(&plan, &interest, &bids);
    }

    #[test]
    fn disjoint_phrases_share_nothing() {
        let interest = vec![bs(4, &[0, 1]), bs(4, &[2, 3])];
        let plan = build_shared_sort_plan(4, &interest, &[0.5, 0.5]);
        for v in internal_nodes(&plan) {
            assert_eq!(plan.node_serves(v).len(), 1, "no operator can serve both");
        }
        let bids: Vec<Money> = [1u64, 2, 3, 4]
            .iter()
            .map(|&u| Money::from_units(u))
            .collect();
        plan_roots_sort_correctly(&plan, &interest, &bids);
    }

    #[test]
    fn empty_phrase_gets_sentinel_root() {
        let interest = vec![bs(2, &[0, 1]), BitSet::new(2)];
        let plan = build_shared_sort_plan(2, &interest, &[1.0, 0.5]);
        assert_eq!(plan.root(1), usize::MAX);
        assert_ne!(plan.root(0), usize::MAX);
    }

    #[test]
    fn expected_cost_drops_with_sharing() {
        // Heavy overlap: shared plan must beat independent sorts.
        let interest = vec![
            bs(8, &[0, 1, 2, 3, 4, 5]),
            bs(8, &[0, 1, 2, 3, 6, 7]),
            bs(8, &[0, 1, 2, 3, 4, 6]),
        ];
        let rates = [0.9, 0.9, 0.9];
        let plan = build_shared_sort_plan(8, &interest, &rates);
        let shared = plan.expected_cost(&rates);
        let unshared = SortPlan::unshared_expected_cost(&interest, &rates);
        assert!(
            shared < unshared,
            "shared {shared} should beat unshared {unshared}"
        );
    }

    #[test]
    fn phrase_marginals_match_rate_zeroing() {
        // The closed-form marginal must equal the expected-cost drop from
        // zeroing that phrase's rate, phrase by phrase.
        let interest = vec![
            bs(8, &[0, 1, 2, 3, 4, 5]),
            bs(8, &[0, 1, 2, 3, 6, 7]),
            bs(8, &[0, 1, 2, 3, 4, 6]),
            BitSet::new(8),
        ];
        let rates = [0.9, 0.4, 1.0, 0.0];
        let plan = build_shared_sort_plan_bucketed(8, &interest, &rates);
        let marginals = plan.phrase_marginal_costs(&rates);
        let with_all = plan.expected_cost(&rates);
        for q in 0..rates.len() {
            let mut zeroed = rates;
            zeroed[q] = 0.0;
            let drop = with_all - plan.expected_cost(&zeroed);
            assert!(
                (marginals[q] - drop).abs() < 1e-9,
                "phrase {q}: marginal {} vs rescan drop {drop}",
                marginals[q]
            );
        }
        assert_eq!(marginals[3], 0.0, "empty phrase costs nothing");
    }

    #[test]
    fn singleton_phrase_needs_no_merges() {
        let interest = vec![bs(3, &[1])];
        let plan = build_shared_sort_plan(3, &interest, &[1.0]);
        assert_eq!(plan.root(0), 1, "the leaf itself is the root");
        assert_eq!(plan.expected_cost(&[1.0]), 0.0);
    }

    #[test]
    fn bucketed_planner_matches_structure_and_scales() {
        // Bucketed and exhaustive planners may produce different trees,
        // but both sort correctly and share the fragment blocks.
        let interest = vec![bs(6, &[0, 1, 2, 3]), bs(6, &[0, 1, 4, 5])];
        let rates = [0.9, 0.9];
        let bucketed = build_shared_sort_plan_bucketed(6, &interest, &rates);
        let shared = internal_nodes(&bucketed)
            .into_iter()
            .find(|&v| bucketed.node_advertisers(v) == bs(6, &[0, 1]))
            .expect("shared fragment node exists");
        assert_eq!(bucketed.node_serves(shared).len(), 2);
        let bids: Vec<Money> = (0..6).map(|i| Money::from_units(10 - i as u64)).collect();
        plan_roots_sort_correctly(&bucketed, &interest, &bids);
    }

    #[test]
    fn bucketed_planner_handles_thousands_of_advertisers() {
        use std::time::Instant;
        let n = 5000;
        let m = 12;
        // Topic-like signatures: advertiser i is interested in the
        // phrases with q % 4 == i % 4, plus generalists (i % 5 == 0) in
        // everything.
        let interest: Vec<BitSet> = (0..m)
            .map(|q| BitSet::from_elements(n, (0..n).filter(|i| i % 5 == 0 || q % 4 == i % 4)))
            .collect();
        let rates = vec![0.5; m];
        let started = Instant::now();
        let plan = build_shared_sort_plan_bucketed(n, &interest, &rates);
        assert!(
            started.elapsed().as_secs_f64() < 10.0,
            "bucketed planner must scale"
        );
        for (q, iq) in interest.iter().enumerate() {
            assert_eq!(&plan.node_advertisers(plan.root(q)), iq);
            assert_eq!(plan.node_size(plan.root(q)), iq.len());
        }
    }

    #[test]
    fn sparse_and_bucketed_builders_agree_exactly() {
        // The sparse builder is the bucketed builder; the dense entry
        // point is just an adapter. Verify arena equality on a workload
        // with fragment structure, stage-3 merges, and completion tails.
        let n = 64;
        let m = 7;
        let interest: Vec<BitSet> = (0..m)
            .map(|q| BitSet::from_elements(n, (0..n).filter(|i| (i + q) % 3 == 0 || i % 7 == q)))
            .collect();
        let rates: Vec<f64> = (0..m).map(|q| 0.15 + 0.1 * q as f64).collect();
        let dense = build_shared_sort_plan_bucketed(n, &interest, &rates);
        let sparse_interest: Vec<Vec<u32>> = interest
            .iter()
            .map(|iq| iq.iter().map(|i| i as u32).collect())
            .collect();
        let sparse = build_shared_sort_plan_sparse(n, &sparse_interest, &rates);
        assert_eq!(dense.node_count(), sparse.node_count());
        for v in 0..dense.node_count() {
            assert_eq!(dense.node_children(v), sparse.node_children(v), "node {v}");
            assert_eq!(dense.node_size(v), sparse.node_size(v), "node {v}");
            assert_eq!(dense.node_serves(v), sparse.node_serves(v), "node {v}");
        }
        for q in 0..m {
            assert_eq!(dense.root(q), sparse.root(q), "phrase {q}");
        }
    }

    #[test]
    fn cluster_hot_phrases_preserves_streams_and_prefixes() {
        let interest = vec![
            bs(8, &[0, 1, 2, 3, 4, 5]),
            bs(8, &[0, 1, 2, 3, 6, 7]),
            bs(8, &[0, 1, 2, 3, 4, 6]),
        ];
        let rates = [0.9, 0.9, 0.9];
        let mut plan = build_shared_sort_plan_bucketed(8, &interest, &rates);
        let cost_before = plan.expected_cost(&rates);
        let hot = [false, true, false];
        plan.cluster_hot_phrases(&hot);
        // Leaves untouched; children always precede parents.
        for idx in 0..plan.node_count() {
            match plan.node_children(idx) {
                None => assert!(idx < plan.advertiser_count(), "leaf {idx} out of place"),
                Some((a, b)) => assert!(a < idx && b < idx, "child after parent at {idx}"),
            }
        }
        // Hot internals form a contiguous prefix of the internal range.
        let internal_hot: Vec<bool> = internal_nodes(&plan)
            .into_iter()
            .map(|v| plan.node_serves(v).iter().any(|&q| hot[q as usize]))
            .collect();
        let first_cold = internal_hot.iter().position(|&h| !h).unwrap_or(0);
        assert!(
            internal_hot[first_cold..].iter().all(|&h| !h),
            "hot internals are not a prefix: {internal_hot:?}"
        );
        // Semantics unchanged: same expected cost, same sorted streams.
        assert_eq!(plan.expected_cost(&rates), cost_before);
        let bids: Vec<Money> = (0..8).map(|i| Money::from_units(20 - i as u64)).collect();
        plan_roots_sort_correctly(&plan, &interest, &bids);
    }

    #[test]
    fn bucketed_expected_cost_beats_unshared() {
        let interest = vec![
            bs(8, &[0, 1, 2, 3, 4, 5]),
            bs(8, &[0, 1, 2, 3, 6, 7]),
            bs(8, &[0, 1, 2, 3, 4, 6]),
        ];
        let rates = [0.9, 0.9, 0.9];
        let plan = build_shared_sort_plan_bucketed(8, &interest, &rates);
        assert!(plan.expected_cost(&rates) < SortPlan::unshared_expected_cost(&interest, &rates));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The bucketed planner's streams also match independent sorts.
        #[test]
        fn bucketed_streams_match_independent_sorts(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..8, 0..8), 1..5),
            bid_raw in proptest::collection::vec(0u64..100, 8),
            rates in proptest::collection::vec(0.1f64..=1.0, 5),
        ) {
            let interest: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(8, s.iter().copied()))
                .collect();
            let m = interest.len();
            let plan = build_shared_sort_plan_bucketed(8, &interest, &rates[..m]);
            let bids: Vec<Money> = bid_raw.iter().map(|&b| Money::from_micros(b)).collect();
            plan_roots_sort_correctly(&plan, &interest, &bids);
        }

        /// Every phrase's stream equals an independent sort of `I_q`, for
        /// random interests and bids.
        #[test]
        fn plan_streams_match_independent_sorts(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..8, 0..8), 1..5),
            bid_raw in proptest::collection::vec(0u64..100, 8),
            rates in proptest::collection::vec(0.1f64..=1.0, 5),
        ) {
            let interest: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(8, s.iter().copied()))
                .collect();
            let m = interest.len();
            let plan = build_shared_sort_plan(8, &interest, &rates[..m]);
            let bids: Vec<Money> = bid_raw.iter().map(|&b| Money::from_micros(b)).collect();
            plan_roots_sort_correctly(&plan, &interest, &bids);
            // Tree sanity: every phrase root's advertiser set is I_q.
            for (q, iq) in interest.iter().enumerate() {
                if iq.is_empty() {
                    prop_assert_eq!(plan.root(q), usize::MAX);
                } else {
                    prop_assert_eq!(&plan.node_advertisers(plan.root(q)), iq);
                }
            }
        }
    }
}
