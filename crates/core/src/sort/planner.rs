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
//! # Leaves are fragments
//!
//! A plan's leaves are *runs*: advertiser sets the network keeps as one
//! lazy heap each (`MergeNetwork::run`). The scalable builder
//! [`build_shared_sort_plan_sparse`] takes its runs from Section II-D's
//! stage 1 — the aggregation planner's own grouping,
//! [`group_by_signature`] — because "we can safely aggregate elements
//! within a fragment since no sharing occurs across fragments": every
//! operator inside a fragment would serve the fragment's whole
//! signature, so the savings search starts at the fragments. The
//! exhaustive [`build_shared_sort_plan`] keeps the paper's
//! one-advertiser leaves. Advertisers in no phrase get no run.
//!
//! The Section III-B model charges a merge node `|I_v|`. A run of `f`
//! advertisers is charged `pairwise_tree_cost(f)`, the `Σ |I_v|` of
//! the pairwise merge tree that would sort it, at the probability that
//! its signature occurs — so a plan's expected cost is the one it would
//! have with that tree built inside every fragment.
//!
//! # Memory layout
//!
//! The finished [`SortPlan`] is an index-based arena: per-node `u32`
//! child pairs, subtree sizes, and two shared CSR pools — served phrase
//! ids per node, member advertisers per run — so there are no per-node
//! heap allocations and nothing whose footprint grows with the advertiser
//! *universe* rather than with actual interest. The builders' working
//! nodes are sparse for the same reason — phrase sets as ascending id
//! lists, advertiser sets as a cardinality — so
//! [`build_shared_sort_plan_sparse`] never materializes a universe-sized
//! set. Both builders are the same code around one pair search: the
//! exhaustive one searches over one-advertiser runs under the paper's
//! equal-size constraint, the scalable one over fragment runs without it.

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;
use ssa_setcover::BitSet;

use super::{LeafCones, MergeNetwork, SortItem};
use crate::plan::fragments::{group_by_signature, SignatureGroups};

/// Sentinel child index marking a leaf (and the `u32` no-root marker).
const NO_NODE: u32 = u32::MAX;

/// A shared merge-sort plan across phrases, stored as an index arena.
///
/// Nodes `0..run_count` are the leaf runs in builder order; internal
/// nodes follow, children always before parents.
#[derive(Debug, Clone)]
pub struct SortPlan {
    advertiser_count: usize,
    /// CSR offsets into `run_members`, length `run_count + 1`.
    run_off: Vec<u32>,
    /// Concatenated ascending advertiser indices of each run.
    run_members: Vec<u32>,
    /// Per node, the two children (`[NO_NODE; 2]` for runs).
    children: Vec<[u32; 2]>,
    /// Per node, `|I_v|` — the number of advertisers below it.
    sizes: Vec<u32>,
    /// CSR offsets into `serves_pool`, length `node_count + 1`.
    serves_off: Vec<u32>,
    /// Concatenated ascending phrase ids each node serves (`Q_v` at
    /// creation time for internal nodes; the full signature for runs).
    serves_pool: Vec<u32>,
    /// Per phrase, the root node (`NO_NODE` for empty phrases).
    roots: Vec<u32>,
}

impl SortPlan {
    /// Number of leaf runs (nodes `0..run_count`).
    #[inline]
    pub fn run_count(&self) -> usize {
        self.run_off.len() - 1
    }

    /// The ascending advertiser indices of run `r`.
    #[inline]
    pub fn run_members(&self, r: usize) -> &[u32] {
        &self.run_members[self.run_off[r] as usize..self.run_off[r + 1] as usize]
    }

    /// Total node count (runs + internal).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.children.len()
    }

    /// Number of phrases the plan was built over.
    #[inline]
    pub fn phrase_count(&self) -> usize {
        self.roots.len()
    }

    /// The children of `v`, or `None` for a run.
    #[inline]
    pub fn node_children(&self, v: usize) -> Option<(usize, usize)> {
        let [a, b] = self.children[v];
        if a == NO_NODE {
            None
        } else {
            Some((a as usize, b as usize))
        }
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
        (self.run_off.capacity() + self.run_members.capacity()) * 4
            + self.children.capacity() * std::mem::size_of::<[u32; 2]>()
            + self.sizes.capacity() * 4
            + self.serves_off.capacity() * 4
            + self.serves_pool.capacity() * 4
            + self.roots.capacity() * 4
    }

    /// The Section III-B weight of node `v`: `|I_v|` for a merge node,
    /// the cost of the pairwise merge tree over its members for a run.
    fn weight(&self, v: usize) -> f64 {
        if v < self.run_count() {
            pairwise_tree_cost(self.node_size(v)) as f64
        } else {
            self.node_size(v) as f64
        }
    }

    /// The expected full-sort cost
    /// `Σ_v |I_v| (1 − Π_{q: v ⇝ q} (1 − sr_q))` (Section III-B), each run
    /// weighted as its pairwise merge tree.
    pub fn expected_cost(&self, search_rates: &[f64]) -> f64 {
        (0..self.node_count())
            .map(|v| {
                let mut none = 1.0;
                for &q in self.node_serves(v) {
                    none *= 1.0 - search_rates[q as usize];
                }
                self.weight(v) * (1.0 - none)
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

    /// Instantiates the runtime network for this plan given each
    /// advertiser's bid: one network node per plan node, in order, so
    /// plan node ids are network node ids. Returns the network plus the
    /// per-phrase roots.
    pub fn instantiate(&self, bids: &[Money]) -> (MergeNetwork, Vec<usize>) {
        assert_eq!(bids.len(), self.advertiser_count, "one bid per advertiser");
        let mut net = MergeNetwork::new();
        for v in 0..self.node_count() {
            match self.node_children(v) {
                None => net.run(self.run_members(v).iter().map(|&i| SortItem {
                    bid: bids[i as usize],
                    advertiser: AdvertiserId(i),
                })),
                Some((a, b)) => net.merge(a, b),
            };
        }
        let roots = (0..self.phrase_count()).map(|q| self.root(q)).collect();
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
        for v in 0..self.node_count() {
            let qs = self.node_serves(v);
            // prefix[i] = Π_{j<i} (1 − sr_{qs[j]}); suffix runs the
            // mirror product so each phrase gets Π over the others.
            prefix.clear();
            let mut acc = 1.0;
            for &q in qs {
                prefix.push(acc);
                acc *= 1.0 - search_rates[q as usize];
            }
            let weight = self.weight(v);
            let mut suffix = 1.0;
            for i in (0..qs.len()).rev() {
                let q = qs[i] as usize;
                marginals[q] += weight * search_rates[q] * prefix[i] * suffix;
                suffix *= 1.0 - search_rates[q];
            }
        }
        marginals
    }

    /// Per run, the ascending ids of every internal node with that run
    /// below it — the run's *cone*, i.e. exactly the operators a rebuild
    /// of the run invalidates. Computed once per plan and handed to
    /// `MergeNetwork::refresh`, which is then O(dirty cones) instead of
    /// O(network).
    pub fn leaf_cones(&self) -> LeafCones {
        let runs = self.run_count();
        let mut lists = vec![Vec::new(); runs];
        // A node can have several parents (adoption for different phrase
        // sets), so subtrees are DAG cones; stamp visited nodes per
        // enumeration so diamonds contribute each run once.
        let mut stamp = vec![0u32; self.node_count()];
        let mut stack = Vec::new();
        for v in runs..self.node_count() {
            stack.push(v);
            while let Some(x) = stack.pop() {
                match self.node_children(x) {
                    None => lists[x].push(v as u32),
                    Some((a, b)) => {
                        for child in [a, b] {
                            if stamp[child] != v as u32 + 1 {
                                stamp[child] = v as u32 + 1;
                                stack.push(child);
                            }
                        }
                    }
                }
            }
        }
        LeafCones::from_lists(&lists)
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

/// `Σ_v |I_v|` over the merge operators of the pairwise tree over `f`
/// leaves — adjacent nodes merged level by level, an odd last node
/// carried up — the Section III-B weight of a run of `f`. The nodes at
/// level `j` are the aligned blocks of `2^j` leaves (the last one
/// possibly short), so each level merges all `f` leaves except a last
/// block short enough (at most `2^(j−1)`) to have been carried. Not
/// [`balanced_merge_cost`], which splits in halves: 13 vs 12 at `f = 5`.
fn pairwise_tree_cost(f: usize) -> usize {
    let mut cost = 0;
    let mut half = 1;
    while half < f {
        let last = (f - 1) % (2 * half) + 1;
        cost += if last <= half { f - last } else { f };
        half *= 2;
    }
    cost
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
fn into_arena(
    advertiser_count: usize,
    runs: &[Vec<u32>],
    nodes: Vec<WorkNode>,
    roots: Vec<usize>,
) -> SortPlan {
    let mut run_off = Vec::with_capacity(runs.len() + 1);
    let mut run_members = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    run_off.push(0u32);
    for run in runs {
        run_members.extend_from_slice(run);
        run_off.push(run_members.len() as u32);
    }
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
        run_off,
        run_members,
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

/// The builders' shared body: one leaf per run (in the given order), the
/// savings search over them, then per-phrase completion.
fn build_over_runs(
    advertiser_count: usize,
    runs: SignatureGroups,
    search_rates: &[f64],
    equal_sizes: bool,
) -> SortPlan {
    let mut nodes: Vec<WorkNode> = runs
        .members
        .iter()
        .zip(runs.signatures)
        .map(|(members, serves)| WorkNode {
            remaining: serves.clone(),
            serves,
            size: members.len() as u32,
            children: None,
        })
        .collect();
    let frontier = (0..nodes.len()).collect();
    merge_by_savings(&mut nodes, frontier, search_rates, equal_sizes);
    let roots = complete_per_phrase(&mut nodes, search_rates.len());
    into_arena(advertiser_count, &runs.members, nodes, roots)
}

/// The Section III-C greedy planner, considering every node pair at every
/// step (the paper's formulation, `|I_u| = |I_v|` included) over one
/// run per interested advertiser, in advertiser order. Quadratic in the
/// node count per step — intended for up to a few hundred advertisers;
/// use [`build_shared_sort_plan_bucketed`] at scale.
///
/// `interest[q]` is `I_q` over an advertiser universe of size `n`;
/// `search_rates[q]` is `sr_q`.
pub fn build_shared_sort_plan(
    advertiser_count: usize,
    interest: &[BitSet],
    search_rates: &[f64],
) -> SortPlan {
    assert_eq!(search_rates.len(), interest.len(), "one rate per phrase");
    let fragments = group_by_signature(
        advertiser_count,
        &sparse_interest(advertiser_count, interest),
    );
    let mut leaves: Vec<(u32, usize)> = fragments
        .members
        .iter()
        .enumerate()
        .flat_map(|(f, members)| members.iter().map(move |&i| (i, f)))
        .collect();
    leaves.sort_unstable();
    let runs = SignatureGroups {
        members: leaves.iter().map(|&(i, _)| vec![i]).collect(),
        signatures: leaves
            .iter()
            .map(|&(_, f)| fragments.signatures[f].clone())
            .collect(),
    };
    build_over_runs(advertiser_count, runs, search_rates, true)
}

/// A scalable variant of the Section III-C planner, over *sparse*
/// interest lists (`interest[q]` = ascending advertiser indices in
/// `I_q`). Never materializes a universe-sized set — working memory is
/// O(n + Σ|I_q|) — so it is the only builder that works at 100k–1M
/// advertisers.
///
/// Advertisers with the same phrase signature are interchangeable, so the
/// quadratic pair search over them is wasted work. This variant:
///
/// 1. groups advertisers into *fragments* by signature (Section II-D
///    stage 1, [`group_by_signature`]), each fragment one leaf run;
/// 2. runs the paper's greedy savings rule across the runs and their
///    merge results (a small node set), with the equal-size constraint
///    relaxed as in the completion phase;
/// 3. completes each phrase as usual.
pub fn build_shared_sort_plan_sparse(
    advertiser_count: usize,
    interest: &[Vec<u32>],
    search_rates: &[f64],
) -> SortPlan {
    assert_eq!(search_rates.len(), interest.len(), "one rate per phrase");
    let fragments = group_by_signature(advertiser_count, interest);
    build_over_runs(advertiser_count, fragments, search_rates, false)
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

    impl SortPlan {
        /// Reconstructs `I_v` as a `BitSet` by walking the subtree.
        fn node_advertisers(&self, v: usize) -> BitSet {
            let mut out = BitSet::new(self.advertiser_count);
            let mut stack = vec![v];
            while let Some(x) = stack.pop() {
                match self.node_children(x) {
                    None => {
                        for &i in self.run_members(x) {
                            out.insert(i as usize);
                        }
                    }
                    Some((a, b)) => {
                        stack.push(a);
                        stack.push(b);
                    }
                }
            }
            out
        }
    }

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
        (plan.run_count()..plan.node_count()).collect()
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
    fn run_costs_equal_the_expanded_pairwise_trees() {
        // Expand every run of a sparse plan into the pairwise merge tree
        // that would sort it (adjacent pairs, odd node carried up), each
        // operator serving the run's signature, and evaluate the Section
        // III-B model on the expansion by brute force: the plan's own
        // cost and marginals must agree.
        assert_eq!(pairwise_tree_cost(5), 13);
        assert_eq!(balanced_merge_cost(5), 12);
        let n = 300usize;
        let m = 9;
        let interest: Vec<Vec<u32>> = (0..m)
            .map(|q| {
                (0..n)
                    .filter(|&i| (i + q).is_multiple_of(3) || i % 11 == q || i.is_multiple_of(7))
                    .map(|i| i as u32)
                    .collect()
            })
            .collect();
        let rates: Vec<f64> = (0..m).map(|q| 0.05 + 0.1 * q as f64).collect();
        let plan = build_shared_sort_plan_sparse(n, &interest, &rates);
        let mut expanded: Vec<(usize, &[u32])> = Vec::new();
        for r in 0..plan.run_count() {
            let mut level = vec![1usize; plan.node_size(r)];
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let size = pair.iter().sum();
                        if pair.len() == 2 {
                            expanded.push((size, plan.node_serves(r)));
                        }
                        size
                    })
                    .collect();
            }
        }
        assert!(
            (0..plan.run_count()).any(|r| plan.node_size(r) % 2 == 1 && plan.node_size(r) > 1),
            "the instance must hold an odd run"
        );
        for v in internal_nodes(&plan) {
            expanded.push((plan.node_size(v), plan.node_serves(v)));
        }
        let occurs = |qs: &[u32], skip: Option<u32>| {
            1.0 - qs
                .iter()
                .filter(|&&q| Some(q) != skip)
                .map(|&q| 1.0 - rates[q as usize])
                .product::<f64>()
        };
        let cost: f64 = expanded
            .iter()
            .map(|&(size, qs)| size as f64 * occurs(qs, None))
            .sum();
        assert!(
            (plan.expected_cost(&rates) - cost).abs() < 1e-9,
            "expected cost {} vs expanded {cost}",
            plan.expected_cost(&rates)
        );
        let marginals = plan.phrase_marginal_costs(&rates);
        for (q, &marginal) in marginals.iter().enumerate() {
            let want: f64 = expanded
                .iter()
                .filter(|(_, qs)| qs.contains(&(q as u32)))
                .map(|&(size, qs)| size as f64 * rates[q] * (1.0 - occurs(qs, Some(q as u32))))
                .sum();
            assert!(
                (marginal - want).abs() < 1e-9,
                "phrase {q}: marginal {marginal} vs expanded {want}"
            );
        }
    }

    #[test]
    fn singleton_phrase_needs_no_merges() {
        let interest = vec![bs(3, &[1])];
        let plan = build_shared_sort_plan(3, &interest, &[1.0]);
        assert_eq!(plan.node_count(), 1, "one run, no merges");
        assert_eq!(plan.run_members(plan.root(0)), &[1], "the run is the root");
        assert_eq!(plan.expected_cost(&[1.0]), 0.0);
    }

    #[test]
    fn bucketed_planner_matches_structure_and_scales() {
        // Bucketed and exhaustive planners may produce different trees,
        // but both sort correctly and share the fragment blocks.
        let interest = vec![bs(6, &[0, 1, 2, 3]), bs(6, &[0, 1, 4, 5])];
        let rates = [0.9, 0.9];
        let bucketed = build_shared_sort_plan_bucketed(6, &interest, &rates);
        assert_eq!(bucketed.run_count(), 3, "one run per fragment");
        let shared = (0..bucketed.node_count())
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
        assert_eq!(dense.run_count(), sparse.run_count());
        for r in 0..dense.run_count() {
            assert_eq!(dense.run_members(r), sparse.run_members(r), "run {r}");
        }
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
