//! Shared aggregation plans (Section II).
//!
//! An *A-plan* for a set of aggregate queries is a DAG in which each leaf
//! is a variable (an advertiser's current bid/score), each internal node
//! has in-degree 2 and aggregates its two children, and every query is
//! A-equivalent to some node's label. Under the semilattice axioms of the
//! top-k operator, Lemma 1 lets us identify every node with its *variable
//! set*, which is how [`PlanDag`] stores labels.
//!
//! # Node-set storage at scale
//!
//! Variable sets are stored *adaptively sparse* ([`VarSet`]/[`VarSetRef`]
//! from `ssa-setcover`), not as dense n-bit sets — at a million
//! advertisers a dense label costs ~125 kB per node regardless of
//! content, which was the documented reason plan-bearing strategies used
//! to stop at ~100k. Internal-node sets live in one CSR pool
//! (`pool_elems` + per-node spans, the `LeafCones` pattern), with two
//! structural tricks that keep fragment chains linear instead of
//! quadratic:
//!
//! * **Implicit leaves** — nodes `0..var_count` are singletons by
//!   construction, so no storage, hash, or interning entry exists for
//!   them; `vars(v)` serves a one-element slice of a shared identity
//!   array and `PlanDag::new` is O(n), not O(n²/8).
//! * **Prefix extension** — merging the pool's *tail* node with a set
//!   strictly above its maximum appends only the new elements and spans
//!   the union over the shared prefix, so a k-leaf fragment chain stores
//!   O(k) elements total (not O(k²)) and each step extends the cached
//!   FNV content hash incrementally instead of rehashing the prefix.
//!
//! Interning (`node_for`, merge dedup) keys on the 64-bit content hash
//! with exact element comparison on hit plus a linear overflow list for
//! genuine hash collisions — deterministic, and no owned key copies.
//!
//! Submodules:
//!
//! * [`cost`] — total/extra cost and the probabilistic expected
//!   materialization cost `Σ_v (1 − Π_{q: v⇝q} (1 − sr_q))`;
//! * [`fragments`] — stage 1 of the paper's heuristic (group variables by
//!   query-membership signature);
//! * [`greedy`] — stage 2 (greedy completion by expected greedy coverage
//!   gain) and the [`SharedPlanner`] facade;
//! * [`cse`] — the non-associative baseline planner (syntactic sharing
//!   only), polynomial per Figure 5 row 1;
//! * [`optimal`] — exhaustive minimum-cost planner for small instances;
//! * [`reduction`] — the executable set-cover constructions behind
//!   Theorems 2 and 3;
//! * [`topk_cones`] — the per-round scored top-k evaluator over a
//!   [`ConeWalker`]'s slots (the engine's ⊕ hot path).

pub mod cost;
pub mod cse;
pub mod disjoint;
pub mod fragments;
pub mod greedy;
pub mod optimal;
pub mod reduction;
pub mod topk_cones;

pub use disjoint::DisjointPlanner;
pub use greedy::{PlannerMode, SharedPlanner};
pub use topk_cones::TopKCones;

use std::collections::HashMap;

use ssa_setcover::varset::{fnv1a_extend, sparse_limit, FNV_SEED};
use ssa_setcover::{AsVarSetRef, BitSet, VarSet, VarSetRef};

use crate::algebra::ops::AggregateOp;

/// Span sentinel: this internal node's set is dense, stored at
/// `dense[len]` instead of in the CSR element pool.
const DENSE_SPAN: u32 = u32::MAX;

/// A shared aggregation plan over `var_count` variables.
///
/// Nodes `0..var_count` are the (implicit) variable leaves. Internal
/// nodes are deduplicated by variable set: merging two nodes whose union
/// already exists returns the existing node (the semilattice
/// identification). Node sets are read through [`PlanDag::vars`] as
/// borrowed [`VarSetRef`] views into the pooled storage.
#[derive(Debug, Clone)]
pub struct PlanDag {
    var_count: usize,
    /// Identity array `0..var_count`; `vars(v)` for a leaf borrows the
    /// one-element slice `&leaf_ids[v..=v]`.
    leaf_ids: Vec<u32>,
    /// CSR element storage for sparse internal-node sets. Chain-built
    /// nodes share prefixes: a prefix-extended union's span covers its
    /// left child's elements plus the appended tail.
    pool_elems: Vec<u32>,
    /// Per internal node `(start, len)` into `pool_elems`, or
    /// `(DENSE_SPAN, dense_index)` for promoted sets.
    spans: Vec<(u32, u32)>,
    /// Dense block storage for internal nodes past the sparse limit.
    dense: Vec<Box<[u64]>>,
    /// Cached FNV-1a content hash per internal node — extended
    /// incrementally on the prefix-extension path so chain steps cost
    /// O(tail), not O(prefix + tail).
    hashes: Vec<u64>,
    /// Packed child pairs, one per *internal* node (index `idx -
    /// var_count`). The per-round [`ConeWalker`] and `reach_sets`
    /// traverse this flat `u32` arena — 8 bytes per node.
    children_packed: Vec<[u32; 2]>,
    /// Content-hash interning: hash → first internal node with that set.
    /// Distinct sets colliding on the hash go to `by_set_overflow`
    /// (scanned linearly; every lookup verifies elements exactly).
    by_set: HashMap<u64, u32>,
    by_set_overflow: Vec<(u64, u32)>,
    /// `queries[q]` = index of the node computing query `q`.
    queries: Vec<usize>,
}

impl PlanDag {
    /// An empty plan: just the (implicit) variable leaves. O(var_count).
    pub fn new(var_count: usize) -> Self {
        PlanDag {
            var_count,
            leaf_ids: (0..var_count as u32).collect(),
            pool_elems: Vec::new(),
            spans: Vec::new(),
            dense: Vec::new(),
            hashes: Vec::new(),
            children_packed: Vec::new(),
            by_set: HashMap::new(),
            by_set_overflow: Vec::new(),
            queries: Vec::new(),
        }
    }

    /// Heap footprint of the plan in bytes: the pooled node labels, the
    /// packed child arena, cached hashes, and the interning tables. For
    /// the memory-scaling gate.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.leaf_ids.capacity() * size_of::<u32>()
            + self.pool_elems.capacity() * size_of::<u32>()
            + self.spans.capacity() * size_of::<(u32, u32)>()
            + self.dense.capacity() * size_of::<Box<[u64]>>()
            + self
                .dense
                .iter()
                .map(|b| b.len() * size_of::<u64>())
                .sum::<usize>()
            + self.hashes.capacity() * size_of::<u64>()
            + self.children_packed.capacity() * size_of::<[u32; 2]>()
            + self.by_set.capacity() * (size_of::<u64>() + size_of::<u32>())
            + self.by_set_overflow.capacity() * size_of::<(u64, u32)>()
            + self.queries.capacity() * size_of::<usize>()
    }

    /// Number of variables.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// Total node count; indices `0..var_count` are leaves.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.var_count + self.spans.len()
    }

    /// The variable set of node `idx`, as a borrowed view into pooled
    /// storage.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn vars(&self, idx: usize) -> VarSetRef<'_> {
        if idx < self.var_count {
            VarSetRef::Sparse {
                elems: &self.leaf_ids[idx..=idx],
                capacity: self.var_count,
            }
        } else {
            let (start, len) = self.spans[idx - self.var_count];
            if start == DENSE_SPAN {
                VarSetRef::Dense {
                    blocks: &self.dense[len as usize],
                    capacity: self.var_count,
                }
            } else {
                VarSetRef::Sparse {
                    elems: &self.pool_elems[start as usize..(start + len) as usize],
                    capacity: self.var_count,
                }
            }
        }
    }

    /// An owned copy of node `idx`'s variable set.
    #[inline]
    pub fn vars_owned(&self, idx: usize) -> VarSet {
        self.vars(idx).to_var_set()
    }

    /// The children of node `idx`: `Some((a, b))` for internal nodes,
    /// `None` for leaves.
    #[inline]
    pub fn children(&self, idx: usize) -> Option<(usize, usize)> {
        if idx < self.var_count {
            None
        } else {
            let [a, b] = self.children_packed[idx - self.var_count];
            Some((a as usize, b as usize))
        }
    }

    /// The node computing each bound query.
    #[inline]
    pub fn query_nodes(&self) -> &[usize] {
        &self.queries
    }

    /// Number of bound queries.
    #[inline]
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Looks up an interned node by content hash, verifying elements
    /// exactly (hash collisions fall through to the overflow list).
    fn find_interned(&self, hash: u64, probe: VarSetRef<'_>) -> Option<usize> {
        if let Some(&idx) = self.by_set.get(&hash) {
            if self.vars(idx as usize).set_eq(probe) {
                return Some(idx as usize);
            }
            for &(h, idx) in &self.by_set_overflow {
                if h == hash && self.vars(idx as usize).set_eq(probe) {
                    return Some(idx as usize);
                }
            }
        }
        None
    }

    fn intern(&mut self, hash: u64, idx: u32) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.by_set.entry(hash) {
            slot.insert(idx);
        } else {
            // A *different* set with the same content hash (merge never
            // re-interns an existing set): keep both, resolved by exact
            // comparison at lookup.
            self.by_set_overflow.push((hash, idx));
        }
    }

    /// Looks up a node by its variable set. Accepts [`VarSet`],
    /// [`BitSet`], or a [`VarSetRef`] view.
    pub fn node_for<S: AsVarSetRef + ?Sized>(&self, vars: &S) -> Option<usize> {
        let probe = vars.as_set_ref();
        debug_assert_eq!(probe.capacity(), self.var_count, "universe mismatch");
        match probe.first() {
            None => None,
            Some(v) => {
                // Singletons are the implicit leaves — never interned.
                if probe.len() == 1 {
                    (v < self.var_count).then_some(v)
                } else {
                    self.find_interned(probe.hash64(), probe)
                }
            }
        }
    }

    /// Merges two existing nodes, returning the node whose variable set is
    /// the union. Deduplicates: if a node with that set exists, it is
    /// returned unchanged (no new cost).
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn merge(&mut self, a: usize, b: usize) -> usize {
        assert!(
            a < self.node_count() && b < self.node_count(),
            "bad node id"
        );
        if a == b {
            return a;
        }
        // Prefix-extension fast path: `a` is the sparse tail of the pool
        // and `b`'s elements all lie strictly above `a`'s maximum. The
        // union is then `a`'s run extended in place — O(|b|) storage and
        // hashing, which is what keeps k-step fragment chains O(k) total.
        if a >= self.var_count {
            let (start, len) = self.spans[a - self.var_count];
            if start != DENSE_SPAN && (start + len) as usize == self.pool_elems.len() {
                if let VarSetRef::Sparse { elems: b_elems, .. } = self.vars(b) {
                    let a_max = self.pool_elems[(start + len) as usize - 1];
                    if !b_elems.is_empty() && b_elems[0] > a_max {
                        let hash =
                            fnv1a_extend(self.hashes[a - self.var_count], b_elems.iter().copied());
                        // Dedup before extending the pool: the union may
                        // already exist as an earlier node. The probe
                        // compares structurally (candidate == a's run
                        // followed by b's), so no union is materialized.
                        let b_len = b_elems.len() as u32;
                        if let Some(idx) = self.find_extended(hash, a, b, len + b_len) {
                            return idx;
                        }
                        // Copy b's elements (they may live earlier in the
                        // same pool, so take them by index range).
                        let (b_start, copy_len) = match b < self.var_count {
                            true => (b as u32, 0),
                            false => self.spans[b - self.var_count],
                        };
                        if b < self.var_count {
                            self.pool_elems.push(b_start);
                        } else {
                            let lo = b_start as usize;
                            let hi = lo + copy_len as usize;
                            self.pool_elems.extend_from_within(lo..hi);
                        }
                        let idx = self.node_count();
                        self.spans.push((start, len + b_len));
                        self.hashes.push(hash);
                        self.children_packed.push([a as u32, b as u32]);
                        self.intern(hash, idx as u32);
                        return idx;
                    }
                }
            }
        }
        // General path: materialize the union's element run.
        let union: Vec<u32> = {
            let ra = self.vars(a);
            let rb = self.vars(b);
            let mut out = Vec::with_capacity(ra.len() + rb.len());
            let mut ia = ra.iter().peekable();
            let mut ib = rb.iter().peekable();
            loop {
                match (ia.peek().copied(), ib.peek().copied()) {
                    (None, None) => break,
                    (Some(_), None) => {
                        out.push(ia.next().unwrap() as u32);
                    }
                    (None, Some(_)) => {
                        out.push(ib.next().unwrap() as u32);
                    }
                    (Some(x), Some(y)) => match x.cmp(&y) {
                        std::cmp::Ordering::Less => {
                            out.push(ia.next().unwrap() as u32);
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(ib.next().unwrap() as u32);
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(ia.next().unwrap() as u32);
                            ib.next();
                        }
                    },
                }
            }
            out
        };
        if union.len() == 1 {
            // Both children were the same singleton; `a == b` is caught
            // above, so this cannot happen for distinct nodes — but keep
            // the leaf identification for safety.
            return union[0] as usize;
        }
        let hash = fnv1a_extend(FNV_SEED, union.iter().copied());
        let probe = VarSetRef::Sparse {
            elems: &union,
            capacity: self.var_count,
        };
        if let Some(idx) = self.find_interned(hash, probe) {
            return idx;
        }
        let idx = self.node_count();
        if union.len() > sparse_limit(self.var_count) {
            // Promote to dense blocks — only here, never on the
            // prefix-extension path (which must keep sharing the pool).
            let mut blocks = vec![0u64; self.var_count.div_ceil(64)].into_boxed_slice();
            for &e in &union {
                blocks[e as usize / 64] |= 1u64 << (e as usize % 64);
            }
            let dense_idx = self.dense.len() as u32;
            self.dense.push(blocks);
            self.spans.push((DENSE_SPAN, dense_idx));
        } else {
            let start = self.pool_elems.len() as u32;
            self.pool_elems.extend_from_slice(&union);
            self.spans.push((start, union.len() as u32));
        }
        self.hashes.push(hash);
        self.children_packed.push([a as u32, b as u32]);
        self.intern(hash, idx as u32);
        idx
    }

    /// Interning probe for the prefix-extension path: is there a node
    /// whose set is `vars(a) ++ vars(b)` (a dedup-free concatenation of
    /// length `total`)? Verified structurally against pooled storage.
    fn find_extended(&self, hash: u64, a: usize, b: usize, total: u32) -> Option<usize> {
        let check = |idx: usize| -> bool {
            let cand = self.vars(idx);
            if cand.len() != total as usize {
                return false;
            }
            let ra = self.vars(a);
            let rb = self.vars(b);
            cand.iter().eq(ra.iter().chain(rb.iter()))
        };
        if let Some(&idx) = self.by_set.get(&hash) {
            if check(idx as usize) {
                return Some(idx as usize);
            }
            for &(h, idx) in &self.by_set_overflow {
                if h == hash && check(idx as usize) {
                    return Some(idx as usize);
                }
            }
        }
        None
    }

    /// Aggregates a list of existing nodes left-to-right (a chain),
    /// returning the final node. Deduplication applies at every step.
    ///
    /// # Panics
    /// Panics on an empty list.
    pub fn merge_chain(&mut self, nodes: &[usize]) -> usize {
        assert!(!nodes.is_empty(), "cannot chain zero nodes");
        let mut acc = nodes[0];
        for &n in &nodes[1..] {
            acc = self.merge(acc, n);
        }
        acc
    }

    /// Binds the next query (appending) to the node computing `vars`.
    ///
    /// # Panics
    /// Panics if no node has this variable set — the plan is incomplete.
    pub fn bind_query<S: AsVarSetRef + ?Sized>(&mut self, vars: &S) -> usize {
        let idx = self
            .node_for(vars)
            .expect("query bound before its node exists");
        self.queries.push(idx);
        idx
    }

    /// Total cost: the number of internal (in-degree 2) nodes — "the
    /// number of nodes with non-zero in-degree", i.e. top-k aggregation
    /// operations materializable per round.
    pub fn total_cost(&self) -> usize {
        self.spans.len()
    }

    /// Extra cost: total cost minus the base cost `|E|` (queries that are
    /// not bare variables).
    pub fn extra_cost(&self) -> usize {
        let base = self
            .queries
            .iter()
            .filter(|&&idx| idx >= self.var_count)
            .count();
        self.total_cost().saturating_sub(base)
    }

    /// Validates the A-plan invariants: every internal node's variable set
    /// is the union of its children's; children precede parents; every
    /// bound query points at a node with exactly its variable set.
    pub fn validate(&self) -> Result<(), String> {
        for idx in self.var_count..self.node_count() {
            let (a, b) = self.children(idx).expect("internal node has children");
            if a >= idx || b >= idx {
                return Err(format!("node {idx} references later node"));
            }
            let union = self.vars_owned(a).union(&self.vars(b));
            if union.as_set_ref() != self.vars(idx) {
                return Err(format!("node {idx} label is not its children's union"));
            }
        }
        for (q, &idx) in self.queries.iter().enumerate() {
            if idx >= self.node_count() {
                return Err(format!("query {q} bound to missing node"));
            }
        }
        Ok(())
    }

    /// True iff some internal node merges children with overlapping
    /// variable sets. Such plans are only correct for idempotent
    /// operators (duplicates collapse); non-idempotent evaluation rejects
    /// them.
    pub fn has_overlapping_merges(&self) -> bool {
        (self.var_count..self.node_count()).any(|idx| {
            let (a, b) = self.children(idx).expect("internal node");
            !self.vars(a).is_disjoint(self.vars(b))
        })
    }

    /// For each node, the set of *bound queries* it feeds (`v ⇝ q`):
    /// query-node cones walked per query, packed into one CSR pool.
    /// Each node's query list is ascending (queries are visited in
    /// index order), preserving the summation order the cost model's
    /// floating-point products depend on.
    pub fn reach_sets(&self) -> ReachSets {
        let n_nodes = self.node_count();
        let mut counts = vec![0u32; n_nodes];
        let mut epoch = vec![u32::MAX; n_nodes];
        let mut stack: Vec<usize> = Vec::new();
        for pass in 0..2 {
            let mut offsets = Vec::new();
            let mut fill: Vec<u32> = Vec::new();
            let mut qs: Vec<u32> = Vec::new();
            if pass == 1 {
                offsets = vec![0u32; n_nodes + 1];
                for i in 0..n_nodes {
                    offsets[i + 1] = offsets[i] + counts[i];
                }
                fill = offsets[..n_nodes].to_vec();
                qs = vec![0u32; offsets[n_nodes] as usize];
                for e in epoch.iter_mut() {
                    *e = u32::MAX;
                }
            }
            for (q, &root) in self.queries.iter().enumerate() {
                let stamp = q as u32;
                stack.push(root);
                while let Some(idx) = stack.pop() {
                    if epoch[idx] == stamp {
                        continue;
                    }
                    epoch[idx] = stamp;
                    if pass == 0 {
                        counts[idx] += 1;
                    } else {
                        qs[fill[idx] as usize] = stamp;
                        fill[idx] += 1;
                    }
                    if let Some((a, b)) = self.children(idx) {
                        stack.push(a);
                        stack.push(b);
                    }
                }
            }
            if pass == 1 {
                return ReachSets { offsets, qs };
            }
        }
        unreachable!()
    }

    /// Checks the [`PlanDag::evaluate`] preconditions.
    fn check_evaluate_inputs<O: AggregateOp>(
        &self,
        op: &O,
        leaves: &[O::Value],
        occurring: &[bool],
    ) {
        assert_eq!(leaves.len(), self.var_count, "one value per variable");
        assert_eq!(occurring.len(), self.queries.len(), "one flag per query");
        if !op.axioms().idempotent() {
            assert!(
                !self.has_overlapping_merges(),
                "plan has overlapping merges; operator {} is not idempotent",
                op.name()
            );
        }
    }

    /// Evaluates the plan for one round.
    ///
    /// `leaves[v]` is variable `v`'s current value; `occurring[q]` says
    /// whether query `q`'s bid phrase occurs this round. Only nodes needed
    /// by occurring queries are materialized (the cost model's notion of
    /// materialization), via a throwaway [`ConeWalker`]. Returns per-query
    /// results (`None` for phrases that did not occur) and the number of ⊕
    /// applications performed.
    ///
    /// # Panics
    /// Panics if the operator is not idempotent but the plan contains
    /// overlapping merges, or if input lengths disagree.
    pub fn evaluate<O: AggregateOp>(
        &self,
        op: &O,
        leaves: &[O::Value],
        occurring: &[bool],
    ) -> (Vec<Option<O::Value>>, usize) {
        self.check_evaluate_inputs(op, leaves, occurring);
        let mut walker = ConeWalker::new();
        walker.walk(
            self,
            self.queries
                .iter()
                .zip(occurring)
                .filter(|(_, &occ)| occ)
                .map(|(&idx, _)| idx),
        );
        // Slot-indexed memo over the walked internal nodes only: leaf
        // values are read from the input slice, never cloned.
        let mut memo: Vec<O::Value> = Vec::with_capacity(walker.slots());
        for slot in 0..walker.slots() {
            let [a, b] = walker.operands(self, slot);
            let value = op.combine(
                operand_value(&memo, leaves, a),
                operand_value(&memo, leaves, b),
            );
            memo.push(value);
        }
        let results = self
            .queries
            .iter()
            .zip(occurring)
            .map(|(&idx, &occ)| {
                occ.then(|| operand_value(&memo, leaves, walker.locate(self, idx)).clone())
            })
            .collect();
        (results, memo.len())
    }
}

/// An operand's materialized value: leaves read straight from the input
/// slice, internal nodes from their slot in the round's memo.
#[inline]
fn operand_value<'v, V>(memo: &'v [V], leaves: &'v [V], operand: Operand) -> &'v V {
    match operand {
        Operand::Leaf(v) => &leaves[v],
        Operand::Slot(s) => &memo[s],
    }
}

/// Where a walked node's value lives this round: a variable leaf (read
/// from the caller's input) or an internal node's dense per-round slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Variable `v`: the caller supplies its value.
    Leaf(usize),
    /// The value computed for slot `s` of the current walk.
    Slot(usize),
}

/// Stack-entry flag: the node's children are scheduled, assign its slot.
const EXPANDED: u32 = 1 << 31;

/// The demand-driven plan traversal: visits exactly the internal nodes
/// under a round's occurring query nodes — the Σᵥ(1 − Π(1 − sr_q)) nodes
/// §II-B charges, never the whole DAG — children first, and assigns each
/// a dense per-round *slot*. Evaluators keep one value per slot and fill
/// them in slot order ([`ConeWalker::operands`] resolves each slot's two
/// children to earlier slots or leaves).
///
/// The scratch is persistent and nothing in it is cleared between rounds:
/// `slot_of` is a sparse-set index (one `u32` per internal node), and an
/// entry counts only if it points below the current slot count *and*
/// `slot_node` points back at the node, so stale entries from earlier
/// rounds — or from an earlier, differently sized plan — are never read
/// as scheduled.
#[derive(Debug, Clone, Default)]
pub struct ConeWalker {
    /// Per internal node, its slot in the walk that last scheduled it.
    slot_of: Vec<u32>,
    /// Per slot of the current walk, the node it holds; children precede
    /// parents.
    slot_node: Vec<u32>,
    /// DFS stack of node indices, [`EXPANDED`]-flagged on the way back up.
    stack: Vec<u32>,
}

impl ConeWalker {
    /// An empty walker; its scratch is sized by the first walk.
    pub fn new() -> Self {
        ConeWalker::default()
    }

    /// Heap footprint in bytes (capacities): 4 B per internal plan node
    /// for the slot index plus the peak cone's slot list and stack.
    pub fn heap_bytes(&self) -> usize {
        (self.slot_of.capacity() + self.slot_node.capacity() + self.stack.capacity())
            * std::mem::size_of::<u32>()
    }

    /// Schedules the union of the cones of `roots` (node indices; leaves
    /// and repeats are fine), replacing the previous walk.
    ///
    /// # Panics
    /// Panics if a root is out of range.
    pub fn walk(&mut self, plan: &PlanDag, roots: impl IntoIterator<Item = usize>) {
        assert!(
            plan.node_count() <= EXPANDED as usize,
            "node index collides with the stack flag bit"
        );
        let var_count = plan.var_count;
        self.slot_node.clear();
        // Sized to this plan; entries kept from another plan are as
        // harmless as entries kept from another round.
        self.slot_of.resize(plan.spans.len(), 0);
        for root in roots {
            assert!(root < plan.node_count(), "node out of range");
            if root < var_count {
                continue;
            }
            self.stack.push(root as u32);
            while let Some(entry) = self.stack.pop() {
                let node = (entry & !EXPANDED) as usize;
                if entry & EXPANDED != 0 {
                    self.slot_of[node - var_count] = self.slot_node.len() as u32;
                    self.slot_node.push(node as u32);
                } else if !self.scheduled(var_count, node) {
                    self.stack.push(entry | EXPANDED);
                    for child in plan.children_packed[node - var_count] {
                        if child as usize >= var_count && !self.scheduled(var_count, child as usize)
                        {
                            self.stack.push(child);
                        }
                    }
                }
            }
        }
    }

    /// True iff internal node `node` has a slot in the current walk.
    #[inline]
    fn scheduled(&self, var_count: usize, node: usize) -> bool {
        let slot = self.slot_of[node - var_count] as usize;
        self.slot_node.get(slot) == Some(&(node as u32))
    }

    /// Number of internal nodes the current walk scheduled — the ⊕
    /// applications an evaluation of it performs.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slot_node.len()
    }

    /// Where `node`'s value lives after the current walk.
    ///
    /// # Panics
    /// Panics if `node` is an internal node outside the walked cones.
    #[inline]
    pub fn locate(&self, plan: &PlanDag, node: usize) -> Operand {
        if node < plan.var_count {
            Operand::Leaf(node)
        } else {
            assert!(
                self.scheduled(plan.var_count, node),
                "node {node} is not under a walked root"
            );
            Operand::Slot(self.slot_of[node - plan.var_count] as usize)
        }
    }

    /// The two children of the node in `slot`, each a leaf or an earlier
    /// slot.
    #[inline]
    pub fn operands(&self, plan: &PlanDag, slot: usize) -> [Operand; 2] {
        let node = self.slot_node[slot] as usize;
        plan.children_packed[node - plan.var_count].map(|child| self.locate(plan, child as usize))
    }
}

/// Per-node reach sets (`node ⇝ query`) in one CSR pool — the sparse
/// replacement for the old `Vec<BitSet>` (which materialized O(nodes × m)
/// dense bits). `queries_of(idx)` is ascending, so cost-model products
/// iterate queries in exactly the order the dense representation did.
#[derive(Debug, Clone)]
pub struct ReachSets {
    offsets: Vec<u32>,
    qs: Vec<u32>,
}

impl ReachSets {
    /// The ascending query indices node `idx` feeds.
    #[inline]
    pub fn queries_of(&self, idx: usize) -> &[u32] {
        &self.qs[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// Number of nodes covered.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>() + self.qs.capacity() * size_of::<u32>()
    }
}

/// A shared-aggregation problem instance: queries as variable sets (the
/// Lemma 1 canonical form) plus their search rates.
#[derive(Debug, Clone)]
pub struct PlanProblem {
    /// Universe size (number of variables / advertisers).
    pub var_count: usize,
    /// Query variable sets `X_q`, stored adaptively sparse.
    pub queries: Vec<VarSet>,
    /// Per-query search rates `sr_q` (probability the phrase occurs in a
    /// round).
    pub search_rates: Vec<f64>,
}

impl PlanProblem {
    /// Builds a problem from dense query sets; rates default to 1.0 (the
    /// deterministic case of Section II-C) when `search_rates` is `None`.
    ///
    /// # Panics
    /// Panics if inputs are inconsistent (wrong universe, rate counts,
    /// rates out of `[0,1]`, or an empty query).
    pub fn new(var_count: usize, queries: Vec<BitSet>, search_rates: Option<Vec<f64>>) -> Self {
        let queries: Vec<VarSet> = queries.iter().map(VarSet::from_bitset).collect();
        PlanProblem::from_varsets(var_count, queries, search_rates)
    }

    /// Builds a problem from adaptive sets directly — the allocation-lean
    /// path population-scale callers (the plan resolver) use.
    ///
    /// # Panics
    /// Same contract as [`PlanProblem::new`].
    pub fn from_varsets(
        var_count: usize,
        queries: Vec<VarSet>,
        search_rates: Option<Vec<f64>>,
    ) -> Self {
        for (q, set) in queries.iter().enumerate() {
            assert_eq!(set.capacity(), var_count, "query {q} universe mismatch");
            assert!(!set.is_empty(), "query {q} is empty");
        }
        let search_rates = search_rates.unwrap_or_else(|| vec![1.0; queries.len()]);
        assert_eq!(search_rates.len(), queries.len(), "one rate per query");
        for (q, &r) in search_rates.iter().enumerate() {
            assert!(
                r.is_finite() && (0.0..=1.0).contains(&r),
                "query {q} rate {r} out of range"
            );
        }
        PlanProblem {
            var_count,
            queries,
            search_rates,
        }
    }

    /// Number of queries `m`.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Total input size `Σ_q |X_q|` (the paper's running-time parameter).
    pub fn total_query_size(&self) -> usize {
        self.queries.iter().map(VarSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::ops::{MaxOp, SumOp, TopKOp};
    use crate::topk::KList;

    fn bs(n: usize, elems: &[usize]) -> BitSet {
        BitSet::from_elements(n, elems.iter().copied())
    }

    #[test]
    fn merge_dedups_by_var_set() {
        let mut plan = PlanDag::new(4);
        let ab = plan.merge(0, 1);
        let ab2 = plan.merge(1, 0);
        assert_eq!(ab, ab2, "union {{0,1}} must be a single node");
        assert_eq!(plan.total_cost(), 1);
        let abc = plan.merge(ab, 2);
        assert_eq!(plan.total_cost(), 2);
        assert_eq!(plan.vars(abc), bs(4, &[0, 1, 2]));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn merge_chain_reuses_prefixes() {
        let mut plan = PlanDag::new(4);
        plan.merge_chain(&[0, 1, 2]);
        let before = plan.total_cost();
        plan.merge_chain(&[0, 1, 2, 3]); // shares the {0,1} and {0,1,2} prefixes
        assert_eq!(plan.total_cost(), before + 1);
    }

    #[test]
    fn chain_storage_shares_prefixes() {
        // A k-leaf ascending chain must store O(k) pooled elements, not
        // O(k²): each step extends the previous node's run in place.
        let k = 64;
        let mut plan = PlanDag::new(k);
        let leaves: Vec<usize> = (0..k).collect();
        plan.merge_chain(&leaves);
        assert_eq!(plan.total_cost(), k - 1);
        assert_eq!(
            plan.pool_elems.len(),
            k,
            "chain prefixes must share one pooled run"
        );
        // Every prefix node is still individually addressable and correct.
        for idx in k..plan.node_count() {
            let want: Vec<usize> = (0..=(idx - k + 1)).collect();
            assert_eq!(plan.vars(idx).iter().collect::<Vec<_>>(), want);
        }
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn merge_promotes_large_unions_to_dense() {
        // Universe 4096 → sparse limit 128. A general-path (non-chain)
        // union past the limit must land in dense block storage.
        let n = 4096;
        let mut plan = PlanDag::new(n);
        let a = plan.merge_chain(&(0..100).collect::<Vec<_>>());
        let b = plan.merge_chain(&(200..300).collect::<Vec<_>>());
        // Merging b (whose min 200 > a's max 99) extends the pool only if
        // b is the tail; a is not the tail anymore, so this takes the
        // general path and promotes.
        let ab = plan.merge(a, b);
        assert!(matches!(plan.vars(ab), VarSetRef::Dense { .. }));
        assert_eq!(plan.vars(ab).len(), 200);
        assert!(plan.validate().is_ok());
        // Interning still finds it.
        let want: Vec<usize> = (0..100).chain(200..300).collect();
        assert_eq!(plan.node_for(&bs(n, &want)), Some(ab));
    }

    #[test]
    fn cost_accounting() {
        let mut plan = PlanDag::new(3);
        let ab = plan.merge(0, 1);
        let abc = plan.merge(ab, 2);
        plan.queries.push(abc);
        // total 2, base 1 (one non-variable query) → extra 1 (node ab).
        assert_eq!(plan.total_cost(), 2);
        assert_eq!(plan.extra_cost(), 1);
        // A query bound to a bare variable adds no base cost.
        plan.queries.push(0);
        assert_eq!(plan.extra_cost(), 1);
    }

    #[test]
    fn bind_query_finds_node() {
        let mut plan = PlanDag::new(3);
        let ab = plan.merge(0, 1);
        let idx = plan.bind_query(&bs(3, &[0, 1]));
        assert_eq!(idx, ab);
        // Singleton queries bind straight to the implicit leaves.
        assert_eq!(plan.bind_query(&VarSet::singleton(3, 2)), 2);
    }

    #[test]
    #[should_panic(expected = "before its node exists")]
    fn bind_query_rejects_missing() {
        let mut plan = PlanDag::new(3);
        plan.bind_query(&bs(3, &[0, 1]));
    }

    #[test]
    fn reach_sets_propagate_to_descendants() {
        let mut plan = PlanDag::new(4);
        let ab = plan.merge(0, 1);
        let abc = plan.merge(ab, 2);
        let abd = plan.merge(ab, 3);
        plan.queries = vec![abc, abd];
        let reach = plan.reach_sets();
        // ab feeds both queries; leaf 2 only query 0; leaf 3 only query 1.
        assert_eq!(reach.queries_of(ab), &[0, 1]);
        assert_eq!(reach.queries_of(2), &[0]);
        assert_eq!(reach.queries_of(3), &[1]);
        assert_eq!(reach.queries_of(abc), &[0]);
    }

    #[test]
    fn evaluate_topk_matches_direct() {
        let op = TopKOp { k: 2 };
        let mut plan = PlanDag::new(4);
        let ab = plan.merge(0, 1);
        let abc = plan.merge(ab, 2);
        let abd = plan.merge(ab, 3);
        plan.queries = vec![abc, abd];
        let leaves: Vec<KList<i64>> = [10i64, 40, 20, 30]
            .iter()
            .map(|&v| KList::singleton(2, v))
            .collect();
        let (results, ops) = plan.evaluate(&op, &leaves, &[true, true]);
        assert_eq!(results[0].as_ref().unwrap().items(), &[40, 20]);
        assert_eq!(results[1].as_ref().unwrap().items(), &[40, 30]);
        assert_eq!(ops, 3, "ab shared once, plus two query merges");
    }

    #[test]
    fn evaluate_skips_non_occurring_queries() {
        let op = MaxOp;
        let mut plan = PlanDag::new(4);
        let ab = plan.merge(0, 1);
        let cd = plan.merge(2, 3);
        let abcd = plan.merge(ab, cd);
        plan.queries = vec![ab, abcd];
        let leaves = vec![1i64, 2, 3, 4];
        let (results, ops) = plan.evaluate(&op, &leaves, &[true, false]);
        assert_eq!(results[0], Some(2));
        assert_eq!(results[1], None);
        assert_eq!(ops, 1, "only ab materialized");
    }

    #[test]
    fn evaluate_rejects_nonidempotent_on_overlap() {
        let mut plan = PlanDag::new(3);
        let ab = plan.merge(0, 1);
        let bc = plan.merge(1, 2);
        let abc = plan.merge(ab, bc); // overlapping at variable 1
        plan.queries = vec![abc];
        assert!(plan.has_overlapping_merges());
        let plan2 = plan.clone();
        let result = std::panic::catch_unwind(move || {
            plan2.evaluate(&SumOp, &[1i64, 2, 3], &[true]);
        });
        assert!(result.is_err(), "sum over overlapping plan must panic");
        // Max (idempotent) is fine and correct.
        let (results, _) = plan.evaluate(&MaxOp, &[1i64, 2, 3], &[true]);
        assert_eq!(results[0], Some(3));
    }

    #[test]
    fn plan_problem_validation() {
        let q = vec![bs(3, &[0, 1]), bs(3, &[2])];
        let p = PlanProblem::new(3, q, Some(vec![0.5, 1.0]));
        assert_eq!(p.query_count(), 2);
        assert_eq!(p.total_query_size(), 3);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn plan_problem_rejects_bad_rate() {
        PlanProblem::new(2, vec![bs(2, &[0])], Some(vec![1.5]));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn plan_problem_rejects_empty_query() {
        PlanProblem::new(2, vec![BitSet::new(2)], None);
    }
}
