//! Shared aggregation plans (Section II).
//!
//! An *A-plan* for a set of aggregate queries is a DAG in which each leaf
//! is a variable (an advertiser's current bid/score), each internal node
//! has in-degree 2 and aggregates its two children, and every query is
//! A-equivalent to some node's label. Under the semilattice axioms of the
//! top-k operator, Lemma 1 lets us identify every node with its *variable
//! set*, which is how [`PlanDag`] stores labels.
//!
//! One internal node kind stands for a whole left-deep chain: a *run*
//! ([`PlanDag::run`]) aggregates an ascending list of variables directly
//! and has no children. Stage 1 makes each multi-variable fragment one
//! run — "we can safely aggregate elements within a fragment since no
//! sharing occurs across fragments" (§II-D) — so evaluators scan inside a
//! fragment and apply ⊕ only above it. A run of `f` members weighs
//! `f − 1`, the chain it replaces, in every cost and op count.
//!
//! # Node-set storage at scale
//!
//! Variable sets are stored *adaptively sparse* ([`VarSet`]/[`VarSetRef`]
//! from `ssa-setcover`), not as dense n-bit sets — at a million
//! advertisers a dense label costs ~125 kB per node regardless of
//! content, which was the documented reason plan-bearing strategies used
//! to stop at ~100k. Internal-node sets live in one CSR pool
//! (`pool_elems` + per-node spans, the `LeafCones` pattern), and two
//! node kinds keep the population-sized part of a plan linear:
//!
//! * **Implicit leaves** — nodes `0..var_count` are singletons by
//!   construction, so no storage, hash, or interning entry exists for
//!   them; `vars(v)` serves a one-element slice of a shared identity
//!   array and `PlanDag::new` is O(n), not O(n²/8).
//! * **Runs** — a run's set is its ascending member list, one pool span
//!   that is never promoted to dense, so a fragment costs its members'
//!   4 bytes each plus one node, whatever its size.
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
//!   query-membership signature, one run per fragment);
//! * [`greedy`] — stage 2 (greedy completion by expected greedy coverage
//!   gain) and the [`SharedPlanner`] facade;
//! * [`cse`] — the non-associative baseline planner (syntactic sharing
//!   only), polynomial per Figure 5 row 1;
//! * [`optimal`] — exhaustive minimum-cost planner for small instances;
//! * [`reduction`] — the executable set-cover constructions behind
//!   Theorems 2 and 3;
//! * [`topk_cones`] — the per-round scored top-k evaluator over a
//!   [`ConeWalker`]'s slots (the engine's hot path: a scan per run, ⊕
//!   per merge).

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

use ssa_setcover::varset::sparse_limit;
use ssa_setcover::{AsVarSetRef, BitSet, VarSet, VarSetRef};

use crate::algebra::ops::AggregateOp;

/// Span sentinel: this internal node's set is dense, stored at
/// `dense[len]` instead of in the CSR element pool.
const DENSE_SPAN: u32 = u32::MAX;

/// `children_packed` entry of a run: it has no children.
const RUN: [u32; 2] = [u32::MAX; 2];

/// A shared aggregation plan over `var_count` variables.
///
/// Nodes `0..var_count` are the (implicit) variable leaves; every other
/// node is a merge of two earlier nodes or a run over ascending
/// variables. Internal nodes are deduplicated by variable set: merging
/// two nodes whose union already exists returns the existing node (the
/// semilattice identification). Node sets are read through
/// [`PlanDag::vars`] as borrowed [`VarSetRef`] views into the pooled
/// storage.
#[derive(Debug, Clone)]
pub struct PlanDag {
    var_count: usize,
    /// Identity array `0..var_count`; `vars(v)` for a leaf borrows the
    /// one-element slice `&leaf_ids[v..=v]`.
    leaf_ids: Vec<u32>,
    /// CSR element storage for sparse internal-node sets; a run's span
    /// is its member list.
    pool_elems: Vec<u32>,
    /// Per internal node `(start, len)` into `pool_elems`, or
    /// `(DENSE_SPAN, dense_index)` for promoted sets.
    spans: Vec<(u32, u32)>,
    /// Dense block storage for internal nodes past the sparse limit.
    dense: Vec<Box<[u64]>>,
    /// Packed child pairs, one per *internal* node (index `idx -
    /// var_count`), [`RUN`] for runs. The per-round [`ConeWalker`] and
    /// `reach_sets` traverse this flat `u32` arena — 8 bytes per node.
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
            children_packed: Vec::new(),
            by_set: HashMap::new(),
            by_set_overflow: Vec::new(),
            queries: Vec::new(),
        }
    }

    /// Heap footprint of the plan in bytes: the pooled node labels, the
    /// packed child arena and the interning tables. For the memory-scaling
    /// gate.
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

    /// The children of node `idx`: `Some((a, b))` for merges, `None` for
    /// leaves and runs.
    #[inline]
    pub fn children(&self, idx: usize) -> Option<(usize, usize)> {
        let pair = self.children_packed[idx.checked_sub(self.var_count)?];
        (pair != RUN).then_some((pair[0] as usize, pair[1] as usize))
    }

    /// The ascending member variables of node `idx` if it is a run.
    #[inline]
    pub fn run_members(&self, idx: usize) -> Option<&[u32]> {
        let i = idx.checked_sub(self.var_count)?;
        (self.children_packed[i] == RUN).then(|| {
            let (start, len) = self.spans[i];
            &self.pool_elems[start as usize..(start + len) as usize]
        })
    }

    /// The ⊕ applications materializing node `idx` stands for: none for a
    /// leaf, one for a merge, and `f − 1` for a run of `f` members (the
    /// left-deep chain it replaces).
    #[inline]
    pub fn weight(&self, idx: usize) -> usize {
        match self.run_members(idx) {
            Some(members) => members.len() - 1,
            None => usize::from(idx >= self.var_count),
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
        let mut union: Vec<u32> = (self.vars(a).iter().chain(self.vars(b).iter()))
            .map(|v| v as u32)
            .collect();
        // Two ascending runs back to back: the stable sort merges them in
        // one linear pass.
        union.sort();
        union.dedup();
        if union.len() == 1 {
            // Both children were the same singleton; `a == b` is caught
            // above, so this cannot happen for distinct nodes — but keep
            // the leaf identification for safety.
            return union[0] as usize;
        }
        self.intern_node(&union, [a as u32, b as u32])
    }

    /// Adds a *run*: one node aggregating the ascending variables
    /// `members` directly, with no children — the plan's leaf for a
    /// stage-1 fragment, which evaluators scan instead of folding through
    /// ⊕ nodes. It weighs `members.len() − 1` ([`PlanDag::weight`]), and
    /// its set stays a sparse pool span at any size. Deduplicates like
    /// [`PlanDag::merge`]; a single member is its own leaf.
    ///
    /// # Panics
    /// Panics if `members` is empty, not strictly ascending, or names a
    /// variable out of range.
    pub fn run(&mut self, members: &[u32]) -> usize {
        assert!(
            members.windows(2).all(|w| w[0] < w[1])
                && members
                    .last()
                    .is_some_and(|&v| (v as usize) < self.var_count),
            "a run's members are ascending variables"
        );
        if let [v] = members {
            return *v as usize;
        }
        self.intern_node(members, RUN)
    }

    /// The node whose set is the ascending `elems`: an existing one, or a
    /// new internal node with `children` ([`RUN`] for a run). A merge's
    /// set past the sparse limit is promoted to dense blocks; a run's
    /// never is.
    fn intern_node(&mut self, elems: &[u32], children: [u32; 2]) -> usize {
        let probe = VarSetRef::Sparse {
            elems,
            capacity: self.var_count,
        };
        let hash = probe.hash64();
        if let Some(idx) = self.find_interned(hash, probe) {
            return idx;
        }
        if children != RUN && elems.len() > sparse_limit(self.var_count) {
            let mut blocks = vec![0u64; self.var_count.div_ceil(64)].into_boxed_slice();
            for &e in elems {
                blocks[e as usize / 64] |= 1u64 << (e as usize % 64);
            }
            self.spans.push((DENSE_SPAN, self.dense.len() as u32));
            self.dense.push(blocks);
        } else {
            self.spans
                .push((self.pool_elems.len() as u32, elems.len() as u32));
            self.pool_elems.extend_from_slice(elems);
        }
        self.children_packed.push(children);
        let idx = self.node_count() - 1;
        self.intern(hash, idx as u32);
        idx
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

    /// Total cost: "the number of nodes with non-zero in-degree", i.e.
    /// top-k aggregation operations materializable per round — the summed
    /// [`PlanDag::weight`] of the internal nodes, so a run counts the
    /// chain of in-degree-2 nodes it stands for.
    pub fn total_cost(&self) -> usize {
        (self.var_count..self.node_count())
            .map(|idx| self.weight(idx))
            .sum()
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

    /// Validates the A-plan invariants: every merge's variable set is the
    /// union of its children's and children precede parents (a run's set
    /// is its member list, checked by [`PlanDag::run`]); every bound query
    /// points at an existing node.
    pub fn validate(&self) -> Result<(), String> {
        for idx in self.var_count..self.node_count() {
            let Some((a, b)) = self.children(idx) else {
                continue;
            };
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

    /// True iff some merge combines children with overlapping variable
    /// sets (a run's members are distinct). Such plans are only correct
    /// for idempotent operators (duplicates collapse); non-idempotent
    /// evaluation rejects them.
    pub fn has_overlapping_merges(&self) -> bool {
        (self.var_count..self.node_count())
            .filter_map(|idx| self.children(idx))
            .any(|(a, b)| !self.vars(a).is_disjoint(self.vars(b)))
    }

    /// For each node, the *bound queries* it feeds (`v ⇝ q`), from one
    /// walk of each query's cone. Queries are walked in index order, so
    /// each list is ascending — the summation order the cost model's
    /// floating-point products depend on — and a node already holding the
    /// current query is already walked. The walk stops at runs: a run's
    /// members are reached only as the run, so only the few nodes above
    /// the fragments and the leaves they merge get a list.
    pub fn reach_sets(&self) -> Vec<Vec<u32>> {
        let mut reach = vec![Vec::new(); self.node_count()];
        let mut stack = Vec::new();
        for (q, &root) in self.queries.iter().enumerate() {
            let q = q as u32;
            stack.push(root);
            while let Some(idx) = stack.pop() {
                if reach[idx].last() != Some(&q) {
                    reach[idx].push(q);
                    if let Some((a, b)) = self.children(idx) {
                        stack.extend([a, b]);
                    }
                }
            }
        }
        reach
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
    /// materialization), via a throwaway [`ConeWalker`]. A run folds its
    /// members left to right, the order of the chain it stands for.
    /// Returns per-query results (`None` for phrases that did not occur)
    /// and the number of ⊕ applications performed.
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
        let mut ops = 0;
        for slot in 0..walker.slots() {
            let value = match walker.inputs(self, slot) {
                Inputs::Run(members) => {
                    ops += members.len() - 1;
                    let (&first, rest) = members.split_first().expect("runs are non-empty");
                    rest.iter().fold(leaves[first as usize].clone(), |acc, &v| {
                        op.combine(&acc, &leaves[v as usize])
                    })
                }
                Inputs::Merge([a, b]) => {
                    ops += 1;
                    op.combine(
                        operand_value(&memo, leaves, a),
                        operand_value(&memo, leaves, b),
                    )
                }
            };
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
        (results, ops)
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

/// What a walked slot's value is computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inputs<'p> {
    /// A run: the aggregate of these ascending variables.
    Run(&'p [u32]),
    /// A merge: ⊕ of two operands, each a leaf or an earlier slot.
    Merge([Operand; 2]),
}

/// Stack-entry flag: the node's children are scheduled, assign its slot.
const EXPANDED: u32 = 1 << 31;

/// The demand-driven plan traversal: visits exactly the internal nodes
/// under a round's occurring query nodes — the nodes §II-B charges
/// Σᵥ(1 − Π(1 − sr_q)) for, never the whole DAG — children first, and
/// assigns each a dense per-round *slot*. A run is a slot with no
/// children. Evaluators keep one value per slot and fill them in slot
/// order ([`ConeWalker::inputs`] resolves a merge's two children to
/// earlier slots or leaves, and hands a run its members).
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
                    if let Some((a, b)) = plan.children(node) {
                        for child in [a, b] {
                            if child >= var_count && !self.scheduled(var_count, child) {
                                self.stack.push(child as u32);
                            }
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

    /// Number of internal nodes — runs and merges — the current walk
    /// scheduled. An evaluation of it performs their summed
    /// [`PlanDag::weight`] in ⊕ applications, not one per slot.
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

    /// What the node in `slot` is computed from.
    #[inline]
    pub fn inputs<'p>(&self, plan: &'p PlanDag, slot: usize) -> Inputs<'p> {
        let node = self.slot_node[slot] as usize;
        match plan.children(node) {
            Some((a, b)) => Inputs::Merge([self.locate(plan, a), self.locate(plan, b)]),
            None => Inputs::Run(plan.run_members(node).expect("a childless slot is a run")),
        }
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
    use crate::plan::cost::{expected_cost, materialized_cost, phrase_marginal_costs};
    use crate::topk::{KList, ScoredAd, ScoredTopKOp};
    use proptest::prelude::*;
    use ssa_auction::ids::AdvertiserId;
    use ssa_auction::score::Score;

    fn bs(n: usize, elems: &[usize]) -> BitSet {
        BitSet::from_elements(n, elems.iter().copied())
    }

    /// A plan in stage 1's shape: variable `v` belongs to fragment
    /// `owners[v]`, every fragment is a run (a one-member fragment is its
    /// leaf), each `(a, b)` of `merges` merges two fragment-level nodes
    /// picked modulo their count so far, and each of `queries` binds one.
    pub(crate) fn run_plan(
        owners: &[usize],
        merges: &[(usize, usize)],
        queries: &[usize],
    ) -> PlanDag {
        let mut fragments = vec![Vec::new(); owners.iter().max().map_or(0, |&f| f + 1)];
        for (v, &f) in owners.iter().enumerate() {
            fragments[f].push(v as u32);
        }
        let mut plan = PlanDag::new(owners.len());
        let mut nodes: Vec<usize> = fragments
            .iter()
            .filter(|members| !members.is_empty())
            .map(|members| plan.run(members))
            .collect();
        for &(a, b) in merges {
            let merged = plan.merge(nodes[a % nodes.len()], nodes[b % nodes.len()]);
            if !nodes.contains(&merged) {
                nodes.push(merged);
            }
        }
        for &q in queries {
            let vars = plan.vars_owned(nodes[q % nodes.len()]);
            plan.bind_query(&vars);
        }
        plan
    }

    /// [`run_plan`] inputs: 1–4 fragments over 1–200 variables, so runs
    /// of 1–200 members straddle the 64-wide scan chunk.
    pub(crate) fn run_plan_spec(
    ) -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize)>, Vec<usize>)> {
        (
            (1usize..=4, proptest::collection::vec(0usize..4, 1..=200))
                .prop_map(|(k, owners)| owners.into_iter().map(|f| f % k).collect()),
            proptest::collection::vec((0usize..64, 0usize..64), 0..8),
            proptest::collection::vec(0usize..64, 1..5),
        )
    }

    /// `plan` with every run replaced by the left-deep chain of merges it
    /// stands for, in the same place in node order.
    fn expand_runs(plan: &PlanDag) -> PlanDag {
        let mut chains = PlanDag::new(plan.var_count());
        let mut node_of: Vec<usize> = (0..plan.var_count()).collect();
        for idx in plan.var_count()..plan.node_count() {
            node_of.push(match plan.children(idx) {
                Some((a, b)) => chains.merge(node_of[a], node_of[b]),
                None => {
                    let members = plan.run_members(idx).expect("a childless node is a run");
                    chains.merge_chain(&members.iter().map(|&v| v as usize).collect::<Vec<_>>())
                }
            });
        }
        chains.queries = plan.query_nodes().iter().map(|&q| node_of[q]).collect();
        chains
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
    fn a_run_is_one_node_weighing_its_chain() {
        let k = 200;
        let mut plan = PlanDag::new(k + 1);
        let members: Vec<u32> = (0..k as u32).collect();
        let run = plan.run(&members);
        assert_eq!(run, k + 1);
        assert_eq!(plan.node_count(), k + 2);
        assert_eq!(plan.run_members(run), Some(&members[..]));
        assert_eq!(plan.children(run), None);
        assert_eq!((plan.weight(run), plan.total_cost()), (k - 1, k - 1));
        // Past the sparse limit, its set is still the pooled member list.
        assert!(matches!(plan.vars(run), VarSetRef::Sparse { .. }));
        assert_eq!(plan.pool_elems.len(), k);
        // Interned like any node; a one-member run is its leaf.
        let all: Vec<usize> = (0..k).collect();
        assert_eq!(plan.node_for(&bs(k + 1, &all)), Some(run));
        assert_eq!(plan.run(&members), run);
        assert_eq!(plan.run(&[7]), 7);
        let top = plan.merge(run, k);
        assert_eq!((plan.weight(top), plan.total_cost()), (1, k));
        assert_eq!(plan.validate(), Ok(()));
        assert!(!plan.has_overlapping_merges());
    }

    #[test]
    #[should_panic(expected = "ascending variables")]
    fn run_rejects_unsorted_members() {
        PlanDag::new(4).run(&[2, 1]);
    }

    #[test]
    fn merge_promotes_large_unions_to_dense() {
        // Universe 4096 → sparse limit 128. Runs stay sparse at any size,
        // but a merge past the limit must land in dense block storage.
        let n = 4096;
        let mut plan = PlanDag::new(n);
        let a = plan.run(&(0..100).collect::<Vec<_>>());
        let b = plan.run(&(200..300).collect::<Vec<_>>());
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
        assert_eq!(reach[ab], &[0, 1]);
        assert_eq!(reach[2], &[0]);
        assert_eq!(reach[3], &[1]);
        assert_eq!(reach[abc], &[0]);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A run is exactly the chain it stands for: expanding every run
        /// back into its left-deep chain moves no cost, no op count and no
        /// evaluated value.
        #[test]
        fn runs_match_their_expanded_chains(
            (owners, merges, queries) in run_plan_spec(),
            rates in proptest::collection::vec(0.0f64..=1.0, 5),
            mask in proptest::collection::vec(any::<bool>(), 5),
            values in proptest::collection::vec(-50i64..50, 1..16),
            k in 0usize..4,
        ) {
            let plan = run_plan(&owners, &merges, &queries);
            let chains = expand_runs(&plan);
            let n = plan.var_count();
            prop_assert!((n..chains.node_count()).all(|idx| chains.children(idx).is_some()));
            prop_assert_eq!(chains.validate(), Ok(()));
            prop_assert_eq!(chains.total_cost(), chains.node_count() - n);
            prop_assert_eq!(plan.total_cost(), chains.total_cost());
            prop_assert_eq!(plan.extra_cost(), chains.extra_cost());

            let m = plan.query_count();
            let rates: Vec<f64> = (0..m).map(|q| rates[q % 5]).collect();
            let occurring: Vec<bool> = (0..m).map(|q| mask[q % 5]).collect();
            prop_assert_eq!(
                materialized_cost(&plan, &occurring),
                materialized_cost(&chains, &occurring)
            );
            prop_assert!((expected_cost(&plan, &rates) - expected_cost(&chains, &rates)).abs() < 1e-9);
            let marginals = phrase_marginal_costs(&plan, &rates);
            for (a, b) in marginals.iter().zip(phrase_marginal_costs(&chains, &rates)) {
                prop_assert!((a - b).abs() < 1e-9, "marginal {} vs {}", a, b);
            }

            let value = |v: usize| values[v % values.len()];
            let ints: Vec<i64> = (0..n).map(value).collect();
            let klists: Vec<KList<ScoredAd>> = (0..n)
                .map(|v| {
                    let score = Score::new(value(v) as f64);
                    KList::singleton(k, ScoredAd::new(AdvertiserId::from_index(v), score))
                })
                .collect();
            let op = ScoredTopKOp { k };
            prop_assert_eq!(
                plan.evaluate(&op, &klists, &occurring),
                chains.evaluate(&op, &klists, &occurring)
            );
            prop_assert_eq!(
                plan.evaluate(&MaxOp, &ints, &occurring),
                chains.evaluate(&MaxOp, &ints, &occurring)
            );
            if !plan.has_overlapping_merges() {
                prop_assert_eq!(
                    plan.evaluate(&SumOp, &ints, &occurring),
                    chains.evaluate(&SumOp, &ints, &occurring)
                );
            }
        }
    }
}
