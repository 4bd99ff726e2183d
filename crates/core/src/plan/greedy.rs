//! Stage 2 of the heuristic: greedy plan completion.
//!
//! "At every step, we find two nodes that would aggregate together to form
//! a new node that would lead to the greatest decrease in `Σ_q |C_q|` per
//! unit extra cost … If there are multiple pairs of nodes that would cover
//! some previously uncovered query, then we pick the pair with the highest
//! coverage gain." Because minimum set cover is itself inapproximable, the
//! cover `C_q` used throughout is the one "prescribed by the greedy
//! covering algorithm", and in the probabilistic setting gains are
//! weighted by search rates (*expected greedy coverage gain*), so "the
//! algorithm favors the covering and sharing of the queries that are more
//! probable over rare queries".
//!
//! # Lazy-greedy completion
//!
//! The literal transcription of the rule — re-enumerate every node pair
//! and re-run every greedy cover at every step — is quadratic per step
//! and hangs past a few hundred advertisers; it lives in `ssa-testkit`
//! (`plan_oracle::reference_plan`) as the oracle this module's plans are
//! cost-checked against. [`Completion`] is a lazy/incremental rewrite of
//! the same selection rule, run at every size:
//!
//! * candidate merge pairs live in a max-heap keyed by their cached
//!   expected coverage gain, with version-stamped entries so stale scores
//!   are skipped on pop instead of eagerly deleted;
//! * the gain of a pair is its dominant term: merging two members of
//!   `C_q` shrinks `|C_q|` by one, so a pair scores `Σ sr_q` over the
//!   uncovered queries whose current greedy covers use both endpoints,
//!   and only pairs among a query's first [`PAIR_SOURCE_CAP`] cover
//!   members are candidates at all;
//! * materializing a node `w*` can only change the cover of queries
//!   `q ⊇ w*`, so each step recomputes only those *affected* covers and
//!   re-scores only the candidates touching a node that entered or left
//!   one (gains are **not** monotone under new nodes, so pop-time
//!   revalidation alone would be unsound; dirty-tracking by affected
//!   query is what keeps the cached heap exact).
//!
//! # Candidate pools at population scale
//!
//! Both completions keep *per-query candidate pools* instead of
//! rescanning every plan node: a query's pool is its stage-1 fragment
//! nodes plus the completion-created nodes inside `X_q`, absorbed in
//! ascending index order. For the cover-chain completion this is provably
//! the same selection sequence as a full scan — every greedy pick
//! is fragment-aligned by induction (fragments are equivalence classes,
//! so each is entirely inside or entirely outside any candidate the loop
//! creates), and the full scan's extra candidates (the member leaves of
//! multi-variable fragments' runs) are strictly gain-dominated by their
//! run while it has uncovered variables and contribute zero gain
//! afterwards, so a full scan never picks them either.
//! What the pools buy is scale: membership tests go through each node's
//! minimum variable's fragment signature (exact, not heuristic — `w ⊆
//! X_q` forces `q` into that signature), so absorbing a node costs its
//! signature size, not `O(m)` dense set probes.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use ssa_setcover::greedy::greedy_cover_views;
use ssa_setcover::{AsVarSetRef, BitSet, VarSet, VarSetRef};

use crate::bloom::{mix1, mix2};

use super::fragments::{build_fragment_plan, Fragments};
use super::{PlanDag, PlanProblem};

/// Cover members per query used as pair sources each round (the greedy
/// cover lists its biggest sets first, so these are the most shareable).
const PAIR_SOURCE_CAP: usize = 12;

/// Hard step budget (beyond it the cover-chain safety net finishes the
/// plan deterministically).
fn step_limit(query_count: usize) -> usize {
    8 * query_count + 64
}

/// A two-probe Bloom signature of a query set packed into one bare `u64`
/// (no allocation per node — there can be millions).
#[inline]
fn sig_bloom_word(q: usize) -> u64 {
    (1u64 << (mix1(q as u64) & 63)) | (1u64 << (mix2(q as u64) & 63))
}

/// How much work the planner puts into sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// The full Section II-D algorithm: fragments, then pairwise greedy
    /// completion driven by expected greedy coverage gain.
    #[default]
    Full,
    /// Fragments only, then each query completed by chaining its greedy
    /// cover (most-probable queries first). The ablation baseline
    /// ("fragments-only") of the experiments.
    FragmentsOnly,
}

/// The Section II-D shared-aggregation planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedPlanner {
    /// Completion strategy.
    pub mode: PlannerMode,
}

impl SharedPlanner {
    /// A planner running the full heuristic.
    pub fn full() -> Self {
        SharedPlanner {
            mode: PlannerMode::Full,
        }
    }

    /// A planner running stage 1 plus simple per-query completion.
    pub fn fragments_only() -> Self {
        SharedPlanner {
            mode: PlannerMode::FragmentsOnly,
        }
    }

    /// Builds a shared plan computing every query in `problem`. The
    /// returned plan is validated and has all queries bound in input
    /// order.
    pub fn plan(&self, problem: &PlanProblem) -> PlanDag {
        let (mut plan, fragments, per_query) = build_fragment_plan(problem);
        let frag_stage_end = plan.node_count();
        match self.mode {
            PlannerMode::Full => {
                Completion::run(&mut plan, problem, &fragments, &per_query, frag_stage_end)
            }
            PlannerMode::FragmentsOnly => {
                complete_by_cover_chains(&mut plan, problem, &fragments, &per_query, frag_stage_end)
            }
        }
        for q in &problem.queries {
            plan.bind_query(q);
        }
        debug_assert_eq!(plan.validate(), Ok(()));
        plan
    }
}

/// Fast completion: for each query in descending search-rate order, chain
/// together its greedy cover. Intermediate chain nodes enter the plan and
/// are reusable by later queries.
///
/// Covers are computed over per-query pools (the query's fragment nodes
/// plus completion nodes inside it, ascending) rather than a scan of all
/// nodes — identical selections, see the module docs for the dominance
/// argument.
fn complete_by_cover_chains(
    plan: &mut PlanDag,
    problem: &PlanProblem,
    fragments: &Fragments,
    fragment_nodes: &[Vec<usize>],
    frag_stage_end: usize,
) {
    let m = problem.query_count();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| {
        problem.search_rates[b]
            .total_cmp(&problem.search_rates[a])
            .then(a.cmp(&b))
    });
    let mut remaining: Vec<bool> = (0..m)
        .map(|q| plan.node_for(&problem.queries[q]).is_none())
        .collect();
    let mut pools: Vec<Vec<usize>> = fragment_nodes
        .iter()
        .map(|f| {
            let mut p = f.clone();
            p.sort_unstable();
            p.dedup();
            p
        })
        .collect();
    // Absorbs nodes `from..` into the pools of still-uncovered queries, in
    // ascending index order. Membership is filtered through the node's
    // minimum variable's fragment signature — exact: `w ⊆ X_q` requires
    // `q` to contain every variable of `w`, in particular its minimum —
    // then verified by a sparse subset test.
    let mut absorbed = frag_stage_end;
    macro_rules! absorb_new_nodes {
        () => {
            for idx in absorbed..plan.node_count() {
                let v = plan.vars(idx).first().expect("plan nodes are non-empty");
                let f = fragments.frag_of[v];
                if f == u32::MAX {
                    continue;
                }
                for q in fragments.fragments[f as usize].signature.iter() {
                    if remaining[q] && plan.vars(idx).is_subset(problem.queries[q].as_set_ref()) {
                        pools[q].push(idx);
                    }
                }
            }
            absorbed = plan.node_count();
        };
    }
    // Safety-net entry: completion nodes may already exist.
    absorb_new_nodes!();
    for q in order {
        if !remaining[q] {
            continue;
        }
        if plan.node_for(&problem.queries[q]).is_some() {
            remaining[q] = false;
            continue;
        }
        let chain: Vec<usize> = {
            let views: Vec<VarSetRef<'_>> = pools[q].iter().map(|&i| plan.vars(i)).collect();
            let cover = greedy_cover_views(problem.queries[q].as_set_ref(), &views)
                .expect("fragment nodes partition their query");
            cover.chosen.iter().map(|&pos| pools[q][pos]).collect()
        };
        plan.merge_chain(&chain);
        remaining[q] = false;
        absorb_new_nodes!();
    }
}

/// A max-heap entry. Ordering mirrors the paper's selection rule:
/// query-forming candidates first, then highest cached gain, ties to the
/// lexicographically smallest generating pair.
#[derive(Debug)]
struct HeapEntry {
    forms_query: bool,
    gain: f64,
    pair: (usize, usize),
    id: u32,
    version: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.forms_query
            .cmp(&other.forms_query)
            .then(self.gain.total_cmp(&other.gain))
            .then(other.pair.cmp(&self.pair))
            .then(self.id.cmp(&other.id))
            .then(self.version.cmp(&other.version))
    }
}

/// A candidate pair. Gains are the cover-membership estimate (see
/// [`Completion`]), so no per-query contribution list is kept.
struct Candidate {
    w: VarSet,
    pair: (usize, usize),
    gain: f64,
    forms_query: bool,
    version: u32,
    alive: bool,
    dirty: bool,
}

/// The lazy-greedy completion (stage 2 of [`PlannerMode::Full`]).
///
/// Exact per-candidate greedy covers are what make the paper's rule
/// expensive as written, so they are replaced with the dominant term of
/// the true gain: merging two *current cover members* of query `q` shrinks
/// `|C_q|` by one, so a pair is scored `Σ rate_q` over the queries whose
/// greedy covers use both endpoints (tracked per node as a cover-
/// signature set with a one-word Bloom pre-check). The candidate universe
/// is capped per query to pairs of its [`PAIR_SOURCE_CAP`] first cover
/// members — the greedy cover lists its biggest, most shareable sets
/// first — instead of all O(n²) node pairs. Cover pools are anchored on
/// the stage-1 fragment nodes (which partition each query, so capping
/// never loses feasibility) plus every node merged during completion.
///
/// Per-node state is *slot-compacted*: only pool members get a dense
/// slot, so the transient planner state scales with the participant
/// count, not with `var_count + internal nodes` (which would be millions
/// of empty signature sets at population scale).
struct Completion<'a> {
    problem: &'a PlanProblem,
    fragments: &'a Fragments,
    covered: Vec<bool>,
    uncovered_left: usize,
    /// Per query: cover-candidate pool (fragment nodes + completion
    /// nodes inside the query), ascending.
    sets: Vec<Vec<usize>>,
    /// Per query: its current greedy cover, in selection order.
    cover: Vec<Vec<usize>>,
    /// Node index → dense participant slot (`u32::MAX` = no slot yet).
    slot_of: Vec<u32>,
    /// Per slot: the uncovered queries whose current cover uses the node
    /// (sparse over the query universe).
    csig: Vec<VarSet>,
    /// One-word Bloom mirror of `csig` (rebuilt on change).
    csig_bloom: Vec<u64>,
    /// Per slot: candidates generated from the node, for dirty
    /// propagation.
    node_cands: Vec<Vec<u32>>,
    cands: Vec<Candidate>,
    by_union: HashMap<VarSet, u32>,
    heap: BinaryHeap<HeapEntry>,
    dirty: Vec<u32>,
}

impl<'a> Completion<'a> {
    /// Completes `plan` in place. `fragment_nodes` holds each query's
    /// stage-1 fragment node indices, the anchors of its cover pool.
    fn run(
        plan: &mut PlanDag,
        problem: &'a PlanProblem,
        fragments: &'a Fragments,
        fragment_nodes: &[Vec<usize>],
        frag_stage_end: usize,
    ) {
        let m = problem.query_count();
        let max_steps = (problem.total_query_size() + m + 4).min(step_limit(m));
        let mut state = Completion {
            problem,
            fragments,
            covered: vec![false; m],
            uncovered_left: m,
            sets: vec![Vec::new(); m],
            cover: vec![Vec::new(); m],
            slot_of: vec![u32::MAX; plan.node_count()],
            csig: Vec::new(),
            csig_bloom: Vec::new(),
            node_cands: Vec::new(),
            cands: Vec::new(),
            by_union: HashMap::new(),
            heap: BinaryHeap::new(),
            dirty: Vec::new(),
        };
        for (q, frag_pool) in fragment_nodes.iter().enumerate().take(m) {
            if plan.node_for(&problem.queries[q]).is_some() {
                state.covered[q] = true;
                state.uncovered_left -= 1;
                continue;
            }
            let mut pool = frag_pool.clone();
            pool.sort_unstable();
            pool.dedup();
            state.sets[q] = pool;
            state.recompute_cover(plan, q);
        }
        for q in 0..m {
            if !state.covered[q] {
                state.generate_pairs(plan, q);
            }
        }
        state.flush_dirty();
        for _ in 0..max_steps {
            if state.uncovered_left == 0 {
                return;
            }
            let before = plan.node_count();
            match state.pop_best() {
                Some(id) => {
                    let (i, j) = state.cands[id as usize].pair;
                    plan.merge(i, j);
                }
                None => {
                    let q = state.most_probable_uncovered();
                    let chain = state.cover[q].clone();
                    plan.merge_chain(&chain);
                }
            }
            state.absorb(plan, before);
        }
        complete_by_cover_chains(plan, problem, fragments, fragment_nodes, frag_stage_end);
    }

    /// The dense slot for node `idx`, allocating on first use.
    fn ensure_slot(&mut self, idx: usize) -> usize {
        let cur = self.slot_of[idx];
        if cur != u32::MAX {
            return cur as usize;
        }
        let slot = self.csig.len();
        self.slot_of[idx] = slot as u32;
        self.csig.push(VarSet::new(self.problem.query_count()));
        self.csig_bloom.push(0);
        self.node_cands.push(Vec::new());
        slot
    }

    /// Recomputes `q`'s greedy cover over its pool and maintains the
    /// cover-signature sets of nodes entering or leaving it. Touched
    /// nodes' candidates are queued for re-scoring.
    fn recompute_cover(&mut self, plan: &PlanDag, q: usize) {
        let old = std::mem::take(&mut self.cover[q]);
        for &i in &old {
            let slot = self.slot_of[i] as usize;
            self.csig[slot].remove(q);
        }
        let chosen = {
            let views: Vec<VarSetRef<'_>> = self.sets[q].iter().map(|&i| plan.vars(i)).collect();
            let cover = greedy_cover_views(self.problem.queries[q].as_set_ref(), &views)
                .expect("fragment nodes partition their query");
            cover
                .chosen
                .iter()
                .map(|&pos| self.sets[q][pos])
                .collect::<Vec<usize>>()
        };
        for &i in &chosen {
            let slot = self.ensure_slot(i);
            self.csig[slot].insert(q);
        }
        for &i in old.iter().chain(&chosen) {
            let slot = self.slot_of[i] as usize;
            self.rebuild_bloom(slot);
            for ci in 0..self.node_cands[slot].len() {
                let id = self.node_cands[slot][ci];
                self.mark_dirty(id);
            }
        }
        self.cover[q] = chosen;
    }

    fn rebuild_bloom(&mut self, slot: usize) {
        let mut word = 0u64;
        for q in self.csig[slot].iter() {
            word |= sig_bloom_word(q);
        }
        self.csig_bloom[slot] = word;
    }

    /// Candidate pairs from `q`'s current cover: all pairs among its
    /// first [`PAIR_SOURCE_CAP`] members (the per-query candidate cap).
    fn generate_pairs(&mut self, plan: &PlanDag, q: usize) {
        let sources: Vec<usize> = self.cover[q]
            .iter()
            .take(PAIR_SOURCE_CAP)
            .copied()
            .collect();
        for a in 0..sources.len() {
            for b in (a + 1)..sources.len() {
                let (i, j) = if sources[a] < sources[b] {
                    (sources[a], sources[b])
                } else {
                    (sources[b], sources[a])
                };
                self.consider_pair(plan, i, j);
            }
        }
    }

    /// Scores `(i, j)` by cover membership: the rate-weighted count of
    /// uncovered queries whose greedy covers use both endpoints.
    fn score(&self, i: usize, j: usize, w: &VarSet) -> (f64, bool) {
        let si = self.slot_of[i] as usize;
        let sj = self.slot_of[j] as usize;
        let shared = self.csig[si].intersection(&self.csig[sj]);
        let mut gain = 0.0;
        let mut forms_query = false;
        for q in shared.iter() {
            if self.covered[q] {
                continue;
            }
            gain += self.problem.search_rates[q];
            forms_query |= *w == self.problem.queries[q];
        }
        (gain, forms_query)
    }

    fn consider_pair(&mut self, plan: &PlanDag, i: usize, j: usize) {
        let si = self.slot_of[i] as usize;
        let sj = self.slot_of[j] as usize;
        if self.csig_bloom[si] & self.csig_bloom[sj] == 0 {
            return; // covers definitely share no query
        }
        if self.csig[si].is_disjoint(&self.csig[sj]) {
            return;
        }
        let w = plan.vars_owned(i).union(&plan.vars(j));
        if plan.node_for(&w).is_some() {
            return;
        }
        if let Some(&id) = self.by_union.get(&w) {
            if self.cands[id as usize].alive && (i, j) < self.cands[id as usize].pair {
                self.cands[id as usize].pair = (i, j);
                self.mark_dirty(id);
            }
            return;
        }
        let (gain, forms_query) = self.score(i, j, &w);
        if gain <= 0.0 && !forms_query {
            return;
        }
        let id = self.cands.len() as u32;
        self.by_union.insert(w.clone(), id);
        self.node_cands[si].push(id);
        self.node_cands[sj].push(id);
        self.cands.push(Candidate {
            w,
            pair: (i, j),
            gain,
            forms_query,
            version: 0,
            alive: true,
            dirty: true,
        });
        self.dirty.push(id);
    }

    fn most_probable_uncovered(&self) -> usize {
        (0..self.problem.query_count())
            .filter(|&q| !self.covered[q])
            .max_by(|&a, &b| {
                self.problem.search_rates[a]
                    .total_cmp(&self.problem.search_rates[b])
                    .then(b.cmp(&a))
            })
            .expect("called with uncovered queries remaining")
    }

    fn mark_dirty(&mut self, id: u32) {
        if !self.cands[id as usize].dirty {
            self.cands[id as usize].dirty = true;
            self.dirty.push(id);
        }
    }

    fn kill(&mut self, id: u32) {
        if self.cands[id as usize].alive {
            self.cands[id as usize].alive = false;
            let w = self.cands[id as usize].w.clone();
            self.by_union.remove(&w);
        }
    }

    /// Folds the plan nodes `from..` in: extends the pools of the
    /// queries containing them, retires completed queries, recomputes
    /// only the affected covers, and regenerates their candidate pairs.
    ///
    /// Pool membership goes through the new node's minimum variable's
    /// fragment signature — an exact filter (`w ⊆ X_q` forces `q` into
    /// that signature), so absorbing costs the signature size instead of
    /// a subset probe against every query.
    fn absorb(&mut self, plan: &PlanDag, from: usize) {
        let m = self.problem.query_count();
        let mut affected = BitSet::new(m);
        self.slot_of.resize(plan.node_count(), u32::MAX);
        for idx in from..plan.node_count() {
            let v = plan.vars(idx).first().expect("plan nodes are non-empty");
            let f = self.fragments.frag_of[v];
            if f == u32::MAX {
                continue;
            }
            for q in self.fragments.fragments[f as usize].signature.iter() {
                if !self.covered[q]
                    && plan
                        .vars(idx)
                        .is_subset(self.problem.queries[q].as_set_ref())
                {
                    self.sets[q].push(idx);
                    affected.insert(q);
                }
            }
        }
        for q in affected.iter() {
            if !self.covered[q] && plan.node_for(&self.problem.queries[q]).is_some() {
                self.covered[q] = true;
                self.uncovered_left -= 1;
                // Free the retired cover's signature bits so stale
                // membership never scores again.
                let old = std::mem::take(&mut self.cover[q]);
                for &i in &old {
                    let slot = self.slot_of[i] as usize;
                    self.csig[slot].remove(q);
                    self.rebuild_bloom(slot);
                    for ci in 0..self.node_cands[slot].len() {
                        let id = self.node_cands[slot][ci];
                        self.mark_dirty(id);
                    }
                }
            }
        }
        for idx in from..plan.node_count() {
            if let Some(&id) = self.by_union.get(&plan.vars_owned(idx)) {
                self.kill(id);
            }
        }
        for q in affected.iter() {
            if self.covered[q] {
                continue;
            }
            self.recompute_cover(plan, q);
            self.generate_pairs(plan, q);
        }
        self.flush_dirty();
    }

    /// Re-scores dirty candidates against current cover signatures and
    /// publishes fresh heap entries.
    fn flush_dirty(&mut self) {
        let list = std::mem::take(&mut self.dirty);
        for id in list {
            self.cands[id as usize].dirty = false;
            if !self.cands[id as usize].alive {
                continue;
            }
            let (i, j) = self.cands[id as usize].pair;
            let w = self.cands[id as usize].w.clone();
            let (gain, forms_query) = self.score(i, j, &w);
            let c = &mut self.cands[id as usize];
            c.gain = gain;
            c.forms_query = forms_query;
            c.version += 1;
            self.heap.push(HeapEntry {
                forms_query,
                gain,
                pair: c.pair,
                id,
                version: c.version,
            });
        }
    }

    fn pop_best(&mut self) -> Option<u32> {
        while let Some(top) = self.heap.pop() {
            let c = &self.cands[top.id as usize];
            if !c.alive || c.version != top.version {
                continue;
            }
            if c.forms_query || c.gain > 0.0 {
                return Some(top.id);
            }
            self.heap.push(top);
            return None;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::{expected_cost, unshared_expected_cost};
    use proptest::prelude::*;

    fn bs(n: usize, elems: &[usize]) -> BitSet {
        BitSet::from_elements(n, elems.iter().copied())
    }

    fn assert_complete(plan: &PlanDag, problem: &PlanProblem) {
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(plan.query_count(), problem.query_count());
        for (q, &idx) in plan.query_nodes().iter().enumerate() {
            assert_eq!(
                plan.vars(idx),
                problem.queries[q],
                "query {q} bound to wrong node"
            );
        }
    }

    #[test]
    fn plans_the_hiking_boots_example() {
        // 0..3 general stores (both), 4..5 sports (q0), 6..7 fashion (q1).
        let q0 = bs(8, &[0, 1, 2, 3, 4, 5]);
        let q1 = bs(8, &[0, 1, 2, 3, 6, 7]);
        let problem = PlanProblem::new(8, vec![q0, q1], None);
        for planner in [SharedPlanner::full(), SharedPlanner::fragments_only()] {
            let plan = planner.plan(&problem);
            assert_complete(&plan, &problem);
            // Shared: general chain (3) + sports chain (1) + fashion chain
            // (1) + 2 combine nodes per query = 3+1+1+2+2 = 9.
            // Unshared: 5 + 5 = 10. Sharing must not be worse.
            assert!(
                plan.total_cost() <= 10,
                "cost {} exceeds unshared",
                plan.total_cost()
            );
            // The shared {0,1,2,3} fragment node must exist.
            assert!(plan.node_for(&bs(8, &[0, 1, 2, 3])).is_some());
        }
    }

    #[test]
    fn single_query_is_a_chain() {
        let problem = PlanProblem::new(4, vec![bs(4, &[0, 1, 2, 3])], None);
        let plan = SharedPlanner::full().plan(&problem);
        assert_complete(&plan, &problem);
        assert_eq!(plan.total_cost(), 3, "n-1 merges for one query");
        assert_eq!(plan.extra_cost(), 2);
    }

    #[test]
    fn variable_query_costs_nothing() {
        let problem = PlanProblem::new(3, vec![bs(3, &[1])], None);
        let plan = SharedPlanner::full().plan(&problem);
        assert_complete(&plan, &problem);
        assert_eq!(plan.total_cost(), 0);
        assert_eq!(plan.extra_cost(), 0);
    }

    #[test]
    fn nested_queries_share_prefixes() {
        // q0 ⊂ q1 ⊂ q2: the plan should build q0, extend to q1, extend to
        // q2 — total cost |q2| - 1, extra cost |q2| - 1 - 3.
        let problem = PlanProblem::new(
            6,
            vec![
                bs(6, &[0, 1]),
                bs(6, &[0, 1, 2, 3]),
                bs(6, &[0, 1, 2, 3, 4, 5]),
            ],
            None,
        );
        let plan = SharedPlanner::full().plan(&problem);
        assert_complete(&plan, &problem);
        assert_eq!(plan.total_cost(), 5, "chain through the nest");
        assert_eq!(plan.extra_cost(), 2);
    }

    #[test]
    fn both_modes_beat_unshared_and_stay_close() {
        // The full heuristic optimizes a greedy-coverage proxy rather than
        // expected cost directly, so it is not guaranteed to dominate the
        // fragments-only baseline on every instance — but both must beat
        // the unshared baseline, and they should land close together.
        let problem = PlanProblem::new(
            10,
            vec![
                bs(10, &[0, 1, 2, 3, 4]),
                bs(10, &[0, 1, 2, 5, 6]),
                bs(10, &[0, 1, 2, 3, 4, 5, 6]),
                bs(10, &[7, 8, 9]),
            ],
            Some(vec![0.9, 0.8, 0.5, 0.3]),
        );
        let full = SharedPlanner::full().plan(&problem);
        let frag = SharedPlanner::fragments_only().plan(&problem);
        assert_complete(&full, &problem);
        assert_complete(&frag, &problem);
        let full_cost = expected_cost(&full, &problem.search_rates);
        let frag_cost = expected_cost(&frag, &problem.search_rates);
        let unshared = unshared_expected_cost(&problem);
        assert!(
            full_cost < unshared,
            "full {full_cost} vs unshared {unshared}"
        );
        assert!(
            frag_cost < unshared,
            "frag {frag_cost} vs unshared {unshared}"
        );
        assert!(
            (full_cost - frag_cost).abs() / frag_cost < 0.25,
            "modes should land close: full {full_cost} vs frag {frag_cost}"
        );
    }

    #[test]
    fn shared_plan_beats_unshared_on_overlapping_queries() {
        let problem = PlanProblem::new(
            12,
            vec![
                bs(12, &[0, 1, 2, 3, 4, 5, 6, 7]),
                bs(12, &[0, 1, 2, 3, 4, 5, 8, 9]),
                bs(12, &[0, 1, 2, 3, 4, 5, 10, 11]),
            ],
            Some(vec![0.9, 0.9, 0.9]),
        );
        let plan = SharedPlanner::full().plan(&problem);
        let shared = expected_cost(&plan, &problem.search_rates);
        let unshared = unshared_expected_cost(&problem);
        assert!(
            shared < unshared,
            "shared {shared} must beat unshared {unshared}"
        );
    }

    #[test]
    fn duplicate_queries_share_one_node() {
        let problem = PlanProblem::new(4, vec![bs(4, &[0, 1, 2]), bs(4, &[0, 1, 2])], None);
        let plan = SharedPlanner::full().plan(&problem);
        assert_complete(&plan, &problem);
        assert_eq!(plan.total_cost(), 2, "computed once");
        assert_eq!(
            plan.query_nodes()[0],
            plan.query_nodes()[1],
            "both queries bound to the same node"
        );
    }

    /// Sizes straddling what used to be the exact/capped gate (128
    /// variables): the one completion must behave the same on both sides.
    const SIZES: [usize; 4] = [15, 60, 150, 600];

    #[test]
    fn completion_shares_the_common_block_at_every_size() {
        // Three queries sharing 40% of the universe, each with a private
        // 20%: whatever the size, the plan must be valid, bound, cheaper
        // than three separate chains, and built on the shared block.
        for n in SIZES {
            let fifth = n / 5;
            let shared: Vec<usize> = (0..2 * fifth).collect();
            let queries: Vec<BitSet> = (0..3)
                .map(|k| {
                    let mut q = shared.clone();
                    q.extend((2 + k) * fifth..(3 + k) * fifth);
                    bs(n, &q)
                })
                .collect();
            let problem = PlanProblem::new(n, queries, Some(vec![0.9, 0.8, 0.7]));
            let plan = SharedPlanner::full().plan(&problem);
            assert_complete(&plan, &problem);
            let naive: usize = problem.queries.iter().map(|s| s.len() - 1).sum();
            assert!(
                plan.total_cost() < naive,
                "n={n}: completion must still share: {} vs naive {naive}",
                plan.total_cost()
            );
            assert!(
                plan.node_for(&bs(n, &shared)).is_some(),
                "n={n}: the shared block is the whole point"
            );
        }
    }

    #[test]
    fn completion_is_deterministic_at_every_size() {
        for n in SIZES {
            let queries: Vec<BitSet> = (0..6)
                .map(|k| {
                    let members: Vec<usize> = (0..n).filter(|v| (v + k) % 3 != 0).collect();
                    bs(n, &members)
                })
                .collect();
            let rates = vec![0.9, 0.7, 0.6, 0.5, 0.4, 0.3];
            let problem = PlanProblem::new(n, queries, Some(rates));
            let a = SharedPlanner::full().plan(&problem);
            let b = SharedPlanner::full().plan(&problem);
            assert_complete(&a, &problem);
            assert_eq!(a.node_count(), b.node_count(), "n={n}");
            for idx in 0..a.node_count() {
                assert_eq!(a.vars(idx), b.vars(idx), "n={n}");
                assert_eq!(a.children(idx), b.children(idx), "n={n}");
            }
            assert_eq!(a.query_nodes(), b.query_nodes(), "n={n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Both planner modes always produce a valid, complete plan whose
        /// cost never exceeds the unshared baseline at sr = 1.
        #[test]
        fn planner_soundness(
            sets in proptest::collection::vec(
                proptest::collection::btree_set(0usize..9, 1..7), 1..6),
            rates in proptest::collection::vec(0.05f64..=1.0, 6),
        ) {
            let queries: Vec<BitSet> = sets
                .iter()
                .map(|s| BitSet::from_elements(9, s.iter().copied()))
                .collect();
            let m = queries.len();
            let problem = PlanProblem::new(9, queries, Some(rates[..m].to_vec()));
            for planner in [SharedPlanner::full(), SharedPlanner::fragments_only()] {
                let plan = planner.plan(&problem);
                assert_complete(&plan, &problem);
                // Total cost never exceeds building every query separately.
                let naive: usize = problem
                    .queries
                    .iter()
                    .map(|s| s.len().saturating_sub(1))
                    .sum();
                prop_assert!(
                    plan.total_cost() <= naive,
                    "cost {} vs naive {naive}", plan.total_cost()
                );
            }
        }
    }
}
