//! Scored top-k evaluation over a walked cone: the engine's plan hot path.
//!
//! [`PlanDag::evaluate`] is generic over the operator and clones
//! heap-backed values; a round of winner determination needs neither. Here
//! a node's k-list lives in a flat arena — `k` advertiser indices per
//! [`ConeWalker`] slot — sized by the round's cones, never the population,
//! and kept across rounds. Only the 4-byte index is stored: an
//! advertiser's score is a pure function of its index within one round, so
//! the merge recomputes it from the caller's closure when it needs to
//! compare, and the arena costs a quarter of a `ScoredAd` per item.
//!
//! A run slot (a stage-1 fragment) is filled by the chunked threshold scan
//! of [`KList::scan`], the unshared resolver's kernel, so ⊕ is paid only
//! above the fragments. A merge slot follows [`KList::merge`] exactly:
//! descending by score, ties by ascending advertiser index, the same
//! advertiser reached through two overlapping children emitted once. Both
//! rank exactly as the chain of ⊕ a run stands for would.

use std::cmp::{Ordering, Reverse};

use ssa_auction::ids::AdvertiserId;
use ssa_auction::score::Score;

use crate::topk::{KList, ScoredAd};

use super::{ConeWalker, Inputs, Operand, PlanDag};

/// Persistent per-round scratch for scored top-k plan evaluation.
#[derive(Debug, Clone, Default)]
pub struct TopKCones {
    walker: ConeWalker,
    /// `k` advertiser indices per slot, best first; slot `s` owns
    /// `ids[s * k..][..lens[s]]`. Grown to the largest walk seen, never
    /// cleared (a slot's length says what is live).
    ids: Vec<u32>,
    lens: Vec<u16>,
    /// The `k` of the last [`TopKCones::fill`].
    k: usize,
    /// Scan scratch for run slots, reset per run (`k + 1` capacity).
    run_top: KList<ScoredAd>,
}

impl TopKCones {
    /// An empty evaluator; its scratch is sized by use.
    pub fn new() -> Self {
        TopKCones::default()
    }

    /// Heap footprint in bytes (capacities, so the peak round counts).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.walker.heap_bytes()
            + self.ids.capacity() * size_of::<u32>()
            + self.lens.capacity() * size_of::<u16>()
            + self.run_top.heap_bytes()
    }

    /// Schedules the cones of `roots` (see [`ConeWalker::walk`]). Every
    /// [`TopKCones::fill`] until the next walk evaluates this schedule.
    pub fn walk(&mut self, plan: &PlanDag, roots: impl IntoIterator<Item = usize>) {
        self.walker.walk(plan, roots);
    }

    /// Computes the top-`k` list of every scheduled node, where variable
    /// `v` scores `score(v)`, and returns the number of ⊕ applications
    /// that stands for (a run of `f` members counts `f − 1`).
    ///
    /// # Panics
    /// Panics if `k` exceeds `u16::MAX`.
    pub fn fill(&mut self, plan: &PlanDag, k: usize, score: impl Fn(usize) -> Score) -> usize {
        assert!(k <= usize::from(u16::MAX), "k = {k} slots per auction");
        let slots = self.walker.slots();
        self.k = k;
        grow_exact(&mut self.lens, slots);
        grow_exact(&mut self.ids, slots * k);
        let key = |id: &u32| (score(*id as usize), Reverse(*id));
        let mut ops = 0;
        for slot in 0..slots {
            let (done, rest) = self.ids.split_at_mut(slot * k);
            let out = &mut rest[..k];
            let [a, b] = match self.walker.inputs(plan, slot) {
                Inputs::Run(members) => {
                    ops += members.len() - 1;
                    self.run_top.reset(k);
                    self.run_top.scan(members.len(), |j| {
                        let v = members[j] as usize;
                        ScoredAd::new(AdvertiserId::from_index(v), score(v))
                    });
                    let top = self.run_top.items();
                    for (id, s) in out.iter_mut().zip(top) {
                        *id = s.advertiser.index() as u32;
                    }
                    self.lens[slot] = top.len() as u16;
                    continue;
                }
                Inputs::Merge(operands) => operands,
            };
            ops += 1;
            let (mut leaf_l, mut leaf_r) = ([0], [0]);
            let left = list(a, &mut leaf_l, done, &self.lens, k);
            let right = list(b, &mut leaf_r, done, &self.lens, k);
            let (mut i, mut j, mut n) = (0, 0, 0);
            let (mut head_l, mut head_r) = (left.first().map(key), right.first().map(key));
            while n < k {
                let take_left = match (head_l, head_r) {
                    (Some(l), Some(r)) => match l.cmp(&r) {
                        Ordering::Greater => true,
                        Ordering::Less => false,
                        Ordering::Equal => {
                            // Same advertiser via two paths: consume
                            // both, emit one.
                            j += 1;
                            head_r = right.get(j).map(key);
                            true
                        }
                    },
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_left {
                    out[n] = left[i];
                    i += 1;
                    head_l = left.get(i).map(key);
                } else {
                    out[n] = right[j];
                    j += 1;
                    head_r = right.get(j).map(key);
                }
                n += 1;
            }
            self.lens[slot] = n as u16;
        }
        ops
    }

    /// The variables of `node`'s top-k list, best first, as of the last
    /// fill.
    ///
    /// # Panics
    /// Panics if `node` is an internal node outside the walked cones.
    pub fn top(&self, plan: &PlanDag, node: usize) -> impl Iterator<Item = usize> + '_ {
        let (leaf, slot) = match self.walker.locate(plan, node) {
            Operand::Leaf(v) => (v..v + self.k.min(1), &[][..]),
            Operand::Slot(s) => (0..0, &self.ids[s * self.k..][..usize::from(self.lens[s])]),
        };
        leaf.chain(slot.iter().map(|&id| id as usize))
    }
}

/// Grows `scratch` to at least `len` elements without over-allocating: a
/// new largest cone is a rare record, and the scratch is charged to the
/// hot state by capacity.
fn grow_exact<T: Copy + Default>(scratch: &mut Vec<T>, len: usize) {
    if scratch.len() < len {
        scratch.reserve_exact(len - scratch.len());
        scratch.resize(len, T::default());
    }
}

/// The k-list of `operand` as a slice: a leaf is the singleton of its own
/// index (the empty list at `k = 0`), written to `leaf`; a slot is its
/// live prefix of the arena.
#[inline]
fn list<'a>(
    operand: Operand,
    leaf: &'a mut [u32; 1],
    ids: &'a [u32],
    lens: &[u16],
    k: usize,
) -> &'a [u32] {
    match operand {
        Operand::Leaf(v) => {
            leaf[0] = v as u32;
            &leaf[..k.min(1)]
        }
        Operand::Slot(s) => &ids[s * k..][..usize::from(lens[s])],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::materialized_cost;
    use crate::plan::tests::{run_plan, run_plan_spec};
    use crate::topk::{KList, ScoredAd, ScoredTopKOp};
    use proptest::prelude::*;
    use ssa_auction::ids::AdvertiserId;

    /// A plan over `n` variables from a merge script: each `(a, b)` merges
    /// the two existing nodes it names (modulo the node count so far, so
    /// children overlap freely), and each query seed picks a node — leaves
    /// included — to bind.
    fn build(n: usize, merges: &[(usize, usize)], queries: &[usize]) -> PlanDag {
        let mut plan = PlanDag::new(n);
        for &(a, b) in merges {
            let count = plan.node_count();
            plan.merge(a % count, b % count);
        }
        for &q in queries {
            let vars = plan.vars_owned(q % plan.node_count());
            plan.bind_query(&vars);
        }
        plan
    }

    /// Naive top-k of a node: sort its variables by (score desc, id asc),
    /// variable `v` scoring `scores[v % scores.len()]`.
    fn naive(plan: &PlanDag, node: usize, k: usize, scores: &[u8]) -> Vec<usize> {
        let mut vars: Vec<usize> = plan.vars(node).iter().collect();
        vars.sort_by_key(|&v| (Reverse(scores[v % scores.len()]), v));
        vars.truncate(k);
        vars
    }

    /// One round on `cones`, checked against the naive ranking, the exact
    /// cone size, and the generic `PlanDag::evaluate`.
    fn check_round(cones: &mut TopKCones, plan: &PlanDag, k: usize, scores: &[u8], mask: &[bool]) {
        let occurring: Vec<bool> = (0..plan.query_count())
            .map(|q| mask[q % mask.len()])
            .collect();
        let roots = || {
            plan.query_nodes()
                .iter()
                .zip(&occurring)
                .filter(|(_, &occ)| occ)
                .map(|(&node, _)| node)
        };
        let score = |v: usize| Score::new(f64::from(scores[v % scores.len()]));
        cones.walk(plan, roots());
        let ops = cones.fill(plan, k, score);

        assert_eq!(
            ops,
            materialized_cost(plan, &occurring),
            "⊕ count is the occurring cones' size"
        );

        let leaves: Vec<KList<ScoredAd>> = (0..plan.var_count())
            .map(|v| KList::singleton(k, ScoredAd::new(AdvertiserId::from_index(v), score(v))))
            .collect();
        let (generic, generic_ops) = plan.evaluate(&ScoredTopKOp { k }, &leaves, &occurring);
        assert_eq!(generic_ops, ops);
        for (q, &node) in plan.query_nodes().iter().enumerate() {
            if !occurring[q] {
                assert!(generic[q].is_none());
                continue;
            }
            let got: Vec<usize> = cones.top(plan, node).collect();
            assert_eq!(got, naive(plan, node, k, scores), "query {q} node {node}");
            let via_klists: Vec<usize> = generic[q]
                .as_ref()
                .expect("occurring")
                .items()
                .iter()
                .map(|s| s.advertiser.index())
                .collect();
            assert_eq!(got, via_klists, "query {q}: generic evaluate disagrees");
        }
    }

    #[test]
    fn edge_cases_on_one_scratch() {
        // {0,1} ∪ {1,2} overlaps at 1; query 2 is the bare leaf 3.
        let mut plan = PlanDag::new(4);
        let ab = plan.merge(0, 1);
        let bc = plan.merge(1, 2);
        let abc = plan.merge(ab, bc);
        for node in [abc, ab, 3] {
            let vars = plan.vars_owned(node);
            plan.bind_query(&vars);
        }
        assert!(plan.has_overlapping_merges());
        let mut cones = TopKCones::new();
        let all = [true];
        for k in [0, 1, 2, 5] {
            check_round(&mut cones, &plan, k, &[3, 9, 9, 1], &all);
            // All-zero bids: ranking is ascending id.
            check_round(&mut cones, &plan, k, &[0; 4], &all);
            // Nothing occurs, then only the leaf-bound query.
            check_round(&mut cones, &plan, k, &[3, 9, 9, 1], &[false]);
            check_round(&mut cones, &plan, k, &[3, 9, 9, 1], &[false, false, true]);
        }
        // A smaller plan on the same scratch: node 4 is a different node
        // now, and the old slot index must not vouch for it.
        let small = build(3, &[(0, 2)], &[3, 1]);
        check_round(&mut cones, &small, 2, &[5, 5, 7], &all);
        check_round(&mut cones, &plan, 2, &[3, 9, 9, 1], &[true, false]);
    }

    #[test]
    #[should_panic(expected = "not under a walked root")]
    fn top_rejects_a_node_outside_the_walk() {
        let plan = build(4, &[(0, 1), (2, 3)], &[4, 5]);
        let mut cones = TopKCones::new();
        cones.walk(&plan, [4, 5]);
        cones.fill(&plan, 2, |_| Score::ZERO);
        // Slot 1 held node 5 last round; this round walks only node 4.
        cones.walk(&plan, [4]);
        cones.fill(&plan, 2, |_| Score::ZERO);
        let _ = cones.top(&plan, 5).count();
    }

    type PlanSpec = (usize, Vec<(usize, usize)>, Vec<usize>);

    fn plan_spec() -> impl Strategy<Value = PlanSpec> {
        (
            1usize..10,
            proptest::collection::vec((0usize..64, 0usize..64), 0..14),
            proptest::collection::vec(0usize..64, 1..6),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Consecutive rounds — alternating between two unrelated plans —
        /// on one scratch agree with the naive per-query ranking: a slot
        /// left over from an earlier round or plan is never read.
        #[test]
        fn consecutive_rounds_match_naive(
            first in plan_spec(),
            second in plan_spec(),
            k in 0usize..5,
            rounds in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..4, 10),
                    proptest::collection::vec(any::<bool>(), 1..6),
                ),
                1..7,
            ),
        ) {
            let plans = [first, second].map(|(n, merges, queries)| build(n, &merges, &queries));
            let mut cones = TopKCones::new();
            for (round, (scores, mask)) in rounds.iter().enumerate() {
                check_round(&mut cones, &plans[round % 2], k, scores, mask);
            }
        }

        /// The same on stage-1-shaped plans whose fragments are runs of
        /// 1–200 members (scanned in 64-wide chunks), under score spreads
        /// from all-equal (pure id tie-break) to 16 distinct values.
        #[test]
        fn run_plans_match_naive(
            first in run_plan_spec(),
            second in run_plan_spec(),
            k in 0usize..5,
            rounds in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..16, 1..40),
                    any::<bool>(),
                    proptest::collection::vec(any::<bool>(), 1..6),
                ),
                1..5,
            ),
        ) {
            let plans = [first, second]
                .map(|(owners, merges, queries)| run_plan(&owners, &merges, &queries));
            let mut cones = TopKCones::new();
            for (round, (scores, flat, mask)) in rounds.iter().enumerate() {
                let scores = if *flat { &scores[..1] } else { &scores[..] };
                check_round(&mut cones, &plans[round % 2], k, scores, mask);
            }
        }
    }
}
