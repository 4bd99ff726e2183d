//! The Section III resolver: persistent shared merge network + TA.

use std::time::Instant;

use ssa_auction::ids::{AdvertiserId, PhraseId};
use ssa_auction::money::Money;
use ssa_auction::score::Score;
use ssa_auction::winner::assignment_from_ranking;
use ssa_workload::Workload;

use crate::sort::planner::{build_shared_sort_plan_sparse, SortPlan};
use crate::sort::ta::{threshold_top_k_into, TaScratch};
use crate::sort::{LeafCones, MergeNetwork, RefreshStats, SortItem};

use super::super::{AuctionOutcome, EngineMetrics};
use super::{PhraseResolver, RoundContext};

/// Shared merge-sort + Threshold Algorithm over a (possibly strict)
/// subset of the workload's phrases. The merge network lives for the
/// lifetime of the [`SortPlan`]; its leaves are the plan's runs, one per
/// Section II-D fragment. Each `resolve` first diffs the runs under the
/// phrases it is handed against their effective bids, rebuilding only
/// runs holding a bid that moved and resetting the dirty cones above
/// them, then runs TA; untouched subtrees keep their cached prefixes.
///
/// A run under no occurring root keeps the bids of its members' last
/// participation. Nothing can observe that (the stale-run invariant):
/// every node under an occurring phrase's root covers only that phrase's
/// interest set, and all of them participate this round, so every run
/// below was just diffed. The refresh is therefore sized by the
/// occurring interest sets, never by the population or the network, and
/// an advertiser whose bid is the same at each participation never
/// dirties anything.
///
/// TA scratch (seen-sets, top-k working lists) also persists so
/// steady-state rounds allocate nothing in those paths. Outcomes are
/// bit-identical to fresh-per-round instantiation (pinned by the
/// `sort-persistent` differential-corpus check in `ssa-testkit`).
pub struct SortResolver {
    /// Offline shared-sort plan over the bound phrase subset.
    plan: SortPlan,
    /// Per phrase, advertisers by descending `c_i^q` (TA's second list);
    /// empty for phrases outside this resolver's subset.
    c_orders: Vec<Vec<(AdvertiserId, f64)>>,
    /// Per phrase, the runs serving it: what `resolve` diffs when the
    /// phrase occurs.
    phrase_runs: Vec<Vec<u32>>,
    /// Per run, the merge operators a rebuild there invalidates
    /// (`SortPlan::leaf_cones`, computed once at plan-build time; CSR).
    cones: LeafCones,
    /// The persistent network; `None` until the first `resolve` builds it
    /// from that round's effective bids.
    net: Option<MergeNetwork>,
    /// Per-phrase roots in network node space (`usize::MAX` for empty or
    /// unbound phrases).
    roots: Vec<usize>,
    /// TA scratch + output buffer.
    ta_scratch: TaScratch,
    ta_out: Vec<(AdvertiserId, Score)>,
}

/// The offline shared-sort plan over the phrases where `mask` is true
/// (all phrases when `mask` is `None`). Masked-out phrases keep an empty
/// interest set in the plan, so they root at `usize::MAX` and cost the
/// network nothing.
pub(crate) fn compile_sort_plan(workload: &Workload, mask: Option<&[bool]>) -> SortPlan {
    // Sparse interest lists (ascending advertiser indices) — the builder
    // never materializes universe-sized bitsets, which is what lets plan
    // construction reach 10^6 advertisers.
    let interest: Vec<Vec<u32>> = workload
        .interest
        .iter()
        .enumerate()
        .map(|(q, ids)| {
            if mask.is_none_or(|mask| mask[q]) {
                let mut list: Vec<u32> = ids.iter().map(|a| a.index() as u32).collect();
                list.sort_unstable();
                list
            } else {
                Vec::new()
            }
        })
        .collect();
    build_shared_sort_plan_sparse(
        workload.advertiser_count(),
        &interest,
        &workload.search_rates(),
    )
}

impl SortResolver {
    /// Compiles a sort plan over the phrases where `mask` is true (all
    /// phrases when `mask` is `None`); see [`compile_sort_plan`].
    /// `_threads` is accepted and unread: the frozen `benchmark/` package
    /// still passes it; its next PR drops it.
    pub fn new(workload: &Workload, mask: Option<&[bool]>, _threads: usize) -> Self {
        let m = workload.phrase_count();
        let included = |q: usize| mask.is_none_or(|mask| mask[q]);
        let plan = compile_sort_plan(workload, mask);
        let c_orders = (0..m)
            .map(|q| {
                if !included(q) {
                    return Vec::new();
                }
                let phrase = PhraseId::from_index(q);
                let mut order: Vec<(AdvertiserId, f64)> = workload.interest[q]
                    .iter()
                    .map(|&a| {
                        (
                            a,
                            workload
                                .phrase_factor(phrase, a)
                                .expect("interested advertiser has a factor"),
                        )
                    })
                    .collect();
                order.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
                order
            })
            .collect();
        let mut phrase_runs = vec![Vec::new(); m];
        for r in 0..plan.run_count() {
            for &q in plan.node_serves(r) {
                phrase_runs[q as usize].push(r as u32);
            }
        }
        SortResolver {
            phrase_runs,
            cones: plan.leaf_cones(),
            plan,
            c_orders,
            net: None,
            roots: Vec::new(),
            ta_scratch: TaScratch::new(),
            ta_out: Vec::new(),
        }
    }

    /// Heap footprint of the resolver's hot state in bytes: plan arena,
    /// run cones, persistent network (node pools, run items + caches), TA
    /// seen-set, and the per-phrase tables. Powers the memory-scaling gate's
    /// deterministic bytes-per-advertiser accounting.
    pub fn heap_bytes(&mut self) -> usize {
        use std::mem::size_of;
        let net = self.net.as_mut().map_or(0, |n| n.heap_bytes());
        self.plan.heap_bytes()
            + self.cones.heap_bytes()
            + net
            + self.ta_scratch.heap_bytes()
            + self.roots.capacity() * size_of::<usize>()
            + self
                .c_orders
                .iter()
                .map(|o| o.capacity() * size_of::<(AdvertiserId, f64)>())
                .sum::<usize>()
            + self
                .phrase_runs
                .iter()
                .map(|runs| size_of::<Vec<u32>>() + runs.capacity() * 4)
                .sum::<usize>()
    }

    /// The persistent network's cached stream per node (its already
    /// merged prefixes), or `None` before the first round. An observation
    /// seam for the `ssa-testkit` differential oracle, which asserts a
    /// fresh network's caches are prefixes of these.
    pub fn cached_streams(&self) -> Option<Vec<Vec<SortItem>>> {
        let net = self.net.as_ref()?;
        Some(
            (0..self.plan.node_count())
                .map(|v| net.cached(v).to_vec())
                .collect(),
        )
    }
}

impl PhraseResolver for SortResolver {
    /// Refreshes (first call: builds) the network under `phrases` from
    /// this round's effective bids, then runs TA per phrase.
    fn resolve(
        &mut self,
        ctx: &RoundContext<'_>,
        phrases: &[PhraseId],
        effective_bids: &[Money],
        metrics: &mut EngineMetrics,
    ) -> Vec<AuctionOutcome> {
        let started = Instant::now();
        let stats = match self.net.as_mut() {
            None => {
                let (net, roots) = self.plan.instantiate(effective_bids);
                self.net = Some(net);
                self.roots = roots;
                // The whole network is built dirty; nothing was cached.
                RefreshStats {
                    nodes_invalidated: self.plan.node_count() as u64,
                    cache_items_reused: 0,
                }
            }
            Some(net) => {
                let runs = phrases
                    .iter()
                    .flat_map(|p| &self.phrase_runs[p.index()])
                    .map(|&r| r as usize);
                net.refresh(runs, effective_bids, &self.cones)
            }
        };
        metrics.sort_refresh_nanos += started.elapsed().as_nanos();
        metrics.sort_nodes_invalidated += stats.nodes_invalidated;
        metrics.sort_cache_items_reused += stats.cache_items_reused;

        let k = ctx.k;
        let net = self.net.as_mut().expect("built above");
        let invocations_before = net.invocations();
        let mut out = Vec::with_capacity(phrases.len());
        for &phrase in phrases {
            let q = phrase.index();
            let root = self.roots[q];
            let workload = ctx.workload;
            let stages = if root == usize::MAX {
                self.ta_out.clear();
                0
            } else {
                let (stages, _) = threshold_top_k_into(
                    |i| net.get(root, i),
                    &self.c_orders[q],
                    |a| effective_bids[a.index()],
                    |a| workload.phrase_factor(phrase, a).unwrap_or(0.0),
                    k + 1,
                    &mut self.ta_scratch,
                    &mut self.ta_out,
                );
                stages
            };
            metrics.ta_stages += stages as u64;
            out.push(AuctionOutcome {
                phrase,
                assignment: assignment_from_ranking(&self.ta_out, k),
            });
        }
        metrics.merge_invocations += net.invocations() - invocations_before;
        out
    }
}
