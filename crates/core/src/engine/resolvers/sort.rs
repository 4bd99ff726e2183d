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

/// Every this-many rounds, merge caches untouched for at least this many
/// refreshes are freed ([`MergeNetwork::evict_cold`]), bounding resident
/// cache memory to *recently active* phrases' cones. 64 keeps steady-state
/// hot caches warm (eviction never fires for a cone touched each round)
/// while cold phrases' caches survive at most ~2 horizons.
const CACHE_EVICT_HORIZON: u32 = 64;

use super::super::{AuctionOutcome, EngineMetrics};
use super::{PhraseResolver, RoundContext};

/// Shared merge-sort + Threshold Algorithm over a (possibly strict)
/// subset of the workload's phrases. The merge network lives for the
/// lifetime of the [`SortPlan`]: each round `prepare` diffs the new
/// effective bids against `prev_bids` and refreshes only the dirty cones,
/// so untouched subtrees keep their cached merged prefixes. TA scratch
/// (seen-sets, top-k working lists) also persists so steady-state rounds
/// allocate nothing in those paths. Outcomes are bit-identical to
/// fresh-per-round instantiation (pinned by the `sort-persistent`
/// differential-corpus check in `ssa-testkit`).
pub struct SortResolver {
    /// Offline shared-sort plan over the bound phrase subset.
    plan: SortPlan,
    /// Per phrase, advertisers by descending `c_i^q` (TA's second list);
    /// empty for phrases outside this resolver's subset.
    c_orders: Vec<Vec<(AdvertiserId, f64)>>,
    /// Per leaf, the merge operators a bid change there invalidates
    /// (`SortPlan::leaf_cones`, computed once at plan-build time; CSR).
    cones: LeafCones,
    /// The persistent network; `None` until the first round builds it
    /// from that round's effective bids.
    net: Option<MergeNetwork>,
    /// Per-phrase roots in network node space (`usize::MAX` for empty or
    /// unbound phrases).
    roots: Vec<usize>,
    /// The effective bids the network currently reflects.
    prev_bids: Vec<Money>,
    /// Adaptive-routing deferral: per leaf, how many *sort-routed*
    /// phrases are interested in it. `None` (static routing) keeps every
    /// leaf live. A leaf with count zero is skipped when diffing, so its
    /// `prev_bids` entry — and the network above it — lags the bid
    /// stream; no TA can observe the staleness because every node
    /// reachable from a sort-routed phrase's root has only live leaves
    /// beneath it. When a migration re-activates a leaf, the next
    /// `prepare`'s diff sees the accumulated lag and repairs exactly that
    /// leaf's dirty cone — migration costs a cone repair, not a rebuild.
    active: Option<Vec<u32>>,
    /// Reusable bid-delta buffer.
    changed: Vec<(usize, Money)>,
    /// TA scratch + output buffer.
    ta_scratch: TaScratch,
    ta_out: Vec<(AdvertiserId, Score)>,
    /// Per phrase, whether this resolver's plan was compiled over it. A
    /// phrase outside the compiled set has no root and no `c_order`;
    /// routing it here requires rebuilding the resolver first.
    compiled: Vec<bool>,
    /// Rounds prepared so far; drives the amortized cold-cache eviction
    /// sweep (every [`CACHE_EVICT_HORIZON`] rounds).
    rounds_prepared: u64,
}

impl SortResolver {
    /// Compiles a sort plan over the phrases where `mask` is true (all
    /// phrases when `mask` is `None`). Masked-out phrases keep an empty
    /// interest set in the plan, so they root at `usize::MAX` and cost
    /// the network nothing. `_threads` is accepted and unread: the frozen
    /// `benchmark/` package still passes it; its next PR drops it.
    pub fn new(workload: &Workload, mask: Option<&[bool]>, _threads: usize) -> Self {
        let n = workload.advertiser_count();
        let m = workload.phrase_count();
        let included = |q: usize| mask.is_none_or(|mask| mask[q]);
        // Sparse interest lists (ascending advertiser indices) — the
        // builder never materializes universe-sized bitsets, which is what
        // lets plan construction reach 10^6 advertisers.
        let interest: Vec<Vec<u32>> = workload
            .interest
            .iter()
            .enumerate()
            .map(|(q, ids)| {
                if included(q) {
                    let mut list: Vec<u32> = ids.iter().map(|a| a.index() as u32).collect();
                    list.sort_unstable();
                    list
                } else {
                    Vec::new()
                }
            })
            .collect();
        let plan = build_shared_sort_plan_sparse(n, &interest, &workload.search_rates());
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
        SortResolver {
            cones: plan.leaf_cones(),
            plan,
            c_orders,
            net: None,
            roots: Vec::new(),
            prev_bids: Vec::new(),
            active: None,
            changed: Vec::new(),
            ta_scratch: TaScratch::new(),
            ta_out: Vec::new(),
            compiled: (0..m).map(included).collect(),
            rounds_prepared: 0,
        }
    }

    /// Heap footprint of the resolver's hot state in bytes: plan arena,
    /// leaf cones, persistent network (node pools + caches), and the
    /// per-round buffers. Powers the memory-scaling gate's deterministic
    /// bytes-per-advertiser accounting.
    pub fn heap_bytes(&mut self) -> usize {
        use std::mem::size_of;
        let net = self.net.as_mut().map_or(0, |n| n.heap_bytes());
        self.plan.heap_bytes()
            + self.cones.heap_bytes()
            + net
            + self.prev_bids.capacity() * size_of::<Money>()
            + self.changed.capacity() * size_of::<(usize, Money)>()
            + self.roots.capacity() * size_of::<usize>()
            + self
                .c_orders
                .iter()
                .map(|o| o.capacity() * size_of::<(AdvertiserId, f64)>())
                .sum::<usize>()
    }

    /// Whether this resolver's plan was compiled over phrase `q` (and so
    /// can serve it without a rebuild).
    pub(crate) fn serves_phrase(&self, q: usize) -> bool {
        self.compiled[q]
    }

    /// Whether the compiled set strictly exceeds the sort-routed set —
    /// i.e. the network still carries structure for phrases the route
    /// sends to the plan. True means a rebuild over the routed subset
    /// would shrink the arena.
    pub(crate) fn compiled_beyond(&self, plan_route: &[bool]) -> bool {
        self.compiled
            .iter()
            .zip(plan_route)
            .any(|(&compiled, &to_plan)| compiled && to_plan)
    }

    /// Switches the resolver (typically one compiled over *all* phrases)
    /// into deferred-leaf mode: only leaves some sort-routed phrase
    /// (`plan_route[q] == false`) is interested in are diffed each round.
    /// Used by the adaptive hybrid router, whose migrations need every
    /// phrase to already have a root and `c_order` in the network —
    /// activating a phrase is then a counter bump plus one deferred cone
    /// repair. Must be called before the first round builds the network.
    ///
    /// Also repacks the plan's arena around the initially active phrases
    /// ([`SortPlan::cluster_hot_phrases`]): the all-phrase network is up
    /// to twice the size of the active subset's, and leaving the active
    /// cones scattered through it measurably degrades refresh and TA
    /// locality (~5% wall-clock against a subset-compiled network doing
    /// bit-identical work). Clustering restores the subset network's
    /// layout; phrases migrating in later land in the cold suffix, which
    /// is correct just not prefix-packed.
    pub fn defer_inactive_leaves(&mut self, plan_route: &[bool]) {
        assert!(self.net.is_none(), "defer before the first round");
        let hot: Vec<bool> = plan_route.iter().map(|&to_plan| !to_plan).collect();
        self.plan.cluster_hot_phrases(&hot);
        self.cones = self.plan.leaf_cones();
        let mut counts = vec![0u32; self.plan.advertiser_count()];
        for (q, &to_plan) in plan_route.iter().enumerate() {
            if !to_plan {
                for &(a, _) in &self.c_orders[q] {
                    counts[a.index()] += 1;
                }
            }
        }
        self.active = Some(counts);
    }

    /// Adjusts the active-leaf counts when phrase `q` migrates onto
    /// (`active == true`) or off the sort path. Only meaningful after
    /// [`SortResolver::defer_inactive_leaves`].
    pub(crate) fn set_phrase_active(&mut self, q: usize, active: bool) {
        let counts = self
            .active
            .as_mut()
            .expect("deferred-leaf mode required for migration");
        for &(a, _) in &self.c_orders[q] {
            let count = &mut counts[a.index()];
            if active {
                *count += 1;
            } else {
                debug_assert!(*count > 0, "deactivating an inactive leaf");
                *count -= 1;
            }
        }
    }

    /// Per phrase, the marginal expected merge cost (Section III-B units:
    /// expected items sent upstream per round) of serving the phrase
    /// through this resolver's shared schedule.
    pub(crate) fn phrase_marginals(&self, search_rates: &[f64]) -> Vec<f64> {
        self.plan.phrase_marginal_costs(search_rates)
    }

    /// Expected items per round through the network if exactly the
    /// phrases with a nonzero entry in `rates` were active (the Section
    /// III-B cost of the shared plan under those rates). The adaptive
    /// router's group-cost terms: callers mask `rates` by the current
    /// route to price the active network, or leave them unmasked to price
    /// full absorption.
    pub(crate) fn model_items(&self, rates: &[f64]) -> f64 {
        self.plan.expected_cost(rates)
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
    /// Refreshes (first round: builds) the persistent network from the
    /// round's effective bids.
    fn prepare(
        &mut self,
        _ctx: &RoundContext<'_>,
        effective_bids: &[Money],
        metrics: &mut EngineMetrics,
    ) {
        let started = Instant::now();
        self.rounds_prepared += 1;
        let stats = match self.net.as_mut() {
            None => {
                let (net, roots) = self.plan.instantiate(effective_bids);
                self.net = Some(net);
                self.roots = roots;
                self.prev_bids.clear();
                self.prev_bids.extend_from_slice(effective_bids);
                // The whole network is built dirty; nothing was cached.
                RefreshStats {
                    nodes_invalidated: self.plan.node_count() as u64,
                    cache_items_reused: 0,
                }
            }
            Some(net) => {
                self.changed.clear();
                let active = self.active.as_deref();
                for (i, (&new, old)) in effective_bids
                    .iter()
                    .zip(self.prev_bids.iter_mut())
                    .enumerate()
                {
                    // Deferred leaves keep their stale `prev_bids` entry:
                    // the diff that matters runs when they re-activate.
                    if active.is_some_and(|counts| counts[i] == 0) {
                        continue;
                    }
                    if new != *old {
                        self.changed.push((i, new));
                        *old = new;
                    }
                }
                let stats = net.refresh(&self.changed, &self.cones);
                // Amortized cold-cache sweep: streams stay bit-identical
                // (evicted nodes regenerate the same items on demand), so
                // this only bounds memory, never changes outcomes.
                if self
                    .rounds_prepared
                    .is_multiple_of(u64::from(CACHE_EVICT_HORIZON))
                {
                    net.evict_cold(CACHE_EVICT_HORIZON);
                }
                stats
            }
        };
        metrics.sort_refresh_nanos += started.elapsed().as_nanos();
        metrics.sort_nodes_invalidated += stats.nodes_invalidated;
        metrics.sort_cache_items_reused += stats.cache_items_reused;
    }

    fn resolve(
        &mut self,
        ctx: &RoundContext<'_>,
        phrases: &[PhraseId],
        effective_bids: &mut [Money],
        metrics: &mut EngineMetrics,
    ) -> Vec<AuctionOutcome> {
        let k = ctx.k;
        let net = self.net.as_mut().expect("prepare builds the network");
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
