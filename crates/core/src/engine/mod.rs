//! The round-based auction engine.
//!
//! Ties the whole pipeline together, as the paper's introduction lays it
//! out: queries are batched into rounds; each round, the occurring bid
//! phrases' auctions are resolved *together* through one of the
//! winner-determination strategies (independent scans, the Section II
//! shared aggregation plan, the Section III shared sort + TA, or a
//! per-phrase hybrid of the two); winners are priced; their ads await
//! clicks with a delay (creating Section IV's budget uncertainty); and
//! clicks settle against budgets under a configurable policy (naive or
//! throttled).
//!
//! Winner determination itself lives in the [`resolvers`] layer: each
//! strategy is a [`resolvers::PhraseResolver`] owning its persistent
//! cross-round state, and the engine only routes occurring phrases,
//! times the stages, and settles the outcomes. Every round runs on the
//! caller's thread; the engine starts none of its own.

pub mod bidding;
pub mod gaming;
pub mod metrics;
pub mod resolvers;
pub mod shard;

use std::time::Instant;

use ssa_auction::ids::{PhraseId, SlotIndex};
use ssa_auction::money::Money;
use ssa_auction::pricing::{price_ranked, PricingRule};
use ssa_auction::winner::Assignment;
use ssa_workload::clicks::{ClickOutcome, ClickSimulator};
use ssa_workload::rounds::RoundSampler;
use ssa_workload::Workload;

use crate::budget::domain::DisplayEvent;
use crate::budget::{BudgetContext, OutstandingAd};
use crate::plan::PlannerMode;
use crate::sort::SortItem;

use resolvers::{Resolvers, RoundContext};

pub use metrics::EngineMetrics;

/// How budgets are enforced at winner-determination time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPolicy {
    /// Ignore outstanding ads: advertisers bid full strength while any
    /// settled budget remains; over-budget clicks are forgiven. The
    /// gameable baseline of Section IV.
    Ignore,
    /// Throttle bids with the exact expected-value computation.
    #[default]
    ThrottleExact,
    /// Throttle bids using lazily refined Hoeffding bounds (exact values
    /// computed only for winners).
    ThrottleBounds,
}

/// How winner determination is computed across the round's auctions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingStrategy {
    /// Independent top-k scan per phrase (the baseline).
    #[default]
    Unshared,
    /// The Section II shared top-k aggregation plan (requires
    /// phrase-independent advertiser factors, i.e. a workload generated
    /// with zero phrase-factor jitter).
    SharedAggregation,
    /// The Section III shared merge-sort network + Threshold Algorithm
    /// (handles phrase-specific factors).
    SharedSort,
    /// Per-phrase routing across both shared paths, fixed at construction
    /// by the [`RoutingMode`]: plan-routed phrases (separable ones only:
    /// factors equal to the advertiser's base factor) compile into one
    /// aggregation plan, the rest into one persistent sort network, each
    /// over only its own phrase subset. Handles *mixed* workloads that
    /// `SharedAggregation` rejects without paying the sort network for
    /// phrases the cheaper plan can serve.
    Hybrid,
}

/// How `SharingStrategy::Hybrid` assigns phrases to its two shared paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Fixed at construction: every separable phrase to the aggregation
    /// plan, the rest to the sort network. Deterministic, but keeps a
    /// phrase on the plan even where the sort network serves it cheaper.
    #[default]
    Static,
    /// Cost-model routing: each separable phrase goes to the path the
    /// paper's Section II-B / III-B expected-cost models favour over the
    /// workload's search rates, decided once at construction and never
    /// revised. No clock is read, so the route is a pure function of the
    /// workload and the config. Auction outcomes are bit-identical to
    /// every other strategy wherever a phrase is routed.
    Adaptive,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Slot-specific CTR factors `d_j`, descending; `len()` = k.
    pub slot_factors: Vec<f64>,
    /// Pricing rule applied after winner determination.
    pub pricing: PricingRule,
    /// Budget enforcement policy.
    pub budget_policy: BudgetPolicy,
    /// Winner-determination sharing strategy.
    pub sharing: SharingStrategy,
    /// Phrase-routing mode for `SharingStrategy::Hybrid` (ignored by the
    /// single-resolver strategies). Either mode fixes the route at
    /// construction.
    pub routing: RoutingMode,
    /// Mean click delay in rounds (geometric).
    pub mean_click_delay_rounds: f64,
    /// Outstanding ads expire (never click) after this many rounds.
    pub click_expiry_rounds: u32,
    /// Click prices are rounded down to a multiple of this increment at
    /// display time (real platforms bill in whole cents). Besides realism
    /// this keeps the exact budget convolution's support proportional to
    /// `budget / increment` instead of `2^l`. Zero disables rounding.
    pub billing_increment: Money,
    /// Accepted and unread: the engine is single-threaded. The frozen
    /// `benchmark/` package still writes it; its next change drops it.
    pub wd_threads: usize,
    /// Accepted and unread: every round runs over one resolver set. The
    /// frozen `benchmark/` package still writes it; its next change drops
    /// it.
    pub shards: usize,
    /// Planner stage used to compile the `SharedAggregation` plan: the
    /// full Section II-D heuristic (fragments + lazy-greedy completion)
    /// by default, or fragments-only for the E9 ablation. The lazy
    /// completion pass keeps the full heuristic tractable at 1000+
    /// advertisers (milliseconds; see `BENCH_planner_scaling.json`).
    pub planner: PlannerMode,
    /// RNG seed for round sampling and click simulation.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            slot_factors: vec![0.3, 0.2, 0.1],
            pricing: PricingRule::GeneralizedSecondPrice,
            budget_policy: BudgetPolicy::ThrottleExact,
            sharing: SharingStrategy::Unshared,
            routing: RoutingMode::Static,
            mean_click_delay_rounds: 3.0,
            click_expiry_rounds: 20,
            billing_increment: Money::from_micros(10_000), // one cent
            wd_threads: 1,
            shards: 1,
            planner: PlannerMode::Full,
            seed: 7,
        }
    }
}

/// An ad displayed in some earlier round, still awaiting its click.
#[derive(Debug, Clone)]
struct PendingAd {
    price: Money,
    display_ctr: f64,
    age: u32,
    /// Predetermined fate: rounds-from-display when the click lands.
    clicks_at_age: Option<u32>,
}

/// All advertisers' budget ledgers, struct-of-arrays: the throttle stage
/// reads `budget`/`settled_spend` for every participant every round, so
/// those stream as two contiguous `Money` arrays instead of being
/// interleaved with the (cold, variable-size) pending-ad lists a
/// `Vec<Ledger>` layout would drag through cache with them.
#[derive(Debug, Clone)]
struct Ledgers {
    budget: Vec<Money>,
    settled_spend: Vec<Money>,
    pending: Vec<Vec<PendingAd>>,
    /// Advertisers with a non-empty `pending` list — the settle sweep's
    /// worklist, so settlement is O(outstanding ads), not O(n).
    /// Invariant: `live` holds exactly the indices `i` with
    /// `!pending[i].is_empty()`, each once, in no particular order
    /// (settlement per ledger is independent and its metric updates
    /// commute).
    live: Vec<u32>,
}

impl Ledgers {
    fn new(workload: &Workload) -> Self {
        Ledgers {
            budget: workload.advertisers.iter().map(|a| a.budget).collect(),
            settled_spend: vec![Money::ZERO; workload.advertiser_count()],
            pending: vec![Vec::new(); workload.advertiser_count()],
            live: Vec::new(),
        }
    }

    #[inline]
    fn remaining(&self, i: usize) -> Money {
        self.budget[i].saturating_sub(self.settled_spend[i])
    }

    /// Queues a displayed ad, maintaining the `live` worklist invariant.
    fn push_pending(&mut self, i: usize, ad: PendingAd) {
        if self.pending[i].is_empty() {
            self.live.push(i as u32);
        }
        self.pending[i].push(ad);
    }

    /// Heap footprint in bytes (capacities), for the memory-scaling gate.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.budget.capacity() * size_of::<Money>()
            + self.settled_spend.capacity() * size_of::<Money>()
            + self.pending.capacity() * size_of::<Vec<PendingAd>>()
            + self
                .pending
                .iter()
                .map(|p| p.capacity() * size_of::<PendingAd>())
                .sum::<usize>()
            + self.live.capacity() * 4
    }
}

/// A point-in-time view of one advertiser's budget state, as the *next*
/// round's winner determination will see it: current bid, remaining
/// (settled) budget, and the outstanding ads with their residual click
/// probabilities already applied.
///
/// External verification harnesses (the `ssa-testkit` differential
/// oracle) use these to recompute throttled bids independently of the
/// engine and cross-check [`Engine::last_effective_bids`].
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSnapshot {
    /// The advertiser's current per-click bid `b_i`.
    pub bid: Money,
    /// Remaining budget `β_i` (budget minus settled spend).
    pub remaining_budget: Money,
    /// Outstanding ads awaiting clicks, residual CTRs applied.
    pub outstanding: Vec<OutstandingAd>,
}

/// The simulation engine.
pub struct Engine {
    workload: Workload,
    config: EngineConfig,
    ledgers: Ledgers,
    /// Each advertiser's current per-click bid; starts at the workload's
    /// bid and evolves when bidding programs are installed.
    current_bids: Vec<Money>,
    /// Optional per-advertiser bidding programs (Section II-C's dynamic
    /// bid premise).
    programs: Option<Vec<bidding::BiddingProgram>>,
    sampler: RoundSampler,
    clicker: ClickSimulator,
    /// The strategy's resolvers, each owning its persistent cross-round
    /// state (plan DAG, merge network, scratch).
    resolvers: Resolvers,
    /// The effective (possibly throttled) bids of the most recent round,
    /// kept for external verification. Persistent: each round zeroes only
    /// the *previous* round's participants' entries and recomputes the
    /// current ones, so the per-round cost is O(participants), not O(n)
    /// — the invariant is that every non-participant entry is zero
    /// (exactly what a full recompute would store there).
    last_effective_bids: Vec<Money>,
    /// Reusable per-advertiser participation-count scratch. All-zero
    /// between rounds: each round increments only its participants'
    /// entries and re-zeroes them at the end, avoiding the O(n) memset.
    m_i_scratch: Vec<u64>,
    /// This round's participants (advertisers with `m_i > 0`), in
    /// discovery order; dedup comes free from the `m_i` zero test.
    participants: Vec<u32>,
    /// Last round's participants — exactly the nonzero entries of
    /// `last_effective_bids` to re-zero next round.
    prev_participants: Vec<u32>,
    /// The most recent round's display events in commit order (ascending
    /// phrase, slots best first within a phrase); a reused buffer.
    display_events: Vec<(PhraseId, DisplayEvent)>,
    metrics: EngineMetrics,
}

/// One phrase auction's resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    /// The phrase.
    pub phrase: PhraseId,
    /// The slot assignment.
    pub assignment: Assignment,
}

impl Engine {
    /// Builds an engine, compiling the offline shared plans the strategy
    /// needs.
    ///
    /// # Panics
    /// Panics if `SharedAggregation` is requested for a workload with
    /// phrase-specific factors (the Section III setting), where top-k
    /// aggregates cannot be shared. `Hybrid` accepts any workload: it
    /// routes only separable phrases to the plan.
    pub fn new(workload: Workload, config: EngineConfig) -> Self {
        let resolvers = Resolvers::for_strategy(&workload, &config);
        let metrics = EngineMetrics {
            wd_threads_resolved: 1,
            shards_resolved: 1,
            ..EngineMetrics::default()
        };
        let ledgers = Ledgers::new(&workload);
        let sampler = RoundSampler::new(workload.search_rates(), config.seed);
        let clicker = ClickSimulator::new(
            config.seed.wrapping_add(1),
            config.mean_click_delay_rounds,
            config.click_expiry_rounds,
        );
        let current_bids = workload.advertisers.iter().map(|a| a.bid).collect();
        let n = workload.advertiser_count();
        Engine {
            workload,
            config,
            ledgers,
            current_bids,
            programs: None,
            sampler,
            clicker,
            resolvers,
            last_effective_bids: Vec::new(),
            m_i_scratch: vec![0; n],
            participants: Vec::new(),
            prev_participants: Vec::new(),
            display_events: Vec::new(),
            metrics,
        }
    }

    /// Installs per-advertiser bidding programs; their current bids
    /// replace the static workload bids from the next round on.
    ///
    /// # Panics
    /// Panics unless exactly one program per advertiser is supplied.
    pub fn set_bidding_programs(&mut self, programs: Vec<bidding::BiddingProgram>) {
        assert_eq!(
            programs.len(),
            self.workload.advertiser_count(),
            "one bidding program per advertiser"
        );
        for (bid, p) in self.current_bids.iter_mut().zip(&programs) {
            *bid = p.current_bid();
        }
        self.programs = Some(programs);
    }

    /// The advertisers' current bids.
    pub fn current_bids(&self) -> &[Money] {
        &self.current_bids
    }

    /// The accumulated metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The workload under simulation.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The effective (throttled) bids used by the most recent round's
    /// winner determination and pricing; empty before the first round.
    ///
    /// Under `Unshared` + `ThrottleBounds` the engine never computes the
    /// whole population's exact convolutions (Section IV-B's point):
    /// entries are exact for each phrase's ranked top `k + 1` — the
    /// winners, whose bids pricing reads, and the runner-up, whose score
    /// the last winner is charged against — and zero for everyone else.
    /// All other strategy/policy combinations hold every participant's
    /// effective bid, which is what the differential oracle replays.
    pub fn last_effective_bids(&self) -> &[Money] {
        &self.last_effective_bids
    }

    /// What the most recent round displayed and will charge on a click:
    /// one event per winner, ascending by phrase and best slot first
    /// within a phrase (a phrase's `j`-th event is its slot `j`); empty
    /// before the first round. The differential oracle checks these prices
    /// against its own reading of the pricing rule.
    pub fn last_display_events(&self) -> &[(PhraseId, DisplayEvent)] {
        &self.display_events
    }

    /// Which resolver each phrase is bound to: `true` means the shared
    /// aggregation plan, `false` the shared sort network. `None` unless
    /// the strategy is `Hybrid`. The route is fixed at construction: the
    /// separability map under static routing, the cost-model route under
    /// adaptive routing. An observation seam for the `hybrid-routing`
    /// differential check.
    pub fn hybrid_plan_route(&self) -> Option<&[bool]> {
        self.resolvers.hybrid_route()
    }

    /// Snapshots every advertiser's budget state as the *next* call to
    /// [`Engine::run_round`] will see it. Taken together with
    /// [`Engine::last_effective_bids`], this lets an external oracle
    /// replay one round's throttled-bid computation exactly.
    pub fn budget_snapshots(&self) -> Vec<BudgetSnapshot> {
        (0..self.workload.advertiser_count())
            .map(|i| BudgetSnapshot {
                bid: self.current_bids[i],
                remaining_budget: self.ledgers.remaining(i),
                outstanding: self.ledgers.pending[i]
                    .iter()
                    .map(|p| {
                        OutstandingAd::new(p.price, self.clicker.residual_ctr(p.display_ctr, p.age))
                    })
                    .collect(),
            })
            .collect()
    }

    /// Heap footprint of the engine's per-advertiser hot state plus the
    /// resolver-owned persistent structures (plan arenas, merge-network
    /// pools and caches), in bytes. Deterministic — capacities, not RSS —
    /// so the memory-scaling gate's bytes-per-advertiser ceiling is
    /// reproducible across hosts.
    pub fn hot_state_bytes(&mut self) -> usize {
        use std::mem::size_of;
        self.ledgers.heap_bytes()
            + self.current_bids.capacity() * size_of::<Money>()
            + self.last_effective_bids.capacity() * size_of::<Money>()
            + self.m_i_scratch.capacity() * size_of::<u64>()
            + self.participants.capacity() * 4
            + self.prev_participants.capacity() * 4
            + self.display_events.capacity() * size_of::<(PhraseId, DisplayEvent)>()
            + self.resolvers.heap_bytes()
    }

    /// Runs `rounds` rounds and returns the final metrics.
    pub fn run(&mut self, rounds: usize) -> EngineMetrics {
        for _ in 0..rounds {
            self.run_round();
        }
        self.metrics.clone()
    }

    /// Executes one round end to end; returns the auctions resolved.
    pub fn run_round(&mut self) -> Vec<AuctionOutcome> {
        self.metrics.rounds += 1;
        let occurring = self.sampler.next_round();

        // Census: per-advertiser participation counts m_i plus the
        // deduplicated participants list. `m_i` is all-zero between
        // rounds (re-zeroed sparsely at the end of this one), so the
        // first-touch test doubles as dedup — O(Σ occurring interest),
        // never O(n).
        let mut m_i = std::mem::take(&mut self.m_i_scratch);
        let mut participants = std::mem::take(&mut self.participants);
        participants.clear();
        for &q in &occurring {
            for a in &self.workload.interest[q.index()] {
                let i = a.index();
                if m_i[i] == 0 {
                    participants.push(i as u32);
                }
                m_i[i] += 1;
            }
        }

        // Stage 1 — throttle: effective (possibly throttled) bids,
        // updated in place in the persistent buffer (participants only).
        let started = Instant::now();
        let mut effective_bids = std::mem::take(&mut self.last_effective_bids);
        let exact_evaluations = self.effective_bids_into(&m_i, &participants, &mut effective_bids);
        let throttle_nanos = started.elapsed().as_nanos();
        self.metrics.exact_throttle_evaluations += exact_evaluations;
        self.metrics.throttle_nanos += throttle_nanos;
        self.metrics.max_round_throttle_nanos =
            self.metrics.max_round_throttle_nanos.max(throttle_nanos);

        // Stage 2 — winner determination for every occurring phrase. The
        // unshared bounds path backfills its winners' exact bids into
        // `effective_bids`, so the snapshot is taken afterwards. The
        // resolvers borrow disjoint engine fields, so the budget accessor
        // can read ledgers while a resolver mutates its own state.
        let started = Instant::now();
        let outcomes: Vec<AuctionOutcome> = {
            let Engine {
                ref workload,
                ref config,
                ref ledgers,
                ref current_bids,
                ref clicker,
                ref mut resolvers,
                ref mut metrics,
                ..
            } = *self;
            let budgets =
                |i: usize, m: u64| budget_context_parts(ledgers, current_bids, clicker, i, m);
            let ctx = RoundContext {
                workload,
                k: config.slot_factors.len(),
                wd_threads: 1,
                budget_policy: config.budget_policy,
                m_i: &m_i,
                budgets: &budgets,
            };
            resolvers.resolve_round(&ctx, &occurring, &mut effective_bids, metrics)
        };
        let wd_nanos = started.elapsed().as_nanos();
        self.metrics.wd_nanos += wd_nanos;
        self.metrics.max_round_wd_nanos = self.metrics.max_round_wd_nanos.max(wd_nanos);
        self.metrics.auctions += occurring.len() as u64;

        // Stage 3 — settle: pricing + display, then click settlement.
        let started = Instant::now();
        self.display_events.clear();
        for outcome in &outcomes {
            price_outcome(
                &self.workload,
                &self.config,
                &effective_bids,
                outcome,
                &mut self.display_events,
            );
        }
        self.last_effective_bids = effective_bids;
        self.commit_display_events();
        self.settle_round();
        let settle_nanos = started.elapsed().as_nanos();
        self.metrics.settle_nanos += settle_nanos;
        self.metrics.max_round_settle_nanos = self.metrics.max_round_settle_nanos.max(settle_nanos);

        // Let bidding programs react to this round's outcomes.
        if self.programs.is_some() {
            self.apply_bidding_programs(&m_i, &outcomes);
        }
        // Restore the all-zero `m_i` invariant sparsely and remember this
        // round's participants (the nonzero effective-bid entries the
        // next round must reset).
        for &i in &participants {
            m_i[i as usize] = 0;
        }
        self.m_i_scratch = m_i;
        std::mem::swap(&mut self.prev_participants, &mut participants);
        self.participants = participants;
        outcomes
    }

    /// Computes each advertiser's round feedback: best slot and win count
    /// across *all* the round's simultaneous auctions, participation, and
    /// budget state.
    fn collect_feedback(
        &self,
        m_i: &[u64],
        outcomes: &[AuctionOutcome],
    ) -> Vec<bidding::RoundFeedback> {
        let n = self.workload.advertiser_count();
        let mut best_slot: Vec<Option<SlotIndex>> = vec![None; n];
        let mut won = vec![0u64; n];
        for outcome in outcomes {
            for w in outcome.assignment.winners() {
                let i = w.advertiser.index();
                won[i] += 1;
                best_slot[i] = Some(match best_slot[i] {
                    Some(prev) if prev <= w.slot => prev,
                    _ => w.slot,
                });
            }
        }
        (0..n)
            .map(|i| bidding::RoundFeedback {
                best_slot: best_slot[i],
                auctions_entered: m_i[i],
                auctions_won: won[i],
                settled_spend: self.ledgers.settled_spend[i],
                budget: self.ledgers.budget[i],
                round: self.metrics.rounds,
            })
            .collect()
    }

    /// Feeds each advertiser's program its round feedback and adopts the
    /// updated bids for the next round.
    fn apply_bidding_programs(&mut self, m_i: &[u64], outcomes: &[AuctionOutcome]) {
        let feedback = self.collect_feedback(m_i, outcomes);
        let programs = self.programs.as_mut().expect("checked by caller");
        for (i, (program, fb)) in programs.iter_mut().zip(feedback).enumerate() {
            self.current_bids[i] = program.update(&fb);
        }
    }

    /// Stage-1 effective bids, updated *in place* in the persistent
    /// buffer: last round's participants' entries are reset to zero, then
    /// this round's participants' bids are computed — O(participants) per
    /// round. Bit-identical to a full recompute because a non-participant
    /// (`m_i == 0`) always throttles to zero, which is exactly what the
    /// reset leaves behind. Returns the number of exact throttled-bid
    /// convolutions performed.
    ///
    /// Under `Unshared` + `ThrottleBounds` the compute half is skipped:
    /// the unshared resolver selects winners on lazily refined bounds and
    /// only its winners' exact bids are ever computed (backfilled there).
    fn effective_bids_into(&self, m_i: &[u64], participants: &[u32], out: &mut Vec<Money>) -> u64 {
        let n = self.workload.advertiser_count();
        let policy = self.config.budget_policy;
        out.resize(n, Money::ZERO); // first round only: sizes the buffer
        for &i in &self.prev_participants {
            out[i as usize] = Money::ZERO;
        }
        if policy == BudgetPolicy::ThrottleBounds
            && self.config.sharing == SharingStrategy::Unshared
        {
            return 0;
        }
        let bid_for = |i: usize| {
            debug_assert!(m_i[i] > 0, "participants all have m_i > 0");
            match policy {
                BudgetPolicy::Ignore => {
                    if self.ledgers.remaining(i).is_zero() {
                        Money::ZERO
                    } else {
                        self.current_bids[i]
                    }
                }
                BudgetPolicy::ThrottleExact | BudgetPolicy::ThrottleBounds => {
                    // Plan/sort strategies need concrete leaf values, so
                    // ThrottleBounds also evaluates exactly here.
                    self.budget_context(i, m_i[i]).throttled_bid_exact()
                }
            }
        };
        for &i in participants {
            out[i as usize] = bid_for(i as usize);
        }
        match policy {
            BudgetPolicy::Ignore => 0,
            BudgetPolicy::ThrottleExact | BudgetPolicy::ThrottleBounds => participants.len() as u64,
        }
    }

    fn budget_context(&self, advertiser: usize, m: u64) -> BudgetContext {
        budget_context_parts(
            &self.ledgers,
            &self.current_bids,
            &self.clicker,
            advertiser,
            m,
        )
    }

    /// The persistent shared-sort network's cached stream per node (its
    /// already merged prefixes), or `None` before the first round of a
    /// strategy with a sort resolver. An observation seam for the
    /// `ssa-testkit` differential oracle, which asserts a fresh network's
    /// caches are prefixes of these.
    pub fn sort_cached_streams(&self) -> Option<Vec<Vec<SortItem>>> {
        self.resolvers.sort()?.cached_streams()
    }

    /// Displays the round's priced winners: draws each impression's click
    /// fate and queues the pending ad, in event order. The only consumer
    /// of the click RNG.
    fn commit_display_events(&mut self) {
        for (_, ev) in &self.display_events {
            let fate = self.clicker.impression(ev.display_ctr);
            self.metrics.impressions += 1;
            self.metrics.expected_value += ev.display_ctr * ev.price.to_f64();
            self.ledgers.push_pending(
                ev.advertiser.index(),
                PendingAd {
                    price: ev.price,
                    display_ctr: ev.display_ctr,
                    age: 0,
                    clicks_at_age: match fate {
                        ClickOutcome::ClickAfter { delay } => Some(delay),
                        ClickOutcome::NoClick => None,
                    },
                },
            );
        }
    }

    /// Ages pending ads, lands due clicks, and settles payments. Sweeps
    /// only the ledgers with outstanding ads (the `live` worklist) and
    /// compacts each pending list in place — O(outstanding ads) per
    /// round, allocation-free, instead of O(n) ledger visits. Per-ledger
    /// processing is unchanged and ledgers are independent, so the sweep
    /// order (perturbed by `swap_remove`) cannot affect any outcome.
    fn settle_round(&mut self) {
        let expiry = self.config.click_expiry_rounds;
        let Engine {
            ref mut ledgers,
            ref mut metrics,
            ..
        } = *self;
        let mut pos = 0;
        while pos < ledgers.live.len() {
            let i = ledgers.live[pos] as usize;
            let budget = ledgers.budget[i];
            let settled = &mut ledgers.settled_spend[i];
            let ads = &mut ledgers.pending[i];
            let mut kept = 0;
            for idx in 0..ads.len() {
                let ad = &mut ads[idx];
                ad.age += 1;
                match ad.clicks_at_age {
                    Some(at) if ad.age >= at => {
                        // Click lands now: charge up to the remaining
                        // budget, forgive the rest.
                        metrics.clicks += 1;
                        let remaining = budget.saturating_sub(*settled);
                        let charged = ad.price.min(remaining);
                        let forgiven = ad.price.saturating_sub(charged);
                        *settled += charged;
                        metrics.revenue = metrics.revenue.saturating_add(charged);
                        if !forgiven.is_zero() {
                            metrics.forgiven = metrics.forgiven.saturating_add(forgiven);
                            metrics.clicks_beyond_budget += 1;
                        }
                    }
                    _ if ad.age >= expiry => {
                        // Expired unclicked; drop.
                    }
                    _ => {
                        // Keep, preserving relative order (positions
                        // `kept..idx` hold already-dropped ads).
                        ads.swap(kept, idx);
                        kept += 1;
                    }
                }
            }
            ads.truncate(kept);
            if ads.is_empty() {
                ledgers.live.swap_remove(pos);
            } else {
                pos += 1;
            }
        }
    }
}

/// Prices one resolved auction into display events, appended to `events`
/// in slot order: `O(k)` — each winner's bid and factor, plus the ranking
/// the resolver already produced. A pure function of the round's
/// effective bids and the workload; it never touches the click RNG.
fn price_outcome(
    workload: &Workload,
    config: &EngineConfig,
    effective_bids: &[Money],
    outcome: &AuctionOutcome,
    events: &mut Vec<(PhraseId, DisplayEvent)>,
) {
    let phrase = outcome.phrase;
    let factor_of = |a| workload.phrase_factor(phrase, a).unwrap_or(0.0);
    let priced = price_ranked(
        &outcome.assignment,
        &config.slot_factors,
        config.pricing,
        |a| (effective_bids[a.index()], factor_of(a)),
    );
    events.extend(priced.map(|slot| {
        let display_ctr = factor_of(slot.advertiser) * config.slot_factors[slot.slot.index()];
        let event = DisplayEvent {
            advertiser: slot.advertiser,
            price: slot.price_per_click.round_down_to(config.billing_increment),
            display_ctr: display_ctr.clamp(0.0, 1.0),
        };
        (phrase, event)
    }));
}

/// [`Engine::budget_context`] over the engine's fields individually, so
/// the round executor can hand resolvers a budget accessor while they
/// mutably borrow their own state.
fn budget_context_parts(
    ledgers: &Ledgers,
    current_bids: &[Money],
    clicker: &ClickSimulator,
    advertiser: usize,
    m: u64,
) -> BudgetContext {
    BudgetContext {
        bid: current_bids[advertiser],
        remaining_budget: ledgers.remaining(advertiser),
        auctions_in_round: m,
        outstanding: ledgers.pending[advertiser]
            .iter()
            .map(|p| OutstandingAd::new(p.price, clicker.residual_ctr(p.display_ctr, p.age)))
            .collect(),
    }
}

#[cfg(test)]
mod tests;
