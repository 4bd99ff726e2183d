//! Sharded, pipelined round execution.
//!
//! The classic executor runs a round as three global barriers: throttle
//! every participant, winner-determine every occurring phrase, then
//! price/display/settle. This module partitions the phrases into
//! *shards* — each with its own resolver state (a plan-DAG slice or
//! subset merge network from the existing subset-compilation machinery)
//! and its own budget-accounting domain — and runs the round as a
//! dataflow over [`exec::shard_pipeline`]'s worker pool: while one
//! worker winner-determines shard N, another is already throttling
//! shard N+1, and a third is pricing shard N−1's outcomes into
//! [`DisplayEvent`]s. Only the final commit — RNG click-fate draws,
//! pending-ad pushes, settlement — is serial, replayed in global
//! phrase-occurrence order so the whole construction is bit-identical
//! to the sequential executor (see `budget::domain` for the
//! reconciliation invariant).
//!
//! Why this is safe, stage by stage:
//!
//! - **Throttle.** A throttled bid is a pure function of the advertiser's
//!   *global* participation count `m_i` and the *pre-round* ledger, both
//!   immutable during the pipeline. An advertiser whose interest set
//!   spans shards is throttled redundantly, once per shard, to the same
//!   value — so shard-local results merge without coordination.
//! - **Winner determination.** Each shard's resolvers are compiled over
//!   exactly its phrase subset; a phrase's auction reads only its own
//!   interest set's bids, all refreshed by the shard's throttle stage.
//!   The `ThrottleBounds` budget accessor reads ledgers *during* WD,
//!   which is why no ledger mutation may overlap the pipeline.
//! - **Settle prep.** Pricing (the serial round's `price_outcome`) reads
//!   the winners' effective bids, never the RNG or ledgers; each priced
//!   slot becomes a [`DisplayEvent`].
//! - **Commit.** The only RNG- and ledger-mutating stage (the serial
//!   round's `commit_display_events`), serial and in global order — the
//!   deterministic cross-shard budget reconciliation.

use std::time::Instant;

use parking_lot::Mutex;

use ssa_auction::ids::PhraseId;
use ssa_auction::money::Money;
use ssa_workload::Workload;

use crate::budget::domain::DisplayEvent;
use crate::budget::BudgetContext;
use crate::exec;

use super::resolvers::{Resolvers, RoundContext};
use super::{
    budget_context_parts, price_outcome, AuctionOutcome, BudgetPolicy, Engine, EngineConfig,
    EngineMetrics, Ledgers, SharingStrategy, WdExec,
};

/// The static phrase → shard assignment, fixed at engine construction.
pub struct ShardPlan {
    /// Shard index per phrase.
    shard_of: Vec<usize>,
    /// Number of (non-empty) shards; empty shards are compressed away so
    /// shard indices are dense.
    count: usize,
}

impl ShardPlan {
    /// Greedily partitions the workload's phrases into at most `shards`
    /// balanced shards.
    ///
    /// Phrases are placed in descending expected weight
    /// (`search_rate · (|I_q| + 1)`, index-ascending on ties) onto the
    /// shard with the best score: current load, discounted by an
    /// affinity bonus for shards already holding a large fraction of the
    /// phrase's interest set. The bonus steers overlapping phrases
    /// together — spanning advertisers are correct either way (they are
    /// throttled redundantly per shard) but keeping them co-located
    /// avoids paying that redundancy. Fully deterministic: ties break
    /// toward the lowest shard index. Shards left empty (more shards
    /// than phrases, or extreme skew) are compressed away.
    pub fn partition(workload: &Workload, shards: usize) -> ShardPlan {
        let m = workload.phrase_count();
        let n = workload.advertiser_count();
        let shards = shards.max(1).min(m.max(1));
        let rates = workload.search_rates();
        let mut order: Vec<usize> = (0..m).collect();
        let weight =
            |q: usize| -> f64 { rates[q].max(1e-6) * (workload.interest[q].len() + 1) as f64 };
        order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)).then(a.cmp(&b)));

        let mut shard_of = vec![0usize; m];
        let mut load = vec![0.0f64; shards];
        let mut members: Vec<Vec<bool>> = vec![vec![false; n]; shards];
        for q in order {
            let w = weight(q);
            let interest = &workload.interest[q];
            let mut best = 0usize;
            let mut best_score = f64::INFINITY;
            for s in 0..shards {
                let overlap = if interest.is_empty() {
                    0.0
                } else {
                    let shared = interest.iter().filter(|a| members[s][a.index()]).count();
                    shared as f64 / interest.len() as f64
                };
                let score = load[s] - 0.25 * w * overlap;
                if score < best_score {
                    best_score = score;
                    best = s;
                }
            }
            shard_of[q] = best;
            load[best] += w;
            for a in interest {
                members[best][a.index()] = true;
            }
        }

        // Compress empty shards so indices are dense.
        let mut used = vec![false; shards];
        for &s in &shard_of {
            used[s] = true;
        }
        let mut remap = vec![usize::MAX; shards];
        let mut count = 0;
        for s in 0..shards {
            if used[s] {
                remap[s] = count;
                count += 1;
            }
        }
        for s in &mut shard_of {
            *s = remap[*s];
        }
        ShardPlan {
            shard_of,
            count: count.max(1),
        }
    }

    /// Number of non-empty shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The shard owning phrase `q`.
    pub fn shard_of(&self, q: usize) -> usize {
        self.shard_of[q]
    }

    /// The phrase membership mask of shard `s`.
    fn subset(&self, s: usize) -> Vec<bool> {
        self.shard_of.iter().map(|&x| x == s).collect()
    }
}

/// One shard's private state: its resolvers (compiled over its phrase
/// subset) and the round-scratch buffers its pipeline chain fills.
/// Workers lock exactly one shard at a time; the main thread only locks
/// shards the pipeline has finished with.
struct ShardState {
    resolvers: Resolvers,
    /// Dense per-advertiser effective bids, persistent across rounds.
    /// Entries for advertisers not participating in this shard this
    /// round go stale; no occurring phrase of this shard can read them
    /// (a phrase's auction reads only its refreshed interest set).
    bids: Vec<Money>,
    /// This round's participants (advertisers interested in at least one
    /// occurring phrase of this shard), in discovery order.
    participants: Vec<u32>,
    /// Round stamp per advertiser backing `participants` dedup.
    stamp: Vec<u64>,
    epoch: u64,
    /// This round's outcomes, one per occurring shard phrase in order;
    /// the commit moves them out one by one.
    outcomes: std::vec::IntoIter<AuctionOutcome>,
    /// This round's display events, in outcome order (a reused buffer).
    events: Vec<(PhraseId, DisplayEvent)>,
    /// Per-round metrics scratch, absorbed into the engine's metrics at
    /// commit time (zeroed at the start of each chain).
    metrics: EngineMetrics,
}

/// The sharded executor: the phrase partition plus per-shard state.
pub(super) struct Sharded {
    plan: ShardPlan,
    shards: Vec<Mutex<ShardState>>,
    /// Per-shard occurring-phrase lists for the current round (persistent
    /// buffers, outside the mutexes: filled by the main thread before
    /// dispatch, read-only during the pipeline).
    occ: Vec<Vec<PhraseId>>,
    /// Indices of shards with at least one occurring phrase this round.
    active: Vec<usize>,
    /// Per shard, how many of its display events the commit has taken
    /// (reused each round).
    cursors: Vec<usize>,
}

impl Sharded {
    pub(super) fn new(workload: &Workload, config: &EngineConfig, plan: ShardPlan) -> Self {
        let n = workload.advertiser_count();
        let shards = (0..plan.count())
            .map(|s| {
                let subset = plan.subset(s);
                Mutex::new(ShardState {
                    resolvers: Resolvers::for_strategy(workload, config, Some(&subset)),
                    bids: vec![Money::ZERO; n],
                    participants: Vec::new(),
                    stamp: vec![0; n],
                    epoch: 0,
                    outcomes: Vec::new().into_iter(),
                    events: Vec::new(),
                    metrics: EngineMetrics::default(),
                })
            })
            .collect();
        let count = plan.count();
        Sharded {
            plan,
            shards,
            occ: (0..count).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            cursors: vec![0; count],
        }
    }

    pub(super) fn shard_count(&self) -> usize {
        self.plan.count()
    }

    /// Heap footprint of the executor's persistent hot state (per-shard
    /// resolvers, bid/stamp arrays, scratch lists) in bytes, for the
    /// memory-scaling gate.
    pub(super) fn heap_bytes(&mut self) -> usize {
        use std::mem::size_of;
        let mut total = self.plan.shard_of.capacity() * size_of::<usize>()
            + self.active.capacity() * size_of::<usize>()
            + self.cursors.capacity() * size_of::<usize>();
        for list in &self.occ {
            total += list.capacity() * size_of::<PhraseId>();
        }
        for shard in &mut self.shards {
            let state = shard.get_mut();
            total += state.resolvers.heap_bytes()
                + state.bids.capacity() * size_of::<Money>()
                + state.participants.capacity() * size_of::<u32>()
                + state.stamp.capacity() * size_of::<u64>()
                + state.events.capacity() * size_of::<(PhraseId, DisplayEvent)>();
        }
        total
    }

    /// Splits the round's occurring phrases into per-shard lists and
    /// records which shards have work. Reuses every buffer.
    fn begin_round(&mut self, occurring: &[PhraseId]) {
        for list in &mut self.occ {
            list.clear();
        }
        self.active.clear();
        for &q in occurring {
            let s = self.plan.shard_of(q.index());
            if self.occ[s].is_empty() {
                self.active.push(s);
            }
            self.occ[s].push(q);
        }
        self.active.sort_unstable();
        for c in &mut self.cursors {
            *c = 0;
        }
    }
}

/// One shard's whole pipeline chain — throttle, winner determination,
/// settle prep — run on a worker thread. Reads only shared pre-round
/// state (`ledgers` via `budgets` included) plus its own locked
/// [`ShardState`]; never touches the RNG.
#[allow(clippy::too_many_arguments)]
fn run_shard_chain(
    state: &mut ShardState,
    occ: &[PhraseId],
    workload: &Workload,
    config: &EngineConfig,
    ledgers: &Ledgers,
    current_bids: &[Money],
    m_i: &[u64],
    budgets: &(dyn Fn(usize, u64) -> BudgetContext + Sync),
) {
    state.metrics = EngineMetrics::default();

    // Participants: the union of the occurring shard phrases' interest
    // sets, deduplicated by round stamp, in discovery order.
    state.epoch += 1;
    state.participants.clear();
    for &q in occ {
        for a in &workload.interest[q.index()] {
            let i = a.index();
            if state.stamp[i] != state.epoch {
                state.stamp[i] = state.epoch;
                state.participants.push(i as u32);
            }
        }
    }

    // Stage 1 — throttle the shard's participants against the global
    // participation counts and pre-round ledgers. Identical inputs to
    // the sequential stage, so a spanning advertiser gets the same
    // value in every shard that throttles it.
    let started = Instant::now();
    let policy = config.budget_policy;
    let skip_throttle =
        policy == BudgetPolicy::ThrottleBounds && config.sharing == SharingStrategy::Unshared;
    let mut exacts = 0u64;
    for &i in &state.participants {
        let i = i as usize;
        state.bids[i] = if skip_throttle {
            // The unshared bounds resolver selects winners on lazily
            // refined bounds and backfills exact bids below.
            Money::ZERO
        } else {
            match policy {
                BudgetPolicy::Ignore => {
                    if ledgers.remaining(i).is_zero() {
                        Money::ZERO
                    } else {
                        current_bids[i]
                    }
                }
                BudgetPolicy::ThrottleExact | BudgetPolicy::ThrottleBounds => {
                    exacts += 1;
                    budgets(i, m_i[i]).throttled_bid_exact()
                }
            }
        };
    }
    let throttle_nanos = started.elapsed().as_nanos();
    state.metrics.exact_throttle_evaluations += exacts;
    state.metrics.throttle_nanos += throttle_nanos;
    state.metrics.max_round_throttle_nanos = throttle_nanos;

    // Stage 2 — winner determination over the shard's resolvers.
    let started = Instant::now();
    let ShardState {
        ref mut resolvers,
        ref mut bids,
        ref mut metrics,
        ..
    } = *state;
    let ctx = RoundContext {
        workload,
        k: config.slot_factors.len(),
        wd_threads: 1,
        budget_policy: policy,
        m_i,
        budgets,
    };
    let outcomes = resolvers.resolve_round(&ctx, occ, bids, metrics);
    state.metrics.wd_nanos += started.elapsed().as_nanos();

    // Stage 3 prep — price each outcome into display events. Reads only
    // the shard's refreshed bids; RNG consumption waits for the ordered
    // commit.
    let started = Instant::now();
    state.events.clear();
    for outcome in &outcomes {
        price_outcome(workload, config, &state.bids, outcome, &mut state.events);
    }
    state.outcomes = outcomes.into_iter();
    state.metrics.settle_nanos += started.elapsed().as_nanos();
}

/// One round of the sharded pipelined executor; bit-identical to
/// [`Engine::run_round`]'s sequential path in outcomes, effective bids,
/// and budget snapshots.
pub(super) fn run_round_sharded(engine: &mut Engine) -> Vec<AuctionOutcome> {
    engine.metrics.rounds += 1;
    let occurring = engine.sampler.next_round();
    let n = engine.workload.advertiser_count();

    // Global per-advertiser participation counts plus the deduplicated
    // participants list; `m_i` is all-zero between rounds (sparsely
    // re-zeroed at the end), so first touch doubles as dedup.
    let mut m_i = std::mem::take(&mut engine.m_i_scratch);
    let mut participants = std::mem::take(&mut engine.participants);
    participants.clear();
    for &q in &occurring {
        for a in &engine.workload.interest[q.index()] {
            let i = a.index();
            if m_i[i] == 0 {
                participants.push(i as u32);
            }
            m_i[i] += 1;
        }
    }

    // The merged effective-bid buffer the oracle seams read. Persistent:
    // resetting last round's participants' entries restores the all-zero
    // state the sequential stage-1 would start from (non-participants
    // always throttle to zero), and the shard merge below overlays only
    // nonzero values.
    let mut effective_bids = std::mem::take(&mut engine.last_effective_bids);
    effective_bids.resize(n, Money::ZERO); // first round only
    for &i in &engine.prev_participants {
        effective_bids[i as usize] = Money::ZERO;
    }

    match &mut engine.wd {
        WdExec::Sharded(sharded) => sharded.begin_round(&occurring),
        WdExec::Single(_) => unreachable!("run_round dispatches only sharded engines here"),
    }

    // The pipeline: workers drain the active shards, running each one's
    // whole chain (throttle → WD → settle prep); the main thread merges
    // shard bids into the global buffer as chains complete. Nothing in
    // here mutates ledgers or the RNG — every read (including the
    // bounds policy's mid-WD budget reads) sees pre-round state, which
    // is what makes shard scheduling order invisible.
    let pipeline_started = Instant::now();
    {
        let Engine {
            ref workload,
            ref config,
            ref ledgers,
            ref current_bids,
            ref clicker,
            ref wd,
            ..
        } = *engine;
        let WdExec::Sharded(sharded) = wd else {
            unreachable!("matched above")
        };
        let budgets = |i: usize, m: u64| budget_context_parts(ledgers, current_bids, clicker, i, m);
        let m_i = &m_i;
        exec::shard_pipeline(
            sharded.active.len(),
            config.wd_threads,
            |idx| {
                let s = sharded.active[idx];
                let mut state = sharded.shards[s].lock();
                run_shard_chain(
                    &mut state,
                    &sharded.occ[s],
                    workload,
                    config,
                    ledgers,
                    current_bids,
                    m_i,
                    &budgets,
                );
            },
            |idx, ()| {
                // Merge the shard's participant bids into the global
                // buffer. Writing only nonzero values makes the merge
                // order-independent: a zero (pre-zeroed buffer, a
                // fully throttled bid, or the bounds path's
                // not-backfilled participants) is the value the buffer
                // already holds, and any two shards that both hold an
                // advertiser computed the same value.
                let s = sharded.active[idx];
                let state = sharded.shards[s].lock();
                for &i in &state.participants {
                    let i = i as usize;
                    let bid = state.bids[i];
                    if !bid.is_zero() {
                        effective_bids[i] = bid;
                    }
                }
            },
        );
    }
    let pipeline_nanos = pipeline_started.elapsed().as_nanos();
    engine.metrics.max_round_wd_nanos = engine.metrics.max_round_wd_nanos.max(pipeline_nanos);
    engine.metrics.auctions += occurring.len() as u64;
    engine.last_effective_bids = effective_bids;

    // Commit — the serial tail. Replay every shard's outcomes and
    // display events in global phrase-occurrence order (the budget
    // reconciliation invariant, see `budget::domain`): click fates are
    // drawn and pending ads pushed exactly as the sequential executor
    // would, then settlement runs once over the reconciled ledgers.
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(occurring.len());
    {
        let WdExec::Sharded(sharded) = &mut engine.wd else {
            unreachable!("matched above")
        };
        for &s in &sharded.active {
            let state = sharded.shards[s].get_mut();
            engine.metrics.absorb(&state.metrics);
        }
        engine.display_events.clear();
        for &q in &occurring {
            let s = sharded.plan.shard_of(q.index());
            let state = sharded.shards[s].get_mut();
            let outcome = state.outcomes.next();
            outcomes.push(outcome.expect("one outcome per occurring shard phrase"));
            let pending = &state.events[sharded.cursors[s]..];
            let taken = pending
                .iter()
                .take_while(|(phrase, _)| *phrase == q)
                .count();
            engine.display_events.extend_from_slice(&pending[..taken]);
            sharded.cursors[s] += taken;
        }
    }
    engine.commit_display_events();
    engine.settle_round();
    let settle_nanos = started.elapsed().as_nanos();
    engine.metrics.settle_nanos += settle_nanos;
    engine.metrics.max_round_settle_nanos = engine.metrics.max_round_settle_nanos.max(settle_nanos);

    if engine.programs.is_some() {
        engine.apply_bidding_programs(&m_i, &outcomes);
    }
    // Restore the all-zero `m_i` invariant sparsely and rotate the
    // participants lists (next round resets exactly these bid entries).
    for &i in &participants {
        m_i[i as usize] = 0;
    }
    engine.m_i_scratch = m_i;
    std::mem::swap(&mut engine.prev_participants, &mut participants);
    engine.participants = participants;
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_workload::WorkloadConfig;

    fn workload(phrases: usize, advertisers: usize, seed: u64) -> Workload {
        Workload::generate(&WorkloadConfig {
            advertisers,
            phrases,
            seed,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn partition_covers_every_phrase_with_dense_shards() {
        let w = workload(24, 100, 3);
        for shards in [1, 2, 4, 7] {
            let plan = ShardPlan::partition(&w, shards);
            assert!(plan.count() >= 1 && plan.count() <= shards.min(24));
            let mut seen = vec![false; plan.count()];
            for q in 0..24 {
                let s = plan.shard_of(q);
                assert!(s < plan.count(), "dense shard ids");
                seen[s] = true;
            }
            assert!(seen.iter().all(|&s| s), "no empty shard survives");
        }
    }

    #[test]
    fn partition_with_more_shards_than_phrases() {
        let w = workload(3, 30, 11);
        let plan = ShardPlan::partition(&w, 16);
        // At most one shard per phrase; empty shards compressed away.
        assert!(plan.count() <= 3);
        let mut seen = vec![false; plan.count()];
        for q in 0..3 {
            seen[plan.shard_of(q)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partition_is_deterministic() {
        let w = workload(24, 100, 9);
        let a = ShardPlan::partition(&w, 4);
        let b = ShardPlan::partition(&w, 4);
        assert_eq!(a.shard_of, b.shard_of);
        assert_eq!(a.count(), b.count());
    }

    #[test]
    fn advertiser_spanning_every_shard_is_a_participant_everywhere() {
        // Hand-build a workload where advertiser 0 is interested in every
        // phrase: whatever the partition does, each shard's participant
        // collection must include it, and the engine must still agree
        // with the sequential executor (the redundant-throttle design).
        let mut w = workload(8, 40, 5);
        let id = ssa_auction::ids::AdvertiserId::from_index(0);
        let factor = w.advertisers[0].base_factor;
        for q in 0..8 {
            if !w.interest[q].contains(&id) {
                // Interest lists are sorted by id; index 0 goes first.
                w.interest[q].insert(0, id);
                w.phrase_factors[q].insert(0, factor);
            }
        }
        let plan = ShardPlan::partition(&w, 4);
        let shards_touched: std::collections::BTreeSet<usize> =
            (0..8).map(|q| plan.shard_of(q)).collect();
        assert!(!shards_touched.is_empty());

        let mut cfg = EngineConfig {
            shards: 4,
            ..EngineConfig::default()
        };
        let mut sharded = Engine::new(w.clone(), cfg.clone());
        cfg.shards = 1;
        let mut seq = Engine::new(w, cfg);
        for _ in 0..6 {
            let a = sharded.run_round();
            let b = seq.run_round();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.phrase, y.phrase);
                assert_eq!(x.assignment, y.assignment);
            }
            assert_eq!(sharded.last_effective_bids(), seq.last_effective_bids());
        }
        assert_eq!(sharded.budget_snapshots(), seq.budget_snapshots());
    }

    #[test]
    fn single_phrase_collapses_to_single_executor() {
        let w = workload(1, 10, 2);
        let engine = Engine::new(
            w,
            EngineConfig {
                shards: 8,
                ..EngineConfig::default()
            },
        );
        // One phrase can only fill one shard; the engine falls back to
        // the classic executor and reports one shard.
        assert_eq!(engine.metrics().shards_resolved, 1);
    }
}
