//! The traced pass: where every per-layer metric comes from.
//!
//! The engine has no spans of its own, so the ledger is built outside-in.
//! Each `run_round` is one root span, `engine.round`. Right after it
//! returns, the driver replays the same round through the layers' public
//! entry points — on the engine's own effective bids, budget snapshots
//! and outcomes — and records one child span per layer. Driver-owned
//! persistent resolvers see every round's bids, so their dirty-cone and
//! cache state mirrors the engine's. Counts are `EngineMetrics` deltas
//! taken at the same boundaries.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use ssa_auction::ids::PhraseId;
use ssa_auction::instance::AuctionEntry;
use ssa_auction::money::Money;
use ssa_auction::pricing::{price_assignment_parts, PricedSlot};
use ssa_core::budget::topk::{top_k_uncertain, UncertainCandidate};
use ssa_core::budget::BudgetContext;
use ssa_core::engine::resolvers::{
    scan_top_k, PhraseResolver, PlanResolver, RoundContext, SortResolver,
};
use ssa_core::engine::shard::ShardPlan;
use ssa_core::engine::{
    AuctionOutcome, BudgetPolicy, BudgetSnapshot, Engine, EngineConfig, EngineMetrics,
    SharingStrategy,
};
use ssa_core::exec::shard_pipeline;
use ssa_workload::clicks::ClickSimulator;
use ssa_workload::{RoundSampler, Workload};

use crate::alloc;
use crate::measure::{p50_ms, percentile_ms, run_rep, timed_rounds, warmup_rounds};
use crate::report::{Metric, Pass};
use crate::trace::{self, Tracer};
use crate::workloads::{twin_config, Spec};

/// The replayed layers, in the order a round uses them. Their shares of
/// `engine.round` are reported as `share.<layer>`.
pub const LAYERS: [&str; 10] = [
    "workload.sample",
    "budget.throttle_exact",
    "budget.bounds",
    "resolve.unshared",
    "resolve.plan",
    "resolve.sort.refresh",
    "resolve.sort.ta",
    "auction.price",
    "workload.clicks",
    "exec.pipeline",
];

/// Layers replayed only on sampled rounds, because they need a
/// population-sized `budget_snapshots()` taken before the round.
const SAMPLED_LAYERS: [&str; 2] = ["budget.throttle_exact", "budget.bounds"];

/// Allocations are counted on every this-many-th round only: two atomic
/// adds per allocation cost `sparse_plan`'s 50k-allocation rounds a third
/// of their time, which would distort every share.
const ALLOC_STRIDE: u32 = 8;

/// Budget snapshots are taken every this-many-th round: often enough for
/// thousands of throttle evaluations, rarely enough that the O(n) copy
/// stays a small part of the traced run.
fn snapshot_stride(advertisers: usize) -> usize {
    (advertisers / 10_000).clamp(2, 100)
}

/// One slice of driver-owned resolvers: the whole workload under the
/// serial executor, one shard's phrases under the sharded one.
struct Slice {
    /// Phrase membership; `None` means every phrase.
    subset: Option<Vec<bool>>,
    plan: Option<PlanResolver>,
    sort: Option<SortResolver>,
    plan_phrases: Vec<PhraseId>,
    sort_phrases: Vec<PhraseId>,
}

impl Slice {
    fn owns(&self, q: usize) -> bool {
        self.subset.as_ref().is_none_or(|s| s[q])
    }
}

/// Work the replay did, for the per-evaluation and per-phrase rates.
#[derive(Default, Clone, Copy)]
struct ReplayCounts {
    participants: u64,
    exact_evals: u64,
    outstanding: u64,
    sampled_participants: u64,
    bounds_phrases: u64,
    scanned: u64,
    impressions: u64,
}

/// What the driver saw of the round the engine just ran.
struct Observed<'a> {
    engine: &'a Engine,
    outcomes: &'a [AuctionOutcome],
    /// The engine's pre-round budget state, on sampled rounds.
    snapshots: Option<&'a [BudgetSnapshot]>,
    /// How many of the round's auctions the engine sent to a plan
    /// resolver.
    plan_routed: u64,
}

/// The driver's mirror of one engine: the state the replay needs to call
/// each layer the way the engine just did.
struct Replay {
    config: EngineConfig,
    sharded: bool,
    sampler: RoundSampler,
    clicker: ClickSimulator,
    m_i: Vec<u64>,
    participants: Vec<u32>,
    prev_participants: Vec<u32>,
    /// Mirror of `Engine::last_effective_bids`, updated sparsely.
    bids: Vec<Money>,
    separable: Vec<bool>,
    slices: Vec<Slice>,
    entries: Vec<AuctionEntry>,
    priced: Vec<(PhraseId, PricedSlot)>,
    /// Counters the driver-owned resolvers write; the report uses the
    /// engine's own.
    sink: EngineMetrics,
    counts: ReplayCounts,
    /// Replayed values that differed from the engine's.
    mismatches: u64,
    plan_compile_s: f64,
    sort_compile_s: f64,
}

impl Replay {
    fn new(workload: &Workload, config: &EngineConfig) -> Self {
        let m = workload.phrase_count();
        let separable: Vec<bool> = (0..m).map(|q| workload.phrase_is_separable(q)).collect();
        let subsets: Vec<Option<Vec<bool>>> = if config.shards > 1 {
            let plan = ShardPlan::partition(workload, config.shards);
            (0..plan.count())
                .map(|s| Some((0..m).map(|q| plan.shard_of(q) == s).collect()))
                .collect()
        } else {
            vec![None]
        };
        let sharded = subsets.len() > 1;
        let (mut plan_compile_s, mut sort_compile_s) = (0.0, 0.0);
        let slices = subsets
            .into_iter()
            .map(|subset| {
                let mask = subset.as_deref();
                let (with_plan, with_sort) = match config.sharing {
                    SharingStrategy::Unshared => (false, false),
                    SharingStrategy::SharedAggregation => (true, false),
                    SharingStrategy::SharedSort => (false, true),
                    SharingStrategy::Hybrid => (true, true),
                };
                let plan = with_plan.then(|| {
                    // Hybrid binds only separable phrases to the plan.
                    let bound: Vec<bool> = (0..m)
                        .map(|q| {
                            mask.is_none_or(|s| s[q])
                                && (config.sharing != SharingStrategy::Hybrid || separable[q])
                        })
                        .collect();
                    let started = Instant::now();
                    let plan = PlanResolver::new(workload, config.planner, Some(&bound));
                    plan_compile_s += started.elapsed().as_secs_f64();
                    plan
                });
                let sort = with_sort.then(|| {
                    let started = Instant::now();
                    let sort = SortResolver::new(workload, mask, 1);
                    sort_compile_s += started.elapsed().as_secs_f64();
                    sort
                });
                Slice {
                    subset,
                    plan,
                    sort,
                    plan_phrases: Vec::new(),
                    sort_phrases: Vec::new(),
                }
            })
            .collect();
        Replay {
            config: config.clone(),
            sharded,
            sampler: RoundSampler::new(workload.search_rates(), config.seed),
            clicker: ClickSimulator::new(
                config.seed.wrapping_add(1),
                config.mean_click_delay_rounds,
                config.click_expiry_rounds,
            ),
            m_i: vec![0; workload.advertiser_count()],
            participants: Vec::new(),
            prev_participants: Vec::new(),
            bids: vec![Money::ZERO; workload.advertiser_count()],
            separable,
            slices,
            entries: Vec::new(),
            priced: Vec::new(),
            sink: EngineMetrics::default(),
            counts: ReplayCounts::default(),
            mismatches: 0,
            plan_compile_s,
            sort_compile_s,
        }
    }

    /// Replays the round the engine just ran, one span per layer under
    /// `root`.
    fn round(&mut self, tracer: &mut Tracer, root: u32, round: u32, seen: &Observed<'_>) {
        let Observed {
            engine,
            outcomes,
            snapshots,
            ..
        } = *seen;
        let w = engine.workload();
        let k = self.config.slot_factors.len();
        let replay = tracer.open("replay", Some(root), round);
        let parent = Some(replay);

        let (occurring, _) = tracer.time("workload.sample", parent, round, || {
            self.sampler.next_round()
        });
        if !occurring.iter().eq(outcomes.iter().map(|o| &o.phrase)) {
            self.mismatches += 1;
        }

        // Census and bid mirror: bookkeeping, part of `replay`'s self time.
        for &i in &self.participants {
            self.m_i[i as usize] = 0;
        }
        std::mem::swap(&mut self.participants, &mut self.prev_participants);
        self.participants.clear();
        for &q in &occurring {
            for a in &w.interest[q.index()] {
                if self.m_i[a.index()] == 0 {
                    self.participants.push(a.index() as u32);
                }
                self.m_i[a.index()] += 1;
            }
        }
        self.counts.participants += self.participants.len() as u64;
        let engine_bids = engine.last_effective_bids();
        for &i in &self.prev_participants {
            self.bids[i as usize] = Money::ZERO;
        }
        for &i in &self.participants {
            self.bids[i as usize] = engine_bids[i as usize];
        }

        let bounds_policy = self.config.budget_policy == BudgetPolicy::ThrottleBounds
            && self.config.sharing == SharingStrategy::Unshared;
        if let Some(snapshots) = snapshots {
            let context = |i: usize, m: u64| BudgetContext {
                bid: snapshots[i].bid,
                remaining_budget: snapshots[i].remaining_budget,
                auctions_in_round: m,
                outstanding: snapshots[i].outstanding.clone(),
            };
            self.counts.sampled_participants += self.participants.len() as u64;
            self.counts.outstanding += self
                .participants
                .iter()
                .map(|&i| snapshots[i as usize].outstanding.len() as u64)
                .sum::<u64>();
            if bounds_policy {
                // What the unshared resolver does per phrase under
                // ThrottleBounds: candidates, then lazy refinement.
                let m_i = &self.m_i;
                tracer.time("budget.bounds", parent, round, || {
                    for &q in &occurring {
                        let candidates: Vec<UncertainCandidate> = w.interest[q.index()]
                            .iter()
                            .zip(&w.phrase_factors[q.index()])
                            .map(|(&a, &factor)| {
                                let budget = context(a.index(), m_i[a.index()]);
                                UncertainCandidate::new(a, factor, &budget)
                            })
                            .collect();
                        black_box(top_k_uncertain(&candidates, k + 1));
                    }
                });
                self.counts.bounds_phrases += occurring.len() as u64;
            } else if self.config.budget_policy != BudgetPolicy::Ignore {
                let (participants, m_i) = (&self.participants, &self.m_i);
                let (throttled, _) = tracer.time("budget.throttle_exact", parent, round, || {
                    participants
                        .iter()
                        .map(|&i| context(i as usize, m_i[i as usize]).throttled_bid_exact())
                        .collect::<Vec<Money>>()
                });
                self.counts.exact_evals += throttled.len() as u64;
                self.mismatches += participants
                    .iter()
                    .zip(&throttled)
                    .filter(|&(&i, &bid)| engine_bids[i as usize] != bid)
                    .count() as u64;
            }
        }

        // The unshared scan is what the reference twin resolves with; it
        // is replayed on every workload but is part of no shared
        // workload's round.
        let bids = &self.bids;
        tracer.time("resolve.unshared", parent, round, || {
            for &q in &occurring {
                let (interest, factors) = (&w.interest[q.index()], &w.phrase_factors[q.index()]);
                black_box(scan_top_k(interest, factors, bids, k));
            }
        });
        self.counts.scanned += occurring
            .iter()
            .map(|q| w.interest[q.index()].len() as u64)
            .sum::<u64>();

        self.resolve(tracer, parent, round, &occurring, seen);

        // Pricing as the settle stage does it: the phrase's entry list,
        // then the rule; display draws each impression's click fate.
        let (entries, priced, bids) = (&mut self.entries, &mut self.priced, &self.bids);
        priced.clear();
        tracer.time("auction.price", parent, round, || {
            for outcome in outcomes {
                let q = outcome.phrase.index();
                entries.clear();
                entries.extend(
                    w.interest[q]
                        .iter()
                        .zip(&w.phrase_factors[q])
                        .map(|(&a, &factor)| AuctionEntry::new(a, bids[a.index()], factor)),
                );
                let slots = price_assignment_parts(
                    entries,
                    &self.config.slot_factors,
                    &outcome.assignment,
                    self.config.pricing,
                );
                priced.extend(slots.into_iter().map(|slot| (outcome.phrase, slot)));
            }
        });
        let clicker = &mut self.clicker;
        tracer.time("workload.clicks", parent, round, || {
            for (phrase, slot) in priced.iter() {
                let factor = w.phrase_factor(*phrase, slot.advertiser).unwrap_or(0.0);
                let ctr = (factor * self.config.slot_factors[slot.slot.index()]).clamp(0.0, 1.0);
                black_box(clicker.impression(ctr));
            }
        });
        self.counts.impressions += self.priced.len() as u64;

        if self.sharded {
            // The pipeline's own cost at this round's shape: worker
            // spawn, the bounded channel, and the join, with empty work.
            let active = self
                .slices
                .iter()
                .filter(|s| occurring.iter().any(|q| s.owns(q.index())))
                .count();
            tracer.time("exec.pipeline", parent, round, || {
                shard_pipeline(
                    active,
                    self.config.wd_threads,
                    |s| s,
                    |_, s| {
                        black_box(s);
                    },
                );
            });
        }
        tracer.close(replay);
    }

    /// Winner determination through the driver-owned resolvers, routed
    /// the way the engine routed the round.
    fn resolve(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<u32>,
        round: u32,
        occurring: &[PhraseId],
        seen: &Observed<'_>,
    ) {
        let Observed {
            engine,
            outcomes,
            plan_routed,
            ..
        } = *seen;
        let hybrid = self.config.sharing == SharingStrategy::Hybrid;
        // A serial hybrid engine shows its live route. A sharded one does
        // not (each shard routes on its own), so there the replay matches
        // the *number* of plan-routed auctions the engine counted, taking
        // separable phrases in phrase order.
        let route = engine.hybrid_plan_route();
        let mut plan_left = plan_routed;
        let mut to_plan = |q: usize| match self.config.sharing {
            SharingStrategy::SharedAggregation => true,
            SharingStrategy::Hybrid => match route {
                Some(route) => route[q],
                None => {
                    let take = self.separable[q] && plan_left > 0;
                    plan_left -= u64::from(take);
                    take
                }
            },
            _ => false,
        };
        for slice in &mut self.slices {
            slice.plan_phrases.clear();
            slice.sort_phrases.clear();
        }
        for &p in occurring {
            let plan = to_plan(p.index());
            for slice in &mut self.slices {
                if slice.owns(p.index()) {
                    if plan {
                        slice.plan_phrases.push(p);
                    } else {
                        slice.sort_phrases.push(p);
                    }
                }
            }
        }

        let w = engine.workload();
        let no_budgets = |_: usize, m: u64| BudgetContext {
            bid: Money::ZERO,
            remaining_budget: Money::ZERO,
            auctions_in_round: m,
            outstanding: Vec::new(),
        };
        let ctx = RoundContext {
            workload: w,
            k: self.config.slot_factors.len(),
            wd_threads: 1,
            budget_policy: self.config.budget_policy,
            m_i: &self.m_i,
            budgets: &no_budgets,
        };
        let (bids, sink) = (&mut self.bids, &mut self.sink);
        let mut resolved: Vec<AuctionOutcome> = Vec::with_capacity(outcomes.len());
        for slice in &mut self.slices {
            // A serial single-strategy engine calls its resolver every
            // round, occurring phrases or not; a shard, and either side
            // of a hybrid, only when it has phrases for it.
            let always = !self.sharded && !hybrid;
            if let Some(plan) = &mut slice.plan {
                if always || !slice.plan_phrases.is_empty() {
                    let (out, _) = tracer.time("resolve.plan", parent, round, || {
                        plan.resolve(&ctx, &slice.plan_phrases, bids, sink)
                    });
                    resolved.extend(out);
                }
            }
            if let Some(sort) = &mut slice.sort {
                if always || !slice.sort_phrases.is_empty() {
                    tracer.time("resolve.sort.refresh", parent, round, || {
                        sort.prepare(&ctx, bids, sink)
                    });
                    let (out, _) = tracer.time("resolve.sort.ta", parent, round, || {
                        sort.resolve(&ctx, &slice.sort_phrases, bids, sink)
                    });
                    resolved.extend(out);
                }
            }
        }
        if self.config.sharing != SharingStrategy::Unshared {
            // The replay must reproduce the engine's winners exactly, or
            // its spans time something else than the engine ran.
            let engine_side: BTreeMap<PhraseId, &AuctionOutcome> =
                outcomes.iter().map(|o| (o.phrase, o)).collect();
            self.mismatches += resolved
                .iter()
                .filter(|o| {
                    engine_side.get(&o.phrase).map(|e| &e.assignment) != Some(&o.assignment)
                })
                .count() as u64
                + resolved.len().abs_diff(outcomes.len()) as u64;
        }
    }
}

/// `a / b`, or 0 when there was nothing to divide by: a layer a workload
/// bypasses reports 0, not NaN.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs the traced pass for one workload and writes its spans to
/// `<out_dir>/trace-<workload>.jsonl`.
pub fn traced(spec: &Spec, quick: bool, out_dir: &Path) -> Pass {
    let mut notes = Vec::new();
    let started = Instant::now();
    let workload = Workload::generate(&spec.workload);
    let generate_s = started.elapsed().as_secs_f64();
    let n = workload.advertiser_count();

    // Half the untraced pass's rounds, on each of three engines. Tracing
    // off first: the same engine, untraced, in this process — the base of
    // `trace.overhead_ratio` and of the twin comparison.
    let (warmup, rounds) = (warmup_rounds(quick), timed_rounds(quick) / 2);
    let (reference, engine) = run_rep(&spec.engine, workload.clone(), generate_s, warmup, rounds);
    drop(engine);
    // The paper's headline comparison: the Unshared/ThrottleExact twin
    // on the same input, seed and rounds.
    let twin_engine = twin_config(&spec.engine);
    let (twin, engine) = run_rep(&twin_engine, workload.clone(), 0.0, warmup, rounds);
    drop(engine);

    // Tracing on.
    let started = Instant::now();
    let mut engine = Engine::new(workload, spec.engine.clone());
    let build_s = started.elapsed().as_secs_f64();
    let mut replay = Replay::new(engine.workload(), &spec.engine);
    let stride = snapshot_stride(n);
    let mut tracer = Tracer::new();
    let mut round_counts: Vec<String> = Vec::new();
    let warmup = warmup as u32 + 1;
    let sampled = |round: u32| round as usize % stride == stride - 1;
    let counted = |round: u32| round.is_multiple_of(ALLOC_STRIDE);

    let mut at_warmup: Option<(EngineMetrics, (u64, u64))> = None;
    let mut panicked = false;
    let mut rounds_run: u32 = 0;
    for round in 0..warmup + rounds as u32 {
        if round == warmup {
            at_warmup = Some((engine.metrics().clone(), alloc::totals()));
            replay.counts = ReplayCounts::default();
        }
        let snapshots = sampled(round).then(|| engine.budget_snapshots());
        let before = engine.metrics().clone();
        let allocs_before = alloc::totals();
        alloc::count(counted(round));
        let root = tracer.open("engine.round", None, round);
        let outcomes = catch_unwind(AssertUnwindSafe(|| engine.run_round()));
        tracer.close(root);
        alloc::count(false);
        let Ok(outcomes) = outcomes else {
            panicked = true;
            break;
        };
        let after = engine.metrics();
        let allocs = alloc::totals();
        let seen = Observed {
            engine: &engine,
            outcomes: &outcomes,
            snapshots: snapshots.as_deref(),
            plan_routed: after.phrases_routed_plan - before.phrases_routed_plan,
        };
        replay.round(&mut tracer, root, round, &seen);
        round_counts.push(format!(
            "{{\"counts\":{round},\"auctions\":{},\"participants\":{},\"impressions\":{},\
             \"throttle_ns\":{},\"wd_ns\":{},\"settle_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            outcomes.len(),
            replay.participants.len(),
            after.impressions - before.impressions,
            after.throttle_nanos - before.throttle_nanos,
            after.wd_nanos - before.wd_nanos,
            after.settle_nanos - before.settle_nanos,
            allocs.0 - allocs_before.0,
            allocs.1 - allocs_before.1,
        ));
        rounds_run = round + 1;
    }

    let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    match trace::write_jsonl(&path, &tracer.spans, &round_counts) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }

    let Some((m0, allocs0)) = at_warmup else {
        notes.push("INCORRECT: run_round panicked during warm-up".into());
        return Pass {
            metrics: Vec::new(),
            correct: false,
            attempted: u64::from(rounds_run) + 1,
            failed: 1,
            notes,
        };
    };
    let m = engine.metrics().clone();
    let allocs = alloc::totals();
    let counts = replay.counts;

    // Layer self times over the measured rounds, by span name.
    let selfs = trace::self_times(&tracer.spans);
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut traced_round_ns: Vec<u64> = Vec::new();
    let (mut sampled_ns, mut counted_rounds) = (0u64, 0u64);
    for (span, self_ns) in tracer.spans.iter().zip(&selfs) {
        if span.round >= warmup {
            *layer_ns.entry(span.name).or_default() += self_ns;
            if span.name == "engine.round" {
                traced_round_ns.push(span.nanos());
                sampled_ns += if sampled(span.round) { span.nanos() } else { 0 };
                counted_rounds += u64::from(counted(span.round));
            }
        }
    }
    let measured_rounds = traced_round_ns.len() as u64;
    let measured_ns: u64 = traced_round_ns.iter().sum();
    let layer = |name: &str| layer_ns.get(name).copied().unwrap_or(0) as f64;
    let share = |name: &str| {
        let base = if SAMPLED_LAYERS.contains(&name) {
            sampled_ns
        } else {
            measured_ns
        };
        ratio(layer(name), base as f64)
    };

    let rounds = measured_rounds as f64;
    let d = |f: fn(&EngineMetrics) -> u128| (f(&m) - f(&m0)) as f64;
    let c = |f: fn(&EngineMetrics) -> u64| (f(&m) - f(&m0)) as f64;
    let round_ns = measured_ns as f64;
    let throttle = d(|m| m.throttle_nanos);
    let wd = d(|m| m.wd_nanos);
    let settle = d(|m| m.settle_nanos);
    let auctions = c(|m| m.auctions);
    let impressions = c(|m| m.impressions);
    let routed_plan = c(|m| m.phrases_routed_plan);
    let routed_sort = c(|m| m.phrases_routed_sort);
    let exact = c(|m| m.exact_throttle_evaluations);
    let ops = c(|m| m.aggregation_ops);
    let merges = c(|m| m.merge_invocations);
    let reused = c(|m| m.sort_cache_items_reused);
    let residual = 1.0 - ratio(throttle + wd + settle, round_ns);

    // The reference ran the same rounds untraced.
    let overhead = ratio(p50_ms(&traced_round_ns), p50_ms(&reference.round_ns));
    let untraced_p50_ms = p50_ms(&reference.round_ns);
    let twin_p50_ms = p50_ms(&twin.round_ns);

    let snapshots = engine.budget_snapshots();
    let exhausted = snapshots
        .iter()
        .filter(|s| s.remaining_budget.is_zero())
        .count();
    let model: f64 = replay
        .slices
        .iter()
        .filter_map(|s| s.plan.as_ref())
        .map(PlanResolver::expected_cost)
        .sum();
    let plan_nodes: usize = replay
        .slices
        .iter()
        .filter_map(|s| s.plan.as_ref().and_then(PlanResolver::dag))
        .map(|dag| dag.node_count())
        .sum();
    let plan_heap: usize = replay
        .slices
        .iter()
        .filter_map(|s| s.plan.as_ref())
        .map(PlanResolver::heap_bytes)
        .sum();
    let sort_heap: usize = replay
        .slices
        .iter_mut()
        .filter_map(|s| s.sort.as_mut())
        .map(SortResolver::heap_bytes)
        .sum();
    let imbalance = {
        let rates = engine.workload().search_rates();
        let plan = ShardPlan::partition(engine.workload(), spec.engine.shards.max(1));
        let mut load = vec![0.0; plan.count()];
        for (q, rate) in rates.iter().enumerate() {
            load[plan.shard_of(q)] += rate * (engine.workload().interest[q].len() + 1) as f64;
        }
        let mean = load.iter().sum::<f64>() / load.len() as f64;
        ratio(load.iter().copied().fold(0.0, f64::max), mean)
    };

    // Useful-work ratio of the bounds: the share of participants whose
    // exact convolution was never needed. The sharded executor throttles
    // an advertiser once per shard it spans, which would push the ratio
    // below zero; it is 0 there, as under ThrottleExact.
    let avoided = if counts.participants == 0 {
        0.0
    } else {
        (1.0 - exact / counts.participants as f64).max(0.0)
    };
    let r = measured_rounds;
    let sampled_rounds = tracer
        .spans
        .iter()
        .filter(|s| s.round >= warmup && SAMPLED_LAYERS.contains(&s.name))
        .count() as u64;
    let mut metrics = vec![
        Metric::new("workload.generate_s", "s", generate_s, 1),
        Metric::new(
            "workload.sample_ns_per_round",
            "ns",
            ratio(layer("workload.sample"), rounds),
            r,
        ),
        Metric::new(
            "workload.click_ns_per_impression",
            "ns",
            ratio(layer("workload.clicks"), counts.impressions as f64),
            counts.impressions,
        ),
        Metric::new("engine.build_s", "s", build_s, 1),
        Metric::new(
            "engine.throttle_share",
            "ratio",
            ratio(throttle, round_ns),
            r,
        ),
        Metric::new("engine.wd_share", "ratio", ratio(wd, round_ns), r),
        Metric::new("engine.settle_share", "ratio", ratio(settle, round_ns), r),
        Metric::new("engine.residual_share", "ratio", residual, r),
        Metric::new("engine.settle_ns_per_round", "ns", ratio(settle, rounds), r),
        // One untraced repetition's tail as it ran, nothing filtered out:
        // where tail work that lands on different rounds in different
        // repetitions shows (`round_p99_ms` keeps only what repeats).
        Metric::new(
            "engine.round_p98_raw_ms",
            "ms",
            percentile_ms(&reference.round_ns, 0.98),
            reference.round_ns.len() as u64,
        ),
        Metric::new(
            "engine.auctions_per_round",
            "count",
            ratio(auctions, rounds),
            r,
        ),
        Metric::new(
            "engine.participants_per_round",
            "count",
            ratio(counts.participants as f64, rounds),
            r,
        ),
        Metric::new(
            "engine.impressions_per_round",
            "count",
            ratio(impressions, rounds),
            r,
        ),
        Metric::new(
            "engine.allocs_per_round",
            "count",
            ratio((allocs.0 - allocs0.0) as f64, counted_rounds as f64),
            counted_rounds,
        ),
        Metric::new(
            "engine.alloc_bytes_per_round",
            "B",
            ratio((allocs.1 - allocs0.1) as f64, counted_rounds as f64),
            counted_rounds,
        ),
        Metric::new(
            "budget.exact_evals_per_round",
            "count",
            ratio(exact, rounds),
            r,
        ),
        Metric::new(
            "budget.exact_ns_per_eval",
            "ns",
            ratio(layer("budget.throttle_exact"), counts.exact_evals as f64),
            counts.exact_evals,
        ),
        Metric::new(
            "budget.outstanding_per_participant",
            "count",
            ratio(
                counts.outstanding as f64,
                counts.sampled_participants as f64,
            ),
            counts.sampled_participants,
        ),
        Metric::new(
            "budget.bound_evals_per_round",
            "count",
            ratio(c(|m| m.bound_evaluations), rounds),
            r,
        ),
        Metric::new(
            "budget.bounds_ns_per_phrase",
            "ns",
            ratio(layer("budget.bounds"), counts.bounds_phrases as f64),
            counts.bounds_phrases,
        ),
        Metric::new(
            "budget.exact_avoided_ratio",
            "ratio",
            avoided,
            counts.participants,
        ),
        Metric::new(
            "budget.exhausted_share",
            "ratio",
            ratio(exhausted as f64, n as f64),
            n as u64,
        ),
        Metric::new(
            "resolve.unshared.scanned_per_round",
            "count",
            ratio(counts.scanned as f64, rounds),
            r,
        ),
        Metric::new(
            "resolve.unshared.ns_per_advertiser",
            "ns",
            ratio(layer("resolve.unshared"), counts.scanned as f64),
            counts.scanned,
        ),
        Metric::new(
            "resolve.plan.ns_per_round",
            "ns",
            ratio(layer("resolve.plan"), rounds),
            r,
        ),
        Metric::new("resolve.plan.ops_per_round", "count", ratio(ops, rounds), r),
        Metric::new(
            "resolve.plan.ns_per_op",
            "ns",
            ratio(layer("resolve.plan"), ops),
            ops as u64,
        ),
        // Measured aggregation operations per round over the Section II-B
        // model's expected materialized nodes per round.
        Metric::new(
            "resolve.plan.ops_over_model",
            "ratio",
            ratio(ratio(ops, rounds), model),
            r,
        ),
        Metric::new("plan.compile_s", "s", replay.plan_compile_s, 1),
        Metric::new("plan.nodes", "count", plan_nodes as f64, 1),
        Metric::new("plan.heap_bytes", "B", plan_heap as f64, 1),
        Metric::new(
            "resolve.sort.refresh_ns_per_round",
            "ns",
            ratio(layer("resolve.sort.refresh"), rounds),
            r,
        ),
        Metric::new(
            "resolve.sort.nodes_invalidated_per_round",
            "count",
            ratio(c(|m| m.sort_nodes_invalidated), rounds),
            r,
        ),
        Metric::new(
            "resolve.sort.cache_reuse_ratio",
            "ratio",
            ratio(reused, reused + merges),
            (reused + merges) as u64,
        ),
        Metric::new(
            "resolve.sort.merges_per_round",
            "count",
            ratio(merges, rounds),
            r,
        ),
        Metric::new(
            "resolve.sort.ta_ns_per_phrase",
            "ns",
            ratio(layer("resolve.sort.ta"), routed_sort),
            routed_sort as u64,
        ),
        Metric::new(
            "resolve.sort.ta_stages_per_phrase",
            "count",
            ratio(c(|m| m.ta_stages), routed_sort),
            routed_sort as u64,
        ),
        Metric::new("sort.compile_s", "s", replay.sort_compile_s, 1),
        Metric::new("sort.heap_bytes", "B", sort_heap as f64, 1),
        Metric::new(
            "router.plan_share",
            "ratio",
            ratio(routed_plan, routed_plan + routed_sort),
            (routed_plan + routed_sort) as u64,
        ),
        Metric::new("router.migrations", "count", m.router_migrations as f64, 1),
        Metric::new(
            "router.sort_rebuilds",
            "count",
            m.router_sort_rebuilds as f64,
            1,
        ),
        Metric::new(
            "exec.pipeline_ns_per_round",
            "ns",
            ratio(layer("exec.pipeline"), rounds),
            r,
        ),
        Metric::new("shard.count", "count", m.shards_resolved as f64, 1),
        Metric::new("shard.imbalance", "ratio", imbalance, 1),
        Metric::new(
            "exec.cpu_over_wall",
            "ratio",
            ratio(throttle + wd + settle, round_ns),
            r,
        ),
        Metric::new(
            "auction.price_ns_per_outcome",
            "ns",
            ratio(layer("auction.price"), auctions),
            auctions as u64,
        ),
        Metric::new(
            "twin.unshared_round_p50_ms",
            "ms",
            twin_p50_ms,
            twin.round_ns.len() as u64,
        ),
        Metric::new(
            "twin.sharing_speedup",
            "ratio",
            ratio(twin_p50_ms, untraced_p50_ms),
            reference.round_ns.len() as u64,
        ),
        Metric::new("trace.overhead_ratio", "ratio", overhead, r),
    ];
    // What the ledger explains of `engine.round`: the replayed layers the
    // engine's strategy uses (the unshared scan belongs to the twin), plus
    // the residual the engine's own stage timers leave.
    let coverage: f64 = LAYERS
        .iter()
        .filter(|&&name| name != "resolve.unshared")
        .map(|&name| share(name))
        .sum::<f64>()
        + residual.max(0.0);
    metrics.push(Metric::new("trace.coverage_ratio", "ratio", coverage, r));
    for name in LAYERS {
        let samples = if SAMPLED_LAYERS.contains(&name) {
            sampled_rounds
        } else {
            r
        };
        metrics.push(Metric::new(
            &format!("share.{name}"),
            "ratio",
            share(name),
            samples,
        ));
    }

    notes.push(format!(
        "traced {measured_rounds} rounds after {warmup} warm-up (budget layers every \
         {stride} rounds); untraced reference and twin {} rounds each; replay bookkeeping \
         {:.1} % of traced wall",
        reference.round_ns.len(),
        100.0 * ratio(layer("replay"), started.elapsed().as_nanos() as f64),
    ));
    if replay.mismatches > 0 {
        notes.push(format!(
            "INCORRECT: {} replayed values differed from the engine's",
            replay.mismatches
        ));
    }
    if panicked {
        notes.push("INCORRECT: run_round panicked".into());
    }
    let failed = u64::from(panicked) + u64::from(reference.panicked) + u64::from(twin.panicked);
    Pass {
        metrics,
        correct: failed == 0 && replay.mismatches == 0,
        attempted: u64::from(rounds_run)
            + u64::from(panicked)
            + (reference.digests.len() + twin.digests.len()) as u64,
        failed,
        notes,
    }
}
