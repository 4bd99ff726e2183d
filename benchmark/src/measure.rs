//! The untraced pass: where every end-to-end metric comes from.
//!
//! Closed loop, one driver thread, a round is one operation. A run is a
//! series of repetitions, each a fresh `Engine` on the same seed: set-up
//! (timed), warm-up rounds (untimed), then a *fixed* count of individually
//! timed `run_round` calls — never a fixed duration, so every repetition
//! does identical work and the engine's work counters must repeat. The
//! repetition count is a constant of the workload too, so every run of
//! every commit is measured with the same estimator.
//!
//! Because round `i` is the same work in every repetition, its time is
//! taken as the fastest of its repetitions: the host this runs on changes
//! speed by tens of percent for seconds at a time, and interference only
//! ever adds time. `round_p50_ms` and `auctions_per_s` are computed over
//! those per-round times. For `round_p99_ms` every repetition is first
//! rescaled to the common median, so that a repetition that ran slow as a
//! whole still supplies its undisturbed rounds; what is left in the tail
//! is what a round costs in *every* repetition. Tail work that lands on
//! different rounds in different repetitions is not in it; the traced
//! pass reports one repetition's unfiltered tail (`engine.round_p98_raw_ms`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ssa_core::engine::{
    BudgetPolicy, Engine, EngineConfig, EngineMetrics, RoutingMode, SharingStrategy,
};
use ssa_workload::Workload;

use crate::check;
use crate::host;
use crate::report::{Metric, Pass};
use crate::stats::{self, MIN_ROUNDS};
use crate::workloads::{self, Spec};

/// Timed rounds per repetition under `--quick`.
const QUICK_ROUNDS: usize = 300;
/// A `ThrottleBounds` run checks every this-many-th round against the
/// oracle.
const ORACLE_STRIDE: usize = 50;

/// Timed rounds per repetition: fixed by the benchmark, never by the
/// clock.
pub fn timed_rounds(quick: bool) -> usize {
    if quick {
        QUICK_ROUNDS
    } else {
        MIN_ROUNDS
    }
}

/// Untimed warm-up rounds per repetition, a tenth of the timed ones: lets
/// lazy network instantiation, router settling and page faults finish
/// before a round is timed.
pub fn warmup_rounds(quick: bool) -> usize {
    timed_rounds(quick) / 10
}

/// One repetition's record.
pub struct Rep {
    /// `Workload::generate` + `Engine::new` + the first `run_round`.
    pub setup_s: f64,
    /// Wall time of each timed round, in order.
    pub round_ns: Vec<u64>,
    /// Auctions resolved in the timed rounds.
    pub auctions: u64,
    /// Digest of every round run, the first and the warm-up included.
    pub digests: Vec<u64>,
    pub panicked: bool,
    pub oracle_checked: u64,
    pub oracle_failed: u64,
}

/// Median of a round-time sample, in milliseconds.
pub fn p50_ms(round_ns: &[u64]) -> f64 {
    percentile_ms(round_ns, 0.5)
}

/// Nearest-rank percentile of a round-time sample, in milliseconds.
pub fn percentile_ms(round_ns: &[u64], p: f64) -> f64 {
    if round_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = round_ns.to_vec();
    sorted.sort_unstable();
    stats::percentile(&sorted, p) as f64 / 1e6
}

/// Builds the engine and runs one repetition on it: the first round, then
/// `warmup` untimed and `rounds` timed ones. `generate_s` is what the
/// caller spent generating `workload`; it is part of `setup_s`.
pub fn run_rep(
    engine_config: &EngineConfig,
    workload: Workload,
    generate_s: f64,
    warmup: usize,
    rounds: usize,
) -> (Rep, Engine) {
    let started = Instant::now();
    let engine = Engine::new(workload, engine_config.clone());
    let mut run = Runner {
        bounds_check: engine_config.budget_policy == BudgetPolicy::ThrottleBounds,
        engine,
        rep: Rep {
            setup_s: 0.0,
            round_ns: Vec::with_capacity(rounds),
            auctions: 0,
            digests: Vec::with_capacity(1 + warmup + rounds),
            panicked: false,
            oracle_checked: 0,
            oracle_failed: 0,
        },
    };
    // The first round instantiates the persistent networks, so it counts
    // as set-up: work moved between build and first round still shows.
    let mut alive = run.round().is_some();
    run.rep.setup_s = generate_s + started.elapsed().as_secs_f64();
    for _ in 0..warmup {
        alive = alive && run.round().is_some();
    }
    while alive && run.rep.round_ns.len() < rounds {
        match run.round() {
            Some((nanos, auctions)) => {
                run.rep.round_ns.push(nanos);
                run.rep.auctions += auctions as u64;
            }
            None => alive = false,
        }
    }
    (run.rep, run.engine)
}

struct Runner {
    engine: Engine,
    rep: Rep,
    bounds_check: bool,
}

impl Runner {
    /// Runs one round; returns its wall time and auction count, or `None`
    /// if `run_round` panicked (caught and counted, not fatal to the
    /// report — but the engine is unusable afterwards, so the repetition
    /// ends there).
    fn round(&mut self) -> Option<(u64, usize)> {
        let index = self.rep.digests.len();
        let snapshots = (self.bounds_check && index % ORACLE_STRIDE == ORACLE_STRIDE - 1)
            .then(|| self.engine.budget_snapshots());
        let started = Instant::now();
        let outcomes = catch_unwind(AssertUnwindSafe(|| self.engine.run_round()));
        let nanos = started.elapsed().as_nanos() as u64;
        // Everything below is outside the timed region.
        let Ok(outcomes) = outcomes else {
            self.rep.panicked = true;
            return None;
        };
        self.rep.digests.push(check::round_digest(&outcomes));
        if let Some(snapshots) = snapshots {
            self.rep.oracle_checked += 1;
            if !check::bounds_round_agrees(&self.engine, &snapshots, &outcomes) {
                self.rep.oracle_failed += 1;
            }
        }
        Some((nanos, outcomes.len()))
    }
}

/// Whether the engine's internal work counters must repeat exactly across
/// repetitions: not under the sharded executor (per-shard slices do
/// different internal work) nor adaptive routing (timing-driven). Outcome
/// counts must repeat everywhere.
fn counters_repeat(spec: &Spec) -> bool {
    let adaptive = spec.engine.sharing == SharingStrategy::Hybrid
        && spec.engine.routing == RoutingMode::Adaptive;
    !(spec.sharded || adaptive)
}

/// The counts that depend only on outcomes, so must be equal across
/// repetitions, execution shapes and the reference twin.
fn outcome_counts(m: &EngineMetrics) -> (u64, u64, u64, u64, u64) {
    (
        m.rounds,
        m.auctions,
        m.impressions,
        m.clicks,
        m.revenue.micros(),
    )
}

/// Runs the untraced pass for one workload; `quick` is the smoke mode
/// (one short repetition, numbers not comparable).
pub fn untraced(spec: &Spec, quick: bool) -> Pass {
    let (warmup, rounds) = (warmup_rounds(quick), timed_rounds(quick));
    let repetitions = if quick { 1 } else { spec.repetitions };
    let mut notes = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut counters: Vec<EngineMetrics> = Vec::new();
    let mut hot_bytes: Vec<f64> = Vec::new();
    let mut last_engine = None;
    while reps.len() < repetitions && !reps.last().is_some_and(|r| r.panicked) {
        // Free the previous repetition's engine before the next is built,
        // so peak RSS is one engine's, not two.
        drop(last_engine.take());
        let started = Instant::now();
        let workload = Workload::generate(&spec.workload);
        let generate_s = started.elapsed().as_secs_f64();
        let (rep, mut engine) = run_rep(&spec.engine, workload, generate_s, warmup, rounds);
        counters.push(engine.metrics().without_timing());
        hot_bytes
            .push(engine.hot_state_bytes() as f64 / engine.workload().advertiser_count() as f64);
        reps.push(rep);
        last_engine = Some(engine);
    }
    // Read before the reference twin exists: the peak is the workload's.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let engine = last_engine.expect("at least one repetition");
    let resolved = engine.metrics();
    notes.push(format!(
        "wd_threads_resolved={} shards_resolved={}",
        resolved.wd_threads_resolved, resolved.shards_resolved
    ));

    let mut failed: u64 = reps
        .iter()
        .map(|r| u64::from(r.panicked) + r.oracle_failed)
        .sum();
    let mut correct = true;
    if reps.iter().any(|r| r.panicked) {
        notes.push("INCORRECT: run_round panicked".into());
    }
    let oracle_checked: u64 = reps.iter().map(|r| r.oracle_checked).sum();
    if oracle_checked > 0 {
        notes.push(format!(
            "oracle: {oracle_checked} rounds checked against ssa_testkit::oracle, {} disagreed",
            reps.iter().map(|r| r.oracle_failed).sum::<u64>()
        ));
    }

    // The reference twin: ThrottleExact workloads must equal an untimed
    // Unshared/ThrottleExact engine on the same input and seed, round for
    // round and in their final totals. Both dense workloads are compared
    // against the same twin stream, so they equal each other as well.
    if spec.engine.budget_policy == BudgetPolicy::ThrottleExact {
        let workload = engine.workload().clone();
        drop(engine);
        let (reference, twin) = check::twin_digests(
            workload,
            workloads::twin_config(&spec.engine),
            1 + warmup + rounds,
        );
        for (i, rep) in reps.iter().enumerate() {
            // Rounds after a panic were never run; the panic is already
            // counted.
            let ran = &reference[..rep.digests.len()];
            let diverged = check::diverged_rounds(ran, &rep.digests);
            failed += diverged as u64;
            if diverged > 0 {
                notes.push(format!(
                    "INCORRECT: repetition {i}: {diverged} rounds diverged from the Unshared twin"
                ));
            }
            if !rep.panicked && outcome_counts(&counters[i]) != outcome_counts(&twin) {
                correct = false;
                notes.push(format!(
                    "INCORRECT: repetition {i}: (rounds, auctions, impressions, clicks, revenue) \
                     {:?} differ from the twin's {:?}",
                    outcome_counts(&counters[i]),
                    outcome_counts(&twin)
                ));
            }
        }
    }

    // Same seed, same round count: the work done must be the same.
    let exact = counters_repeat(spec);
    let same = |a: &EngineMetrics, b: &EngineMetrics| {
        if exact {
            a == b
        } else {
            outcome_counts(a) == outcome_counts(b)
        }
    };
    if counters.iter().any(|c| !same(c, &counters[0])) {
        correct = false;
        notes.push("INCORRECT: work counters differ between repetitions".into());
    }
    let c = &counters[0];
    notes.push(format!(
        "counts{}: rounds={} auctions={} impressions={} clicks={} revenue_micros={} \
         aggregation_ops={} merge_invocations={} ta_stages={} exact_evaluations={} \
         bound_evaluations={}",
        if exact {
            " (identical in every repetition)"
        } else {
            " (first repetition; outcome counts identical in every repetition)"
        },
        c.rounds,
        c.auctions,
        c.impressions,
        c.clicks,
        c.revenue.micros(),
        c.aggregation_ops,
        c.merge_invocations,
        c.ta_stages,
        c.exact_throttle_evaluations,
        c.bound_evaluations,
    ));

    let attempted: u64 = reps
        .iter()
        .map(|r| r.digests.len() as u64 + u64::from(r.panicked))
        .sum();
    correct &= failed == 0;

    // Round i's time: the fastest of its repetitions. For the tail the
    // repetitions are first brought to a common median.
    let complete: Vec<&[u64]> = reps
        .iter()
        .filter(|r| r.round_ns.len() == rounds)
        .map(|r| r.round_ns.as_slice())
        .collect();
    let best_ns = stats::fastest(&complete);
    let best_s = best_ns.iter().sum::<u64>() as f64 / 1e9;
    let best_p50_ms = p50_ms(&best_ns);
    let tail_ns = stats::fastest_rescaled(&complete, (best_p50_ms * 1e6) as u64);
    notes.push(format!(
        "{} repetitions of {rounds} timed rounds after 1 + {warmup} warm-up; each round's time \
         is the fastest of its repetitions, for round_p99_ms after rescaling every repetition \
         to the common median; samples beyond p99: {}",
        reps.len(),
        stats::samples_beyond(tail_ns.len(), 0.99)
    ));
    let auctions = reps
        .iter()
        .find(|r| r.round_ns.len() == rounds)
        .map_or(0, |r| r.auctions);
    let per_rep =
        |f: &dyn Fn(&[u64]) -> f64| -> Vec<f64> { complete.iter().map(|r| f(r)).collect() };
    let rep_p50 = per_rep(&p50_ms);
    let rep_p99 = per_rep(&|r| percentile_ms(r, 0.99));
    let rep_rate = per_rep(&|r| auctions as f64 / (r.iter().sum::<u64>() as f64 / 1e9));
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    notes.push(format!(
        "per repetition: round_p50_ms={rep_p50:.4?} round_p99_ms={rep_p99:.4?} setup_s={setups:.4?}"
    ));
    let samples = (rounds * complete.len()) as u64;
    let metrics = vec![
        Metric::new("round_p50_ms", "ms", best_p50_ms, samples)
            .with_spread(stats::spread(&rep_p50)),
        Metric::new("round_p99_ms", "ms", percentile_ms(&tail_ns, 0.99), samples)
            .with_spread(stats::spread(&rep_p99)),
        Metric::new(
            "auctions_per_s",
            "1/s",
            if best_s > 0.0 {
                auctions as f64 / best_s
            } else {
                0.0
            },
            samples,
        )
        .with_spread(stats::spread(&rep_rate)),
        Metric::new("setup_s", "s", stats::median(&setups), setups.len() as u64)
            .with_spread(stats::spread(&setups)),
        Metric::new(
            "hot_bytes_per_advertiser",
            "B",
            stats::median(&hot_bytes),
            hot_bytes.len() as u64,
        )
        .with_spread(stats::spread(&hot_bytes)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1),
    ];
    Pass {
        metrics,
        correct,
        attempted,
        failed,
        notes,
    }
}
