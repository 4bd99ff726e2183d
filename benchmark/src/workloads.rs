//! The five benchmark workloads: what input each generates, how the
//! engine under test is configured, and why it was chosen.
//!
//! A workload is a pure function of `(name, seed, quick, nproc)`: the
//! seed feeds both `WorkloadConfig.seed` and `EngineConfig.seed`, and the
//! engine receives only the generated input.

use ssa_core::engine::{BudgetPolicy, EngineConfig, RoutingMode, SharingStrategy};
use ssa_workload::WorkloadConfig;

/// One benchmark workload.
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// Input generator parameters (seed included).
    pub workload: WorkloadConfig,
    /// Engine under test (seed included, thread/shard counts clamped).
    pub engine: EngineConfig,
    /// Runs on the sharded pipelined executor (needs two cores).
    pub sharded: bool,
    /// Repetitions of the untraced pass: a constant of the workload, so
    /// every run uses the same estimator. Five, which is what taking each
    /// round's fastest repetition needs to be steady on the sizing host;
    /// three where a repetition costs seconds of set-up and the tail is
    /// the input's own.
    pub repetitions: usize,
}

/// Every workload name, in report order.
pub const NAMES: [&str; 5] = [
    "sparse_plan",
    "sparse1m_sort",
    "dense_hybrid",
    "dense_hybrid_sharded",
    "tight_bounds",
];

/// The one workload `BENCHMARK.json` does not list, so no change is gated
/// on it: two workers and a committing thread on the sizing host's two
/// shared vCPUs run at one of two speeds 30 % apart for minutes at a
/// time, whichever way they are measured.
pub const UNGATED: &str = "dense_hybrid_sharded";

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 20090329;

/// The A8 construction (`experiments memory-scaling`): topics and phrases
/// grow with `n` so every interest set stays ~1 250 advertisers and ~1.5
/// phrases occur per round.
fn sparse(advertisers: usize, seed: u64) -> WorkloadConfig {
    let topics = (advertisers / 1_250).max(4);
    WorkloadConfig {
        advertisers,
        phrases: 2 * topics,
        topics,
        search_rate_zipf_exponent: 1.2,
        max_search_rate: 0.4,
        generalist_fraction: 0.0,
        seed,
        ..WorkloadConfig::default()
    }
}

fn dense(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        advertisers: 20_000,
        phrases: 256,
        topics: 8,
        generalist_fraction: 0.2,
        search_rate_zipf_exponent: 0.6,
        max_search_rate: 0.9,
        phrase_factor_jitter: 0.4,
        separable_fraction: 0.5,
        budget_mu: 4.5,
        seed,
        ..WorkloadConfig::default()
    }
}

/// Builds the named workload, or `None` for an unknown name.
///
/// `quick` shrinks the 1M input to 100k (smoke use; not comparable).
/// `nproc` clamps thread and shard counts: no workload uses more threads
/// than the host has.
pub fn spec(name: &str, seed: u64, quick: bool, nproc: usize) -> Option<Spec> {
    let name = *NAMES.iter().find(|&&known| known == name)?;
    let engine = |sharing, budget_policy| EngineConfig {
        sharing,
        budget_policy,
        seed,
        ..EngineConfig::default()
    };
    let exact = BudgetPolicy::ThrottleExact;
    Some(match name {
        "sparse_plan" => Spec {
            name,
            why: "50k advertisers, ~1.5 phrases per round, SharedAggregation: the plan \
                  resolver's population-sized evaluation is nearly the whole round",
            workload: sparse(50_000, seed),
            engine: engine(SharingStrategy::SharedAggregation, exact),
            sharded: false,
            repetitions: 5,
        },
        "sparse1m_sort" => Spec {
            name,
            why: "1M advertisers, SharedSort: bypasses the plan layer; the only workload \
                  where memory layout, setup time and peak RSS are large",
            workload: sparse(if quick { 100_000 } else { 1_000_000 }, seed),
            engine: engine(SharingStrategy::SharedSort, exact),
            sharded: false,
            repetitions: 3,
        },
        "dense_hybrid" | "dense_hybrid_sharded" => {
            let sharded = name == "dense_hybrid_sharded";
            let width = if sharded { nproc.min(2) } else { 1 };
            Spec {
                name,
                why: if sharded {
                    "dense_hybrid's input and seed on the sharded pipelined executor: same \
                     layers used differently, outcomes must be bit-identical to serial"
                } else {
                    "20k advertisers, ~19 overlapping auctions per round, Hybrid + adaptive \
                     routing: throttle, both resolvers, router, pricing and settlement all \
                     carry weight"
                },
                workload: dense(seed),
                engine: EngineConfig {
                    routing: RoutingMode::Adaptive,
                    shards: width,
                    wd_threads: width,
                    ..engine(SharingStrategy::Hybrid, exact)
                },
                sharded,
                repetitions: 5,
            }
        }
        "tight_bounds" => Spec {
            name,
            why: "24k advertisers, tight budgets, 16 near-equally likely phrases, Unshared + \
                  ThrottleBounds: Hoeffding bound refinement is the round; plan, sort and \
                  exec do nothing",
            workload: WorkloadConfig {
                advertisers: 24_000,
                phrases: 16,
                topics: 16,
                generalist_fraction: 0.3,
                search_rate_zipf_exponent: 0.2,
                max_search_rate: 0.45,
                phrase_factor_jitter: 0.3,
                budget_mu: 2.0,
                seed,
                ..WorkloadConfig::default()
            },
            engine: EngineConfig {
                mean_click_delay_rounds: 8.0,
                click_expiry_rounds: 40,
                ..engine(SharingStrategy::Unshared, BudgetPolicy::ThrottleBounds)
            },
            sharded: false,
            repetitions: 5,
        },
        _ => unreachable!("every name in NAMES has a spec"),
    })
}

/// The reference twin: `Unshared` scans under `ThrottleExact`, serial,
/// same seed. Every shared strategy under `ThrottleExact` must equal it
/// round for round, and its round time is the paper's baseline.
pub fn twin_config(engine: &EngineConfig) -> EngineConfig {
    EngineConfig {
        sharing: SharingStrategy::Unshared,
        budget_policy: BudgetPolicy::ThrottleExact,
        routing: RoutingMode::Static,
        shards: 1,
        wd_threads: 1,
        ..engine.clone()
    }
}
