//! The figure/table regeneration harness.
//!
//! ```text
//! experiments figures         # every deterministic paper figure (ssa_bench::figures),
//!                             #     written to crates/bench/golden/full/<id>.txt
//! experiments figures --quick # the quick set the figures_golden test checks
//!                             #     (crates/bench/golden/quick/<id>.txt)
//! experiments planner-scaling # planner build-time curves (BENCH_planner_scaling.json)
//! experiments memory-scaling  # A8: hot-state bytes + round latency at
//!                             #     n in {10k, 100k, 1M} (BENCH_memory_scaling.json)
//! experiments all             # everything above
//! ```
//!
//! Pass `--quick` for a fast smoke-run. The two sweeps print their
//! tables and persist them to `results/<id>.{csv,json}`.

use std::path::PathBuf;
use std::time::Instant;

use ssa_bench::figures::{golden_dir, FIGURES};
use ssa_bench::host::host_metadata;
use ssa_bench::json::Value;
use ssa_bench::setups::executor_workload;
use ssa_bench::Table;
use ssa_core::engine::{BudgetPolicy, Engine, EngineConfig, SharingStrategy};
use ssa_core::plan::cost::expected_cost;
use ssa_core::plan::SharedPlanner;
use ssa_testkit::plan_oracle::{reference_plan, REFERENCE_COST_SLACK};
use ssa_workload::{Workload, WorkloadConfig};

fn out_dir() -> PathBuf {
    PathBuf::from("results")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let quick = args.iter().any(|a| a == "--quick");
    match which {
        "figures" => figures(quick),
        "planner-scaling" => planner_scaling(quick),
        "memory-scaling" => memory_scaling(quick),
        "all" => {
            figures(quick);
            planner_scaling(quick);
            memory_scaling(quick);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

/// Prints every paper figure and writes it to its golden file.
fn figures(quick: bool) {
    let dir = golden_dir(quick);
    std::fs::create_dir_all(&dir).expect("create the golden directory");
    for (id, render) in FIGURES {
        let text = render(quick);
        println!("{text}");
        std::fs::write(dir.join(format!("{id}.txt")), text).expect("write a golden file");
    }
}

/// Planner build-time scaling: fragments-only vs the paper-literal
/// recompute-all-pairs completion (the testkit oracle) vs the production
/// lazy-greedy completion, on the executor workload shape (24 phrases, 6
/// topics). The literal loop is only timed where it is tractable; larger
/// sizes record it as skipped. Where both run, the production plan's
/// expected cost must sit within the corpus slack of the literal loop's. Writes `results/planner_scaling.*` plus the top-level
/// `BENCH_planner_scaling.json` the CI smoke job uploads.
fn planner_scaling(quick: bool) {
    let sizes: &[usize] = if quick {
        &[100, 300, 1_000]
    } else {
        &[100, 300, 1_000, 3_000]
    };
    let reference_limit = if quick { 100 } else { 300 };
    let mut table = Table::new(
        "planner_scaling",
        "shared-plan build time vs advertiser count (24 phrases, 6 topics)",
        &[
            "advertisers",
            "fragments ms",
            "reference ms",
            "lazy ms",
            "fragments cost",
            "reference cost",
            "lazy cost",
        ],
    );
    let mut runs = Vec::new();
    for &n in sizes {
        let w = executor_workload(n, 19);
        let (problem, _kept) = ssa_testkit::gen::plan_problem_nonempty(&w);

        let t0 = Instant::now();
        let frag = SharedPlanner::fragments_only().plan(&problem);
        let frag_ms = t0.elapsed().as_secs_f64() * 1e3;
        let frag_cost = expected_cost(&frag, &problem.search_rates);

        let t0 = Instant::now();
        let lazy = SharedPlanner::full().plan(&problem);
        let lazy_ms = t0.elapsed().as_secs_f64() * 1e3;
        let lazy_cost = expected_cost(&lazy, &problem.search_rates);

        let reference = (n <= reference_limit).then(|| {
            let t0 = Instant::now();
            let plan = reference_plan(&problem);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, expected_cost(&plan, &problem.search_rates))
        });
        if let Some((_, ref_cost)) = reference {
            assert!(
                lazy_cost <= ref_cost * (1.0 + REFERENCE_COST_SLACK) + 1e-9,
                "production plan cost {lazy_cost} is more than {REFERENCE_COST_SLACK} above \
                 the literal loop's {ref_cost} at n={n}"
            );
        }

        let (ref_ms_s, ref_cost_s) = match reference {
            Some((ms, cost)) => (format!("{ms:.1}"), format!("{cost:.2}")),
            None => ("skipped".into(), "skipped".into()),
        };
        table.push(vec![
            n.to_string(),
            format!("{frag_ms:.1}"),
            ref_ms_s,
            format!("{lazy_ms:.1}"),
            format!("{frag_cost:.2}"),
            ref_cost_s,
            format!("{lazy_cost:.2}"),
        ]);
        runs.push((n, frag_ms, frag_cost, lazy_ms, lazy_cost, reference));
    }
    table.emit(&out_dir()).expect("write results");

    let run_values: Vec<Value> = runs
        .iter()
        .map(|&(n, frag_ms, frag_cost, lazy_ms, lazy_cost, reference)| {
            let mut fields = vec![
                ("advertisers".into(), Value::from(n)),
                ("fragments_only_ms".into(), Value::from(frag_ms)),
                ("fragments_only_cost".into(), Value::from(frag_cost)),
                ("lazy_greedy_ms".into(), Value::from(lazy_ms)),
                ("lazy_greedy_cost".into(), Value::from(lazy_cost)),
            ];
            match reference {
                Some((ms, cost)) => {
                    fields.push(("reference_greedy_ms".into(), Value::from(ms)));
                    fields.push(("reference_greedy_cost".into(), Value::from(cost)));
                }
                None => fields.push((
                    "reference_greedy".into(),
                    Value::from("skipped (intractable at this size)"),
                )),
            }
            Value::Object(fields)
        })
        .collect();
    let doc = Value::Object(vec![
        ("benchmark".into(), Value::from("planner_scaling")),
        ("host".into(), host_metadata()),
        ("phrases".into(), Value::from(24usize)),
        ("topics".into(), Value::from(6usize)),
        (
            "note".into(),
            Value::from(
                "build-time curves for the shared-aggregation planner; \
                 reference_greedy is the paper-literal Section II-D loop \
                 (ssa-testkit's planner oracle), lazy_greedy the one \
                 production completion, whose expected cost is asserted \
                 within the corpus slack of the literal loop's wherever \
                 both run",
            ),
        ),
        ("runs".into(), Value::Array(run_values)),
    ]);
    std::fs::write("BENCH_planner_scaling.json", doc.to_string_pretty())
        .expect("write BENCH_planner_scaling.json");
    println!("wrote BENCH_planner_scaling.json");
}

/// A8: memory-scale hot state. Sweeps the advertiser population at a
/// fixed *per-phrase* load (topics and phrases grow with `n`, so each
/// interest set stays ~2k advertisers and the expected occurring-phrase
/// count per round is bounded by the Zipf tail) under both shared
/// strategies + exact throttling at low churn — the regime ROADMAP's
/// "memory discipline at 100k-1M advertisers" item asks about. Two
/// strategies sweep the same workload per `n`:
///
/// * **`SharedSort`** — the persistent merge network, refreshed along
///   dirty cones and pulled by the Threshold Algorithm.
/// * **`SharedAggregation`** — the plan-bearing path (adaptive-sparse
///   `VarSet` queries, CSR node pool), evaluated over the occurring
///   phrases' cones only.
///
/// For every `(strategy, n)` the sweep asserts the engine is revenue-
/// and impression-identical to an `Unshared` twin before trusting any
/// number, then gates loudly:
///
/// 1. **Sub-linear round latency** — mean steady-state round wall-clock
///    grows by less than `10x` per `10x` advertisers (census, throttle,
///    resolution and settlement all touch participants, not the
///    population).
/// 2. **Bounded hot state** — [`Engine::hot_state_bytes`] (deterministic
///    capacity accounting: SoA ledgers, bid vectors, plan arena + CSR
///    variable-set pool, merge caches) stays under a
///    per-strategy bytes-per-advertiser ceiling at every `n`.
///
/// `--quick` caps the sweep at 100k (the CI `memory-smoke` budget); the
/// full run adds the 1M point. Writes `results/memory_scaling.*` plus
/// the top-level `BENCH_memory_scaling.json` artifact.
fn memory_scaling(quick: bool) {
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    // 64 full rounds: with a warm merge network a SharedSort round is
    // cheap enough that over only 16 the 100k mean was dominated by the
    // cold first occurrences of its larger phrase universe.
    let rounds = if quick { 10usize } else { 64 };
    let warmup = 2usize;
    let latency_gate = 10.0; // max mean-latency growth per 10x advertisers
    struct StrategyCase {
        name: &'static str,
        sharing: SharingStrategy,
        /// Hot-state bytes-per-advertiser ceiling for this strategy.
        bytes_ceiling: usize,
    }
    let strategies = [
        StrategyCase {
            name: "shared-sort",
            sharing: SharingStrategy::SharedSort,
            bytes_ceiling: 220,
        },
        StrategyCase {
            name: "shared-aggregation",
            sharing: SharingStrategy::SharedAggregation,
            bytes_ceiling: 220,
        },
    ];

    let mut table = Table::new(
        "memory_scaling",
        "hot-state bytes and round latency vs population \
         (shared-sort + shared-aggregation, throttle-exact, low churn)",
        &[
            "sharing",
            "advertisers",
            "phrases",
            "mean round ms",
            "min round ms",
            "hot-state MB",
            "bytes/advertiser",
            "occurring/round",
        ],
    );

    struct Point {
        strategy: &'static str,
        n: usize,
        phrases: usize,
        mean_ms: f64,
        min_ms: f64,
        hot_bytes: usize,
        occurring_per_round: f64,
    }
    let mut points: Vec<Point> = Vec::new();
    for &n in sizes {
        let topics = (n / 1_250).max(4);
        let phrases = 2 * topics;
        let w = Workload::generate(&WorkloadConfig {
            advertisers: n,
            phrases,
            topics,
            // Zipf exponent > 1 bounds the expected occurring-phrase
            // count per round as the phrase count grows with n.
            search_rate_zipf_exponent: 1.2,
            max_search_rate: 0.4,
            // Specialists only: with topics growing into the hundreds,
            // random 3-topic generalists would make the signature count
            // explode combinatorially (C(topics, 3) distinct fragments),
            // and the planner's stage-3 greedy is quadratic in fragments
            // — a construction-time concern that planner-scaling owns.
            // This sweep measures round-path memory and latency. (No
            // factor jitter either, so every phrase is separable and the
            // same workload is plan-eligible for SharedAggregation.)
            generalist_fraction: 0.0,
            seed: 37,
            ..WorkloadConfig::default()
        });
        let config = |sharing: SharingStrategy| EngineConfig {
            sharing,
            budget_policy: BudgetPolicy::ThrottleExact,
            seed: 41,
            ..EngineConfig::default()
        };

        // Identity twin first: same workload, same round seed, unshared
        // scans. Only bids/budgets drive churn (static bids, depleting
        // budgets), so this is the low-churn regime by construction.
        let mut unshared = Engine::new(w.clone(), config(SharingStrategy::Unshared));
        unshared.run(rounds);
        let um = unshared.metrics().clone();
        drop(unshared);

        for case in &strategies {
            let mut engine = Engine::new(w.clone(), config(case.sharing));
            let mut round_ns: Vec<u128> = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let t0 = Instant::now();
                engine.run_round();
                round_ns.push(t0.elapsed().as_nanos());
            }
            let m = engine.metrics().clone();
            assert_eq!(
                (um.impressions, um.clicks, um.revenue),
                (m.impressions, m.clicks, m.revenue),
                "{} diverged from the unshared twin at n={n}",
                case.name
            );

            let steady = &round_ns[warmup..];
            let mean_ms = steady.iter().sum::<u128>() as f64 / steady.len() as f64 / 1e6;
            let min_ms = *steady.iter().min().expect("steady rounds") as f64 / 1e6;
            let hot_bytes = engine.hot_state_bytes();
            let occurring_per_round = m.auctions as f64 / rounds as f64;
            table.push(vec![
                case.name.to_string(),
                n.to_string(),
                phrases.to_string(),
                format!("{mean_ms:.3}"),
                format!("{min_ms:.3}"),
                format!("{:.1}", hot_bytes as f64 / 1e6),
                hot_bytes.div_ceil(n).to_string(),
                format!("{occurring_per_round:.1}"),
            ]);
            points.push(Point {
                strategy: case.name,
                n,
                phrases,
                mean_ms,
                min_ms,
                hot_bytes,
                occurring_per_round,
            });
        }
    }
    table.emit(&out_dir()).expect("write results");

    let mut strategy_values: Vec<Value> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for case in &strategies {
        let strat_points: Vec<&Point> = points.iter().filter(|p| p.strategy == case.name).collect();
        let mut ratios = Vec::new();
        for pair in strat_points.windows(2) {
            let ratio = pair[1].mean_ms / pair[0].mean_ms;
            ratios.push((pair[0].n, pair[1].n, ratio));
        }
        let point_values: Vec<Value> = strat_points
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("advertisers".into(), Value::from(p.n)),
                    ("phrases".into(), Value::from(p.phrases)),
                    ("mean_round_ms".into(), Value::from(p.mean_ms)),
                    ("min_round_ms".into(), Value::from(p.min_ms)),
                    ("hot_state_bytes".into(), Value::from(p.hot_bytes)),
                    (
                        "bytes_per_advertiser".into(),
                        Value::from(p.hot_bytes.div_ceil(p.n)),
                    ),
                    (
                        "occurring_per_round".into(),
                        Value::from(p.occurring_per_round),
                    ),
                ])
            })
            .collect();
        let ratio_values: Vec<Value> = ratios
            .iter()
            .map(|&(from, to, r)| {
                Value::Object(vec![
                    ("from_advertisers".into(), Value::from(from)),
                    ("to_advertisers".into(), Value::from(to)),
                    ("mean_latency_ratio".into(), Value::from(r)),
                    ("gate".into(), Value::from(latency_gate)),
                ])
            })
            .collect();
        strategy_values.push(Value::Object(vec![
            ("sharing".into(), Value::from(case.name)),
            (
                "bytes_per_advertiser_ceiling".into(),
                Value::from(case.bytes_ceiling),
            ),
            ("points".into(), Value::Array(point_values)),
            ("latency_ratios".into(), Value::Array(ratio_values)),
        ]));

        for p in &strat_points {
            let per_adv = p.hot_bytes.div_ceil(p.n);
            if per_adv > case.bytes_ceiling {
                failures.push(format!(
                    "{} hot state at n={} is {} bytes = {per_adv} bytes/advertiser \
                     (ceiling {}); a new population-sized structure costs 4-8+ \
                     bytes/advertiser — account for it or shrink it",
                    case.name, p.n, p.hot_bytes, case.bytes_ceiling
                ));
            }
        }
        for &(from, to, ratio) in &ratios {
            if ratio >= latency_gate {
                failures.push(format!(
                    "{} mean round latency grew {ratio:.2}x from n={from} to \
                     n={to} (gate {latency_gate}x): the round path is no longer \
                     occurrence-driven — look for a new O(n) loop in \
                     census/throttle/settle or a resolver scanning the population",
                    case.name
                ));
            }
        }
    }
    let doc = Value::Object(vec![
        ("benchmark".into(), Value::from("memory_scaling")),
        ("host".into(), host_metadata()),
        ("budget_policy".into(), Value::from("throttle-exact")),
        ("rounds".into(), Value::from(rounds)),
        ("warmup_rounds".into(), Value::from(warmup)),
        ("quick".into(), Value::from(quick)),
        (
            "note".into(),
            Value::from(
                "per-phrase load held fixed while n grows (topics ~ n/1250, \
                 phrases = 2*topics, Zipf(1.2) search rates, no jitter so \
                 both strategies share one workload): interest sets stay \
                 ~2k advertisers and ~1-2 phrases occur per round, so a \
                 population-proportional round path would show up as a \
                 ~10x latency ratio per decade (gated for both \
                 strategies); every \
                 point is asserted revenue-identical to an unshared twin \
                 before timing is trusted; hot_state_bytes is capacity \
                 accounting (SoA ledgers, bid vectors, plan/sort arenas, \
                 CSR variable-set pool, merge caches), not RSS",
            ),
        ),
        ("strategies".into(), Value::Array(strategy_values)),
    ]);
    std::fs::write("BENCH_memory_scaling.json", doc.to_string_pretty())
        .expect("write BENCH_memory_scaling.json");
    println!("wrote BENCH_memory_scaling.json");

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
