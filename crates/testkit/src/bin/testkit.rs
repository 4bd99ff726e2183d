//! Soak runner for the differential-oracle harness.
//!
//! Usage:
//!
//! ```text
//! testkit --count 100000        # run seeds 0..100000 through every check
//! testkit --seed 12345          # replay one seed and print its divergences
//! testkit --start 5000 --count 1000
//! ```
//!
//! On a divergence from a workload-driven check, the runner shrinks the
//! workload configuration (halving advertisers/phrases, dropping overlap
//! and jitter) while the check still fails, then pretty-prints the
//! minimized configuration alongside the divergence. Exits non-zero if
//! any seed diverged.

use ssa_testkit::diff::{self, Divergence, WorkloadCheck};
use ssa_workload::WorkloadConfig;

fn parse_args() -> (u64, u64, Option<u64>) {
    let mut start = 0u64;
    let mut count = 1000u64;
    let mut single = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("expected a number after {}", args[i]);
                    std::process::exit(2);
                })
        };
        match args[i].as_str() {
            "--count" => {
                count = value(i);
                i += 2;
            }
            "--start" => {
                start = value(i);
                i += 2;
            }
            "--seed" => {
                single = Some(value(i));
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}; known: --count N --start N --seed N");
                std::process::exit(2);
            }
        }
    }
    (start, count, single)
}

/// Shrinks a diverging workload config: repeatedly tries smaller variants
/// and keeps any that still make the check fail.
fn minimize(cfg: &WorkloadConfig, seed: u64, check: WorkloadCheck) -> WorkloadConfig {
    let mut best = cfg.clone();
    loop {
        let mut candidates: Vec<WorkloadConfig> = Vec::new();
        if best.advertisers > 2 {
            candidates.push(WorkloadConfig {
                advertisers: best.advertisers / 2,
                ..best.clone()
            });
        }
        if best.phrases > 1 {
            candidates.push(WorkloadConfig {
                phrases: best.phrases / 2,
                ..best.clone()
            });
        }
        if best.topics > 1 {
            candidates.push(WorkloadConfig {
                topics: best.topics - 1,
                ..best.clone()
            });
        }
        if best.generalist_fraction > 0.0 {
            candidates.push(WorkloadConfig {
                generalist_fraction: 0.0,
                ..best.clone()
            });
        }
        if best.phrase_factor_jitter > 0.0 {
            candidates.push(WorkloadConfig {
                phrase_factor_jitter: 0.0,
                ..best.clone()
            });
        }
        if best.separable_fraction > 0.0 {
            candidates.push(WorkloadConfig {
                separable_fraction: 0.0,
                ..best.clone()
            });
        }
        if best.search_rate_zipf_exponent > 0.0 {
            candidates.push(WorkloadConfig {
                search_rate_zipf_exponent: 0.0,
                ..best.clone()
            });
        }
        match candidates.into_iter().find(|c| check(c, seed).is_err()) {
            Some(smaller) => best = smaller,
            None => return best,
        }
    }
}

fn report(seed: u64, d: &Divergence) {
    eprintln!("{d}");
    if let Some((_, profile, check)) = diff::WORKLOAD_CHECKS.iter().find(|(n, _, _)| *n == d.check)
    {
        let cfg = ssa_testkit::gen::workload_config(seed, *profile);
        let min = minimize(&cfg, seed, *check);
        eprintln!("  minimized workload config: {min:#?}");
        if let Err(small) = check(&min, seed) {
            eprintln!("  divergence on minimized workload: {}", small.detail);
        }
    }
}

fn main() {
    let (start, count, single) = parse_args();
    let seeds: Vec<u64> = match single {
        Some(s) => vec![s],
        None => (start..start.saturating_add(count)).collect(),
    };
    let total = seeds.len();
    let mut failures = 0usize;
    for (i, seed) in seeds.into_iter().enumerate() {
        let divergences = diff::run_all(seed);
        for d in &divergences {
            report(seed, d);
        }
        if !divergences.is_empty() {
            failures += 1;
        }
        if (i + 1) % 500 == 0 {
            eprintln!("... {}/{} seeds, {} failing", i + 1, total, failures);
        }
    }
    if failures > 0 {
        eprintln!("{failures}/{total} seeds diverged");
        std::process::exit(1);
    }
    println!("{total} seeds clean");
}
