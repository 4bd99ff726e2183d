//! Canonical experiment setups shared between benches and the harness.
//!
//! Workload-derived constructions delegate to `ssa_testkit::gen` — the
//! same generators the differential corpus runs on — so benches measure
//! exactly the instances the oracle has vetted.

use ssa_core::plan::PlanProblem;
use ssa_setcover::BitSet;
use ssa_workload::{Workload, WorkloadConfig};

/// The Figure 4 protocol instance: `queries` coin-flip queries over
/// `advertisers` advertisers, all with search rate `sr`.
pub fn fig4_problem(advertisers: usize, queries: usize, sr: f64, seed: u64) -> PlanProblem {
    ssa_testkit::gen::fig4_problem(advertisers, queries, sr, seed)
}

/// A plan problem derived from a topic-model workload's interest sets.
pub fn workload_problem(w: &Workload) -> PlanProblem {
    ssa_testkit::gen::plan_problem(w)
}

/// The standard sweep workload for sharing experiments.
pub fn sweep_workload(advertisers: usize, phrases: usize, topics: usize, seed: u64) -> Workload {
    Workload::generate(&WorkloadConfig {
        advertisers,
        phrases,
        topics,
        seed,
        ..WorkloadConfig::default()
    })
}

/// Interest sets of a workload as bit sets.
pub fn interest_sets(w: &Workload) -> Vec<BitSet> {
    ssa_testkit::gen::interest_sets(w)
}

/// The round-executor benchmark workload: a large unshared-style
/// instance (many advertisers, busy phrases) where per-advertiser
/// throttling and per-phrase top-k scans dominate the round.
pub fn executor_workload(advertisers: usize, seed: u64) -> Workload {
    Workload::generate(&WorkloadConfig {
        advertisers,
        phrases: 24,
        topics: 6,
        max_search_rate: 0.9,
        seed,
        ..WorkloadConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_problem_shape() {
        let p = fig4_problem(20, 10, 0.5, 1);
        assert_eq!(p.var_count, 20);
        assert_eq!(p.query_count(), 10);
        assert!(p.search_rates.iter().all(|&r| r == 0.5));
    }

    #[test]
    fn workload_problem_matches_interest() {
        let w = sweep_workload(50, 6, 3, 2);
        let p = workload_problem(&w);
        assert_eq!(p.query_count(), 6);
        for (q, ids) in w.interest.iter().enumerate() {
            assert_eq!(p.queries[q].len(), ids.len());
        }
    }
}
