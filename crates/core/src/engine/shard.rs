//! A deterministic phrase → shard partition.
//!
//! The engine runs every round on one thread over one resolver set; it
//! has no sharded executor. [`ShardPlan`] stays only because the frozen
//! `benchmark/` package still slices its layer replay by it and reports
//! `shard.imbalance` from it. Its deletion is queued with that package's
//! next change.

use ssa_workload::Workload;

/// A static phrase → shard assignment.
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
    /// phrase's interest set, which steers overlapping phrases together.
    /// Fully deterministic: ties break toward the lowest shard index.
    /// Shards left empty (more shards than phrases, or extreme skew) are
    /// compressed away.
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
}
