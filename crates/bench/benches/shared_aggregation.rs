//! E5 micro-benchmarks: shared-plan evaluation vs independent scans for
//! one round of winner determination. `shared_plan` times the generic
//! `PlanDag::evaluate`; `topk_cones` times the engine's path over the same
//! plan (walk the occurring cones, then fill: a scan per fragment run, ⊕
//! above).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ssa_auction::money::Money;
use ssa_auction::score::Score;
use ssa_bench::setups::{sweep_workload, workload_problem};
use ssa_core::plan::{SharedPlanner, TopKCones};
use ssa_core::topk::{KList, ScoredAd, ScoredTopKOp};

fn bench_shared_vs_unshared(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_winner_determination");
    for &(n, m) in &[(1_000usize, 8usize), (5_000, 16), (20_000, 16)] {
        let w = sweep_workload(n, m, 4, 5);
        let problem = workload_problem(&w);
        let plan = SharedPlanner::fragments_only().plan(&problem);
        let k = 5;
        let leaves: Vec<KList<ScoredAd>> = w
            .advertisers
            .iter()
            .map(|a| {
                KList::singleton(
                    k,
                    ScoredAd::new(a.id, Score::expected_value(a.bid, a.base_factor)),
                )
            })
            .collect();
        let occurring = vec![true; m];
        let op = ScoredTopKOp { k };

        group.bench_with_input(
            BenchmarkId::new("shared_plan", format!("n{n}_m{m}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let (results, ops) =
                        plan.evaluate(&op, black_box(&leaves), black_box(&occurring));
                    black_box((results, ops))
                })
            },
        );
        let bids: Vec<Money> = w.advertisers.iter().map(|a| a.bid).collect();
        let mut cones = TopKCones::new();
        group.bench_with_input(
            BenchmarkId::new("topk_cones", format!("n{n}_m{m}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    cones.walk(&plan, plan.query_nodes().iter().copied());
                    black_box(cones.fill(&plan, k, |i| {
                        Score::expected_value(bids[i], w.advertisers[i].base_factor)
                    }))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("unshared_scan", format!("n{n}_m{m}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(m);
                    for q in 0..m {
                        let mut top: KList<ScoredAd> = KList::empty(k);
                        for &a in &w.interest[q] {
                            let adv = &w.advertisers[a.index()];
                            top.insert(ScoredAd::new(
                                a,
                                Score::expected_value(adv.bid, adv.base_factor),
                            ));
                        }
                        out.push(top);
                    }
                    black_box(out)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_shared_vs_unshared
}
criterion_main!(benches);
