//! A steady-state round on a run-backed merge network — refresh, then TA
//! — must not touch the heap.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up round has sized the [`TaScratch`] stamps, the top-k working
//! list, the output buffer and the merge caches, a round that moves some
//! bids (rebuilding their runs and resetting the cones above) and re-runs
//! TA must allocate exactly nothing.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a concurrently running test in the same
//! binary would pollute it.

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;
use ssa_core::sort::ta::{threshold_top_k_into, TaScratch};
use ssa_core::sort::{LeafCones, MergeNetwork, SortItem};

mod common;

#[global_allocator]
static COUNTER: common::CountingAlloc = common::CountingAlloc;

#[test]
fn steady_state_ta_allocates_nothing() {
    let n = 64usize;
    let mut bids: Vec<Money> = (0..n)
        .map(|i| Money::from_micros(((i as u64 * 131) % 97) * 10))
        .collect();
    let factors: Vec<f64> = (0..n)
        .map(|i| 0.1 + ((i * 29) % 23) as f64 / 10.0)
        .collect();

    // Eight runs of eight under a balanced tree; run `r` is node `r`, and
    // its cone is every merge node above it.
    let mut net = MergeNetwork::new();
    let mut level: Vec<usize> = (0..n)
        .collect::<Vec<_>>()
        .chunks(8)
        .map(|run| {
            net.run(run.iter().map(|&i| SortItem {
                bid: bids[i],
                advertiser: AdvertiserId::from_index(i),
            }))
        })
        .collect();
    let runs = level.len();
    let mut cones: Vec<Vec<u32>> = vec![Vec::new(); runs];
    let mut below: Vec<Vec<usize>> = (0..runs).map(|r| vec![r]).collect();
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            next.push(if pair.len() == 2 {
                let node = net.merge(pair[0], pair[1]);
                let under = [below[pair[0]].clone(), below[pair[1]].clone()].concat();
                for &r in &under {
                    cones[r].push(node as u32);
                }
                below.push(under);
                node
            } else {
                pair[0]
            });
        }
        level = next;
    }
    let cones = LeafCones::from_lists(&cones);
    let root = level[0];
    // Drained once, so every cache already has its full capacity.
    net.drain(root);

    let mut c_order: Vec<(AdvertiserId, f64)> = factors
        .iter()
        .enumerate()
        .map(|(i, &c)| (AdvertiserId::from_index(i), c))
        .collect();
    c_order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut scratch = TaScratch::new();
    let mut out = Vec::new();
    let k = 5;
    let round = |net: &mut MergeNetwork,
                 bids: &[Money],
                 scratch: &mut TaScratch,
                 out: &mut Vec<(AdvertiserId, ssa_auction::score::Score)>| {
        let stats = net.refresh(0..runs, bids, &cones);
        let ta = threshold_top_k_into(
            |i| net.get(root, i),
            &c_order,
            |a| bids[a.index()],
            |a| factors[a.index()],
            k,
            scratch,
            out,
        );
        (stats.nodes_invalidated, ta)
    };

    // Warm-up: sizes the stamps array, the k-list, and the out buffer.
    round(&mut net, &bids, &mut scratch, &mut out);

    // Steady state: each round moves two bids, zero allocations.
    for r in 0..5usize {
        for i in [r * 13 % n, r * 29 % n + 1] {
            bids[i] = Money::from_micros(bids[i].micros() * 7 % 1_000 + r as u64);
        }
        let before = common::allocations();
        let (invalidated, steady) = round(&mut net, &bids, &mut scratch, &mut out);
        let allocated = common::allocations() - before;
        assert_eq!(
            allocated, 0,
            "steady-state round {r} performed {allocated} heap allocations"
        );
        assert!(invalidated > 0, "round {r} must rebuild a run");

        // Against a fresh network over this round's bids.
        let mut fresh = MergeNetwork::new();
        let fresh_root = fresh.run((0..n).map(|i| SortItem {
            bid: bids[i],
            advertiser: AdvertiserId::from_index(i),
        }));
        let mut fresh_out = Vec::new();
        let want = threshold_top_k_into(
            |i| fresh.get(fresh_root, i),
            &c_order,
            |a| bids[a.index()],
            |a| factors[a.index()],
            k,
            &mut TaScratch::new(),
            &mut fresh_out,
        );
        assert_eq!((steady, &out), (want, &fresh_out), "round {r} diverged");
    }
    assert_eq!(out.len(), k);
}
