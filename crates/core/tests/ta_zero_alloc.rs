//! Steady-state TA must not touch the heap in its seen-set and top-k
//! scratch paths.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up run has sized the [`TaScratch`] stamps, the top-k working
//! list, and the output buffer — and the merge network's caches are warm
//! — a TA run over the same phrase must allocate exactly nothing.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a concurrently running test in the same
//! binary would pollute it.

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;
use ssa_core::sort::ta::{threshold_top_k_into, TaScratch};
use ssa_core::sort::MergeNetwork;

mod common;

#[global_allocator]
static COUNTER: common::CountingAlloc = common::CountingAlloc;

#[test]
fn steady_state_ta_allocates_nothing() {
    let n = 64usize;
    let bids: Vec<u64> = (0..n).map(|i| ((i as u64 * 131) % 97) * 10).collect();
    let factors: Vec<f64> = (0..n)
        .map(|i| 0.1 + ((i * 29) % 23) as f64 / 10.0)
        .collect();

    // Balanced network over all advertisers, drained so caches are warm
    // (a steady-state round re-reads cached prefixes; it only merges
    // fresh items inside refreshed cones, which is the network's cost,
    // not TA's).
    let mut net = MergeNetwork::new();
    let mut level: Vec<usize> = bids
        .iter()
        .enumerate()
        .map(|(i, &b)| net.leaf(AdvertiserId::from_index(i), Money::from_micros(b)))
        .collect();
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            next.push(if pair.len() == 2 {
                net.merge(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        level = next;
    }
    let root = level[0];
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
    let run = |net: &mut MergeNetwork,
               scratch: &mut TaScratch,
               out: &mut Vec<(AdvertiserId, ssa_auction::score::Score)>| {
        threshold_top_k_into(
            |i| net.get(root, i),
            &c_order,
            |a| Money::from_micros(bids[a.index()]),
            |a| factors[a.index()],
            k,
            scratch,
            out,
        )
    };

    // Warm-up: sizes the stamps array, the k-list, and the out buffer.
    let warm = run(&mut net, &mut scratch, &mut out);

    // Steady state: several rounds, zero allocations.
    for round in 0..5 {
        let before = common::allocations();
        let steady = run(&mut net, &mut scratch, &mut out);
        let allocated = common::allocations() - before;
        assert_eq!(
            allocated, 0,
            "steady-state TA round {round} performed {allocated} heap allocations"
        );
        assert_eq!(steady, warm, "round {round} diverged");
    }
    assert_eq!(out.len(), k);
}
