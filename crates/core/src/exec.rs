//! A scoped worker pool, [`shard_pipeline`], built on `std` alone.
//!
//! The engine does not use it: every round runs on the caller's thread.
//! It stays only because the frozen `benchmark/` package times it as the
//! `exec.pipeline` span; its deletion is queued with that package's next
//! change.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `run(0), …, run(shards - 1)` on a pool of `workers` scoped
/// threads and feeds each result to `collect` on the calling thread as
/// it completes.
///
/// Results are delivered in *completion* order (the shard index is
/// passed alongside each result so the caller can reassemble), streamed
/// over a bounded channel, so the calling thread can consume shard N's
/// result while the pool is still working on shard N+1. With
/// `workers <= 1` or a single shard this degenerates to a sequential
/// in-order loop with no threads and no channel.
///
/// `run` must be pure with respect to shard index (workers claim
/// indices from an atomic cursor, so assignment to threads is
/// nondeterministic); any order-sensitive effects belong in `collect`,
/// which runs only on the calling thread. A panic in `collect` or in a
/// worker propagates to the caller once every worker has stopped.
pub fn shard_pipeline<R, F, C>(shards: usize, workers: usize, run: F, mut collect: C)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    C: FnMut(usize, R),
{
    if workers <= 1 || shards <= 1 {
        for s in 0..shards {
            let r = run(s);
            collect(s, r);
        }
        return;
    }
    // `Relaxed` suffices: the cursor publishes no other data, it only
    // hands each index to exactly one worker.
    let next = AtomicUsize::new(0);
    // Capacity 2·workers: enough slack that a burst of fast shards does
    // not serialize the pool on the calling thread, small enough to bound
    // the results held in flight.
    let (tx, rx) = mpsc::sync_channel::<(usize, R)>(2 * workers);
    std::thread::scope(|scope| {
        // Moved into the closure: if `collect` panics, `rx` drops during
        // this closure's unwind, before the scope joins the workers, so a
        // worker blocked on a full channel gets an error instead of
        // deadlocking the join.
        let rx = rx;
        for _ in 0..workers.min(shards) {
            let tx = tx.clone();
            let (next, run) = (&next, &run);
            scope.spawn(move || loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                // A failed send means the receiver is gone (the collector
                // panicked); stop so the scope can join and re-raise.
                if s >= shards || tx.send((s, run(s))).is_err() {
                    break;
                }
            });
        }
        // Drop the pool's original sender so `recv` fails once every
        // worker has finished.
        drop(tx);
        while let Ok((s, r)) = rx.recv() {
            collect(s, r);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_pipeline_propagates_collect_panic_without_hanging() {
        // Many shards + tiny channel: workers are blocked on a full
        // channel when the collector dies. The panic must propagate
        // through the scope join, not deadlock it.
        let result = std::panic::catch_unwind(|| {
            shard_pipeline(64, 2, |s| s, |_, _| panic!("collector died"));
        });
        assert!(result.is_err(), "collect panic must propagate");
    }

    #[test]
    fn shard_pipeline_covers_every_shard_once() {
        for (shards, workers) in [(0, 4), (1, 4), (5, 1), (7, 2), (16, 4), (3, 8)] {
            let mut seen = vec![0u32; shards];
            shard_pipeline(
                shards,
                workers,
                |s| s * 10,
                |s, r| {
                    assert_eq!(r, s * 10);
                    seen[s] += 1;
                },
            );
            assert!(
                seen.iter().all(|&c| c == 1),
                "shards {shards} workers {workers}: {seen:?}"
            );
        }
    }

    #[test]
    fn shard_pipeline_sequential_path_preserves_order() {
        let mut order = Vec::new();
        shard_pipeline(6, 1, |s| s, |s, _| order.push(s));
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }
}
