//! The engine's one way to use more than one thread: a bounded MPSC
//! channel and the scoped worker pool ([`shard_pipeline`]) that streams
//! per-shard results over it to the committing thread.
//!
//! Everything a worker runs (a shard's throttle, prepare and resolve
//! stages) is single-threaded code over state that shard owns; workers
//! claim shard indices from an atomic cursor, and every order-sensitive
//! effect happens on the calling thread, so the pool size affects
//! wall-clock only, never results.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Mutex-protected state of a bounded MPSC channel. The sender count and
/// receiver-liveness flag live *inside* the mutex, not in atomics beside
/// it: every closed-predicate change is then ordered with the waiter's
/// predicate check by the lock itself, which is what rules out the
/// classic lost wakeup (waiter checks the predicate, closer flips it and
/// notifies before the waiter parks, waiter parks forever).
struct ChanState<T> {
    q: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

/// A bounded MPSC channel: a capacity-capped queue plus the two condvars
/// that park producers (queue full) and the consumer (queue empty).
struct Chan<T> {
    state: Mutex<ChanState<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producer half of [`bounded`]. Cloning registers another producer;
/// dropping the last one wakes the receiver so it can observe closure.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Consumer half of [`bounded`]. Dropping it wakes any producers parked
/// on a full queue so they can observe the disconnect.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Creates a bounded in-memory channel with room for `cap` queued
/// messages. `send` blocks while the queue is full, `recv` blocks while
/// it is empty, and `recv` returns `None` once every sender is dropped
/// and the queue is drained. This is the backpressure seam of the
/// sharded round pipeline: workers finishing shard stages ahead of the
/// committing thread park instead of queueing unbounded results.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            q: VecDeque::with_capacity(cap.max(1)),
            senders: 1,
            receiver_alive: true,
        }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan
            .state
            .lock()
            .expect("channel lock poisoned")
            .senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.chan.state.lock().expect("channel lock poisoned");
        state.senders -= 1;
        if state.senders == 0 {
            // Last sender gone: wake a receiver blocked on an empty
            // queue so it can return `None`. Notifying while the lock is
            // held keeps the wakeup ordered with the receiver's
            // predicate check.
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`, blocking while the channel is at capacity.
    /// Returns `false` (discarding `value`) if the receiver has been
    /// dropped — producers must not park forever on a queue nobody will
    /// ever drain.
    pub fn send(&self, value: T) -> bool {
        let mut state = self.chan.state.lock().expect("channel lock poisoned");
        while state.receiver_alive && state.q.len() >= self.chan.cap {
            state = self
                .chan
                .not_full
                .wait(state)
                .expect("channel lock poisoned");
        }
        if !state.receiver_alive {
            return false;
        }
        state.q.push_back(value);
        drop(state);
        self.chan.not_empty.notify_one();
        true
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking while the channel is empty.
    /// Returns `None` once all senders are dropped and the queue is
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.chan.state.lock().expect("channel lock poisoned");
        loop {
            if let Some(value) = state.q.pop_front() {
                drop(state);
                self.chan.not_full.notify_one();
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .chan
                .not_empty
                .wait(state)
                .expect("channel lock poisoned");
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.chan.state.lock().expect("channel lock poisoned");
        state.receiver_alive = false;
        // Wake every producer parked on a full queue; their `send`
        // returns `false` instead of blocking forever.
        self.chan.not_full.notify_all();
    }
}

/// Runs `run(0), …, run(shards - 1)` on a pool of `workers` scoped
/// threads and feeds each result to `collect` on the calling thread as
/// it completes.
///
/// Results are delivered in *completion* order (the shard index is
/// passed alongside each result so the caller can reassemble), streamed
/// over a bounded channel: the calling thread can commit shard N's
/// result while the pool is still working on shard N+1 — the pipeline
/// shape of the sharded round executor. With `workers <= 1` or a single shard this
/// degenerates to a sequential in-order loop with no threads and no
/// channel (and no allocation), which the zero-alloc harness relies on.
///
/// `run` must be pure with respect to shard index (workers claim
/// indices from an atomic cursor, so assignment to threads is
/// nondeterministic); any order-sensitive effects belong in `collect`,
/// which runs only on the calling thread.
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
    let next = AtomicUsize::new(0);
    // Capacity 2·workers: enough slack that a burst of fast shards does
    // not serialize the pool on the committing thread, small enough to
    // bound memory held in flight.
    let (tx, rx) = bounded::<(usize, R)>(2 * workers);
    crossbeam::thread::scope(|scope| {
        // Capture `rx` by value (the rebinding below consumes it): if
        // `collect` panics, the Receiver then drops *during this
        // closure's unwind* — before crossbeam joins the workers —
        // waking any producer parked on a full queue instead of
        // deadlocking the join.
        let rx = rx;
        for _ in 0..workers.min(shards) {
            let tx = tx.clone();
            scope.spawn(|_| {
                let tx = tx;
                loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    if s >= shards {
                        break;
                    }
                    // A failed send means the receiver is gone (the
                    // collector panicked); stop claiming shards so the
                    // scope can join and propagate that panic.
                    if !tx.send((s, run(s))) {
                        break;
                    }
                }
            });
        }
        // Drop the scope's own sender so `recv` sees closure once the
        // workers finish, then drain on the calling thread.
        drop(tx);
        while let Some((s, r)) = rx.recv() {
            collect(s, r);
        }
    })
    .expect("shard pipeline worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_channel_delivers_everything_then_closes() {
        let (tx, rx) = bounded::<usize>(2);
        let tx2 = tx.clone();
        crossbeam::thread::scope(|scope| {
            scope.spawn(move |_| {
                let tx = tx;
                for i in 0..50 {
                    assert!(tx.send(i));
                }
            });
            scope.spawn(move |_| {
                let tx = tx2;
                for i in 50..100 {
                    assert!(tx.send(i));
                }
            });
            let mut got = Vec::new();
            while let Some(v) = rx.recv() {
                got.push(v);
            }
            got.sort_unstable();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
            assert_eq!(rx.recv(), None, "stays closed after drain");
        })
        .unwrap();
    }

    #[test]
    fn send_fails_once_receiver_is_dropped() {
        let (tx, rx) = bounded::<usize>(4);
        assert!(tx.send(1));
        drop(rx);
        assert!(!tx.send(2), "send must observe the dead receiver");
    }

    #[test]
    fn receiver_drop_wakes_senders_parked_on_full_queue() {
        let (tx, rx) = bounded::<usize>(1);
        assert!(tx.send(0)); // fill to capacity
        crossbeam::thread::scope(|scope| {
            // Parks on the full queue until the receiver drops, then
            // must return `false` instead of blocking forever.
            let parked = scope.spawn(|_| tx.send(1));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
            assert!(!parked.join().unwrap());
        })
        .unwrap();
    }

    #[test]
    fn many_close_races_never_lose_the_wakeup() {
        // Regression for the lost-wakeup race: the last sender dropping
        // concurrently with a receiver checking the empty queue must
        // never leave the receiver parked forever. Tight loop to give
        // the race a real chance; a hang here fails via test timeout.
        for _ in 0..500 {
            let (tx, rx) = bounded::<usize>(2);
            crossbeam::thread::scope(|scope| {
                scope.spawn(move |_| {
                    let tx = tx;
                    assert!(tx.send(7));
                });
                assert_eq!(rx.recv(), Some(7));
                assert_eq!(rx.recv(), None);
            })
            .unwrap();
        }
    }

    #[test]
    fn shard_pipeline_propagates_collect_panic_without_hanging() {
        // Many shards + tiny channel: workers are parked on a full
        // queue when the collector dies. The panic must propagate
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
