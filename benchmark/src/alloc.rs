//! The benchmark binary's global allocator: the system allocator with an
//! allocation counter that is switched on only around traced engine
//! rounds, and glibc's trim/mmap thresholds pinned so freed memory stays
//! in the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while [`count`] is switched on. Switched off it
/// costs one relaxed load of a flag no thread is writing, so the untraced
/// pass (and the sharded workers) pay no shared-counter traffic.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counters are plain
// statistics that publish no other data (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switches counting on or off.
pub fn count(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Tells glibc to keep freed memory instead of returning it to the
/// kernel. The plan resolver frees and reallocates a population-sized
/// leaf vector every round; with the default thresholds each round
/// shrinks and regrows the heap, and the page faults that follow made
/// `round_p50_ms` swing by 40 % between runs of one seed. The benchmark
/// measures the engine, not the kernel's page allocator, so it pins the
/// heap. A no-op off glibc.
pub fn pin_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores tuning values inside glibc's
        // allocator; it is called once, before any other thread exists.
        // 32 MiB is the largest mmap threshold glibc accepts.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}
