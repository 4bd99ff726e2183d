//! The counting global allocator behind this directory's allocation and
//! memory pins: it wraps the system allocator and keeps the number of
//! heap allocations made and the live and peak heap bytes. Each test
//! binary installs it with its own `#[global_allocator]` line and reads
//! the counters it needs.
//!
//! The counters are process-global, which is why every binary using them
//! holds a single `#[test]`: a concurrently running test would pollute
//! them.

#![allow(dead_code)] // no one binary reads every counter

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new > old {
            grow(new - old);
        } else {
            LIVE.fetch_sub(old - new, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (reallocations included) made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Restarts peak tracking at the bytes live right now, and returns them.
pub fn restart_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most bytes live at once since the last [`restart_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
