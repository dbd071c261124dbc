//! Counting global allocator: allocation count, live bytes and their
//! high-water mark for the whole process (every rank thread included).
//! The same shape as `crates/bench/tests/alloc_gauge.rs`, plus the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Gauge;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System` — every contract (layout
// validity, pointer provenance) is forwarded unchanged; the counters
// are lock-free atomics that never allocate.
unsafe impl GlobalAlloc for Gauge {
    // SAFETY (all three methods): the caller upholds GlobalAlloc's
    // contract; the exact same arguments are forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size() as u64);
        unsafe { System.alloc(layout) } // SAFETY: forwarded contract.
    }

    // SAFETY: see `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) } // SAFETY: forwarded contract.
    }

    // SAFETY: see `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(new_size as u64);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) } // SAFETY: forwarded contract.
    }
}

/// Allocations (including reallocations) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the current live size and return that
/// size, so `peak() - baseline` is what was added on top afterwards.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Highest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
