//! The benchmark's own counting global allocator.
//!
//! Every allocating call bumps one counter, and live heap bytes are tracked
//! with a high-water mark. The harness resets the mark at the start of each
//! workload iteration and reads it at the end, which yields `heap_peak_mb`;
//! the call counter, read around a region, yields `alloc.per_round` and
//! `alloc.per_event`. The benchmark drives the simulation on one thread, so
//! `Relaxed` is enough: the counters publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Forwards to [`System`], counting calls and live bytes.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Allocating calls (`alloc`, `alloc_zeroed`, `realloc`) since start.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The highest live heap size since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping around the
// calls only touches atomics and never the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate and free concurrently, so the assertions only
    // rely on this test's own live block.
    #[test]
    fn peak_tracks_a_large_live_allocation() {
        let block = vec![7u8; 64 << 20];
        reset_peak();
        assert!(peak_bytes() >= 64 << 20, "the reset peak starts at the live heap");
        let calls_before = calls();
        drop(std::hint::black_box(block));
        let _again: Vec<u8> = Vec::with_capacity(16);
        assert!(calls() > calls_before, "allocating bumps the call counter");
        assert!(peak_bytes() >= 64 << 20, "freeing never lowers the peak");
    }
}
