//! Global counting allocator for the bench binaries.
//!
//! Wraps the system allocator and counts every `alloc`/`alloc_zeroed`/
//! `realloc` with relaxed atomics, so benches can report *allocation
//! counts* alongside wall-clock — the metric the allocation-free wire
//! plane (DESIGN.md §3a.1) is gated on in CI. Counting is always on in
//! `mrmc-bench` binaries (the one relaxed fetch-add is noise next to
//! the allocator call itself) and deliberately not installed anywhere
//! else in the workspace. Live bytes are tracked only while
//! [`heap_peak_during`] asks for a heap peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// Statistics only: they publish no other data, so relaxed ordering
// suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static TRACK_HEAP: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    if TRACK_HEAP.load(Relaxed) {
        let live = LIVE_BYTES.fetch_add(bytes as i64, Relaxed) + bytes as i64;
        PEAK_BYTES.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if TRACK_HEAP.load(Relaxed) {
        LIVE_BYTES.fetch_sub(bytes as i64, Relaxed);
    }
}

/// System allocator with relaxed-atomic allocation counting.
pub struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh allocation from the counting perspective:
        // the bytes move even when the block extends in place.
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Total allocations since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Run `f`, returning its result plus the allocations it performed.
/// Single-threaded sections only — concurrent allocations elsewhere
/// would be charged to `f`.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Run `f`, returning its result plus the most bytes the heap held
/// above its level at the start, over all threads. Not reentrant, and
/// like [`count_allocs`] it charges `f` with whatever else allocates
/// meanwhile.
pub fn heap_peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE_BYTES.store(0, Relaxed);
    PEAK_BYTES.store(0, Relaxed);
    TRACK_HEAP.store(true, Relaxed);
    let out = f();
    TRACK_HEAP.store(false, Relaxed);
    (out, PEAK_BYTES.load(Relaxed).max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_move_when_allocating() {
        // Without the black box a release build drops the allocation:
        // the vector's only use is its (constant) length.
        let (v, n) = count_allocs(|| std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(v.len(), 4096);
        assert!(n >= 1, "a fresh Vec must register at least one alloc");
    }
}
