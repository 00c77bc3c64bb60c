//! Global counting allocator for the bench binaries.
//!
//! Wraps the system allocator and counts every `alloc`/`alloc_zeroed`/
//! `realloc` with relaxed atomics, so benches can report *allocation
//! counts* alongside wall-clock — the metric the allocation-free wire
//! plane (DESIGN.md §3a.1) is gated on in CI. Counting is always on in
//! `mrmc-bench` binaries (the two relaxed fetch-adds are noise next to
//! the allocator call itself) and deliberately not installed anywhere
//! else in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator with relaxed-atomic allocation counting.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh allocation from the counting perspective:
        // the bytes move even when the block extends in place.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Total allocations since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start (grows included, frees
/// not subtracted).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Run `f`, returning its result plus the allocations it performed.
/// Single-threaded sections only — concurrent allocations elsewhere
/// would be charged to `f`.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
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
        assert!(allocated_bytes() >= 4096);
    }
}
