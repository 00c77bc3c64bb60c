//! Counting allocator of `perf-trace`: a private take on the idea in
//! `crates/bench/src/alloc.rs`, installed in this binary only so `perf`
//! timings carry none of it.
//!
//! Two worker threads bumping one shared counter 4 M times a stage slowed
//! `candidate-verify` threefold, which would have mis-attributed the very
//! seconds this binary exists to attribute. So calls are counted in
//! per-thread shards (no cache line is shared between running threads), and
//! live bytes are tracked only while a span asks for a heap peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Padded<T>(T);

// Statistics only: they publish no other data, so relaxed ordering suffices.
static ALLOCATIONS: [Padded<AtomicU64>; SHARDS] = [const { Padded(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static TRACK_HEAP: Padded<AtomicBool> = Padded(AtomicBool::new(false));
static LIVE_BYTES: Padded<AtomicI64> = Padded(AtomicI64::new(0));
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it from inside the
    // allocator neither allocates nor registers anything.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn grew(bytes: usize) {
    let shard = MY_SHARD
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                mine.set(NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS);
            }
            mine.get()
        })
        .unwrap_or(0);
    ALLOCATIONS[shard].0.fetch_add(1, Relaxed);
    if TRACK_HEAP.0.load(Relaxed) {
        let live = LIVE_BYTES.0.fetch_add(bytes as i64, Relaxed) + bytes as i64;
        PEAK_BYTES.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if TRACK_HEAP.0.load(Relaxed) {
        LIVE_BYTES.0.fetch_sub(bytes as i64, Relaxed);
    }
}

/// System allocator counting calls and, on request, the heap's peak.
pub struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
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
        // A resize counts as one allocation of the new size replacing the old.
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since process start,
/// over all threads.
pub fn allocations() -> u64 {
    ALLOCATIONS.iter().map(|shard| shard.0.load(Relaxed)).sum()
}

/// Run `body` and return, with its result, the most bytes the heap held
/// above its level at the start. Not reentrant.
pub fn heap_peak_during<R>(body: impl FnOnce() -> R) -> (R, u64) {
    LIVE_BYTES.0.store(0, Relaxed);
    PEAK_BYTES.store(0, Relaxed);
    TRACK_HEAP.0.store(true, Relaxed);
    let result = body();
    TRACK_HEAP.0.store(false, Relaxed);
    (result, PEAK_BYTES.load(Relaxed).max(0) as u64)
}
