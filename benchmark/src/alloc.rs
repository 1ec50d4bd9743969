//! Counting global allocator: calls, bytes requested, live bytes and their
//! peak. Local to the benchmark so that deleting `crates/bench` (ROADMAP
//! item 1) cannot change what `allocs` / `alloc_bytes` / `heap_peak_bytes`
//! mean.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed throughout: these are statistics that publish no other data, and
// every measured interval is single-threaded (`sampling_workers = 1`).
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

fn grew(bytes: u64) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the wrapper only updates counters and
// never reads or writes through the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls and bytes requested since process start.
#[derive(Clone, Copy)]
pub struct Mark {
    calls: u64,
    bytes: u64,
}

pub fn mark() -> Mark {
    Mark {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

impl Mark {
    /// `(calls, bytes)` since this mark was taken.
    pub fn since(self) -> (u64, u64) {
        let now = mark();
        (now.calls - self.calls, now.bytes - self.bytes)
    }
}

/// Starts a new peak measurement at the current live size and returns that
/// size, so a rep's peak can be reported net of what the harness holds.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
