//! A counting global allocator for the traced run.
//!
//! Counting is gated by one relaxed flag, so an untraced run pays a single
//! atomic load per allocation and nothing else. While it is on, each thread
//! adds to its own cache line, so the cluster's worker threads do not slow
//! each other down by being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Wraps the system allocator and counts `alloc`/`realloc` calls and bytes
/// while [`set_counting`] is on.
pub struct CountingAlloc;

const LANES: usize = 16;

#[repr(align(64))]
struct Lane {
    calls: AtomicU64,
    bytes: AtomicU64,
}

// Relaxed everywhere: the counters are statistics that publish no other
// data, and they are only read between probes, after the threads that
// added to them have been joined.
static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNTS: [Lane; LANES] = [const {
    Lane {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; LANES];
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let lane = LANE
        .try_with(|lane| {
            if lane.get() == usize::MAX {
                lane.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed) % LANES);
            }
            lane.get()
        })
        // A thread past its thread-local teardown shares lane 0.
        .unwrap_or(0);
    COUNTS[lane].calls.fetch_add(1, Ordering::Relaxed);
    COUNTS[lane]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a const-initialised thread-local `Cell`, never allocates, and so cannot
// re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as `dealloc`, and `new_size` is the caller's to validate.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off; returns whether it was on.
pub fn set_counting(on: bool) -> bool {
    COUNTING.swap(on, Ordering::Relaxed)
}

/// `(calls, bytes)` counted so far, over every thread.
pub fn counted() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(calls, bytes), lane| {
        (
            calls + lane.calls.load(Ordering::Relaxed),
            bytes + lane.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Runs `f` and returns its result with the `(calls, bytes)` it allocated.
/// Zero when counting is off.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = counted();
    let out = f();
    let (calls_after, bytes_after) = counted();
    (out, calls_after - calls, bytes_after - bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        // The only test that flips the process-wide switch, so the test
        // harness's other threads can only add to the count, never hide it.
        let ((), off_calls, _) = measure(|| drop(std::hint::black_box(vec![0u8; 4096])));
        assert_eq!(off_calls, 0, "counting starts switched off");
        assert!(!set_counting(true));
        let (_, calls, bytes) = measure(|| std::hint::black_box(vec![0u8; 4096]));
        assert!(set_counting(false));
        assert!(calls >= 1 && bytes >= 4096, "{calls} calls, {bytes} bytes");
    }
}
