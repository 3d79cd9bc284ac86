//! Recording into a series that already exists allocates nothing: the
//! registry finds it by borrowed name and labels. A counting global
//! allocator measures the bytes the recording thread asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aorta_obs::SharedMetrics;
use aorta_sim::SimDuration;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread past its thread-local teardown is not the one measured.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; counting only touches a
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while running `f`.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// Records one of each kind into series with 0 to 4 labels, given in
/// unsorted order.
fn record_all(m: &SharedMetrics) {
    let d = SimDuration::from_millis(3);
    m.incr("aorta_probe_attempts", &[], 1);
    m.incr("aorta_probe_attempts", &[("device", "camera-3")], 1);
    m.incr(
        "aorta_probe_attempts",
        &[
            ("shard", "1"),
            ("device", "camera-3"),
            ("kind", "camera"),
            ("a", "z"),
        ],
        2,
    );
    m.counter_set("aorta_engine_executed", &[("shard", "0")], 7);
    m.gauge_set("aorta_admission_tokens_e6", &[], 1_500_000);
    m.gauge_set(
        "aorta_queue_depth",
        &[("lane", "2"), ("algorithm", "lerfa")],
        -1,
    );
    m.observe("aorta_action_latency", &[("action", "photo")], d);
    m.observe(
        "aorta_probe_rtt",
        &[("kind", "mote"), ("device", "sensor-9"), ("hop", "3")],
        d,
    );
}

#[test]
fn recording_into_an_existing_series_allocates_nothing() {
    let m = SharedMetrics::new();
    record_all(&m);
    assert_eq!(allocated_by(|| record_all(&m)), 0);
    assert_eq!(allocated_by(|| m.incr("aorta_probe_attempts", &[], 5)), 0);

    // The second pass landed in the series the first one created.
    let snap = m.snapshot();
    assert_eq!(snap.counter("aorta_probe_attempts", &[]), 7);
    assert_eq!(
        snap.counter(
            "aorta_probe_attempts",
            &[
                ("a", "z"),
                ("device", "camera-3"),
                ("kind", "camera"),
                ("shard", "1")
            ]
        ),
        4
    );
    assert_eq!(snap.counter_total("aorta_probe_attempts"), 13);

    // Creating a series is the path that allocates.
    assert!(allocated_by(|| m.incr("aorta_new_series", &[("k", "v")], 1)) > 0);
}
