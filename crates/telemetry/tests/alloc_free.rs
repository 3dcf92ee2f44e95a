//! Proves the telemetry hot path upholds the workspace's zero-alloc
//! steady-state contract: once handles are registered, recording counters,
//! gauges, histogram samples and flight-recorder events performs **zero heap
//! allocations**. Only registration, snapshots
//! and rendering — setup and scrape time — may allocate.
//!
//! Same discipline as `crates/core/tests/alloc_free.rs`: a counting global
//! allocator, a warm-up pass, then the minimum delta over several attempts
//! must be exactly zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wlac_telemetry::{
    FlightRecorder, MetricsRegistry, RecorderHandle, RecorderKind, RecorderLayer,
};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

fn min_alloc_delta(attempts: usize, mut work: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..attempts {
        let before = allocs();
        work();
        best = best.min(allocs() - before);
    }
    best
}

#[test]
fn hot_path_recording_allocates_nothing() {
    // Setup (may allocate): registry, handles, recorder.
    let registry = MetricsRegistry::new();
    let counter = registry.counter("core_decisions_total");
    let gauge = registry.gauge("service_queue_depth");
    let histogram = registry.histogram("request_wall_ns");
    let recorder = std::sync::Arc::new(FlightRecorder::new(256));
    let handle = RecorderHandle::to(recorder.clone()).with_job(7);

    // Warm-up: touch every histogram bucket once. The flight recorder's
    // ring is pre-allocated at construction, so recording into it is
    // in-place from the first event — but wrap it past capacity anyway so
    // the steady state below exercises the overwrite path.
    for i in 0..512u64 {
        counter.inc();
        gauge.set(i as f64);
        histogram.record(1u64 << (i % 60));
        handle.record(RecorderLayer::Core, RecorderKind::Bound, i, 0);
    }

    // Steady state: pure recording must not allocate.
    let delta = min_alloc_delta(5, || {
        for i in 0..10_000u64 {
            counter.add(2);
            gauge.add(1.0);
            gauge.sub(1.0);
            histogram.record(i.wrapping_mul(2_654_435_761));
            handle.record(RecorderLayer::Service, RecorderKind::Dequeue, i, 1);
        }
    });
    assert_eq!(
        delta, 0,
        "metric/event recording must be allocation-free after warm-up"
    );
    assert!(counter.get() >= 512 + 5 * 20_000);
    assert!(histogram.count() >= 512 + 5 * 10_000);
    assert!(
        recorder.overwrites() > 0,
        "flight-recorder ring must have wrapped during the test"
    );
    assert_eq!(recorder.recorded(), 512 + 5 * 10_000);
}
