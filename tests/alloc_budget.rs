//! Allocation-regression gate for the scenario hot loop.
//!
//! Scratch recycling drove the table 2 scenario from ~160 heap
//! allocations per run down to a handful: the event queue's heap, the
//! CAM frame pool, the vision-pipeline buffers and the per-handler
//! scratch vectors are all reused across runs, so a steady-state run
//! only allocates what it genuinely hands outward (the `RunRecord`'s
//! trace, the DENM payload `Arc`, the LDM's first inserts).
//!
//! This test pins that property with a counting global allocator: the
//! *marginal* allocations per run — measured over warm runs so
//! one-time pool fills are excluded — must stay under the committed
//! ceiling. A regression that reintroduces per-event boxing or
//! per-run buffer growth shows up here as a count, not as a vague
//! slowdown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use its_testbed::scenario::{Scenario, ScenarioConfig};

/// Counts every allocator call (`alloc` and `realloc` both count: a
/// doubling `Vec` growth is exactly the churn this gate exists to
/// catch). Deallocations are free.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Committed ceiling on steady-state allocations per scenario run.
/// Measured at 16.0 on the change that introduced this gate; the
/// ceiling leaves a little room for legitimate drift while staying an
/// order of magnitude below the pre-refactor 162.6.
const ALLOCS_PER_RUN_CEILING: f64 = 20.0;

// This file deliberately holds a single #[test]: the count is
// process-global, and a sibling test running on another harness
// thread would pollute the measurement.
#[test]
fn steady_state_allocations_per_run_stay_under_ceiling() {
    let base = ScenarioConfig::default();
    // Warm-up: fills the thread-local run scratch, the vision-buffer
    // pool and every station-owned scratch vector. Runs on the same
    // thread as the measurement below (the harness gives each test one
    // thread), so the pools it fills are the pools the measured runs
    // reuse.
    for i in 0..8 {
        std::hint::black_box(Scenario::run_seeded(&base, i));
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    const RUNS: u64 = 16;
    for i in 0..RUNS {
        std::hint::black_box(Scenario::run_seeded(&base, i));
    }
    let per_run = (ALLOC_CALLS.load(Ordering::Relaxed) - before) as f64 / RUNS as f64;
    assert!(
        per_run <= ALLOCS_PER_RUN_CEILING,
        "scenario hot loop regressed to {per_run:.1} allocs/run \
         (ceiling {ALLOCS_PER_RUN_CEILING}); look for per-event boxing \
         or per-run buffer growth"
    );
    // Sanity: the counter is actually wired up — a run records a trace
    // and hands out a DENM payload, so zero would mean the allocator
    // hook is not being exercised.
    assert!(per_run > 0.0, "counting allocator not engaged");
}
