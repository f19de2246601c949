//! Allocation-regression gate for the city-scale broadcast loop.
//!
//! `run_city` allocates its fleet state once per run: the street
//! arrays, the station arena, the spatial grid's columns and the
//! candidate scratch vector. A broadcast then allocates nothing, so
//! the count per station stays flat however many frames a run sends.
//! A regression that allocates per frame or per receiver (a memo map
//! insert, a fresh candidate vector, a boxed outcome) multiplies the
//! count by the frames each station sends and shows up here as a
//! number, not as a vague slowdown.
//!
//! The counting global allocator is process-wide, so this file holds a
//! single test (see `tests/alloc_budget.rs` for the scenario gate).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use its_testbed::city::{run_city, CityConfig};
use sim_core::SimDuration;

/// Counts every allocator call (`alloc` and `realloc` both count).
/// Deallocations are free.
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

/// Stations in the measured city: small enough for a debug build,
/// large enough that every station hears a few neighbours.
const STATIONS: usize = 500;

/// Committed ceiling on allocations per station per run. Measured at
/// 0.46 (230 allocations) on the change that introduced this gate. Its
/// parent stood at 19.67: a FER memo map paid a `BTreeMap` insert per
/// channel evaluation.
const ALLOCS_PER_STATION_CEILING: f64 = 1.0;

#[test]
fn city_run_allocations_per_station_stay_under_ceiling() {
    let config = CityConfig {
        n_stations: STATIONS,
        duration: SimDuration::from_secs(2),
        ..CityConfig::default()
    };
    // Warm-up: any lazily initialised process state is paid here, not
    // in the measured run.
    let warm = run_city(&config);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let record = std::hint::black_box(run_city(&config));
    let per_station = (ALLOC_CALLS.load(Ordering::Relaxed) - before) as f64 / STATIONS as f64;
    assert_eq!(record, warm, "the city run is deterministic");
    assert!(
        per_station <= ALLOCS_PER_STATION_CEILING,
        "city broadcast loop regressed to {per_station:.2} allocs/station/run \
         (ceiling {ALLOCS_PER_STATION_CEILING}) over {} channel evaluations; \
         look for per-frame or per-receiver allocation",
        record.events
    );
    // Sanity: the counter is wired up — a run builds its fleet state on
    // the heap, so zero would mean the allocator hook is not engaged.
    assert!(per_station > 0.0, "counting allocator not engaged");
}
