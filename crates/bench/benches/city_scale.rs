//! City-scale node-count benchmark: runs the `city_grid` scenario at
//! N = 100 / 500 / 2000 stations, measures wall-clock time, channel
//! evaluations per second, and a heap-allocation proxy per run, and
//! writes `BENCH_city.json` at the repository root so the numbers are
//! tracked in git.
//!
//! Two properties are asserted (and re-checked against the tracked
//! baseline by `tracked_bench_city_baseline_is_valid`):
//!
//! * **flat per-event cost** — the spatial grid keeps each broadcast's
//!   neighbourhood constant under constant density, so the wall-clock
//!   cost per channel evaluation at N=2000 stays within 4× of N=100;
//! * **culling pays** — at N=100 the culled run is at least 5× faster
//!   than the exhaustive O(N²) reference, which must nonetheless
//!   produce the bit-identical record.
//!
//! The file also records the host: logical CPUs, threads used and the
//! build profile.
//!
//! Set `BENCH_QUICK=1` for a seconds-long smoke run (small node counts,
//! short horizon) that validates the JSON schema but not the bars, and
//! does not write the tracked file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::{
    city_json, city_json_path, validate_city_baseline, validate_city_json, CityBenchRow,
    CityMeasurement, CITY_BASELINE_NODE_COUNTS, CITY_MAX_NS_PER_EVENT_RATIO,
    CITY_MIN_CULLED_SPEEDUP,
};
use its_testbed::city::{run_city, CityConfig, CityRecord};
use sim_core::SimDuration;

/// Counts every heap allocation the process makes — the
/// allocations-proxy reported in `BENCH_city.json`.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn timed_run(config: &CityConfig) -> (CityRecord, f64, u64) {
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let (record, secs) = criterion::time_once(|| run_city(config));
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    (record, secs, allocs)
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (counts, duration): (Vec<usize>, SimDuration) = if quick {
        (vec![40, 80, 160], SimDuration::from_secs(1))
    } else {
        (
            CITY_BASELINE_NODE_COUNTS.to_vec(),
            SimDuration::from_secs(10),
        )
    };
    let base = CityConfig {
        duration,
        ..CityConfig::default()
    };

    let mut rows = Vec::new();
    for &nodes in &counts {
        let config = CityConfig {
            n_stations: nodes,
            ..base.clone()
        };
        // Warm-up pass absorbs one-time costs (page faults, lazy init),
        // then the timed pass.
        let _ = run_city(&config);
        let (record, secs, allocs) = timed_run(&config);
        rows.push(CityBenchRow {
            nodes,
            seconds: secs,
            events: record.events,
            events_per_sec: record.events as f64 / secs,
            ns_per_event: secs * 1e9 / record.events.max(1) as f64,
            allocs_per_run: allocs as f64,
            cam_delivery_ratio: record.cam_delivery_ratio,
            mean_cbr: record.mean_cbr,
            denm_latency_ms: record.mean_denm_latency_ms,
        });
    }

    // Culling differential at the smallest count: the exhaustive O(N²)
    // reference must produce the bit-identical record, only slower.
    let smallest = counts.first().copied().unwrap_or(100);
    let culled_config = CityConfig {
        n_stations: smallest,
        ..base.clone()
    };
    let exhaustive_config = CityConfig {
        exhaustive: true,
        ..culled_config.clone()
    };
    let _ = run_city(&culled_config);
    let (culled_record, culled_secs, _) = timed_run(&culled_config);
    let _ = run_city(&exhaustive_config);
    let (exhaustive_record, exhaustive_secs, _) = timed_run(&exhaustive_config);
    assert_eq!(
        culled_record,
        CityRecord {
            events: culled_record.events,
            ..exhaustive_record.clone()
        },
        "culled and exhaustive city runs diverged"
    );
    let culled_speedup = exhaustive_secs / culled_secs.max(1e-12);

    let m = CityMeasurement {
        nproc: bench::host_nproc(),
        // Every run above is one `run_city` call on this thread.
        threads: 1,
        profile: bench::build_profile(),
        rows,
        culled_speedup,
    };
    let json = city_json(&m);
    let verdict = if quick {
        validate_city_json(&json)
    } else {
        validate_city_baseline(&json)
    };
    if let Err(e) = verdict {
        eprintln!("city_scale: generated JSON failed validation: {e}");
        eprintln!("{json}");
        std::process::exit(1);
    }

    println!(
        "city_scale{} on {} CPU(s), {} thread, {} build",
        if quick { " (quick)" } else { "" },
        m.nproc,
        m.threads,
        m.profile
    );
    for row in &m.rows {
        println!(
            "  N={:<5} {:>8.3} s  {:>12.0} events/s  {:>8.2} ns/event  {:>10.0} allocs/run  CBR {:.4}",
            row.nodes, row.seconds, row.events_per_sec, row.ns_per_event, row.allocs_per_run,
            row.mean_cbr
        );
    }
    println!(
        "  culled vs exhaustive at N={smallest}: {culled_speedup:.2}× faster ({:.0} vs {:.0} evaluations)",
        culled_record.events as f64, exhaustive_record.events as f64
    );
    if !quick {
        let first = m.rows.first().map(|r| r.ns_per_event).unwrap_or(0.0);
        let last = m.rows.last().map(|r| r.ns_per_event).unwrap_or(0.0);
        println!(
            "  per-event cost N={} vs N={}: {:.2}× (limit {CITY_MAX_NS_PER_EVENT_RATIO}×); speedup bar {CITY_MIN_CULLED_SPEEDUP}×",
            CITY_BASELINE_NODE_COUNTS[0],
            CITY_BASELINE_NODE_COUNTS[CITY_BASELINE_NODE_COUNTS.len() - 1],
            last / first.max(1e-12)
        );
    }
    if quick {
        return;
    }
    let path = city_json_path();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("city_scale: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("  wrote {}", path.display());
}
