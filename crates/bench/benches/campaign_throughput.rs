//! Campaign-throughput baseline: times a Table II + Table III campaign
//! (256 runs per table by default) at 1 worker thread and at the
//! env/machine-picked worker count, then writes `BENCH_campaign.json`
//! at the repository root so the numbers are tracked in git.
//!
//! The file records its host facts: the CPUs available (`nproc`) and
//! the build profile, next to each side's thread count.
//!
//! Reported per side: wall-clock seconds, completed runs/sec, ns per
//! dispatched simulation event (Table II sub-campaign), and a heap
//! allocation proxy from a counting global allocator. Aggregate
//! fingerprints (Table II mean total delay, Table III mean braking
//! distance) ride along so any model or seed-schedule drift is visible
//! next to the perf numbers.
//!
//! Set `BENCH_QUICK=1` to run 32 runs per table (the `scripts/check.sh`
//! smoke mode): the JSON is built and validated as in a full run, but
//! not written, so the smoke never touches the tracked file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::{
    base_config, campaign_json, campaign_json_path, validate_campaign_json, CampaignMeasurement,
    CampaignSide,
};
use its_testbed::experiments::{table2, table3};
use runner::Runner;

/// Counts every heap allocation the process makes — the
/// allocations-proxy reported in `BENCH_campaign.json`. Forwarding to
/// [`System`] keeps behaviour identical; the two relaxed counters are
/// the only addition.
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

struct SideResult {
    side: CampaignSide,
    events_total: u64,
    table2_total_avg_ms: f64,
    table3_braking_avg_m: f64,
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn measure_side(runner: &Runner, runs: usize) -> SideResult {
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let base = base_config();
    let (t2, t2_secs) = criterion::time_once(|| table2(runner, &base, runs));
    let (t3, t3_secs) = criterion::time_once(|| table3(runner, &base, runs));
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;

    let events_total: u64 = t2.records.iter().map(|r| r.events_dispatched).sum();
    let total_runs = (2 * runs) as f64;
    let seconds = t2_secs + t3_secs;
    SideResult {
        side: CampaignSide {
            threads: runner.threads(),
            seconds,
            runs_per_sec: total_runs / seconds,
            ns_per_event: t2_secs * 1e9 / events_total.max(1) as f64,
            allocs_per_run: allocs as f64 / total_runs,
            alloc_bytes_per_run: bytes as f64 / total_runs,
        },
        events_total,
        table2_total_avg_ms: mean(&t2.total),
        table3_braking_avg_m: mean(&t3.braking_m),
    }
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let runs = if quick { 32 } else { 256 };

    let serial = measure_side(&Runner::new(1), runs);
    let parallel = measure_side(&bench::campaign_runner(), runs);

    // The two sides must have computed the same campaign — the runner
    // contract — before their timings are comparable.
    assert_eq!(
        serial.table2_total_avg_ms.to_bits(),
        parallel.table2_total_avg_ms.to_bits(),
        "serial and parallel Table II aggregates diverged"
    );
    assert_eq!(
        serial.table3_braking_avg_m.to_bits(),
        parallel.table3_braking_avg_m.to_bits(),
        "serial and parallel Table III aggregates diverged"
    );
    assert_eq!(serial.events_total, parallel.events_total);

    let m = CampaignMeasurement {
        nproc: bench::host_nproc(),
        profile: bench::build_profile(),
        runs,
        events_per_run: serial.events_total as f64 / runs as f64,
        serial: serial.side,
        parallel: parallel.side,
        table2_total_avg_ms: serial.table2_total_avg_ms,
        table3_braking_avg_m: serial.table3_braking_avg_m,
    };

    let json = campaign_json(&m);
    if let Err(e) = validate_campaign_json(&json) {
        eprintln!("campaign_throughput: generated JSON failed validation: {e}");
        std::process::exit(1);
    }

    println!(
        "campaign_throughput ({runs} runs/table{}) on {} CPU(s), {} build",
        if quick { ", quick" } else { "" },
        m.nproc,
        m.profile
    );
    println!(
        "  serial   ({} thread):  {:>8.2} runs/s  {:>8.1} ns/event  {:>10.1} allocs/run",
        m.serial.threads, m.serial.runs_per_sec, m.serial.ns_per_event, m.serial.allocs_per_run
    );
    println!(
        "  parallel ({} threads): {:>8.2} runs/s  {:>8.1} ns/event  {:>10.1} allocs/run",
        m.parallel.threads,
        m.parallel.runs_per_sec,
        m.parallel.ns_per_event,
        m.parallel.allocs_per_run
    );
    println!(
        "  fingerprints: table2 total avg {:.4} ms, table3 braking avg {:.6} m, {:.1} events/run",
        m.table2_total_avg_ms, m.table3_braking_avg_m, m.events_per_run
    );
    if quick {
        return;
    }
    let path = campaign_json_path();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("campaign_throughput: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("  wrote {}", path.display());
}
