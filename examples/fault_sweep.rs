//! Fault-sweep campaign: fault class × intensity grid with the V2X
//! heartbeat watchdog enabled (DESIGN.md §11), then the cross-scenario
//! cooperative sweep (DESIGN.md §15).
//!
//! Runs the fault sweep serially and on the thread runner, verifies the
//! two tables are byte-identical (the determinism contract of the fault
//! plane), and prints the aggregated grid plus its fingerprint. Then it
//! prints the cooperative sweep at base seed 4100 with one run per cell
//! (the table and fingerprint `tests/coop_golden.rs` pins; `--runs`
//! does not change it) and checks that the sweep's outcome frames from
//! the thread runner equal the serial ones.
//!
//! ```sh
//! cargo run -p its-testbed --example fault_sweep --release -- --runs 8
//! ```

use its_testbed::coopsweep::{coop_sweep, coop_sweep_frames};
use its_testbed::faultsweep::{fault_sweep, fault_sweep_specs};
use its_testbed::scenario::ScenarioConfig;
use its_testbed::{Runner, Serial};

/// The cooperative sweep's base seed and runs per cell.
const COOP_BASE_SEED: u64 = 4100;
const COOP_RUNS: usize = 1;

fn runs_flag() -> usize {
    let mut it = std::env::args();
    while let Some(arg) = it.next() {
        let value = if arg == "--runs" {
            it.next().unwrap_or_default()
        } else if let Some(v) = arg.strip_prefix("--runs=") {
            v.to_owned()
        } else {
            continue;
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                eprintln!("--runs: expected a positive integer, got {value:?}");
                std::process::exit(2);
            }
        }
    }
    8
}

fn main() {
    let runs = runs_flag();
    let base = ScenarioConfig {
        seed: 7000,
        ..ScenarioConfig::default()
    };
    let cells = fault_sweep_specs(&base, runs).len();
    println!("fault sweep: {cells} cells × {runs} runs, watchdog enabled\n");

    let serial = fault_sweep(&Serial, &base, runs);
    let threaded = fault_sweep(&Runner::from_env(), &base, runs);
    print!("{}", serial.render());
    println!("\nsweep fingerprint: {:#018x}", serial.fingerprint());

    let identical = serial == threaded;
    println!("threaded sweep bitwise identical to serial: {identical}");
    if !identical {
        eprintln!("fault_sweep: threaded sweep diverged from serial");
        std::process::exit(1);
    }

    println!("\ncooperative sweep: base seed {COOP_BASE_SEED}, {COOP_RUNS} run per cell\n");
    let coop = coop_sweep(&Serial, COOP_BASE_SEED, COOP_RUNS);
    print!("{}", coop.render());
    println!("\ncoop sweep fingerprint: {:#018x}", coop.fingerprint());
    let frames_identical = coop_sweep_frames(&Serial, COOP_BASE_SEED, COOP_RUNS)
        == coop_sweep_frames(&Runner::from_env(), COOP_BASE_SEED, COOP_RUNS);
    println!("threaded coop frames bitwise identical to serial: {frames_identical}");
    if !frames_identical {
        eprintln!("fault_sweep: threaded cooperative sweep frames diverged from serial");
        std::process::exit(1);
    }
}
