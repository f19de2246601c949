//! Channel congestion at scale: many CAM-beaconing stations with the
//! reactive DCC gatekeeper (ETSI TS 102 687) in the loop. The example
//! first prints the access-layer ingredients of every frame's channel
//! time: the airtime of a DENM-sized frame per ITS-G5 data rate and the
//! EDCA AIFS per access category.
//!
//! The station-count sweep runs one fleet per worker on the parallel
//! campaign runner; pick the worker count with `--threads N` or
//! `RUNNER_THREADS` (the table is identical either way).
//!
//! ```sh
//! cargo run --example congestion --release -- --threads 4
//! ```

use its_testbed::congestion::{run_congestion, sweep_station_count, CongestionConfig};
use its_testbed::Runner;
use phy80211p::edca::{AccessCategory, EdcaParams};
use phy80211p::ofdm::{airtime, DataRate};

fn main() {
    // `--threads N` wins over `RUNNER_THREADS` / the machine; zero and
    // garbage are rejected by the shared parser in crate `runner`.
    let runner = match runner::threads_flag(std::env::args()) {
        Ok(Some(n)) => Runner::new(n),
        Ok(None) => Runner::from_env(),
        Err(e) => {
            eprintln!("--threads: {e}");
            std::process::exit(2);
        }
    };
    println!("CAM beaconing under load — reactive DCC in every station\n");
    println!("airtime of a 110-byte DENM frame per ITS-G5 data rate:");
    for rate in DataRate::ALL {
        println!("  {:>10}  {}", rate.to_string(), airtime(110, rate));
    }
    println!("\nEDCA AIFS per access category (10 MHz timing):");
    for ac in AccessCategory::ALL {
        let p = EdcaParams::for_category(ac);
        println!(
            "  {ac:?}: AIFSN {} CWmin {} -> AIFS {}",
            p.aifsn,
            p.cw_min,
            p.aifs()
        );
    }
    println!();
    println!(
        "Station-count sweep (20 s simulated each, {} worker thread(s)):",
        runner.threads()
    );
    print!(
        "{}",
        sweep_station_count(
            &runner,
            &CongestionConfig::default(),
            &[2, 5, 10, 20, 40, 80, 120, 160]
        )
    );

    // Zoom into one loaded fleet.
    let record = run_congestion(&CongestionConfig {
        n_stations: 120,
        ..CongestionConfig::default()
    });
    println!("\n120-station fleet detail:");
    println!("  CAMs on the air: {}", record.cams_transmitted);
    println!("  per-station rate: {:.2} Hz", record.cam_rate_hz);
    println!("  mean CBR: {:.3}", record.mean_cbr);
    println!("  worst DCC state reached: {:?}", record.worst_dcc_state);
    println!();
    println!("The gatekeeper lets a small fleet beacon at the full dynamics-");
    println!("triggered rate and throttles a large one, so total channel load");
    println!("saturates instead of growing with the fleet — while DENMs (AC_VO)");
    println!("always bypass the gate.");
}
