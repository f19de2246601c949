//! Platoon extension (paper §V future work): detection-to-action delay
//! for a whole platoon, under direct GeoBroadcast delivery and under the
//! multi-technology arrangement (5G-capable leader + 802.11p intra-
//! platoon forwarding) — optionally under an injected fault — then a
//! platoon-size sweep and an emergency-brake cruise-gap sweep.
//!
//! ```sh
//! cargo run --example platoon_braking --release
//! cargo run --example platoon_braking --release -- --faults leader_silence:1.0
//! cargo run --example platoon_braking --release -- --faults radio_silence:0.5
//! ```
//!
//! `--faults class:intensity` threads a [`its_testbed::faultsweep::plan_for`]
//! plan through every run; the per-vehicle table then shows which DENMs
//! were lost, and the degradation line how far the heartbeat starvation
//! cascaded down the string.

use faults::FaultPlan;
use its_testbed::faultsweep::plan_for;
use its_testbed::platoon::{run_platoon, PlatoonConfig, PlatoonLink};
use phy80211p::cellular::CellularProfile;
use vehicle::watchdog::WatchdogConfig;

/// Parses `--faults class:intensity` from the command line (empty plan
/// when absent). Exits with usage on a malformed argument.
fn fault_plan_from_args() -> (FaultPlan, String) {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let spec = match arg.strip_prefix("--faults=") {
            Some(rest) => rest.to_owned(),
            None if arg == "--faults" => args.next().unwrap_or_default(),
            None => continue,
        };
        let Some((class, intensity)) = spec.split_once(':') else {
            eprintln!("usage: --faults class:intensity (e.g. --faults leader_silence:1.0)");
            std::process::exit(2);
        };
        let Ok(intensity) = intensity.parse::<f64>() else {
            eprintln!("intensity must be a number in [0, 1], got {intensity:?}");
            std::process::exit(2);
        };
        return (plan_for(class, intensity), spec);
    }
    (FaultPlan::default(), "none".to_owned())
}

fn print_record(title: &str, record: &its_testbed::platoon::PlatoonRecord) {
    println!("{title}");
    println!("  vehicle  DENM rx (ms)  action (ms)  braking (m)");
    for i in 0..record.denm_rx_ms.len() {
        println!(
            "  {:>7}  {:>12.2}  {:>11.2}  {:>11.2}",
            i, record.denm_rx_ms[i], record.action_ms[i], record.braking_m[i]
        );
    }
    println!(
        "  platoon detection-to-action: {:.1} ms | min inter-vehicle gap: {:.2} m | collision: {}",
        record.platoon_action_ms,
        record.min_gap_m,
        record.collision()
    );
    println!(
        "  degradation: {} undelivered | cascade depth {} | fail-safe stops {} | heartbeats relayed {} | faults injected {}\n",
        record.undelivered,
        record.cascade_depth,
        record.failsafe_stops,
        record.heartbeats_delivered,
        record.fault.injected
    );
}

fn main() {
    let (fault_plan, fault_label) = fault_plan_from_args();
    let base = PlatoonConfig {
        seed: 11,
        n_vehicles: 4,
        gap_m: 1.2,
        fault_plan,
        watchdog: Some(WatchdogConfig::default()),
        ..PlatoonConfig::default()
    };

    println!(
        "Platoon of {} vehicles at 1.5 m/s, {:.1} m gaps (faults: {fault_label})\n",
        base.n_vehicles, base.gap_m
    );

    let direct = run_platoon(&base);
    print_record(
        "direct GeoBroadcast (all vehicles in the relevance area):",
        &direct,
    );

    let relay = run_platoon(&PlatoonConfig {
        link: PlatoonLink::LeaderCellularRelay(CellularProfile::nsa_5g()),
        ..base.clone()
    });
    print_record("5G leader + 802.11p hop-by-hop forwarding:", &relay);

    let relay_lte = run_platoon(&PlatoonConfig {
        link: PlatoonLink::LeaderCellularRelay(CellularProfile::lte_uu()),
        ..base.clone()
    });
    print_record(
        "LTE-Uu leader + 802.11p forwarding (worst case):",
        &relay_lte,
    );

    // The worst vehicle's delay against the platoon's size: each 802.11p
    // forward hop of a relayed platoon adds its processing, MAC access
    // and airtime.
    println!("platoon detection-to-action delay (worst vehicle), ms:");
    println!("  size   direct GBC   5G relay   LTE relay   min gap (direct)");
    for n in [2usize, 3, 4, 6, 8] {
        let sized = PlatoonConfig {
            seed: 50,
            n_vehicles: n,
            ..base.clone()
        };
        let direct = run_platoon(&sized);
        let relay5g = run_platoon(&PlatoonConfig {
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::nsa_5g()),
            ..sized.clone()
        });
        let relay_lte = run_platoon(&PlatoonConfig {
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::lte_uu()),
            ..sized.clone()
        });
        println!(
            "  {n:>4}   {:>10.1}   {:>8.1}   {:>9.1}   {:>7.2} m",
            direct.platoon_action_ms,
            relay5g.platoon_action_ms,
            relay_lte.platoon_action_ms,
            direct.min_gap_m
        );
    }
    println!();

    // Fail-safe emergency braking: the leader stops on its own sensors,
    // followers rely on the relayed DENM — the notification delay now
    // eats directly into the gaps. Sweep the cruise gap to find the
    // safety margin per link.
    println!("emergency-brake gap sweep (leader stops instantly, followers via DENM):");
    println!("  cruise gap   direct GBC       LTE-Uu relay");
    for gap in [0.1, 0.2, 0.3, 0.5, 0.8, 1.2] {
        let direct = run_platoon(&PlatoonConfig {
            gap_m: gap,
            leader_brakes_on_detection: true,
            ..base.clone()
        });
        let relay = run_platoon(&PlatoonConfig {
            gap_m: gap,
            leader_brakes_on_detection: true,
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::lte_uu()),
            ..base.clone()
        });
        let show = |r: &its_testbed::platoon::PlatoonRecord| {
            format!(
                "min {:>5.2} m {}",
                r.min_gap_m,
                if r.collision() { "CRASH" } else { "ok   " }
            )
        };
        println!("  {gap:>7.1} m   {}   {}", show(&direct), show(&relay));
    }
}
