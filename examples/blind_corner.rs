//! The motivating blind-corner study (paper §I/§II), end to end: at an
//! intersection with an obstructed corner, vehicles have neither visual
//! nor wireless line of sight — while a road-side unit with line of
//! sight to both legs sees everything. The example runs the full
//! two-hazard scenario with and without collective perception (ETSI
//! TS 103 324 CPMs), then backs it with the channel-level argument.
//!
//! The road user crosses early, so the classic conflict never fires.
//! The real threat is a stalled obstacle just past the corner on the
//! protagonist's exit leg: its own forward sensor is occluded until far
//! inside braking distance, while the road-side camera sees the
//! obstacle the whole time. Only when the RSU packages its detections
//! as CPMs does the protagonist's LDM learn about the obstacle early
//! enough to stop clear.
//!
//! ```sh
//! cargo run --example blind_corner --release
//! cargo run --example blind_corner --release -- --faults rsu_silence:1.0
//! cargo run --example blind_corner --release -- --faults radio_silence:0.5
//! ```
//!
//! `--faults class:intensity` threads a [`its_testbed::faultsweep::plan_for`]
//! plan through both runs, so you can watch the cooperative-perception
//! advantage erode as the RSU's radio goes quiet.

use facilities::cpm::CpServiceConfig;
use faults::FaultPlan;
use its_testbed::faultsweep::plan_for;
use its_testbed::intersection::{
    IntersectionConfig, IntersectionRecord, IntersectionScenario, SecondHazard,
};
use phy80211p::channel::{Channel, ChannelConfig, Obstacle, Position2D};
use phy80211p::ofdm::DataRate;
use sim_core::{SimRng, SimTime};

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
            eprintln!("usage: --faults class:intensity (e.g. --faults rsu_silence:1.0)");
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

/// The blind-corner geometry: road user crosses early (no classic
/// conflict), stalled obstacle 1 m past the crossing, own sensor range
/// 0.4 m — well inside the protagonist's braking distance.
fn blind_corner_config(cpm_on: bool, fault_plan: FaultPlan) -> IntersectionConfig {
    IntersectionConfig {
        seed: 1,
        protagonist_start_m: 12.0,
        road_user_start_m: 5.0,
        conflict_window_s: 0.8,
        second_hazard: Some(SecondHazard::default()),
        cpm: cpm_on.then(CpServiceConfig::default),
        fault_plan,
        ..IntersectionConfig::default()
    }
}

fn print_record(title: &str, record: &IntersectionRecord) {
    println!("{title}");
    println!(
        "  CPMs sent {} | delivered {} | LDM extended-range detections {}",
        record.cpm_sent, record.cpm_delivered, record.cpm_extended_detections
    );
    println!(
        "  braked for obstacle: {} ({}) | came to a stop: {} | collision: {}",
        record.second_hazard_braked,
        if record.second_hazard_via_cpm {
            "warned by CPM before the corner"
        } else if record.second_hazard_braked {
            "own sensor, past the corner"
        } else {
            "never saw it in time"
        },
        record.protagonist_stopped,
        record.collision
    );
    if let Some(margin) = record.halt_margin_m {
        println!("  halt margin before the conflict point: {margin:.2} m");
    }
    println!(
        "  min separation {:.2} m | faults injected {}\n",
        record.min_separation_m, record.fault.injected
    );
}

/// Delivery ratio of `n` frames over a link.
fn delivery_ratio(
    channel: &Channel,
    tx: Position2D,
    rx: Position2D,
    frame_bytes: usize,
    n: u32,
    rng: &mut SimRng,
) -> f64 {
    let ok = (0..n)
        .filter(|_| {
            channel
                .transmit(SimTime::ZERO, tx, rx, frame_bytes, DataRate::Mbps6, rng)
                .delivered
        })
        .count();
    f64::from(ok as u32) / f64::from(n)
}

fn main() {
    let (fault_plan, fault_label) = fault_plan_from_args();
    println!(
        "Blind corner: early-crossing road user + stalled obstacle 1.0 m past \
         the crossing (faults: {fault_label})\n"
    );

    let off = IntersectionScenario::new(blind_corner_config(false, fault_plan.clone())).run();
    print_record("own sensors only (no collective perception):", &off);

    let on = IntersectionScenario::new(blind_corner_config(true, fault_plan)).run();
    print_record("RSU collective perception (CPM over 802.11p):", &on);

    if on.second_hazard_via_cpm && !off.second_hazard_via_cpm {
        println!("=> the CPM feed is the only path that sees the occluded obstacle in time\n");
    } else if !on.second_hazard_via_cpm {
        println!("=> the injected fault starved the CPM feed — cooperative perception lost\n");
    }
    // Faultless runs double as a smoke gate (scripts/check.sh): the
    // ablation must hold — CPM-on clears the corner, CPM-off collides.
    if fault_label == "none" && !(on.second_hazard_via_cpm && !on.collision && off.collision) {
        eprintln!("blind_corner: CPM ablation violated on a faultless run");
        std::process::exit(1);
    }

    // The channel-level argument behind the scenario: the corner
    // building blocks the V2V diagonal, not the two road legs the
    // infrastructure path uses.
    let vehicle_a = Position2D::new(40.0, -3.0);
    let vehicle_b = Position2D::new(-3.0, 40.0);
    let rsu = Position2D::new(-3.0, -3.0);
    let frame = 110; // DENM-sized

    println!("blind-corner delivery ratio (110-byte DENM, 6 Mbit/s):");
    println!("  corner loss   V2V direct   infra (A->RSU->B)");
    let mut crossover = None;
    for loss_db in [0.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0] {
        let mut cfg = ChannelConfig::default();
        cfg.obstacles.push(Obstacle {
            min: Position2D::new(2.0, 2.0),
            max: Position2D::new(30.0, 30.0),
            extra_loss_db: loss_db,
        });
        let channel = Channel::new(cfg);
        let mut rng = SimRng::seed_from(9);
        let v2v = delivery_ratio(&channel, vehicle_a, vehicle_b, frame, 3000, &mut rng);
        let infra = delivery_ratio(&channel, vehicle_a, rsu, frame, 3000, &mut rng)
            * delivery_ratio(&channel, rsu, vehicle_b, frame, 3000, &mut rng);
        if crossover.is_none() && infra > v2v + 0.05 {
            crossover = Some(loss_db);
        }
        println!("  {loss_db:>9.0} dB   {v2v:>10.3}   {infra:>17.3}");
    }
    println!(
        "  infrastructure decisively wins from ~{} dB of corner loss",
        crossover.map_or_else(|| "n/a".to_owned(), |l| l.to_string())
    );
    println!("\nWith a strongly obstructed corner the direct V2V link collapses while");
    println!("the two-leg infrastructure path stays reliable — the premise of the");
    println!("paper's network-aided collision avoidance use-case.");
}
