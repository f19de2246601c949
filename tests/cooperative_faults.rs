//! The cooperative fault sweep (platoon + intersection under
//! node-targeted fault campaigns, DESIGN.md §15) must be byte-identical
//! however it is executed: serial in-process, the deterministic thread
//! pool, and the campaign server's socket-worker executor.
//!
//! Sweep jobs are not plain scenario-spec runs, so every executor
//! reaches them through [`Executor::run_indexed`]'s in-process path —
//! the same contract the city campaign pins — while the socket-backed
//! [`FanoutExecutor`] additionally proves its spec-grid path merges
//! byte-identically to [`Serial`] over live TCP workers.

use campaignd::FanoutExecutor;
use facilities::cpm::CpServiceConfig;
use its_testbed::campaign::{CampaignRegistry, CampaignSpec, Executor, Serial};
use its_testbed::coopsweep::{coop_sweep, coop_sweep_frames};
use its_testbed::faultsweep::INTENSITIES;
use its_testbed::intersection::{IntersectionConfig, IntersectionScenario, SecondHazard};
use its_testbed::{Runner, ScenarioConfig};
use shard::transport::serve_connections;
use std::net::{SocketAddr, TcpListener};

const BASE_SEED: u64 = 4100;
const RUNS: usize = 1;

/// A registry entry so the socket-worker executor can be constructed;
/// coop-sweep jobs run through `run_indexed`, not through this grid.
fn anchor_grid() -> Vec<CampaignSpec> {
    vec![CampaignSpec::new(
        ScenarioConfig {
            seed: 4100,
            ..ScenarioConfig::default()
        },
        3,
    )]
}

/// An in-process socket worker thread serving the anchor registry.
fn spawn_worker() -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind worker");
    let addr = listener.local_addr().expect("worker addr");
    std::thread::spawn(move || {
        let registry = CampaignRegistry::new().register("coop_anchor", anchor_grid);
        serve_connections(&listener, &registry);
    });
    addr
}

#[test]
fn coop_sweep_is_byte_identical_across_executors() {
    let serial_frames = coop_sweep_frames(&Serial, BASE_SEED, RUNS);
    let serial_fp = coop_sweep(&Serial, BASE_SEED, RUNS).fingerprint();
    assert!(!serial_frames.is_empty());

    // Deterministic thread pool.
    let runner = Runner::new(8);
    assert_eq!(
        coop_sweep_frames(&runner, BASE_SEED, RUNS),
        serial_frames,
        "8-thread runner frames diverged"
    );
    assert_eq!(
        coop_sweep(&runner, BASE_SEED, RUNS).fingerprint(),
        serial_fp
    );

    // Campaign server's socket-worker executor, with live TCP workers.
    let workers: Vec<SocketAddr> = (0..2).map(|_| spawn_worker()).collect();
    let fanout = FanoutExecutor::new("coop_anchor", anchor_grid(), workers);
    assert_eq!(
        coop_sweep_frames(&fanout, BASE_SEED, RUNS),
        serial_frames,
        "socket-worker fanout frames diverged"
    );
    assert_eq!(
        coop_sweep(&fanout, BASE_SEED, RUNS).fingerprint(),
        serial_fp
    );
    // And its spec-grid path really does cross the sockets for the
    // campaign it is bound to: identical bytes, no local fallback.
    assert_eq!(
        fanout.execute_grid(&anchor_grid()),
        Serial.execute_grid(&anchor_grid())
    );
    assert_eq!(fanout.fallback_grids(), 0);
    assert_eq!(fanout.fallback_chunks(), 0);
}

#[test]
fn degradation_is_monotone_in_fault_intensity() {
    let sweep = coop_sweep(&Serial, BASE_SEED, RUNS);

    // Platoon: silencing the leader's radio for longer starves more of
    // the heartbeat relay, so the stale-CAM cascade reaches deeper and
    // latches more fail-safe stops.
    for class in ["radio_silence", "leader_silence"] {
        for pair in INTENSITIES.windows(2) {
            let lo = sweep.cell("platoon", class, pair[0]);
            let hi = sweep.cell("platoon", class, pair[1]);
            assert!(
                hi.cascade_depth >= lo.cascade_depth,
                "platoon/{class}: cascade {} < {}",
                hi.cascade_depth,
                lo.cascade_depth
            );
            assert!(
                hi.failsafe_stops >= lo.failsafe_stops,
                "platoon/{class}: stops {} < {}",
                hi.failsafe_stops,
                lo.failsafe_stops
            );
        }
    }

    // Intersection: a quieter RSU delivers fewer DENMs, so fewer
    // protective stops succeed — that counter is non-INCREASING.
    for pair in INTENSITIES.windows(2) {
        let lo = sweep.cell("intersection", "rsu_silence", pair[0]);
        let hi = sweep.cell("intersection", "rsu_silence", pair[1]);
        assert!(
            hi.delivered <= lo.delivered,
            "intersection/rsu_silence: delivered {} > {}",
            hi.delivered,
            lo.delivered
        );
        assert!(
            hi.failsafe_stops <= lo.failsafe_stops,
            "intersection/rsu_silence: protective stops {} > {}",
            hi.failsafe_stops,
            lo.failsafe_stops
        );
    }
}

/// The blind-corner geometry of DESIGN.md §15: road user crosses early,
/// stalled obstacle past the corner, own sensor occluded until far
/// inside braking distance.
fn blind_corner_config(cpm_on: bool) -> IntersectionConfig {
    IntersectionConfig {
        seed: 1,
        protagonist_start_m: 12.0,
        road_user_start_m: 5.0,
        conflict_window_s: 0.8,
        second_hazard: Some(SecondHazard::default()),
        cpm: cpm_on.then(CpServiceConfig::default),
        ..IntersectionConfig::default()
    }
}

#[test]
fn collective_perception_is_what_resolves_the_blind_corner() {
    let on = IntersectionScenario::new(blind_corner_config(true)).run();
    assert!(on.cpm_delivered > 0, "{on:?}");
    assert!(on.cpm_extended_detections > 0, "{on:?}");
    assert!(on.second_hazard_via_cpm, "{on:?}");
    assert!(!on.collision, "{on:?}");

    let off = IntersectionScenario::new(blind_corner_config(false)).run();
    assert_eq!(off.cpm_delivered, 0);
    assert!(!off.second_hazard_via_cpm, "{off:?}");
    assert!(off.collision, "own sensors alone must be too late: {off:?}");
}
