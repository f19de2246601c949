//! Reproducibility: the whole testbed is deterministic given a seed —
//! two identical configurations produce byte-identical traces, and any
//! seed change propagates.

use its_testbed::platoon::{run_platoon, PlatoonConfig};
use its_testbed::scenario::{Scenario, ScenarioConfig};

#[test]
fn identical_seeds_identical_traces() {
    for seed in [1, 17, 12345] {
        let cfg = ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        };
        let a = Scenario::new(cfg.clone()).run();
        let b = Scenario::new(cfg).run();
        assert_eq!(a.trace.digest(), b.trace.digest(), "seed {seed}");
        assert_eq!(a.total_delay_ms(), b.total_delay_ms());
        assert_eq!(a.braking_distance_m(), b.braking_distance_m());
        assert_eq!(a.step2_wall_ms, b.step2_wall_ms);
        assert_eq!(a.step5_wall_ms, b.step5_wall_ms);
    }
}

#[test]
fn trace_event_sequences_match_exactly() {
    let cfg = ScenarioConfig {
        seed: 77,
        ..ScenarioConfig::default()
    };
    let a = Scenario::new(cfg.clone()).run();
    let b = Scenario::new(cfg).run();
    assert_eq!(a.trace.events().len(), b.trace.events().len());
    for (ea, eb) in a.trace.events().zip(b.trace.events()) {
        assert_eq!(ea, eb);
    }
}

#[test]
fn seed_changes_propagate_everywhere() {
    let base = Scenario::new(ScenarioConfig {
        seed: 1,
        ..ScenarioConfig::default()
    })
    .run();
    let mut digests = std::collections::HashSet::new();
    digests.insert(base.trace.digest());
    for seed in 2..12 {
        let r = Scenario::new(ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        })
        .run();
        digests.insert(r.trace.digest());
    }
    assert_eq!(digests.len(), 11, "every seed yields a distinct trace");
}

#[test]
fn platoon_runs_are_reproducible() {
    let cfg = PlatoonConfig {
        seed: 9,
        n_vehicles: 5,
        ..PlatoonConfig::default()
    };
    assert_eq!(run_platoon(&cfg), run_platoon(&cfg));
}

#[test]
fn intersection_runs_are_reproducible() {
    use its_testbed::intersection::{IntersectionConfig, IntersectionScenario};
    let cfg = IntersectionConfig {
        seed: 31,
        ..IntersectionConfig::default()
    };
    let a = IntersectionScenario::new(cfg.clone()).run();
    let b = IntersectionScenario::new(cfg).run();
    assert_eq!(a.trace.digest(), b.trace.digest());
    assert_eq!(a.min_separation_m, b.min_separation_m);
    assert_eq!(a.halt_margin_m, b.halt_margin_m);
}

#[test]
fn congestion_runs_are_reproducible() {
    use its_testbed::congestion::{run_congestion, CongestionConfig};
    let cfg = CongestionConfig {
        seed: 13,
        n_stations: 30,
        duration: sim_core::SimDuration::from_secs(5),
    };
    assert_eq!(run_congestion(&cfg), run_congestion(&cfg));
}

#[test]
fn repetition_config_is_deterministic_too() {
    use sim_core::SimDuration;
    let cfg = ScenarioConfig {
        seed: 77,
        denm_repetition: Some((SimDuration::from_millis(100), SimDuration::from_secs(1))),
        ..ScenarioConfig::default()
    };
    let a = Scenario::new(cfg.clone()).run();
    let b = Scenario::new(cfg).run();
    assert_eq!(a.trace.digest(), b.trace.digest());
}

#[test]
fn ldm_queries_are_insertion_order_independent() {
    // Regression test for the HashMap→BTreeMap migration: the LDM's
    // tables iterate in key order, so two stations that learnt the same
    // facts in a different order must answer queries identically. With
    // hash-ordered tables this held only by accident of the per-process
    // hasher seed.
    use facilities::Ldm;
    use its_messages::cam::Cam;
    use its_messages::common::{ReferencePosition, StationId, StationType};

    let cam = |id: u32, lat: f64| {
        Cam::basic(
            StationId::new(id).unwrap(),
            0,
            StationType::PassengerCar,
            ReferencePosition::from_degrees(lat, -8.608),
        )
    };
    // All stations within the query radius and at identical distance
    // from the centre, so distance sorting cannot mask table ordering.
    let ids = [9u32, 3, 27, 14, 1, 22, 6, 31, 18, 11];
    let mut forward = Ldm::new();
    for &id in &ids {
        forward.insert_cam(cam(id, 41.178));
    }
    let mut reverse = Ldm::new();
    for &id in ids.iter().rev() {
        reverse.insert_cam(cam(id, 41.178));
    }

    let centre = ReferencePosition::from_degrees(41.178, -8.608);
    let order = |ldm: &Ldm| -> Vec<u32> {
        ldm.stations_within(&centre, 50.0)
            .iter()
            .map(|c| c.header.station_id.value())
            .collect()
    };
    let a = order(&forward);
    let b = order(&reverse);
    assert_eq!(a.len(), ids.len());
    assert_eq!(a, b, "LDM answers must not depend on insertion order");
    // And the order is the deterministic key order, not luck.
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    assert_eq!(a, sorted);
}

#[test]
fn config_differences_change_outcomes_not_determinism() {
    // Same seed, different action point: still deterministic per
    // configuration, but the configurations differ from each other.
    let near = ScenarioConfig {
        seed: 4,
        action_point_m: 1.2,
        ..ScenarioConfig::default()
    };
    let far = ScenarioConfig {
        seed: 4,
        action_point_m: 2.2,
        ..ScenarioConfig::default()
    };
    let n1 = Scenario::new(near.clone()).run();
    let n2 = Scenario::new(near).run();
    let f1 = Scenario::new(far).run();
    assert_eq!(n1.trace.digest(), n2.trace.digest());
    assert_ne!(n1.trace.digest(), f1.trace.digest());
    // The farther action point triggers earlier in the approach.
    assert!(f1.step2_detection.unwrap() <= n1.step2_detection.unwrap());
}
