//! End-to-end properties of the collision-avoidance pipeline
//! (camera → edge → RSU → 802.11p → OBU → polling script → actuators).

use its_testbed::scenario::{Scenario, ScenarioConfig};

fn run_seed(seed: u64) -> its_testbed::RunRecord {
    Scenario::new(ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    })
    .run()
}

#[test]
fn pipeline_completes_across_many_seeds() {
    for seed in 1..=25 {
        let r = run_seed(seed);
        assert!(r.completed(), "seed {seed} incomplete: {r:?}");
        assert!(r.denm_delivered, "seed {seed}: DENM lost at lab scale");
    }
}

#[test]
fn six_steps_in_causal_order() {
    let r = run_seed(99);
    let s1 = r.step1_crossing.unwrap();
    let s2 = r.step2_detection.unwrap();
    let s3 = r.step3_rsu_send.unwrap();
    let s4 = r.step4_obu_recv.unwrap();
    let s5 = r.step5_actuation.unwrap();
    let s6 = r.step6_halt.unwrap();
    assert!(s1 <= s2, "detection cannot precede the crossing");
    assert!(s2 < s3 && s3 < s4 && s4 < s5 && s5 < s6);
}

#[test]
fn headline_claim_under_100ms_for_50_runs() {
    // §IV-C: "The measured end-to-end delay … is consistently under
    // 100ms."
    for seed in 200..250 {
        let r = run_seed(seed);
        let total = r.total_delay_ms().unwrap();
        assert!(total < 100, "seed {seed}: {total} ms");
        assert!(total > 10, "seed {seed}: implausibly fast ({total} ms)");
    }
}

#[test]
fn radio_hop_is_the_smallest_interval() {
    // Table II: "Communication between RSU/OBU represents a minimal part
    // of the total time".
    for seed in 300..310 {
        let r = run_seed(seed);
        let d23 = r.interval_2_3_ms().unwrap();
        let d34 = r.interval_3_4_ms().unwrap();
        let d45 = r.interval_4_5_ms().unwrap();
        assert!(d34 <= d23, "seed {seed}: {d34} vs {d23}");
        assert!(d34 <= d45 + 1, "seed {seed}: {d34} vs {d45}");
        assert!(d34 <= 5, "seed {seed}: radio hop {d34} ms");
    }
}

#[test]
fn braking_distance_within_vehicle_length() {
    // §IV-B: "The average braking distance is less than one vehicle
    // length, that measures approximately 53 centimeters."
    let mut sum = 0.0;
    let n = 20;
    for seed in 400..400 + n {
        let r = run_seed(seed);
        sum += r.braking_distance_m().unwrap();
    }
    let avg = sum / n as f64;
    assert!(avg < 0.53, "average braking {avg} m exceeds a car length");
    assert!(avg > 0.2, "average braking {avg} m implausibly short");
}

#[test]
fn detection_happens_below_action_point_estimate() {
    let r = run_seed(500);
    let d = r.detection_distance_m.unwrap();
    assert!(
        d <= 1.52,
        "trigger fired at estimated distance {d} above the action point"
    );
    // And above the YOLO dead zone (estimates below 0.75 m snap to
    // 1.73 m, which cannot trigger).
    assert!(d > 0.5, "estimated distance {d} implausible");
}

#[test]
fn vehicle_travels_during_latency() {
    let r = run_seed(600);
    // Between detection and halt the car must cover at least the
    // latency travel at cruise speed plus some braking distance.
    let braking = r.braking_distance_m().unwrap();
    let speed = r.speed_at_detection_mps;
    let latency_s = r.total_delay_ms().unwrap() as f64 / 1000.0;
    assert!(
        braking > speed * latency_s * 0.8,
        "{braking} vs latency travel"
    );
}

#[test]
fn trace_contains_every_stage() {
    let r = run_seed(700);
    for kind in [
        "action_point",
        "detect",
        "denm_tx",
        "denm_rx",
        "cut_cmd",
        "power_cut",
        "halt",
    ] {
        assert!(
            r.trace.first_of_kind(kind).is_some(),
            "missing trace kind {kind}"
        );
    }
}

#[test]
fn faster_approach_longer_braking_distance() {
    let slow = Scenario::new(ScenarioConfig {
        seed: 42,
        cruise_speed_mps: 1.0,
        cruise_throttle: 0.19,
        ..ScenarioConfig::default()
    })
    .run();
    let fast = Scenario::new(ScenarioConfig {
        seed: 42,
        cruise_speed_mps: 2.0,
        cruise_throttle: 0.24,
        start_distance_m: 5.0,
        ..ScenarioConfig::default()
    })
    .run();
    let ds = slow.braking_distance_m().unwrap();
    let df = fast.braking_distance_m().unwrap();
    assert!(df > ds, "fast {df} m vs slow {ds} m");
}

#[test]
fn longer_poll_period_increases_interval_4_5() {
    use openc2x::node::PollingModel;
    use sim_core::SimDuration;
    let mut sum_fast = 0.0;
    let mut sum_slow = 0.0;
    let n = 15;
    for seed in 0..n {
        let fast = Scenario::new(ScenarioConfig {
            seed: 800 + seed,
            polling: PollingModel {
                period: SimDuration::from_millis(10),
            },
            ..ScenarioConfig::default()
        })
        .run();
        let slow = Scenario::new(ScenarioConfig {
            seed: 800 + seed,
            polling: PollingModel {
                period: SimDuration::from_millis(100),
            },
            ..ScenarioConfig::default()
        })
        .run();
        sum_fast += fast.interval_4_5_ms().unwrap() as f64;
        sum_slow += slow.interval_4_5_ms().unwrap() as f64;
    }
    assert!(
        sum_slow / n as f64 > 2.0 * sum_fast / n as f64,
        "poll period should dominate #4->#5: fast {sum_fast} slow {sum_slow}"
    );
}
