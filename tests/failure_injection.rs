//! Failure injection: what happens to the safety chain when components
//! degrade — lossy radio links, an unreliable detector, a starved
//! polling loop, badly-synchronised clocks.

use its_testbed::scenario::{Scenario, ScenarioConfig};
use openc2x::node::PollingModel;
use perception::camera::TargetAppearance;
use perception::detector::YoloModel;
use phy80211p::channel::{ChannelConfig, Obstacle, Position2D};
use sim_core::{NtpModel, SimDuration};

#[test]
fn heavily_obstructed_radio_can_lose_the_one_shot_denm() {
    // A brutal obstruction between RSU and vehicle makes the single
    // (unrepeated) DENM unreliable: across seeds, some runs must fail to
    // stop the car — the testbed's visual "did it stop?" feedback.
    // 60 dB of extra loss puts the ~1.7 m RSU→OBU link right in the
    // frame-error transition region (SNR ≈ 4–5 dB with 3 dB shadowing).
    let mut lost = 0;
    let mut delivered = 0;
    for seed in 0..30 {
        let mut channel = ChannelConfig::default();
        channel.obstacles.push(Obstacle {
            min: Position2D::new(-50.0, -50.0),
            max: Position2D::new(50.0, 50.0),
            extra_loss_db: 60.0,
        });
        let r = Scenario::new(ScenarioConfig {
            seed,
            channel,
            ..ScenarioConfig::default()
        })
        .run();
        if r.denm_delivered {
            delivered += 1;
        } else {
            lost += 1;
            assert!(r.step5_actuation.is_none(), "no DENM, no stop");
            assert!(r.step6_halt.is_none());
        }
    }
    assert!(lost > 0, "expected losses under 78 dB extra attenuation");
    assert!(delivered > 0, "link should not be fully dead either");
}

#[test]
fn denm_repetition_rescues_a_lossy_channel() {
    // Same obstruction as above, but the DEN service repeats the DENM
    // every 100 ms for 2 s: runs that would have lost the one-shot now
    // stop the car anyway.
    let lossy_channel = || {
        let mut channel = ChannelConfig::default();
        channel.obstacles.push(Obstacle {
            min: Position2D::new(-50.0, -50.0),
            max: Position2D::new(50.0, 50.0),
            extra_loss_db: 60.0,
        });
        channel
    };
    let mut one_shot_failures = 0;
    let mut repeated_failures = 0;
    for seed in 0..30 {
        let one_shot = Scenario::new(ScenarioConfig {
            seed,
            channel: lossy_channel(),
            ..ScenarioConfig::default()
        })
        .run();
        let repeated = Scenario::new(ScenarioConfig {
            seed,
            channel: lossy_channel(),
            denm_repetition: Some((SimDuration::from_millis(100), SimDuration::from_secs(2))),
            ..ScenarioConfig::default()
        })
        .run();
        if !one_shot.denm_delivered {
            one_shot_failures += 1;
        }
        if !repeated.denm_delivered {
            repeated_failures += 1;
        }
    }
    assert!(
        one_shot_failures > 0,
        "the channel must actually lose frames"
    );
    assert!(
        repeated_failures < one_shot_failures,
        "repetition must recover deliveries: {repeated_failures} vs {one_shot_failures}"
    );
}

#[test]
fn unreliable_detector_delays_detection() {
    // The bare scale vehicle (no stop sign) is detected in under half of
    // the frames within 2 m only — detection comes later and sometimes
    // not before the dead zone.
    let mut reliable_ms = Vec::new();
    let mut flaky_ms = Vec::new();
    for seed in 100..130 {
        let reliable = Scenario::new(ScenarioConfig {
            seed,
            appearance: TargetAppearance::WithStopSign,
            ..ScenarioConfig::default()
        })
        .run();
        let flaky = Scenario::new(ScenarioConfig {
            seed,
            appearance: TargetAppearance::BareScaleVehicle,
            ..ScenarioConfig::default()
        })
        .run();
        if let (Some(a), Some(b)) = (reliable.step2_detection, flaky.step2_detection) {
            reliable_ms.push(a.as_millis() as f64);
            flaky_ms.push(b.as_millis() as f64);
        }
    }
    assert!(!reliable_ms.is_empty());
    assert!(
        flaky_ms.len() <= reliable_ms.len(),
        "flaky detector cannot detect more often"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if !flaky_ms.is_empty() {
        assert!(
            mean(&flaky_ms) >= mean(&reliable_ms),
            "bare vehicle detected no earlier on average: {} vs {}",
            mean(&flaky_ms),
            mean(&reliable_ms)
        );
    }
}

#[test]
fn detector_miss_rate_reflected_in_assessments() {
    // With a detector that never fires, the hazard service never
    // triggers and the vehicle sails past.
    let r = Scenario::new(ScenarioConfig {
        seed: 5,
        yolo: YoloModel {
            stop_sign_detect_prob: 0.0,
            bare_detect_prob: 0.0,
            shell_detect_prob: 0.0,
        },
        ..ScenarioConfig::default()
    })
    .run();
    assert!(r.step2_detection.is_none());
    assert!(r.step6_halt.is_none());
    assert!(
        r.step1_crossing.is_some(),
        "the car did cross the action point"
    );
}

#[test]
fn poll_starvation_inflates_but_does_not_break() {
    // A 200 ms poll period still stops the car, just later: the mean
    // #4→#5 interval grows to ~half the poll period (the poll phase is
    // uniform, so an individual run can still get lucky).
    let mut d45s = Vec::new();
    for seed in 0..20 {
        let r = Scenario::new(ScenarioConfig {
            seed,
            polling: PollingModel {
                period: SimDuration::from_millis(200),
            },
            ..ScenarioConfig::default()
        })
        .run();
        assert!(r.completed(), "seed {seed} must still stop the car");
        d45s.push(r.interval_4_5_ms().unwrap() as f64);
        let braking = r.braking_distance_m().unwrap();
        assert!(braking > 0.25, "longer latency, longer travel: {braking} m");
    }
    let mean = d45s.iter().sum::<f64>() / d45s.len() as f64;
    assert!(
        mean > 60.0,
        "starved polling shows up in mean #4->#5: {mean} ms ({d45s:?})"
    );
}

#[test]
fn bad_ntp_sync_distorts_the_measured_intervals() {
    // With multi-millisecond clock offsets, measured intervals (cross-
    // host differences) scatter far more than the true latencies.
    let mut good = Vec::new();
    let mut bad = Vec::new();
    for seed in 200..230 {
        let g = Scenario::new(ScenarioConfig {
            seed,
            ntp: NtpModel::perfect(),
            ..ScenarioConfig::default()
        })
        .run();
        let b = Scenario::new(ScenarioConfig {
            seed,
            ntp: NtpModel {
                offset_std_us: 10_000.0,
                offset_cap_us: 30_000.0,
                drift_std_ppm: 50.0,
            },
            ..ScenarioConfig::default()
        })
        .run();
        good.push(g.interval_3_4_ms().unwrap() as f64);
        bad.push(b.interval_3_4_ms().unwrap() as f64);
    }
    let var = |v: &[f64]| {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
    };
    assert!(
        var(&bad) > 4.0 * var(&good).max(0.05),
        "bad sync must scatter the radio-hop measurement: {} vs {}",
        var(&bad),
        var(&good)
    );
    // Badly-synced clocks can even show negative intervals.
    let has_weird = bad.iter().any(|&x| !(0.0..=10.0).contains(&x));
    assert!(
        has_weird,
        "expected implausible measured intervals: {bad:?}"
    );
}

#[test]
fn timeout_run_reports_incomplete_instead_of_hanging() {
    let r = Scenario::new(ScenarioConfig {
        seed: 7,
        yolo: YoloModel {
            stop_sign_detect_prob: 0.0,
            ..YoloModel::default()
        },
        timeout: SimDuration::from_secs(5),
        ..ScenarioConfig::default()
    })
    .run();
    assert!(!r.completed());
    assert!(r.total_delay_ms().is_none());
    assert!(r.braking_distance_m().is_none());
}
