//! Experiment-level regression tests: every table and figure of the
//! paper regenerates with the right structure and the right *shape*
//! (who dominates, by roughly what factor, what stays bounded).

use its_testbed::experiments::{self, paper};
use its_testbed::metrics::{mean, Edf};
use its_testbed::scenario::ScenarioConfig;
use its_testbed::Runner;

fn base() -> ScenarioConfig {
    ScenarioConfig {
        seed: 9000,
        ..ScenarioConfig::default()
    }
}

#[test]
fn table2_five_run_structure() {
    let t = experiments::table2(&Runner::from_env(), &base(), 5);
    assert_eq!(t.interval_2_3.len(), 5);
    assert_eq!(t.interval_3_4.len(), 5);
    assert_eq!(t.interval_4_5.len(), 5);
    assert_eq!(t.total.len(), 5);
    // Paper row sums equal the totals.
    for i in 0..5 {
        let sum = t.interval_2_3[i] + t.interval_3_4[i] + t.interval_4_5[i];
        assert_eq!(sum, t.total[i]);
    }
}

#[test]
fn table2_shape_versus_paper() {
    let t = experiments::table2(&Runner::from_env(), &base(), 30);
    let (m23, m34, m45) = (
        mean(&t.interval_2_3),
        mean(&t.interval_3_4),
        mean(&t.interval_4_5),
    );
    // Shape: the radio hop is over an order of magnitude below the two
    // software intervals (paper: 1.6 vs 27.6 and 29.2).
    assert!(m34 * 8.0 < m23, "{m34} vs {m23}");
    assert!(m34 * 8.0 < m45, "{m34} vs {m45}");
    // Magnitudes within a factor ~1.5 of the paper's averages.
    assert!((mean(&paper::INTERVAL_2_3) - m23).abs() < 14.0, "m23 {m23}");
    assert!((mean(&paper::INTERVAL_3_4) - m34).abs() < 2.0, "m34 {m34}");
    assert!((mean(&paper::INTERVAL_4_5) - m45).abs() < 14.0, "m45 {m45}");
    let mtot = mean(&t.total);
    assert!((mean(&paper::TOTAL) - mtot).abs() < 20.0, "total {mtot}");
}

#[test]
fn fig11_edf_statements_hold_at_scale() {
    let f = experiments::fig11(&Runner::from_env(), &base(), 60);
    assert!(f.edf.max() < 100.0, "max {} ms", f.edf.max());
    assert!(f.edf.min() > 15.0, "min {} ms", f.edf.min());
    // The EDF is a proper distribution function.
    let pts = f.edf.step_points();
    assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    let mut prev = 0.0;
    for (_, p) in pts {
        assert!(p >= prev);
        prev = p;
    }
}

#[test]
fn table3_statistics_versus_paper() {
    let t = experiments::table3(&Runner::from_env(), &base(), 20);
    let m = t.mean();
    // Paper: avg 0.36 m with variance 0.0022; we accept ±0.08 m on the
    // mean and the same order of variance.
    assert!((m - mean(&paper::BRAKING)).abs() < 0.08, "mean {m}");
    assert!(t.variance() < 0.01, "variance {}", t.variance());
    // Every run within one vehicle length (0.53 m).
    for &b in &t.braking_m {
        assert!(b < 0.53, "braking {b}");
    }
}

#[test]
fn fig10_detection_to_stop_quantisation_bound() {
    let f = experiments::fig10(&base());
    // Frame measurement differs from truth by at most one frame period.
    assert!((f.frame_measured_s - f.true_detection_to_stop_s).abs() <= f.frame_period_s + 1e-9);
    // Detected distance below the action point, like the paper's
    // "crosses the 1.52 m action point and is detected at 1.45 m".
    assert!(f.detected_at_m <= f.action_point_m);
}

#[test]
fn table1_is_the_paper_table() {
    let s = experiments::table1();
    for &(cause, sub, desc) in its_messages::cause_codes::TABLE_I_ROWS {
        assert!(s.contains(desc), "missing row {cause}/{sub}: {desc}");
    }
}

#[test]
fn paper_reference_data_self_consistent() {
    // The constants we compare against reproduce the paper's own
    // aggregates.
    assert!((mean(&paper::TOTAL) - 58.4).abs() < 0.01);
    assert!((mean(&paper::INTERVAL_2_3) - 27.6).abs() < 0.01);
    assert!((mean(&paper::INTERVAL_3_4) - 1.6).abs() < 0.01);
    assert!((mean(&paper::INTERVAL_4_5) - 29.2).abs() < 0.01);
    let edf = Edf::from_samples(paper::TOTAL.to_vec());
    assert_eq!(edf.fraction_at_or_below(55.0), 0.6);
}

#[test]
fn grid_of_configs_preserves_invariants() {
    // A coarse grid over speed × action point: every completed run must
    // satisfy the pipeline invariants regardless of parameters.
    for (speed, throttle) in [(1.0, 0.19), (1.5, 0.214), (2.5, 0.25)] {
        for action_point in [1.2, 1.52, 2.0] {
            let r = its_testbed::Scenario::new(ScenarioConfig {
                seed: 42,
                cruise_speed_mps: speed,
                cruise_throttle: throttle,
                action_point_m: action_point,
                start_distance_m: 4.0f64.max(3.0 * speed),
                ..ScenarioConfig::default()
            })
            .run();
            assert!(r.completed(), "speed {speed} ap {action_point}");
            let total = r.total_delay_ms().unwrap();
            assert!(total > 0, "positive measured delay");
            let braking = r.braking_distance_m().unwrap();
            assert!(braking > 0.0 && braking < 2.0, "braking {braking}");
            // Simulation-time causality, independent of wall clocks.
            assert!(r.step2_detection.unwrap() < r.step5_actuation.unwrap());
            assert!(r.step5_actuation.unwrap() < r.step6_halt.unwrap());
            // Detection estimate at or below the configured action point.
            assert!(r.detection_distance_m.unwrap() <= action_point + 1e-9);
        }
    }
}

#[test]
fn ablation_fps_dominates_step1_to_2() {
    // The camera frame clock bounds how stale the detection can be:
    // halving FPS roughly doubles the worst-case step-1→2 gap.
    let fast = ScenarioConfig {
        seed: 9500,
        camera: perception::camera::RoadSideCamera {
            processed_fps: 8.0,
            ..perception::camera::RoadSideCamera::default()
        },
        ..ScenarioConfig::default()
    };
    let slow = ScenarioConfig {
        seed: 9500,
        camera: perception::camera::RoadSideCamera {
            processed_fps: 2.0,
            ..perception::camera::RoadSideCamera::default()
        },
        ..ScenarioConfig::default()
    };
    let gap = |cfg: &ScenarioConfig| {
        let t = experiments::table2(&Runner::from_env(), cfg, 10);
        let mut gaps = Vec::new();
        for r in &t.records {
            let s1 = r.step1_crossing.unwrap().as_nanos() as f64;
            let s2 = r.step2_detection.unwrap().as_nanos() as f64;
            gaps.push((s2 - s1) / 1e6);
        }
        mean(&gaps)
    };
    let g_fast = gap(&fast);
    let g_slow = gap(&slow);
    assert!(
        g_slow > 1.5 * g_fast,
        "2 FPS gap {g_slow} ms vs 8 FPS gap {g_fast} ms"
    );
}

/// At this seed the camera never detects the crossing pedestrian, so
/// the run has neither Table II intervals nor a Table III braking
/// distance. Both tables must leave it out and count it rather than
/// panic.
#[test]
fn a_run_without_detection_is_counted_not_fatal() {
    const UNDETECTED_SEED: u64 = 262_573_973_800;
    let t3 = experiments::table3(
        &Runner::from_env(),
        &ScenarioConfig {
            seed: UNDETECTED_SEED - 1000,
            ..ScenarioConfig::default()
        },
        1,
    );
    assert!(t3.braking_m.is_empty());
    assert_eq!(t3.incomplete, 1);
    assert!(t3.render().contains("1 incomplete run(s) left out"));
    let t2 = experiments::table2(
        &Runner::from_env(),
        &ScenarioConfig {
            seed: UNDETECTED_SEED,
            ..ScenarioConfig::default()
        },
        1,
    );
    assert!(t2.total.is_empty() && t2.records.is_empty());
    assert_eq!(t2.incomplete, 1);
    assert!(t2.render().contains("1 incomplete run(s) left out"));
}
