//! The experiment harness: one function per table/figure of the paper's
//! evaluation, each returning structured results plus a rendered text
//! table in the paper's format.
//!
//! | Artefact | Function | Paper reference values |
//! |---|---|---|
//! | Table I | [`table1`] | cause-code rows |
//! | Table II | [`table2`] | 27.6 / 1.6 / 29.2 / 58.4 ms averages |
//! | Table III | [`table3`] | 0.31–0.43 m, avg 0.36 m, var 0.0022 |
//! | Fig. 10 | [`fig10`] | frame-quantised detection-to-stop |
//! | Fig. 11 | [`fig11`] | EDF of total delay, all < 100 ms |

use crate::campaign::{CampaignSpec, Executor};
use crate::metrics::{mean, variance, Edf};
use crate::scenario::{RunRecord, Scenario, ScenarioConfig};
use its_messages::cause_codes::TABLE_I_ROWS;

/// Paper's Table II per-run values, for side-by-side comparison.
pub mod paper {
    /// Step #2→#3 intervals, ms (runs 1–5).
    pub const INTERVAL_2_3: [f64; 5] = [34.0, 27.0, 27.0, 21.0, 29.0];
    /// Step #3→#4 intervals, ms.
    pub const INTERVAL_3_4: [f64; 5] = [1.0, 2.0, 2.0, 1.0, 2.0];
    /// Step #4→#5 intervals, ms.
    pub const INTERVAL_4_5: [f64; 5] = [36.0, 41.0, 23.0, 22.0, 24.0];
    /// Total delays, ms.
    pub const TOTAL: [f64; 5] = [71.0, 70.0, 52.0, 44.0, 55.0];
    /// Table III braking distances, m (runs 1–7).
    pub const BRAKING: [f64; 7] = [0.43, 0.37, 0.31, 0.42, 0.31, 0.36, 0.36];
}

/// Result of the Table II experiment.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-run #2→#3 intervals, ms.
    pub interval_2_3: Vec<f64>,
    /// Per-run #3→#4 intervals, ms.
    pub interval_3_4: Vec<f64>,
    /// Per-run #4→#5 intervals, ms.
    pub interval_4_5: Vec<f64>,
    /// Per-run total delays, ms.
    pub total: Vec<f64>,
    /// The records of the runs in the rows, in seed order.
    pub records: Vec<RunRecord>,
    /// Runs that lack any of the four intervals (a missed detection,
    /// say) and so are left out of the rows.
    pub incomplete: usize,
}

impl Table2 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let row = |name: &str, xs: &[f64]| {
            let cells: Vec<String> = xs.iter().map(|x| format!("{x:>5.0}")).collect();
            let avg = if xs.is_empty() {
                "n/a".to_owned()
            } else {
                format!("{:.1}", mean(xs))
            };
            format!("{name:<42} {} | avg {avg:>6} ms", cells.join(" "))
        };
        let mut out = String::new();
        out.push_str("TABLE II: Time interval measurements\n");
        out.push_str(&row(
            "#2 Action Point Detection -> #3 RSU sends",
            &self.interval_2_3,
        ));
        out.push('\n');
        out.push_str(&row(
            "#3 RSU sends DENM -> #4 OBU receives",
            &self.interval_3_4,
        ));
        out.push('\n');
        out.push_str(&row(
            "#4 OBU receives -> #5 Vehicle Actuators",
            &self.interval_4_5,
        ));
        out.push('\n');
        out.push_str(&row("Total Delay", &self.total));
        out.push('\n');
        out.push_str(&incomplete_note(self.incomplete));
        out
    }
}

/// The line a table's rendering ends with when some runs did not
/// complete; empty when all did, so complete tables render unchanged.
fn incomplete_note(incomplete: usize) -> String {
    if incomplete == 0 {
        String::new()
    } else {
        format!("({incomplete} incomplete run(s) left out)\n")
    }
}

/// Runs `runs` collision-avoidance scenarios on `exec` and extracts
/// Table II. Run `i` uses seed `base.seed + i` and the per-run rows are
/// extracted in seed order, so the table is bitwise identical for every
/// executor — serial, threaded, or sharded. A run that lacks any of the
/// four intervals (the camera never detects the pedestrian, say) is
/// left out of the rows and counted in [`Table2::incomplete`].
pub fn table2(exec: &impl Executor, base: &ScenarioConfig, runs: usize) -> Table2 {
    let records = CampaignSpec::new(base.clone(), runs).execute(exec);
    let mut t = Table2 {
        interval_2_3: Vec::with_capacity(runs),
        interval_3_4: Vec::with_capacity(runs),
        interval_4_5: Vec::with_capacity(runs),
        total: Vec::with_capacity(runs),
        records: Vec::with_capacity(runs),
        incomplete: 0,
    };
    for record in records {
        let (Some(i23), Some(i34), Some(i45), Some(total)) = (
            record.interval_2_3_ms(),
            record.interval_3_4_ms(),
            record.interval_4_5_ms(),
            record.total_delay_ms(),
        ) else {
            t.incomplete += 1;
            continue;
        };
        t.interval_2_3.push(i23 as f64);
        t.interval_3_4.push(i34 as f64);
        t.interval_4_5.push(i45 as f64);
        t.total.push(total as f64);
        t.records.push(record);
    }
    t
}

/// Result of the Figure 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// EDF of the measured total delays.
    pub edf: Edf,
}

impl Fig11 {
    /// Renders the EDF step points.
    pub fn render(&self) -> String {
        let mut out = String::from("FIG 11: Empirical distribution function of total delay\n");
        out.push_str("  x (ms)    F(x)\n");
        for (x, f) in self.edf.step_points() {
            out.push_str(&format!("  {x:>6.1}   {f:>5.2}\n"));
        }
        out.push_str(&format!(
            "  n={} mean={:.1} ms min={:.0} max={:.0}\n",
            self.edf.len(),
            self.edf.mean(),
            self.edf.min(),
            self.edf.max()
        ));
        out
    }
}

/// Runs the scenario `runs` times on `exec` and builds the total-delay
/// EDF.
pub fn fig11(exec: &impl Executor, base: &ScenarioConfig, runs: usize) -> Fig11 {
    let t = table2(exec, base, runs);
    Fig11 {
        edf: Edf::from_samples(t.total),
    }
}

/// Result of the Table III experiment.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Per-run braking distance (detection to halt), m, in seed order.
    pub braking_m: Vec<f64>,
    /// Runs without a braking distance (no detection, or no halt), left
    /// out of `braking_m`.
    pub incomplete: usize,
}

impl Table3 {
    /// Mean braking distance, m.
    ///
    /// # Panics
    ///
    /// Panics if no run completed (`braking_m` is empty).
    pub fn mean(&self) -> f64 {
        mean(&self.braking_m)
    }

    /// Population variance.
    ///
    /// # Panics
    ///
    /// Panics if no run completed (`braking_m` is empty).
    pub fn variance(&self) -> f64 {
        variance(&self.braking_m)
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let cells: Vec<String> = self.braking_m.iter().map(|x| format!("{x:.2}")).collect();
        let summary = if self.braking_m.is_empty() {
            "avg n/a".to_owned()
        } else {
            format!("avg {:.2} m, variance {:.4}", self.mean(), self.variance())
        };
        format!(
            "TABLE III: Distance travelled from detection to halt\nBraking Dist. (m): {}\n{summary}\n{}",
            cells.join("  "),
            incomplete_note(self.incomplete)
        )
    }
}

/// Runs `runs` scenarios on `exec` and collects braking distances. Run
/// `i` keeps its historical seed `base.seed + 1000 + i`
/// ([`crate::campaign::SeedSchedule::Offset`]), so the table matches the
/// pre-redesign serial campaign bit for bit. A run without a braking
/// distance (no detection, or no halt) is left out of the row and
/// counted in [`Table3::incomplete`].
pub fn table3(exec: &impl Executor, base: &ScenarioConfig, runs: usize) -> Table3 {
    let records = CampaignSpec::with_seed_offset(base.clone(), 1000, runs).execute(exec);
    let braking_m: Vec<f64> = records
        .iter()
        .filter_map(RunRecord::braking_distance_m)
        .collect();
    Table3 {
        incomplete: records.len() - braking_m.len(),
        braking_m,
    }
}

/// Result of the Figure 10 experiment: the detection-to-stop period as
/// measured from the road-side camera's video frames.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Ground-truth detection-to-stop, seconds.
    pub true_detection_to_stop_s: f64,
    /// The same period measured by counting camera frames (quantised to
    /// the frame period, as in the paper's video analysis).
    pub frame_measured_s: f64,
    /// Camera frame period, seconds.
    pub frame_period_s: f64,
    /// Estimated distance at the triggering detection, m.
    pub detected_at_m: f64,
    /// Action-point distance, m.
    pub action_point_m: f64,
}

impl Fig10 {
    /// Renders the measurement summary.
    pub fn render(&self) -> String {
        format!(
            "FIG 10: Video frames to obtain detection-to-stop period\n\
             action point {:.2} m, detected at {:.2} m\n\
             true period {:.3} s; frame-quantised ({} ms frames) {:.3} s\n",
            self.action_point_m,
            self.detected_at_m,
            self.true_detection_to_stop_s,
            (self.frame_period_s * 1000.0) as u64,
            self.frame_measured_s
        )
    }
}

/// Runs one scenario and measures detection-to-stop from the camera's
/// frame clock (the paper's Fig. 10 method).
pub fn fig10(base: &ScenarioConfig) -> Fig10 {
    let record = Scenario::new(base.clone()).run();
    let period = 1.0 / base.camera.processed_fps;
    let t_detect = record.step2_detection.expect("completed").as_secs_f64();
    let t_stop = record.step6_halt.expect("completed").as_secs_f64();
    // Frame analysis: the event is visible in the first frame *after* it
    // happens.
    let frame_of = |t: f64| (t / period).ceil() * period;
    Fig10 {
        true_detection_to_stop_s: t_stop - t_detect,
        frame_measured_s: frame_of(t_stop) - frame_of(t_detect),
        frame_period_s: period,
        detected_at_m: record.detection_distance_m.expect("completed"),
        action_point_m: base.action_point_m,
    }
}

/// Renders the paper's Table I (cause codes) from the message library's
/// data and verifies the codes round-trip through the codec.
pub fn table1() -> String {
    let mut out = String::from("TABLE I: Some available cause codes (EN 302 637-3)\n");
    out.push_str("cause  sub  description\n");
    for &(cause, sub, desc) in TABLE_I_ROWS {
        let cc = its_messages::cause_codes::CauseCode::from_codes(cause, sub);
        debug_assert_eq!(cc.cause_code(), cause);
        out.push_str(&format!("{cause:>5}  {sub:>3}  {desc}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;

    fn quick_config() -> ScenarioConfig {
        ScenarioConfig {
            seed: 100,
            ..ScenarioConfig::default()
        }
    }

    fn exec() -> Runner {
        Runner::from_env()
    }

    #[test]
    fn table2_shape_matches_paper() {
        let t = table2(&exec(), &quick_config(), 5);
        // Row structure.
        assert_eq!(t.total.len(), 5);
        // Shape claims from the paper: the radio hop is the smallest
        // component by an order of magnitude …
        let m23 = mean(&t.interval_2_3);
        let m34 = mean(&t.interval_3_4);
        let m45 = mean(&t.interval_4_5);
        assert!(m34 < 6.0, "radio hop small: {m34}");
        assert!(
            m23 > 5.0 * m34,
            "detection→send dominates radio: {m23} vs {m34}"
        );
        assert!(m45 > 5.0 * m34, "polling dominates radio: {m45} vs {m34}");
        // … and the total stays under 100 ms in every run.
        for &x in &t.total {
            assert!(x < 100.0, "total {x}");
        }
        // Totals are consistent with the row sums (same clocks).
        for i in 0..5 {
            let sum = t.interval_2_3[i] + t.interval_3_4[i] + t.interval_4_5[i];
            assert!((sum - t.total[i]).abs() < 1e-9);
        }
        let rendered = t.render();
        assert!(rendered.contains("TABLE II"));
        assert!(rendered.contains("Total Delay"));
    }

    #[test]
    fn table2_averages_near_paper_values() {
        let t = table2(&exec(), &quick_config(), 30);
        let m23 = mean(&t.interval_2_3);
        let m34 = mean(&t.interval_3_4);
        let m45 = mean(&t.interval_4_5);
        let mtot = mean(&t.total);
        // Paper: 27.6 / 1.6 / 29.2 / 58.4 — allow generous bands, the
        // claim is the shape, not the exact numbers.
        assert!((15.0..=40.0).contains(&m23), "m23 {m23}");
        assert!((0.5..=4.0).contains(&m34), "m34 {m34}");
        assert!((18.0..=40.0).contains(&m45), "m45 {m45}");
        assert!((40.0..=80.0).contains(&mtot), "mtot {mtot}");
    }

    #[test]
    fn fig11_edf_under_100ms() {
        let f = fig11(&exec(), &quick_config(), 10);
        assert_eq!(f.edf.len(), 10);
        assert!(f.edf.max() < 100.0);
        assert!(f.render().contains("FIG 11"));
    }

    #[test]
    fn table3_band_and_variance() {
        let t = table3(&exec(), &quick_config(), 7);
        assert_eq!(t.braking_m.len(), 7);
        for &b in &t.braking_m {
            assert!((0.25..=0.50).contains(&b), "braking {b}");
        }
        assert!(t.variance() < 0.01, "variance {}", t.variance());
        assert!(t.render().contains("TABLE III"));
    }

    #[test]
    fn fig10_frame_quantisation() {
        let f = fig10(&quick_config());
        assert!(f.true_detection_to_stop_s > 0.0);
        // Frame measurement is a multiple of the frame period.
        let frames = f.frame_measured_s / f.frame_period_s;
        assert!((frames - frames.round()).abs() < 1e-9);
        // And within one frame of the truth on each side.
        assert!((f.frame_measured_s - f.true_detection_to_stop_s).abs() <= f.frame_period_s);
        assert!(f.render().contains("FIG 10"));
    }

    #[test]
    fn table1_renders_all_rows() {
        let s = table1();
        assert!(s.contains("Crossing collision risk"));
        assert!(s.contains("AEB (Automatic Emergency braking) activated"));
        assert_eq!(s.lines().count(), 2 + TABLE_I_ROWS.len());
    }
}
