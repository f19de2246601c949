//! Ablation sweeps over the design parameters DESIGN.md calls out: the
//! vehicle's polling period, the camera's processed frame rate, the
//! Action Point placement, the approach speed, and NTP synchronisation
//! quality. Each sweep runs a batch of scenarios per parameter value and
//! reports the metrics that parameter actually moves.
//!
//! Every sweep is expressed as a grid of [`CampaignSpec`]s — one
//! campaign of `runs` consecutive seeds per parameter value — and
//! executed through the generic [`Executor`] interface (DESIGN.md §8,
//! §10): serial, the in-process thread [`crate::Runner`], and the
//! multi-process shard coordinator all produce byte-identical
//! [`SweepTable`]s because they share the same static-chunk/index-merge
//! contract. Executors with a worker pool flatten the `(parameter, run)`
//! grid into a single row-major job list so small per-parameter
//! campaigns still fill every worker.

use crate::campaign::{CampaignSpec, Executor};
use crate::metrics::{mean, variance};
use crate::scenario::ScenarioConfig;
use openc2x::node::PollingModel;
use perception::camera::RoadSideCamera;
use sim_core::{NtpModel, SimDuration};

/// A rendered sweep: one row per parameter value, named metric columns.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTable {
    /// Name of the swept parameter (with unit).
    pub parameter: String,
    /// Metric column names (with units).
    pub columns: Vec<String>,
    /// `(parameter value, metric values)` rows.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl SweepTable {
    /// Renders the sweep as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!("{:<16}", self.parameter);
        for c in &self.columns {
            out.push_str(&format!("  {c:>18}"));
        }
        out.push('\n');
        for (p, vals) in &self.rows {
            out.push_str(&format!("{p:<16.2}"));
            for v in vals {
                out.push_str(&format!("  {v:>18.2}"));
            }
            out.push('\n');
        }
        out
    }

    /// The column values of the named metric.
    ///
    /// # Panics
    ///
    /// Panics if the column name is unknown.
    #[cfg(test)]
    pub fn column(&self, name: &str) -> Vec<f64> {
        let idx = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("unknown sweep column {name}"));
        self.rows.iter().map(|(_, vals)| vals[idx]).collect()
    }
}

/// The sweep core: one [`CampaignSpec`] of `runs` consecutive seeds per
/// parameter value, executed as a grid on `exec`, each parameter's
/// records folded into one table row.
fn sweep_rows<P: Copy>(
    exec: &impl Executor,
    params: &[P],
    runs: usize,
    make_cfg: impl Fn(P) -> ScenarioConfig,
    row: impl Fn(P, &[crate::RunRecord]) -> (f64, Vec<f64>),
) -> Vec<(f64, Vec<f64>)> {
    if runs == 0 {
        return params.iter().map(|&p| row(p, &[])).collect();
    }
    let specs: Vec<CampaignSpec> = params
        .iter()
        .map(|&p| CampaignSpec::new(make_cfg(p), runs))
        .collect();
    let grid = exec.execute_grid(&specs);
    params
        .iter()
        .zip(&grid)
        .map(|(&p, recs)| row(p, recs))
        .collect()
}

fn completed_metric(
    records: &[crate::RunRecord],
    f: impl Fn(&crate::RunRecord) -> Option<f64>,
) -> f64 {
    let vals: Vec<f64> = records.iter().filter_map(&f).collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        mean(&vals)
    }
}

/// Sweeps the vehicle's `request_denm` polling period: the dominant term
/// of the #4→#5 interval.
pub fn sweep_poll_period(
    exec: &impl Executor,
    base: &ScenarioConfig,
    periods_ms: &[u64],
    runs: usize,
) -> SweepTable {
    let rows = sweep_rows(
        exec,
        periods_ms,
        runs,
        |p| ScenarioConfig {
            polling: PollingModel {
                period: SimDuration::from_millis(p),
            },
            ..base.clone()
        },
        |p, records| {
            (
                p as f64,
                vec![
                    completed_metric(records, |r| r.interval_4_5_ms().map(|x| x as f64)),
                    completed_metric(records, |r| r.total_delay_ms().map(|x| x as f64)),
                    completed_metric(records, |r| r.braking_distance_m()),
                ],
            )
        },
    );
    SweepTable {
        parameter: "poll period ms".to_owned(),
        columns: vec![
            "#4->#5 (ms)".to_owned(),
            "total (ms)".to_owned(),
            "braking (m)".to_owned(),
        ],
        rows,
    }
}

/// Sweeps the camera's processed frame rate: bounds the step-1→2 gap.
pub fn sweep_camera_fps(
    exec: &impl Executor,
    base: &ScenarioConfig,
    fps_list: &[f64],
    runs: usize,
) -> SweepTable {
    let rows = sweep_rows(
        exec,
        fps_list,
        runs,
        |fps| ScenarioConfig {
            camera: RoadSideCamera {
                processed_fps: fps,
                ..base.camera
            },
            ..base.clone()
        },
        |fps, records| {
            let gap_1_2 =
                completed_metric(records, |r| match (r.step1_crossing, r.step2_detection) {
                    (Some(s1), Some(s2)) => {
                        Some(s2.saturating_duration_since(s1).as_secs_f64() * 1000.0)
                    }
                    _ => None,
                });
            (
                fps,
                vec![
                    gap_1_2,
                    completed_metric(records, |r| r.braking_distance_m()),
                    completed_metric(records, |r| r.halt_distance_to_camera_m),
                ],
            )
        },
    );
    SweepTable {
        parameter: "camera FPS".to_owned(),
        columns: vec![
            "#1->#2 gap (ms)".to_owned(),
            "braking (m)".to_owned(),
            "halt margin (m)".to_owned(),
        ],
        rows,
    }
}

/// Sweeps the Action Point placement: earlier warnings leave more margin
/// to the camera, later ones erode it.
pub fn sweep_action_point(
    exec: &impl Executor,
    base: &ScenarioConfig,
    points_m: &[f64],
    runs: usize,
) -> SweepTable {
    let rows = sweep_rows(
        exec,
        points_m,
        runs,
        |ap| ScenarioConfig {
            action_point_m: ap,
            ..base.clone()
        },
        |ap, records| {
            (
                ap,
                vec![
                    completed_metric(records, |r| r.detection_distance_m),
                    completed_metric(records, |r| r.braking_distance_m()),
                    completed_metric(records, |r| r.halt_distance_to_camera_m),
                ],
            )
        },
    );
    SweepTable {
        parameter: "action point m".to_owned(),
        columns: vec![
            "detected at (m)".to_owned(),
            "braking (m)".to_owned(),
            "halt margin (m)".to_owned(),
        ],
        rows,
    }
}

/// Sweeps the approach speed: braking distance grows superlinearly,
/// eventually eating the margin.
pub fn sweep_speed(
    exec: &impl Executor,
    base: &ScenarioConfig,
    speeds_mps: &[f64],
    runs: usize,
) -> SweepTable {
    let rows = sweep_rows(
        exec,
        speeds_mps,
        runs,
        |v| {
            // Throttle that balances rolling + aero resistance at speed v
            // for the default parameters (drive = rr·m·g + c₂·v²).
            let throttle = ((0.08 * 3.2 * 9.81 + 0.02 * v * v) / 12.0).min(1.0);
            ScenarioConfig {
                cruise_speed_mps: v,
                cruise_throttle: throttle,
                start_distance_m: (4.0f64).max(3.0 * v),
                ..base.clone()
            }
        },
        |v, records| {
            (
                v,
                vec![
                    completed_metric(records, |r| r.total_delay_ms().map(|x| x as f64)),
                    completed_metric(records, |r| r.braking_distance_m()),
                    completed_metric(records, |r| r.halt_distance_to_camera_m),
                ],
            )
        },
    );
    SweepTable {
        parameter: "speed m/s".to_owned(),
        columns: vec![
            "total (ms)".to_owned(),
            "braking (m)".to_owned(),
            "halt margin (m)".to_owned(),
        ],
        rows,
    }
}

/// Sweeps NTP synchronisation quality: measured (cross-clock) interval
/// variance grows with the offset spread while true latency is unchanged.
pub fn sweep_ntp_quality(
    exec: &impl Executor,
    base: &ScenarioConfig,
    offset_std_us: &[f64],
    runs: usize,
) -> SweepTable {
    let rows = sweep_rows(
        exec,
        offset_std_us,
        runs,
        |std_us| ScenarioConfig {
            ntp: NtpModel {
                offset_std_us: std_us,
                offset_cap_us: 4.0 * std_us + 1.0,
                drift_std_ppm: base.ntp.drift_std_ppm,
            },
            ..base.clone()
        },
        |std_us, records| {
            let hops: Vec<f64> = records
                .iter()
                .filter_map(|r| r.interval_3_4_ms().map(|x| x as f64))
                .collect();
            (
                std_us,
                vec![
                    if hops.is_empty() {
                        f64::NAN
                    } else {
                        mean(&hops)
                    },
                    if hops.is_empty() {
                        f64::NAN
                    } else {
                        variance(&hops)
                    },
                ],
            )
        },
    );
    SweepTable {
        parameter: "ntp offset µs".to_owned(),
        columns: vec!["#3->#4 mean (ms)".to_owned(), "#3->#4 var".to_owned()],
        rows,
    }
}

/// Sweeps the transmit power: DENM delivery ratio and completion rate
/// collapse below the link budget (§IV-C's call to "properly model
/// attenuation" — here the knob is on the transmitter instead).
pub fn sweep_tx_power(
    exec: &impl Executor,
    base: &ScenarioConfig,
    dbm_values: &[f64],
    runs: usize,
) -> SweepTable {
    let rows = sweep_rows(
        exec,
        dbm_values,
        runs,
        |dbm| {
            let mut channel = base.channel.clone();
            channel.tx_power_dbm = dbm;
            ScenarioConfig {
                channel,
                ..base.clone()
            }
        },
        |dbm, records| {
            let delivered = records.iter().filter(|r| r.denm_delivered).count();
            let completed = records.iter().filter(|r| r.completed()).count();
            (
                dbm,
                vec![
                    delivered as f64 / runs as f64,
                    completed as f64 / runs as f64,
                ],
            )
        },
    );
    SweepTable {
        parameter: "tx power dBm".to_owned(),
        columns: vec!["DENM delivery".to_owned(), "stop completed".to_owned()],
        rows,
    }
}

/// Sweeps the log-normal shadowing σ: heavier fading widens the delivery
/// distribution without moving the mean link budget.
pub fn sweep_shadowing(
    exec: &impl Executor,
    base: &ScenarioConfig,
    sigma_db: &[f64],
    runs: usize,
) -> SweepTable {
    let rows = sweep_rows(
        exec,
        sigma_db,
        runs,
        |sigma| {
            let mut channel = base.channel.clone();
            channel.shadowing_sigma_db = sigma;
            // Put the link near its margin so shadowing matters: a weak
            // transmitter at lab distances.
            channel.tx_power_dbm = -32.0;
            ScenarioConfig {
                channel,
                ..base.clone()
            }
        },
        |sigma, records| {
            let delivered = records.iter().filter(|r| r.denm_delivered).count();
            (sigma, vec![delivered as f64 / runs as f64])
        },
    );
    SweepTable {
        parameter: "shadowing σ dB".to_owned(),
        columns: vec!["DENM delivery".to_owned()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;

    fn base() -> ScenarioConfig {
        ScenarioConfig {
            seed: 5000,
            ..ScenarioConfig::default()
        }
    }

    fn exec() -> Runner {
        Runner::from_env()
    }

    #[test]
    fn poll_period_sweep_monotone() {
        let t = sweep_poll_period(&exec(), &base(), &[10, 50, 150], 8);
        let col = t.column("#4->#5 (ms)");
        assert!(col[0] < col[1] && col[1] < col[2], "{col:?}");
        assert!(t.render().contains("poll period"));
    }

    #[test]
    fn fps_sweep_shrinks_detection_gap() {
        let t = sweep_camera_fps(&exec(), &base(), &[2.0, 8.0], 8);
        let gap = t.column("#1->#2 gap (ms)");
        assert!(gap[0] > gap[1], "{gap:?}");
    }

    #[test]
    fn action_point_sweep_margin_grows_with_distance() {
        let t = sweep_action_point(&exec(), &base(), &[1.0, 1.52, 2.2], 8);
        let margin = t.column("halt margin (m)");
        assert!(
            margin[0] < margin[2],
            "earlier warning leaves more margin: {margin:?}"
        );
    }

    #[test]
    fn speed_sweep_braking_superlinear() {
        let t = sweep_speed(&exec(), &base(), &[1.0, 2.0], 8);
        let braking = t.column("braking (m)");
        assert!(
            braking[1] > 1.7 * braking[0],
            "doubling speed should far more than double braking: {braking:?}"
        );
    }

    #[test]
    fn ntp_sweep_variance_grows() {
        let t = sweep_ntp_quality(&exec(), &base(), &[0.0, 10_000.0], 12);
        let var = t.column("#3->#4 var");
        assert!(var[1] > var[0], "{var:?}");
    }

    #[test]
    fn tx_power_sweep_shows_link_budget_cliff() {
        let t = sweep_tx_power(&exec(), &base(), &[-45.0, 23.0], 10);
        let delivery = t.column("DENM delivery");
        assert!(delivery[0] < 0.5, "starved link fails: {delivery:?}");
        assert!(delivery[1] > 0.9, "nominal power delivers: {delivery:?}");
    }

    #[test]
    fn shadowing_sweep_softens_the_cliff() {
        // At the margin power, zero shadowing is deterministic (all-or-
        // nothing); heavy shadowing spreads delivery into a fraction.
        let t = sweep_shadowing(&exec(), &base(), &[0.0, 12.0], 16);
        let delivery = t.column("DENM delivery");
        for d in &delivery {
            assert!((0.0..=1.0).contains(d));
        }
        // σ=0 must be at an extreme; σ=12 strictly between the extremes
        // or at least different.
        assert!(delivery[0] <= 0.0 || delivery[0] >= 1.0, "{delivery:?}");
        assert_ne!(delivery[0], delivery[1], "{delivery:?}");
    }

    #[test]
    fn sweeps_identical_across_executors() {
        let serial = sweep_poll_period(&crate::campaign::Serial, &base(), &[10, 150], 4);
        let threaded = sweep_poll_period(&Runner::new(8), &base(), &[10, 150], 4);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn zero_runs_still_renders_rows() {
        let t = sweep_poll_period(&exec(), &base(), &[10, 50], 0);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|(_, vals)| vals[0].is_nan()));
    }

    #[test]
    #[should_panic(expected = "unknown sweep column")]
    fn unknown_column_panics() {
        let t = sweep_poll_period(&exec(), &base(), &[50], 2);
        let _ = t.column("nope");
    }
}
