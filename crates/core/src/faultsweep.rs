//! Fault-sweep campaign: a grid over fault class × intensity, run
//! through the generic [`Executor`] interface (DESIGN.md §11).
//!
//! Each grid cell is one [`CampaignSpec`]: the baseline collision
//! avoidance scenario plus a [`FaultPlan`] exercising exactly one fault
//! class at one intensity, with the vehicle's V2X heartbeat watchdog
//! enabled so degraded runs end in a measurable outcome (pipeline
//! completion, fail-safe stop, or overrun) instead of the give-up
//! timeout. Cell aggregation is plain arithmetic over the returned
//! records, so Serial, the thread [`crate::Runner`] and the
//! multi-process shard coordinator all render byte-identical tables —
//! [`FaultSweep::fingerprint`] pins that equality in tier-1 tests.

use crate::campaign::{CampaignSpec, Executor};
use crate::scenario::{RunRecord, ScenarioConfig};
use faults::{FaultKind, FaultNode, FaultPlan, FaultWindow};
use sim_core::{SimTime, Trace};
use vehicle::watchdog::WatchdogConfig;

/// The fault classes the sweep exercises, one per grid row group.
pub const FAULT_CLASSES: [&str; 6] = [
    "camera_frame_drop",
    "detector_miss",
    "radio_silence",
    "bit_corruption",
    "http_stall",
    "node_crash_obu",
];

/// The intensity ladder applied to every class.
pub const INTENSITIES: [f64; 3] = [0.25, 0.5, 1.0];

/// Node-targeted fault classes for the cooperative scenarios
/// (DESIGN.md §15). [`plan_for`] understands these in addition to
/// [`FAULT_CLASSES`]; they are kept out of the classic collision
/// avoidance grid because they name nodes that scenario does not have
/// (platoon members) or silence deterministically rather than
/// stochastically.
pub const NODE_FAULT_CLASSES: [&str; 3] = ["leader_silence", "member_crash", "rsu_silence"];

/// One aggregated grid cell: a fault class at one intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepRow {
    /// Fault class name (one of [`FAULT_CLASSES`]).
    pub class: String,
    /// Intensity in `[0, 1]` (probability, or scaled crash/corruption
    /// parameter — see [`plan_for`]).
    pub intensity: f64,
    /// Runs in the cell.
    pub runs: usize,
    /// Runs whose DENM reached the OBU.
    pub delivered: usize,
    /// Runs that completed the paper's emergency pipeline end to end.
    pub completed: usize,
    /// Runs ending in a watchdog-commanded fail-safe stop.
    pub failsafe_stops: usize,
    /// Runs where the vehicle overran the camera (collision outcome).
    pub overruns: usize,
    /// Mean fault activations per run.
    pub injected_avg: f64,
    /// Mean corrupted frames/payloads rejected by the real decoders.
    pub rejected_avg: f64,
    /// Total watchdog degradations (speed caps + stops) across the cell.
    pub watchdog_trips: u64,
    /// Total watchdog recoveries back to nominal across the cell.
    pub watchdog_recoveries: u64,
}

/// The aggregated fault-sweep table.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweep {
    /// One row per (class, intensity) cell, grid order.
    pub rows: Vec<FaultSweepRow>,
}

/// The [`FaultPlan`] of one grid cell. Intensity maps to the class's
/// natural parameter: a per-opportunity probability for the stochastic
/// classes, a scaled per-byte flip probability for corruption (an
/// intensity of 1.0 flips ~2 % of bytes — enough to mangle most frames
/// without turning every run into pure noise), and a crash-window
/// length for the OBU crash (intensity × 2 s starting at t = 1 s, which
/// brackets the detection instant of the baseline scenario).
pub fn plan_for(class: &str, intensity: f64) -> FaultPlan {
    let kind = match class {
        "camera_frame_drop" => FaultKind::CameraFrameDrop { prob: intensity },
        "detector_miss" => FaultKind::DetectorMiss { prob: intensity },
        "radio_silence" => FaultKind::RadioSilence { prob: intensity },
        "bit_corruption" => FaultKind::BitCorruption {
            per_byte_prob: intensity * 0.02,
        },
        "http_stall" => FaultKind::HttpStall { prob: intensity },
        "node_crash_obu" => {
            let len_ms = (intensity * 2000.0) as u64;
            return FaultPlan::new(vec![FaultKind::NodeCrash {
                node: FaultNode::Obu,
            }
            .during(FaultWindow::new(
                SimTime::from_secs(1),
                SimTime::from_millis(1000 + len_ms),
            ))]);
        }
        // Node-targeted classes (NODE_FAULT_CLASSES): intensity scales
        // the outage window, starting at t = 0 so the fault covers both
        // the DENM instant and the start of the heartbeat relay.
        "leader_silence" => {
            let len_ms = (intensity * 40_000.0) as u64;
            return FaultPlan::new(vec![FaultKind::StuckTransmitter {
                node: FaultNode::Platoon(0),
            }
            .during(FaultWindow::new(
                SimTime::ZERO,
                SimTime::from_millis(len_ms),
            ))]);
        }
        "member_crash" => {
            let len_ms = (intensity * 40_000.0) as u64;
            return FaultPlan::new(vec![FaultKind::NodeCrash {
                node: FaultNode::Platoon(1),
            }
            .during(FaultWindow::new(
                SimTime::ZERO,
                SimTime::from_millis(len_ms),
            ))]);
        }
        "rsu_silence" => {
            let len_ms = (intensity * 4000.0) as u64;
            return FaultPlan::new(vec![FaultKind::StuckTransmitter {
                node: FaultNode::Rsu,
            }
            .during(FaultWindow::new(
                SimTime::ZERO,
                SimTime::from_millis(len_ms),
            ))]);
        }
        other => panic!("unknown fault class {other}"),
    };
    FaultPlan::new(vec![kind.during(FaultWindow::always())])
}

/// The campaign grid: one [`CampaignSpec`] of `runs` consecutive seeds
/// per (class, intensity) cell, every cell with the watchdog enabled.
///
/// Pure in its inputs, so a shard worker re-deriving the grid from the
/// same base config reaches the same fingerprints as the coordinator.
pub fn fault_sweep_specs(base: &ScenarioConfig, runs: usize) -> Vec<CampaignSpec> {
    let mut specs = Vec::with_capacity(FAULT_CLASSES.len() * INTENSITIES.len());
    for class in FAULT_CLASSES {
        for intensity in INTENSITIES {
            let cfg = ScenarioConfig {
                fault_plan: plan_for(class, intensity),
                watchdog: Some(WatchdogConfig::default()),
                ..base.clone()
            };
            specs.push(CampaignSpec::new(cfg, runs));
        }
    }
    specs
}

fn aggregate(class: &str, intensity: f64, records: &[RunRecord]) -> FaultSweepRow {
    let n = records.len().max(1) as f64;
    FaultSweepRow {
        class: class.to_owned(),
        intensity,
        runs: records.len(),
        delivered: records.iter().filter(|r| r.denm_delivered).count(),
        completed: records.iter().filter(|r| r.completed()).count(),
        failsafe_stops: records.iter().filter(|r| r.fault.failsafe_stop).count(),
        overruns: records.iter().filter(|r| r.fault.overran_camera).count(),
        injected_avg: records.iter().map(|r| r.fault.injected as f64).sum::<f64>() / n,
        rejected_avg: records
            .iter()
            .map(|r| r.fault.corrupted_rejected as f64)
            .sum::<f64>()
            / n,
        watchdog_trips: records
            .iter()
            .map(|r| r.fault.watchdog_speed_caps + r.fault.watchdog_stops)
            .sum(),
        watchdog_recoveries: records.iter().map(|r| r.fault.watchdog_recoveries).sum(),
    }
}

/// Runs the full fault-sweep grid on `exec` with `runs` seeds per cell.
pub fn fault_sweep(exec: &impl Executor, base: &ScenarioConfig, runs: usize) -> FaultSweep {
    let specs = fault_sweep_specs(base, runs);
    let results = exec.execute_grid(&specs);
    let mut rows = Vec::with_capacity(specs.len());
    let mut it = results.iter();
    for class in FAULT_CLASSES {
        for intensity in INTENSITIES {
            let records = it.next().expect("one result per spec");
            rows.push(aggregate(class, intensity, records));
        }
    }
    FaultSweep { rows }
}

impl FaultSweep {
    /// Renders the sweep as an aligned text table. The formatting is
    /// fixed-precision, so byte-equal tables ⇔ byte-equal aggregates.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<18} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9} {:>9} {:>6} {:>6}\n",
            "fault class",
            "inten",
            "runs",
            "deliv",
            "compl",
            "fstop",
            "overr",
            "inj/run",
            "rej/run",
            "trips",
            "recov",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>5.2} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9.3} {:>9.3} {:>6} {:>6}\n",
                r.class,
                r.intensity,
                r.runs,
                r.delivered,
                r.completed,
                r.failsafe_stops,
                r.overruns,
                r.injected_avg,
                r.rejected_avg,
                r.watchdog_trips,
                r.watchdog_recoveries,
            ));
        }
        out
    }

    /// FNV-1a digest of the rendered table (the same construction as
    /// [`sim_core::Trace::digest`]): the cross-executor identity check.
    pub fn fingerprint(&self) -> u64 {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, "faultsweep", "table", &self.render());
        t.digest()
    }

    /// The row for `(class, intensity)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not in the grid.
    #[cfg(test)]
    pub fn cell(&self, class: &str, intensity: f64) -> &FaultSweepRow {
        self.rows
            .iter()
            .find(|r| r.class == class && r.intensity == intensity)
            .unwrap_or_else(|| panic!("no cell {class} @ {intensity}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Serial;

    fn base() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7000,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn grid_covers_every_class_and_intensity() {
        let specs = fault_sweep_specs(&base(), 2);
        assert_eq!(specs.len(), FAULT_CLASSES.len() * INTENSITIES.len());
        for spec in &specs {
            assert!(!spec.base.fault_plan.is_empty());
            assert!(spec.base.watchdog.is_some());
        }
    }

    #[test]
    fn sweep_degrades_with_intensity_and_stays_deterministic() {
        let sweep = fault_sweep(&Serial, &base(), 3);
        // Total radio silence: nothing is delivered, and the watchdog
        // must catch every run (fail-safe stop, not overrun).
        let silent = sweep.cell("radio_silence", 1.0);
        assert_eq!(silent.delivered, 0);
        assert_eq!(silent.completed, 0);
        assert_eq!(silent.failsafe_stops, silent.runs);
        assert_eq!(silent.overruns, 0);
        // Low-intensity camera drops barely dent the pipeline.
        let mild = sweep.cell("camera_frame_drop", 0.25);
        assert!(mild.completed > 0);
        // Determinism: the exact same table again.
        let again = fault_sweep(&Serial, &base(), 3);
        assert_eq!(sweep, again);
        assert_eq!(sweep.fingerprint(), again.fingerprint());
    }

    #[test]
    #[should_panic(expected = "unknown fault class")]
    fn unknown_class_panics() {
        let _ = plan_for("gremlins", 0.5);
    }

    #[test]
    fn node_targeted_classes_produce_windowed_plans() {
        for class in NODE_FAULT_CLASSES {
            for intensity in INTENSITIES {
                let plan = plan_for(class, intensity);
                assert!(!plan.is_empty(), "{class} @ {intensity}");
            }
            // Node-targeted outages are deterministic: the injector
            // never draws, so two evaluations agree exactly.
            let a = plan_for(class, 0.5);
            let b = plan_for(class, 0.5);
            assert_eq!(a.faults.len(), b.faults.len());
        }
    }
}
