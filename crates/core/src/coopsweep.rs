//! Cross-scenario cooperative fault sweep: the fault × intensity grid
//! of [`crate::faultsweep`], taken to the *cooperative* scenarios —
//! the V2V platoon string and the CPM-equipped intersection
//! (DESIGN.md §15).
//!
//! Each cell runs one scenario under one fault class at one intensity
//! and aggregates the cooperative outcome counters: how deep a
//! leader-side failure cascaded down the platoon, how many perceived
//! objects reached the protagonist only through collective perception,
//! and how many stations ended in a fail-safe stop. Every run is
//! converted into a [`RunRecord`] *outcome frame* so the counters ride
//! the versioned wire codec (v3) between shard workers exactly like
//! the classic scenario's records do.
//!
//! The grid is executed through [`Executor::run_indexed`] — the same
//! contract the city benchmark uses for non-`ScenarioConfig` sweeps:
//! [`crate::Serial`] and the shard/socket executors take the
//! deterministic serial path, the thread [`crate::Runner`] parallelises
//! it, and all of them must agree byte for byte
//! (`tests/cooperative_faults.rs` pins that equality).

use crate::campaign::Executor;
use crate::faultsweep::{plan_for, INTENSITIES};
use crate::intersection::{IntersectionConfig, IntersectionRecord, IntersectionScenario};
use crate::platoon::{run_platoon, PlatoonConfig, PlatoonLink, PlatoonRecord};
use crate::scenario::RunRecord;
use facilities::cpm::CpServiceConfig;
use faults::CoopStats;
use phy80211p::cellular::CellularProfile;
use sim_core::{SimTime, Trace};
use vehicle::watchdog::WatchdogConfig;

/// The cooperative scenarios the sweep crosses with the fault grid.
pub const COOP_SCENARIOS: [&str; 2] = ["platoon", "intersection"];

/// The fault classes exercised per scenario: the stochastic
/// radio-silence ladder plus the node-targeted outages
/// ([`crate::faultsweep::NODE_FAULT_CLASSES`]) that make failures
/// *cascade* — a silenced leader starves every watchdog downstream, a
/// silenced RSU starves both the DENM and the CPM stream.
pub const COOP_FAULT_CLASSES: [&str; 4] = [
    "radio_silence",
    "leader_silence",
    "member_crash",
    "rsu_silence",
];

/// One aggregated cell of the cooperative sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CoopSweepRow {
    /// Scenario name (one of [`COOP_SCENARIOS`]).
    pub scenario: String,
    /// Fault class name (one of [`COOP_FAULT_CLASSES`]).
    pub class: String,
    /// Intensity in `[0, 1]`.
    pub intensity: f64,
    /// Runs in the cell.
    pub runs: usize,
    /// Runs whose DENM reached every addressed station.
    pub delivered: usize,
    /// Total followers pushed out of nominal driving, across the cell.
    pub cascade_depth: u64,
    /// Total CPM-only LDM entries beyond own sensor range.
    pub cpm_extended: u64,
    /// Total stations ending in a fail-safe stop.
    pub failsafe_stops: u64,
    /// Runs that ended in a collision.
    pub collisions: usize,
    /// Mean fault activations per run.
    pub injected_avg: f64,
}

/// The aggregated cross-scenario sweep table.
#[derive(Debug, Clone, PartialEq)]
pub struct CoopSweep {
    /// One row per (scenario, class, intensity) cell, grid order.
    pub rows: Vec<CoopSweepRow>,
}

/// The platoon cell configuration: a leader-relayed string with the
/// heartbeat watchdog armed, so leader-side faults have a cascade to
/// propagate.
pub fn platoon_cell_config(class: &str, intensity: f64, seed: u64) -> PlatoonConfig {
    PlatoonConfig {
        seed,
        link: PlatoonLink::LeaderCellularRelay(CellularProfile::nsa_5g()),
        fault_plan: plan_for(class, intensity),
        watchdog: Some(WatchdogConfig::default()),
        ..PlatoonConfig::default()
    }
}

/// The intersection cell configuration: classic conflict geometry with
/// the RSU's CP service on, so the protagonist's LDM is fed both its
/// own CAM track (at the RSU) and the RSU's camera objects (via CPM).
pub fn intersection_cell_config(class: &str, intensity: f64, seed: u64) -> IntersectionConfig {
    IntersectionConfig {
        seed,
        cpm: Some(CpServiceConfig::default()),
        fault_plan: plan_for(class, intensity),
        ..IntersectionConfig::default()
    }
}

/// Converts one platoon run into a wire-v3 outcome frame. The frame
/// carries only outcome fields (no trace): the sweep compares and
/// ships aggregates, not event logs.
pub fn platoon_outcome(record: &PlatoonRecord) -> RunRecord {
    let mut fault = record.fault;
    // The collision outcome folds into the overrun bit, the classic
    // scenario's "the safety net failed" flag.
    fault.overran_camera |= record.collision();
    RunRecord {
        denm_delivered: record.all_acted(),
        fault,
        coop: CoopStats {
            cascade_depth: record.cascade_depth as u64,
            cpm_extended_detections: 0,
            failsafe_stops: record.failsafe_stops as u64,
        },
        ..RunRecord::default()
    }
}

/// Converts one intersection run into a wire-v3 outcome frame.
pub fn intersection_outcome(record: &IntersectionRecord) -> RunRecord {
    let mut fault = record.fault;
    fault.overran_camera |= record.collision;
    RunRecord {
        denm_delivered: record.denm_delivered,
        step5_actuation: record.actuation,
        fault,
        coop: CoopStats {
            cascade_depth: 0,
            cpm_extended_detections: record.cpm_extended_detections,
            failsafe_stops: u64::from(record.protagonist_stopped),
        },
        ..RunRecord::default()
    }
}

/// Flat job count of the sweep grid.
fn job_count(runs: usize) -> usize {
    COOP_SCENARIOS.len() * COOP_FAULT_CLASSES.len() * INTENSITIES.len() * runs
}

/// Runs flat job `j` of the sweep: grid order is scenario-major,
/// then class, then intensity, then seed index — the row-major
/// flattening every executor chunks identically.
fn run_job(base_seed: u64, runs: usize, j: usize) -> RunRecord {
    let per_cell = runs;
    let per_class = INTENSITIES.len() * per_cell;
    let per_scenario = COOP_FAULT_CLASSES.len() * per_class;
    let scenario = COOP_SCENARIOS[j / per_scenario];
    let class = COOP_FAULT_CLASSES[(j % per_scenario) / per_class];
    let intensity = INTENSITIES[(j % per_class) / per_cell];
    let seed = base_seed + (j % per_cell) as u64;
    match scenario {
        "platoon" => platoon_outcome(&run_platoon(&platoon_cell_config(class, intensity, seed))),
        _ => intersection_outcome(
            &IntersectionScenario::new(intersection_cell_config(class, intensity, seed)).run(),
        ),
    }
}

fn aggregate(scenario: &str, class: &str, intensity: f64, records: &[RunRecord]) -> CoopSweepRow {
    let n = records.len().max(1) as f64;
    CoopSweepRow {
        scenario: scenario.to_owned(),
        class: class.to_owned(),
        intensity,
        runs: records.len(),
        delivered: records.iter().filter(|r| r.denm_delivered).count(),
        cascade_depth: records.iter().map(|r| r.coop.cascade_depth).sum(),
        cpm_extended: records.iter().map(|r| r.coop.cpm_extended_detections).sum(),
        failsafe_stops: records.iter().map(|r| r.coop.failsafe_stops).sum(),
        collisions: records.iter().filter(|r| r.fault.overran_camera).count(),
        injected_avg: records.iter().map(|r| r.fault.injected as f64).sum::<f64>() / n,
    }
}

/// Runs the full cross-scenario sweep on `exec` with `runs` seeds per
/// cell, seeds starting at `base_seed`.
// detlint:allow(U1) the cooperative-sweep table that tests/cooperative_faults.rs and tests/coop_golden.rs pin
pub fn coop_sweep(exec: &impl Executor, base_seed: u64, runs: usize) -> CoopSweep {
    let records = exec.run_indexed(job_count(runs), |j| run_job(base_seed, runs, j));
    let mut rows = Vec::with_capacity(COOP_SCENARIOS.len() * COOP_FAULT_CLASSES.len());
    let mut it = records.chunks(runs.max(1));
    for scenario in COOP_SCENARIOS {
        for class in COOP_FAULT_CLASSES {
            for intensity in INTENSITIES {
                let cell = it.next().expect("one chunk per cell");
                rows.push(aggregate(scenario, class, intensity, cell));
            }
        }
    }
    CoopSweep { rows }
}

/// The raw outcome frames of the sweep, wire-encoded back to back —
/// the byte string the cross-executor tests compare, and exactly what
/// a shard worker would ship.
// detlint:allow(U1) the sweep's wire frames that tests/cooperative_faults.rs compares across executors
pub fn coop_sweep_frames(exec: &impl Executor, base_seed: u64, runs: usize) -> Vec<u8> {
    let records = exec.run_indexed(job_count(runs), |j| run_job(base_seed, runs, j));
    let mut out = Vec::new();
    for record in &records {
        out.extend_from_slice(&record.encode());
    }
    out
}

impl CoopSweep {
    /// Renders the sweep as an aligned text table; fixed-precision, so
    /// byte-equal tables ⇔ byte-equal aggregates.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<13} {:<15} {:>5} {:>5} {:>5} {:>7} {:>7} {:>6} {:>5} {:>9}\n",
            "scenario",
            "fault class",
            "inten",
            "runs",
            "deliv",
            "cascade",
            "cpm_ext",
            "fstop",
            "coll",
            "inj/run",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<13} {:<15} {:>5.2} {:>5} {:>5} {:>7} {:>7} {:>6} {:>5} {:>9.3}\n",
                r.scenario,
                r.class,
                r.intensity,
                r.runs,
                r.delivered,
                r.cascade_depth,
                r.cpm_extended,
                r.failsafe_stops,
                r.collisions,
                r.injected_avg,
            ));
        }
        out
    }

    /// FNV-1a digest of the rendered table — the cross-executor
    /// identity check.
    pub fn fingerprint(&self) -> u64 {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, "coopsweep", "table", &self.render());
        t.digest()
    }

    /// The row for `(scenario, class, intensity)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not in the grid.
    pub fn cell(&self, scenario: &str, class: &str, intensity: f64) -> &CoopSweepRow {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.class == class && r.intensity == intensity)
            .unwrap_or_else(|| panic!("no cell {scenario}/{class} @ {intensity}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Serial;

    #[test]
    fn grid_covers_every_scenario_class_and_intensity() {
        let sweep = coop_sweep(&Serial, 9000, 1);
        assert_eq!(
            sweep.rows.len(),
            COOP_SCENARIOS.len() * COOP_FAULT_CLASSES.len() * INTENSITIES.len()
        );
        for scenario in COOP_SCENARIOS {
            for class in COOP_FAULT_CLASSES {
                for intensity in INTENSITIES {
                    let row = sweep.cell(scenario, class, intensity);
                    assert_eq!(row.runs, 1);
                }
            }
        }
    }

    #[test]
    fn leader_silence_cascades_down_the_platoon() {
        let sweep = coop_sweep(&Serial, 9000, 2);
        // A silenced leader starves every follower's watchdog: the
        // cascade reaches the whole string and every follower ends in
        // a fail-safe stop.
        let cell = sweep.cell("platoon", "leader_silence", 1.0);
        assert_eq!(cell.delivered, 0, "{cell:?}");
        assert!(cell.cascade_depth >= 3 * cell.runs as u64, "{cell:?}");
        assert!(cell.failsafe_stops >= 3 * cell.runs as u64, "{cell:?}");
    }

    #[test]
    fn degradation_is_monotone_in_intensity() {
        let sweep = coop_sweep(&Serial, 9000, 2);
        // Platoon: silence-style faults starve the heartbeat relay, so
        // the cascade depth and the watchdog's fail-safe stops can only
        // grow with intensity.
        for class in ["radio_silence", "leader_silence"] {
            let mut prev_cascade = 0;
            let mut prev_stops = 0;
            for (k, intensity) in INTENSITIES.iter().enumerate() {
                let cell = sweep.cell("platoon", class, *intensity);
                if k > 0 {
                    assert!(
                        cell.cascade_depth >= prev_cascade,
                        "platoon/{class}: {} < {prev_cascade}",
                        cell.cascade_depth
                    );
                    assert!(
                        cell.failsafe_stops >= prev_stops,
                        "platoon/{class}: {} < {prev_stops}",
                        cell.failsafe_stops
                    );
                }
                prev_cascade = cell.cascade_depth;
                prev_stops = cell.failsafe_stops;
            }
        }
        // Intersection: no watchdog cascade — degradation shows as
        // fewer deliveries/protective stops and more collisions.
        for class in ["leader_silence", "rsu_silence"] {
            let mut prev_delivered = usize::MAX;
            let mut prev_collisions = 0;
            let mut prev_protective = u64::MAX;
            for intensity in INTENSITIES {
                let cell = sweep.cell("intersection", class, intensity);
                assert!(
                    cell.delivered <= prev_delivered,
                    "intersection/{class}: {} > {prev_delivered}",
                    cell.delivered
                );
                assert!(
                    cell.collisions >= prev_collisions,
                    "intersection/{class}: {} < {prev_collisions}",
                    cell.collisions
                );
                assert!(
                    cell.failsafe_stops <= prev_protective,
                    "intersection/{class}: {} > {prev_protective}",
                    cell.failsafe_stops
                );
                prev_delivered = cell.delivered;
                prev_collisions = cell.collisions;
                prev_protective = cell.failsafe_stops;
            }
        }
    }

    #[test]
    fn rsu_silence_starves_cpm_and_denm_together() {
        let sweep = coop_sweep(&Serial, 9000, 2);
        let mild = sweep.cell("intersection", "rsu_silence", 0.25);
        let total = sweep.cell("intersection", "rsu_silence", 1.0);
        // The full-length outage suppresses both streams; the short one
        // ends before the conflict is even predicted.
        assert!(total.delivered <= mild.delivered, "{total:?} vs {mild:?}");
        assert!(
            total.cpm_extended < mild.cpm_extended,
            "{total:?} vs {mild:?}"
        );
    }

    #[test]
    fn sweep_is_deterministic_and_frames_roundtrip() {
        let a = coop_sweep(&Serial, 9000, 1);
        let b = coop_sweep(&Serial, 9000, 1);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let frames = coop_sweep_frames(&Serial, 9000, 1);
        let mut r = geonet::bytesio::ByteReader::new(&frames);
        let mut decoded = 0;
        while r.remaining() > 0 {
            let record = RunRecord::decode_from(&mut r).expect("frame decodes");
            let _ = record.coop;
            decoded += 1;
        }
        assert_eq!(decoded, job_count(1));
    }
}
