//! Golden pins for the collision scenario: the two tracked fingerprints,
//! a digest of every byte of the records behind them, and digests of
//! the configuration variants the paper tables do not exercise.
//!
//! The other collision gates compare the scenario with itself (serial
//! against threaded, one executor against another, a run against its
//! rerun). These pin absolute values, so a change that moves every
//! executor the same way still fails here. The values were captured
//! before the detection-to-action chain moved out of `scenario.rs`
//! into `chain.rs`, and that move kept every bit.

use its_testbed::campaign::{CampaignSpec, Serial};
use its_testbed::faultsweep::fault_sweep;
use its_testbed::scenario::{DenmLink, HazardRule, RunRecord, ScenarioConfig};
use its_testbed::Runner;
use phy80211p::cellular::CellularProfile;
use sim_core::SimDuration;
use vehicle::watchdog::WatchdogConfig;

/// perfbench's seed-0 block: every campaign below starts here.
const BASE_SEED: u64 = 20_230_627;
/// Runs per paper table, as in the tracked fingerprints.
const RUNS_PER_TABLE: usize = 256;
/// Runs per configuration variant.
const VARIANT_RUNS: usize = 8;

fn base() -> ScenarioConfig {
    ScenarioConfig {
        seed: BASE_SEED,
        ..ScenarioConfig::default()
    }
}

/// FNV-1a-64 over the concatenated `RunRecord::encode()` bytes, trace
/// included.
fn digest(records: &[RunRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for &b in &r.encode() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

fn variant(config: ScenarioConfig) -> u64 {
    digest(&CampaignSpec::new(config, VARIANT_RUNS).execute(&Serial))
}

#[test]
fn paper_tables_keep_their_fingerprints_and_bytes() {
    let runner = Runner::new(2);
    let table2 = CampaignSpec::new(base(), RUNS_PER_TABLE).execute(&runner);
    let table3 = CampaignSpec::with_seed_offset(base(), 1000, RUNS_PER_TABLE).execute(&runner);
    let total = mean(
        table2
            .iter()
            .map(|r| r.total_delay_ms().map_or(f64::NAN, |d| d as f64)),
    );
    let braking = mean(
        table3
            .iter()
            .map(|r| r.braking_distance_m().unwrap_or(f64::NAN)),
    );
    assert_eq!(
        format!("{total:.4}"),
        "53.6602",
        "Table II mean total delay"
    );
    assert_eq!(
        format!("{braking:.6}"),
        "0.376621",
        "Table III mean braking distance"
    );
    let all: Vec<RunRecord> = table2.into_iter().chain(table3).collect();
    assert_eq!(
        format!("{:#018x}", digest(&all)),
        "0x74eb9a9cfd6999c7",
        "wire bytes of the 512 paper-table records"
    );
}

#[test]
fn ttc_rule_block_is_pinned() {
    let d = variant(ScenarioConfig {
        hazard_rule: HazardRule::TimeToCollision {
            ttc_s: 2.0,
            min_hits: 3,
        },
        ..base()
    });
    assert_eq!(format!("{d:#018x}"), "0x3ac35a486273377c");
}

#[test]
fn cellular_link_block_is_pinned() {
    let d = variant(ScenarioConfig {
        denm_link: DenmLink::Cellular(CellularProfile::lte_uu()),
        ..base()
    });
    assert_eq!(format!("{d:#018x}"), "0x97f52e5f7cc167a5");
}

#[test]
fn denm_repetition_block_is_pinned() {
    let d = variant(ScenarioConfig {
        denm_repetition: Some((SimDuration::from_millis(100), SimDuration::from_secs(1))),
        ..base()
    });
    assert_eq!(format!("{d:#018x}"), "0x0787a7632d501974");
}

#[test]
fn watchdog_block_is_pinned() {
    let d = variant(ScenarioConfig {
        watchdog: Some(WatchdogConfig::default()),
        ..base()
    });
    assert_eq!(format!("{d:#018x}"), "0x1edb990e08398fed");
}

#[test]
fn fault_sweep_fingerprint_is_pinned() {
    let fp = fault_sweep(&Serial, &base(), 2).fingerprint();
    assert_eq!(format!("{fp:#018x}"), "0x4b312eb96225aead");
}
