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
//!
//! Beside the pins, the model's Table II and Table III means are held
//! inside the 95 % t-intervals of the paper's own runs, so a model fix
//! that moves a pin can still be checked against the paper.

use std::sync::OnceLock;

use its_testbed::campaign::{CampaignSpec, Serial};
use its_testbed::experiments::paper;
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

/// Two-sided 95 % Student-t quantiles, typed from a t table: 4 degrees
/// of freedom for the paper's five Table II runs, 6 for its seven
/// Table III runs.
const T95_DF4: f64 = 2.776;
const T95_DF6: f64 = 2.447;

/// The 256-run Table II and Table III campaigns, run once and shared by
/// the tests that read them.
fn paper_campaigns() -> &'static (Vec<RunRecord>, Vec<RunRecord>) {
    static CAMPAIGNS: OnceLock<(Vec<RunRecord>, Vec<RunRecord>)> = OnceLock::new();
    CAMPAIGNS.get_or_init(|| {
        let runner = Runner::new(2);
        (
            CampaignSpec::new(base(), RUNS_PER_TABLE).execute(&runner),
            CampaignSpec::with_seed_offset(base(), 1000, RUNS_PER_TABLE).execute(&runner),
        )
    })
}

/// FNV-1a-64 over the concatenated `RunRecord::encode()` bytes, trace
/// included.
fn digest<'a>(records: impl IntoIterator<Item = &'a RunRecord>) -> u64 {
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

/// The 95 % t-interval of the mean of `xs`, for the quantile `t` of
/// `xs.len() - 1` degrees of freedom.
fn t_interval(xs: &[f64], t: f64) -> (f64, f64) {
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1.0);
    let half = t * (var / n).sqrt();
    (m - half, m + half)
}

fn variant(config: ScenarioConfig) -> u64 {
    digest(&CampaignSpec::new(config, VARIANT_RUNS).execute(&Serial))
}

#[test]
fn paper_tables_keep_their_fingerprints_and_bytes() {
    let (table2, table3) = paper_campaigns();
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
    assert_eq!(
        format!("{:#018x}", digest(table2.iter().chain(table3))),
        "0x74eb9a9cfd6999c7",
        "wire bytes of the 512 paper-table records"
    );
}

#[test]
fn model_means_lie_inside_the_papers_95_percent_intervals() {
    let (table2, table3) = paper_campaigns();
    let step_mean = |interval: fn(&RunRecord) -> Option<i64>| {
        mean(
            table2
                .iter()
                .map(|r| interval(r).map_or(f64::NAN, |d| d as f64)),
        )
    };
    // (row, the paper's runs, their 95 % interval as the docs quote it,
    // the model's mean)
    let rows = [
        (
            "#2->#3 (ms)",
            &paper::INTERVAL_2_3[..],
            (21.8, 33.4),
            step_mean(RunRecord::interval_2_3_ms),
        ),
        (
            "#3->#4 (ms)",
            &paper::INTERVAL_3_4[..],
            (0.92, 2.28),
            step_mean(RunRecord::interval_3_4_ms),
        ),
        (
            "#4->#5 (ms)",
            &paper::INTERVAL_4_5[..],
            (18.4, 40.0),
            step_mean(RunRecord::interval_4_5_ms),
        ),
        (
            "total (ms)",
            &paper::TOTAL[..],
            (43.8, 73.0),
            step_mean(RunRecord::total_delay_ms),
        ),
    ];
    for (row, runs, (lo, hi), model) in rows {
        let (a, b) = t_interval(runs, T95_DF4);
        assert!(
            (a - lo).abs() < 0.005 && (b - hi).abs() < 0.005,
            "{row}: paper interval {a:.3}..{b:.3}, expected {lo}..{hi}"
        );
        assert!(
            a <= model && model <= b,
            "{row}: model mean {model:.3} outside the paper's 95 % interval {a:.3}..{b:.3}"
        );
    }
    let (a, b) = t_interval(&paper::BRAKING, T95_DF6);
    assert!(
        (a - 0.322).abs() < 0.0005 && (b - 0.409).abs() < 0.0005,
        "Table III: paper interval {a:.4}..{b:.4}, expected 0.322..0.409"
    );
    let braking = mean(
        table3
            .iter()
            .map(|r| r.braking_distance_m().unwrap_or(f64::NAN)),
    );
    assert!(
        a <= braking && braking <= b,
        "Table III: model mean {braking:.4} m outside the paper's 95 % interval {a:.4}..{b:.4}"
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
