//! Golden pins: every `CityRecord` field of a small culled and
//! exhaustive city grid, floats by bit pattern.
//!
//! The other city gates compare the city with itself (culled against
//! exhaustive, executor against executor). These pin absolute values,
//! so a change that moves both sides of those comparisons the same
//! way still fails here. The values were captured before `run_city`
//! switched from `Channel::transmit` to `Channel::deliver`, and that
//! switch kept every bit.

use its_testbed::city::{run_city, CityConfig, CityRecord};
use phy80211p::dcc::DccState;
use sim_core::SimDuration;

/// One pinned run: its configuration and its record.
struct Pin {
    seed: u64,
    n_stations: usize,
    exhaustive: bool,
    record: CityRecord,
}

#[allow(clippy::too_many_arguments)] // one argument per record field
fn pin(
    seed: u64,
    n: usize,
    exhaustive: bool,
    cams_transmitted: u64,
    events: u64,
    cam_delivery_ratio: u64,
    mean_cbr: u64,
    denm_receptions: u64,
    mean_denm_latency_ms: u64,
    n_stations: usize,
    worst_dcc_state: DccState,
) -> Pin {
    Pin {
        seed,
        n_stations: n,
        exhaustive,
        record: CityRecord {
            n_stations,
            cams_transmitted,
            cam_delivery_ratio: f64::from_bits(cam_delivery_ratio),
            mean_cbr: f64::from_bits(mean_cbr),
            denm_receptions,
            mean_denm_latency_ms: f64::from_bits(mean_denm_latency_ms),
            events,
            worst_dcc_state,
        },
    }
}

/// `(seed, N, exhaustive, cams_transmitted, events, cam_delivery_ratio,
/// mean_cbr, denm_receptions, mean_denm_latency_ms, n_stations,
/// worst_dcc_state)`, floats as `to_bits`. Culled at
/// N ∈ {40, 120, 300, 700}, exhaustive for N ≤ 300, 3 s horizon.
fn pins() -> Vec<Pin> {
    vec![
        pin(
            20230627,
            40,
            false,
            1200,
            6568,
            0x3fb42489b8545182,
            0x3f886888c72b13d7,
            1,
            0x3fe8527e5215768a,
            40,
            DccState::Relaxed,
        ),
        pin(
            20230627,
            40,
            true,
            1200,
            46917,
            0x3fb42489b8545182,
            0x3f886888c72b13d7,
            1,
            0x3fe8527e5215768a,
            40,
            DccState::Relaxed,
        ),
        pin(
            20230627,
            120,
            false,
            3600,
            22554,
            0x3fb7eb48a4a3bb21,
            0x3f8b61ded093ba17,
            0,
            0x0000000000000000,
            120,
            DccState::Relaxed,
        ),
        pin(
            20230627,
            120,
            true,
            3600,
            428757,
            0x3fb7eb48a4a3bb21,
            0x3f8b61ded093ba17,
            0,
            0x0000000000000000,
            120,
            DccState::Relaxed,
        ),
        pin(
            20230627,
            300,
            false,
            9000,
            60211,
            0x3fb4e330578388cf,
            0x3f8cfb3ad2dff89d,
            0,
            0x0000000000000000,
            300,
            DccState::Relaxed,
        ),
        pin(
            20230627,
            300,
            true,
            9000,
            2691897,
            0x3fb4e330578388cf,
            0x3f8cfb3ad2dff89d,
            0,
            0x0000000000000000,
            300,
            DccState::Relaxed,
        ),
        pin(
            20230627,
            700,
            false,
            21000,
            146397,
            0x3fb647ffe3587ed1,
            0x3f8e0a19c0a18b00,
            1,
            0x3ff4fe28240b7803,
            700,
            DccState::Relaxed,
        ),
        pin(
            99,
            40,
            false,
            1200,
            7365,
            0x3fb58c60cb120fc3,
            0x3f8aea9cc16c4662,
            3,
            0x3ffcd7ed6e749977,
            40,
            DccState::Relaxed,
        ),
        pin(
            99,
            40,
            true,
            1200,
            46917,
            0x3fb58c60cb120fc3,
            0x3f8aea9cc16c4662,
            3,
            0x3ffcd7ed6e749977,
            40,
            DccState::Relaxed,
        ),
        pin(
            99,
            120,
            false,
            3600,
            23104,
            0x3faebc6850e5ebc7,
            0x3f8bf552ce1b09e4,
            1,
            0x3ff20c67168f8e7e,
            120,
            DccState::Relaxed,
        ),
        pin(
            99,
            120,
            true,
            3600,
            428757,
            0x3faebc6850e5ebc7,
            0x3f8bf552ce1b09e4,
            1,
            0x3ff20c67168f8e7e,
            120,
            DccState::Relaxed,
        ),
        pin(
            99,
            300,
            false,
            9000,
            64539,
            0x3fb5929de29b5887,
            0x3f8ecb1c488b0921,
            2,
            0x3ffdd334c5da6a44,
            300,
            DccState::Relaxed,
        ),
        pin(
            99,
            300,
            true,
            9000,
            2691897,
            0x3fb5929de29b5887,
            0x3f8ecb1c488b0921,
            2,
            0x3ffdd334c5da6a44,
            300,
            DccState::Relaxed,
        ),
        pin(
            99,
            700,
            false,
            21000,
            147795,
            0x3fb6e6d517d6500c,
            0x3f8e4a4f34b420cb,
            1,
            0x4001db3e1437c569,
            700,
            DccState::Relaxed,
        ),
    ]
}

/// A record with its floats spelled as bit patterns, so a failure
/// shows which bits moved.
fn bits(r: &CityRecord) -> String {
    format!(
        "n {} cams {} events {} delivery {:#018x} cbr {:#018x} denm {} latency {:#018x} dcc {:?}",
        r.n_stations,
        r.cams_transmitted,
        r.events,
        r.cam_delivery_ratio.to_bits(),
        r.mean_cbr.to_bits(),
        r.denm_receptions,
        r.mean_denm_latency_ms.to_bits(),
        r.worst_dcc_state
    )
}

#[test]
fn city_records_match_their_golden_pins() {
    for p in pins() {
        let got = run_city(&CityConfig {
            seed: p.seed,
            n_stations: p.n_stations,
            duration: SimDuration::from_secs(3),
            exhaustive: p.exhaustive,
            ..CityConfig::default()
        });
        assert_eq!(
            bits(&got),
            bits(&p.record),
            "seed {} N {} exhaustive {}",
            p.seed,
            p.n_stations,
            p.exhaustive
        );
    }
}
