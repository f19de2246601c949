//! Differential test: the spatial-grid culled channel against the
//! exhaustive O(N²) reference.
//!
//! Culling is only sound if (a) every receiver the grid keeps sees the
//! *bit-identical* `TransmitOutcome` it would see in an exhaustive
//! evaluation — guaranteed because per-receiver randomness is forked on
//! the `(frame, receiver)` label, never drawn from a shared sequential
//! stream — and (b) every receiver the grid culls is beyond the cutoff
//! radius, where even a `CULL_SHADOW_SIGMAS`-sigma shadowing upswing
//! leaves the frame-error rate above `1 − CULL_EPS` (DESIGN.md §13).

use its_testbed::city::{run_city, urban_channel_config, CityConfig, CityRecord};
use phy80211p::channel::{CULL_EPS, CULL_SHADOW_SIGMAS, NOISE_FLOOR_DBM};
use phy80211p::ofdm::DataRate;
use phy80211p::{Channel, Position2D, SpatialGrid};
use sim_core::{SimDuration, SimRng, SimTime};

const CAM_LEN: usize = 100;
const RATE: DataRate = DataRate::Mbps6;

fn random_fleet(seed: u64, n: usize, side_m: f64) -> Vec<Position2D> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|_| Position2D::new(rng.uniform(0.0, side_m), rng.uniform(0.0, side_m)))
        .collect()
}

#[test]
fn culled_receiver_set_is_exactly_the_in_cutoff_set() {
    let channel = Channel::new(urban_channel_config());
    let cutoff = channel.cutoff_radius_m(CAM_LEN, RATE);
    assert!(
        cutoff.is_finite() && cutoff > 50.0 && cutoff < 1000.0,
        "urban cutoff should be a street-scale radius, got {cutoff}"
    );
    for seed in [3u64, 17, 99] {
        let fleet = random_fleet(seed, 250, 1500.0);
        let mut grid = SpatialGrid::new(cutoff / 2.0);
        grid.rebuild(fleet.iter().copied());
        let mut candidates = Vec::new();
        for (tx, &tx_pos) in fleet.iter().enumerate() {
            grid.candidates_within(tx_pos, cutoff, &mut candidates);
            let brute: Vec<u32> = fleet
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    let dx = p.x - tx_pos.x;
                    let dy = p.y - tx_pos.y;
                    dx * dx + dy * dy <= cutoff * cutoff
                })
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(candidates, brute, "seed {seed} tx {tx}");
        }
    }
}

#[test]
fn non_culled_outcomes_are_bit_identical_to_exhaustive() {
    // Simulate the same frame twice: once evaluating only the culled
    // candidate set, once evaluating every receiver. Per-(frame, rx)
    // forked streams mean the shared receivers' outcomes agree bitwise.
    let channel = Channel::new(urban_channel_config());
    let cutoff = channel.cutoff_radius_m(CAM_LEN, RATE);
    let fleet = random_fleet(42, 300, 1800.0);
    let mut grid = SpatialGrid::new(cutoff / 2.0);
    grid.rebuild(fleet.iter().copied());
    let root = SimRng::seed_from(7);
    let start = SimTime::from_millis(250);

    let mut candidates = Vec::new();
    let mut culled_any = false;
    for (frame_id, tx) in [(1u64, 0usize), (2, 120), (3, 299)] {
        let tx_pos = *fleet.get(tx).expect("tx index in fleet");
        grid.candidates_within(tx_pos, cutoff, &mut candidates);
        let in_cutoff: Vec<u32> = candidates
            .iter()
            .copied()
            .filter(|&r| r as usize != tx)
            .collect();
        assert!(
            in_cutoff.len() < fleet.len() - 1,
            "culling must actually drop receivers (kept {} of {})",
            in_cutoff.len(),
            fleet.len() - 1
        );
        culled_any = true;

        // Exhaustive pass: every receiver, in index order.
        let exhaustive: Vec<(u32, phy80211p::TransmitOutcome)> = (0..fleet.len() as u32)
            .filter(|&r| r as usize != tx)
            .map(|r| {
                let rx_pos = *fleet.get(r as usize).expect("rx in fleet");
                let mut rng = root.fork_u64((frame_id << 32) | u64::from(r));
                (
                    r,
                    channel.transmit(start, tx_pos, rx_pos, CAM_LEN, RATE, &mut rng),
                )
            })
            .collect();

        // Culled pass: only the grid's candidates.
        for &r in &in_cutoff {
            let rx_pos = *fleet.get(r as usize).expect("rx in fleet");
            let mut rng = root.fork_u64((frame_id << 32) | u64::from(r));
            let culled_outcome = channel.transmit(start, tx_pos, rx_pos, CAM_LEN, RATE, &mut rng);
            let (_, exhaustive_outcome) = exhaustive
                .iter()
                .find(|(er, _)| *er == r)
                .expect("receiver present in exhaustive pass");
            assert_eq!(culled_outcome.delivered, exhaustive_outcome.delivered);
            assert_eq!(
                culled_outcome.snr_db.to_bits(),
                exhaustive_outcome.snr_db.to_bits(),
                "SNR must be bit-identical"
            );
            assert_eq!(
                culled_outcome.fer.to_bits(),
                exhaustive_outcome.fer.to_bits(),
                "FER must be bit-identical"
            );
            assert_eq!(culled_outcome.arrival, exhaustive_outcome.arrival);
        }

        // Every culled receiver sits beyond the cutoff, where even a
        // CULL_SHADOW_SIGMAS shadowing upswing leaves FER ≥ 1 − ε —
        // and, with these seeds, none of them would have received the
        // frame anyway.
        let sigma = channel.config().shadowing_sigma_db;
        for (r, outcome) in &exhaustive {
            if in_cutoff.contains(r) {
                continue;
            }
            let rx_pos = *fleet.get(*r as usize).expect("rx in fleet");
            assert!(
                tx_pos.distance(rx_pos) > cutoff,
                "culled rx {r} inside cutoff"
            );
            let optimistic_snr = channel.mean_rx_power_dbm(tx_pos, rx_pos)
                + CULL_SHADOW_SIGMAS * sigma
                - NOISE_FLOOR_DBM;
            assert!(
                channel.frame_error_rate(optimistic_snr, CAM_LEN, RATE) >= 1.0 - CULL_EPS,
                "culled rx {r} would have a non-negligible delivery probability"
            );
            assert!(
                !outcome.delivered,
                "culled rx {r} was delivered in the exhaustive reference"
            );
        }
    }
    assert!(culled_any);
}

#[test]
fn city_run_is_bit_identical_with_and_without_culling() {
    let base = CityConfig {
        n_stations: 120,
        duration: SimDuration::from_secs(3),
        ..CityConfig::default()
    };
    let culled = run_city(&base);
    let exhaustive = run_city(&CityConfig {
        exhaustive: true,
        ..base
    });
    // The exhaustive reference does strictly more channel evaluations…
    assert!(
        exhaustive.events > 2 * culled.events,
        "expected a large evaluation gap: {} vs {}",
        exhaustive.events,
        culled.events
    );
    // …but every metric it produces is bit-identical.
    assert_eq!(
        culled,
        CityRecord {
            events: culled.events,
            ..exhaustive
        }
    );
}
