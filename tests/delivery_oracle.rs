//! Oracle: the city channel's CAM delivery ratio against distance,
//! checked against the closed form of its link model.
//!
//! Under the urban profile a receiver at distance `d` sees the mean SNR
//! `SNR(d) = tx + gain − (L0 + 10·n·log10 d) − noise` plus log-normal
//! shadowing `X ~ N(0, σ)`, and decodes with probability
//! `1 − FER(SNR(d) + X)`. So the delivery ratio at `d` is
//!
//! ```text
//! P(d) = E_X[1 − FER(SNR(d) + X)],
//! FER(s) = 1 − (1 − Q(√(2·Eb/N0)))^(8·len),  Eb/N0 = 10^((s + 5 dB)/10) / 2
//! ```
//!
//! for the 100-byte CAM at 6 Mbit/s (QPSK, rate-1/2 coding gain 5 dB).
//! The test integrates `P(d)` by quadrature with its own `erfc`, not
//! `sim_core::math`'s, and compares it with the fraction of forked
//! streams that `Channel::deliver` delivers.

use its_testbed::city::urban_channel_config;
use phy80211p::channel::{ANTENNA_GAIN_DBI, NOISE_FLOOR_DBM, REFERENCE_LOSS_DB};
use phy80211p::{Channel, DataRate, Position2D};
use sim_core::{SimRng, SimTime};

const CAM_LEN: usize = 100;
const STREAMS: u64 = 20_000;

/// `erfc` by the Chebyshev fit of Numerical Recipes (`erfcc`),
/// fractional error below 1.2e-7 everywhere: a different approximation
/// from the link model's Abramowitz–Stegun 7.1.26.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// Decoding probability `1 − FER` of the CAM at SNR `snr_db`.
fn success(snr_db: f64) -> f64 {
    let ebn0 = (10f64.powf((snr_db + 5.0) / 10.0) / 2.0).max(1e-12);
    let ber = (0.5 * erfc(ebn0.sqrt())).min(0.5);
    (1.0 - ber).powf(8.0 * CAM_LEN as f64)
}

/// `P(d)`: the trapezoid rule over ±8σ of shadowing in 0.005 dB steps.
fn delivery_probability(channel: &Channel, d: f64) -> f64 {
    let c = channel.config();
    let mean_snr = c.tx_power_dbm + ANTENNA_GAIN_DBI
        - (REFERENCE_LOSS_DB + 10.0 * c.path_loss_exponent * d.log10())
        - NOISE_FLOOR_DBM;
    let sigma = c.shadowing_sigma_db;
    let step = 0.005;
    let half = (8.0 * sigma / step) as i64;
    let mut sum = 0.0;
    for i in -half..=half {
        let x = i as f64 * step;
        let weight = if i.abs() == half { 0.5 } else { 1.0 };
        let density =
            (-0.5 * (x / sigma).powi(2)).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt());
        sum += weight * density * success(mean_snr + x);
    }
    sum * step
}

#[test]
fn oracle_erfc_matches_reference_values() {
    for (x, want) in [
        (0.0, 1.0),
        (0.5, 0.479_500_122),
        (1.0, 0.157_299_207),
        (2.0, 0.004_677_735),
        (-1.0, 1.842_700_793),
    ] {
        assert!((erfc(x) - want).abs() < 1e-7 * want.max(1.0), "erfc({x})");
    }
}

#[test]
fn cam_delivery_ratio_follows_the_closed_form_by_distance() {
    let channel = Channel::new(urban_channel_config());
    let link = channel.frame_link(CAM_LEN, DataRate::Mbps6);
    let root = SimRng::seed_from(20230627);
    let tx = Position2D::new(0.0, 0.0);
    // The closed form, to the precision EXPERIMENTS.md quotes.
    let expected = [
        (20.0, 0.9986),
        (30.0, 0.889),
        (40.0, 0.481),
        (50.0, 0.151),
        (60.0, 0.033),
        (80.0, 0.0009),
    ];
    for (bin, (d, quoted)) in expected.into_iter().enumerate() {
        let p = delivery_probability(&channel, d);
        let digits = if quoted < 0.01 { 1e-4 } else { 1e-3 };
        assert!(
            (p - quoted).abs() <= digits,
            "P({d} m) = {p:.5}, quoted {quoted}"
        );
        let rx = Position2D::new(d, 0.0);
        let delivered = (0..STREAMS)
            .filter(|&k| {
                let rng = root.fork_u64(((bin as u64) << 32) | k);
                channel.deliver(&link, SimTime::ZERO, tx, rx, rng).is_some()
            })
            .count();
        let ratio = delivered as f64 / STREAMS as f64;
        let sd = (p * (1.0 - p) / STREAMS as f64).sqrt();
        assert!(
            (ratio - p).abs() <= 5.0 * sd,
            "at {d} m: delivered {ratio:.4}, closed form {p:.4} ± 5σ = {:.4}",
            5.0 * sd
        );
    }
}
