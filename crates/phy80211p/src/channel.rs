//! Wireless channel model: path loss, shadowing, blind-corner
//! obstruction, and an SNR→frame-error link model.
//!
//! The paper's discussion (§IV-C) calls out that "further work is required
//! to properly model attenuation, either by interference or shadowing
//! caused by own vehicle or others" — this module provides exactly those
//! knobs so the blind-corner scenario (vehicles without wireless
//! line-of-sight) can be reproduced: a log-distance path-loss law,
//! log-normal shadowing, and polygonal obstacles that add NLoS loss when
//! they cut the TX→RX segment.

use crate::ofdm::{airtime, DataRate, Modulation};
use sim_core::math::q_function;
use sim_core::{SimDuration, SimRng, SimTime};

/// Speed of light, m/s.
const C_M_PER_S: f64 = 299_792_458.0;

/// Per-frame delivery probability a culled receiver is allowed to lose:
/// the cutoff radius is derived so delivery beyond it happens with
/// probability at most `2 × CULL_EPS` (shadow tail + residual FER).
pub const CULL_EPS: f64 = 1e-6;

/// Shadowing margin, in standard deviations, granted to a receiver
/// before it is culled. `P(N(0, σ) > 4.75 σ) ≈ 1e-6 = CULL_EPS`.
pub const CULL_SHADOW_SIGMAS: f64 = 4.75;

/// How far a [`FrameLink`]'s saturation SNR sits below the largest SNR
/// at which [`Channel::frame_error_rate`] is exactly 1.0, dB. It absorbs
/// last-ulp wiggles of the floating-point FER chain near that boundary
/// (DESIGN.md §13).
const SATURATION_MARGIN_DB: f64 = 0.05;

/// A point in the laboratory frame, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position2D {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
}

impl Position2D {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance(&self, other: Position2D) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// An axis-aligned rectangular obstruction (e.g. the blind-corner
/// building). Any TX→RX segment crossing it suffers `extra_loss_db`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// Minimum corner.
    pub min: Position2D,
    /// Maximum corner.
    pub max: Position2D,
    /// Additional attenuation when the link is obstructed, dB.
    pub extra_loss_db: f64,
}

impl Obstacle {
    /// Whether the segment `a`→`b` intersects this rectangle.
    pub fn blocks(&self, a: Position2D, b: Position2D) -> bool {
        // Liang–Barsky clipping: find parameter range of the segment
        // inside the slab intersection.
        let (mut t0, mut t1) = (0.0f64, 1.0f64);
        let dx = b.x - a.x;
        let dy = b.y - a.y;
        let clips = [
            (-dx, a.x - self.min.x),
            (dx, self.max.x - a.x),
            (-dy, a.y - self.min.y),
            (dy, self.max.y - a.y),
        ];
        for (p, q) in clips {
            // detlint:allow(D4) Liang–Barsky needs the exact zero-denominator case
            if p == 0.0 {
                if q < 0.0 {
                    return false; // parallel and outside
                }
            } else {
                let r = q / p;
                if p < 0.0 {
                    if r > t1 {
                        return false;
                    }
                    if r > t0 {
                        t0 = r;
                    }
                } else {
                    if r < t0 {
                        return false;
                    }
                    if r < t1 {
                        t1 = r;
                    }
                }
            }
        }
        t0 <= t1
    }
}

/// Channel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Transmit power, dBm (802.11p class C default 23 dBm).
    pub tx_power_dbm: f64,
    /// Combined antenna gains, dBi.
    pub antenna_gain_dbi: f64,
    /// Path-loss exponent (2.0 = free space; indoor lab ≈ 1.8–2.2).
    pub path_loss_exponent: f64,
    /// Reference loss at 1 m, dB (free space at 5.9 GHz ≈ 47.9 dB).
    pub reference_loss_db: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
    /// Receiver noise floor, dBm (−174 + 10·log10(10 MHz) + NF ≈ −94).
    pub noise_floor_dbm: f64,
    /// Obstructions adding NLoS loss.
    pub obstacles: Vec<Obstacle>,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            tx_power_dbm: 23.0,
            antenna_gain_dbi: 0.0,
            path_loss_exponent: 2.0,
            reference_loss_db: 47.9,
            shadowing_sigma_db: 3.0,
            noise_floor_dbm: -94.0,
            obstacles: Vec::new(),
        }
    }
}

/// Outcome of one frame transmission towards one receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmitOutcome {
    /// Whether the frame decoded successfully.
    pub delivered: bool,
    /// Time the last bit arrives at the receiver (TX start + airtime +
    /// propagation).
    pub arrival: SimTime,
    /// Signal-to-noise ratio seen by this receiver, dB.
    pub snr_db: f64,
    /// Frame error probability that was sampled against.
    pub fer: f64,
}

/// One frame type's link constants for [`Channel::deliver`], built once
/// per run by [`Channel::frame_link`].
#[derive(Debug, Clone, Copy)]
pub struct FrameLink {
    len_bytes: usize,
    rate: DataRate,
    airtime: SimDuration,
    /// [`Channel::frame_error_rate`] is exactly 1.0 at every SNR below
    /// this, dB: the largest SNR where it is 1.0, less
    /// [`SATURATION_MARGIN_DB`]. −∞ when the frame is too short for FER
    /// to reach 1.0 at any SNR.
    saturation_snr_db: f64,
}

impl FrameLink {
    /// Airtime of the frame.
    pub fn airtime(&self) -> SimDuration {
        self.airtime
    }
}

/// The broadcast channel.
///
/// # Example
///
/// ```
/// use phy80211p::channel::{Channel, ChannelConfig, Position2D};
/// use phy80211p::ofdm::DataRate;
/// use sim_core::{SimRng, SimTime};
///
/// let mut rng = SimRng::seed_from(7);
/// let channel = Channel::new(ChannelConfig::default());
/// let out = channel.transmit(
///     SimTime::ZERO,
///     Position2D::new(0.0, 0.0),
///     Position2D::new(5.0, 0.0), // 5 m apart in the lab
///     100,
///     DataRate::Mbps6,
///     &mut rng,
/// );
/// assert!(out.delivered, "5 m LoS link at 23 dBm is robust");
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
}

impl Channel {
    /// Creates a channel from a configuration.
    pub fn new(config: ChannelConfig) -> Self {
        Self { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Deterministic (pre-shadowing) path loss between two points, dB.
    pub fn path_loss_db(&self, tx: Position2D, rx: Position2D) -> f64 {
        let d = tx.distance(rx).max(1.0);
        let mut loss =
            self.config.reference_loss_db + 10.0 * self.config.path_loss_exponent * d.log10();
        for obs in &self.config.obstacles {
            if obs.blocks(tx, rx) {
                loss += obs.extra_loss_db;
            }
        }
        loss
    }

    /// Mean received power (before shadowing), dBm.
    pub fn mean_rx_power_dbm(&self, tx: Position2D, rx: Position2D) -> f64 {
        self.config.tx_power_dbm + self.config.antenna_gain_dbi - self.path_loss_db(tx, rx)
    }

    /// Frame error rate at a given SNR for a frame of `len_bytes` at
    /// `rate`.
    ///
    /// Per-bit error probability is approximated from the modulation's
    /// uncoded BER curve shifted by an effective convolutional-coding gain,
    /// then lifted to the frame level as `1 − (1 − BER)^bits`.
    pub fn frame_error_rate(&self, snr_db: f64, len_bytes: usize, rate: DataRate) -> f64 {
        let coding_gain_db = match rate.coding_rate() {
            (1, 2) => 5.0,
            (2, 3) => 4.0,
            _ => 3.5,
        };
        let eff_snr_db = snr_db + coding_gain_db;
        let snr = 10f64.powf(eff_snr_db / 10.0);
        // Es/N0 → Eb/N0 conversion uses bits per modulation symbol.
        let bits_per_sym = match rate.modulation() {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 2.0,
            Modulation::Qam16 => 4.0,
            Modulation::Qam64 => 6.0,
        };
        let ebn0 = (snr / bits_per_sym).max(1e-12);
        let ber = match rate.modulation() {
            Modulation::Bpsk | Modulation::Qpsk => q_function((2.0 * ebn0).sqrt()),
            Modulation::Qam16 => 0.75 * q_function((0.8 * ebn0).sqrt()),
            Modulation::Qam64 => (7.0 / 12.0) * q_function((ebn0 * 2.0 / 7.0).sqrt()),
        };
        let bits = (8 * len_bytes.max(1)) as f64;
        1.0 - (1.0 - ber.clamp(0.0, 0.5)).powf(bits)
    }

    /// The lowest SNR (dB) at which a frame of `len_bytes` at `rate`
    /// still has any plausible chance of decoding: below this floor the
    /// frame-error rate is at least `1 − CULL_EPS`.
    ///
    /// Found by bisecting the monotone [`Channel::frame_error_rate`]
    /// curve — a pure function of the channel configuration, so the
    /// value is identical on every host.
    pub fn delivery_floor_snr_db(&self, len_bytes: usize, rate: DataRate) -> f64 {
        // FER is monotone non-increasing in SNR: find the largest SNR
        // whose FER is still >= 1 - eps.
        let mut lo = -60.0f64; // FER ~ 1 here for every rate
        let mut hi = 80.0f64; // FER ~ 0 here for every rate
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.frame_error_rate(mid, len_bytes, rate) >= 1.0 - CULL_EPS {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The path-loss cutoff radius (metres) beyond which a receiver is
    /// implausible for a frame of `len_bytes` at `rate` and may be
    /// culled without drawing its shadowing/PER randomness.
    ///
    /// Derivation (DESIGN.md §13): a receiver at distance `d` sees mean
    /// SNR `tx + gain − PL(d) − noise`; log-normal shadowing exceeds
    /// `CULL_SHADOW_SIGMAS · σ` with probability ≤ `CULL_EPS`, and even
    /// at that shadowing the frame still dies (FER ≥ `1 − CULL_EPS`)
    /// once the mean SNR plus the margin is below
    /// [`Channel::delivery_floor_snr_db`]. Total delivery probability
    /// beyond the returned radius is therefore ≤ `2 · CULL_EPS` per
    /// frame. Obstacles only ever *add* loss, so ignoring them here is
    /// conservative. Returns infinity when the configuration cannot
    /// bound the radius (e.g. zero path-loss exponent).
    pub fn cutoff_radius_m(&self, len_bytes: usize, rate: DataRate) -> f64 {
        let floor = self.delivery_floor_snr_db(len_bytes, rate);
        let margin = CULL_SHADOW_SIGMAS * self.config.shadowing_sigma_db.max(0.0);
        // Cull when mean_snr + margin <= floor, i.e. path loss >=
        // tx + gain - noise + margin - floor.
        let required_loss = self.config.tx_power_dbm + self.config.antenna_gain_dbi
            - self.config.noise_floor_dbm
            + margin
            - floor;
        if self.config.path_loss_exponent <= 0.0 {
            return f64::INFINITY;
        }
        let exponent = (required_loss - self.config.reference_loss_db)
            / (10.0 * self.config.path_loss_exponent);
        // Path loss is floored at 1 m, so the radius is too.
        let d = 10f64.powf(exponent).max(1.0);
        if d.is_finite() {
            d
        } else {
            f64::INFINITY
        }
    }

    /// The largest SNR (dB) at which [`Channel::frame_error_rate`] is
    /// exactly 1.0 for a frame of `len_bytes` at `rate`, or −∞ if FER
    /// stays below 1.0 even at an SNR of −∞.
    ///
    /// Bisects the FER curve over the total order of `f64` bit patterns
    /// between −∞ and +∞: each step halves the interval of remaining
    /// floats, so 64 steps pin the boundary to adjacent floats, and the
    /// search needs no bracket constants.
    fn fer_saturation_boundary_db(&self, len_bytes: usize, rate: DataRate) -> f64 {
        let saturated = |snr_db: f64| self.frame_error_rate(snr_db, len_bytes, rate) >= 1.0;
        if !saturated(f64::NEG_INFINITY) {
            return f64::NEG_INFINITY;
        }
        // `lo` only ever holds an SNR where FER was found to be 1.0.
        let (mut lo, mut hi) = (order_key(f64::NEG_INFINITY), order_key(f64::INFINITY));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if saturated(from_order_key(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        from_order_key(lo)
    }

    /// The link constants of a frame of `len_bytes` at `rate`, for
    /// [`Channel::deliver`]: its airtime, and the SNR below which its
    /// FER is exactly 1.0 (DESIGN.md §13).
    pub fn frame_link(&self, len_bytes: usize, rate: DataRate) -> FrameLink {
        FrameLink {
            len_bytes,
            rate,
            airtime: airtime(len_bytes, rate),
            saturation_snr_db: self.fer_saturation_boundary_db(len_bytes, rate)
                - SATURATION_MARGIN_DB,
        }
    }

    /// Draws the shadowing of one frame from `tx` to `rx` and returns the
    /// SNR it sees, dB. The one SNR expression of `transmit` and
    /// `deliver`.
    fn draw_snr_db(&self, tx: Position2D, rx: Position2D, rng: &mut SimRng) -> f64 {
        // detlint:allow(R2) sigma is static channel config, constant for a whole run
        let shadow_db = if self.config.shadowing_sigma_db > 0.0 {
            rng.normal(0.0, self.config.shadowing_sigma_db)
        } else {
            0.0
        };
        let rx_power = self.mean_rx_power_dbm(tx, rx) + shadow_db;
        rx_power - self.config.noise_floor_dbm
    }

    /// Simulates one broadcast frame from `tx` as seen by `rx`.
    ///
    /// `start` is the instant the first bit hits the air (i.e. after MAC
    /// access). Arrival is `start + airtime + propagation`.
    pub fn transmit(
        &self,
        start: SimTime,
        tx: Position2D,
        rx: Position2D,
        len_bytes: usize,
        rate: DataRate,
        rng: &mut SimRng,
    ) -> TransmitOutcome {
        let snr_db = self.draw_snr_db(tx, rx, rng);
        let fer = self.frame_error_rate(snr_db, len_bytes, rate);
        let delivered = !rng.bernoulli(fer);
        let arrival = arrival_time(start, airtime(len_bytes, rate), tx, rx);
        TransmitOutcome {
            delivered,
            arrival,
            snr_db,
            fer,
        }
    }

    /// [`Channel::transmit`] for a caller that reads only whether the
    /// frame decoded and when: the arrival time if it did, `None` if not.
    ///
    /// `rng` is the receiver's own stream, taken by value: below
    /// `link`'s saturation SNR the frame error rate is exactly 1.0, so
    /// `transmit`'s Bernoulli draw (`f64() < 1.0`) fails every time, and
    /// `deliver` returns `None` without the FER math or that draw. No
    /// caller can observe the skipped draw. Propagation and arrival are
    /// computed only for delivered frames.
    pub fn deliver(
        &self,
        link: &FrameLink,
        start: SimTime,
        tx: Position2D,
        rx: Position2D,
        mut rng: SimRng,
    ) -> Option<SimTime> {
        let snr_db = self.draw_snr_db(tx, rx, &mut rng);
        // Strict, so a −∞ threshold skips nothing and a NaN SNR takes
        // the full path.
        if snr_db < link.saturation_snr_db {
            return None;
        }
        let fer = self.frame_error_rate(snr_db, link.len_bytes, link.rate);
        if rng.bernoulli(fer) {
            return None;
        }
        Some(arrival_time(start, link.airtime, tx, rx))
    }

    /// [`Channel::transmit`], unchanged; `_cache` is ignored.
    ///
    /// Kept, with [`LinkCache`], only because `perfbench` still names
    /// them; both go with the next change to `perfbench`.
    #[allow(clippy::too_many_arguments)] // mirrors `transmit` plus the cache
    pub fn transmit_cached(
        &self,
        start: SimTime,
        tx: Position2D,
        rx: Position2D,
        len_bytes: usize,
        rate: DataRate,
        rng: &mut SimRng,
        _cache: &mut LinkCache,
    ) -> TransmitOutcome {
        self.transmit(start, tx, rx, len_bytes, rate, rng)
    }
}

/// When the last bit of a frame that started at `start` reaches `rx`:
/// `start + airtime + propagation`.
fn arrival_time(start: SimTime, airtime: SimDuration, tx: Position2D, rx: Position2D) -> SimTime {
    start + airtime + SimDuration::from_secs_f64(tx.distance(rx) / C_M_PER_S)
}

/// Maps `x` to a key whose unsigned order is the total order of `f64`
/// (−NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN).
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// What remains of a removed FER/airtime memo: it never hit, because
/// shadowing gives every frame a fresh SNR (DESIGN.md §9 item 3).
///
/// Kept, with [`Channel::transmit_cached`], only because `perfbench`
/// still names them; all three go with the next change to `perfbench`.
#[derive(Debug, Clone, Default)]
pub struct LinkCache;

impl LinkCache {
    /// Creates the (empty) cache.
    pub fn new() -> Self {
        Self
    }

    /// Always 0: the cache stores nothing.
    pub fn fer_entries(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lab_channel() -> Channel {
        Channel::new(ChannelConfig::default())
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-6);
        assert!((q_function(1.0) - 0.1587).abs() < 1e-3);
        assert!((q_function(3.0) - 0.00135).abs() < 1e-4);
        assert!(q_function(-1.0) > 0.8);
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let ch = lab_channel();
        let o = Position2D::default();
        let l5 = ch.path_loss_db(o, Position2D::new(5.0, 0.0));
        let l50 = ch.path_loss_db(o, Position2D::new(50.0, 0.0));
        // n = 2 ⇒ +20 dB per decade.
        assert!((l50 - l5 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn path_loss_floors_at_one_metre() {
        let ch = lab_channel();
        let o = Position2D::default();
        let near = ch.path_loss_db(o, Position2D::new(0.1, 0.0));
        let one = ch.path_loss_db(o, Position2D::new(1.0, 0.0));
        assert_eq!(near, one);
    }

    #[test]
    fn obstacle_blocks_crossing_segment_only() {
        let obs = Obstacle {
            min: Position2D::new(4.0, -1.0),
            max: Position2D::new(6.0, 1.0),
            extra_loss_db: 20.0,
        };
        // Straight through.
        assert!(obs.blocks(Position2D::new(0.0, 0.0), Position2D::new(10.0, 0.0)));
        // Passing above.
        assert!(!obs.blocks(Position2D::new(0.0, 5.0), Position2D::new(10.0, 5.0)));
        // Fully inside counts as blocked.
        assert!(obs.blocks(Position2D::new(4.5, 0.0), Position2D::new(5.5, 0.0)));
        // Diagonal clip through a corner.
        assert!(obs.blocks(Position2D::new(3.0, -2.0), Position2D::new(7.0, 2.0)));
    }

    #[test]
    fn nlos_corner_adds_loss() {
        let mut cfg = ChannelConfig::default();
        cfg.obstacles.push(Obstacle {
            min: Position2D::new(2.0, 2.0),
            max: Position2D::new(8.0, 8.0),
            extra_loss_db: 25.0,
        });
        let ch = Channel::new(cfg);
        let a = Position2D::new(0.0, 5.0);
        let b = Position2D::new(10.0, 5.0);
        let lab = Channel::new(ChannelConfig::default());
        assert!((ch.path_loss_db(a, b) - lab.path_loss_db(a, b) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fer_decreases_with_snr() {
        let ch = lab_channel();
        let f_low = ch.frame_error_rate(2.0, 100, DataRate::Mbps6);
        let f_mid = ch.frame_error_rate(8.0, 100, DataRate::Mbps6);
        let f_high = ch.frame_error_rate(25.0, 100, DataRate::Mbps6);
        assert!(f_low > f_mid && f_mid > f_high, "{f_low} {f_mid} {f_high}");
        assert!(f_high < 1e-6);
    }

    #[test]
    fn fer_increases_with_frame_length_and_rate() {
        let ch = lab_channel();
        let snr = 12.0;
        assert!(
            ch.frame_error_rate(snr, 1000, DataRate::Mbps6)
                > ch.frame_error_rate(snr, 50, DataRate::Mbps6)
        );
        assert!(
            ch.frame_error_rate(snr, 100, DataRate::Mbps27)
                > ch.frame_error_rate(snr, 100, DataRate::Mbps6)
        );
    }

    #[test]
    fn lab_scale_link_is_reliable() {
        // The paper's lab is a few metres across; delivery should be
        // essentially lossless there.
        let ch = lab_channel();
        let mut rng = SimRng::seed_from(42);
        let delivered = (0..1000)
            .filter(|_| {
                ch.transmit(
                    SimTime::ZERO,
                    Position2D::new(0.0, 0.0),
                    Position2D::new(4.0, 2.0),
                    120,
                    DataRate::Mbps6,
                    &mut rng,
                )
                .delivered
            })
            .count();
        assert!(delivered >= 999, "delivered {delivered}/1000");
    }

    #[test]
    fn heavily_obstructed_long_link_drops_frames() {
        let mut cfg = ChannelConfig::default();
        cfg.obstacles.push(Obstacle {
            min: Position2D::new(10.0, -50.0),
            max: Position2D::new(20.0, 50.0),
            extra_loss_db: 60.0,
        });
        let ch = Channel::new(cfg);
        let mut rng = SimRng::seed_from(43);
        let delivered = (0..500)
            .filter(|_| {
                ch.transmit(
                    SimTime::ZERO,
                    Position2D::new(0.0, 0.0),
                    Position2D::new(400.0, 0.0),
                    400,
                    DataRate::Mbps6,
                    &mut rng,
                )
                .delivered
            })
            .count();
        assert!(delivered < 400, "delivered {delivered}/500");
    }

    #[test]
    fn arrival_includes_airtime_and_propagation() {
        let ch = Channel::new(ChannelConfig {
            shadowing_sigma_db: 0.0,
            ..ChannelConfig::default()
        });
        let mut rng = SimRng::seed_from(1);
        let out = ch.transmit(
            SimTime::from_millis(1),
            Position2D::new(0.0, 0.0),
            Position2D::new(300.0, 0.0),
            100,
            DataRate::Mbps6,
            &mut rng,
        );
        let airtime_us = 32 + 8 + 144;
        let prop_ns = (300.0 / C_M_PER_S * 1e9).round() as u64; // ≈ 1 µs
        assert_eq!(
            out.arrival.as_nanos(),
            1_000_000 + airtime_us * 1_000 + prop_ns
        );
    }

    #[test]
    fn delivery_floor_is_a_floor() {
        let ch = lab_channel();
        for rate in [DataRate::Mbps6, DataRate::Mbps12, DataRate::Mbps27] {
            let floor = ch.delivery_floor_snr_db(100, rate);
            assert!(
                ch.frame_error_rate(floor, 100, rate) >= 1.0 - CULL_EPS,
                "{rate:?}"
            );
            assert!(
                ch.frame_error_rate(floor + 0.01, 100, rate) < 1.0 - CULL_EPS,
                "{rate:?} floor not tight"
            );
        }
    }

    #[test]
    fn cutoff_radius_bounds_delivery() {
        // An urban-profile channel (the city scenario's configuration
        // family): beyond the cutoff the mean SNR plus the full
        // shadowing margin still cannot decode the frame.
        let ch = Channel::new(ChannelConfig {
            tx_power_dbm: 10.0,
            path_loss_exponent: 3.2,
            ..ChannelConfig::default()
        });
        let r = ch.cutoff_radius_m(100, DataRate::Mbps6);
        assert!(r.is_finite() && r > 10.0, "cutoff {r}");
        let margin = CULL_SHADOW_SIGMAS * ch.config().shadowing_sigma_db;
        let tx = Position2D::default();
        for d in [r * 1.0001, r * 1.5, r * 10.0] {
            let snr_best = ch.mean_rx_power_dbm(tx, Position2D::new(d, 0.0)) + margin
                - ch.config().noise_floor_dbm;
            assert!(
                ch.frame_error_rate(snr_best, 100, DataRate::Mbps6) >= 1.0 - CULL_EPS,
                "a receiver at {d} m (cutoff {r}) could still decode"
            );
        }
        // Just inside the cutoff the same bound must NOT hold — the
        // radius is tight, not merely safe.
        let snr_inside = ch.mean_rx_power_dbm(tx, Position2D::new(r * 0.999, 0.0)) + margin
            - ch.config().noise_floor_dbm;
        assert!(ch.frame_error_rate(snr_inside, 100, DataRate::Mbps6) < 1.0 - CULL_EPS);
    }

    #[test]
    fn cutoff_radius_grows_with_tx_power_and_shrinks_with_exponent() {
        let base = ChannelConfig {
            tx_power_dbm: 10.0,
            path_loss_exponent: 3.2,
            ..ChannelConfig::default()
        };
        let r0 = Channel::new(base.clone()).cutoff_radius_m(100, DataRate::Mbps6);
        let louder = Channel::new(ChannelConfig {
            tx_power_dbm: 20.0,
            ..base.clone()
        })
        .cutoff_radius_m(100, DataRate::Mbps6);
        let denser = Channel::new(ChannelConfig {
            path_loss_exponent: 4.0,
            ..base
        })
        .cutoff_radius_m(100, DataRate::Mbps6);
        assert!(louder > r0, "{louder} vs {r0}");
        assert!(denser < r0, "{denser} vs {r0}");
    }

    /// The lab-default and the city's urban configuration (10 dBm,
    /// path-loss exponent 3.2).
    fn lab_and_urban() -> [Channel; 2] {
        [
            lab_channel(),
            Channel::new(ChannelConfig {
                tx_power_dbm: 10.0,
                path_loss_exponent: 3.2,
                ..ChannelConfig::default()
            }),
        ]
    }

    #[test]
    fn order_key_follows_the_float_order() {
        let xs = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for pair in xs.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
        }
        for x in xs {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
        assert_eq!(order_key(-0.0) + 1, order_key(0.0));
        assert_eq!(order_key(1.0) + 1, order_key(1.0f64.next_up()));
    }

    #[test]
    fn saturation_threshold_is_sound() {
        for ch in lab_and_urban() {
            for rate in DataRate::ALL {
                for len in [1usize, 6, 7, 50, 100, 120, 1500] {
                    let t = ch.frame_link(len, rate).saturation_snr_db;
                    let fer = |snr: f64| ch.frame_error_rate(snr, len, rate);
                    // At −400 dB the Eb/N0 floor holds BER at its cap, so
                    // FER is as large as it gets: the frame can saturate
                    // exactly when FER is 1.0 there.
                    if fer(-400.0) < 1.0 {
                        assert_eq!(t, f64::NEG_INFINITY, "{rate} {len} B");
                        let mut snr = -400.0;
                        while snr < 100.0 {
                            assert!(fer(snr) < 1.0, "{rate} {len} B at {snr} dB");
                            snr += 0.25;
                        }
                        continue;
                    }
                    assert!(t.is_finite(), "{rate} {len} B: threshold {t}");
                    // Dense sweep from −400 dB up to the threshold: coarse
                    // far below it, 0.001 dB over its last 5 dB.
                    let mut snr = -400.0;
                    while snr < t {
                        assert_eq!(fer(snr), 1.0, "{rate} {len} B at {snr} dB (threshold {t})");
                        snr += if snr < t - 5.0 { 0.5 } else { 0.001 };
                    }
                    // The threshold and every float within 2^16 ulps below it.
                    let mut x = t;
                    for _ in 0..=1 << 16 {
                        assert_eq!(fer(x), 1.0, "{rate} {len} B at {x:e} dB (threshold {t})");
                        x = x.next_down();
                    }
                    // Tight: just past the margin FER is below 1.0.
                    let past = t + SATURATION_MARGIN_DB + 1e-6;
                    assert!(fer(past) < 1.0, "{rate} {len} B: not tight at {past} dB");
                }
            }
        }
    }

    #[test]
    fn threshold_is_minus_infinity_exactly_for_frames_too_short_to_saturate() {
        // 1 − y rounds to 1.0 only when y ≤ 2^-54. At the Eb/N0 floor
        // BER sits at its cap c, so a frame of b bits can saturate iff
        // (1 − c)^b ≤ 2^-54: c = 0.5 (BPSK, QPSK) needs b ≥ 54, i.e.
        // 7 bytes; c = 0.375 (16-QAM) needs b ≥ 80, 10 bytes; c = 7/24
        // (64-QAM) needs b ≥ 109, 14 bytes.
        for ch in lab_and_urban() {
            for rate in DataRate::ALL {
                let shortest = match rate.modulation() {
                    Modulation::Bpsk | Modulation::Qpsk => 7,
                    Modulation::Qam16 => 10,
                    Modulation::Qam64 => 14,
                };
                for len in 0..=shortest + 2 {
                    let t = ch.frame_link(len, rate).saturation_snr_db;
                    if len < shortest {
                        assert_eq!(t, f64::NEG_INFINITY, "{rate} {len} B");
                    } else {
                        assert!(t.is_finite(), "{rate} {len} B: threshold {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn frame_link_carries_the_airtime() {
        for rate in DataRate::ALL {
            for len in [0usize, 1, 100, 1500] {
                let link = lab_channel().frame_link(len, rate);
                assert_eq!(link.airtime(), airtime(len, rate));
            }
        }
    }

    #[test]
    fn deliver_skips_nothing_when_fer_cannot_saturate() {
        // A 1-byte frame has a −∞ threshold: even at an SNR of −∞ (an
        // infinitely lossy obstacle) BER stays just under 0.5, FER just
        // under 1 − 2^-8, and about one frame in 256 decodes. `deliver`
        // must run the FER math and the draw there too.
        let ch = Channel::new(ChannelConfig {
            shadowing_sigma_db: 0.0,
            obstacles: vec![Obstacle {
                min: Position2D::new(1.0, -1.0),
                max: Position2D::new(2.0, 1.0),
                extra_loss_db: f64::INFINITY,
            }],
            ..ChannelConfig::default()
        });
        let link = ch.frame_link(1, DataRate::Mbps6);
        assert_eq!(link.saturation_snr_db, f64::NEG_INFINITY);
        let (tx, rx) = (Position2D::new(0.0, 0.0), Position2D::new(3.0, 0.0));
        let delivered = (0..4000u64)
            .filter(|&k| {
                let mut rng = SimRng::seed_from(k);
                let out = ch.transmit(SimTime::ZERO, tx, rx, 1, DataRate::Mbps6, &mut rng);
                assert_eq!(out.snr_db, f64::NEG_INFINITY);
                let got = ch.deliver(&link, SimTime::ZERO, tx, rx, SimRng::seed_from(k));
                assert_eq!(got, out.delivered.then_some(out.arrival), "stream {k}");
                got.is_some()
            })
            .count();
        assert!((5..=40).contains(&delivered), "{delivered} of 4000 decoded");
    }

    proptest! {
        #[test]
        fn deliver_matches_transmit(
            seed in any::<u64>(),
            len in 1usize..=2000,
            rate_idx in 0usize..8,
            sigma_idx in 0usize..3,
            urban in any::<bool>(),
            obstacle in any::<bool>(),
            heading in 0.0f64..std::f64::consts::TAU,
            start_ns in 0u64..10_000_000_000,
        ) {
            // 256 receivers per case: one at the transmitter, the rest
            // log-spaced from 1 cm to 30 km, so every case crosses the
            // sub-metre path-loss floor, the saturation threshold and
            // the culling cutoff (142 m urban, ~12 km lab).
            let mut config = ChannelConfig {
                shadowing_sigma_db: [0.0, 3.0, 6.0][sigma_idx],
                ..ChannelConfig::default()
            };
            if urban {
                config.tx_power_dbm = 10.0;
                config.path_loss_exponent = 3.2;
            }
            if obstacle {
                // A wall across the x axis at 5–6 m.
                config.obstacles.push(Obstacle {
                    min: Position2D::new(5.0, -1e5),
                    max: Position2D::new(6.0, 1e5),
                    extra_loss_db: 20.0,
                });
            }
            let ch = Channel::new(config);
            let rate = DataRate::ALL[rate_idx];
            let link = ch.frame_link(len, rate);
            let start = SimTime::from_nanos(start_ns);
            let tx = Position2D::new(0.0, 0.0);
            let root = SimRng::seed_from(seed);
            for k in 0..256u64 {
                let d = if k == 0 { 0.0 } else { 10f64.powf(-2.0 + 6.5 * (k - 1) as f64 / 254.0) };
                let rx = Position2D::new(d * heading.cos(), d * heading.sin());
                let mut rng = root.fork_u64(k);
                let want = ch.transmit(start, tx, rx, len, rate, &mut rng);
                let got = ch.deliver(&link, start, tx, rx, root.fork_u64(k));
                prop_assert_eq!(got, want.delivered.then_some(want.arrival), "receiver {} at {} m", k, d);
            }
        }

        #[test]
        fn fer_is_probability(snr in -20.0f64..50.0, len in 1usize..2000) {
            let ch = lab_channel();
            for rate in DataRate::ALL {
                let f = ch.frame_error_rate(snr, len, rate);
                prop_assert!((0.0..=1.0).contains(&f), "fer {f}");
            }
        }

        #[test]
        fn transmit_cached_matches_transmit_exactly(
            seed in 0u64..1000,
            dist in 0.5f64..400.0,
            len in 1usize..1500,
            rate_idx in 0usize..8,
            sigma in 0.0f64..6.0,
        ) {
            // Same seed, same frames: the `transmit_cached` shim produces
            // bit-identical outcomes AND leaves the RNG in the same
            // state as `transmit` (the shim's whole contract).
            let ch = Channel::new(ChannelConfig {
                shadowing_sigma_db: sigma,
                ..ChannelConfig::default()
            });
            let rate = DataRate::ALL[rate_idx];
            let tx = Position2D::new(0.0, 0.0);
            let rx = Position2D::new(dist, 0.0);
            let mut rng_a = SimRng::seed_from(seed);
            let mut rng_b = SimRng::seed_from(seed);
            let mut cache = LinkCache::new();
            for _ in 0..4 {
                let plain = ch.transmit(SimTime::ZERO, tx, rx, len, rate, &mut rng_a);
                let cached =
                    ch.transmit_cached(SimTime::ZERO, tx, rx, len, rate, &mut rng_b, &mut cache);
                prop_assert_eq!(plain.delivered, cached.delivered);
                prop_assert_eq!(plain.arrival, cached.arrival);
                prop_assert_eq!(plain.snr_db.to_bits(), cached.snr_db.to_bits());
                prop_assert_eq!(plain.fer.to_bits(), cached.fer.to_bits());
            }
            prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
        }

        #[test]
        fn blocks_is_symmetric(ax in -10.0f64..10.0, ay in -10.0f64..10.0,
                               bx in -10.0f64..10.0, by in -10.0f64..10.0) {
            let obs = Obstacle {
                min: Position2D::new(-2.0, -2.0),
                max: Position2D::new(2.0, 2.0),
                extra_loss_db: 10.0,
            };
            let a = Position2D::new(ax, ay);
            let b = Position2D::new(bx, by);
            prop_assert_eq!(obs.blocks(a, b), obs.blocks(b, a));
        }
    }
}
