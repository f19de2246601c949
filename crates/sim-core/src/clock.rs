//! Per-node wall clocks with NTP-style synchronisation error.
//!
//! The paper's four hosts (edge node, RSU, OBU, vehicle ECU) are
//! synchronised with NTP and log integer-millisecond timestamps; per-step
//! intervals in Table II therefore include residual clock offset and
//! quantisation. [`NodeClock`] reproduces both: each node's wall clock is
//! the true simulation time plus a bounded offset (drawn from an
//! [`NtpModel`]) and a slow drift, quantised to milliseconds on read.

use crate::rng::SimRng;
use crate::time::SimTime;

/// Distribution of NTP residual synchronisation error across nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NtpModel {
    /// Standard deviation of the per-node constant offset, in microseconds.
    /// LAN NTP typically achieves sub-millisecond sync; 300 µs is a
    /// realistic residual.
    pub offset_std_us: f64,
    /// Maximum absolute offset in microseconds (truncation bound).
    pub offset_cap_us: f64,
    /// Clock drift standard deviation in parts-per-million.
    pub drift_std_ppm: f64,
}

impl Default for NtpModel {
    fn default() -> Self {
        Self {
            offset_std_us: 300.0,
            offset_cap_us: 1_500.0,
            drift_std_ppm: 5.0,
        }
    }
}

impl NtpModel {
    /// A perfectly synchronised model (zero offset and drift), useful in
    /// unit tests.
    // detlint:allow(U1) drift-free clocks for the stack, HTTP and failure-injection integration tests
    pub fn perfect() -> Self {
        Self {
            offset_std_us: 0.0,
            offset_cap_us: 0.0,
            drift_std_ppm: 0.0,
        }
    }
}

/// A single node's wall clock.
///
/// # Example
///
/// ```
/// use sim_core::{NodeClock, NtpModel, SimRng, SimTime};
///
/// let mut rng = SimRng::seed_from(1);
/// let clock = NodeClock::sample(&NtpModel::default(), &mut rng, 0);
/// let wall = clock.wall_millis(SimTime::from_secs(1));
/// // Within a couple of ms of true time.
/// assert!((wall as i64 - 1000).abs() <= 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeClock {
    /// Constant offset from true time, nanoseconds (positive = fast).
    offset_ns: i64,
    /// Fractional drift rate (e.g. 1e-6 = 1 ppm fast).
    drift: f64,
    /// Wall-clock epoch: what this node reports at simulation time zero,
    /// in milliseconds (e.g. milliseconds since the ITS epoch).
    epoch_ms: u64,
}

impl NodeClock {
    /// A perfect clock with the given epoch.
    // detlint:allow(U1) drift-free clocks for the stack, HTTP and failure-injection integration tests
    pub fn perfect(epoch_ms: u64) -> Self {
        Self {
            offset_ns: 0,
            drift: 0.0,
            epoch_ms,
        }
    }

    /// Samples a clock from an [`NtpModel`].
    pub fn sample(model: &NtpModel, rng: &mut SimRng, epoch_ms: u64) -> Self {
        let raw_us = rng.normal(0.0, model.offset_std_us);
        let offset_us = raw_us.clamp(-model.offset_cap_us, model.offset_cap_us);
        let drift = rng.normal(0.0, model.drift_std_ppm) * 1e-6;
        Self {
            offset_ns: (offset_us * 1_000.0) as i64,
            drift,
            epoch_ms,
        }
    }

    /// The constant offset of this clock in nanoseconds.
    pub fn offset_ns(&self) -> i64 {
        self.offset_ns
    }

    /// This node's wall-clock reading at simulation instant `now`, in
    /// nanoseconds past the epoch (not quantised).
    pub fn wall_nanos(&self, now: SimTime) -> i64 {
        let true_ns = now.as_nanos() as i64;
        let drift_ns = (true_ns as f64 * self.drift) as i64;
        self.epoch_ms as i64 * 1_000_000 + true_ns + self.offset_ns + drift_ns
    }

    /// This node's wall-clock reading in whole milliseconds — what the
    /// testbed's log statements record.
    pub fn wall_millis(&self, now: SimTime) -> u64 {
        (self.wall_nanos(now).max(0) as u64) / 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_reports_true_time() {
        let c = NodeClock::perfect(0);
        assert_eq!(c.wall_millis(SimTime::from_millis(1234)), 1234);
        assert_eq!(c.offset_ns(), 0);
    }

    #[test]
    fn epoch_shifts_reading() {
        let c = NodeClock::perfect(1_000_000);
        assert_eq!(c.wall_millis(SimTime::from_millis(5)), 1_000_005);
    }

    #[test]
    fn sampled_offsets_bounded_by_cap() {
        let model = NtpModel {
            offset_std_us: 10_000.0, // huge, so the cap binds
            offset_cap_us: 1_500.0,
            drift_std_ppm: 0.0,
        };
        let mut rng = SimRng::seed_from(2);
        for _ in 0..100 {
            let c = NodeClock::sample(&model, &mut rng, 0);
            assert!(c.offset_ns().abs() <= 1_500_000);
        }
    }

    #[test]
    fn quantisation_floors_to_millisecond() {
        let c = NodeClock::perfect(0);
        assert_eq!(c.wall_millis(SimTime::from_micros(1_999)), 1);
        assert_eq!(c.wall_millis(SimTime::from_micros(2_000)), 2);
    }

    #[test]
    fn two_sampled_clocks_disagree_slightly() {
        let model = NtpModel::default();
        let mut rng = SimRng::seed_from(3);
        let a = NodeClock::sample(&model, &mut rng, 0);
        let b = NodeClock::sample(&model, &mut rng, 0);
        let t = SimTime::from_secs(10);
        let diff_ns = (a.wall_nanos(t) - b.wall_nanos(t)).abs();
        assert!(diff_ns > 0, "clocks should differ");
        // Offsets capped at 1.5 ms each, drift 5 ppm over 10 s is 50 µs.
        assert!(diff_ns < 3_200_000, "diff {diff_ns} ns");
    }

    #[test]
    fn drift_accumulates_over_time() {
        let model = NtpModel {
            offset_std_us: 0.0,
            offset_cap_us: 0.0,
            drift_std_ppm: 100.0,
        };
        let mut rng = SimRng::seed_from(4);
        let c = NodeClock::sample(&model, &mut rng, 0);
        let early = c.wall_nanos(SimTime::from_secs(1)) - 1_000_000_000;
        let late = c.wall_nanos(SimTime::from_secs(100)) - 100_000_000_000;
        assert!(late.abs() > early.abs(), "drift grows: {early} vs {late}");
    }

    #[test]
    fn negative_wall_time_clamps_to_zero() {
        let model = NtpModel {
            offset_std_us: 10_000.0,
            offset_cap_us: 10_000.0,
            drift_std_ppm: 0.0,
        };
        let mut rng = SimRng::seed_from(5);
        // Find a clock with negative offset and read it at t=0.
        for _ in 0..50 {
            let c = NodeClock::sample(&model, &mut rng, 0);
            if c.offset_ns() < 0 {
                assert_eq!(c.wall_millis(SimTime::ZERO), 0);
                return;
            }
        }
        panic!("no negative-offset clock sampled");
    }
}
