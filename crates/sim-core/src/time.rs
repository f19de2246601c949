//! Simulated time: instants and durations with nanosecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated timeline, in nanoseconds from simulation
/// start.
///
/// # Example
///
/// ```
/// use sim_core::{SimDuration, SimTime};
/// let t = SimTime::from_millis(5) + SimDuration::from_micros(250);
/// assert_eq!(t.as_nanos(), 5_250_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as a "run until idle" bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates an instant from microseconds since simulation start.
    // detlint:allow(U1) openc2x's node tests and phy80211p's EDCA tests build µs instants
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    // detlint:allow(U1) phy80211p's EDCA tests and example read µs instants
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start.
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (a scheduling bug).
    pub fn duration_since(&self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant ({} > {})",
            earlier,
            self
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Duration since `earlier`, or zero if `earlier` is in the future.
    pub fn saturating_duration_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use sim_core::SimDuration;
/// let d = SimDuration::from_millis(2) * 3;
/// assert_eq!(d.as_millis(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        Self((s.max(0.0) * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Whole microseconds in this duration.
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds in this duration.
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this duration is zero.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}µs", self.0 as f64 / 1e3)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(1).as_millis(), 1000);
        assert_eq!(SimTime::from_millis(1).as_micros(), 1000);
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1000);
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_micros(), 1500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - SimTime::from_millis(10)).as_millis(), 5);
        let mut u = SimTime::ZERO;
        u += SimDuration::from_micros(7);
        assert_eq!(u.as_micros(), 7);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_backwards() {
        let _ = SimTime::from_millis(1).duration_since(SimTime::from_millis(2));
    }

    #[test]
    fn saturating_duration() {
        let d = SimTime::from_millis(1).saturating_duration_since(SimTime::from_millis(2));
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_micros(40).to_string(), "40µs");
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn duration_scaling() {
        assert_eq!((SimDuration::from_millis(4) / 2).as_millis(), 2);
        assert_eq!((SimDuration::from_millis(4) * 3).as_millis(), 12);
        assert_eq!(
            SimDuration::from_millis(4) - SimDuration::from_millis(6),
            SimDuration::ZERO
        );
    }

    proptest! {
        #[test]
        fn ordering_consistent_with_nanos(a in any::<u64>(), b in any::<u64>()) {
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        }

        #[test]
        fn add_then_subtract_roundtrips(base in 0u64..1 << 60, d in 0u64..1 << 30) {
            let t = SimTime::from_nanos(base) + SimDuration::from_nanos(d);
            prop_assert_eq!(t.duration_since(SimTime::from_nanos(base)).as_nanos(), d);
        }
    }
}
