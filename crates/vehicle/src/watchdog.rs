//! V2X heartbeat watchdog and fail-safe degradation ladder.
//!
//! The testbed's safety argument leans on the network: the vehicle only
//! brakes for a hazard if a DENM reaches it. A silent radio therefore
//! turns a network fault into a physical hazard. This module adds the
//! classic fail-operational counter-measure: the vehicle supervises the
//! *liveness* of the V2X link (CAM/DENM receptions act as heartbeats) and
//! degrades gracefully when the link goes quiet — first capping speed,
//! then commanding a controlled stop — and recovers to nominal operation
//! once messages resume.
//!
//! The watchdog is pure sim-time arithmetic: it draws no randomness and
//! performs no I/O, so enabling it keeps runs bitwise reproducible.

use sim_core::{SimDuration, SimTime};

/// Degradation ladder the planner honours, from healthy to stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegradationLevel {
    /// V2X link live: normal line-following at cruise throttle.
    #[default]
    Nominal,
    /// Heartbeats stale past the first deadline: throttle capped.
    SpeedCap,
    /// Heartbeats stale past the second deadline: controlled stop.
    ControlledStop,
}

/// Deadlines of a [`V2xWatchdog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Deadline 1: heartbeat age beyond which speed is capped.
    pub stale_after: SimDuration,
    /// Deadline 2: heartbeat age beyond which the vehicle executes a
    /// controlled stop. Must be at least `stale_after`.
    pub stop_after: SimDuration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            stale_after: SimDuration::from_millis(400),
            stop_after: SimDuration::from_millis(1200),
        }
    }
}

/// Expected heartbeat cadence: the RSU (or the platoon leader) beacons
/// a CAM this often when the vehicle runs a watchdog.
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Throttle multiplier applied in [`DegradationLevel::SpeedCap`].
pub const FAILSAFE_THROTTLE_SCALE: f64 = 0.5;

/// Counters of watchdog state transitions over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogTrips {
    /// Transitions from nominal into the speed-cap level.
    pub speed_caps: u64,
    /// Transitions into the controlled-stop level.
    pub stops: u64,
    /// Recoveries back to nominal after any degradation.
    pub recoveries: u64,
}

/// Supervises V2X liveness and decides the current degradation level.
///
/// Feed every successfully decoded CAM/DENM reception into
/// [`heartbeat`](Self::heartbeat); call [`assess`](Self::assess) each
/// control period to obtain the level the planner must honour.
///
/// # Example
///
/// ```
/// use sim_core::SimTime;
/// use vehicle::watchdog::{DegradationLevel, V2xWatchdog, WatchdogConfig};
///
/// let mut wd = V2xWatchdog::new(WatchdogConfig::default());
/// wd.heartbeat(SimTime::from_millis(100));
/// assert_eq!(wd.assess(SimTime::from_millis(200)), DegradationLevel::Nominal);
/// // Radio goes silent: past deadline 1 the speed is capped…
/// assert_eq!(wd.assess(SimTime::from_millis(600)), DegradationLevel::SpeedCap);
/// // …and past deadline 2 the vehicle executes a controlled stop.
/// assert_eq!(
///     wd.assess(SimTime::from_millis(1400)),
///     DegradationLevel::ControlledStop
/// );
/// // Messages resume: back to nominal.
/// wd.heartbeat(SimTime::from_millis(1450));
/// assert_eq!(wd.assess(SimTime::from_millis(1460)), DegradationLevel::Nominal);
/// assert_eq!(wd.trips().recoveries, 1);
/// ```
#[derive(Debug, Clone)]
pub struct V2xWatchdog {
    config: WatchdogConfig,
    last_heartbeat: SimTime,
    level: DegradationLevel,
    trips: WatchdogTrips,
}

impl V2xWatchdog {
    /// Creates a watchdog; the run start counts as the initial heartbeat
    /// so a vehicle never starts degraded.
    pub fn new(config: WatchdogConfig) -> Self {
        Self {
            config,
            last_heartbeat: SimTime::ZERO,
            level: DegradationLevel::Nominal,
            trips: WatchdogTrips::default(),
        }
    }

    /// Records a successful V2X reception at `now`.
    pub fn heartbeat(&mut self, now: SimTime) {
        if now > self.last_heartbeat {
            self.last_heartbeat = now;
        }
    }

    /// The level decided by the most recent [`assess`](Self::assess).
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Transition counters accumulated so far.
    pub fn trips(&self) -> WatchdogTrips {
        self.trips
    }

    /// Re-evaluates heartbeat age at `now` and returns the (possibly
    /// new) degradation level, counting transitions.
    pub fn assess(&mut self, now: SimTime) -> DegradationLevel {
        let age = now.saturating_duration_since(self.last_heartbeat);
        let next = if age >= self.config.stop_after {
            DegradationLevel::ControlledStop
        } else if age >= self.config.stale_after {
            DegradationLevel::SpeedCap
        } else {
            DegradationLevel::Nominal
        };
        if next != self.level {
            match next {
                DegradationLevel::SpeedCap => {
                    if self.level == DegradationLevel::Nominal {
                        self.trips.speed_caps += 1;
                    }
                }
                DegradationLevel::ControlledStop => self.trips.stops += 1,
                DegradationLevel::Nominal => self.trips.recoveries += 1,
            }
            self.level = next;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn nominal_while_heartbeats_fresh() {
        let mut wd = V2xWatchdog::new(WatchdogConfig::default());
        for step in 0..20u64 {
            let now = t(step * 100);
            wd.heartbeat(now);
            assert_eq!(
                wd.assess(now + SimDuration::from_millis(20)),
                DegradationLevel::Nominal
            );
        }
        assert_eq!(wd.trips(), WatchdogTrips::default());
    }

    #[test]
    fn degrades_through_both_deadlines_and_counts_once() {
        let mut wd = V2xWatchdog::new(WatchdogConfig::default());
        wd.heartbeat(t(100));
        // Sweep time forward in 20 ms control periods with a silent radio.
        for step in 0..100u64 {
            wd.assess(t(100 + step * 20));
        }
        assert_eq!(wd.level(), DegradationLevel::ControlledStop);
        let trips = wd.trips();
        assert_eq!(trips.speed_caps, 1, "speed cap tripped exactly once");
        assert_eq!(trips.stops, 1, "stop tripped exactly once");
        assert_eq!(trips.recoveries, 0);
    }

    #[test]
    fn recovery_restores_nominal_and_is_counted() {
        let mut wd = V2xWatchdog::new(WatchdogConfig::default());
        wd.heartbeat(t(0));
        wd.assess(t(2000));
        assert_eq!(wd.level(), DegradationLevel::ControlledStop);
        wd.heartbeat(t(2100));
        assert_eq!(wd.assess(t(2110)), DegradationLevel::Nominal);
        assert_eq!(wd.trips().recoveries, 1);
    }

    #[test]
    fn stale_heartbeat_does_not_rewind_clock() {
        let mut wd = V2xWatchdog::new(WatchdogConfig::default());
        wd.heartbeat(t(500));
        wd.heartbeat(t(300)); // out-of-order delivery must not rewind
        assert_eq!(wd.assess(t(850)), DegradationLevel::Nominal);
        assert_eq!(wd.assess(t(950)), DegradationLevel::SpeedCap);
    }

    #[test]
    fn boundary_is_inclusive_at_deadlines() {
        let cfg = WatchdogConfig::default();
        let mut wd = V2xWatchdog::new(cfg);
        wd.heartbeat(t(0));
        assert_eq!(wd.assess(t(399)), DegradationLevel::Nominal);
        assert_eq!(wd.assess(t(400)), DegradationLevel::SpeedCap);
        assert_eq!(wd.assess(t(1199)), DegradationLevel::SpeedCap);
        assert_eq!(wd.assess(t(1200)), DegradationLevel::ControlledStop);
    }
}
