//! Cooperative Awareness basic service (ETSI EN 302 637-2).
//!
//! CAMs are generated with *variable periodicity* (paper §II-B): a new CAM
//! is due when the station's dynamics changed noticeably since the last
//! one — heading by more than 4°, position by more than 4 m, or speed by
//! more than 0.5 m/s — but never more often than `T_GenCamMin` (100 ms),
//! and at least every `T_GenCamMax` (1000 ms). After a dynamics-triggered
//! CAM, the adaptive period `T_GenCam` latches to the observed interval
//! for `N_GenCam` = 3 generations before relaxing back to the maximum.

use its_messages::cam::{Cam, LowFrequencyContainer, VehicleRole};
use its_messages::common::{
    DeltaReferencePosition, Heading, PathHistory, PathPoint, ReferencePosition, Speed, StationId,
    StationType,
};
use sim_core::{SimDuration, SimTime};

/// Kinematic state of the originating station, as sampled from its
/// positioning and odometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationState {
    /// Current position.
    pub position: ReferencePosition,
    /// Heading in degrees from North.
    pub heading_deg: f64,
    /// Speed over ground in m/s.
    pub speed_mps: f64,
}

/// Minimum generation interval (`T_GenCamMin`).
const T_GEN_CAM_MIN: SimDuration = SimDuration::from_millis(100);
/// Maximum generation interval (`T_GenCamMax`).
const T_GEN_CAM_MAX: SimDuration = SimDuration::from_millis(1000);
/// Heading-change trigger threshold, degrees.
const HEADING_DELTA_DEG: f64 = 4.0;
/// Position-change trigger threshold, metres.
const POSITION_DELTA_M: f64 = 4.0;
/// Speed-change trigger threshold, m/s.
const SPEED_DELTA_MPS: f64 = 0.5;
/// Number of consecutive CAMs generated at the latched `T_GenCam`
/// before relaxing (`N_GenCam`).
const N_GEN_CAM: u32 = 3;
/// A low-frequency container (with the path history) rides on every
/// n-th CAM (EN 302 637-2: at least every 500 ms).
const LF_EVERY_N: u32 = 2;

/// The CA basic service of one ITS station.
///
/// # Example
///
/// ```
/// use facilities::ca::{CaService, StationState};
/// use its_messages::common::{ReferencePosition, StationId, StationType};
/// use sim_core::SimTime;
///
/// let mut ca = CaService::new(StationId::new(7).unwrap(), StationType::PassengerCar);
/// let state = StationState {
///     position: ReferencePosition::from_degrees(41.178, -8.608),
///     heading_deg: 90.0,
///     speed_mps: 1.5,
/// };
/// // First poll always produces a CAM.
/// assert!(ca.poll(SimTime::ZERO, &state).is_some());
/// // Immediately after, none is due.
/// assert!(ca.poll(SimTime::from_millis(10), &state).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CaService {
    station_id: StationId,
    station_type: StationType,
    /// State captured at the last generated CAM.
    last: Option<(SimTime, StationState)>,
    /// Currently latched adaptive period.
    t_gen_cam: SimDuration,
    /// CAMs generated since the period was latched.
    since_latch: u32,
    /// Count of CAMs generated in total.
    generated: u64,
    /// Recent path of the station (newest last), for the LF container.
    path: Vec<(SimTime, ReferencePosition)>,
}

impl CaService {
    /// Creates the service for a station.
    pub fn new(station_id: StationId, station_type: StationType) -> Self {
        Self {
            station_id,
            station_type,
            last: None,
            t_gen_cam: T_GEN_CAM_MAX,
            since_latch: 0,
            generated: 0,
            // The breadcrumb ring is capped at MAX_POINTS + 1 entries;
            // sizing it up front keeps CAM generation allocation-free.
            path: Vec::with_capacity(PathHistory::MAX_POINTS + 2),
        }
    }

    /// Total CAMs generated so far.
    #[cfg(test)]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The adaptive period currently in effect.
    #[cfg(test)]
    pub fn t_gen_cam(&self) -> SimDuration {
        self.t_gen_cam
    }

    /// Whether the station dynamics changed enough to warrant a CAM.
    fn dynamics_trigger(&self, prev: &StationState, cur: &StationState) -> bool {
        let dh = heading_delta_deg(prev.heading_deg, cur.heading_deg);
        let dp = prev.position.planar_distance_m(&cur.position);
        let dv = (prev.speed_mps - cur.speed_mps).abs();
        dh > HEADING_DELTA_DEG || dp > POSITION_DELTA_M || dv > SPEED_DELTA_MPS
    }

    /// Polls the service: returns a CAM if one is due at `now` given the
    /// current station state.
    pub fn poll(&mut self, now: SimTime, state: &StationState) -> Option<Cam> {
        let due = match &self.last {
            None => true,
            Some((last_time, last_state)) => {
                let elapsed = now.saturating_duration_since(*last_time);
                if elapsed < T_GEN_CAM_MIN {
                    false
                } else if elapsed >= self.t_gen_cam {
                    true
                } else {
                    self.dynamics_trigger(last_state, state)
                }
            }
        };
        if !due {
            return None;
        }
        // Adapt T_GenCam per EN 302 637-2 §6.1.3.
        if let Some((last_time, last_state)) = &self.last {
            let elapsed = now.saturating_duration_since(*last_time);
            if self.dynamics_trigger(last_state, state) && elapsed < self.t_gen_cam {
                self.t_gen_cam = elapsed.max(T_GEN_CAM_MIN);
                self.since_latch = 0;
            } else {
                self.since_latch += 1;
                if self.since_latch >= N_GEN_CAM {
                    self.t_gen_cam = T_GEN_CAM_MAX;
                }
            }
        }
        Some(self.generate(now, state))
    }

    /// Builds a CAM for `state` unconditionally, bypassing the EN 302
    /// 637-2 trigger rules. This is the build step [`poll`](Self::poll)
    /// runs once a CAM is due; callers that need a fixed beacon cadence
    /// regardless of station dynamics — a stationary RSU acting as a
    /// liveness heartbeat for a vehicle-side watchdog — invoke it
    /// directly. Counts toward the generated-CAM total (which paces the
    /// low-frequency container) and advances the path history like any
    /// triggered CAM.
    pub fn generate(&mut self, now: SimTime, state: &StationState) -> Cam {
        self.last = Some((now, *state));
        self.generated += 1;
        // Record the path point for future LF containers.
        self.path.push((now, state.position));
        if self.path.len() > PathHistory::MAX_POINTS + 1 {
            self.path.remove(0);
        }
        let gdt = (now.as_millis() % 65536) as u16;
        let mut cam = Cam::basic(self.station_id, gdt, self.station_type, state.position)
            .with_dynamics(
                Heading::from_degrees(state.heading_deg),
                Speed::from_mps(state.speed_mps),
            );
        if self.generated % u64::from(LF_EVERY_N) == 1 {
            cam = cam.with_low_frequency(LowFrequencyContainer {
                vehicle_role: VehicleRole::Default,
                exterior_lights: 0,
                path_history: self.path_history(state.position, now),
            });
        }
        cam
    }

    /// Builds the path history relative to the current position (newest
    /// point first, per EN 302 637-2 Annex).
    fn path_history(&self, current: ReferencePosition, now: SimTime) -> PathHistory {
        let mut history = PathHistory::default();
        let mut prev_time = now;
        for (t, pos) in self.path.iter().rev().skip(1) {
            let dlat = i64::from(pos.latitude.raw()) - i64::from(current.latitude.raw());
            let dlon = i64::from(pos.longitude.raw()) - i64::from(current.longitude.raw());
            // Points beyond the delta range (≈ ±13 m of latitude) end the
            // history — consistent with the CDD's short-range intent.
            let (Ok(dlat), Ok(dlon)) = (i32::try_from(dlat), i32::try_from(dlon)) else {
                break;
            };
            if !(-131071..=131072).contains(&dlat) || !(-131071..=131072).contains(&dlon) {
                break;
            }
            let dt_10ms =
                (prev_time.saturating_duration_since(*t).as_millis() / 10).clamp(1, 65535) as u16;
            let Ok(delta) = DeltaReferencePosition::new(dlat, dlon, 0) else {
                break;
            };
            let fitted = history.push(PathPoint {
                delta,
                delta_time: Some(dt_10ms),
            });
            prev_time = *t;
            if !fitted || history.len() == PathHistory::MAX_POINTS {
                break;
            }
        }
        history
    }
}

/// Smallest absolute angular difference between two headings, degrees.
fn heading_delta_deg(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(360.0);
    d.min(360.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(lat: f64, heading: f64, speed: f64) -> StationState {
        StationState {
            position: ReferencePosition::from_degrees(lat, -8.608),
            heading_deg: heading,
            speed_mps: speed,
        }
    }

    fn service() -> CaService {
        CaService::new(StationId::new(7).unwrap(), StationType::PassengerCar)
    }

    #[test]
    fn heading_delta_wraps() {
        assert_eq!(heading_delta_deg(10.0, 350.0), 20.0);
        assert_eq!(heading_delta_deg(350.0, 10.0), 20.0);
        assert_eq!(heading_delta_deg(0.0, 180.0), 180.0);
        assert_eq!(heading_delta_deg(90.0, 90.0), 0.0);
    }

    #[test]
    fn first_poll_generates() {
        let mut ca = service();
        let cam = ca.poll(SimTime::ZERO, &state(41.178, 90.0, 1.5)).unwrap();
        assert_eq!(cam.header.station_id.value(), 7);
        assert_eq!(ca.generated(), 1);
    }

    #[test]
    fn respects_t_gen_cam_min() {
        let mut ca = service();
        let s = state(41.178, 90.0, 1.5);
        ca.poll(SimTime::ZERO, &s).unwrap();
        // Huge dynamics change, but only 50 ms elapsed.
        let turned = state(41.178, 180.0, 5.0);
        assert!(ca.poll(SimTime::from_millis(50), &turned).is_none());
        // At 100 ms it fires.
        assert!(ca.poll(SimTime::from_millis(100), &turned).is_some());
    }

    #[test]
    fn max_period_forces_cam_without_dynamics() {
        let mut ca = service();
        let s = state(41.178, 90.0, 1.5);
        ca.poll(SimTime::ZERO, &s).unwrap();
        assert!(ca.poll(SimTime::from_millis(999), &s).is_none());
        assert!(ca.poll(SimTime::from_millis(1000), &s).is_some());
    }

    #[test]
    fn speed_change_triggers() {
        let mut ca = service();
        ca.poll(SimTime::ZERO, &state(41.178, 90.0, 1.5)).unwrap();
        // +0.6 m/s > 0.5 threshold at 200 ms.
        assert!(ca
            .poll(SimTime::from_millis(200), &state(41.178, 90.0, 2.1))
            .is_some());
    }

    #[test]
    fn position_change_triggers() {
        let mut ca = service();
        ca.poll(SimTime::ZERO, &state(41.178, 90.0, 1.5)).unwrap();
        // ~5.5 m north.
        let moved = state(41.178 + 5.5 / 111_194.9, 90.0, 1.5);
        assert!(ca.poll(SimTime::from_millis(200), &moved).is_some());
    }

    #[test]
    fn small_changes_do_not_trigger() {
        let mut ca = service();
        ca.poll(SimTime::ZERO, &state(41.178, 90.0, 1.5)).unwrap();
        let wiggle = state(41.178 + 1.0 / 111_194.9, 92.0, 1.7);
        assert!(ca.poll(SimTime::from_millis(500), &wiggle).is_none());
    }

    #[test]
    fn adaptive_period_latches_then_relaxes() {
        let mut ca = service();
        let s0 = state(41.178, 90.0, 1.5);
        ca.poll(SimTime::ZERO, &s0).unwrap();
        // Dynamics trigger at 300 ms latches T_GenCam to 300 ms.
        let s1 = state(41.178, 100.0, 1.5);
        ca.poll(SimTime::from_millis(300), &s1).unwrap();
        assert_eq!(ca.t_gen_cam(), SimDuration::from_millis(300));
        // Three quiescent CAMs at the latched period relax it back.
        let mut t = 300;
        for _ in 0..3 {
            t += 300;
            assert!(ca.poll(SimTime::from_millis(t), &s1).is_some());
        }
        assert_eq!(ca.t_gen_cam(), SimDuration::from_millis(1000));
    }

    #[test]
    fn generation_delta_time_is_now_mod_65536() {
        let mut ca = service();
        let cam = ca
            .poll(SimTime::from_millis(70_000), &state(41.178, 90.0, 1.5))
            .unwrap();
        assert_eq!(cam.generation_delta_time, (70_000 % 65536) as u16);
    }

    #[test]
    fn lf_container_attached_periodically_with_path_history() {
        let mut ca = service();
        // Drive north, 4.5 m per second: position trigger fires at
        // ~1 Hz+; collect several CAMs.
        let mut cams = Vec::new();
        for sec in 0..6u64 {
            let s = state(41.178 + sec as f64 * 4.5 / 111_194.9, 0.0, 4.5);
            if let Some(cam) = ca.poll(SimTime::from_secs(sec), &s) {
                cams.push(cam);
            }
        }
        assert!(cams.len() >= 5, "CAMs: {}", cams.len());
        // LF on every 2nd CAM: first, third, fifth … carry LF.
        assert!(cams[0].low_frequency.is_some(), "first CAM carries LF");
        assert!(cams[1].low_frequency.is_none());
        let lf = cams[4]
            .low_frequency
            .as_ref()
            .expect("fifth CAM carries LF");
        // The path history points back along the northward drive.
        assert!(!lf.path_history.is_empty());
        let p0 = lf.path_history.points()[0];
        assert!(p0.delta.delta_latitude < 0, "previous point lies south");
        assert!(p0.delta_time.is_some());
        // Round-trips on the wire.
        let bytes = cams[4].to_bytes().unwrap();
        assert_eq!(Cam::from_bytes(&bytes).unwrap(), cams[4]);
    }

    #[test]
    fn steady_driving_produces_1hz_stream() {
        let mut ca = service();
        let s = state(41.178, 90.0, 0.0); // parked
        let mut count = 0;
        for ms in (0..=10_000).step_by(10) {
            if ca.poll(SimTime::from_millis(ms), &s).is_some() {
                count += 1;
            }
        }
        // 0, 1000, 2000, ... 10000.
        assert_eq!(count, 11);
    }
}
