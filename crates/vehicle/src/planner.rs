//! Motion Planner and Message Handler (paper Figure 3, vehicle side).
//!
//! The Motion Planner "decides the next actions of the vehicle on the
//! short/medium term and takes into consideration, besides its own sensors
//! and navigation information, the data received from the network". In
//! normal operation it follows the line; when the Message Handler reports
//! a DENM, it overrides with an emergency stop — in the testbed, *any*
//! received DENM cuts wheel power (§III-D2).

use crate::actuators::ActuatorCommand;
use crate::watchdog::DegradationLevel;
use its_messages::cause_codes::CauseCode;
use its_messages::denm::Denm;

/// When the Message Handler escalates a DENM to an emergency stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StopPolicy {
    /// Stop on any received DENM — the paper's implementation ("If a DENM
    /// was received by the OBU … power to the wheels is interrupted").
    #[default]
    AnyDenm,
    /// Stop only on event types that demand braking (collision risk,
    /// AEB/pre-crash dangerous situations) — the §II-D refinement.
    EmergencyCausesOnly,
}

/// Interprets received DENMs for the Motion Planner.
#[derive(Debug, Clone, Default)]
pub struct MessageHandler {
    policy: StopPolicy,
    /// DENMs seen, for diagnostics.
    received: u64,
    /// The cause that triggered the stop, if any.
    stop_cause: Option<Option<CauseCode>>,
}

impl MessageHandler {
    /// Creates a handler with the given policy.
    pub fn new(policy: StopPolicy) -> Self {
        Self {
            policy,
            received: 0,
            stop_cause: None,
        }
    }

    /// Number of DENMs processed.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Whether an emergency stop has been latched.
    #[cfg(test)]
    pub fn stop_latched(&self) -> bool {
        self.stop_cause.is_some()
    }

    /// The event type of the DENM that latched the stop (a mandatory-only
    /// DENM has no Situation container, hence the nested `Option`).
    pub fn stop_cause(&self) -> Option<Option<CauseCode>> {
        self.stop_cause
    }

    /// Processes one received DENM; returns `true` if it (newly) latches
    /// an emergency stop.
    pub fn on_denm(&mut self, denm: &Denm) -> bool {
        self.received += 1;
        if self.stop_cause.is_some() {
            return false; // already stopping
        }
        let triggers = match self.policy {
            StopPolicy::AnyDenm => !denm.is_termination(),
            StopPolicy::EmergencyCausesOnly => denm
                .event_type()
                .is_some_and(|c| c.requires_emergency_brake()),
        };
        if triggers {
            self.stop_cause = Some(denm.event_type());
        }
        triggers
    }

    /// Clears the latched stop (scenario reset).
    pub fn reset(&mut self) {
        self.stop_cause = None;
    }
}

/// High-level drive mode decided by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DriveMode {
    /// Follow the line at the cruise throttle.
    #[default]
    LineFollow,
    /// Power cut, coasting to a stop.
    EmergencyStop,
}

/// The Motion Planner: merges navigation (line following) with network
/// inputs (via [`MessageHandler`]) into actuator commands.
///
/// # Example
///
/// ```
/// use vehicle::planner::{DriveMode, MotionPlanner, StopPolicy};
/// use vehicle::actuators::ActuatorCommand;
///
/// let mut planner = MotionPlanner::new(0.25, StopPolicy::AnyDenm);
/// let cmd = planner.plan(Some(0.1));
/// assert!(matches!(cmd, ActuatorCommand::Drive { .. }));
/// planner.force_stop();
/// assert_eq!(planner.mode(), DriveMode::EmergencyStop);
/// assert_eq!(planner.plan(Some(0.1)), ActuatorCommand::CutPower);
/// ```
#[derive(Debug, Clone)]
pub struct MotionPlanner {
    handler: MessageHandler,
    cruise_throttle: f64,
    mode: DriveMode,
    last_steering: f64,
    degradation: DegradationLevel,
    failsafe_scale: f64,
}

impl MotionPlanner {
    /// Creates a planner with the given cruise throttle and stop policy.
    pub fn new(cruise_throttle: f64, policy: StopPolicy) -> Self {
        Self {
            handler: MessageHandler::new(policy),
            cruise_throttle: cruise_throttle.clamp(0.0, 1.0),
            mode: DriveMode::LineFollow,
            last_steering: 0.0,
            degradation: DegradationLevel::Nominal,
            failsafe_scale: 0.5,
        }
    }

    /// Sets the throttle multiplier used in [`DegradationLevel::SpeedCap`].
    #[cfg(test)]
    pub fn set_failsafe_scale(&mut self, scale: f64) {
        self.failsafe_scale = scale.clamp(0.0, 1.0);
    }

    /// Updates the fail-safe degradation level the planner must honour
    /// (decided by the V2X watchdog each control period).
    pub fn set_degradation(&mut self, level: DegradationLevel) {
        self.degradation = level;
    }

    /// The degradation level currently honoured.
    pub fn degradation(&self) -> DegradationLevel {
        self.degradation
    }

    /// Read access to the message handler.
    pub fn handler(&self) -> &MessageHandler {
        &self.handler
    }

    /// The current drive mode.
    pub fn mode(&self) -> DriveMode {
        self.mode
    }

    /// Processes a received DENM; switches to emergency stop if the
    /// policy demands it. Returns `true` when the stop was newly latched.
    pub fn on_denm(&mut self, denm: &Denm) -> bool {
        let stop = self.handler.on_denm(denm);
        if stop {
            self.mode = DriveMode::EmergencyStop;
        }
        stop
    }

    /// Forces an emergency stop (e.g. local safety supervisor).
    pub fn force_stop(&mut self) {
        self.mode = DriveMode::EmergencyStop;
    }

    /// Produces the actuator command for this control period given the
    /// line follower's steering output (or `None` when the line is lost,
    /// in which case the last steering is held).
    pub fn plan(&mut self, steering: Option<f64>) -> ActuatorCommand {
        match self.mode {
            DriveMode::EmergencyStop => ActuatorCommand::CutPower,
            DriveMode::LineFollow => {
                if let Some(s) = steering {
                    self.last_steering = s;
                }
                let throttle = match self.degradation {
                    DegradationLevel::Nominal => self.cruise_throttle,
                    DegradationLevel::SpeedCap => self.cruise_throttle * self.failsafe_scale,
                    DegradationLevel::ControlledStop => 0.0,
                };
                ActuatorCommand::Drive {
                    throttle,
                    steering_rad: self.last_steering,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
    use its_messages::common::{ActionId, ReferencePosition, StationId, StationType, TimestampIts};
    use its_messages::denm::{Denm, ManagementContainer, SituationContainer, Termination};

    fn denm(cause: Option<CauseCode>) -> Denm {
        let m = ManagementContainer::new(
            ActionId::new(StationId::new(15).unwrap(), 0),
            TimestampIts::new(0).unwrap(),
            TimestampIts::new(0).unwrap(),
            ReferencePosition::from_degrees(41.178, -8.608),
            StationType::RoadSideUnit,
        );
        let mut d = Denm::new(StationId::new(15).unwrap(), m);
        if let Some(c) = cause {
            d = d.with_situation(SituationContainer::new(7, c).unwrap());
        }
        d
    }

    #[test]
    fn any_denm_policy_stops_on_mandatory_only_denm() {
        // The paper's DENMs carry only Header + Management; the vehicle
        // must still stop.
        let mut planner = MotionPlanner::new(0.25, StopPolicy::AnyDenm);
        assert!(planner.on_denm(&denm(None)));
        assert_eq!(planner.mode(), DriveMode::EmergencyStop);
        assert_eq!(planner.plan(Some(0.0)), ActuatorCommand::CutPower);
    }

    #[test]
    fn emergency_policy_ignores_benign_causes() {
        let mut planner = MotionPlanner::new(0.25, StopPolicy::EmergencyCausesOnly);
        assert!(!planner.on_denm(&denm(None)));
        assert!(
            !planner.on_denm(&denm(Some(CauseCode::HazardousLocationObstacleOnTheRoad(
                0
            ))))
        );
        assert_eq!(planner.mode(), DriveMode::LineFollow);
        assert!(planner.on_denm(&denm(Some(CauseCode::CollisionRisk(
            CollisionRiskSubCause::CrossingCollisionRisk
        )))));
        assert_eq!(planner.mode(), DriveMode::EmergencyStop);
    }

    #[test]
    fn termination_denm_does_not_stop() {
        let mut planner = MotionPlanner::new(0.25, StopPolicy::AnyDenm);
        let mut d = denm(None);
        d.management.termination = Some(Termination::IsCancellation);
        assert!(!planner.on_denm(&d));
        assert_eq!(planner.mode(), DriveMode::LineFollow);
    }

    #[test]
    fn stop_latches_once() {
        let mut handler = MessageHandler::new(StopPolicy::AnyDenm);
        assert!(handler.on_denm(&denm(None)));
        assert!(!handler.on_denm(&denm(None)), "second DENM not a new stop");
        assert_eq!(handler.received(), 2);
        assert!(handler.stop_latched());
        handler.reset();
        assert!(!handler.stop_latched());
    }

    #[test]
    fn stop_cause_recorded() {
        let mut handler = MessageHandler::new(StopPolicy::AnyDenm);
        let cause = CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk);
        handler.on_denm(&denm(Some(cause)));
        assert_eq!(handler.stop_cause(), Some(Some(cause)));
    }

    #[test]
    fn planner_holds_last_steering_when_line_lost() {
        let mut planner = MotionPlanner::new(0.25, StopPolicy::AnyDenm);
        planner.plan(Some(0.2));
        match planner.plan(None) {
            ActuatorCommand::Drive { steering_rad, .. } => assert_eq!(steering_rad, 0.2),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn degradation_caps_then_zeroes_throttle() {
        let mut planner = MotionPlanner::new(0.4, StopPolicy::AnyDenm);
        planner.set_failsafe_scale(0.5);
        planner.set_degradation(DegradationLevel::SpeedCap);
        match planner.plan(Some(0.1)) {
            ActuatorCommand::Drive { throttle, .. } => assert_eq!(throttle, 0.2),
            other => panic!("unexpected command {other:?}"),
        }
        planner.set_degradation(DegradationLevel::ControlledStop);
        match planner.plan(Some(0.1)) {
            ActuatorCommand::Drive {
                throttle,
                steering_rad,
            } => {
                assert_eq!(throttle, 0.0, "controlled stop coasts down");
                assert_eq!(steering_rad, 0.1, "steering stays active while stopping");
            }
            other => panic!("unexpected command {other:?}"),
        }
        planner.set_degradation(DegradationLevel::Nominal);
        match planner.plan(Some(0.1)) {
            ActuatorCommand::Drive { throttle, .. } => assert_eq!(throttle, 0.4),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn emergency_stop_outranks_degradation_recovery() {
        // A latched DENM stop must not be undone by the watchdog reporting
        // a healthy link again.
        let mut planner = MotionPlanner::new(0.25, StopPolicy::AnyDenm);
        planner.on_denm(&denm(None));
        planner.set_degradation(DegradationLevel::Nominal);
        assert_eq!(planner.plan(Some(0.0)), ActuatorCommand::CutPower);
    }

    #[test]
    fn cruise_throttle_clamped() {
        let mut planner = MotionPlanner::new(2.0, StopPolicy::AnyDenm);
        match planner.plan(Some(0.0)) {
            ActuatorCommand::Drive { throttle, .. } => assert_eq!(throttle, 1.0),
            other => panic!("unexpected command {other:?}"),
        }
    }
}
