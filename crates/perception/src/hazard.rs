//! The Hazard Advertisement Service (paper Figure 3, road-side).
//!
//! "If an on-coming vehicle crosses a point of the road, the Object
//! Detection Service identifies it and contacts the Hazard Advertisement
//! Service to assess a potential collision from consulting the LDM. If so
//! happens, the Hazard Advertisement Service instructs the ETSI ITS stack
//! to send a DENM."
//!
//! The service compares each detection's estimated distance against the
//! Action Point threshold, consults the LDM for a protagonist vehicle the
//! warning concerns, and produces a [`DenRequest`] for the DEN service.
//! Its processing time (risk assessment + local HTTP `trigger_denm` POST)
//! is part of the paper's step-2→3 interval.

use crate::detector::Detection;
use crate::tracker::Track;
use facilities::den::DenRequest;
use facilities::ldm::Ldm;
use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
use its_messages::common::{ReferencePosition, TimestampIts};
use sim_core::{SimDuration, SimRng, SimTime};

/// Configuration of the hazard service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardConfig {
    /// Action Point: estimated distance at/below which a DENM is
    /// triggered (the paper sets it around 1.5–1.73 m; Fig. 8/10 use
    /// 1.52 m).
    pub action_point_m: f64,
    /// Geographic position of the monitored Region of Interest (used as
    /// the DENM event position).
    pub event_position: ReferencePosition,
    /// Radius around the event in which a protagonist vehicle must be
    /// CAM-tracked for a *crossing collision risk* classification.
    pub protagonist_radius_m: f64,
    /// Whether a DENM is issued even with no CAM-tracked protagonist
    /// (the paper's single-vehicle demo does this; the warning is then
    /// classified as an obstacle hazard rather than a collision risk).
    pub warn_without_protagonist: bool,
    /// Mean risk-assessment processing time.
    pub assess_mean: SimDuration,
    /// Std-dev of the processing time.
    pub assess_std: SimDuration,
}

impl HazardConfig {
    /// Configuration matching the paper's experiment (action point
    /// 1.52 m, single vehicle doubling as road user and protagonist).
    pub fn paper_setup(event_position: ReferencePosition) -> Self {
        Self {
            action_point_m: 1.52,
            event_position,
            protagonist_radius_m: 50.0,
            warn_without_protagonist: true,
            assess_mean: SimDuration::from_millis(3),
            assess_std: SimDuration::from_millis(1),
        }
    }
}

/// Decision produced for one detection.
#[derive(Debug, Clone, PartialEq)]
pub enum HazardDecision {
    /// No action: target still outside the Action Point.
    OutsideActionPoint,
    /// A DENM should be triggered with this request, ready at
    /// `decided_at` (detection output time + assessment latency).
    TriggerDenm {
        /// The DEN service request to submit.
        request: DenRequest,
        /// When the trigger call is issued.
        decided_at: SimTime,
    },
}

/// The hazard advertisement state machine.
///
/// Latches after its first trigger so one crossing yields one DENM
/// (updates would use `AppDENM_update`).
#[derive(Debug, Clone)]
pub struct HazardAdvertisementService {
    config: HazardConfig,
    triggered: bool,
    assessments: u64,
}

impl HazardAdvertisementService {
    /// Creates the service.
    pub fn new(config: HazardConfig) -> Self {
        Self {
            config,
            triggered: false,
            assessments: 0,
        }
    }

    /// Whether a DENM has already been triggered.
    #[cfg(test)]
    pub fn has_triggered(&self) -> bool {
        self.triggered
    }

    /// Number of detections assessed.
    pub fn assessments(&self) -> u64 {
        self.assessments
    }

    /// Re-arms the service for a new run.
    pub fn reset(&mut self) {
        self.triggered = false;
    }

    /// Track-based assessment: triggers on time-to-collision instead of
    /// a bare distance threshold. Uses the same LDM consultation and
    /// latching as [`Self::assess`]; the track must be confirmed
    /// (`min_hits`) and closing with `TTC ≤ ttc_threshold_s`.
    ///
    /// This is the natural upgrade of the paper's fixed Action Point once
    /// the Object Detection Service exposes motion vectors (§III-A).
    #[allow(clippy::too_many_arguments)] // mirrors the service interface: track + rule + context
    pub fn assess_track(
        &mut self,
        track: &Track,
        min_hits: u32,
        ttc_threshold_s: f64,
        ldm: &Ldm,
        wall: TimestampIts,
        now: SimTime,
        rng: &mut SimRng,
    ) -> HazardDecision {
        self.assessments += 1;
        if self.triggered || !track.confirmed(min_hits) {
            return HazardDecision::OutsideActionPoint;
        }
        let Some(ttc) = track.time_to_collision_s() else {
            return HazardDecision::OutsideActionPoint;
        };
        if ttc > ttc_threshold_s {
            return HazardDecision::OutsideActionPoint;
        }
        let protagonist_tracked = !ldm
            .stations_within(
                &self.config.event_position,
                self.config.protagonist_radius_m,
            )
            .is_empty();
        if !protagonist_tracked && !self.config.warn_without_protagonist {
            return HazardDecision::OutsideActionPoint;
        }
        let cause = if protagonist_tracked {
            CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk)
        } else {
            CauseCode::HazardousLocationObstacleOnTheRoad(0)
        };
        let request = DenRequest::one_shot(wall, self.config.event_position, cause);
        let assess_s = rng
            .normal(
                self.config.assess_mean.as_secs_f64(),
                self.config.assess_std.as_secs_f64(),
            )
            .max(0.0005);
        self.triggered = true;
        HazardDecision::TriggerDenm {
            request,
            decided_at: now + SimDuration::from_secs_f64(assess_s),
        }
    }

    /// Assesses one detection against the LDM.
    ///
    /// `wall` is the edge node's wall clock at the detection output (used
    /// for the DENM detection time).
    pub fn assess(
        &mut self,
        detection: &Detection,
        ldm: &Ldm,
        wall: TimestampIts,
        rng: &mut SimRng,
    ) -> HazardDecision {
        self.assessments += 1;
        if self.triggered || detection.estimated_distance_m > self.config.action_point_m {
            return HazardDecision::OutsideActionPoint;
        }
        let protagonist_tracked = !ldm
            .stations_within(
                &self.config.event_position,
                self.config.protagonist_radius_m,
            )
            .is_empty();
        if !protagonist_tracked && !self.config.warn_without_protagonist {
            return HazardDecision::OutsideActionPoint;
        }
        // Crossing collision risk when we know who we are warning;
        // otherwise a generic obstacle-on-road hazard (codes 97 vs 10,
        // §II-D of the paper).
        let cause = if protagonist_tracked {
            CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk)
        } else {
            CauseCode::HazardousLocationObstacleOnTheRoad(0)
        };
        let mut request = DenRequest::one_shot(wall, self.config.event_position, cause);
        request.information_quality = ((detection.confidence * 7.0).round() as u8).min(7);
        let assess_s = rng
            .normal(
                self.config.assess_mean.as_secs_f64(),
                self.config.assess_std.as_secs_f64(),
            )
            .max(0.0005);
        self.triggered = true;
        HazardDecision::TriggerDenm {
            request,
            decided_at: detection.frame_time + SimDuration::from_secs_f64(assess_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_messages::cam::Cam;
    use its_messages::common::{StationId, StationType};

    fn event_pos() -> ReferencePosition {
        ReferencePosition::from_degrees(41.178, -8.608)
    }

    fn detection(dist: f64, at_ms: u64) -> Detection {
        Detection {
            target_id: 1,
            label: "stop sign",
            confidence: 0.93,
            estimated_distance_m: dist,
            frame_time: SimTime::from_millis(at_ms),
        }
    }

    fn tracked_ldm() -> Ldm {
        let mut ldm = Ldm::new();
        ldm.insert_cam(
            SimTime::ZERO,
            Cam::basic(
                StationId::new(7).unwrap(),
                0,
                StationType::PassengerCar,
                event_pos(),
            ),
        );
        ldm
    }

    #[test]
    fn outside_action_point_no_trigger() {
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(1);
        let d = svc.assess(
            &detection(2.0, 250),
            &tracked_ldm(),
            TimestampIts::default(),
            &mut rng,
        );
        assert_eq!(d, HazardDecision::OutsideActionPoint);
        assert!(!svc.has_triggered());
        assert_eq!(svc.assessments(), 1);
    }

    #[test]
    fn crossing_action_point_triggers_collision_risk() {
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(2);
        let wall = TimestampIts::new(1000).unwrap();
        match svc.assess(&detection(1.45, 250), &tracked_ldm(), wall, &mut rng) {
            HazardDecision::TriggerDenm {
                request,
                decided_at,
            } => {
                assert_eq!(request.cause.cause_code(), 97);
                assert_eq!(request.detection_time, wall);
                assert!(decided_at > SimTime::from_millis(250));
                assert!(decided_at < SimTime::from_millis(260), "{decided_at}");
            }
            other => panic!("expected trigger, got {other:?}"),
        }
        assert!(svc.has_triggered());
    }

    #[test]
    fn no_protagonist_downgrades_to_obstacle_warning() {
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(3);
        let empty = Ldm::new();
        match svc.assess(
            &detection(1.45, 250),
            &empty,
            TimestampIts::default(),
            &mut rng,
        ) {
            HazardDecision::TriggerDenm { request, .. } => {
                assert_eq!(request.cause.cause_code(), 10);
            }
            other => panic!("expected trigger, got {other:?}"),
        }
    }

    #[test]
    fn strict_config_requires_protagonist() {
        let mut cfg = HazardConfig::paper_setup(event_pos());
        cfg.warn_without_protagonist = false;
        let mut svc = HazardAdvertisementService::new(cfg);
        let mut rng = SimRng::seed_from(4);
        let empty = Ldm::new();
        let d = svc.assess(
            &detection(1.45, 250),
            &empty,
            TimestampIts::default(),
            &mut rng,
        );
        assert_eq!(d, HazardDecision::OutsideActionPoint);
    }

    #[test]
    fn latches_after_first_trigger() {
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(5);
        let ldm = tracked_ldm();
        let wall = TimestampIts::default();
        assert!(matches!(
            svc.assess(&detection(1.45, 250), &ldm, wall, &mut rng),
            HazardDecision::TriggerDenm { .. }
        ));
        assert_eq!(
            svc.assess(&detection(1.30, 500), &ldm, wall, &mut rng),
            HazardDecision::OutsideActionPoint
        );
        svc.reset();
        assert!(matches!(
            svc.assess(&detection(1.30, 750), &ldm, wall, &mut rng),
            HazardDecision::TriggerDenm { .. }
        ));
    }

    #[test]
    fn information_quality_tracks_confidence() {
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(6);
        let mut det = detection(1.45, 250);
        det.confidence = 1.0;
        match svc.assess(&det, &tracked_ldm(), TimestampIts::default(), &mut rng) {
            HazardDecision::TriggerDenm { request, .. } => {
                assert_eq!(request.information_quality, 7);
            }
            other => panic!("expected trigger, got {other:?}"),
        }
    }

    #[test]
    fn ttc_rule_triggers_on_closing_track() {
        use crate::tracker::Track;
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(8);
        let closing = Track {
            track_id: 1,
            range_m: 2.0,
            range_rate_mps: -1.5, // TTC ≈ 1.33 s
            label: "stop sign",
            last_update: SimTime::from_millis(500),
            hits: 5,
        };
        // Above the threshold: no trigger.
        let d = svc.assess_track(
            &closing,
            3,
            1.0,
            &tracked_ldm(),
            TimestampIts::default(),
            SimTime::from_millis(500),
            &mut rng,
        );
        assert_eq!(d, HazardDecision::OutsideActionPoint);
        // Within the threshold: trigger with collision-risk cause.
        match svc.assess_track(
            &closing,
            3,
            2.0,
            &tracked_ldm(),
            TimestampIts::default(),
            SimTime::from_millis(500),
            &mut rng,
        ) {
            HazardDecision::TriggerDenm { request, .. } => {
                assert_eq!(request.cause.cause_code(), 97);
            }
            other => panic!("expected trigger, got {other:?}"),
        }
    }

    #[test]
    fn ttc_rule_ignores_unconfirmed_and_receding_tracks() {
        use crate::tracker::Track;
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(9);
        let unconfirmed = Track {
            track_id: 1,
            range_m: 0.5,
            range_rate_mps: -2.0,
            label: "stop sign",
            last_update: SimTime::ZERO,
            hits: 1,
        };
        assert_eq!(
            svc.assess_track(
                &unconfirmed,
                3,
                5.0,
                &tracked_ldm(),
                TimestampIts::default(),
                SimTime::ZERO,
                &mut rng
            ),
            HazardDecision::OutsideActionPoint
        );
        let receding = Track {
            hits: 10,
            range_rate_mps: 1.0,
            ..unconfirmed
        };
        assert_eq!(
            svc.assess_track(
                &receding,
                3,
                5.0,
                &tracked_ldm(),
                TimestampIts::default(),
                SimTime::ZERO,
                &mut rng
            ),
            HazardDecision::OutsideActionPoint
        );
    }

    #[test]
    fn quirk_distance_does_not_trigger() {
        // The 1.73 m default produced under 75 cm is *above* the 1.52 m
        // action point — the very reason the paper set the threshold
        // there. A close-in target reported at 1.73 m must not trigger.
        let mut svc = HazardAdvertisementService::new(HazardConfig::paper_setup(event_pos()));
        let mut rng = SimRng::seed_from(7);
        let d = svc.assess(
            &detection(1.73, 250),
            &tracked_ldm(),
            TimestampIts::default(),
            &mut rng,
        );
        assert_eq!(d, HazardDecision::OutsideActionPoint);
    }
}
