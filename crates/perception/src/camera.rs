//! The road-side ZED camera: field of view, range, and the ≈ 4 FPS
//! processing clock.

use sim_core::{SimDuration, SimTime};

/// How the scale vehicle is dressed up for the detector — the three
//  configurations explored in the paper's Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetAppearance {
    /// The bare F1Tenth platform: no bodywork, no headlights.
    BareScaleVehicle,
    /// With the original Traxxas rally body shell.
    WithBodyShell,
    /// With the cardboard stop sign on top (the reliable option).
    WithStopSign,
}

/// Ground truth about one object in front of the camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruthTarget {
    /// Identifier assigned by the scenario.
    pub id: u32,
    /// True distance from the camera lens, metres.
    pub distance_m: f64,
    /// Angle off the camera's optical axis, degrees (0 = head-on).
    pub bearing_deg: f64,
    /// Appearance configuration.
    pub appearance: TargetAppearance,
}

/// Half-angle of the camera's usable field of view, degrees.
const FOV_HALF_ANGLE_DEG: f64 = 45.0;

/// The road-side camera with its processing frame clock.
///
/// # Example
///
/// ```
/// use perception::camera::RoadSideCamera;
/// use sim_core::SimTime;
///
/// let cam = RoadSideCamera::default();
/// // The first frame completes one frame period after start.
/// let t = cam.next_frame_completion(SimTime::ZERO);
/// assert_eq!(t.as_millis(), 250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadSideCamera {
    /// End-to-end processed frame rate (camera + YOLO), Hz.
    pub processed_fps: f64,
    /// Maximum usable range, metres.
    pub max_range_m: f64,
}

impl Default for RoadSideCamera {
    fn default() -> Self {
        Self {
            processed_fps: 4.0,
            max_range_m: 6.0,
        }
    }
}

impl RoadSideCamera {
    /// The frame period of the processing pipeline.
    pub fn frame_period(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.processed_fps)
    }

    /// The completion time of the first frame that *starts* at or after
    /// `now` (frames are aligned to multiples of the period from t = 0).
    pub fn next_frame_completion(&self, now: SimTime) -> SimTime {
        let period = self.frame_period();
        let k = now.as_nanos() / period.as_nanos();
        SimTime::from_nanos((k + 1) * period.as_nanos())
    }

    /// Whether a target is geometrically visible (in FoV and range).
    pub fn sees(&self, target: &GroundTruthTarget) -> bool {
        target.distance_m <= self.max_range_m && target.bearing_deg.abs() <= FOV_HALF_ANGLE_DEG
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(distance: f64, bearing: f64) -> GroundTruthTarget {
        GroundTruthTarget {
            id: 1,
            distance_m: distance,
            bearing_deg: bearing,
            appearance: TargetAppearance::WithStopSign,
        }
    }

    #[test]
    fn four_fps_period() {
        let cam = RoadSideCamera::default();
        assert_eq!(cam.frame_period().as_millis(), 250);
    }

    #[test]
    fn frame_clock_aligns_to_period() {
        let cam = RoadSideCamera::default();
        assert_eq!(
            cam.next_frame_completion(SimTime::from_millis(0))
                .as_millis(),
            250
        );
        assert_eq!(
            cam.next_frame_completion(SimTime::from_millis(100))
                .as_millis(),
            250
        );
        assert_eq!(
            cam.next_frame_completion(SimTime::from_millis(250))
                .as_millis(),
            500
        );
        assert_eq!(
            cam.next_frame_completion(SimTime::from_millis(251))
                .as_millis(),
            500
        );
    }

    #[test]
    fn field_of_view_limits() {
        let cam = RoadSideCamera::default();
        assert!(cam.sees(&target(2.0, 0.0)));
        assert!(cam.sees(&target(2.0, 44.0)));
        assert!(!cam.sees(&target(2.0, 46.0)));
        assert!(!cam.sees(&target(7.0, 0.0)));
        assert!(cam.sees(&target(2.0, -44.0)));
    }
}
