//! Multi-frame object tracking and motion estimation.
//!
//! The paper's Object Detection Service "performs object detection from
//! the video stream **and determines the dynamics of the vehicles
//! (motion direction vector)**" (§III-A). Raw per-frame detections are
//! noisy and anonymous; this module associates them across frames
//! (nearest-neighbour on the estimated range) and runs an α-β filter per
//! track to estimate each road user's range rate — from which the hazard
//! service can compute a time-to-collision instead of a bare distance
//! threshold.

use crate::detector::Detection;
use sim_core::SimTime;

/// One maintained track.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Stable track identifier (assigned by the tracker).
    pub track_id: u32,
    /// Filtered range from the camera, metres.
    pub range_m: f64,
    /// Filtered range rate, m/s (negative = approaching).
    pub range_rate_mps: f64,
    /// Last update instant.
    pub last_update: SimTime,
    /// Number of detections folded into this track.
    pub hits: u32,
}

impl Track {
    /// Time to collision (range / closing speed), seconds; `None` when
    /// the object is not approaching.
    pub fn time_to_collision_s(&self) -> Option<f64> {
        (self.range_rate_mps < -1e-3).then(|| self.range_m / -self.range_rate_mps)
    }

    /// Whether the track is mature enough to act on.
    pub fn confirmed(&self, min_hits: u32) -> bool {
        self.hits >= min_hits
    }
}

/// α gain (position correction).
const ALPHA: f64 = 0.5;
/// β gain (velocity correction).
const BETA: f64 = 0.3;
/// Association gate: maximum |measured − predicted| range, metres.
const GATE_M: f64 = 0.8;
/// Tracks not updated for this long are dropped, seconds.
const MAX_COAST_S: f64 = 1.5;

/// Nearest-neighbour α-β range tracker.
///
/// # Example
///
/// ```
/// use perception::tracker::Tracker;
/// use perception::detector::Detection;
/// use sim_core::SimTime;
///
/// let mut tracker = Tracker::new();
/// for k in 0..8u64 {
///     let d = Detection {
///         target_id: 1,
///         label: "stop sign".into(),
///         confidence: 0.9,
///         estimated_distance_m: 3.0 - 0.375 * k as f64, // 1.5 m/s @ 4 FPS
///         frame_time: SimTime::from_millis(250 * k),
///     };
///     tracker.update(d.frame_time, &[d]);
/// }
/// let track = tracker.most_urgent(3).expect("a confirmed, closing track");
/// assert!(track.range_rate_mps < -1.0, "approaching");
/// assert!(track.time_to_collision_s().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Tracker {
    tracks: Vec<Track>,
    next_id: u32,
    /// Reusable per-update association scratch.
    claimed: Vec<bool>,
}

impl Default for Tracker {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracker {
    /// Creates a tracker with no tracks.
    pub fn new() -> Self {
        Self {
            tracks: Vec::new(),
            next_id: 1,
            claimed: Vec::new(),
        }
    }

    /// Current tracks, oldest first.
    #[cfg(test)]
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// The confirmed track with the smallest time-to-collision, if any.
    pub fn most_urgent(&self, min_hits: u32) -> Option<&Track> {
        self.tracks
            .iter()
            .filter(|t| t.confirmed(min_hits))
            .filter_map(|t| t.time_to_collision_s().map(|ttc| (ttc, t)))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, t)| t)
    }

    /// Folds one frame of detections into the track set.
    pub fn update(&mut self, now: SimTime, detections: &[Detection]) {
        // Predict every track to `now`.
        let mut claimed = std::mem::take(&mut self.claimed);
        claimed.clear();
        claimed.resize(detections.len(), false);
        for track in &mut self.tracks {
            let dt = now
                .saturating_duration_since(track.last_update)
                .as_secs_f64();
            let predicted = track.range_m + track.range_rate_mps * dt;
            // Nearest unclaimed detection within the gate.
            let mut best: Option<(usize, f64)> = None;
            for (i, d) in detections.iter().enumerate() {
                if claimed[i] {
                    continue;
                }
                let residual = (d.estimated_distance_m - predicted).abs();
                if residual <= GATE_M && best.is_none_or(|(_, r)| residual < r) {
                    best = Some((i, residual));
                }
            }
            if let Some((i, _)) = best {
                claimed[i] = true;
                let d = &detections[i];
                let residual = d.estimated_distance_m - predicted;
                track.range_m = predicted + ALPHA * residual;
                if dt > 1e-6 {
                    track.range_rate_mps += BETA * residual / dt;
                }
                track.last_update = now;
                track.hits += 1;
            }
        }
        // Unclaimed detections spawn new tracks.
        for (i, d) in detections.iter().enumerate() {
            if !claimed[i] {
                self.tracks.push(Track {
                    track_id: self.next_id,
                    range_m: d.estimated_distance_m,
                    range_rate_mps: 0.0,
                    last_update: now,
                    hits: 1,
                });
                self.next_id += 1;
            }
        }
        self.claimed = claimed;
        // Drop coasted-out tracks.
        self.tracks
            .retain(|t| now.saturating_duration_since(t.last_update).as_secs_f64() <= MAX_COAST_S);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(id: u32, range: f64, ms: u64) -> Detection {
        Detection {
            target_id: id,
            label: "stop sign",
            confidence: 0.9,
            estimated_distance_m: range,
            frame_time: SimTime::from_millis(ms),
        }
    }

    fn feed_approach(tracker: &mut Tracker, v_mps: f64, frames: u64) {
        for k in 0..frames {
            let range = 4.0 - v_mps * 0.25 * k as f64;
            let t = SimTime::from_millis(250 * k);
            tracker.update(t, &[det(1, range, t.as_millis())]);
        }
    }

    #[test]
    fn single_track_estimates_range_rate() {
        let mut tracker = Tracker::new();
        feed_approach(&mut tracker, 1.5, 8);
        assert_eq!(tracker.tracks().len(), 1);
        let t = &tracker.tracks()[0];
        assert!(t.hits >= 8);
        assert!(
            (t.range_rate_mps + 1.5).abs() < 0.4,
            "rate {} should be ≈ −1.5",
            t.range_rate_mps
        );
    }

    #[test]
    fn time_to_collision_roughly_range_over_speed() {
        let mut tracker = Tracker::new();
        feed_approach(&mut tracker, 1.5, 8);
        let t = &tracker.tracks()[0];
        let ttc = t.time_to_collision_s().expect("approaching");
        let expected = t.range_m / 1.5;
        assert!((ttc - expected).abs() < 0.6, "ttc {ttc} vs {expected}");
    }

    #[test]
    fn receding_object_has_no_ttc() {
        let mut tracker = Tracker::new();
        for k in 0..6u64 {
            let t = SimTime::from_millis(250 * k);
            tracker.update(t, &[det(1, 2.0 + 0.3 * k as f64, t.as_millis())]);
        }
        assert!(tracker.tracks()[0].time_to_collision_s().is_none());
    }

    #[test]
    fn two_separated_objects_get_two_tracks() {
        let mut tracker = Tracker::new();
        for k in 0..5u64 {
            let t = SimTime::from_millis(250 * k);
            tracker.update(
                t,
                &[
                    det(1, 1.5 - 0.05 * k as f64, t.as_millis()),
                    det(2, 4.0, t.as_millis()),
                ],
            );
        }
        assert_eq!(tracker.tracks().len(), 2);
        let ids: Vec<u32> = tracker.tracks().iter().map(|t| t.track_id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn missed_frames_are_coasted_then_dropped() {
        let mut tracker = Tracker::new();
        tracker.update(SimTime::ZERO, &[det(1, 2.0, 0)]);
        // A miss within the coast window keeps the track.
        tracker.update(SimTime::from_millis(500), &[]);
        assert_eq!(tracker.tracks().len(), 1);
        // Past max_coast_s the track is dropped.
        tracker.update(SimTime::from_millis(2200), &[]);
        assert!(tracker.tracks().is_empty());
    }

    #[test]
    fn gate_prevents_wild_association() {
        let mut tracker = Tracker::new();
        tracker.update(SimTime::ZERO, &[det(1, 1.0, 0)]);
        // A detection 3 m away is outside the 0.8 m gate: new track.
        tracker.update(SimTime::from_millis(250), &[det(2, 4.0, 250)]);
        assert_eq!(tracker.tracks().len(), 2);
    }

    #[test]
    fn most_urgent_prefers_smallest_ttc() {
        let mut tracker = Tracker::new();
        for k in 0..6u64 {
            let t = SimTime::from_millis(250 * k);
            tracker.update(
                t,
                &[
                    det(1, 3.0 - 0.5 * 0.25 * k as f64, t.as_millis()), // slow
                    det(2, 5.0 - 2.0 * 0.25 * k as f64, t.as_millis()), // fast
                ],
            );
        }
        let urgent = tracker.most_urgent(3).expect("confirmed approaching track");
        // Track 2 closes at 2 m/s from 5 m: TTC ≈ 2 s; track 1 at
        // 0.5 m/s from 3 m: TTC ≈ 5 s.
        assert_eq!(urgent.track_id, 2);
    }

    #[test]
    fn unconfirmed_tracks_not_urgent() {
        let mut tracker = Tracker::new();
        tracker.update(SimTime::ZERO, &[det(1, 1.0, 0)]);
        assert!(tracker.most_urgent(3).is_none());
    }
}
