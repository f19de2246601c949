//! Local Dynamic Map (ETSI EN 302 895).
//!
//! The LDM "builds a digital map of all dynamic objects and road details
//! … sensed by the own station or through near-by road users through
//! messages like CAM" (paper §II-B). In the testbed the edge node's Hazard
//! Advertisement Service consults the LDM to decide whether a detected
//! road user implies a collision risk for a CAM-tracked vehicle.
//!
//! Three tables are kept, mirroring OpenC2X's sqlite-backed LDM:
//! stations (from CAMs), events (from DENMs), and locally perceived
//! objects (from the camera pipeline).

use its_messages::cam::Cam;
use its_messages::common::{ActionId, ReferencePosition, StationId};
use its_messages::denm::Denm;
use sim_core::SimTime;
use std::collections::BTreeMap;

/// An object perceived by the station's own sensors (the road-side
/// camera), not learnt over the air.
#[derive(Debug, Clone, PartialEq)]
pub struct PerceivedObject {
    /// Locally-assigned object id.
    pub id: u32,
    /// Estimated position.
    pub position: ReferencePosition,
    /// Estimated distance from the sensor, metres.
    pub distance_m: f64,
    /// Classifier label (e.g. `"stop sign"`, `"motorbike"`).
    pub class_label: &'static str,
    /// Classifier confidence `[0, 1]`.
    pub confidence: f64,
}

/// A timestamped LDM record.
#[derive(Debug, Clone, PartialEq)]
struct Stamped<T> {
    value: T,
    updated: SimTime,
}

/// The Local Dynamic Map of one ITS station.
///
/// # Example
///
/// ```
/// use facilities::ldm::Ldm;
/// use its_messages::cam::Cam;
/// use its_messages::common::{ReferencePosition, StationId, StationType};
/// use sim_core::SimTime;
///
/// let mut ldm = Ldm::new();
/// let cam = Cam::basic(
///     StationId::new(7).unwrap(), 0, StationType::PassengerCar,
///     ReferencePosition::from_degrees(41.178, -8.608));
/// ldm.insert_cam(SimTime::ZERO, cam);
/// assert_eq!(ldm.station_count(), 1);
/// let near = ldm.stations_within(
///     &ReferencePosition::from_degrees(41.178, -8.608), 10.0);
/// assert_eq!(near.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ldm {
    stations: BTreeMap<StationId, Stamped<Cam>>,
    events: BTreeMap<ActionId, Stamped<Denm>>,
    objects: BTreeMap<u32, Stamped<PerceivedObject>>,
}

impl Ldm {
    /// Creates an empty LDM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or refreshes a station track from a received CAM.
    pub fn insert_cam(&mut self, now: SimTime, cam: Cam) {
        self.stations.insert(
            cam.header.station_id,
            Stamped {
                value: cam,
                updated: now,
            },
        );
    }

    /// Inserts or refreshes an event from a received DENM. Termination
    /// DENMs remove the event instead.
    pub fn insert_denm(&mut self, now: SimTime, denm: Denm) {
        let action = denm.management.action_id;
        if denm.is_termination() {
            self.events.remove(&action);
        } else {
            self.events.insert(
                action,
                Stamped {
                    value: denm,
                    updated: now,
                },
            );
        }
    }

    /// Inserts or refreshes a locally perceived object.
    pub fn insert_object(&mut self, now: SimTime, object: PerceivedObject) {
        self.objects.insert(
            object.id,
            Stamped {
                value: object,
                updated: now,
            },
        );
    }

    /// Number of tracked stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Number of active events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of perceived objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Latest CAM of a station, if tracked.
    pub fn station(&self, id: StationId) -> Option<&Cam> {
        self.stations.get(&id).map(|s| &s.value)
    }

    /// Latest DENM of an event, if active.
    pub fn event(&self, action: ActionId) -> Option<&Denm> {
        self.events.get(&action).map(|s| &s.value)
    }

    /// A perceived object by id.
    pub fn object(&self, id: u32) -> Option<&PerceivedObject> {
        self.objects.get(&id).map(|s| &s.value)
    }

    /// All station CAMs whose reference position lies within `radius_m`
    /// of `centre`, sorted nearest first.
    pub fn stations_within(&self, centre: &ReferencePosition, radius_m: f64) -> Vec<&Cam> {
        let mut hits: Vec<(f64, &Cam)> = self
            .stations
            .values()
            .filter_map(|s| {
                let d = centre.planar_distance_m(&s.value.basic.reference_position);
                (d <= radius_m).then_some((d, &s.value))
            })
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0));
        hits.into_iter().map(|(_, cam)| cam).collect()
    }

    /// All perceived objects within `radius_m` of `centre`, nearest first.
    #[cfg(test)]
    pub fn objects_within(
        &self,
        centre: &ReferencePosition,
        radius_m: f64,
    ) -> Vec<&PerceivedObject> {
        let mut hits: Vec<(f64, &PerceivedObject)> = self
            .objects
            .values()
            .filter_map(|s| {
                let d = centre.planar_distance_m(&s.value.position);
                (d <= radius_m).then_some((d, &s.value))
            })
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0));
        hits.into_iter().map(|(_, o)| o).collect()
    }

    /// Active (non-expired) events at wall-time reference `now`, judging
    /// expiry by insertion time + validity duration.
    pub fn active_events(&self, now: SimTime) -> Vec<&Denm> {
        self.events
            .values()
            .filter(|s| {
                let validity_s = u64::from(s.value.management.validity_duration);
                now.saturating_duration_since(s.updated).as_millis() <= validity_s * 1000
            })
            .map(|s| &s.value)
            .collect()
    }

    /// Drops every record not refreshed within `max_age_ms` of `now`.
    /// Returns the number of records removed.
    #[cfg(test)]
    pub fn gc(&mut self, now: SimTime, max_age_ms: u64) -> usize {
        let before = self.stations.len() + self.events.len() + self.objects.len();
        let fresh =
            |updated: SimTime| now.saturating_duration_since(updated).as_millis() <= max_age_ms;
        self.stations.retain(|_, s| fresh(s.updated));
        self.events.retain(|_, s| fresh(s.updated));
        self.objects.retain(|_, s| fresh(s.updated));
        before - (self.stations.len() + self.events.len() + self.objects.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_messages::common::{StationType, TimestampIts};
    use its_messages::denm::{ManagementContainer, Termination};

    fn cam_at(id: u32, lat: f64) -> Cam {
        Cam::basic(
            StationId::new(id).unwrap(),
            0,
            StationType::PassengerCar,
            ReferencePosition::from_degrees(lat, -8.608),
        )
    }

    fn denm(seq: u16, validity_s: u32) -> Denm {
        let mut m = ManagementContainer::new(
            ActionId::new(StationId::new(15).unwrap(), seq),
            TimestampIts::new(0).unwrap(),
            TimestampIts::new(0).unwrap(),
            ReferencePosition::from_degrees(41.178, -8.608),
            StationType::RoadSideUnit,
        );
        m.validity_duration = validity_s;
        Denm::new(StationId::new(15).unwrap(), m)
    }

    #[test]
    fn cam_refresh_replaces_track() {
        let mut ldm = Ldm::new();
        ldm.insert_cam(SimTime::ZERO, cam_at(7, 41.178));
        ldm.insert_cam(SimTime::from_millis(100), cam_at(7, 41.179));
        assert_eq!(ldm.station_count(), 1);
        let lat = ldm
            .station(StationId::new(7).unwrap())
            .unwrap()
            .basic
            .reference_position
            .latitude
            .as_degrees()
            .unwrap();
        assert!((lat - 41.179).abs() < 1e-6);
    }

    #[test]
    fn stations_within_sorted_by_distance() {
        let mut ldm = Ldm::new();
        let base = 41.178;
        let m_per_deg = 111_194.9;
        ldm.insert_cam(SimTime::ZERO, cam_at(1, base + 30.0 / m_per_deg));
        ldm.insert_cam(SimTime::ZERO, cam_at(2, base + 5.0 / m_per_deg));
        ldm.insert_cam(SimTime::ZERO, cam_at(3, base + 100.0 / m_per_deg));
        let centre = ReferencePosition::from_degrees(base, -8.608);
        let near = ldm.stations_within(&centre, 50.0);
        let ids: Vec<u32> = near.iter().map(|c| c.header.station_id.value()).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn termination_denm_removes_event() {
        let mut ldm = Ldm::new();
        ldm.insert_denm(SimTime::ZERO, denm(1, 600));
        assert_eq!(ldm.event_count(), 1);
        let mut cancel = denm(1, 600);
        cancel.management.termination = Some(Termination::IsCancellation);
        ldm.insert_denm(SimTime::from_millis(10), cancel);
        assert_eq!(ldm.event_count(), 0);
    }

    #[test]
    fn active_events_expire_by_validity() {
        let mut ldm = Ldm::new();
        ldm.insert_denm(SimTime::ZERO, denm(1, 1)); // 1 s validity
        assert_eq!(ldm.active_events(SimTime::from_millis(500)).len(), 1);
        assert_eq!(ldm.active_events(SimTime::from_millis(1500)).len(), 0);
        // Still stored (GC is separate from validity filtering).
        assert_eq!(ldm.event_count(), 1);
    }

    #[test]
    fn perceived_objects_query() {
        let mut ldm = Ldm::new();
        ldm.insert_object(
            SimTime::ZERO,
            PerceivedObject {
                id: 1,
                position: ReferencePosition::from_degrees(41.178, -8.608),
                distance_m: 1.45,
                class_label: "stop sign",
                confidence: 0.93,
            },
        );
        let centre = ReferencePosition::from_degrees(41.178, -8.608);
        assert_eq!(ldm.objects_within(&centre, 5.0).len(), 1);
        assert_eq!(ldm.object(1).unwrap().class_label, "stop sign");
        assert!(ldm.object(2).is_none());
    }

    #[test]
    fn gc_drops_stale_records_only() {
        let mut ldm = Ldm::new();
        ldm.insert_cam(SimTime::ZERO, cam_at(1, 41.178));
        ldm.insert_cam(SimTime::from_millis(900), cam_at(2, 41.179));
        ldm.insert_denm(SimTime::ZERO, denm(1, 600));
        let removed = ldm.gc(SimTime::from_millis(1000), 500);
        assert_eq!(removed, 2); // station 1 and the DENM
        assert_eq!(ldm.station_count(), 1);
        assert!(ldm.station(StationId::new(2).unwrap()).is_some());
    }

    #[test]
    fn cooperative_perception_combines_sources() {
        // The hazard service's world view: one CAM-tracked vehicle and one
        // camera-perceived object, both queryable around the intersection.
        let mut ldm = Ldm::new();
        ldm.insert_cam(SimTime::ZERO, cam_at(7, 41.17801));
        ldm.insert_object(
            SimTime::ZERO,
            PerceivedObject {
                id: 9,
                position: ReferencePosition::from_degrees(41.17802, -8.608),
                distance_m: 1.5,
                class_label: "stop sign",
                confidence: 0.9,
            },
        );
        let centre = ReferencePosition::from_degrees(41.178, -8.608);
        assert_eq!(ldm.stations_within(&centre, 10.0).len(), 1);
        assert_eq!(ldm.objects_within(&centre, 10.0).len(), 1);
    }
}
