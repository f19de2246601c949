//! Local Dynamic Map (ETSI EN 302 895).
//!
//! The LDM "builds a digital map of all dynamic objects and road details
//! … sensed by the own station or through near-by road users through
//! messages like CAM" (paper §II-B). In the testbed the edge node's Hazard
//! Advertisement Service consults the LDM to decide whether a detected
//! road user implies a collision risk for a CAM-tracked vehicle.
//!
//! Two tables are kept, mirroring OpenC2X's sqlite-backed LDM:
//! stations (from CAMs) and events (from DENMs).

use its_messages::cam::Cam;
use its_messages::common::{ActionId, ReferencePosition, StationId};
use its_messages::denm::Denm;
use sim_core::SimTime;
use std::collections::BTreeMap;

/// A DENM with the instant it was stored, from which its validity runs.
#[derive(Debug, Clone, PartialEq)]
struct StoredEvent {
    denm: Denm,
    stored: SimTime,
}

/// The Local Dynamic Map of one ITS station.
///
/// # Example
///
/// ```
/// use facilities::ldm::Ldm;
/// use its_messages::cam::Cam;
/// use its_messages::common::{ReferencePosition, StationId, StationType};
///
/// let mut ldm = Ldm::new();
/// let cam = Cam::basic(
///     StationId::new(7).unwrap(), 0, StationType::PassengerCar,
///     ReferencePosition::from_degrees(41.178, -8.608));
/// ldm.insert_cam(cam);
/// assert_eq!(ldm.station_count(), 1);
/// let near = ldm.stations_within(
///     &ReferencePosition::from_degrees(41.178, -8.608), 10.0);
/// assert_eq!(near.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ldm {
    stations: BTreeMap<StationId, Cam>,
    events: BTreeMap<ActionId, StoredEvent>,
}

impl Ldm {
    /// Creates an empty LDM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or refreshes a station track from a received CAM.
    pub fn insert_cam(&mut self, cam: Cam) {
        self.stations.insert(cam.header.station_id, cam);
    }

    /// Inserts or refreshes an event from a received DENM. Termination
    /// DENMs remove the event instead.
    pub fn insert_denm(&mut self, now: SimTime, denm: Denm) {
        let action = denm.management.action_id;
        if denm.is_termination() {
            self.events.remove(&action);
        } else {
            self.events
                .insert(action, StoredEvent { denm, stored: now });
        }
    }

    /// Number of tracked stations.
    // detlint:allow(U1) the LDM example, openc2x's node tests and tests/stack_integration.rs count the tracked stations
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Number of active events.
    // detlint:allow(U1) tests/stack_integration.rs counts the stored events
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Latest CAM of a station, if tracked.
    // detlint:allow(U1) tests/stack_integration.rs reads the CAM a station learnt over the air
    pub fn station(&self, id: StationId) -> Option<&Cam> {
        self.stations.get(&id)
    }

    /// All station CAMs whose reference position lies within `radius_m`
    /// of `centre`, sorted nearest first.
    pub fn stations_within(&self, centre: &ReferencePosition, radius_m: f64) -> Vec<&Cam> {
        let mut hits: Vec<(f64, &Cam)> = self
            .stations
            .values()
            .filter_map(|cam| {
                let d = centre.planar_distance_m(&cam.basic.reference_position);
                (d <= radius_m).then_some((d, cam))
            })
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0));
        hits.into_iter().map(|(_, cam)| cam).collect()
    }

    /// Active (non-expired) events at wall-time reference `now`, judging
    /// expiry by insertion time + validity duration.
    // detlint:allow(U1) tests/stack_integration.rs reads the unexpired events
    pub fn active_events(&self, now: SimTime) -> Vec<&Denm> {
        self.events
            .values()
            .filter(|e| {
                let validity_s = u64::from(e.denm.management.validity_duration);
                now.saturating_duration_since(e.stored).as_millis() <= validity_s * 1000
            })
            .map(|e| &e.denm)
            .collect()
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
        ldm.insert_cam(cam_at(7, 41.178));
        ldm.insert_cam(cam_at(7, 41.179));
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
        ldm.insert_cam(cam_at(1, base + 30.0 / m_per_deg));
        ldm.insert_cam(cam_at(2, base + 5.0 / m_per_deg));
        ldm.insert_cam(cam_at(3, base + 100.0 / m_per_deg));
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
}
